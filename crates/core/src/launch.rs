//! The CPU-Free launch blueprint (§3).
//!
//! In the CPU-Free model the host's entire job is the *initial* launch: one
//! persistent cooperative kernel per device, after which devices synchronize
//! and communicate autonomously. [`launch_cpu_free`] encodes exactly that —
//! each host rank launches once and waits — and the two-kernel
//! [`launch_cpu_free_dual`] encodes the paper's "alternative design" of
//! co-resident boundary/inner kernels in separate streams synchronized by
//! local device flags.

use gpu_sim::{BlockGroup, DevId, KernelCtx, Machine};
use sim_des::{Category, Cmp, Flag, SignalOp, SimError, SimTime};

/// Threads per block of every persistent kernel: one 1024-thread block per
/// SM (shared-memory bound, as in the paper). The mapped-put wave width
/// and its cost prediction read it too.
pub const BLOCK_THREADS: u32 = 1024;

/// Launch a CPU-Free application: one persistent cooperative kernel per
/// device, built by `groups_for_pe(pe)`; the host does nothing else.
///
/// Returns the end-to-end virtual time of the run.
pub fn launch_cpu_free<F>(
    machine: &Machine,
    name: &str,
    groups_for_pe: F,
) -> Result<SimTime, SimError>
where
    F: Fn(usize) -> Vec<BlockGroup> + Send + Sync + 'static,
{
    let groups_for_pe = std::sync::Arc::new(groups_for_pe);
    for pe in 0..machine.num_devices() {
        let name = name.to_string();
        let gfp = std::sync::Arc::clone(&groups_for_pe);
        machine.spawn_host(format!("rank{pe}"), move |host| {
            let groups = gfp(pe);
            // The single kernel launch — the only CPU involvement.
            let kernel = host.launch_cooperative(DevId(pe), &name, BLOCK_THREADS, groups);
            host.wait_cooperative(&kernel);
        });
    }
    machine.run()
}

/// Pairwise rendezvous between two co-resident kernels on the same device,
/// implemented — as the paper describes — by busy-waiting on flags in local
/// device memory.
#[derive(Clone, Copy)]
pub struct LocalRendezvous {
    a: Flag,
    b: Flag,
}

impl LocalRendezvous {
    /// Allocate the flag pair on `machine` (conceptually in device memory).
    pub fn new(machine: &Machine) -> LocalRendezvous {
        LocalRendezvous {
            a: machine.flag(0),
            b: machine.flag(0),
        }
    }

    /// Called by kernel "A" at the end of iteration `iter` (1-based).
    pub fn sync_as_a(&self, ctx: &mut KernelCtx<'_>, iter: u64) {
        self.sync(ctx, self.a, self.b, iter);
    }

    /// Called by kernel "B" at the end of iteration `iter` (1-based).
    pub fn sync_as_b(&self, ctx: &mut KernelCtx<'_>, iter: u64) {
        self.sync(ctx, self.b, self.a, iter);
    }

    fn sync(&self, ctx: &mut KernelCtx<'_>, mine: Flag, other: Flag, iter: u64) {
        let poll = ctx.cost().shmem_poll();
        let agent = ctx.agent_mut();
        let start = agent.now();
        agent.signal(mine, SignalOp::Set, iter);
        agent.wait_flag(other, Cmp::Ge, iter);
        agent.advance(poll);
        let end = agent.now();
        agent.record(
            Category::Sync,
            format!("local rendezvous it{iter}"),
            start,
            end,
        );
    }
}

/// The paper's alternative design (§4): two co-resident persistent kernels
/// per device — one for communication/boundary, one for inner compute —
/// launched in separate streams and synchronized per iteration through a
/// [`LocalRendezvous`] in device memory.
///
/// `comm_for_pe(pe, rv)` and `comp_for_pe(pe, rv)` build the two kernels'
/// block groups; both receive the device's rendezvous so their bodies can
/// call [`LocalRendezvous::sync_as_a`]/[`sync_as_b`](LocalRendezvous::sync_as_b)
/// each iteration.
pub fn launch_cpu_free_dual<FA, FB>(
    machine: &Machine,
    name: &str,
    comm_for_pe: FA,
    comp_for_pe: FB,
) -> Result<SimTime, SimError>
where
    FA: Fn(usize, LocalRendezvous) -> Vec<BlockGroup> + Send + Sync + 'static,
    FB: Fn(usize, LocalRendezvous) -> Vec<BlockGroup> + Send + Sync + 'static,
{
    let comm_for_pe = std::sync::Arc::new(comm_for_pe);
    let comp_for_pe = std::sync::Arc::new(comp_for_pe);
    for pe in 0..machine.num_devices() {
        let name = name.to_string();
        let fa = std::sync::Arc::clone(&comm_for_pe);
        let fb = std::sync::Arc::clone(&comp_for_pe);
        let rv = LocalRendezvous::new(machine);
        machine.spawn_host(format!("rank{pe}"), move |host| {
            let comm = host.launch_cooperative(
                DevId(pe),
                format!("{name}.comm"),
                BLOCK_THREADS,
                fa(pe, rv),
            );
            let comp = host.launch_cooperative(
                DevId(pe),
                format!("{name}.comp"),
                BLOCK_THREADS,
                fb(pe, rv),
            );
            host.wait_cooperative(&comm);
            host.wait_cooperative(&comp);
        });
    }
    machine.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CostModel, ExecMode};
    use nvshmem_sim::{ShmemCtx, ShmemWorld};
    use sim_des::us;

    #[test]
    fn cpu_free_launch_runs_one_kernel_per_device() {
        let machine = Machine::new(4, CostModel::a100_hgx(), ExecMode::Full);
        let counter = machine.flag(0);
        let end = launch_cpu_free(&machine, "app", move |_pe| {
            vec![BlockGroup::new("solo", 1, move |k| {
                k.busy(Category::Compute, "w", us(5.0));
                k.agent_mut().signal(counter, SignalOp::Add, 1);
            })]
        })
        .unwrap();
        assert_eq!(machine.engine().flag_value(counter), 4);
        assert!(end.as_micros_f64() >= 5.0);
        // No per-iteration host activity: exactly one Launch pair per device
        // from the host side plus the device kstart spans.
        let launches = machine
            .trace()
            .filter(|s| s.category == Category::Launch)
            .len();
        assert_eq!(launches, 8, "host launch + device start per device");
    }

    #[test]
    fn persistent_kernel_iterates_with_grid_sync() {
        let machine = Machine::new(1, CostModel::a100_hgx(), ExecMode::Full);
        let probe = machine.flag(0);
        launch_cpu_free(&machine, "loop", move |_pe| {
            vec![
                BlockGroup::new("g0", 1, move |k| {
                    for _ in 0..10 {
                        k.busy(Category::Compute, "w", us(1.0));
                        k.agent_mut().signal(probe, SignalOp::Add, 1);
                        k.grid_sync();
                    }
                }),
                BlockGroup::new("g1", 1, move |k| {
                    for _ in 0..10 {
                        k.busy(Category::Compute, "w", us(2.0));
                        k.grid_sync();
                    }
                }),
            ]
        })
        .unwrap();
        assert_eq!(machine.engine().flag_value(probe), 10);
    }

    #[test]
    fn dual_kernel_design_stays_in_lockstep() {
        let machine = Machine::new(2, CostModel::a100_hgx(), ExecMode::Full);
        let iters = 5u64;
        let end = launch_cpu_free_dual(
            &machine,
            "dual",
            move |_pe, rv| {
                vec![BlockGroup::new("comm", 1, move |k| {
                    for it in 1..=iters {
                        k.busy(Category::Comm, "halo", us(1.0));
                        rv.sync_as_a(k, it);
                    }
                })]
            },
            move |_pe, rv| {
                vec![BlockGroup::new("comp", 1, move |k| {
                    for it in 1..=iters {
                        k.busy(Category::Compute, "inner", us(4.0));
                        rv.sync_as_b(k, it);
                    }
                })]
            },
        )
        .unwrap();
        // Each iteration gated by the slower (4 µs) kernel, plus launch
        // latencies and rendezvous poll costs.
        assert!(end.as_micros_f64() >= 20.0);
        assert!(end.as_micros_f64() < 80.0);
    }

    #[test]
    fn cpu_free_app_with_shmem_halo_protocol() {
        // A ring of PEs exchanging a token per iteration — the §4.1.1
        // semaphore over the CPU-Free launch blueprint. Verifies the whole
        // stack composes: launch_cpu_free + NVSHMEM put-with-signal.
        let n = 4usize;
        let iters = 8u64;
        let machine = Machine::new(n, CostModel::a100_hgx(), ExecMode::Full);
        let world = ShmemWorld::init(&machine);
        let halo = world.malloc("halo", 1);
        let sig = world.signal(0);
        let w = world.clone();
        let halo_in = halo.clone();
        let sig_in = sig.clone();
        launch_cpu_free(&machine, "ring", move |pe| {
            let w = w.clone();
            let halo = halo_in.clone();
            let sig = sig_in.clone();
            vec![BlockGroup::new("comm", 1, move |k| {
                let mut sh = ShmemCtx::new(&w, k);
                let right = (pe + 1) % n;
                let src = k.machine().alloc(DevId(pe), "tok", 1);
                for it in 1..=iters {
                    src.set(0, (pe as f64) + (it as f64) * 100.0);
                    sh.putmem_signal_nbi(k, &halo, 0, &src, 0, 1, &sig, SignalOp::Set, it, right);
                    sh.signal_wait_until(k, &sig, Cmp::Ge, it);
                }
            })]
        })
        .unwrap();
        // Every PE holds its left neighbor's final-iteration token, and
        // every PE's signal reached the final iteration number.
        for pe in 0..n {
            let left = (pe + n - 1) % n;
            let expected = left as f64 + (iters as f64) * 100.0;
            assert_eq!(halo.local(pe).get(0), expected, "pe {pe}");
            assert_eq!(machine.engine().flag_value(sig.flag(pe)), iters);
        }
    }
}
