//! # gpu-sim — a deterministic multi-GPU node simulator
//!
//! Models the hardware/runtime substrate of the CPU-Free paper's testbed —
//! an NVIDIA HGX node with A100 GPUs connected all-to-all over NVLink — on
//! top of the `sim-des` virtual-time engine:
//!
//! * **Devices** with SM counts and co-residency limits ([`DeviceSpec`]);
//! * **Streams** — in-order operation queues with concurrent execution
//!   across streams ([`Stream`]);
//! * a **host runtime** whose every call charges calibrated CUDA API
//!   latencies ([`HostCtx`]): kernel launches, async memcpys, events, stream
//!   synchronization, host barriers;
//! * **cooperative (persistent) kernels** with `grid.sync()` and the
//!   cooperative-launch co-residency check ([`HostCtx::launch_cooperative`]);
//! * **memory** as real `f64` buffers ([`Buf`]) so workloads are verifiable,
//!   with time charged separately through the [`CostModel`];
//! * UVA-style **peer load/store** from inside kernels
//!   ([`KernelCtx::p2p_copy`]);
//! * an **interconnect topology** — routed, shared links with serialized
//!   bandwidth, so concurrent transfers on a common hop queue
//!   ([`Topology`], [`Transport`], [`TopologyKind`]).
//!
//! Timing and function are decoupled: [`ExecMode::TimingOnly`] elides
//! arithmetic but preserves the exact protocol, for large-domain sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod cost;
mod device;
mod host;
mod kernel;
mod machine;
mod mem;
pub mod resilience;
mod stream;
mod topo;

pub use check::{CheckReport, Checker};
pub use cost::CostModel;
pub use device::DeviceSpec;
pub use host::HostCtx;
pub use kernel::{BlockGroup, CoopKernel, GridInfo, KernelBody, KernelCtx};
pub use machine::{ExecMode, Machine};
pub use mem::{Buf, DevId, Place};
pub use resilience::{alive_at, format_quorum, HealedRoutes, PartitionedNetwork};
pub use sim_des::{
    CrashFault, DiagKind, Diagnostic, DropFault, FaultPlan, FaultState, LinkFault, StragglerFault,
};
pub use stream::Stream;
pub use topo::{Endpoint, Link, LinkClocks, Topology, TopologyKind, Transport};

#[cfg(test)]
mod tests {
    use super::*;
    use sim_des::{us, Category, SignalOp};

    fn machine(n: usize) -> Machine {
        Machine::new(n, CostModel::a100_hgx(), ExecMode::Full)
    }

    #[test]
    fn empty_machine_runs() {
        let m = machine(1);
        assert_eq!(m.run().unwrap().as_nanos(), 0);
    }

    #[test]
    fn discrete_kernel_charges_launch_and_compute() {
        let m = machine(1);
        let cost = m.cost().clone();
        m.spawn_host("rank0", move |host| {
            let s = host.create_stream(DevId(0), "s");
            host.launch(&s, "k", |k| {
                k.busy(Category::Compute, "work", us(10.0));
            });
            host.sync_stream(&s);
        });
        let end = m.run().unwrap();
        // stream create + host launch + device start + work + sync.
        let expected = cost.api_call()
            + cost.kernel_launch_host()
            + cost.kernel_launch_device()
            + us(10.0)
            + cost.stream_sync();
        assert_eq!(
            end.as_nanos(),
            (sim_des::SimTime::ZERO + expected).as_nanos()
        );
    }

    #[test]
    fn streams_execute_in_order() {
        let m = machine(1);
        let buf = m.alloc(DevId(0), "b", 4);
        let b1 = buf.clone();
        let b2 = buf.clone();
        m.spawn_host("rank0", move |host| {
            let s = host.create_stream(DevId(0), "s");
            host.launch(&s, "first", move |k| {
                k.compute("w", 0, 0, 1.0, || b1.set(0, 1.0));
                k.busy(Category::Compute, "pad", us(5.0));
            });
            host.launch(&s, "second", move |k| {
                // Must observe the first kernel's write.
                k.compute("r", 0, 0, 1.0, || {
                    assert_eq!(b2.get(0), 1.0);
                    b2.set(1, 2.0);
                });
            });
            host.sync_stream(&s);
        });
        m.run().unwrap();
        assert_eq!(buf.get(1), 2.0);
    }

    #[test]
    fn concurrent_streams_overlap() {
        let m = machine(1);
        m.spawn_host("rank0", move |host| {
            let s1 = host.create_stream(DevId(0), "a");
            let s2 = host.create_stream(DevId(0), "b");
            host.launch(&s1, "k1", |k| k.busy(Category::Compute, "w", us(100.0)));
            host.launch(&s2, "k2", |k| k.busy(Category::Compute, "w", us(100.0)));
            host.sync_stream(&s1);
            host.sync_stream(&s2);
        });
        let end = m.run().unwrap();
        // If the kernels serialized this would exceed 200 µs.
        assert!(
            end.as_micros_f64() < 150.0,
            "streams failed to overlap: {end}"
        );
    }

    #[test]
    fn memcpy_moves_data_and_charges_bandwidth() {
        let m = machine(2);
        let src = m.alloc(DevId(0), "src", 1024);
        let dst = m.alloc(DevId(1), "dst", 1024);
        src.fill(3.5);
        let (s2, d2) = (src.clone(), dst.clone());
        m.spawn_host("rank0", move |host| {
            let s = host.create_stream(DevId(0), "s");
            host.memcpy_async(&s, &d2, 0, &s2, 0, 1024);
            host.sync_stream(&s);
        });
        let end = m.run().unwrap();
        assert_eq!(dst.get(1023), 3.5);
        let cost = CostModel::a100_hgx();
        assert!(end.as_nanos() >= cost.p2p_copy(8192).as_nanos());
    }

    #[test]
    fn events_order_across_streams() {
        let m = machine(1);
        let buf = m.alloc(DevId(0), "b", 1);
        let flag = m.flag(0);
        let b1 = buf.clone();
        let b2 = buf.clone();
        m.spawn_host("rank0", move |host| {
            let producer = host.create_stream(DevId(0), "prod");
            let consumer = host.create_stream(DevId(0), "cons");
            host.launch(&producer, "produce", move |k| {
                k.busy(Category::Compute, "w", us(50.0));
                k.compute("store", 0, 0, 1.0, || b1.set(0, 7.0));
            });
            host.record_event(&producer, flag, 1);
            host.wait_event(&consumer, flag, 1);
            host.launch(&consumer, "consume", move |k| {
                k.compute("load", 0, 0, 1.0, || assert_eq!(b2.get(0), 7.0));
            });
            host.sync_stream(&consumer);
        });
        m.run().unwrap();
    }

    #[test]
    fn cooperative_kernel_grid_sync_lockstep() {
        let m = machine(1);
        let probe = m.flag(0);
        m.spawn_host("rank0", move |host| {
            let k = host.launch_cooperative(
                DevId(0),
                "persistent",
                1024,
                vec![
                    BlockGroup::new("fast", 1, move |k| {
                        for _ in 0..3 {
                            k.busy(Category::Compute, "w", us(1.0));
                            k.grid_sync();
                        }
                    }),
                    BlockGroup::new("slow", 1, move |k| {
                        for _ in 0..3 {
                            k.busy(Category::Compute, "w", us(10.0));
                            k.grid_sync();
                        }
                    }),
                ],
            );
            host.wait_cooperative(&k);
            host.agent_mut().signal(probe, SignalOp::Set, 1);
        });
        let end = m.run().unwrap();
        // Slow group dominates each of three rounds (10 µs) + overheads.
        assert!(end.as_micros_f64() >= 30.0);
        assert!(end.as_micros_f64() < 60.0);
        assert_eq!(m.engine().flag_value(probe), 1);
    }

    #[test]
    fn cooperative_launch_rejects_oversubscription() {
        let m = machine(1);
        m.spawn_host("rank0", move |host| {
            let res = host.try_launch_cooperative(
                DevId(0),
                "too_big",
                1024,
                vec![BlockGroup::new("g", 100_000, |_k| {})],
            );
            let err = res.err().expect("oversubscription must be rejected");
            assert!(err.contains("co-residency"), "{err}");
        });
        m.run().unwrap();
    }

    #[test]
    fn p2p_copy_inside_kernel() {
        let m = machine(2);
        let a = m.alloc(DevId(0), "a", 8);
        let b = m.alloc(DevId(1), "b", 8);
        a.fill(1.25);
        let (a2, b2) = (a.clone(), b.clone());
        m.spawn_host("rank0", move |host| {
            let k = host.launch_cooperative(
                DevId(0),
                "pusher",
                1024,
                vec![BlockGroup::new("g", 1, move |k| {
                    k.p2p_copy(&b2, 0, &a2, 0, 8, "push to gpu1");
                })],
            );
            host.wait_cooperative(&k);
        });
        m.run().unwrap();
        assert_eq!(b.get(7), 1.25);
    }

    #[test]
    fn timing_only_skips_arithmetic_same_time() {
        fn run(mode: ExecMode) -> (u64, f64) {
            let m = Machine::new(1, CostModel::a100_hgx(), mode);
            let buf = m.alloc(DevId(0), "b", 4);
            let b = buf.clone();
            m.spawn_host("rank0", move |host| {
                let s = host.create_stream(DevId(0), "s");
                host.launch(&s, "k", move |k| {
                    k.compute("w", 1 << 20, 0, 1.0, || b.set(0, 42.0));
                });
                host.sync_stream(&s);
            });
            let end = m.run().unwrap();
            (end.as_nanos(), buf.get(0))
        }
        let (t_full, v_full) = run(ExecMode::Full);
        let (t_timing, v_timing) = run(ExecMode::TimingOnly);
        assert_eq!(t_full, t_timing, "modes must charge identical time");
        assert_eq!(v_full, 42.0);
        assert_eq!(v_timing, 0.0, "timing-only must not run arithmetic");
    }

    #[test]
    fn host_barrier_synchronizes_ranks() {
        let m = machine(2);
        let bar = m.barrier(2);
        for rank in 0..2usize {
            m.spawn_host(format!("rank{rank}"), move |host| {
                host.agent_mut().advance(us(10.0 * (rank + 1) as f64));
                host.host_barrier(bar, 2);
                // Both released at the slower rank's arrival (20 µs) + barrier.
                assert!(host.now().as_micros_f64() >= 20.0);
            });
        }
        m.run().unwrap();
    }

    #[test]
    fn device_bounds_checked() {
        let m = machine(2);
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.alloc(DevId(5), "x", 1)));
        assert!(r.is_err());
    }

    #[test]
    fn determinism_across_runs() {
        fn once() -> u64 {
            let m = machine(4);
            let bufs: Vec<Buf> = m.devices().map(|d| m.alloc(d, "b", 64)).collect();
            for rank in 0..4usize {
                let my = bufs[rank].clone();
                let peer = bufs[(rank + 1) % 4].clone();
                m.spawn_host(format!("rank{rank}"), move |host| {
                    let dev = DevId(rank);
                    let s = host.create_stream(dev, "s");
                    for i in 0..5 {
                        let (my, peer) = (my.clone(), peer.clone());
                        host.launch(&s, format!("k{i}"), move |k| {
                            k.compute("w", 4096, 0, 1.0, || {
                                let v = my.get(0) + 1.0;
                                my.set(0, v);
                            });
                            k.p2p_copy(&peer, 1, &my, 0, 1, "share");
                        });
                        host.sync_stream(&s);
                    }
                });
            }
            let end = m.run().unwrap();
            let mut h = end.as_nanos();
            for b in &bufs {
                h = h.wrapping_mul(31).wrapping_add(b.checksum());
            }
            h
        }
        assert_eq!(once(), once());
    }

    #[test]
    fn trace_contains_expected_categories() {
        let m = machine(1);
        m.spawn_host("rank0", move |host| {
            let s = host.create_stream(DevId(0), "s");
            host.launch(&s, "k", |k| k.busy(Category::Compute, "w", us(3.0)));
            host.sync_stream(&s);
        });
        m.run().unwrap();
        let t = m.trace();
        assert!(t.total(Category::Launch).as_nanos() > 0);
        assert!(t.total(Category::Compute).as_nanos() > 0);
        assert!(t.total(Category::Sync).as_nanos() > 0);
        assert!(t.total(Category::Api).as_nanos() > 0);
    }
}
