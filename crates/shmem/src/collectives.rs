//! Device-side collectives built on the RMA + signaling primitives —
//! what applications beyond stencils (iterative solvers with global
//! reductions, §PERKS-style CG) need from the communication layer.
//!
//! One flat scalar allreduce, [`allreduce`], serves every caller: the
//! persistent CG kernel (all PEs, blocking waits — [`allreduce_scalar`]),
//! the fault-tolerant CG (all PEs, waits that abandon the call when a
//! rollback is announced) and the degraded runners (a surviving
//! [`Members::Quorum`], waits that declare their peer). It uses
//! **recursive doubling** for power-of-two PE counts (log₂ n rounds of
//! pairwise exchange) and a **ring** otherwise; both drive the same
//! per-round handshake. Floating-point combination order is fixed by PE
//! index (lower PE's value is always the left operand), so every PE
//! computes the *bitwise identical* result — and so can a reference
//! implementation.
//!
//! Neighbor selection is **topology-derived**: the ring walks the
//! machine's [`gpu_sim::Topology::ring_order`] embedding (route-nearest
//! neighbors) instead of hardcoded rank arithmetic. Numerical results do
//! not depend on the topology — only the virtual time does.

use crate::{ShmemCtx, ShmemWorld, SymArray, SymSignal};
use gpu_sim::{Buf, KernelCtx};
use sim_des::{Cmp, SignalOp};
use std::borrow::Cow;

/// Reduction operator for collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum (left-to-right by PE index).
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl ReduceOp {
    /// Combine two values with a fixed operand order.
    #[inline]
    pub fn combine(self, left: f64, right: f64) -> f64 {
        match self {
            ReduceOp::Sum => left + right,
            ReduceOp::Max => left.max(right),
            ReduceOp::Min => left.min(right),
        }
    }
}

/// Collectively-allocated workspace for scalar all-reductions.
///
/// One instance per kernel role: every PE's participating agent clones the
/// workspace and keeps a private sequence counter, so the same workspace
/// can be reused every iteration of a persistent kernel.
#[derive(Clone)]
pub struct AllreduceWs {
    /// One slot per round (recursive doubling / ring).
    slots: SymArray,
    /// One data-arrival signal per round.
    sigs: Vec<SymSignal>,
    /// One consumption-acknowledgement signal per round: a writer may not
    /// reuse a slot for epoch `e` until the reader acked epoch `e-1`
    /// (otherwise a fast PE can overwrite a slot the slow PE has not read).
    acks: Vec<SymSignal>,
    /// Local call counter (signal epochs).
    seq: u64,
    n_pes: usize,
    rounds: usize,
    /// Recursive doubling rather than a ring (see [`AllreduceWs::new`]).
    doubling: bool,
}

impl AllreduceWs {
    /// Collective allocation over the world. A power-of-two world reduces
    /// by **recursive doubling** (log₂ n rounds); any other size takes the
    /// ring of [`AllreduceWs::new_ring`].
    pub fn new(world: &ShmemWorld) -> AllreduceWs {
        let n = world.n_pes();
        if n.is_power_of_two() {
            Self::alloc(world, n.trailing_zeros() as usize, true)
        } else {
            Self::new_ring(world)
        }
    }

    /// Collective allocation for the **ring** schedule: `n - 1` round
    /// slots, enough for a ring over any member subset. Required by
    /// [`Members::Quorum`], whose size is not known at allocation time (a
    /// quorum of `m` members needs `m - 1` distinct slots, and `m` can be
    /// as large as `n`).
    pub fn new_ring(world: &ShmemWorld) -> AllreduceWs {
        Self::alloc(world, world.n_pes().saturating_sub(1), false)
    }

    fn alloc(world: &ShmemWorld, rounds: usize, doubling: bool) -> AllreduceWs {
        let rounds = rounds.max(1);
        AllreduceWs {
            slots: world.malloc("allreduce.slots", rounds),
            sigs: world.signals(rounds, 0),
            acks: world.signals(rounds, 0),
            seq: 0,
            n_pes: world.n_pes(),
            rounds,
            doubling,
        }
    }

    /// Number of round slots (communication rounds of a full-world call).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The local call counter (signal epoch of the last completed call).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Rewind the local call counter — checkpoint/restart support. The
    /// counter is a pure function of how many allreduces completed, so a
    /// recovery protocol can recompute it from the checkpoint iteration.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Reset this PE's *local* arrival and ack flags to the epoch `seq` —
    /// the value they hold in a fault-free run after `seq` completed calls.
    /// Part of rollback: wipes any flag advance from an abandoned call so a
    /// post-restart wait cannot be satisfied by stale state. Only safe when
    /// nothing is in flight toward this PE (quiet + barrier first).
    pub fn reset_local(&self, ctx: &mut KernelCtx<'_>, me: usize, seq: u64) {
        for k in 0..self.rounds {
            ctx.agent_mut()
                .signal(self.sigs[k].flag(me), SignalOp::Set, seq);
            ctx.agent_mut()
                .signal(self.acks[k].flag(me), SignalOp::Set, seq);
        }
    }
}

/// The PEs taking part in an [`allreduce`].
#[derive(Debug, Clone, Copy)]
pub enum Members<'a> {
    /// Every PE of the world, on the workspace's schedule.
    All,
    /// The surviving members of a degraded run, sorted ascending,
    /// non-empty and containing the caller. They reduce around their
    /// embedding in the topology's base ring
    /// ([`gpu_sim::Topology::ring_order_among`]) — the healed ring closes
    /// the gap a dead PE leaves — so the workspace must come from
    /// [`AllreduceWs::new_ring`]. Across epochs on one workspace the
    /// membership may only **shrink** (deaths are permanent), so every
    /// slot in use carries a flow-control ack from the previous epoch.
    Quorum(&'a [usize]),
}

/// How [`allreduce`] waits for one of its round signals to reach a value
/// (`Cmp::Ge`): `true` once it has, `false` to abandon the call. The last
/// argument is the PE expected to raise the signal.
pub type Wait<'w> =
    dyn FnMut(&mut ShmemCtx, &mut KernelCtx<'_>, &SymSignal, u64, usize) -> bool + 'w;

/// [`Wait`] that blocks ([`ShmemCtx::signal_wait_until`]).
fn wait_until(
    sh: &mut ShmemCtx,
    ctx: &mut KernelCtx<'_>,
    sig: &SymSignal,
    value: u64,
    _from: usize,
) -> bool {
    sh.signal_wait_until(ctx, sig, Cmp::Ge, value);
    true
}

/// [`Wait`] that blocks and declares the peer
/// ([`ShmemCtx::signal_wait_from`]), so a run that never completes is
/// attributed with a wait-for edge.
pub fn wait_from(
    sh: &mut ShmemCtx,
    ctx: &mut KernelCtx<'_>,
    sig: &SymSignal,
    value: u64,
    from: usize,
) -> bool {
    sh.signal_wait_from(ctx, sig, Cmp::Ge, value, from);
    true
}

/// All-reduce a scalar across every PE with blocking waits. Exactly one
/// agent per PE must call this per "epoch"; all PEs receive the identical
/// result.
pub fn allreduce_scalar(
    sh: &mut ShmemCtx,
    ctx: &mut KernelCtx<'_>,
    ws: &mut AllreduceWs,
    value: f64,
    op: ReduceOp,
) -> f64 {
    let mut retries = 0;
    allreduce(
        sh,
        ctx,
        ws,
        value,
        op,
        Members::All,
        &mut wait_until,
        &mut retries,
    )
    .expect("a blocking wait never abandons")
}

/// All-reduce a scalar across `members`. Exactly one agent per member
/// must call this per epoch (non-members must not); every member receives
/// the bitwise identical result, combined in global PE-index order over
/// the members (see the module docs).
///
/// Every put is retried ([`ShmemCtx::putmem_signal_reliable`]), so a
/// dropped delivery cannot hang the partner; extra attempts accumulate
/// into `retries`. Every wait goes through `wait`, and when it abandons,
/// so does the call (`None`). The workspace counter has then advanced past
/// the abandoned epoch: recovery must rewind it ([`AllreduceWs::set_seq`])
/// and reset the local flags ([`AllreduceWs::reset_local`]) after its
/// rollback barrier.
#[allow(clippy::too_many_arguments)]
pub fn allreduce(
    sh: &mut ShmemCtx,
    ctx: &mut KernelCtx<'_>,
    ws: &mut AllreduceWs,
    value: f64,
    op: ReduceOp,
    members: Members<'_>,
    wait: &mut Wait<'_>,
    retries: &mut u64,
) -> Option<f64> {
    let me = sh.my_pe();
    let topo = std::sync::Arc::clone(sh.world().topology());
    let order: Cow<'_, [usize]> = match members {
        Members::All => Cow::Borrowed(topo.ring_order()),
        Members::Quorum(ms) => {
            assert!(
                ms.windows(2).all(|w| w[0] < w[1]),
                "quorum must be sorted ascending: {ms:?}"
            );
            assert!(
                ms.contains(&me),
                "pe{me} called a quorum allreduce but is not in {ms:?}"
            );
            assert!(
                !ws.doubling,
                "a quorum allreduce needs a ring workspace — allocate with AllreduceWs::new_ring"
            );
            Cow::Owned(topo.ring_order_among(ms))
        }
    };
    let m = order.len();
    ws.seq += 1;
    if m == 1 {
        return Some(value);
    }
    let pos = order
        .iter()
        .position(|&p| p == me)
        .expect("caller missing from the ring order");
    // One scratch cell per round: an nbi put reads its source at delivery
    // time, so a cell must stay untouched while its put is in flight
    // (NVSHMEM's source-buffer reuse rule). Reuse across *calls* is safe:
    // the ack handshake orders it behind the consumption of the delivery.
    let scratch = ctx
        .machine()
        .alloc(ctx.device(), "allreduce.src", ws.rounds);
    if ws.doubling {
        // Recursive doubling over ring *positions*: at round k exchange
        // with the PE whose position is pos ^ 2^k (identity ranks on every
        // preset, but derived from the topology's embedding).
        let mut acc = value;
        for k in 0..ws.rounds {
            let partner = order[pos ^ (1 << k)];
            let theirs = round(
                sh, ctx, ws, &scratch, k, acc, partner, partner, wait, retries,
            )?;
            // Fixed operand order: lower PE index on the left.
            acc = if partner < me {
                op.combine(theirs, acc)
            } else {
                op.combine(acc, theirs)
            };
        }
        return Some(acc);
    }
    // Ring: everyone circulates its ORIGINAL value to the right, so after
    // m-1 rounds every member holds every member's value, keyed by origin.
    let right = order[(pos + 1) % m];
    let left = order[(pos + m - 1) % m];
    let mut values = vec![0.0f64; ws.n_pes];
    values[me] = value;
    let mut forwarding = value;
    for r in 0..m - 1 {
        forwarding = round(
            sh, ctx, ws, &scratch, r, forwarding, right, left, wait, retries,
        )?;
        // The value received at round r originated r+1 ring positions to
        // my left.
        values[order[(pos + m - r - 1) % m]] = forwarding;
    }
    // Combine in global PE-index order regardless of the ring embedding,
    // so results are topology-invariant.
    Some(match members {
        Members::All => fold_in_order(op, values.iter().copied()),
        Members::Quorum(ms) => fold_in_order(op, ms.iter().map(|&pe| values[pe])),
    })
}

/// Left fold of a non-empty sequence: `((v0 ∘ v1) ∘ v2) ∘ …`.
fn fold_in_order(op: ReduceOp, mut values: impl Iterator<Item = f64>) -> f64 {
    let first = values.next().expect("fold of an empty member set");
    values.fold(first, |acc, v| op.combine(acc, v))
}

/// One round of the handshake: wait until the slot's reader `to` acked my
/// previous epoch's write, put `value` into its slot with the round
/// signal, wait for the slot's writer `from` to fill mine, read it and
/// ack. `None` when `wait` abandons.
#[allow(clippy::too_many_arguments)]
fn round(
    sh: &mut ShmemCtx,
    ctx: &mut KernelCtx<'_>,
    ws: &AllreduceWs,
    scratch: &Buf,
    slot: usize,
    value: f64,
    to: usize,
    from: usize,
    wait: &mut Wait<'_>,
    retries: &mut u64,
) -> Option<f64> {
    let me = sh.my_pe();
    if !wait(sh, ctx, &ws.acks[slot], ws.seq - 1, to) {
        return None;
    }
    ctx.check_write(scratch, slot, slot + 1, "allreduce scratch");
    scratch.set(slot, value);
    let attempts = sh.putmem_signal_reliable(
        ctx,
        &ws.slots,
        slot,
        scratch,
        slot,
        1,
        &ws.sigs[slot],
        SignalOp::Set,
        ws.seq,
        to,
    );
    *retries += u64::from(attempts - 1);
    if !wait(sh, ctx, &ws.sigs[slot], ws.seq, from) {
        return None;
    }
    ctx.check_read(ws.slots.local(me), slot, slot + 1, "allreduce slot");
    let got = ws.slots.local(me).get(slot);
    // Acknowledge consumption so the writer may reuse the slot.
    sh.signal_op(ctx, &ws.acks[slot], SignalOp::Set, ws.seq, from);
    Some(got)
}

/// Reference combine over a slice in the same fixed order the distributed
/// allreduce uses — for bitwise verification of solver results.
pub fn reference_reduce(values: &[f64], op: ReduceOp, power_of_two: bool) -> f64 {
    let n = values.len();
    if n == 1 {
        return values[0];
    }
    if power_of_two && n.is_power_of_two() {
        // Recursive doubling combines pairwise by blocks.
        let mut vals = values.to_vec();
        let mut stride = 1;
        while stride < n {
            let mut next = vals.clone();
            for (i, slot) in next.iter_mut().enumerate() {
                let partner = i ^ stride;
                let (lo, hi) = if partner < i {
                    (partner, i)
                } else {
                    (i, partner)
                };
                *slot = op.combine(vals[lo], vals[hi]);
            }
            // All entries in a block of 2*stride now agree.
            vals = next;
            stride *= 2;
        }
        vals[0]
    } else {
        let mut acc = values[0];
        for v in &values[1..] {
            acc = op.combine(acc, *v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BlockGroup, CostModel, DevId, ExecMode, Machine};
    use sim_des::lock::Mutex;
    use std::sync::Arc;

    fn run_allreduce(n: usize, values: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        run_allreduce_on(gpu_sim::TopologyKind::NvlinkAllToAll, n, values, op)
    }

    fn run_allreduce_on(
        kind: gpu_sim::TopologyKind,
        n: usize,
        values: Vec<f64>,
        op: ReduceOp,
    ) -> Vec<f64> {
        let machine = Machine::with_topology(n, CostModel::a100_hgx(), kind, ExecMode::Full);
        run_epochs(&machine, &values, op, 1)
            .into_iter()
            .map(|r| r[0])
            .collect()
    }

    /// Run `epochs` back-to-back allreduces on one workspace, PE `pe`
    /// contributing `values[pe] * (e + 1)` in epoch `e`; returns each PE's
    /// result per epoch.
    fn run_epochs(machine: &Machine, values: &[f64], op: ReduceOp, epochs: usize) -> Vec<Vec<f64>> {
        let world = ShmemWorld::init(machine);
        let ws = AllreduceWs::new(&world);
        let results = Arc::new(Mutex::new(vec![vec![0.0; epochs]; values.len()]));
        for (pe, &value) in values.iter().enumerate() {
            let world = world.clone();
            let mut ws = ws.clone();
            let results = Arc::clone(&results);
            machine.spawn_host(format!("rank{pe}"), move |host| {
                let k = host.launch_cooperative(
                    DevId(pe),
                    "allreduce",
                    1024,
                    vec![BlockGroup::new("g", 1, move |kc| {
                        let mut sh = ShmemCtx::new(&world, kc);
                        for e in 0..epochs {
                            let v = value * (e as f64 + 1.0);
                            let r = allreduce_scalar(&mut sh, kc, &mut ws, v, op);
                            results.lock()[pe][e] = r;
                        }
                    })],
                );
                host.wait_cooperative(&k);
            });
        }
        machine.run().unwrap();
        Arc::try_unwrap(results).unwrap().into_inner()
    }

    /// [`run_epochs`] on a machine with the happens-before checker, which
    /// must report a clean run.
    fn run_epochs_checked(
        kind: gpu_sim::TopologyKind,
        values: &[f64],
        op: ReduceOp,
        epochs: usize,
    ) -> Vec<Vec<f64>> {
        let machine =
            Machine::with_topology(values.len(), CostModel::a100_hgx(), kind, ExecMode::Full)
                .with_checker();
        let out = run_epochs(&machine, values, op, epochs);
        let report = machine.checker().unwrap().report();
        assert!(
            report.clean(),
            "checker dirty on {}:\n{report}",
            kind.name()
        );
        out
    }

    /// Seeded pseudo-random values in (-1, 1) — an LCG, so the suite needs
    /// no external randomness and every failure is replayable by seed.
    fn seeded_vals(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn allreduce_sum_power_of_two() {
        let vals = vec![1.0, 2.5, -3.0, 10.0];
        let out = run_allreduce(4, vals.clone(), ReduceOp::Sum);
        let expect = reference_reduce(&vals, ReduceOp::Sum, true);
        for (pe, r) in out.iter().enumerate() {
            assert_eq!(*r, expect, "pe {pe}");
        }
        assert_eq!(expect, 10.5);
    }

    #[test]
    fn allreduce_sum_eight_pes_identical_everywhere() {
        let vals: Vec<f64> = (0..8).map(|i| (i as f64) * 0.1 + 1.0).collect();
        let out = run_allreduce(8, vals.clone(), ReduceOp::Sum);
        let expect = reference_reduce(&vals, ReduceOp::Sum, true);
        assert!(out.iter().all(|r| *r == expect), "{out:?} != {expect}");
    }

    #[test]
    fn allreduce_max_and_min() {
        let vals = vec![3.0, -7.0, 11.0, 0.5];
        let mx = run_allreduce(4, vals.clone(), ReduceOp::Max);
        assert!(mx.iter().all(|r| *r == 11.0));
        let mn = run_allreduce(4, vals, ReduceOp::Min);
        assert!(mn.iter().all(|r| *r == -7.0));
    }

    #[test]
    fn allreduce_results_topology_invariant() {
        for n in [3usize, 4, 6, 8] {
            let vals: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 1.1).collect();
            let base = run_allreduce_on(
                gpu_sim::TopologyKind::NvlinkAllToAll,
                n,
                vals.clone(),
                ReduceOp::Sum,
            );
            for kind in gpu_sim::TopologyKind::presets() {
                let out = run_allreduce_on(kind, n, vals.clone(), ReduceOp::Sum);
                assert_eq!(out, base, "n={n} kind={}", kind.name());
            }
        }
    }

    #[test]
    fn allreduce_ring_non_power_of_two() {
        let vals = vec![1.0, 2.0, 4.0];
        let out = run_allreduce(3, vals.clone(), ReduceOp::Sum);
        let expect = reference_reduce(&vals, ReduceOp::Sum, false);
        assert_eq!(expect, 7.0);
        assert!(out.iter().all(|r| *r == expect), "{out:?}");
    }

    #[test]
    fn allreduce_single_pe_is_identity() {
        let out = run_allreduce(1, vec![42.0], ReduceOp::Sum);
        assert_eq!(out, vec![42.0]);
    }

    #[test]
    fn allreduce_reusable_across_epochs() {
        // Two consecutive allreduces in one kernel: counters must not clash,
        // on one node (n = 4) and across the multi-node cluster fabrics
        // (n = 8 spans 2 fat-tree leaves, 2 dragonfly routers, 1 rail node).
        let runs = std::iter::once((CostModel::a100_hgx().topology, 4))
            .chain(gpu_sim::TopologyKind::cluster_presets().map(|kind| (kind, 8)));
        for (kind, n) in runs {
            let vals: Vec<f64> = (0..n).map(|pe| pe as f64).collect();
            let sum = (n * (n - 1) / 2) as f64;
            let out = run_epochs_checked(kind, &vals, ReduceOp::Sum, 2);
            assert!(
                out.iter().all(|r| r[..] == [sum, 2.0 * sum]),
                "{}: {out:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn flat_allreduce_matches_reference_on_every_preset() {
        // n = 6 is not a power of two, so the allreduce takes its ring path
        // and must agree bitwise with the sequential PE-order fold on every
        // fabric.
        let n = 6;
        for seed in [7u64, 42] {
            let vals = seeded_vals(seed, n);
            let expect = reference_reduce(&vals, ReduceOp::Sum, false);
            for kind in gpu_sim::TopologyKind::presets() {
                let out = run_epochs_checked(kind, &vals, ReduceOp::Sum, 1);
                assert!(
                    out.iter().all(|r| r[0] == expect),
                    "seed={seed} kind={} {out:?} != {expect}",
                    kind.name()
                );
            }
        }
    }

    fn run_quorum_on(
        kind: gpu_sim::TopologyKind,
        n: usize,
        members: Vec<usize>,
        values: Vec<f64>,
        op: ReduceOp,
    ) -> Vec<f64> {
        let machine = Machine::with_topology(n, CostModel::a100_hgx(), kind, ExecMode::Full);
        let world = ShmemWorld::init(&machine);
        let ws = AllreduceWs::new_ring(&world);
        let results = Arc::new(Mutex::new(vec![0.0; n]));
        for &pe in &members {
            let world = world.clone();
            let mut ws = ws.clone();
            let members = members.clone();
            let value = values[pe];
            let results = Arc::clone(&results);
            machine.spawn_host(format!("rank{pe}"), move |host| {
                let k = host.launch_cooperative(
                    DevId(pe),
                    "quorum",
                    1024,
                    vec![BlockGroup::new("g", 1, move |kc| {
                        let mut sh = ShmemCtx::new(&world, kc);
                        let mut retries = 0u64;
                        let r = allreduce(
                            &mut sh,
                            kc,
                            &mut ws,
                            value,
                            op,
                            Members::Quorum(&members),
                            &mut wait_from,
                            &mut retries,
                        );
                        results.lock()[pe] = r.expect("blocking quorum allreduce");
                    })],
                );
                host.wait_cooperative(&k);
            });
        }
        machine.run().unwrap();
        Arc::try_unwrap(results).unwrap().into_inner()
    }

    #[test]
    fn quorum_allreduce_skips_dead_pe() {
        let members = vec![0usize, 1, 3]; // PE 2 is "dead"
        let vals = vec![1.5, -2.0, 999.0, 4.25];
        let out = run_quorum_on(
            gpu_sim::TopologyKind::NvlinkAllToAll,
            4,
            members.clone(),
            vals.clone(),
            ReduceOp::Sum,
        );
        let expect = 1.5 + -2.0 + 4.25; // ascending member order, PE 2 excluded
        for &pe in &members {
            assert_eq!(out[pe], expect, "pe {pe}");
        }
        // The dead PE's slot was never written.
        assert_eq!(out[2], 0.0);
    }

    #[test]
    fn quorum_allreduce_topology_invariant() {
        let members = vec![0usize, 2, 3, 5];
        let vals: Vec<f64> = (0..6).map(|i| (i as f64) * 0.7 - 1.3).collect();
        let base = run_quorum_on(
            gpu_sim::TopologyKind::NvlinkAllToAll,
            6,
            members.clone(),
            vals.clone(),
            ReduceOp::Sum,
        );
        for kind in gpu_sim::TopologyKind::presets() {
            let out = run_quorum_on(kind, 6, members.clone(), vals.clone(), ReduceOp::Sum);
            assert_eq!(out, base, "kind={}", kind.name());
        }
        // And it matches the sequential fold over members in ascending order.
        let member_vals: Vec<f64> = members.iter().map(|&pe| vals[pe]).collect();
        let expect = reference_reduce(&member_vals, ReduceOp::Sum, false);
        assert!(base
            .iter()
            .enumerate()
            .all(|(pe, v)| !members.contains(&pe) || *v == expect));
    }

    #[test]
    fn quorum_of_one_is_identity() {
        let out = run_quorum_on(
            gpu_sim::TopologyKind::NvlinkRing,
            4,
            vec![1],
            vec![0.0, 7.5, 0.0, 0.0],
            ReduceOp::Max,
        );
        assert_eq!(out[1], 7.5);
    }

    #[test]
    fn quorum_allreduce_reusable_as_membership_shrinks() {
        // Epoch 1 over {0,1,2,3}, epoch 2 over {0,1,3}: the flow-control
        // ack chain must stay satisfiable as the quorum shrinks.
        let n = 4;
        let machine = Machine::new(n, CostModel::a100_hgx(), ExecMode::Full);
        let world = ShmemWorld::init(&machine);
        let ws = AllreduceWs::new_ring(&world);
        let survivors = vec![0usize, 1, 3];
        let results = Arc::new(Mutex::new(vec![(0.0, 0.0); n]));
        for pe in 0..n {
            let world = world.clone();
            let mut ws = ws.clone();
            let survivors = survivors.clone();
            let results = Arc::clone(&results);
            machine.spawn_host(format!("rank{pe}"), move |host| {
                let k = host.launch_cooperative(
                    DevId(pe),
                    "shrink",
                    1024,
                    vec![BlockGroup::new("g", 1, move |kc| {
                        let mut sh = ShmemCtx::new(&world, kc);
                        let mut retries = 0u64;
                        let mut quorum =
                            |sh: &mut ShmemCtx,
                             kc: &mut KernelCtx<'_>,
                             ws: &mut AllreduceWs,
                             v: f64,
                             members: &[usize]| {
                                allreduce(
                                    sh,
                                    kc,
                                    ws,
                                    v,
                                    ReduceOp::Sum,
                                    Members::Quorum(members),
                                    &mut wait_from,
                                    &mut retries,
                                )
                                .unwrap()
                            };
                        let a = quorum(&mut sh, kc, &mut ws, pe as f64, &[0, 1, 2, 3]);
                        // PE 2 "dies" after epoch 1.
                        if pe == 2 {
                            results.lock()[pe] = (a, f64::NAN);
                            return;
                        }
                        let b = quorum(&mut sh, kc, &mut ws, pe as f64 * 10.0, &survivors);
                        results.lock()[pe] = (a, b);
                    })],
                );
                host.wait_cooperative(&k);
            });
        }
        machine.run().unwrap();
        let out = results.lock();
        for &pe in &survivors {
            assert_eq!(out[pe], (6.0, 40.0), "pe {pe}");
        }
        assert_eq!(out[2].0, 6.0);
    }

    #[test]
    fn reference_reduce_matches_simple_sum_for_associative_ints() {
        let vals: Vec<f64> = (1..=8).map(|v| v as f64).collect();
        assert_eq!(reference_reduce(&vals, ReduceOp::Sum, true), 36.0);
        assert_eq!(reference_reduce(&vals, ReduceOp::Sum, false), 36.0);
    }
}
