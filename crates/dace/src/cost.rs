//! Static virtual-time cost prediction for the CPU-Free backend.
//!
//! [`predict_cost`] computes, **without running the simulator**, the
//! end-to-end virtual time [`lower::run_persistent_on`] would report for a
//! persistent-schedule SDFG on a given topology preset, along with a
//! per-kernel/per-collective cost ledger and per-route byte accounting.
//!
//! # Model
//!
//! The predictor prices the steps of the walk the persistent backend
//! executes (the crate-private `schedule` module: same shape check, guards,
//! loop trip counts and conservative communication schedule — single comm
//! thread + grid sync, §5.3.2), adding only the kernel launch charge and
//! the skip of zero-count `iput`s, but against *scalar clocks* instead of
//! a discrete-event engine:
//!
//! * one virtual clock per PE, advanced by the same closed-form charges
//!   the simulator's [`gpu_sim::Transport`]/[`gpu_sim::CostModel`] apply
//!   (map roofline sweeps, put/signal issue latencies, grid syncs);
//! * one mirrored busy-until clock per interconnect link
//!   ([`gpu_sim::LinkClocks`]), replaying the cut-through FCFS wire
//!   charging so queueing behind earlier traffic on shared links is
//!   accounted;
//! * flags and signal deliveries resolved through a miniature `(time,
//!   seq)` run queue replicating the engine's determinism contract: every
//!   suspension point of an agent (`advance`, `wait_flag`, barrier
//!   arrival, scheduled delivery) is one queue round trip, and
//!   simultaneous events pop in push order.
//!
//! Because link reservations replay in the engine's own event order —
//! including its tie-breaks — the `base` recurrence reproduces the
//! simulated virtual time exactly on every corpus cell, contended or not.
//! On contended fabrics (a link shared between two ordered PE pairs) the
//! report still carries a conservative `margin` (twice the total
//! serialization time on shared links): the queue mirror elides
//! zero-duration bookkeeping events (`schedule_call` side effects, host
//! agents parked on kernel completion), which provably cannot reorder
//! charges for the modeled op set but could for future ops, and the
//! margin keeps `total = base + margin` never-underestimating under such
//! drift. Uncontended fabrics take no margin, so `total` stays exact
//! there.
//!
//! Long persistent loops are not walked iteration by iteration: once the
//! per-PE iteration period is observed stable (steady state), the
//! remaining iterations are composed in closed form (`warmup + n × Δ`).
//!
//! # Known error sources
//!
//! * The run-queue mirror skips events with no timing effect
//!   (`schedule_call` data materialization, parked host agents); an op
//!   whose charges depend on such an event's relative order would drift
//!   (covered by `margin` on contended fabrics).
//! * Signal application mirrors `SignalOp::Set` — the only op the
//!   persistent lowering emits; programs hand-built with `Add` signals
//!   would resolve waits at the wrong arrival.
//! * Steady-state extrapolation assumes the warmup window reaches the
//!   periodic regime; if it does not, the walk falls back to full
//!   enumeration.

use crate::expr::Bindings;
use crate::ir::{LibNode, Sdfg};
use crate::lower::{self, LowerError};
use crate::schedule::{self, Step};
use cpufree_core::BLOCK_THREADS;
use gpu_sim::{CostModel, Topology, TopologyKind};
use sim_des::{us, SimDur, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// Iterations walked before attempting steady-state extrapolation.
const WARMUP_ITERS: i64 = 12;

/// Errors from [`predict_cost`].
#[derive(Debug)]
pub enum CostError {
    /// The program failed persistent-backend legality or the static
    /// protocol verifier — the same gates [`lower::run_persistent`] applies.
    Illegal(LowerError),
    /// The walk deadlocked: a wait can never be satisfied. Unreachable for
    /// verifier-clean programs (wait-cycle and lost-signal checks).
    Stuck {
        /// The blocked PE.
        pe: usize,
        /// The signal id it waits on.
        sig: u32,
        /// The value the wait requires.
        val: u64,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::Illegal(e) => write!(f, "{e}"),
            CostError::Stuck { pe, sig, val } => write!(
                f,
                "cost walk stuck: pe{pe} waits forever on signal {sig} >= {val}"
            ),
        }
    }
}

impl std::error::Error for CostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CostError::Illegal(e) => Some(e),
            CostError::Stuck { .. } => None,
        }
    }
}

/// One line item of the cost ledger: a kernel, collective, or runtime
/// charge aggregated over all PEs and iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCost {
    /// Stable label, prefixed by kind: `map:`, `put:`, `put_block:`,
    /// `iput:`, `put_mapped:`, `p:`, `signal:`, `wait:`, `copy:`,
    /// `grid_sync`, `quiet`, `launch`, `stream_sync`.
    pub label: String,
    /// Number of executions across all PEs.
    pub count: u64,
    /// Total issuing-agent busy/wait time attributed to this item.
    pub busy: SimDur,
}

/// Per-ordered-pair communication accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCost {
    /// Source PE.
    pub src: usize,
    /// Destination PE.
    pub dst: usize,
    /// Data-bearing transfers charged on this route (puts, iputs, mapped
    /// puts; pure signals ride the route but are not counted here).
    pub puts: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total cut-through wire time, including queueing behind earlier
    /// traffic on shared links.
    pub wire: SimDur,
    /// Whether any link on this route also carries another ordered pair's
    /// traffic in this program.
    pub contended: bool,
}

/// The static cost prediction for one (program, PE count, topology).
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Program name (from [`Sdfg::name`]).
    pub program: String,
    /// Number of PEs the prediction is for.
    pub n_pes: usize,
    /// The topology preset the route/link model came from.
    pub topology: TopologyKind,
    /// The contention-ordered recurrence value: exact when `!contended`.
    pub base: SimDur,
    /// Conservative surcharge covering FCFS tie-break divergence on shared
    /// links (zero when `!contended`).
    pub margin: SimDur,
    /// The prediction: `base + margin`. Never underestimates the simulated
    /// virtual time (property-tested across the corpus × presets).
    pub total: SimDur,
    /// Whether any link carries traffic of two or more ordered PE pairs.
    pub contended: bool,
    /// Whether the persistent loop was composed in closed form after a
    /// steady-state warmup instead of walked in full.
    pub extrapolated: bool,
    /// Per-kernel/per-collective ledger, in first-execution order.
    pub kernels: Vec<KernelCost>,
    /// Per-ordered-pair byte/wire accounting.
    pub routes: Vec<RouteCost>,
}

impl CostReport {
    /// The `k` most expensive ledger items by total busy time.
    #[must_use]
    pub fn top_kernels(&self, k: usize) -> Vec<&KernelCost> {
        let mut v: Vec<&KernelCost> = self.kernels.iter().collect();
        v.sort_by(|a, b| b.busy.cmp(&a.busy).then_with(|| a.label.cmp(&b.label)));
        v.truncate(k);
        v
    }

    /// Relative error of the prediction against a simulated total,
    /// `(total - simulated) / simulated` (0 when both are zero).
    // Corpus totals are well under 2^52 ns, so the f64 casts are exact.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn rel_err(&self, simulated: SimDur) -> f64 {
        if simulated == SimDur::ZERO {
            return 0.0;
        }
        (self.total.as_nanos() as f64 - simulated.as_nanos() as f64) / simulated.as_nanos() as f64
    }
}

/// Predict the end-to-end virtual time of running `sdfg` on `n_pes` PEs of
/// the `topology` preset with the persistent CPU-Free backend, without
/// simulating it.
///
/// Applies the same legality and static-verification gates as
/// [`lower::run_persistent`]; the prediction models
/// [`lower::run_persistent_on`] with the default
/// [`CostModel::a100_hgx`] calibration.
///
/// # Errors
///
/// [`CostError::Illegal`] when the SDFG fails the persistent-lowering
/// legality check or the static protocol verifier (the same gates
/// `run_persistent` applies), and [`CostError::Stuck`] when the walk
/// parks on a `signal_wait` no modeled event can satisfy — the static
/// analogue of a deadlocked run.
pub fn predict_cost(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
    topology: TopologyKind,
) -> Result<CostReport, CostError> {
    lower::persistent_legality(sdfg).map_err(CostError::Illegal)?;
    lower::verify_gate(sdfg, n_pes, user).map_err(CostError::Illegal)?;
    let shapes = schedule::resolve_shapes(sdfg, n_pes, user).map_err(CostError::Illegal)?;
    let cost = CostModel::a100_hgx();
    let topo = Topology::build(topology, n_pes, &cost);
    let flat = Flattener {
        sdfg,
        shapes: &shapes,
        cost: &cost,
        n_pes,
        user,
    };
    // Steady-state composition: walk a warmup window, then extend the
    // periodic regime in closed form. Falls back to the full walk when the
    // loop is short or the window has not stabilized.
    if let Some(iters) = schedule::persistent_trip_count(sdfg, n_pes, user) {
        if iters > WARMUP_ITERS + 2 {
            let mut w = walk(&flat, &topo, Some(WARMUP_ITERS))?;
            if w.extrapolate(iters - WARMUP_ITERS) {
                return Ok(assemble(sdfg, n_pes, topology, &cost, &topo, w, true));
            }
        }
    }
    let w = walk(&flat, &topo, None)?;
    Ok(assemble(sdfg, n_pes, topology, &cost, &topo, w, false))
}

// ------------------------------------------------------------------
// Program flattening
// ------------------------------------------------------------------

/// One step of a PE's predicted execution.
#[derive(Clone, Copy)]
enum PredOp {
    /// Unconditional local charge (maps, copies, launch).
    Busy { dur: SimDur, item: usize },
    /// Grid-wide barrier + sync charge (one block group per PE, so the
    /// barrier itself is local and free; only the sync latency is paid).
    GridSync,
    /// `putmem_signal_nbi` / `putmem_signal_block`.
    PutSignal {
        dst: usize,
        bytes: u64,
        sig: u32,
        val: u64,
        block: bool,
        item: usize,
    },
    /// Strided `iput` (blocking in the simulator's model).
    Iput { dst: usize, elems: u64, item: usize },
    /// Mapped single-element put wave (blocking).
    PutMapped { dst: usize, count: u64, item: usize },
    /// Single-element `p` (non-blocking store).
    PutSingle { dst: usize, item: usize },
    /// Bare `signal_op` Set.
    SignalSet {
        dst: usize,
        sig: u32,
        val: u64,
        item: usize,
    },
    /// `signal_wait_until(sig, Ge, val)`.
    Wait { sig: u32, val: u64, item: usize },
    /// `quiet`: drain outstanding non-blocking deliveries.
    Quiet { item: usize },
    /// Zero-cost marker: one persistent-loop iteration finished on this PE.
    IterEnd,
}

/// Interned ledger labels with accumulated counts/busy time.
#[derive(Default)]
struct ItemTable {
    labels: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl ItemTable {
    fn get(&mut self, label: String) -> usize {
        if let Some(&i) = self.index.get(&label) {
            return i;
        }
        let i = self.labels.len();
        self.index.insert(label.clone(), i);
        self.labels.push(label);
        i
    }
}

/// Timing-dependent accumulators, snapshotted at iteration boundaries so
/// the steady-state extrapolation can scale per-iteration deltas.
#[derive(Clone, PartialEq, Eq)]
struct Tally {
    item_busy: Vec<SimDur>,
    item_count: Vec<u64>,
    /// `(src, dst)` → (data transfers, payload bytes, wire incl. queueing).
    routes: BTreeMap<(usize, usize), (u64, u64, SimDur)>,
    /// Per link: pure serialization time charged (no queueing) — the
    /// margin's raw material.
    link_wire: Vec<SimDur>,
}

impl Tally {
    fn new(items: usize, links: usize) -> Tally {
        Tally {
            item_busy: vec![SimDur::ZERO; items],
            item_count: vec![0; items],
            routes: BTreeMap::new(),
            link_wire: vec![SimDur::ZERO; links],
        }
    }

    fn charge_item(&mut self, item: usize, dur: SimDur) {
        self.item_busy[item] += dur;
        self.item_count[item] += 1;
    }

    /// The per-window increment `self - prev` (keys only ever grow).
    fn diff(&self, prev: &Tally) -> Tally {
        let mut d = self.clone();
        for i in 0..d.item_busy.len() {
            d.item_busy[i] = self.item_busy[i] - prev.item_busy[i];
            d.item_count[i] = self.item_count[i] - prev.item_count[i];
        }
        for (k, v) in &mut d.routes {
            let (pp, pb, pw) = prev.routes.get(k).copied().unwrap_or((0, 0, SimDur::ZERO));
            v.0 -= pp;
            v.1 -= pb;
            v.2 -= pw;
        }
        for i in 0..d.link_wire.len() {
            d.link_wire[i] = self.link_wire[i] - prev.link_wire[i];
        }
        d
    }

    /// Add `times` copies of the per-iteration `delta`.
    fn add_scaled(&mut self, delta: &Tally, times: u64) {
        for i in 0..self.item_busy.len() {
            self.item_busy[i] += delta.item_busy[i] * times;
            self.item_count[i] += delta.item_count[i] * times;
        }
        for (k, &(p, b, w)) in &delta.routes {
            let e = self.routes.entry(*k).or_insert((0, 0, SimDur::ZERO));
            e.0 += p * times;
            e.1 += b * times;
            e.2 += w * times;
        }
        for i in 0..self.link_wire.len() {
            self.link_wire[i] += delta.link_wire[i] * times;
        }
    }
}

/// Turns one PE's persistent schedule into priced ops.
struct Flattener<'a> {
    sdfg: &'a Sdfg,
    shapes: &'a BTreeMap<String, Vec<i64>>,
    cost: &'a CostModel,
    n_pes: usize,
    user: &'a Bindings,
}

impl Flattener<'_> {
    /// `cap` limits the persistent loop to a warmup window.
    fn flatten_pe(&self, pe: usize, cap: Option<i64>, items: &mut ItemTable) -> Vec<PredOp> {
        // Launch skeleton: host enqueue then device start delay — the body
        // begins on every PE after both (see `launch_cooperative`).
        let item = items.get("launch".into());
        let mut out = vec![PredOp::Busy {
            dur: self.cost.kernel_launch_host() + self.cost.kernel_launch_device(),
            item,
        }];
        let mut b = self.sdfg.bindings(pe, self.n_pes, self.user);
        schedule::walk(&self.sdfg.body, &mut b, cap, &mut |step, b| {
            let op = match step {
                Step::Map(m) => PredOp::Busy {
                    dur: lower::map_cost(self.cost, m.volume(b), false),
                    item: items.get(format!("map:{}", m.name)),
                },
                Step::Copy { dst, .. } => {
                    let rd = dst.resolve(&self.shapes[&dst.array], b);
                    PredOp::Busy {
                        dur: self.cost.local_copy((rd.count * 8) as u64),
                        item: items.get(format!("copy:{}", dst.array)),
                    }
                }
                Step::Lib(lib) => match self.flatten_lib(lib, b, items) {
                    Some(op) => op,
                    None => return,
                },
                Step::GridSync => PredOp::GridSync,
                Step::IterEnd(_) => PredOp::IterEnd,
            };
            out.push(op);
        });
        out
    }

    // Pedantic cast triage: `eval` returns i64, but the verify gate has
    // already bounded PE expressions to [0, n_pes) and signal values to
    // non-negative counters, so the narrowing casts cannot truncate here.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn flatten_lib(&self, lib: &LibNode, b: &Bindings, items: &mut ItemTable) -> Option<PredOp> {
        Some(match lib {
            LibNode::PutmemSignal {
                dst,
                sig,
                val,
                pe: pex,
                ..
            } => {
                let rd = dst.resolve(&self.shapes[&dst.array], b);
                let item = items.get(format!("put:{}->s{sig}", dst.array));
                PredOp::PutSignal {
                    dst: pex.eval(b) as usize,
                    bytes: (rd.count * 8) as u64,
                    sig: *sig,
                    val: val.eval(b) as u64,
                    block: false,
                    item,
                }
            }
            LibNode::PutmemSignalBlock {
                dst,
                sig,
                val,
                pe: pex,
                ..
            } => {
                let rd = dst.resolve(&self.shapes[&dst.array], b);
                let item = items.get(format!("put_block:{}->s{sig}", dst.array));
                PredOp::PutSignal {
                    dst: pex.eval(b) as usize,
                    bytes: (rd.count * 8) as u64,
                    sig: *sig,
                    val: val.eval(b) as u64,
                    block: true,
                    item,
                }
            }
            LibNode::PutMapped { dst, pe: pex, .. } => {
                let rd = dst.resolve(&self.shapes[&dst.array], b);
                let item = items.get(format!("put_mapped:{}", dst.array));
                PredOp::PutMapped {
                    dst: pex.eval(b) as usize,
                    count: rd.count as u64,
                    item,
                }
            }
            LibNode::SignalWait { sig, val } => {
                let item = items.get(format!("wait:s{sig}"));
                PredOp::Wait {
                    sig: *sig,
                    val: val.eval(b) as u64,
                    item,
                }
            }
            LibNode::Iput { dst, pe: pex, .. } => {
                let rd = dst.resolve(&self.shapes[&dst.array], b);
                if rd.count == 0 {
                    return None;
                }
                let item = items.get(format!("iput:{}", dst.array));
                PredOp::Iput {
                    dst: pex.eval(b) as usize,
                    elems: rd.count as u64,
                    item,
                }
            }
            LibNode::PutSingle { dst, pe: pex, .. } => {
                let item = items.get(format!("p:{}", dst.array));
                PredOp::PutSingle {
                    dst: pex.eval(b) as usize,
                    item,
                }
            }
            LibNode::SignalOp { sig, val, pe: pex } => {
                let item = items.get(format!("signal:s{sig}"));
                PredOp::SignalSet {
                    dst: pex.eval(b) as usize,
                    sig: *sig,
                    val: val.eval(b) as u64,
                    item,
                }
            }
            LibNode::Quiet => {
                let item = items.get("quiet".into());
                PredOp::Quiet { item }
            }
            LibNode::MpiIsend { .. } | LibNode::MpiIrecv { .. } | LibNode::MpiWaitall => {
                unreachable!("persistent legality rejects MPI nodes")
            }
        })
    }
}

// ------------------------------------------------------------------
// The walk
// ------------------------------------------------------------------

/// Micro-position of a PE inside its current op, mirroring the simulator
/// agent's suspension points: every `advance`, `wait_flag`, and barrier
/// arrival is one round trip through the engine's `(time, seq)` run queue,
/// and charge order at equal times follows that queue order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// About to run `ops[idx]`'s pre-advance code (link charges, FIFO
    /// clamp, delivery computation) and suspend on its advance.
    Start,
    /// Passed back through the run queue (grid-sync barrier release or a
    /// wait that just resolved); about to charge the trailing advance.
    Requeued,
    /// Just resumed from the op's advance: run its post-code (delivery
    /// pushes, `outstanding` updates, ledger charge) and fall through to
    /// the next op within the same event.
    Resumed,
}

struct PeWalk {
    ops: Vec<PredOp>,
    idx: usize,
    phase: Phase,
    clock: SimTime,
    /// `outstanding_until` mirror for `quiet`.
    outstanding: SimTime,
    /// Start of the op in flight (the ledger charge is the span it covers,
    /// exactly like the simulator's trace spans).
    busy_start: SimTime,
    /// Absolute delivery completion of the put in flight (`done_at`).
    pending_done: SimTime,
    /// Clock at each persistent-loop iteration boundary.
    iter_ends: Vec<SimTime>,
    done: bool,
}

/// One pending run-queue event. Ordered `(time, seq)` exactly like the
/// engine's heap: `seq` is assigned at push time, so simultaneous events
/// pop in push order — the tie-break the DES's determinism contract
/// guarantees, and the one thing scalar per-PE clocks cannot reproduce.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Resume PE `pe`'s continuation.
    Resume(usize),
    /// A scheduled signal delivery lands (`SignalOp::Set`).
    Signal {
        /// Signal id.
        sig: u32,
        /// Destination PE whose flag copy is written.
        dst: usize,
        /// Value the flag is set to.
        val: u64,
    },
}

struct Walk {
    n: usize,
    clocks: Vec<SimTime>,
    iter_ends: Vec<Vec<SimTime>>,
    tally: Tally,
    /// Tally snapshots after each globally-completed iteration.
    snaps: Vec<Tally>,
    /// Per link: ordered pairs whose traffic crossed it.
    link_pairs: Vec<BTreeSet<(usize, usize)>>,
    items: ItemTable,
    extrapolated_iters: u64,
    /// Per-PE steady-state period (filled by `extrapolate`).
    deltas: Vec<SimDur>,
}

impl Walk {
    /// Extend the walked warmup window by `remaining` iterations of the
    /// observed steady state. Returns false (leaving the walk unusable for
    /// reporting) when the window has not stabilized.
    fn extrapolate(&mut self, remaining: i64) -> bool {
        if remaining <= 0 || self.snaps.len() < 5 {
            return false;
        }
        let mut deltas = Vec::with_capacity(self.n);
        for ends in &self.iter_ends {
            let k = ends.len();
            if k < 3 {
                return false;
            }
            let d1 = ends[k - 1].since(ends[k - 2]);
            let d2 = ends[k - 2].since(ends[k - 3]);
            if d1 != d2 {
                return false;
            }
            deltas.push(d1);
        }
        // Tally deltas come from *mid*-warmup windows: the final snapshot
        // windows under-count because PEs running ahead of the slowest one
        // hit the warmup cap and stop contributing look-ahead work.
        let k = self.snaps.len();
        let d_a = self.snaps[k - 3].diff(&self.snaps[k - 4]);
        let d_b = self.snaps[k - 2].diff(&self.snaps[k - 3]);
        if d_a != d_b {
            return false;
        }
        let r = remaining.cast_unsigned();
        for (pe, d) in deltas.iter().enumerate() {
            self.clocks[pe] += *d * r;
        }
        self.tally.add_scaled(&d_b, r);
        self.extrapolated_iters = r;
        self.deltas = deltas;
        true
    }
}

#[allow(clippy::too_many_lines)]
fn walk(flat: &Flattener<'_>, topo: &Topology, cap: Option<i64>) -> Result<Walk, CostError> {
    let (n_pes, cost) = (flat.n_pes, flat.cost);
    let mut items = ItemTable::default();
    let mut pes: Vec<PeWalk> = (0..n_pes)
        .map(|pe| PeWalk {
            ops: flat.flatten_pe(pe, cap, &mut items),
            idx: 0,
            phase: Phase::Start,
            clock: SimTime::ZERO,
            outstanding: SimTime::ZERO,
            busy_start: SimTime::ZERO,
            pending_done: SimTime::ZERO,
            iter_ends: Vec::new(),
            done: false,
        })
        .collect();

    // Pre-intern runtime labels so the tally vectors never resize mid-walk.
    let grid_item = items.get("grid_sync".into());
    items.get("stream_sync".into());
    let links = topo.links();
    let mut tally = Tally::new(items.labels.len(), links.len());
    let mut snaps: Vec<Tally> = Vec::new();
    let mut link_pairs: Vec<BTreeSet<(usize, usize)>> = vec![BTreeSet::new(); links.len()];
    let mut clocks = topo.clocks();
    // Engine-mirror state: the `(time, seq)` run queue, flag values,
    // parked waiters, and the transport's per-route delivery FIFO clamp
    // (a fault-free no-op kept for fidelity).
    let mut queue: BinaryHeap<Reverse<(SimTime, u64, Ev)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut flags: BTreeMap<(u32, usize), u64> = BTreeMap::new();
    let mut parked: BTreeMap<usize, (u32, u64)> = BTreeMap::new();
    let mut fifo: BTreeMap<(usize, usize), SimTime> = BTreeMap::new();
    let poll = cost.shmem_poll();
    let issue = cost.shmem_signal();

    // Kernels start in PE order (hosts launch in spawn order), so seed the
    // queue that way.
    for pe in 0..n_pes {
        queue.push(Reverse((SimTime::ZERO, seq, Ev::Resume(pe))));
        seq += 1;
    }

    while let Some(Reverse((t, _, ev))) = queue.pop() {
        let pe = match ev {
            Ev::Signal { sig, dst, val } => {
                // The persistent lowering only emits `SignalOp::Set`.
                flags.insert((sig, dst), val);
                if let Some(&(wsig, wval)) = parked.get(&dst) {
                    if wsig == sig && val >= wval {
                        parked.remove(&dst);
                        queue.push(Reverse((t, seq, Ev::Resume(dst))));
                        seq += 1;
                    }
                }
                continue;
            }
            Ev::Resume(pe) => pe,
        };
        pes[pe].clock = t;
        // Run this PE's continuation until its next suspension: the
        // post-code of the op that just resumed, then pre-code + handoff
        // of following ops.
        loop {
            let st = &mut pes[pe];
            if st.idx >= st.ops.len() {
                st.done = true;
                break;
            }
            let op = st.ops[st.idx];
            match st.phase {
                Phase::Resumed => {
                    match op {
                        PredOp::PutSignal { dst, sig, val, .. } => {
                            // Post-busy: `schedule_signal` pushes the
                            // delivery only after the issue advance.
                            queue.push(Reverse((
                                st.pending_done,
                                seq,
                                Ev::Signal { sig, dst, val },
                            )));
                            seq += 1;
                            st.outstanding = st.outstanding.max(st.pending_done);
                        }
                        PredOp::PutSingle { .. } => {
                            st.outstanding = st.outstanding.max(st.pending_done);
                        }
                        PredOp::SignalSet { dst, sig, val, .. } => {
                            // `signal_op` lands the flag at the end of its
                            // busy (zero-delay schedule_signal).
                            queue.push(Reverse((st.clock, seq, Ev::Signal { sig, dst, val })));
                            seq += 1;
                        }
                        _ => {}
                    }
                    let item = match op {
                        PredOp::Busy { item, .. }
                        | PredOp::PutSignal { item, .. }
                        | PredOp::Iput { item, .. }
                        | PredOp::PutMapped { item, .. }
                        | PredOp::PutSingle { item, .. }
                        | PredOp::SignalSet { item, .. }
                        | PredOp::Wait { item, .. }
                        | PredOp::Quiet { item } => item,
                        PredOp::GridSync => grid_item,
                        PredOp::IterEnd => unreachable!("IterEnd never suspends"),
                    };
                    tally.charge_item(item, st.clock.since(st.busy_start));
                    st.idx += 1;
                    st.phase = Phase::Start;
                }
                Phase::Requeued => match op {
                    PredOp::GridSync => {
                        queue.push(Reverse((st.clock + cost.grid_sync(), seq, Ev::Resume(pe))));
                        seq += 1;
                        st.phase = Phase::Resumed;
                        break;
                    }
                    PredOp::Wait { .. } => {
                        queue.push(Reverse((st.clock + poll, seq, Ev::Resume(pe))));
                        seq += 1;
                        st.phase = Phase::Resumed;
                        break;
                    }
                    _ => unreachable!("only grid syncs and waits requeue"),
                },
                Phase::Start => {
                    st.busy_start = st.clock;
                    match op {
                        PredOp::Busy { dur, .. } => {
                            if dur.is_zero() {
                                // `busy(0)` neither suspends nor records.
                                st.idx += 1;
                                continue;
                            }
                            queue.push(Reverse((st.clock + dur, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Resumed;
                            break;
                        }
                        PredOp::GridSync => {
                            // One block group per PE: the barrier releases
                            // immediately, but still passes through the
                            // run queue before the sync-latency advance.
                            queue.push(Reverse((st.clock, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Requeued;
                            break;
                        }
                        PredOp::PutSignal {
                            dst, bytes, block, ..
                        } => {
                            let bw = if block {
                                cost.shmem_block_bw_scale
                            } else {
                                1.0
                            };
                            let wire = clocks.charge_dev(topo, pe, dst, bytes, st.clock, bw);
                            let raw = us(cost.shmem_put_us) + wire + us(cost.shmem_signal_us);
                            let done = {
                                let e = fifo.entry((pe, dst)).or_insert(SimTime::ZERO);
                                let d = (st.clock + raw).max(*e);
                                *e = d;
                                d
                            };
                            st.pending_done = done;
                            record_route(
                                &mut tally,
                                &mut link_pairs,
                                topo,
                                pe,
                                dst,
                                bytes,
                                bw,
                                wire,
                                true,
                            );
                            queue.push(Reverse((st.clock + issue, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Resumed;
                            break;
                        }
                        PredOp::Iput { dst, elems, .. } => {
                            let bytes = elems * 8;
                            let wire = clocks.charge_dev(topo, pe, dst, bytes, st.clock, 1.0);
                            let dur =
                                us(cost.shmem_put_us) + us(cost.shmem_iput_elem_us) * elems + wire;
                            record_route(
                                &mut tally,
                                &mut link_pairs,
                                topo,
                                pe,
                                dst,
                                bytes,
                                1.0,
                                wire,
                                true,
                            );
                            queue.push(Reverse((st.clock + dur, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Resumed;
                            break;
                        }
                        PredOp::PutMapped { dst, count, .. } => {
                            let bytes = count * 8;
                            let waves = count.div_ceil(u64::from(BLOCK_THREADS)).max(1);
                            let wire = clocks.charge_dev(topo, pe, dst, bytes, st.clock, 1.0);
                            let dur = us(cost.shmem_p_us) * waves + wire;
                            record_route(
                                &mut tally,
                                &mut link_pairs,
                                topo,
                                pe,
                                dst,
                                bytes,
                                1.0,
                                wire,
                                true,
                            );
                            queue.push(Reverse((st.clock + dur, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Resumed;
                            break;
                        }
                        PredOp::PutSingle { dst, .. } => {
                            let wire = clocks.charge_dev(topo, pe, dst, 0, st.clock, 1.0);
                            let delivery = us(cost.shmem_p_us) + wire;
                            // The store completes `delivery - issue` after
                            // the issue busy ends (`ShmemCtx::p`).
                            st.pending_done = st.clock + issue + delivery.saturating_sub(issue);
                            record_route(
                                &mut tally,
                                &mut link_pairs,
                                topo,
                                pe,
                                dst,
                                0,
                                1.0,
                                wire,
                                false,
                            );
                            queue.push(Reverse((st.clock + issue, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Resumed;
                            break;
                        }
                        PredOp::SignalSet { dst, .. } => {
                            let wire = clocks.charge_dev(topo, pe, dst, 0, st.clock, 1.0);
                            let dur = us(cost.shmem_signal_us) + wire;
                            record_route(
                                &mut tally,
                                &mut link_pairs,
                                topo,
                                pe,
                                dst,
                                0,
                                1.0,
                                wire,
                                false,
                            );
                            queue.push(Reverse((st.clock + dur, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Resumed;
                            break;
                        }
                        PredOp::Wait { sig, val, .. } => {
                            if flags.get(&(sig, pe)).copied().unwrap_or(0) >= val {
                                // A satisfied wait still yields through
                                // the run queue before the poll advance.
                                queue.push(Reverse((st.clock, seq, Ev::Resume(pe))));
                                seq += 1;
                            } else {
                                parked.insert(pe, (sig, val));
                            }
                            st.phase = Phase::Requeued;
                            break;
                        }
                        PredOp::Quiet { .. } => {
                            let dur =
                                st.outstanding.saturating_since(st.clock) + cost.shmem_quiet();
                            queue.push(Reverse((st.clock + dur, seq, Ev::Resume(pe))));
                            seq += 1;
                            st.phase = Phase::Resumed;
                            break;
                        }
                        PredOp::IterEnd => {
                            st.iter_ends.push(st.clock);
                            st.idx += 1;
                            let completed =
                                pes.iter().map(|p| p.iter_ends.len()).min().unwrap_or(0);
                            while snaps.len() < completed {
                                snaps.push(tally.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    if let Some((&pe, &(sig, val))) = parked.first_key_value() {
        return Err(CostError::Stuck { pe, sig, val });
    }

    Ok(Walk {
        n: n_pes,
        clocks: pes.iter().map(|p| p.clock).collect(),
        iter_ends: pes.into_iter().map(|p| p.iter_ends).collect(),
        tally,
        snaps,
        link_pairs,
        items,
        extrapolated_iters: 0,
        deltas: Vec::new(),
    })
}

/// Record a transfer's route bookkeeping: per-pair accounting plus
/// per-link serialization time and pair sharing (contention evidence).
#[allow(clippy::too_many_arguments)]
fn record_route(
    tally: &mut Tally,
    link_pairs: &mut [BTreeSet<(usize, usize)>],
    topo: &Topology,
    src: usize,
    dst: usize,
    bytes: u64,
    bw_scale: f64,
    wire: SimDur,
    data: bool,
) {
    if src == dst {
        return;
    }
    if data {
        let e = tally
            .routes
            .entry((src, dst))
            .or_insert((0, 0, SimDur::ZERO));
        e.0 += 1;
        e.1 += bytes;
        e.2 += wire;
    }
    let links = topo.links();
    for &idx in topo.route_links(src, dst) {
        tally.link_wire[idx] += CostModel::bw_time(bytes, links[idx].gbps() * bw_scale);
        link_pairs[idx].insert((src, dst));
    }
}

fn assemble(
    sdfg: &Sdfg,
    n_pes: usize,
    topology: TopologyKind,
    cost: &CostModel,
    topo: &Topology,
    mut w: Walk,
    extrapolated: bool,
) -> CostReport {
    // End-to-end: every host waits for its kernel, then pays the stream
    // sync; the machine ends at the latest host.
    let body_end = w.clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
    let base = body_end.since(SimTime::ZERO) + cost.stream_sync();
    let drain = w.items.get("stream_sync".into());
    w.tally.item_busy[drain] += cost.stream_sync() * n_pes as u64;
    w.tally.item_count[drain] += n_pes as u64;

    // Contention: a link is shared when two distinct ordered pairs charged
    // it. The margin bounds FCFS tie-break divergence: each tie can shift
    // a completion by at most the competing serialization time, so twice
    // the shared-link serialization total is a comfortable envelope (and
    // property-tested to never underestimate).
    let mut shared_wire = SimDur::ZERO;
    let mut contended_links: BTreeSet<usize> = BTreeSet::new();
    for (idx, pairs) in w.link_pairs.iter().enumerate() {
        if pairs.len() >= 2 {
            contended_links.insert(idx);
            shared_wire += w.tally.link_wire[idx];
        }
    }
    let contended = !contended_links.is_empty();
    let margin = shared_wire * 2;

    let kernels = w
        .items
        .labels
        .iter()
        .enumerate()
        .map(|(i, label)| KernelCost {
            label: label.clone(),
            count: w.tally.item_count[i],
            busy: w.tally.item_busy[i],
        })
        .filter(|k| k.count > 0)
        .collect();
    let routes = w
        .tally
        .routes
        .iter()
        .map(|(&(src, dst), &(puts, bytes, wire))| RouteCost {
            src,
            dst,
            puts,
            bytes,
            wire,
            contended: topo
                .route_links(src, dst)
                .iter()
                .any(|i| contended_links.contains(i)),
        })
        .collect();

    CostReport {
        program: sdfg.name.clone(),
        n_pes,
        topology,
        base,
        margin,
        total: base + margin,
        contended,
        extrapolated,
        kernels,
        routes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::run_persistent_on;
    use crate::programs::{Jacobi1dSetup, Jacobi2dSetup};
    use crate::transform::{
        gpu_persistent_kernel, gpu_transform, mpi_to_nvshmem_with, nvshmem_array, to_cpu_free,
        PutGranularity,
    };
    use gpu_sim::ExecMode;

    fn jacobi1d(chunk: usize, tsteps: u64, n: usize) -> (Sdfg, Bindings) {
        let setup = Jacobi1dSetup::new(chunk, tsteps, n);
        let mut sdfg = setup.sdfg.clone();
        to_cpu_free(&mut sdfg).expect("to_cpu_free");
        (sdfg, setup.user_bindings())
    }

    fn jacobi2d(rows: usize, cols: usize, tsteps: u64, n: usize) -> (Sdfg, Bindings) {
        let setup = Jacobi2dSetup::new(rows, cols, tsteps, n);
        let mut sdfg = setup.sdfg.clone();
        to_cpu_free(&mut sdfg).expect("to_cpu_free");
        (sdfg, setup.user_bindings())
    }

    fn simulate(sdfg: &Sdfg, n: usize, user: &Bindings, tsteps: u64, kind: TopologyKind) -> SimDur {
        run_persistent_on(
            sdfg,
            n,
            user,
            tsteps,
            kind,
            ExecMode::TimingOnly,
            &|_, _| vec![],
        )
        .expect("persistent run")
        .total
    }

    /// 2-PE Jacobi-1D: per time step each PE sends its boundary element to
    /// the other twice (once per generation array) — route accounting is
    /// hand-computable: `2·T` puts of 8 bytes each per ordered pair.
    #[test]
    fn route_bytes_hand_computed_2pe() {
        let t = 3u64;
        let (sdfg, user) = jacobi1d(8, t, 2);
        let rep = predict_cost(&sdfg, 2, &user, TopologyKind::NvlinkAllToAll).expect("predict");
        assert_eq!(rep.routes.len(), 2);
        for r in &rep.routes {
            assert_eq!(
                (r.puts, r.bytes),
                (2 * t, 2 * t * 8),
                "route {:?}",
                (r.src, r.dst)
            );
            assert!(!r.contended);
        }
        let waits: u64 = rep
            .kernels
            .iter()
            .filter(|k| k.label.starts_with("wait:"))
            .map(|k| k.count)
            .sum();
        assert_eq!(waits, 2 * 2 * t, "one wait per put, both PEs");
    }

    /// 4-PE Jacobi-1D on the all-to-all fabric (dedicated link per ordered
    /// pair): the walk must reproduce the DES total exactly.
    #[test]
    fn exact_uncontended_1d() {
        for n in [2usize, 4] {
            let t = 5u64;
            let (sdfg, user) = jacobi1d(16, t, n);
            let rep = predict_cost(&sdfg, n, &user, TopologyKind::NvlinkAllToAll).expect("predict");
            let sim = simulate(&sdfg, n, &user, t, TopologyKind::NvlinkAllToAll);
            assert!(!rep.contended);
            assert_eq!(rep.margin, SimDur::ZERO);
            assert_eq!(rep.total, sim, "n={n}");
        }
    }

    /// 4-PE Jacobi-2D (2×2 grid: contiguous north/south puts plus strided
    /// east/west iput+quiet+signal triples) — exact on the all-to-all fabric.
    #[test]
    fn exact_uncontended_2d() {
        let t = 4u64;
        let (sdfg, user) = jacobi2d(6, 6, t, 4);
        let rep = predict_cost(&sdfg, 4, &user, TopologyKind::NvlinkAllToAll).expect("predict");
        let sim = simulate(&sdfg, 4, &user, t, TopologyKind::NvlinkAllToAll);
        assert!(!rep.contended);
        assert_eq!(rep.total, sim);
        assert!(rep.kernels.iter().any(|k| k.label.starts_with("iput:")));
    }

    /// Block-cooperative puts use a different bandwidth scale; the mirror
    /// must still be exact.
    #[test]
    fn exact_block_granularity() {
        let t = 4u64;
        let setup = Jacobi1dSetup::new(16, t, 2);
        let mut sdfg = setup.sdfg.clone();
        gpu_transform(&mut sdfg);
        mpi_to_nvshmem_with(&mut sdfg, PutGranularity::Block).expect("mpi_to_nvshmem");
        nvshmem_array(&mut sdfg);
        gpu_persistent_kernel(&mut sdfg).expect("gpu_persistent_kernel");
        let user = setup.user_bindings();
        let rep = predict_cost(&sdfg, 2, &user, TopologyKind::NvlinkAllToAll).expect("predict");
        let sim = simulate(&sdfg, 2, &user, t, TopologyKind::NvlinkAllToAll);
        assert_eq!(rep.total, sim);
        assert!(rep
            .kernels
            .iter()
            .any(|k| k.label.starts_with("put_block:")));
    }

    /// Long persistent loops take the steady-state shortcut — and must
    /// still land on the DES total exactly on an uncontended fabric.
    #[test]
    fn extrapolation_exact() {
        let t = 40u64;
        let (sdfg, user) = jacobi1d(16, t, 4);
        let rep = predict_cost(&sdfg, 4, &user, TopologyKind::NvlinkAllToAll).expect("predict");
        assert!(rep.extrapolated, "T=40 should extrapolate");
        let sim = simulate(&sdfg, 4, &user, t, TopologyKind::NvlinkAllToAll);
        assert_eq!(rep.total, sim);
        // The ledger must scale with the extrapolated iterations too.
        let puts: u64 = rep.routes.iter().map(|r| r.puts).sum();
        let exact = predict_with_full_walk(&sdfg, 4, &user);
        assert_eq!(puts, exact, "extrapolated route counts");
    }

    fn predict_with_full_walk(sdfg: &Sdfg, n: usize, user: &Bindings) -> u64 {
        let cost = CostModel::a100_hgx();
        let topo = Topology::build(TopologyKind::NvlinkAllToAll, n, &cost);
        let shapes = schedule::resolve_shapes(sdfg, n, user).expect("shapes");
        let flat = Flattener {
            sdfg,
            shapes: &shapes,
            cost: &cost,
            n_pes: n,
            user,
        };
        let w = walk(&flat, &topo, None).expect("walk");
        w.tally.routes.values().map(|&(p, _, _)| p).sum()
    }

    /// On fabrics with shared links the prediction must never
    /// underestimate, and stay within the documented 10% bound.
    #[test]
    fn contended_never_underestimates() {
        let t = 5u64;
        let (sdfg, user) = jacobi2d(6, 6, t, 4);
        for kind in [TopologyKind::PcieTree, TopologyKind::TwoNode] {
            let rep = predict_cost(&sdfg, 4, &user, kind).expect("predict");
            let sim = simulate(&sdfg, 4, &user, t, kind);
            assert!(rep.total >= sim, "{kind:?}: under-estimate");
            assert!(
                rep.rel_err(sim) <= 0.10,
                "{kind:?}: err {}",
                rep.rel_err(sim)
            );
        }
    }

    /// Ledger ordering helper.
    #[test]
    fn top_kernels_sorted() {
        let (sdfg, user) = jacobi1d(16, 3, 2);
        let rep = predict_cost(&sdfg, 2, &user, TopologyKind::NvlinkAllToAll).expect("predict");
        let top = rep.top_kernels(3);
        assert_eq!(top.len(), 3);
        assert!(top[0].busy >= top[1].busy && top[1].busy >= top[2].busy);
    }

    /// MPI programs fail the same legality gate as the backend.
    #[test]
    fn rejects_mpi_program() {
        let setup = Jacobi1dSetup::new(8, 2, 2);
        let err = predict_cost(
            &setup.sdfg,
            2,
            &setup.user_bindings(),
            TopologyKind::NvlinkAllToAll,
        )
        .unwrap_err();
        assert!(matches!(err, CostError::Illegal(_)));
    }

    /// An array whose shape differs between PEs is rejected with the
    /// lowering's own error, even when no op touches it.
    #[test]
    fn rejects_non_uniform_shape() {
        use crate::expr::Expr;
        use crate::ir::{ArrayDecl, Storage};
        let (mut sdfg, user) = jacobi1d(8, 2, 4);
        sdfg.arrays.push(ArrayDecl {
            name: "ragged".into(),
            shape: vec![Expr::s("rank").add(Expr::c(1))],
            storage: Storage::Gpu,
        });
        let lowered = run_persistent_on(
            &sdfg,
            4,
            &user,
            2,
            TopologyKind::NvlinkAllToAll,
            ExecMode::TimingOnly,
            &|_, _| vec![],
        );
        let want = LowerError::NonUniformShape("ragged".into());
        assert_eq!(lowered.unwrap_err(), want);
        let err = predict_cost(&sdfg, 4, &user, TopologyKind::NvlinkAllToAll).unwrap_err();
        assert!(matches!(&err, CostError::Illegal(e) if *e == want), "{err}");
    }
}
