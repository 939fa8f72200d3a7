//! AI traffic-pattern suite over the cluster-scale fabrics.
//!
//! Models the communication of one training step for the three standard
//! parallelism strategies as put schedules charged directly through
//! [`gpu_sim::Transport`] — no per-GPU agents, so the sweep scales to the
//! full 64–72 GPU fabrics while the shared NIC/switch/rail links still
//! genuinely queue ([`sim_des::Resource`] serialization):
//!
//! * **data-parallel** — one ring allreduce of a gradient bucket over all
//!   GPUs in the fabric's ring embedding (reduce-scatter + all-gather,
//!   `2(n-1)` rounds of `bucket/n` chunks);
//! * **tensor-parallel** — per-layer activation allreduces rung
//!   *within each physical node* (the Megatron-style TP group), stressing
//!   intra-node links and leaf-level oversubscription;
//! * **pipeline-parallel** — microbatched stage-to-stage activation
//!   handoffs between consecutive node groups (GPU `i` of stage `s` feeds
//!   GPU `i` of stage `s+1`), which pipelines across the fabric's
//!   inter-node links.
//!
//! Everything is issued in deterministic order at per-GPU virtual clocks,
//! so every row — makespans and per-link utilization stats alike — is
//! byte-stable across machines and worker counts. `figures -- traffic`
//! writes the committed `BENCH_traffic.json`; CI regenerates and diffs it.

use gpu_sim::{CostModel, Topology, TopologyKind, Transport};
use sim_des::{SimDur, SimTime};

/// Gradient bucket all-reduced by the data-parallel step.
const GRAD_BYTES: u64 = 256 << 20;
/// Activation slice all-reduced per layer by the tensor-parallel step.
const ACT_TP_BYTES: u64 = 32 << 20;
/// Transformer layers per tensor-parallel step.
const TP_LAYERS: usize = 4;
/// Activation tensor handed between pipeline stages per microbatch.
const ACT_PP_BYTES: u64 = 64 << 20;
/// Microbatches in flight per pipeline-parallel step.
const PP_MICROBATCHES: usize = 8;

/// The parallelism patterns swept, in report order.
pub const PATTERNS: [&str; 3] = ["data-parallel", "tensor-parallel", "pipeline-parallel"];

/// One row of the traffic sweep: a (fabric, pattern) cell's virtual
/// makespan plus link-utilization stats.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRow {
    /// Fabric preset name (e.g. `fat-tree-64r16`).
    pub fabric: String,
    /// GPUs driven (the fabric's full capacity).
    pub gpus: usize,
    /// Parallelism pattern (one of [`PATTERNS`]).
    pub pattern: &'static str,
    /// Virtual time until the last transfer drains.
    pub makespan: SimDur,
    /// The link with the most busy (serialization) time.
    pub busiest_link: String,
    /// Busy time on that link.
    pub busiest_busy: SimDur,
    /// `busiest_busy / makespan` — 1.0 means the link never idled.
    pub utilization: f64,
    /// Total transfers charged across all links.
    pub reservations: u64,
    /// Total time transfers spent queued behind busy links.
    pub queued: SimDur,
}

/// Ring allreduce over `ring` (device ids in ring order): `2(m-1)` rounds
/// of `chunk`-byte sends to the ring-right neighbor. Each round, every
/// device issues its send at its current clock (ascending ring position,
/// so link reservations are made in deterministic order) and the round
/// completes at each device when its receive from the left arrives.
fn ring_allreduce(t: &Transport, ring: &[usize], chunk: u64, clocks: &mut [SimTime]) {
    let m = ring.len();
    if m < 2 {
        return;
    }
    let mut arrive = vec![SimTime::ZERO; m];
    for _round in 0..2 * (m - 1) {
        for p in 0..m {
            let src = ring[p];
            let dst = ring[(p + 1) % m];
            let dur = t.shmem_put(src, dst, chunk, clocks[src]);
            arrive[(p + 1) % m] = clocks[src] + dur;
        }
        for (p, &d) in ring.iter().enumerate() {
            clocks[d] = clocks[d].max(arrive[p]);
        }
    }
}

/// One data-parallel step: ring allreduce of the gradient bucket over all
/// GPUs in the topology's ring embedding.
fn data_parallel(t: &Transport, clocks: &mut [SimTime]) {
    let ring = t.topology().ring_order().to_vec();
    let chunk = (GRAD_BYTES / ring.len() as u64).max(1);
    ring_allreduce(t, &ring, chunk, clocks);
}

/// One tensor-parallel step: per-layer activation allreduces within each
/// physical node group. Groups use disjoint endpoint links, so their
/// rings overlap in virtual time; layers serialize through the clocks.
fn tensor_parallel(t: &Transport, clocks: &mut [SimTime]) {
    let groups = t.topology().node_groups();
    for _layer in 0..TP_LAYERS {
        for group in &groups {
            let chunk = (ACT_TP_BYTES / group.len().max(1) as u64).max(1);
            ring_allreduce(t, group, chunk, clocks);
        }
    }
}

/// One pipeline-parallel step: stage `s` = node group `s`; each
/// microbatch flows through every stage boundary, GPU `i` of a stage
/// feeding GPU `i` of the next. Per-GPU clocks make later microbatches
/// pipeline behind earlier ones without an explicit schedule.
fn pipeline_parallel(t: &Transport, clocks: &mut [SimTime]) {
    let stages = t.topology().node_groups();
    if stages.len() < 2 {
        // Single node: degenerate pipeline, hand activations around the
        // ring instead so the pattern still exercises the fabric.
        let ring = t.topology().ring_order().to_vec();
        for _mb in 0..PP_MICROBATCHES {
            for p in 0..ring.len() {
                let src = ring[p];
                let dst = ring[(p + 1) % ring.len()];
                let dur = t.shmem_put(src, dst, ACT_PP_BYTES, clocks[src]);
                clocks[dst] = clocks[dst].max(clocks[src] + dur);
            }
        }
        return;
    }
    for _mb in 0..PP_MICROBATCHES {
        for boundary in stages.windows(2) {
            for (&src, &dst) in boundary[0].iter().zip(boundary[1].iter()) {
                let dur = t.shmem_put(src, dst, ACT_PP_BYTES, clocks[src]);
                clocks[dst] = clocks[dst].max(clocks[src] + dur);
            }
        }
    }
}

/// Run one (fabric, pattern) cell on fresh link state and collect stats.
fn run_cell(kind: TopologyKind, pattern: &'static str) -> TrafficRow {
    let n = kind
        .capacity()
        .expect("traffic sweep runs cluster fabrics at full capacity");
    let cost = CostModel::a100_hgx();
    let topo = Topology::build(kind, n, &cost);
    let t = Transport::new(topo, cost);
    let mut clocks = vec![SimTime::ZERO; n];
    match pattern {
        "data-parallel" => data_parallel(&t, &mut clocks),
        "tensor-parallel" => tensor_parallel(&t, &mut clocks),
        "pipeline-parallel" => pipeline_parallel(&t, &mut clocks),
        other => panic!("unknown traffic pattern {other}"),
    }
    let makespan = clocks
        .iter()
        .map(|c| c.since(SimTime::ZERO))
        .max()
        .unwrap_or(SimDur::ZERO);
    let mut busiest_link = String::new();
    let mut busiest_busy = SimDur::ZERO;
    let mut reservations = 0u64;
    let mut queued = SimDur::ZERO;
    for link in t.topology().links() {
        let s = link.stats();
        reservations += s.reservations;
        queued += s.queued;
        if s.busy > busiest_busy {
            busiest_busy = s.busy;
            busiest_link = link.name().to_string();
        }
    }
    let utilization = if makespan > SimDur::ZERO {
        busiest_busy.as_nanos() as f64 / makespan.as_nanos() as f64
    } else {
        0.0
    };
    TrafficRow {
        fabric: kind.name(),
        gpus: n,
        pattern,
        makespan,
        busiest_link,
        busiest_busy,
        utilization,
        reservations,
        queued,
    }
}

/// The full sweep — every cluster fabric at capacity, every pattern — on
/// `jobs` workers. Cells are independent (fresh topology and link state
/// each) and results come back in deterministic cell order, so the rows
/// are identical at every `jobs`.
pub fn traffic_rows_jobs(jobs: usize) -> Vec<TrafficRow> {
    let cells: Vec<(TopologyKind, &'static str)> = TopologyKind::cluster_presets()
        .into_iter()
        .flat_map(|kind| PATTERNS.into_iter().map(move |p| (kind, p)))
        .collect();
    sim_des::par_map(jobs, cells, |(kind, pattern)| run_cell(kind, pattern))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_fabric_and_pattern() {
        let rows = traffic_rows_jobs(2);
        assert_eq!(rows.len(), 3 * PATTERNS.len());
        for kind in TopologyKind::cluster_presets() {
            for p in PATTERNS {
                assert!(
                    rows.iter()
                        .any(|r| r.fabric == kind.name() && r.pattern == p),
                    "missing cell {} x {p}",
                    kind.name()
                );
            }
        }
        for r in &rows {
            assert!(
                r.makespan > SimDur::ZERO,
                "{}/{}: empty makespan",
                r.fabric,
                r.pattern
            );
            assert!(
                r.reservations > 0,
                "{}/{}: no transfers",
                r.fabric,
                r.pattern
            );
            assert!(!r.busiest_link.is_empty(), "{}/{}", r.fabric, r.pattern);
            assert!(
                r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9,
                "{}/{}: utilization {} out of range",
                r.fabric,
                r.pattern,
                r.utilization
            );
        }
    }

    #[test]
    fn rows_are_identical_at_every_worker_count() {
        let a = traffic_rows_jobs(1);
        let b = traffic_rows_jobs(4);
        assert_eq!(a, b);
    }

    #[test]
    fn tensor_parallel_stays_inside_nodes() {
        // TP traffic never crosses fat-tree spines: every charged link is
        // an endpoint NIC, never an up/down switch link.
        let kind = TopologyKind::FatTree {
            gpus: 64,
            radix: 16,
        };
        let cost = CostModel::a100_hgx();
        let topo = Topology::build(kind, 64, &cost);
        let t = Transport::new(topo, cost);
        let mut clocks = vec![SimTime::ZERO; 64];
        tensor_parallel(&t, &mut clocks);
        for link in t.topology().links() {
            let crossed = link.stats().reservations > 0;
            let is_switch = link.name().contains('>');
            assert!(
                !(crossed && is_switch),
                "TP traffic crossed switch link {}",
                link.name()
            );
        }
    }

    #[test]
    fn pipeline_parallel_pipelines_microbatches() {
        // With per-GPU clocks, M microbatches through S stages must beat
        // the fully serial M*S schedule: the makespan is bounded by
        // (M + S - 2) boundary hops, not M * (S - 1).
        let kind = TopologyKind::RailOptimized {
            nodes: 8,
            gpus_per_node: 8,
            rails: 4,
        };
        let cost = CostModel::a100_hgx();
        let topo = Topology::build(kind, 64, &cost);
        let t = Transport::new(topo.clone(), cost.clone());
        let mut clocks = vec![SimTime::ZERO; 64];
        pipeline_parallel(&t, &mut clocks);
        let makespan = clocks.iter().map(|c| c.since(SimTime::ZERO)).max().unwrap();
        // One uncontended boundary hop, measured on fresh state.
        let fresh = Transport::new(Topology::build(kind, 64, &cost), cost);
        let hop = fresh.shmem_put(0, 8, ACT_PP_BYTES, SimTime::ZERO);
        let stages = 8u64;
        let serial = hop * (PP_MICROBATCHES as u64 * (stages - 1));
        assert!(
            makespan < serial,
            "no pipelining: makespan {makespan:?} >= serial bound {serial:?}"
        );
    }
}
