//! # cpufree-bench — the paper's evaluation, regenerated
//!
//! One experiment function per figure of the paper. Each returns structured
//! rows that the `figures` binary prints as tables (and EXPERIMENTS.md
//! records against the paper's reported values).
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Fig 2.1b (Nsight timeline, CPU-controlled) | [`fig2_1_timeline`] |
//! | Fig 2.2a (pure comm+sync overhead) | [`fig2_2a`] |
//! | Fig 2.2b (overlap ratio + total time) | [`fig2_2b`] |
//! | Fig 5.1b (DaCe MPI timeline) | [`fig5_1_timeline`] |
//! | Fig 6.1 (2D weak scaling, 3 domain sizes) | [`fig6_1`] |
//! | Fig 6.2 (3D weak / no-compute / strong) | [`fig6_2`] |
//! | Fig 6.3a (DaCe Jacobi 1D) | [`fig6_3a`] |
//! | Fig 6.3b (DaCe Jacobi 2D) | [`fig6_3b`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cost;

use dace_sim::lower::{run_discrete, run_persistent};
use dace_sim::programs::{Jacobi1dSetup, Jacobi2dSetup};
use dace_sim::transform::{gpu_transform, to_cpu_free};
use gpu_sim::ExecMode;
use sim_des::SimDur;
use stencil_lab::{StencilConfig, Variant};

/// GPU counts swept in every scaling figure.
pub const GPU_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Iterations per measured run (deterministic simulator: no repetitions
/// needed; the paper reports the minimum of 5 runs on real hardware).
pub const ITERS: u64 = 50;

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Series label (variant name).
    pub series: String,
    /// GPU count.
    pub gpus: usize,
    /// Per-iteration execution time.
    pub per_iter: SimDur,
    /// Union time of communication transfers.
    pub comm: SimDur,
    /// Union time of synchronization waits.
    pub sync: SimDur,
    /// Communication+synchronization time NOT hidden by compute.
    pub exposed_comm: SimDur,
    /// Fraction of comm+sync hidden under compute (0..1).
    pub overlap: f64,
    /// End-to-end time of the run.
    pub total: SimDur,
}

fn point(series: &str, gpus: usize, ex: &stencil_lab::Executed) -> Point {
    Point {
        series: series.to_string(),
        gpus,
        per_iter: ex.stats.per_iter,
        comm: ex.stats.comm_busy,
        sync: ex.stats.sync_busy,
        exposed_comm: ex.stats.exposed_comm,
        overlap: ex.stats.comm_overlap_ratio,
        total: ex.total,
    }
}

/// Weak-scaling 2D config: the slab axis grows with the GPU count so the
/// per-GPU load stays constant (the paper alternates axes; slab-axis growth
/// is the equivalent for a 1D decomposition).
pub fn weak2d(base: usize, gpus: usize, iters: u64) -> StencilConfig {
    let interior = base - 2;
    StencilConfig {
        nx: base,
        ny: interior * gpus + 2,
        nz: 1,
        iterations: iters,
        n_gpus: gpus,
        exec: ExecMode::TimingOnly,
        no_compute: false,
        cost: None,
        topology: None,
        jitter: None,
        check: false,
    }
}

/// Weak-scaling 3D config (z grows with GPUs).
pub fn weak3d(nx: usize, ny: usize, base_z: usize, gpus: usize, iters: u64) -> StencilConfig {
    let interior = base_z - 2;
    StencilConfig {
        nx,
        ny,
        nz: interior * gpus + 2,
        iterations: iters,
        n_gpus: gpus,
        exec: ExecMode::TimingOnly,
        no_compute: false,
        cost: None,
        topology: None,
        jitter: None,
        check: false,
    }
}

/// Strong-scaling 3D config (constant global domain).
pub fn strong3d(nx: usize, ny: usize, nz: usize, gpus: usize, iters: u64) -> StencilConfig {
    StencilConfig {
        nx,
        ny,
        nz,
        iterations: iters,
        n_gpus: gpus,
        exec: ExecMode::TimingOnly,
        no_compute: false,
        cost: None,
        topology: None,
        jitter: None,
        check: false,
    }
}

/// Fig 2.1b: render the CPU-controlled overlap stencil's activity timeline
/// (the simulator's stand-in for the Nsight screenshot), next to the
/// CPU-Free timeline for contrast.
pub fn fig2_1_timeline(gpus: usize, width: usize) -> String {
    let cfg = weak2d(256, gpus, 4);
    let base = Variant::BaselineOverlap.run(&cfg);
    let free = Variant::CpuFree.run(&cfg);
    format!(
        "=== Baseline Copy Overlap, {gpus} GPUs, 256^2/GPU, 4 iterations (total {}) ===\n{}\n\
         === CPU-Free, same workload (total {}) ===\n{}",
        base.total,
        base.trace.render_timeline(width),
        free.total,
        free.trace.render_timeline(width),
    )
}

/// Fig 5.1b analog: the DaCe MPI Jacobi 2D communication profile (stream
/// syncs + staging copies dominating; little overlap) vs the CPU-Free
/// lowering of the same program.
pub fn fig5_1_timeline(gpus: usize) -> String {
    let setup = Jacobi2dSetup::new(256, 256, 3, gpus);
    let mut base = setup.sdfg.clone();
    gpu_transform(&mut base);
    let b = run_discrete(
        &base,
        gpus,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::TimingOnly,
        &|pe, a| setup.init_local(pe, a),
    )
    .expect("fig5.1 baseline");
    let mut free = setup.sdfg.clone();
    to_cpu_free(&mut free).expect("fig5.1 transform");
    let c = run_persistent(
        &free,
        gpus,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::TimingOnly,
        &|pe, a| setup.init_local(pe, a),
    )
    .expect("fig5.1 cpufree");
    format!(
        "DaCe Jacobi 2D, {gpus} GPUs, 3 time steps, 256^2/rank\n\
         MPI baseline : total {:>12}, comm {:>12}, sync {:>12}, overlap {:>5.1}%\n\
         CPU-Free     : total {:>12}, comm {:>12}, sync {:>12}, overlap {:>5.1}%",
        format!("{}", b.total),
        format!("{}", b.stats.comm_busy),
        format!("{}", b.stats.sync_busy),
        b.stats.comm_overlap_ratio * 100.0,
        format!("{}", c.total),
        format!("{}", c.stats.comm_busy),
        format!("{}", c.stats.sync_busy),
        c.stats.comm_overlap_ratio * 100.0,
    )
}

/// Fig 2.2a: communication and synchronization overheads with **no
/// computation**, per iteration, CPU-controlled overlap baseline vs
/// CPU-Free, across GPU counts.
pub fn fig2_2a() -> Vec<Point> {
    let mut rows = Vec::new();
    for &g in &GPU_COUNTS {
        let cfg = weak2d(256, g, ITERS).without_compute();
        for v in [Variant::BaselineOverlap, Variant::CpuFree] {
            let ex = v.run(&cfg);
            rows.push(point(v.label(), g, &ex));
        }
    }
    rows
}

/// Fig 2.2b: communication overlap ratio % and total execution time in the
/// small domain, with compute enabled.
pub fn fig2_2b() -> Vec<Point> {
    let mut rows = Vec::new();
    for &g in &GPU_COUNTS {
        let cfg = weak2d(256, g, ITERS);
        for v in [Variant::BaselineOverlap, Variant::CpuFree] {
            let ex = v.run(&cfg);
            rows.push(point(v.label(), g, &ex));
        }
    }
    rows
}

/// Fig 6.1: weak scaling of the 2D Jacobi stencil, small (256²), medium
/// (2048²) and large (8192²) per-GPU domains, all paper variants (+ PERKS
/// on the large domain).
pub fn fig6_1() -> Vec<(String, Vec<Point>)> {
    let mut out = Vec::new();
    for (label, base) in [
        ("small 256^2", 256usize),
        ("medium 2048^2", 2048),
        ("large 8192^2", 8192),
    ] {
        let mut rows = Vec::new();
        for &g in &GPU_COUNTS {
            let cfg = weak2d(base, g, ITERS);
            for v in Variant::paper_set() {
                let ex = v.run(&cfg);
                rows.push(point(v.label(), g, &ex));
            }
            if base == 8192 {
                let ex = Variant::CpuFreePerks.run(&cfg);
                rows.push(point(Variant::CpuFreePerks.label(), g, &ex));
            }
        }
        out.push((label.to_string(), rows));
    }
    out
}

/// Fig 6.2: 3D Jacobi — weak scaling (256³/GPU), the same without compute,
/// and strong scaling on a constant 512³ domain (with its own no-compute
/// series showing the synchronization overheads).
pub fn fig6_2() -> Vec<(String, Vec<Point>)> {
    let mut out = Vec::new();

    let mut weak = Vec::new();
    for &g in &GPU_COUNTS {
        let cfg = weak3d(256, 256, 256, g, ITERS);
        for v in Variant::paper_set() {
            let ex = v.run(&cfg);
            weak.push(point(v.label(), g, &ex));
        }
    }
    out.push(("weak scaling 256^3/GPU".to_string(), weak));

    let mut nocompute = Vec::new();
    for &g in &GPU_COUNTS {
        let cfg = weak3d(256, 256, 256, g, ITERS).without_compute();
        for v in Variant::paper_set() {
            let ex = v.run(&cfg);
            nocompute.push(point(v.label(), g, &ex));
        }
    }
    out.push(("weak scaling, no compute".to_string(), nocompute));

    let mut strong = Vec::new();
    for &g in &GPU_COUNTS {
        let cfg = strong3d(512, 512, 514, g, ITERS);
        for v in Variant::paper_set() {
            let ex = v.run(&cfg);
            strong.push(point(v.label(), g, &ex));
        }
    }
    out.push(("strong scaling 512^3 total".to_string(), strong));

    let mut strong_nc = Vec::new();
    for &g in &GPU_COUNTS {
        let cfg = strong3d(512, 512, 514, g, ITERS).without_compute();
        for v in Variant::paper_set() {
            let ex = v.run(&cfg);
            strong_nc.push(point(v.label(), g, &ex));
        }
    }
    out.push(("strong scaling, no compute".to_string(), strong_nc));
    out
}

/// One DaCe comparison data point.
#[derive(Debug, Clone)]
pub struct DacePoint {
    /// GPU count.
    pub gpus: usize,
    /// Baseline (MPI, discrete) total time.
    pub baseline_total: SimDur,
    /// Baseline communication+sync busy time.
    pub baseline_comm: SimDur,
    /// CPU-Free total time.
    pub cpufree_total: SimDur,
    /// CPU-Free communication+sync busy time.
    pub cpufree_comm: SimDur,
    /// Total-time improvement % (paper's speedup formula).
    pub improvement_pct: f64,
    /// Communication latency improvement %.
    pub comm_improvement_pct: f64,
}

fn dace_point(gpus: usize, b: &dace_sim::Lowered, c: &dace_sim::Lowered) -> DacePoint {
    let imp = |base: SimDur, ours: SimDur| {
        if base.as_nanos() == 0 {
            0.0
        } else {
            (base.as_nanos() as f64 - ours.as_nanos() as f64) / base.as_nanos() as f64 * 100.0
        }
    };
    let bc = b.stats.comm_busy + b.stats.sync_busy;
    let cc = c.stats.comm_busy + c.stats.sync_busy;
    DacePoint {
        gpus,
        baseline_total: b.total,
        baseline_comm: bc,
        cpufree_total: c.total,
        cpufree_comm: cc,
        improvement_pct: imp(b.total, c.total),
        comm_improvement_pct: imp(bc, cc),
    }
}

/// Fig 6.3a: DaCe Jacobi 1D — discrete MPI baseline vs generated CPU-Free,
/// weak scaling (per-GPU chunk constant, device-saturating).
pub fn fig6_3a() -> Vec<DacePoint> {
    let chunk = 8 << 20; // ~8M elements per GPU: saturates the device
    let tsteps = 10u64;
    let mut rows = Vec::new();
    for &g in &GPU_COUNTS {
        let setup = Jacobi1dSetup::new(chunk, tsteps, g);
        let mut base = setup.sdfg.clone();
        gpu_transform(&mut base);
        let b = run_discrete(
            &base,
            g,
            &setup.user_bindings(),
            tsteps,
            ExecMode::TimingOnly,
            &|pe, a| setup.init_local(pe, a),
        )
        .expect("fig6.3a baseline");
        let mut free = setup.sdfg.clone();
        to_cpu_free(&mut free).expect("fig6.3a transform");
        let c = run_persistent(
            &free,
            g,
            &setup.user_bindings(),
            tsteps,
            ExecMode::TimingOnly,
            &|pe, a| setup.init_local(pe, a),
        )
        .expect("fig6.3a cpufree");
        rows.push(dace_point(g, &b, &c));
    }
    rows
}

/// Fig 6.3b: DaCe Jacobi 2D — four neighbors, strided east/west columns.
pub fn fig6_3b() -> Vec<DacePoint> {
    let (rows_per_pe, cols_per_pe) = (1400, 1400);
    let tsteps = 10u64;
    let mut out = Vec::new();
    for &g in &GPU_COUNTS {
        let setup = Jacobi2dSetup::new(rows_per_pe, cols_per_pe, tsteps, g);
        let mut base = setup.sdfg.clone();
        gpu_transform(&mut base);
        let b = run_discrete(
            &base,
            g,
            &setup.user_bindings(),
            tsteps,
            ExecMode::TimingOnly,
            &|pe, a| setup.init_local(pe, a),
        )
        .expect("fig6.3b baseline");
        let mut free = setup.sdfg.clone();
        to_cpu_free(&mut free).expect("fig6.3b transform");
        let c = run_persistent(
            &free,
            g,
            &setup.user_bindings(),
            tsteps,
            ExecMode::TimingOnly,
            &|pe, a| setup.init_local(pe, a),
        )
        .expect("fig6.3b cpufree");
        out.push(dace_point(g, &b, &c));
    }
    out
}

/// Ablation: §4.1.2 proportional TB allocation vs the naive fixed split,
/// on an unbalanced 3D domain (the case the paper says needs it).
pub fn ablation_tb_split() -> Vec<Point> {
    let mut rows = Vec::new();
    for &g in &GPU_COUNTS[1..] {
        // Flat, wide 3D domain: big boundary planes, few layers per GPU.
        let cfg = weak3d(1024, 1024, 18, g, ITERS);
        for v in [Variant::CpuFree, Variant::CpuFreeFixedSplit] {
            let ex = v.run(&cfg);
            rows.push(point(v.label(), g, &ex));
        }
    }
    rows
}

/// Ablation: single-kernel vs dual co-resident kernel design (§4).
pub fn ablation_dual_kernel() -> Vec<Point> {
    let mut rows = Vec::new();
    for &g in &GPU_COUNTS {
        let cfg = weak2d(2048, g, ITERS);
        for v in [Variant::CpuFree, Variant::CpuFreeDual] {
            let ex = v.run(&cfg);
            rows.push(point(v.label(), g, &ex));
        }
    }
    rows
}

/// Ablation (§5.3.2): transfer granularity of contiguous puts —
/// single-thread `putmem_signal_nbi` vs block-cooperative
/// `putmem_signal_block`.
///
/// Two regimes: (a) the DaCe Jacobi 2D rows (11 KB, latency-dominated —
/// the paper's configuration, where granularity is irrelevant) and (b) a
/// bandwidth-bound 3D-style plane ping-pong (2 MB per message, where the
/// cooperative transfer's higher effective bandwidth shows).
pub fn ablation_put_granularity() -> Vec<(String, SimDur, SimDur)> {
    use cpufree_core::launch_cpu_free;
    use dace_sim::transform::{
        gpu_persistent_kernel, mpi_to_nvshmem_with, nvshmem_array, PutGranularity,
    };
    use gpu_sim::{BlockGroup, CostModel, Machine};
    use nvshmem_sim::{ShmemCtx, ShmemWorld};
    use sim_des::{Cmp, SignalOp};

    let mut rows = Vec::new();

    // (a) DaCe Jacobi 2D at 4 GPUs.
    let setup = Jacobi2dSetup::new(1400, 1400, 10, 4);
    let run_dace = |gran: PutGranularity| {
        let mut sdfg = setup.sdfg.clone();
        gpu_transform(&mut sdfg);
        mpi_to_nvshmem_with(&mut sdfg, gran).unwrap();
        nvshmem_array(&mut sdfg);
        gpu_persistent_kernel(&mut sdfg).unwrap();
        run_persistent(
            &sdfg,
            4,
            &setup.user_bindings(),
            10,
            ExecMode::TimingOnly,
            &|pe, a| setup.init_local(pe, a),
        )
        .unwrap()
        .total
    };
    rows.push((
        "dace 2D rows (11 KB)".to_string(),
        run_dace(PutGranularity::SingleThread),
        run_dace(PutGranularity::Block),
    ));

    // (b) bandwidth-bound plane ping-pong: 512x512 f64 plane, 2 PEs.
    let plane = 512 * 512usize;
    let pingpong = |block: bool| -> SimDur {
        let machine = Machine::new(2, CostModel::a100_hgx(), ExecMode::TimingOnly);
        let world = ShmemWorld::init(&machine);
        let halo = world.malloc("plane", plane);
        let sig = world.signal(0);
        let end = launch_cpu_free(&machine, "pingpong", move |pe| {
            let world = world.clone();
            let halo = halo.clone();
            let sig = sig.clone();
            vec![BlockGroup::new("g", 1, move |k| {
                let mut sh = ShmemCtx::new(&world, k);
                let other = 1 - pe;
                for t in 1..=20u64 {
                    let src = halo.local(pe).clone();
                    if block {
                        sh.putmem_signal_block(
                            k,
                            &halo,
                            0,
                            &src,
                            0,
                            plane,
                            &sig,
                            SignalOp::Set,
                            t,
                            other,
                        );
                    } else {
                        sh.putmem_signal_nbi(
                            k,
                            &halo,
                            0,
                            &src,
                            0,
                            plane,
                            &sig,
                            SignalOp::Set,
                            t,
                            other,
                        );
                    }
                    sh.signal_wait_until(k, &sig, Cmp::Ge, t);
                }
            })]
        })
        .unwrap();
        end.since(sim_des::SimTime::ZERO)
    };
    rows.push((
        "plane ping-pong (2 MB)".to_string(),
        pingpong(false),
        pingpong(true),
    ));
    rows
}

/// Extension experiment: distributed Conjugate Gradient (2 allreduces + 1
/// halo exchange per iteration) — CPU-Free vs CPU-controlled.
pub fn cg_comparison() -> Vec<DacePoint> {
    use cpufree_solvers::{run_baseline as cg_base, run_cpu_free as cg_free, PoissonProblem};
    let mut rows = Vec::new();
    for &g in &GPU_COUNTS {
        let prob = PoissonProblem::new(1026, 128 * g + 2, ITERS, g);
        let b = cg_base(&prob, ExecMode::TimingOnly);
        let c = cg_free(&prob, ExecMode::TimingOnly);
        let imp = |base: SimDur, ours: SimDur| {
            (base.as_nanos() as f64 - ours.as_nanos() as f64) / base.as_nanos() as f64 * 100.0
        };
        let bc = b.stats.comm_busy + b.stats.sync_busy;
        let cc = c.stats.comm_busy + c.stats.sync_busy;
        rows.push(DacePoint {
            gpus: g,
            baseline_total: b.total,
            baseline_comm: bc,
            cpufree_total: c.total,
            cpufree_comm: cc,
            improvement_pct: imp(b.total, c.total),
            comm_improvement_pct: imp(bc, cc),
        });
    }
    rows
}

/// Interconnect sensitivity: the same small-domain comparison on the
/// default NVLink node and on a PCIe-only node. Shows which part of the
/// CPU-Free advantage comes from the control path (survives slow links)
/// and which from fast device-initiated transfers.
pub fn sensitivity_interconnect() -> Vec<Point> {
    use gpu_sim::CostModel;
    let mut rows = Vec::new();
    for (label, cost) in [
        ("nvlink", CostModel::a100_hgx()),
        ("pcie-only", CostModel::pcie_only()),
    ] {
        for v in [Variant::BaselineNvshmem, Variant::CpuFree] {
            let cfg = weak2d(256, 8, ITERS).with_cost(cost.clone());
            let ex = v.run(&cfg);
            rows.push(point(&format!("{} [{label}]", v.label()), 8, &ex));
        }
    }
    rows
}

/// One row of the topology contention sweep.
#[derive(Debug, Clone)]
pub struct TopoRow {
    /// Topology preset name.
    pub topology: String,
    /// Concurrent cross-partition pairs driving traffic.
    pub pairs: usize,
    /// Mean time per transfer on the busiest pair.
    pub per_transfer: SimDur,
    /// Virtual time until the last transfer drains.
    pub makespan: SimDur,
}

/// Topology sweep: `pairs` concurrent cross-partition P2P streams
/// (device `i` -> `i + n/2`) each push a burst of large transfers through
/// [`gpu_sim::Transport`]. Dedicated-link topologies (NVLink all-to-all)
/// stay flat as pairs are added; routed topologies with shared hops
/// (PCIe host bridges, ring arcs, the two-node NIC) queue and slow down.
///
/// The (topology, pairs) cells are independent (fresh link state each),
/// so they fan out across `jobs` workers; rows come back in deterministic
/// cell order regardless of completion order.
pub fn topo_contention_jobs(jobs: usize) -> Vec<TopoRow> {
    use gpu_sim::{CostModel, DevId, Topology, TopologyKind, Transport};
    use sim_des::SimTime;
    const N: usize = 8;
    const BYTES: u64 = 64 << 20;
    const REPS: u64 = 4;
    let cost = CostModel::a100_hgx();
    let cells: Vec<(TopologyKind, usize)> = TopologyKind::node_presets()
        .into_iter()
        .flat_map(|kind| [1usize, 2, 4].into_iter().map(move |pairs| (kind, pairs)))
        .collect();
    sim_des::par_map(jobs, cells, |(kind, pairs)| {
        // Fresh link state per cell: the sweep measures queueing within
        // one traffic pattern, not across cells.
        let topo = Topology::build(kind, N, &cost);
        let t = Transport::new(topo, cost.clone());
        let mut makespan = SimDur::ZERO;
        for i in 0..pairs {
            let mut now = SimTime::ZERO;
            for _ in 0..REPS {
                let dur = t.p2p(DevId(i), DevId(i + N / 2), BYTES, now);
                now += dur;
            }
            makespan = makespan.max(now.since(SimTime::ZERO));
        }
        TopoRow {
            topology: kind.name(),
            pairs,
            per_transfer: makespan / REPS,
            makespan,
        }
    })
}

/// One row of the per-variant overhead breakdown.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Variant label.
    pub series: String,
    /// Per-iteration total time.
    pub per_iter: SimDur,
    /// Kernel-launch latency per iteration (host + device start).
    pub launch: SimDur,
    /// Host API overhead per iteration.
    pub api: SimDur,
    /// Synchronization busy time per iteration (per device on average).
    pub sync: SimDur,
    /// Communication busy time per iteration (per device on average).
    pub comm: SimDur,
}

/// Where each variant's time goes on the communication-bound small domain
/// (8 GPUs, no compute) — the anatomy behind Fig 2.2a.
pub fn overhead_breakdown() -> Vec<BreakdownRow> {
    let cfg = weak2d(256, 8, ITERS).without_compute();
    let mut rows = Vec::new();
    let mut variants = Variant::paper_set().to_vec();
    variants.push(Variant::CpuFreeDual);
    for v in variants {
        let ex = v.run(&cfg);
        let per = |d: SimDur| d / ITERS;
        rows.push(BreakdownRow {
            series: v.label().to_string(),
            per_iter: ex.stats.per_iter,
            launch: per(ex.stats.launch_total),
            api: per(ex.stats.api_total),
            sync: per(ex.stats.sync_busy),
            comm: per(ex.stats.comm_busy),
        });
    }
    rows
}

/// One row of the fault-injection / recovery-overhead experiment.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Workload label (`jacobi` or `cg`).
    pub workload: String,
    /// Fault scenario label.
    pub scenario: String,
    /// End-to-end virtual time of the fault-injected run.
    pub total: SimDur,
    /// Recovery overhead vs. the fault-free FT run, in percent.
    pub overhead_pct: f64,
    /// Rollback rounds performed.
    pub rollbacks: u64,
    /// Extra put attempts spent on dropped deliveries.
    pub retries: u64,
    /// Whether the result matched the fault-free run bit for bit.
    pub bit_identical: bool,
}

/// Recovery overhead of the fault-tolerant CPU-Free runners: Jacobi and CG
/// under transient link degradation, dropped signal deliveries, and an
/// agent crash with checkpoint/restart — each verified bit-identical to the
/// fault-free run, with the virtual-time cost of recovery reported.
pub fn fault_recovery_overhead() -> Vec<FaultRow> {
    use cpufree_solvers::{run_cpu_free_ft as run_cg_ft, CgFtConfig, PoissonProblem};
    use gpu_sim::{CrashFault, DropFault, FaultPlan, LinkFault};
    use sim_des::{us, SimTime};
    use stencil_lab::{run_cpu_free_ft as run_jacobi_ft, FtConfig};

    let scenarios = |horizon: f64| {
        [
            ("fault-free", FaultPlan::new()),
            (
                "link degraded 0-1",
                FaultPlan::new().with_link(LinkFault {
                    a: 0,
                    b: 1,
                    from: SimTime::ZERO,
                    until: SimTime::ZERO + us(horizon),
                    latency_mult: 5.0,
                    bandwidth_mult: 0.25,
                }),
            ),
            (
                "dropped signals 1->2",
                FaultPlan::new().with_drop(DropFault {
                    from: 1,
                    to: 2,
                    first_attempt: 3,
                    count: 2,
                }),
            ),
            (
                "crash node 2 @ iter 6",
                FaultPlan::new().with_crash(CrashFault {
                    node: 2,
                    at_iteration: 6,
                }),
            ),
        ]
    };
    let mut rows = Vec::new();

    // Jacobi (2D5pt, 4 PEs, Full mode so bit-identity is checked on data).
    let base = StencilConfig {
        nx: 64,
        ny: 62,
        nz: 1,
        iterations: 10,
        n_gpus: 4,
        exec: ExecMode::Full,
        no_compute: false,
        cost: None,
        topology: None,
        jitter: None,
        check: false,
    };
    let clean = run_jacobi_ft(&FtConfig::new(base.clone(), FaultPlan::new()))
        .expect("fault-free jacobi FT run failed");
    for (name, plan) in scenarios(400.0) {
        let ex = run_jacobi_ft(&FtConfig::new(base.clone(), plan))
            .expect("jacobi FT run failed to recover");
        rows.push(FaultRow {
            workload: "jacobi".into(),
            scenario: name.into(),
            total: ex.exec.total,
            overhead_pct: overhead_pct(clean.exec.total, ex.exec.total),
            rollbacks: ex.rollbacks,
            retries: ex.retries,
            bit_identical: ex.exec.checksum == clean.exec.checksum && ex.exec.max_err == Some(0.0),
        });
    }

    // CG (2D Poisson, 4 PEs).
    let prob = PoissonProblem::new(64, 62, 10, 4);
    let cg_clean = run_cg_ft(
        &CgFtConfig::new(prob.clone(), FaultPlan::new()),
        ExecMode::Full,
    )
    .expect("fault-free CG FT run failed");
    for (name, plan) in scenarios(400.0) {
        let ex = run_cg_ft(&CgFtConfig::new(prob.clone(), plan), ExecMode::Full)
            .expect("CG FT run failed to recover");
        rows.push(FaultRow {
            workload: "cg".into(),
            scenario: name.into(),
            total: ex.result.total,
            overhead_pct: overhead_pct(cg_clean.result.total, ex.result.total),
            rollbacks: ex.rollbacks,
            retries: ex.retries,
            bit_identical: ex.result.final_rho.to_bits() == cg_clean.result.final_rho.to_bits()
                && ex.result.verify(&prob) == 0.0,
        });
    }
    rows
}

fn overhead_pct(clean: SimDur, faulted: SimDur) -> f64 {
    (faulted.as_nanos() as f64 / clean.as_nanos() as f64 - 1.0) * 100.0
}

/// One row of the checker table: the same workload run with the
/// happens-before checker off and on. The checker charges no virtual time
/// (by construction — it only observes); its host cost is measured by
/// `perf` (`hb.overhead_ms_per_op`).
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Workload label.
    pub workload: String,
    /// Happens-before events recorded by the checked run.
    pub events: usize,
    /// Memory accesses race-checked.
    pub accesses: usize,
    /// The checked run raised no diagnostics.
    pub clean: bool,
    /// Virtual time and numerics are identical with the checker on.
    pub bit_identical: bool,
}

/// Correctness tooling: rerun Jacobi and CG with
/// [`Machine::with_checker`](gpu_sim::Machine::with_checker) enabled and
/// compare against the unchecked run, asserting virtual time and numerics
/// are untouched.
pub fn check_overhead() -> Vec<CheckRow> {
    let mut rows = Vec::new();
    {
        let cfg = StencilConfig::square2d(66, 20, 4);
        let off = Variant::CpuFree.run(&cfg);
        let on = Variant::CpuFree.run(&cfg.clone().with_check());
        let report = on.check.as_ref().expect("checker enabled");
        rows.push(CheckRow {
            workload: "jacobi2d 66x66 x20, 4 GPUs".into(),
            events: report.events,
            accesses: report.accesses,
            clean: report.clean(),
            bit_identical: on.total == off.total && on.checksum == off.checksum,
        });
    }
    {
        let prob = cpufree_solvers::PoissonProblem::new(34, 34, 15, 4);
        let off = cpufree_solvers::run_cpu_free(&prob, ExecMode::Full);
        let on = cpufree_solvers::run_cpu_free(&prob.clone().with_check(), ExecMode::Full);
        let report = on.check.as_ref().expect("checker enabled");
        rows.push(CheckRow {
            workload: "cg 34x34 x15, 4 PEs".into(),
            events: report.events,
            accesses: report.accesses,
            clean: report.clean(),
            bit_identical: on.total == off.total
                && on.final_rho.to_bits() == off.final_rho.to_bits()
                && on.x_owned == off.x_owned,
        });
    }
    rows
}

/// The paper's speedup formula, in percent.
pub fn speedup_pct(baseline: SimDur, ours: SimDur) -> f64 {
    cpufree_core::RunStats::speedup_pct(baseline, ours)
}

/// Statically verify every shipped SDFG program — as the frontend builds
/// it, after `gpu_transform`, and after the full CPU-Free pipeline (both
/// put granularities) — at each GPU count of [`GPU_COUNTS`]. Returns one
/// report per (program, stage, GPU count); a conforming corpus is all
/// clean. The `figures verify` subcommand and the CI `verify` job gate on
/// this.
///
/// Each (program, GPU count) cell verifies its four pipeline stages
/// independently on a pool of `jobs` workers; the flattened report list
/// keeps the serial emission order.
pub fn verify_corpus_jobs(jobs: usize) -> Vec<dace_sim::verify::VerifyReport> {
    use dace_sim::transform::{
        gpu_persistent_kernel, mpi_to_nvshmem_with, nvshmem_array, PutGranularity,
    };
    use dace_sim::verify::{verify_sdfg, VerifyReport};
    use dace_sim::{Bindings, Sdfg};

    fn staged(
        name: &str,
        sdfg: &Sdfg,
        n_pes: usize,
        user: &Bindings,
        stage: &str,
        out: &mut Vec<VerifyReport>,
    ) {
        let mut report = verify_sdfg(sdfg, n_pes, user);
        report.program = format!("{name}/{stage} @{n_pes}gpus");
        out.push(report);
    }

    let cells: Vec<(usize, &'static str)> = GPU_COUNTS
        .iter()
        .flat_map(|&g| [(g, "jacobi1d"), (g, "jacobi2d")])
        .collect();
    let per_cell = sim_des::par_map(jobs, cells, |(g, name)| {
        let (frontend, user): (Sdfg, Bindings) = match name {
            "jacobi1d" => {
                let s = Jacobi1dSetup::new(64, 5, g);
                (s.sdfg.clone(), s.user_bindings())
            }
            _ => {
                let s = Jacobi2dSetup::new(8, 8, 5, g);
                (s.sdfg.clone(), s.user_bindings())
            }
        };
        let mut out = Vec::new();
        staged(name, &frontend, g, &user, "frontend", &mut out);

        let mut gpu = frontend.clone();
        gpu_transform(&mut gpu);
        staged(name, &gpu, g, &user, "gpu", &mut out);

        let mut free = frontend.clone();
        to_cpu_free(&mut free).expect("pipeline");
        staged(name, &free, g, &user, "cpu_free", &mut out);

        let mut block = frontend.clone();
        gpu_transform(&mut block);
        mpi_to_nvshmem_with(&mut block, PutGranularity::Block).expect("mpi_to_nvshmem");
        nvshmem_array(&mut block);
        gpu_persistent_kernel(&mut block).expect("gpu_persistent_kernel");
        staged(name, &block, g, &user, "cpu_free_block", &mut out);
        out
    });
    per_cell.into_iter().flatten().collect()
}

/// One row of the DES-core gate (`figures des_core`): virtual end time and
/// event count of a deterministic engine workload, CI-gated against the
/// committed `BENCH_des_core.json`.
#[derive(Debug, Clone)]
pub struct DesCoreRow {
    /// Workload name.
    pub name: &'static str,
    /// Virtual end time of the run, nanoseconds.
    pub end_ns: u64,
    /// Engine events processed.
    pub events: u64,
}

/// The DES hot-path workloads of the committed `BENCH_des_core.json`:
/// a two-agent signal ping-pong (pure handoff cost), a trace-heavy busy
/// loop (the interned-label span path), an 8-agent barrier storm, a batch
/// of whole simulations on a [`sim_des::par_map`] pool of `jobs` workers,
/// and a 64-agent flow-controlled ring allreduce on the NVLink ring
/// preset. The rows are identical at every `jobs`.
pub fn des_core_rows(jobs: usize) -> Vec<DesCoreRow> {
    use sim_des::{ns, Category, Cmp, Engine, SignalOp};

    fn row(name: &'static str, f: impl FnOnce() -> (u64, u64)) -> DesCoreRow {
        let (end_ns, events) = f();
        DesCoreRow {
            name,
            end_ns,
            events,
        }
    }

    vec![
        row("pingpong_2x2000", || {
            let engine = Engine::new();
            engine.set_trace_enabled(false);
            let f1 = engine.flag(0);
            let f2 = engine.flag(0);
            engine.spawn("a", move |ctx| {
                for i in 1..=2000u64 {
                    ctx.signal(f1, SignalOp::Set, i);
                    ctx.wait_flag(f2, Cmp::Ge, i);
                }
            });
            engine.spawn("b", move |ctx| {
                for i in 1..=2000u64 {
                    ctx.wait_flag(f1, Cmp::Ge, i);
                    ctx.signal(f2, SignalOp::Set, i);
                }
            });
            let end = engine.run().expect("pingpong run");
            (end.as_nanos(), engine.events_processed())
        }),
        row("trace_busy_4x1000", || {
            let engine = Engine::new();
            for a in 0..4u64 {
                engine.spawn(format!("agent{a}"), move |ctx| {
                    let label = ctx.intern("phase");
                    for _ in 0..1000 {
                        ctx.busy(Category::Compute, label, ns(100));
                    }
                });
            }
            let end = engine.run().expect("trace_busy run");
            (end.as_nanos(), engine.events_processed())
        }),
        row("barrier_8x200", || {
            let engine = Engine::new();
            engine.set_trace_enabled(false);
            let bar = engine.barrier(8);
            for i in 0..8 {
                engine.spawn(format!("w{i}"), move |ctx| {
                    for _ in 0..200 {
                        ctx.advance(ns(50));
                        ctx.barrier(bar);
                    }
                });
            }
            let end = engine.run().expect("barrier run");
            (end.as_nanos(), engine.events_processed())
        }),
        row("batch_8x_pingpong_2x200", || {
            let runs = sim_des::par_map(jobs, (0..8u64).collect(), |_| {
                let engine = Engine::new();
                engine.set_trace_enabled(false);
                let f1 = engine.flag(0);
                let f2 = engine.flag(0);
                engine.spawn("a", move |ctx| {
                    for i in 1..=200u64 {
                        ctx.signal(f1, SignalOp::Set, i);
                        ctx.wait_flag(f2, Cmp::Ge, i);
                    }
                });
                engine.spawn("b", move |ctx| {
                    for i in 1..=200u64 {
                        ctx.wait_flag(f1, Cmp::Ge, i);
                        ctx.signal(f2, SignalOp::Set, i);
                    }
                });
                let end = engine.run().expect("batch pingpong run");
                (end.as_nanos(), engine.events_processed())
            });
            let end = runs.iter().map(|(e, _)| *e).max().unwrap_or(0);
            let events = runs.iter().map(|(_, n)| *n).sum();
            (end, events)
        }),
        row("ring_allreduce_64x63@serial", || {
            ring_allreduce(gpu_sim::TopologyKind::NvlinkRing, 64, 1)
        }),
    ]
}

/// Flow-controlled ring allreduce: `agents` agents, one per device of a
/// `kind` interconnect, run the classic `agents - 1`-round ring reduction
/// with seeded per-round compute jitter. Message delays are the software
/// signal overhead plus the forwarding latency of the route crossed.
///
/// Returns `(end_ns, events)`. Panics if any agent's reduced total
/// disagrees with the host-computed sum of the seeded inputs.
fn ring_allreduce(kind: gpu_sim::TopologyKind, agents: usize, seed: u64) -> (u64, u64) {
    use gpu_sim::{CostModel, Topology};
    use sim_des::{mix64, ns, Cmp, Engine, SignalOp};

    let input = |i: usize| mix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1_000_003;
    assert!(agents >= 2, "ring needs at least two agents");
    let cost = CostModel::a100_hgx();
    let topo = Topology::build(kind, agents, &cost);

    let eng = Engine::new();
    eng.set_trace_enabled(false);
    let flags = |eng: &Engine| (0..agents).map(|_| eng.flag(0)).collect::<Vec<_>>();
    let (data, seq, ack, result) = (flags(&eng), flags(&eng), flags(&eng), flags(&eng));
    for i in 0..agents {
        let succ = (i + 1) % agents;
        let pred = (i + agents - 1) % agents;
        let d_succ = cost.shmem_signal() + topo.route_forward_latency(i, succ);
        let d_pred = cost.shmem_signal() + topo.route_forward_latency(i, pred);
        let (my_data, my_seq, my_ack, my_result) = (data[i], seq[i], ack[i], result[i]);
        let (succ_data, succ_seq) = (data[succ], seq[succ]);
        let pred_ack = ack[pred];
        let mut carry = input(i);
        eng.spawn(format!("pe{i}"), move |ctx| {
            let mut sum = carry;
            let rounds = (agents - 1) as u64;
            for r in 1..=rounds {
                ctx.wait_flag(my_ack, Cmp::Ge, r - 1);
                ctx.advance(ns(200 + mix64(seed ^ ((i as u64) << 32) ^ r) % 800));
                ctx.schedule_signal(succ_data, SignalOp::Set, carry, d_succ);
                ctx.schedule_signal(succ_seq, SignalOp::Add, 1, d_succ);
                ctx.wait_flag(my_seq, Cmp::Ge, r);
                let got = ctx.flag_value(my_data);
                sum = sum.wrapping_add(got);
                carry = got;
                ctx.schedule_signal(pred_ack, SignalOp::Add, 1, d_pred);
            }
            ctx.signal(my_result, SignalOp::Set, sum);
        });
    }
    let end = eng.run().expect("ring allreduce");
    let expected = (0..agents).fold(0u64, |acc, i| acc.wrapping_add(input(i)));
    for (i, &r) in result.iter().enumerate() {
        assert_eq!(eng.flag_value(r), expected, "agent {i} diverged");
    }
    (end.as_nanos(), eng.events_processed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak2d_scales_slab_axis() {
        let c1 = weak2d(256, 1, 10);
        let c8 = weak2d(256, 8, 10);
        assert_eq!(c1.ny, 256);
        assert_eq!(c8.ny, 254 * 8 + 2);
        assert_eq!(c8.nx, 256);
    }

    #[test]
    fn fig2_2a_cpu_free_dominates() {
        let rows = fig2_2a();
        for g in GPU_COUNTS {
            if g == 1 {
                continue;
            }
            let base = rows
                .iter()
                .find(|p| p.gpus == g && p.series.contains("Overlap"))
                .unwrap();
            let free = rows
                .iter()
                .find(|p| p.gpus == g && p.series.contains("CPU-Free"))
                .unwrap();
            assert!(
                free.per_iter.as_nanos() * 3 < base.per_iter.as_nanos(),
                "at {g} GPUs: {} vs {}",
                free.per_iter,
                base.per_iter
            );
        }
    }

    #[test]
    fn des_core_rows_do_not_depend_on_jobs() {
        let key = |rows: Vec<DesCoreRow>| -> Vec<(&str, u64, u64)> {
            rows.into_iter()
                .map(|r| (r.name, r.end_ns, r.events))
                .collect()
        };
        assert_eq!(key(des_core_rows(1)), key(des_core_rows(4)));
    }
}
