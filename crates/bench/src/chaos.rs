//! Deterministic chaos engine — the sweep driver.
//!
//! [`sim_des::chaos`] holds the pure-data half of the engine (the outcome
//! taxonomy, the fault-plan JSON, the ddmin shrinker). This
//! module can see the workloads, so it owns the other half: enumerate fault
//! schedules ([`FaultPlan::from_seed`] seeds crossed with every
//! [`TopologyKind`] preset and both fault-tolerant workloads), run each
//! schedule — Jacobi's under the happens-before checker — and classify
//! every outcome against the **recovery invariants**:
//!
//! 1. a completed run must reproduce the fault-free baseline bit for bit
//!    (or, for degraded-mode schedules, the documented quorum result);
//! 2. recovery must stay within [`RECOVERY_BUDGET_MULT`]× the fault-free
//!    baseline's virtual time;
//! 3. every non-completion must be *attributed* — a timeout/deadlock with a
//!    wait-for graph, or a diagnostic naming the cause.
//!
//! Any violation is shrunk ([`sim_des::chaos::shrink`]) to a minimal
//! reproducer and serialized as a single JSON file that
//! `figures chaos-replay <path>` re-runs. The sweep itself is bit
//! deterministic: the same seed budget renders a byte-identical report.

use cpufree_solvers::{CgFtConfig, PoissonProblem};
use sim_des::chaos::{atoms, classify_error, shrink, ChaosOutcome};
use sim_des::json::{self, Json};
use sim_des::{us, CrashFault, DropFault, FaultPlan, LinkFault, SimTime, StragglerFault};
use stencil_lab::{FtConfig, StencilConfig};

use gpu_sim::{CostModel, ExecMode, Topology, TopologyKind};
use sim_des::SimDur;

/// Nodes (PEs / GPUs) in every chaos schedule.
pub const CHAOS_NODES: usize = 4;
/// Solver iterations per chaos run (small on purpose: the sweep runs
/// hundreds of schedules in `Full` mode with the checker on).
pub const CHAOS_ITERS: u64 = 10;
/// Virtual-time horizon handed to [`FaultPlan::from_seed`], microseconds.
pub const CHAOS_HORIZON_US: f64 = 400.0;
/// Default seed budget of the sweep (`figures chaos` accepts `--seeds N`).
/// 64 seeds × 4 topologies × 2 workloads = 512 seeded schedules, plus the
/// degraded-mode cases and the seeded violation demo.
pub const DEFAULT_SEED_BUDGET: u64 = 64;
/// Recovery-time budget: a recovered run may take at most this multiple of
/// the fault-free fault-tolerant baseline's virtual time before it counts
/// as an `UnboundedRecovery` violation.
pub const RECOVERY_BUDGET_MULT: f64 = 10.0;

/// The fault-tolerant workloads the engine drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosWorkload {
    /// 2D5pt Jacobi under the checkpoint/restart FT protocol.
    Jacobi,
    /// Distributed CG under the checkpoint/restart FT protocol.
    Cg,
}

impl ChaosWorkload {
    /// Both workloads, in report order.
    pub const ALL: [ChaosWorkload; 2] = [ChaosWorkload::Jacobi, ChaosWorkload::Cg];

    /// Stable name used in reports and reproducer files.
    pub fn name(self) -> &'static str {
        match self {
            ChaosWorkload::Jacobi => "jacobi",
            ChaosWorkload::Cg => "cg",
        }
    }

    /// Inverse of [`ChaosWorkload::name`].
    pub fn from_name(name: &str) -> Option<ChaosWorkload> {
        ChaosWorkload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inverse of [`TopologyKind::name`] (reproducer files store the name).
/// Resolves every preset plus the tiny [`fabric_chaos_kinds`] instances
/// the fabric-kill fixtures run on.
pub fn topology_from_name(name: &str) -> Option<TopologyKind> {
    TopologyKind::presets()
        .into_iter()
        .chain(fabric_chaos_kinds())
        .find(|k| k.name() == name)
}

/// Cluster-fabric instances scaled down to [`CHAOS_NODES`] devices: the
/// same fat-tree / dragonfly link machinery as the full presets (switch
/// uplinks, gateway routers, global links) at a size the chaos runners
/// can sweep. Not presets — they exist for the fabric degraded cases.
pub fn fabric_chaos_kinds() -> Vec<TopologyKind> {
    vec![
        // Two leaves x two GPUs, two spines: the smallest Clos with a
        // distinct up/down link per (leaf, spine) pair.
        TopologyKind::FatTree { gpus: 4, radix: 4 },
        // Four single-router single-GPU groups: every cross-GPU route
        // crosses exactly one global link.
        TopologyKind::Dragonfly {
            groups: 4,
            routers_per_group: 1,
            gpus_per_router: 1,
        },
    ]
}

/// The Jacobi problem every chaos schedule runs (tiny, `Full` mode, checker
/// on): 64×62 grid, [`CHAOS_ITERS`] iterations, [`CHAOS_NODES`] PEs.
pub fn jacobi_config(topo: TopologyKind) -> StencilConfig {
    let mut cfg = StencilConfig::square2d(64, CHAOS_ITERS, CHAOS_NODES)
        .with_topology(topo)
        .with_check();
    cfg.ny = 62; // 15 interior layers per PE
    cfg
}

/// The CG problem every chaos schedule runs (tiny, `Full` mode). Unlike
/// [`jacobi_config`] it runs without the checker: a checked fault-free run
/// costs about 1.5x an unchecked one (1.75 ms against 1.16 ms on
/// `nvlink-a2a`, 2-vCPU VM), and these CG schedules are the slowest tenth
/// of the `perf` benchmark's `fault_sweep` ops, so checking them would
/// move its `op_ms.p90`. Every checked CG schedule of the 64-seed sweep
/// was clean when measured.
pub fn cg_problem(topo: TopologyKind) -> PoissonProblem {
    PoissonProblem::new(64, 62, CHAOS_ITERS, CHAOS_NODES).with_topology(topo)
}

/// The Jacobi problem every degraded-mode schedule runs (32×32, 8
/// iterations, [`CHAOS_NODES`] PEs, checker off).
pub fn degraded_jacobi_config(topo: TopologyKind) -> StencilConfig {
    StencilConfig::square2d(32, 8, CHAOS_NODES).with_topology(topo)
}

/// The CG problem every degraded-mode schedule runs (18×18, 8 iterations,
/// [`CHAOS_NODES`] PEs, checker off).
pub fn degraded_cg_problem(topo: TopologyKind) -> PoissonProblem {
    PoissonProblem::new(18, 18, 8, CHAOS_NODES).with_topology(topo)
}

/// Fault-free reference measurements for one (workload, topology) cell.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Virtual completion time of the fault-free fault-tolerant run.
    pub total: SimDur,
    /// Result fingerprint: the Jacobi field checksum, or the CG
    /// `final_rho` bits.
    pub fingerprint: u64,
}

/// Run the fault-free fault-tolerant baseline for a (workload, topology)
/// cell. Panics if the baseline itself fails — nothing downstream is
/// meaningful then.
pub fn baseline(workload: ChaosWorkload, topo: TopologyKind) -> Baseline {
    match workload {
        ChaosWorkload::Jacobi => {
            let ex =
                stencil_lab::run_cpu_free_ft(&FtConfig::new(jacobi_config(topo), FaultPlan::new()))
                    .expect("fault-free jacobi baseline failed");
            assert_eq!(ex.exec.max_err, Some(0.0), "jacobi baseline diverged");
            Baseline {
                total: ex.exec.total,
                fingerprint: ex.exec.checksum,
            }
        }
        ChaosWorkload::Cg => {
            let prob = cg_problem(topo);
            let ex = cpufree_solvers::run_cpu_free_ft(
                &CgFtConfig::new(prob.clone(), FaultPlan::new()),
                ExecMode::Full,
            )
            .expect("fault-free CG baseline failed");
            assert_eq!(ex.result.verify(&prob), 0.0, "CG baseline diverged");
            Baseline {
                total: ex.result.total,
                fingerprint: ex.result.final_rho.to_bits(),
            }
        }
    }
}

fn budget_of(base: &Baseline) -> SimDur {
    SimDur((base.total.as_nanos() as f64 * RECOVERY_BUDGET_MULT) as u64)
}

fn classify_completion(
    total: SimDur,
    base: &Baseline,
    identical: bool,
    divergence: String,
) -> ChaosOutcome {
    if !identical {
        ChaosOutcome::SilentDivergence { detail: divergence }
    } else if total > budget_of(base) {
        ChaosOutcome::UnboundedRecovery {
            detail: format!(
                "total {total} exceeds {RECOVERY_BUDGET_MULT}x baseline {} (budget {})",
                base.total,
                budget_of(base)
            ),
        }
    } else {
        ChaosOutcome::CompletedIdentical
    }
}

fn checker_outcome(report: &gpu_sim::CheckReport) -> Option<ChaosOutcome> {
    if report.clean() {
        None
    } else {
        Some(ChaosOutcome::AttributedDiagnostic {
            detail: format!(
                "checker raised {} diagnostic(s); first: {}",
                report.diagnostics.len(),
                report.diagnostics[0]
            ),
        })
    }
}

/// Run one fault schedule through a workload's fault-tolerant runner and
/// classify the outcome against the recovery invariants. Deterministic:
/// the same `(workload, topo, plan)` always yields the same outcome.
pub fn run_schedule(
    workload: ChaosWorkload,
    topo: TopologyKind,
    plan: &FaultPlan,
    base: &Baseline,
) -> ChaosOutcome {
    match workload {
        ChaosWorkload::Jacobi => {
            match stencil_lab::run_cpu_free_ft(&FtConfig::new(jacobi_config(topo), plan.clone())) {
                Ok(ex) => {
                    if let Some(out) = ex.exec.check.as_ref().and_then(checker_outcome) {
                        return out;
                    }
                    let identical =
                        ex.exec.checksum == base.fingerprint && ex.exec.max_err == Some(0.0);
                    classify_completion(
                        ex.exec.total,
                        base,
                        identical,
                        format!(
                            "checksum {:#018x} vs baseline {:#018x}, max_err {:?}",
                            ex.exec.checksum, base.fingerprint, ex.exec.max_err
                        ),
                    )
                }
                Err(e) => classify_error(&e),
            }
        }
        ChaosWorkload::Cg => {
            let prob = cg_problem(topo);
            match cpufree_solvers::run_cpu_free_ft(
                &CgFtConfig::new(prob.clone(), plan.clone()),
                ExecMode::Full,
            ) {
                Ok(ex) => {
                    if let Some(out) = ex.result.check.as_ref().and_then(checker_outcome) {
                        return out;
                    }
                    let err = ex.result.verify(&prob);
                    let identical = ex.result.final_rho.to_bits() == base.fingerprint && err == 0.0;
                    classify_completion(
                        ex.result.total,
                        base,
                        identical,
                        format!(
                            "final_rho bits {:#018x} vs baseline {:#018x}, verify err {err:e}",
                            ex.result.final_rho.to_bits(),
                            base.fingerprint
                        ),
                    )
                }
                Err(e) => classify_error(&e),
            }
        }
    }
}

/// Run one schedule through a workload's **degraded-mode** runner (no
/// checkpoint/restart: link kills reroute, a crashed PE drops out and the
/// surviving quorum completes) and classify against the degraded oracles.
pub fn run_degraded_schedule(
    workload: ChaosWorkload,
    topo: TopologyKind,
    plan: &FaultPlan,
) -> ChaosOutcome {
    degraded_run(workload, topo, plan).0
}

/// The one degraded-mode run: [`run_degraded_schedule`]'s outcome and the
/// run's virtual completion time (`None` when it errors).
fn degraded_run(
    workload: ChaosWorkload,
    topo: TopologyKind,
    plan: &FaultPlan,
) -> (ChaosOutcome, Option<SimDur>) {
    match workload {
        ChaosWorkload::Jacobi => {
            let base = degraded_jacobi_config(topo);
            match stencil_lab::run_cpu_free_degraded(&FtConfig::new(base, plan.clone())) {
                Ok(ex) => {
                    let outcome = degraded_outcome(
                        ex.quorum.clone(),
                        ex.max_err == Some(0.0),
                        format!("degraded max_err {:?} (quorum {:?})", ex.max_err, ex.quorum),
                    );
                    (outcome, Some(ex.total))
                }
                Err(e) => (classify_error(&e), None),
            }
        }
        ChaosWorkload::Cg => {
            let prob = degraded_cg_problem(topo);
            match cpufree_solvers::run_cpu_free_degraded(
                &CgFtConfig::new(prob.clone(), plan.clone()),
                ExecMode::Full,
            ) {
                Ok(ex) => {
                    let err = ex.verify(&prob, plan);
                    let outcome = degraded_outcome(
                        ex.quorum.clone(),
                        err == 0.0,
                        format!("degraded verify err {err:e} (quorum {:?})", ex.quorum),
                    );
                    (outcome, Some(ex.total))
                }
                Err(e) => (classify_error(&e), None),
            }
        }
    }
}

fn degraded_outcome(quorum: Vec<usize>, exact: bool, divergence: String) -> ChaosOutcome {
    if !exact {
        ChaosOutcome::SilentDivergence { detail: divergence }
    } else if quorum.len() == CHAOS_NODES {
        ChaosOutcome::CompletedIdentical
    } else {
        ChaosOutcome::CompletedDegraded { quorum }
    }
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// One classified schedule of the sweep.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Stable case id (also the reproducer file stem for violations).
    pub id: String,
    /// The workload driven.
    pub workload: ChaosWorkload,
    /// The topology preset.
    pub topology: TopologyKind,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// The classified outcome.
    pub outcome: ChaosOutcome,
}

/// The seeded-violation demonstration: a deliberately unreasonable fault
/// plan that breaks the bounded-recovery invariant, shrunk to a minimal
/// reproducer and replayed from its JSON serialization.
#[derive(Debug, Clone)]
pub struct ShrinkDemo {
    /// Workload / topology the demo runs on.
    pub workload: ChaosWorkload,
    /// Topology preset of the demo.
    pub topology: TopologyKind,
    /// The injected plan.
    pub original: FaultPlan,
    /// Its classification (expected: `VIOLATION:unbounded-recovery`).
    pub original_outcome: ChaosOutcome,
    /// The ddmin-minimized, window-tightened plan.
    pub shrunk: FaultPlan,
    /// The minimized plan's classification (must match the original label).
    pub shrunk_outcome: ChaosOutcome,
    /// Oracle invocations the shrinker spent.
    pub oracle_runs: usize,
    /// The reproducer JSON of the minimized plan.
    pub reproducer: String,
    /// Outcome of re-running the schedule parsed back from `reproducer`.
    pub replay_outcome: ChaosOutcome,
}

impl ShrinkDemo {
    /// True when the shrunk plan and its JSON replay reproduce the original
    /// violation label.
    pub fn reproduced(&self) -> bool {
        self.shrunk_outcome.label() == self.original_outcome.label()
            && self.replay_outcome.label() == self.original_outcome.label()
    }
}

/// Everything `figures chaos` reports.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed budget the sweep ran with.
    pub seeds: u64,
    /// Every classified schedule, in deterministic order.
    pub cases: Vec<ChaosCase>,
    /// The seeded-violation demo (absent when skipped).
    pub demo: Option<ShrinkDemo>,
}

impl ChaosReport {
    /// Sweep cases that violated a recovery invariant (the seeded demo is
    /// tracked separately and intentionally violates).
    pub fn violations(&self) -> Vec<&ChaosCase> {
        self.cases
            .iter()
            .filter(|c| c.outcome.is_violation())
            .collect()
    }

    /// True when the sweep is clean and the demo (if run) reproduced.
    pub fn ok(&self) -> bool {
        self.violations().is_empty() && self.demo.as_ref().is_none_or(ShrinkDemo::reproduced)
    }

    /// Render the full deterministic report (byte-identical across runs
    /// with the same seed budget).
    pub fn render(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(s, "deterministic chaos sweep");
        let _ = writeln!(
            s,
            "nodes={CHAOS_NODES} iterations={CHAOS_ITERS} horizon={CHAOS_HORIZON_US}us \
             seeds={} budget={RECOVERY_BUDGET_MULT}x",
            self.seeds
        );
        let _ = writeln!(s, "schedules explored: {}", self.cases.len());
        let _ = writeln!(s);

        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for c in &self.cases {
            match counts.iter_mut().find(|(l, _)| *l == c.outcome.label()) {
                Some((_, n)) => *n += 1,
                None => counts.push((c.outcome.label(), 1)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let _ = writeln!(s, "outcome counts:");
        for (label, n) in &counts {
            let _ = writeln!(s, "  {label:<32} {n}");
        }
        let _ = writeln!(s);

        let _ = writeln!(s, "per-case outcomes:");
        for c in &self.cases {
            let _ = writeln!(s, "  {:<44} {}", c.id, outcome_line(&c.outcome));
        }
        let _ = writeln!(s);

        let violations = self.violations();
        if violations.is_empty() {
            let _ = writeln!(s, "violations: none");
        } else {
            let _ = writeln!(s, "violations ({}):", violations.len());
            for c in &violations {
                let _ = writeln!(s, "  {:<44} {}", c.id, outcome_line(&c.outcome));
                let _ = writeln!(s, "    plan: {}", describe_plan(&c.plan));
            }
        }
        let _ = writeln!(s);

        match &self.demo {
            None => {
                let _ = writeln!(s, "seeded violation demo: skipped");
            }
            Some(d) => {
                let _ = writeln!(
                    s,
                    "seeded violation demo ({} @ {}):",
                    d.workload.name(),
                    d.topology.name()
                );
                let _ = writeln!(
                    s,
                    "  injected : {} fault(s) -> {}",
                    atoms(&d.original).len(),
                    outcome_line(&d.original_outcome)
                );
                let _ = writeln!(
                    s,
                    "  shrunk   : {} fault(s) after {} oracle runs -> {}",
                    atoms(&d.shrunk).len(),
                    d.oracle_runs,
                    outcome_line(&d.shrunk_outcome)
                );
                let _ = writeln!(s, "  minimal plan: {}", describe_plan(&d.shrunk));
                let _ = writeln!(
                    s,
                    "  replayed from JSON -> {}",
                    outcome_line(&d.replay_outcome)
                );
                let _ = writeln!(
                    s,
                    "  reproduced: {} (minimal plan and JSON replay match the original label)",
                    d.reproduced()
                );
            }
        }
        s
    }
}

/// One-line rendering of an outcome: the label, plus the detail for
/// anything but a plain identical completion.
pub fn outcome_line(outcome: &ChaosOutcome) -> String {
    match outcome {
        ChaosOutcome::CompletedIdentical => outcome.label().to_string(),
        ChaosOutcome::CompletedDegraded { quorum } => {
            format!("{} quorum={quorum:?}", outcome.label())
        }
        ChaosOutcome::AttributedTimeout { detail }
        | ChaosOutcome::AttributedDiagnostic { detail }
        | ChaosOutcome::SilentDivergence { detail }
        | ChaosOutcome::UnattributedHang { detail }
        | ChaosOutcome::UnboundedRecovery { detail } => {
            format!("{} ({detail})", outcome.label())
        }
    }
}

/// Compact human-readable fault list of a plan (report rendering).
pub fn describe_plan(plan: &FaultPlan) -> String {
    let mut parts = Vec::new();
    for l in &plan.links {
        if l.is_kill() {
            parts.push(format!(
                "kill link {}-{} from {}",
                l.a,
                l.b,
                l.from.as_nanos()
            ));
        } else {
            parts.push(format!(
                "degrade link {}-{} [{}, {})ns lat x{} bw x{}",
                l.a,
                l.b,
                l.from.as_nanos(),
                l.until.as_nanos(),
                l.latency_mult,
                l.bandwidth_mult
            ));
        }
    }
    for d in &plan.drops {
        parts.push(format!(
            "drop {}->{} attempts {}..{}",
            d.from,
            d.to,
            d.first_attempt,
            d.first_attempt + d.count
        ));
    }
    for c in &plan.crashes {
        parts.push(format!("crash node {} @ iter {}", c.node, c.at_iteration));
    }
    for f in &plan.stragglers {
        parts.push(format!(
            "straggle node {} [{}, {})ns x{}",
            f.node,
            f.from.as_nanos(),
            f.until.as_nanos(),
            f.compute_mult
        ));
    }
    if parts.is_empty() {
        "(no faults)".to_string()
    } else {
        parts.join("; ")
    }
}

/// The degraded-mode schedules appended to every (workload, topology) cell:
/// a single-PE crash (quorum completion over healed collectives) and a
/// single-link kill (transport reroutes; result stays bit-identical).
pub fn degraded_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "degraded-crash",
            FaultPlan::new().with_crash(CrashFault {
                node: 2,
                at_iteration: 4,
            }),
        ),
        (
            "degraded-linkkill",
            FaultPlan::new().with_link(LinkFault::kill(1, 2, SimTime::ZERO + us(10.0))),
        ),
    ]
}

/// The fabric-level degraded cases: kill one *named* physical link of a
/// cluster fabric — a fat-tree switch uplink, a dragonfly global link —
/// and demand the degraded runners complete bit-identically over healed
/// relay routes. [`Topology::pairs_crossing`] translates the link name
/// into the pair kill set the fault machinery understands, so these
/// cases stay correct if fabric routing ever changes.
pub fn fabric_degraded_cases() -> Vec<(&'static str, TopologyKind, FaultPlan)> {
    let cost = CostModel::a100_hgx();
    let kinds = fabric_chaos_kinds();
    let named = [
        // Leaf 0's uplink to spine 1: severs the ECMP-hashed pairs
        // {0,3} and {1,2} — the cross-leaf pairs ring traffic actually
        // rides — and healed relays bounce through the other spine.
        (kinds[0], "degraded-switchkill", "ft.l0>s1"),
        // The only global link between groups 0 and 1: severs pair
        // {0,1}; healed relays route through a third group.
        (kinds[1], "degraded-globalkill", "df.gl0-1"),
    ];
    named
        .into_iter()
        .map(|(kind, label, link)| {
            let topo = Topology::build(kind, CHAOS_NODES, &cost);
            let mut plan = FaultPlan::new();
            for (a, b) in topo.pairs_crossing(link) {
                plan = plan.with_link(LinkFault::kill(a, b, SimTime::ZERO + us(10.0)));
            }
            assert!(
                !plan.links.is_empty(),
                "fabric case {label}: link {link} carries no pairs"
            );
            (label, kind, plan)
        })
        .collect()
}

/// One enumerated-but-not-yet-run schedule of the sweep. Specs are built
/// serially in deterministic case order; only the (pure, independent)
/// simulations fan out across workers.
struct CaseSpec {
    id: String,
    workload: ChaosWorkload,
    topology: TopologyKind,
    plan: FaultPlan,
    /// `Some` for seeded checkpoint/restart schedules (classified against
    /// the cell baseline), `None` for degraded-mode schedules.
    base: Option<Baseline>,
}

/// Fault-free baselines for every (workload, topology) cell, computed on
/// `jobs` workers in deterministic cell order.
pub fn baselines_jobs(jobs: usize) -> Vec<((ChaosWorkload, TopologyKind), Baseline)> {
    let cells: Vec<(ChaosWorkload, TopologyKind)> = ChaosWorkload::ALL
        .into_iter()
        .flat_map(|w| {
            TopologyKind::node_presets()
                .into_iter()
                .map(move |t| (w, t))
        })
        .collect();
    let bases = sim_des::par_map(jobs, cells.clone(), |(w, t)| baseline(w, t));
    cells.into_iter().zip(bases).collect()
}

/// Run the full sweep on `jobs` workers: `seeds` seeded schedules plus the
/// degraded-mode schedules for every (workload, topology) cell. Pure —
/// writes nothing. The case list and every outcome are independent of
/// `jobs`: specs are enumerated serially in deterministic order, each
/// schedule is a self-contained simulation, and [`sim_des::par_map`]
/// collects results by input position — so the rendered report is
/// byte-identical at every thread count.
pub fn chaos_sweep_cases_jobs(seeds: u64, jobs: usize) -> Vec<ChaosCase> {
    let horizon = SimTime::ZERO + us(CHAOS_HORIZON_US);
    let bases = baselines_jobs(jobs);
    let mut specs = Vec::new();
    for workload in ChaosWorkload::ALL {
        for topo in TopologyKind::node_presets() {
            let base = bases
                .iter()
                .find(|((w, t), _)| *w == workload && *t == topo)
                .map(|(_, b)| b.clone())
                .expect("baseline cell missing");
            for seed in 0..seeds {
                specs.push(CaseSpec {
                    id: format!("{}_{}_seed{seed}", workload.name(), topo.name()),
                    workload,
                    topology: topo,
                    plan: FaultPlan::from_seed(seed, CHAOS_NODES, horizon, CHAOS_ITERS),
                    base: Some(base.clone()),
                });
            }
            for (label, plan) in degraded_plans() {
                specs.push(CaseSpec {
                    id: format!("{}_{}_{label}", workload.name(), topo.name()),
                    workload,
                    topology: topo,
                    plan,
                    base: None,
                });
            }
        }
        // Cluster fabrics: dedicated named-link kill cases (the seeded
        // budget stays on the node presets so the sweep size is unchanged).
        for (label, kind, plan) in fabric_degraded_cases() {
            specs.push(CaseSpec {
                id: format!("{}_{}_{label}", workload.name(), kind.name()),
                workload,
                topology: kind,
                plan,
                base: None,
            });
        }
    }
    sim_des::par_map(jobs, specs, |spec| {
        let outcome = match &spec.base {
            Some(base) => run_schedule(spec.workload, spec.topology, &spec.plan, base),
            None => run_degraded_schedule(spec.workload, spec.topology, &spec.plan),
        };
        ChaosCase {
            id: spec.id,
            workload: spec.workload,
            topology: spec.topology,
            plan: spec.plan,
            outcome,
        }
    })
}

/// The deliberately unreasonable plan of the seeded violation demo: a
/// whole-run extreme link degradation (blows the bounded-recovery budget)
/// plus two noise faults the shrinker must discard.
pub fn seeded_violation_plan() -> FaultPlan {
    FaultPlan::new()
        .with_link(LinkFault {
            a: 0,
            b: 1,
            from: SimTime::ZERO,
            until: SimTime::ZERO + us(100_000.0),
            latency_mult: 500.0,
            bandwidth_mult: 0.01,
        })
        .with_drop(DropFault {
            from: 2,
            to: 3,
            first_attempt: 2,
            count: 2,
        })
        .with_straggler(StragglerFault {
            node: 3,
            from: SimTime::ZERO,
            until: SimTime::ZERO + us(50.0),
            compute_mult: 2.0,
        })
}

/// Run the seeded-violation demo: classify [`seeded_violation_plan`],
/// shrink it to a minimal reproducer with the same outcome label, and
/// replay the reproducer from its JSON serialization.
pub fn shrink_demo() -> ShrinkDemo {
    let workload = ChaosWorkload::Jacobi;
    let topo = TopologyKind::NvlinkAllToAll;
    let base = baseline(workload, topo);
    let original = seeded_violation_plan();
    let original_outcome = run_schedule(workload, topo, &original, &base);
    let target = original_outcome.label();
    let mut oracle_runs = 0usize;
    let shrunk = shrink(&original, &mut |candidate| {
        oracle_runs += 1;
        run_schedule(workload, topo, candidate, &base).label() == target
    });
    let shrunk_outcome = run_schedule(workload, topo, &shrunk, &base);
    let reproducer = reproducer_json(workload, topo, &shrunk, false);
    let replay_outcome = match replay(&reproducer) {
        Ok((_, _, outcome)) => outcome,
        Err(e) => ChaosOutcome::UnattributedHang {
            detail: format!("reproducer failed to parse: {e}"),
        },
    };
    ShrinkDemo {
        workload,
        topology: topo,
        original,
        original_outcome,
        shrunk,
        shrunk_outcome,
        oracle_runs,
        reproducer,
        replay_outcome,
    }
}

/// Run the complete chaos engine on `jobs` workers: the sweep plus (when
/// `with_demo`) the seeded-violation shrink demo.
///
/// # Errors
/// A degenerate budget (`seeds == 0`) is an error, not an empty report: a
/// sweep that explores nothing must never read as a clean gate. `jobs == 0`
/// is rejected the same way (the caller asked for a sweep that cannot run).
pub fn chaos_sweep_jobs(seeds: u64, with_demo: bool, jobs: usize) -> Result<ChaosReport, String> {
    if seeds == 0 {
        return Err(format!(
            "chaos sweep needs a nonzero seed budget (got --seeds 0); \
             the default is {DEFAULT_SEED_BUDGET}"
        ));
    }
    if jobs == 0 {
        return Err("chaos sweep needs at least one worker (got --jobs 0)".to_string());
    }
    Ok(ChaosReport {
        seeds,
        cases: chaos_sweep_cases_jobs(seeds, jobs),
        demo: with_demo.then(shrink_demo),
    })
}

// ---------------------------------------------------------------------------
// Reproducer files
// ---------------------------------------------------------------------------

/// Serialize a replayable reproducer as one object: `workload` and
/// `topology` tags, with `degraded` a `"mode": "degraded"` tag that
/// [`replay`] dispatches on, then the plan's members.
pub fn reproducer_json(
    workload: ChaosWorkload,
    topo: TopologyKind,
    plan: &FaultPlan,
    degraded: bool,
) -> String {
    let mut doc = vec![
        ("workload".to_owned(), workload.name().into()),
        ("topology".to_owned(), topo.name().into()),
    ];
    if degraded {
        doc.push(("mode".to_owned(), "degraded".into()));
    }
    let Json::Obj(plan) = plan.to_json() else {
        unreachable!("a fault plan serializes as a JSON object");
    };
    doc.extend(plan);
    json::write(&Json::Obj(doc))
}

/// Parse a reproducer document: its workload, topology and plan, and
/// whether it replays through the degraded-mode runner.
///
/// # Errors
/// Malformed JSON, an unknown member, a missing or unknown
/// `workload`/`topology`, a `mode` other than `"degraded"`, a non-string
/// tag, or a plan that is malformed or that [`FaultPlan::check`] rejects
/// for [`CHAOS_NODES`] PEs.
pub fn reproducer_parse(
    document: &str,
) -> Result<(ChaosWorkload, TopologyKind, FaultPlan, bool), String> {
    let doc = json::parse(document)?;
    let Json::Obj(members) = &doc else {
        return Err("expected an object".into());
    };
    // The reproducer's tags, and the members `FaultPlan::to_json` writes.
    let empty = FaultPlan::new().to_json();
    let known = |k: &str| ["workload", "topology", "mode"].contains(&k) || empty.get(k).is_some();
    if let Some((k, _)) = members.iter().find(|(k, _)| !known(k)) {
        return Err(format!("unknown member \"{k}\""));
    }
    let tag = |key: &str| -> Result<Option<&str>, String> {
        doc.get(key)
            .map(|v| v.as_str().ok_or(format!("\"{key}\": expected a string")))
            .transpose()
    };
    let w = tag("workload")?.ok_or("missing \"workload\"")?;
    let workload =
        ChaosWorkload::from_name(w).ok_or_else(|| format!("unknown workload \"{w}\""))?;
    let t = tag("topology")?.ok_or("missing \"topology\"")?;
    let topo = topology_from_name(t).ok_or_else(|| format!("unknown topology \"{t}\""))?;
    let degraded = match tag("mode")? {
        None => false,
        Some("degraded") => true,
        Some(m) => return Err(format!("unknown mode \"{m}\"")),
    };
    let plan = FaultPlan::from_json(&doc)?;
    plan.check(CHAOS_NODES)?;
    Ok((workload, topo, plan, degraded))
}

/// Replay a reproducer document: parse it once, re-run its schedule under
/// the recovery oracles and return the (workload, topology, outcome)
/// triple.
///
/// # Errors
/// A document [`reproducer_parse`] rejects.
pub fn replay(document: &str) -> Result<(ChaosWorkload, TopologyKind, ChaosOutcome), String> {
    let (workload, topo, plan, degraded) = reproducer_parse(document)?;
    let outcome = if degraded {
        run_degraded_schedule(workload, topo, &plan)
    } else {
        run_schedule(workload, topo, &plan, &baseline(workload, topo))
    };
    Ok((workload, topo, outcome))
}

/// One row of the degraded-mode table (`figures degraded`).
#[derive(Debug, Clone)]
pub struct DegradedRow {
    /// The workload driven.
    pub workload: ChaosWorkload,
    /// The topology preset.
    pub topology: TopologyKind,
    /// The [`degraded_plans`] label.
    pub plan: &'static str,
    /// End-to-end virtual time.
    pub total: SimDur,
    /// The surviving quorum (ascending PE ids).
    pub quorum: Vec<usize>,
    /// Extra put attempts spent on dropped deliveries.
    pub retries: u64,
    /// Result fingerprint: the Jacobi survivors' checksum, or the CG
    /// `final_rho` bits.
    pub result_bits: u64,
}

/// Both workloads × [`degraded_plans`] on every node preset, run through
/// the degraded-mode runners. Panics if a run fails: every one of these
/// schedules completes in the chaos sweep.
pub fn degraded_rows() -> Vec<DegradedRow> {
    let mut rows = Vec::new();
    for workload in ChaosWorkload::ALL {
        for topology in TopologyKind::node_presets() {
            for (label, plan) in degraded_plans() {
                let (total, quorum, retries, result_bits) = match workload {
                    ChaosWorkload::Jacobi => {
                        let cfg = FtConfig::new(degraded_jacobi_config(topology), plan);
                        let ex = stencil_lab::run_cpu_free_degraded(&cfg)
                            .expect("degraded jacobi run failed");
                        (ex.total, ex.quorum, ex.retries, ex.checksum)
                    }
                    ChaosWorkload::Cg => {
                        let prob = degraded_cg_problem(topology);
                        let ex = cpufree_solvers::run_cpu_free_degraded(
                            &CgFtConfig::new(prob.clone(), plan.clone()),
                            ExecMode::Full,
                        )
                        .expect("degraded CG run failed");
                        (ex.total, ex.quorum, ex.retries, ex.final_rho.to_bits())
                    }
                };
                rows.push(DegradedRow {
                    workload,
                    topology,
                    plan: label,
                    total,
                    quorum,
                    retries,
                    result_bits,
                });
            }
        }
    }
    rows
}

/// The committed fabric-kill reproducer fixtures
/// (`crates/bench/fixtures/chaos/<label>.json`): each
/// [`fabric_degraded_cases`] plan shrunk to a minimal fault set that
/// still completes identically *with a perturbed virtual time* — proof
/// the kill was live and the healed relay engaged — serialized as a
/// degraded-mode reproducer document. The label alone would let ddmin
/// collapse a *recoverable* kill all the way to the empty plan (every
/// subset also completes identically); demanding a perturbed virtual time
/// keeps the kill that actually forces the healed route.
pub fn fabric_fixture_docs() -> Vec<(&'static str, String)> {
    let workload = ChaosWorkload::Jacobi;
    fabric_degraded_cases()
        .into_iter()
        .map(|(label, kind, plan)| {
            let clean = degraded_run(workload, kind, &FaultPlan::new()).1;
            let signature = |p: &FaultPlan| {
                let (outcome, total) = degraded_run(workload, kind, p);
                (outcome.label(), total != clean)
            };
            let target = signature(&plan);
            assert!(
                target.1,
                "fabric case {label}: kill did not perturb the degraded run"
            );
            let shrunk = shrink(&plan, &mut |candidate| signature(candidate) == target);
            (label, reproducer_json(workload, kind, &shrunk, true))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducer_round_trips() {
        let (workload, topo, plan) = (
            ChaosWorkload::Cg,
            TopologyKind::PcieTree,
            seeded_violation_plan(),
        );
        for degraded in [false, true] {
            let doc = reproducer_json(workload, topo, &plan, degraded);
            assert_eq!(
                reproducer_parse(&doc),
                Ok((workload, topo, plan.clone(), degraded))
            );
        }
    }

    #[test]
    fn reproducer_rejects_unknown_tags() {
        let plan = FaultPlan::new();
        let doc = reproducer_json(ChaosWorkload::Jacobi, TopologyKind::TwoNode, &plan, false);
        assert!(reproducer_parse(&doc.replace("jacobi", "fortran"))
            .unwrap_err()
            .contains("unknown workload"));
        let bare = json::write(&plan.to_json());
        assert!(reproducer_parse(&bare).unwrap_err().contains("workload"));
        // Escaped names read back like plain ones.
        let escaped = doc.replace("\"jacobi\"", "\"jacob\\u0069\"");
        assert_eq!(reproducer_parse(&escaped), reproducer_parse(&doc));
    }

    #[test]
    fn describe_plan_covers_every_fault_class() {
        let plan = seeded_violation_plan()
            .with_link(LinkFault::kill(0, 3, SimTime(7)))
            .with_crash(CrashFault {
                node: 1,
                at_iteration: 2,
            });
        let text = describe_plan(&plan);
        for needle in [
            "degrade link 0-1",
            "kill link 0-3",
            "drop 2->3",
            "crash node 1",
            "straggle node 3",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        assert_eq!(describe_plan(&FaultPlan::new()), "(no faults)");
    }

    #[test]
    fn degraded_schedules_complete_with_documented_quorum() {
        // One topology here (all four are covered by the sweep and the
        // degraded crate tests); both workloads, both degraded plans.
        let plans = degraded_plans();
        for workload in ChaosWorkload::ALL {
            let crash = run_degraded_schedule(workload, TopologyKind::NvlinkRing, &plans[0].1);
            assert_eq!(
                crash,
                ChaosOutcome::CompletedDegraded {
                    quorum: vec![0, 1, 3]
                },
                "{} crash case",
                workload.name()
            );
            let kill = run_degraded_schedule(workload, TopologyKind::NvlinkRing, &plans[1].1);
            assert_eq!(
                kill,
                ChaosOutcome::CompletedIdentical,
                "{} kill case",
                workload.name()
            );
        }
    }

    #[test]
    fn fabric_kills_heal_to_identical_completion() {
        // Both workloads, both fabric cases: killing a named switch
        // uplink / global link must reroute over healed relays and
        // reproduce the fault-free result bit for bit (full quorum).
        for workload in ChaosWorkload::ALL {
            for (label, kind, plan) in fabric_degraded_cases() {
                let out = run_degraded_schedule(workload, kind, &plan);
                assert_eq!(
                    out,
                    ChaosOutcome::CompletedIdentical,
                    "{}_{}_{label}",
                    workload.name(),
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn fabric_kill_fixtures_are_current_and_replay() {
        // The committed reproducers must match what this tree generates
        // (set UPDATE_FIXTURES=1 to regenerate) and must replay through
        // the degraded-mode dispatch to a healed identical completion.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/chaos");
        let docs = fabric_fixture_docs();
        assert_eq!(docs.len(), fabric_degraded_cases().len());
        for (label, json) in &docs {
            let path = format!("{dir}/{label}.json");
            if std::env::var_os("UPDATE_FIXTURES").is_some() {
                std::fs::write(&path, json).expect("write fixture");
            }
            let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("missing fixture {path} ({e}); rerun with UPDATE_FIXTURES=1")
            });
            assert_eq!(
                &committed, json,
                "stale fixture {path}; rerun with UPDATE_FIXTURES=1"
            );
            let (w, t, outcome) = replay(json).expect("fixture replays");
            assert_eq!(w, ChaosWorkload::Jacobi, "{label}");
            assert!(t.is_cluster(), "{label} should replay on a cluster fabric");
            assert_eq!(outcome, ChaosOutcome::CompletedIdentical, "{label}");
        }
    }

    #[test]
    fn seeded_schedule_classifies_identically_twice() {
        let base = baseline(ChaosWorkload::Jacobi, TopologyKind::PcieTree);
        let plan = FaultPlan::from_seed(
            3,
            CHAOS_NODES,
            SimTime::ZERO + us(CHAOS_HORIZON_US),
            CHAOS_ITERS,
        );
        let a = run_schedule(ChaosWorkload::Jacobi, TopologyKind::PcieTree, &plan, &base);
        let b = run_schedule(ChaosWorkload::Jacobi, TopologyKind::PcieTree, &plan, &base);
        assert_eq!(a, b);
        assert!(!a.is_violation(), "seeded schedule must recover: {a:?}");
    }
}
