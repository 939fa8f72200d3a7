//! The four workloads: seeded op lists, one op's execution, and the
//! oracle each result is checked against after the timed window.
//!
//! Each workload puts most of its host time into one layer and almost
//! none into another, so a change to that layer shows on one workload and
//! must leave the others unchanged (README.md has the pairing).

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use cpufree_bench::chaos::{
    self, Baseline, ChaosWorkload, CHAOS_HORIZON_US, CHAOS_ITERS, CHAOS_NODES,
};
use cpufree_bench::{strong3d, weak2d, weak3d, GPU_COUNTS, ITERS};
use cpufree_core::RunStats;
use cpufree_solvers::{CgFtConfig, PoissonProblem, ReduceOrder};
use dace_sim::programs::{Jacobi1dSetup, Jacobi2dSetup};
use dace_sim::transform::{
    gpu_persistent_kernel, gpu_transform, mpi_to_nvshmem_with, nvshmem_array, to_cpu_free,
    PutGranularity,
};
use dace_sim::{predict_cost, verify_sdfg, Bindings, Sdfg};
use gpu_sim::{CostModel, DevId, Endpoint, ExecMode, Topology, TopologyKind, Transport};
use sim_des::{mix64, us, FaultPlan, SimTime};
use stencil_lab::{FtConfig, StencilConfig, Variant};

use crate::measure::Recorder;
use crate::oracle::{CostRow, FigKey, FigOracle, FigRow};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StencilTiming,
    NumericsFull,
    FaultSweep,
    StaticModel,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StencilTiming,
        Workload::NumericsFull,
        Workload::FaultSweep,
        Workload::StaticModel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilTiming => "stencil_timing",
            Workload::NumericsFull => "numerics_full",
            Workload::FaultSweep => "fault_sweep",
            Workload::StaticModel => "static_model",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads issuing ops: the fault sweep runs on the `par_map` pool at
    /// the CPU count of the 2-vCPU VM it was calibrated on, the others on
    /// one caller thread.
    pub fn jobs(self) -> usize {
        match self {
            Workload::FaultSweep => 2,
            _ => 1,
        }
    }

    /// The sample groups (see [`Recorder`]) this workload's traced ops
    /// fill in.
    pub fn layers(self) -> &'static [&'static str] {
        match self {
            Workload::StencilTiming => &["spans", "from_trace"],
            Workload::NumericsFull => &["spans", "from_trace", "arith"],
            Workload::FaultSweep => &["hb"],
            Workload::StaticModel => &["dace", "transport"],
        }
    }
}

/// Cycles or blocks per generated op list. A window that outlasts the list
/// cycles through it again.
const NUMERICS_CYCLES: usize = 3;
const FAULT_BLOCKS: usize = 4;
/// Fault schedules per block on chaos Jacobi and on chaos CG. A CG op
/// costs two to three times a Jacobi op; at an even split the median would
/// sit on the gap between the two, and jump across it from run to run.
const FAULT_JACOBI: usize = 32;
const FAULT_CG: usize = 16;
const STATIC_BLOCKS: usize = 512;

/// PEs and iterations of every numerics op.
const NUM_PES: usize = 4;
const NUM_ITERS: u64 = 10;
/// Grid-size ranges (edge length, boundary included) of the numerics ops.
const JACOBI2D_N: (usize, usize) = (514, 898);
const JACOBI3D_N: (usize, usize) = (66, 114);
const CG_N: (usize, usize) = (258, 642);

/// Puts per static-model schedule (charged twice: transport and mirror).
const PUTS: usize = 1536;
/// Seeded fresh DaCe cells whose predicted base is checked against a full
/// simulation after the window.
const DES_CHECKED_CELLS: usize = 16;

/// Counter-based generator: the `n`-th draw is `mix64(seed + n·φ)`.
struct Rng {
    seed: u64,
    n: u64,
}

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng {
            seed: mix64(seed ^ mix64(stream)),
            n: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.n += 1;
        mix64(
            self.seed
                .wrapping_add(self.n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Seeded draws without replacement: each deck deals `0..m` once per round,
/// in shuffled order, so any long run of draws from it holds every value
/// about equally often whatever the seed.
#[derive(Default)]
struct Decks(BTreeMap<(&'static str, usize), Vec<usize>>);

impl Decks {
    /// The next card of deck `(name, key)`, which holds `0..m`.
    fn deal(&mut self, rng: &mut Rng, name: &'static str, key: usize, m: usize) -> usize {
        let deck = self.0.entry((name, key)).or_default();
        if deck.is_empty() {
            deck.extend(0..m);
            rng.shuffle(deck);
        }
        deck.pop().expect("decks hold at least one card")
    }
}

/// One size from each quarter of `lo..=hi`, so every block spans the whole
/// range. Each quarter is cut again into as many slices as a numerics list
/// draws from it, dealt from a deck, so the list's sizes, and with them its
/// costs, spread evenly over the range whatever the seed: with a free draw
/// in each quarter, the seed moved the list's `op_ms.p90` by up to a tenth.
fn quarter_sizes(
    rng: &mut Rng,
    decks: &mut Decks,
    name: &'static str,
    (lo, hi): (usize, usize),
) -> Vec<usize> {
    const SLICES: usize = 4 * NUMERICS_CYCLES;
    let quarter = (hi - lo + 1) / 4;
    let slice = (quarter / SLICES).max(1);
    (0..4)
        .map(|q| lo + q * quarter + decks.deal(rng, name, q, SLICES) * slice + rng.below(slice))
        .collect()
}

/// One Fig 6.1 / Fig 6.2 cell.
#[derive(Debug, Clone)]
pub struct StencilCell {
    pub figure: &'static str,
    pub variant: Variant,
    pub cfg: StencilConfig,
}

impl StencilCell {
    pub fn key(&self) -> FigKey {
        (
            self.figure.to_string(),
            self.variant.label().to_string(),
            self.cfg.n_gpus,
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    Jacobi1d,
    Jacobi2d,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Uniform,
    HotSpot,
    Permutation,
}

/// One op. Every field is an input generated from the seed.
#[derive(Debug, Clone)]
pub enum Op {
    Stencil(StencilCell),
    Jacobi {
        cfg: StencilConfig,
        variant: Variant,
    },
    Cg {
        prob: PoissonProblem,
        baseline: bool,
    },
    /// One fault schedule on one program, run on every node preset.
    Chaos {
        workload: ChaosWorkload,
        plan: FaultPlan,
        degraded: bool,
        /// The preset of the traced run's fault-free twins.
        twin: TopologyKind,
    },
    Dace {
        program: Program,
        /// Block-cooperative puts (`cpu_free_block`) instead of the
        /// single-thread `to_cpu_free` pipeline.
        block: bool,
        gpus: usize,
        fabric: TopologyKind,
        size: usize,
        tsteps: u64,
        /// Index of the committed ledger row this cell reproduces.
        ledger: Option<usize>,
    },
    Puts {
        fabric: TopologyKind,
        mix: Mix,
        seed: u64,
    },
}

/// What an op returned, reduced to what its oracle needs.
#[derive(Debug, Clone)]
pub enum Outcome {
    Stencil(FigRow),
    Jacobi(Option<f64>),
    Cg {
        order: ReduceOrder,
        x_digest: u64,
        rho_bits: u64,
    },
    Chaos {
        label: &'static str,
        violation: bool,
    },
    Dace {
        clean: bool,
        base: u64,
        margin: u64,
        total: u64,
        contended: bool,
        extrapolated: bool,
    },
    Puts {
        transport: u64,
        mirror: u64,
        reservations: u64,
        hops: u64,
    },
    /// The op returned `Err` or panicked.
    Failed(String),
}

/// Everything set-up produces: the op list and the oracles.
pub struct Inputs {
    pub workload: Workload,
    pub ops: Vec<Op>,
    pub figures: FigOracle,
    pub ledger: Vec<CostRow>,
    pub baselines: Vec<((ChaosWorkload, TopologyKind), Baseline)>,
}

/// The 144 Fig 6.1/6.2 cells in the order `figures` emits them.
fn stencil_cells() -> Vec<StencilCell> {
    let mut cells = Vec::new();
    let mut push = |figure: &'static str, cfg: &dyn Fn(usize) -> StencilConfig, perks: bool| {
        for &g in &GPU_COUNTS {
            let mut variants = Variant::paper_set().to_vec();
            if perks {
                variants.push(Variant::CpuFreePerks);
            }
            for variant in variants {
                cells.push(StencilCell {
                    figure,
                    variant,
                    cfg: cfg(g),
                });
            }
        }
    };
    push("fig6_1_small_256_2", &|g| weak2d(256, g, ITERS), false);
    push("fig6_1_medium_2048_2", &|g| weak2d(2048, g, ITERS), false);
    push("fig6_1_large_8192_2", &|g| weak2d(8192, g, ITERS), true);
    push(
        "fig6_2_weak_scaling_256_3_GPU",
        &|g| weak3d(256, 256, 256, g, ITERS),
        false,
    );
    push(
        "fig6_2_weak_scaling__no_compute",
        &|g| weak3d(256, 256, 256, g, ITERS).without_compute(),
        false,
    );
    push(
        "fig6_2_strong_scaling_512_3_total",
        &|g| strong3d(512, 512, 514, g, ITERS),
        false,
    );
    push(
        "fig6_2_strong_scaling__no_compute",
        &|g| strong3d(512, 512, 514, g, ITERS).without_compute(),
        false,
    );
    cells
}

/// Generate a workload's op list from `seed`. `ledger` supplies the
/// committed cost cells the static model replays.
pub fn ops(w: Workload, seed: u64, ledger: &[CostRow]) -> Vec<Op> {
    let mut rng = Rng::new(seed, w as u64);
    match w {
        Workload::StencilTiming => stencil_ops(&mut rng),
        Workload::NumericsFull => {
            let mut decks = Decks::default();
            (0..NUMERICS_CYCLES)
                .flat_map(|_| numerics_cycle(&mut rng, &mut decks))
                .collect()
        }
        Workload::FaultSweep => {
            let mut decks = Decks::default();
            (0..FAULT_BLOCKS)
                .flat_map(|b| fault_block(&mut rng, &mut decks, b))
                .collect()
        }
        Workload::StaticModel => {
            let mut decks = Decks::default();
            (0..STATIC_BLOCKS)
                .flat_map(|b| static_block(&mut rng, &mut decks, b, ledger))
                .collect()
        }
    }
}

/// Host cost of a stencil cell follows its event count, i.e. its (GPU
/// count, variant) class, not its figure. The seed permutes the cells, but
/// each round of the order holds one cell of every class, so any window of
/// a few rounds sees the same cost mix.
fn stencil_ops(rng: &mut Rng) -> Vec<Op> {
    let mut classes: BTreeMap<(usize, &'static str), Vec<StencilCell>> = BTreeMap::new();
    for c in stencil_cells() {
        classes
            .entry((c.cfg.n_gpus, c.variant.label()))
            .or_default()
            .push(c);
    }
    let rounds_n = classes.values().map(Vec::len).max().unwrap_or(1);
    let mut rounds: Vec<Vec<StencilCell>> = vec![Vec::new(); rounds_n];
    for mut class in classes.into_values() {
        rng.shuffle(&mut class);
        let offset = rng.below(rounds_n);
        for (i, c) in class.into_iter().enumerate() {
            rounds[(offset + i) % rounds_n].push(c);
        }
    }
    let mut out = Vec::new();
    for mut round in rounds {
        rng.shuffle(&mut round);
        out.extend(round.into_iter().map(Op::Stencil));
    }
    out
}

/// Forty-eight ops in four blocks of twelve. Every block holds one Jacobi
/// 2D, one Jacobi 3D and one CG size from each quarter of its range.
/// Across the four blocks each quarter meets every Jacobi variant, every
/// node preset and each CG solver (twice) once, and every variant meets
/// every preset. The seed draws the sizes within their quarters
/// ([`quarter_sizes`]), the variant and preset assignment, and the order,
/// so it changes the ops but hardly the list's mix of costs.
fn numerics_cycle(rng: &mut Rng, decks: &mut Decks) -> Vec<Op> {
    let mut variants = [
        Variant::CpuFree,
        Variant::CpuFreePerks,
        Variant::BaselineNvshmem,
        Variant::BaselineCopy,
    ];
    rng.shuffle(&mut variants);
    let mut presets = TopologyKind::node_presets().to_vec();
    rng.shuffle(&mut presets);
    // Two orthogonal Latin squares over (quarter q, block b).
    let variant = |q: usize, b: usize| variants[(q + b) % variants.len()];
    let preset = |q: usize, b: usize| presets[(2 * q + b) % presets.len()];
    let mut out = Vec::new();
    for b in 0..4 {
        let mut block = Vec::new();
        for (q, n) in quarter_sizes(rng, decks, "jacobi2d", JACOBI2D_N)
            .into_iter()
            .enumerate()
        {
            block.push(Op::Jacobi {
                cfg: StencilConfig::square2d(n, NUM_ITERS, NUM_PES).with_topology(preset(q, b)),
                variant: variant(q, b),
            });
        }
        for (q, n) in quarter_sizes(rng, decks, "jacobi3d", JACOBI3D_N)
            .into_iter()
            .enumerate()
        {
            block.push(Op::Jacobi {
                cfg: StencilConfig::cube3d(n, n, n, NUM_ITERS, NUM_PES)
                    .with_topology(preset(q, b + 1)),
                variant: variant(q, b + 1),
            });
        }
        for (q, n) in quarter_sizes(rng, decks, "cg", CG_N)
            .into_iter()
            .enumerate()
        {
            block.push(Op::Cg {
                prob: PoissonProblem::new(n, n, NUM_ITERS, NUM_PES).with_topology(preset(q, b + 2)),
                baseline: (q + b) % 2 == 1,
            });
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// Forty-eight ops, one seeded fault schedule each: two on chaos Jacobi to
/// one on chaos CG. One op is replaced by a degraded-mode case on the same
/// program: the `b`-th of the four (program, `degraded_plans()` plan)
/// pairs, so a list of four blocks covers all sixteen degraded cases
/// across the node presets.
fn fault_block(rng: &mut Rng, decks: &mut Decks, b: usize) -> Vec<Op> {
    let horizon = SimTime::ZERO + us(CHAOS_HORIZON_US);
    let presets = TopologyKind::node_presets();
    let mut block = Vec::new();
    for (workload, n) in [
        (ChaosWorkload::Jacobi, FAULT_JACOBI),
        (ChaosWorkload::Cg, FAULT_CG),
    ] {
        for _ in 0..n {
            block.push(Op::Chaos {
                workload,
                plan: FaultPlan::from_seed(rng.next(), CHAOS_NODES, horizon, CHAOS_ITERS),
                degraded: false,
                twin: presets[decks.deal(rng, "twin", 0, presets.len())],
            });
        }
    }
    let plans = chaos::degraded_plans();
    let case = b % (ChaosWorkload::ALL.len() * plans.len());
    let workload = ChaosWorkload::ALL[case / plans.len()];
    let (first, n) = match workload {
        ChaosWorkload::Jacobi => (0, FAULT_JACOBI),
        ChaosWorkload::Cg => (FAULT_JACOBI, FAULT_CG),
    };
    let i = first + rng.below(n);
    if let Op::Chaos { twin, .. } = block[i] {
        block[i] = Op::Chaos {
            workload,
            plan: plans[case % plans.len()].1.clone(),
            degraded: true,
            twin,
        };
    }
    rng.shuffle(&mut block);
    block
}

/// Eight ops: four DaCe cells at 1, 2, 4 and 8 GPUs (two of them replaying
/// committed ledger cells, two fresh seeded cells) and four put schedules
/// on a seeded cluster fabric, one per traffic mix plus a seeded one. Every
/// seeded choice is dealt from a [`Decks`] deck, so the list's mix of
/// programs, sizes, step counts and fabrics is the same for every seed.
fn static_block(rng: &mut Rng, decks: &mut Decks, b: usize, ledger: &[CostRow]) -> Vec<Op> {
    let presets = TopologyKind::presets();
    let mut block = Vec::new();
    let mut gpus = GPU_COUNTS;
    rng.shuffle(&mut gpus);
    for (j, g) in gpus.into_iter().enumerate() {
        let replay: Vec<usize> = (0..ledger.len()).filter(|&i| ledger[i].gpus == g).collect();
        if (b + j).is_multiple_of(2) && !replay.is_empty() {
            let i = replay[decks.deal(rng, "ledger", g, replay.len())];
            let row = &ledger[i];
            let program = if row.program == "jacobi1d" {
                Program::Jacobi1d
            } else {
                Program::Jacobi2d
            };
            // The cost sweep's sizes (crates/bench/src/cost.rs).
            let (size, tsteps) = match program {
                Program::Jacobi1d => (64, 50),
                Program::Jacobi2d => (8, 5),
            };
            block.push(Op::Dace {
                program,
                block: row.stage == "cpu_free_block",
                gpus: g,
                fabric: presets
                    .iter()
                    .copied()
                    .find(|k| k.name() == row.fabric)
                    .unwrap_or(presets[0]),
                size,
                tsteps,
                ledger: Some(i),
            });
        } else {
            let (program, size) = if decks.deal(rng, "program", g, 2) == 0 {
                (Program::Jacobi1d, 64 << decks.deal(rng, "size1d", g, 8))
            } else {
                (Program::Jacobi2d, 8 << decks.deal(rng, "size2d", g, 6))
            };
            block.push(Op::Dace {
                program,
                block: decks.deal(rng, "block", g, 2) == 0,
                gpus: g,
                fabric: presets[decks.deal(rng, "fabric", g, presets.len())],
                size,
                // One of six ten-step strata of 5..=64.
                tsteps: (5 + 10 * decks.deal(rng, "tsteps", g, 6) + rng.below(10)) as u64,
                ledger: None,
            });
        }
    }
    let clusters = TopologyKind::cluster_presets();
    let mixes = [Mix::Uniform, Mix::HotSpot, Mix::Permutation];
    let seeded = mixes[decks.deal(rng, "mix", 0, mixes.len())];
    for mix in mixes.into_iter().chain([seeded]) {
        block.push(Op::Puts {
            fabric: clusters[decks.deal(rng, "cluster", 0, clusters.len())],
            mix,
            seed: rng.next(),
        });
    }
    rng.shuffle(&mut block);
    block
}

/// Run one op. With a live recorder, also make the traced run's twin and
/// re-timed calls (spans marked extra) and record the layer samples.
pub fn exec(op: &Op, inp: &Inputs, rec: &mut Recorder) -> Outcome {
    match op {
        Op::Stencil(cell) => {
            rec.begin("run");
            let ex = cell.variant.run(&cell.cfg);
            let run = rec.end();
            trace_samples(rec, &ex, run, cell.cfg.iterations);
            Outcome::Stencil(FigRow {
                total_ns: ex.total.as_nanos(),
                per_iter_ns: ex.stats.per_iter.as_nanos(),
                comm_ns: ex.stats.comm_busy.as_nanos(),
                sync_ns: ex.stats.sync_busy.as_nanos(),
                exposed_comm_ns: ex.stats.exposed_comm.as_nanos(),
                overlap: format!("{:.6}", ex.stats.comm_overlap_ratio),
            })
        }
        Op::Jacobi { cfg, variant } => {
            rec.begin("run");
            let ex = variant.run(cfg);
            let run = rec.end();
            trace_samples(rec, &ex, run, cfg.iterations);
            if rec.on() {
                rec.begin_extra("twin");
                variant.run(&cfg.clone().timing_only());
                let twin = rec.end();
                arith_samples(rec, run, twin);
            }
            Outcome::Jacobi(ex.max_err)
        }
        Op::Cg { prob, baseline } => {
            let solve = |exec| {
                if *baseline {
                    cpufree_solvers::run_baseline(prob, exec)
                } else {
                    cpufree_solvers::run_cpu_free(prob, exec)
                }
            };
            rec.begin("run");
            let r = solve(ExecMode::Full);
            let run = rec.end();
            if rec.on() {
                rec.begin_extra("twin");
                solve(ExecMode::TimingOnly);
                let twin = rec.end();
                arith_samples(rec, run, twin);
            }
            Outcome::Cg {
                order: r.order,
                x_digest: digest(r.x_owned.iter().map(Vec::as_slice)),
                rho_bits: r.final_rho.to_bits(),
            }
        }
        Op::Chaos {
            workload,
            plan,
            degraded,
            twin,
        } => {
            let outcomes = TopologyKind::node_presets().map(|topo| {
                rec.begin("run_schedule");
                let outcome = if *degraded {
                    chaos::run_degraded_schedule(*workload, topo, plan)
                } else {
                    let (_, base) = inp
                        .baselines
                        .iter()
                        .find(|(k, _)| *k == (*workload, topo))
                        .expect("set-up computes a baseline for every cell");
                    chaos::run_schedule(*workload, topo, plan, base)
                };
                rec.end();
                outcome
            });
            if rec.on() {
                hb_twins(rec, *workload, *twin);
            }
            let shown = outcomes
                .iter()
                .find(|o| o.is_violation())
                .unwrap_or(&outcomes[0]);
            Outcome::Chaos {
                label: shown.label(),
                violation: shown.is_violation(),
            }
        }
        Op::Dace {
            program,
            block,
            gpus,
            fabric,
            size,
            tsteps,
            ..
        } => {
            rec.begin("build");
            let (frontend, user) = dace_frontend(*program, *size, *tsteps, *gpus);
            rec.end();
            rec.begin("transform");
            let sdfg = dace_transform(frontend, *block);
            let transform = rec.end();
            let sdfg = match sdfg {
                Ok(s) => s,
                Err(e) => return Outcome::Failed(format!("transform: {e}")),
            };
            rec.begin("verify");
            let clean = verify_sdfg(&sdfg, *gpus, &user).clean();
            let verify = rec.end();
            rec.begin("predict");
            let report = predict_cost(&sdfg, *gpus, &user, *fabric);
            let predict = rec.end();
            let report = match report {
                Ok(r) => r,
                Err(e) => return Outcome::Failed(format!("predict_cost: {e}")),
            };
            rec.set("dace.transform_us", transform.as_secs_f64() * 1e6);
            rec.set("dace.verify_ms", verify.as_secs_f64() * 1e3);
            rec.set("dace.predict_ms", predict.as_secs_f64() * 1e3);
            rec.set("dace.contended", f64::from(u8::from(report.contended)));
            rec.set(
                "dace.extrapolated",
                f64::from(u8::from(report.extrapolated)),
            );
            Outcome::Dace {
                clean,
                base: report.base.as_nanos(),
                margin: report.margin.as_nanos(),
                total: report.total.as_nanos(),
                contended: report.contended,
                extrapolated: report.extrapolated,
            }
        }
        Op::Puts { fabric, mix, seed } => put_schedule(*fabric, *mix, *seed, rec),
    }
}

fn trace_samples(rec: &mut Recorder, ex: &stencil_lab::Executed, run: Duration, iters: u64) {
    if !rec.on() {
        return;
    }
    let spans = ex.trace.len() as f64;
    rec.set("spans.count", spans);
    rec.set(
        "spans.us_per_span",
        run.as_secs_f64() * 1e6 / spans.max(1.0),
    );
    rec.begin_extra("stats.from_trace");
    std::hint::black_box(RunStats::from_trace(&ex.trace, ex.total, iters));
    let stats = rec.end();
    rec.set("from_trace.us", stats.as_secs_f64() * 1e6);
}

fn arith_samples(rec: &mut Recorder, full: Duration, twin: Duration) {
    let arith = full.as_secs_f64() - twin.as_secs_f64();
    rec.set("arith.ms", arith * 1e3);
    rec.set("arith.share", arith / full.as_secs_f64());
}

/// The op's fault-free twin with and without the happens-before checker.
fn hb_twins(rec: &mut Recorder, workload: ChaosWorkload, topo: TopologyKind) {
    let run = |check: bool| match workload {
        ChaosWorkload::Jacobi => {
            let mut cfg = chaos::jacobi_config(topo);
            cfg.check = check;
            stencil_lab::run_cpu_free_ft(&FtConfig::new(cfg, FaultPlan::new()))
                .ok()
                .and_then(|ex| ex.exec.check)
        }
        ChaosWorkload::Cg => {
            let mut prob = chaos::cg_problem(topo);
            prob.check = check;
            cpufree_solvers::run_cpu_free_ft(
                &CgFtConfig::new(prob, FaultPlan::new()),
                ExecMode::Full,
            )
            .ok()
            .and_then(|ex| ex.result.check)
        }
    };
    rec.begin_extra("twin.checked");
    let report = run(true);
    let checked = rec.end();
    rec.begin_extra("twin.unchecked");
    run(false);
    let unchecked = rec.end();
    let (events, accesses) = report.map_or((0, 0), |r| (r.events, r.accesses));
    rec.set("hb.events", events as f64);
    rec.set("hb.accesses", accesses as f64);
    rec.set(
        "hb.overhead_ms",
        (checked.as_secs_f64() - unchecked.as_secs_f64()) * 1e3,
    );
}

fn dace_frontend(program: Program, size: usize, tsteps: u64, gpus: usize) -> (Sdfg, Bindings) {
    match program {
        Program::Jacobi1d => {
            let s = Jacobi1dSetup::new(size, tsteps, gpus);
            (s.sdfg.clone(), s.user_bindings())
        }
        Program::Jacobi2d => {
            let s = Jacobi2dSetup::new(size, size, tsteps, gpus);
            (s.sdfg.clone(), s.user_bindings())
        }
    }
}

/// The two persistent pipelines of the cost sweep (`cpu_free` and
/// `cpu_free_block`).
fn dace_transform(mut sdfg: Sdfg, block: bool) -> Result<Sdfg, String> {
    if block {
        gpu_transform(&mut sdfg);
        mpi_to_nvshmem_with(&mut sdfg, PutGranularity::Block).map_err(|e| e.to_string())?;
        nvshmem_array(&mut sdfg);
        gpu_persistent_kernel(&mut sdfg).map_err(|e| e.to_string())?;
    } else {
        to_cpu_free(&mut sdfg).map_err(|e| e.to_string())?;
    }
    Ok(sdfg)
}

/// Charge one seeded schedule of puts through the reserving transport and
/// again through the side-effect-free link-clock mirror, at per-GPU
/// virtual clocks, on a fabric at full capacity.
fn put_schedule(fabric: TopologyKind, mix: Mix, seed: u64, rec: &mut Recorder) -> Outcome {
    let cost = CostModel::a100_hgx();
    let n = fabric.capacity().unwrap_or(8);
    rec.begin("topology");
    let topo = Topology::build(fabric, n, &cost);
    let transport = Transport::new(topo.clone(), cost);
    rec.end();

    let mut rng = Rng::new(seed, 0);
    let hot = rng.below(n);
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let puts: Vec<(usize, usize, u64)> = (0..PUTS)
        .map(|i| {
            let (src, dst) = match mix {
                Mix::Uniform => {
                    let s = rng.below(n);
                    (s, (s + 1 + rng.below(n - 1)) % n)
                }
                Mix::HotSpot if i % 2 == 0 => ((hot + 1 + rng.below(n - 1)) % n, hot),
                Mix::HotSpot => {
                    let s = rng.below(n);
                    (s, (s + 1 + rng.below(n - 1)) % n)
                }
                Mix::Permutation => {
                    let s = i % n;
                    let d = perm[s];
                    (s, if d == s { (s + 1) % n } else { d })
                }
            };
            let k = rng.below(14);
            let bytes = (1024u64 << k) + (rng.next() % (1024u64 << k));
            (src, dst, bytes)
        })
        .collect();

    let mut clock = vec![SimTime::ZERO; n];
    let mut via_transport = FNV;
    rec.begin("transport.charge");
    for &(s, d, bytes) in &puts {
        let dur = transport.charge(
            Endpoint::Dev(DevId(s)),
            Endpoint::Dev(DevId(d)),
            bytes,
            clock[s],
        );
        clock[s] += dur;
        via_transport = fold(via_transport, dur.as_nanos());
    }
    let t_transport = rec.end();

    let mut mirror = topo.clocks();
    clock.fill(SimTime::ZERO);
    let mut via_mirror = FNV;
    rec.begin("linkclocks.charge");
    for &(s, d, bytes) in &puts {
        let dur = mirror.charge_dev(&topo, s, d, bytes, clock[s], 1.0);
        clock[s] += dur;
        via_mirror = fold(via_mirror, dur.as_nanos());
    }
    let t_mirror = rec.end();

    let hops: usize = puts
        .iter()
        .map(|&(s, d, _)| topo.route_links(s, d).len())
        .sum();
    let stats: Vec<_> = topo.links().iter().map(|l| l.stats()).collect();
    let per_charge = |d: Duration| d.as_secs_f64() * 1e9 / puts.len() as f64;
    rec.set("transport.ns_per_charge", per_charge(t_transport));
    rec.set("transport.mirror_ns_per_charge", per_charge(t_mirror));
    let queued: u64 = stats.iter().map(|s| s.queued.as_nanos()).sum();
    let busy: u64 = stats.iter().map(|s| s.busy.as_nanos()).sum();
    rec.set("transport.queued_per_busy", queued as f64 / busy as f64);
    Outcome::Puts {
        transport: via_transport,
        mirror: via_mirror,
        reservations: stats.iter().map(|s| s.reservations).sum(),
        hops: hops as u64,
    }
}

const FNV: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// Order-sensitive digest of the bits of a sequence of f64 slices.
fn digest<'a>(parts: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    parts
        .into_iter()
        .flatten()
        .fold(FNV, |h, x| fold(h, x.to_bits()))
}

/// Check one op's outcome against its oracle (everything but the deferred
/// full simulations of [`check_all`]).
fn check(op: &Op, out: &Outcome, inp: &Inputs, cg_refs: &mut CgRefs) -> Result<(), String> {
    match (op, out) {
        (_, Outcome::Failed(e)) => Err(e.clone()),
        (Op::Stencil(cell), Outcome::Stencil(got)) => {
            let key = cell.key();
            match inp.figures.get(&key) {
                Some(want) if want == got => Ok(()),
                Some(want) => Err(format!("{key:?}: got {got:?}, committed {want:?}")),
                None => Err(format!("{key:?}: no committed row")),
            }
        }
        (Op::Jacobi { .. }, Outcome::Jacobi(err)) => match err {
            Some(e) if *e == 0.0 => Ok(()),
            other => Err(format!("jacobi max_err {other:?}, expected Some(0.0)")),
        },
        (
            Op::Cg { prob, .. },
            Outcome::Cg {
                order,
                x_digest,
                rho_bits,
            },
        ) => {
            let want = cg_refs.get(prob, *order);
            if want == (*x_digest, *rho_bits) {
                Ok(())
            } else {
                Err(format!(
                    "cg {}x{}: result differs from the sequential reference",
                    prob.nx, prob.ny
                ))
            }
        }
        (Op::Chaos { .. }, Outcome::Chaos { label, violation }) => {
            if *violation {
                Err(format!("chaos outcome {label}"))
            } else {
                Ok(())
            }
        }
        (
            Op::Dace { ledger, .. },
            Outcome::Dace {
                clean,
                base,
                margin,
                total,
                contended,
                extrapolated,
            },
        ) => {
            if !clean {
                return Err("verify_sdfg reported diagnostics".into());
            }
            if *total != base + margin || (!contended && *margin != 0) {
                return Err(format!(
                    "inconsistent report: total {total} base {base} margin {margin}"
                ));
            }
            match ledger.map(|i| &inp.ledger[i]) {
                Some(row)
                    if (row.base_ns, row.margin_ns, row.predicted_ns)
                        != (*base, *margin, *total)
                        || (row.contended, row.extrapolated) != (*contended, *extrapolated) =>
                {
                    Err(format!(
                        "{}/{} @{} on {}: predicted base {base} margin {margin}, ledger {row:?}",
                        row.program, row.stage, row.gpus, row.fabric
                    ))
                }
                _ => Ok(()),
            }
        }
        (
            Op::Puts { .. },
            Outcome::Puts {
                transport,
                mirror,
                reservations,
                hops,
            },
        ) => {
            if transport != mirror {
                Err("Transport::charge and LinkClocks::charge_dev durations differ".into())
            } else if reservations != hops {
                Err(format!(
                    "{reservations} link reservations for {hops} route hops"
                ))
            } else {
                Ok(())
            }
        }
        _ => Err("outcome does not match its op".into()),
    }
}

/// `(nx, ny, iterations, PEs, doubling order)` of a CG problem.
type CgKey = (usize, usize, u64, usize, bool);

/// Sequential CG references (x digest, rho bits), computed once per
/// distinct problem.
#[derive(Default)]
struct CgRefs(HashMap<CgKey, (u64, u64)>);

impl CgRefs {
    fn get(&mut self, prob: &PoissonProblem, order: ReduceOrder) -> (u64, u64) {
        let key = (
            prob.nx,
            prob.ny,
            prob.iterations,
            prob.n_pes,
            order == ReduceOrder::Doubling,
        );
        *self.0.entry(key).or_insert_with(|| {
            let (x, rho) = prob.reference_cg(order);
            let slab = prob.slab();
            let owned = (0..prob.n_pes).map(|pe| {
                let first = (slab.start(pe) + 1) * prob.nx;
                &x[first..first + slab.layers(pe) * prob.nx]
            });
            (digest(owned), rho.to_bits())
        })
    }
}

/// Check every outcome; for the first [`DES_CHECKED_CELLS`] fresh DaCe
/// cells, also simulate the cell and require the predicted base to equal
/// the simulated virtual time exactly.
pub fn check_all<'a>(
    results: impl IntoIterator<Item = (usize, &'a Outcome)>,
    inp: &Inputs,
) -> Vec<Result<(), String>> {
    let mut cg_refs = CgRefs::default();
    let mut simulated = 0;
    results
        .into_iter()
        .map(|(i, out)| {
            let op = &inp.ops[i];
            check(op, out, inp, &mut cg_refs)?;
            if let (
                Op::Dace {
                    program,
                    block,
                    gpus,
                    fabric,
                    size,
                    tsteps,
                    ledger: None,
                },
                Outcome::Dace { base, .. },
            ) = (op, out)
            {
                if simulated < DES_CHECKED_CELLS {
                    simulated += 1;
                    let (frontend, user) = dace_frontend(*program, *size, *tsteps, *gpus);
                    let sdfg = dace_transform(frontend, *block)?;
                    let sim = dace_sim::lower::run_persistent_on(
                        &sdfg,
                        *gpus,
                        &user,
                        *tsteps,
                        *fabric,
                        ExecMode::TimingOnly,
                        &|_, _| vec![],
                    )
                    .map_err(|e| e.to_string())?
                    .total
                    .as_nanos();
                    if sim != *base {
                        return Err(format!(
                            "{program:?} @{gpus} on {}: predicted base {base} ns, simulated {sim} ns",
                            fabric.name()
                        ));
                    }
                }
            }
            Ok(())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{cost_oracle, figures_oracle};
    use crate::repo_file;

    fn ledger() -> Vec<CostRow> {
        cost_oracle(&repo_file("BENCH_cost.json")).unwrap()
    }

    fn fingerprint(ops: &[Op]) -> String {
        format!("{ops:?}")
    }

    #[test]
    fn op_lists_are_seeded_and_long_enough() {
        let ledger = ledger();
        for w in Workload::ALL {
            let a = ops(w, 7, &ledger);
            assert!(a.len() >= 100, "{}: {} ops", w.name(), a.len());
            assert_eq!(
                fingerprint(&a),
                fingerprint(&ops(w, 7, &ledger)),
                "{}",
                w.name()
            );
            assert_ne!(
                fingerprint(&a),
                fingerprint(&ops(w, 8, &ledger)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn stencil_ops_cover_every_committed_row_once() {
        let fig = figures_oracle(&repo_file("BENCH_figures.json")).unwrap();
        let keys: Vec<FigKey> = ops(Workload::StencilTiming, 3, &[])
            .iter()
            .map(|op| match op {
                Op::Stencil(c) => c.key(),
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        let unique: std::collections::BTreeSet<&FigKey> = keys.iter().collect();
        assert_eq!(keys.len(), 144);
        assert_eq!(unique.len(), 144, "a row is run twice");
        assert!(
            unique.into_iter().eq(fig.keys()),
            "op list and oracle differ"
        );
    }

    #[test]
    fn numerics_cycles_are_balanced() {
        let ops = ops(Workload::NumericsFull, 5, &[]);
        assert_eq!(ops.len(), 48 * NUMERICS_CYCLES);
        let quarter = |n: usize, (lo, hi): (usize, usize)| (n - lo) / ((hi - lo + 1) / 4);
        for cycle in ops.chunks(48) {
            // Jacobi: (3D?, quarter) x variant, (3D?, quarter) x preset and
            // variant x preset each occur exactly once per dimension.
            let mut seen = std::collections::BTreeSet::new();
            let mut cg = std::collections::BTreeMap::new();
            for op in cycle {
                match op {
                    Op::Jacobi { cfg, variant } => {
                        let d3 = cfg.nz > 1;
                        let q = quarter(cfg.nx, if d3 { JACOBI3D_N } else { JACOBI2D_N });
                        let (v, t) = (variant.label(), cfg.topology.expect("seeded preset").name());
                        assert!(seen.insert((d3, "qv", q.to_string(), v.to_string())));
                        assert!(seen.insert((d3, "qt", q.to_string(), t.clone())));
                        assert!(seen.insert((d3, "vt", v.to_string(), t)));
                    }
                    Op::Cg { prob, baseline } => {
                        let q = quarter(prob.nx, CG_N);
                        *cg.entry((q, *baseline)).or_insert(0) += 1;
                    }
                    other => panic!("unexpected op {other:?}"),
                }
            }
            assert_eq!(seen.len(), 2 * 3 * 16);
            assert_eq!(cg.len(), 8);
            assert!(cg.values().all(|&k| k == 2), "{cg:?}");
        }
    }

    #[test]
    fn fault_list_is_two_jacobi_to_one_cg_with_every_degraded_case() {
        let ops = ops(Workload::FaultSweep, 5, &[]);
        assert_eq!(ops.len(), FAULT_BLOCKS * (FAULT_JACOBI + FAULT_CG));
        let mut programs = BTreeMap::new();
        let mut degraded = std::collections::BTreeSet::new();
        for op in &ops {
            let Op::Chaos {
                workload,
                plan,
                degraded: d,
                ..
            } = op
            else {
                panic!("unexpected op {op:?}");
            };
            *programs.entry(workload.name()).or_insert(0) += 1;
            if *d {
                degraded.insert((workload.name(), format!("{plan:?}")));
            }
        }
        assert_eq!(programs["jacobi"], FAULT_BLOCKS * FAULT_JACOBI);
        assert_eq!(programs["cg"], FAULT_BLOCKS * FAULT_CG);
        assert_eq!(degraded.len(), 4, "{degraded:?}");
    }

    #[test]
    fn decks_deal_every_card_once_per_round() {
        let mut rng = Rng::new(3, 4);
        let mut decks = Decks::default();
        let mut rounds = Vec::new();
        for _ in 0..4 {
            let mut round: Vec<usize> = (0..7).map(|_| decks.deal(&mut rng, "a", 1, 7)).collect();
            // A deck with another key is dealt independently.
            decks.deal(&mut rng, "a", 2, 3);
            rounds.push(round.clone());
            round.sort();
            assert_eq!(round, (0..7).collect::<Vec<_>>());
        }
        assert!(
            rounds.windows(2).any(|w| w[0] != w[1]),
            "rounds are reshuffled"
        );
    }

    #[test]
    fn quarter_sizes_cover_every_slice_of_each_quarter_once_per_list() {
        let (mut rng, mut decks) = (Rng::new(1, 2), Decks::default());
        // 4 quarters of 48, each cut into 12 slices of 4.
        let range = (10, 201);
        let mut slices = std::collections::BTreeSet::new();
        for _ in 0..4 * NUMERICS_CYCLES {
            let sizes = quarter_sizes(&mut rng, &mut decks, "t", range);
            for (q, n) in sizes.into_iter().enumerate() {
                assert!(
                    (10 + 48 * q..58 + 48 * q).contains(&n),
                    "{n} not in quarter {q}"
                );
                assert!(slices.insert((n - 10) / 4), "slice of {n} dealt twice");
            }
        }
        assert_eq!(slices.len(), 48);
    }

    #[test]
    fn a_perturbed_oracle_value_is_a_failure() {
        let mut fig = figures_oracle(&repo_file("BENCH_figures.json")).unwrap();
        let cell = stencil_cells().remove(0);
        let row = fig[&cell.key()].clone();
        let inp = |figures| Inputs {
            workload: Workload::StencilTiming,
            ops: vec![Op::Stencil(cell.clone()); 3],
            figures,
            ledger: Vec::new(),
            baselines: Vec::new(),
        };
        let outcomes = [
            Outcome::Stencil(row.clone()),
            Outcome::Stencil(row.clone()),
            Outcome::Failed("panicked".into()),
        ];
        let verdicts = check_all(outcomes.iter().enumerate(), &inp(fig.clone()));
        assert_eq!(verdicts.iter().filter(|v| v.is_err()).count(), 1);
        fig.get_mut(&cell.key()).unwrap().total_ns += 1;
        let verdicts = check_all(outcomes.iter().enumerate(), &inp(fig));
        assert_eq!(verdicts.iter().filter(|v| v.is_err()).count(), 3);
    }
}
