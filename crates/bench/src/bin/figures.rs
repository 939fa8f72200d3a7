//! Regenerate the paper's figures as text tables.
//!
//! ```text
//! cargo run -p cpufree-bench --release --bin figures            # everything
//! cargo run -p cpufree-bench --release --bin figures -- fig6_1  # one figure
//! cargo run -p cpufree-bench --release --bin figures -- --json  # + BENCH_*.json
//! ```
//!
//! With `--json`, every point-based figure also lands in a
//! `BENCH_<figure>.json` file in the working directory (plain arrays of
//! objects, times in nanoseconds) for external plotting.

#![forbid(unsafe_code)]

use cpufree_bench::*;
use sim_des::json::{self, Json};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Set once in `main` when `--json` is passed.
static JSON: AtomicBool = AtomicBool::new(false);

/// Every `(figure, rows)` written this run, in emission order — folded
/// into the aggregate `BENCH_figures.json` at the end of a full `--json` run.
static COLLECTED: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());

fn points_json(rows: &[Point]) -> Json {
    rows.iter()
        .map(|p| {
            Json::obj([
                ("series", p.series.as_str().into()),
                ("gpus", p.gpus.into()),
                ("per_iter_ns", p.per_iter.as_nanos().into()),
                ("comm_ns", p.comm.as_nanos().into()),
                ("sync_ns", p.sync.as_nanos().into()),
                ("exposed_comm_ns", p.exposed_comm.as_nanos().into()),
                ("overlap", Json::fixed(p.overlap, 6)),
                ("total_ns", p.total.as_nanos().into()),
            ])
        })
        .collect()
}

fn dace_json(rows: &[DacePoint]) -> Json {
    rows.iter()
        .map(|p| {
            Json::obj([
                ("gpus", p.gpus.into()),
                ("baseline_total_ns", p.baseline_total.as_nanos().into()),
                ("baseline_comm_ns", p.baseline_comm.as_nanos().into()),
                ("cpufree_total_ns", p.cpufree_total.as_nanos().into()),
                ("cpufree_comm_ns", p.cpufree_comm.as_nanos().into()),
                ("improvement_pct", Json::fixed(p.improvement_pct, 3)),
                (
                    "comm_improvement_pct",
                    Json::fixed(p.comm_improvement_pct, 3),
                ),
            ])
        })
        .collect()
}

fn topo_json(rows: &[TopoRow]) -> Json {
    rows.iter()
        .map(|r| {
            Json::obj([
                ("topology", r.topology.as_str().into()),
                ("pairs", r.pairs.into()),
                ("per_transfer_ns", r.per_transfer.as_nanos().into()),
                ("makespan_ns", r.makespan.as_nanos().into()),
            ])
        })
        .collect()
}

fn write_json(name: &str, body: Json) {
    if !JSON.load(Ordering::Relaxed) {
        return;
    }
    // Figure labels carry spaces and `/` (e.g. "weak scaling 256^3/GPU");
    // flatten to a filesystem- and JSON-key-safe slug.
    let slug: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = format!("BENCH_{slug}.json");
    std::fs::write(&path, json::write(&body)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("[wrote {path}]");
    COLLECTED.lock().unwrap().push((slug, body));
}

/// Fold every figure emitted this run into one `BENCH_figures.json` keyed by
/// figure slug. All embedded data is virtual-time (nanoseconds from the
/// deterministic engine), so regenerating the file is byte-identical — CI
/// diffs it against the committed copy.
fn write_aggregate_json() {
    let collected = std::mem::take(&mut *COLLECTED.lock().unwrap());
    let path = "BENCH_figures.json";
    std::fs::write(path, json::write(&Json::Obj(collected)))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("[wrote {path}]");
}

fn print_points(rows: &[Point]) {
    println!(
        "{:<24} {:>5} {:>14} {:>14} {:>14} {:>14} {:>9}",
        "variant", "gpus", "per-iter", "comm", "sync", "exposed-comm", "overlap%"
    );
    for p in rows {
        println!(
            "{:<24} {:>5} {:>14} {:>14} {:>14} {:>14} {:>8.1}%",
            p.series,
            p.gpus,
            format!("{}", p.per_iter),
            format!("{}", p.comm),
            format!("{}", p.sync),
            format!("{}", p.exposed_comm),
            p.overlap * 100.0
        );
    }
}

fn print_speedups(rows: &[Point], ours: &str, baselines: &[&str]) {
    println!("\nspeedups of `{ours}` at each GPU count (paper formula):");
    let gpus: Vec<usize> = {
        let mut g: Vec<usize> = rows.iter().map(|p| p.gpus).collect();
        g.sort_unstable();
        g.dedup();
        g
    };
    for g in gpus {
        let our = rows
            .iter()
            .find(|p| p.gpus == g && p.series == ours)
            .expect("missing our series");
        let mut parts = Vec::new();
        for b in baselines {
            if let Some(base) = rows.iter().find(|p| p.gpus == g && p.series == *b) {
                parts.push(format!(
                    "{:.1}% vs {}",
                    speedup_pct(base.per_iter, our.per_iter),
                    b
                ));
            }
        }
        println!("  {g} GPUs: {}", parts.join(", "));
    }
}

fn fig2_1() {
    println!("== Fig 2.1b — activity timeline, CPU-controlled vs CPU-Free ==");
    println!("{}", fig2_1_timeline(4, 100));
}

fn fig2_2() {
    println!("== Fig 2.2a — pure communication+synchronization overhead (no compute) ==");
    let rows = fig2_2a();
    print_points(&rows);
    write_json("fig2_2a", points_json(&rows));
    print_speedups(&rows, "CPU-Free", &["Baseline Copy Overlap"]);

    println!("\n== Fig 2.2b — communication overlap ratio and total time (small domain) ==");
    let rows = fig2_2b();
    print_points(&rows);
    write_json("fig2_2b", points_json(&rows));
    for p in rows.iter().filter(|p| p.gpus == 8) {
        let comm_frac = (p.comm + p.sync).as_nanos() as f64 / p.total.as_nanos() as f64 * 100.0
            / GPU_COUNTS.len() as f64
            * GPU_COUNTS.len() as f64;
        println!(
            "  {}: comm+sync = {:.0}% of execution, {:.0}% overlapped",
            p.series,
            comm_frac.min(100.0 * p.gpus as f64),
            p.overlap * 100.0
        );
    }
}

fn fig5_1() {
    println!("== Fig 5.1b — DaCe MPI Jacobi 2D communication profile ==");
    println!("{}", fig5_1_timeline(4));
}

fn fig6_1_print() {
    println!("== Fig 6.1 — 2D Jacobi weak scaling (per-iteration time) ==");
    for (label, rows) in fig6_1() {
        println!("\n-- domain {label} --");
        print_points(&rows);
        write_json(&format!("fig6_1_{label}"), points_json(&rows));
        print_speedups(
            &rows,
            "CPU-Free",
            &["Baseline NVSHMEM", "Baseline Copy Overlap"],
        );
        if label.starts_with("large") {
            print_speedups(&rows, "CPU-Free (PERKS)", &["Baseline NVSHMEM", "CPU-Free"]);
        }
    }
}

fn fig6_2_print() {
    println!("== Fig 6.2 — 3D Jacobi weak + strong scaling ==");
    for (label, rows) in fig6_2() {
        println!("\n-- {label} --");
        print_points(&rows);
        write_json(&format!("fig6_2_{label}"), points_json(&rows));
        print_speedups(
            &rows,
            "CPU-Free",
            &["Baseline NVSHMEM", "Baseline Copy Overlap"],
        );
    }
}

fn print_dace(rows: &[DacePoint]) {
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "gpus", "base total", "base comm", "free total", "free comm", "improve%", "comm-impr%"
    );
    for p in rows {
        println!(
            "{:>5} {:>14} {:>14} {:>14} {:>14} {:>11.1}% {:>11.1}%",
            p.gpus,
            format!("{}", p.baseline_total),
            format!("{}", p.baseline_comm),
            format!("{}", p.cpufree_total),
            format!("{}", p.cpufree_comm),
            p.improvement_pct,
            p.comm_improvement_pct
        );
    }
}

fn fig6_3_print() {
    println!("== Fig 6.3a — DaCe Jacobi 1D: MPI baseline vs CPU-Free ==");
    let a = fig6_3a();
    print_dace(&a);
    write_json("fig6_3a", dace_json(&a));
    println!("\n== Fig 6.3b — DaCe Jacobi 2D: MPI baseline vs CPU-Free ==");
    let b = fig6_3b();
    print_dace(&b);
    write_json("fig6_3b", dace_json(&b));
}

fn ablations() {
    println!("== Ablation — §4.1.2 proportional TB split vs fixed split (flat 3D domain) ==");
    print_points(&ablation_tb_split());
    println!("\n== Ablation — single persistent kernel vs dual co-resident kernels ==");
    print_points(&ablation_dual_kernel());
    println!("\n== Ablation — §5.3.2 put granularity: single-thread vs block-cooperative ==");
    println!(
        "{:<26} {:>14} {:>14} {:>9}",
        "workload", "thread", "block", "gain"
    );
    for (label, thread, block) in ablation_put_granularity() {
        println!(
            "{:<26} {:>14} {:>14} {:>8.1}%",
            label,
            format!("{}", thread),
            format!("{}", block),
            speedup_pct(thread, block)
        );
    }
}

fn sensitivity() {
    println!("== Sensitivity — NVLink vs PCIe-only interconnect (small 2D, 8 GPUs) ==");
    let rows = sensitivity_interconnect();
    print_points(&rows);
    write_json("sensitivity", points_json(&rows));
    println!("(the CPU-Free advantage persists on slow links: it is a control-path effect)");
}

fn topo(jobs: usize) {
    println!("== Topology — shared-hop contention under concurrent cross-partition puts ==");
    let rows = topo_contention_jobs(jobs);
    println!(
        "{:<20} {:>6} {:>14} {:>14} {:>9}",
        "topology", "pairs", "per-transfer", "makespan", "slowdown"
    );
    for r in &rows {
        let base = rows
            .iter()
            .find(|b| b.topology == r.topology && b.pairs == 1)
            .expect("pairs=1 row");
        let slowdown = r.makespan.as_nanos() as f64 / base.makespan.as_nanos() as f64;
        println!(
            "{:<20} {:>6} {:>14} {:>14} {:>8.2}x",
            r.topology,
            r.pairs,
            format!("{}", r.per_transfer),
            format!("{}", r.makespan),
            slowdown
        );
    }
    write_json("topo", topo_json(&rows));
    println!("(dedicated links stay flat; shared hops — PCIe bridges, ring arcs, the");
    println!(" two-node NIC — queue concurrent pairs and stretch the makespan)");
}

fn breakdown() {
    println!("== Overhead anatomy — small 2D domain, 8 GPUs, no compute (per iteration) ==");
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "variant", "per-iter", "launch", "api", "sync", "comm"
    );
    for r in overhead_breakdown() {
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>12} {:>12}",
            r.series,
            format!("{}", r.per_iter),
            format!("{}", r.launch),
            format!("{}", r.api),
            format!("{}", r.sync),
            format!("{}", r.comm),
        );
    }
    println!("(launch/api are raw sums over all ranks; sync/comm are trace-union times)");
}

fn cg() {
    println!("== Extension — distributed Conjugate Gradient (CPU-Free vs CPU-controlled) ==");
    let rows = cg_comparison();
    print_dace(&rows);
    write_json("cg", dace_json(&rows));
}

fn faults_json(rows: &[FaultRow]) -> Json {
    rows.iter()
        .map(|r| {
            Json::obj([
                ("workload", r.workload.as_str().into()),
                ("scenario", r.scenario.as_str().into()),
                ("total_ns", r.total.as_nanos().into()),
                ("overhead_pct", Json::fixed(r.overhead_pct, 3)),
                ("rollbacks", r.rollbacks.into()),
                ("retries", r.retries.into()),
                ("bit_identical", r.bit_identical.into()),
            ])
        })
        .collect()
}

fn degraded_json(rows: &[chaos::DegradedRow]) -> Json {
    rows.iter()
        .map(|r| {
            Json::obj([
                ("workload", r.workload.name().into()),
                ("topology", r.topology.name().into()),
                ("plan", r.plan.into()),
                ("total_ns", r.total.as_nanos().into()),
                ("quorum", r.quorum.iter().map(|&q| Json::from(q)).collect()),
                ("retries", r.retries.into()),
                ("result_bits", format!("{:#018x}", r.result_bits).into()),
            ])
        })
        .collect()
}

fn faults() {
    println!("== Robustness — fault-injected CPU-Free runs: recovery overhead ==");
    println!(
        "{:<8} {:<22} {:>14} {:>10} {:>9} {:>8} {:>13}",
        "workload", "scenario", "total", "overhead", "rollbacks", "retries", "bit-identical"
    );
    let rows = fault_recovery_overhead();
    for r in &rows {
        println!(
            "{:<8} {:<22} {:>14} {:>9.1}% {:>9} {:>8} {:>13}",
            r.workload,
            r.scenario,
            r.total.to_string(),
            r.overhead_pct,
            r.rollbacks,
            r.retries,
            r.bit_identical
        );
    }
    println!("(every recovered run reproduces the fault-free result bit for bit;");
    println!(" overhead is virtual time vs. the fault-free fault-tolerant run)");
    write_json("faults", faults_json(&rows));
}

fn degraded() {
    println!("== Robustness — degraded-mode runs: surviving quorum completes ==");
    println!(
        "{:<8} {:<20} {:<18} {:>14} {:<14} {:>8} {:>20}",
        "workload", "topology", "plan", "total", "quorum", "retries", "result bits"
    );
    let rows = chaos::degraded_rows();
    for r in &rows {
        println!(
            "{:<8} {:<20} {:<18} {:>14} {:<14} {:>8} {:>#20x}",
            r.workload.name(),
            r.topology.name(),
            r.plan,
            r.total.to_string(),
            format!("{:?}", r.quorum),
            r.retries,
            r.result_bits
        );
    }
    println!("(a crashed PE drops out and the quorum finishes; a killed link is rerouted)");
    write_json("degraded", degraded_json(&rows));
}

/// The checker table; `false` when a row is not clean or its checked run
/// is not bit-identical to the unchecked one.
fn check() -> bool {
    println!("== Correctness tooling — happens-before checker ==");
    println!(
        "{:<28} {:>10} {:>10} {:>7} {:>13}",
        "workload", "hb-events", "accesses", "clean", "bit-identical"
    );
    let mut ok = true;
    for r in check_overhead() {
        ok &= r.clean && r.bit_identical;
        println!(
            "{:<28} {:>10} {:>10} {:>7} {:>13}",
            r.workload, r.events, r.accesses, r.clean, r.bit_identical
        );
    }
    println!("(the checker never charges virtual time: totals and numerics are identical;");
    println!(" `perf`'s hb.overhead_ms_per_op measures its host cost)");
    ok
}

/// `figures chaos [--seeds N]`: run the deterministic chaos engine — the
/// full fault-schedule sweep plus the seeded-violation shrink demo. Writes
/// the byte-deterministic report to `target/chaos_report/report.txt` and a
/// replayable reproducer JSON for the demo and for every violating case,
/// then exits nonzero unless the sweep is clean and the demo reproduced.
fn chaos(seeds: u64, jobs: usize) -> i32 {
    use cpufree_bench::chaos::*;
    // The worker count goes to stderr: stdout must be byte-identical at
    // every `--jobs`, so re-run diffs can't be fooled by the echo.
    eprintln!("[chaos sweep on {jobs} workers]");
    println!("== Deterministic chaos sweep — {seeds} seeds x 4 topologies x 2 workloads ==");
    let report = match chaos_sweep_jobs(seeds, true, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos sweep rejected: {e}");
            return 2;
        }
    };
    let dir = std::path::Path::new("target/chaos_report");
    std::fs::create_dir_all(dir).expect("create target/chaos_report");
    let path = dir.join("report.txt");
    std::fs::write(&path, report.render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));

    // Reproducers: every violating sweep case, plus the demo's injected and
    // minimized plans.
    for case in report.violations() {
        let p = dir.join(format!("repro_{}.json", case.id));
        let doc = reproducer_json(case.workload, case.topology, &case.plan, false);
        std::fs::write(&p, doc).unwrap_or_else(|e| panic!("writing {}: {e}", p.display()));
        println!("[wrote {}]", p.display());
    }
    if let Some(demo) = &report.demo {
        let p = dir.join("repro_seeded_violation.json");
        let doc = reproducer_json(demo.workload, demo.topology, &demo.original, false);
        std::fs::write(&p, doc).unwrap_or_else(|e| panic!("writing {}: {e}", p.display()));
        let p = dir.join("repro_seeded_violation_minimal.json");
        std::fs::write(&p, &demo.reproducer)
            .unwrap_or_else(|e| panic!("writing {}: {e}", p.display()));
        println!("[wrote {}]", p.display());
    }

    // Console summary: the outcome counts and demo section of the report.
    let text = report.render();
    let per_case = text.find("per-case outcomes:").unwrap_or(0);
    let tail = text.find("violations").unwrap_or(text.len());
    print!("{}", &text[..per_case]);
    print!("{}", &text[tail..]);
    println!("[wrote {}]", path.display());

    write_json(
        "chaos",
        Json::obj([
            ("seeds", seeds.into()),
            ("schedules", report.cases.len().into()),
            ("violations", report.violations().len().into()),
            (
                "demo_reproduced",
                report.demo.as_ref().is_some_and(|d| d.reproduced()).into(),
            ),
        ]),
    );
    if report.ok() {
        0
    } else {
        eprintln!("chaos sweep FAILED — see {}", path.display());
        1
    }
}

/// `figures chaos-replay <path>`: re-run one reproducer file under the
/// recovery oracles and print its classification. A path that cannot be
/// read or a reproducer that does not parse exits 2, like any other
/// malformed input.
fn chaos_replay(path: &str) -> i32 {
    use cpufree_bench::chaos::{outcome_line, replay};
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return 2;
        }
    };
    match replay(&doc) {
        Ok((workload, topo, outcome)) => {
            println!(
                "{} @ {} -> {}",
                workload.name(),
                topo.name(),
                outcome_line(&outcome)
            );
            0
        }
        // `replay` fails only on a reproducer it cannot parse.
        Err(e) => {
            eprintln!("replaying {path}: {e}");
            2
        }
    }
}

/// `figures verify`: run the static protocol verifier over every shipped
/// program at every pipeline stage and GPU count. Writes the full report to
/// `target/verify_report/report.txt` and exits nonzero on any diagnostic,
/// so CI can gate on it and keep the report as an artifact.
fn verify(jobs: usize) -> i32 {
    // Worker count on stderr only — stdout stays byte-identical at every
    // `--jobs` (parallelism must be invisible in the report).
    eprintln!("[verify corpus on {jobs} workers]");
    println!("== Static protocol verification — shipped programs, all stages ==");
    let reports = verify_corpus_jobs(jobs);
    let mut dirty = 0usize;
    let mut full = String::new();
    for r in &reports {
        let status = if r.clean() {
            "clean".into()
        } else {
            dirty += 1;
            format!("{} diagnostic(s)", r.diags.len())
        };
        println!("  {:<36} {status}", r.program);
        use std::fmt::Write as _;
        let _ = writeln!(full, "{r}");
    }
    let dir = std::path::Path::new("target/verify_report");
    std::fs::create_dir_all(dir).expect("create target/verify_report");
    let path = dir.join("report.txt");
    std::fs::write(&path, full).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!(
        "\n{} program/stage/gpu-count combinations, {dirty} with diagnostics",
        reports.len()
    );
    println!("[wrote {}]", path.display());
    if dirty > 0 {
        eprintln!("verification FAILED — see {}", path.display());
        1
    } else {
        0
    }
}

/// Without `check`, write `body` to `path`. With `check`, require the
/// committed file to equal it byte for byte instead; the error says what
/// is wrong and how `figures <gate>` regenerates the file.
fn check_or_write(gate: &str, path: &str, body: &str, check: bool) -> Result<(), String> {
    if !check {
        std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("[wrote {path}]");
        return Ok(());
    }
    match std::fs::read_to_string(path) {
        Err(e) => Err(format!("reading {path}: {e}")),
        Ok(committed) if committed == body => {
            println!("[{path} is current]");
            Ok(())
        }
        Ok(_) => Err(format!(
            "{path} is stale: the committed file differs from the regenerated one.\n\
             Regenerate with `cargo run -p cpufree-bench --release --bin figures -- {gate}`."
        )),
    }
}

/// Exit status of a gate: 0, or 1 after printing the error.
fn status(result: Result<(), String>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `figures des_core [--check]`: run the DES-core workloads on `jobs`
/// workers. Without `--check`, writes `BENCH_des_core.json`: virtual end
/// times and event counts, byte-stable across machines and worker counts.
/// With `--check`, requires the committed file to equal the regenerated
/// one byte for byte.
fn des_core(check: bool, jobs: usize) -> i32 {
    println!("== DES core — engine hot-path workloads ==");
    let rows = des_core_rows(jobs);
    println!("{:<28} {:>14} {:>10}", "workload", "virtual end", "events");
    for r in &rows {
        println!("{:<28} {:>12}ns {:>10}", r.name, r.end_ns, r.events);
    }
    let deterministic = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("name", r.name.into()),
                ("end_ns", r.end_ns.into()),
                ("events", r.events.into()),
            ])
        })
        .collect();
    let body = Json::obj([("deterministic", deterministic)]);
    status(check_or_write(
        "des_core",
        "BENCH_des_core.json",
        &json::write(&body),
        check,
    ))
}

/// `figures cost [--check]`: predict every (corpus program × persistent
/// stage × GPU count × topology preset) cell statically and validate it
/// against the timing-only DES run — exact on uncontended fabrics, a
/// never-underestimating ≤10% bound on contended ones. Without `--check`,
/// writes `BENCH_cost.json`. With `--check`, regenerates the sweep and
/// requires the committed ledger to match byte for byte. On any contract
/// violation or stale ledger, the full sweep lands in
/// `target/cost_report/report.txt` for the CI artifact and the exit code
/// is nonzero.
fn cost(check: bool, jobs: usize) -> i32 {
    use std::fmt::Write as _;
    eprintln!("[cost sweep on {jobs} workers]");
    println!("== Static cost prediction vs DES — corpus x presets ==");
    let sweep = cpufree_bench::cost::cost_sweep_jobs(jobs);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<9} {:<15} {:>5} {:<24} {:>13} {:>13} {:>8} {:<5}",
        "program", "stage", "gpus", "fabric", "predicted", "simulated", "err%", "mode"
    );
    for r in &sweep.rows {
        let _ = writeln!(
            table,
            "{:<9} {:<15} {:>5} {:<24} {:>11.2}us {:>11.2}us {:>7.2}% {:<5}",
            r.program,
            r.stage,
            r.gpus,
            r.fabric,
            r.predicted.as_micros_f64(),
            r.simulated.as_micros_f64(),
            r.rel_err * 100.0,
            match (r.contended, r.extrapolated) {
                (true, true) => "C+S",
                (true, false) => "C",
                (false, true) => "S",
                (false, false) => "-",
            }
        );
    }
    print!("{table}");
    println!("(err% is prediction vs simulation; C = contended fabric, S = steady-state shortcut)");

    let mut tops = String::new();
    let _ = writeln!(
        tops,
        "\ntop-3 kernels per preset (jacobi2d/cpu_free @8gpus ledger):"
    );
    for (fabric, report) in &sweep.ledgers {
        let _ = writeln!(tops, "  {fabric}:");
        for k in report.top_kernels(3) {
            let _ = writeln!(
                tops,
                "    {:<28} x{:<6} {:>11.2}us",
                k.label,
                k.count,
                k.busy.as_micros_f64()
            );
        }
    }
    print!("{tops}");

    let violations = sweep.violations();
    let cost = sweep
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("program", r.program.into()),
                ("stage", r.stage.into()),
                ("gpus", r.gpus.into()),
                ("fabric", r.fabric.as_str().into()),
                ("predicted_ns", r.predicted.as_nanos().into()),
                ("base_ns", r.base.as_nanos().into()),
                ("margin_ns", r.margin.as_nanos().into()),
                ("simulated_ns", r.simulated.as_nanos().into()),
                ("rel_err", Json::fixed(r.rel_err, 6)),
                ("contended", r.contended.into()),
                ("extrapolated", r.extrapolated.into()),
            ])
        })
        .collect();
    let body = json::write(&Json::obj([("cost", cost)]));
    let write_report = |extra: &str| {
        let dir = std::path::Path::new("target/cost_report");
        std::fs::create_dir_all(dir).expect("create target/cost_report");
        let path = dir.join("report.txt");
        let mut full = table.clone();
        full.push_str(&tops);
        full.push_str(extra);
        std::fs::write(&path, full).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("[wrote {}]", path.display());
    };
    if !violations.is_empty() {
        let mut extra = String::from("\npredictor contract violations:\n");
        for v in &violations {
            let _ = writeln!(extra, "  {v}");
        }
        write_report(&extra);
        eprintln!(
            "cost sweep FAILED — {} contract violation(s)",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        return 1;
    }
    let result = check_or_write("cost", "BENCH_cost.json", &body, check);
    if let Err(e) = &result {
        write_report(&format!("\n{e}\n"));
    }
    status(result)
}

/// Parse the value of `--<name> N` out of `args`, removing both tokens.
/// A missing flag yields `default`; a present flag with a missing,
/// non-numeric, or (when `reject_zero`) zero value exits 2 — degenerate
/// sweep inputs must fail loudly, not silently fall back.
fn parse_flag(args: &mut Vec<String>, name: &str, default: u64, reject_zero: bool) -> u64 {
    let flag = format!("--{name}");
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return default;
    };
    let value = args.get(i + 1).cloned();
    match value.as_deref().map(str::parse::<u64>) {
        Some(Ok(v)) if !(reject_zero && v == 0) => {
            args.drain(i..=i + 1);
            v
        }
        _ => {
            eprintln!(
                "invalid value for {flag}: {} (expected a positive integer)",
                value.as_deref().unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}

/// The gates: subcommands that run alone and exit with their status, each
/// with the arguments it accepts. `--json` and `--jobs N` are global.
const GATES: &[(&str, &[&str])] = &[
    ("verify", &[]),
    ("chaos", &["--seeds N"]),
    ("chaos-replay", &["<reproducer.json>"]),
    ("des_core", &["--check"]),
    ("cost", &["--check"]),
];

/// Figure sections; name any number of them (none: all of them).
const FIGURES: &[&str] = &[
    "fig2_1",
    "fig2_2",
    "fig2_2a",
    "fig2_2b",
    "fig5_1",
    "fig6_1",
    "fig6_2",
    "fig6_3",
    "fig6_3a",
    "fig6_3b",
    "ablations",
    "cg",
    "faults",
    "degraded",
    "breakdown",
    "sensitivity",
    "topo",
    "check",
];

/// Report a malformed command line and exit 2, before any work is done.
fn usage_error(msg: &str) -> ! {
    let gates: Vec<String> = GATES
        .iter()
        .map(|(gate, flags)| {
            let flags: String = flags
                .iter()
                .map(|f| {
                    if f.starts_with('<') {
                        format!(" {f}")
                    } else {
                        format!(" [{f}]")
                    }
                })
                .collect();
            format!("  figures {gate}{flags}")
        })
        .collect();
    eprintln!(
        "{msg}\nusage: figures [--json] [--jobs N] [FIGURE...]\n{}\nFIGUREs: {}",
        gates.join("\n"),
        FIGURES.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        args.remove(i);
        JSON.store(true, Ordering::Relaxed);
    }
    // Validate the SIM_DES_JOBS override before anything calls
    // `default_jobs()` (which would panic): garbage exits 2 like any other
    // malformed worker-count input.
    if let Err(e) = sim_des::env_jobs() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let jobs = parse_flag(&mut args, "jobs", sim_des::default_jobs() as u64, true) as usize;
    // A gate runs alone and propagates its exit status; everything on the
    // command line besides it must be one of its flags.
    if let Some(&(gate, flags)) = GATES.iter().find(|(g, _)| args.iter().any(|a| a == g)) {
        let takes = |flag: &str| flags.iter().any(|f| f.split(' ').next() == Some(flag));
        let seeds = takes("--seeds").then(|| {
            parse_flag(
                &mut args,
                "seeds",
                cpufree_bench::chaos::DEFAULT_SEED_BUDGET,
                true,
            )
        });
        let check = takes("--check") && args.iter().any(|a| a == "--check");
        args.retain(|a| a != gate && !(check && a == "--check"));
        if gate == "chaos-replay" {
            let [path] = args.as_slice() else {
                usage_error("chaos-replay takes exactly one reproducer path");
            };
            std::process::exit(chaos_replay(path));
        }
        if !args.is_empty() {
            usage_error(&format!(
                "unrecognized argument(s) for {gate}: {}",
                args.join(" ")
            ));
        }
        std::process::exit(match gate {
            "verify" => verify(jobs),
            "chaos" => chaos(seeds.unwrap_or_default(), jobs),
            "des_core" => des_core(check, jobs),
            _ => cost(check, jobs),
        });
    }
    if let Some(stray) = args.iter().find(|a| !FIGURES.contains(&a.as_str())) {
        usage_error(&format!("unknown figure or argument: {stray}"));
    }
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);
    if want("fig2_1") {
        fig2_1();
        println!();
    }
    if want("fig2_2") || want("fig2_2a") || want("fig2_2b") {
        fig2_2();
        println!();
    }
    if want("fig5_1") {
        fig5_1();
        println!();
    }
    if want("fig6_1") {
        fig6_1_print();
        println!();
    }
    if want("fig6_2") {
        fig6_2_print();
        println!();
    }
    if want("fig6_3") || want("fig6_3a") || want("fig6_3b") {
        fig6_3_print();
        println!();
    }
    if want("ablations") {
        ablations();
        println!();
    }
    if want("cg") {
        cg();
        println!();
    }
    if want("faults") {
        faults();
        println!();
    }
    if want("degraded") {
        degraded();
        println!();
    }
    if want("breakdown") {
        breakdown();
        println!();
    }
    if want("sensitivity") {
        sensitivity();
        println!();
    }
    if want("topo") {
        topo(jobs);
        println!();
    }
    let mut check_ok = true;
    if want("check") {
        check_ok = check();
        println!();
    }
    if all && JSON.load(Ordering::Relaxed) {
        write_aggregate_json();
    }
    if !check_ok {
        eprintln!("figures check: a checked run was not clean or not bit-identical");
        std::process::exit(1);
    }
}
