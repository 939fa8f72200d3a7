//! `perf` — seeded wall-clock benchmark of the simulator, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the stencil and static-model oracles are
//! the committed `BENCH_figures.json` and `BENCH_cost.json`. One workload
//! prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). Without `--workload` the binary
//! runs itself once per workload. README.md describes every metric.

mod measure;
mod oracle;
mod work;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gpu_sim::{CostModel, ExecMode, Machine, TopologyKind};
use measure::{
    chrome_json, quantile, self_times, sorted, usage, HostTicks, OpTime, Recorder, Span, Usage,
    Yardstick,
};
use work::{Inputs, Outcome, Workload};

const USAGE: &str =
    "usage: perf [--workload stencil_timing|numerics_full|fault_sweep|static_model] \
     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 7;
/// Ops run after set-up and before the window, not recorded.
const WARMUP_OPS: usize = 2;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// Repetitions of the engine-spawn and machine-build probes.
const PROBE_REPS: usize = 64;
/// A thread issuing ops one at a time reads its CPU's steal counter before
/// an op when this long has passed since its last reading: 100 of its
/// 10 ms ticks. Threads issuing ops side by side read it before every op
/// (see [`steal_mark`]).
const MARK_EVERY: Duration = Duration::from_secs(1);
/// In the timed window a thread runs the [`measure::yardstick`] after an
/// op when this long has passed since it last ran it.
const YARDSTICK_EVERY: Duration = Duration::from_millis(50);
/// An op's speed factor is the median of the yardsticks its thread ran
/// this close to it.
const YARDSTICK_WINDOW: Duration = Duration::from_millis(500);
/// The yardstick's time at speed factor 1: about its median on the
/// reference host (README.md, "Host speed").
const YARDSTICK_NOMINAL: Duration = Duration::from_micros(1800);
/// Yardsticks run before each set-up, whose median scales its time.
const SETUP_YARDSTICKS: usize = 5;

/// A metric as declared in `BENCHMARK.json`.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by the untraced run.
pub const END_TO_END: &[Metric] = &[
    m("ops_per_s", "ops/s"),
    m("op_ms.p50", "ms"),
    m("op_ms.p90", "ms"),
    m("cpu_ms_per_op", "ms"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// Printed by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("des.vcsw_per_op", "count"),
    m("des.ivcsw_per_op", "count"),
    m("des.wait_share", "fraction"),
    m("des.spans_per_op", "count"),
    m("des.host_us_per_span", "us"),
    m("des.spawn_us_per_agent", "us"),
    m("stats.from_trace_us_per_op", "us"),
    m("gpu.arith_ms_per_op", "ms"),
    m("gpu.arith_share", "fraction"),
    m("gpu.machine_new_us", "us"),
    m("mem.page_faults_per_op", "count"),
    m("hb.events_per_op", "count"),
    m("hb.accesses_per_op", "count"),
    m("hb.overhead_ms_per_op", "ms"),
    m("batch.efficiency", "fraction"),
    m("batch.tail_idle_ms", "ms"),
    m("gpu.transport.ns_per_charge", "ns"),
    m("gpu.linkclocks.ns_per_charge", "ns"),
    m("gpu.transport.queued_per_busy", "ratio"),
    m("dace.transform_us_per_op", "us"),
    m("dace.verify_ms_per_op", "ms"),
    m("dace.predict_ms_per_op", "ms"),
    m("dace.contended_share", "fraction"),
    m("dace.extrapolated_share", "fraction"),
    m("host.steal_share", "fraction"),
    m("trace.overhead_share", "fraction"),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds =
                    v.parse().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        format!("--seconds takes a positive whole number, got {v:?}")
                    })?;
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    // The engine runs one agent at a time, so a simulation never uses more
    // than one CPU; on one CPU its agent handoffs are plain context
    // switches instead of cross-CPU wake-ups, whose latency the hypervisor
    // inflates and varies from minute to minute (README.md, "Pinning").
    // The main thread, and every thread it starts, stays on the first
    // allowed CPU; each fault-sweep worker moves to a CPU of its own. Only
    // the traced run's unpinned pass lets them float.
    if !pin(0) {
        eprintln!("perf: could not pin to one CPU; running unpinned");
    }
    let result = if args.trace {
        traced(w, args.seed)
    } else {
        keep_freed_memory(w);
        untraced(w, args.seed, args.seconds)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(Fatal::Input(e)) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
        Err(Fatal::Output(e)) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every workload in its own process, so peak RSS is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perf: {} exited with {s}", w.name());
                return ExitCode::from(u8::try_from(s.code().unwrap_or(1)).unwrap_or(1));
            }
            Err(e) => {
                eprintln!("perf: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Measured runs keep freed memory in the process (README.md, "Page
/// faults"): with glibc's defaults, `numerics_full` spends a quarter of
/// its CPU time faulting in fresh pages, at a cost that follows host load.
/// They also give the allocator one heap per issuing thread: with one per
/// thread that happened to find the others busy, peak memory moved by up
/// to a tenth from run to run.
fn keep_freed_memory(w: Workload) {
    if !measure::retain_freed_memory(w.jobs()) {
        eprintln!("perf: could not make the allocator keep freed memory");
    }
}

enum Fatal {
    /// Unreadable or malformed input (an oracle file): exit 2.
    Input(String),
    /// A metric the benchmark cannot print as declared: exit 1.
    Output(String),
}

/// Read the oracles, generate the op list, compute fault-free baselines.
fn setup(w: Workload, seed: u64) -> Result<Inputs, Fatal> {
    let read = |name: &str| {
        std::fs::read_to_string(name)
            .map_err(|e| Fatal::Input(format!("{name}: {e} (run from the repository root)")))
    };
    let figures = match w {
        Workload::StencilTiming => oracle::figures_oracle(&read("BENCH_figures.json")?)
            .map_err(|e| Fatal::Input(format!("BENCH_figures.json: {e}")))?,
        _ => Default::default(),
    };
    let ledger = match w {
        Workload::StaticModel => oracle::cost_oracle(&read("BENCH_cost.json")?)
            .map_err(|e| Fatal::Input(format!("BENCH_cost.json: {e}")))?,
        _ => Vec::new(),
    };
    let baselines = match w {
        Workload::FaultSweep => cpufree_bench::chaos::baselines_jobs(w.jobs()),
        _ => Vec::new(),
    };
    Ok(Inputs {
        workload: w,
        ops: work::ops(w, seed, &ledger),
        figures,
        ledger,
        baselines,
    })
}

/// Set-up plus warm-up, timed net of the time stolen from the main CPU and
/// scaled to nominal host speed by the yardsticks run just before it. The
/// warm-up ops come from the list of seed 0, so set-up time does not
/// depend on which ops a seed happens to put first.
fn timed_setup(w: Workload, seed: u64) -> Result<(Inputs, f64), Fatal> {
    let now = Instant::now();
    let speed = quantile(
        &sorted(
            (0..SETUP_YARDSTICKS).map(|_| Yardstick::run(thread_index(), now).took.as_secs_f64()),
        ),
        0.5,
    ) / YARDSTICK_NOMINAL.as_secs_f64();
    let ticks = HostTicks::read(pass_cpus(1));
    let t = Instant::now();
    let inp = setup(w, seed)?;
    let mut off = Recorder::new(false, Instant::now(), 0, 0);
    for op in work::ops(w, 0, &inp.ledger).iter().take(WARMUP_OPS) {
        exec_caught(op, &inp, &mut off);
    }
    let stolen = HostTicks::read(pass_cpus(1)).stolen_per_cpu_since(&ticks);
    Ok((
        inp,
        t.elapsed().saturating_sub(stolen).as_secs_f64() / speed,
    ))
}

/// Run one op; a panic becomes a failed outcome.
fn exec_caught(op: &work::Op, inp: &Inputs, rec: &mut Recorder) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| work::exec(op, inp, rec))).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Outcome::Failed(format!("panicked: {msg}"))
    })
}

/// One executed op.
struct Record {
    op: usize,
    start: Duration,
    end: Duration,
    /// Time in seconds net of the time the hypervisor took from the
    /// thread's CPU ([`measure::net_of_steal`]).
    held: f64,
    thread: usize,
    /// Cumulative time stolen from the thread's CPUs, read just before the
    /// op (only every [`MARK_EVERY`]).
    mark: Option<Duration>,
    /// Process CPU time during the op: the op's own when it ran alone.
    cpu: Duration,
    /// The CPUs the thread ran on.
    cpus: &'static [usize],
    /// The yardstick the thread ran after the op, if one was due.
    stick: Option<Yardstick>,
    /// How much slower than nominal the host ran around the op
    /// ([`measure::speed_factors`]); 1 outside the timed window.
    speed: f64,
    outcome: Outcome,
    rec: Recorder,
}

impl Record {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A small per-process index for each thread that runs ops.
fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|i| *i)
}

/// The CPUs the process was allowed at start, before any pinning.
fn cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(measure::allowed_cpus)
}

/// The CPUs the issuing threads of a `jobs`-thread pinned pass run on.
fn pass_cpus(jobs: usize) -> &'static [usize] {
    &cpus()[..jobs.min(cpus().len())]
}

thread_local! {
    /// The CPU the calling thread is pinned to; empty while it may use all.
    static PINNED: Cell<&'static [usize]> = const { Cell::new(&[]) };
    /// The pass and time of the calling thread's last steal reading.
    static LAST_MARK: Cell<Option<(usize, Instant)>> = const { Cell::new(None) };
    /// The pass and time of the calling thread's last yardstick.
    static LAST_STICK: Cell<Option<(usize, Instant)>> = const { Cell::new(None) };
}

/// Whether the calling thread's periodic task whose last run `last` holds
/// is due: on the thread's first op of a pass, then every `every`. If so,
/// records it as run now.
fn due(
    last: &'static std::thread::LocalKey<Cell<Option<(usize, Instant)>>>,
    pass: usize,
    every: Duration,
) -> bool {
    let now = Instant::now();
    let due = last
        .get()
        .is_none_or(|(p, t)| p != pass || now - t >= every);
    if due {
        last.set(Some((pass, now)));
    }
    due
}

/// Pin the calling thread, and the threads it starts from now on, to the
/// `k`-th allowed CPU (wrapping). Returns false if it stays unpinned.
fn pin(k: usize) -> bool {
    let Some(cpu) = cpus().get(k % cpus().len().max(1)) else {
        return false;
    };
    let one = std::slice::from_ref(cpu);
    let ok = measure::set_affinity(one);
    if ok {
        PINNED.set(one);
    }
    ok
}

/// Let the calling thread, and the threads it starts from now on, use
/// every allowed CPU again.
fn unpin() {
    if measure::set_affinity(cpus()) {
        PINNED.set(&[]);
    }
}

/// The CPUs the calling thread's ops run on.
fn op_cpus() -> &'static [usize] {
    match PINNED.get() {
        [] => cpus(),
        one => one,
    }
}

/// The stolen time of the calling thread's CPUs, if a reading is due: on
/// the thread's first op of a pass, then every `every`. Ops that run side
/// by side cannot be told apart in process CPU time, so they read it
/// before every op and each is charged the steal counted while it ran:
/// the hypervisor takes a CPU away in slices as long as an op, so sharing
/// a longer stretch's steal among its ops would charge the ops it missed.
fn steal_mark(pass: usize, every: Duration) -> Option<Duration> {
    due(&LAST_MARK, pass, every).then(|| HostTicks::read(op_cpus()).stolen())
}

/// How a pass runs its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Pinned, no spans, gauging the host's speed with the yardstick: the
    /// configuration every end-to-end metric uses.
    Timed,
    /// Pinned, no spans.
    Plain,
    /// Pinned, recording spans and per-layer samples.
    Traced,
    /// No spans, and every thread may use every CPU, as `figures` and the
    /// test suites run (the traced run also leaves the allocator's
    /// settings alone for it).
    Unpinned,
}

fn run_op(inp: &Inputs, i: usize, mode: Mode, epoch: Instant, pass: usize) -> Record {
    let op = i % inp.ops.len();
    let thread = thread_index();
    let every = if inp.workload.jobs() == 1 {
        MARK_EVERY
    } else {
        Duration::ZERO
    };
    let mark = steal_mark(pass, every);
    let mut rec = Recorder::new(mode == Mode::Traced, epoch, op, thread);
    rec.begin("op");
    let before = usage();
    let start = epoch.elapsed();
    let outcome = exec_caught(&inp.ops[op], inp, &mut rec);
    let end = epoch.elapsed();
    let cpu = usage().since(before).cpu;
    // Closes "op", and any span a panic left open inside it.
    rec.close_all();
    let stick = (mode == Mode::Timed && due(&LAST_STICK, pass, YARDSTICK_EVERY))
        .then(|| Yardstick::run(thread, epoch));
    Record {
        op,
        start,
        end,
        held: 0.0,
        thread,
        mark,
        cpu,
        cpus: op_cpus(),
        stick,
        speed: 1.0,
        outcome,
        rec,
    }
}

enum Limit {
    Until(Instant),
    Count(usize),
}

/// A closed-loop pass over the op list: each issuing thread starts its
/// next op when the previous one returns.
struct Pass {
    records: Vec<Record>,
    start: Duration,
    end: Duration,
    used: Usage,
    threads: usize,
    /// Time the hypervisor took from each issuing thread's CPU.
    stolen: Duration,
    /// Share of all host CPU time stolen during the pass.
    host_steal: f64,
    /// Peak RSS (KiB) when the pass first finished the whole op list: the
    /// memory of every op of the list plus a fixed amount of bookkeeping,
    /// however many times a faster simulator gets through the list. A pass
    /// that ends before that reads it at its end.
    peak_kib: Result<u64, String>,
}

impl Pass {
    fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Wall time during which the issuing threads had their CPUs: what the
    /// pass would have taken had the hypervisor not run other guests.
    fn held(&self) -> f64 {
        (self.end - self.start)
            .saturating_sub(self.stolen)
            .max(Duration::from_millis(1))
            .as_secs_f64()
    }
}

fn run_pass(inp: &Inputs, limit: &Limit, mode: Mode, epoch: Instant) -> Pass {
    static PASSES: AtomicUsize = AtomicUsize::new(0);
    let pass = PASSES.fetch_add(1, Ordering::Relaxed);
    let jobs = inp.workload.jobs();
    let pass_cpus = if mode == Mode::Unpinned {
        unpin();
        cpus()
    } else {
        pass_cpus(jobs)
    };
    let list_peak = std::sync::OnceLock::new();
    let list_done = |i: usize| {
        if i + 1 == inp.ops.len() {
            list_peak.get_or_init(|| measure::peak_rss_kib().ok());
        }
    };
    let ticks = HostTicks::read(pass_cpus);
    let before = usage();
    let start = epoch.elapsed();
    // Each issuing thread claims the next op until the limit; with one job
    // `par_map` runs it on the calling thread.
    let next = AtomicUsize::new(0);
    let mut issued: Vec<(usize, Record)> = sim_des::par_map(jobs, (0..jobs).collect(), |_| {
        // A worker moves to a CPU of its own before its first op.
        if mode != Mode::Unpinned && PINNED.get().is_empty() {
            pin(thread_index());
        }
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let go = match limit {
                Limit::Count(n) => i < *n,
                Limit::Until(t) => i == 0 || Instant::now() < *t,
            };
            if !go {
                return mine;
            }
            mine.push((i, run_op(inp, i, mode, epoch, pass)));
            list_done(i);
        }
    })
    .into_iter()
    .flatten()
    .collect();
    // In claim order, so two passes over the same ops pair up.
    issued.sort_by_key(|(i, _)| *i);
    let mut records: Vec<Record> = issued.into_iter().map(|(_, r)| r).collect();
    let end = epoch.elapsed();
    let used = usage().since(before);
    let after = HostTicks::read(pass_cpus);
    let peak_kib = match list_peak.into_inner().flatten() {
        Some(kib) => Ok(kib),
        None => measure::peak_rss_kib(),
    };
    if mode == Mode::Unpinned {
        pin(0);
    }
    let mut closing: BTreeMap<usize, Duration> = BTreeMap::new();
    for r in &records {
        closing
            .entry(r.thread)
            .or_insert_with(|| HostTicks::read(r.cpus).stolen());
    }
    let times: Vec<OpTime> = records
        .iter()
        .map(|r| OpTime {
            thread: r.thread,
            start: r.start,
            end: r.end,
            mark: r.mark,
            cpu: (jobs == 1).then_some(r.cpu),
        })
        .collect();
    let sticks: Vec<Yardstick> = records.iter().filter_map(|r| r.stick).collect();
    let speeds = measure::speed_factors(&times, &sticks, YARDSTICK_WINDOW, YARDSTICK_NOMINAL);
    for ((r, held), speed) in records
        .iter_mut()
        .zip(measure::net_of_steal(&times, |t| closing[&t]))
        .zip(speeds)
    {
        r.held = held;
        r.speed = speed;
    }
    Pass {
        records,
        start,
        end,
        used,
        threads: jobs,
        stolen: after.stolen_per_cpu_since(&ticks),
        host_steal: after.steal_share_since(&ticks),
        peak_kib,
    }
}

/// Check a pass's outcomes; returns (attempted, failure messages).
fn verdicts(pass: &Pass, inp: &Inputs) -> (usize, Vec<String>) {
    let results = work::check_all(pass.records.iter().map(|r| (r.op, &r.outcome)), inp);
    let failures = results.into_iter().filter_map(Result::err).collect();
    (pass.records.len(), failures)
}

fn untraced(w: Workload, seed: u64, seconds: u64) -> Result<String, Fatal> {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (inp, secs) = timed_setup(w, seed)?;
        setups.push(secs);
        inputs = Some(inp);
    }
    let inp = inputs.expect("SETUP_REPS > 0");
    let epoch = Instant::now();
    let pass = run_pass(
        &inp,
        &Limit::Until(epoch + Duration::from_secs(seconds)),
        Mode::Timed,
        epoch,
    );
    let (attempted, failures) = verdicts(&pass, &inp);
    let n = attempted as f64;
    // Quantiles over the list's ops, not over executions: a window that
    // ends part-way through a round of the list would otherwise change the
    // mix, and a median that sits between two cost clusters (the stencil
    // list is half cells of 1-2 GPUs, half of 4-8) would jump between them.
    // Each op's time is scaled to nominal host speed (README.md, "Host
    // speed").
    let mut runs: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in &pass.records {
        runs.entry(r.op).or_default().push(r.held / r.speed * 1e3);
    }
    let op_ms = sorted(runs.into_values().map(|v| quantile(&sorted(v), 0.5)));
    // The window's speed factor: the ops' own, weighted by their time.
    let held: f64 = pass.records.iter().map(|r| r.held).sum();
    let nominal: f64 = pass.records.iter().map(|r| r.held / r.speed).sum();
    let speed = measure::ratio(held, nominal);
    // The window net of steal and of the issuing threads' yardsticks.
    let sticks: f64 = pass
        .records
        .iter()
        .filter_map(|r| r.stick)
        .map(|s| s.took.as_secs_f64())
        .sum();
    let window = (pass.held() - sticks / pass.threads as f64).max(1e-3);
    let peak_rss = pass.peak_kib.clone().map_err(Fatal::Output)?;
    // At most the time the issuing threads' CPUs were not stolen: with both
    // vCPUs busy under heavy steal, getrusage has counted up to a fifth more
    // CPU time than that (README.md, "Steal").
    let cpu = (pass.used.cpu.as_secs_f64() - sticks).min(window * pass.threads as f64);
    let values = [
        ("ops_per_s", n / window * speed),
        ("op_ms.p50", quantile(&op_ms, 0.5)),
        ("op_ms.p90", quantile(&op_ms, 0.9)),
        ("cpu_ms_per_op", cpu * 1e3 / n / speed),
        ("peak_rss_mb", peak_rss as f64 / 1024.0),
        ("setup_s", quantile(&sorted(setups), 0.5)),
    ];
    eprintln!(
        "perf {} seed {seed}: {attempted} ops in {:.2} s wall on {} thread(s) ({:.2} ops/s); \
         {:.2} s stolen from the pinned CPU(s), host steal {:.1}%; speed factor {speed:.3} \
         ({:.2} ops/s before scaling)",
        w.name(),
        pass.wall(),
        pass.threads,
        n / pass.wall(),
        pass.stolen.as_secs_f64(),
        pass.host_steal * 100.0,
        n / window,
    );
    report(END_TO_END, &values, attempted, &failures)
}

/// Ops in each pass of the traced run: a fixed count, so the deterministic
/// per-layer counts repeat exactly for a seed.
fn trace_ops(w: Workload) -> usize {
    match w {
        Workload::StencilTiming | Workload::NumericsFull => 24,
        Workload::FaultSweep => 32,
        Workload::StaticModel => 256,
    }
}

/// Ops of another workload the traced run borrows to measure a layer its
/// own workload does not call.
fn probe_ops(w: Workload) -> usize {
    match w {
        Workload::StencilTiming | Workload::NumericsFull | Workload::FaultSweep => 6,
        Workload::StaticModel => 32,
    }
}

fn layer_of(key: &str) -> &str {
    key.split_once('.').map_or(key, |(layer, _)| layer)
}

/// Per sample key, one value from every traced op that recorded it.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Gather a traced pass's samples (of `layers` only, when given) and its
/// spans, re-basing span parents into the combined list.
fn collect(pass: &Pass, layers: Option<&[&str]>, samples: &mut Samples, spans: &mut Vec<Span>) {
    for r in &pass.records {
        for (k, v) in &r.rec.samples {
            if layers.is_none_or(|ls| ls.contains(&layer_of(k))) {
                samples.entry(k).or_default().push(*v);
            }
        }
        let base = spans.len();
        spans.extend(r.rec.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

fn traced(w: Workload, seed: u64) -> Result<String, Fatal> {
    let ticks = HostTicks::read(&[]);
    let (inp, _) = timed_setup(w, seed)?;
    let epoch = Instant::now();
    let n = Limit::Count(trace_ops(w));
    // First as the simulator's users run it: unpinned, glibc's defaults.
    let free = run_pass(&inp, &n, Mode::Unpinned, epoch);
    keep_freed_memory(w);
    let plain = run_pass(&inp, &n, Mode::Plain, epoch);
    let traced = run_pass(&inp, &n, Mode::Traced, epoch);
    let steal = HostTicks::read(&[]).steal_share_since(&ticks);

    let (mut attempted, mut failures) = (0, Vec::new());
    for pass in [&free, &plain, &traced] {
        let (a, f) = verdicts(pass, &inp);
        attempted += a;
        failures.extend(f);
    }
    let mut samples = Samples::new();
    let mut spans: Vec<Span> = Vec::new();
    collect(&traced, None, &mut samples, &mut spans);

    // Layers this workload never calls are measured on a few ops of the
    // workload that does, so every traced run reports every layer.
    for p in [
        Workload::NumericsFull,
        Workload::FaultSweep,
        Workload::StaticModel,
    ] {
        let missing: Vec<&str> = p
            .layers()
            .iter()
            .copied()
            .filter(|l| !samples.keys().any(|k| layer_of(k) == *l))
            .collect();
        if missing.is_empty() {
            continue;
        }
        let pinp = setup(p, seed)?;
        let probe = run_pass(&pinp, &Limit::Count(probe_ops(p)), Mode::Traced, epoch);
        let (a, f) = verdicts(&probe, &pinp);
        attempted += a;
        failures.extend(f);
        collect(&probe, Some(&missing), &mut samples, &mut spans);
    }

    // Deterministic counts are averaged; host times take the median, which
    // a few preempted ops cannot drag.
    let mean = |k: &str| {
        samples
            .get(k)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    };
    let median = |k: &str| {
        samples
            .get(k)
            .map_or(0.0, |v| quantile(&sorted(v.iter().copied()), 0.5))
    };
    let free_n = free.records.len() as f64;
    let plain_busy: f64 = plain.records.iter().map(Record::secs).sum();
    // The same ops in the same order: pair them to cancel op-to-op spread.
    let slowdown = sorted(
        plain
            .records
            .iter()
            .zip(&traced.records)
            .map(|(p, t)| (t.secs() - t.rec.extra.as_secs_f64()) / p.secs() - 1.0),
    );
    let mut last_end: BTreeMap<usize, Duration> = BTreeMap::new();
    for r in &plain.records {
        let e = last_end.entry(r.thread).or_default();
        *e = (*e).max(r.end);
    }
    let first_idle = last_end.values().min().copied().unwrap_or(plain.end);
    let values = [
        // The engine's handoffs as the simulator's users run it: unpinned.
        ("des.vcsw_per_op", free.used.nvcsw as f64 / free_n),
        ("des.ivcsw_per_op", free.used.nivcsw as f64 / free_n),
        (
            "des.wait_share",
            1.0 - free.used.cpu.as_secs_f64() / (free.held() * free.threads as f64),
        ),
        ("des.spans_per_op", mean("spans.count")),
        ("des.host_us_per_span", median("spans.us_per_span")),
        ("des.spawn_us_per_agent", spawn_probe()),
        ("stats.from_trace_us_per_op", median("from_trace.us")),
        ("gpu.arith_ms_per_op", median("arith.ms")),
        ("gpu.arith_share", median("arith.share")),
        ("gpu.machine_new_us", machine_probe()),
        ("mem.page_faults_per_op", free.used.minflt as f64 / free_n),
        ("hb.events_per_op", mean("hb.events")),
        ("hb.accesses_per_op", mean("hb.accesses")),
        ("hb.overhead_ms_per_op", median("hb.overhead_ms")),
        (
            "batch.efficiency",
            plain_busy / (plain.wall() * plain.threads as f64),
        ),
        (
            "batch.tail_idle_ms",
            (plain.end - first_idle).as_secs_f64() * 1e3,
        ),
        (
            "gpu.transport.ns_per_charge",
            median("transport.ns_per_charge"),
        ),
        (
            "gpu.linkclocks.ns_per_charge",
            median("transport.mirror_ns_per_charge"),
        ),
        (
            "gpu.transport.queued_per_busy",
            mean("transport.queued_per_busy"),
        ),
        ("dace.transform_us_per_op", median("dace.transform_us")),
        ("dace.verify_ms_per_op", median("dace.verify_ms")),
        ("dace.predict_ms_per_op", median("dace.predict_ms")),
        ("dace.contended_share", mean("dace.contended")),
        ("dace.extrapolated_share", mean("dace.extrapolated")),
        ("host.steal_share", steal),
        ("trace.overhead_share", quantile(&slowdown, 0.5)),
    ];

    eprintln!(
        "perf {} seed {seed} (traced): {} ops per pass, host steal {:.1}%",
        w.name(),
        plain.records.len(),
        steal * 100.0
    );
    eprintln!(
        "{:<22} {:>7} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, (calls, total, own)) in self_times(&spans) {
        eprintln!(
            "{name:<22} {calls:>7} {:>12.3} {:>12.3}",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    let path = format!("target/perf/{}.spans.json", w.name());
    match std::fs::create_dir_all("target/perf")
        .and_then(|()| std::fs::write(&path, chrome_json(&spans)))
    {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("perf: could not write {path}: {e}"),
    }
    report(PER_LAYER, &values, attempted, &failures)
}

/// Engine set-up and teardown cost per agent: a fresh engine, eight no-op
/// agents, run to completion. Median over repetitions, microseconds.
fn spawn_probe() -> f64 {
    let samples = sorted((0..PROBE_REPS).map(|_| {
        let t = Instant::now();
        let engine = sim_des::Engine::new();
        for _ in 0..8 {
            engine.spawn("probe", |_| {});
        }
        engine.run().expect("no-op agents finish");
        t.elapsed().as_secs_f64() * 1e6 / 8.0
    }));
    quantile(&samples, 0.5)
}

/// Build and drop a 4-GPU `Full`-mode machine on each node preset. Median
/// over repetitions, microseconds.
fn machine_probe() -> f64 {
    let presets = TopologyKind::node_presets();
    let samples = sorted((0..PROBE_REPS).map(|i| {
        let t = Instant::now();
        drop(Machine::with_topology(
            4,
            CostModel::a100_hgx(),
            presets[i % presets.len()],
            ExecMode::Full,
        ));
        t.elapsed().as_secs_f64() * 1e6
    }));
    quantile(&samples, 0.5)
}

/// Print the metric table on stderr and return the JSON result line.
fn report(
    defs: &[Metric],
    values: &[(&str, f64)],
    attempted: usize,
    failures: &[String],
) -> Result<String, Fatal> {
    let line = result_json(defs, values, attempted, failures.len()).map_err(Fatal::Output)?;
    for (name, value) in values {
        let unit = defs.iter().find(|d| d.name == *name).map_or("", |d| d.unit);
        eprintln!("  {name:<30} {value:>14.6} {unit}");
    }
    eprintln!(
        "  {:<30} {:>14.6} fraction ({} of {attempted} ops failed)",
        "fail_ratio",
        failures.len() as f64 / attempted.max(1) as f64,
        failures.len()
    );
    for f in failures.iter().take(5) {
        eprintln!("  FAIL {f}");
    }
    Ok(line)
}

/// The result object. Every declared metric must be present exactly once,
/// with a finite value, and nothing undeclared may be printed.
fn result_json(
    defs: &[Metric],
    values: &[(&str, f64)],
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    if attempted == 0 {
        return Err("no op was attempted".into());
    }
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {name} is not declared"));
    }
    let mut metrics = Vec::new();
    for d in defs {
        let mut hits = values.iter().filter(|(n, _)| *n == d.name);
        let (Some((_, v)), None) = (hits.next(), hits.next()) else {
            return Err(format!("metric {} missing or repeated", d.name));
        };
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", d.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

/// A file at the repository root, the nearest directory above this package
/// that holds `BENCHMARK.json` (tests only).
#[cfg(test)]
pub fn repo_file(name: &str) -> String {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here
        .ancestors()
        .find(|d| d.join("BENCHMARK.json").is_file())
        .expect("BENCHMARK.json above the package");
    let path = root.join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn cli_is_strict() {
        assert_eq!(
            args("--workload fault_sweep --seed 9 --seconds 3 --trace 1"),
            Ok(Args {
                workload: Some(Workload::FaultSweep),
                seed: 9,
                seconds: 3,
                trace: true
            })
        );
        assert_eq!(args("").unwrap().workload, None);
        for bad in [
            "--workload nope",
            "--workload",
            "--seed",
            "--seed x",
            "--seed -1",
            "--seed 1.5",
            "--trace",
            "--trace 2",
            "--seconds 0",
            "--seconds ten",
            "--jobs 2",
            "stencil_timing",
            "--seed 1 extra",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = oracle::parse(&repo_file("BENCHMARK.json")).unwrap();
        doc.get(list)
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .map(|m| {
                let name = m.get("name").unwrap().str().unwrap().to_string();
                let unit = m.get("unit").unwrap().str().unwrap().to_string();
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn every_metric_is_well_named_and_declared() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        for (defs, list) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let want = declared(list);
            let got: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{list} differs from BENCHMARK.json");
            for d in defs {
                assert!(name_ok(d.name), "bad metric name {}", d.name);
                assert!(!d.unit.is_empty(), "{} has no unit", d.name);
            }
        }
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_json(END_TO_END, &values, 10, 1).unwrap();
        let doc = oracle::parse(&line).unwrap();
        assert_eq!(doc.get("correct").unwrap(), &oracle::Json::Bool(false));
        assert_eq!(doc.get("attempted").unwrap().u64().unwrap(), 10);
        let oracle::Json::Obj(metrics) = doc.get("metrics").unwrap() else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, m) in metrics {
            let def = END_TO_END.iter().find(|d| d.name == name).unwrap();
            assert_eq!(m.get("unit").unwrap().str().unwrap(), def.unit);
            assert_eq!(m.get("value").unwrap().num().unwrap(), "1.5");
        }
        let mut extra = values.clone();
        extra.push(("fail_ratio", 0.0));
        assert!(result_json(END_TO_END, &extra, 10, 0).is_err());
        assert!(result_json(END_TO_END, &values[1..], 10, 0).is_err());
        let mut nan = values.clone();
        nan[0].1 = f64::NAN;
        assert!(result_json(END_TO_END, &nan, 10, 0).is_err());
        assert!(result_json(END_TO_END, &values, 0, 0).is_err());
    }
}
