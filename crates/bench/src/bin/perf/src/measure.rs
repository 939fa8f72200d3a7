//! Host-side measurement: quantiles, process resource usage, host steal
//! time, host speed, and the in-memory span recorder of the traced run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::os::raw::{c_int, c_long};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!(
    "perf reads getrusage(2), /proc/stat and /proc/self/status with their Linux layouts"
);

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted` samples, linearly
/// interpolated between the two closest ranks. Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples sorted ascending (total order, so NaN cannot reorder them).
pub fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    _maxrss: c_long,
    _ixrss: c_long,
    _idrss: c_long,
    _isrss: c_long,
    minflt: c_long,
    _majflt: c_long,
    _nswap: c_long,
    _inblock: c_long,
    _oublock: c_long,
    _msgsnd: c_long,
    _msgrcv: c_long,
    _nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

/// glibc's `cpu_set_t`: a bitmask of 1024 CPUs.
#[repr(C)]
#[derive(Default)]
struct CpuSet([u64; 16]);

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
#[cfg(test)]
const RUSAGE_THREAD: c_int = 1;
/// `pid` 0 in the affinity calls: the calling thread.
const THIS_THREAD: c_int = 0;

/// The CPUs the calling thread may run on, ascending (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet::default();
    // SAFETY: `set` is a writable `cpu_set_t` of exactly the size passed.
    let rc = unsafe { sched_getaffinity(THIS_THREAD, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| (set.0[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and the threads it starts from now on, to
/// `cpus`. Returns false if the kernel refuses or a CPU number is out of
/// range (the thread's affinity is then unchanged).
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut set = CpuSet::default();
    for &cpu in cpus {
        let Some(word) = set.0.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid `cpu_set_t` of exactly the size passed; the
    // kernel only reads it.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(THIS_THREAD, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Whole-process resource usage (every thread, live and joined).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Page faults the kernel served without I/O: first touches of memory
    /// freshly mapped into the process.
    pub minflt: u64,
    /// Voluntary context switches (a thread blocked).
    pub nvcsw: u64,
    /// Involuntary context switches (a thread was preempted).
    pub nivcsw: u64,
}

impl Usage {
    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            nvcsw: self.nvcsw.saturating_sub(earlier.nvcsw),
            nivcsw: self.nivcsw.saturating_sub(earlier.nivcsw),
        }
    }
}

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    rusage(RUSAGE_SELF)
}

fn rusage(who: c_int) -> Usage {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a writable `struct rusage` with Linux's field layout
    // (the cfg gate above), so the kernel writes only inside it; `who` is
    // RUSAGE_SELF or RUSAGE_THREAD, both valid on Linux.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let tv = |t: &Timeval| {
        Duration::from_secs(t.sec.max(0) as u64) + Duration::from_micros(t.usec.max(0) as u64)
    };
    let count = |v: c_long| v.max(0) as u64;
    Usage {
        cpu: tv(&raw.utime) + tv(&raw.stime),
        minflt: count(raw.minflt),
        nvcsw: count(raw.nvcsw),
        nivcsw: count(raw.nivcsw),
    }
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// Make glibc's allocator keep the memory programs free for reuse instead of
/// handing it back to the kernel: blocks of up to 32 MiB (the most
/// `M_MMAP_THRESHOLD` takes) come from the heap rather than from their own
/// mapping, and the heap is never trimmed. Freed pages are then reused
/// instead of being faulted in, zeroed, afresh by the next run. Threads
/// share at most `arenas` heaps (at least one), where glibc would create up
/// to eight per CPU as threads come and go. Returns false where the
/// allocator is not glibc's or refuses.
pub fn retain_freed_memory(arenas: usize) -> bool {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const M_ARENA_MAX: c_int = -8;
        let arenas = c_int::try_from(arenas.max(1)).unwrap_or(c_int::MAX);
        // SAFETY: mallopt only changes malloc's tuning parameters; the three
        // parameters exist in every glibc and the values are in the ranges
        // it accepts (it returns 0, changing nothing, otherwise).
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
                && mallopt(M_ARENA_MAX, arenas) == 1
        }
    }
    #[cfg(not(target_env = "gnu"))]
    {
        let _ = arenas;
        false
    }
}

/// The `VmHWM` (peak resident set size, KiB) of a `/proc/<pid>/status`.
pub fn parse_vm_hwm(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kib = line
        .trim()
        .strip_suffix("kB")
        .ok_or_else(|| format!("VmHWM {line:?} is not in kB"))?;
    kib.trim()
        .parse()
        .map_err(|_| format!("bad VmHWM {line:?}"))
}

/// This process's peak resident set size, KiB. Unlike `ru_maxrss`, which
/// keeps the peak of the process image `exec` replaced (`cargo run`'s),
/// `VmHWM` covers only the running program.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm(&status)
}

/// The yardstick: a fixed piece of work that gauges how fast the host runs
/// right now, made of the two kinds of work the simulator does (see the
/// two parts). It runs no simulator code, so no change to the simulator
/// changes it. Returns a checksum.
pub fn yardstick() -> u64 {
    queue_and_sweep() ^ token_ring()
}

/// The yardstick's work on one thread, as the event queue and the kernels
/// compute: a binary-heap event queue, a hash map and a five-point stencil.
fn queue_and_sweep() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        x ^= x >> 31;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
        x
    };
    let mut sum = 0;
    let mut queue = BinaryHeap::with_capacity(512);
    for seq in 0..6000_u64 {
        queue.push(Reverse((next() % 1_000_000, seq)));
        if queue.len() > 300 {
            sum ^= queue.pop().map_or(0, |Reverse((t, _))| t);
        }
    }
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(2048);
    for _ in 0..6000 {
        *counts.entry(next() % 2048).or_default() += 1;
    }
    sum ^= counts.values().sum::<u64>();
    const N: usize = 64;
    let mut a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64).collect();
    let mut b = a.clone();
    for _ in 0..12 {
        for r in 1..N - 1 {
            for c in 1..N - 1 {
                let i = r * N + c;
                b[i] = 0.25 * (a[i - 1] + a[i + 1] + a[i - N] + a[i + N]);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    sum ^ a[N * N / 2].to_bits()
}

/// The yardstick's work across threads, as the engine's agent threads are
/// spawned, hand over to one another and finish: four threads pass a
/// token forty times round a ring and are joined. Returns the sum of the
/// values they end with: 160 each.
fn token_ring() -> u64 {
    const THREADS: usize = 4;
    const LAST: u64 = 40 * THREADS as u64;
    let (txs, rxs): (Vec<Sender<u64>>, Vec<Receiver<u64>>) =
        (0..THREADS).map(|_| channel()).unzip();
    std::thread::scope(|s| {
        let ring: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let next = txs[(i + 1) % THREADS].clone();
                s.spawn(move || {
                    // Each thread forwards the final value once and stops;
                    // the last send finds its receiver gone, which is fine.
                    let mut v = 0;
                    while v < LAST {
                        v = rx.recv().expect("the ring holds a sender to every thread");
                        let _ = next.send((v + 1).min(LAST));
                    }
                    v
                })
            })
            .collect();
        txs[0].send(0).expect("the first ring thread is waiting");
        ring.into_iter()
            .map(|h| h.join().expect("ring threads do not panic"))
            .sum()
    })
}

/// One timed run of the [`yardstick`].
#[derive(Debug, Clone, Copy)]
pub struct Yardstick {
    /// The thread that ran it, on the CPU its ops run on.
    pub thread: usize,
    /// When it ended.
    pub at: Duration,
    /// Its wall time.
    pub took: Duration,
}

impl Yardstick {
    /// Run the yardstick on the calling thread, which the caller knows as
    /// `thread`; `at` is measured from `epoch`.
    pub fn run(thread: usize, epoch: Instant) -> Yardstick {
        let t = Instant::now();
        std::hint::black_box(yardstick());
        Yardstick {
            thread,
            at: epoch.elapsed(),
            took: t.elapsed(),
        }
    }
}

/// Each op's speed factor: the median time of the yardsticks its thread
/// ran within `window` of the op, over `nominal`. Above 1 the host ran
/// slower than nominal. An op with no yardstick of its thread that close
/// takes the median of all its thread's; a thread without any, 1.
pub fn speed_factors(
    ops: &[OpTime],
    sticks: &[Yardstick],
    window: Duration,
    nominal: Duration,
) -> Vec<f64> {
    let mut mine: BTreeMap<usize, Vec<&Yardstick>> = BTreeMap::new();
    for s in sticks {
        mine.entry(s.thread).or_default().push(s);
    }
    for list in mine.values_mut() {
        list.sort_by_key(|s| s.at);
    }
    let factor = |list: &[&Yardstick]| {
        quantile(&sorted(list.iter().map(|s| s.took.as_secs_f64())), 0.5) / nominal.as_secs_f64()
    };
    ops.iter()
        .map(|o| {
            let Some(list) = mine.get(&o.thread) else {
                return 1.0;
            };
            let lo = list.partition_point(|s| s.at + window < o.start);
            let hi = list.partition_point(|s| s.at <= o.end + window);
            factor(if lo < hi { &list[lo..hi] } else { list })
        })
        .collect()
}

/// `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
const TICK: Duration = Duration::from_millis(10);

/// CPU ticks of one `/proc/stat` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// Sum of every state (user, nice, system, idle, iowait, irq, softirq,
    /// steal; guest time is already inside user).
    pub total: u64,
    /// Time the hypervisor ran something else while this VM wanted a CPU.
    pub steal: u64,
}

/// The ticks of line `name` of `/proc/stat`: `"cpu"` for the whole host,
/// `"cpuN"` for CPU N.
pub fn parse_proc_stat(text: &str, name: &str) -> Result<CpuTicks, String> {
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .ok_or_else(|| format!("/proc/stat has no {name} line"))?;
    let ticks = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| {
            f.parse::<u64>()
                .map_err(|_| format!("bad tick count {f:?}"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    if ticks.len() < 8 {
        return Err(format!("/proc/stat {name} line has {} fields", ticks.len()));
    }
    Ok(CpuTicks {
        total: ticks.iter().sum(),
        steal: ticks[7],
    })
}

/// One reading of the host ticks and of the ticks of some CPUs.
#[derive(Debug, Clone, Default)]
pub struct HostTicks {
    pub all: CpuTicks,
    pub cpus: Vec<CpuTicks>,
}

impl HostTicks {
    /// Read `/proc/stat`; all zero (so no steal is ever seen) if unreadable.
    pub fn read(cpus: &[usize]) -> HostTicks {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return HostTicks::default();
        };
        HostTicks {
            all: parse_proc_stat(&text, "cpu").unwrap_or_default(),
            cpus: cpus
                .iter()
                .map(|c| parse_proc_stat(&text, &format!("cpu{c}")).unwrap_or_default())
                .collect(),
        }
    }

    /// Share of all host CPU time stolen since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        ratio(
            self.all.steal.saturating_sub(earlier.all.steal) as f64,
            self.all.total.saturating_sub(earlier.all.total) as f64,
        )
    }

    /// Time stolen from the read CPUs since boot, averaged over them.
    pub fn stolen(&self) -> Duration {
        let ticks: u64 = self.cpus.iter().map(|c| c.steal).sum();
        TICK * u32::try_from(ticks).unwrap_or(u32::MAX)
            / u32::try_from(self.cpus.len().max(1)).unwrap_or(1)
    }

    /// Time stolen from each of the read CPUs since `earlier`, averaged.
    pub fn stolen_per_cpu_since(&self, earlier: &HostTicks) -> Duration {
        self.stolen().saturating_sub(earlier.stolen())
    }
}

/// One op as [`net_of_steal`] needs it.
#[derive(Debug, Clone, Copy)]
pub struct OpTime {
    /// The issuing thread.
    pub thread: usize,
    pub start: Duration,
    pub end: Duration,
    /// Cumulative time stolen from the thread's CPUs
    /// ([`HostTicks::stolen`]), read just before the op, on some of its ops.
    pub mark: Option<Duration>,
    /// The process's CPU time during the op, when it was the only op
    /// running.
    pub cpu: Option<Duration>,
}

/// Each op's time, in seconds, net of the time stolen from its CPUs.
///
/// A thread's ops from one steal reading to the next form a stretch;
/// `closing` gives each thread's reading after its last op. Steal is only
/// counted in 10 ms ticks, so it is known per stretch, not per op. When
/// every op of a stretch ran alone, an op's time is its CPU time plus its
/// share, in proportion to its wall time, of the stretch's off-CPU time
/// (wall − CPU − stolen): time no thread of the op ran although its CPU was
/// free, such as waiting for a wake-up. Otherwise the ops share the stolen
/// time in proportion to their wall time. Ops before a thread's first
/// reading keep their wall time.
pub fn net_of_steal(ops: &[OpTime], closing: impl Fn(usize) -> Duration) -> Vec<f64> {
    let wall = |o: &OpTime| (o.end - o.start).as_secs_f64();
    let mut net: Vec<f64> = ops.iter().map(wall).collect();
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| (ops[i].thread, ops[i].start));
    for mine in order.chunk_by(|&a, &b| ops[a].thread == ops[b].thread) {
        let marked: Vec<usize> = (0..mine.len())
            .filter(|&k| ops[mine[k]].mark.is_some())
            .collect();
        for (j, &k) in marked.iter().enumerate() {
            let end = marked.get(j + 1).copied();
            let stretch = &mine[k..end.unwrap_or(mine.len())];
            let from = ops[stretch[0]].mark.unwrap_or_default();
            let to = end.map_or_else(
                || closing(ops[mine[0]].thread),
                |e| ops[mine[e]].mark.unwrap_or_default(),
            );
            let stolen = to.saturating_sub(from).as_secs_f64();
            let total: f64 = stretch.iter().map(|&i| wall(&ops[i])).sum();
            if total <= 0.0 {
                continue;
            }
            let cpus: Option<Vec<f64>> = stretch
                .iter()
                .map(|&i| ops[i].cpu.map(|c| c.as_secs_f64()))
                .collect();
            match cpus {
                Some(cpus) => {
                    let off = (total - cpus.iter().sum::<f64>() - stolen).max(0.0);
                    for (&i, cpu) in stretch.iter().zip(cpus) {
                        net[i] = cpu + off * wall(&ops[i]) / total;
                    }
                }
                None => {
                    let keep = (1.0 - stolen / total).max(0.0);
                    for &i in stretch {
                        net[i] *= keep;
                    }
                }
            }
        }
    }
    net
}

/// One recorded interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (index into the workload's op list) it belongs to.
    pub op: usize,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub thread: usize,
    /// Work only the traced run does (twins, re-timed calls).
    pub extra: bool,
}

/// One traced op's per-layer samples, keyed `"<layer>.<quantity>"`.
pub type OpSamples = BTreeMap<&'static str, f64>;

/// Records one op's spans and layer samples; a disabled recorder does nothing,
/// so the untraced run calls the same code at no cost.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    op: usize,
    thread: usize,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub samples: OpSamples,
    /// Time spent in top-level extra spans, to subtract from the op.
    pub extra: Duration,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, op: usize, thread: usize) -> Recorder {
        Recorder {
            on,
            epoch,
            op,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            samples: OpSamples::new(),
            extra: Duration::ZERO,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) {
        self.open_span(name, false);
    }

    /// Begin a span of work that only the traced run does.
    pub fn begin_extra(&mut self, name: &'static str) {
        self.open_span(name, true);
    }

    fn open_span(&mut self, name: &'static str, extra: bool) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            thread: self.thread,
            extra,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration.
    pub fn end(&mut self) -> Duration {
        let Some(idx) = self.open.pop() else {
            return Duration::ZERO;
        };
        let span = &mut self.spans[idx];
        span.end = self.epoch.elapsed();
        let (dur, extra, parent) = (span.end - span.start, span.extra, span.parent);
        if extra && !parent.is_some_and(|p| self.spans[p].extra) {
            self.extra += dur;
        }
        dur
    }

    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    pub fn set(&mut self, key: &'static str, value: f64) {
        if self.on {
            self.samples.insert(key, value);
        }
    }
}

/// Per span name: (calls, total time, self time). A span's self time is
/// its duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
    let mut child = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        let e = out.entry(s.name).or_default();
        let dur = s.end - s.start;
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(c);
    }
    out
}

/// Spans as a Chrome trace-event document (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"span\":{i},\"parent\":{parent}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            if s.extra { "extra" } else { "op" },
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            s.thread,
            s.op,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_hand_computed_values() {
        let v = sorted([7.0, 1.0, 3.0, 5.0, 9.0]);
        assert_eq!(v, [1.0, 3.0, 5.0, 7.0, 9.0]);
        assert_eq!(quantile(&v, 0.5), 5.0);
        // p90 of 5 samples: rank 0.9 * 4 = 3.6 → 7 + 0.6 * (9 - 7).
        assert!((quantile(&v, 0.9) - 8.2).abs() < 1e-12);
        let even = sorted([4.0, 1.0, 2.0, 3.0]);
        assert_eq!(quantile(&even, 0.5), 2.5);
        // 1..=100: p90 sits at rank 89.1 → 90.1.
        let hundred = sorted((1..=100).map(f64::from));
        assert!((quantile(&hundred, 0.9) - 90.1).abs() < 1e-9);
        assert_eq!(quantile(&[42.0], 0.9), 42.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn getrusage_counts_cpu_and_switches() {
        let a = usage();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        let d = usage().since(a);
        assert!(d.cpu >= Duration::from_millis(10), "{d:?}");
        assert!(d.cpu < Duration::from_secs(5), "{d:?}");
        assert!(d.nvcsw >= 1, "sleeping blocks the thread: {d:?}");
        let peak = peak_rss_kib().unwrap();
        assert!(peak > 100 && peak < 1 << 30, "{peak} KiB");
    }

    #[test]
    fn pinning_restricts_the_calling_thread() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        let all = cpus.clone();
        std::thread::spawn(move || {
            assert!(set_affinity(&[last]));
            assert_eq!(allowed_cpus(), [last]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, [last], "threads started later inherit the pin");
            assert!(!set_affinity(&[1 << 20]));
            assert!(!set_affinity(&[]));
            assert_eq!(allowed_cpus(), [last], "a refused call changes nothing");
            assert!(set_affinity(&all));
            assert_eq!(allowed_cpus(), all, "unpinned again");
        })
        .join()
        .unwrap();
        assert_eq!(allowed_cpus(), cpus, "other threads are untouched");
    }

    #[test]
    fn steal_is_shared_by_the_ops_between_two_readings() {
        let ms = Duration::from_millis;
        let op = |thread, start, end, mark: Option<u64>, cpu: Option<u64>| OpTime {
            thread,
            start: ms(start),
            end: ms(end),
            mark: mark.map(ms),
            cpu: cpu.map(ms),
        };
        // Thread 0, concurrent ops (no CPU time): readings at 100 ms before
        // op 0 and at 130 ms before op 2, closing at 150 ms.
        let ops = [
            op(0, 0, 10, Some(100), None),
            op(0, 10, 40, None, None),
            op(0, 40, 80, Some(130), None),
            // Thread 1, listed out of order: one stretch, 20 ms stolen.
            op(1, 50, 100, None, None),
            op(1, 0, 50, Some(0), None),
        ];
        let net = net_of_steal(&ops, |t| if t == 0 { ms(150) } else { ms(20) });
        let want = [0.0025, 0.0075, 0.020, 0.040, 0.040];
        for (got, want) in net.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{net:?}");
        }
        // More stolen than the stretch lasted: floored at zero.
        assert_eq!(net_of_steal(&ops[3..], |_| ms(500)), [0.0, 0.0]);
        // No reading at all: wall time kept.
        let net = net_of_steal(&[op(0, 0, 5, None, None)], |_| ms(9));
        assert!((net[0] - 0.005).abs() < 1e-12);

        // Ops that ran alone: CPU time plus a share of the 10 ms that were
        // neither CPU time nor stolen (100 ms wall, 80 ms CPU, 10 ms stolen).
        let alone = [
            op(0, 0, 25, Some(0), Some(20)),
            op(0, 25, 100, None, Some(60)),
        ];
        let net = net_of_steal(&alone, |_| ms(10));
        let want = [0.020 + 0.0025, 0.060 + 0.0075];
        for (got, want) in net.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{net:?}");
        }
        // Tick rounding that overstates the steal leaves the CPU time.
        let net = net_of_steal(&alone, |_| ms(30));
        assert!((net[0] - 0.020).abs() < 1e-12 && (net[1] - 0.060).abs() < 1e-12);
    }

    #[test]
    fn yardstick_does_the_same_work_every_time() {
        assert_eq!(token_ring(), 4 * 160);
        assert_eq!(queue_and_sweep(), queue_and_sweep());
        assert_eq!(yardstick(), yardstick());
    }

    #[test]
    fn speed_factors_take_the_median_of_nearby_yardsticks() {
        let ms = Duration::from_millis;
        let op = |thread, start, end| OpTime {
            thread,
            start: ms(start),
            end: ms(end),
            mark: None,
            cpu: None,
        };
        let stick = |thread, at, took| Yardstick {
            thread,
            at: ms(at),
            took: ms(took),
        };
        let sticks = [
            stick(0, 300, 3),
            stick(0, 100, 2),
            stick(0, 200, 4),
            stick(0, 5000, 9),
            stick(1, 100, 1),
        ];
        let ops = [
            // Thread 0's yardsticks at 100, 200 and 300 ms lie within
            // 100 ms of it: median 3 ms.
            op(0, 150, 250),
            // None lies that close: all four of thread 0's, median 3.5 ms.
            op(0, 2000, 2100),
            // Only thread 1's own count.
            op(1, 0, 10),
            // A thread that ran none.
            op(2, 0, 10),
        ];
        let got = speed_factors(&ops, &sticks, ms(100), ms(2));
        for (got, want) in got.iter().zip([1.5, 1.75, 0.5, 1.0]) {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
    }

    #[test]
    fn retained_memory_is_reused_without_page_faults() {
        // Faults are counted for this thread only, so tests running beside
        // it do not count; the settings are process-wide, which no test
        // depends on.
        std::thread::spawn(|| {
            assert!(retain_freed_memory(2));
            let touch = || {
                let v = std::hint::black_box(vec![1u8; 8 << 20]);
                drop(v);
            };
            touch();
            let before = rusage(RUSAGE_THREAD);
            touch();
            let faults = rusage(RUSAGE_THREAD).since(before).minflt;
            // 8 MiB is 2,048 pages; reused memory faults on almost none.
            assert!(faults < 256, "{faults} page faults re-allocating 8 MiB");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn vm_hwm_reader() {
        let status = "Name:\tperf\nVmPeak:\t  99999 kB\nVmHWM:\t   25932 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Ok(25932));
        assert!(parse_vm_hwm("VmRSS:\t 1 kB\n").is_err());
        assert!(parse_vm_hwm("VmHWM:\t 12 MB\n").is_err());
        assert!(parse_vm_hwm("VmHWM:\t x kB\n").is_err());
    }

    #[test]
    fn proc_stat_reader() {
        let text = "cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n\
                    cpu1 1 1 1 1 1 1 1 50 0 0\nintr 5 6\n";
        assert_eq!(
            parse_proc_stat(text, "cpu").unwrap(),
            CpuTicks {
                total: 1000,
                steal: 32
            }
        );
        assert_eq!(parse_proc_stat(text, "cpu1").unwrap().steal, 50);
        assert!(parse_proc_stat(text, "cpu2").is_err());
        assert!(parse_proc_stat("cpu 1 2 x 4 5 6 7 8", "cpu").is_err());
        assert!(parse_proc_stat("cpu 1 2 3", "cpu").is_err());
        assert!(parse_proc_stat("", "cpu").is_err());

        let at = |all_steal, c0, c1| HostTicks {
            all: CpuTicks {
                total: 1000 + 4 * all_steal,
                steal: all_steal,
            },
            cpus: vec![
                CpuTicks {
                    total: 0,
                    steal: c0,
                },
                CpuTicks {
                    total: 0,
                    steal: c1,
                },
            ],
        };
        let (a, b) = (at(10, 5, 7), at(35, 25, 37));
        assert!((b.steal_share_since(&a) - 0.25).abs() < 1e-12);
        // 20 + 30 ticks over two CPUs: 250 ms each.
        assert_eq!(b.stolen_per_cpu_since(&a), Duration::from_millis(250));
        assert_eq!(b.stolen(), Duration::from_millis(310));

        let live = HostTicks::read(&allowed_cpus());
        assert!(live.all.total > 0 && live.all.steal <= live.all.total);
        assert!(live.cpus.iter().all(|c| c.total > 0));
    }

    #[test]
    fn self_time_subtracts_children_and_extras_are_tallied() {
        let mut r = Recorder::new(true, Instant::now(), 3, 0);
        r.begin("op");
        r.begin("run");
        std::thread::sleep(Duration::from_millis(2));
        r.end();
        r.begin_extra("twin");
        std::thread::sleep(Duration::from_millis(2));
        let twin = r.end();
        r.end();
        assert_eq!(r.extra, twin);
        let t = self_times(&r.spans);
        let (calls, total, own) = t["op"];
        assert_eq!(calls, 1);
        assert!(own < total && own + t["run"].1 + t["twin"].1 == total);
        assert!(chrome_json(&r.spans).contains("\"name\":\"twin\",\"cat\":\"extra\""));
        let mut off = Recorder::new(false, Instant::now(), 0, 0);
        off.begin("x");
        off.set("k", 1.0);
        assert_eq!(off.end(), Duration::ZERO);
        assert!(off.spans.is_empty() && off.samples.is_empty());
    }
}
