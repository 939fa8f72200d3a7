//! Span traces — the simulator's answer to an Nsight timeline.
//!
//! Every interesting activity (compute, communication, synchronization wait,
//! host API overhead, …) is recorded as a [`TraceSpan`] with a start and end
//! in virtual time. Figures like the paper's "communication overlap ratio"
//! (Fig 2.2b) are *measured* from these spans, not asserted: we take the union
//! of communication spans and intersect it with the union of compute spans.
//!
//! Spans are `Copy` and 40-ish bytes: agent and label names are [`Sym`] keys
//! into the trace's shared [`SymPool`], so recording a span on the hot path
//! allocates nothing. Renderers resolve names back to text at report time.

use crate::agent::AgentId;
use crate::intern::{Sym, SymPool};
use crate::json::{self, Json};
use crate::time::{SimDur, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Broad classification of a span, used by overlap/summary analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Numerical work on a device (stencil sweeps, boundary updates, …).
    Compute,
    /// Data movement between devices or host↔device.
    Comm,
    /// Blocking synchronization (stream sync, grid sync, signal waits, barriers).
    Sync,
    /// Kernel-launch latency charged on the host.
    Launch,
    /// Miscellaneous host-side API overhead (enqueue costs, event ops).
    Api,
    /// Anything else.
    Other,
}

impl Category {
    /// Short tag for timeline rendering: uppercase, at most 4 characters,
    /// no padding. Renderers that need fixed-width columns pad explicitly
    /// (e.g. `format!("{:<4}", cat.tag())`).
    pub fn tag(self) -> &'static str {
        match self {
            Category::Compute => "COMP",
            Category::Comm => "COMM",
            Category::Sync => "SYNC",
            Category::Launch => "LNCH",
            Category::Api => "API",
            Category::Other => "OTHR",
        }
    }

    /// All categories, for exhaustive sweeps in tests and renderers.
    pub const ALL: [Category; 6] = [
        Category::Compute,
        Category::Comm,
        Category::Sync,
        Category::Launch,
        Category::Api,
        Category::Other,
    ];
}

/// One closed interval of activity attributed to an agent.
///
/// Names are interned [`Sym`] keys; resolve them through the owning trace
/// ([`Trace::resolve`]) or its [`Trace::pool`].
#[derive(Debug, Clone, Copy)]
pub struct TraceSpan {
    /// The agent that performed the activity.
    pub agent: AgentId,
    /// Interned agent name (e.g. `"gpu3.comm_top"`).
    pub agent_name: Sym,
    /// Start of the activity.
    pub start: SimTime,
    /// End of the activity (`end >= start`).
    pub end: SimTime,
    /// Classification for analyses.
    pub category: Category,
    /// Interned free-form label (e.g. `"halo put -> gpu2"`).
    pub label: Sym,
}

impl TraceSpan {
    /// Duration covered by the span.
    pub fn dur(&self) -> SimDur {
        self.end.since(self.start)
    }
}

/// A completed simulation's trace: an ordered list of spans plus the symbol
/// pool their names live in.
#[derive(Debug, Clone)]
pub struct Trace {
    spans: Vec<TraceSpan>,
    pool: Arc<SymPool>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Create an empty trace with a fresh symbol pool.
    pub fn new() -> Self {
        Trace {
            spans: Vec::new(),
            pool: Arc::new(SymPool::new()),
        }
    }

    /// Create an empty trace sharing an existing symbol pool (the engine
    /// passes its own so agent names and span labels resolve consistently).
    pub fn with_pool(pool: Arc<SymPool>) -> Self {
        Trace {
            spans: Vec::new(),
            pool,
        }
    }

    /// The symbol pool spans of this trace are interned in.
    pub fn pool(&self) -> &Arc<SymPool> {
        &self.pool
    }

    /// Intern a string in this trace's pool (for custom recorders).
    pub fn intern(&self, s: &str) -> Sym {
        self.pool.intern(s)
    }

    /// Resolve an interned name back to text.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        self.pool.resolve(sym)
    }

    /// Append a span (engine-internal, but public for custom recorders).
    pub fn push(&mut self, span: TraceSpan) {
        debug_assert!(span.end >= span.start, "span ends before it starts");
        self.spans.push(span);
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans matching a predicate, copied into a new trace sharing the pool.
    pub fn filter(&self, mut pred: impl FnMut(&TraceSpan) -> bool) -> Trace {
        Trace {
            spans: self.spans.iter().filter(|s| pred(s)).copied().collect(),
            pool: Arc::clone(&self.pool),
        }
    }

    /// Sum of raw span durations in a category (double-counts overlap).
    pub fn total(&self, category: Category) -> SimDur {
        self.spans
            .iter()
            .filter(|s| s.category == category)
            .map(|s| s.dur())
            .sum()
    }

    /// Length of the *union* of intervals in a category (no double counting).
    pub fn busy(&self, category: Category) -> SimDur {
        union_len(&self.intervals(category))
    }

    /// Length of time where `a`-category and `b`-category activity coexist.
    ///
    /// This is the paper's "overlapped communication": intersect the union of
    /// communication intervals with the union of compute intervals.
    pub fn overlap(&self, a: Category, b: Category) -> SimDur {
        intersect_len(&self.intervals(a), &self.intervals(b))
    }

    /// Fraction of `a`'s busy time that coexists with `b` (0.0–1.0).
    ///
    /// Returns 0.0 when `a` has no busy time.
    pub fn overlap_ratio(&self, a: Category, b: Category) -> f64 {
        let busy = self.busy(a).as_nanos();
        if busy == 0 {
            return 0.0;
        }
        self.overlap(a, b).as_nanos() as f64 / busy as f64
    }

    /// Merged, sorted interval list for a category.
    fn intervals(&self, category: Category) -> Vec<(u64, u64)> {
        let mut iv: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.category == category && s.end > s.start)
            .map(|s| (s.start.as_nanos(), s.end.as_nanos()))
            .collect();
        iv.sort_unstable();
        merge(iv)
    }

    /// Export in Chrome tracing (catapult) JSON format — open in
    /// `chrome://tracing` or Perfetto for an interactive Nsight-style view.
    ///
    /// Each agent becomes a "thread"; spans become complete (`ph:"X"`)
    /// events with microsecond timestamps.
    pub fn to_chrome_json(&self) -> String {
        let mut agents: Vec<(AgentId, Sym)> = Vec::new();
        for s in &self.spans {
            if !agents.iter().any(|(id, _)| *id == s.agent) {
                agents.push((s.agent, s.agent_name));
            }
        }
        agents.sort_by_key(|(id, _)| *id);
        let threads = agents.iter().map(|(id, name)| {
            Json::obj([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", 0u64.into()),
                ("tid", id.0.into()),
                (
                    "args",
                    Json::obj([("name", Json::from(&*self.resolve(*name)))]),
                ),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(&*self.resolve(s.label))),
                ("cat", s.category.tag().into()),
                ("ph", "X".into()),
                ("ts", Json::fixed(s.start.as_micros_f64(), 3)),
                ("dur", Json::fixed(s.dur().as_micros_f64(), 3)),
                ("pid", 0u64.into()),
                ("tid", s.agent.0.into()),
            ])
        });
        json::write(&Json::obj([(
            "traceEvents",
            threads.chain(spans).collect(),
        )]))
    }

    /// Render a fixed-width ASCII timeline grouped by agent name — the
    /// simulator's stand-in for the paper's Nsight screenshots (Fig 2.1b/5.1b).
    ///
    /// `width` is the number of character columns used for the time axis.
    pub fn render_timeline(&self, width: usize) -> String {
        let width = width.max(10);
        let mut out = String::new();
        if self.spans.is_empty() {
            out.push_str("(empty trace)\n");
            return out;
        }
        let t0 = self.spans.iter().map(|s| s.start).min().unwrap();
        let t1 = self.spans.iter().map(|s| s.end).max().unwrap();
        let total = (t1.since(t0).as_nanos()).max(1);
        let mut by_agent: BTreeMap<Arc<str>, Vec<&TraceSpan>> = BTreeMap::new();
        for s in &self.spans {
            by_agent
                .entry(self.resolve(s.agent_name))
                .or_default()
                .push(s);
        }
        let name_w = by_agent.keys().map(|n| n.len()).max().unwrap_or(4).max(5);
        let _ = writeln!(
            out,
            "{:name_w$} |{}| span {} .. {}",
            "agent",
            "-".repeat(width),
            t0,
            t1
        );
        for (name, spans) in by_agent {
            let mut row = vec![b' '; width];
            for s in spans {
                let a = ((s.start.since(t0).as_nanos()) as u128 * width as u128 / total as u128)
                    as usize;
                let b =
                    ((s.end.since(t0).as_nanos()) as u128 * width as u128 / total as u128) as usize;
                let b = b.clamp(a + 1, width).min(width);
                let ch = match s.category {
                    Category::Compute => b'#',
                    Category::Comm => b'~',
                    Category::Sync => b'.',
                    Category::Launch => b'L',
                    Category::Api => b'a',
                    Category::Other => b'o',
                };
                for c in &mut row[a.min(width - 1)..b] {
                    // Keep the "densest" marker: compute wins over waits.
                    if *c == b' ' || *c == b'.' {
                        *c = ch;
                    }
                }
            }
            let _ = writeln!(
                out,
                "{:name_w$} |{}|",
                name,
                String::from_utf8(row).unwrap()
            );
        }
        out.push_str("legend: # compute  ~ comm  . sync-wait  L launch  a api\n");
        out
    }
}

/// Merge sorted intervals into disjoint ones.
fn merge(iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of disjoint intervals.
fn union_len(iv: &[(u64, u64)]) -> SimDur {
    SimDur(iv.iter().map(|(s, e)| e - s).sum())
}

/// Total length of the intersection of two disjoint, sorted interval lists.
fn intersect_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> SimDur {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            acc += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    SimDur(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    fn span(t: &Trace, cat: Category, a: u64, b: u64) -> TraceSpan {
        TraceSpan {
            agent: AgentId(0),
            agent_name: t.intern("t"),
            start: SimTime(a),
            end: SimTime(b),
            category: cat,
            label: Sym::EMPTY,
        }
    }

    #[test]
    fn totals_and_busy_differ_under_overlap() {
        let mut t = Trace::new();
        let s1 = span(&t, Category::Comm, 0, 100);
        let s2 = span(&t, Category::Comm, 50, 150);
        t.push(s1);
        t.push(s2);
        assert_eq!(t.total(Category::Comm).as_nanos(), 200);
        assert_eq!(t.busy(Category::Comm).as_nanos(), 150);
    }

    #[test]
    fn overlap_between_categories() {
        let mut t = Trace::new();
        let s1 = span(&t, Category::Comm, 0, 100);
        let s2 = span(&t, Category::Compute, 60, 200);
        t.push(s1);
        t.push(s2);
        assert_eq!(t.overlap(Category::Comm, Category::Compute).as_nanos(), 40);
        let r = t.overlap_ratio(Category::Comm, Category::Compute);
        assert!((r - 0.4).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_zero_when_empty() {
        let t = Trace::new();
        assert_eq!(t.overlap_ratio(Category::Comm, Category::Compute), 0.0);
    }

    #[test]
    fn merge_handles_adjacent_and_nested() {
        assert_eq!(merge(vec![(0, 10), (10, 20), (15, 18)]), vec![(0, 20)]);
        assert_eq!(merge(vec![(0, 5), (7, 9)]), vec![(0, 5), (7, 9)]);
    }

    #[test]
    fn intersect_disjoint_lists() {
        let a = vec![(0, 10), (20, 30)];
        let b = vec![(5, 25)];
        assert_eq!(intersect_len(&a, &b).as_nanos(), 10);
    }

    #[test]
    fn timeline_renders_rows() {
        let mut t = Trace::new();
        let s1 = span(&t, Category::Compute, 0, us(10.0).as_nanos());
        let s2 = span(&t, Category::Comm, 0, us(5.0).as_nanos());
        t.push(s1);
        t.push(s2);
        let s = t.render_timeline(40);
        assert!(s.contains('#'));
        assert!(s.contains("legend"));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Trace::new();
        let s = TraceSpan {
            agent: AgentId(3),
            agent_name: t.intern("gpu0.\"comm\""),
            start: SimTime(1000),
            end: SimTime(3500),
            category: Category::Comm,
            label: t.intern("halo \"put\""),
        };
        t.push(s);
        let doc = json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let (thread, span) = (&events[0], &events[1]);
        assert_eq!(
            thread.get("name").and_then(Json::as_str),
            Some("thread_name")
        );
        let thread_name = thread.get("args").and_then(|a| a.get("name"));
        assert_eq!(thread_name.and_then(Json::as_str), Some("gpu0.\"comm\""));
        assert_eq!(
            span.get("name").and_then(Json::as_str),
            Some("halo \"put\"")
        );
        assert_eq!(span.get("tid").and_then(Json::num::<u64>), Some(3));
        assert_eq!(span.get("ts"), Some(&Json::Num("1.000".into())));
        assert_eq!(span.get("dur"), Some(&Json::Num("2.500".into())));
    }

    #[test]
    fn chrome_json_empty_trace() {
        let doc = json::parse(&Trace::new().to_chrome_json()).expect("valid JSON");
        assert_eq!(doc, Json::obj([("traceEvents", Json::Arr(Vec::new()))]));
    }

    #[test]
    fn tags_are_uniform_trimmed_uppercase() {
        for cat in Category::ALL {
            let tag = cat.tag();
            assert_eq!(tag, tag.trim(), "tag {tag:?} carries padding");
            assert_eq!(tag, tag.to_uppercase());
            assert!((1..=4).contains(&tag.len()), "tag {tag:?} length");
            // Padded display is what aligns timeline columns.
            assert_eq!(format!("{:<4}", tag).len(), 4);
        }
    }

    #[test]
    fn filter_copies_matching_spans_and_shares_pool() {
        let mut t = Trace::new();
        let s1 = span(&t, Category::Comm, 0, 10);
        let s2 = span(&t, Category::Compute, 0, 10);
        t.push(s1);
        t.push(s2);
        let only = t.filter(|s| s.category == Category::Comm);
        assert_eq!(only.len(), 1);
        assert_eq!(&*only.resolve(only.spans()[0].agent_name), "t");
    }

    #[test]
    fn spans_are_copy_and_small() {
        // The hot path moves spans by value; keep them register-friendly.
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceSpan>();
        assert!(std::mem::size_of::<TraceSpan>() <= 48);
    }
}
