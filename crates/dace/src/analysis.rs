//! Static communication analysis: symbolic per-PE traces and the
//! communication graph the protocol verifier reasons over.
//!
//! [`CommGraph::build`] instantiates an [`Sdfg`] once per rank (the same
//! SPMD expansion the backends perform) but *without executing anything*:
//! each PE's control flow is linearized into a trace of communication and
//! memory **events** — puts, signals, waits, quiets, and the read/write
//! footprints of maps and copies. Loops are not unrolled in full; the outer
//! (time) loop is sampled at its first, second and last iteration, which is
//! faithful for the affine counter progressions the CPU-Free protocols use
//! (a signal value like `t` advances by the same stride every iteration, so
//! three samples pin down the whole progression — see
//! [`Expr::affine`](crate::expr::Expr::affine)).
//!
//! The verifier ([`crate::verify`]) consumes these traces to check signal ↔
//! wait balance, nbi source reuse, halo coverage and cross-PE wait cycles
//! for **every** rank instantiation, mirroring the vocabulary of the
//! dynamic happens-before checker in `sim-des`.

use crate::expr::{Bindings, Expr};
use crate::ir::{Cf, DataRef, LibNode, MapOp, Op, Resolved, Sdfg, State, TaskletKind};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Maximum trip count at which an *inner* loop is expanded in full rather
/// than sampled at its first/second/last iteration.
const INNER_LOOP_EXPAND_LIMIT: i64 = 64;

// ---------------------------------------------------------------------------
// Interval sets
// ---------------------------------------------------------------------------

/// A set of flat array cells, stored as sorted disjoint half-open intervals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    iv: Vec<(usize, usize)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> IntervalSet {
        IntervalSet::default()
    }

    /// Build from arbitrary (possibly overlapping, unsorted) intervals.
    pub fn from_intervals(mut raw: Vec<(usize, usize)>) -> IntervalSet {
        raw.retain(|(lo, hi)| lo < hi);
        raw.sort_unstable();
        let mut iv: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
        for (lo, hi) in raw {
            match iv.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => iv.push((lo, hi)),
            }
        }
        IntervalSet { iv }
    }

    /// The cells touched by a resolved (possibly strided) subset.
    pub fn from_resolved(r: &Resolved) -> IntervalSet {
        if r.stride <= 1 {
            IntervalSet::from_intervals(vec![(r.offset, r.offset + r.count)])
        } else {
            IntervalSet::from_intervals(
                (0..r.count)
                    .map(|k| (r.offset + k * r.stride, r.offset + k * r.stride + 1))
                    .collect(),
            )
        }
    }

    /// `true` when no cell is in the set.
    pub fn is_empty(&self) -> bool {
        self.iv.is_empty()
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.iv.iter().map(|(lo, hi)| hi - lo).sum()
    }

    /// The sorted disjoint intervals.
    pub fn intervals(&self) -> &[(usize, usize)] {
        &self.iv
    }

    /// Is `c` in the set?
    pub fn contains(&self, c: usize) -> bool {
        self.iv
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c >= hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Union in place.
    pub fn union_with(&mut self, other: &IntervalSet) {
        if other.is_empty() {
            return;
        }
        let mut raw = std::mem::take(&mut self.iv);
        raw.extend_from_slice(&other.iv);
        *self = IntervalSet::from_intervals(raw);
    }

    /// Do the two sets share any cell?
    pub fn overlaps(&self, other: &IntervalSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.iv.len() && j < other.iv.len() {
            let (alo, ahi) = self.iv[i];
            let (blo, bhi) = other.iv[j];
            if alo < bhi && blo < ahi {
                return true;
            }
            if ahi <= bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Set difference `self − other`.
    pub fn minus(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        for &(lo, hi) in &self.iv {
            let mut cur = lo;
            for &(blo, bhi) in &other.iv {
                if bhi <= cur {
                    continue;
                }
                if blo >= hi {
                    break;
                }
                if blo > cur {
                    out.push((cur, blo.min(hi)));
                }
                cur = cur.max(bhi);
                if cur >= hi {
                    break;
                }
            }
            if cur < hi {
                out.push((cur, hi));
            }
        }
        IntervalSet { iv: out }
    }

    /// Iterate all cells (ascending).
    pub fn cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.iv.iter().flat_map(|&(lo, hi)| lo..hi)
    }
}

// ---------------------------------------------------------------------------
// Tasklet / op footprints
// ---------------------------------------------------------------------------

/// Per-array read and write cell sets of one operation, by array name.
#[derive(Debug, Clone, Default)]
pub(crate) struct Footprint<'m> {
    pub reads: Vec<(&'m str, IntervalSet)>,
    pub writes: Vec<(&'m str, IntervalSet)>,
}

/// Exact cell footprint of a map's tasklet under bindings, given each
/// array's resolved shape. The 2D stencil footprint is the center block
/// plus four *edge strips* (no corners) — bounding boxes would claim halo
/// corners the tasklet never reads and break halo-coverage reasoning.
pub(crate) fn map_footprint<'m, 's>(
    m: &'m MapOp,
    b: &Bindings,
    shape: impl Fn(&str) -> &'s [i64],
) -> Footprint<'m> {
    let mut fp = Footprint::default();
    match &m.tasklet {
        TaskletKind::Jacobi1d { src, dst } => {
            let (_, lo, hi) = &m.range[0];
            let (lo, hi) = (lo.eval(b), hi.eval(b));
            if hi < lo {
                return fp;
            }
            let (lo, hi) = (lo as usize, hi as usize);
            fp.reads
                .push((src, IntervalSet::from_intervals(vec![(lo - 1, hi + 2)])));
            fp.writes
                .push((dst, IntervalSet::from_intervals(vec![(lo, hi + 1)])));
        }
        TaskletKind::Jacobi2d { src, dst } => {
            let (_, ilo, ihi) = &m.range[0];
            let (_, jlo, jhi) = &m.range[1];
            let (ilo, ihi) = (ilo.eval(b), ihi.eval(b));
            let (jlo, jhi) = (jlo.eval(b), jhi.eval(b));
            if ihi < ilo || jhi < jlo {
                return fp;
            }
            let lc = shape(src)[1] as usize;
            let (ilo, ihi, jlo, jhi) = (ilo as usize, ihi as usize, jlo as usize, jhi as usize);
            let mut reads = Vec::with_capacity(ihi - ilo + 3);
            // Center rows widened one column either side (west/east strips).
            for i in ilo..=ihi {
                reads.push((i * lc + jlo - 1, i * lc + jhi + 2));
            }
            // North and south strips, corners excluded.
            reads.push(((ilo - 1) * lc + jlo, (ilo - 1) * lc + jhi + 1));
            reads.push(((ihi + 1) * lc + jlo, (ihi + 1) * lc + jhi + 1));
            fp.reads.push((src, IntervalSet::from_intervals(reads)));
            let lcd = shape(dst)[1] as usize;
            let writes = (ilo..=ihi)
                .map(|i| (i * lcd + jlo, i * lcd + jhi + 1))
                .collect();
            fp.writes.push((dst, IntervalSet::from_intervals(writes)));
        }
    }
    fp
}

// ---------------------------------------------------------------------------
// Events and traces
// ---------------------------------------------------------------------------

/// One symbolic event in a PE's linearized trace. Array names and labels
/// are borrowed from the [`Sdfg`].
#[derive(Debug, Clone)]
pub(crate) enum Ev<'a> {
    /// A put (any flavor) into `dst_pe`'s copy of `array`.
    Put {
        dst_pe: usize,
        array: &'a str,
        /// Destination placement, kept raw for coverage alignment.
        dst: Resolved,
        src_array: &'a str,
        src_cells: IntervalSet,
        /// Combined completion signal (flag id, value), if any.
        sig: Option<(u32, i64)>,
        /// Non-blocking: the source stays in flight until quiet/round-trip.
        nbi: bool,
        label: &'static str,
    },
    /// A bare remote signal (`signal_op`).
    Signal { dst_pe: usize, sig: u32, val: i64 },
    /// `signal_wait(sig >= val)`.
    Wait { sig: u32, val: i64 },
    /// `quiet()` — completes this PE's outstanding nbi effects.
    Quiet,
    /// Local read footprint (maps, copies, send payloads).
    Read { array: &'a str, cells: IntervalSet },
    /// Local write footprint (maps, copies, recv landings).
    Write {
        array: &'a str,
        cells: IntervalSet,
        label: Cow<'a, str>,
    },
    /// MPI `Isend` of `count` cells.
    Send {
        dst_pe: usize,
        tag: u32,
        count: usize,
    },
    /// MPI `Irecv` of `count` cells.
    Recv {
        src_pe: usize,
        tag: u32,
        count: usize,
    },
}

/// An event tagged with the phase (iteration sample) it belongs to.
#[derive(Debug, Clone)]
pub(crate) struct TraceEv<'a> {
    pub phase: usize,
    pub ev: Ev<'a>,
}

/// One PE's linearized symbolic trace.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeTrace<'a> {
    pub evs: Vec<TraceEv<'a>>,
}

/// The per-iteration symbolic communication graph of an SDFG: one trace per
/// rank instantiation plus the shared phase structure.
///
/// A **phase** is one sampled iteration of a top-level loop (or a run of
/// top-level states outside any loop). All PEs share the phase numbering —
/// the SPMD programs the backends accept have rank-uniform loop bounds — so
/// "the wait in phase 3" and "the put in phase 3" refer to the same
/// iteration on every rank.
#[derive(Debug, Clone)]
pub struct CommGraph<'a> {
    n_pes: usize,
    pub(crate) traces: Vec<PeTrace<'a>>,
    /// Per phase: the outer-loop variable's sampled value, if a loop phase.
    pub(crate) loop_value: Vec<Option<i64>>,
}

impl<'a> CommGraph<'a> {
    /// Instantiate the graph for `n_pes` ranks under `user` symbol bindings.
    pub fn build(sdfg: &'a Sdfg, n_pes: usize, user: &Bindings) -> CommGraph<'a> {
        let mut traces = Vec::with_capacity(n_pes);
        let mut loop_value: Vec<Option<i64>> = Vec::new();
        for pe in 0..n_pes {
            let mut b = sdfg.bindings(pe, n_pes, user);
            let mut w = Walker {
                sdfg,
                n: n_pes,
                // Array shapes are loop-invariant: the lowering allocates
                // every array once per PE under these bindings.
                shapes: sdfg
                    .arrays
                    .iter()
                    .map(|a| a.shape.iter().map(|e| e.eval(&b)).collect())
                    .collect(),
                evs: Vec::new(),
                phase: 0,
                loop_value: Vec::new(),
            };
            w.note_phase(None);
            w.walk(&sdfg.body, &mut b, 0);
            if pe == 0 {
                loop_value = w.loop_value;
            }
            traces.push(PeTrace { evs: w.evs });
        }
        CommGraph {
            n_pes,
            traces,
            loop_value,
        }
    }

    /// Number of rank instantiations.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// The PEs `pe` exchanges data with (puts, signals or messages, in
    /// either direction).
    pub fn partners(&self, pe: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for (p, trace) in self.traces.iter().enumerate() {
            for tev in &trace.evs {
                let target = match &tev.ev {
                    Ev::Put { dst_pe, .. }
                    | Ev::Signal { dst_pe, .. }
                    | Ev::Send { dst_pe, .. } => Some(*dst_pe),
                    _ => None,
                };
                if let Some(q) = target {
                    if p == pe && q != pe {
                        out.insert(q);
                    } else if q == pe && p != pe {
                        out.insert(p);
                    }
                }
            }
        }
        out
    }

    /// Which PEs may safely report iteration commits to the dynamic
    /// checker's divergence monitor: a PE is eligible only when **every**
    /// rank-adjacent PE (`pe ± 1`) is also a communication partner —
    /// otherwise the pair has no protocol reason to stay in lockstep and
    /// the monitor would report spurious divergence (e.g. the row-wrap
    /// neighbors of a 2D process grid).
    pub fn iteration_eligible(&self) -> Vec<bool> {
        (0..self.n_pes)
            .map(|pe| {
                let partners = self.partners(pe);
                let mut nbs = Vec::new();
                if pe > 0 {
                    nbs.push(pe - 1);
                }
                if pe + 1 < self.n_pes {
                    nbs.push(pe + 1);
                }
                !nbs.is_empty() && nbs.iter().all(|q| partners.contains(q))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The trace walker
// ---------------------------------------------------------------------------

struct Walker<'a> {
    sdfg: &'a Sdfg,
    n: usize,
    /// Per array of `sdfg.arrays`: its shape on this PE.
    shapes: Vec<Vec<i64>>,
    evs: Vec<TraceEv<'a>>,
    phase: usize,
    loop_value: Vec<Option<i64>>,
}

impl<'a> Walker<'a> {
    fn note_phase(&mut self, value: Option<i64>) {
        while self.loop_value.len() <= self.phase {
            self.loop_value.push(None);
        }
        self.loop_value[self.phase] = value;
    }

    fn shape(&self, name: &str) -> &[i64] {
        let i = self
            .sdfg
            .arrays
            .iter()
            .position(|a| a.name == name)
            .unwrap_or_else(|| panic!("unknown array `{name}`"));
        &self.shapes[i]
    }

    /// The flat cells `r` touches on this PE.
    fn resolve(&self, r: &DataRef, b: &Bindings) -> Resolved {
        r.resolve(self.shape(&r.array), b)
    }

    fn emit(&mut self, ev: Ev<'a>) {
        self.evs.push(TraceEv {
            phase: self.phase,
            ev,
        });
    }

    /// Sample values for a loop `lo..=hi`: first, second and last iteration.
    fn samples(lo: i64, hi: i64) -> Vec<i64> {
        let mut s = vec![lo];
        if hi > lo {
            s.push(lo + 1);
        }
        if hi > lo + 1 {
            s.push(hi);
        }
        s
    }

    fn walk(&mut self, body: &'a [Cf], b: &mut Bindings, depth: usize) {
        for cf in body {
            match cf {
                Cf::State(s) => self.state(s, b),
                Cf::Loop {
                    var,
                    start,
                    end,
                    body,
                    ..
                } => {
                    let (lo, hi) = (start.eval(b), end.eval(b));
                    if hi < lo {
                        continue;
                    }
                    if depth == 0 {
                        // Top-level (time) loop: each sample is a phase.
                        for v in Self::samples(lo, hi) {
                            self.phase += 1;
                            self.note_phase(Some(v));
                            b.insert(var.clone(), v);
                            self.walk(body, b, depth + 1);
                        }
                        b.remove(var);
                        // States after the loop get their own phase.
                        self.phase += 1;
                        self.note_phase(None);
                    } else {
                        // Inner loop: expand (bounded) within the phase.
                        let values: Vec<i64> = if hi - lo < INNER_LOOP_EXPAND_LIMIT {
                            (lo..=hi).collect()
                        } else {
                            Self::samples(lo, hi)
                        };
                        for v in values {
                            b.insert(var.clone(), v);
                            self.walk(body, b, depth + 1);
                        }
                        b.remove(var);
                    }
                }
            }
        }
    }

    fn state(&mut self, s: &'a State, b: &Bindings) {
        for gop in &s.ops {
            if !gop.active(b) {
                continue;
            }
            match &gop.op {
                Op::Map(m) => {
                    let fp = map_footprint(m, b, |name| self.shape(name));
                    for (array, cells) in fp.reads {
                        self.emit(Ev::Read { array, cells });
                    }
                    for (array, cells) in fp.writes {
                        self.emit(Ev::Write {
                            array,
                            cells,
                            label: Cow::Borrowed(&m.name),
                        });
                    }
                }
                Op::Copy { dst, src } => {
                    let rs = self.resolve(src, b);
                    let rd = self.resolve(dst, b);
                    self.emit(Ev::Read {
                        array: &src.array,
                        cells: IntervalSet::from_resolved(&rs),
                    });
                    self.emit(Ev::Write {
                        array: &dst.array,
                        cells: IntervalSet::from_resolved(&rd),
                        label: Cow::Borrowed("copy"),
                    });
                }
                Op::Lib(lib) => self.lib(lib, b),
            }
        }
    }

    fn target(&self, e: &Expr, b: &Bindings) -> Option<usize> {
        let t = e.eval(b);
        (t >= 0 && (t as usize) < self.n).then_some(t as usize)
    }

    #[allow(clippy::too_many_arguments)]
    fn put(
        &mut self,
        dst: &'a DataRef,
        src: &'a DataRef,
        pe: &Expr,
        sig: Option<(u32, i64)>,
        nbi: bool,
        label: &'static str,
        b: &Bindings,
    ) {
        let Some(target) = self.target(pe, b) else {
            return; // out-of-range target: the wait side will be flagged
        };
        let rd = self.resolve(dst, b);
        let rs = self.resolve(src, b);
        self.emit(Ev::Put {
            dst_pe: target,
            array: &dst.array,
            dst: rd,
            src_array: &src.array,
            src_cells: IntervalSet::from_resolved(&rs),
            sig,
            nbi,
            label,
        });
    }

    fn lib(&mut self, lib: &'a LibNode, b: &Bindings) {
        match lib {
            LibNode::PutmemSignal {
                dst,
                src,
                sig,
                val,
                pe,
            } => {
                self.put(
                    dst,
                    src,
                    pe,
                    Some((*sig, val.eval(b))),
                    true,
                    "putmem_signal",
                    b,
                );
            }
            LibNode::PutmemSignalBlock {
                dst,
                src,
                sig,
                val,
                pe,
            } => {
                self.put(
                    dst,
                    src,
                    pe,
                    Some((*sig, val.eval(b))),
                    true,
                    "putmem_signal_block",
                    b,
                );
            }
            LibNode::PutMapped { dst, src, pe } => {
                // Blocking in-kernel mapped put: the source read completes
                // before the op returns.
                self.put(dst, src, pe, None, false, "put_mapped", b);
            }
            LibNode::Iput { dst, src, pe } => {
                self.put(dst, src, pe, None, true, "iput", b);
            }
            LibNode::PutSingle { dst, src, pe } => {
                self.put(dst, src, pe, None, true, "p", b);
            }
            LibNode::SignalOp { sig, val, pe } => {
                if let Some(target) = self.target(pe, b) {
                    self.emit(Ev::Signal {
                        dst_pe: target,
                        sig: *sig,
                        val: val.eval(b),
                    });
                }
            }
            LibNode::SignalWait { sig, val } => {
                self.emit(Ev::Wait {
                    sig: *sig,
                    val: val.eval(b),
                });
            }
            LibNode::Quiet => self.emit(Ev::Quiet),
            LibNode::MpiIsend { buf, dest, tag } => {
                let r = self.resolve(buf, b);
                self.emit(Ev::Read {
                    array: &buf.array,
                    cells: IntervalSet::from_resolved(&r),
                });
                if let Some(target) = self.target(dest, b) {
                    self.emit(Ev::Send {
                        dst_pe: target,
                        tag: *tag,
                        count: r.count,
                    });
                }
            }
            LibNode::MpiIrecv { buf, src, tag } => {
                let r = self.resolve(buf, b);
                if let Some(from) = self.target(src, b) {
                    self.emit(Ev::Recv {
                        src_pe: from,
                        tag: *tag,
                        count: r.count,
                    });
                }
                // The landing cells are locally (remotely-sourced) written.
                self.emit(Ev::Write {
                    array: &buf.array,
                    cells: IntervalSet::from_resolved(&r),
                    label: Cow::Owned(format!("Irecv tag {tag}")),
                });
            }
            LibNode::MpiWaitall => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Jacobi1dSetup;
    use crate::transform::to_cpu_free;

    #[test]
    fn interval_set_algebra() {
        let a = IntervalSet::from_intervals(vec![(5, 9), (0, 3), (8, 12)]);
        assert_eq!(a.intervals(), &[(0, 3), (5, 12)]);
        assert_eq!(a.len(), 10);
        assert!(a.contains(0) && a.contains(11) && !a.contains(4));
        let b = IntervalSet::from_intervals(vec![(2, 6)]);
        assert!(a.overlaps(&b));
        let d = a.minus(&b);
        assert_eq!(d.intervals(), &[(0, 2), (6, 12)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.intervals(), &[(0, 12)]);
        assert!(!IntervalSet::new().overlaps(&a));
    }

    #[test]
    fn strided_resolved_cells() {
        let r = Resolved {
            offset: 10,
            count: 3,
            stride: 10,
        };
        let s = IntervalSet::from_resolved(&r);
        assert_eq!(s.intervals(), &[(10, 11), (20, 21), (30, 31)]);
    }

    #[test]
    fn jacobi1d_graph_partners_are_rank_neighbors() {
        let mut sdfg = Jacobi1dSetup::new(8, 3, 4).sdfg;
        to_cpu_free(&mut sdfg).unwrap();
        let user = Jacobi1dSetup::new(8, 3, 4).user_bindings();
        let g = CommGraph::build(&sdfg, 4, &user);
        assert_eq!(g.partners(0), [1].into_iter().collect());
        assert_eq!(g.partners(1), [0, 2].into_iter().collect());
        assert_eq!(g.partners(3), [2].into_iter().collect());
        assert_eq!(g.iteration_eligible(), vec![true; 4]);
        // Three samples of t in 1..=3 plus the pre/post phases.
        assert!(g.loop_value.contains(&Some(1)));
        assert!(g.loop_value.contains(&Some(2)));
        assert!(g.loop_value.contains(&Some(3)));
    }

    #[test]
    fn single_pe_has_no_events_but_builds() {
        let mut sdfg = Jacobi1dSetup::new(8, 2, 1).sdfg;
        to_cpu_free(&mut sdfg).unwrap();
        let user = Jacobi1dSetup::new(8, 2, 1).user_bindings();
        let g = CommGraph::build(&sdfg, 1, &user);
        assert!(g.partners(0).is_empty());
        assert_eq!(g.iteration_eligible(), vec![false]);
    }
}
