//! The persistent backend's schedule (§5.3.2), shared by the executor
//! ([`crate::lower`]) and the static cost predictor ([`crate::cost`]).
//!
//! [`walk`] unrolls one PE's control flow into [`Step`]s: every active op
//! in program order, a [`Step::GridSync`] wherever a map follows
//! communication and at the end of every state that communicated
//! (communication is issued by a single thread, and a grid-wide barrier
//! separates it from data-parallel maps), and a [`Step::IterEnd`] after
//! each iteration of a top-level persistent loop. [`resolve_shapes`] is
//! the array-shape resolution both run first.

use crate::expr::Bindings;
use crate::ir::{Cf, DataRef, LibNode, MapOp, Op, Sdfg};
use crate::lower::LowerError;
use std::collections::BTreeMap;

/// One step of a PE's persistent-kernel execution.
pub(crate) enum Step<'a> {
    /// A data-parallel map.
    Map(&'a MapOp),
    /// An in-kernel copy.
    Copy { dst: &'a DataRef, src: &'a DataRef },
    /// An NVSHMEM library node, issued by a single thread.
    Lib(&'a LibNode),
    /// The grid-wide barrier that closes a run of communication.
    GridSync,
    /// One iteration of a top-level persistent loop finished; carries the
    /// loop variable's value.
    IterEnd(i64),
}

/// Every array's shape, which must be the same on all PEs.
pub(crate) fn resolve_shapes(
    sdfg: &Sdfg,
    n_pes: usize,
    user: &Bindings,
) -> Result<BTreeMap<String, Vec<i64>>, LowerError> {
    let b0 = sdfg.bindings(0, n_pes, user);
    let others: Vec<Bindings> = (1..n_pes)
        .map(|pe| sdfg.bindings(pe, n_pes, user))
        .collect();
    let mut shapes = BTreeMap::new();
    for a in &sdfg.arrays {
        let shape_at = |b: &Bindings| -> Vec<i64> { a.shape.iter().map(|e| e.eval(b)).collect() };
        let s0 = shape_at(&b0);
        if others.iter().any(|b| shape_at(b) != s0) {
            return Err(LowerError::NonUniformShape(a.name.clone()));
        }
        shapes.insert(a.name.clone(), s0);
    }
    Ok(shapes)
}

/// Trip count of the single top-level persistent loop, when the body is
/// exactly that loop and its bounds agree across PEs.
pub(crate) fn persistent_trip_count(sdfg: &Sdfg, n_pes: usize, user: &Bindings) -> Option<i64> {
    let [Cf::Loop {
        start,
        end,
        persistent: true,
        ..
    }] = sdfg.body.as_slice()
    else {
        return None;
    };
    let b0 = sdfg.bindings(0, n_pes, user);
    let (lo, hi) = (start.eval(&b0), end.eval(&b0));
    for pe in 1..n_pes {
        let b = sdfg.bindings(pe, n_pes, user);
        if (start.eval(&b), end.eval(&b)) != (lo, hi) {
            return None;
        }
    }
    (hi >= lo).then(|| hi - lo + 1)
}

/// Feed `f` the steps of `body` under the PE bindings `b`, binding each
/// loop variable as it goes. `cap` limits the trip count of top-level
/// persistent loops (the cost predictor's warm-up window).
pub(crate) fn walk<'a>(
    body: &'a [Cf],
    b: &mut Bindings,
    cap: Option<i64>,
    f: &mut impl FnMut(Step<'a>, &Bindings),
) {
    walk_cf(body, b, true, cap, f);
}

fn walk_cf<'a>(
    body: &'a [Cf],
    b: &mut Bindings,
    top: bool,
    cap: Option<i64>,
    f: &mut impl FnMut(Step<'a>, &Bindings),
) {
    for cf in body {
        match cf {
            Cf::Loop {
                var,
                start,
                end,
                body,
                persistent,
            } => {
                let outer = top && *persistent;
                let lo = start.eval(b);
                let mut hi = end.eval(b);
                if let (true, Some(cap)) = (outer, cap) {
                    hi = hi.min(lo + cap - 1);
                }
                for v in lo..=hi {
                    b.insert(var.clone(), v);
                    walk_cf(body, b, false, cap, f);
                    if outer {
                        f(Step::IterEnd(v), b);
                    }
                }
            }
            Cf::State(state) => {
                let mut comm_since_sync = false;
                for gop in &state.ops {
                    if !gop.active(b) {
                        continue;
                    }
                    match &gop.op {
                        Op::Map(m) => {
                            if comm_since_sync {
                                f(Step::GridSync, b);
                                comm_since_sync = false;
                            }
                            f(Step::Map(m), b);
                        }
                        Op::Copy { dst, src } => f(Step::Copy { dst, src }, b),
                        Op::Lib(lib) => {
                            comm_since_sync = true;
                            f(Step::Lib(lib), b);
                        }
                    }
                }
                if comm_since_sync {
                    f(Step::GridSync, b);
                }
            }
        }
    }
}
