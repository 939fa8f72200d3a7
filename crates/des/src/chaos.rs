//! Deterministic chaos engineering: fault-plan serialization, outcome
//! taxonomy, and schedule shrinking.
//!
//! The chaos engine (driven from the bench crate, which can see the
//! workloads) systematically explores [`FaultPlan`] space and classifies
//! every run against explicit **recovery invariants**:
//!
//! 1. **Bit-identical recovery** — a run that completes must produce the
//!    exact result of the fault-free baseline (or, in degraded mode, the
//!    documented quorum result);
//! 2. **Bounded recovery time** — virtual completion time stays within a
//!    stated budget of the baseline;
//! 3. **No unattributed hang** — every non-completion must surface a
//!    [`SimError::Timeout`]/[`SimError::Deadlock`] with a wait-for graph,
//!    or a checker diagnostic (an [`SimError::AgentPanic`] carrying one).
//!
//! This module holds the *pure data* half of the engine: the JSON
//! round-trip for [`FaultPlan`] ([`FaultPlan::to_json`] /
//! [`FaultPlan::from_json`] over [`crate::json`] — reproducers must be
//! replayable from a single file), the [`ChaosOutcome`] taxonomy
//! every schedule is classified into, and [`shrink`] — a delta-debugging
//! minimizer that reduces a failing plan to a 1-minimal fault list and then
//! tightens injection windows, so every finding ships as a minimal
//! replayable reproducer.

use crate::engine::SimError;
use crate::fault::{CrashFault, DropFault, FaultPlan, LinkFault, StragglerFault};
use crate::json::Json;
use crate::time::SimTime;
use std::str::FromStr;

// ---------------------------------------------------------------------------
// Outcome taxonomy
// ---------------------------------------------------------------------------

/// Classification of one fault schedule's run against the recovery
/// invariants. The first four are acceptable outcomes; the rest are
/// invariant violations the shrinker turns into minimal reproducers.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOutcome {
    /// Completed with a result bit-identical to the fault-free baseline.
    CompletedIdentical,
    /// Completed in degraded mode: the surviving quorum (sorted PE ids)
    /// produced the documented degraded result.
    CompletedDegraded {
        /// The PEs that contributed to the result, ascending.
        quorum: Vec<usize>,
    },
    /// Did not complete, but the failure is attributed: a timeout or
    /// deadlock with a wait-for graph.
    AttributedTimeout {
        /// Human-readable attribution (blocked agents / cycle).
        detail: String,
    },
    /// Did not complete, but a diagnostic names the cause (checker
    /// diagnostic, partition report, retry exhaustion, agent panic).
    AttributedDiagnostic {
        /// Human-readable diagnostic text.
        detail: String,
    },
    /// VIOLATION: completed but the result silently differs from the
    /// baseline (or from the documented quorum result).
    SilentDivergence {
        /// What diverged (checksums, residuals, ...).
        detail: String,
    },
    /// VIOLATION: did not complete and no timeout/diagnostic attributes it.
    UnattributedHang {
        /// Whatever the run reported (or nothing).
        detail: String,
    },
    /// VIOLATION: completed correctly but recovery blew the virtual-time
    /// budget relative to the fault-free baseline.
    UnboundedRecovery {
        /// The observed-vs-budget numbers.
        detail: String,
    },
}

impl ChaosOutcome {
    /// True when the outcome violates a recovery invariant.
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            ChaosOutcome::SilentDivergence { .. }
                | ChaosOutcome::UnattributedHang { .. }
                | ChaosOutcome::UnboundedRecovery { .. }
        )
    }

    /// Short stable label used in reports (and in report diffs).
    pub fn label(&self) -> &'static str {
        match self {
            ChaosOutcome::CompletedIdentical => "completed-identical",
            ChaosOutcome::CompletedDegraded { .. } => "completed-degraded",
            ChaosOutcome::AttributedTimeout { .. } => "attributed-timeout",
            ChaosOutcome::AttributedDiagnostic { .. } => "attributed-diagnostic",
            ChaosOutcome::SilentDivergence { .. } => "VIOLATION:silent-divergence",
            ChaosOutcome::UnattributedHang { .. } => "VIOLATION:unattributed-hang",
            ChaosOutcome::UnboundedRecovery { .. } => "VIOLATION:unbounded-recovery",
        }
    }
}

/// Classify a non-completion: every [`SimError`] the engine can surface is
/// an *attributed* failure — deadlocks and timeouts carry the wait-for
/// graph, panics carry the diagnostic text (the communication layers panic
/// with structured messages such as `PartitionedNetwork ...` or
/// `retries exhausted ...`). An unattributed hang is therefore only
/// possible if a runner swallows an error, which the chaos driver checks.
pub fn classify_error(err: &SimError) -> ChaosOutcome {
    match err {
        SimError::Deadlock {
            time,
            cycle,
            blocked,
        } => ChaosOutcome::AttributedTimeout {
            detail: if cycle.is_empty() {
                format!("deadlock at {time}: blocked [{}]", blocked.join("; "))
            } else {
                format!("deadlock at {time}: cycle [{}]", cycle.join(" -> "))
            },
        },
        SimError::Timeout {
            time,
            agent,
            waiting_on,
            cycle,
            ..
        } => ChaosOutcome::AttributedTimeout {
            detail: if cycle.is_empty() {
                format!("timeout at {time}: {agent} waiting on {waiting_on}")
            } else {
                format!(
                    "timeout at {time}: {agent} waiting on {waiting_on}; cycle [{}]",
                    cycle.join(" -> ")
                )
            },
        },
        SimError::AgentPanic { agent, message } => ChaosOutcome::AttributedDiagnostic {
            detail: format!("{agent}: {message}"),
        },
    }
}

// ---------------------------------------------------------------------------
// FaultPlan <-> JSON
// ---------------------------------------------------------------------------

impl FaultPlan {
    /// The plan as a JSON object. Virtual times are u64 nanoseconds and
    /// floats use Rust's shortest round-trip text, so
    /// `FaultPlan::from_json(&p.to_json()) == Ok(p)` holds bitwise.
    pub fn to_json(&self) -> Json {
        let links = self.links.iter().map(|l| {
            Json::obj([
                ("a", l.a.into()),
                ("b", l.b.into()),
                ("from", l.from.as_nanos().into()),
                ("until", l.until.as_nanos().into()),
                ("latency_mult", l.latency_mult.into()),
                ("bandwidth_mult", l.bandwidth_mult.into()),
            ])
        });
        let drops = self.drops.iter().map(|d| {
            Json::obj([
                ("from", d.from.into()),
                ("to", d.to.into()),
                ("first_attempt", d.first_attempt.into()),
                ("count", d.count.into()),
            ])
        });
        let crashes = self.crashes.iter().map(|c| {
            Json::obj([
                ("node", c.node.into()),
                ("at_iteration", c.at_iteration.into()),
            ])
        });
        let stragglers = self.stragglers.iter().map(|f| {
            Json::obj([
                ("node", f.node.into()),
                ("from", f.from.as_nanos().into()),
                ("until", f.until.as_nanos().into()),
                ("compute_mult", f.compute_mult.into()),
            ])
        });
        Json::obj([
            ("seed", self.seed.into()),
            ("links", links.collect()),
            ("drops", drops.collect()),
            ("crashes", crashes.collect()),
            ("stragglers", stragglers.collect()),
        ])
    }

    /// Read a plan back from [`FaultPlan::to_json`]'s object. Member order
    /// is irrelevant, a missing `seed` or fault list reads as zero or
    /// empty, and unknown top-level members are ignored (reproducer files
    /// carry their `workload`/`topology` tags in the same object).
    ///
    /// # Errors
    /// A fault list that is not an array, or a fault with a missing,
    /// mistyped or unknown field, named by its position
    /// (`links[0]: missing "a"`).
    pub fn from_json(doc: &Json) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        if let Some(v) = doc.get("seed") {
            plan.seed = v.num().ok_or("seed: expected a u64")?;
        }
        for (what, l) in entries(doc, "links", 6)? {
            plan.links.push(LinkFault {
                a: field(l, "a", &what)?,
                b: field(l, "b", &what)?,
                from: SimTime(field(l, "from", &what)?),
                until: SimTime(field(l, "until", &what)?),
                latency_mult: field(l, "latency_mult", &what)?,
                bandwidth_mult: field(l, "bandwidth_mult", &what)?,
            });
        }
        for (what, d) in entries(doc, "drops", 4)? {
            plan.drops.push(DropFault {
                from: field(d, "from", &what)?,
                to: field(d, "to", &what)?,
                first_attempt: field(d, "first_attempt", &what)?,
                count: field(d, "count", &what)?,
            });
        }
        for (what, c) in entries(doc, "crashes", 2)? {
            plan.crashes.push(CrashFault {
                node: field(c, "node", &what)?,
                at_iteration: field(c, "at_iteration", &what)?,
            });
        }
        for (what, f) in entries(doc, "stragglers", 4)? {
            plan.stragglers.push(StragglerFault {
                node: field(f, "node", &what)?,
                from: SimTime(field(f, "from", &what)?),
                until: SimTime(field(f, "until", &what)?),
                compute_mult: field(f, "compute_mult", &what)?,
            });
        }
        Ok(plan)
    }
}

/// The elements of the optional array member `key`, each with its
/// `key[i]` label for error messages. Each is an object of `fields`
/// members: every field is required, so one more is an unknown one.
fn entries<'a>(doc: &'a Json, key: &str, fields: usize) -> Result<Vec<(String, &'a Json)>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(Vec::new());
    };
    let items = v
        .as_array()
        .ok_or_else(|| format!("{key}: expected an array"))?;
    let entry = |(i, item): (usize, &'a Json)| match item {
        Json::Obj(m) if m.len() == fields => Ok((format!("{key}[{i}]"), item)),
        _ => Err(format!("{key}[{i}]: expected an object of {fields} fields")),
    };
    items.iter().enumerate().map(entry).collect()
}

/// The number member `key` of `obj`, read as a `T`.
fn field<T: FromStr>(obj: &Json, key: &str, what: &str) -> Result<T, String> {
    let v = obj
        .get(key)
        .ok_or_else(|| format!("{what}: missing \"{key}\""))?;
    v.num()
        .ok_or_else(|| format!("{what}: \"{key}\" is not a number of the right type"))
}

// ---------------------------------------------------------------------------
// Shrinking: ddmin over fault atoms, then injection-window tightening
// ---------------------------------------------------------------------------

/// One schedulable fault, plan-kind-erased — the unit the delta-debugging
/// minimizer removes and re-adds.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAtom {
    /// A link degradation/kill window.
    Link(LinkFault),
    /// A dropped-delivery window.
    Drop(DropFault),
    /// A crash point.
    Crash(CrashFault),
    /// A straggler window.
    Straggler(StragglerFault),
}

/// Flatten a plan into its fault atoms (stable order: links, drops,
/// crashes, stragglers).
pub fn atoms(plan: &FaultPlan) -> Vec<FaultAtom> {
    let mut v = Vec::new();
    v.extend(plan.links.iter().cloned().map(FaultAtom::Link));
    v.extend(plan.drops.iter().cloned().map(FaultAtom::Drop));
    v.extend(plan.crashes.iter().cloned().map(FaultAtom::Crash));
    v.extend(plan.stragglers.iter().cloned().map(FaultAtom::Straggler));
    v
}

/// Rebuild a plan from atoms, preserving `seed` for provenance.
pub fn rebuild(seed: u64, atoms: &[FaultAtom]) -> FaultPlan {
    let mut plan = FaultPlan {
        seed,
        ..Default::default()
    };
    for a in atoms {
        match a {
            FaultAtom::Link(f) => plan.links.push(f.clone()),
            FaultAtom::Drop(f) => plan.drops.push(f.clone()),
            FaultAtom::Crash(f) => plan.crashes.push(f.clone()),
            FaultAtom::Straggler(f) => plan.stragglers.push(f.clone()),
        }
    }
    plan
}

/// Shrink a failing plan to a minimal reproducer.
///
/// `still_fails(candidate)` must return `true` when the candidate plan
/// reproduces the original failure (same classification). The algorithm is
/// the classic **ddmin**: partition the fault atoms into `n` chunks, try
/// each chunk and each complement, recurse on whichever still fails with
/// finer granularity, until the list is 1-minimal (removing any single
/// fault makes the failure disappear). A second pass then **tightens
/// injection times**: windowed faults (links, stragglers) get their windows
/// repeatedly halved, drop bursts get their count halved, while the failure
/// persists. Fully deterministic given a deterministic oracle; the oracle
/// is invoked O(k² + k·log(window)) times for k atoms.
///
/// If the input plan does not fail under the oracle it is returned as-is.
pub fn shrink(plan: &FaultPlan, still_fails: &mut dyn FnMut(&FaultPlan) -> bool) -> FaultPlan {
    if !still_fails(plan) {
        return plan.clone();
    }
    let seed = plan.seed;
    let mut current = atoms(plan);

    // Phase 1: ddmin to a 1-minimal subset.
    let mut n = 2usize;
    while current.len() >= 2 {
        let len = current.len();
        let chunk = len.div_ceil(n.min(len));
        let mut reduced = false;
        // Try each chunk alone.
        for start in (0..len).step_by(chunk) {
            let subset: Vec<FaultAtom> = current[start..(start + chunk).min(len)].to_vec();
            if subset.len() < len && still_fails(&rebuild(seed, &subset)) {
                current = subset;
                n = 2;
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        // Try each complement.
        for start in (0..len).step_by(chunk) {
            let mut complement = current.clone();
            complement.drain(start..(start + chunk).min(len));
            if !complement.is_empty()
                && complement.len() < len
                && still_fails(&rebuild(seed, &complement))
            {
                current = complement;
                n = (n - 1).max(2);
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        if n >= len {
            break; // 1-minimal.
        }
        n = (n * 2).min(len);
    }

    // Phase 2: tighten injection windows atom by atom.
    for i in 0..current.len() {
        loop {
            let tightened = match &current[i] {
                FaultAtom::Link(f) if !f.is_kill() => {
                    let len = f.until.as_nanos().saturating_sub(f.from.as_nanos());
                    if len <= 1 {
                        None
                    } else {
                        let mut t = f.clone();
                        t.until = SimTime(f.from.as_nanos() + len / 2);
                        Some(FaultAtom::Link(t))
                    }
                }
                FaultAtom::Straggler(f) => {
                    let len = f.until.as_nanos().saturating_sub(f.from.as_nanos());
                    if len <= 1 {
                        None
                    } else {
                        let mut t = f.clone();
                        t.until = SimTime(f.from.as_nanos() + len / 2);
                        Some(FaultAtom::Straggler(t))
                    }
                }
                FaultAtom::Drop(f) if f.count > 1 => {
                    let mut t = f.clone();
                    t.count = f.count / 2;
                    Some(FaultAtom::Drop(t))
                }
                _ => None,
            };
            let Some(candidate_atom) = tightened else {
                break;
            };
            let mut candidate = current.clone();
            candidate[i] = candidate_atom;
            if still_fails(&rebuild(seed, &candidate)) {
                current = candidate;
            } else {
                break;
            }
        }
    }

    rebuild(seed, &current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::time::us;

    fn sample_plan() -> FaultPlan {
        FaultPlan::from_seed(7, 4, SimTime::ZERO + us(400.0), 10)
    }

    /// `plan` written as a document and read back.
    fn round_trip(plan: &FaultPlan) -> (String, FaultPlan) {
        let text = json::write(&plan.to_json());
        let back = from_text(&text).expect("parse");
        (text, back)
    }

    fn from_text(text: &str) -> Result<FaultPlan, String> {
        FaultPlan::from_json(&json::parse(text)?)
    }

    #[test]
    fn json_round_trip_is_bitwise() {
        let plan = sample_plan()
            .with_link(LinkFault::kill(0, 3, SimTime(12345)))
            .with_link(LinkFault {
                a: 1,
                b: 2,
                from: SimTime(0),
                until: SimTime(999_999),
                latency_mult: 1.5000000000000002,
                bandwidth_mult: 0.1,
            });
        let (text, back) = round_trip(&plan);
        assert_eq!(plan, back, "round-trip must be exact:\n{text}");
        // And a second trip is byte-stable.
        assert_eq!(text, round_trip(&back).0);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::new();
        assert_eq!(plan, round_trip(&plan).1);
    }

    #[test]
    fn missing_sections_default_to_empty() {
        let plan = from_text("{\"seed\": 9}").unwrap();
        assert_eq!(plan.seed, 9);
        assert!(plan.is_empty());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_text("{").is_err());
        assert!(from_text("{\"links\": [{\"a\": 0}]}").is_err());
        assert!(from_text("{} trailing").is_err());
        assert!(from_text("{\"seed\": \"x\"}").is_err());
        assert!(from_text("{\"drops\": {}}").is_err());
        // An unknown field beside the four a crash has.
        let crash = "{\"crashes\": [{\"node\": 0, \"at_iteration\": 1, \"x\": 0}]}";
        assert!(from_text(crash).unwrap_err().contains("2 fields"));
    }

    #[test]
    fn big_seed_survives_round_trip() {
        let plan = FaultPlan {
            seed: u64::MAX - 1,
            ..Default::default()
        };
        assert_eq!(round_trip(&plan).1.seed, u64::MAX - 1);
    }

    #[test]
    fn ddmin_finds_single_culprit() {
        // Failure iff the plan contains the crash on node 2.
        let plan = sample_plan().with_crash(CrashFault {
            node: 2,
            at_iteration: 777,
        });
        let mut calls = 0;
        let shrunk = shrink(&plan, &mut |p| {
            calls += 1;
            p.crashes.iter().any(|c| c.at_iteration == 777)
        });
        assert_eq!(atoms(&shrunk).len(), 1);
        assert_eq!(
            shrunk.crashes,
            vec![CrashFault {
                node: 2,
                at_iteration: 777
            }]
        );
        assert!(calls > 0);
    }

    #[test]
    fn ddmin_keeps_conjunction_of_two_faults() {
        // Failure requires BOTH the drop and the crash.
        let plan = sample_plan()
            .with_drop(DropFault {
                from: 3,
                to: 0,
                first_attempt: 42,
                count: 1,
            })
            .with_crash(CrashFault {
                node: 1,
                at_iteration: 555,
            });
        let shrunk = shrink(&plan, &mut |p| {
            p.drops.iter().any(|d| d.first_attempt == 42)
                && p.crashes.iter().any(|c| c.at_iteration == 555)
        });
        assert_eq!(atoms(&shrunk).len(), 2);
        assert_eq!(shrunk.drops.len(), 1);
        assert_eq!(shrunk.crashes.len(), 1);
    }

    #[test]
    fn tightening_halves_windows_and_counts() {
        let plan = FaultPlan::new()
            .with_link(LinkFault {
                a: 0,
                b: 1,
                from: SimTime(1000),
                until: SimTime(1000 + (1 << 20)),
                latency_mult: 8.0,
                bandwidth_mult: 0.5,
            })
            .with_drop(DropFault {
                from: 0,
                to: 1,
                first_attempt: 1,
                count: 64,
            });
        // Failure persists while the link window covers [1000, 1200) and at
        // least 3 drops remain.
        let shrunk = shrink(&plan, &mut |p| {
            p.links
                .iter()
                .any(|l| l.from <= SimTime(1000) && l.until >= SimTime(1200))
                && p.drops.iter().map(|d| d.count).sum::<u64>() >= 3
        });
        let l = &shrunk.links[0];
        assert!(
            l.until.as_nanos() - l.from.as_nanos() < 1024,
            "window should be tightened, got {} ns",
            l.until.as_nanos() - l.from.as_nanos()
        );
        assert!(l.until >= SimTime(1200));
        assert_eq!(
            shrunk.drops[0].count, 4,
            "64 -> 32 -> 16 -> 8 -> 4 (2 fails)"
        );
    }

    #[test]
    fn non_failing_plan_is_returned_unchanged() {
        let plan = sample_plan();
        let shrunk = shrink(&plan, &mut |_| false);
        assert_eq!(plan, shrunk);
    }

    #[test]
    fn classify_attributes_engine_errors() {
        let deadlock = SimError::Deadlock {
            time: SimTime(5),
            blocked: vec!["a @flag".into()],
            cycle: vec!["a".into(), "b".into()],
        };
        assert_eq!(classify_error(&deadlock).label(), "attributed-timeout");
        let panic = SimError::AgentPanic {
            agent: "pe1".into(),
            message: "PartitionedNetwork: 0->2".into(),
        };
        match classify_error(&panic) {
            ChaosOutcome::AttributedDiagnostic { detail } => {
                assert!(detail.contains("PartitionedNetwork"))
            }
            other => panic!("wrong class: {other:?}"),
        }
        assert!(!classify_error(&panic).is_violation());
        assert!(ChaosOutcome::SilentDivergence {
            detail: String::new()
        }
        .is_violation());
    }
}
