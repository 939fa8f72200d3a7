//! Deterministic fault schedules for robustness experiments.
//!
//! A [`FaultPlan`] describes *what goes wrong and when*, entirely in virtual
//! time and attempt counts, so an injected run is exactly reproducible from
//! a `u64` seed: same plan, same event interleaving, same recovery path,
//! bit-identical results. The plan is pure data; the layers above (the
//! NVSHMEM-style communication shims, the persistent-kernel solvers) consult
//! a shared [`FaultState`] at each send / compute step to learn whether the
//! step is degraded, dropped, or crashed.
//!
//! Supported fault classes:
//!
//! * **Link degradation** ([`LinkFault`]) — an interconnect link between two
//!   nodes runs with multiplied latency and divided bandwidth over a
//!   virtual-time window (models a flapping NVLink / congested PCIe switch).
//! * **Dropped deliveries** ([`DropFault`]) — a directed route silently
//!   drops a contiguous window of put-with-signal attempts (models lost
//!   doorbell writes); senders recover via retry with backoff.
//! * **Agent crash** ([`CrashFault`]) — a node loses its device state at a
//!   given iteration and must restore from a checkpoint.
//! * **Stragglers** ([`StragglerFault`]) — a node computes slower by a
//!   multiplier over a window (models thermal throttling).

use crate::lock::Mutex;
use crate::time::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// SplitMix64 — tiny deterministic generator used to derive random plans.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() as f64 / u64::MAX as f64) * (hi - lo)
    }
}

/// One SplitMix64 step — the shared seed-mixing primitive behind
/// [`FaultPlan::from_seed`], the engine's wake-order jitter, and the
/// deterministic retry-backoff jitter in the communication layers.
pub fn mix64(seed: u64) -> u64 {
    SplitMix64::new(seed).next_u64()
}

/// Largest multiplier a fault may apply to a duration, alone or stacked.
/// A scaled delay saturates `u64` nanoseconds long before `f64` overflows,
/// and a saturated delay wraps the clock it is added to.
pub const MAX_FAULT_MULT: f64 = 1e9;

/// Link degradation between an unordered pair of nodes over a time window.
///
/// A `bandwidth_mult <= 0.0` means the pair's direct connection is **dead**
/// (a hard link failure, not a slowdown): from `from` onward the pair can no
/// longer talk directly and the transport must reroute around it — see
/// [`FaultState::pair_dead`]. Dead links are permanent (`until` is ignored)
/// and do not contribute to [`FaultState::link_mult`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// One endpoint of the (unordered) link.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive). Ignored for dead links (`bandwidth_mult <= 0`).
    pub until: SimTime,
    /// Latency is multiplied by this (>= 1.0 degrades).
    pub latency_mult: f64,
    /// Effective bandwidth is multiplied by this (in `0 < m <= 1` degrades);
    /// transfer time scales by `1 / bandwidth_mult`. `<= 0.0` kills the link.
    pub bandwidth_mult: f64,
}

impl LinkFault {
    /// True when this fault kills the pair outright rather than degrading it.
    pub fn is_kill(&self) -> bool {
        self.bandwidth_mult <= 0.0
    }

    /// A permanent hard failure of the direct `{a, b}` connection from
    /// `from` onward.
    pub fn kill(a: usize, b: usize, from: SimTime) -> LinkFault {
        LinkFault {
            a,
            b,
            from,
            until: SimTime(u64::MAX),
            latency_mult: 1.0,
            bandwidth_mult: 0.0,
        }
    }
}

/// Silently dropped put-with-signal deliveries on a directed route.
///
/// Counted per *attempt*: the `count` attempts starting at the
/// `first_attempt`-th send (1-based) from `from` to `to` are dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropFault {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// 1-based index of the first dropped attempt on this route.
    pub first_attempt: u64,
    /// How many consecutive attempts are dropped.
    pub count: u64,
}

/// A node crashes (loses device state) at the start of an iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// The crashing node.
    pub node: usize,
    /// Iteration number (1-based, solver-defined) at which the crash hits.
    pub at_iteration: u64,
}

/// A node computes slower by `compute_mult` over a time window.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerFault {
    /// The straggling node.
    pub node: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Compute time is multiplied by this (>= 1.0 degrades).
    pub compute_mult: f64,
}

/// A reproducible schedule of faults, identified by its seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Link degradation windows.
    pub links: Vec<LinkFault>,
    /// Dropped-delivery windows.
    pub drops: Vec<DropFault>,
    /// Crash points.
    pub crashes: Vec<CrashFault>,
    /// Straggler windows.
    pub stragglers: Vec<StragglerFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link-degradation window (builder style).
    pub fn with_link(mut self, fault: LinkFault) -> Self {
        self.links.push(fault);
        self
    }

    /// Add a dropped-delivery window (builder style).
    pub fn with_drop(mut self, fault: DropFault) -> Self {
        self.drops.push(fault);
        self
    }

    /// Add a crash point (builder style).
    pub fn with_crash(mut self, fault: CrashFault) -> Self {
        self.crashes.push(fault);
        self
    }

    /// Add a straggler window (builder style).
    pub fn with_straggler(mut self, fault: StragglerFault) -> Self {
        self.stragglers.push(fault);
        self
    }

    /// Fails on a fault a run over `nodes` PEs cannot apply as written: a
    /// PE id of `nodes` or more, a drop window whose end overflows `u64`,
    /// or a multiplier that is not finite or exceeds [`MAX_FAULT_MULT`].
    pub fn check(&self, nodes: usize) -> Result<(), String> {
        let pes = (self.links.iter().flat_map(|l| [l.a, l.b]))
            .chain(self.drops.iter().flat_map(|d| [d.from, d.to]))
            .chain(self.crashes.iter().map(|c| c.node))
            .chain(self.stragglers.iter().map(|f| f.node));
        if let Some(pe) = pes.max().filter(|&pe| pe >= nodes) {
            return Err(format!("PE {pe} is out of range for {nodes} PEs"));
        }
        for d in &self.drops {
            let end = d.first_attempt.checked_add(d.count);
            end.ok_or("a drop window's end overflows u64")?;
        }
        let mults = self
            .links
            .iter()
            .flat_map(|l| [l.latency_mult, l.bandwidth_mult]);
        let mut mults = mults.chain(self.stragglers.iter().map(|f| f.compute_mult));
        match mults.find(|m| !(m.is_finite() && *m <= MAX_FAULT_MULT)) {
            Some(m) => Err(format!("multiplier {m} exceeds {MAX_FAULT_MULT:e}")),
            None => Ok(()),
        }
    }

    /// The iteration at which `node` crashes, if any: its earliest listed
    /// crash, clamped to 1 (iterations are 1-based, so a crash "at 0" hits
    /// the first one). Every runner, quorum and oracle reads a node's crash
    /// through this one function.
    pub fn crash_iteration(&self, node: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.at_iteration.max(1))
            .min()
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.drops.is_empty()
            && self.crashes.is_empty()
            && self.stragglers.is_empty()
    }

    /// Derive a random-but-reproducible plan over `nodes` nodes and a
    /// horizon of roughly `horizon` virtual time / `iterations` solver
    /// iterations. The same `(seed, nodes, horizon, iterations)` always
    /// yields the identical plan.
    pub fn from_seed(seed: u64, nodes: usize, horizon: SimTime, iterations: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan {
            seed,
            ..Default::default()
        };
        if nodes == 0 {
            return plan;
        }
        let span = horizon.as_nanos().max(1);
        // One or two degraded links.
        for _ in 0..rng.range_u64(1, 3) {
            let a = rng.range_u64(0, nodes as u64) as usize;
            let b = (a + 1) % nodes.max(1);
            let from = rng.range_u64(0, span);
            let len = rng.range_u64(1, span.max(2));
            plan.links.push(LinkFault {
                a,
                b,
                from: SimTime(from),
                until: SimTime(from.saturating_add(len)),
                latency_mult: rng.range_f64(2.0, 8.0),
                bandwidth_mult: rng.range_f64(0.2, 0.8),
            });
        }
        // A short burst of dropped deliveries on one directed route.
        if nodes > 1 {
            let from = rng.range_u64(0, nodes as u64) as usize;
            let to = (from + 1) % nodes;
            plan.drops.push(DropFault {
                from,
                to,
                first_attempt: rng.range_u64(1, iterations.max(2)),
                count: rng.range_u64(1, 4),
            });
        }
        // One crash somewhere past the first iteration.
        if iterations > 2 {
            plan.crashes.push(CrashFault {
                node: rng.range_u64(0, nodes as u64) as usize,
                at_iteration: rng.range_u64(2, iterations),
            });
        }
        // One straggler window.
        {
            let from = rng.range_u64(0, span);
            let len = rng.range_u64(1, span.max(2));
            plan.stragglers.push(StragglerFault {
                node: rng.range_u64(0, nodes as u64) as usize,
                from: SimTime(from),
                until: SimTime(from.saturating_add(len)),
                compute_mult: rng.range_f64(1.5, 4.0),
            });
        }
        plan
    }
}

/// Runtime view of a [`FaultPlan`]: the plan plus per-route attempt
/// counters. Shared (`Arc`) between the machine and every communication
/// context so drop windows are counted once per route machine-wide.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    /// Per directed route `(from, to)`: number of put-with-signal attempts
    /// observed so far.
    attempts: Mutex<HashMap<(usize, usize), u64>>,
}

impl FaultState {
    /// A fault-free state (empty plan). The cheap default for every machine.
    pub fn none() -> Arc<Self> {
        Self::new(FaultPlan::new())
    }

    /// Wrap a plan for runtime consultation.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultState {
            plan,
            attempts: Mutex::new(HashMap::new()),
        })
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// False for the fault-free state: callers can skip all bookkeeping.
    pub fn is_active(&self) -> bool {
        !self.plan.is_empty()
    }

    /// Combined `(latency_mult, inverse_bandwidth_mult)` for the unordered
    /// link `{a, b}` at time `now`, each capped at [`MAX_FAULT_MULT`]. Both
    /// are `1.0` on a healthy link; the second value is the factor to
    /// multiply *transfer time* by.
    pub fn link_mult(&self, a: usize, b: usize, now: SimTime) -> (f64, f64) {
        let mut lat = 1.0;
        let mut inv_bw = 1.0;
        for f in &self.plan.links {
            let same = (f.a == a && f.b == b) || (f.a == b && f.b == a);
            // Kills are routing faults, not slowdowns — handled by rerouting.
            if same && !f.is_kill() && now >= f.from && now < f.until {
                lat *= f.latency_mult.max(1.0);
                inv_bw *= 1.0 / f.bandwidth_mult.clamp(1e-6, 1.0);
            }
        }
        (lat.min(MAX_FAULT_MULT), inv_bw.min(MAX_FAULT_MULT))
    }

    /// True when the direct `{a, b}` connection is hard-failed at `now`
    /// (a [`LinkFault`] with `bandwidth_mult <= 0` whose `from` has passed).
    /// Kills are permanent: once active, the pair never heals.
    pub fn pair_dead(&self, a: usize, b: usize, now: SimTime) -> bool {
        self.plan.links.iter().any(|f| {
            let same = (f.a == a && f.b == b) || (f.a == b && f.b == a);
            same && f.is_kill() && now >= f.from
        })
    }

    /// All unordered pairs whose direct connection is dead at `now`, as
    /// sorted `(min, max)` tuples — a deterministic routing-table key.
    pub fn dead_pairs(&self, now: SimTime) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .plan
            .links
            .iter()
            .filter(|f| f.is_kill() && now >= f.from)
            .map(|f| (f.a.min(f.b), f.a.max(f.b)))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True when the plan contains any hard link failure (at any time).
    pub fn has_kills(&self) -> bool {
        self.plan.links.iter().any(LinkFault::is_kill)
    }

    /// Record one put-with-signal attempt on the directed route and report
    /// whether this attempt falls inside a drop window. Attempt numbering is
    /// 1-based and deterministic (the simulation is sequential).
    pub fn should_drop(&self, from: usize, to: usize) -> bool {
        if self.plan.drops.is_empty() {
            return false;
        }
        let mut g = self.attempts.lock();
        let n = g.entry((from, to)).or_insert(0);
        *n += 1;
        let attempt = *n;
        self.plan.drops.iter().any(|d| {
            d.from == from
                && d.to == to
                && attempt >= d.first_attempt
                && attempt < d.first_attempt + d.count
        })
    }

    /// Compute-time multiplier for `node` at time `now` (1.0 when healthy),
    /// capped at [`MAX_FAULT_MULT`].
    pub fn compute_mult(&self, node: usize, now: SimTime) -> f64 {
        let mut m = 1.0;
        for f in &self.plan.stragglers {
            if f.node == node && now >= f.from && now < f.until {
                m *= f.compute_mult.max(1.0);
            }
        }
        m.min(MAX_FAULT_MULT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ms;

    #[test]
    fn same_seed_same_plan() {
        let horizon = SimTime::ZERO + ms(10.0);
        let a = FaultPlan::from_seed(42, 4, horizon, 20);
        let b = FaultPlan::from_seed(42, 4, horizon, 20);
        assert_eq!(a, b);
        let c = FaultPlan::from_seed(43, 4, horizon, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn drop_window_counts_attempts_per_route() {
        let plan = FaultPlan::new().with_drop(DropFault {
            from: 0,
            to: 1,
            first_attempt: 2,
            count: 2,
        });
        let st = FaultState::new(plan);
        // Route 0 -> 1: attempts 2 and 3 drop.
        assert!(!st.should_drop(0, 1));
        assert!(st.should_drop(0, 1));
        assert!(st.should_drop(0, 1));
        assert!(!st.should_drop(0, 1));
        // Other routes are independent.
        assert!(!st.should_drop(1, 0));
    }

    #[test]
    fn link_mult_applies_only_inside_window() {
        let plan = FaultPlan::new().with_link(LinkFault {
            a: 0,
            b: 1,
            from: SimTime(100),
            until: SimTime(200),
            latency_mult: 4.0,
            bandwidth_mult: 0.5,
        });
        let st = FaultState::new(plan);
        assert_eq!(st.link_mult(0, 1, SimTime(50)), (1.0, 1.0));
        assert_eq!(st.link_mult(1, 0, SimTime(150)), (4.0, 2.0));
        assert_eq!(st.link_mult(0, 1, SimTime(200)), (1.0, 1.0));
        assert_eq!(st.link_mult(2, 3, SimTime(150)), (1.0, 1.0));
    }

    #[test]
    fn stacked_faults_cap_at_the_multiplier_bound() {
        let slow = LinkFault {
            a: 0,
            b: 1,
            from: SimTime(0),
            until: SimTime(100),
            latency_mult: MAX_FAULT_MULT,
            bandwidth_mult: 1e-6,
        };
        let straggler = StragglerFault {
            node: 0,
            from: SimTime(0),
            until: SimTime(100),
            compute_mult: MAX_FAULT_MULT,
        };
        let mut plan = FaultPlan::new();
        for _ in 0..3 {
            plan = plan
                .with_link(slow.clone())
                .with_straggler(straggler.clone());
        }
        let st = FaultState::new(plan);
        let cap = (MAX_FAULT_MULT, MAX_FAULT_MULT);
        assert_eq!(st.link_mult(0, 1, SimTime(0)), cap);
        assert_eq!(st.compute_mult(0, SimTime(0)), MAX_FAULT_MULT);
    }

    #[test]
    fn kill_is_permanent_and_excluded_from_link_mult() {
        let plan = FaultPlan::new()
            .with_link(LinkFault::kill(0, 2, SimTime(100)))
            .with_link(LinkFault {
                a: 0,
                b: 1,
                from: SimTime(0),
                until: SimTime(500),
                latency_mult: 3.0,
                bandwidth_mult: 0.5,
            });
        let st = FaultState::new(plan);
        assert!(!st.pair_dead(0, 2, SimTime(99)));
        assert!(st.pair_dead(2, 0, SimTime(100)));
        assert!(st.pair_dead(0, 2, SimTime(u64::MAX)), "kills never heal");
        // The kill contributes nothing to the degradation multipliers.
        assert_eq!(st.link_mult(0, 2, SimTime(200)), (1.0, 1.0));
        assert_eq!(st.link_mult(0, 1, SimTime(200)), (3.0, 2.0));
        assert_eq!(st.dead_pairs(SimTime(50)), vec![]);
        assert_eq!(st.dead_pairs(SimTime(100)), vec![(0, 2)]);
    }

    #[test]
    fn crash_iteration_is_the_earliest_crash_clamped_to_one() {
        let crash = |node, at_iteration| CrashFault { node, at_iteration };
        let plan = FaultPlan::new()
            .with_crash(crash(1, 6))
            .with_crash(crash(1, 3))
            .with_crash(crash(2, 0));
        assert_eq!(plan.crash_iteration(0), None);
        assert_eq!(plan.crash_iteration(1), Some(3));
        assert_eq!(plan.crash_iteration(2), Some(1));
    }

    #[test]
    fn fault_free_state_is_inactive() {
        let st = FaultState::none();
        assert!(!st.is_active());
        assert!(st.plan().crash_iteration(0).is_none());
        assert_eq!(st.compute_mult(0, SimTime(123)), 1.0);
    }
}
