//! Degraded-mode routing and quorum machinery.
//!
//! The chaos engine's graceful-degradation half. Two concerns live here:
//!
//! * **Link-failure rerouting** — when a [`sim_des::LinkFault`] *kills* a
//!   device pair (`bandwidth_mult <= 0`), the direct connection is gone for
//!   good. [`HealedRoutes`] recomputes a route table around the dead pairs:
//!   a transfer between a severed pair is relayed cut-through over
//!   surviving pairs (shortest relay path, deterministic tie-breaking), and
//!   a pair with no surviving relay path at all surfaces a structured
//!   [`PartitionedNetwork`] error. Kills are modeled at *pair* granularity
//!   (the endpoint-pair adjacency dies, e.g. a dead NVLink port pair) —
//!   on shared-hop presets the underlying physical hops keep serving other
//!   pairs' routes.
//! * **Quorum membership** — degraded-mode runners treat a
//!   [`sim_des::CrashFault`] as a *permanent* PE death (no
//!   checkpoint/restart). Because the fault plan is machine-wide shared
//!   configuration, membership at any iteration is a pure function of the
//!   plan ([`alive_at`]): every PE derives the identical member list with
//!   no gossip or agreement protocol. A real system would run a membership
//!   service; here the membership *schedule* is configuration, which keeps
//!   degraded runs bit-deterministic.

use std::collections::VecDeque;
use std::fmt;

use sim_des::FaultPlan;

use crate::topo::Topology;

/// No route — direct or relayed — exists between two PEs: the dead-pair
/// set has cut the network into components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedNetwork {
    /// The unreachable source PE.
    pub src: usize,
    /// The unreachable destination PE.
    pub dst: usize,
    /// The dead pairs that caused the partition (sorted `(min, max)`).
    pub dead: Vec<(usize, usize)>,
}

impl fmt::Display for PartitionedNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dead: Vec<String> = self.dead.iter().map(|(a, b)| format!("{a}-{b}")).collect();
        write!(
            f,
            "PartitionedNetwork: no surviving route pe{} -> pe{} (dead links: {})",
            self.src,
            self.dst,
            dead.join(", ")
        )
    }
}

impl std::error::Error for PartitionedNetwork {}

/// A surviving link sequence plus the number of intermediate relay
/// devices it passes through (0 on a live pair); `None` when partitioned.
type RelayRoute = Option<(Vec<usize>, usize)>;

/// A route table healed around a set of dead pairs.
///
/// `routes[s][d]` is the surviving link sequence for `s -> d`: the base
/// route when the pair is alive, a relay concatenation otherwise, or
/// `None` when the pair is partitioned.
#[derive(Debug)]
pub struct HealedRoutes {
    routes: Vec<Vec<RelayRoute>>,
    dead: Vec<(usize, usize)>,
}

impl HealedRoutes {
    /// Recompute all-pairs routes around `dead` (sorted `(min, max)`
    /// pairs, as produced by [`sim_des::FaultState::dead_pairs`]).
    ///
    /// Relay paths are shortest in device hops, found by BFS visiting
    /// neighbors in ascending id — fully deterministic, so every agent
    /// derives the same healed table.
    pub fn compute(topo: &Topology, dead: &[(usize, usize)]) -> HealedRoutes {
        let n = topo.n_devices();
        let is_dead = |u: usize, v: usize| dead.binary_search(&(u.min(v), u.max(v))).is_ok();
        let mut routes: Vec<Vec<RelayRoute>> = vec![vec![None; n]; n];
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                if !is_dead(s, d) {
                    routes[s][d] = Some((topo.dev_route(s, d).to_vec(), 0));
                    continue;
                }
                // BFS over surviving pair-adjacencies, ascending neighbor
                // ids for determinism.
                let mut parent: Vec<Option<usize>> = vec![None; n];
                let mut seen = vec![false; n];
                seen[s] = true;
                let mut q = VecDeque::from([s]);
                'bfs: while let Some(u) = q.pop_front() {
                    for v in 0..n {
                        if v == u || seen[v] || is_dead(u, v) {
                            continue;
                        }
                        seen[v] = true;
                        parent[v] = Some(u);
                        if v == d {
                            break 'bfs;
                        }
                        q.push_back(v);
                    }
                }
                if seen[d] {
                    // Reconstruct d -> s, then emit the concatenated link
                    // sequence segment by segment.
                    let mut path = vec![d];
                    while let Some(p) = parent[*path.last().unwrap()] {
                        path.push(p);
                    }
                    path.reverse();
                    let mut links = Vec::new();
                    for w in path.windows(2) {
                        links.extend_from_slice(topo.dev_route(w[0], w[1]));
                    }
                    routes[s][d] = Some((links, path.len() - 2));
                }
            }
        }
        HealedRoutes {
            routes,
            dead: dead.to_vec(),
        }
    }

    /// The surviving link sequence for `src -> dst` plus its relay count
    /// (intermediate devices that store-and-forward the message), or the
    /// partition diagnostic when no path exists.
    pub fn route(&self, src: usize, dst: usize) -> Result<(&[usize], usize), PartitionedNetwork> {
        self.routes[src][dst]
            .as_ref()
            .map(|(links, relays)| (links.as_slice(), *relays))
            .ok_or_else(|| PartitionedNetwork {
                src,
                dst,
                dead: self.dead.clone(),
            })
    }
}

/// The PEs still alive *entering* iteration `t` (1-based; `t = 0` is
/// before the first, when everyone is), under the degraded-mode reading of
/// [`sim_des::CrashFault`] as permanent death at the start of
/// [`FaultPlan::crash_iteration`]. Ascending PE ids — this is the quorum
/// every degraded collective reports.
pub fn alive_at(plan: &FaultPlan, n: usize, t: u64) -> Vec<usize> {
    (0..n)
        .filter(|&pe| plan.crash_iteration(pe).is_none_or(|d| t < d))
        .collect()
}

/// Render a quorum as the stable string used in reports and assertions,
/// e.g. `quorum{0,1,3}`.
pub fn format_quorum(members: &[usize]) -> String {
    let ids: Vec<String> = members.iter().map(|m| m.to_string()).collect();
    format!("quorum{{{}}}", ids.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::topo::TopologyKind;
    use sim_des::{CrashFault, LinkFault, SimTime};

    fn topo(kind: TopologyKind, n: usize) -> std::sync::Arc<Topology> {
        Topology::build(kind, n, &CostModel::a100_hgx())
    }

    #[test]
    fn healed_route_relays_around_dead_pair() {
        let t = topo(TopologyKind::NvlinkAllToAll, 4);
        let healed = HealedRoutes::compute(&t, &[(0, 1)]);
        // Direct 0->1 is dead; the relay goes through the lowest surviving
        // peer (device 2): nvl0>2 then nvl2>1 — two links.
        let (r, relays) = healed.route(0, 1).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(relays, 1);
        // Alive pairs keep their base route.
        assert_eq!(healed.route(2, 3).unwrap().0, t.dev_route(2, 3));
        // The reverse severed direction heals too.
        assert_eq!(healed.route(1, 0).unwrap().0.len(), 2);
    }

    #[test]
    fn two_devices_with_dead_pair_partition() {
        let t = topo(TopologyKind::NvlinkAllToAll, 2);
        let healed = HealedRoutes::compute(&t, &[(0, 1)]);
        let err = healed.route(0, 1).unwrap_err();
        assert_eq!((err.src, err.dst), (0, 1));
        assert!(err.to_string().contains("PartitionedNetwork"));
        assert!(err.to_string().contains("0-1"));
    }

    #[test]
    fn fully_isolated_device_partitions_everywhere() {
        let t = topo(TopologyKind::NvlinkRing, 4);
        // Kill every pair touching device 3.
        let dead = [(0, 3), (1, 3), (2, 3)];
        let healed = HealedRoutes::compute(&t, &dead);
        for peer in 0..3 {
            assert!(healed.route(peer, 3).is_err());
            assert!(healed.route(3, peer).is_err());
        }
        // The surviving triangle still routes.
        assert!(healed.route(0, 2).is_ok());
    }

    #[test]
    fn healing_works_on_every_preset() {
        for kind in TopologyKind::presets() {
            let t = topo(kind, 8);
            let healed = HealedRoutes::compute(&t, &[(2, 5), (0, 7)]);
            for (s, d) in [(2, 5), (5, 2), (0, 7), (7, 0)] {
                let (r, _) = healed
                    .route(s, d)
                    .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
                assert!(!r.is_empty(), "{kind:?} {s}->{d}");
            }
        }
    }

    #[test]
    fn alive_at_derives_quorum_from_plan() {
        let plan = sim_des::FaultPlan::new().with_crash(CrashFault {
            node: 2,
            at_iteration: 5,
        });
        assert_eq!(alive_at(&plan, 4, 4), vec![0, 1, 2, 3]);
        assert_eq!(alive_at(&plan, 4, 5), vec![0, 1, 3]);
        assert_eq!(alive_at(&plan, 4, 100), vec![0, 1, 3]);
        assert_eq!(format_quorum(&alive_at(&plan, 4, 5)), "quorum{0,1,3}");
    }

    #[test]
    fn kill_constructor_round_trips_through_fault_state() {
        let plan = sim_des::FaultPlan::new().with_link(LinkFault::kill(1, 3, SimTime(10)));
        let st = sim_des::FaultState::new(plan);
        assert!(st.has_kills());
        assert!(!st.pair_dead(1, 3, SimTime(9)));
        assert!(st.pair_dead(3, 1, SimTime(10)));
        assert_eq!(st.dead_pairs(SimTime(10)), vec![(1, 3)]);
    }
}
