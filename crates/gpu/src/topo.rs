//! Interconnect topology and the Transport charging layer.
//!
//! The flat [`CostModel`] assumes every transfer gets a dedicated,
//! uncontended wire. This module replaces that assumption with a graph of
//! [`Link`]s: each `(src, dst)` endpoint pair maps to a *route* (an ordered
//! list of links), and every link is a serialized virtual-time resource
//! ([`sim_des::Resource`]) — concurrent transfers crossing the same hop
//! genuinely queue behind each other.
//!
//! Four node shapes are modeled ([`TopologyKind`]):
//!
//! * **NvlinkAllToAll** — the HGX baseline: a dedicated full-duplex NVLink
//!   per ordered device pair. Uncontended charges reproduce the flat model
//!   exactly; queueing appears only when the *same* ordered pair carries
//!   overlapping transfers.
//! * **NvlinkRing** — devices on a bidirectional ring; traffic takes the
//!   shorter arc and pays a forwarding latency per intermediate hop, and
//!   distant pairs contend for the ring segments between them.
//! * **PcieTree** — no fast fabric: each device hangs off a PCIe lane under
//!   a shared host bridge (4 devices per bridge); cross-bridge traffic
//!   funnels through the bridge uplinks, the classic shared-hop bottleneck.
//! * **TwoNode** — two NVLink all-to-all nodes joined by one NIC per node;
//!   every cross-node flow shares the two NICs.
//!
//! All charging flows through [`Transport`]: fixed per-op software latencies
//! still come from the [`CostModel`], but wire time and queueing come from
//! the route. Fault-injected link degradation (`FaultState::link_mult`) is
//! applied in exactly one place, [`Transport::put_signal_delivery`].

use std::collections::HashMap;
use std::sync::Arc;

use sim_des::{us, FaultState, Resource, ResourceStats, SimDur, SimTime};

use crate::cost::CostModel;
use crate::mem::{DevId, Place};
use crate::resilience::{HealedRoutes, PartitionedNetwork};

/// Which interconnect graph a machine charges transfers on.
///
/// The first four are *elastic* node-scale presets: they stretch to any
/// device count. The cluster fabrics (`FatTree`, `Dragonfly`,
/// `RailOptimized`) carry their shape as data — their link graph is built
/// for the declared capacity, and a machine may occupy any prefix of it
/// (`n <= capacity`, devices numbered contiguously).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Dedicated NVLink per ordered device pair (HGX all-to-all).
    NvlinkAllToAll,
    /// Bidirectional NVLink ring; shorter-arc routing with forwarding hops.
    NvlinkRing,
    /// PCIe tree: per-device lanes under shared host bridges, no fast fabric.
    PcieTree,
    /// Two all-to-all nodes bridged by one NIC link per node.
    TwoNode,
    /// Two-level Clos fabric: `radix/2` GPUs per leaf switch, `radix/2`
    /// spine switches, one up + one down link per (leaf, spine) pair.
    /// Cross-leaf flows hash onto a spine by `(src + dst) % spines`.
    FatTree {
        /// Total GPU ports of the fabric (`gpus % (radix/2) == 0`).
        gpus: usize,
        /// Switch port count; half face down (GPUs), half face up (spines).
        radix: usize,
    },
    /// Dragonfly: GPUs attach to routers, routers within a group are fully
    /// connected locally, and each group pair shares exactly one global
    /// link anchored at gateway router `(a + b) % routers_per_group`.
    Dragonfly {
        /// Number of router groups.
        groups: usize,
        /// Routers per group (local links are all-to-all among them).
        routers_per_group: usize,
        /// GPUs attached to each router.
        gpus_per_router: usize,
    },
    /// Rail-optimized multi-node cluster: NVLink all-to-all within a node,
    /// plus `rails` parallel inter-node networks. GPU `l` of a node rides
    /// rail `l % rails`; same-rail traffic crosses two rail uplinks, and
    /// off-rail destinations pay one extra intra-node NVLink hop.
    RailOptimized {
        /// Number of nodes.
        nodes: usize,
        /// GPUs per node (intra-node NVLink all-to-all).
        gpus_per_node: usize,
        /// Parallel inter-node rail networks (`rails <= gpus_per_node`).
        rails: usize,
    },
}

impl TopologyKind {
    /// The elastic node-scale presets (stretch to any device count).
    pub fn node_presets() -> [TopologyKind; 4] {
        [
            TopologyKind::NvlinkAllToAll,
            TopologyKind::NvlinkRing,
            TopologyKind::PcieTree,
            TopologyKind::TwoNode,
        ]
    }

    /// The cluster-scale reference fabrics: a 64-GPU fat-tree, a 72-GPU
    /// dragonfly, and a 64-GPU rail-optimized cluster. The `figures cost`
    /// ledger and `perf`'s `static_model` run on them; the chaos
    /// switch-kill fixtures use scaled-down copies of the same families.
    pub fn cluster_presets() -> [TopologyKind; 3] {
        [
            TopologyKind::FatTree {
                gpus: 64,
                radix: 16,
            },
            TopologyKind::Dragonfly {
                groups: 6,
                routers_per_group: 3,
                gpus_per_router: 4,
            },
            TopologyKind::RailOptimized {
                nodes: 8,
                gpus_per_node: 8,
                rails: 4,
            },
        ]
    }

    /// Every preset, node-scale then cluster-scale, in display order —
    /// the single list conformance tests, chaos, and figures sweep.
    /// Adding a `TopologyKind` variant without extending this list (and
    /// the exhaustive matches in [`TopologyKind::family`] and
    /// [`Topology::build`]) fails to compile or fails the cross-preset
    /// harness loudly.
    pub fn presets() -> Vec<TopologyKind> {
        let mut all: Vec<TopologyKind> = TopologyKind::node_presets().to_vec();
        all.extend(TopologyKind::cluster_presets());
        all
    }

    /// Short human-readable name (used by figures, fixtures, and JSON
    /// output). Parameterized fabrics embed their shape, so two differently
    /// sized fat-trees never collide in a report.
    pub fn name(self) -> String {
        match self {
            TopologyKind::FatTree { gpus, radix } => format!("fat-tree-{gpus}r{radix}"),
            TopologyKind::Dragonfly {
                groups,
                routers_per_group,
                gpus_per_router,
            } => format!("dragonfly-{groups}x{routers_per_group}x{gpus_per_router}"),
            TopologyKind::RailOptimized {
                nodes,
                gpus_per_node,
                rails,
            } => format!("rail-optimized-{nodes}x{gpus_per_node}r{rails}"),
            _ => self.family().to_string(),
        }
    }

    /// The preset family, without shape parameters.
    pub fn family(self) -> &'static str {
        match self {
            TopologyKind::NvlinkAllToAll => "nvlink-all-to-all",
            TopologyKind::NvlinkRing => "nvlink-ring",
            TopologyKind::PcieTree => "pcie-tree",
            TopologyKind::TwoNode => "two-node",
            TopologyKind::FatTree { .. } => "fat-tree",
            TopologyKind::Dragonfly { .. } => "dragonfly",
            TopologyKind::RailOptimized { .. } => "rail-optimized",
        }
    }

    /// Declared GPU capacity of a sized cluster fabric; `None` for the
    /// elastic node-scale presets.
    pub fn capacity(self) -> Option<usize> {
        match self {
            TopologyKind::FatTree { gpus, .. } => Some(gpus),
            TopologyKind::Dragonfly {
                groups,
                routers_per_group,
                gpus_per_router,
            } => Some(groups * routers_per_group * gpus_per_router),
            TopologyKind::RailOptimized {
                nodes,
                gpus_per_node,
                ..
            } => Some(nodes * gpus_per_node),
            _ => None,
        }
    }

    /// Whether this is a sized cluster fabric (as opposed to an elastic
    /// node-scale preset).
    pub fn is_cluster(self) -> bool {
        self.capacity().is_some()
    }
}

/// One physical link: a serialized channel with fixed bandwidth.
#[derive(Debug)]
pub struct Link {
    name: String,
    gbps: f64,
    /// Forwarding latency paid when a message *enters* this link from a
    /// previous hop (zero-cost on the first hop of a route).
    hop_latency: SimDur,
    res: Resource,
}

impl Link {
    fn new(name: String, gbps: f64, hop_latency: SimDur) -> Link {
        Link {
            name,
            gbps,
            hop_latency,
            res: Resource::new(),
        }
    }

    /// Link name, e.g. `nvl0>1`, `pcie.lane3`, `pcie.bridge0`, `nic1`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Effective bandwidth of this link (GB/s).
    pub fn gbps(&self) -> f64 {
        self.gbps
    }

    /// Forwarding latency paid when a message enters this link from a
    /// previous hop (zero-cost on the first hop of a route).
    pub fn hop_latency(&self) -> SimDur {
        self.hop_latency
    }

    /// Lifetime occupancy counters (reservations, busy time, queue delay).
    pub fn stats(&self) -> ResourceStats {
        self.res.stats()
    }
}

/// A transfer endpoint: the host, or one device of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Host memory (behind the PCIe root).
    Host,
    /// A device's HBM.
    Dev(DevId),
}

impl From<DevId> for Endpoint {
    fn from(d: DevId) -> Endpoint {
        Endpoint::Dev(d)
    }
}

impl From<Place> for Endpoint {
    fn from(p: Place) -> Endpoint {
        match p.device() {
            Some(d) => Endpoint::Dev(d),
            None => Endpoint::Host,
        }
    }
}

/// Every ordered pair of distinct devices among `0..n`, source-major.
fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
}

/// Devices sharing one PCIe host bridge in the [`TopologyKind::PcieTree`]
/// preset.
const PCIE_DEVICES_PER_BRIDGE: usize = 4;

/// The interconnect graph: links plus per-pair routes.
#[derive(Debug)]
pub struct Topology {
    kind: TopologyKind,
    n_devices: usize,
    links: Vec<Link>,
    /// `dev_routes[src][dst]` = link indices crossed by a `src -> dst`
    /// device transfer (empty when `src == dst`).
    dev_routes: Vec<Vec<Vec<usize>>>,
    /// `host_routes[dev]` = link indices between the host and `dev`.
    host_routes: Vec<Vec<usize>>,
    /// Ring embedding derived from the graph (see [`Topology::ring_order`]).
    ring: Vec<usize>,
}

impl Topology {
    /// Build the link graph for `kind` over `n` devices, calibrated from
    /// `cost` (bandwidths and forwarding latencies).
    pub fn build(kind: TopologyKind, n: usize, cost: &CostModel) -> Arc<Topology> {
        assert!(n >= 1, "topology needs at least one device");
        if let Some(cap) = kind.capacity() {
            assert!(
                n <= cap,
                "{} holds {cap} GPUs but {n} were requested",
                kind.name()
            );
        }
        let mut links = Vec::new();
        let mut dev_routes = vec![vec![Vec::new(); n]; n];
        let mut host_routes = vec![Vec::new(); n];

        // Per-device PCIe lane to the host. Every preset has one; in the
        // PcieTree preset the same lane also carries peer traffic.
        let bridge_hop = us(cost.pcie_latency_us) * 0.25;
        let lane_base = links.len();
        for (d, route) in host_routes.iter_mut().enumerate() {
            route.push(links.len());
            links.push(Link::new(
                format!("pcie.lane{d}"),
                cost.pcie_gbps,
                bridge_hop,
            ));
        }

        // A dedicated NVLink from `s` to `d`.
        let nvlink =
            |s: usize, d: usize| Link::new(format!("nvl{s}>{d}"), cost.nvlink_gbps, SimDur::ZERO);
        match kind {
            TopologyKind::NvlinkAllToAll => {
                for (s, d) in pairs(n) {
                    dev_routes[s][d].push(links.len());
                    links.push(nvlink(s, d));
                }
            }
            TopologyKind::NvlinkRing => {
                // One shared link per undirected ring edge {i, i+1 mod n};
                // both directions and all pass-through flows contend on it.
                let fwd = us(cost.p2p_latency_us);
                let edge_base = links.len();
                let edges = if n > 1 { n } else { 0 };
                for e in 0..edges {
                    links.push(Link::new(
                        format!("ring{e}>{}", (e + 1) % n),
                        cost.nvlink_gbps,
                        fwd,
                    ));
                }
                for (s, d) in pairs(n) {
                    // Shorter arc; ties go clockwise (increasing index).
                    let cw = (d + n - s) % n;
                    let ccw = n - cw;
                    let route = &mut dev_routes[s][d];
                    if cw <= ccw {
                        for h in 0..cw {
                            route.push(edge_base + (s + h) % n);
                        }
                    } else {
                        for h in 0..ccw {
                            route.push(edge_base + (s + n - 1 - h) % n);
                        }
                    }
                }
            }
            TopologyKind::PcieTree => {
                // lanes (built above) + one shared uplink per bridge; peer
                // traffic crosses its own lane, the bridge uplink(s), and
                // the destination lane.
                let n_bridges = n.div_ceil(PCIE_DEVICES_PER_BRIDGE);
                let bridge_base = links.len();
                for b in 0..n_bridges {
                    links.push(Link::new(
                        format!("pcie.bridge{b}"),
                        cost.pcie_gbps,
                        bridge_hop,
                    ));
                }
                let bridge_of = |d: usize| d / PCIE_DEVICES_PER_BRIDGE;
                for (s, d) in pairs(n) {
                    let route = &mut dev_routes[s][d];
                    route.push(lane_base + s);
                    if bridge_of(s) == bridge_of(d) {
                        // P2P through the shared switch under one bridge.
                        route.push(bridge_base + bridge_of(s));
                    } else {
                        route.push(bridge_base + bridge_of(s));
                        route.push(bridge_base + bridge_of(d));
                    }
                    route.push(lane_base + d);
                }
            }
            TopologyKind::TwoNode => {
                // Node 0 holds devices [0, split); node 1 the rest. Intra-
                // node pairs get dedicated NVLinks; cross-node flows share
                // one NIC per node.
                let split = n.div_ceil(2);
                let nic_hop = us(cost.nic_latency_us);
                let nic0 = links.len();
                links.push(Link::new("nic0".into(), cost.nic_gbps, nic_hop));
                let nic1 = links.len();
                links.push(Link::new("nic1".into(), cost.nic_gbps, nic_hop));
                let node = |d: usize| usize::from(d >= split);
                for (s, d) in pairs(n) {
                    if node(s) == node(d) {
                        dev_routes[s][d].push(links.len());
                        links.push(nvlink(s, d));
                    } else {
                        let (a, b) = if node(s) == 0 {
                            (nic0, nic1)
                        } else {
                            (nic1, nic0)
                        };
                        dev_routes[s][d].push(a);
                        dev_routes[s][d].push(b);
                    }
                }
            }
            TopologyKind::FatTree { gpus, radix } => {
                // Two-level Clos: radix/2 GPUs under each leaf, radix/2
                // spines, one up + one down link per (leaf, spine) pair —
                // a 1:1 (non-blocking) fabric whose congestion comes from
                // deterministic spine hashing and endpoint NICs, not from
                // undersized uplinks.
                assert!(
                    radix >= 4 && radix % 2 == 0,
                    "fat-tree radix must be even, >= 4"
                );
                let per_leaf = radix / 2;
                assert!(
                    gpus % per_leaf == 0,
                    "fat-tree: {gpus} GPUs not divisible by {per_leaf} per leaf"
                );
                let leaves = gpus / per_leaf;
                let spines = radix / 2;
                let nic_hop = us(cost.nic_latency_us);
                // Endpoint NICs for the occupied prefix only; the switch
                // fabric is built for the full declared shape so link
                // numbering is occupancy-independent.
                let nic_base = links.len();
                for d in 0..n {
                    links.push(Link::new(format!("ft.nic{d}"), cost.nic_gbps, nic_hop));
                }
                let up_base = links.len();
                for l in 0..leaves {
                    for s in 0..spines {
                        links.push(Link::new(format!("ft.l{l}>s{s}"), cost.nic_gbps, nic_hop));
                    }
                }
                let down_base = links.len();
                for s in 0..spines {
                    for l in 0..leaves {
                        links.push(Link::new(format!("ft.s{s}>l{l}"), cost.nic_gbps, nic_hop));
                    }
                }
                let leaf_of = |d: usize| d / per_leaf;
                for (s, d) in pairs(n) {
                    let route = &mut dev_routes[s][d];
                    route.push(nic_base + s);
                    let (ls, ld) = (leaf_of(s), leaf_of(d));
                    if ls != ld {
                        // Deterministic ECMP hash, symmetric in (s, d)
                        // so forward and return paths share a spine.
                        let spine = (s + d) % spines;
                        route.push(up_base + ls * spines + spine);
                        route.push(down_base + spine * leaves + ld);
                    }
                    route.push(nic_base + d);
                }
            }
            TopologyKind::Dragonfly {
                groups,
                routers_per_group,
                gpus_per_router,
            } => {
                assert!(groups >= 1 && routers_per_group >= 1 && gpus_per_router >= 1);
                let nic_hop = us(cost.nic_latency_us);
                let nic_base = links.len();
                for d in 0..n {
                    links.push(Link::new(format!("df.nic{d}"), cost.nic_gbps, nic_hop));
                }
                // Local links: one shared bidirectional channel per
                // unordered router pair within a group.
                let mut local = HashMap::new();
                for g in 0..groups {
                    for a in 0..routers_per_group {
                        for b in (a + 1)..routers_per_group {
                            local.insert((g, a, b), links.len());
                            links.push(Link::new(
                                format!("df.g{g}.r{a}-r{b}"),
                                cost.nic_gbps,
                                nic_hop,
                            ));
                        }
                    }
                }
                let local_link = |g: usize, a: usize, b: usize| local[&(g, a.min(b), a.max(b))];
                // Global links: exactly one per unordered group pair,
                // anchored at gateway router (a + b) % routers_per_group
                // in both groups.
                let mut global = HashMap::new();
                for a in 0..groups {
                    for b in (a + 1)..groups {
                        global.insert((a, b), links.len());
                        links.push(Link::new(format!("df.gl{a}-{b}"), cost.nic_gbps, nic_hop));
                    }
                }
                let router_of = |d: usize| d / gpus_per_router;
                let group_of = |d: usize| router_of(d) / routers_per_group;
                for (s, d) in pairs(n) {
                    let route = &mut dev_routes[s][d];
                    route.push(nic_base + s);
                    let (rs, rd) = (router_of(s), router_of(d));
                    let (gs, gd) = (group_of(s), group_of(d));
                    let (lrs, lrd) = (rs % routers_per_group, rd % routers_per_group);
                    if gs == gd {
                        if rs != rd {
                            route.push(local_link(gs, lrs, lrd));
                        }
                    } else {
                        // Minimal routing: hop to the gateway router,
                        // cross the single global link, hop to the
                        // destination router.
                        let gw = (gs + gd) % routers_per_group;
                        if lrs != gw {
                            route.push(local_link(gs, lrs, gw));
                        }
                        route.push(global[&(gs.min(gd), gs.max(gd))]);
                        if lrd != gw {
                            route.push(local_link(gd, gw, lrd));
                        }
                    }
                    route.push(nic_base + d);
                }
            }
            TopologyKind::RailOptimized {
                nodes,
                gpus_per_node,
                rails,
            } => {
                assert!(nodes >= 1 && gpus_per_node >= 1);
                assert!(
                    (1..=gpus_per_node).contains(&rails),
                    "rail count must be in 1..=gpus_per_node"
                );
                let nic_hop = us(cost.nic_latency_us);
                // One shared uplink per (node, rail): every GPU of the node
                // on that rail funnels its inter-node traffic through it.
                let rail_base = links.len();
                for nd in 0..nodes {
                    for r in 0..rails {
                        links.push(Link::new(
                            format!("rail.n{nd}.r{r}"),
                            cost.nic_gbps,
                            nic_hop,
                        ));
                    }
                }
                let node = |d: usize| d / gpus_per_node;
                // Intra-node NVLink all-to-all (occupied devices only).
                let mut nvl = HashMap::new();
                for (s, d) in pairs(n) {
                    if node(s) == node(d) {
                        nvl.insert((s, d), links.len());
                        links.push(nvlink(s, d));
                    }
                }
                for (s, d) in pairs(n) {
                    let route = &mut dev_routes[s][d];
                    if node(s) == node(d) {
                        route.push(nvl[&(s, d)]);
                        continue;
                    }
                    // The sender rides its own rail; traffic lands on
                    // the same rail of the destination node and pays
                    // one NVLink hop if the target GPU sits off-rail.
                    let rail = (s % gpus_per_node) % rails;
                    route.push(rail_base + node(s) * rails + rail);
                    route.push(rail_base + node(d) * rails + rail);
                    if (d % gpus_per_node) % rails != rail {
                        // Representative rail owner on the destination
                        // node: the lowest-indexed GPU attached to it.
                        let owner = node(d) * gpus_per_node + rail;
                        if owner < n && owner != d {
                            route.push(nvl[&(owner, d)]);
                        }
                    }
                }
            }
        }

        let mut topo = Topology {
            kind,
            n_devices: n,
            links,
            dev_routes,
            host_routes,
            ring: Vec::new(),
        };
        topo.ring = topo.derive_ring();
        Arc::new(topo)
    }

    /// Greedy nearest-neighbor ring embedding: start at device 0, repeatedly
    /// append the unvisited device with the shortest route (ties broken by
    /// index). For every preset this yields the natural `0..n` order, but it
    /// is *derived* from the route table, not assumed — collectives consume
    /// this instead of hardcoded rank arithmetic.
    fn derive_ring(&self) -> Vec<usize> {
        let n = self.n_devices;
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut cur = 0usize;
        visited[0] = true;
        order.push(0);
        for _ in 1..n {
            let next = (0..n)
                .filter(|&d| !visited[d])
                .min_by_key(|&d| (self.dev_routes[cur][d].len(), d))
                .expect("unvisited device exists");
            visited[next] = true;
            order.push(next);
            cur = next;
        }
        order
    }

    /// Which preset this graph was built from.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of devices in the graph.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// All links (for occupancy stats and diagnostics).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The ring embedding: a permutation of `0..n` in which consecutive
    /// entries are route-nearest neighbors. Ring collectives send to
    /// `order[(pos + 1) % n]`.
    pub fn ring_order(&self) -> &[usize] {
        &self.ring
    }

    /// Number of links a `src -> dst` device transfer crosses.
    pub fn route_hops(&self, src: usize, dst: usize) -> usize {
        self.dev_routes[src][dst].len()
    }

    /// Virtual-time forwarding latency of the base `src -> dst` route: the
    /// sum of per-hop latencies after the first hop (the first hop of a
    /// route is charged no `hop_latency`, matching the transfer cost
    /// model). Zero for `src == dst` and for direct single-link routes.
    pub fn route_forward_latency(&self, src: usize, dst: usize) -> SimDur {
        self.dev_routes[src][dst]
            .iter()
            .skip(1)
            .map(|&idx| self.links[idx].hop_latency)
            .sum()
    }

    /// The ring embedding restricted to `members` (ascending PE ids): the
    /// base ring with every non-member spliced out. This is how collectives
    /// *heal* around crashed PEs — survivors keep their relative ring
    /// positions, so the healed order is identical on every member.
    pub fn ring_order_among(&self, members: &[usize]) -> Vec<usize> {
        self.ring
            .iter()
            .copied()
            .filter(|p| members.contains(p))
            .collect()
    }

    /// Unordered device pairs whose base route (in either direction)
    /// crosses the named link: the pair kill set a fabric-level fault
    /// ("kill switch uplink `ft.l0>s0`") translates to for the pairwise
    /// fault machinery. Panics on an unknown link name — a chaos case
    /// naming a link that does not exist is a bug, not an empty fault.
    pub fn pairs_crossing(&self, link_name: &str) -> Vec<(usize, usize)> {
        let idx = self
            .links
            .iter()
            .position(|l| l.name() == link_name)
            .unwrap_or_else(|| panic!("no link named {link_name:?} in {}", self.kind.name()));
        let mut pairs = Vec::new();
        for s in 0..self.n_devices {
            for d in (s + 1)..self.n_devices {
                if self.dev_routes[s][d].contains(&idx) || self.dev_routes[d][s].contains(&idx) {
                    pairs.push((s, d));
                }
            }
        }
        pairs
    }

    /// The base (fault-free) device route `src -> dst`.
    pub(crate) fn dev_route(&self, src: usize, dst: usize) -> &[usize] {
        &self.dev_routes[src][dst]
    }

    /// Read-only view of the fault-free device route `src -> dst` as link
    /// indices into [`Topology::links`] (empty when `src == dst`). Static
    /// analyses use this to enumerate route sharing without reserving
    /// anything on the real links.
    pub fn route_links(&self, src: usize, dst: usize) -> &[usize] {
        &self.dev_routes[src][dst]
    }

    /// A fresh occupancy mirror over this topology's links, with every
    /// mirrored clock at `SimTime::ZERO` (see [`LinkClocks`]).
    pub fn clocks(&self) -> LinkClocks {
        LinkClocks {
            busy: vec![SimTime::ZERO; self.links.len()],
        }
    }

    /// The one cut-through charging loop: the message head reaches hop
    /// *k+1* after its forwarding latency and once the link drains; each link
    /// is held for its own serialization time. `reserve(link, at, wire)`
    /// books a link for `wire`, its time at `bw_scale` times the link
    /// bandwidth, and returns the booking's `(start, end)`.
    fn cut_through(
        &self,
        route: &[usize],
        bytes: u64,
        now: SimTime,
        bw_scale: f64,
        mut reserve: impl FnMut(usize, SimTime, SimDur) -> (SimTime, SimTime),
    ) -> SimDur {
        let mut head = now;
        let mut finish = now;
        for (i, &idx) in route.iter().enumerate() {
            let link = &self.links[idx];
            if i > 0 {
                head += link.hop_latency;
            }
            let wire = CostModel::bw_time(bytes, link.gbps * bw_scale);
            (head, finish) = reserve(idx, head, wire);
        }
        finish.since(now)
    }

    fn route(&self, src: Endpoint, dst: Endpoint) -> &[usize] {
        match (src, dst) {
            (Endpoint::Dev(s), Endpoint::Dev(d)) if s != d => &self.dev_routes[s.0][d.0],
            (Endpoint::Host, Endpoint::Dev(d)) | (Endpoint::Dev(d), Endpoint::Host) => {
                &self.host_routes[d.0]
            }
            _ => &[],
        }
    }
}

/// A side-effect-free mirror of per-link occupancy: one scalar
/// `busy_until` clock per link, replicating the FCFS semantics of the real
/// [`sim_des::Resource`]s without reserving anything on them.
///
/// [`Transport::charge`] *reserves* — calling it moves real link state and
/// perturbs any concurrently simulated run. A `LinkClocks` instance lets a
/// static analysis (the dace cost predictor) run the same cut-through
/// charging loop as [`Transport::charge_scaled`] against private state:
/// only the reservation step differs.
#[derive(Debug, Clone)]
pub struct LinkClocks {
    /// `busy[i]` mirrors link *i*'s `Resource` busy-until clock.
    busy: Vec<SimTime>,
}

impl LinkClocks {
    /// Quote the fault-free cut-through wire time of moving `bytes` from
    /// device `src` to device `dst` starting at `now`, advancing the
    /// mirrored clocks exactly as the real transport would advance the
    /// link resources. Zero for `src == dst` (empty route).
    pub fn charge_dev(
        &mut self,
        topo: &Topology,
        src: usize,
        dst: usize,
        bytes: u64,
        now: SimTime,
        bw_scale: f64,
    ) -> SimDur {
        let route = topo.route_links(src, dst);
        topo.cut_through(route, bytes, now, bw_scale, |idx, at, wire| {
            // Resource::reserve: start at max(arrival, busy_until), occupy
            // for the serialization time, push busy_until to the end.
            let start = at.max(self.busy[idx]);
            self.busy[idx] = start + wire;
            (start, start + wire)
        })
    }

    /// The mirrored busy-until clock of link `idx` (indices as in
    /// [`Topology::links`]).
    pub fn busy_until(&self, idx: usize) -> SimTime {
        self.busy[idx]
    }
}

/// Healed route tables keyed by the active dead-pair set, computed once
/// per set per machine and shared.
type HealedCache = sim_des::lock::Mutex<HashMap<Vec<(usize, usize)>, Arc<HealedRoutes>>>;

/// The single charging API for all inter-endpoint transfers.
///
/// Combines the [`Topology`] (routes, queueing) with the [`CostModel`]
/// (fixed software latencies). Cheap to clone: the graph is shared.
#[derive(Debug, Clone)]
pub struct Transport {
    topo: Arc<Topology>,
    cost: CostModel,
    /// Healed route tables keyed by the active dead-pair set (see
    /// [`crate::resilience`]); shared across clones so each table is
    /// computed once per machine.
    healed: Arc<HealedCache>,
    /// Completion time of the last put-with-signal delivery per
    /// `(src, dst)` route. Deliveries on one route complete in issue order
    /// (RDMA per-connection FIFO): without the clamp, a short put issued
    /// behind a long degraded-window put could overtake it, letting a
    /// `Set`-signal waiter observe a *later* iteration's flag before the
    /// *earlier* iteration's payload has landed. Shared across clones like
    /// link occupancy.
    fifo: Arc<sim_des::lock::Mutex<HashMap<(usize, usize), SimTime>>>,
}

impl Transport {
    /// Pair a topology with its cost calibration.
    pub fn new(topo: Arc<Topology>, cost: CostModel) -> Transport {
        Transport {
            topo,
            cost,
            healed: Arc::new(sim_des::lock::Mutex::new(HashMap::new())),
            fifo: Arc::new(sim_des::lock::Mutex::new(HashMap::new())),
        }
    }

    /// The underlying graph.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The cost calibration (fixed latencies, compute roofline).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Wire time of moving `bytes` from `src` to `dst` starting at `now`,
    /// reserving every link on the route and queueing behind earlier
    /// traffic on shared hops.
    ///
    /// Cut-through model: the message head advances to hop *k+1* after
    /// paying that link's forwarding latency and waiting for it to drain;
    /// each link is occupied for its own serialization time. Fixed per-op
    /// latencies (put/MPI/DMA issue costs) are *not* included — the typed
    /// wrappers below layer those on top.
    pub fn charge(&self, src: Endpoint, dst: Endpoint, bytes: u64, now: SimTime) -> SimDur {
        self.charge_scaled(src, dst, bytes, now, 1.0, 1.0)
    }

    /// [`Transport::charge`] with a bandwidth multiplier (`bw_scale`, e.g.
    /// block-cooperative puts) and a fault slowdown (`inv_bw`, stretches
    /// each hop's serialization time).
    pub fn charge_scaled(
        &self,
        src: Endpoint,
        dst: Endpoint,
        bytes: u64,
        now: SimTime,
        bw_scale: f64,
        inv_bw: f64,
    ) -> SimDur {
        self.charge_route(self.topo.route(src, dst), bytes, now, bw_scale, inv_bw)
    }

    /// Charge an explicit link sequence (the base route, or a healed route
    /// relayed through intermediate devices), reserving the real links;
    /// `inv_bw` stretches each hop's serialization time.
    fn charge_route(
        &self,
        route: &[usize],
        bytes: u64,
        now: SimTime,
        bw_scale: f64,
        inv_bw: f64,
    ) -> SimDur {
        let links = &self.topo.links;
        self.topo
            .cut_through(route, bytes, now, bw_scale, |idx, at, wire| {
                let r = links[idx].res.reserve(at, wire * inv_bw);
                (r.start, r.end)
            })
    }

    /// Dispatch a `memcpyAsync` between two places: label + duration.
    pub fn memcpy(
        &self,
        src: Place,
        dst: Place,
        bytes: u64,
        now: SimTime,
    ) -> (SimDur, &'static str) {
        let (s, d) = (Endpoint::from(src), Endpoint::from(dst));
        match (s, d) {
            (Endpoint::Host, _) | (_, Endpoint::Host) => (
                us(self.cost.pcie_latency_us) + self.charge(s, d, bytes, now),
                "memcpy pcie",
            ),
            (Endpoint::Dev(a), Endpoint::Dev(b)) if a == b => {
                (self.cost.local_copy(bytes), "memcpy local")
            }
            _ => (
                us(self.cost.p2p_latency_us) + self.charge(s, d, bytes, now),
                "memcpy p2p",
            ),
        }
    }

    /// Host-initiated peer-to-peer DMA between two devices.
    pub fn p2p(&self, src: DevId, dst: DevId, bytes: u64, now: SimTime) -> SimDur {
        if src == dst {
            return self.cost.local_copy(bytes);
        }
        us(self.cost.p2p_latency_us) + self.charge(src.into(), dst.into(), bytes, now)
    }

    /// Host <-> device staging copy (checkpoints, pinned-buffer staging).
    pub fn host_copy(&self, dev: DevId, bytes: u64, now: SimTime) -> SimDur {
        us(self.cost.pcie_latency_us) + self.charge(Endpoint::Host, dev.into(), bytes, now)
    }

    /// Device-initiated contiguous put of `bytes` from PE `src` to PE `dst`.
    pub fn shmem_put(&self, src: usize, dst: usize, bytes: u64, now: SimTime) -> SimDur {
        us(self.cost.shmem_put_us) + self.dev_charge(src, dst, bytes, now, 1.0, 1.0)
    }

    /// Mapped single-element puts: `count` `nvshmem_<T>_p` calls issued by
    /// up to `threads` GPU threads in parallel.
    pub fn shmem_p_mapped(
        &self,
        src: usize,
        dst: usize,
        count: u64,
        threads: u64,
        now: SimTime,
    ) -> SimDur {
        let waves = count.div_ceil(threads.max(1)).max(1);
        us(self.cost.shmem_p_us) * waves + self.dev_charge(src, dst, count * 8, now, 1.0, 1.0)
    }

    /// Strided `iput`/`iget` of `elems` elements of `elem_bytes` each.
    pub fn shmem_iput(
        &self,
        src: usize,
        dst: usize,
        elems: u64,
        elem_bytes: u64,
        now: SimTime,
    ) -> SimDur {
        us(self.cost.shmem_put_us)
            + us(self.cost.shmem_iput_elem_us) * elems
            + self.dev_charge(src, dst, elems * elem_bytes, now, 1.0, 1.0)
    }

    /// Single-element `nvshmem_<T>_p` remote store. Carries no measurable
    /// payload, but still rides the route: it queues behind bulk transfers
    /// in flight on the same links.
    pub fn shmem_p(&self, src: usize, dst: usize, now: SimTime) -> SimDur {
        us(self.cost.shmem_p_us) + self.dev_charge(src, dst, 0, now, 1.0, 1.0)
    }

    /// Device-initiated signal (or the signal half of put-with-signal),
    /// ordered behind route traffic like [`Transport::shmem_p`].
    pub fn shmem_signal(&self, src: usize, dst: usize, now: SimTime) -> SimDur {
        us(self.cost.shmem_signal_us) + self.dev_charge(src, dst, 0, now, 1.0, 1.0)
    }

    /// Host-path MPI message time for `bytes` between two PEs' devices.
    pub fn mpi_msg(&self, src: usize, dst: usize, bytes: u64, now: SimTime) -> SimDur {
        us(self.cost.mpi_msg_us) + self.dev_charge(src, dst, bytes, now, 1.0, 1.0)
    }

    /// Delivery cost of a put-with-signal from PE `src` to PE `dst` — the
    /// ONE place fault link degradation (`FaultState::link_mult`) is
    /// applied. `block` selects the block-cooperative bandwidth scale.
    ///
    /// An active link fault stretches the put issue latency and every
    /// hop's serialization time by the bandwidth multiplier (degraded links
    /// stay occupied longer, so contention compounds, as it should) and the
    /// signal by the latency multiplier.
    pub fn put_signal_delivery(
        &self,
        faults: &FaultState,
        src: usize,
        dst: usize,
        bytes: u64,
        now: SimTime,
        block: bool,
    ) -> SimDur {
        match self.try_put_signal_delivery(faults, src, dst, bytes, now, block) {
            Ok(d) => d,
            Err(p) => panic!("{p}"),
        }
    }

    /// [`Transport::put_signal_delivery`] surfacing network partitions as
    /// an error instead of a panic. When a hard link failure
    /// ([`sim_des::LinkFault::is_kill`]) has severed the direct `src <-> dst`
    /// connection, the transfer is **rerouted** over the healed route table
    /// for the active dead-pair set — relayed cut-through over surviving
    /// pairs — and only a fully partitioned network is an error.
    pub fn try_put_signal_delivery(
        &self,
        faults: &FaultState,
        src: usize,
        dst: usize,
        bytes: u64,
        now: SimTime,
        block: bool,
    ) -> Result<SimDur, PartitionedNetwork> {
        let (lat_mult, inv_bw) = if faults.is_active() {
            faults.link_mult(src, dst, now)
        } else {
            (1.0, 1.0)
        };
        let bw_scale = if block {
            self.cost.shmem_block_bw_scale
        } else {
            1.0
        };
        let wire = if src != dst && faults.has_kills() && faults.pair_dead(src, dst, now) {
            let healed = self.healed_routes(&faults.dead_pairs(now));
            let (route, relays) = healed.route(src, dst)?;
            // Each intermediate device store-and-forwards the message:
            // it pays a peer-forwarding latency on top of the wire time.
            us(self.cost.p2p_latency_us) * relays as u64
                + self.charge_route(route, bytes, now, bw_scale, inv_bw)
        } else {
            self.dev_charge(src, dst, bytes, now, bw_scale, inv_bw)
        };
        let raw =
            us(self.cost.shmem_put_us) * inv_bw + wire + us(self.cost.shmem_signal_us) * lat_mult;
        // Per-route FIFO: clamp so this delivery never completes before an
        // earlier one on the same route. A no-op unless a fault window
        // actually reordered completions, so fault-free timings are
        // untouched.
        let mut fifo = self.fifo.lock();
        let done = (now + raw).max(fifo.get(&(src, dst)).copied().unwrap_or(SimTime::ZERO));
        fifo.insert((src, dst), done);
        Ok(done.since(now))
    }

    /// The healed route table for a dead-pair set (computed once per set
    /// per machine, then shared).
    fn healed_routes(&self, dead: &[(usize, usize)]) -> Arc<HealedRoutes> {
        let mut cache = self.healed.lock();
        if let Some(t) = cache.get(dead) {
            return Arc::clone(t);
        }
        let t = Arc::new(HealedRoutes::compute(&self.topo, dead));
        cache.insert(dead.to_vec(), Arc::clone(&t));
        t
    }

    fn dev_charge(
        &self,
        src: usize,
        dst: usize,
        bytes: u64,
        now: SimTime,
        bw_scale: f64,
        inv_bw: f64,
    ) -> SimDur {
        self.charge_scaled(
            Endpoint::Dev(DevId(src)),
            Endpoint::Dev(DevId(dst)),
            bytes,
            now,
            bw_scale,
            inv_bw,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transport(kind: TopologyKind, n: usize) -> Transport {
        let cost = CostModel::a100_hgx();
        Transport::new(Topology::build(kind, n, &cost), cost)
    }

    #[test]
    fn all_to_all_uncontended_matches_flat_model() {
        let c = CostModel::a100_hgx();
        let now = SimTime(12345);
        for bytes in [0u64, 8, 4096, 1 << 20] {
            // Fresh graph per size: charges reserve the links, so repeats on
            // one pair at the same instant would (correctly) queue.
            let t = transport(TopologyKind::NvlinkAllToAll, 8);
            assert_eq!(t.shmem_put(0, 5, bytes, now), c.shmem_put(bytes));
            assert_eq!(t.p2p(DevId(3), DevId(4), bytes, now), c.p2p_copy(bytes));
            assert_eq!(t.host_copy(DevId(6), bytes, now), c.pcie_copy(bytes));
        }
        let t = transport(TopologyKind::NvlinkAllToAll, 8);
        assert_eq!(t.shmem_iput(0, 1, 1024, 8, now), c.shmem_iput(1024, 8));
        assert_eq!(
            t.shmem_p_mapped(2, 3, 256, 1024, now),
            c.shmem_p_mapped(256, 1024)
        );
    }

    fn p2p_usize(t: &Transport, s: usize, d: usize, bytes: u64, now: SimTime) -> SimDur {
        t.p2p(DevId(s), DevId(d), bytes, now)
    }

    #[test]
    fn all_to_all_distinct_pairs_do_not_contend() {
        let t = transport(TopologyKind::NvlinkAllToAll, 8);
        let now = SimTime(0);
        let solo = t.shmem_put(0, 1, 1 << 22, now);
        // Other pairs — including the reverse direction — firing at the
        // same instant see no queueing: every ordered pair has its own link.
        t.shmem_put(2, 3, 1 << 22, now);
        t.shmem_put(4, 5, 1 << 22, now);
        assert_eq!(t.shmem_put(1, 0, 1 << 22, now), solo);
    }

    #[test]
    fn same_pair_overlap_queues() {
        let t = transport(TopologyKind::NvlinkAllToAll, 4);
        let now = SimTime(0);
        let first = t.shmem_put(0, 1, 1 << 22, now);
        let second = t.shmem_put(0, 1, 1 << 22, now);
        // The second transfer waits for the first to drain the link.
        let c = CostModel::a100_hgx();
        let wire = c.shmem_put(1 << 22) - c.shmem_put(0);
        assert_eq!(second, first + wire);
    }

    #[test]
    fn pcie_tree_shares_bridge_uplinks() {
        let t = transport(TopologyKind::PcieTree, 8);
        let now = SimTime(0);
        // Cross-bridge pairs (0->4) and (1->5) share both bridge uplinks.
        let solo = p2p_usize(&t, 0, 4, 1 << 22, now);
        let contended = p2p_usize(&t, 1, 5, 1 << 22, now);
        assert!(
            contended > solo,
            "second cross-bridge flow must queue: {contended} vs {solo}"
        );
    }

    #[test]
    fn pcie_same_bridge_pairs_contend_on_switch() {
        let t = transport(TopologyKind::PcieTree, 8);
        let now = SimTime(0);
        // Same-bridge disjoint pairs share only the local bridge switch.
        let a = p2p_usize(&t, 0, 1, 1 << 22, now);
        let b = p2p_usize(&t, 2, 3, 1 << 22, now);
        assert!(b > a, "bridge switch is a shared hop under one bridge");
    }

    #[test]
    fn ring_distant_pairs_cost_more_than_neighbors() {
        let t = transport(TopologyKind::NvlinkRing, 8);
        let near = t.shmem_put(0, 1, 1 << 20, SimTime(0));
        let far = t.shmem_put(2, 6, 1 << 20, SimTime(0));
        assert!(far > near, "multi-hop ring route must cost more");
        assert_eq!(t.topology().route_hops(2, 6), 4);
        assert_eq!(t.topology().route_hops(0, 7), 1, "wraparound is one hop");
    }

    #[test]
    fn two_node_cross_traffic_funnels_through_nics() {
        let t = transport(TopologyKind::TwoNode, 8);
        let now = SimTime(0);
        let intra = t.shmem_put(0, 1, 1 << 20, now);
        let cross = t.shmem_put(0, 4, 1 << 20, now);
        assert!(cross > intra * 2, "NIC path is slower than NVLink");
        let again = t.shmem_put(1, 5, 1 << 20, now);
        assert!(again > cross, "all cross-node flows share the NICs");
    }

    #[test]
    fn ring_order_is_natural_for_all_presets() {
        for kind in TopologyKind::presets() {
            for n in [1usize, 2, 4, 8] {
                let cost = CostModel::a100_hgx();
                let topo = Topology::build(kind, n, &cost);
                assert_eq!(
                    topo.ring_order(),
                    (0..n).collect::<Vec<_>>().as_slice(),
                    "{kind:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn pairs_crossing_names_the_fabric_kill_set() {
        let cost = CostModel::a100_hgx();
        let ft = Topology::build(TopologyKind::FatTree { gpus: 4, radix: 4 }, 4, &cost);
        // ECMP hash (s + d) % spines: spine 0 carries {0,2} and {1,3},
        // spine 1 the other two cross-leaf pairs.
        assert_eq!(ft.pairs_crossing("ft.l0>s0"), vec![(0, 2), (1, 3)]);
        assert_eq!(ft.pairs_crossing("ft.l0>s1"), vec![(0, 3), (1, 2)]);
        let df = Topology::build(
            TopologyKind::Dragonfly {
                groups: 4,
                routers_per_group: 1,
                gpus_per_router: 1,
            },
            4,
            &cost,
        );
        assert_eq!(df.pairs_crossing("df.gl0-1"), vec![(0, 1)]);
    }

    #[test]
    fn all_routes_exist_and_signal_rides_route() {
        for kind in TopologyKind::presets() {
            let t = transport(kind, 8);
            for s in 0..8 {
                for d in 0..8 {
                    if s != d {
                        assert!(t.topology().route_hops(s, d) >= 1, "{kind:?} {s}->{d}");
                    }
                }
            }
            // A zero-byte signal behind a bulk put on the same route queues.
            let now = SimTime(0);
            let put = t.shmem_put(0, 1, 1 << 22, now);
            let sig = t.shmem_signal(0, 1, now);
            let c = CostModel::a100_hgx();
            let wire_nvl = c.shmem_put(1 << 22) - c.shmem_put(0);
            assert!(
                sig >= wire_nvl,
                "{kind:?}: signal must not overtake the put ({sig} vs {put})"
            );
        }
    }

    #[test]
    fn killed_pair_reroutes_and_partition_surfaces() {
        use sim_des::{FaultPlan, LinkFault};
        let c = CostModel::a100_hgx();
        let bytes = 1 << 20;
        // 4 devices: killing {0,1} reroutes over a 2-link relay.
        let t = transport(TopologyKind::NvlinkAllToAll, 4);
        let st =
            sim_des::FaultState::new(FaultPlan::new().with_link(LinkFault::kill(0, 1, SimTime(0))));
        let healed = t
            .try_put_signal_delivery(&st, 0, 1, bytes, SimTime(0), false)
            .unwrap();
        assert!(
            healed > c.shmem_put(bytes) + c.shmem_signal(),
            "relayed route must cost more than the direct link"
        );
        let hops = |t: &Transport, st: &FaultState, src, dst| {
            HealedRoutes::compute(t.topology(), &st.dead_pairs(SimTime(0)))
                .route(src, dst)
                .map(|(links, _)| links.len())
        };
        assert_eq!(hops(&t, &st, 0, 1).unwrap(), 2);
        // Other pairs are untouched — exact flat-model equality holds.
        assert_eq!(
            t.try_put_signal_delivery(&st, 2, 3, bytes, SimTime(0), false)
                .unwrap(),
            c.shmem_put(bytes) + c.shmem_signal()
        );
        // Before the kill activates, the direct route still serves.
        let st_late = sim_des::FaultState::new(FaultPlan::new().with_link(LinkFault::kill(
            0,
            1,
            SimTime(1000),
        )));
        assert_eq!(
            hops(&t, &st_late, 0, 1).unwrap(),
            t.topology().route_hops(0, 1)
        );
        // 2 devices: killing the only pair partitions the network.
        let t2 = transport(TopologyKind::NvlinkAllToAll, 2);
        let st2 =
            sim_des::FaultState::new(FaultPlan::new().with_link(LinkFault::kill(0, 1, SimTime(0))));
        let err = t2
            .try_put_signal_delivery(&st2, 0, 1, bytes, SimTime(0), false)
            .unwrap_err();
        assert!(err.to_string().contains("PartitionedNetwork"));
        assert!(hops(&t2, &st2, 1, 0).is_err());
    }

    #[test]
    fn faulted_delivery_matches_flat_formula_uncontended() {
        let t = transport(TopologyKind::NvlinkAllToAll, 4);
        let c = CostModel::a100_hgx();
        let healthy = FaultState::none();
        let bytes = 1 << 20;
        let dur = t.put_signal_delivery(&healthy, 0, 1, bytes, SimTime(0), false);
        assert_eq!(dur, c.shmem_put(bytes) + c.shmem_signal());
        let dur_b = t.put_signal_delivery(&healthy, 2, 3, bytes, SimTime(0), true);
        assert_eq!(dur_b, c.shmem_put_block(bytes) + c.shmem_signal());
    }

    #[test]
    fn forward_latency_skips_the_first_hop() {
        // All-to-all: every device pair is one direct link — no forwarding.
        let aa = transport(TopologyKind::NvlinkAllToAll, 8);
        assert_eq!(aa.topology().route_forward_latency(0, 5), SimDur::ZERO);
        assert_eq!(aa.topology().route_forward_latency(3, 3), SimDur::ZERO);
        // PCIe tree: multi-hop routes pay latency for every hop after the
        // first, consistent with the transfer-charge model.
        let pt = transport(TopologyKind::PcieTree, 8);
        let topo = pt.topology();
        let (mut multi, mut zero) = (0, 0);
        for s in 0..8 {
            for d in 0..8 {
                if s == d {
                    continue;
                }
                let fwd = topo.route_forward_latency(s, d);
                if topo.route_hops(s, d) > 1 {
                    assert!(!fwd.is_zero(), "{s}->{d} multi-hop but free");
                    multi += 1;
                } else {
                    assert!(fwd.is_zero());
                    zero += 1;
                }
            }
        }
        assert!(multi > 0, "pcie tree should have multi-hop routes");
        let _ = zero;
    }

    #[test]
    fn fat_tree_cross_leaf_flows_share_spine_links() {
        let kind = TopologyKind::FatTree {
            gpus: 64,
            radix: 16,
        };
        let t = transport(kind, 64);
        let now = SimTime(0);
        // 0 -> 8 and 16 -> 24 hash onto the same spine ((s + d) % 8 == 0)
        // but touch disjoint leaves: only if they shared a spine link would
        // they queue — they use different up/down links, so they must not.
        let solo = t.shmem_put(0, 8, 1 << 22, now);
        assert_eq!(t.shmem_put(16, 24, 1 << 22, now), solo);
        // Two flows out of the SAME leaf hashed onto the same spine share
        // that leaf's uplink and queue.
        let t = transport(kind, 64);
        let a = t.shmem_put(0, 8, 1 << 22, now);
        let b = t.shmem_put(1, 15, 1 << 22, now); // (1+15) % 8 == 0 too
        assert!(b > a, "same leaf + same spine hash must queue: {b} vs {a}");
        // Intra-leaf traffic never touches the spine layer.
        assert_eq!(t.topology().route_hops(0, 7), 2);
        assert_eq!(t.topology().route_hops(0, 8), 4);
    }

    #[test]
    fn dragonfly_single_global_link_is_the_bottleneck() {
        let kind = TopologyKind::Dragonfly {
            groups: 6,
            routers_per_group: 3,
            gpus_per_router: 4,
        };
        let t = transport(kind, 72);
        let now = SimTime(0);
        // Group 0 holds devices 0..12, group 1 holds 12..24. Distinct
        // device pairs crossing the same group pair share the one global
        // link and queue behind each other.
        let first = t.shmem_put(0, 12, 1 << 22, now);
        let second = t.shmem_put(4, 16, 1 << 22, now);
        assert!(
            second > first,
            "both flows cross the single g0-g1 global link: {second} vs {first}"
        );
        // Same-router and same-group routes stay off the global layer.
        assert_eq!(t.topology().route_hops(0, 1), 2);
        assert_eq!(t.topology().route_hops(0, 4), 3);
        // Cross-group routes touch at most gateway + global + gateway.
        for (s, d) in [(0usize, 12usize), (0, 23), (11, 70)] {
            let hops = t.topology().route_hops(s, d);
            assert!((3..=5).contains(&hops), "{s}->{d}: {hops} hops");
        }
    }

    #[test]
    fn rail_optimized_same_rail_skips_the_nvlink_hop() {
        let kind = TopologyKind::RailOptimized {
            nodes: 8,
            gpus_per_node: 8,
            rails: 4,
        };
        let t = transport(kind, 64);
        let topo = t.topology();
        // GPU 1 (rail 1) to GPU 9 (node 1, local 1, rail 1): rail-aligned,
        // two rail links. GPU 1 to GPU 8 (rail 0): lands on node 1's rail-1
        // owner (GPU 9) and pays one NVLink hop to reach GPU 8.
        assert_eq!(topo.route_hops(1, 9), 2);
        assert_eq!(topo.route_hops(1, 8), 3);
        assert_eq!(topo.route_hops(0, 1), 1, "intra-node stays on NVLink");
        // Cross-node flows on the same (node, rail) pair share the uplink.
        let now = SimTime(0);
        let a = t.shmem_put(1, 9, 1 << 22, now);
        let b = t.shmem_put(5, 13, 1 << 22, now); // local 5 -> rail 1 too
        assert!(b > a, "rail.n0.r1 is shared: {b} vs {a}");
        // Different rails out of the same node do not contend.
        let t = transport(kind, 64);
        let solo = t.shmem_put(1, 9, 1 << 22, now);
        assert_eq!(t.shmem_put(2, 10, 1 << 22, now), solo);
    }

    #[test]
    #[should_panic(expected = "holds 64 GPUs")]
    fn cluster_capacity_is_enforced() {
        let cost = CostModel::a100_hgx();
        Topology::build(
            TopologyKind::FatTree {
                gpus: 64,
                radix: 16,
            },
            65,
            &cost,
        );
    }

    #[test]
    fn preset_names_are_unique_and_round_trip_by_family() {
        let presets = TopologyKind::presets();
        let names: Vec<String> = presets.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            names.len(),
            "duplicate preset names: {names:?}"
        );
        for k in &presets {
            assert!(k.name().starts_with(k.family()), "{}", k.name());
            assert_eq!(k.is_cluster(), k.capacity().is_some());
        }
    }
}
