//! Cross-preset conformance harness: the interconnect decides *when*
//! data moves, never *what* arrives. For every [`TopologyKind`] preset —
//! single-node, two-node and the cluster fabrics — routes must be
//! symmetric and total, per-route delivery must stay FIFO even under
//! fault-stretched reordering pressure, and Jacobi + CG numerics must be
//! bit-identical; only virtual time may differ. The preset list itself is
//! locked by [`preset_list_is_locked_by_the_conformance_harness`], so a
//! new preset that skips this harness fails loudly.

use cpufree_solvers::{run_cpu_free, PoissonProblem};
use gpu_sim::{CostModel, ExecMode, Topology, TopologyKind, Transport};
use sim_des::{us, FaultPlan, FaultState, LinkFault, SimTime};
use stencil_lab::{StencilConfig, Variant};

#[test]
fn preset_list_is_locked_by_the_conformance_harness() {
    let names: Vec<String> = TopologyKind::presets()
        .into_iter()
        .map(|k| k.name())
        .collect();
    assert_eq!(
        names,
        [
            "nvlink-all-to-all",
            "nvlink-ring",
            "pcie-tree",
            "two-node",
            "fat-tree-64r16",
            "dragonfly-6x3x4",
            "rail-optimized-8x8r4",
        ],
        "the preset list changed: extend the conformance harness (route \
         symmetry, FIFO delivery, Jacobi/CG checksums, \
         chaos degraded cases) for the new preset, then update this list"
    );
}

#[test]
fn routes_are_symmetric_and_total_on_every_preset() {
    let cost = CostModel::a100_hgx();
    for kind in TopologyKind::presets() {
        // Small partial occupancy for every preset, plus full capacity on
        // the sized cluster fabrics.
        let sizes = match kind.capacity() {
            Some(cap) => vec![8, cap],
            None => vec![8],
        };
        for n in sizes {
            let topo = Topology::build(kind, n, &cost);
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let fwd = topo.route_hops(s, d);
                    assert!(fwd >= 1, "{}: no route {s}->{d} at n={n}", kind.name());
                    assert_eq!(
                        fwd,
                        topo.route_hops(d, s),
                        "{}: asymmetric route {s}<->{d} at n={n}",
                        kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn per_route_delivery_is_fifo_on_every_preset() {
    // A degradation window stretches early deliveries; later small puts on
    // the same route must still never complete before their predecessors
    // (the per-route FIFO clamp — the exact race the chaos sweep caught on
    // the node presets, now locked down across the cluster fabrics too).
    let cost = CostModel::a100_hgx();
    for kind in TopologyKind::presets() {
        let topo = Topology::build(kind, 8, &cost);
        let t = Transport::new(topo, cost.clone());
        let plan = FaultPlan::new().with_link(LinkFault {
            a: 0,
            b: 5,
            from: SimTime::ZERO,
            until: SimTime::ZERO + us(50.0),
            latency_mult: 40.0,
            bandwidth_mult: 0.02,
        });
        let faults = FaultState::new(plan);
        let mut prev_done = SimTime::ZERO;
        for (i, bytes) in [8u64 << 20, 8, 1 << 20, 8, 64].into_iter().enumerate() {
            let now = SimTime::ZERO + us(i as f64);
            let dur = t.put_signal_delivery(&faults, 0, 5, bytes, now, false);
            let done = now + dur;
            assert!(
                done >= prev_done,
                "{}: put {i} completed at {done:?}, before its predecessor \
                 at {prev_done:?}",
                kind.name()
            );
            prev_done = done;
        }
    }
}

#[test]
fn halo_exchange_numerics_topology_invariant() {
    let mut results = Vec::new();
    for kind in TopologyKind::presets() {
        let cfg = StencilConfig::square2d(64, 8, 4).with_topology(kind);
        let ex = Variant::CpuFree.run(&cfg);
        results.push((kind.name(), ex.checksum, ex.max_err, ex.total));
    }
    let (_, checksum0, max_err0, _) = results[0];
    for (name, checksum, max_err, _) in &results {
        assert_eq!(*checksum, checksum0, "checksum differs on {name}");
        assert_eq!(*max_err, max_err0, "max_err differs on {name}");
    }
    // The routed PCIe tree really is a different machine: its virtual time
    // must differ from the all-to-all NVLink preset.
    let t_nvl = results
        .iter()
        .find(|r| r.0 == "nvlink-all-to-all")
        .unwrap()
        .3;
    let t_pcie = results.iter().find(|r| r.0 == "pcie-tree").unwrap().3;
    assert_ne!(t_nvl, t_pcie, "pcie-tree should not match nvlink timing");
}

#[test]
fn allreduce_numerics_topology_invariant() {
    // 4 PEs exercises the recursive-doubling branch, 3 PEs the ring branch.
    for n_pes in [4usize, 3] {
        let mut results = Vec::new();
        for kind in TopologyKind::presets() {
            let prob = PoissonProblem::new(18, 20, 8, n_pes).with_topology(kind);
            let r = run_cpu_free(&prob, ExecMode::Full);
            results.push((kind.name(), r.final_rho, r.x_owned.clone()));
        }
        let (_, rho0, x0) = results[0].clone();
        for (name, rho, x) in &results {
            assert_eq!(
                rho.to_bits(),
                rho0.to_bits(),
                "final rho differs on {name} with {n_pes} PEs"
            );
            assert_eq!(*x, x0, "solution differs on {name} with {n_pes} PEs");
        }
    }
}
