//! Property-style tests over the core data structures and invariants of the
//! stack. Each test draws its cases from a seeded xorshift-style generator
//! (SplitMix64), so runs are deterministic and need no external crates.

use cpufree::dace_sim::{Bindings, Expr};
use cpufree::prelude::*;
use cpufree::sim_des::{Trace, TraceSpan};
use cpufree::stencil_lab::Slab;

/// SplitMix64: tiny, high-quality, deterministic case generator.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (half-open, like proptest ranges).
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform f64 in `lo..hi`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() as f64 / u64::MAX as f64) * (hi - lo)
    }
}

/// §4.1.2 allocation: conservation, minimums, and monotonicity in the
/// boundary share.
#[test]
fn tb_allocation_invariants() {
    let mut g = Gen::new(0xA110C);
    for _ in 0..256 {
        let total = g.range_u64(3, 1024);
        let inner = g.range_u64(0, 1_000_000);
        let boundary = g.range_u64(0, 100_000);
        let a = TbAllocation::proportional(total, inner, boundary);
        assert_eq!(a.total, total);
        assert_eq!(2 * a.boundary_tbs + a.inner_tbs, total);
        assert!(a.boundary_tbs >= 1);
        assert!(a.inner_tbs >= 1);
        let f = 2.0 * a.boundary_fraction() + a.inner_fraction();
        assert!((f - 1.0).abs() < 1e-9);
    }
}

/// Allocation monotonicity: growing the boundary workload never takes
/// blocks AWAY from the boundary groups.
#[test]
fn tb_allocation_monotone_in_boundary() {
    let mut g = Gen::new(0xB07D);
    for _ in 0..256 {
        let total = g.range_u64(5, 512);
        let inner = g.range_u64(1, 1_000_000);
        let boundary = g.range_u64(1, 50_000);
        let a = TbAllocation::proportional(total, inner, boundary);
        let b = TbAllocation::proportional(total, inner, boundary * 2);
        assert!(b.boundary_tbs >= a.boundary_tbs);
    }
}

/// Slab decomposition: partition exactness, contiguity, balance.
#[test]
fn slab_invariants() {
    let mut g = Gen::new(0x51AB);
    let mut cases = 0;
    while cases < 256 {
        let interior = g.range_usize(1, 10_000);
        let n = g.range_usize(1, 64);
        if interior < n {
            continue; // proptest's prop_assume! equivalent
        }
        cases += 1;
        let s = Slab::new(interior, n);
        let total: usize = (0..n).map(|p| s.layers(p)).sum();
        assert_eq!(total, interior);
        let mut cursor = 0;
        for p in 0..n {
            assert_eq!(s.start(p), cursor);
            cursor += s.layers(p);
            // Balance: never differ by more than one layer.
            assert!(s.layers(p) + 1 >= s.layers(0));
            assert!(s.layers(p) <= s.layers(0));
        }
    }
}

/// Virtual time arithmetic: associativity/ordering survives conversion.
#[test]
fn simdur_arithmetic() {
    let mut g = Gen::new(0x7133);
    for _ in 0..512 {
        let a = g.range_u64(0, u32::MAX as u64);
        let b = g.range_u64(0, u32::MAX as u64);
        let (da, db) = (SimDur::from_nanos(a), SimDur::from_nanos(b));
        assert_eq!((da + db).as_nanos(), a + b);
        assert_eq!((SimTime::ZERO + da + db).since(SimTime::ZERO + da), db);
        assert_eq!(da * 3, SimDur::from_nanos(a * 3));
        assert!((da + db) >= da.max(db));
    }
}

/// Trace algebra: overlap(a,b) <= min(busy(a), busy(b)); busy <= total.
#[test]
fn trace_overlap_bounds() {
    let mut g = Gen::new(0x07AC3);
    for _ in 0..128 {
        let n_spans = g.range_usize(1, 40);
        let mut t = Trace::new();
        for _ in 0..n_spans {
            let start = g.range_u64(0, 10_000);
            let len = g.range_u64(1, 500);
            let cat = g.range_u64(0, 2);
            t.push(TraceSpan {
                agent: cpufree::sim_des::AgentId(0),
                agent_name: t.intern("p"),
                start: SimTime(start),
                end: SimTime(start + len),
                category: if cat == 0 {
                    Category::Comm
                } else {
                    Category::Compute
                },
                label: cpufree::sim_des::Sym::EMPTY,
            });
        }
        let comm = t.busy(Category::Comm);
        let comp = t.busy(Category::Compute);
        let ov = t.overlap(Category::Comm, Category::Compute);
        assert!(ov <= comm);
        assert!(ov <= comp);
        assert!(comm <= t.total(Category::Comm));
        let r = t.overlap_ratio(Category::Comm, Category::Compute);
        assert!((0.0..=1.0).contains(&r));
    }
}

/// Symbolic expressions evaluate compositionally.
#[test]
fn expr_compositionality() {
    let mut g = Gen::new(0xE49);
    for _ in 0..256 {
        let x = g.range_i64(-1000, 1000);
        let y = g.range_i64(1, 1000);
        let mut b = Bindings::new();
        b.insert("x".into(), x);
        b.insert("y".into(), y);
        let e = Expr::s("x").mul(Expr::c(2)).add(Expr::s("y"));
        assert_eq!(e.eval(&b), 2 * x + y);
        let d = Expr::s("x")
            .div(Expr::s("y"))
            .mul(Expr::s("y"))
            .add(Expr::s("x").rem(Expr::s("y")));
        assert_eq!(d.eval(&b), x); // Euclid-ish identity for trunc div
    }
}

/// Cost model sanity across random transfer sizes: device-initiated
/// communication is never slower than the host MPI path, and both are
/// monotone in size.
#[test]
fn cost_model_monotone() {
    let mut g = Gen::new(0xC057);
    let m = CostModel::a100_hgx();
    for _ in 0..512 {
        let bytes = g.range_u64(8, 1 << 24);
        assert!(m.shmem_put(bytes) < m.mpi_msg(bytes));
        assert!(m.shmem_put(bytes) <= m.shmem_put(bytes * 2));
        assert!(m.p2p_copy(bytes) <= m.p2p_copy(bytes + 8));
        assert!(m.pcie_copy(bytes) > m.p2p_copy(bytes));
    }
}

/// FUNCTIONAL END-TO-END PROPERTY: for random small configurations, the
/// CPU-Free multi-GPU run is bitwise-identical to the sequential
/// reference. (Few cases: each runs a full simulation.)
#[test]
fn cpu_free_exact_for_random_configs() {
    let mut g = Gen::new(0xF4EE);
    for _ in 0..8 {
        let nx = g.range_usize(8, 40);
        let layers_per_gpu = g.range_usize(2, 8);
        let gpus = g.range_usize(1, 5);
        let iters = g.range_u64(1, 7);
        let cfg = StencilConfig {
            nx,
            ny: layers_per_gpu * gpus + 2,
            nz: 1,
            iterations: iters,
            n_gpus: gpus,
            exec: ExecMode::Full,
            no_compute: false,
            cost: None,
            topology: None,
            jitter: None,
            check: false,
        };
        let out = Variant::CpuFree.run(&cfg);
        assert_eq!(out.max_err, Some(0.0));
    }
}

/// Same property for the discrete NVSHMEM baseline (different protocol,
/// same numerics).
#[test]
fn nvshmem_baseline_exact_for_random_configs() {
    let mut g = Gen::new(0x5421);
    for _ in 0..8 {
        let nx = g.range_usize(8, 32);
        let layers_per_gpu = g.range_usize(2, 6);
        let gpus = g.range_usize(1, 4);
        let iters = g.range_u64(1, 6);
        let cfg = StencilConfig {
            nx,
            ny: layers_per_gpu * gpus + 2,
            nz: 1,
            iterations: iters,
            n_gpus: gpus,
            exec: ExecMode::Full,
            no_compute: false,
            cost: None,
            topology: None,
            jitter: None,
            check: false,
        };
        let out = Variant::BaselineNvshmem.run(&cfg);
        assert_eq!(out.max_err, Some(0.0));
    }
}

/// Collectives: the device-side allreduce equals the order-matched
/// reference for random values and PE counts (each case runs a full
/// simulation, so few cases).
#[test]
fn allreduce_matches_reference() {
    use cpufree::nvshmem_sim::{allreduce_scalar, reference_reduce, AllreduceWs, ReduceOp};
    use std::sync::{Arc, Mutex};
    let mut g = Gen::new(0xA11);
    for _ in 0..6 {
        let n = 1usize << g.range_usize(0, 4); // 1, 2, 4, 8
        let values: Vec<f64> = (0..n).map(|_| g.range_f64(-100.0, 100.0)).collect();
        let machine = Machine::new(n, CostModel::a100_hgx(), ExecMode::Full);
        let world = ShmemWorld::init(&machine);
        let ws = AllreduceWs::new(&world);
        let results = Arc::new(Mutex::new(vec![0.0f64; n]));
        let vals = values.clone();
        let res_l = Arc::clone(&results);
        launch_cpu_free(&machine, "ar", move |pe| {
            let world = world.clone();
            let mut ws = ws.clone();
            let v = vals[pe];
            let results = Arc::clone(&res_l);
            vec![BlockGroup::new("g", 1, move |k| {
                let mut sh = ShmemCtx::new(&world, k);
                let r = allreduce_scalar(&mut sh, k, &mut ws, v, ReduceOp::Sum);
                results.lock().unwrap()[pe] = r;
            })]
        })
        .unwrap();
        let expect = reference_reduce(&values, ReduceOp::Sum, true);
        let out = results.lock().unwrap();
        assert!(out.iter().all(|r| *r == expect), "{out:?} != {expect}");
    }
}

/// The happens-before event stream is acyclic (every direct dependency
/// points at an earlier event id) and consistent with virtual time (a
/// dependency never happens at a later virtual time than its dependent),
/// for random ring-handshake schedules.
#[test]
fn hb_graph_acyclic_and_time_consistent() {
    let mut g = Gen::new(0x4B6);
    for _ in 0..16 {
        let n = g.range_usize(2, 6);
        let rounds = g.range_u64(1, 6);
        let engine = Engine::new();
        let hb = engine.enable_hb();
        let flags: Vec<Flag> = (0..n).map(|_| engine.flag(0)).collect();
        for i in 0..n {
            // Each agent signals its successor, then waits on its own flag
            // (set by its predecessor) — signal-before-wait, so no deadlock.
            let set_flag = flags[(i + 1) % n];
            let wait_flag = flags[i];
            let step = g.range_u64(1, 50);
            engine.spawn(format!("ring{i}"), move |ctx| {
                for r in 1..=rounds {
                    ctx.advance(SimDur::from_nanos(step));
                    ctx.signal(set_flag, SignalOp::Set, r);
                    ctx.wait_flag(wait_flag, Cmp::Ge, r);
                }
            });
        }
        engine.run().unwrap();
        let events = hb.events();
        assert!(!events.is_empty());
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.id as usize, i, "event ids are the stream positions");
            for &d in &ev.deps {
                assert!(d < ev.id, "dep {d} does not precede event {}", ev.id);
                assert!(
                    events[d as usize].time <= ev.time,
                    "dep {d} at {:?} is later than event {} at {:?}",
                    events[d as usize].time,
                    ev.id,
                    ev.time
                );
            }
        }
        assert!(hb.is_clean(), "{:?}", hb.diagnostics());
    }
}

/// Trace overlap and overlap-ratio are functions of the span *set*: pushing
/// the same spans in a different order changes nothing.
#[test]
fn overlap_ratio_invariant_under_span_reordering() {
    let mut g = Gen::new(0x0B5);
    for _ in 0..64 {
        let n_spans = g.range_usize(2, 40);
        let mut spans = Vec::new();
        for _ in 0..n_spans {
            let start = g.range_u64(0, 10_000);
            let len = g.range_u64(1, 500);
            spans.push(TraceSpan {
                agent: cpufree::sim_des::AgentId(0),
                agent_name: cpufree::sim_des::Sym::EMPTY,
                start: SimTime(start),
                end: SimTime(start + len),
                category: if g.range_u64(0, 2) == 0 {
                    Category::Comm
                } else {
                    Category::Compute
                },
                label: cpufree::sim_des::Sym::EMPTY,
            });
        }
        let measure = |order: &[usize]| {
            let mut t = Trace::new();
            for &i in order {
                t.push(spans[i]);
            }
            (
                t.overlap(Category::Comm, Category::Compute),
                t.overlap_ratio(Category::Comm, Category::Compute),
            )
        };
        let ident: Vec<usize> = (0..n_spans).collect();
        let (ov0, r0) = measure(&ident);
        let mut perm = ident;
        for i in (1..n_spans).rev() {
            let j = g.range_usize(0, i + 1);
            perm.swap(i, j);
        }
        let (ov1, r1) = measure(&perm);
        assert_eq!(ov0, ov1);
        assert!(r0 == r1, "ratio changed under reordering: {r0} vs {r1}");
    }
}

/// The Fig 6.3b Jacobi-2D program, lowered to the CPU-Free backend, is
/// bit-exact for random per-PE shapes, PE counts and step counts.
#[test]
fn jacobi2d_exact_for_random_shapes() {
    use cpufree::dace_sim::{run_persistent, to_cpu_free, Jacobi2dSetup};
    let mut g = Gen::new(0x62D);
    for _ in 0..6 {
        let rows = g.range_usize(2, 7);
        let cols = g.range_usize(2, 7);
        let n = [1, 2, 4, 8][g.range_usize(0, 4)];
        let steps = g.range_u64(1, 4);
        let setup = Jacobi2dSetup::new(rows, cols, steps, n);
        let mut sdfg = setup.sdfg.clone();
        to_cpu_free(&mut sdfg).expect("to_cpu_free");
        let out = run_persistent(
            &sdfg,
            n,
            &setup.user_bindings(),
            steps,
            ExecMode::Full,
            &|pe, arr| setup.init_local(pe, arr),
        )
        .expect("run_persistent");
        let got = setup.gather(&out.finals["A"]);
        let want = setup.reference();
        assert_eq!(got.len(), want.len());
        assert!(
            got.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "rows={rows} cols={cols} n={n} steps={steps}"
        );
    }
}
