//! End-to-end CG tests: bitwise verification against order-matched
//! references, convergence, performance shape, determinism.

use cpufree_solvers::{run_baseline, run_cpu_free, PoissonProblem};
use gpu_sim::ExecMode;
use stencil_lab::grid::{max_abs_diff, max_dev};

#[test]
fn cpu_free_cg_matches_reference_bitwise() {
    let prob = PoissonProblem::new(18, 22, 12, 4);
    let out = run_cpu_free(&prob, ExecMode::Full);
    assert_eq!(out.verify(&prob), 0.0);
}

#[test]
fn baseline_cg_matches_reference_bitwise() {
    let prob = PoissonProblem::new(18, 22, 12, 4);
    let out = run_baseline(&prob, ExecMode::Full);
    assert_eq!(out.verify(&prob), 0.0);
}

#[test]
fn both_variants_agree_numerically() {
    // Different reduction orders → not bitwise, but physically identical.
    let prob = PoissonProblem::new(16, 20, 15, 4);
    let a = run_cpu_free(&prob, ExecMode::Full);
    let b = run_baseline(&prob, ExecMode::Full);
    let diff = a
        .x_owned
        .iter()
        .zip(&b.x_owned)
        .map(|(u, v)| max_abs_diff(u, v))
        .fold(0.0, max_dev);
    assert!(diff < 1e-9, "variants diverged: {diff}");
}

#[test]
fn cg_converges() {
    let prob = PoissonProblem::new(18, 18, 40, 4);
    let out = run_cpu_free(&prob, ExecMode::Full);
    let short = PoissonProblem::new(18, 18, 1, 4);
    let first = run_cpu_free(&short, ExecMode::Full);
    assert!(
        out.final_rho < first.final_rho * 1e-6,
        "no convergence: {} vs {}",
        out.final_rho,
        first.final_rho
    );
}

#[test]
fn non_power_of_two_pes_work() {
    let prob = PoissonProblem::new(14, 20, 8, 3);
    let out = run_cpu_free(&prob, ExecMode::Full);
    assert_eq!(out.verify(&prob), 0.0);
}

#[test]
fn single_pe_works() {
    let prob = PoissonProblem::new(14, 14, 10, 1);
    for out in [
        run_cpu_free(&prob, ExecMode::Full),
        run_baseline(&prob, ExecMode::Full),
    ] {
        assert_eq!(out.verify(&prob), 0.0);
    }
}

#[test]
fn cpu_free_cg_outperforms_baseline() {
    // Reduction-heavy workload: 2 allreduces + 5 launches per iteration in
    // the baseline vs device-side collectives in CPU-Free.
    let prob = PoissonProblem::new(258, 514, 30, 8);
    let free = run_cpu_free(&prob, ExecMode::TimingOnly);
    let base = run_baseline(&prob, ExecMode::TimingOnly);
    assert!(
        free.total.as_nanos() * 3 < base.total.as_nanos() * 2,
        "CPU-Free {} should clearly beat baseline {}",
        free.total,
        base.total
    );
}

#[test]
fn advantage_large_at_every_scale() {
    // Both sides' reduction costs grow ~log2(n) (host barrier hops vs
    // device doubling rounds); the CPU-Free advantage stays a multiple.
    let speedup = |n: usize| {
        let prob = PoissonProblem::new(130, 32 * n + 2, 20, n);
        let free = run_cpu_free(&prob, ExecMode::TimingOnly);
        let base = run_baseline(&prob, ExecMode::TimingOnly);
        base.total.as_nanos() as f64 / free.total.as_nanos() as f64
    };
    for n in [2usize, 4, 8] {
        let s = speedup(n);
        assert!(s > 3.0, "expected >3x at {n} GPUs, got x{s:.2}");
    }
}

#[test]
fn timing_only_matches_full_virtual_time() {
    let prob = PoissonProblem::new(18, 22, 8, 4);
    let full = run_cpu_free(&prob, ExecMode::Full);
    let timing = run_cpu_free(&prob, ExecMode::TimingOnly);
    assert_eq!(full.total, timing.total);
}

#[test]
fn determinism() {
    let prob = PoissonProblem::new(16, 18, 9, 4);
    let a = run_cpu_free(&prob, ExecMode::Full);
    let b = run_cpu_free(&prob, ExecMode::Full);
    assert_eq!(a.total, b.total);
    assert_eq!(a.final_rho, b.final_rho);
    assert_eq!(a.x_owned, b.x_owned);
}
