//! Property suite for the static cost predictor: the contract that
//! `figures -- cost` gates in CI, asserted directly from the library so a
//! regression fails `cargo test` even when the ledger is not regenerated.
//!
//! Over the whole corpus x persistent-stage x GPU-count x topology-preset
//! sweep (both contended and uncontended fabrics):
//!
//! * on uncontended fabrics the prediction equals the simulated virtual
//!   time exactly (`predicted == simulated`);
//! * on contended fabrics the prediction **never under-estimates** and
//!   stays within the documented 10% bound;
//! * the recurrence base itself reproduces the DES virtual time (the
//!   margin is pure conservatism, not error compensation);
//! * both the steady-state extrapolation path and the full-walk path are
//!   exercised, as is at least one genuinely contended fabric.
//!
//! Everything here is virtual time, so the suite is deterministic on any
//! host at any load.

use cpufree_bench::cost::cost_sweep_jobs;

#[test]
fn predictor_contract_holds_over_corpus_and_presets() {
    let sweep = cost_sweep_jobs(sim_des::default_jobs());

    // The sweep covers the full cross product: 4 program/stage combos x
    // 4 GPU counts x 7 presets.
    assert_eq!(sweep.rows.len(), 4 * 4 * 7, "sweep lost cells");

    let violations = sweep.violations();
    assert!(
        violations.is_empty(),
        "cost-predictor contract violated:\n{}",
        violations.join("\n")
    );

    let mut saw_contended = false;
    let mut saw_extrapolated = false;
    let mut saw_full_walk = false;
    for row in &sweep.rows {
        // Never an under-estimate, contended or not (violation() already
        // checks this; restate it so the property reads on its own).
        assert!(
            row.predicted >= row.simulated,
            "{}/{} @{}gpus on {}: under-estimate {} < {}",
            row.program,
            row.stage,
            row.gpus,
            row.fabric,
            row.predicted,
            row.simulated
        );
        // The base recurrence mirrors the engine's (time, seq) event
        // order, so it must land on the simulated time exactly even when
        // links are shared; the margin only ever adds on top.
        assert_eq!(
            row.base, row.simulated,
            "{}/{} @{}gpus on {}: recurrence base diverged from DES",
            row.program, row.stage, row.gpus, row.fabric
        );
        assert_eq!(row.predicted, row.base + row.margin, "total != base+margin");
        saw_contended |= row.contended;
        saw_extrapolated |= row.extrapolated;
        saw_full_walk |= !row.extrapolated;
    }
    assert!(saw_contended, "no contended fabric in the sweep");
    assert!(
        saw_extrapolated,
        "steady-state extrapolation path not taken"
    );
    assert!(saw_full_walk, "full-walk path not taken");

    // Per-preset ledgers back the top-kernel report: line items must sum
    // to a non-zero busy total on the heaviest configuration.
    assert_eq!(sweep.ledgers.len(), 7, "one ledger per preset");
    for (fabric, report) in &sweep.ledgers {
        assert!(
            !report.kernels.is_empty(),
            "{fabric}: empty per-kernel ledger"
        );
        let busy: u64 = report.kernels.iter().map(|k| k.busy.as_nanos()).sum();
        assert!(busy > 0, "{fabric}: ledger carries no cost");
    }
}
