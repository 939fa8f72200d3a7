//! The `figures` command line is strict: a stray flag on any gate, or an
//! unknown figure name, exits 2 before any work is done — in particular
//! before a gate without `--check` rewrites its committed JSON file.

use std::path::PathBuf;
use std::process::Command;

/// Runs `figures args` in a fresh directory holding only `files` (name,
/// content) and returns its exit code and whatever else it left there.
fn run_in_dir(case: usize, files: &[(&str, &str)], args: &[&str]) -> (Option<i32>, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("figures-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, content) in files {
        std::fs::write(dir.join(name), content).unwrap();
    }
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap()
        .status;
    let left = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !files.iter().any(|(name, _)| p.ends_with(name)))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    (status.code(), left)
}

#[test]
fn stray_arguments_exit_2_and_write_nothing() {
    let cases: &[&[&str]] = &[
        &["verify", "--bogus"],
        &["chaos", "--bogus"],
        &["chaos", "--seeds", "2", "--check"],
        &["chaos-replay"],
        &["chaos-replay", "repro.json", "--bogus"],
        &["des_core", "--chek"],
        &["des_core", "--check", "--seeds", "2"],
        &["traffic"],
        &["traffic", "--check"],
        &["traffic", "--bogus"],
        &["cost", "--bogus"],
        &["cost", "traffic"],
        &["fig9_9"],
        &["--json", "fig9_9"],
        &["cg", "--bogus"],
    ];
    for (case, args) in cases.iter().enumerate() {
        let (code, left) = run_in_dir(case, &[], args);
        assert_eq!(code, Some(2), "figures {args:?}");
        assert!(left.is_empty(), "figures {args:?} wrote {left:?}");
    }
}

/// A Jacobi reproducer on `nvlink-all-to-all` with `tags` after its
/// workload and topology and `plan` as its fault members.
fn reproducer(tags: &str, plan: &str) -> String {
    format!("{{\"workload\":\"jacobi\",\"topology\":\"nvlink-all-to-all\"{tags},{plan}}}")
}

/// One link fault between PEs 0 and `b` with the given latency multiplier.
fn link(b: usize, latency_mult: &str) -> String {
    format!(
        "\"links\":[{{\"a\":0,\"b\":{b},\"from\":0,\"until\":1000000,\
         \"latency_mult\":{latency_mult},\"bandwidth_mult\":1.0}}]"
    )
}

#[test]
fn unreadable_reproducers_exit_2() {
    let fixture = include_str!("../fixtures/chaos/degraded-switchkill.json");
    let truncated = &fixture[..fixture.len() / 2];
    let deep = "[".repeat(1_000_000);
    // Documents that parse but name faults a 4-PE replay cannot apply.
    let unappliable = [
        reproducer("", &link(7, "2.0")),
        reproducer("", &link(1, "2.0").replace("links", "link")),
        reproducer(
            "",
            &link(1, "2.0").replace("\"from\"", "\"form\":0,\"from\""),
        ),
        reproducer(",\"mode\":\"normal\"", &link(1, "2.0")),
        reproducer("", &link(1, "1e18")),
        reproducer("", &link(1, "1e300")),
        reproducer("", &link(1, "1e400")),
        reproducer(
            "",
            "\"drops\":[{\"from\":0,\"to\":4,\"first_attempt\":1,\"count\":1}]",
        ),
        reproducer(
            "",
            "\"drops\":[{\"from\":0,\"to\":1,\"first_attempt\":2,\"count\":18446744073709551615}]",
        ),
        reproducer("", "\"crashes\":[{\"node\":4,\"at_iteration\":2}]"),
        reproducer(
            "",
            "\"stragglers\":[{\"node\":0,\"from\":0,\"until\":1,\"compute_mult\":1e400}]",
        ),
        reproducer(
            "",
            "\"stragglers\":[{\"node\":9,\"from\":0,\"until\":1,\"compute_mult\":2.0}]",
        ),
    ];
    let mut cases: Vec<(Vec<(&str, &str)>, &str)> = vec![
        (vec![("repro.json", "garbage")], "repro.json"),
        (vec![("repro.json", truncated)], "repro.json"),
        (vec![], "missing.json"),
        (vec![("repro.json", &deep)], "repro.json"),
    ];
    cases.extend(
        unappliable
            .iter()
            .map(|doc| (vec![("repro.json", doc.as_str())], "repro.json")),
    );
    for (case, (files, path)) in cases.iter().enumerate() {
        let (code, _) = run_in_dir(100 + case, files, &["chaos-replay", path]);
        assert_eq!(code, Some(2), "figures chaos-replay on case {case}");
    }
}

/// The malformed documents above differ from this one only in the fault
/// they name: it replays and exits 0.
#[test]
fn applicable_reproducer_replays() {
    let doc = reproducer("", &link(1, "2.0"));
    let (code, _) = run_in_dir(
        200,
        &[("repro.json", &doc)],
        &["chaos-replay", "repro.json"],
    );
    assert_eq!(code, Some(0), "figures chaos-replay on {doc}");
}
