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

#[test]
fn unreadable_reproducers_exit_2() {
    let fixture = include_str!("../fixtures/chaos/degraded-switchkill.json");
    let truncated = &fixture[..fixture.len() / 2];
    let deep = "[".repeat(1_000_000);
    let cases: &[(&[(&str, &str)], &str)] = &[
        (&[("repro.json", "garbage")], "repro.json"),
        (&[("repro.json", truncated)], "repro.json"),
        (&[], "missing.json"),
        (&[("repro.json", &deep)], "repro.json"),
    ];
    for (case, (files, path)) in cases.iter().enumerate() {
        let (code, _) = run_in_dir(100 + case, files, &["chaos-replay", path]);
        assert_eq!(code, Some(2), "figures chaos-replay on case {case}");
    }
}
