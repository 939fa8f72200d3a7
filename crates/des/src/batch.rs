//! Deterministic inter-run parallel sweep driver.
//!
//! A complete simulation (engine + program + topology + fault plan) is an
//! ordinary `Send` value with no global state, so independent runs can
//! execute concurrently on host threads. This module provides the one
//! primitive every sweep in the workspace is built on: [`par_map`], a
//! work-stealing map whose **output order is the input order**, regardless
//! of which worker finishes which case first. Virtual time stays strictly
//! per-run; cross-run determinism comes purely from indexing results by
//! case position, so a sweep report renders byte-identically at any worker
//! count (see DESIGN.md, "Determinism under parallel sweeps").
//!
//! The pool is a plain `std::thread::scope` fan-out over an atomic work
//! index — the workspace builds offline, so this is the rayon-shaped
//! driver without the rayon dependency. Its workers start in turn so that
//! each gets a malloc heap of its own (see `bind_heap`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Number of worker threads to use when the caller does not say: the
/// `SIM_DES_JOBS` environment override when set, otherwise the host's
/// available parallelism, or 1 when that cannot be determined.
///
/// Panics on a malformed `SIM_DES_JOBS` (non-numeric or zero) — library
/// callers get a loud failure; CLIs that want exit code 2 instead should
/// validate with [`env_jobs`] first.
pub fn default_jobs() -> usize {
    match env_jobs() {
        Ok(Some(jobs)) => jobs,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(msg) => panic!("{msg}"),
    }
}

/// Strictly parse the `SIM_DES_JOBS` environment override.
///
/// Returns `Ok(None)` when unset, `Ok(Some(n))` for a positive integer, and
/// `Err(description)` for anything else (empty, non-numeric, zero). CLIs
/// call this up front so garbage exits with status 2 instead of panicking
/// deep inside a sweep.
pub fn env_jobs() -> Result<Option<usize>, String> {
    let Some(raw) = std::env::var_os("SIM_DES_JOBS") else {
        return Ok(None);
    };
    let raw = raw.to_string_lossy();
    match raw.parse::<usize>() {
        Ok(0) => Err("SIM_DES_JOBS must be a positive integer, got 0".to_string()),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "SIM_DES_JOBS must be a positive integer, got {raw:?}"
        )),
    }
}

/// Map `f` over `items` on `jobs` worker threads, returning results **in
/// input order**.
///
/// * `jobs <= 1` (or a single item) runs serially on the caller's thread —
///   the parallel and serial paths produce identical output by
///   construction, which the sweep property tests assert byte-for-byte.
/// * Workers claim items through an atomic cursor, so scheduling is dynamic
///   (long cases don't convoy short ones) while the result vector is
///   assembled by item index, not completion order.
/// * A panic in `f` propagates to the caller once all workers have stopped
///   (the scope joins every thread before unwinding).
/// * Workers start one at a time, after a short-lived placeholder thread,
///   so that glibc gives each a malloc heap of its own where it can: the
///   simulations a worker runs allocate on the worker's thread, and two
///   workers sharing one heap contend for its lock as long as they live.
///
/// ```
/// let squares = sim_des::batch::par_map(4, (0..100u64).collect(), |x| x * x);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 100);
/// ```
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items.into_iter().map(&f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (cursor, work, results, f) = (&cursor, &work, &results, &f);
        // Workers start in turn, after a placeholder (see `bind_heap`).
        let (started, in_turn) = mpsc::channel::<()>();
        let (hold, release) = mpsc::channel::<()>();
        let placeholder = started.clone();
        s.spawn(move || {
            bind_heap();
            let _ = placeholder.send(());
            // Stays alive, keeping its heap, until every worker has one.
            let _ = release.recv();
        });
        let _ = in_turn.recv();
        for _ in 0..jobs {
            let started = started.clone();
            s.spawn(move || {
                bind_heap();
                let _ = started.send(());
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("work item claimed twice");
                    let r = f(item);
                    *results[i].lock().unwrap() = Some(r);
                }
            });
            let _ = in_turn.recv();
        }
        drop(hold);
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| panic!("batch item {i} produced no result"))
        })
        .collect()
}

/// Make the calling thread's first heap allocation, which is when glibc
/// binds a thread to the malloc heap (arena) it uses for as long as it
/// lives.
///
/// Every agent of a run allocates on the thread that runs the engine, so a
/// worker's simulations take the lock of that thread's heap at every
/// `malloc`/`free` the thread cache does not absorb, and two workers bound
/// to the same heap contend for it for their whole life. In the `perf`
/// benchmark's two-worker `fault_sweep` (2-vCPU VM) that made the
/// difference between about 145 and about 245 sweeps/s, decided only by
/// which heap glibc gave the second worker.
///
/// glibc hands a new thread a heap that no live thread uses if there is
/// one, creates one while under its limit (`M_ARENA_MAX`), and otherwise
/// takes the next heap round-robin. So [`par_map`] first starts a
/// placeholder thread, which takes any unused heap, and then starts its
/// workers one at a time, each after the previous one has allocated: they
/// get new heaps, or consecutive ones in the round-robin, and so distinct
/// heaps whenever there are at least as many as workers. Other allocators
/// pay only for one short-lived thread.
fn bind_heap() {
    drop(std::hint::black_box(Box::new(0u8)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, items.clone(), |x| x * 3 + 1);
        for jobs in [2, 3, 8, 64] {
            let parallel = par_map(jobs, items.clone(), |x| x * 3 + 1);
            assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(par_map(16, vec![1, 2], |x| x + 1), vec![2, 3]);
        assert_eq!(par_map(16, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
    }

    #[test]
    fn dynamic_scheduling_covers_every_item_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = par_map(4, (0..1000u64).collect(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map(4, (0..32u32).collect(), |x| {
                if x == 17 {
                    panic!("injected");
                }
                x
            })
        });
        assert!(r.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    /// One test owns every SIM_DES_JOBS scenario: tests run concurrently
    /// and the environment is process-global, so splitting these into
    /// separate `#[test]`s would race.
    #[test]
    fn sim_des_jobs_env_override() {
        // Restore the (unset) state on every exit path.
        struct Unset;
        impl Drop for Unset {
            fn drop(&mut self) {
                std::env::remove_var("SIM_DES_JOBS");
            }
        }
        let _guard = Unset;

        std::env::remove_var("SIM_DES_JOBS");
        assert_eq!(env_jobs(), Ok(None));

        std::env::set_var("SIM_DES_JOBS", "3");
        assert_eq!(env_jobs(), Ok(Some(3)));
        assert_eq!(default_jobs(), 3);

        std::env::set_var("SIM_DES_JOBS", "0");
        assert!(env_jobs().unwrap_err().contains("got 0"));

        std::env::set_var("SIM_DES_JOBS", "many");
        assert!(env_jobs().unwrap_err().contains("\"many\""));
        assert!(std::panic::catch_unwind(default_jobs).is_err());
    }

    #[test]
    fn nested_simulations_run_concurrently_and_identically() {
        // Whole DES runs as batch items: each runs its agents on its worker.
        let runs: Vec<u64> = (0..12).collect();
        let end_times = |jobs: usize| {
            par_map(jobs, runs.clone(), |seed| {
                let engine = crate::Engine::new();
                let f = engine.flag(0);
                engine.spawn("producer", move |ctx| {
                    ctx.advance(crate::ns(100 + seed * 7));
                    ctx.signal(f, crate::SignalOp::Set, 1);
                });
                engine.spawn("consumer", move |ctx| {
                    ctx.wait_flag(f, crate::Cmp::Ge, 1);
                });
                engine.run().unwrap().as_nanos()
            })
        };
        assert_eq!(end_times(1), end_times(8));
    }
}
