//! Integration tests for the parallel sweep engine as the figure harnesses
//! use it: a parallel grid must render tables byte-identical to the serial
//! path, repeating a grid must be served from the baseline cache, and a
//! panicking point fails the grid instead of leaving a hole in it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use zerodev_bench::{app_table, baseline, mt_makers, run_grid, zerodev_trio, App};
use zerodev_common::panic_message;
use zerodev_sim::parallel::{clear_memo_cache, reset_summary, summary};
use zerodev_sim::runner::RunParams;
use zerodev_workloads::suites;

/// These tests reset or count the process-wide cache and counters, so they
/// must not overlap.
static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn parallel_tables_match_serial_byte_for_byte() {
    let _g = lock();
    let apps = mt_makers(&suites::PARSEC[..4], 8);
    let base = baseline();
    let trio = zerodev_trio(&base);
    let serial = RunParams {
        refs_per_core: 6_000,
        warmup_refs: 1_000,
        threads: 1,
        ..Default::default()
    };
    let parallel = RunParams {
        threads: 4,
        ..serial
    };

    clear_memo_cache();
    let table_serial = app_table("parity", &base, &trio, &apps, &serial);
    clear_memo_cache();
    let table_parallel = app_table("parity", &base, &trio, &apps, &parallel);
    assert_eq!(
        table_serial, table_parallel,
        "ZERODEV_THREADS=1 and =4 must print identical tables"
    );

    // The underlying statistics match too, not just the rendered speedups.
    clear_memo_cache();
    let grid_serial = run_grid(&[&base], &apps, &serial);
    clear_memo_cache();
    let grid_parallel = run_grid(&[&base], &apps, &parallel);
    for (s, p) in grid_serial.iter().zip(&grid_parallel) {
        assert_eq!(s[0].result.completion_cycles, p[0].result.completion_cycles);
        assert_eq!(
            s[0].result.stats.core_cache_misses,
            p[0].result.stats.core_cache_misses
        );
        assert_eq!(
            s[0].result.stats.total_traffic_bytes(),
            p[0].result.stats.total_traffic_bytes()
        );
    }
}

#[test]
fn repeated_grids_hit_the_baseline_cache() {
    let _g = lock();
    let apps = mt_makers(&suites::PARSEC[..2], 8);
    let params = RunParams {
        refs_per_core: 3_000,
        warmup_refs: 500,
        threads: 2,
        ..Default::default()
    };
    clear_memo_cache();
    reset_summary();
    let base = baseline();

    let first = run_grid(&[&base], &apps, &params);
    let after_first = summary();
    assert_eq!(after_first.runs_executed, apps.len() as u64);
    assert_eq!(after_first.cache_hits, 0);

    let second = run_grid(&[&base], &apps, &params);
    let after_second = summary();
    assert_eq!(after_second.runs_executed, after_first.runs_executed);
    assert_eq!(after_second.cache_hits, apps.len() as u64);
    for (a, b) in first.iter().zip(&second) {
        assert!(
            Arc::ptr_eq(&a[0], &b[0]),
            "cache hit must return the shared result"
        );
    }
}

#[test]
fn a_panicking_point_fails_the_grid_and_names_itself() {
    let _g = lock();
    let mut apps = mt_makers(&suites::PARSEC[..1], 8);
    let broken: App = (
        "broken".into(),
        Arc::new(|| panic!("deliberate workload failure")),
    );
    apps.push(broken);
    let params = RunParams {
        refs_per_core: 1_000,
        warmup_refs: 200,
        threads: 2,
        ..Default::default()
    };
    let base = baseline();
    let payload = catch_unwind(AssertUnwindSafe(|| run_grid(&[&base], &apps, &params)))
        .expect_err("a grid with a panicking point must not return");
    let msg = panic_message(&*payload);
    assert!(msg.starts_with("sweep point failed: "), "{msg}");
    for needle in [
        &format!("{:016x}", base.fingerprint()),
        "1000 refs/core",
        "deliberate workload failure",
    ] {
        assert!(msg.contains(needle), "missing `{needle}` in: {msg}");
    }
}
