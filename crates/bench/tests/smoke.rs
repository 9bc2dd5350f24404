//! CI smoke test: drives the `all_figures`-critical harness paths in-process
//! under `ZERODEV_QUICK=1` and holds them to a generous wall-clock budget,
//! so a regression that makes the sweeps pathologically slow (or breaks a
//! figure outright) fails fast in CI.

use std::time::{Duration, Instant};
use zerodev_bench::figures;
use zerodev_sim::parallel::{reset_summary, summary};

/// A regression here means either a figure panicked or sweep throughput
/// collapsed; the budget is ~4x slack over the observed quick-mode cost of
/// an unoptimized (debug) build.
const BUDGET: Duration = Duration::from_secs(300);

#[test]
fn quick_figures_complete_within_budget_with_cache_hits() {
    std::env::set_var("ZERODEV_QUICK", "1");
    reset_summary();
    // Representative slice of the figure suite: the config table (no
    // simulation), a per-app multithreaded sweep, and the big
    // suite-grouped sparse-ratio sweep that shares baselines with fig03.
    let figs = figures::select(&["fig_table1", "fig03", "fig04"])
        .expect("every smoke figure must be in figures::ALL");
    let t0 = Instant::now();
    for (_, fig) in figs {
        fig();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < BUDGET,
        "quick figures took {elapsed:?}, budget {BUDGET:?}"
    );
    let s = summary();
    assert!(s.runs_executed > 0, "figures must execute simulations");
    assert!(
        s.cache_hits > 0,
        "fig03 and fig04 share baselines; the memo cache must serve some"
    );
}

/// `all_figures NAME...` runs just the named figures; an unknown name lists
/// the valid ones and exits 2 before any figure runs.
#[test]
fn all_figures_runs_the_figures_it_is_given_by_name() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_all_figures");
    let out = Command::new(bin)
        .arg("fig_table1")
        .output()
        .expect("all_figures starts");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== Table I:"), "{stdout}");
    assert!(
        stdout.ends_with("\nall 1 figures regenerated\n"),
        "{stdout}"
    );

    let out = Command::new(bin)
        .args(["fig_table1", "fig99"])
        .output()
        .expect("all_figures starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no figure runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"fig99\""), "{stderr}");
    for (name, _) in figures::ALL {
        assert!(stderr.contains(name), "{name} listed: {stderr}");
    }
}
