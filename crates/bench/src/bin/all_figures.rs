//! Runs every figure harness in one process (the full paper reproduction).
//!
//! `cargo run --release -p zerodev-bench --bin all_figures`
//!
//! Set `ZERODEV_QUICK=1` for a fast smoke pass and `ZERODEV_THREADS=N` to
//! control the sweep engine's worker count (`1` = serial). Running in one
//! process lets every figure share the engine's baseline memoization
//! cache — each (config, workload) simulation is computed once and every
//! later figure that needs it gets a cache hit; the sweep-throughput
//! summary at the end reports how much work that saved.
//!
//! Each figure runs under `catch_unwind`: a panicking figure (a failed
//! sweep point, a bug, an injected fault) marks that figure failed and the
//! reproduction continues. A degraded run prints a failure summary to
//! stderr and exits nonzero.

use std::time::Instant;
use zerodev_bench::figures;

fn main() {
    let t_all = Instant::now();
    let failed = zerodev_bench::run_figures(figures::ALL);
    if failed == 0 {
        println!("\nall {} figures regenerated", figures::ALL.len());
    } else {
        println!(
            "\n{} of {} figures regenerated ({failed} failed)",
            figures::ALL.len() - failed,
            figures::ALL.len()
        );
    }
    zerodev_bench::print_sweep_summary(t_all.elapsed(), failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
