//! Runs every figure harness in one process (the full paper reproduction).
//!
//! `cargo run --release -p zerodev-bench --bin all_figures [NAME...]`
//!
//! With names from `figures::ALL` (`fig_table1`, `fig02` … `fig27`,
//! `fig_energy`, `fig_multisocket`) it runs just those, in the order given;
//! an unknown name prints the valid ones and exits 2.
//!
//! Set `ZERODEV_QUICK=1` for a fast smoke pass and `ZERODEV_THREADS=N` to
//! control the sweep engine's worker count (`1` = serial). Running in one
//! process lets every figure share the engine's baseline memoization
//! cache — each (config, workload) simulation is computed once and every
//! later figure that needs it gets a cache hit; the sweep-throughput
//! summary at the end reports how much work that saved.
//!
//! There is no partial reproduction: a panic in any figure ends the run
//! with exit code 101. A failed sweep point's message names it: workload,
//! config fingerprint, seed, run length and whether it was audited.

use std::time::Instant;
use zerodev_bench::figures;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let figs = figures::select(&names).unwrap_or_else(|bad| {
        let valid: Vec<&str> = figures::ALL.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown figure {bad:?}; valid names: {}", valid.join(" "));
        std::process::exit(2);
    });
    let t_all = Instant::now();
    zerodev_bench::run_figures(&figs);
    println!("\nall {} figures regenerated", figs.len());
    zerodev_bench::print_sweep_summary(t_all.elapsed());
}
