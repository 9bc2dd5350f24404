//! Figure 24: ZeroDEV on the trace-driven server workloads, evaluated on
//! the 128-core single-socket machine with a 32 MB LLC, with three
//! directory configurations, normalised to the 1× baseline.

use crate::{mt, print_norm_table, rows_vs_col0, run_grid, server_params, wl, Maker};
use zerodev_common::config::{DirectoryKind, Ratio, ZeroDevConfig};
use zerodev_common::SystemConfig;
use zerodev_workloads::suites;

fn server_base() -> SystemConfig {
    SystemConfig::server_128core()
}

fn server_zd(dir: DirectoryKind) -> SystemConfig {
    server_base().with_zerodev(ZeroDevConfig::default(), dir)
}

pub fn run() {
    let base_cfg = server_base();
    let configs = [
        server_zd(DirectoryKind::Sparse {
            ratio: Ratio::ONE,
            ways: 8,
        }),
        server_zd(DirectoryKind::Sparse {
            ratio: Ratio::new(1, 8),
            ways: 8,
        }),
        server_zd(DirectoryKind::None),
    ];
    let mut cfg_refs: Vec<&SystemConfig> = vec![&base_cfg];
    cfg_refs.extend(configs.iter());
    let makers: Vec<Maker> = suites::SERVER
        .iter()
        .map(|&a| wl(move || mt(a, 128)))
        .collect();
    let grid = run_grid(&cfg_refs, &makers, &server_params());
    let rows = rows_vs_col0(&suites::SERVER, &grid);
    print_norm_table(
        "Figure 24: server workloads on the 128-core machine",
        &["ZD+1x", "ZD+1/8x", "ZD+NoDir"],
        &rows,
    );
    println!(
        "paper shape: average within ~1% of baseline for all three configurations;\n\
         worst case ~1.4% (SPECWeb-S) without a directory."
    );
}
