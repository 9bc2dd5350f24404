//! Figure 24: ZeroDEV on the trace-driven server workloads, evaluated on
//! the 128-core single-socket machine with a 32 MB LLC, with three
//! directory configurations, normalised to the 1× baseline.

use crate::{app_table, server_group, zerodev_trio};

pub fn run() {
    let g = server_group();
    let title = "Figure 24: server workloads on the 128-core machine";
    let columns = zerodev_trio(&g.base);
    let table = app_table(title, &g.base, &columns, &g.apps, &g.params);
    print!("{table}");
    println!(
        "paper shape: average within ~1% of baseline for all three configurations;\n\
         worst case ~1.4% (SPECWeb-S) without a directory."
    );
}
