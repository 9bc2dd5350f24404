//! Figure 27: comparison with SecDir. Iso-storage SecDir at 1× and 1/8×
//! (plus the baseline at 1/8× for reference) against ZeroDEV at 1×, 1/8×,
//! and no directory — normalised to the 1× baseline. The min-speedup
//! annotations expose SecDir's private-partition fragmentation.
//!
//! CPU-RATE and CPU-HET are subsampled (every third workload); the SERVER
//! group runs on the 128-core machine with its iso-storage geometries.

use crate::{
    baseline, column_table, geomean_row, min_speedups, speedups, subsampled_groups, zerodev_trio,
    Column,
};
use zerodev_common::config::{DirectoryKind, Ratio};
use zerodev_common::SystemConfig;
use zerodev_core::DirStore;

fn secdir_cfg(base: &SystemConfig, eighth: bool) -> SystemConfig {
    let mut cfg = base.clone();
    cfg.directory = DirectoryKind::SecDir(DirStore::secdir_geometry(cfg.cores, eighth));
    cfg
}

/// The figure's columns on the `base` machine.
fn columns(base: &SystemConfig) -> Vec<Column> {
    let mut columns = vec![
        ("SecDir+1x", secdir_cfg(base, false)),
        ("Base+1/8x", base.clone().with_sparse_dir(Ratio::new(1, 8))),
        ("SecDir+1/8x", secdir_cfg(base, true)),
    ];
    columns.extend(zerodev_trio(base));
    columns
}

pub fn run() {
    let note = "min(SecDir1x/SecDir8th/ZD-NoDir)";
    let mut t = column_table("group", &columns(&baseline()), &[note]);
    for g in subsampled_groups("CPU-RATE", true, true) {
        let s = speedups(&g.base, &columns(&g.base), &g.apps, &g.params);
        let mut cells = geomean_row(g.label, &s);
        cells.push(min_speedups(&s, &[0, 2, 5]));
        t.row(&cells);
    }
    println!("== Figure 27: SecDir vs ZeroDEV (normalised to 1x baseline) ==");
    print!("{}", t.render());
    println!(
        "paper shape: SecDir loses performance as the directory shrinks (internal\n\
         fragmentation in the private partitions, severe on 128 cores); ZeroDEV is\n\
         insensitive to directory size and its minimum speedups stay near 1."
    );
}
