//! Figure 26: comparison with the Multi-grain Directory (MgD). MgD at
//! 1/8×, 1/16×, and 1/32× sizes against ZeroDEV at 1×, 1/8×, and no
//! directory — all on the non-inclusive LLC, normalised to the 1× baseline.
//!
//! CPU-RATE and CPU-HET are subsampled (every third workload).

use crate::{baseline, column_table, geomean_row, speedups, subsampled_groups, zerodev_trio};
use zerodev_common::config::{DirectoryKind, Ratio};
use zerodev_common::SystemConfig;

fn mgd(num: u32, den: u32) -> SystemConfig {
    let mut cfg = baseline();
    cfg.directory = DirectoryKind::MultiGrain {
        ratio: Ratio::new(num, den),
        ways: 8,
    };
    cfg
}

pub fn run() {
    let mut columns = vec![
        ("MgD+1/8x", mgd(1, 8)),
        ("MgD+1/16x", mgd(1, 16)),
        ("MgD+1/32x", mgd(1, 32)),
    ];
    columns.extend(zerodev_trio(&baseline()));
    let mut t = column_table("group", &columns, &[]);
    for g in subsampled_groups("CPU-RATE", true, false) {
        let s = speedups(&g.base, &columns, &g.apps, &g.params);
        t.row(&geomean_row(g.label, &s));
    }
    println!("== Figure 26: Multi-grain Directory vs ZeroDEV (normalised to 1x baseline) ==");
    print!("{}", t.render());
    println!(
        "paper shape: MgD at 1/8x roughly matches the 1x baseline, then degrades\n\
         as the directory shrinks (but much more gracefully than the baseline);\n\
         ZeroDEV stays within ~1% at every size, so the gap widens as the\n\
         directory shrinks."
    );
}
