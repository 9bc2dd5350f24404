//! Figure 4: performance impact of sparse directory size. Per suite, the
//! speedup (normalised to the 1× baseline) of 1/2×, 1/8×, and 1/32× sparse
//! directories.

use crate::{column_table, geomean_row, sparse, speedups, suite_groups};

pub fn run() {
    let columns = [
        ("1/2x", sparse(1, 2)),
        ("1/8x", sparse(1, 8)),
        ("1/32x", sparse(1, 32)),
    ];
    let mut t = column_table("suite", &columns, &[]);
    for g in suite_groups() {
        let s = speedups(&g.base, &columns, &g.apps, &g.params);
        t.row(&geomean_row(g.label, &s));
    }
    println!("== Figure 4: speedup vs sparse directory size (normalised to 1x) ==");
    print!("{}", t.render());
    println!("paper shape: gradual decline with shrinking directory; 1/32x worst (~0.6-0.9).");
}
