//! Figure 22: sensitivity to LLC capacity — 4 MB and 16 MB shared LLCs
//! (both 16-way), all normalised to the 8 MB baseline. At 16 MB ZeroDEV
//! needs no directory; at 4 MB it gets a 1/4× sparse-directory assist.

use crate::{
    baseline, column_table, geomean_row, speedups, suite_groups, with_llc_mb,
    zerodev_default_nodir, zerodev_sparse,
};

pub fn run() {
    let columns = [
        ("Base4MB", with_llc_mb(baseline(), 4)),
        ("ZD4MB+1/4x", with_llc_mb(zerodev_sparse(1, 4), 4)),
        ("Base16MB", with_llc_mb(baseline(), 16)),
        ("ZD16MB+NoDir", with_llc_mb(zerodev_default_nodir(), 16)),
    ];
    let mut t = column_table("suite", &columns, &[]);
    for g in suite_groups() {
        let s = speedups(&g.base, &columns, &g.apps, &g.params);
        t.row(&geomean_row(g.label, &s));
    }
    println!("== Figure 22: 4 MB / 16 MB LLC sensitivity (normalised to 8 MB baseline) ==");
    print!("{}", t.render());
    println!(
        "paper shape: ZeroDEV tracks its same-capacity baseline within ~1% at both\n\
         capacities (the 4 MB point needs the small sparse-directory assist)."
    );
}
