//! Figure 18: comparison between the spLRU and dataLRU LLC replacement
//! extensions for ZeroDEV (no sparse directory) at 8 MB and at a
//! capacity-constrained 4 MB LLC. All results normalised to the 8 MB
//! baseline; Base4MB (plain LRU baseline at 4 MB) is shown for reference.

use crate::{
    baseline, column_table, geomean_row, speedups, suite_groups, with_llc_mb, zerodev_nodir,
};
use zerodev_common::config::{LlcReplacement, SpillPolicy};

pub fn run() {
    let nodir = |repl| zerodev_nodir(SpillPolicy::FusePrivateSpillShared, repl);
    let columns = [
        ("sp8MB", nodir(LlcReplacement::SpLru)),
        ("data8MB", nodir(LlcReplacement::DataLru)),
        ("Base4MB", with_llc_mb(baseline(), 4)),
        ("sp4MB", with_llc_mb(nodir(LlcReplacement::SpLru), 4)),
        ("data4MB", with_llc_mb(nodir(LlcReplacement::DataLru), 4)),
    ];
    let mut t = column_table("suite", &columns, &[]);
    for g in suite_groups() {
        let s = speedups(&g.base, &columns, &g.apps, &g.params);
        t.row(&geomean_row(g.label, &s));
    }
    println!("== Figure 18: spLRU vs dataLRU (normalised to the 8 MB baseline) ==");
    print!("{}", t.render());
    println!(
        "paper shape: dataLRU beats spLRU across the board; the gap widens at the\n\
         capacity-constrained 4 MB LLC because spLRU leaves fused entries exposed."
    );
}
