//! Figure 17: comparison between the SpillAll, FusePrivateSpillShared
//! (FPSS) and FuseAll directory-entry caching policies on the 8-core
//! single-socket system. ZeroDEV runs with **no** sparse directory (to
//! maximise the directory footprint in the LLC) and the dataLRU policy.
//! Speedups are normalised to the 1× baseline; the annotation is the
//! minimum speedup within each suite.

use crate::{column_table, geomean_row, min_speedups, speedups, suite_groups, zerodev_nodir};
use zerodev_common::config::{LlcReplacement, SpillPolicy};

pub fn run() {
    let nodir = |policy| zerodev_nodir(policy, LlcReplacement::DataLru);
    let columns = [
        ("SpillAll", nodir(SpillPolicy::SpillAll)),
        ("FPSS", nodir(SpillPolicy::FusePrivateSpillShared)),
        ("FuseAll", nodir(SpillPolicy::FuseAll)),
    ];
    let mut t = column_table("suite", &columns, &["min(SpillAll/FPSS/FuseAll)"]);
    for g in suite_groups() {
        let s = speedups(&g.base, &columns, &g.apps, &g.params);
        let mut cells = geomean_row(g.label, &s);
        cells.push(min_speedups(&s, &[0, 1, 2]));
        t.row(&cells);
    }
    println!("== Figure 17: SpillAll vs FPSS vs FuseAll (ZeroDEV, no directory, dataLRU) ==");
    print!("{}", t.render());
    println!(
        "paper shape: SpillAll worst; FPSS and FuseAll close on average but FPSS\n\
         has clearly better minimum speedups (FuseAll lengthens shared reads)."
    );
}
