//! Section V "Energy Expense": sparse-directory + LLC energy of ZeroDEV
//! without a sparse directory, relative to the baseline (non-inclusive LLC
//! + 1× directory). The paper's CACTI estimate is ~9% average savings.

use crate::{run_grid, subsampled_groups, zerodev_default_nodir};
use zerodev_common::table::{mean, Table};

pub fn run() {
    let zd_cfg = zerodev_default_nodir();
    let mut t = Table::new(&["suite", "dir+LLC energy (ZD/base)", "saving %"]);
    let mut all_savings = Vec::new();
    for g in subsampled_groups("CPU2017RATE", false, false) {
        let grid = run_grid(&[&g.base, &zd_cfg], &g.apps, &g.params);
        let ratios: Vec<f64> = grid
            .iter()
            .map(|row| row[1].energy.total_nj() / row[0].energy.total_nj().max(1e-9))
            .collect();
        let r = mean(&ratios);
        all_savings.push(1.0 - r);
        t.row(&[
            g.label.to_string(),
            format!("{r:.3}"),
            format!("{:.1}", (1.0 - r) * 100.0),
        ]);
    }
    t.row(&[
        "AVERAGE".into(),
        String::new(),
        format!("{:.1}", mean(&all_savings) * 100.0),
    ]);
    println!("== Energy: ZeroDEV (no directory) vs baseline, directory+LLC energy ==");
    print!("{}", t.render());
    println!("paper shape: ~9% average energy saving from eliminating the sparse directory.");
}
