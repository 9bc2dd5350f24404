//! Figure 6: performance with reduced LLC associativity. Ways are removed
//! from every LLC set (keeping the set count fixed), modelling the capacity
//! a directory cached in the LLC would take. Speedups are normalised to the
//! 16-way baseline; the annotation is the worst application in each suite.

use crate::{baseline, column_table, geomean_row, speedups, suite_groups};
use zerodev_common::config::CacheGeometry;
use zerodev_common::SystemConfig;

/// The baseline LLC with `ways` ways per set (same 1024 sets per bank).
fn reduced_llc(ways: usize) -> SystemConfig {
    let mut cfg = baseline();
    cfg.llc = CacheGeometry::new(ways * 512 * 1024, ways);
    cfg.validate().expect("reduced-way LLC is valid");
    cfg
}

pub fn run() {
    let columns = [
        ("15 ways", reduced_llc(15)),
        ("14 ways", reduced_llc(14)),
        ("13 ways", reduced_llc(13)),
        ("12 ways", reduced_llc(12)),
    ];
    let mut t = column_table("suite", &columns, &["worst app @12"]);
    for g in suite_groups() {
        let s = speedups(&g.base, &columns, &g.apps, &g.params);
        let mut worst = (f64::INFINITY, "");
        for ((app, _), &v) in g.apps.iter().zip(&s[3]) {
            if v < worst.0 {
                worst = (v, app.as_str());
            }
        }
        let mut cells = geomean_row(g.label, &s);
        cells.push(format!("{} ({:.2})", worst.1, worst.0));
        t.row(&cells);
    }
    println!("== Figure 6: performance with reduced LLC associativity ==");
    print!("{}", t.render());
    println!(
        "paper shape: losing 2 ways costs at most ~3% on average, but the worst\n\
         applications (vips, lu_ncb, 330.art, gcc.ppO2) lose 5-14%; at 12 ways the\n\
         worst-case losses reach 9-22%."
    );
}
