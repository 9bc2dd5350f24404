//! Figure 5: projected LLC occupancy of spilled directory entries — how
//! many directory entries a 1× sparse directory cannot accommodate (set
//! conflicts), each spilled into one full LLC block, as a percentage of
//! LLC blocks.
//!
//! Measured directly: ZeroDEV with a replacement-disabled 1× directory and
//! the SpillAll policy (every overflow takes a full line); the high-water
//! mark of spilled lines is the projection. Per suite: the application
//! with the largest footprint and the average of the per-application
//! maxima.

use crate::{makers_of, run_grid_env, suite_groups_mt_rate};
use zerodev_common::config::{DirectoryKind, LlcReplacement, Ratio, SpillPolicy, ZeroDevConfig};
use zerodev_common::table::{mean, Table};
use zerodev_common::SystemConfig;

fn spill_probe_cfg() -> SystemConfig {
    SystemConfig::baseline_8core().with_zerodev(
        ZeroDevConfig {
            policy: SpillPolicy::SpillAll,
            llc_replacement: LlcReplacement::DataLru,
        },
        DirectoryKind::Sparse {
            ratio: Ratio::ONE,
            ways: 8,
        },
    )
}

pub fn run() {
    let cfg = spill_probe_cfg();
    let llc_blocks = cfg.llc.lines() as f64;
    let mut t = Table::new(&["suite", "max-of-max %", "max app", "avg-of-max %"]);
    for (suite, workloads) in suite_groups_mt_rate() {
        let grid = run_grid_env(&[&cfg], &makers_of(&workloads));
        let mut maxima = Vec::new();
        let mut worst = (0.0f64, String::new());
        for ((app, _), row) in workloads.iter().zip(&grid) {
            let pct = row[0].stats.spilled_lines_max as f64 / llc_blocks * 100.0;
            if pct > worst.0 {
                worst = (pct, (*app).to_string());
            }
            maxima.push(pct);
        }
        t.row(&[
            suite.to_string(),
            format!("{:.1}", worst.0),
            worst.1,
            format!("{:.1}", mean(&maxima)),
        ]);
    }
    println!("== Figure 5: projected LLC occupancy of spilled directory entries ==");
    println!("(entries a 1x directory cannot hold, one full LLC line each)");
    print!("{}", t.render());
    println!(
        "paper shape: maximum occupancy around 12% of LLC blocks (< 2 of 16 ways),\n\
         average at most ~10%; led by the largest-footprint application per suite."
    );
}
