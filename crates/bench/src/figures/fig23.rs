//! Figure 23: ZeroDEV on the 36 heterogeneous multi-programmed workloads
//! (W1–W36) with three directory configurations, normalised weighted
//! speedup against the 1× baseline.

use crate::{app_table, baseline, hetero_makers, zerodev_trio};
use zerodev_sim::runner::RunParams;

pub fn run() {
    let base = baseline();
    let apps = hetero_makers(0..36, 8);
    let title = "Figure 23: ZeroDEV on heterogeneous multi-programmed mixes";
    let params = RunParams::from_env();
    let table = app_table(title, &base, &zerodev_trio(&base), &apps, &params);
    print!("{table}");
    println!(
        "paper shape: individual slowdowns at most ~2%; all three configurations\n\
         within ~1% of the 1x baseline on average."
    );
}
