//! Figure 21: performance of ZeroDEV on the 36 SPEC CPU 2017 rate
//! workloads with three directory configurations (1×, 1/8×, none),
//! normalised weighted speedup against the 1× baseline.

use crate::{app_table, baseline, rate_makers, zerodev_trio};
use zerodev_sim::runner::RunParams;
use zerodev_workloads::suites;

pub fn run() {
    let base = baseline();
    let apps = rate_makers(&suites::CPU2017, 8);
    let title = "Figure 21: ZeroDEV on SPEC CPU 2017 rate (normalised weighted speedup)";
    let params = RunParams::from_env();
    let table = app_table(title, &base, &zerodev_trio(&base), &apps, &params);
    print!("{table}");
    println!("paper shape: within ~1% of baseline on average; cam4 worst at ~2% slowdown.");
}
