//! Figure 19: performance of ZeroDEV on the PARSEC suite with three
//! directory configurations (1×, 1/8×, and no directory), normalised to
//! the baseline with a 1× sparse directory.

use crate::{app_table, baseline, mt_makers, zerodev_trio};
use zerodev_sim::runner::RunParams;
use zerodev_workloads::suites;

pub fn run() {
    let base = baseline();
    let apps = mt_makers(&suites::PARSEC, 8);
    let title = "Figure 19: ZeroDEV on PARSEC (normalised to 1x baseline)";
    let params = RunParams::from_env();
    let table = app_table(title, &base, &zerodev_trio(&base), &apps, &params);
    print!("{table}");
    println!(
        "paper shape: nearly invariant of the directory size; within ~1% of the\n\
         baseline on average; freqmine has the largest slowdown."
    );
}
