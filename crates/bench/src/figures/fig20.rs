//! Figure 20: performance of ZeroDEV on SPLASH2X, SPEC OMP and FFTW with
//! three directory configurations (1×, 1/8×, none), normalised to the 1×
//! baseline.

use crate::{app_table, baseline, mt_makers, zerodev_trio};
use zerodev_sim::runner::RunParams;
use zerodev_workloads::suites;

pub fn run() {
    let base = baseline();
    let apps = mt_makers(
        &[&suites::SPLASH2X[..], &suites::SPECOMP, &suites::FFTW].concat(),
        8,
    );
    let title = "Figure 20: ZeroDEV on SPLASH2X / SPEC OMP / FFTW (normalised to 1x baseline)";
    let params = RunParams::from_env();
    let table = app_table(title, &base, &zerodev_trio(&base), &apps, &params);
    print!("{table}");
    println!(
        "paper shape: within ~1% of baseline on average; lu_ncb, raytrace,\n\
         water_nsquared and 330.art see 1-4% slowdowns."
    );
}
