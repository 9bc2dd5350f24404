//! Figure 3: normalised traffic, core cache misses, and speedup of the
//! multi-threaded applications under an unbounded directory (PARSEC shown
//! per-application; SPLASH2X / SPEC OMP / FFTW as suite averages, as in the
//! paper).

use super::fig02::vs_unbounded;
use crate::mt_groups;
use zerodev_common::table::Table;

pub fn run() {
    let mut t = Table::new(&["workload", "traffic", "misses", "speedup", "d-mpki"]);
    for g in mt_groups() {
        let avg = format!("{}-AVG", g.label);
        vs_unbounded(&mut t, &g.apps, &g.params, g.label == "PARSEC", &avg);
    }
    println!("== Figure 3: multi-threaded applications, unbounded vs 1x directory ==");
    print!("{}", t.render());
    println!(
        "paper shape: a 1x directory is adequate for these suites (speedups ~1.0);\n\
         freqmine *loses* with the unbounded directory because baseline DEVs\n\
         pre-clean its dirty blocks into the LLC."
    );
}
