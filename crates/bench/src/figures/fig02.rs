//! Figure 2: normalised interconnect traffic, core cache misses, and
//! weighted speedup of the eight-way rate (homogeneous) multi-programmed
//! workloads when going from the 1× sparse directory to an
//! unlimited-capacity directory. The last column is the paper's bar-top
//! annotation: core-cache misses saved per kilo-instruction.

use crate::{baseline, rate_makers, run_grid, speedup, unbounded, App};
use zerodev_common::table::{mean, Table};
use zerodev_sim::runner::RunParams;
use zerodev_workloads::suites;

pub fn run() {
    let mut t = Table::new(&["app", "traffic", "misses", "speedup", "d-mpki"]);
    let apps = rate_makers(&suites::CPU2017, 8);
    vs_unbounded(&mut t, &apps, &RunParams::from_env(), true, "AVERAGE");
    println!("== Figure 2: 1x sparse directory vs unbounded directory (CPU2017 rate) ==");
    println!("(values are unbounded normalised to the 1x baseline)");
    print!("{}", t.render());
    println!(
        "paper shape: average speedup under 1.01; ~10% traffic and ~15% miss savings;\n\
         xalancbmk is the outlier with the largest saved-misses-per-kilo-instruction."
    );
}

/// Appends the unbounded directory against the 1× baseline on `apps` to
/// `t`: with `per_app`, a row per app of its traffic, core-cache misses
/// and speedup normalised to the baseline and the misses per
/// kilo-instruction it saves; then the row `avg` of the first three's
/// means.
pub(crate) fn vs_unbounded(
    t: &mut Table,
    apps: &[App],
    params: &RunParams,
    per_app: bool,
    avg: &str,
) {
    let grid = run_grid(&[&baseline(), &unbounded()], apps, params);
    let (mut traf, mut miss, mut spd) = (Vec::new(), Vec::new(), Vec::new());
    for ((app, _), row) in apps.iter().zip(&grid) {
        let (b, u) = (&row[0], &row[1]);
        let tr = u.stats.total_traffic_bytes() as f64 / b.stats.total_traffic_bytes().max(1) as f64;
        let mr = u.stats.core_cache_misses as f64 / b.stats.core_cache_misses.max(1) as f64;
        let sp = speedup(u, b);
        if per_app {
            let dm = (b.misses_per_kilo_instr() - u.misses_per_kilo_instr()).max(0.0);
            t.row(&[
                app.clone(),
                format!("{tr:.3}"),
                format!("{mr:.3}"),
                format!("{sp:.3}"),
                format!("{dm:.2}"),
            ]);
        }
        traf.push(tr);
        miss.push(mr);
        spd.push(sp);
    }
    t.row(&[
        avg.to_string(),
        format!("{:.3}", mean(&traf)),
        format!("{:.3}", mean(&miss)),
        format!("{:.3}", mean(&spd)),
        String::new(),
    ]);
}
