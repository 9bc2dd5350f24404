//! Section V "Multi-socket Evaluation": a four-socket machine (each socket
//! eight cores with an 8 MB non-inclusive LLC). ZeroDEV without an
//! intra-socket sparse directory against the 1× baseline, plus the
//! corrupted-block statistics the paper reports in §III-D3 (<0.5% of DRAM
//! writes from directory-entry eviction; <0.05% of LLC read misses to
//! corrupted blocks).

use crate::{hetero_makers, mt_makers, rate_makers, run_grid, speedup, zerodev_on};
use zerodev_common::config::DirectoryKind;
use zerodev_common::table::{geomean, mean, Table};
use zerodev_common::SystemConfig;
use zerodev_sim::runner::RunParams;
use zerodev_workloads::suites;

pub fn run() {
    let base_cfg = SystemConfig::four_socket();
    let zd_cfg = zerodev_on(&base_cfg, DirectoryKind::None);
    let total_cores = 32;

    let mut t = Table::new(&[
        "group",
        "ZD+NoDir speedup",
        "wbde/DRAM-wr %",
        "corrupt-read/miss %",
    ]);
    let mt_apps = [
        "canneal", "freqmine", "vips", "ocean_cp", "fft", "330.art", "FFTW",
    ];
    let rate_apps: Vec<&str> = suites::CPU2017.iter().step_by(6).copied().collect();
    let groups = [
        ("MT(32-thread)", mt_makers(&mt_apps, total_cores)),
        ("CPU-RATE(32-copy)", rate_makers(&rate_apps, total_cores)),
        ("CPU-HET(32-app)", hetero_makers(0..6, total_cores)),
    ];

    for (group, apps) in groups {
        let grid = run_grid(&[&base_cfg, &zd_cfg], &apps, &RunParams::from_env());
        let mut speedups = Vec::new();
        let mut wbde_pct = Vec::new();
        let mut corrupt_pct = Vec::new();
        for row in &grid {
            let (b, z) = (&row[0], &row[1]);
            speedups.push(speedup(z, b));
            wbde_pct
                .push(z.stats.dram_writes_dir as f64 * 100.0 / z.stats.dram_writes.max(1) as f64);
            corrupt_pct.push(
                z.stats.llc_read_misses_corrupted as f64 * 100.0 / z.stats.llc_misses.max(1) as f64,
            );
        }
        t.row(&[
            group.to_string(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", mean(&wbde_pct)),
            format!("{:.3}", mean(&corrupt_pct)),
        ]);
    }
    println!("== Multi-socket (4 x 8 cores): ZeroDEV without intra-socket directory ==");
    print!("{}", t.render());
    println!(
        "paper shape: ZeroDEV-NoDir within ~1.6% of the 1x baseline on average;\n\
         <0.5% of DRAM writes from directory-entry eviction; a very small\n\
         fraction of LLC read misses touch corrupted blocks."
    );
}
