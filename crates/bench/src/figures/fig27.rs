//! Figure 27: comparison with SecDir. Iso-storage SecDir at 1× and 1/8×
//! (plus the baseline at 1/8× for reference) against ZeroDEV at 1×, 1/8×,
//! and no directory — normalised to the 1× baseline. The min-speedup
//! annotations expose SecDir's private-partition fragmentation.
//!
//! CPU-RATE and CPU-HET are subsampled (every third workload); the SERVER
//! group runs on the 128-core machine with its iso-storage geometries.

use crate::{
    baseline, column_min, mt, mt_suites, rate8, rows_vs_col0, run_grid, server_params, sparse, wl,
    zerodev_trio, Maker, SEED,
};
use zerodev_common::config::{DirectoryKind, Ratio, ZeroDevConfig};
use zerodev_common::table::{geomean, Table};
use zerodev_common::SystemConfig;
use zerodev_core::DirStore;
use zerodev_sim::runner::RunParams;
use zerodev_workloads::{hetero_mix, suites};

fn secdir_cfg(base: &SystemConfig, eighth: bool) -> SystemConfig {
    let mut cfg = base.clone();
    cfg.directory = DirectoryKind::SecDir(DirStore::secdir_geometry(cfg.cores, eighth));
    cfg
}

pub fn run() {
    let mut groups: Vec<(&str, Vec<Maker>, bool)> = Vec::new();
    for (suite, apps) in mt_suites() {
        let makers: Vec<Maker> = apps.iter().map(|&a| wl(move || mt(a, 8))).collect();
        groups.push((suite, makers, false));
    }
    groups.push((
        "CPU-RATE",
        suites::CPU2017
            .iter()
            .step_by(3)
            .map(|&a| wl(move || rate8(a)))
            .collect(),
        false,
    ));
    groups.push((
        "CPU-HET",
        (0..36)
            .step_by(3)
            .map(|i| wl(move || hetero_mix(i, 8, SEED)))
            .collect(),
        false,
    ));
    groups.push((
        "SERVER",
        suites::SERVER
            .iter()
            .map(|&a| wl(move || mt(a, 128)))
            .collect(),
        true,
    ));

    let labels = [
        "SecDir+1x",
        "Base+1/8x",
        "SecDir+1/8x",
        "ZD+1x",
        "ZD+1/8x",
        "ZD+NoDir",
    ];
    let mut header = vec!["group"];
    header.extend(labels.iter());
    header.push("min(SecDir1x/SecDir8th/ZD-NoDir)");
    let mut t = Table::new(&header);

    for (group, makers, server) in groups {
        let base_cfg = if server {
            SystemConfig::server_128core()
        } else {
            baseline()
        };
        let configs: Vec<(&str, SystemConfig)> = if server {
            let zd =
                |dir: DirectoryKind| base_cfg.clone().with_zerodev(ZeroDevConfig::default(), dir);
            let sp = |num, den| DirectoryKind::Sparse {
                ratio: Ratio::new(num, den),
                ways: 8,
            };
            vec![
                ("SecDir+1x", secdir_cfg(&base_cfg, false)),
                (
                    "Base+1/8x",
                    base_cfg.clone().with_sparse_dir(Ratio::new(1, 8)),
                ),
                ("SecDir+1/8x", secdir_cfg(&base_cfg, true)),
                ("ZD+1x", zd(sp(1, 1))),
                ("ZD+1/8x", zd(sp(1, 8))),
                ("ZD+NoDir", zd(DirectoryKind::None)),
            ]
        } else {
            let mut v = vec![
                ("SecDir+1x", secdir_cfg(&base_cfg, false)),
                ("Base+1/8x", sparse(1, 8)),
                ("SecDir+1/8x", secdir_cfg(&base_cfg, true)),
            ];
            v.extend(zerodev_trio());
            v
        };
        let params = if server {
            server_params()
        } else {
            RunParams::from_env()
        };
        let mut cfg_refs: Vec<&SystemConfig> = vec![&base_cfg];
        cfg_refs.extend(configs.iter().map(|(_, c)| c));
        let grid = run_grid(&cfg_refs, &makers, &params);
        let names: Vec<&str> = makers.iter().map(|_| "").collect();
        let rows = rows_vs_col0(&names, &grid);
        let mut cells = vec![group.to_string()];
        for c in 0..configs.len() {
            cells.push(format!(
                "{:.3}",
                geomean(&rows.iter().map(|r| r.values[c]).collect::<Vec<_>>())
            ));
        }
        cells.push(format!(
            "{:.2}/{:.2}/{:.2}",
            column_min(&rows, 0),
            column_min(&rows, 2),
            column_min(&rows, 5)
        ));
        t.row(&cells);
    }
    println!("== Figure 27: SecDir vs ZeroDEV (normalised to 1x baseline) ==");
    print!("{}", t.render());
    println!(
        "paper shape: SecDir loses performance as the directory shrinks (internal\n\
         fragmentation in the private partitions, severe on 128 cores); ZeroDEV is\n\
         insensitive to directory size and its minimum speedups stay near 1."
    );
}
