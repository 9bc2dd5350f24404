//! Figure 25: ZeroDEV on exclusive-private-data (EPD) and inclusive LLCs.
//! Per application group: the EPD baseline at three directory sizes, the
//! ZeroDEV EPD design at three directory configurations, the inclusive
//! baseline, and inclusive ZeroDEV without a directory — all normalised to
//! the non-inclusive 1×-directory baseline.
//!
//! CPU-RATE and CPU-HET are subsampled (every third workload) to keep the
//! sweep tractable; the suite averages are stable under the subsample.

use crate::{baseline, mt, mt_suites, rate8, run_grid, server_params, wl, Maker, SEED};
use zerodev_common::config::{DirectoryKind, LlcDesign, Ratio, ZeroDevConfig};
use zerodev_common::table::{geomean, Table};
use zerodev_common::SystemConfig;
use zerodev_sim::runner::RunParams;
use zerodev_workloads::{hetero_mix, suites};

fn with_design(mut cfg: SystemConfig, d: LlcDesign) -> SystemConfig {
    cfg.llc_design = d;
    cfg
}

fn configs_for(server: bool) -> Vec<(&'static str, SystemConfig)> {
    let base = if server {
        SystemConfig::server_128core()
    } else {
        baseline()
    };
    let zd = |dir: DirectoryKind| base.clone().with_zerodev(ZeroDevConfig::default(), dir);
    let sp = |num, den| DirectoryKind::Sparse {
        ratio: Ratio::new(num, den),
        ways: 8,
    };
    vec![
        ("BaseEPD+1x", with_design(base.clone(), LlcDesign::Epd)),
        (
            "BaseEPD+1/2x",
            with_design(
                base.clone().with_sparse_dir(Ratio::new(1, 2)),
                LlcDesign::Epd,
            ),
        ),
        (
            "BaseEPD+1/8x",
            with_design(
                base.clone().with_sparse_dir(Ratio::new(1, 8)),
                LlcDesign::Epd,
            ),
        ),
        (
            "ZDEPD+NoDir",
            with_design(zd(DirectoryKind::None), LlcDesign::Epd),
        ),
        ("ZDEPD+1/2x", with_design(zd(sp(1, 2)), LlcDesign::Epd)),
        ("ZDEPD+1x", with_design(zd(sp(1, 1)), LlcDesign::Epd)),
        (
            "BaseIncl+1x",
            with_design(base.clone(), LlcDesign::Inclusive),
        ),
        (
            "ZDIncl+NoDir",
            with_design(zd(DirectoryKind::None), LlcDesign::Inclusive),
        ),
    ]
}

pub fn run() {
    let labels: Vec<&str> = configs_for(false).iter().map(|(n, _)| *n).collect();
    let mut header = vec!["group"];
    header.extend(labels.iter());
    let mut t = Table::new(&header);

    let mut groups: Vec<(&str, Vec<Maker>, bool)> = Vec::new();
    for (suite, apps) in mt_suites() {
        let makers: Vec<Maker> = apps.iter().map(|&a| wl(move || mt(a, 8))).collect();
        groups.push((suite, makers, false));
    }
    let rate_sub: Vec<Maker> = suites::CPU2017
        .iter()
        .step_by(3)
        .map(|&a| wl(move || rate8(a)))
        .collect();
    groups.push(("CPU-RATE", rate_sub, false));
    let het_sub: Vec<Maker> = (0..36)
        .step_by(3)
        .map(|i| wl(move || hetero_mix(i, 8, SEED)))
        .collect();
    groups.push(("CPU-HET", het_sub, false));
    let server_makers: Vec<Maker> = suites::SERVER
        .iter()
        .map(|&a| wl(move || mt(a, 128)))
        .collect();
    groups.push(("SERVER", server_makers, true));

    for (group, makers, server) in groups {
        let base_cfg = if server {
            SystemConfig::server_128core()
        } else {
            baseline()
        };
        let params = if server {
            server_params()
        } else {
            RunParams::from_env()
        };
        let configs = configs_for(server);
        let mut cfg_refs: Vec<&SystemConfig> = vec![&base_cfg];
        cfg_refs.extend(configs.iter().map(|(_, c)| c));
        let grid = run_grid(&cfg_refs, &makers, &params);
        let mut cells = vec![group.to_string()];
        for c in 1..cfg_refs.len() {
            let speedups: Vec<f64> = grid
                .iter()
                .map(|row| {
                    row[c]
                        .result
                        .speedup_vs(&row[0].result)
                        .expect("same workload, same core count")
                })
                .collect();
            cells.push(format!("{:.3}", geomean(&speedups)));
        }
        t.row(&cells);
    }
    println!(
        "== Figure 25: EPD and inclusive LLC designs (normalised to non-inclusive 1x baseline) =="
    );
    print!("{}", t.render());
    println!(
        "paper shape: the EPD baseline beats the non-inclusive baseline (better\n\
         space utilisation); ZeroDEV-EPD tracks its baseline within 1-2% when it\n\
         has a 1/2x-1x directory but loses without one (no fusion possible in an\n\
         EPD LLC); inclusive ZeroDEV without a directory tracks the inclusive\n\
         baseline within 1-2%."
    );
}
