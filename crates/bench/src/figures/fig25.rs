//! Figure 25: ZeroDEV on exclusive-private-data (EPD) and inclusive LLCs.
//! Per application group: the EPD baseline at three directory sizes, the
//! ZeroDEV EPD design at three directory configurations, the inclusive
//! baseline, and inclusive ZeroDEV without a directory — all normalised to
//! the non-inclusive 1×-directory baseline.
//!
//! CPU-RATE and CPU-HET are subsampled (every third workload) to keep the
//! sweep tractable; the suite averages are stable under the subsample.

use crate::{
    baseline, column_table, geomean_row, sparse_dir, speedups, subsampled_groups, zerodev_on,
    Column,
};
use zerodev_common::config::{DirectoryKind, LlcDesign, Ratio};
use zerodev_common::SystemConfig;

fn with_design(mut cfg: SystemConfig, d: LlcDesign) -> SystemConfig {
    cfg.llc_design = d;
    cfg
}

/// The figure's columns on the `base` machine.
fn columns(base: &SystemConfig) -> Vec<Column> {
    let epd = |cfg| with_design(cfg, LlcDesign::Epd);
    let incl = |cfg| with_design(cfg, LlcDesign::Inclusive);
    let base_sparse = |num, den| base.clone().with_sparse_dir(Ratio::new(num, den));
    let zd = |dir| zerodev_on(base, dir);
    vec![
        ("BaseEPD+1x", epd(base.clone())),
        ("BaseEPD+1/2x", epd(base_sparse(1, 2))),
        ("BaseEPD+1/8x", epd(base_sparse(1, 8))),
        ("ZDEPD+NoDir", epd(zd(DirectoryKind::None))),
        ("ZDEPD+1/2x", epd(zd(sparse_dir(1, 2)))),
        ("ZDEPD+1x", epd(zd(sparse_dir(1, 1)))),
        ("BaseIncl+1x", incl(base.clone())),
        ("ZDIncl+NoDir", incl(zd(DirectoryKind::None))),
    ]
}

pub fn run() {
    let mut t = column_table("group", &columns(&baseline()), &[]);
    for g in subsampled_groups("CPU-RATE", true, true) {
        let s = speedups(&g.base, &columns(&g.base), &g.apps, &g.params);
        t.row(&geomean_row(g.label, &s));
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
