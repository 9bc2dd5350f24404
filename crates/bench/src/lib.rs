//! Shared harness code for the figure reproduction.
//!
//! Every module of [`figures`] reproduces one table or figure of the paper:
//! it states its columns (named machines) and its workload groups, and
//! prints the same rows/series the paper reports; `speedups` turns each
//! (column × workload) grid into speedups over the baseline, and
//! [`app_table`] is the per-application table. Absolute numbers differ
//! from the paper (different substrate, synthetic workloads); the *shape* —
//! who wins, by roughly what factor, where crossovers fall — is the
//! reproduction target. See EXPERIMENTS.md for the index.
//!
//! The `all_figures` binary runs every figure, or the ones it is given by
//! name, in one process, so they share the sweep engine's baseline
//! memoization cache.
//!
//! All (config × workload) grids execute on the parallel sweep engine
//! ([`zerodev_sim::parallel`]): results land in deterministic slots, so the
//! printed tables are bit-identical whatever the worker count. Set
//! `ZERODEV_THREADS=N` to control it (`1` = exact serial path; default =
//! available parallelism) and `ZERODEV_QUICK=1` to run every figure with a
//! shortened measurement window (used by the integration tests).

use std::sync::Arc;
use std::time::{Duration, Instant};
use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcReplacement, Ratio, SpillPolicy, ZeroDevConfig,
};
use zerodev_common::table::{geomean, Table};
use zerodev_common::SystemConfig;
use zerodev_sim::parallel::{self, Engine, RunJob, WorkloadMaker};
use zerodev_sim::runner::{RunParams, RunWithEnergy};
use zerodev_workloads::{hetero_mix, multithreaded, rate, suites, Workload};

pub mod figures;

/// Seed used by every figure harness (results are fully deterministic).
pub const SEED: u64 = 0x5eed_2021;

/// The Table I baseline machine.
pub fn baseline() -> SystemConfig {
    SystemConfig::baseline_8core()
}

/// Baseline machine with an unbounded directory.
pub fn unbounded() -> SystemConfig {
    let mut cfg = baseline();
    cfg.directory = DirectoryKind::Unbounded;
    cfg
}

/// Baseline machine with an `R×` sparse directory.
pub fn sparse(num: u32, den: u32) -> SystemConfig {
    baseline().with_sparse_dir(Ratio::new(num, den))
}

/// An 8-way `num/den ×` sparse directory.
pub(crate) fn sparse_dir(num: u32, den: u32) -> DirectoryKind {
    DirectoryKind::Sparse {
        ratio: Ratio::new(num, den),
        ways: 8,
    }
}

/// `cfg` with a 16-way LLC of `mb` MB.
pub(crate) fn with_llc_mb(mut cfg: SystemConfig, mb: usize) -> SystemConfig {
    cfg.llc = CacheGeometry::new(mb << 20, 16);
    cfg.validate().expect("valid LLC capacity");
    cfg
}

/// ZeroDEV machine with no dedicated directory.
pub fn zerodev_nodir(policy: SpillPolicy, repl: LlcReplacement) -> SystemConfig {
    baseline().with_zerodev(
        ZeroDevConfig {
            policy,
            llc_replacement: repl,
        },
        DirectoryKind::None,
    )
}

/// ZeroDEV (FPSS + dataLRU — the paper's selected configuration) on the
/// `base` machine with the directory `dir` (a sparse one replacement-
/// disabled).
pub(crate) fn zerodev_on(base: &SystemConfig, dir: DirectoryKind) -> SystemConfig {
    base.clone().with_zerodev(ZeroDevConfig::default(), dir)
}

/// ZeroDEV machine (FPSS + dataLRU) with a replacement-disabled `R×`
/// sparse directory.
pub fn zerodev_sparse(num: u32, den: u32) -> SystemConfig {
    zerodev_on(&baseline(), sparse_dir(num, den))
}

/// ZeroDEV machine (FPSS + dataLRU) with no dedicated directory.
pub fn zerodev_default_nodir() -> SystemConfig {
    zerodev_on(&baseline(), DirectoryKind::None)
}

/// A figure's column: the name its header prints, and the machine whose
/// speedup over the baseline it shows.
pub type Column = (&'static str, SystemConfig);

/// The three ZeroDEV directory configurations of Figures 19–27 on the
/// `base` machine: a 1× replacement-disabled sparse directory, a 1/8×
/// one, and none at all.
pub fn zerodev_trio(base: &SystemConfig) -> Vec<Column> {
    vec![
        ("ZD+1x", zerodev_on(base, sparse_dir(1, 1))),
        ("ZD+1/8x", zerodev_on(base, sparse_dir(1, 8))),
        ("ZD+NoDir", zerodev_on(base, DirectoryKind::None)),
    ]
}

/// A workload as a figure lists it: the name its row prints, and a
/// constructor (each run consumes its workload, and any engine worker may
/// build one).
pub type App = (String, WorkloadMaker);

fn app(name: String, make: impl Fn() -> Workload + Send + Sync + 'static) -> App {
    (name, Arc::new(make))
}

/// The multi-threaded `apps` on a `cores`-core machine.
pub fn mt_makers(apps: &[&'static str], cores: usize) -> Vec<App> {
    let make = |a: &'static str| move || multithreaded(a, cores, SEED).expect("a known app");
    apps.iter().map(|&a| app(a.into(), make(a))).collect()
}

/// `copies`-copy rate workloads of `apps`.
pub fn rate_makers(apps: &[&'static str], copies: usize) -> Vec<App> {
    let make = |a: &'static str| move || rate(a, copies, SEED).expect("a known app");
    apps.iter().map(|&a| app(a.into(), make(a))).collect()
}

/// The heterogeneous mixes `mixes` on `cores` cores, named `W1`–`W36`.
pub(crate) fn hetero_makers(mixes: impl Iterator<Item = usize>, cores: usize) -> Vec<App> {
    mixes
        .map(|i| app(format!("W{}", i + 1), move || hetero_mix(i, cores, SEED)))
        .collect()
}

/// Workloads a grouped figure reports as one row (`label`), with the 1×
/// baseline machine their speedups are normalised to (`base`) and the run
/// length they run at (`params`).
pub(crate) struct Group {
    pub label: &'static str,
    pub apps: Vec<App>,
    pub base: SystemConfig,
    pub params: RunParams,
}

impl Group {
    /// `apps` on the Table I machine at the environment's run length.
    fn eight_core(label: &'static str, apps: Vec<App>) -> Group {
        Group {
            label,
            apps,
            base: baseline(),
            params: RunParams::from_env(),
        }
    }
}

/// The server workloads on the 128-core machine, at a quarter of the
/// environment's run length.
pub(crate) fn server_group() -> Group {
    let p = RunParams::from_env();
    Group {
        label: "SERVER",
        apps: mt_makers(&suites::SERVER, 128),
        base: SystemConfig::server_128core(),
        params: RunParams {
            refs_per_core: p.refs_per_core / 4,
            warmup_refs: p.warmup_refs / 4,
            ..p
        },
    }
}

/// The four multi-threaded suites of Table II on the 8-core machine.
pub(crate) fn mt_groups() -> Vec<Group> {
    [
        ("PARSEC", &suites::PARSEC[..]),
        ("SPLASH2X", &suites::SPLASH2X[..]),
        ("SPECOMP", &suites::SPECOMP[..]),
        ("FFTW", &suites::FFTW[..]),
    ]
    .into_iter()
    .map(|(suite, apps)| Group::eight_core(suite, mt_makers(apps, 8)))
    .collect()
}

/// The groups of Figures 4–6, 17, 18 and 22: the multi-threaded suites,
/// then every CPU2017 8-copy rate workload.
pub(crate) fn suite_groups() -> Vec<Group> {
    let mut groups = mt_groups();
    groups.push(Group::eight_core(
        "CPU2017RATE",
        rate_makers(&suites::CPU2017, 8),
    ));
    groups
}

/// The subsampled groups of Figures 25–27 and the energy table, which keep
/// those sweeps tractable: the multi-threaded suites, every third CPU2017
/// rate workload (labelled `rate_label`), every third heterogeneous mix
/// when `het`, and the server group when `server`.
pub(crate) fn subsampled_groups(rate_label: &'static str, het: bool, server: bool) -> Vec<Group> {
    let mut groups = mt_groups();
    let rate: Vec<&str> = suites::CPU2017.iter().step_by(3).copied().collect();
    groups.push(Group::eight_core(rate_label, rate_makers(&rate, 8)));
    if het {
        groups.push(Group::eight_core(
            "CPU-HET",
            hetero_makers((0..36).step_by(3), 8),
        ));
    }
    if server {
        groups.push(server_group());
    }
    groups
}

/// Executes the full (workload × config) grid on the parallel sweep engine
/// and returns the runs indexed `[workload][config]`, in submission order
/// (so downstream table code is order-independent of the worker count).
/// Every run is memoized process-wide, which is what lets `all_figures`
/// compute each shared baseline once.
pub fn run_grid(
    configs: &[&SystemConfig],
    apps: &[App],
    params: &RunParams,
) -> Vec<Vec<Arc<RunWithEnergy>>> {
    let engine = Engine::new(params.threads);
    let jobs: Vec<RunJob> = apps
        .iter()
        .flat_map(|(_, make)| {
            configs
                .iter()
                .map(move |cfg| RunJob::new((*cfg).clone(), make.clone(), *params, SEED))
        })
        .collect();
    let outcomes = engine.run_grid(&jobs);
    outcomes
        .chunks(configs.len().max(1))
        .map(|row| row.iter().map(|o| o.run.unwrap().clone()).collect())
        .collect()
}

/// `run`'s speedup over `base`, a run of the same workload.
pub(crate) fn speedup(run: &RunWithEnergy, base: &RunWithEnergy) -> f64 {
    run.result
        .speedup_vs(&base.result)
        .expect("same workload, same core count")
}

/// Each column's speedup over `base` for every app, indexed
/// `[column][app]`: one grid with `base` in front of the columns.
pub(crate) fn speedups(
    base: &SystemConfig,
    columns: &[Column],
    apps: &[App],
    params: &RunParams,
) -> Vec<Vec<f64>> {
    let mut configs = vec![base];
    configs.extend(columns.iter().map(|(_, c)| c));
    let grid = run_grid(&configs, apps, params);
    (1..configs.len())
        .map(|c| grid.iter().map(|row| speedup(&row[c], &row[0])).collect())
        .collect()
}

/// A table headed by `first`, each column's name, then `notes`.
pub(crate) fn column_table(first: &str, columns: &[Column], notes: &[&str]) -> Table {
    let mut header = vec![first];
    header.extend(columns.iter().map(|(name, _)| *name));
    header.extend(notes);
    Table::new(&header)
}

/// A grouped figure's row: `label`, then each column's geomean speedup.
pub(crate) fn geomean_row(label: &str, speedups: &[Vec<f64>]) -> Vec<String> {
    let mut cells = vec![label.to_string()];
    cells.extend(speedups.iter().map(|s| format!("{:.3}", geomean(s))));
    cells
}

/// The paper's bar-top annotation: the minimum speedup of each column in
/// `cols`, joined as `a/b/c`.
pub(crate) fn min_speedups(speedups: &[Vec<f64>], cols: &[usize]) -> String {
    let min = |c: usize| speedups[c].iter().copied().fold(f64::INFINITY, f64::min);
    let mins: Vec<String> = cols.iter().map(|&c| format!("{:.2}", min(c))).collect();
    mins.join("/")
}

/// The per-application table of Figures 19–21, 23 and 24, titled `title`:
/// a row of each app's column speedups over `base`, then their geomeans.
pub fn app_table(
    title: &str,
    base: &SystemConfig,
    columns: &[Column],
    apps: &[App],
    params: &RunParams,
) -> String {
    let speedups = speedups(base, columns, apps, params);
    let mut t = column_table("workload", columns, &[]);
    for (i, (name, _)) in apps.iter().enumerate() {
        let mut cells = vec![name.clone()];
        cells.extend(speedups.iter().map(|s| format!("{:.3}", s[i])));
        t.row(&cells);
    }
    t.row(&geomean_row("GEOMEAN", &speedups));
    format!("\n== {title} ==\n{}", t.render())
}

/// Prints the sweep-throughput summary `all_figures` reports after the
/// full reproduction: executed runs, baseline-cache hits, and simulated
/// cycles per second of real time over `elapsed`. Goes to stderr (like the
/// per-figure timings) so stdout stays byte-identical across thread counts
/// and machines.
pub fn print_sweep_summary(elapsed: Duration) {
    let s = parallel::summary();
    eprintln!(
        "sweep engine: {} threads; {} simulations executed, {} baseline-cache hits",
        RunParams::from_env().threads,
        s.runs_executed,
        s.cache_hits,
    );
    eprintln!(
        "throughput: {:.0}M sim-cycles in {:.1}s wall \
         ({:.1}M sim-cycles/s; {:.0}K refs/s; worker-busy {:.1}s)",
        s.sim_cycles as f64 / 1e6,
        elapsed.as_secs_f64(),
        s.cycles_per_sec(elapsed) / 1e6,
        s.refs_per_sec(elapsed) / 1e3,
        s.busy.as_secs_f64(),
    );
}

/// Runs a list of `(name, body)` figures in order, printing each one's
/// wall-clock to stderr. A panic (a failed sweep point names itself
/// through [`zerodev_sim::PointResult::unwrap`]) propagates: there is no
/// partial reproduction.
pub fn run_figures(figs: &[(&str, fn())]) {
    for &(name, fig) in figs {
        let t0 = Instant::now();
        fig();
        eprintln!("[{name}: {:?}]", t0.elapsed());
    }
}
