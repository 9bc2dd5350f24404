//! Shared harness code for the figure reproduction.
//!
//! Every module of [`figures`] reproduces one table or figure of the paper:
//! it sweeps the relevant configurations over the relevant workloads and
//! prints the same rows/series the paper reports. Absolute numbers differ
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
use std::time::Duration;
use zerodev_common::config::{DirectoryKind, LlcReplacement, Ratio, SpillPolicy, ZeroDevConfig};
use zerodev_common::table::{geomean, Table};
use zerodev_common::SystemConfig;
use zerodev_sim::parallel::{self, Engine, RunJob};
use zerodev_sim::runner::{run, RunParams, RunWithEnergy};
use zerodev_workloads::{multithreaded, rate, suites, Workload};

pub mod figures;

/// Seed used by every figure harness (results are fully deterministic).
pub const SEED: u64 = 0x5eed_2021;

/// The multi-threaded suites of Table II, with their figure labels.
pub fn mt_suites() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("PARSEC", suites::PARSEC.to_vec()),
        ("SPLASH2X", suites::SPLASH2X.to_vec()),
        ("SPECOMP", suites::SPECOMP.to_vec()),
        ("FFTW", suites::FFTW.to_vec()),
    ]
}

/// Builds the multi-threaded workload for `name` on an `cores`-core machine.
pub fn mt(name: &str, cores: usize) -> Workload {
    multithreaded(name, cores, SEED).unwrap_or_else(|| panic!("unknown app {name}"))
}

/// Builds the 8-copy rate workload for `app`.
pub fn rate8(app: &str) -> Workload {
    rate(app, 8, SEED).unwrap_or_else(|| panic!("unknown app {app}"))
}

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

/// ZeroDEV machine (FPSS + dataLRU — the paper's selected configuration)
/// with a replacement-disabled `R×` sparse directory.
pub fn zerodev_sparse(num: u32, den: u32) -> SystemConfig {
    baseline().with_zerodev(
        ZeroDevConfig::default(),
        DirectoryKind::Sparse {
            ratio: Ratio::new(num, den),
            ways: 8,
        },
    )
}

/// ZeroDEV machine (FPSS + dataLRU) with no dedicated directory.
pub fn zerodev_default_nodir() -> SystemConfig {
    zerodev_nodir(SpillPolicy::FusePrivateSpillShared, LlcReplacement::DataLru)
}

/// Runs `workload` on `cfg` with the environment-selected run length
/// (serial, unmemoized — grid sweeps go through [`run_grid`]).
pub fn execute(cfg: &SystemConfig, workload: Workload) -> RunWithEnergy {
    run(cfg, workload, &RunParams::from_env())
}

/// Run length for the 128-core server experiments.
pub fn server_params() -> RunParams {
    let p = RunParams::from_env();
    RunParams {
        refs_per_core: p.refs_per_core / 4,
        warmup_refs: p.warmup_refs / 4,
        ..p
    }
}

/// A shareable workload constructor (workloads are consumed per run, so
/// sweeps take factories; `Send + Sync` lets any engine worker build one).
pub type Maker = zerodev_sim::parallel::WorkloadMaker;

/// Wraps a workload constructor (helper for [`sweep`] / [`run_grid`]).
pub fn wl<F: Fn() -> Workload + Send + Sync + 'static>(f: F) -> Maker {
    Arc::new(f)
}

/// Convenience: (name, constructor) pairs for a multi-threaded app list.
pub fn mt_makers(apps: &[&'static str], cores: usize) -> Vec<(&'static str, Maker)> {
    apps.iter()
        .map(|&a| (a, wl(move || mt(a, cores))))
        .collect()
}

/// Convenience: (name, constructor) pairs for 8-copy rate workloads.
pub fn rate_makers(apps: &[&'static str]) -> Vec<(&'static str, Maker)> {
    apps.iter().map(|&a| (a, wl(move || rate8(a)))).collect()
}

/// The groups most figures sweep: the four multi-threaded suites of
/// Table II plus the CPU2017 8-copy rate group.
pub fn suite_groups_mt_rate() -> Vec<(&'static str, Vec<(&'static str, Maker)>)> {
    let mut groups: Vec<(&'static str, Vec<(&'static str, Maker)>)> = mt_suites()
        .into_iter()
        .map(|(suite, apps)| (suite, mt_makers(&apps, 8)))
        .collect();
    groups.push(("CPU2017RATE", rate_makers(&suites::CPU2017)));
    groups
}

/// Executes the full (workload × config) grid on the parallel sweep engine
/// and returns the runs indexed `[workload][config]`, in submission order
/// (so downstream table code is order-independent of the worker count).
/// Every run is memoized process-wide, which is what lets `all_figures`
/// compute each shared baseline once.
pub fn run_grid(
    configs: &[&SystemConfig],
    makers: &[Maker],
    params: &RunParams,
) -> Vec<Vec<Arc<RunWithEnergy>>> {
    let engine = Engine::new(params.threads);
    let jobs: Vec<RunJob> = makers
        .iter()
        .flat_map(|make| {
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

/// [`run_grid`] with the environment-selected run length.
pub fn run_grid_env(configs: &[&SystemConfig], makers: &[Maker]) -> Vec<Vec<Arc<RunWithEnergy>>> {
    run_grid(configs, makers, &RunParams::from_env())
}

/// Normalised rows from a grid whose column 0 is the per-workload baseline
/// (`names` parallels the grid's workload axis).
pub fn rows_vs_col0(names: &[&str], grid: &[Vec<Arc<RunWithEnergy>>]) -> Vec<NormRow> {
    names
        .iter()
        .zip(grid)
        .map(|(name, row)| NormRow {
            name: (*name).to_string(),
            values: row[1..]
                .iter()
                .map(|r| {
                    r.result
                        .speedup_vs(&row[0].result)
                        .expect("grid rows share one workload, so core counts match")
                })
                .collect(),
        })
        .collect()
}

/// The makers of a named workload list (the grid axis order).
pub fn makers_of(workloads: &[(&str, Maker)]) -> Vec<Maker> {
    workloads.iter().map(|(_, m)| m.clone()).collect()
}

/// The names of a named workload list.
pub fn names_of<'a>(workloads: &[(&'a str, Maker)]) -> Vec<&'a str> {
    workloads.iter().map(|(n, _)| *n).collect()
}

/// One normalised row of a figure: speedups of each configuration against
/// the per-workload baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct NormRow {
    /// Workload name.
    pub name: String,
    /// One normalised value per swept configuration.
    pub values: Vec<f64>,
}

/// Sweeps `configs` over `workloads` on the parallel engine, normalising
/// the chosen metric against the first config (the baseline). Returns one
/// row per workload.
pub fn sweep<F>(
    configs: &[(&str, SystemConfig)],
    workloads: &[(&str, Maker)],
    metric: F,
) -> Vec<NormRow>
where
    F: Fn(&RunWithEnergy, &RunWithEnergy) -> f64,
{
    let cfg_refs: Vec<&SystemConfig> = configs.iter().map(|(_, c)| c).collect();
    let grid = run_grid_env(&cfg_refs, &makers_of(workloads));
    workloads
        .iter()
        .zip(&grid)
        .map(|((wname, _), row)| NormRow {
            name: (*wname).to_string(),
            values: row[1..].iter().map(|r| metric(r, &row[0])).collect(),
        })
        .collect()
}

/// Runs the per-application speedup table used by Figures 19–21 and 23 on
/// the parallel engine: each workload under every config, normalised to
/// the baseline machine.
pub fn per_app_speedups(apps: &[(&str, Maker)], configs: &[(&str, SystemConfig)]) -> Vec<NormRow> {
    per_app_speedups_with(apps, configs, &RunParams::from_env())
}

/// [`per_app_speedups`] with an explicit run length.
pub fn per_app_speedups_with(
    apps: &[(&str, Maker)],
    configs: &[(&str, SystemConfig)],
    params: &RunParams,
) -> Vec<NormRow> {
    let base_cfg = baseline();
    let mut cfg_refs: Vec<&SystemConfig> = vec![&base_cfg];
    cfg_refs.extend(configs.iter().map(|(_, c)| c));
    let grid = run_grid(&cfg_refs, &makers_of(apps), params);
    rows_vs_col0(&names_of(apps), &grid)
}

/// Renders a table of rows (one column per non-baseline config) followed
/// by a GEOMEAN row.
pub fn render_norm_table(title: &str, col_names: &[&str], rows: &[NormRow]) -> String {
    let mut out = format!("\n== {title} ==\n");
    let mut header = vec!["workload"];
    header.extend(col_names);
    let mut t = Table::new(&header);
    for row in rows {
        let mut cells = vec![row.name.clone()];
        cells.extend(row.values.iter().map(|v| format!("{v:.3}")));
        t.row(&cells);
    }
    if !rows.is_empty() {
        let mut cells = vec!["GEOMEAN".to_string()];
        for c in 0..rows[0].values.len() {
            let vals: Vec<f64> = rows.iter().map(|r| r.values[c]).collect();
            cells.push(format!("{:.3}", geomean(&vals)));
        }
        t.row(&cells);
    }
    out.push_str(&t.render());
    out
}

/// Prints [`render_norm_table`].
pub fn print_norm_table(title: &str, col_names: &[&str], rows: &[NormRow]) {
    print!("{}", render_norm_table(title, col_names, rows));
}

/// Minimum of one column (the paper annotates min speedups above bars).
pub fn column_min(rows: &[NormRow], col: usize) -> f64 {
    rows.iter()
        .map(|r| r.values[col])
        .fold(f64::INFINITY, f64::min)
}

/// The three ZeroDEV directory configurations of Figures 19–24: a 1×
/// replacement-disabled sparse directory, a 1/8× one, and none at all.
pub fn zerodev_trio() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("ZD+1x", zerodev_sparse(1, 1)),
        ("ZD+1/8x", zerodev_sparse(1, 8)),
        ("ZD+NoDir", zerodev_default_nodir()),
    ]
}

/// Prints the sweep-throughput summary `all_figures` reports after the
/// full reproduction: executed runs, baseline-cache hits, and simulated
/// cycles per second of real time over `elapsed`. Goes to stderr (like the
/// per-figure timings) so stdout stays byte-identical across thread counts
/// and machines.
///
/// A degraded run — `failed_figures > 0`, or any `catch_unwind`-isolated
/// sweep point — is labelled **partial**: the cycle totals then only cover
/// the work that completed, so presenting them as the full reproduction's
/// throughput would overstate how fast (or how much of) the sweep ran.
pub fn print_sweep_summary(elapsed: Duration, failed_figures: usize) {
    let s = parallel::summary();
    eprintln!(
        "sweep engine: {} threads; {} simulations executed, {} baseline-cache hits",
        RunParams::from_env().threads,
        s.runs_executed,
        s.cache_hits,
    );
    let qualifier = if failed_figures > 0 || s.failed > 0 {
        format!(
            " (PARTIAL: {failed_figures} figure(s) failed, {} sweep point(s) isolated; \
             totals cover completed work only)",
            s.failed
        )
    } else {
        String::new()
    };
    eprintln!(
        "throughput{qualifier}: {:.0}M sim-cycles in {:.1}s wall \
         ({:.1}M sim-cycles/s; {:.0}K refs/s; worker-busy {:.1}s)",
        s.sim_cycles as f64 / 1e6,
        elapsed.as_secs_f64(),
        s.cycles_per_sec(elapsed) / 1e6,
        s.refs_per_sec(elapsed) / 1e3,
        s.busy.as_secs_f64(),
    );
}

/// Runs a list of `(name, body)` figures, each under `catch_unwind`, so a
/// panicking figure (a failed sweep point, a bug, an injected fault)
/// degrades the reproduction instead of aborting it. Returns the number of
/// failed figures; when nonzero, a degraded-sweep summary — every failed
/// figure and every failed sweep point — is printed to stderr.
pub fn run_figures(figs: &[(&str, fn())]) -> usize {
    let mut failed: Vec<(&str, String)> = Vec::new();
    for &(name, fig) in figs {
        let t0 = std::time::Instant::now();
        // Isolated sweep-point failures inside this figure's grids report
        // the figure they degraded.
        parallel::set_sweep_context(Some(name));
        let outcome = std::panic::catch_unwind(fig);
        parallel::set_sweep_context(None);
        let wall = t0.elapsed();
        if let Err(p) = outcome {
            eprintln!("[{name}: FAILED after {wall:?}]");
            failed.push((name, zerodev_common::panic_message(&*p)));
        } else {
            eprintln!("[{name}: {wall:?}]");
        }
    }
    if !failed.is_empty() {
        eprintln!("\ndegraded reproduction: {} figure(s) failed", failed.len());
        for (name, msg) in &failed {
            let first = msg.lines().next().unwrap_or(msg);
            eprintln!("  {name}: {first}");
        }
        let points = parallel::failed_points();
        if !points.is_empty() {
            eprintln!("failed sweep points ({}):", points.len());
            for p in &points {
                eprintln!("  {p}");
            }
        }
    }
    failed.len()
}
