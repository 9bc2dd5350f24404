//! One-call experiment execution helpers used by the figure harnesses.

use crate::energy::{energy, EnergyReport};
use crate::engine::{SimResult, Simulation};
use crate::faults::FaultConfig;
use zerodev_common::{env, SystemConfig};
use zerodev_workloads::Workload;

/// Run length parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// References each core must retire in the measured region.
    pub refs_per_core: u64,
    /// References each core executes to warm caches before measurement.
    pub warmup_refs: u64,
    /// Worker threads used by the parallel sweep engine
    /// ([`crate::parallel::Engine`]) for (config × workload) grids.
    /// `1` selects the exact serial path (no threads are spawned).
    /// Has no effect on simulation results — every run is deterministic.
    pub threads: usize,
    /// Runs the coherence-invariant oracle (`zerodev_core::oracle`)
    /// alongside the protocol engine: a shadow MESI model checked after
    /// every uncore transaction, panicking with an event-log dump on the
    /// first violation. Audited runs produce byte-identical statistics;
    /// release sweeps leave this off and pay nothing.
    pub audit: bool,
    /// Deterministic fault injection ([`crate::faults`]); `None` (the
    /// default) is zero-cost-off. [`Self::from_env`] never arms one: only
    /// the soak driver reads a plan from `ZERODEV_FAULTS`.
    pub faults: Option<FaultConfig>,
}

/// Worker count used when `ZERODEV_THREADS` is unset: all available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Default for RunParams {
    fn default() -> Self {
        // Sized so a full figure (dozens of configurations) regenerates in
        // seconds while footprints still exceed the private caches.
        RunParams {
            refs_per_core: 100_000,
            warmup_refs: 25_000,
            threads: default_threads(),
            audit: false,
            faults: None,
        }
    }
}

impl RunParams {
    /// A faster profile for smoke tests and CI.
    pub fn quick() -> Self {
        RunParams {
            refs_per_core: 8_000,
            warmup_refs: 2_000,
            ..Default::default()
        }
    }

    /// Reads `ZERODEV_QUICK=1` to switch every harness to the quick profile,
    /// `ZERODEV_THREADS=N` to set the sweep worker count (`1` = serial) and
    /// `ZERODEV_AUDIT=1` to run every simulation under the coherence oracle.
    /// All parsing goes through [`zerodev_common::env`]: an invalid value
    /// warns on stderr at every read (so once per call) and falls back to
    /// the default instead of silently misbehaving or aborting a sweep.
    pub fn from_env() -> Self {
        let mut p = if env::var_flag("ZERODEV_QUICK") {
            Self::quick()
        } else {
            Self::default()
        };
        p.threads = env::var_or("ZERODEV_THREADS", default_threads()).max(1);
        p.audit = env::var_flag("ZERODEV_AUDIT");
        p
    }

    /// Applies the audit flag and the fault plan to a built simulation.
    pub fn arm(&self, sim: &mut Simulation) {
        if self.audit {
            sim.enable_audit();
        }
        if let Some(fc) = self.faults {
            sim.set_faults(fc);
        }
    }
}

/// Runs `workload` on the machine in `cfg` and attaches the energy report.
pub fn run(cfg: &SystemConfig, workload: Workload, params: &RunParams) -> RunWithEnergy {
    let mut sim = Simulation::new(cfg, workload);
    params.arm(&mut sim);
    let result = sim.run(params.refs_per_core, params.warmup_refs);
    let e = energy(cfg, &result.stats, result.completion_cycles);
    RunWithEnergy { result, energy: e }
}

/// A run result plus its energy report.
#[derive(Clone, Debug)]
pub struct RunWithEnergy {
    /// The simulation result.
    pub result: SimResult,
    /// The directory + LLC energy report.
    pub energy: EnergyReport,
}

impl std::ops::Deref for RunWithEnergy {
    type Target = SimResult;
    fn deref(&self) -> &SimResult {
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::config::{DirectoryKind, ZeroDevConfig};
    use zerodev_workloads::{multithreaded, rate};

    #[test]
    fn run_attaches_energy() {
        let cfg = SystemConfig::baseline_8core();
        let wl = multithreaded("swaptions", 8, 3).unwrap();
        let r = run(&cfg, wl, &RunParams::quick());
        assert!(r.energy.total_nj() > 0.0);
        assert!(r.completion_cycles > 0);
    }

    #[test]
    fn zerodev_nodir_has_no_devs_on_real_workload() {
        let cfg = SystemConfig::baseline_8core()
            .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        let wl = multithreaded("ocean_cp", 8, 5).unwrap();
        let r = run(&cfg, wl, &RunParams::quick());
        assert_eq!(r.stats.dev_invalidations, 0);
        assert!(r.stats.dir_spills + r.stats.dir_fuses > 0);
    }

    #[test]
    fn ratios_are_near_one_for_identical_configs() {
        let cfg = SystemConfig::baseline_8core();
        let a = run(&cfg, rate("leela", 8, 7).unwrap(), &RunParams::quick());
        let b = run(&cfg, rate("leela", 8, 7).unwrap(), &RunParams::quick());
        assert!((a.speedup_vs(&b).expect("same core count") - 1.0).abs() < 1e-9);
    }
}
