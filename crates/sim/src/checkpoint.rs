//! Deterministic checkpoint/resume for paused runs.
//!
//! A [`crate::engine::PausedRun`] sits at a reference-loop boundary: the
//! effects buffer is drained, every in-flight access has retired, and the
//! entire remaining run is a pure function of (machine state, workload
//! generator state, event queue, fault plan). [`PausedRun::checkpoint`]
//! serializes exactly that closure into a versioned, checksummed image
//! ([`zerodev_common::snap`]); [`PausedRun::restore`] rebuilds a run that
//! continues **byte-identically** to the uninterrupted original — same
//! statistics, same event order, same fault sequence — pinned by the
//! kill-and-resume parity matrix in the bench crate.
//!
//! The image stores machine *state*, not machine *shape*: the caller
//! supplies the [`SystemConfig`] at restore time and the image carries a
//! fingerprint of it ([`SystemConfig::fingerprint`]), so a
//! checkpoint can never be thawed into a differently shaped machine.
//! Structures are rebuilt by their constructors and then lane-restored,
//! keeping probe order, replacement metadata, and fault-victim selection
//! exact. The forward-progress watchdog's horizon and scan period are
//! constants of the engine, so no tuning travels in the image.

use crate::core_model::AccessEffects;
use crate::engine::{EngineState, PausedRun, Simulation};
use crate::faults::FaultPlan;
use zerodev_common::snap::{SnapError, SnapReader, SnapWriter};
use zerodev_common::SystemConfig;
use zerodev_workloads::Workload;

/// Checkpoint container magic ("a paused ZeroDEV run").
pub const MAGIC: u64 = 0x5eed_c8ec_7020_21ff;

/// Checkpoint format version; bumped on any layout change so stale images
/// fail structurally ([`SnapError::BadVersion`]) instead of decoding
/// garbage.
pub const VERSION: u32 = 2;

impl PausedRun {
    /// Serializes the paused run into a self-contained image: run target,
    /// workload generators (PRNG streams and cursors), the full machine
    /// (caches, directories, DRAM, oracle shadow), every core's private
    /// hierarchy, the fault plan, and the event-loop state.
    // lint:allow(snapshot_complete(fx), reusable effects buffer; empty at every pause boundary (each step clears then drains it))
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapWriter::new(MAGIC, VERSION);
        w.u64(self.refs_per_core);
        let (sim, st) = (&self.sim, &self.st);
        sim.workload().snap(&mut w);
        sim.system().snap(&mut w);
        w.usize(sim.cores().len());
        for core in sim.cores() {
            core.snap(&mut w);
        }
        match sim.faults() {
            None => w.bool(false),
            Some(plan) => {
                w.bool(true);
                plan.snap(&mut w);
            }
        }
        st.snap(&mut w);
        w.finish()
    }

    /// Rebuilds a paused run from a [`Self::checkpoint`] image taken on a
    /// machine built from `cfg`. The restored run continues byte-identically
    /// to the original.
    ///
    /// # Errors
    /// Fails with a [`SnapError`] on container damage (bad magic/version,
    /// checksum mismatch, truncation), a config fingerprint or geometry
    /// mismatch, or any corrupt field.
    pub fn restore(cfg: &SystemConfig, bytes: &[u8]) -> Result<PausedRun, SnapError> {
        let mut r = SnapReader::open(bytes, MAGIC, VERSION)?;
        let refs_per_core = r.u64("checkpoint refs per core")?;
        let workload = Workload::unsnap(&mut r)?;
        if workload.threads.len() != cfg.cores * cfg.sockets {
            return Err(SnapError::Corrupt {
                context: "workload thread count does not match the machine",
            });
        }
        let mut sim = Simulation::new(cfg, workload);
        sim.system_mut().unsnap(&mut r)?;
        let n = r.usize("checkpoint core count")?;
        if n != sim.cores().len() {
            return Err(SnapError::Corrupt {
                context: "core count does not match the machine",
            });
        }
        for core in sim.cores_mut() {
            core.unsnap(&mut r)?;
        }
        if r.bool("checkpoint faults flag")? {
            sim.set_fault_plan(FaultPlan::unsnap(&mut r)?);
        }
        let st = EngineState::unsnap(&mut r, n)?;
        r.expect_end()?;
        Ok(PausedRun {
            sim,
            st,
            refs_per_core,
            fx: AccessEffects::default(),
        })
    }
}
