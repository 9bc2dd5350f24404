//! Deterministic fault injection: configuration, per-run plan, and stats.
//!
//! ZeroDEV's safety argument rests on invariants the coherence oracle
//! checks on *clean* runs; this module supplies the adversarial side. A
//! [`FaultPlan`], driven by a [`zerodev_common::Prng`] with one fixed seed,
//! arms one **state corruption**
//! ([`StateFault`]: a sharer-bit flip, an LLC-resident entry corruption or
//! a housed home-segment flip) at a measured-access index and injects it
//! once a victim exists. Each one silently breaks the protocol's
//! invariants; the fault campaign proves the oracle flags every one
//! (detector sensitivity).
//!
//! The whole subsystem is zero-cost-off: with no `FaultConfig` in
//! [`crate::runner::RunParams`] (the default; only the soak driver arms
//! one from `ZERODEV_FAULTS`) the engine takes one `None` branch per
//! reference and produces byte-identical output to a build without the
//! module.

use zerodev_common::Prng;
pub use zerodev_core::StateFault;

/// The one state corruption to inject in a run; `Eq + Hash`, so it can
/// key the sweep memo cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FaultConfig {
    /// The fault class.
    pub kind: StateFault,
    /// The measured-access index to arm it at (injection retries every
    /// access until a victim exists).
    pub at: u64,
}

/// Seed of every fault plan's PRNG, independent of workload seeds, so a
/// plan's victims are a function of its [`FaultConfig`] and the run.
const PLAN_SEED: u64 = 0xfa017 ^ 0x5eed_fa017;

impl FaultConfig {
    /// Parses a `ZERODEV_FAULTS` spec: comma-separated `key=value` pairs
    /// with one key, `corrupt=<sharer|llc|home>@<access-index>`; when it
    /// repeats, the last one counts. Example: `corrupt=llc@1000`.
    ///
    /// # Errors
    /// Returns a message describing the first malformed pair, or that the
    /// spec arms no corruption.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut fc = None;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: expected key=value"))?;
            if k.trim() != "corrupt" {
                return Err(format!("`{}`: unknown fault key", k.trim()));
            }
            let (kind, at) = v
                .split_once('@')
                .ok_or_else(|| format!("`{part}`: expected corrupt=<kind>@<index>"))?;
            let kind = match kind.trim() {
                "sharer" => StateFault::SharerFlip,
                "llc" => StateFault::LlcEntryCorrupt,
                "home" => StateFault::HomeSegmentFlip,
                other => return Err(format!("`{other}`: unknown fault kind (sharer|llc|home)")),
            };
            let at = at
                .trim()
                .parse()
                .map_err(|_| format!("`{k}={at}`: not a number"))?;
            fc = Some(FaultConfig { kind, at });
        }
        fc.ok_or_else(|| "no `corrupt=<kind>@<index>` key".to_string())
    }

    /// [`Self::parse`] over an environment-variable value, with the shared
    /// warn-and-fall-back discipline of [`zerodev_common::env`]: unset or
    /// empty means no faults, malformed warns to stderr and disables.
    pub fn parse_env(name: &str, raw: Option<&str>) -> Option<FaultConfig> {
        let raw = raw?;
        if raw.trim().is_empty() {
            return None;
        }
        match FaultConfig::parse(raw) {
            Ok(fc) => Some(fc),
            Err(e) => {
                eprintln!("warning: ignoring {name}={raw:?} ({e}); fault injection disabled");
                None
            }
        }
    }

    /// Reads `ZERODEV_FAULTS` via [`Self::parse_env`].
    pub fn from_env() -> Option<FaultConfig> {
        let raw = std::env::var("ZERODEV_FAULTS").ok();
        FaultConfig::parse_env("ZERODEV_FAULTS", raw.as_deref())
    }
}

/// What a faulted run injected, kept apart from the protocol's
/// [`zerodev_common::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// State corruptions injected.
    pub corruptions: u64,
    /// Human-readable description of every injected state corruption.
    pub injected: Vec<String>,
}

/// The per-run fault schedule: owns the fault PRNG, arms the configured
/// corruption at its access index, and accumulates [`FaultStats`].
/// Fully determined by its [`FaultConfig`] — two runs with equal configs
/// inject identical fault sequences.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Prng,
    accesses: u64,
    armed: Option<StateFault>,
    /// Everything injected so far.
    pub stats: FaultStats,
}

impl FaultPlan {
    /// A plan executing `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            rng: Prng::seeded(PLAN_SEED),
            accesses: 0,
            armed: None,
            stats: FaultStats::default(),
        }
    }

    /// The fault PRNG (victim selection for state corruption).
    pub fn rng_mut(&mut self) -> &mut Prng {
        &mut self.rng
    }

    /// Counts the next measured access and returns the corruption armed
    /// and waiting for a victim, if any.
    pub fn draw(&mut self) -> Option<StateFault> {
        let i = self.accesses;
        self.accesses += 1;
        if i == self.cfg.at {
            self.armed = Some(self.cfg.kind);
        }
        self.armed
    }

    /// Records a successful state corruption and disarms the trigger.
    pub fn corruption_injected(&mut self, desc: String) {
        self.armed = None;
        self.stats.corruptions += 1;
        self.stats.injected.push(desc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let llc = FaultConfig {
            kind: StateFault::LlcEntryCorrupt,
            at: 1000,
        };
        assert_eq!(FaultConfig::parse(" corrupt = llc @ 1000 ,"), Ok(llc));
        // A repeated key: the last one counts.
        assert_eq!(
            FaultConfig::parse("corrupt=sharer@5,corrupt=llc@1000"),
            Ok(llc)
        );
    }

    #[test]
    fn corrupt_spec_parses_all_kinds() {
        for (txt, kind) in [
            ("sharer", StateFault::SharerFlip),
            ("llc", StateFault::LlcEntryCorrupt),
            ("home", StateFault::HomeSegmentFlip),
        ] {
            let fc = FaultConfig::parse(&format!("corrupt={txt}@2000")).unwrap();
            assert_eq!(fc, FaultConfig { kind, at: 2000 });
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            // A spec must arm a corruption.
            "",
            " , ",
            "seed",
            "seed=many",
            // The removed plan seed: an old spec fails whole.
            "seed=7",
            "seed=7,corrupt=llc@1000",
            "corrupt=sharer",
            "corrupt=what@10",
            "unknown=1",
            // Keys of the removed NACK storms and message faults: an old
            // spec must fail whole, not yield a partial plan.
            "nack=1",
            "nack_len=1",
            "retries=1",
            "delay=1",
            "dup=1",
            "delay_cycles=1",
            "backoff_base=1",
            "backoff_cap=1",
        ] {
            assert!(FaultConfig::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn env_parsing_warns_and_disables_on_garbage() {
        assert_eq!(FaultConfig::parse_env("ZERODEV_FAULTS", None), None);
        assert_eq!(FaultConfig::parse_env("ZERODEV_FAULTS", Some("  ")), None);
        assert_eq!(
            FaultConfig::parse_env("ZERODEV_FAULTS", Some("garbage")),
            None
        );
        assert_eq!(
            FaultConfig::parse_env("ZERODEV_FAULTS", Some("corrupt=home@10")),
            Some(FaultConfig {
                kind: StateFault::HomeSegmentFlip,
                at: 10
            })
        );
        assert_eq!(
            FaultConfig::parse_env("ZERODEV_FAULTS", Some("seed=10")),
            None
        );
        // One removed key disarms the whole plan, corruption included.
        assert_eq!(
            FaultConfig::parse_env("ZERODEV_FAULTS", Some("corrupt=llc@10,nack=10")),
            None
        );
    }

    #[test]
    fn corruption_arms_at_index_and_stays_armed_until_injected() {
        let cfg = FaultConfig {
            kind: StateFault::SharerFlip,
            at: 3,
        };
        let mut p = FaultPlan::new(cfg);
        for i in 0..3 {
            assert_eq!(p.draw(), None, "access {i}");
        }
        assert_eq!(p.draw(), Some(StateFault::SharerFlip));
        // Still armed: no victim existed yet.
        assert_eq!(p.draw(), Some(StateFault::SharerFlip));
        p.corruption_injected("done".into());
        assert_eq!(p.draw(), None);
        assert_eq!(p.stats.corruptions, 1);
    }
}
