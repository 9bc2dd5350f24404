//! Deterministic fault injection: configuration, per-run plan, and stats.
//!
//! ZeroDEV's safety argument rests on invariants the coherence oracle
//! checks on *clean* runs; this module supplies the adversarial side. A
//! [`FaultPlan`], seeded from [`FaultConfig::seed`] and driven by
//! [`zerodev_common::Prng`], arms one **state corruption**
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

/// A complete, hashable description of the faults to inject in one run;
/// `Eq + Hash`, so it can key the sweep memo cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FaultConfig {
    /// Seed of the fault plan's own PRNG (independent of workload seeds).
    pub seed: u64,
    /// State corruption: the fault class and the measured-access index to
    /// arm it at (injection retries every access until a victim exists).
    pub corrupt: Option<(StateFault, u64)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xfa017,
            corrupt: None,
        }
    }
}

impl FaultConfig {
    /// Parses a `ZERODEV_FAULTS` spec: comma-separated `key=value` pairs.
    ///
    /// Keys: `seed` and `corrupt=<sharer|llc|home>@<access-index>`.
    /// Example: `corrupt=llc@1000,seed=7`.
    ///
    /// # Errors
    /// Returns a message describing the first malformed pair.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        fn num<T: std::str::FromStr>(k: &str, v: &str) -> Result<T, String> {
            v.trim()
                .parse()
                .map_err(|_| format!("`{k}={v}`: not a number"))
        }
        let mut fc = FaultConfig::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: expected key=value"))?;
            match k.trim() {
                "seed" => fc.seed = num(k, v)?,
                "corrupt" => {
                    let (kind, at) = v
                        .split_once('@')
                        .ok_or_else(|| format!("`{part}`: expected corrupt=<kind>@<index>"))?;
                    let kind = match kind.trim() {
                        "sharer" => StateFault::SharerFlip,
                        "llc" => StateFault::LlcEntryCorrupt,
                        "home" => StateFault::HomeSegmentFlip,
                        other => {
                            return Err(format!("`{other}`: unknown fault kind (sharer|llc|home)"))
                        }
                    };
                    fc.corrupt = Some((kind, num(k, at)?));
                }
                other => return Err(format!("`{other}`: unknown fault key")),
            }
        }
        Ok(fc)
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
            rng: Prng::seeded(cfg.seed ^ 0x5eed_fa017),
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
        if let Some((kind, at)) = self.cfg.corrupt {
            if i == at {
                self.armed = Some(kind);
            }
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
        let fc = FaultConfig::parse("seed=7, corrupt=llc@1000").unwrap();
        assert_eq!(fc.seed, 7);
        assert_eq!(fc.corrupt, Some((StateFault::LlcEntryCorrupt, 1000)));
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
    }

    #[test]
    fn corrupt_spec_parses_all_kinds() {
        for (txt, kind) in [
            ("sharer", StateFault::SharerFlip),
            ("llc", StateFault::LlcEntryCorrupt),
            ("home", StateFault::HomeSegmentFlip),
        ] {
            let fc = FaultConfig::parse(&format!("corrupt={txt}@2000")).unwrap();
            assert_eq!(fc.corrupt, Some((kind, 2000)));
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "seed",
            "seed=many",
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
        assert!(FaultConfig::parse_env("ZERODEV_FAULTS", Some("seed=10")).is_some());
        // One removed key disarms the whole plan, corruption included.
        assert_eq!(
            FaultConfig::parse_env("ZERODEV_FAULTS", Some("corrupt=llc@10,nack=10")),
            None
        );
    }

    #[test]
    fn corruption_arms_at_index_and_stays_armed_until_injected() {
        let cfg = FaultConfig {
            corrupt: Some((StateFault::SharerFlip, 3)),
            ..Default::default()
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
