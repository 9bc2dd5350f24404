//! Tiny machine configurations whose reachable state graphs are small
//! enough to enumerate exhaustively, yet rich enough to reach every ZeroDEV
//! mechanism: entry spill and fusion (`DirectoryKind::None` routes *every*
//! entry into the LLC), WB_DE eviction to home memory (degenerate 1-way
//! sets refuse spills; multi-block sets displace spilled entries), GET_DE
//! recall, and corrupted-home-memory reads.

use std::fmt;
use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, SpillPolicy, SystemConfig, ZeroDevConfig,
};
use zerodev_common::BlockAddr;

/// One machine + block-set the checker explores.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Short label for reports and fixtures.
    pub name: String,
    /// The concrete machine configuration.
    pub cfg: SystemConfig,
    /// The abstract address universe.
    pub blocks: Vec<BlockAddr>,
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Builds the abstracted ZeroDEV machine: `cores` per socket on `sockets`
/// sockets, a single-bank LLC of one set with `llc_ways` ways, no dedicated
/// directory (every entry is LLC-resident), and `addrs` block addresses per
/// socket's home memory.
///
/// With `llc_ways == 1` the block's own data line and its spilled entry
/// compete for the same way, so spills are refused and go straight home via
/// WB_DE; with two addresses, spills displace each other's entries — both
/// corrupted-memory paths stay reachable.
///
/// # Panics
/// Panics when the parameters are outside [`try_tiny`]'s limits (the
/// checker only builds configurations from its own matrix).
pub fn tiny(
    policy: SpillPolicy,
    design: LlcDesign,
    cores: usize,
    sockets: usize,
    addrs: usize,
    llc_ways: usize,
) -> ModelConfig {
    try_tiny(policy, design, cores, sockets, addrs, llc_ways)
        .unwrap_or_else(|e| panic!("abstract machines stay tiny: {e}"))
}

/// [`tiny`], or an error naming the first parameter outside the abstract
/// machine's limits: 1-4 cores per socket, 1-2 sockets, 1-2 addresses per
/// home and a 1-4-way LLC. Every machine inside them validates.
pub fn try_tiny(
    policy: SpillPolicy,
    design: LlcDesign,
    cores: usize,
    sockets: usize,
    addrs: usize,
    llc_ways: usize,
) -> Result<ModelConfig, String> {
    for (key, value, max) in [
        ("cores", cores, 4),
        ("sockets", sockets, 2),
        ("addrs", addrs, 2),
        ("ways", llc_ways, 4),
    ] {
        if !(1..=max).contains(&value) {
            return Err(format!("{key}={value} is outside 1..={max}"));
        }
    }
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = cores;
    cfg.sockets = sockets;
    // Private geometries are irrelevant (the harness's shadow cores are
    // unbounded) but must validate.
    cfg.l1i = CacheGeometry::new(1 << 10, 2);
    cfg.l1d = CacheGeometry::new(1 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    // One bank, one set: every tracked block contends for the same ways.
    cfg.llc = CacheGeometry::new(64 * llc_ways, llc_ways);
    cfg.llc_banks = 1;
    cfg.llc_design = design;
    cfg.directory = DirectoryKind::None;
    cfg.zerodev = Some(ZeroDevConfig {
        policy,
        llc_replacement: zerodev_common::config::LlcReplacement::Lru,
    });
    // Keep machine snapshots cheap to clone during exploration.
    cfg.socket_dir_cache_sets = 8;
    // Home socket is (block >> 6) % sockets: consecutive block addresses in
    // one 64-block region share a home, the next region homes at the next
    // socket.
    let blocks = (0..sockets)
        .flat_map(|s| (0..addrs).map(move |a| BlockAddr((s as u64) * 64 + a as u64)))
        .collect();
    let name =
        format!("{policy}/{design:?} {cores}c x {sockets}s, {addrs} addr/home, {llc_ways}-way LLC");
    Ok(ModelConfig { name, cfg, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_core::step::ProtocolHarness;

    #[test]
    fn every_machine_within_the_limits_validates() {
        let shapes = (1..=4).flat_map(|c| {
            (1..=2).flat_map(move |s| (1..=2).flat_map(move |a| (1..=4).map(move |w| (c, s, a, w))))
        });
        let policies = [
            SpillPolicy::SpillAll,
            SpillPolicy::FusePrivateSpillShared,
            SpillPolicy::FuseAll,
        ];
        let designs = [
            LlcDesign::NonInclusive,
            LlcDesign::Epd,
            LlcDesign::Inclusive,
        ];
        for (cores, sockets, addrs, ways) in shapes {
            for (policy, design) in policies.iter().flat_map(|&p| designs.map(|d| (p, d))) {
                let m = try_tiny(policy, design, cores, sockets, addrs, ways)
                    .expect("within the limits");
                assert!(
                    ProtocolHarness::new(m.cfg, m.blocks, false).is_ok(),
                    "{}",
                    m.name
                );
            }
        }
    }
}
