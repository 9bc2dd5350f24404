//! Energy model for the sparse directory and the LLC (the paper's CACTI
//! substitute, §V "Energy Expense").
//!
//! The paper reports that ZeroDEV running without a sparse directory saves
//! about 9 % of the combined sparse-directory + LLC energy: the directory's
//! leakage and dynamic energy vanish, partially offset by extra LLC
//! data-array activity for the entries cached there. The constants below
//! follow CACTI-style scaling (per-access energy grows roughly with the
//! square root of capacity; leakage linearly with capacity) and are
//! calibrated so the reference machine reproduces that estimate.

use zerodev_common::config::{DirectoryKind, SystemConfig};
use zerodev_common::Stats;

/// Energy breakdown of one simulation run, in nanojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Sparse-directory dynamic energy.
    pub dir_dynamic_nj: f64,
    /// Sparse-directory leakage energy.
    pub dir_leakage_nj: f64,
    /// LLC dynamic energy (tag + data, including directory-entry accesses).
    pub llc_dynamic_nj: f64,
    /// LLC leakage energy.
    pub llc_leakage_nj: f64,
}

impl EnergyReport {
    /// Total directory + LLC energy.
    pub fn total_nj(&self) -> f64 {
        self.dir_dynamic_nj + self.dir_leakage_nj + self.llc_dynamic_nj + self.llc_leakage_nj
    }
}

/// Bits per sparse-directory entry: ~26-bit tag + sharer vector + state,
/// busy, NRU bits.
fn dir_entry_bits(cores: usize) -> f64 {
    26.0 + cores as f64 + 3.0
}

/// Directory capacity in bytes for the configured design (0 when absent).
pub fn dir_capacity_bytes(cfg: &SystemConfig) -> f64 {
    let entries = match &cfg.directory {
        DirectoryKind::Sparse { ratio, .. } => cfg.dir_entries(*ratio) as f64,
        DirectoryKind::MultiGrain { ratio, .. } => cfg.dir_entries(*ratio) as f64,
        DirectoryKind::SecDir(g) => {
            // One slice beside each LLC bank, as `DirStore::build` sizes it.
            (cfg.llc_banks
                * (g.shared_sets * g.shared_ways + cfg.cores * g.private_sets * g.private_ways))
                as f64
        }
        DirectoryKind::Unbounded => cfg.dir_entries(zerodev_common::config::Ratio::ONE) as f64,
        DirectoryKind::None => 0.0,
    };
    entries * dir_entry_bits(cfg.cores) / 8.0
}

/// Per-access energy in nJ for an SRAM of `bytes` capacity (CACTI-style
/// sqrt scaling anchored at 1 nJ for an 8 MB array).
fn access_nj(bytes: f64) -> f64 {
    if bytes <= 0.0 {
        0.0
    } else {
        (bytes / (8.0 * 1024.0 * 1024.0)).sqrt()
    }
}

/// Leakage power in nW for an SRAM of `bytes` capacity, anchored at 1 W
/// (1e9 nW) for an 8 MB high-performance array — the regime where the
/// paper's CACTI numbers live; leakage dominates sustained operation.
fn leakage_nw(bytes: f64) -> f64 {
    bytes / (8.0 * 1024.0 * 1024.0) * 1.0e9
}

/// Computes the energy report for a run of `cycles` core cycles at 4 GHz
/// with the given counters.
pub fn energy(cfg: &SystemConfig, stats: &Stats, cycles: u64) -> EnergyReport {
    let seconds = cycles as f64 / 4.0e9;
    let dir_bytes = dir_capacity_bytes(cfg) * cfg.sockets as f64;
    let llc_bytes = cfg.llc.size_bytes as f64 * cfg.sockets as f64;
    // The LLC tag array is ~6% of the data array's capacity.
    let tag_bytes = llc_bytes * 0.06;
    // Directory arrays are small, wide, and highly associative (CAM-like
    // match lines, per-slice peripheral overhead): CACTI charges them far
    // more per bit than a large SRAM. Weight per-access energy by 2x and
    // leakage density by 8x relative to a same-capacity SRAM.
    let dir_access = 2.0 * access_nj(dir_bytes / cfg.sockets as f64);
    let dir_leak_bytes = dir_bytes * 8.0;
    let dir_ops = (stats.dir_lookups + stats.dir_allocs + stats.dir_evictions) as f64;
    EnergyReport {
        dir_dynamic_nj: dir_ops * dir_access,
        dir_leakage_nj: leakage_nw(dir_leak_bytes) * seconds,
        llc_dynamic_nj: stats.llc_tag_lookups as f64 * access_nj(tag_bytes / cfg.sockets as f64)
            + stats.llc_data_accesses as f64 * access_nj(llc_bytes / cfg.sockets as f64),
        llc_leakage_nj: leakage_nw(llc_bytes) * seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::config::{DirectoryKind, Ratio, ZeroDevConfig};

    #[test]
    fn directory_capacity_scales_with_ratio() {
        let cfg = SystemConfig::baseline_8core();
        let full = dir_capacity_bytes(&cfg);
        let eighth = dir_capacity_bytes(&cfg.clone().with_sparse_dir(Ratio::new(1, 8)));
        assert!((full / eighth - 8.0).abs() < 0.01);
        // ~148 KB for the 1x directory of the 8-core machine (32768 entries
        // × 37 bits).
        assert!((120_000.0..200_000.0).contains(&full), "got {full}");
    }

    #[test]
    fn no_directory_has_zero_capacity() {
        let cfg = SystemConfig::baseline_8core()
            .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        assert_eq!(dir_capacity_bytes(&cfg), 0.0);
    }

    #[test]
    fn removing_directory_saves_energy() {
        let base_cfg = SystemConfig::baseline_8core();
        let zd_cfg = SystemConfig::baseline_8core()
            .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        // Same activity profile except ZeroDEV adds LLC data accesses for
        // directory entries.
        let mut base_stats = Stats::new();
        base_stats.dir_lookups = 1_000_000;
        base_stats.dir_allocs = 100_000;
        base_stats.llc_tag_lookups = 1_000_000;
        base_stats.llc_data_accesses = 600_000;
        let mut zd_stats = base_stats.clone();
        zd_stats.llc_data_accesses += 150_000; // entry reads/writes
        let cycles = 50_000_000;
        let e_base = energy(&base_cfg, &base_stats, cycles);
        let e_zd = energy(&zd_cfg, &zd_stats, cycles);
        assert_eq!(e_zd.dir_dynamic_nj + e_zd.dir_leakage_nj, 0.0);
        let saving = 1.0 - e_zd.total_nj() / e_base.total_nj();
        assert!(
            (0.02..0.30).contains(&saving),
            "saving {saving} outside the plausible band around the paper's 9%"
        );
    }

    #[test]
    fn energy_total_sums_parts() {
        let r = EnergyReport {
            dir_dynamic_nj: 1.0,
            dir_leakage_nj: 2.0,
            llc_dynamic_nj: 3.0,
            llc_leakage_nj: 4.0,
        };
        assert!((r.total_nj() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn secdir_capacity_counts_partitions() {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.directory =
            DirectoryKind::SecDir(zerodev_common::config::SecDirGeometry::eight_core_1x());
        let b = dir_capacity_bytes(&cfg);
        assert!(b > 0.0);
    }

    #[test]
    fn server_secdir_has_one_slice_per_llc_bank() {
        let mut cfg = SystemConfig::server_128core();
        let g = zerodev_common::config::SecDirGeometry::server_1x();
        cfg.directory = DirectoryKind::SecDir(g);
        assert_eq!(cfg.llc_banks, 32);
        // 32 slices × (256 × 4 shared + 128 cores × 4 × 8 private) entries
        // of 26 + 128 + 3 bits each.
        let entries = 32.0 * (256.0 * 4.0 + 128.0 * 4.0 * 8.0);
        assert_eq!(dir_capacity_bytes(&cfg), entries * 157.0 / 8.0);
    }
}
