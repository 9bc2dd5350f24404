//! Simulated-machine description.
//!
//! [`SystemConfig`] captures Table I of the paper plus every design knob the
//! evaluation sweeps: sparse-directory kind and size, ZeroDEV policy, LLC
//! design (non-inclusive / EPD / inclusive), LLC capacity/associativity, core
//! count and socket count. The Table I values that no figure varies (the
//! cache and inter-socket latencies, the DRAM timings and geometry) are
//! associated constants of [`SystemConfig`] and [`DramConfig`].

use crate::ids::{BankId, BlockAddr, SocketId, BLOCK_BYTES};
use std::fmt;

/// Error returned by [`SystemConfig::validate`] for inconsistent machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// An exact rational directory-size ratio `R` (entries per aggregate private
/// last-level-cache block), e.g. `1×`, `1/8×`, `1/32×`.
///
/// ```
/// use zerodev_common::config::Ratio;
/// assert_eq!(Ratio::ONE.apply(32768), 32768);
/// assert_eq!(Ratio::new(1, 8).apply(32768), 4096);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ratio {
    num: u32,
    den: u32,
}

impl Ratio {
    /// The well-provisioned `1×` baseline ratio.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a ratio `num/den`.
    ///
    /// # Panics
    /// Panics if `den == 0` or `num == 0`.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0, "ratio must be positive");
        Ratio { num, den }
    }

    /// Applies the ratio to a count, rounding down but never below 1.
    pub fn apply(self, count: usize) -> usize {
        (count * self.num as usize / self.den as usize).max(1)
    }

    /// Ratio value as a float (for printing).
    pub fn as_f64(self) -> f64 {
        f64::from(self.num) / f64::from(self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}x", self.num)
        } else {
            write!(f, "{}/{}x", self.num, self.den)
        }
    }
}

/// Geometry of one set-associative cache structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        CacheGeometry { size_bytes, ways }
    }

    /// Number of lines ([`BLOCK_BYTES`]-byte blocks).
    pub fn lines(&self) -> usize {
        self.size_bytes / BLOCK_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.ways
    }
}

/// The sparse-directory design plugged into the uncore.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DirectoryKind {
    /// A traditional set-associative sparse directory sized `ratio ×` the
    /// aggregate private-L2 block count, with 1-bit NRU replacement (the
    /// paper's baseline). With `replacement_disabled`, a conflict overflows
    /// to the LLC instead of evicting (ZeroDEV §III-C4) — only meaningful
    /// when ZeroDEV is enabled.
    Sparse {
        /// Entries relative to aggregate private-L2 blocks.
        ratio: Ratio,
        /// Set associativity (8 in all paper configurations).
        ways: usize,
        /// ZeroDEV option: never evict; overflow to the LLC.
        replacement_disabled: bool,
    },
    /// An unlimited-capacity directory (the paper's idealised comparison
    /// point in Figures 2–4).
    Unbounded,
    /// No dedicated directory structure at all; every entry lives in the LLC
    /// (ZeroDEV "No Dir" configurations). Invalid without ZeroDEV.
    None,
    /// SecDir (Yan et al., ISCA 2019): per-core private partitions plus a
    /// shared partition, iso-storage with a `ratio ×` baseline directory.
    SecDir(SecDirGeometry),
    /// Multi-grain Directory (Zebchuk et al., MICRO 2013): one entry can
    /// track a private 1 KB region; shared blocks get block-grain entries.
    MultiGrain {
        /// Entries relative to aggregate private-L2 blocks.
        ratio: Ratio,
        /// Set associativity.
        ways: usize,
    },
}

/// Per-slice SecDir partition geometry.
///
/// The paper's 8-core 1× configuration partitions each 512-set × 8-way
/// baseline slice into eight private zones of 32 sets × 7 ways plus a shared
/// zone of 512 sets × 5 ways.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SecDirGeometry {
    /// Sets in the shared partition of one slice.
    pub shared_sets: usize,
    /// Ways in the shared partition.
    pub shared_ways: usize,
    /// Sets in each per-core private partition of one slice.
    pub private_sets: usize,
    /// Ways in each per-core private partition.
    pub private_ways: usize,
}

impl SecDirGeometry {
    /// The paper's 8-core, 1×-iso-storage geometry.
    pub fn eight_core_1x() -> Self {
        SecDirGeometry {
            shared_sets: 512,
            shared_ways: 5,
            private_sets: 32,
            private_ways: 7,
        }
    }

    /// The paper's 8-core, 1/8×-iso-storage geometry (sets divided by 8,
    /// associativity unchanged).
    pub fn eight_core_eighth() -> Self {
        SecDirGeometry {
            shared_sets: 64,
            shared_ways: 5,
            private_sets: 4,
            private_ways: 7,
        }
    }

    /// The paper's 128-core, 1× geometry: 128 private zones of 4 sets ×
    /// 8 ways and a shared zone of 256 sets × 4 ways per slice.
    pub fn server_1x() -> Self {
        SecDirGeometry {
            shared_sets: 256,
            shared_ways: 4,
            private_sets: 4,
            private_ways: 8,
        }
    }

    /// The paper's 128-core, 1/8× geometry: four-way fully-associative
    /// private partitions and a 32-set × 4-way shared partition.
    pub fn server_eighth() -> Self {
        SecDirGeometry {
            shared_sets: 32,
            shared_ways: 4,
            private_sets: 1,
            private_ways: 4,
        }
    }
}

/// The LLC design being simulated (§III-A, §III-E, §III-F).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LlcDesign {
    /// Non-inclusive, non-exclusive with always-fill on demand (baseline):
    /// demand fills from memory allocate in the LLC *and* the requester's
    /// private caches; LLC evictions do not invalidate core caches.
    NonInclusive,
    /// Exclusive-private-data (AMD Magny-Cours style): M/E blocks live only
    /// in private caches; the LLC holds shared and evicted-owner blocks.
    Epd,
    /// Inclusive: every privately cached block is also in the LLC; LLC
    /// eviction back-invalidates core caches.
    Inclusive,
}

impl fmt::Display for LlcDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlcDesign::NonInclusive => write!(f, "non-inclusive"),
            LlcDesign::Epd => write!(f, "EPD"),
            LlcDesign::Inclusive => write!(f, "inclusive"),
        }
    }
}

/// ZeroDEV directory-entry caching policy in the LLC (§III-C).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpillPolicy {
    /// Every overflowing entry takes a full LLC line (§III-C1).
    SpillAll,
    /// Fuse into the tracked block's line when its state is M/E, spill when
    /// S (§III-C2). The policy the paper selects.
    FusePrivateSpillShared,
    /// Fuse whenever the tracked block is LLC-resident, regardless of state;
    /// spill otherwise (§III-C3, ICCI-derived).
    FuseAll,
}

impl fmt::Display for SpillPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillPolicy::SpillAll => write!(f, "SpillAll"),
            SpillPolicy::FusePrivateSpillShared => write!(f, "FPSS"),
            SpillPolicy::FuseAll => write!(f, "FuseAll"),
        }
    }
}

/// LLC replacement-policy extension protecting cached directory entries
/// (§III-D1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LlcReplacement {
    /// Plain LRU (baseline; treats directory-entry lines like data lines).
    Lru,
    /// spill-protect LRU: a spilled entry is bumped to MRU right after its
    /// block, so the block is always evicted first.
    SpLru,
    /// dataLRU: victimise every ordinary data/code line in the set before
    /// any spilled or fused entry. The policy the paper selects.
    DataLru,
}

impl fmt::Display for LlcReplacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlcReplacement::Lru => write!(f, "LRU"),
            LlcReplacement::SpLru => write!(f, "spLRU"),
            LlcReplacement::DataLru => write!(f, "dataLRU"),
        }
    }
}

/// ZeroDEV-specific configuration; `None` in [`SystemConfig::zerodev`] means
/// the baseline protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ZeroDevConfig {
    /// How overflowing directory entries are accommodated in the LLC.
    pub policy: SpillPolicy,
    /// LLC replacement extension.
    pub llc_replacement: LlcReplacement,
}

impl Default for ZeroDevConfig {
    /// The configuration the paper converges on: FPSS + dataLRU.
    fn default() -> Self {
        ZeroDevConfig {
            policy: SpillPolicy::FusePrivateSpillShared,
            llc_replacement: LlcReplacement::DataLru,
        }
    }
}

/// On-chip interconnect parameters (Table I: 2D mesh, 1-cycle routing,
/// 1-cycle link).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NocConfig {
    /// Cycles per hop (router + link).
    pub hop_cycles: u64,
    /// Flit payload size in bytes (serialisation latency = extra flits).
    pub flit_bytes: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            hop_cycles: 2,
            flit_bytes: 16,
        }
    }
}

/// Main-memory parameters (Table I: DDR3-2133). Only the channel count is
/// configured; the timings and the rank/bank/row geometry are the Table I
/// constants ([`DramConfig::T_CAS`] and the rest).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DramConfig {
    /// Independent single-channel controllers (2 on the 8-core machines,
    /// 8 on the 128-core server).
    pub channels: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig { channels: 2 }
    }
}

// ---- Table I: the fixed timings and DRAM geometry -----------------------
//
// The paper fixes one value for each of these and no figure varies any of
// them, so they are constants rather than configuration fields.

impl SystemConfig {
    /// L1 hit latency in core cycles.
    pub const L1_HIT_CYCLES: u64 = 3;
    /// Additional L2 hit latency (on top of the L1 lookup) in core cycles.
    pub const L2_HIT_CYCLES: u64 = 10;
    /// LLC tag-array lookup latency (CACTI: 3 cycles).
    pub const LLC_TAG_CYCLES: u64 = 3;
    /// LLC data-array access latency (CACTI: 4 cycles).
    pub const LLC_DATA_CYCLES: u64 = 4;
    /// One-way inter-socket routing delay in core cycles (20 ns at 4 GHz).
    pub const INTER_SOCKET_CYCLES: u64 = 80;
}

/// DDR3-2133 (modelled after DRAMSim2). The timings are in DRAM
/// command-clock cycles (1066 MHz).
impl DramConfig {
    /// Ranks per channel.
    pub const RANKS: usize = 2;
    /// Banks per rank.
    pub const BANKS: usize = 8;
    /// Row-buffer size in bytes.
    pub const ROW_BYTES: usize = 1024;
    /// CAS latency (tCL).
    pub const T_CAS: u64 = 14;
    /// RAS-to-CAS delay (tRCD).
    pub const T_RCD: u64 = 14;
    /// Row-precharge time (tRP).
    pub const T_RP: u64 = 14;
    /// Row-active time (tRAS).
    pub const T_RAS: u64 = 35;
    /// Burst length in transfers (BL=8 → 4 command-clock cycles of data bus).
    pub const BURST_LEN: u64 = 8;

    /// Converts DRAM command-clock cycles to 4 GHz core cycles.
    ///
    /// DDR3-2133 runs a 1066 MHz command clock; at a 4 GHz core clock one
    /// DRAM cycle is 15/4 core cycles.
    pub const fn to_core_cycles(dram_cycles: u64) -> u64 {
        dram_cycles * 15 / 4
    }
}

/// The complete description of one simulated machine.
#[derive(Clone, PartialEq, Debug)]
pub struct SystemConfig {
    /// Cores per socket.
    pub cores: usize,
    /// Socket count (1 for the single-socket studies, 4 for §V multi-socket).
    pub sockets: usize,
    /// Per-core L1 instruction cache.
    pub l1i: CacheGeometry,
    /// Per-core L1 data cache.
    pub l1d: CacheGeometry,
    /// Per-core unified L2 (the last-level private cache the directory
    /// ratio is defined against).
    pub l2: CacheGeometry,
    /// Shared LLC geometry (whole-socket capacity).
    pub llc: CacheGeometry,
    /// Number of LLC banks (each with an adjacent sparse-directory slice).
    pub llc_banks: usize,
    /// LLC inclusion design.
    pub llc_design: LlcDesign,
    /// Sparse-directory design.
    pub directory: DirectoryKind,
    /// ZeroDEV mechanisms; `None` = baseline protocol.
    pub zerodev: Option<ZeroDevConfig>,
    /// Interconnect parameters.
    pub noc: NocConfig,
    /// Main-memory parameters.
    pub dram: DramConfig,
    /// Sets in each home socket's socket-directory cache (8 ways each;
    /// multi-socket only). The default models a 256K-entry cache; tiny
    /// model-checking configurations shrink it so machine snapshots stay
    /// cheap to clone.
    pub socket_dir_cache_sets: usize,
}

impl SystemConfig {
    /// Table I: the 8-core single-socket baseline — 32 KB 8-way L1s, 256 KB
    /// 8-way L2, 8 MB 16-way 8-bank LLC, 1× 8-way sparse directory with
    /// 1-bit NRU, two DDR3-2133 channels.
    pub fn baseline_8core() -> Self {
        SystemConfig {
            cores: 8,
            sockets: 1,
            l1i: CacheGeometry::new(32 << 10, 8),
            l1d: CacheGeometry::new(32 << 10, 8),
            l2: CacheGeometry::new(256 << 10, 8),
            llc: CacheGeometry::new(8 << 20, 16),
            llc_banks: 8,
            llc_design: LlcDesign::NonInclusive,
            directory: DirectoryKind::Sparse {
                ratio: Ratio::ONE,
                ways: 8,
                replacement_disabled: false,
            },
            zerodev: None,
            noc: NocConfig::default(),
            dram: DramConfig::default(),
            socket_dir_cache_sets: 8192,
        }
    }

    /// The 128-core single-socket server machine: 32 MB 16-way LLC, 128 KB
    /// 8-way L2s, eight DDR3-2133 channels.
    pub fn server_128core() -> Self {
        let mut cfg = Self::baseline_8core();
        cfg.cores = 128;
        cfg.l2 = CacheGeometry::new(128 << 10, 8);
        cfg.llc = CacheGeometry::new(32 << 20, 16);
        cfg.llc_banks = 32;
        cfg.dram.channels = 8;
        cfg
    }

    /// The four-socket machine of §V: four 8-core sockets, each with an
    /// 8 MB non-inclusive LLC; socket directory backed in home memory.
    pub fn four_socket() -> Self {
        let mut cfg = Self::baseline_8core();
        cfg.sockets = 4;
        cfg
    }

    /// Switches this configuration to ZeroDEV with the given options and
    /// directory kind, returning `self` for chaining.
    pub fn with_zerodev(mut self, zd: ZeroDevConfig, directory: DirectoryKind) -> Self {
        // ZeroDEV always runs its sparse directory replacement-disabled
        // (§III-C4: strictly better and simpler).
        self.directory = match directory {
            DirectoryKind::Sparse { ratio, ways, .. } => DirectoryKind::Sparse {
                ratio,
                ways,
                replacement_disabled: true,
            },
            other => other,
        };
        self.zerodev = Some(zd);
        self
    }

    /// Switches to a baseline (non-ZeroDEV) sparse directory of the given
    /// size ratio, returning `self` for chaining.
    pub fn with_sparse_dir(mut self, ratio: Ratio) -> Self {
        self.directory = DirectoryKind::Sparse {
            ratio,
            ways: 8,
            replacement_disabled: false,
        };
        self
    }

    /// Total blocks in all private last-level (L2) caches — the denominator
    /// of the directory ratio `R`.
    pub fn aggregate_l2_blocks(&self) -> usize {
        self.l2.lines() * self.cores
    }

    /// Total entries in a `ratio ×` sparse directory for this machine.
    pub fn dir_entries(&self, ratio: Ratio) -> usize {
        ratio.apply(self.aggregate_l2_blocks())
    }

    /// LLC lines per bank.
    pub fn llc_lines_per_bank(&self) -> usize {
        self.llc.lines() / self.llc_banks
    }

    /// LLC sets per bank.
    pub fn llc_sets_per_bank(&self) -> usize {
        self.llc_lines_per_bank() / self.llc.ways
    }

    /// The home LLC bank of a block within its socket (low-order block-address
    /// interleaving, standard for banked LLCs).
    pub fn home_bank(&self, block: BlockAddr) -> BankId {
        BankId((block.0 % self.llc_banks as u64) as u16)
    }

    /// The home socket of a block (interleaved above the bank bits so that
    /// consecutive blocks spread across banks before sockets).
    pub fn home_socket(&self, block: BlockAddr) -> SocketId {
        SocketId(((block.0 >> 6) % self.sockets as u64) as u8)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    /// Returns [`ConfigError`] when any structure has a non-positive or
    /// non-power-of-two set count, the directory kind is inconsistent with
    /// the ZeroDEV setting, or bank/core counts do not divide capacities.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn check_geom(name: &str, g: &CacheGeometry) -> Result<(), ConfigError> {
            if g.ways == 0 || g.size_bytes == 0 {
                return Err(ConfigError(format!("{name}: zero-sized")));
            }
            if !g.lines().is_multiple_of(g.ways) {
                return Err(ConfigError(format!("{name}: lines not divisible by ways")));
            }
            if !g.sets().is_power_of_two() {
                return Err(ConfigError(format!(
                    "{name}: set count {} is not a power of two",
                    g.sets()
                )));
            }
            Ok(())
        }
        check_geom("l1i", &self.l1i)?;
        check_geom("l1d", &self.l1d)?;
        check_geom("l2", &self.l2)?;
        check_geom("llc", &self.llc)?;
        if self.llc_banks == 0 {
            return Err(ConfigError("LLC needs at least one bank".into()));
        }
        if !self.llc.lines().is_multiple_of(self.llc_banks) {
            return Err(ConfigError("LLC lines not divisible by banks".into()));
        }
        if !self.llc_lines_per_bank().is_multiple_of(self.llc.ways) {
            return Err(ConfigError("LLC bank lines not divisible by ways".into()));
        }
        if !self.llc_sets_per_bank().is_power_of_two() {
            return Err(ConfigError("LLC sets per bank not a power of two".into()));
        }
        if self.cores == 0 || self.sockets == 0 {
            return Err(ConfigError("need at least one core and socket".into()));
        }
        // Identifier-width bounds come before the (tighter) sharer-set caps
        // below: a `SocketId` is 8-bit and a `CoreId` 16-bit, so anything
        // wider would silently wrap when the engine derives per-core ids,
        // aliasing threads onto the wrong core. The caps keep these
        // unreachable today, but the representation bound must hold on its
        // own if they are ever raised.
        if self.sockets > (u8::MAX as usize) + 1 {
            return Err(ConfigError(format!(
                "{} sockets exceed the 8-bit SocketId space (max 256)",
                self.sockets
            )));
        }
        if self.cores > (u16::MAX as usize) + 1 {
            return Err(ConfigError(format!(
                "{} cores per socket exceed the 16-bit CoreId space (max 65536)",
                self.cores
            )));
        }
        if self.dram.channels == 0 {
            // Without this, the zero surfaces later as a mesh-placement
            // assert deep inside SocketTopology::new.
            return Err(ConfigError("DRAM needs at least one channel".into()));
        }
        if self.cores > 128 {
            return Err(ConfigError("SharerSet supports at most 128 cores".into()));
        }
        if self.sockets > 32 {
            return Err(ConfigError("SocketSet supports at most 32 sockets".into()));
        }
        if !self.socket_dir_cache_sets.is_power_of_two() {
            return Err(ConfigError(
                "socket-dir cache sets must be a power of two".into(),
            ));
        }
        match &self.directory {
            DirectoryKind::None if self.zerodev.is_none() => {
                return Err(ConfigError(
                    "a directory-less machine requires ZeroDEV".into(),
                ));
            }
            DirectoryKind::Sparse {
                replacement_disabled: true,
                ..
            } if self.zerodev.is_none() => {
                return Err(ConfigError(
                    "replacement-disabled sparse directory requires ZeroDEV".into(),
                ));
            }
            DirectoryKind::Sparse { ways, .. } | DirectoryKind::MultiGrain { ways, .. }
                if *ways == 0 =>
            {
                return Err(ConfigError("directory needs at least one way".into()));
            }
            _ => {}
        }
        if self.zerodev.is_some() {
            // A full-map segment takes N + 1 bits (§III-D), so a 512-bit
            // home block houses ⌊512 / (N+1)⌋ sockets' segments.
            let capacity = 512 / (self.cores + 1);
            if self.sockets > capacity {
                return Err(ConfigError(format!(
                    "{} sockets exceed the {} full-map segments a 512-bit home block \
                     can house at {} cores/socket",
                    self.sockets, capacity, self.cores
                )));
            }
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint covering every configuration field,
    /// used by the parallel experiment engine as part of its baseline
    /// memoization key: two configs share a fingerprint exactly when they
    /// would produce identical simulations.
    ///
    /// Computed as FNV-1a ([`crate::snap::fnv1a`]) over the canonical
    /// `Debug` rendering, which includes every field (and every field of
    /// nested enums/structs), so new knobs are picked up automatically. No
    /// field is floating-point, so the rendering is exact. Checkpoint images
    /// carry this value so a restore can verify it rebuilt the same machine.
    pub fn fingerprint(&self) -> u64 {
        crate::snap::fnv1a(format!("{self:?}").as_bytes())
    }

    /// Renders the configuration as a human-readable multi-line summary
    /// (the `fig_table1` harness prints this as the Table I reproduction).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            s,
            "cores/socket: {}   sockets: {}   block: {BLOCK_BYTES} B",
            self.cores, self.sockets
        );
        let _ = writeln!(
            s,
            "L1I/L1D: {} KB {}-way   L2: {} KB {}-way (hit {} + {} cyc)",
            self.l1i.size_bytes >> 10,
            self.l1i.ways,
            self.l2.size_bytes >> 10,
            self.l2.ways,
            Self::L1_HIT_CYCLES,
            Self::L2_HIT_CYCLES
        );
        let _ = writeln!(
            s,
            "LLC: {} MB {}-way, {} banks, tag {} cyc, data {} cyc, {} design",
            self.llc.size_bytes >> 20,
            self.llc.ways,
            self.llc_banks,
            Self::LLC_TAG_CYCLES,
            Self::LLC_DATA_CYCLES,
            self.llc_design
        );
        let _ = writeln!(s, "directory: {:?}", self.directory);
        match self.zerodev {
            Some(zd) => {
                let _ = writeln!(s, "ZeroDEV: {} + {}", zd.policy, zd.llc_replacement);
            }
            None => {
                let _ = writeln!(s, "ZeroDEV: off (baseline protocol)");
            }
        }
        let _ = writeln!(
            s,
            "NoC: 2D mesh, {} cyc/hop, {} B flits; inter-socket {} cyc",
            self.noc.hop_cycles,
            self.noc.flit_bytes,
            Self::INTER_SOCKET_CYCLES
        );
        let _ = writeln!(
            s,
            "DRAM: {} ch x {} ranks x {} banks, {} B rows, {}-{}-{}-{} (DDR3-2133)",
            self.dram.channels,
            DramConfig::RANKS,
            DramConfig::BANKS,
            DramConfig::ROW_BYTES,
            DramConfig::T_CAS,
            DramConfig::T_RCD,
            DramConfig::T_RP,
            DramConfig::T_RAS
        );
        s
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::baseline_8core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let cfg = SystemConfig::baseline_8core();
        cfg.validate().expect("baseline valid");
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.llc.size_bytes, 8 << 20);
        assert_eq!(cfg.llc.ways, 16);
        assert_eq!(cfg.llc_banks, 8);
        // 1x directory = aggregate L2 blocks: 8 * 256KB / 64B = 32768.
        assert_eq!(cfg.aggregate_l2_blocks(), 32768);
        assert_eq!(cfg.dir_entries(Ratio::ONE), 32768);
        // 32768 entries, 8 slices, 8 ways -> 512 sets per slice (paper: SecDir
        // partitions "each baseline directory slice having 512 sets and 8 ways").
        assert_eq!(cfg.dir_entries(Ratio::ONE) / cfg.llc_banks / 8, 512);
        // 1x entries are 25% of LLC blocks (4:1 LLC:L2 capacity ratio).
        assert_eq!(cfg.dir_entries(Ratio::ONE) * 4, cfg.llc.lines());
    }

    #[test]
    fn server_config() {
        let cfg = SystemConfig::server_128core();
        cfg.validate().expect("server valid");
        assert_eq!(cfg.cores, 128);
        assert_eq!(cfg.llc.size_bytes, 32 << 20);
        assert_eq!(cfg.dram.channels, 8);
    }

    #[test]
    fn four_socket_config() {
        let cfg = SystemConfig::four_socket();
        cfg.validate().expect("valid");
        assert_eq!(cfg.sockets, 4);
        // home_socket covers all sockets over a block range
        let mut seen = [false; 4];
        for b in 0..4096u64 {
            seen[cfg.home_socket(BlockAddr(b)).0 as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn ratios() {
        assert_eq!(Ratio::new(1, 8).apply(32768), 4096);
        assert_eq!(Ratio::new(1, 32).apply(32768), 1024);
        assert_eq!(Ratio::new(1, 2).to_string(), "1/2x");
        assert_eq!(Ratio::ONE.to_string(), "1x");
        assert!((Ratio::new(1, 4).as_f64() - 0.25).abs() < 1e-12);
        // never rounds to zero
        assert_eq!(Ratio::new(1, 1000).apply(10), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_panics() {
        let _ = Ratio::new(0, 1);
    }

    #[test]
    fn validation_rejects_zero_dram_channels() {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.dram.channels = 0;
        let err = cfg.validate().expect_err("channel-less DRAM must fail");
        assert!(err.0.contains("channel"), "{err}");
    }

    #[test]
    fn validation_rejects_nodir_without_zerodev() {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.directory = DirectoryKind::None;
        assert!(cfg.validate().is_err());
        let cfg = cfg.with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_repl_disabled_without_zerodev() {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.directory = DirectoryKind::Sparse {
            ratio: Ratio::ONE,
            ways: 8,
            replacement_disabled: true,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn with_zerodev_forces_replacement_disabled() {
        let cfg = SystemConfig::baseline_8core().with_zerodev(
            ZeroDevConfig::default(),
            DirectoryKind::Sparse {
                ratio: Ratio::new(1, 8),
                ways: 8,
                replacement_disabled: false,
            },
        );
        match cfg.directory {
            DirectoryKind::Sparse {
                replacement_disabled,
                ..
            } => assert!(replacement_disabled),
            _ => panic!("expected sparse"),
        }
    }

    #[test]
    fn validation_rejects_unhousable_socket_counts() {
        // Full-map segments for 128-core sockets take 129 bits: only 3 fit
        // in a 512-bit home block, so a 4-socket machine must be rejected
        // up front instead of panicking mid-simulation.
        let mut cfg = SystemConfig::server_128core()
            .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        cfg.sockets = 4;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("segments"), "{err}");
        cfg.sockets = 3;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_id_width_overflow() {
        // Regression: these used to reach the engine, where a bare
        // `as u8`/`as u16` cast silently wrapped the per-core ids.
        let mut cfg = SystemConfig::baseline_8core();
        cfg.sockets = 300;
        let err = cfg.validate().expect_err("300 sockets must fail");
        assert!(err.0.contains("SocketId"), "{err}");
        let mut cfg = SystemConfig::baseline_8core();
        cfg.cores = 70_000;
        let err = cfg.validate().expect_err("70000 cores must fail");
        assert!(err.0.contains("CoreId"), "{err}");
        // The tighter sharer-set caps still own the in-width range.
        let mut cfg = SystemConfig::baseline_8core();
        cfg.sockets = 40;
        assert!(cfg.validate().unwrap_err().0.contains("SocketSet"));
        let mut cfg = SystemConfig::baseline_8core();
        cfg.cores = 200;
        assert!(cfg.validate().unwrap_err().0.contains("SharerSet"));
    }

    #[test]
    fn validation_rejects_degenerate_llc_and_blocks() {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.llc = CacheGeometry::new(0, 16);
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::baseline_8core();
        cfg.llc = CacheGeometry::new(8 << 20, 0);
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::baseline_8core();
        cfg.llc_banks = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn home_mapping_covers_banks() {
        let cfg = SystemConfig::baseline_8core();
        let mut seen = vec![false; cfg.llc_banks];
        for b in 0..64u64 {
            seen[cfg.home_bank(BlockAddr(b)).0 as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn dram_clock_conversion() {
        assert_eq!(DramConfig::to_core_cycles(4), 15);
        assert_eq!(DramConfig::to_core_cycles(14), 52);
    }

    #[test]
    fn describe_mentions_key_facts() {
        let cfg = SystemConfig::baseline_8core();
        let d = cfg.describe();
        assert!(d.contains("8 MB"));
        assert!(d.contains("DDR3-2133"));
        assert!(d.contains("baseline protocol"));
        let zd = SystemConfig::baseline_8core()
            .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        assert!(zd.describe().contains("FPSS"));
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(8 << 20, 16);
        assert_eq!(g.lines(), 131072);
        assert_eq!(g.sets(), 8192);
    }

    #[test]
    fn secdir_geometries() {
        let g = SecDirGeometry::eight_core_1x();
        // iso-storage sanity: shared 512*5 + 8 private zones * 32*7 entries
        assert_eq!(g.shared_sets * g.shared_ways, 2560);
        assert_eq!(g.private_sets * g.private_ways * 8, 1792);
        let s = SecDirGeometry::server_eighth();
        assert_eq!(s.private_sets, 1); // fully associative
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = SystemConfig::baseline_8core();
        let b = SystemConfig::baseline_8core();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Every kind of edit must change the fingerprint.
        let mut c = SystemConfig::baseline_8core();
        c.cores = 4;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = SystemConfig::baseline_8core().with_sparse_dir(Ratio::new(1, 8));
        assert_ne!(a.fingerprint(), d.fingerprint());
        let e = SystemConfig::baseline_8core()
            .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        assert_ne!(a.fingerprint(), e.fingerprint());
        let mut f = SystemConfig::baseline_8core();
        f.llc_design = LlcDesign::Inclusive;
        assert_ne!(a.fingerprint(), f.fingerprint());
        let mut g = SystemConfig::baseline_8core();
        g.dram.channels = 8;
        assert_ne!(a.fingerprint(), g.fingerprint());
    }

    #[test]
    fn config_error_display() {
        let e = ConfigError("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
