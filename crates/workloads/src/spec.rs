//! Per-application workload parameter vectors.
//!
//! Sizes are in 64-byte blocks. The reference machine has 4096-block
//! (256 KB) private L2 caches and a 131072-block (8 MB) LLC, which is the
//! scale these footprints were tuned against:
//!
//! * DEV-sensitive applications (`xalancbmk`) reuse a private footprint a
//!   bit above L2 capacity, so a well-provisioned directory matters.
//! * LLC-capacity-sensitive applications (`vips`, `lu_ncb`, `330.art`,
//!   `gcc.ppO2`) have aggregate footprints near the LLC size (Figure 6).
//! * `freqmine` writes a large private footprint that other threads later
//!   read, reproducing the paper's observation that baseline DEVs pre-clean
//!   dirty blocks into the LLC (§I-A1).
//! * Suite-level shared fractions follow §III-C2: PARSEC ≈10 %,
//!   SPLASH2X ≈19 %, SPEC OMP ≈0.5 %, FFTW ≈0, CPU2017 ≈9 % (code).

/// Benchmark suite of a workload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// PARSEC 3.0 multi-threaded applications.
    Parsec,
    /// SPLASH2X multi-threaded applications.
    Splash2x,
    /// SPEC OMPM 2001 applications.
    SpecOmp,
    /// FFTW (single application).
    Fftw,
    /// SPEC CPU 2017 rate applications (single-threaded).
    Cpu2017,
    /// Throughput-oriented server workloads (128 threads).
    Server,
    /// Adversarial torture patterns for soak testing ([`crate::torture`]).
    Torture,
}

/// The parameter vector describing one application's memory behaviour.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Application name as it appears in the paper's figures.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Adversarial pattern override: when set, reference generation ignores
    /// the synthetic-application fields and follows the torture pattern.
    pub torture: Option<crate::torture::TortureKind>,
    /// Per-thread private working set, in blocks.
    pub priv_blocks: u64,
    /// Zipf skew of private accesses (0 = streaming/uniform).
    pub priv_theta: f64,
    /// Shared read-only region (whole workload), in blocks.
    pub sro_blocks: u64,
    /// Shared read-write region (whole workload), in blocks.
    pub srw_blocks: u64,
    /// Code footprint, in blocks (shared by all threads of a program; in
    /// rate mode shared by all copies of the binary).
    pub code_blocks: u64,
    /// Probability an access is an instruction fetch.
    pub p_code: f64,
    /// Probability an access is to the shared read-only region.
    pub p_sro: f64,
    /// Probability an access is to the shared read-write region.
    pub p_srw: f64,
    /// Write fraction within private-region accesses.
    pub wr_priv: f64,
    /// Write fraction within shared-read-write accesses.
    pub wr_srw: f64,
    /// Mean non-memory instructions between memory references.
    pub mean_gap: u32,
    /// Probability a private access targets the hot subset (temporal
    /// locality knob; real applications keep ~90 % of references in a
    /// footprint that fits the L1).
    pub p_hot: f64,
    /// Hot-subset size in blocks.
    pub hot_blocks: u64,
    /// Fraction of cold private references that walk sequentially (a
    /// streaming app never revisits a block until the walk wraps, so a
    /// DEV'd streaming block costs no extra miss — matching the paper's
    /// small per-app deltas); the rest re-reference via the Zipf tail.
    pub p_seq: f64,
    /// Memory-level parallelism: the paper's 224-entry-ROB cores overlap
    /// misses, so only `latency / mlp` of each uncore access stalls the
    /// core. Pointer-chasing apps get ~1.5, streaming apps ~4.
    pub mlp: f64,
}

const fn base(name: &'static str, suite: Suite) -> WorkloadSpec {
    WorkloadSpec {
        name,
        suite,
        torture: None,
        priv_blocks: 4096,
        priv_theta: 0.3,
        sro_blocks: 0,
        srw_blocks: 0,
        code_blocks: 256,
        p_code: 0.02,
        p_sro: 0.0,
        p_srw: 0.0,
        wr_priv: 0.30,
        wr_srw: 0.30,
        mean_gap: 4,
        p_hot: 0.90,
        hot_blocks: 256,
        p_seq: 0.4,
        mlp: 2.0,
    }
}

macro_rules! spec {
    ($name:literal, $suite:expr, { $($field:ident : $value:expr),* $(,)? }) => {
        WorkloadSpec {
            $($field: $value,)*
            ..base($name, $suite)
        }
    };
}

/// Looks up an application's spec by its figure name. `torture.*` names
/// resolve to the adversarial soak patterns ([`crate::torture::TORTURE`]).
pub fn lookup(name: &str) -> Option<WorkloadSpec> {
    use Suite::*;
    if name.starts_with("torture.") {
        return crate::torture::lookup(name);
    }
    let s = match name {
        // ---- PARSEC -----------------------------------------------------
        "blackscholes" => {
            spec!("blackscholes", Parsec, { priv_blocks: 2048, priv_theta: 0.2, srw_blocks: 256, p_srw: 0.01, mean_gap: 5 })
        }
        "canneal" => {
            spec!("canneal", Parsec, { priv_blocks: 32768, priv_theta: 0.1, srw_blocks: 8192, p_srw: 0.06, wr_srw: 0.35, mean_gap: 3 })
        }
        "dedup" => {
            spec!("dedup", Parsec, { priv_blocks: 3456, priv_theta: 0.4, sro_blocks: 4096, p_sro: 0.10, srw_blocks: 2048, p_srw: 0.05 })
        }
        "facesim" => {
            spec!("facesim", Parsec, { priv_blocks: 12288, priv_theta: 0.3, srw_blocks: 2048, p_srw: 0.04 })
        }
        "ferret" => {
            spec!("ferret", Parsec, { priv_blocks: 3328, priv_theta: 0.5, sro_blocks: 8192, p_sro: 0.15 })
        }
        "fluidanimate" => {
            spec!("fluidanimate", Parsec, { priv_blocks: 3584, priv_theta: 0.3, srw_blocks: 3072, p_srw: 0.08, wr_srw: 0.40 })
        }
        "freqmine" => {
            spec!("freqmine", Parsec, { priv_blocks: 10240, priv_theta: 0.5, wr_priv: 0.40, srw_blocks: 6144, p_srw: 0.12, wr_srw: 0.45, mean_gap: 3 })
        }
        "streamcluster" => {
            spec!("streamcluster", Parsec, { priv_blocks: 3072, priv_theta: 0.2, sro_blocks: 6144, p_sro: 0.25, mean_gap: 3 })
        }
        "swaptions" => {
            spec!("swaptions", Parsec, { priv_blocks: 2048, priv_theta: 0.6, srw_blocks: 128, p_srw: 0.005, mean_gap: 5 })
        }
        "vips" => {
            spec!("vips", Parsec, { priv_blocks: 14336, priv_theta: 0.15, srw_blocks: 1024, p_srw: 0.02, mean_gap: 3 })
        }
        // ---- SPLASH2X ---------------------------------------------------
        "fft" => {
            spec!("fft", Splash2x, { priv_blocks: 8192, priv_theta: 0.1, srw_blocks: 8192, p_srw: 0.15, mean_gap: 3 })
        }
        "lu_cb" => {
            spec!("lu_cb", Splash2x, { priv_blocks: 3456, priv_theta: 0.4, sro_blocks: 4096, p_sro: 0.10 })
        }
        "lu_ncb" => {
            spec!("lu_ncb", Splash2x, { priv_blocks: 13312, priv_theta: 0.2, srw_blocks: 6144, p_srw: 0.18, wr_srw: 0.25, mean_gap: 3 })
        }
        "radix" => {
            spec!("radix", Splash2x, { priv_blocks: 10240, priv_theta: 0.1, srw_blocks: 4096, p_srw: 0.12, wr_srw: 0.50, mean_gap: 3 })
        }
        "ocean_cp" => {
            spec!("ocean_cp", Splash2x, { priv_blocks: 14336, priv_theta: 0.2, srw_blocks: 6144, p_srw: 0.15, mean_gap: 3 })
        }
        "radiosity" => {
            spec!("radiosity", Splash2x, { priv_blocks: 3072, priv_theta: 0.5, srw_blocks: 6144, p_srw: 0.20, wr_srw: 0.20 })
        }
        "raytrace" => {
            spec!("raytrace", Splash2x, { priv_blocks: 3200, priv_theta: 0.4, sro_blocks: 10240, p_sro: 0.30 })
        }
        "water_nsquared" => {
            spec!("water_nsquared", Splash2x, { priv_blocks: 3072, priv_theta: 0.5, srw_blocks: 4096, p_srw: 0.25, wr_srw: 0.20 })
        }
        "water_spatial" => {
            spec!("water_spatial", Splash2x, { priv_blocks: 3072, priv_theta: 0.5, srw_blocks: 3072, p_srw: 0.15, wr_srw: 0.20 })
        }
        // ---- SPEC OMP ---------------------------------------------------
        "312.swim" => {
            spec!("312.swim", SpecOmp, { priv_blocks: 12288, priv_theta: 0.1, srw_blocks: 512, p_srw: 0.01, mean_gap: 3 })
        }
        "314.mgrid" => {
            spec!("314.mgrid", SpecOmp, { priv_blocks: 10240, priv_theta: 0.2, srw_blocks: 512, p_srw: 0.01, mean_gap: 3 })
        }
        "316.applu" => {
            spec!("316.applu", SpecOmp, { priv_blocks: 9216, priv_theta: 0.2, srw_blocks: 512, p_srw: 0.01, mean_gap: 3 })
        }
        "320.equake" => {
            spec!("320.equake", SpecOmp, { priv_blocks: 8192, priv_theta: 0.3, srw_blocks: 1024, p_srw: 0.02, mean_gap: 3 })
        }
        "324.apsi" => {
            spec!("324.apsi", SpecOmp, { priv_blocks: 3584, priv_theta: 0.3, srw_blocks: 512, p_srw: 0.01 })
        }
        "330.art" => {
            spec!("330.art", SpecOmp, { priv_blocks: 13312, priv_theta: 0.25, srw_blocks: 256, p_srw: 0.005, mean_gap: 3 })
        }
        // ---- FFTW -------------------------------------------------------
        "FFTW" => {
            spec!("FFTW", Fftw, { priv_blocks: 12288, priv_theta: 0.1, wr_priv: 0.20, srw_blocks: 2048, p_srw: 0.03, wr_srw: 0.40, mean_gap: 3 })
        }
        // ---- SPEC CPU 2017 rate ------------------------------------------
        "blender" => {
            spec!("blender", Cpu2017, { priv_blocks: 3584, code_blocks: 2048, p_code: 0.08 })
        }
        "bwaves.1" => {
            spec!("bwaves.1", Cpu2017, { priv_blocks: 12288, priv_theta: 0.15, code_blocks: 512, p_code: 0.04, mean_gap: 3 })
        }
        "bwaves.2" => {
            spec!("bwaves.2", Cpu2017, { priv_blocks: 12800, priv_theta: 0.15, code_blocks: 512, p_code: 0.04, mean_gap: 3 })
        }
        "bwaves.3" => {
            spec!("bwaves.3", Cpu2017, { priv_blocks: 11776, priv_theta: 0.15, code_blocks: 512, p_code: 0.04, mean_gap: 3 })
        }
        "bwaves.4" => {
            spec!("bwaves.4", Cpu2017, { priv_blocks: 12288, priv_theta: 0.18, code_blocks: 512, p_code: 0.04, mean_gap: 3 })
        }
        "cactuBSSN" => {
            spec!("cactuBSSN", Cpu2017, { priv_blocks: 10240, priv_theta: 0.2, code_blocks: 1024, p_code: 0.05, mean_gap: 3 })
        }
        "cam4" => {
            spec!("cam4", Cpu2017, { priv_blocks: 3712, priv_theta: 0.35, code_blocks: 2048, p_code: 0.10 })
        }
        "deepsjeng" => {
            spec!("deepsjeng", Cpu2017, { priv_blocks: 3072, priv_theta: 0.5, code_blocks: 1024, p_code: 0.08, mean_gap: 5 })
        }
        "exchange2" => {
            spec!("exchange2", Cpu2017, { priv_blocks: 1024, priv_theta: 0.6, code_blocks: 512, p_code: 0.10, mean_gap: 6 })
        }
        "fotonik3d" => {
            spec!("fotonik3d", Cpu2017, { priv_blocks: 12288, priv_theta: 0.15, code_blocks: 512, p_code: 0.04, mean_gap: 3 })
        }
        "gcc.pp" => {
            spec!("gcc.pp", Cpu2017, { priv_blocks: 3328, priv_theta: 0.35, code_blocks: 3072, p_code: 0.12 })
        }
        "gcc.ppO2" => {
            spec!("gcc.ppO2", Cpu2017, { priv_blocks: 11264, priv_theta: 0.2, code_blocks: 3072, p_code: 0.12, mean_gap: 3 })
        }
        "gcc.ref32" => {
            spec!("gcc.ref32", Cpu2017, { priv_blocks: 3456, priv_theta: 0.35, code_blocks: 3072, p_code: 0.12 })
        }
        "gcc.ref32O5" => {
            spec!("gcc.ref32O5", Cpu2017, { priv_blocks: 3584, priv_theta: 0.3, code_blocks: 3072, p_code: 0.12 })
        }
        "gcc.smaller" => {
            spec!("gcc.smaller", Cpu2017, { priv_blocks: 3072, priv_theta: 0.4, code_blocks: 3072, p_code: 0.12 })
        }
        "imagick" => {
            spec!("imagick", Cpu2017, { priv_blocks: 2560, priv_theta: 0.5, code_blocks: 1024, p_code: 0.06 })
        }
        "lbm" => {
            spec!("lbm", Cpu2017, { priv_blocks: 14336, priv_theta: 0.1, code_blocks: 256, p_code: 0.02, mean_gap: 3 })
        }
        "leela" => {
            spec!("leela", Cpu2017, { priv_blocks: 2048, priv_theta: 0.5, code_blocks: 1024, p_code: 0.08, mean_gap: 5 })
        }
        "mcf" => {
            spec!("mcf", Cpu2017, { priv_blocks: 13312, priv_theta: 0.25, code_blocks: 512, p_code: 0.04, mean_gap: 3 })
        }
        "nab" => {
            spec!("nab", Cpu2017, { priv_blocks: 3072, priv_theta: 0.4, code_blocks: 512, p_code: 0.05 })
        }
        "namd" => {
            spec!("namd", Cpu2017, { priv_blocks: 3328, priv_theta: 0.4, code_blocks: 1024, p_code: 0.05 })
        }
        "omnetpp" => {
            spec!("omnetpp", Cpu2017, { priv_blocks: 3584, priv_theta: 0.3, code_blocks: 2048, p_code: 0.10 })
        }
        "parest" => {
            spec!("parest", Cpu2017, { priv_blocks: 3200, priv_theta: 0.3, code_blocks: 1024, p_code: 0.06 })
        }
        "perl.check" => {
            spec!("perl.check", Cpu2017, { priv_blocks: 3328, priv_theta: 0.45, code_blocks: 2048, p_code: 0.12 })
        }
        "perl.diff" => {
            spec!("perl.diff", Cpu2017, { priv_blocks: 3200, priv_theta: 0.45, code_blocks: 2048, p_code: 0.12 })
        }
        "perl.split" => {
            spec!("perl.split", Cpu2017, { priv_blocks: 3456, priv_theta: 0.45, code_blocks: 2048, p_code: 0.12 })
        }
        "povray" => {
            spec!("povray", Cpu2017, { priv_blocks: 2048, priv_theta: 0.6, code_blocks: 1024, p_code: 0.10, mean_gap: 5 })
        }
        "roms" => {
            spec!("roms", Cpu2017, { priv_blocks: 11264, priv_theta: 0.2, code_blocks: 512, p_code: 0.04, mean_gap: 3 })
        }
        "wrf" => {
            spec!("wrf", Cpu2017, { priv_blocks: 3648, priv_theta: 0.3, code_blocks: 2048, p_code: 0.08 })
        }
        "x264.pass1" => {
            spec!("x264.pass1", Cpu2017, { priv_blocks: 3456, priv_theta: 0.35, code_blocks: 1024, p_code: 0.06 })
        }
        "x264.pass2" => {
            spec!("x264.pass2", Cpu2017, { priv_blocks: 3520, priv_theta: 0.35, code_blocks: 1024, p_code: 0.06 })
        }
        "x264.seek500" => {
            spec!("x264.seek500", Cpu2017, { priv_blocks: 3392, priv_theta: 0.35, code_blocks: 1024, p_code: 0.06 })
        }
        "xalancbmk" => {
            spec!("xalancbmk", Cpu2017, { priv_blocks: 6500, priv_theta: 0.45, wr_priv: 0.25, code_blocks: 2048, p_code: 0.10, mean_gap: 3 })
        }
        "xz.cld" => {
            spec!("xz.cld", Cpu2017, { priv_blocks: 3520, priv_theta: 0.3, code_blocks: 512, p_code: 0.05 })
        }
        "xz.docs" => {
            spec!("xz.docs", Cpu2017, { priv_blocks: 3328, priv_theta: 0.3, code_blocks: 512, p_code: 0.05 })
        }
        "xz.combined" => {
            spec!("xz.combined", Cpu2017, { priv_blocks: 3712, priv_theta: 0.3, code_blocks: 512, p_code: 0.05 })
        }
        // ---- Server -----------------------------------------------------
        "SPECjbb" => {
            spec!("SPECjbb", Server, { priv_blocks: 2048, priv_theta: 0.4, sro_blocks: 40960, p_sro: 0.20, srw_blocks: 20480, p_srw: 0.10, code_blocks: 4096, p_code: 0.15 })
        }
        "SPECWeb-B" => {
            spec!("SPECWeb-B", Server, { priv_blocks: 1536, priv_theta: 0.4, sro_blocks: 51200, p_sro: 0.25, srw_blocks: 10240, p_srw: 0.08, wr_srw: 0.25, code_blocks: 6144, p_code: 0.18 })
        }
        "SPECWeb-E" => {
            spec!("SPECWeb-E", Server, { priv_blocks: 1536, priv_theta: 0.4, sro_blocks: 51200, p_sro: 0.25, srw_blocks: 12288, p_srw: 0.08, wr_srw: 0.25, code_blocks: 6144, p_code: 0.18 })
        }
        "SPECWeb-S" => {
            spec!("SPECWeb-S", Server, { priv_blocks: 1536, priv_theta: 0.4, sro_blocks: 51200, p_sro: 0.25, srw_blocks: 16384, p_srw: 0.10, wr_srw: 0.30, code_blocks: 6144, p_code: 0.18 })
        }
        "TPC-C" => {
            spec!("TPC-C", Server, { priv_blocks: 2048, priv_theta: 0.4, sro_blocks: 61440, p_sro: 0.30, srw_blocks: 25600, p_srw: 0.12, wr_srw: 0.35, code_blocks: 5120, p_code: 0.15 })
        }
        "TPC-E" => {
            spec!("TPC-E", Server, { priv_blocks: 2048, priv_theta: 0.4, sro_blocks: 61440, p_sro: 0.30, srw_blocks: 20480, p_srw: 0.10, wr_srw: 0.20, code_blocks: 5120, p_code: 0.15 })
        }
        "TPC-H" => {
            spec!("TPC-H", Server, { priv_blocks: 4096, priv_theta: 0.1, sro_blocks: 81920, p_sro: 0.40, srw_blocks: 5120, p_srw: 0.03, code_blocks: 3072, p_code: 0.10, mean_gap: 3 })
        }
        _ => return None,
    };
    // Temporal-locality classes (fraction of private references hitting the
    // L1-sized hot subset). Streaming/memory-bound applications spend more
    // time in their cold footprints; cache-friendly ones almost never leave
    // the hot set.
    let mut s = s;
    s.p_hot = match name {
        "canneal" => 0.70,
        "vips" | "fft" | "radix" | "ocean_cp" | "lu_ncb" | "312.swim" | "314.mgrid"
        | "316.applu" | "330.art" | "FFTW" | "bwaves.1" | "bwaves.2" | "bwaves.3" | "bwaves.4"
        | "fotonik3d" | "lbm" | "roms" | "mcf" | "cactuBSSN" => 0.80,
        "facesim" | "fluidanimate" | "freqmine" | "dedup" | "streamcluster" | "320.equake"
        | "324.apsi" | "blender" | "cam4" | "gcc.pp" | "gcc.ppO2" | "gcc.ref32" | "gcc.ref32O5"
        | "gcc.smaller" | "omnetpp" | "parest" | "wrf" | "xz.cld" | "xz.docs" | "xz.combined" => {
            0.88
        }
        "xalancbmk" => 0.85,
        "ferret" => 0.92,
        "SPECjbb" | "SPECWeb-B" | "SPECWeb-E" | "SPECWeb-S" | "TPC-C" | "TPC-E" | "TPC-H" => 0.85,
        _ => 0.96,
    };
    s.hot_blocks = s.hot_blocks.min(s.priv_blocks);
    // Cold-access pattern and memory-level parallelism classes.
    let streaming = matches!(
        name,
        "vips"
            | "facesim"
            | "fft"
            | "radix"
            | "ocean_cp"
            | "lu_ncb"
            | "312.swim"
            | "314.mgrid"
            | "316.applu"
            | "320.equake"
            | "330.art"
            | "FFTW"
            | "bwaves.1"
            | "bwaves.2"
            | "bwaves.3"
            | "bwaves.4"
            | "fotonik3d"
            | "lbm"
            | "roms"
            | "cactuBSSN"
            | "gcc.ppO2"
            | "TPC-H"
    );
    let pointer_chasing = matches!(name, "canneal" | "mcf" | "omnetpp" | "xalancbmk");
    if streaming {
        s.p_seq = 0.90;
        s.mlp = 4.0;
    } else if pointer_chasing {
        s.p_seq = if name == "mcf" { 0.30 } else { 0.15 };
        s.mlp = 1.6;
    } else if s.suite == Suite::Server {
        s.p_seq = 0.30;
        s.mlp = 2.5;
    }
    Some(s)
}

/// Canonical application lists, in the order the paper's figures use.
pub mod suites {
    /// The ten PARSEC applications of Figure 3.
    pub const PARSEC: [&str; 10] = [
        "blackscholes",
        "canneal",
        "dedup",
        "facesim",
        "ferret",
        "fluidanimate",
        "freqmine",
        "streamcluster",
        "swaptions",
        "vips",
    ];
    /// The nine SPLASH2X applications of Table II.
    pub const SPLASH2X: [&str; 9] = [
        "fft",
        "lu_cb",
        "lu_ncb",
        "radix",
        "ocean_cp",
        "radiosity",
        "raytrace",
        "water_nsquared",
        "water_spatial",
    ];
    /// The six SPEC OMPM 2001 applications of Table II.
    pub const SPECOMP: [&str; 6] = [
        "312.swim",
        "314.mgrid",
        "316.applu",
        "320.equake",
        "324.apsi",
        "330.art",
    ];
    /// FFTW (a single-application suite).
    pub const FFTW: [&str; 1] = ["FFTW"];
    /// The 36 SPEC CPU 2017 rate application-input pairs of Figure 21.
    pub const CPU2017: [&str; 36] = [
        "blender",
        "bwaves.1",
        "bwaves.2",
        "bwaves.3",
        "bwaves.4",
        "cactuBSSN",
        "cam4",
        "deepsjeng",
        "exchange2",
        "fotonik3d",
        "gcc.pp",
        "gcc.ppO2",
        "gcc.ref32",
        "gcc.ref32O5",
        "gcc.smaller",
        "imagick",
        "lbm",
        "leela",
        "mcf",
        "nab",
        "namd",
        "omnetpp",
        "parest",
        "perl.check",
        "perl.diff",
        "perl.split",
        "povray",
        "roms",
        "wrf",
        "x264.pass1",
        "x264.pass2",
        "x264.seek500",
        "xalancbmk",
        "xz.cld",
        "xz.docs",
        "xz.combined",
    ];
    /// The seven server workloads of Figure 24 (Table II).
    pub const SERVER: [&str; 7] = [
        "SPECjbb",
        "SPECWeb-B",
        "SPECWeb-E",
        "SPECWeb-S",
        "TPC-C",
        "TPC-E",
        "TPC-H",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_app_has_a_spec() {
        for name in suites::PARSEC
            .iter()
            .chain(suites::SPLASH2X.iter())
            .chain(suites::SPECOMP.iter())
            .chain(suites::FFTW.iter())
            .chain(suites::CPU2017.iter())
            .chain(suites::SERVER.iter())
        {
            let s = lookup(name).unwrap_or_else(|| panic!("missing spec for {name}"));
            assert_eq!(s.name, *name);
            assert!(s.priv_blocks > 0);
            let p = s.p_code + s.p_sro + s.p_srw;
            assert!((0.0..1.0).contains(&p), "{name}: probabilities {p}");
            assert!((0.0..=1.0).contains(&s.wr_priv));
            assert!((0.0..=1.0).contains(&s.wr_srw));
            assert!((0.0..1.0).contains(&s.priv_theta));
            assert!(s.mean_gap >= 1);
        }
    }

    #[test]
    fn unknown_app_is_none() {
        assert!(lookup("not-a-benchmark").is_none());
    }

    #[test]
    fn suite_counts_match_paper() {
        assert_eq!(suites::PARSEC.len(), 10);
        assert_eq!(suites::SPLASH2X.len(), 9);
        assert_eq!(suites::SPECOMP.len(), 6);
        assert_eq!(suites::CPU2017.len(), 36);
        assert_eq!(suites::SERVER.len(), 7);
    }

    #[test]
    fn suite_level_shared_fractions_are_ordered() {
        // SPLASH2X shares more than SPEC OMP (19 % vs 0.5 % in the paper).
        let avg = |names: &[&str]| {
            names
                .iter()
                .map(|n| {
                    let s = lookup(n).unwrap();
                    s.p_sro + s.p_srw
                })
                .sum::<f64>()
                / names.len() as f64
        };
        assert!(avg(&suites::SPLASH2X) > avg(&suites::SPECOMP));
        assert!(avg(&suites::PARSEC) > avg(&suites::SPECOMP));
    }

    #[test]
    fn capacity_sensitive_apps_have_big_footprints() {
        for name in ["vips", "lu_ncb", "330.art", "gcc.ppO2"] {
            let s = lookup(name).unwrap();
            assert!(
                s.priv_blocks >= 11_000,
                "{name} should stress the LLC, has {}",
                s.priv_blocks
            );
        }
    }
}
