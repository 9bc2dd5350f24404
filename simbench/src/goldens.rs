//! Pinned outputs at the default seed. A simulator-only change must
//! reproduce them bit for bit; a change to the modelled protocol must
//! re-pin them and say why.

/// The seed the goldens were taken at: the figure harnesses' `SEED`.
pub const SEED: u64 = zerodev_bench::SEED;

/// Point fingerprints (see `run::fingerprint`) at [`SEED`], in the order
/// `suite::suite` lists each workload's points.
pub fn sim(workload: &str) -> &'static [u64] {
    match workload {
        "mt8" => &[
            0x270b0898943c1ed9,
            0x09ba3658e371a733,
            0x26ca01ec14843b6a,
            0xe001cc301b0bfa0a,
            0x438ced816c038574,
            0xa901d08c3b866acc,
            0x7a292bcd4a80ba5e,
            0x1dc0765161094011,
            0x355278b792247494,
            0xea62790275b9f5fe,
            0x0dddfbc5bc040992,
            0x75c8f6dbb679ca9a,
        ],
        "torture8" => &[
            0x1e0750e19dfdca54,
            0x00fbdac2fe6ed24c,
            0x47698eaaea6d5717,
            0x7608fc5384256ea4,
            0xca2737e172e9d3e8,
            0x7a555d76d2cfcc4d,
            0x35c42aa5ecbc1028,
            0xb264cd6aeabcdd13,
        ],
        "socket4" => &[
            0x6a8b8ee16d8b11eb,
            0x0dc8bae1af4bc137,
            0x419ee438b078e737,
            0x54e0dd71750ef633,
        ],
        "server128" => &[
            0xad6a16c44b3049e9,
            0x3082403e9e7b356e,
            0xfb63df94704a5d22,
            0xe61f16b5c4236460,
        ],
        _ => &[],
    }
}

/// `(states, transitions)` of each `mc` exploration, in the order
/// `suite::suite` lists them. Exploration is exhaustive and unseeded, so
/// these hold at every seed.
pub const MC: [(usize, usize); 19] = [
    (3_711, 34_974),
    (2_337, 22_636),
    (3_975, 37_768),
    (2_337, 22_636),
    (293, 2_820),
    (2_473, 23_630),
    (1_563, 23_402),
    (1_509, 22_828),
    (2_479, 37_444),
    (1_509, 22_828),
    (441, 6_654),
    (3_521, 52_474),
    (423, 6_340),
    (363, 5_450),
    (557, 8_352),
    (363, 5_450),
    (731, 10_940),
    (595, 8_904),
    (1_145, 25_068),
];
