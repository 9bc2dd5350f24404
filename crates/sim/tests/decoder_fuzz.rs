//! Seeded mutational fuzz of the simulator's two outside-input decoders:
//! `ZERODEV_FAULTS` specs ([`FaultConfig::parse`]) and checkpoint images
//! ([`PausedRun::restore`]). Every input must decode or fail with a
//! structured error, never panic. The inputs come from fixed seeds on
//! [`Prng`], so a failure names its reproducer (seed and iteration), and
//! a machine of two cores per socket keeps each restore cheap.
//!
//! A checkpoint mutant is resealed with a valid checksum, so the field
//! decoders, not the container check, are what meet the damage.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use zerodev_common::config::{CacheGeometry, DirectoryKind, LlcDesign, ZeroDevConfig};
use zerodev_common::snap::{fnv1a, SnapError};
use zerodev_common::{Prng, SystemConfig};
use zerodev_sim::{FaultConfig, PausedRun, Simulation, StateFault};
use zerodev_workloads::multithreaded;

/// Spec fragments: every key the parser knows or once knew, values of
/// every shape it reads, separators, and junk.
const KEYS: [&str; 9] = [
    "seed", "corrupt", " seed ", "nack", "dup", "retries", "delay", "", "SEED",
];
const VALUES: [&str; 18] = [
    "0",
    "7",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    " 12 ",
    "1e3",
    "",
    "llc@1000",
    "sharer@0",
    "home@18446744073709551615",
    "what@1",
    "llc@",
    "@5",
    "llc@@1",
    "sharer@-2",
    " home @ 3 ",
    "llc@1000,seed=1",
];
const SEPARATORS: [&str; 6] = [",", ", ", ",,", "=", "@", " "];
const JUNK: [&str; 8] = ["=", "@", "==", "\u{0}", "é", "🦀", "\t", "corrupt=llc"];

fn pick<'a>(rng: &mut Prng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One spliced spec: 1-4 fragments, each a `key=value` pair (two in
/// three), a junk token or a run of random characters, joined by random
/// separators.
fn spec(rng: &mut Prng) -> String {
    let mut s = String::new();
    for i in 0..=rng.below(4) {
        if i > 0 {
            s.push_str(pick(rng, &SEPARATORS));
        }
        match rng.below(6) {
            0..=3 => {
                s.push_str(pick(rng, &KEYS));
                s.push('=');
                s.push_str(pick(rng, &VALUES));
            }
            4 => s.push_str(pick(rng, &JUNK)),
            _ => {
                for _ in 0..=rng.below(4) {
                    s.push(char::from_u32(rng.below(0x250) as u32).unwrap_or('?'));
                }
            }
        }
    }
    s
}

/// The canonical spec of a parsed config, for the round-trip check.
fn render(fc: &FaultConfig) -> String {
    let mut s = format!("seed={}", fc.seed);
    if let Some((kind, at)) = fc.corrupt {
        let kind = match kind {
            StateFault::SharerFlip => "sharer",
            StateFault::LlcEntryCorrupt => "llc",
            StateFault::HomeSegmentFlip => "home",
        };
        s.push_str(&format!(",corrupt={kind}@{at}"));
    }
    s
}

#[test]
fn fault_specs_never_panic_the_parser() {
    let mut rng = Prng::seeded(0xfa_0175);
    let mut accepted = 0;
    for i in 0..20_000 {
        let s = spec(&mut rng);
        let parsed = catch_unwind(|| FaultConfig::parse(&s))
            .unwrap_or_else(|_| panic!("iteration {i}: FaultConfig::parse panicked on {s:?}"));
        if let Ok(fc) = parsed {
            accepted += 1;
            assert_eq!(
                FaultConfig::parse(&render(&fc)),
                Ok(fc),
                "iteration {i}: {s:?} does not round-trip"
            );
        }
    }
    // The splicer must reach both sides of the parser.
    assert!(
        (100..19_000).contains(&accepted),
        "{accepted} of 20000 specs parsed"
    );
}

/// A Table I machine shrunk to `sockets` × 2 cores with tiny caches.
fn small(sockets: usize) -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 2;
    cfg.sockets = sockets;
    cfg.l1i = CacheGeometry::new(1 << 10, 2);
    cfg.l1d = CacheGeometry::new(1 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    cfg.llc = CacheGeometry::new(32 << 10, 4);
    cfg.llc_banks = 2;
    cfg.socket_dir_cache_sets = 8;
    cfg
}

/// Checkpoint images of three small machines paused mid-run: a baseline
/// sparse directory under audit, a ZeroDEV machine with no directory and
/// an armed fault plan, and a two-socket ZeroDEV EPD machine under audit.
fn images() -> Vec<(SystemConfig, Vec<u8>)> {
    let zerodev =
        |sockets| small(sockets).with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    let mut epd = zerodev(2);
    epd.llc_design = LlcDesign::Epd;
    let points = [
        (small(1), "canneal", true, None),
        (
            zerodev(1),
            "torture.entry_thrash",
            false,
            Some((StateFault::LlcEntryCorrupt, 1 << 40)),
        ),
        (epd, "torture.reader_swarm", true, None),
    ];
    points
        .into_iter()
        .map(|(cfg, app, audit, corrupt)| {
            let wl = multithreaded(app, cfg.cores * cfg.sockets, 0xf022).expect("known app");
            let mut sim = Simulation::new(&cfg, wl);
            if audit {
                sim.enable_audit();
            }
            if let Some(c) = corrupt {
                sim.set_faults(FaultConfig {
                    corrupt: Some(c),
                    ..Default::default()
                });
            }
            let mut run = sim.start(2_000, 500);
            let Ok(_) = run.advance(700);
            (cfg, run.checkpoint())
        })
        .collect()
}

/// Damages `body` (an image without its checksum trailer) with 1-3 bit
/// flips, byte overwrites, truncations or duplicated ranges. The 12-byte
/// header is left alone: a wrong magic or version is one check, and the
/// point is to reach the field decoders behind it.
fn mutate(rng: &mut Prng, body: &mut Vec<u8>) {
    const HEADER: usize = 12;
    for _ in 0..=rng.below(3) {
        let len = body.len();
        if len <= HEADER + 1 {
            return;
        }
        let at = HEADER + rng.below((len - HEADER) as u64) as usize;
        match rng.below(4) {
            0 => body[at] ^= 1 << rng.below(8),
            1 => {
                let end = (at + 1 + rng.below(8) as usize).min(len);
                let fill = rng.below(3);
                for b in &mut body[at..end] {
                    *b = match fill {
                        0 => 0,
                        1 => 0xff,
                        _ => rng.below(256) as u8,
                    };
                }
            }
            2 => body.truncate(at),
            _ => {
                let end = (at + 1 + rng.below(64) as usize).min(len);
                let copy = body[at..end].to_vec();
                let to = HEADER + rng.below((len - HEADER) as u64) as usize;
                body.splice(to..to, copy);
            }
        }
    }
}

#[test]
fn damaged_checkpoints_never_panic_restore() {
    let mut contexts = BTreeSet::new();
    let mut restored = 0;
    for (n, (cfg, image)) in images().into_iter().enumerate() {
        PausedRun::restore(&cfg, &image).expect("the undamaged image restores");
        let mut rng = Prng::seeded(0xc4ec_0000 + n as u64);
        for i in 0..3_000 {
            let mut body = image[..image.len() - 8].to_vec();
            mutate(&mut rng, &mut body);
            let sum = fnv1a(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                PausedRun::restore(&cfg, &body).map(|_| ())
            }))
            .unwrap_or_else(|e| {
                panic!(
                    "image {n}, iteration {i}: restore panicked: {}",
                    zerodev_common::panic_message(&*e)
                )
            });
            match outcome {
                Ok(()) => restored += 1,
                Err(SnapError::Corrupt { context } | SnapError::Truncated { context }) => {
                    contexts.insert(context);
                }
                Err(e) => panic!("image {n}, iteration {i}: header damaged: {e}"),
            }
        }
    }
    // Damage lands all over the image, not just in one decoder.
    assert!(
        contexts.len() >= 20,
        "{} contexts: {contexts:?}",
        contexts.len()
    );
    assert!(
        restored > 0,
        "some damage is benign (e.g. a flipped counter bit)"
    );
}
