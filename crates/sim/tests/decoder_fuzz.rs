//! Seeded mutational fuzz of the simulator's outside-input decoder for
//! `ZERODEV_FAULTS` specs ([`FaultConfig::parse`]). Every input must
//! decode or fail with a structured error, never panic, and a decoded
//! spec must round-trip. The inputs come from a fixed seed on [`Prng`],
//! so a failure names its reproducer (seed and iteration).

use std::panic::catch_unwind;

use zerodev_common::Prng;
use zerodev_sim::{FaultConfig, StateFault};

/// Spec fragments: the one key the parser knows, keys it once knew (which
/// must now fail), values of every shape it reads, separators, and junk.
const KEYS: [&str; 9] = [
    "seed",
    "corrupt",
    " corrupt ",
    "nack",
    "dup",
    "retries",
    "delay",
    "",
    "SEED",
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
    let kind = match fc.kind {
        StateFault::SharerFlip => "sharer",
        StateFault::LlcEntryCorrupt => "llc",
        StateFault::HomeSegmentFlip => "home",
    };
    format!("corrupt={kind}@{}", fc.at)
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
