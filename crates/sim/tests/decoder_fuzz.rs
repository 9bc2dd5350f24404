//! Seeded mutational fuzz of the simulator's outside-input decoders:
//! `ZERODEV_FAULTS` specs ([`FaultConfig::parse`]) and trace text
//! ([`Trace`]'s `FromStr`). Every input must decode or fail with a
//! structured error, never panic, and a trace that decodes must replay
//! a few hundred references per core.
//! The inputs come from fixed seeds on [`Prng`], so a failure names its
//! reproducer (seed and iteration), and machines of two cores per socket
//! keep each replay cheap.

use std::panic::{catch_unwind, AssertUnwindSafe};

use zerodev_common::config::CacheGeometry;
use zerodev_common::{Prng, SystemConfig};
use zerodev_sim::{FaultConfig, Simulation, StateFault};
use zerodev_workloads::{multithreaded, Trace, WorkloadKind};

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

/// Block addresses at the edges of the parsed range, a hex token one
/// digit too wide, and tokens that are not hex at all.
const BLOCKS: [&str; 9] = [
    "0",
    "7fffffffffffffff",
    "8000000000000000",
    "ffffffffffffffff",
    "1ffffffffffffffff",
    "-1",
    "0x10",
    "g",
    "",
];
const FLAGS: [&str; 8] = ["r", "w", "c", "x", "R", "rw", "", "@"];
const GAPS: [&str; 8] = ["0", "1", "4294967295", "4294967296", "-1", "+3", "1e3", ""];
const TRACE_JUNK: [&str; 10] = [
    "@thread",
    "@thread 1",
    "#",
    "zz",
    "\u{0}",
    "é",
    "\t",
    "r",
    "7",
    "@",
];

/// Replaces the `i`th whitespace token of `line` (appending when there
/// are fewer) with `to`.
fn set_token(line: &str, i: usize, to: &str) -> String {
    let mut toks: Vec<&str> = line.split_whitespace().collect();
    if i < toks.len() {
        toks[i] = to;
    } else {
        toks.push(to);
    }
    toks.join(" ")
}

/// Damages a trace's lines with 1-3 edits: a dropped, duplicated or
/// swapped line; a flag, block-digit or gap edit; or a junk token.
fn mutate_trace(rng: &mut Prng, lines: &mut Vec<String>) {
    for _ in 0..=rng.below(3) {
        if lines.is_empty() {
            return;
        }
        let n = lines.len() as u64;
        let at = rng.below(n) as usize;
        match rng.below(7) {
            0 => {
                lines.remove(at);
            }
            1 => {
                let copy = lines[at].clone();
                lines.insert(rng.below(n + 1) as usize, copy);
            }
            2 => lines.swap(at, rng.below(n) as usize),
            3 => lines[at] = set_token(&lines[at], 1, pick(rng, &FLAGS)),
            4 => {
                // One hex digit rewritten, or the whole block token swapped
                // for an edge value.
                let block = lines[at].split_whitespace().next().unwrap_or("").to_owned();
                let new = if block.is_empty() || rng.chance(0.5) {
                    pick(rng, &BLOCKS).to_owned()
                } else {
                    let mut digits: Vec<char> = block.chars().collect();
                    let d = rng.below(digits.len() as u64) as usize;
                    digits[d] = "0123456789abcdefgF"
                        .chars()
                        .nth(rng.below(18) as usize)
                        .expect("18 digits");
                    digits.into_iter().collect()
                };
                lines[at] = set_token(&lines[at], 0, &new);
            }
            5 => {
                let gap = if rng.chance(0.5) {
                    pick(rng, &GAPS).to_owned()
                } else {
                    rng.below(1 << 33).to_string()
                };
                lines[at] = set_token(&lines[at], 2, &gap);
            }
            _ => {
                let line = &mut lines[at];
                let mut cut = rng.below(line.len() as u64 + 1) as usize;
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                line.insert_str(cut, &format!(" {} ", pick(rng, &TRACE_JUNK)));
            }
        }
    }
}

#[test]
fn damaged_traces_never_panic_the_parser_or_the_replay() {
    // `torture.phase_mix` recorded on the two machines a trace may fit.
    let sources: Vec<Vec<String>> = [2, 4]
        .into_iter()
        .map(|threads| {
            let mut wl = multithreaded("torture.phase_mix", threads, 0x7ace).expect("known app");
            let text = Trace::record(&mut wl, 48).to_text();
            text.lines().map(str::to_owned).collect()
        })
        .collect();
    let (mut rejected, mut replayed) = (0, [0; 2]);
    let mut rng = Prng::seeded(0x7ace_f022);
    for i in 0..1_500 {
        let mut lines = sources[i % 2].clone();
        mutate_trace(&mut rng, &mut lines);
        let mut text = lines.join("\n");
        if rng.chance(0.5) {
            text.push('\n');
        }
        let parsed = catch_unwind(|| text.parse::<Trace>())
            .unwrap_or_else(|_| panic!("iteration {i}: the trace parser panicked on {text:?}"));
        let trace = match parsed {
            Err(e) => {
                rejected += 1;
                let last = text.lines().count().max(1);
                assert!(
                    (1..=last).contains(&e.line),
                    "iteration {i}: error at line {} of a {last}-line text: {e}",
                    e.line
                );
                continue;
            }
            Ok(trace) => trace,
        };
        let sockets = match trace.thread_count() {
            2 => 1,
            4 => 2,
            _ => continue,
        };
        // A step budget, not a run to the reference target: one gap of
        // `u32::MAX` would keep the other cores retiring references for
        // billions of simulated cycles while its core catches up.
        let (cfg, steps) = (small(sockets), 300 * 2 * sockets as u64);
        catch_unwind(AssertUnwindSafe(|| {
            let wl = trace.into_workload("fuzz.trace", WorkloadKind::MultiThreaded);
            let mut sim = Simulation::new(&cfg, wl);
            sim.enable_audit();
            let mut run = sim.start(300, 50);
            let Ok(_) = run.advance(steps);
            run.finish()
        }))
        .unwrap_or_else(|e| {
            panic!(
                "iteration {i}: an accepted trace panicked its replay: {}\n{text}",
                zerodev_common::panic_message(&*e)
            )
        });
        replayed[sockets - 1] += 1;
    }
    // The mutator must reach both sides of the parser and both machines.
    assert!(
        (100..1_400).contains(&rejected),
        "{rejected} of 1500 traces rejected"
    );
    assert!(
        replayed.iter().all(|&n| n >= 100),
        "replays per machine: {replayed:?}"
    );
}
