//! Replays every committed counterexample-trace fixture under
//! `tests/model_traces/` against its declared expectation, and fuzzes the
//! fixture parser with damaged copies of them.
//!
//! Each fixture pins one protocol bug the model checker found (replayed
//! clean after the fix) or one checker-sensitivity case (a seeded mutation
//! that must still trip an invariant). All fixtures run inside a single
//! `#[test]` because the mutation switch some of them use is
//! process-global; the fuzz replays without touching it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use zerodev::common::{panic_message, Prng};
use zerodev_model::trace::replay;
use zerodev_model::{parse_fixture, run_fixture};

/// Every committed fixture, as (file name, text), in name order.
fn committed_fixtures() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/model_traces");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/model_traces exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no .trace fixtures found in {dir} — the regression corpus is gone"
    );
    paths
        .iter()
        .map(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
            let text = std::fs::read_to_string(path).expect("fixture readable");
            (name.to_owned(), text)
        })
        .collect()
}

#[test]
fn all_committed_trace_fixtures_replay_as_expected() {
    let mut failures = Vec::new();
    for (name, text) in committed_fixtures() {
        match parse_fixture(&text) {
            Ok(fx) => {
                if let Err(e) = run_fixture(&fx) {
                    failures.push(format!("{name}: {e}"));
                }
            }
            Err(e) => failures.push(format!("{name}: parse error: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} fixture(s) diverged:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// Tokens an edit swaps in or appends: config keys with out-of-range
/// values, agents outside the machine, malformed and untracked blocks, and
/// the format's directive, event and op words.
const TOKENS: [&str; 30] = [
    "cores=0",
    "cores=5",
    "sockets=3",
    "addrs=0",
    "ways=18446744073709551616",
    "policy=Nope",
    "s9/c0",
    "s0/c99999",
    "s256/c0",
    "s0/c",
    "B0xffffffffffffffff",
    "B0x",
    "B0x1",
    "B0x40",
    "B0x10000000000000000",
    "config",
    "expect",
    "mutation",
    "violation",
    "access",
    "write",
    "evict",
    "(silent",
    "E->M)",
    "Read",
    "CodeRead",
    "ReadExclusive",
    "Upgrade",
    "Dirty",
    "CleanShared",
];

/// Damages a fixture's lines with 1-3 edits: a dropped, duplicated or
/// swapped line; a token replaced or appended; or a second `config` line
/// taken from `configs`.
fn mutate(rng: &mut Prng, lines: &mut Vec<String>, configs: &[&str]) {
    for _ in 0..=rng.below(3) {
        let n = lines.len() as u64;
        if n == 0 {
            return;
        }
        let at = rng.below(n) as usize;
        match rng.below(6) {
            0 => {
                lines.remove(at);
            }
            1 => {
                let copy = lines[at].clone();
                lines.insert(rng.below(n + 1) as usize, copy);
            }
            2 => lines.swap(at, rng.below(n) as usize),
            3 | 4 => {
                let token = TOKENS[rng.below(TOKENS.len() as u64) as usize];
                let mut toks: Vec<&str> = lines[at].split_whitespace().collect();
                let i = rng.below(toks.len() as u64 + 1) as usize;
                if i < toks.len() && rng.below(2) == 0 {
                    toks[i] = token;
                } else {
                    toks.push(token);
                }
                lines[at] = toks.join(" ");
            }
            _ => {
                let config = configs[rng.below(configs.len() as u64) as usize];
                lines.insert(rng.below(n + 1) as usize, config.to_owned());
            }
        }
    }
}

/// Seeded mutations of the committed fixtures: every text parses or fails
/// with a `line N:` error inside the text (the one other error reports
/// the missing config line), and every accepted fixture replays without
/// an uncaught panic.
#[test]
fn damaged_fixtures_never_panic_the_parser_or_the_replay() {
    let fixtures = committed_fixtures();
    let configs: Vec<&str> = fixtures
        .iter()
        .flat_map(|(_, text)| text.lines())
        .filter(|l| l.starts_with("config "))
        .collect();
    let (mut accepted, mut rejected) = (0, 0);
    let mut rng = Prng::seeded(0xf1c5_7e57);
    for i in 0..3_000 {
        let (name, text) = &fixtures[i % fixtures.len()];
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        mutate(&mut rng, &mut lines, &configs);
        let text = lines.join("\n");
        let parsed = catch_unwind(|| parse_fixture(&text)).unwrap_or_else(|_| {
            panic!("iteration {i} ({name}): the fixture parser panicked on {text:?}")
        });
        let fx = match parsed {
            Err(e) => {
                rejected += 1;
                let last = text.lines().count();
                let line = e
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split_once(':'))
                    .and_then(|(n, _)| n.parse::<usize>().ok());
                assert!(
                    line.is_some_and(|n| (1..=last).contains(&n))
                        || e == "fixture has no config line",
                    "iteration {i} ({name}): {e:?} for a {last}-line text:\n{text}"
                );
                continue;
            }
            Ok(fx) => fx,
        };
        accepted += 1;
        catch_unwind(AssertUnwindSafe(|| replay(&fx.model, &fx.events))).unwrap_or_else(|e| {
            panic!(
                "iteration {i} ({name}): an accepted fixture panicked its replay: {}\n{text}",
                panic_message(&*e)
            )
        });
    }
    // The mutator must reach both sides of the parser.
    assert!(
        (300..2_700).contains(&accepted),
        "{accepted} accepted, {rejected} rejected of 3000 fixtures"
    );
}
