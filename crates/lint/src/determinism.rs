//! Pass 1: determinism lints.
//!
//! The simulator's headline guarantee is byte-identical output across
//! thread counts, pause points, and kill/resume boundaries. Anything that
//! imports ambient nondeterminism — hash-randomized containers, wall
//! clocks, unmanaged threads, OS randomness — can silently break that, so
//! in the deterministic crates (`cache`, `common`, `core`, `sim`,
//! `workloads`) these identifiers are denied outright and every remaining
//! use must carry an audited `lint:allow` waiver:
//!
//! | rule                 | denied identifiers                                |
//! |----------------------|---------------------------------------------------|
//! | `nondeterministic_map` | `HashMap`, `HashSet`, `RandomState`, `DefaultHasher`, `hash_map`, `hash_set` |
//! | `wall_clock`         | `Instant`, `SystemTime`                           |
//! | `thread_spawn`       | `spawn`                                           |
//! | `ambient_randomness` | `thread_rng`, `getrandom`, `rand`, `from_entropy` |
//!
//! Test modules are stripped before this pass runs: assertions may hash
//! freely. `sim::parallel` holds the audited waivers for the sweep
//! driver's threads and timers — the wall clock there feeds stderr
//! progress only, never simulated state.

use crate::lexer::Tok;
use crate::model::{Finding, Parsed};

/// Crates whose non-test code must be deterministic.
pub const DETERMINISTIC_CRATES: [&str; 5] = ["cache", "common", "core", "sim", "workloads"];

const RULES: [(&str, &[&str]); 4] = [
    (
        "nondeterministic_map",
        &[
            "HashMap",
            "HashSet",
            "RandomState",
            "DefaultHasher",
            "hash_map",
            "hash_set",
        ],
    ),
    ("wall_clock", &["Instant", "SystemTime"]),
    ("thread_spawn", &["spawn"]),
    (
        "ambient_randomness",
        &["thread_rng", "getrandom", "rand", "from_entropy"],
    ),
];

pub fn run(p: &Parsed, used: &mut [bool], out: &mut Vec<Finding>) {
    for (fi, pf) in p.files.iter().enumerate() {
        if !DETERMINISTIC_CRATES.contains(&pf.src.krate.as_str()) {
            continue;
        }
        // One finding per (rule, line): two `HashMap`s on a line are one
        // violation to fix, and fixture tests assert exactly-once firing.
        let mut last: Option<(&'static str, u32)> = None;
        for s in &pf.toks {
            let Tok::Ident(id) = &s.tok else { continue };
            let Some(rule) = RULES
                .iter()
                .find(|(_, ids)| ids.contains(&id.as_str()))
                .map(|(r, _)| *r)
            else {
                continue;
            };
            if last == Some((rule, s.line)) {
                continue;
            }
            last = Some((rule, s.line));
            let waived_by = p.match_waiver(used, fi, rule, s.line, None, None);
            out.push(Finding {
                rule,
                file: pf.src.path.clone(),
                line: s.line,
                message: format!(
                    "`{id}` is nondeterministic ({rule}) in deterministic crate `{}`",
                    pf.src.krate
                ),
                waived_by,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SourceFile, Workspace};

    fn findings(krate: &str, src: &str) -> Vec<Finding> {
        let p = Parsed::build(&Workspace {
            files: vec![SourceFile {
                krate: krate.into(),
                path: format!("crates/{krate}/src/lib.rs"),
                text: src.into(),
            }],
        });
        let mut used = vec![false; p.waivers.len()];
        let mut out = Vec::new();
        run(&p, &mut used, &mut out);
        out
    }

    #[test]
    fn hashmap_fires_in_deterministic_crate_only() {
        let f = findings("core", "use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "nondeterministic_map");
        assert!(f[0].waived_by.is_none());
        assert!(findings("lint", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn waiver_suppresses_and_is_marked_used() {
        let p = Parsed::build(&Workspace {
            files: vec![SourceFile {
                krate: "sim".into(),
                path: "x.rs".into(),
                text: "// lint:allow(wall_clock, progress display only)\nlet t = Instant::now();\n"
                    .into(),
            }],
        });
        let mut used = vec![false; p.waivers.len()];
        let mut out = Vec::new();
        run(&p, &mut used, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].waived_by.is_some());
        assert!(used[0]);
    }

    #[test]
    fn test_modules_do_not_fire() {
        let f = findings(
            "cache",
            "struct A;\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n",
        );
        assert!(f.is_empty());
    }
}
