//! `zerodev-lint` — workspace static analysis for the ZeroDEV simulator.
//!
//! Three passes over a [`model::Workspace`] (a set of in-memory source
//! files, so tests can feed mutated sources):
//!
//! 1. [`determinism`] — deny ambient nondeterminism in the deterministic
//!    crates (hash-randomized containers, wall clocks, raw threads,
//!    OS randomness), with audited inline waivers.
//! 2. [`snapshot`] — field-for-field coverage of every snapshotting
//!    struct, so an unserialized new field fails CI instead of breaking
//!    kill-and-resume byte-identity at soak time.
//! 3. [`protocol_graph`] — extract the `MsgClass` consumes→emits graph
//!    from the annotated flows and verify deadlock-freedom: vnet-monotone
//!    edges, per-rank acyclicity, full producer/consumer coverage.
//!
//! Rule catalog, waiver grammar, and the message-class graph (with no
//! audited descent) are documented in DESIGN.md §12.

pub mod determinism;
pub mod lexer;
pub mod model;
pub mod protocol_graph;
pub mod report;
pub mod snapshot;

pub use model::{SourceFile, Workspace};
pub use report::Report;

/// Runs all three passes plus waiver accounting over `ws`.
pub fn analyze(ws: &Workspace) -> Report {
    let p = model::Parsed::build(ws);
    let mut used = vec![false; p.waivers.len()];
    let mut findings = Vec::new();
    determinism::run(&p, &mut used, &mut findings);
    snapshot::run(&p, &mut used, &mut findings);
    let graph = protocol_graph::run(&p, &mut used, &mut findings);
    let mut report = Report {
        findings,
        waivers: Vec::new(),
        graph,
    };
    report.add_waiver_findings(&p, &used);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_meta_findings_fire() {
        let ws = Workspace {
            files: vec![SourceFile {
                krate: "core".into(),
                path: "x.rs".into(),
                text: "// lint:allow(wall_clock)\nlet t = Instant::now();\n// lint:allow(thread_spawn, justified but nothing here)\nlet u = 1;\n".into(),
            }],
        };
        let r = analyze(&ws);
        assert!(r.findings.iter().any(|f| f.rule == "waiver_no_reason"));
        assert!(r.findings.iter().any(|f| f.rule == "waiver_unused"));
        // The Instant finding itself is waived (reasonless waivers still
        // suppress — the missing reason is its own finding).
        let wc = r.findings.iter().find(|f| f.rule == "wall_clock").unwrap();
        assert!(wc.waived_by.is_some());
        assert_eq!(r.unwaived().count(), 2);
    }
}
