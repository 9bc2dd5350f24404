//! Fixture suite: every lint rule has a minimal source file under
//! `tests/fixtures/` on which it fires exactly once. This pins each
//! rule's trigger condition — a pass refactor that stops (or
//! double-)firing a rule fails here, not in CI noise on the real tree.

use zerodev_lint::{analyze, Report, SourceFile, Workspace};

const MSG_COMPANION: &str = include_str!("fixtures/msg_companion.rs");

/// Runs the analyzer over one fixture file. Protocol fixtures get the
/// mini `MsgClass` companion so the graph pass has classes to check
/// against.
fn run_fixture(krate: &str, text: &str, protocol: bool) -> Report {
    let mut files = vec![SourceFile {
        krate: krate.into(),
        path: format!("crates/{krate}/src/fixture.rs"),
        text: text.into(),
    }];
    if protocol {
        files.push(SourceFile {
            krate: "common".into(),
            path: "crates/common/src/msg.rs".into(),
            text: MSG_COMPANION.into(),
        });
    }
    analyze(&Workspace { files })
}

fn count(r: &Report, rule: &str) -> usize {
    r.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn nondeterministic_map_fires_once() {
    let r = run_fixture(
        "core",
        include_str!("fixtures/nondeterministic_map.rs"),
        false,
    );
    assert_eq!(count(&r, "nondeterministic_map"), 1, "{:?}", r.findings);
}

#[test]
fn wall_clock_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/wall_clock.rs"), false);
    assert_eq!(count(&r, "wall_clock"), 1, "{:?}", r.findings);
}

#[test]
fn thread_spawn_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/thread_spawn.rs"), false);
    assert_eq!(count(&r, "thread_spawn"), 1, "{:?}", r.findings);
}

#[test]
fn ambient_randomness_fires_once() {
    let r = run_fixture(
        "core",
        include_str!("fixtures/ambient_randomness.rs"),
        false,
    );
    assert_eq!(count(&r, "ambient_randomness"), 1, "{:?}", r.findings);
}

#[test]
fn determinism_rules_ignore_non_deterministic_crates() {
    // The same sources in a crate outside the deterministic set are clean.
    for fixture in [
        include_str!("fixtures/nondeterministic_map.rs"),
        include_str!("fixtures/wall_clock.rs"),
        include_str!("fixtures/thread_spawn.rs"),
        include_str!("fixtures/ambient_randomness.rs"),
    ] {
        let r = run_fixture("bench", fixture, false);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}

#[test]
fn snapshot_complete_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/snapshot_complete.rs"), false);
    assert_eq!(count(&r, "snapshot_complete"), 1, "{:?}", r.findings);
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "snapshot_complete")
        .unwrap();
    assert!(f.message.contains("`b`"), "wrong field: {}", f.message);
}

#[test]
fn msg_class_cycle_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/msg_class_cycle.rs"), true);
    assert_eq!(count(&r, "msg_class_cycle"), 1, "{:?}", r.findings);
}

#[test]
fn msg_no_producer_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/msg_no_producer.rs"), true);
    assert_eq!(count(&r, "msg_no_producer"), 1, "{:?}", r.findings);
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "msg_no_producer")
        .unwrap();
    assert!(f.message.contains("Fwd"), "wrong class: {}", f.message);
}

#[test]
fn msg_no_consumer_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/msg_no_consumer.rs"), true);
    assert_eq!(count(&r, "msg_no_consumer"), 1, "{:?}", r.findings);
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "msg_no_consumer")
        .unwrap();
    assert!(f.message.contains("Dat"), "wrong class: {}", f.message);
}

#[test]
fn unrooted_emission_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/unrooted_emission.rs"), true);
    assert_eq!(count(&r, "unrooted_emission"), 1, "{:?}", r.findings);
}

#[test]
fn unseen_emission_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/unseen_emission.rs"), true);
    assert_eq!(count(&r, "unseen_emission"), 1, "{:?}", r.findings);
}

#[test]
fn waiver_no_reason_fires_once_and_still_suppresses() {
    let r = run_fixture("core", include_str!("fixtures/waiver_no_reason.rs"), false);
    assert_eq!(count(&r, "waiver_no_reason"), 1, "{:?}", r.findings);
    // The reasonless waiver still suppresses its target — the missing
    // justification is its own finding, not a reason to double-report.
    let wc = r.findings.iter().find(|f| f.rule == "wall_clock").unwrap();
    assert!(wc.waived_by.is_some());
}

#[test]
fn waiver_unused_fires_once() {
    let r = run_fixture("core", include_str!("fixtures/waiver_unused.rs"), false);
    assert_eq!(count(&r, "waiver_unused"), 1, "{:?}", r.findings);
}
