//! Mutation test against the real tree: deleting one serialized field
//! write from a shipping `snap` implementation must trip the
//! snapshot-completeness pass. This is the end-to-end guarantee the pass
//! exists for — a field that never reaches the model checker's machine
//! image fails CI instead of being lost quietly when a frontier state is
//! restored.

use zerodev_lint::{analyze, SourceFile, Workspace};

/// The real DRAM model source, compiled into the test so the mutation
/// stays in memory and the tree on disk is untouched.
const DRAM_SRC: &str = include_str!("../../dram/src/lib.rs");

fn ws(text: &str) -> Workspace {
    Workspace {
        files: vec![SourceFile {
            krate: "dram".into(),
            path: "crates/dram/src/lib.rs".into(),
            text: text.into(),
        }],
    }
}

#[test]
fn baseline_dram_is_snapshot_clean() {
    let r = analyze(&ws(DRAM_SRC));
    let leftovers: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "snapshot_complete" && f.waived_by.is_none())
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn deleting_a_field_write_fails_snapshot_completeness() {
    let anchor = "        w.u64(self.writes);\n";
    let mutated = DRAM_SRC.replacen(anchor, "", 1);
    assert_ne!(
        mutated, DRAM_SRC,
        "DramModel::snap no longer writes `writes` — update the anchor"
    );
    let r = analyze(&ws(&mutated));
    let hits: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "snapshot_complete" && f.message.contains("`writes`"))
        .collect();
    assert!(
        !hits.is_empty(),
        "dropping a field write went undetected: {:?}",
        r.findings
    );
    assert!(
        hits.iter().all(|f| f.waived_by.is_none()),
        "the injected omission must not be waivable by existing waivers: {hits:?}"
    );
}
