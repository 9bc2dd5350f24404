//! Pass 2: snapshot-completeness checker.
//!
//! The model checker keeps each frontier state as a machine image
//! (DESIGN.md §9), and a restored state behaves like the one imaged only
//! if every field of the machine reaches its `snap`/`unsnap` pair. A field
//! added to imaged state but not to that pair would be lost quietly. This
//! pass finds every struct that participates in snapshotting — an impl
//! providing `snap`, `unsnap`, `snapshot_with` or `restore_with` — and
//! requires each declared field of the struct to be *referenced* in the
//! body of each such function (transitively through same-type helper
//! methods, so `Stats::snap` delegating to `Stats::scalar_fields()`
//! counts).
//!
//! Reference-not-serialization is deliberately the bar: a field mentioned
//! in the body was at least thought about, and the image round-trip tests
//! (`crates/core/tests/snapshot.rs`) catch value-level mistakes. A field
//! that is intentionally not captured (e.g. `DramModel::interleave`,
//! derived from the configuration) takes a field-scoped waiver:
//!
//! ```text
//! // lint:allow(snapshot_complete(interleave), derived from the configuration)
//! ```

use crate::lexer::Tok;
use crate::model::{Finding, FnDef, Parsed};

pub const RULE: &str = "snapshot_complete";

/// Method names whose bodies must cover every field of their self type.
/// A plain `restore` is not among them: the name is the protocol's
/// (`MemorySide::restore`).
const SNAP_FNS: [&str; 4] = ["snap", "unsnap", "snapshot_with", "restore_with"];

pub fn run(p: &Parsed, used: &mut [bool], out: &mut Vec<Finding>) {
    for f in &p.fns {
        if !SNAP_FNS.contains(&f.name.as_str()) || f.self_ty.is_empty() {
            continue;
        }
        let krate = &p.files[f.file].src.krate;
        // Resolve the struct: same crate first, then anywhere.
        let Some(sd) = p
            .structs
            .iter()
            .find(|s| s.name == f.self_ty && &p.files[s.file].src.krate == krate)
            .or_else(|| p.structs.iter().find(|s| s.name == f.self_ty))
        else {
            continue; // impl for a foreign/generic type; nothing to check
        };
        let refs = body_idents_transitive(p, f);
        for (field, _) in &sd.fields {
            if refs.contains(field) {
                continue;
            }
            let waived_by = p.match_waiver(
                used,
                f.file,
                RULE,
                f.line,
                Some((f.line, f.end_line)),
                Some(field),
            );
            out.push(Finding {
                rule: RULE,
                file: p.files[f.file].src.path.clone(),
                line: f.line,
                message: format!(
                    "field `{field}` of `{}` is not referenced in `{}::{}` — snapshot coverage is incomplete",
                    sd.name, f.self_ty, f.name
                ),
                waived_by,
            });
        }
    }
}

/// Identifiers appearing in `f`'s body, plus those of any same-type
/// method it names (transitively). Restricting helpers to the same self
/// type stops an unrelated `other.snap()` call from masking coverage.
fn body_idents_transitive(p: &Parsed, f: &FnDef) -> Vec<String> {
    let mut seen_fns: Vec<(usize, usize)> = Vec::new(); // (file, body start)
    let mut stack: Vec<&FnDef> = vec![f];
    let mut idents: Vec<String> = Vec::new();
    while let Some(cur) = stack.pop() {
        if seen_fns.contains(&(cur.file, cur.body.0)) {
            continue;
        }
        seen_fns.push((cur.file, cur.body.0));
        let toks = &p.files[cur.file].toks;
        for s in &toks[cur.body.0..cur.body.1] {
            let Tok::Ident(id) = &s.tok else { continue };
            if !idents.contains(id) {
                idents.push(id.clone());
            }
            // Same-type helper (possibly in another file of the crate).
            for g in &p.fns {
                if g.name == *id
                    && g.self_ty == f.self_ty
                    && p.files[g.file].src.krate == p.files[f.file].src.krate
                    && !seen_fns.contains(&(g.file, g.body.0))
                {
                    stack.push(g);
                }
            }
        }
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Parsed, SourceFile, Workspace};

    fn check(src: &str) -> (Vec<Finding>, Vec<bool>) {
        let p = Parsed::build(&Workspace {
            files: vec![SourceFile {
                krate: "sim".into(),
                path: "x.rs".into(),
                text: src.into(),
            }],
        });
        let mut used = vec![false; p.waivers.len()];
        let mut out = Vec::new();
        run(&p, &mut used, &mut out);
        (out, used)
    }

    #[test]
    fn missing_field_is_caught() {
        let (f, _) = check(
            "struct St { a: u64, b: u64 }\nimpl St { fn snap(&self, w: &mut W) { w.u64(self.a); } }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`b`"));
        assert!(f[0].waived_by.is_none());
    }

    #[test]
    fn helper_delegation_counts() {
        let (f, _) = check(
            "struct St { a: u64, b: u64 }\nimpl St {\n fn both(&self) { self.a; self.b; }\n fn snap(&self, w: &mut W) { self.both(); }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn field_waiver_suppresses_only_named_field() {
        let (f, used) = check(
            "struct St { a: u64, b: u64, c: u64 }\nimpl St {\n // lint:allow(snapshot_complete(b), derived on restore)\n fn snap(&self, w: &mut W) { w.u64(self.a); }\n}",
        );
        assert_eq!(f.len(), 2);
        let b = f.iter().find(|x| x.message.contains("`b`")).unwrap();
        let c = f.iter().find(|x| x.message.contains("`c`")).unwrap();
        assert!(b.waived_by.is_some());
        assert!(c.waived_by.is_none());
        assert!(used[0]);
    }

    #[test]
    fn plain_restore_on_other_types_is_ignored() {
        let (f, _) = check("struct Mem { a: u64 }\nimpl Mem { fn restore(&mut self) { } }");
        assert!(f.is_empty());
    }
}
