//! Pass 3: protocol message-dependency (deadlock) analysis.
//!
//! Phase-priority directory coherence (PAPERS.md) reduces deadlock freedom
//! to acyclicity of the message-*class* dependency graph: if serving a
//! class-A message can generate a class-B message, edge A→B exists, and a
//! cycle means a full network can stall forever. This pass extracts that
//! graph from the annotated flow code and verifies it against the declared
//! class ordering (`MsgClass::vnet` in `crates/common/src/msg.rs`).
//!
//! # Annotation grammar
//!
//! Flows in this simulator are synchronous functions, not queued
//! handlers, so the consumes side is declared rather than inferred:
//!
//! ```text
//! // lint:consumes(Request)          ← above a fn: serving this class
//! // lint:context(EvictNotice)      ← inside a body: messages below this
//! //                                   point are caused by this class,
//! //                                   until the enclosing block closes
//! // lint:context(end)              ← explicit early pop
//! // lint:emits(DenfNack)           ← emission not visible as st.msg(…)
//! ```
//!
//! Emissions are auto-detected at `msg(MsgClass::X, …)` / `msg_n(MsgClass::X, …)`
//! accounting calls; `lint:emits` covers the rest. An emission inside a fn
//! with neither a context nor a `consumes` declaration is an
//! `unrooted_emission` finding. A `.msg(…)` / `.msg_n(…)` call whose class
//! is not a `MsgClass::X` path (a variable, a `match`) is invisible to the
//! graph unless a `lint:emits` on the same line names what it can send;
//! without one it is an `unseen_emission` finding.
//!
//! # Checks
//!
//! * every non-self edge A→B must satisfy `vnet(B) ≥ vnet(A)` — a
//!   response may never generate traffic on a lower (more congested)
//!   virtual network. Violations are `msg_class_cycle` findings, waivable
//!   per audited edge (the `DenfNack → Request` retry is the one waiver).
//! * edges within one vnet rank must be acyclic (DFS over the rank's
//!   subgraph). Self-edges (same-VN hop / ingress accounting) are exempt.
//! * every non-origin class (vnet > 0) needs a producer (`msg_no_producer`)
//!   and every class needs a consumer (`msg_no_consumer`).

use crate::lexer::Tok;
use crate::model::{Finding, Parsed};

/// Crates scanned for flow annotations and emissions.
const FLOW_CRATES: [&str; 3] = ["common", "core", "sim"];

#[derive(Clone, Debug)]
pub struct ClassInfo {
    pub name: String,
    pub vnet: u8,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub file: String,
    pub line: u32,
    /// Carries a `msg_class_cycle` waiver (the audited retry edge).
    pub audited: bool,
}

/// The extracted consumes→emits graph, embedded in `lint_report.json` and
/// rendered to DOT.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    pub classes: Vec<ClassInfo>,
    pub edges: Vec<Edge>,
}

impl Graph {
    fn class(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == name)
    }
}

pub fn run(p: &Parsed, used: &mut [bool], out: &mut Vec<Finding>) -> Graph {
    let Some(msg_file) = p
        .files
        .iter()
        .position(|f| f.src.krate == "common" && f.src.path.ends_with("msg.rs"))
    else {
        return Graph::default(); // fixture workspaces without the enum
    };
    let mut g = parse_classes(p, msg_file);
    if g.classes.is_empty() {
        return g;
    }
    let consumed = extract_edges(p, used, out, &mut g);
    check_ordering(p, used, out, &mut g);
    check_rank_cycles(p, out, &g);
    check_endpoints(p, used, out, &g, msg_file, &consumed);
    g
}

/// Parses the `MsgClass` enum variants and their `vnet()` ranks. The rank
/// values come from a raw-text scan of the `vnet` body (the lexer drops
/// numeric literals).
fn parse_classes(p: &Parsed, msg_file: usize) -> Graph {
    let toks = &p.files[msg_file].toks;
    let mut g = Graph::default();
    for i in 0..toks.len() {
        if toks[i].tok != Tok::Ident("enum".into())
            || toks.get(i + 1).map(|s| &s.tok) != Some(&Tok::Ident("MsgClass".into()))
        {
            continue;
        }
        let Some(open_rel) = toks[i..].iter().position(|s| s.tok == Tok::Punct('{')) else {
            break;
        };
        let open = i + open_rel;
        let close = crate::lexer::matching_brace(toks, open);
        let mut depth = 0i32;
        for s in &toks[open..close] {
            match &s.tok {
                Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('<') => depth += 1,
                Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('>') => depth -= 1,
                Tok::Ident(v) if depth == 1 => g.classes.push(ClassInfo {
                    name: v.clone(),
                    vnet: u8::MAX,
                    line: s.line,
                }),
                _ => {}
            }
        }
        break;
    }
    // Rank assignment from the vnet() match arms.
    if let Some(f) = p
        .fns
        .iter()
        .find(|f| f.file == msg_file && f.name == "vnet" && f.self_ty == "MsgClass")
    {
        let text = &p.files[msg_file].src.text;
        let body: String = text
            .lines()
            .skip(f.line.saturating_sub(1) as usize)
            .take((f.end_line - f.line + 1) as usize)
            .collect::<Vec<_>>()
            .join("\n");
        for (names, rank) in scan_vnet_arms(&body) {
            for n in names {
                if let Some(ci) = g.class(&n) {
                    g.classes[ci].vnet = rank;
                }
            }
        }
    }
    g
}

/// Scans `MsgClass::A | MsgClass::B => 0,` arms out of raw text.
fn scan_vnet_arms(body: &str) -> Vec<(Vec<String>, u8)> {
    let mut arms = Vec::new();
    let mut pending: Vec<String> = Vec::new();
    let mut rest = body;
    loop {
        let next_class = rest.find("MsgClass::");
        let next_arrow = rest.find("=>");
        match (next_class, next_arrow) {
            (Some(c), a) if a.is_none_or(|a| c < a) => {
                let after = &rest[c + "MsgClass::".len()..];
                let name: String = after
                    .chars()
                    .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
                    .collect();
                pending.push(name);
                rest = &rest[c + "MsgClass::".len()..];
            }
            (_, Some(a)) => {
                let after = rest[a + 2..].trim_start();
                let digits: String = after.chars().take_while(|ch| ch.is_ascii_digit()).collect();
                if let Ok(rank) = digits.parse::<u8>() {
                    if !pending.is_empty() {
                        arms.push((std::mem::take(&mut pending), rank));
                    }
                } else {
                    pending.clear(); // `_ => unreachable!()` style arm
                }
                rest = &rest[a + 2..];
            }
            (_, None) => break,
        }
    }
    arms
}

/// A consumes/context/emits annotation parsed from a comment.
fn parse_annotation(text: &str) -> Option<(&'static str, Vec<String>)> {
    for (prefix, kind) in [
        ("lint:consumes(", "consumes"),
        ("lint:context(", "context"),
        ("lint:emits(", "emits"),
    ] {
        if let Some(rest) = text.strip_prefix(prefix) {
            let inner = rest.split(')').next().unwrap_or("");
            let names = inner
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            return Some((kind, names));
        }
    }
    None
}

/// Walks every annotated fn, building edges. Returns the set of consumed
/// class indices (for the `msg_no_consumer` check).
fn extract_edges(
    p: &Parsed,
    used: &mut [bool],
    out: &mut Vec<Finding>,
    g: &mut Graph,
) -> Vec<bool> {
    let mut consumed = vec![false; g.classes.len()];
    for (fi, pf) in p.files.iter().enumerate() {
        if !FLOW_CRATES.contains(&pf.src.krate.as_str()) {
            continue;
        }
        // consumes-annotations attach to the first fn that starts after
        // them (token order).
        let mut fn_consumes: Vec<(usize, Vec<String>)> = Vec::new(); // (fn idx in p.fns, classes)
        for (ti, s) in pf.toks.iter().enumerate() {
            let Tok::Comment(c) = &s.tok else { continue };
            let Some(("consumes", names)) = parse_annotation(c) else {
                continue;
            };
            let target = p
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.file == fi && f.body.0 > ti)
                .min_by_key(|(_, f)| f.body.0);
            if let Some((fidx, _)) = target {
                match fn_consumes.iter_mut().find(|(i, _)| *i == fidx) {
                    Some((_, v)) => v.extend(names),
                    None => fn_consumes.push((fidx, names)),
                }
            }
        }
        for (fidx, f) in p.fns.iter().enumerate() {
            if f.file != fi {
                continue;
            }
            let consumes: &[String] = fn_consumes
                .iter()
                .find(|(i, _)| *i == fidx)
                .map(|(_, v)| v.as_slice())
                .unwrap_or(&[]);
            for c in consumes {
                match g.class(c) {
                    Some(ci) => consumed[ci] = true,
                    None => out.push(unknown_class(pf, f.line, c)),
                }
            }
            walk_body(p, used, out, g, &mut consumed, fi, f, consumes);
        }
    }
    consumed
}

#[expect(clippy::too_many_arguments)] // internal walker, plumbing over a tuple struct buys nothing
fn walk_body(
    p: &Parsed,
    used: &mut [bool],
    out: &mut Vec<Finding>,
    g: &mut Graph,
    consumed: &mut [bool],
    fi: usize,
    f: &crate::model::FnDef,
    consumes: &[String],
) {
    let pf = &p.files[fi];
    let toks = &pf.toks;
    let mut ctx: Vec<(usize, i32)> = Vec::new(); // (class idx, depth pushed at)
    let mut depth = 0i32;
    let mut k = f.body.0;
    while k < f.body.1 {
        match &toks[k].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                while ctx.last().is_some_and(|(_, d)| *d > depth) {
                    ctx.pop();
                }
            }
            Tok::Comment(c) => {
                if let Some((kind, names)) = parse_annotation(c) {
                    match kind {
                        "context" if names.first().map(String::as_str) == Some("end") => {
                            ctx.pop();
                        }
                        "context" => {
                            for n in &names {
                                match g.class(n) {
                                    Some(ci) => {
                                        consumed[ci] = true;
                                        ctx.push((ci, depth));
                                    }
                                    None => out.push(unknown_class(pf, toks[k].line, n)),
                                }
                            }
                        }
                        "emits" => {
                            for n in &names {
                                emit(used, out, g, p, fi, f, consumes, &ctx, n, toks[k].line);
                            }
                        }
                        _ => {}
                    }
                }
            }
            // msg(MsgClass::X …) / msg_n(MsgClass::X …)
            Tok::Ident(id)
                if (id == "msg" || id == "msg_n")
                    && toks.get(k + 1).is_some_and(|s| s.tok == Tok::Punct('(')) =>
            {
                let t = |off: usize| toks.get(k + off).map(|s| &s.tok);
                let literal = t(2) == Some(&Tok::Ident("MsgClass".into()))
                    && t(3) == Some(&Tok::Punct(':'))
                    && t(4) == Some(&Tok::Punct(':'));
                match t(5) {
                    Some(Tok::Ident(class)) if literal => {
                        let class = class.clone();
                        emit(used, out, g, p, fi, f, consumes, &ctx, &class, toks[k].line);
                    }
                    _ if !literal && toks[k - 1].tok == Tok::Punct('.') => {
                        unseen_emission(p, used, out, fi, f, toks[k].line);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        k += 1;
    }
}

/// Records an emission of `class` from the active context (or the fn's
/// consumes set), or flags it unrooted.
#[expect(clippy::too_many_arguments)] // internal walker, plumbing over a tuple struct buys nothing
fn emit(
    used: &mut [bool],
    out: &mut Vec<Finding>,
    g: &mut Graph,
    p: &Parsed,
    fi: usize,
    f: &crate::model::FnDef,
    consumes: &[String],
    ctx: &[(usize, i32)],
    class: &str,
    line: u32,
) {
    let pf = &p.files[fi];
    let Some(to) = g.class(class) else {
        out.push(unknown_class(pf, line, class));
        return;
    };
    let sources: Vec<usize> = if let Some((ci, _)) = ctx.last() {
        vec![*ci]
    } else {
        consumes.iter().filter_map(|c| g.class(c)).collect()
    };
    if sources.is_empty() {
        let waived_by = p.match_waiver(
            used,
            fi,
            "unrooted_emission",
            line,
            Some((f.line, f.end_line)),
            None,
        );
        out.push(Finding {
            rule: "unrooted_emission",
            file: pf.src.path.clone(),
            line,
            message: format!(
                "`{}::{}` emits MsgClass::{class} but declares no lint:consumes/context — edge source unknown",
                f.self_ty, f.name
            ),
            waived_by,
        });
        return;
    }
    for from in sources {
        g.edges.push(Edge {
            from,
            to,
            file: pf.src.path.clone(),
            line,
            audited: false,
        });
    }
}

/// Flags a `.msg(…)` call on `line` whose class the graph cannot read,
/// unless a `lint:emits` on the same line names the classes it sends.
fn unseen_emission(
    p: &Parsed,
    used: &mut [bool],
    out: &mut Vec<Finding>,
    fi: usize,
    f: &crate::model::FnDef,
    line: u32,
) {
    let toks = &p.files[fi].toks[f.body.0..f.body.1];
    let named = toks.iter().any(|s| {
        s.line == line && matches!(&s.tok, Tok::Comment(c) if c.starts_with("lint:emits("))
    });
    if named {
        return;
    }
    let waived_by = p.match_waiver(used, fi, "unseen_emission", line, None, None);
    out.push(Finding {
        rule: "unseen_emission",
        file: p.files[fi].src.path.clone(),
        line,
        message: format!(
            "`{}::{}` records a message whose class is not a `MsgClass::X` path — name the classes with lint:emits(…) on this line",
            f.self_ty, f.name
        ),
        waived_by,
    });
}

fn unknown_class(pf: &crate::model::ParsedFile, line: u32, name: &str) -> Finding {
    Finding {
        rule: "msg_class_cycle",
        file: pf.src.path.clone(),
        line,
        message: format!("annotation names unknown MsgClass `{name}`"),
        waived_by: None,
    }
}

/// Non-self edges must be vnet-monotone; violations need a per-edge waiver.
fn check_ordering(p: &Parsed, used: &mut [bool], out: &mut Vec<Finding>, g: &mut Graph) {
    for e in &mut g.edges {
        if e.from == e.to {
            continue;
        }
        let (a, b) = (&g.classes[e.from], &g.classes[e.to]);
        if a.vnet == u8::MAX || b.vnet == u8::MAX {
            out.push(Finding {
                rule: "msg_class_cycle",
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "edge {} -> {} touches a class with no vnet() rank",
                    a.name, b.name
                ),
                waived_by: None,
            });
            continue;
        }
        if b.vnet >= a.vnet {
            continue;
        }
        let fi = p
            .files
            .iter()
            .position(|f| f.src.path == e.file)
            .unwrap_or(usize::MAX);
        let waived_by = p.match_waiver(used, fi, "msg_class_cycle", e.line, None, None);
        e.audited = waived_by.is_some();
        out.push(Finding {
            rule: "msg_class_cycle",
            file: e.file.clone(),
            line: e.line,
            message: format!(
                "edge {} (vnet {}) -> {} (vnet {}) descends the virtual-network order",
                a.name, a.vnet, b.name, b.vnet
            ),
            waived_by,
        });
    }
}

/// Within one vnet rank the (non-self, non-audited) edges must be acyclic.
fn check_rank_cycles(p: &Parsed, out: &mut Vec<Finding>, g: &Graph) {
    let n = g.classes.len();
    let mut adj = vec![Vec::new(); n];
    for e in &g.edges {
        if e.from != e.to
            && !e.audited
            && g.classes[e.from].vnet == g.classes[e.to].vnet
            && !adj[e.from].contains(&e.to)
        {
            adj[e.from].push(e.to);
        }
    }
    // Colored DFS; a back edge closes a cycle.
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack_path: Vec<usize> = Vec::new();
    fn dfs(
        v: usize,
        adj: &[Vec<usize>],
        color: &mut [u8],
        path: &mut Vec<usize>,
        cycles: &mut Vec<Vec<usize>>,
    ) {
        color[v] = 1;
        path.push(v);
        for &w in &adj[v] {
            if color[w] == 1 {
                let start = path.iter().position(|&x| x == w).unwrap_or(0);
                cycles.push(path[start..].to_vec());
            } else if color[w] == 0 {
                dfs(w, adj, color, path, cycles);
            }
        }
        path.pop();
        color[v] = 2;
    }
    let mut cycles = Vec::new();
    for v in 0..n {
        if color[v] == 0 {
            dfs(v, &adj, &mut color, &mut stack_path, &mut cycles);
        }
    }
    let msg_path = p
        .files
        .iter()
        .find(|f| f.src.path.ends_with("msg.rs"))
        .map(|f| f.src.path.clone())
        .unwrap_or_default();
    for cy in cycles {
        let names: Vec<&str> = cy.iter().map(|&i| g.classes[i].name.as_str()).collect();
        out.push(Finding {
            rule: "msg_class_cycle",
            file: msg_path.clone(),
            line: g.classes[cy[0]].line,
            message: format!(
                "same-vnet cycle without an audited edge: {} -> {}",
                names.join(" -> "),
                names[0]
            ),
            waived_by: None,
        });
    }
}

/// Producer/consumer coverage. Origin classes (vnet 0, core-originated)
/// need no producer; every class needs a consumer.
fn check_endpoints(
    p: &Parsed,
    used: &mut [bool],
    out: &mut Vec<Finding>,
    g: &Graph,
    msg_file: usize,
    consumed: &[bool],
) {
    let pf = &p.files[msg_file];
    for (ci, c) in g.classes.iter().enumerate() {
        let produced = g.edges.iter().any(|e| e.to == ci && e.from != e.to);
        if c.vnet != 0 && !produced {
            let waived_by = p.match_waiver(
                used,
                msg_file,
                "msg_no_producer",
                c.line,
                None,
                Some(&c.name),
            );
            out.push(Finding {
                rule: "msg_no_producer",
                file: pf.src.path.clone(),
                line: c.line,
                message: format!(
                    "MsgClass::{} (vnet {}) is never emitted by any flow",
                    c.name, c.vnet
                ),
                waived_by,
            });
        }
        if !consumed[ci] {
            let waived_by = p.match_waiver(
                used,
                msg_file,
                "msg_no_consumer",
                c.line,
                None,
                Some(&c.name),
            );
            out.push(Finding {
                rule: "msg_no_consumer",
                file: pf.src.path.clone(),
                line: c.line,
                message: format!(
                    "MsgClass::{} is consumed by no annotated flow (no lint:consumes/context)",
                    c.name
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

    const MSG: &str = "pub enum MsgClass { Req, Fwd, Dat }\nimpl MsgClass {\n pub const fn vnet(self) -> u8 {\n  match self {\n   MsgClass::Req => 0,\n   MsgClass::Fwd => 1,\n   MsgClass::Dat => 2,\n  }\n }\n}\n";

    fn run_on(flow: &str) -> (Graph, Vec<Finding>) {
        let p = Parsed::build(&Workspace {
            files: vec![
                SourceFile {
                    krate: "common".into(),
                    path: "crates/common/src/msg.rs".into(),
                    text: MSG.into(),
                },
                SourceFile {
                    krate: "core".into(),
                    path: "crates/core/src/flow.rs".into(),
                    text: flow.into(),
                },
            ],
        });
        let mut used = vec![false; p.waivers.len()];
        let mut out = Vec::new();
        let g = run(&p, &mut used, &mut out);
        (g, out)
    }

    #[test]
    fn vnet_arms_parse() {
        let arms = scan_vnet_arms("MsgClass::A | MsgClass::B => 0, MsgClass::C => 12,");
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0], (vec!["A".into(), "B".into()], 0));
        assert_eq!(arms[1], (vec!["C".into()], 12));
    }

    #[test]
    fn monotone_edge_is_clean_and_descent_fires() {
        let (g, out) = run_on(
            "impl Sys {\n // lint:consumes(Req)\n fn serve(&mut self, st: &mut Stats) { st.msg(MsgClass::Fwd, 8); }\n // lint:consumes(Dat)\n fn resp(&mut self, st: &mut Stats) { st.msg(MsgClass::Req, 8); }\n // lint:consumes(Fwd)\n fn fwd(&mut self, st: &mut Stats) { st.msg(MsgClass::Dat, 8); }\n}",
        );
        assert_eq!(g.edges.len(), 3);
        let cyc: Vec<_> = out.iter().filter(|f| f.rule == "msg_class_cycle").collect();
        assert_eq!(cyc.len(), 1);
        assert!(cyc[0].message.contains("Dat"));
        assert!(cyc[0].waived_by.is_none());
    }

    #[test]
    fn audited_descent_is_waived() {
        let (g, out) = run_on(
            "impl Sys {\n // lint:consumes(Req)\n fn a(&mut self, st: &mut Stats) { st.msg(MsgClass::Fwd, 8); }\n // lint:consumes(Fwd)\n fn f(&mut self, st: &mut Stats) { st.msg(MsgClass::Dat, 8); }\n // lint:consumes(Dat)\n fn retry(&mut self, st: &mut Stats) {\n  // lint:allow(msg_class_cycle, bounded backoff)\n  st.msg(MsgClass::Req, 8);\n }\n}",
        );
        let cyc: Vec<_> = out.iter().filter(|f| f.rule == "msg_class_cycle").collect();
        assert_eq!(cyc.len(), 1);
        assert!(cyc[0].waived_by.is_some());
        assert!(g.edges.iter().any(|e| e.audited));
    }

    #[test]
    fn context_scopes_to_block_and_pops() {
        let (g, out) = run_on(
            "impl Sys {\n // lint:consumes(Req)\n fn serve(&mut self, st: &mut Stats) {\n  if x {\n   // lint:context(Fwd)\n   st.msg(MsgClass::Dat, 8);\n  }\n  st.msg(MsgClass::Fwd, 8);\n }\n}",
        );
        assert!(out.iter().all(|f| f.rule != "msg_class_cycle"), "{out:?}");
        let pairs: Vec<(usize, usize)> = g.edges.iter().map(|e| (e.from, e.to)).collect();
        assert!(pairs.contains(&(1, 2))); // Fwd -> Dat (context)
        assert!(pairs.contains(&(0, 1))); // Req -> Fwd (after block pop)
    }

    #[test]
    fn unrooted_emission_and_endpoints() {
        let (_, out) = run_on(
            "impl Sys {\n fn mystery(&mut self, st: &mut Stats) { st.msg(MsgClass::Dat, 8); }\n}",
        );
        assert!(out.iter().any(|f| f.rule == "unrooted_emission"));
        assert!(out
            .iter()
            .any(|f| f.rule == "msg_no_producer" && f.message.contains("Fwd")));
        assert!(out.iter().any(|f| f.rule == "msg_no_consumer"));
    }

    #[test]
    fn self_edges_are_exempt() {
        let (_, out) = run_on(
            "impl Sys {\n // lint:consumes(Req)\n fn ingress(&mut self, st: &mut Stats) { st.msg(MsgClass::Req, 8); // lint:emits(Fwd)\n }\n // lint:consumes(Fwd)\n fn f(&mut self, st: &mut Stats) { st.msg(MsgClass::Dat, 8); }\n // lint:consumes(Dat)\n fn d(&mut self) {}\n}",
        );
        assert!(out.iter().all(|f| f.rule != "msg_class_cycle"), "{out:?}");
    }
}
