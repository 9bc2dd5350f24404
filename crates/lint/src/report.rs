//! Report assembly: waiver meta-findings, text rendering, and the
//! machine-readable `lint_report.json` / `msg_classes.dot` artifacts.
//! Both emitters are hand-rolled — the workspace builds with zero
//! external crates, so no serde.

use crate::model::{Finding, Parsed};
use crate::protocol_graph::Graph;

/// Every rule the analyzer can report, in display order.
pub const ALL_RULES: [&str; 12] = [
    "nondeterministic_map",
    "wall_clock",
    "thread_spawn",
    "ambient_randomness",
    "snapshot_complete",
    "msg_class_cycle",
    "msg_no_producer",
    "msg_no_consumer",
    "unrooted_emission",
    "unseen_emission",
    "waiver_no_reason",
    "waiver_unused",
];

#[derive(Debug)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// `(file, line, rule, reason, used)` for every waiver in the tree.
    pub waivers: Vec<(String, u32, String, String, bool)>,
    pub graph: Graph,
}

impl Report {
    /// Findings not covered by a waiver — the CI-failing set.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived_by.is_none())
    }

    /// `(rule, total, unwaived)` per rule, all rules listed.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize, usize)> {
        ALL_RULES
            .iter()
            .map(|&r| {
                let total = self.findings.iter().filter(|f| f.rule == r).count();
                let open = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == r && f.waived_by.is_none())
                    .count();
                (r, total, open)
            })
            .collect()
    }

    /// Appends the waiver meta-findings (`waiver_no_reason`,
    /// `waiver_unused`) once the passes have marked usage.
    pub fn add_waiver_findings(&mut self, p: &Parsed, used: &[bool]) {
        for (wi, w) in p.waivers.iter().enumerate() {
            let path = p.files[w.file].src.path.clone();
            if w.reason.is_empty() {
                self.findings.push(Finding {
                    rule: "waiver_no_reason",
                    file: path.clone(),
                    line: w.line,
                    message: format!("waiver for `{}` carries no justification", w.rule),
                    waived_by: None,
                });
            }
            if !used[wi] {
                self.findings.push(Finding {
                    rule: "waiver_unused",
                    file: path.clone(),
                    line: w.line,
                    message: format!("waiver for `{}` suppresses nothing — remove it", w.rule),
                    waived_by: None,
                });
            }
            self.waivers
                .push((path, w.line, w.rule.clone(), w.reason.clone(), used[wi]));
        }
    }

    /// Human summary for the terminal / CI log.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in self.unwaived() {
            s.push_str(&format!(
                "error[{}]: {}:{}: {}\n",
                f.rule, f.file, f.line, f.message
            ));
        }
        let open = self.unwaived().count();
        let waived = self.findings.len() - open;
        s.push_str(&format!(
            "zerodev-lint: {} finding(s) — {open} un-waived, {waived} waived ({} waiver(s) in tree); \
             msg-class graph: {} classes, {} edges, {} audited\n",
            self.findings.len(),
            self.waivers.len(),
            self.graph.classes.len(),
            self.graph.edges.len(),
            self.graph.edges.iter().filter(|e| e.audited).count(),
        ));
        s
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"waived\": {}, \"message\": {}}}",
                js(f.rule),
                js(&f.file),
                f.line,
                f.waived_by.is_some(),
                js(&f.message)
            ));
        }
        s.push_str("\n  ],\n  \"waivers\": [");
        for (i, (file, line, rule, reason, used)) in self.waivers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {line}, \"rule\": {}, \"reason\": {}, \"used\": {used}}}",
                js(file),
                js(rule),
                js(reason)
            ));
        }
        s.push_str("\n  ],\n  \"msg_class_graph\": {\n    \"classes\": [");
        for (i, c) in self.graph.classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"name\": {}, \"vnet\": {}}}",
                js(&c.name),
                c.vnet
            ));
        }
        s.push_str("\n    ],\n    \"edges\": [");
        let mut first = true;
        for (from, to, audited, self_edge) in self.dedup_edges() {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n      {{\"from\": {}, \"to\": {}, \"audited\": {audited}, \"self\": {self_edge}}}",
                js(&self.graph.classes[from].name),
                js(&self.graph.classes[to].name)
            ));
        }
        s.push_str("\n    ]\n  },\n  \"summary\": {");
        for (i, (rule, total, open)) in self.rule_counts().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {{\"findings\": {total}, \"unwaived\": {open}}}",
                js(rule)
            ));
        }
        s.push_str(&format!(
            "\n  }},\n  \"waiver_count\": {},\n  \"unwaived_count\": {}\n}}\n",
            self.waivers.len(),
            self.unwaived().count()
        ));
        s
    }

    /// Unique `(from, to, audited, self)` edges, class order.
    fn dedup_edges(&self) -> Vec<(usize, usize, bool, bool)> {
        let mut v: Vec<(usize, usize, bool, bool)> = Vec::new();
        for e in &self.graph.edges {
            match v.iter_mut().find(|(f, t, _, _)| *f == e.from && *t == e.to) {
                Some((_, _, a, _)) => *a |= e.audited,
                None => v.push((e.from, e.to, e.audited, e.from == e.to)),
            }
        }
        v.sort_unstable_by_key(|&(f, t, _, _)| (f, t));
        v
    }

    /// GraphViz rendering of the message-class graph, ranks as clusters.
    pub fn to_dot(&self) -> String {
        let mut s = String::from(
            "// MsgClass consumes->emits dependency graph (zerodev-lint pass 3).\n\
             // Solid: vnet-monotone edge. Bold red: audited descent (a waived msg_class_cycle).\n\
             // Dashed: self-edge (same-VN hop / ingress accounting), exempt from cycle checks.\n\
             digraph msg_classes {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
        );
        let max_rank = self.graph.classes.iter().map(|c| c.vnet).max().unwrap_or(0);
        for rank in 0..=max_rank {
            let members: Vec<&str> = self
                .graph
                .classes
                .iter()
                .filter(|c| c.vnet == rank)
                .map(|c| c.name.as_str())
                .collect();
            if members.is_empty() {
                continue;
            }
            s.push_str(&format!(
                "  subgraph cluster_vnet{rank} {{\n    label=\"vnet {rank}\";\n"
            ));
            for m in members {
                s.push_str(&format!("    {m};\n"));
            }
            s.push_str("  }\n");
        }
        for (from, to, audited, self_edge) in self.dedup_edges() {
            let attrs = if audited {
                " [color=red, style=bold, label=\"audited\"]"
            } else if self_edge {
                " [style=dashed]"
            } else {
                ""
            };
            s.push_str(&format!(
                "  {} -> {}{attrs};\n",
                self.graph.classes[from].name, self.graph.classes[to].name
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// JSON string literal with escaping.
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_graph::{ClassInfo, Edge};

    fn tiny_report() -> Report {
        Report {
            findings: vec![Finding {
                rule: "wall_clock",
                file: "a.rs".into(),
                line: 3,
                message: "x \"quoted\"".into(),
                waived_by: None,
            }],
            waivers: vec![("a.rs".into(), 1, "wall_clock".into(), "why".into(), true)],
            graph: Graph {
                classes: vec![
                    ClassInfo {
                        name: "A".into(),
                        vnet: 0,
                        line: 1,
                    },
                    ClassInfo {
                        name: "B".into(),
                        vnet: 1,
                        line: 2,
                    },
                ],
                edges: vec![
                    Edge {
                        from: 0,
                        to: 1,
                        file: "f".into(),
                        line: 1,
                        audited: false,
                    },
                    Edge {
                        from: 1,
                        to: 0,
                        file: "f".into(),
                        line: 2,
                        audited: true,
                    },
                ],
            },
        }
    }

    #[test]
    fn json_is_escaped_and_counts_match() {
        let j = tiny_report().to_json();
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"unwaived_count\": 1"));
        assert!(j.contains("\"waiver_count\": 1"));
        assert!(j.contains("\"audited\": true"));
    }

    #[test]
    fn dot_marks_audited_edges() {
        let d = tiny_report().to_dot();
        assert!(d.contains("A -> B;"));
        assert!(d.contains("B -> A [color=red"));
        assert!(d.contains("cluster_vnet0"));
    }
}
