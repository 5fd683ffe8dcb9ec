//! The protocol conformance gate (`cargo xtask conformance`).
//!
//! Checks the implementation against `spec/protocol.toml` in three
//! directions:
//!
//! 1. **undocumented** — a
//!    `note_transition("machine", "From", "Event", "To")` call site in
//!    the code names an edge (or machine, or state) the spec does not
//!    declare;
//! 2. **unimplemented** — the spec declares an edge with no call site
//!    anywhere in the protocol crates;
//! 3. **uncovered** — a declared, implemented edge that the
//!    deterministic coverage scenarios
//!    ([`totem_cluster::scenarios::run_all`]) never exercised.
//!
//! Static extraction is lexer-based (the same token stream the lint
//! rules use): a transition call site is the token run
//! `note_transition ( "a" , "b" , "c" , "d" )`, which is why the
//! recording convention requires four string literals at every call
//! site. Test code (`#[cfg(test)]`) is ignored.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::lexer::{self, Kind};
use crate::rules;
use crate::spec::{Spec, SpecTransition};

/// One `note_transition` call site found in the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeSite {
    /// The `(machine, from, event, to)` named at the call site.
    pub key: (String, String, String, String),
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// The outcome of the conformance analysis.
#[derive(Debug, Default)]
pub struct Report {
    /// Call sites naming edges the spec does not declare (with the
    /// reason: unknown machine, unknown state, or unknown edge).
    pub undocumented: Vec<(CodeSite, String)>,
    /// Spec edges with no call site.
    pub unimplemented: Vec<SpecTransition>,
    /// Spec edges implemented but never exercised by the scenarios.
    pub uncovered: Vec<SpecTransition>,
    /// Per-spec-edge detail rows, in spec order:
    /// `(transition, call sites, times exercised)`.
    pub rows: Vec<(SpecTransition, Vec<CodeSite>, u64)>,
    /// `(scenario name, transitions observed)`, in execution order.
    pub scenarios: Vec<(String, usize)>,
}

impl Report {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.undocumented.is_empty() && self.unimplemented.is_empty() && self.uncovered.is_empty()
    }
}

/// Extracts every non-test `note_transition("..", "..", "..", "..")`
/// call site from `src/**/*.rs` of every first-party crate.
///
/// # Errors
///
/// Returns a description of the first unreadable file or directory.
pub fn extract_sites(root: &Path) -> Result<Vec<CodeSite>, String> {
    let mut sites = Vec::new();
    for krate in rules::discover_crates(root)? {
        let src_dir = krate.dir.join("src");
        let mut files = Vec::new();
        rules::collect_rs(&src_dir, &mut files);
        files.sort();
        for path in files {
            let src = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            extract_from_source(&rel, &src, &mut sites);
        }
    }
    Ok(sites)
}

/// Extracts call sites from one file's source text.
fn extract_from_source(file: &str, src: &str, out: &mut Vec<CodeSite>) {
    let toks = lexer::lex(src);
    let test_mask = rules::cfg_test_mask(&toks);
    let is = |i: usize, kind: Kind, text: &str| {
        toks.get(i).is_some_and(|t| t.kind == kind && t.text == text)
    };
    let str_at = |i: usize| {
        toks.get(i).filter(|t| t.kind == Kind::Str).map(|t| lexer::str_body(&t.text).to_string())
    };
    for i in 0..toks.len() {
        if test_mask[i] || !(toks[i].kind == Kind::Ident && toks[i].text == "note_transition") {
            continue;
        }
        // note_transition ( "m" , "from" , "event" , "to" [,] )
        // — rustfmt adds a trailing comma when it breaks the call
        // across lines, so both closings are accepted.
        let (Some(machine), Some(from), Some(event), Some(to)) =
            (str_at(i + 2), str_at(i + 4), str_at(i + 6), str_at(i + 8))
        else {
            continue;
        };
        let closed = is(i + 9, Kind::Punct, ")")
            || (is(i + 9, Kind::Punct, ",") && is(i + 10, Kind::Punct, ")"));
        let shape = is(i + 1, Kind::Punct, "(")
            && is(i + 3, Kind::Punct, ",")
            && is(i + 5, Kind::Punct, ",")
            && is(i + 7, Kind::Punct, ",")
            && closed;
        if shape {
            out.push(CodeSite {
                key: (machine, from, event, to),
                file: file.to_string(),
                line: toks[i].line,
            });
        }
    }
}

/// Runs the full conformance analysis: static extraction, spec diff,
/// and scenario coverage.
///
/// # Errors
///
/// Returns a description of an I/O or spec-parse failure (distinct
/// from conformance *violations*, which land in the [`Report`]).
pub fn analyze(root: &Path, spec: &Spec) -> Result<Report, String> {
    let sites = extract_sites(root)?;
    let mut report = Report::default();

    // Spec lookup structures.
    let mut edge_sites: BTreeMap<(&str, &str, &str, &str), Vec<&CodeSite>> = BTreeMap::new();
    for t in &spec.transitions {
        edge_sites.insert(t.key(), Vec::new());
    }

    // Direction 1: every call site must name a documented edge.
    for site in &sites {
        let (m, f, e, t) = &site.key;
        let key = (m.as_str(), f.as_str(), e.as_str(), t.as_str());
        if let Some(list) = edge_sites.get_mut(&key) {
            list.push(site);
            continue;
        }
        let reason = match spec.machines.get(m) {
            None => format!("unknown machine `{m}`"),
            Some(machine) => {
                if let Some(state) = [f, t].into_iter().find(|s| !machine.states.contains(s)) {
                    format!("state `{state}` is not declared for machine `{m}`")
                } else {
                    format!("edge `{f} --{e}--> {t}` is not documented for machine `{m}`")
                }
            }
        };
        report.undocumented.push((site.clone(), reason));
    }

    // Scenario coverage.
    let mut exercised: BTreeMap<(String, String, String, String), u64> = BTreeMap::new();
    for scenario in totem_cluster::scenarios::run_all() {
        report.scenarios.push((scenario.name.to_string(), scenario.transitions.len()));
        for tr in scenario.transitions {
            *exercised
                .entry((
                    tr.machine.to_string(),
                    tr.from.to_string(),
                    tr.event.to_string(),
                    tr.to.to_string(),
                ))
                .or_insert(0) += 1;
        }
    }

    // Directions 2 and 3, plus the per-edge detail rows.
    for t in &spec.transitions {
        let sites: Vec<CodeSite> =
            edge_sites.get(&t.key()).into_iter().flatten().map(|s| (*s).clone()).collect();
        let count = exercised
            .get(&(t.machine.clone(), t.from.clone(), t.event.clone(), t.to.clone()))
            .copied()
            .unwrap_or(0);
        if sites.is_empty() {
            report.unimplemented.push(t.clone());
        } else if count == 0 {
            report.uncovered.push(t.clone());
        }
        report.rows.push((t.clone(), sites, count));
    }
    Ok(report)
}

/// Renders the transition-coverage table as GitHub-flavoured markdown
/// (published as the CI job summary).
pub fn markdown(report: &Report) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "## Protocol conformance");
    let _ = writeln!(md);
    let status = if report.is_clean() { "✅ clean" } else { "❌ violations" };
    let _ = writeln!(
        md,
        "{status} — {} spec transitions, {} undocumented, {} unimplemented, {} uncovered",
        report.rows.len(),
        report.undocumented.len(),
        report.unimplemented.len(),
        report.uncovered.len(),
    );
    let _ = writeln!(md);
    let _ = writeln!(md, "| machine | transition | call sites | exercised |");
    let _ = writeln!(md, "|---|---|---|---:|");
    for (t, sites, count) in &report.rows {
        let sites_cell = if sites.is_empty() {
            "**unimplemented**".to_string()
        } else {
            sites
                .iter()
                .map(|s| format!("`{}:{}`", s.file, s.line))
                .collect::<Vec<_>>()
                .join("<br>")
        };
        let count_cell = if *count == 0 { "**0**".to_string() } else { count.to_string() };
        let _ = writeln!(
            md,
            "| {} | {} --{}--> {} | {} | {} |",
            t.machine, t.from, t.event, t.to, sites_cell, count_cell
        );
    }
    if !report.undocumented.is_empty() {
        let _ = writeln!(md);
        let _ = writeln!(md, "### Undocumented call sites");
        let _ = writeln!(md);
        for (site, reason) in &report.undocumented {
            let (m, f, e, t) = &site.key;
            let _ = writeln!(
                md,
                "- `{}:{}` records `{m}: {f} --{e}--> {t}`: {reason}",
                site.file, site.line
            );
        }
    }
    let _ = writeln!(md);
    let _ = writeln!(md, "Coverage scenarios:");
    let _ = writeln!(md);
    for (name, n) in &report.scenarios {
        let _ = writeln!(md, "- `{name}` — {n} transitions observed");
    }
    md
}

/// Prints `file:line: conformance: ...` diagnostics for every
/// violation, mirroring the lint output contract.
pub fn print_diagnostics(report: &Report, spec_path: &str) {
    for (site, reason) in &report.undocumented {
        let (m, f, e, t) = &site.key;
        println!(
            "{}:{}: conformance: undocumented transition `{m}: {f} --{e}--> {t}` ({reason})",
            site.file, site.line
        );
    }
    for t in &report.unimplemented {
        println!(
            "{spec_path}:{}: conformance: unimplemented transition `{}: {} --{}--> {}` (no note_transition call site)",
            t.line, t.machine, t.from, t.event, t.to
        );
    }
    for t in &report.uncovered {
        println!(
            "{spec_path}:{}: conformance: uncovered transition `{}: {} --{}--> {}` (never exercised by the coverage scenarios)",
            t.line, t.machine, t.from, t.event, t.to
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn extracts_literal_call_sites_outside_tests() {
        let src = r#"
impl S {
    fn f(&mut self) {
        self.note_transition("m", "A", "Go", "B");
    }
}
#[cfg(test)]
mod tests {
    fn t(s: &mut super::S) {
        s.note_transition("m", "A", "TestOnly", "B");
    }
}
"#;
        let mut sites = Vec::new();
        extract_from_source("x.rs", src, &mut sites);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].key, ("m".into(), "A".into(), "Go".into(), "B".into()));
        assert_eq!(sites[0].line, 4);
    }

    #[test]
    fn multiline_calls_with_trailing_comma_are_extracted() {
        let src = "fn f(&mut self) {\n    self.note_transition(\n        \"m\",\n        \"A\",\n        \"Go\",\n        \"B\",\n    );\n}\n";
        let mut sites = Vec::new();
        extract_from_source("x.rs", src, &mut sites);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].line, 2);
    }

    #[test]
    fn non_literal_calls_are_ignored() {
        // The recording helper itself forwards variables; it must not
        // register as a call site.
        let src = "fn note_transition(&mut self, machine: &str) { self.t.push(machine); }\n\
                   fn g(&mut self) { self.note_transition(name); }";
        let mut sites = Vec::new();
        extract_from_source("x.rs", src, &mut sites);
        assert!(sites.is_empty());
    }

    fn tiny_spec() -> Spec {
        spec::parse(
            "[machine.m]\nstates = [\"A\", \"B\"]\n\
             [[transition.m]]\nfrom = \"A\"\nevent = \"Go\"\nto = \"B\"\n",
        )
        .unwrap()
    }

    #[test]
    fn undocumented_reasons_distinguish_machine_state_edge() {
        let spec = tiny_spec();
        let classify = |key: (&str, &str, &str, &str)| {
            let site = CodeSite {
                key: (key.0.into(), key.1.into(), key.2.into(), key.3.into()),
                file: "x.rs".into(),
                line: 1,
            };
            let (m, f, e, t) = &site.key;
            match spec.machines.get(m) {
                None => "machine",
                Some(machine) => {
                    if [f, t].into_iter().any(|s| !machine.states.contains(s)) {
                        "state"
                    } else {
                        let _ = e;
                        "edge"
                    }
                }
            }
        };
        assert_eq!(classify(("ghost", "A", "Go", "B")), "machine");
        assert_eq!(classify(("m", "A", "Go", "Z")), "state");
        assert_eq!(classify(("m", "B", "Back", "A")), "edge");
    }

    #[test]
    fn markdown_table_lists_every_spec_edge() {
        let spec = tiny_spec();
        let report = Report {
            rows: vec![(
                spec.transitions[0].clone(),
                vec![CodeSite {
                    key: ("m".into(), "A".into(), "Go".into(), "B".into()),
                    file: "crates/x/src/l.rs".into(),
                    line: 7,
                }],
                3,
            )],
            scenarios: vec![("s1".into(), 3)],
            ..Report::default()
        };
        let md = markdown(&report);
        assert!(md.contains("| m | A --Go--> B | `crates/x/src/l.rs:7` | 3 |"), "{md}");
        assert!(md.contains("✅ clean"), "{md}");
    }
}
