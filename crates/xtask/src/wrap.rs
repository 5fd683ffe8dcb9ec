//! `cargo xtask wrap-audit` — the serial-arithmetic wrap-safety gate.
//!
//! RFC 1982 serial counters (the SRP sequence number, the token
//! rotation) compare correctly only through `follows`/`at_or_after`;
//! a raw `<` works for the first 2^63 increments and then silently
//! inverts at the wrap. The type system carries most of the load —
//! `Seq` and `Rotation` deliberately do not implement
//! `Ord`/`PartialOrd`, so a raw comparison is a compile error — but
//! three gaps remain that only a source-level audit can close:
//!
//! * a future counter added as a bare `u64` re-opens every hazard the
//!   newtypes closed;
//! * the newtypes themselves could regrow a derived `Ord` in a
//!   refactor, and nothing in the test suite would fail until the
//!   first wrap 2^63 increments later;
//! * truncating `as` casts of any 64-bit counter lose high bits
//!   regardless of comparison discipline.
//!
//! The audit is driven by a machine-readable counter registry,
//! `spec/counters.toml` (a sibling of `spec/protocol.toml`), declaring
//! every protocol counter with its wrap semantics:
//!
//! * `serial` — RFC 1982 wrapping; ordered only via
//!   `follows`/`at_or_after`, incremented only via `next()`;
//! * `monotone` — never wraps within a ring lifetime (64-bit at
//!   nanosecond-scale increment rates outlives the hardware); raw
//!   comparison and `max` are legal;
//! * `epoch` — reset on ring reformation (flow-control counts); raw
//!   arithmetic within an epoch is legal.
//!
//! Four rules run over the token stream of the hand-rolled lexer
//! ([`crate::lexer`]):
//!
//! * **wrap-serial-compare** — raw ordering (`<` `>` `<=` `>=`,
//!   `.min()`/`.max()`/`.cmp()`/`.sort*()`) adjacent to a registered
//!   *raw-typed* serial counter, plus `Ord`/`PartialOrd` in a
//!   `derive(...)` on a registered serial newtype;
//! * **wrap-bare-increment** — `+`/`+=`/`.wrapping_add()` on a
//!   raw-typed serial counter, bypassing the newtype `next()` (which
//!   encodes the reserved-zero skip);
//! * **wrap-truncating-cast** — `as u8/u16/u32/usize/...` with a
//!   registered counter in the cast operand;
//! * **wrap-registry-drift** — both directions: a declared counter
//!   whose identifier appears nowhere in the workspace, and a
//!   counter-shaped raw integer field in a protocol crate that the
//!   registry does not declare.
//!
//! Newtype-protected counters (declared type `Seq`/`Rotation`/
//! `Incarnation`) are exempt from the identifier-level rules — the
//! compiler enforces their discipline — but their types are policed
//! structurally (the derive check) and their declarations anchor the
//! drift check. Diagnostics are `file:line: rule: message`; exit codes
//! are 0 (clean), 1 (violations), 2 (usage/IO error), matching the
//! other gates.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use totem_cluster::toml;

use crate::lexer::{self, Kind, Token};
use crate::rules::{self, Finding, Rule, PROTOCOL_CRATES};
use crate::{append_file, markdown_flag, usage_error, workspace_root};

/// Wrap semantics of one registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// RFC 1982 serial arithmetic: wraps, ordered via `follows`.
    Serial,
    /// Never wraps within a ring lifetime; raw ordering is legal.
    Monotone,
    /// Reset on ring reformation; raw arithmetic within an epoch is
    /// legal.
    Epoch,
}

impl CounterKind {
    /// The name used in `spec/counters.toml`.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::Serial => "serial",
            CounterKind::Monotone => "monotone",
            CounterKind::Epoch => "epoch",
        }
    }

    fn parse(s: &str) -> Option<CounterKind> {
        match s {
            "serial" => Some(CounterKind::Serial),
            "monotone" => Some(CounterKind::Monotone),
            "epoch" => Some(CounterKind::Epoch),
            _ => None,
        }
    }
}

/// One declared protocol counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// Identifier the counter appears as in source (field name).
    pub ident: String,
    /// Wrap semantics.
    pub kind: CounterKind,
    /// Canonical type: a newtype (`Seq`, `Rotation`, `Incarnation`)
    /// when the compiler enforces the discipline, or a raw integer
    /// type when only this audit does.
    pub ty: String,
    /// Free-text rationale; required for `monotone` entries, which
    /// must justify why the counter cannot wrap.
    pub doc: String,
    /// Line of the `[[counter]]` header (for drift diagnostics).
    pub line: u32,
}

impl Counter {
    /// True when the declared type is a raw integer, i.e. nothing but
    /// this audit enforces the counter's discipline.
    pub fn is_raw(&self) -> bool {
        matches!(self.ty.as_str(), "u8" | "u16" | "u32" | "u64" | "u128" | "usize")
    }
}

/// The parsed counter registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    /// Declared counters, in file order.
    pub counters: Vec<Counter>,
}

impl Registry {
    /// Parses the `[[counter]]` schema (see `spec/counters.toml`),
    /// validating that idents are unique, kinds are known, and
    /// monotone entries carry a justification.
    ///
    /// # Errors
    ///
    /// Returns a `"line N: reason"` description of the first problem.
    pub fn parse(text: &str) -> Result<Registry, String> {
        let doc = toml::parse(text)?;
        if let Some(e) = doc.top.entries.first() {
            return Err(format!("line {}: `{}` outside a [[counter]] entry", e.line, e.key));
        }
        let mut counters = Vec::new();
        let mut seen = BTreeSet::new();
        for t in &doc.tables {
            if !(t.array && t.name == "counter") {
                return Err(format!("line {}: unrecognized section header `{}`", t.line, t.name));
            }
            t.only(&["ident", "kind", "type", "doc"], "counter")?;
            let (Some(ident), Some(kind), Some(ty)) = (
                t.get_opt::<&str>("ident")?,
                t.get_opt::<&str>("kind")?,
                t.get_opt::<&str>("type")?,
            ) else {
                return Err(format!("line {}: counter needs `ident`, `kind` and `type`", t.line));
            };
            let kind = CounterKind::parse(kind).ok_or_else(|| {
                t.error("kind", format!("unknown kind `{kind}` (serial | monotone | epoch)"))
            })?;
            if ident.is_empty() || !ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("line {}: `{ident}` is not an identifier", t.line));
            }
            if !seen.insert(ident) {
                return Err(format!("line {}: counter `{ident}` declared twice", t.line));
            }
            let doc = t.get_opt::<&str>("doc")?.unwrap_or_default();
            if kind == CounterKind::Monotone && doc.is_empty() {
                return Err(format!(
                    "line {}: monotone counter `{ident}` must carry a `doc` justifying why it cannot wrap",
                    t.line
                ));
            }
            counters.push(Counter {
                ident: ident.to_string(),
                kind,
                ty: ty.to_string(),
                doc: doc.to_string(),
                line: t.line,
            });
        }
        Ok(Registry { counters })
    }

    /// Serializes back to the `[[counter]]` format; `parse` of the
    /// output reproduces the registry (round-trip pinned by proptest).
    #[cfg(test)]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str("[[counter]]\n");
            out.push_str(&format!("ident = \"{}\"\n", c.ident));
            out.push_str(&format!("kind = \"{}\"\n", c.kind.name()));
            out.push_str(&format!("type = \"{}\"\n", c.ty));
            if !c.doc.is_empty() {
                out.push_str(&format!("doc = \"{}\"\n", c.doc));
            }
            out.push('\n');
        }
        out
    }

    /// Loads `spec/counters.toml` under the workspace root.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O or parse failure.
    pub fn load(root: &Path) -> Result<Registry, String> {
        let path = root.join("spec").join("counters.toml");
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The declared counter with this source identifier.
    pub fn counter(&self, ident: &str) -> Option<&Counter> {
        self.counters.iter().find(|c| c.ident == ident)
    }

    /// Idents of raw-typed serial counters — the set the
    /// identifier-level compare/increment rules police (newtype-typed
    /// counters are compiler-enforced instead).
    fn raw_serial_idents(&self) -> BTreeSet<&str> {
        self.counters
            .iter()
            .filter(|c| c.kind == CounterKind::Serial && c.is_raw())
            .map(|c| c.ident.as_str())
            .collect()
    }

    /// Types of serial counters that are newtypes — the set the
    /// derive-`Ord` structural check polices.
    fn serial_newtypes(&self) -> BTreeSet<&str> {
        self.counters
            .iter()
            .filter(|c| c.kind == CounterKind::Serial && !c.is_raw())
            .map(|c| c.ty.as_str())
            .collect()
    }

    /// Every registered identifier (the truncating-cast rule applies
    /// to all kinds: narrowing any counter loses high bits).
    fn all_idents(&self) -> BTreeSet<&str> {
        self.counters.iter().map(|c| c.ident.as_str()).collect()
    }
}

/// Narrow integer types whose `as` casts truncate a 64-bit counter.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize"];

/// Method names that impose a raw total order.
const ORDERING_METHODS: &[&str] = &[
    "min",
    "max",
    "cmp",
    "partial_cmp",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by_key",
    "clamp",
];

/// Runs the token-level wrap rules over one source file.
///
/// Pure function over source text so the negative-fixture tests can
/// feed known-bad snippets without touching the filesystem.
pub fn analyze_source(reg: &Registry, krate: &str, file: &str, src: &str) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let test_mask = rules::cfg_test_mask(&toks);
    let mut findings = Vec::new();
    serial_ordering(reg, krate, file, &toks, &test_mask, &mut findings);
    derive_ord_on_serial_newtypes(reg, krate, file, &toks, &test_mask, &mut findings);
    bare_increments(reg, krate, file, &toks, &test_mask, &mut findings);
    truncating_casts(reg, krate, file, &toks, &test_mask, &mut findings);
    findings
}

/// Raw `<` `>` `<=` `>=` and ordering-method calls adjacent to a
/// raw-typed serial counter. Adjacency is deliberate: an explicit
/// `.as_u64()` or `.ord_key()` in the operand is a visible, greppable
/// escape hatch and is not flagged.
fn serial_ordering(
    reg: &Registry,
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let serial = reg.raw_serial_idents();
    if serial.is_empty() {
        return;
    }
    // Angle brackets opened by a generic-argument position
    // (`Vec<...>`, `Foo::<...>`): their closing `>` is not an ordering
    // operator.
    let mut generic_depth = 0u32;
    for i in 0..toks.len() {
        let t = &toks[i];
        if test_mask[i] {
            continue;
        }
        if t.kind == Kind::Ident && serial.contains(t.text.as_str()) {
            // counter.min(..) / counter.cmp(..) / counters.sort() etc.
            if toks.get(i + 1).is_some_and(|d| d.text == ".")
                && toks.get(i + 2).is_some_and(|m| ORDERING_METHODS.contains(&m.text.as_str()))
            {
                rules::push(findings, Rule::WrapSerialCompare, krate, file, t.line,
                    format!("raw `.{}()` on serial counter `{}`; serial order needs `follows`/`serial_max` (RFC 1982)",
                        toks[i + 2].text, t.text));
            }
            continue;
        }
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text.as_str() {
            "<" => {
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let next = toks.get(i + 1);
                // `<<` shift, `<-`? no; part of `<<=` handled by the
                // first `<`.
                if prev.is_some_and(|p| p.text == "<") || next.is_some_and(|n| n.text == "<") {
                    continue;
                }
                // Generic-argument position: `Ident<` with an
                // uppercase head (`Vec<`, `Option<`) or a `::<`
                // turbofish.
                let generic_open = prev.is_some_and(|p| {
                    (p.kind == Kind::Ident
                        && p.text.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
                        || p.text == ":"
                });
                if generic_open {
                    generic_depth += 1;
                    continue;
                }
                check_ordering_op(reg, krate, file, toks, i, findings);
            }
            ">" => {
                if generic_depth > 0 {
                    generic_depth -= 1;
                    continue;
                }
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let next = toks.get(i + 1);
                // `->`, `=>`, `>>`.
                if prev.is_some_and(|p| p.text == "-" || p.text == "=" || p.text == ">")
                    || next.is_some_and(|n| n.text == ">")
                {
                    continue;
                }
                check_ordering_op(reg, krate, file, toks, i, findings);
            }
            _ => {}
        }
    }
}

/// Flags `toks[i]` (an ordering `<`/`>`, possibly followed by `=`)
/// when either adjacent operand token is a raw serial counter ident.
fn check_ordering_op(
    reg: &Registry,
    krate: &str,
    file: &str,
    toks: &[Token],
    i: usize,
    findings: &mut Vec<Finding>,
) {
    let serial = reg.raw_serial_idents();
    let op_len = if toks.get(i + 1).is_some_and(|n| n.text == "=") { 2 } else { 1 };
    let left = i.checked_sub(1).map(|p| &toks[p]);
    let right = toks.get(i + op_len);
    for side in [left, right].into_iter().flatten() {
        if side.kind == Kind::Ident && serial.contains(side.text.as_str()) {
            let op: String =
                if op_len == 2 { format!("{}=", toks[i].text) } else { toks[i].text.clone() };
            rules::push(findings, Rule::WrapSerialCompare, krate, file, toks[i].line,
                format!("raw `{op}` on serial counter `{}` inverts at the wrap; compare via `follows`/`at_or_after` (RFC 1982)",
                    side.text));
            return;
        }
    }
}

/// `Ord`/`PartialOrd` inside a `derive(...)` attribute on a struct or
/// enum whose name is a registered serial newtype. The newtypes'
/// entire point is that a raw total order does not exist for serial
/// counters; a derived `Ord` re-opens every comparison site at once.
fn derive_ord_on_serial_newtypes(
    reg: &Registry,
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let newtypes = reg.serial_newtypes();
    if newtypes.is_empty() {
        return;
    }
    let mut i = 0usize;
    while i < toks.len() {
        let is_derive = !test_mask[i]
            && toks[i].kind == Kind::Ident
            && toks[i].text == "derive"
            && i >= 2
            && toks[i - 1].text == "["
            && toks[i - 2].text == "#"
            && toks.get(i + 1).is_some_and(|n| n.text == "(");
        if !is_derive {
            i += 1;
            continue;
        }
        let close = rules::skip_balanced(toks, i + 1, "(", ")");
        let ord_lines: Vec<(u32, &str)> = toks[i + 1..close.saturating_sub(1)]
            .iter()
            .filter(|t| t.kind == Kind::Ident && matches!(t.text.as_str(), "Ord" | "PartialOrd"))
            .map(|t| (t.line, t.text.as_str()))
            .collect();
        // Find the annotated item: skip past `]`, further attributes,
        // and visibility, to `struct`/`enum` + its name.
        let mut j = close;
        while j < toks.len() && toks[j].text != "struct" && toks[j].text != "enum" {
            // Stop scanning at anything that can't be part of an item
            // header (another item's body, an expression...).
            if toks[j].kind == Kind::Punct && matches!(toks[j].text.as_str(), "{" | ";" | "=") {
                break;
            }
            j += 1;
        }
        if let Some(name) = toks.get(j + 1).filter(|n| n.kind == Kind::Ident) {
            if newtypes.contains(name.text.as_str()) {
                for (line, which) in &ord_lines {
                    rules::push(findings, Rule::WrapSerialCompare, krate, file, *line,
                        format!("derive(`{which}`) on serial newtype `{}`: serial counters have no total order; use `SerialOrdKey` at container-key sites",
                            name.text));
                }
            }
        }
        i = close;
    }
}

/// `counter + ...`, `counter += ...`, `counter.wrapping_add(...)` on a
/// raw-typed serial counter: a bare increment bypasses the newtype
/// `next()`, which encodes the reserved-zero skip.
fn bare_increments(
    reg: &Registry,
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let serial = reg.raw_serial_idents();
    if serial.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != Kind::Ident || !serial.contains(toks[i].text.as_str()) {
            continue;
        }
        let ident = &toks[i];
        if toks.get(i + 1).is_some_and(|n| n.text == "+") {
            let op = if toks.get(i + 2).is_some_and(|n| n.text == "=") { "+=" } else { "+" };
            rules::push(findings, Rule::WrapBareIncrement, krate, file, ident.line,
                format!("bare `{op}` on serial counter `{}` skips the wrap/reserved-zero handling; advance via `next()`",
                    ident.text));
        }
        if toks.get(i + 1).is_some_and(|d| d.text == ".")
            && toks.get(i + 2).is_some_and(|m| m.text == "wrapping_add")
        {
            rules::push(findings, Rule::WrapBareIncrement, krate, file, ident.line,
                format!("`.wrapping_add()` on serial counter `{}` bypasses `next()` (reserved-zero skip)",
                    ident.text));
        }
    }
}

/// `as <narrow type>` with a registered counter (any kind) in the cast
/// operand: narrowing a 64-bit counter silently drops high bits. The
/// operand scan walks back from `as` to the nearest expression
/// boundary.
fn truncating_casts(
    reg: &Registry,
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let idents = reg.all_idents();
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != Kind::Ident || toks[i].text != "as" {
            continue;
        }
        let Some(ty) = toks.get(i + 1).filter(|n| NARROW_TYPES.contains(&n.text.as_str())) else {
            continue;
        };
        // Walk the operand backwards; a comma, semicolon, brace, or
        // assignment bounds the expression being cast.
        let mut j = i;
        let mut hit: Option<&Token> = None;
        while let Some(p) = j.checked_sub(1) {
            let t = &toks[p];
            if t.kind == Kind::Punct && matches!(t.text.as_str(), "," | ";" | "{" | "}" | "=") {
                break;
            }
            if t.kind == Kind::Ident && idents.contains(t.text.as_str()) {
                hit = Some(t);
                break;
            }
            if i - p >= 6 {
                break;
            }
            j = p;
        }
        if let Some(counter) = hit {
            rules::push(findings, Rule::WrapTruncatingCast, krate, file, toks[i].line,
                format!("truncating cast of counter `{}` to `{}` drops high bits; keep the full 64-bit value",
                    counter.text, ty.text));
        }
    }
}

/// Name shapes that mark a raw integer field as a counter for the
/// drift check: exact counter names and their conventional suffixes.
const COUNTER_NAME_HEADS: &[&str] =
    &["seq", "aru", "rotation", "epoch", "fcc", "backlog", "incarnation"];
const COUNTER_NAME_SUFFIXES: &[&str] =
    &["_seq", "_aru", "_rot", "_rotation", "_epoch", "_fcc", "_backlog", "_incarnation"];

fn counter_shaped(name: &str) -> bool {
    COUNTER_NAME_HEADS.contains(&name) || COUNTER_NAME_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// What a full-workspace audit produced.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Every finding.
    pub findings: Vec<Finding>,
    /// Identifier occurrences per registered counter, workspace-wide
    /// (drives the declared-but-unused drift direction and the
    /// markdown table).
    pub usage: BTreeMap<String, u64>,
}

/// Runs the wrap rules over every `src/**/*.rs` file of every
/// first-party crate, plus the registry-drift checks.
///
/// # Errors
///
/// Returns a description of the I/O failure.
pub fn analyze_workspace(root: &Path, reg: &Registry) -> Result<AuditReport, String> {
    let mut report = AuditReport::default();
    for c in &reg.counters {
        report.usage.insert(c.ident.clone(), 0);
    }
    for krate in rules::discover_crates(root)? {
        let src_dir = krate.dir.join("src");
        let mut files = Vec::new();
        rules::collect_rs(&src_dir, &mut files);
        files.sort();
        for path in files {
            let src = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            report.findings.extend(analyze_source(reg, &krate.name, &rel, &src));

            let toks = lexer::lex(&src);
            for t in toks.iter().filter(|t| t.kind == Kind::Ident) {
                if let Some(n) = report.usage.get_mut(&t.text) {
                    *n += 1;
                }
            }
            if PROTOCOL_CRATES.contains(&krate.name.as_str()) {
                undeclared_raw_counters(reg, &krate.name, &rel, &toks, &mut report.findings);
            }
        }
    }
    for c in &reg.counters {
        if report.usage.get(&c.ident).copied().unwrap_or(0) == 0 {
            report.findings.push(Finding {
                rule: Rule::WrapRegistryDrift,
                krate: "spec".into(),
                file: "spec/counters.toml".into(),
                line: c.line,
                msg: format!(
                    "counter `{}` is declared but its identifier appears nowhere in the workspace",
                    c.ident
                ),
            });
        }
    }
    Ok(report)
}

/// The other drift direction: `name: u64`-style fields in protocol
/// crates whose name is counter-shaped but that the registry does not
/// declare.
fn undeclared_raw_counters(
    reg: &Registry,
    krate: &str,
    file: &str,
    toks: &[Token],
    findings: &mut Vec<Finding>,
) {
    let test_mask = rules::cfg_test_mask(toks);
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != Kind::Ident || !counter_shaped(&toks[i].text) {
            continue;
        }
        // Field/binding declaration shape: `name : u64` terminated by
        // `,` or `}` (a struct-literal init `name: expr` never has a
        // bare integer type ident there).
        let is_decl = toks.get(i + 1).is_some_and(|c| c.text == ":")
            && toks
                .get(i + 2)
                .is_some_and(|t| matches!(t.text.as_str(), "u8" | "u16" | "u32" | "u64" | "usize"))
            && toks.get(i + 3).is_some_and(|e| e.text == "," || e.text == "}");
        if is_decl && reg.counter(&toks[i].text).is_none() {
            rules::push(findings, Rule::WrapRegistryDrift, krate, file, toks[i].line,
                format!("counter-shaped field `{}: {}` is not declared in spec/counters.toml; declare it with kind serial/monotone/epoch",
                    toks[i].text, toks[i + 2].text));
        }
    }
}

/// Entry point for `cargo xtask wrap-audit`.
pub fn run(args: &[String]) -> ExitCode {
    let markdown_path = match markdown_flag(args) {
        Ok(path) => path,
        Err(e) => return usage_error(&e),
    };
    let Some(root) = workspace_root() else {
        eprintln!("error: cannot locate the workspace root (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };
    let reg = match Registry::load(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match analyze_workspace(&root, &reg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "wrap-audit: {} counter(s) ({} serial, {} monotone, {} epoch), {} finding(s)",
        reg.counters.len(),
        reg.counters.iter().filter(|c| c.kind == CounterKind::Serial).count(),
        reg.counters.iter().filter(|c| c.kind == CounterKind::Monotone).count(),
        reg.counters.iter().filter(|c| c.kind == CounterKind::Epoch).count(),
        report.findings.len()
    );

    if let Some(path) = &markdown_path {
        let md = markdown(&reg, &report);
        if let Err(e) = append_file(path, &md) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if report.findings.is_empty() {
        println!("wrap-audit: counter discipline clean");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// GitHub job-summary markdown: the per-counter registry table with
/// workspace usage counts, plus any findings.
fn markdown(reg: &Registry, report: &AuditReport) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "## Wrap-safety audit (`cargo xtask wrap-audit`)\n");
    let _ = writeln!(md, "| counter | kind | type | uses | semantics |");
    let _ = writeln!(md, "|---------|------|------|------|-----------|");
    for c in &reg.counters {
        let uses = report.usage.get(&c.ident).copied().unwrap_or(0);
        let _ = writeln!(
            md,
            "| `{}` | {} | `{}` | {} | {} |",
            c.ident,
            c.kind.name(),
            c.ty,
            uses,
            c.doc
        );
    }
    if report.findings.is_empty() {
        let _ = writeln!(md, "\nAll counters within discipline; zero findings.");
    } else {
        let _ = writeln!(md, "\n**{} finding(s):**\n", report.findings.len());
        for f in &report.findings {
            let _ = writeln!(md, "- `{}:{}` {}: {}", f.file, f.line, f.rule, f.msg);
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fixture registry with one raw serial counter (the shape the
    /// ident-level rules exist to police), one newtype serial counter,
    /// and one monotone counter.
    fn fixture_registry() -> Registry {
        Registry::parse(
            r#"
[[counter]]
ident = "seq_raw"
kind = "serial"
type = "u64"
doc = "fixture: a serial counter left as a raw integer"

[[counter]]
ident = "rotation"
kind = "serial"
type = "Rotation"
doc = "fixture: a newtype-protected serial counter"

[[counter]]
ident = "max_ring_seq"
kind = "monotone"
type = "u64"
doc = "fixture: monotone, raw ordering legal"
"#,
        )
        .expect("fixture registry parses")
    }

    fn findings(krate: &str, src: &str) -> Vec<Finding> {
        analyze_source(&fixture_registry(), krate, "test.rs", src)
    }

    // ---- negative fixtures: exactly one finding each -------------------

    #[test]
    fn raw_serial_comparison_is_one_finding() {
        let bad = "fn fresh(a: u64) -> bool { seq_raw < a }";
        let got = findings("totem-srp", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, Rule::WrapSerialCompare);
        assert_eq!(got[0].line, 1);
    }

    #[test]
    fn bare_increment_is_one_finding() {
        let bad = "fn advance() { seq_raw += 1; }";
        let got = findings("totem-srp", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, Rule::WrapBareIncrement);
    }

    #[test]
    fn truncating_cast_is_one_finding() {
        let bad = "fn shrink() -> u32 { max_ring_seq as u32 }";
        let got = findings("totem-srp", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, Rule::WrapTruncatingCast);
    }

    // ---- rule details ---------------------------------------------------

    #[test]
    fn monotone_raw_ordering_is_legal() {
        let ok = "fn f(x: u64) -> u64 { if x > max_ring_seq { x } else { max_ring_seq } }";
        assert!(findings("totem-srp", ok).is_empty());
    }

    #[test]
    fn ordering_methods_on_serial_are_flagged() {
        let bad = "fn f(x: u64) -> u64 { seq_raw.max(x) }";
        let got = findings("totem-srp", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, Rule::WrapSerialCompare);
    }

    #[test]
    fn generics_arrows_and_shifts_are_not_comparisons() {
        let ok = "
            fn f(v: Vec<u64>, o: Option<u64>) -> u64 { g::<u64>(v); seq_raw << 1; h() }
            fn g(x: u64) -> Option<u64> { match x { 0 => None, n => Some(n) } }
        ";
        assert!(findings("totem-srp", ok).is_empty());
    }

    #[test]
    fn wrapping_add_bypass_is_flagged() {
        let bad = "fn f() -> u64 { seq_raw.wrapping_add(1) }";
        let got = findings("totem-srp", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, Rule::WrapBareIncrement);
    }

    #[test]
    fn derive_ord_on_serial_newtype_is_flagged() {
        let bad = "#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]\npub struct Rotation(u64);";
        let got = findings("totem-wire", bad);
        assert_eq!(got.len(), 2, "{got:?}"); // PartialOrd and Ord
        assert!(got.iter().all(|f| f.rule == Rule::WrapSerialCompare));
    }

    #[test]
    fn derive_ord_on_other_types_is_fine() {
        let ok = "#[derive(PartialOrd, Ord)]\npub struct SerialOrdKey(u64);";
        assert!(findings("totem-wire", ok).is_empty());
    }

    #[test]
    fn explicit_escape_hatches_are_not_flagged() {
        // `.as_u64()` / `.ord_key()` chains are deliberate, visible
        // escapes; only direct adjacency fires.
        let ok = "fn f(r: Rotation, s: Rotation) -> bool { r.ord_key() < s.ord_key() }";
        assert!(findings("totem-srp", ok).is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let ok = "
            fn real() -> u64 { 0 }
            #[cfg(test)]
            mod tests {
                fn t() { assert!(seq_raw < 5); seq_raw += 1; }
            }
        ";
        assert!(findings("totem-srp", ok).is_empty());
    }

    #[test]
    fn undeclared_counter_shaped_field_is_drift() {
        let src = "pub struct S { pub next_rotation_seq: u64, pub unrelated: u64 }";
        let toks = lexer::lex(src);
        let mut findings = Vec::new();
        undeclared_raw_counters(&fixture_registry(), "totem-srp", "t.rs", &toks, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::WrapRegistryDrift);
        assert!(findings[0].msg.contains("next_rotation_seq"));
    }

    #[test]
    fn declared_fields_are_not_drift() {
        let src = "pub struct S { pub max_ring_seq: u64 }";
        let toks = lexer::lex(src);
        let mut findings = Vec::new();
        undeclared_raw_counters(&fixture_registry(), "totem-srp", "t.rs", &toks, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    // ---- registry parser ------------------------------------------------

    #[test]
    fn registry_rejects_duplicates_unknown_kinds_and_missing_fields() {
        let dup = "[[counter]]\nident = \"a\"\nkind = \"serial\"\ntype = \"u64\"\n[[counter]]\nident = \"a\"\nkind = \"serial\"\ntype = \"u64\"\n";
        assert!(Registry::parse(dup).unwrap_err().contains("declared twice"));
        let bad_kind = "[[counter]]\nident = \"a\"\nkind = \"sideways\"\ntype = \"u64\"\n";
        assert!(Registry::parse(bad_kind).unwrap_err().contains("unknown kind"));
        let missing = "[[counter]]\nident = \"a\"\nkind = \"serial\"\n";
        assert!(Registry::parse(missing).unwrap_err().contains("needs"));
    }

    #[test]
    fn monotone_requires_justification() {
        let bad = "[[counter]]\nident = \"a\"\nkind = \"monotone\"\ntype = \"u64\"\n";
        assert!(Registry::parse(bad).unwrap_err().contains("justifying"));
    }

    #[test]
    fn real_registry_parses_and_covers_the_wire_newtypes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("workspace root");
        let reg = Registry::load(root).expect("spec/counters.toml must parse");
        let newtypes = reg.serial_newtypes();
        assert!(newtypes.contains("Seq"), "Seq must be registered serial");
        assert!(newtypes.contains("Rotation"), "Rotation must be registered serial");
    }

    // ---- round-trip proptest -------------------------------------------

    /// `[a-z][a-z0-9_]{0,11}` built from numeric strategies (the
    /// vendored proptest has no regex string support).
    fn arb_ident() -> impl Strategy<Value = String> {
        (0u8..26, proptest::collection::vec(0u8..37, 0..12)).prop_map(|(head, tail)| {
            let mut s = String::new();
            s.push((b'a' + head) as char);
            for c in tail {
                s.push(match c {
                    0..=25 => (b'a' + c) as char,
                    26..=35 => (b'0' + (c - 26)) as char,
                    _ => '_',
                });
            }
            s
        })
    }

    /// Non-empty free text over the characters the format allows (no
    /// quotes; spaces inside the quoted value survive the line trim).
    fn arb_doc() -> impl Strategy<Value = String> {
        const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 .,:;()_/-";
        proptest::collection::vec(0usize..CHARSET.len(), 1..48)
            .prop_map(|cs| cs.into_iter().map(|c| CHARSET[c] as char).collect())
    }

    fn arb_counter() -> impl Strategy<Value = Counter> {
        let ty = prop_oneof![
            Just("u64".to_string()),
            Just("u32".to_string()),
            Just("Seq".to_string()),
            Just("Rotation".to_string()),
            Just("Incarnation".to_string()),
        ];
        let kind = prop_oneof![
            Just(CounterKind::Serial),
            Just(CounterKind::Monotone),
            Just(CounterKind::Epoch),
        ];
        (arb_ident(), kind, ty, arb_doc()).prop_map(|(ident, kind, ty, doc)| Counter {
            ident,
            kind,
            ty,
            doc,
            line: 0,
        })
    }

    proptest! {
        #[test]
        fn registry_roundtrips_through_toml(counters in proptest::collection::vec(arb_counter(), 0..12)) {
            // Dedup idents (the parser rejects duplicates by design).
            let mut seen = BTreeSet::new();
            let counters: Vec<Counter> =
                counters.into_iter().filter(|c| seen.insert(c.ident.clone())).collect();
            let reg = Registry { counters };
            let parsed = Registry::parse(&reg.to_toml()).expect("serialized registry parses");
            // Lines differ (they record source positions); compare the
            // semantic content.
            prop_assert_eq!(reg.counters.len(), parsed.counters.len());
            for (a, b) in reg.counters.iter().zip(parsed.counters.iter()) {
                prop_assert_eq!(&a.ident, &b.ident);
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(&a.ty, &b.ty);
                prop_assert_eq!(&a.doc, &b.doc);
            }
        }
    }
}
