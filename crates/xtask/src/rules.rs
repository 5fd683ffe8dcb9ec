//! The four totem-lint rules.
//!
//! Each rule encodes a protocol invariant from the Totem RRP paper
//! that the type system alone cannot enforce:
//!
//! * **no-panic-paths** — the protocol crates (`totem-wire`,
//!   `totem-srp`, `totem-rrp`) are the always-on data path of a
//!   fault-tolerant system; a panic on a malformed packet or a
//!   degraded network is exactly the fault-amplification the paper's
//!   redundancy exists to prevent. Forbids `.unwrap()`, `.expect()`,
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and direct
//!   indexing (`x[i]`, `&x[a..b]`) in non-test code.
//! * **explicit-transitions** — `match` statements whose arms pattern
//!   on a protocol state or event enum must spell out every variant;
//!   a wildcard `_ =>` arm silently swallows new states/events when a
//!   variant is added, which is how token-handling regressions hide.
//! * **sim-determinism** — the simulator's claim to reproduce the
//!   paper's figures rests on virtual time; wall-clock and entropy
//!   sources (`Instant::now`, `SystemTime::now`, `thread::sleep`,
//!   `thread_rng`) are confined to the real-time crates
//!   (`totem-transport`, `totem-cluster`, `totem-bench`).
//! * **wire-invariants** — re-derives the paper's Ethernet payload
//!   model (1518-byte MTU − 94-byte header stack = 1424-byte payload,
//!   §8) from the constant *expressions* in `crates/wire/src/frame.rs`
//!   and cross-checks them against the codec's declared decode bound;
//!   also flags raw magic literals (1518/1424/1412/94) outside
//!   `totem-wire`, which must reference the named constants instead.
//!
//! There is no suppression marker: every finding is reported, and the
//! fix is in the code.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Kind, Token};

/// Crates whose non-test code must be panic-free.
pub const PROTOCOL_CRATES: &[&str] = &["totem-wire", "totem-srp", "totem-rrp"];

/// Crates allowed to touch wall-clock time and OS entropy.
pub const REALTIME_CRATES: &[&str] = &["totem-transport", "totem-cluster", "totem-bench", "xtask"];

/// Protocol state/event enums whose matches must be exhaustive
/// without a wildcard arm.
pub const PROTOCOL_ENUMS: &[&str] = &[
    // totem-srp
    "SrpState",
    "StateImpl",
    "SrpEvent",
    "ConfigKind",
    // totem-rrp
    "RrpEvent",
    "ReplicationStyle",
    "MonitorKind",
    "FaultReason",
    "Inner",
    // totem-wire
    "Packet",
    "ChunkKind",
    "CodecError",
];

/// Wall-clock / entropy access patterns, as `::`-joined ident paths.
const NONDETERMINISM: &[&[&str]] = &[
    &["Instant", "now"],
    &["SystemTime", "now"],
    &["thread", "sleep"],
    &["thread_rng"],
    &["from_entropy"],
];

/// Raw literals of the Ethernet payload model that must be spelled as
/// named `totem_wire::frame` constants outside the wire crate.
const WIRE_MAGIC: &[u64] = &[1518, 1424, 1412, 94];

/// The lint rules `cargo xtask lint` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Panic-free protocol crates.
    NoPanicPaths,
    /// No wildcard arms on protocol enums.
    ExplicitTransitions,
    /// No wall-clock/entropy outside the real-time crates.
    SimDeterminism,
    /// Payload-model constants consistent and named.
    WireInvariants,
}

impl Rule {
    /// The name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanicPaths => "no-panic-paths",
            Rule::ExplicitTransitions => "explicit-transitions",
            Rule::SimDeterminism => "sim-determinism",
            Rule::WireInvariants => "wire-invariants",
        }
    }

    /// All rules, in stats order.
    pub fn all() -> [Rule; 4] {
        [Rule::NoPanicPaths, Rule::ExplicitTransitions, Rule::SimDeterminism, Rule::WireInvariants]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Crate the offending file belongs to.
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Analyzes one source file that belongs to crate `krate`.
///
/// Pure function over source text so the rule tests can feed known-bad
/// snippets without touching the filesystem.
pub fn analyze_source(krate: &str, file: &str, src: &str) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let test_mask = cfg_test_mask(&toks);
    let mut findings = Vec::new();

    if PROTOCOL_CRATES.contains(&krate) {
        no_panic_paths(krate, file, &toks, &test_mask, &mut findings);
    }
    explicit_transitions(krate, file, &toks, &test_mask, &mut findings);
    if !REALTIME_CRATES.contains(&krate) {
        sim_determinism(krate, file, &toks, &test_mask, &mut findings);
    }
    // The wire crate defines the payload model; xtask states the
    // expected values in order to check them.
    if krate != "totem-wire" && krate != "xtask" {
        wire_magic_literals(krate, file, &toks, &test_mask, &mut findings);
    }
    findings
}

/// Marks every token inside an item annotated `#[cfg(test)]` (module,
/// impl block, or function), so the rules only police shipping code.
pub(crate) fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip the attribute itself (7 tokens: # [ cfg ( test ) ]),
            // then any further attributes, then the annotated item up
            // to its closing brace (or `;` for brace-less items).
            let attr_start = i;
            let mut j = i + 7;
            while j + 1 < tokens.len() && tokens[j].text == "#" && tokens[j + 1].text == "[" {
                j = skip_balanced(tokens, j + 1, "[", "]");
            }
            let mut brace = 0i32;
            let mut paren = 0i32;
            let mut end = tokens.len();
            for (k, t) in tokens.iter().enumerate().skip(j) {
                if t.kind != Kind::Punct {
                    continue;
                }
                match t.text.as_str() {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            end = k + 1;
                            break;
                        }
                    }
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    ";" if brace == 0 && paren == 0 => {
                        end = k + 1;
                        break;
                    }
                    _ => {}
                }
            }
            for m in mask.iter_mut().take(end.min(tokens.len())).skip(attr_start) {
                *m = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let texts: Vec<&str> = tokens.iter().skip(i).take(7).map(|t| t.text.as_str()).collect();
    texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// Given `tokens[open_idx]` == the opening delimiter, returns the
/// index just past its matching closer.
pub(crate) fn skip_balanced(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.kind != Kind::Punct {
            continue;
        }
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    tokens.len()
}

/// Keywords that may legally precede `[` without it being an index.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "mut", "ref", "if", "else", "match", "while", "for", "loop", "return", "break",
    "continue", "move", "as", "where", "use", "pub", "crate", "impl", "fn", "static", "const",
    "struct", "enum", "trait", "type", "unsafe", "dyn", "box", "await", "yield",
];

fn no_panic_paths(
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind == Kind::Ident {
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            match t.text.as_str() {
                "unwrap" | "expect" if prev == Some(".") && next == Some("(") => {
                    push(
                        findings,
                        Rule::NoPanicPaths,
                        krate,
                        file,
                        t.line,
                        format!(
                            "`.{}()` in protocol crate {krate}; return a typed error instead",
                            t.text
                        ),
                    );
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if next == Some("!") => {
                    push(
                        findings,
                        Rule::NoPanicPaths,
                        krate,
                        file,
                        t.line,
                        format!(
                            "`{}!` in protocol crate {krate}; handle the state explicitly",
                            t.text
                        ),
                    );
                }
                _ => {}
            }
        }
        if t.kind == Kind::Punct && t.text == "[" {
            if let Some(p) = i.checked_sub(1) {
                let prev = &toks[p];
                let is_index_base = match prev.kind {
                    Kind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    Kind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if is_index_base {
                    push(
                        findings,
                        Rule::NoPanicPaths,
                        krate,
                        file,
                        t.line,
                        format!(
                            "direct indexing `{}[..]` can panic; use `.get()`/`.get_mut()`",
                            prev.text
                        ),
                    );
                }
            }
        }
    }
}

fn explicit_transitions(
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while i < toks.len() {
        if test_mask[i] || !(toks[i].kind == Kind::Ident && toks[i].text == "match") {
            i += 1;
            continue;
        }
        // Find the opening `{` of the match block: the first `{` at
        // zero paren/bracket depth after the scrutinee.
        let mut j = i + 1;
        let mut pdepth = 0i32;
        let mut block_start = None;
        while j < toks.len() {
            if toks[j].kind == Kind::Punct {
                match toks[j].text.as_str() {
                    "(" | "[" => pdepth += 1,
                    ")" | "]" => pdepth -= 1,
                    "{" if pdepth == 0 => {
                        block_start = Some(j);
                        break;
                    }
                    ";" if pdepth == 0 => break, // not a match expr after all
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = block_start else {
            i += 1;
            continue;
        };
        let end = skip_balanced(toks, open, "{", "}");
        check_match_arms(krate, file, toks, open, end, findings);
        i = open + 1; // nested matches are revisited from inside
    }
}

/// Inspects the arms of one match block (`toks[open]` == `{`):
/// if any arm *pattern* names a protocol enum, a bare `_` wildcard arm
/// is a violation.
fn check_match_arms(
    krate: &str,
    file: &str,
    toks: &[Token],
    open: usize,
    end: usize,
    findings: &mut Vec<Finding>,
) {
    let mut mentions: Option<&str> = None;
    let mut wildcards: Vec<u32> = Vec::new();
    let mut depth = 0i32; // relative to the match block
    let mut in_pattern = true; // arms start in pattern position
    let mut k = open;
    while k < end.min(toks.len()) {
        let t = &toks[k];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    // closing an arm's `{ .. }` body returns us to
                    // pattern position for the next arm
                    if t.text == "}" && depth == 1 {
                        in_pattern = true;
                    }
                }
                "," if depth == 1 => in_pattern = true,
                "=" if depth == 1 && toks.get(k + 1).is_some_and(|n| n.text == ">") => {
                    in_pattern = false;
                    k += 1; // skip the `>`
                }
                _ => {}
            }
        } else if t.kind == Kind::Ident && in_pattern && depth >= 1 {
            // Pattern position: look for Enum:: mentions and bare `_`.
            if PROTOCOL_ENUMS.contains(&t.text.as_str())
                && toks.get(k + 1).is_some_and(|a| a.text == ":")
                && toks.get(k + 2).is_some_and(|b| b.text == ":")
            {
                mentions.get_or_insert(
                    PROTOCOL_ENUMS
                        .iter()
                        .find(|e| **e == t.text.as_str())
                        .copied()
                        .unwrap_or("enum"),
                );
            }
            if t.text == "_" && depth == 1 {
                let prev_is_arm_start = k
                    .checked_sub(1)
                    .map(|p| {
                        let pt = &toks[p];
                        pt.kind == Kind::Punct && matches!(pt.text.as_str(), "{" | "," | "}")
                    })
                    .unwrap_or(false);
                let next = toks.get(k + 1);
                let starts_guard_or_arrow = next.is_some_and(|n| {
                    (n.kind == Kind::Ident && n.text == "if")
                        || (n.kind == Kind::Punct && n.text == "=")
                });
                if prev_is_arm_start && starts_guard_or_arrow {
                    wildcards.push(t.line);
                }
            }
        }
        k += 1;
    }
    if let Some(enum_name) = mentions {
        for line in wildcards {
            push(findings, Rule::ExplicitTransitions, krate, file, line,
                format!("wildcard `_ =>` arm in a match over protocol enum `{enum_name}`; list every variant explicitly"));
        }
    }
}

fn sim_determinism(
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != Kind::Ident {
            continue;
        }
        for path in NONDETERMINISM {
            let matched = match path {
                [single] => toks[i].text == *single,
                [head, tail] => {
                    toks[i].text == *head
                        && toks.get(i + 1).is_some_and(|a| a.text == ":")
                        && toks.get(i + 2).is_some_and(|b| b.text == ":")
                        && toks.get(i + 3).is_some_and(|c| c.text == *tail)
                }
                _ => false,
            };
            if matched {
                push(findings, Rule::SimDeterminism, krate, file, toks[i].line,
                    format!("wall-clock/entropy source `{}` outside the real-time crates breaks simulator determinism", path.join("::")));
                break;
            }
        }
    }
}

fn wire_magic_literals(
    krate: &str,
    file: &str,
    toks: &[Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if test_mask[i] || t.kind != Kind::Num {
            continue;
        }
        if let Some(v) = lexer::num_value(&t.text) {
            if WIRE_MAGIC.contains(&v) {
                push(findings, Rule::WireInvariants, krate, file, t.line,
                    format!("magic wire literal `{v}`; reference the named constant in `totem_wire::frame` instead"));
            }
        }
    }
}

pub(crate) fn push(
    findings: &mut Vec<Finding>,
    rule: Rule,
    krate: &str,
    file: &str,
    line: u32,
    msg: String,
) {
    findings.push(Finding { rule, krate: krate.to_string(), file: file.to_string(), line, msg });
}

// ---------------------------------------------------------------------------
// wire-invariants: constant cross-checks
// ---------------------------------------------------------------------------

/// Evaluates the constant declarations of a source file into an
/// environment of `name -> value`, supporting `+ - * << ( )` and
/// references to earlier constants.
pub fn const_env(src: &str) -> BTreeMap<String, u64> {
    let toks = lexer::lex(src);
    let mut env = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        // const NAME : TYPE = EXPR ;
        if toks[i].kind == Kind::Ident && toks[i].text == "const" {
            let name = toks.get(i + 1).filter(|t| t.kind == Kind::Ident).map(|t| t.text.clone());
            // find '=' then collect until ';'
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "=" && toks[j].text != ";" {
                j += 1;
            }
            if let (Some(name), Some(eq)) = (name, toks.get(j).filter(|t| t.text == "=")) {
                let _ = eq;
                let mut expr = Vec::new();
                let mut k = j + 1;
                while k < toks.len() && toks[k].text != ";" {
                    expr.push(toks[k].clone());
                    k += 1;
                }
                if let Some(v) = eval_const(&expr, &env) {
                    env.insert(name, v);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    env
}

/// Evaluates a flat constant expression (left-to-right with `*` and
/// `<<` binding tighter than `+`/`-`; parentheses supported). Returns
/// `None` for anything fancier — the wire constants are simple.
fn eval_const(expr: &[Token], env: &BTreeMap<String, u64>) -> Option<u64> {
    // Shunting-yard-lite over +, -, *, <<.
    fn atom(toks: &[Token], pos: &mut usize, env: &BTreeMap<String, u64>) -> Option<u64> {
        let t = toks.get(*pos)?;
        if t.kind == Kind::Punct && t.text == "(" {
            *pos += 1;
            let v = sum(toks, pos, env)?;
            if toks.get(*pos).is_some_and(|c| c.text == ")") {
                *pos += 1;
            }
            return Some(v);
        }
        *pos += 1;
        match t.kind {
            Kind::Num => lexer::num_value(&t.text),
            Kind::Ident => env.get(&t.text).copied(),
            _ => None,
        }
    }
    fn product(toks: &[Token], pos: &mut usize, env: &BTreeMap<String, u64>) -> Option<u64> {
        let mut v = atom(toks, pos, env)?;
        loop {
            match toks.get(*pos).map(|t| t.text.as_str()) {
                Some("*") => {
                    *pos += 1;
                    v = v.checked_mul(atom(toks, pos, env)?)?;
                }
                Some("<") if toks.get(*pos + 1).is_some_and(|t| t.text == "<") => {
                    *pos += 2;
                    v = v.checked_shl(u32::try_from(atom(toks, pos, env)?).ok()?)?;
                }
                _ => return Some(v),
            }
        }
    }
    fn sum(toks: &[Token], pos: &mut usize, env: &BTreeMap<String, u64>) -> Option<u64> {
        let mut v = product(toks, pos, env)?;
        loop {
            match toks.get(*pos).map(|t| t.text.as_str()) {
                Some("+") => {
                    *pos += 1;
                    v = v.checked_add(product(toks, pos, env)?)?;
                }
                Some("-") => {
                    *pos += 1;
                    v = v.checked_sub(product(toks, pos, env)?)?;
                }
                _ => return Some(v),
            }
        }
    }
    let mut pos = 0usize;
    let v = sum(expr, &mut pos, env)?;
    // Trailing tokens (casts like `as usize`) are tolerated only if
    // they are `as <ident>`.
    match expr.get(pos) {
        None => Some(v),
        Some(t) if t.text == "as" => Some(v),
        _ => None,
    }
}

/// Cross-checks the wire payload model: frame.rs constants against the
/// paper's numbers and against the codec's declared decode bound.
pub fn check_wire_invariants(root: &Path) -> Vec<Finding> {
    let frame_path = root.join("crates/wire/src/frame.rs");
    let codec_path = root.join("crates/wire/src/codec.rs");
    let mut findings = Vec::new();
    let mut fail = |file: &str, msg: String| {
        findings.push(Finding {
            rule: Rule::WireInvariants,
            krate: "totem-wire".into(),
            file: file.into(),
            line: 1,
            msg,
        });
    };

    let Ok(frame_src) = fs::read_to_string(&frame_path) else {
        fail("crates/wire/src/frame.rs", "cannot read frame.rs to verify the payload model".into());
        return findings;
    };
    let env = const_env(&frame_src);
    let get = |name: &str| env.get(name).copied();

    match (get("ETHERNET_MTU"), get("HEADER_OVERHEAD"), get("MAX_PAYLOAD")) {
        (Some(mtu), Some(overhead), Some(payload)) => {
            if payload != mtu - overhead {
                fail("crates/wire/src/frame.rs",
                    format!("MAX_PAYLOAD ({payload}) != ETHERNET_MTU ({mtu}) - HEADER_OVERHEAD ({overhead})"));
            }
            if payload != 1424 {
                fail("crates/wire/src/frame.rs",
                    format!("MAX_PAYLOAD is {payload}, but the paper's Ethernet payload model (§8) requires 1424"));
            }
        }
        _ => fail(
            "crates/wire/src/frame.rs",
            "missing ETHERNET_MTU / HEADER_OVERHEAD / MAX_PAYLOAD constants".into(),
        ),
    }
    match (get("MAX_PAYLOAD"), get("CHUNK_HEADER_LEN"), get("MAX_UNFRAGMENTED_MSG")) {
        (Some(payload), Some(header), Some(unfrag)) => {
            if unfrag != payload - header {
                fail("crates/wire/src/frame.rs",
                    format!("MAX_UNFRAGMENTED_MSG ({unfrag}) != MAX_PAYLOAD ({payload}) - CHUNK_HEADER_LEN ({header})"));
            }
            // The paper's throughput peak at 700-byte messages (§8,
            // Fig. 6) requires exactly two chunks per frame.
            if 2 * (700 + header) != payload {
                fail("crates/wire/src/frame.rs",
                    format!("packing identity broken: 2 * (700 + CHUNK_HEADER_LEN {header}) != MAX_PAYLOAD {payload}; the Fig. 6 peak at 700 B depends on it"));
            }
            if header == 0 || unfrag >= payload {
                fail("crates/wire/src/frame.rs", "fragment bounds degenerate".into());
            }
        }
        _ => fail(
            "crates/wire/src/frame.rs",
            "missing CHUNK_HEADER_LEN / MAX_UNFRAGMENTED_MSG constants".into(),
        ),
    }
    if let Ok(codec_src) = fs::read_to_string(&codec_path) {
        let codec_env = const_env(&codec_src);
        match (codec_env.get("MAX_DECODE_LEN"), get("MAX_PAYLOAD")) {
            (Some(&max_decode), Some(payload)) => {
                if max_decode < payload {
                    fail("crates/wire/src/codec.rs",
                        format!("MAX_DECODE_LEN ({max_decode}) below MAX_PAYLOAD ({payload}): valid frames would be rejected"));
                }
            }
            _ => fail(
                "crates/wire/src/codec.rs",
                "missing MAX_DECODE_LEN; codec no longer declares its decode bound".into(),
            ),
        }
    } else {
        fail("crates/wire/src/codec.rs", "cannot read codec.rs to cross-check decode bound".into());
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// A workspace member crate under `crates/`.
#[derive(Debug)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// Crate directory relative to the workspace root.
    pub dir: PathBuf,
}

/// Discovers the first-party crates (vendored stand-ins under
/// `vendor/` mirror third-party code and are exempt by policy).
pub fn discover_crates(root: &Path) -> Result<Vec<CrateInfo>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        let manifest = entry.path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let Some(name) = package_name(&text) else {
            continue;
        };
        out.push(CrateInfo { name, dir: entry.path() });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Runs every rule over every `src/**/*.rs` file of every first-party
/// crate, plus the workspace-level wire-invariant cross-checks.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for krate in discover_crates(root)? {
        let src_dir = krate.dir.join("src");
        let mut files = Vec::new();
        collect_rs(&src_dir, &mut files);
        files.sort();
        for path in files {
            let src = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            findings.extend(analyze_source(&krate.name, &rel, &src));
        }
    }
    findings.extend(check_wire_invariants(root));
    Ok(findings)
}

pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(krate: &str, src: &str) -> Vec<Finding> {
        analyze_source(krate, "test.rs", src)
    }

    // ---- no-panic-paths ------------------------------------------------

    #[test]
    fn detects_unwrap_and_expect() {
        let bad = "fn f() { x.unwrap(); y.expect(\"msg\"); }";
        let got = findings("totem-srp", bad);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|f| f.rule == Rule::NoPanicPaths));
    }

    #[test]
    fn detects_panic_family() {
        let bad = "fn f() { panic!(\"boom\"); unreachable!(); todo!(); }";
        let got = findings("totem-wire", bad);
        assert_eq!(got.len(), 3, "{got:?}");
    }

    #[test]
    fn detects_direct_indexing_but_not_types_or_macros() {
        let bad = "fn f(v: Vec<u8>, m: [u8; 4]) -> u8 { let x: [u8; 2] = [0, 1]; let s = &v[1..3]; vec![1, 2]; v[0] }";
        let got = findings("totem-rrp", bad);
        // v[1..3] and v[0]; the array type, array literal, and vec!
        // macro are not indexing.
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let ok = "fn f() { x.unwrap_or(0); x.unwrap_or_default(); x.unwrap_or_else(|| 1); }";
        assert!(findings("totem-srp", ok).is_empty());
    }

    #[test]
    fn panic_rules_skip_non_protocol_crates() {
        let src = "fn f() { x.unwrap(); }";
        assert!(findings("totem-cluster", src).is_empty());
    }

    #[test]
    fn panic_rules_skip_cfg_test_items() {
        let src = "
            fn real(x: Option<u8>) -> Option<u8> { x }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { real(Some(1)).unwrap(); }
            }
            #[cfg(test)]
            impl Index<usize> for PerNet<u8> {
                fn index(&self, i: usize) -> &u8 { &self.slots[i] }
            }
        ";
        assert!(findings("totem-rrp", src).is_empty());
    }

    // ---- explicit-transitions ------------------------------------------

    #[test]
    fn detects_wildcard_arm_on_protocol_enum() {
        let bad = "
            fn f(p: Packet) -> u8 {
                match p {
                    Packet::Data(_) => 1,
                    _ => 0,
                }
            }
        ";
        let got = findings("totem-cluster", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, Rule::ExplicitTransitions);
    }

    #[test]
    fn wildcard_with_guard_is_still_wildcard() {
        let bad = "fn f(e: SrpEvent) -> u8 { match e { SrpEvent::Deliver(_) => 1, _ if true => 2, SrpEvent::Config(_) => 3 } }";
        assert_eq!(findings("totem-srp", bad).len(), 1);
    }

    #[test]
    fn wildcard_over_plain_enums_is_fine() {
        let ok = "
            fn f(x: Option<u8>, tag: u8) -> u8 {
                match x { Some(v) => v, _ => 0 };
                match tag { 1 => 1, _ => 0 }
            }
        ";
        assert!(findings("totem-srp", ok).is_empty());
    }

    #[test]
    fn binding_arms_and_inner_wildcards_are_fine() {
        let ok = "
            fn f(s: ReplicationStyle, p: Packet) -> u8 {
                match s { ReplicationStyle::Active => 1, other => name(other) };
                match p { Packet::Data(_) => 1, Packet::Token(_) | Packet::Join(_) | Packet::Commit(_) => 2 }
            }
        ";
        assert!(findings("totem-rrp", ok).is_empty());
    }

    #[test]
    fn enum_mention_in_body_only_does_not_trigger() {
        // The match is over a plain Option; an enum path in an arm
        // *body* must not make the wildcard arm a violation.
        let ok = "fn f(x: Option<u8>) -> Packet { match x { Some(_) => Packet::Data(d()), _ => Packet::Token(t()) } }";
        assert!(findings("totem-srp", ok).is_empty());
    }

    // ---- sim-determinism -----------------------------------------------

    #[test]
    fn detects_wall_clock_in_sim() {
        let bad =
            "fn f() { let t = Instant::now(); std::thread::sleep(d); let r = rand::thread_rng(); }";
        let got = findings("totem-sim", bad);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got.iter().all(|f| f.rule == Rule::SimDeterminism));
    }

    #[test]
    fn wall_clock_allowed_in_realtime_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(findings("totem-transport", src).is_empty());
        assert!(findings("totem-bench", src).is_empty());
    }

    // ---- wire-invariants ------------------------------------------------

    #[test]
    fn detects_magic_wire_literals_outside_wire() {
        let bad = "fn frame_len() -> usize { 1424 + 94 }";
        let got = findings("totem-srp", bad);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|f| f.rule == Rule::WireInvariants));
    }

    #[test]
    fn wire_crate_may_define_its_own_model() {
        let src = "pub const ETHERNET_MTU: usize = 1518;";
        assert!(findings("totem-wire", src).is_empty());
    }

    #[test]
    fn const_env_evaluates_expressions() {
        let src = "
            pub const A: usize = 1518;
            pub const B: usize = 94;
            pub const C: usize = A - B;
            pub const D: usize = 2 * (700 + 12);
            pub(crate) const E: usize = 1 << 20;
        ";
        let env = const_env(src);
        assert_eq!(env["C"], 1424);
        assert_eq!(env["D"], 1424);
        assert_eq!(env["E"], 1 << 20);
    }
}
