//! The one reader for the repository's hand-written TOML files:
//! `spec/protocol.toml` and the chaos / mc / soak repro schedules.
//!
//! The build is offline, so no TOML crate is available; every file
//! keeps to this subset:
//!
//! * blank lines, and `#` comments on their own line or after a value;
//! * `[a.b]` table and `[[a.b]]` array-of-tables headers (bare keys
//!   joined by dots);
//! * `key = value`, where a value is a quoted string (no escapes, no
//!   embedded quotes), an unsigned integer, `true` / `false`, or a flat
//!   array of strings or integers.
//!
//! [`parse`] returns the keys above the first header as the top-level
//! table, then the headed tables in file order. Every table and
//! entry keeps its 1-based line, and every error names it: `line N:
//! `key`: reason`, followed by the enclosing header when there is one.
//! Which tables and keys exist, and what they mean, is the caller's
//! schema.

use std::fmt;

/// One value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `"text"`.
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// `true` or `false`.
    Bool(bool),
    /// `[..]` of strings or integers.
    Array(Vec<Value>),
}

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Value,
    /// 1-based line.
    pub line: u32,
}

/// One table: the top level, a `[name]`, or one `[[name]]` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The dotted header name; empty for the top level.
    pub name: String,
    /// `[[name]]` rather than `[name]`.
    pub array: bool,
    /// 1-based line of the header; 0 for the top level.
    pub line: u32,
    /// The table's entries in file order.
    pub entries: Vec<Entry>,
}

/// A parsed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The keys above the first header.
    pub top: Table,
    /// The headed tables in file order.
    pub tables: Vec<Table>,
}

/// Parses `text`.
///
/// # Errors
///
/// Returns a `line N: ...` description of the first malformed line, of
/// a key given twice in one table, or of a `[name]` declared twice.
pub fn parse(text: &str) -> Result<Document, String> {
    let top = Table { name: String::new(), array: false, line: 0, entries: Vec::new() };
    let mut doc = Document { top, tables: Vec::new() };
    for (idx, raw) in text.lines().enumerate() {
        let line = idx as u32 + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('[') {
            let (name, array) = match header.strip_prefix('[') {
                Some(inner) => (inner.strip_suffix("]]"), true),
                None => (header.strip_suffix(']'), false),
            };
            let name = name
                .map(str::trim)
                .filter(|name| name.split('.').all(is_bare_key))
                .ok_or_else(|| format!("line {line}: malformed header `{trimmed}`"))?;
            if let Some(first) = doc.tables.iter().find(|t| !array && !t.array && t.name == name) {
                return Err(format!(
                    "line {line}: `[{name}]` declared twice (first on line {})",
                    first.line
                ));
            }
            doc.tables.push(Table { name: name.to_string(), array, line, entries: Vec::new() });
            continue;
        }
        let table = doc.tables.last_mut().unwrap_or(&mut doc.top);
        let Some((key, rest)) = trimmed.split_once('=').filter(|(key, _)| is_bare_key(key.trim()))
        else {
            return Err(format!("line {line}: expected `key = value`, got `{trimmed}`"));
        };
        let key = key.trim();
        let value = value(rest)
            .filter(|(_, tail)| matches!(tail.trim_start().chars().next(), None | Some('#')))
            .map(|(value, _)| value)
            .ok_or_else(|| {
                table.error_at(line, key, format!("malformed value `{}`", rest.trim()))
            })?;
        if let Some(first) = table.entries.iter().find(|e| e.key == key) {
            let reason = format!("given twice (first on line {})", first.line);
            return Err(table.error_at(line, key, reason));
        }
        table.entries.push(Entry { key: key.to_string(), value, line });
    }
    Ok(doc)
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Reads one value off the front of `s`; returns it and what follows.
fn value(s: &str) -> Option<(Value, &str)> {
    let s = s.trim_start();
    let Some(mut rest) = s.strip_prefix('[') else { return scalar(s) };
    let mut items = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(tail) = rest.strip_prefix(']') {
            return Some((Value::Array(items), tail));
        }
        let (item, tail) = scalar(rest).filter(|(item, _)| !matches!(item, Value::Bool(_)))?;
        items.push(item);
        let tail = tail.trim_start();
        rest = match tail.strip_prefix(',') {
            Some(next) => next,
            None if tail.starts_with(']') => tail,
            None => return None,
        };
    }
}

/// Reads a string, an integer or a boolean off the front of `s`.
fn scalar(s: &str) -> Option<(Value, &str)> {
    if let Some(body) = s.strip_prefix('"') {
        let (text, tail) = body.split_once('"')?;
        return Some((Value::Str(text.to_string()), tail));
    }
    let (word, tail) = s.split_at(s.find(|c: char| !c.is_ascii_alphanumeric()).unwrap_or(s.len()));
    let value = match word {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        digits if digits.bytes().all(|b| b.is_ascii_digit()) => Value::Int(digits.parse().ok()?),
        _ => return None,
    };
    Some((value, tail))
}

/// A Rust type a [`Value`] converts to, for [`Table::get`].
pub trait FromValue<'a>: Sized {
    /// What the value must look like, for the error message.
    const WANT: &'static str;
    /// The conversion; `None` when the value has another type.
    fn from_value(value: &'a Value) -> Option<Self>;
}

impl<'a> FromValue<'a> for &'a str {
    const WANT: &'static str = "a quoted string";
    fn from_value(value: &'a Value) -> Option<Self> {
        match value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl FromValue<'_> for u64 {
    const WANT: &'static str = "an unsigned integer";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

impl FromValue<'_> for bool {
    const WANT: &'static str = "true or false";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl FromValue<'_> for Vec<String> {
    const WANT: &'static str = "[\"..\", ...]";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Array(items) => {
                items.iter().map(|v| <&str>::from_value(v).map(String::from)).collect()
            }
            _ => None,
        }
    }
}

impl FromValue<'_> for Vec<u64> {
    const WANT: &'static str = "[N, ...]";
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Array(items) => items.iter().map(u64::from_value).collect(),
            _ => None,
        }
    }
}

impl Table {
    /// The value of `key` as a `T`.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or holds another type.
    pub fn get<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<T, String> {
        self.get_opt(key)?.ok_or_else(|| match self.header() {
            Some(header) => format!("{header}: missing `{key}`"),
            None => format!("missing `{key}`"),
        })
    }

    /// The value of `key` as a `T`, or `None` when the key is absent.
    ///
    /// # Errors
    ///
    /// Names the key when it holds another type.
    pub fn get_opt<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        let Some(entry) = self.entries.iter().find(|e| e.key == key) else { return Ok(None) };
        T::from_value(&entry.value)
            .map(Some)
            .ok_or_else(|| self.error_at(entry.line, key, format_args!("must be {}", T::WANT)))
    }

    /// Rejects the first key not in `known`, as an unknown `what` key.
    ///
    /// # Errors
    ///
    /// Names the first unknown key.
    pub fn only(&self, known: &[&str], what: &str) -> Result<(), String> {
        match self.entries.iter().find(|e| !known.contains(&e.key.as_str())) {
            Some(e) => Err(self.error(&e.key, format_args!("unknown {what} key"))),
            None => Ok(()),
        }
    }

    /// A schema error about `key`, at its line (at the header's when
    /// the key is absent).
    pub fn error(&self, key: &str, reason: impl fmt::Display) -> String {
        let line = self.entries.iter().find(|e| e.key == key).map_or(self.line, |e| e.line);
        self.error_at(line, key, reason)
    }

    fn error_at(&self, line: u32, key: &str, reason: impl fmt::Display) -> String {
        match self.header() {
            Some(header) => format!("line {line}: `{key}`: {reason} (in {header})"),
            None => format!("line {line}: `{key}`: {reason}"),
        }
    }

    /// `[name] at line N` / `[[name]] at line N`; `None` for the top
    /// level.
    fn header(&self) -> Option<String> {
        let (open, close) = if self.array { ("[[", "]]") } else { ("[", "]") };
        (self.line > 0).then(|| format!("{open}{}{close} at line {}", self.name, self.line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(key: &str, value: Value, line: u32) -> Entry {
        Entry { key: key.to_string(), value, line }
    }

    #[test]
    fn parses_every_form_with_its_line() {
        let text =
            "# lead comment\nseed = 7\n\n[machine.m-1]\nstates = [\"A\", \"B\"] # trailing\n\
                    [[command]]\nkind = \"crash\"\nfailed = false\ngroups = []\n";
        let doc = parse(text).unwrap();
        assert_eq!(doc.top.entries, [entry("seed", Value::Int(7), 2)]);
        let tables = &doc.tables;
        assert_eq!(tables.len(), 2);
        assert_eq!(
            (tables[0].name.as_str(), tables[0].array, tables[0].line),
            ("machine.m-1", false, 4)
        );
        let states = Value::Array(vec![Value::Str("A".into()), Value::Str("B".into())]);
        assert_eq!(tables[0].entries, [entry("states", states, 5)]);
        assert_eq!(
            (tables[1].name.as_str(), tables[1].array, tables[1].line),
            ("command", true, 6)
        );
        assert_eq!(tables[1].get::<&str>("kind"), Ok("crash"));
        assert_eq!(tables[1].get::<bool>("failed"), Ok(false));
        assert_eq!(tables[1].get::<Vec<u64>>("groups"), Ok(Vec::new()));
        assert_eq!(tables[1].get_opt::<u64>("node"), Ok(None));
    }

    #[test]
    fn errors_name_the_line_the_key_and_the_table() {
        let err = parse("seed = 1\nnodes = oops\n").unwrap_err();
        assert_eq!(err, "line 2: `nodes`: malformed value `oops`");
        let err = parse("[[kflip]]\nat_ns = -5\n").unwrap_err();
        assert_eq!(err, "line 2: `at_ns`: malformed value `-5` (in [[kflip]] at line 1)");
        let doc = parse("[[kflip]]\nat_ns = \"5\"\n").unwrap();
        let kflip = &doc.tables[0];
        assert_eq!(
            kflip.get::<u64>("at_ns").unwrap_err(),
            "line 2: `at_ns`: must be an unsigned integer (in [[kflip]] at line 1)"
        );
        assert_eq!(kflip.get::<u64>("k").unwrap_err(), "[[kflip]] at line 1: missing `k`");
        assert_eq!(doc.top.get::<u64>("seed").unwrap_err(), "missing `seed`");
        assert_eq!(
            kflip.only(&["k"], "kflip").unwrap_err(),
            "line 2: `at_ns`: unknown kflip key (in [[kflip]] at line 1)"
        );
    }

    #[test]
    fn rejects_malformed_lines_and_repeats() {
        for (text, want) in [
            ("just words\n", "line 1: expected `key = value`"),
            ("[a\n", "line 1: malformed header"),
            ("[a..b]\n", "line 1: malformed header"),
            ("[[]]\n", "line 1: malformed header"),
            ("k = \"open\n", "line 1: `k`: malformed value"),
            ("k = [1, 2\n", "line 1: `k`: malformed value"),
            ("k = [[1]]\n", "line 1: `k`: malformed value"),
            ("k = 1 2\n", "line 1: `k`: malformed value"),
            ("k = [true]\n", "line 1: `k`: malformed value"),
            ("k = 1\nk = 2\n", "line 2: `k`: given twice (first on line 1)"),
            ("[a]\n[a]\n", "line 2: `[a]` declared twice (first on line 1)"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.starts_with(want), "{text:?}: {err}");
        }
        // An array of tables repeats by design.
        assert_eq!(parse("[[a]]\n[[a]]\n").unwrap().tables.len(), 2);
    }

    /// Any text a quoted string may hold, including what a comment, a
    /// header or an assignment would start with.
    fn arb_text() -> impl Strategy<Value = String> {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 .,:;()[]#=_/-";
        proptest::collection::vec(0usize..CHARS.len(), 0..24)
            .prop_map(|cs| cs.into_iter().map(|c| char::from(CHARS[c])).collect())
    }

    fn arb_entries() -> impl Strategy<Value = Vec<Entry>> {
        let value = prop_oneof![
            arb_text().prop_map(Value::Str),
            any::<u64>().prop_map(Value::Int),
            any::<bool>().prop_map(Value::Bool),
            proptest::collection::vec(arb_text().prop_map(Value::Str), 0..4).prop_map(Value::Array),
            proptest::collection::vec(any::<u64>().prop_map(Value::Int), 0..4)
                .prop_map(Value::Array),
        ];
        proptest::collection::vec(value, 0..5).prop_map(|values| {
            values.into_iter().enumerate().map(|(i, v)| entry(&format!("k{i}"), v, 0)).collect()
        })
    }

    /// A random document: top-level entries, then headed tables, each
    /// with uniquely keyed entries of every value form.
    fn arb_document() -> impl Strategy<Value = Document> {
        let table = (0u8..4, any::<bool>(), arb_entries());
        (arb_entries(), proptest::collection::vec(table, 0..6)).prop_map(|(top, tables)| {
            let top = Table { name: String::new(), array: false, line: 0, entries: top };
            let tables = tables.into_iter().enumerate().map(|(i, (name, array, entries))| Table {
                // A `[name]` may appear once, so plain tables are
                // numbered apart; `[[name]]` repeats.
                name: if array { format!("t.a{name}") } else { format!("t.n{i}") },
                array,
                line: 0,
                entries,
            });
            Document { top, tables: tables.collect() }
        })
    }

    fn render_value(value: &Value) -> String {
        match value {
            Value::Str(s) => format!("\"{s}\""),
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Array(items) => {
                format!("[{}]", items.iter().map(render_value).collect::<Vec<_>>().join(", "))
            }
        }
    }

    /// Renders `doc`, with a blank line and a comment before each
    /// header, and records the line each header and entry lands on.
    fn render(doc: &mut Document) -> String {
        let mut out = String::new();
        let mut line = 0u32;
        let mut emit = |out: &mut String, text: String| {
            out.push_str(&text);
            out.push('\n');
            line += 1;
            line
        };
        for table in std::iter::once(&mut doc.top).chain(&mut doc.tables) {
            if !table.name.is_empty() {
                emit(&mut out, String::new());
                emit(&mut out, format!("# {}", table.name));
                let (open, close) = if table.array { ("[[", "]]") } else { ("[", "]") };
                table.line = emit(&mut out, format!("{open}{}{close}", table.name));
            }
            for e in &mut table.entries {
                e.line = emit(&mut out, format!("{} = {}", e.key, render_value(&e.value)));
            }
        }
        out
    }

    proptest! {
        #[test]
        fn rendered_documents_parse_back_line_for_line(doc in arb_document()) {
            let mut doc = doc;
            let text = render(&mut doc);
            prop_assert_eq!(parse(&text), Ok(doc));
        }
    }
}
