//! A small hand-rolled Rust lexer.
//!
//! The container this workspace builds in is fully offline, so `syn`
//! is not available; the lint pass instead works on a token stream
//! produced here. The lexer understands exactly as much Rust as the
//! rules need:
//!
//! * line/block comments (nested), which are dropped;
//! * string, raw-string, byte-string, and char literals (so that
//!   nothing inside a literal is ever mistaken for code); string
//!   tokens carry their full source slice — quotes included, so a
//!   literal can never be confused with an identifier or punctuation
//!   token — and [`str_body`] recovers the contents (the conformance
//!   extractor reads transition names out of them);
//! * the char-literal vs. lifetime ambiguity after `'`;
//! * numeric literals with value extraction (for the magic-number
//!   checks of the `wire-invariants` rule);
//! * identifiers and single-character punctuation, each tagged with a
//!   1-based line number for diagnostics.
//!
//! Multi-character operators (`::`, `=>`, `..`) are emitted as runs of
//! single-character punctuation tokens; the rules match on those runs.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// Numeric literal (int or float).
    Num,
    /// String / raw string / byte string literal.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime such as `'a`.
    Lifetime,
}

/// One lexed token with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: Kind,
    /// Source text (for [`Kind::Punct`], exactly one character).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Lexes `src` into tokens in source order; comments and whitespace
/// are dropped.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let tok_line = line;
                let start = i;
                i = skip_string(&chars, i, &mut line);
                let text: String = chars[start..i.min(chars.len())].iter().collect();
                out.push(Token { kind: Kind::Str, text, line: tok_line });
            }
            '\'' => {
                lex_quote(&chars, &mut i, &mut line, &mut out);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < chars.len() {
                    let d = chars[i];
                    let float_dot = d == '.'
                        && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        && chars.get(i.wrapping_sub(1)).is_some_and(|p| p.is_ascii_digit());
                    if d.is_alphanumeric() || d == '_' || float_dot {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                out.push(Token { kind: Kind::Num, text, line });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                // Raw / byte string prefixes: the "identifier" is
                // actually the sigil of the following literal.
                let next = chars.get(i).copied();
                let is_raw =
                    matches!(text.as_str(), "r" | "br") && matches!(next, Some('"') | Some('#'));
                let is_bytestr = text == "b" && next == Some('"');
                let is_bytechar = text == "b" && next == Some('\'');
                if is_raw {
                    let tok_line = line;
                    i = skip_raw_string(&chars, i, &mut line);
                    let text: String = chars[start..i.min(chars.len())].iter().collect();
                    out.push(Token { kind: Kind::Str, text, line: tok_line });
                } else if is_bytestr {
                    let tok_line = line;
                    i = skip_string(&chars, i, &mut line);
                    let text: String = chars[start..i.min(chars.len())].iter().collect();
                    out.push(Token { kind: Kind::Str, text, line: tok_line });
                } else if is_bytechar {
                    i += 1; // consume the opening quote
                    lex_quote_body(&chars, &mut i, &mut line);
                    out.push(Token { kind: Kind::Char, text: String::new(), line });
                } else {
                    out.push(Token { kind: Kind::Ident, text, line });
                }
            }
            c => {
                out.push(Token { kind: Kind::Punct, text: c.to_string(), line });
                i += 1;
            }
        }
    }
    out
}

/// Consumes a `"..."` literal starting at the prefix position `i`
/// (pointing at the opening quote or the char just before it); returns
/// the index past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    // Advance to the opening quote if we are on a prefix char.
    while i < chars.len() && chars[i] != '"' {
        i += 1;
    }
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes `r"..."` / `r#"..."#` / `br#"..."#` starting just after
/// the `r`/`br` sigil; returns the index past the closing delimiter.
fn skip_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return i; // not actually a raw string; bail gracefully
    }
    i += 1;
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
        }
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Disambiguates `'` into a char literal or a lifetime.
fn lex_quote(chars: &[char], i: &mut usize, line: &mut u32, tokens: &mut Vec<Token>) {
    let tok_line = *line;
    *i += 1; // consume the quote
    let Some(&next) = chars.get(*i) else {
        return;
    };
    if next == '\\' {
        lex_quote_body(chars, i, line);
        tokens.push(Token { kind: Kind::Char, text: String::new(), line: tok_line });
        return;
    }
    if next.is_alphabetic() || next == '_' {
        // Could be 'a' (char) or 'a / 'static (lifetime): read the
        // identifier and look for a closing quote.
        let start = *i;
        while *i < chars.len() && (chars[*i].is_alphanumeric() || chars[*i] == '_') {
            *i += 1;
        }
        if chars.get(*i) == Some(&'\'') {
            *i += 1;
            tokens.push(Token { kind: Kind::Char, text: String::new(), line: tok_line });
        } else {
            let text: String = chars[start..*i].iter().collect();
            tokens.push(Token { kind: Kind::Lifetime, text, line: tok_line });
        }
    } else {
        // Punctuation char literal like '{' or '0'.
        lex_quote_body(chars, i, line);
        tokens.push(Token { kind: Kind::Char, text: String::new(), line: tok_line });
    }
}

/// Consumes the body + closing quote of a char literal whose opening
/// quote has already been consumed.
fn lex_quote_body(chars: &[char], i: &mut usize, line: &mut u32) {
    while *i < chars.len() {
        match chars[*i] {
            '\\' => *i += 2,
            '\'' => {
                *i += 1;
                return;
            }
            '\n' => {
                *line += 1;
                *i += 1;
                return; // malformed; don't run away
            }
            _ => *i += 1,
        }
    }
}

/// The inner content of a string-literal source slice (the `text` of
/// a [`Kind::Str`] token): everything between the opening and closing
/// quotes, with any `r`/`b`/`br` sigil and `#` guards stripped.
/// Escape sequences are left unprocessed — the conformance extractor
/// only consumes plain identifiers.
pub fn str_body(lit: &str) -> &str {
    let (Some(first), Some(last)) = (lit.find('"'), lit.rfind('"')) else {
        return "";
    };
    if last > first {
        &lit[first + 1..last]
    } else {
        ""
    }
}

/// Parses the numeric value of a [`Kind::Num`] token, ignoring `_`
/// separators and integer suffixes. Returns `None` for floats or
/// malformed text.
pub fn num_value(text: &str) -> Option<u64> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    if clean.contains('.') {
        return None;
    }
    if let Some(hex) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        return u64::from_str_radix(&digits, 16).ok();
    }
    if let Some(bin) = clean.strip_prefix("0b").or_else(|| clean.strip_prefix("0B")) {
        let digits: String = bin.chars().take_while(|c| matches!(c, '0' | '1')).collect();
        return u64::from_str_radix(&digits, 2).ok();
    }
    if let Some(oct) = clean.strip_prefix("0o").or_else(|| clean.strip_prefix("0O")) {
        let digits: String = oct.chars().take_while(|c| c.is_ascii_digit()).collect();
        return u64::from_str_radix(&digits, 8).ok();
    }
    let digits: String = clean.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind == Kind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
            // not.unwrap() here
            let s = "also.unwrap() hidden";
            let r = r#"raw "quoted" .unwrap()"#;
            /* block .unwrap() /* nested */ still */
            real.code();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<_> = toks.iter().filter(|t| t.kind == Kind::Lifetime).collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == Kind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numeric_values() {
        assert_eq!(num_value("1424"), Some(1424));
        assert_eq!(num_value("1_518"), Some(1518));
        assert_eq!(num_value("0x5EE"), Some(0x5EE));
        assert_eq!(num_value("94usize"), Some(94));
        assert_eq!(num_value("1.5"), None);
    }

    #[test]
    fn string_tokens_carry_their_source_and_body() {
        let lexed = lex(r##"f("Gather", r#"raw"#, b"bytes")"##);
        let strs: Vec<&str> =
            lexed.iter().filter(|t| t.kind == Kind::Str).map(|t| str_body(&t.text)).collect();
        assert_eq!(strs, vec!["Gather", "raw", "bytes"]);
        // The raw slice keeps its quotes, so no literal can collide
        // with an identifier or punctuation comparison in the rules.
        assert!(lexed.iter().filter(|t| t.kind == Kind::Str).all(|t| t.text.contains('"')));
    }

    #[test]
    fn byte_literals() {
        let lexed = lex("let a = b\"by.unwrap()tes\"; let c = b'x';");
        assert!(lexed.iter().any(|t| t.kind == Kind::Str));
        assert!(lexed.iter().any(|t| t.kind == Kind::Char));
        assert!(!lexed.iter().any(|t| t.text == "unwrap"));
    }
}
