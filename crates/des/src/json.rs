//! The workspace's one JSON implementation: a value type, a writer with a
//! single fixed layout, and a bounded parser.
//!
//! Every artifact the simulator emits — figure rows, the cost ledger,
//! chaos reproducers, Chrome traces — is built as a [`Json`] value and
//! rendered by [`write()`]; every document read back (reproducers) goes
//! through [`parse`].
//!
//! * **Numbers keep their text.** [`Json::Num`] holds the digits as written,
//!   so a u64 seed or nanosecond count never passes through `f64`, and a
//!   fixed-point column (`{:.6}`) survives a parse/write round trip byte for
//!   byte.
//! * **One layout.** A value is split across lines when it contains an
//!   array that holds an array or an object, at any depth; a split value
//!   puts one member per line, indented two spaces per level, objects as
//!   `"k": v`. Every other value goes on one line with bare `,` and `:`. A
//!   document ends with `\n`.
//! * **Bounded input.** [`parse`] returns `Err` on malformed input and never
//!   panics; nesting deeper than [`MAX_DEPTH`] is an error rather than a
//!   stack overflow.

use std::fmt::Write as _;
use std::str::FromStr;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number as JSON text (valid number syntax when built through the
    /// `From` impls, [`Json::fixed`] or [`parse`]).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep their order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from literal member names, in order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_owned(), v)).into())
    }

    /// `v` with exactly `digits` decimals; `null` when `v` is not finite.
    pub fn fixed(v: f64, digits: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.digits$}"))
        } else {
            Json::Null
        }
    }

    /// The member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number read from its text as a `T` (`u64`, `usize`, `f64`, …),
    /// if this is a number that `T` can hold.
    pub fn num<T: FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    u64 => |v| Json::Num(v.to_string());
    u128 => |v| Json::Num(v.to_string());
    usize => |v| Json::Num(v.to_string());
    bool => |v| Json::Bool(v);
    &str => |v| Json::Str(v.to_owned());
    String => |v| Json::Str(v);
}

/// Shortest round-trip text, with a decimal point so the value reads back
/// as a float field; `null` when not finite.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        let s = v.to_string();
        if !v.is_finite() {
            Json::Null
        } else if s.contains('.') {
            Json::Num(s)
        } else {
            Json::Num(s + ".0")
        }
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().collect())
    }
}

/// Render `v` as a document in the one layout (module docs), ending with
/// `\n`.
pub fn write(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

/// Whether `v` contains an array holding an array or an object.
fn splits(v: &Json) -> bool {
    match v {
        Json::Arr(items) => items
            .iter()
            .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)) || splits(i)),
        Json::Obj(members) => members.iter().any(|(_, v)| splits(v)),
        _ => false,
    }
}

fn write_value(out: &mut String, v: &Json, indent: usize) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match v {
        Json::Null => return out.push_str("null"),
        Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => return out.push_str(n),
        Json::Str(s) => return write_str(out, s),
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Obj(members) => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(&**k), v)).collect(),
        ),
    };
    let split = splits(v);
    let newline = |out: &mut String, indent: usize| {
        if split {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
        }
    };
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, indent + 2);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if split { ": " } else { ":" });
        }
        write_value(out, item, indent + 2);
    }
    newline(out, indent);
    out.push(close);
}

/// Write `s` as a JSON string literal: `"` and `\` escaped, control
/// characters as their short escape or `\u00XX`, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document (surrounding whitespace allowed).
///
/// # Errors
/// Any syntax error, trailing characters, a lone surrogate escape, or
/// nesting deeper than [`MAX_DEPTH`], with the byte offset where it was
/// found.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text,
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i < text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// A cursor over the input; `i` is always on a char boundary.
struct Parser<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.i)
    }

    fn rest(&self) -> &str {
        &self.s[self.i..]
    }

    /// Advance past the leading bytes of the rest that `f` accepts; how
    /// many there were. `f` accepts every byte of a multi-byte char or
    /// none (all of them are `>= 0x80`), so `i` stays on a char boundary.
    fn skip(&mut self, f: impl Fn(u8) -> bool) -> usize {
        let start = self.i;
        while self.s.as_bytes().get(self.i).is_some_and(|&b| f(b)) {
            self.i += 1;
        }
        self.i - start
    }

    fn skip_ws(&mut self) {
        self.skip(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Consume the byte `c` if it is next (no whitespace skipped).
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.s.as_bytes().get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    /// Skip whitespace, then consume `c`.
    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if !self.eat(c) {
            return Err(self.err(&format!("expected '{}'", c as char)));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.as_bytes().get(self.i) {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(&open @ (b'{' | b'[')) => {
                self.i += 1;
                self.depth += 1;
                let v = self.container(open == b'{');
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let literals = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ];
                for (word, v) in literals {
                    if self.rest().starts_with(word) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                Err(self.err("expected a value"))
            }
        }
    }

    /// The rest of an array or object whose opening bracket was consumed.
    fn container(&mut self, object: bool) -> Result<Json, String> {
        let close = if object { b'}' } else { b']' };
        let (mut items, mut members) = (Vec::new(), Vec::new());
        self.skip_ws();
        if !self.eat(close) {
            loop {
                if object {
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(if object {
            Json::Obj(members)
        } else {
            Json::Arr(items)
        })
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        self.eat(b'-');
        let leading_zero = self.rest().starts_with('0');
        let int = self.skip(|b| b.is_ascii_digit());
        let mut ok = int == 1 || (int > 1 && !leading_zero);
        if self.eat(b'.') {
            ok &= self.skip(|b| b.is_ascii_digit()) > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.skip(|b| b.is_ascii_digit()) > 0;
        }
        if !ok {
            return Err(self.err("malformed number"));
        }
        Ok(Json::Num(self.s[start..self.i].to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            self.skip(|b| b != b'"' && b != b'\\' && b >= b' ');
            out.push_str(&self.s[start..self.i]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.err("unterminated string or control character"));
            }
            let escape = self.rest().chars().next();
            self.i += escape.map_or(0, char::len_utf8);
            out.push(match escape {
                Some('"') => '"',
                Some('\\') => '\\',
                Some('/') => '/',
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('u') => self.unicode_escape()?,
                _ => return Err(self.err("unknown escape")),
            });
        }
    }

    /// The character of a `\uXXXX` escape (its `\u` already consumed),
    /// joining a surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = match hi {
            0xd800..=0xdbff if self.rest().starts_with("\\u") => {
                self.i += 2;
                let lo = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&lo) {
                    return Err(self.err("high surrogate not followed by a low one"));
                }
                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
            }
            c => c,
        };
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .rest()
            .get(..4)
            .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()));
        let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
        let code = code.ok_or_else(|| self.err("expected four hex digits"))?;
        self.i += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::mix64;

    /// Every tracked JSON document: the committed `BENCH_*.json` files at
    /// the repository root and the chaos reproducer fixtures.
    fn tracked() -> Vec<(&'static str, String)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        [
            "BENCH_cost.json",
            "BENCH_des_core.json",
            "BENCH_figures.json",
            "crates/bench/fixtures/chaos/degraded-globalkill.json",
            "crates/bench/fixtures/chaos/degraded-switchkill.json",
        ]
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(format!("{root}/{name}"))
                .unwrap_or_else(|e| panic!("reading {name}: {e}"));
            (name, text)
        })
        .collect()
    }

    #[test]
    fn tracked_files_round_trip_byte_for_byte() {
        for (name, text) in tracked() {
            let v = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(write(&v) == text, "{name}: write(parse(f)) != f");
        }
    }

    /// `v` with every array cut to its first two elements: the same member
    /// shapes and section boundaries in a fraction of the bytes.
    fn sketch(v: &Json) -> Json {
        match v {
            Json::Arr(items) => items.iter().take(2).map(sketch).collect(),
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(k, v)| (k.clone(), sketch(v)))
                    .collect(),
            ),
            v => v.clone(),
        }
    }

    /// Every strict prefix of `doc` ending at a char boundary that `keep`
    /// accepts fails to parse.
    fn prefixes_fail(name: &str, doc: &str, keep: impl Fn(usize) -> bool) {
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c) && keep(c)) {
            assert!(parse(&doc[..cut]).is_err(), "{name}: prefix {cut} parsed");
        }
    }

    #[test]
    fn every_prefix_of_tracked_files_is_an_error() {
        // Checking every prefix costs a parse per byte, quadratic in the
        // size: a file over 4 KiB is checked at every byte of its sketch
        // and at every line break of the whole file.
        for (name, text) in tracked() {
            let doc = text.trim_end();
            if doc.len() <= 4096 {
                prefixes_fail(name, doc, |_| true);
            } else {
                let sketched = write(&sketch(&parse(doc).expect("tracked file parses")));
                prefixes_fail(name, sketched.trim_end(), |_| true);
                prefixes_fail(name, doc, |c| doc.as_bytes()[c] == b'\n');
            }
        }
    }

    #[test]
    fn random_bytes_and_mutations_never_panic() {
        let fixture = &tracked()[4].1;
        let mut state = 7u64;
        let mut next = || {
            state = mix64(state);
            state
        };
        const PUNCT: &[u8] = b"[]{},:\"\\0123456789.-+eEtrufalsn u";
        for _ in 0..2000 {
            let len = (next() % 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = parse(&String::from_utf8_lossy(&bytes));
            // JSON punctuation only: reaches deeper into the grammar.
            let punct: String = (0..len)
                .map(|_| PUNCT[(next() % PUNCT.len() as u64) as usize] as char)
                .collect();
            let _ = parse(&punct);
            let mut mutated = fixture.clone().into_bytes();
            let at = (next() as usize) % mutated.len();
            mutated[at] = next() as u8;
            let _ = parse(&String::from_utf8_lossy(&mutated));
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_overflow() {
        let deep = "[".repeat(1_000_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn random_strings_survive_write_then_parse() {
        const ALPHABET: &[char] = &[
            'a',
            'Z',
            '0',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            '\u{7f}',
            'é',
            'ß',
            '中',
            '\u{2028}',
            '😀',
            '\u{10ffff}',
        ];
        let mut state = 11u64;
        for _ in 0..500 {
            state = mix64(state);
            let len = (state % 24) as usize;
            let s: String = (0..len)
                .map(|_| {
                    state = mix64(state);
                    ALPHABET[(state % ALPHABET.len() as u64) as usize]
                })
                .collect();
            let doc = Json::obj([(s.as_str(), Json::Arr(vec![s.clone().into()]))]);
            let text = write(&doc);
            assert_eq!(parse(&text), Ok(doc), "{text:?}");
        }
    }

    #[test]
    fn escapes_are_read_in_full() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé😀""#).unwrap();
        assert_eq!(v, Json::Str("\"\\/\u{8}\u{c}\n\r\tAé😀".into()));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\x""#,
            "\"tab\there\"",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn numbers_keep_their_text() {
        for n in [
            "0",
            "-0",
            "18446744073709551615",
            "0.000000",
            "1.5e-7",
            "2E+10",
        ] {
            assert_eq!(parse(n), Ok(Json::Num(n.into())));
        }
        for bad in ["01", "-", "1.", ".5", "1e", "+1", "0x1", "1.e3"] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
        assert_eq!(Json::from(u64::MAX).num::<u64>(), Some(u64::MAX));
        assert_eq!(Json::from(1.0), Json::Num("1.0".into()));
        assert_eq!(Json::from(0.1).num::<f64>(), Some(0.1));
        assert_eq!(Json::fixed(0.25, 3), Json::Num("0.250".into()));
        assert_eq!(Json::from(f64::NAN), Json::Null);
    }

    #[test]
    fn layout_splits_only_around_nested_arrays() {
        let quorum = [0usize, 1, 3].into_iter().map(Json::from).collect();
        let row = Json::obj([("q", quorum), ("s", "x".into())]);
        assert_eq!(write(&row), "{\"q\":[0,1,3],\"s\":\"x\"}\n");
        let doc = Json::obj([
            ("rows", Json::Arr(vec![row.clone(), row])),
            ("n", 2u64.into()),
        ]);
        assert_eq!(
            write(&doc),
            "{\n  \"rows\": [\n    {\"q\":[0,1,3],\"s\":\"x\"},\n    \
             {\"q\":[0,1,3],\"s\":\"x\"}\n  ],\n  \"n\": 2\n}\n"
        );
        assert_eq!(write(&Json::Arr(vec![])), "[]\n");
        assert_eq!(
            write(&Json::obj([("e", Json::Arr(vec![]))])),
            "{\"e\":[]}\n"
        );
    }
}
