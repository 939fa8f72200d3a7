//! The committed oracles: a small JSON reader and the two row sets the
//! benchmark checks against (`BENCH_figures.json`, `BENCH_cost.json`).
//!
//! Numbers keep their source text, so an oracle value can be compared
//! exactly as committed (`"overlap":0.023333` is matched against the
//! simulator's value formatted the same way, never through a float).

use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The number's source text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let digits = |p: &mut Self| {
            let d0 = p.i;
            while matches!(p.s.get(p.i), Some(b'0'..=b'9')) {
                p.i += 1;
            }
            p.i > d0
        };
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.s.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("digits are ASCII");
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self
                        .s
                        .get(self.i + 1)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.i += 2;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            char::from_u32(hex).ok_or_else(|| self.err("unpaired surrogate"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                Some(&c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

impl Json {
    /// The value of `key` in an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("field {key:?} looked up on a non-object")),
        }
    }

    pub fn items(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("expected an array".into()),
        }
    }

    pub fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected a string".into()),
        }
    }

    /// The number's source text.
    pub fn num(&self) -> Result<&str, String> {
        match self {
            Json::Num(n) => Ok(n),
            _ => Err("expected a number".into()),
        }
    }

    pub fn u64(&self) -> Result<u64, String> {
        let n = self.num()?;
        n.parse().map_err(|_| format!("{n} is not a whole number"))
    }

    pub fn bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".into()),
        }
    }
}

/// One committed Fig 6.1/6.2 row: the virtual-time results of one
/// (figure, variant, GPU count) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigRow {
    pub total_ns: u64,
    pub per_iter_ns: u64,
    pub comm_ns: u64,
    pub sync_ns: u64,
    pub exposed_comm_ns: u64,
    /// `overlap` exactly as committed (six decimals).
    pub overlap: String,
}

/// `(figure slug, series, gpus)` → committed row.
pub type FigKey = (String, String, usize);
pub type FigOracle = BTreeMap<FigKey, FigRow>;

/// The Fig 6.1 and Fig 6.2 rows of `BENCH_figures.json`.
pub fn figures_oracle(text: &str) -> Result<FigOracle, String> {
    let doc = parse(text)?;
    let Json::Obj(figures) = &doc else {
        return Err("BENCH_figures.json: expected an object of figures".into());
    };
    let mut out = FigOracle::new();
    for (slug, rows) in figures {
        if !(slug.starts_with("fig6_1_") || slug.starts_with("fig6_2_")) {
            continue;
        }
        for row in rows.items().map_err(|e| format!("{slug}: {e}"))? {
            let field = |k: &str| row.get(k).map_err(|e| format!("{slug}: {e}"));
            let key = (
                slug.clone(),
                field("series")?.str()?.to_string(),
                usize::try_from(field("gpus")?.u64()?).map_err(|e| e.to_string())?,
            );
            let value = FigRow {
                total_ns: field("total_ns")?.u64()?,
                per_iter_ns: field("per_iter_ns")?.u64()?,
                comm_ns: field("comm_ns")?.u64()?,
                sync_ns: field("sync_ns")?.u64()?,
                exposed_comm_ns: field("exposed_comm_ns")?.u64()?,
                overlap: field("overlap")?.num()?.to_string(),
            };
            if out.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate row {key:?}"));
            }
        }
    }
    if out.is_empty() {
        return Err("BENCH_figures.json holds no fig6_1/fig6_2 rows".into());
    }
    Ok(out)
}

/// One committed cell of the static cost ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostRow {
    pub program: String,
    pub stage: String,
    pub gpus: usize,
    pub fabric: String,
    pub predicted_ns: u64,
    pub base_ns: u64,
    pub margin_ns: u64,
    pub contended: bool,
    pub extrapolated: bool,
}

/// The `cost` rows of `BENCH_cost.json`.
pub fn cost_oracle(text: &str) -> Result<Vec<CostRow>, String> {
    let doc = parse(text)?;
    let mut out = Vec::new();
    for row in doc.get("cost")?.items()? {
        out.push(CostRow {
            program: row.get("program")?.str()?.to_string(),
            stage: row.get("stage")?.str()?.to_string(),
            gpus: usize::try_from(row.get("gpus")?.u64()?).map_err(|e| e.to_string())?,
            fabric: row.get("fabric")?.str()?.to_string(),
            predicted_ns: row.get("predicted_ns")?.u64()?,
            base_ns: row.get("base_ns")?.u64()?,
            margin_ns: row.get("margin_ns")?.u64()?,
            contended: row.get("contended")?.bool()?,
            extrapolated: row.get("extrapolated")?.bool()?,
        });
    }
    if out.is_empty() {
        return Err("BENCH_cost.json holds no cost rows".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo_file;

    #[test]
    fn parses_values_and_escapes() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": "x\"\\\u0041\n"} "#).unwrap();
        assert_eq!(
            v.get("a").unwrap().items().unwrap(),
            &[
                Json::Num("1".into()),
                Json::Num("-2.5e3".into()),
                Json::Bool(true),
                Json::Null
            ]
        );
        assert_eq!(v.get("b").unwrap().str().unwrap(), "x\"\\A\n");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01x",
            "\"abc",
            "tru",
            "{} {}",
            "[1 2]",
            "-",
            "1.",
            "\"\\q\"",
            "{\"a\":}",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn truncated_oracles_are_errors_never_panics() {
        for (name, parse_oracle) in [
            (
                "BENCH_figures.json",
                (|t: &str| figures_oracle(t).map(|_| ())) as fn(&str) -> Result<(), String>,
            ),
            ("BENCH_cost.json", |t: &str| cost_oracle(t).map(|_| ())),
        ] {
            let text = repo_file(name);
            parse_oracle(&text).unwrap();
            // Every proper prefix that ends before the closing brace is
            // truncated JSON; sample them densely near both ends.
            let cut = text.trim_end().len() - 1;
            for len in (0..cut).step_by(97).chain(cut.saturating_sub(64)..cut) {
                assert!(
                    parse_oracle(&text[..len]).is_err(),
                    "{name} truncated to {len} bytes parsed"
                );
            }
            assert!(parse_oracle("{\"cost\": 7}").is_err());
        }
        let renamed = repo_file("BENCH_figures.json").replace("\"total_ns\"", "\"total\"");
        assert!(figures_oracle(&renamed).is_err());
    }

    #[test]
    fn oracles_hold_the_committed_rows() {
        let fig = figures_oracle(&repo_file("BENCH_figures.json")).unwrap();
        assert_eq!(fig.len(), 144);
        let cost = cost_oracle(&repo_file("BENCH_cost.json")).unwrap();
        assert_eq!(cost.len(), 112);
        assert!(cost
            .iter()
            .all(|r| r.predicted_ns == r.base_ns + r.margin_ns));
    }
}
