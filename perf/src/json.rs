//! The two JSON shapes this package writes, and a small reader.
//!
//! * `scioto-bench-v1` documents (`perf/out/BENCH_*.json`), laid out
//!   exactly as `scioto_bench::benchjson` lays them out — sorted keys,
//!   six-decimal values, the wall stamp alone on its line — so
//!   `bench_diff` reads them; written here because this package must not
//!   depend on `scioto-bench`.
//! * The driver's result line: `correct`, `attempted`, `failed`,
//!   `metrics: {name: {value, unit}}`, values at full precision.
//!
//! The reader is a plain recursive-descent parser over the whole JSON
//! grammar; it reads `BENCHMARK.json` (bounds, metric lists) and this
//! package's own outputs back for `--repeat-check` and the tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag shared with `scioto_bench::benchjson`.
pub const BENCH_SCHEMA: &str = "scioto-bench-v1";

/// Render a `scioto-bench-v1` document.
pub fn bench_v1(
    name: &str,
    wall_ns: u64,
    params: &BTreeMap<String, String>,
    metrics: &BTreeMap<String, f64>,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n\"schema\":\"{BENCH_SCHEMA}\",\n\"name\":\"{name}\",\n\
         \"generated_wall_ns\":{wall_ns},\n\"params\":{{"
    );
    for (i, (k, v)) in params.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":\"{v}\"", if i == 0 { "" } else { "," });
    }
    out.push_str("},\n\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":{v:.6}", if i == 0 { "" } else { "," });
    }
    out.push_str("}\n}\n");
    out
}

/// Render the driver's result line from `(name, value, unit)` triples.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for anything else).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// The members of an object (empty for anything else).
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.src.len() {
        return Err(p.fail("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.src.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.fail("expected ':'"));
                    }
                    members.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .src
                    .get(self.at)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.src[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.fail("expected a value"))
            }
            None => Err(self.fail("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let c = *self
                .src
                .get(self.at)
                .ok_or_else(|| self.fail("unterminated string"))?;
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.fail("invalid UTF-8")),
                b'\\' => {
                    let e = *self
                        .src
                        .get(self.at)
                        .ok_or_else(|| self.fail("bad escape"))?;
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                }
                _ => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5e1, {"b": "x\nyé"}], "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().items()[1].as_f64(), Some(25.0));
        assert_eq!(
            v.get("a").unwrap().items()[2].get("b").unwrap().as_str(),
            Some("x\nyé")
        );
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn bench_v1_is_canonical_and_reads_back() {
        let params = BTreeMap::from([("seed".to_string(), "0".to_string())]);
        let metrics = BTreeMap::from([("b.two".to_string(), 2.0), ("a.one".to_string(), 1.25)]);
        let doc = bench_v1("host_x", 42, &params, &metrics);
        assert!(doc.contains("\n\"generated_wall_ns\":42,\n"));
        assert!(doc.contains("\"metrics\":{\"a.one\":1.250000,\"b.two\":2.000000}"));
        scioto_sim::validate_json(&doc).unwrap();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(
            v.get("metrics").unwrap().get("a.one").unwrap().as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[("setup_s", 0.8127, "s"), ("x", 3.0, "count")],
        );
        let v = parse(&line).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert!(!line.contains('\n'));
    }
}
