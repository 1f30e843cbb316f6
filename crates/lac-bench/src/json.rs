//! Minimal hand-rolled JSON serializer *and parser* (the build has no
//! crates.io access, so no serde): enough for the bench binaries'
//! `--json-out` points and the perf-baseline comparison — objects, arrays,
//! strings, integers and floats, with escaping. [`Json::parse`] reads
//! back what [`Json::render`]/[`Json::render_pretty`] write (and any
//! other standard JSON document).
//!
//! ```
//! use lac_bench::json::Json;
//! let point = Json::obj([
//!     ("cores", Json::from(4u64)),
//!     ("speedup", Json::from(3.25)),
//!     ("policy", Json::from("critical-path")),
//! ]);
//! assert_eq!(
//!     point.render(),
//!     r#"{"cores":4,"speedup":3.25,"policy":"critical-path"}"#
//! );
//! ```

use std::fmt::Write as _;

/// A JSON value. Build with the `From` impls and [`Json::obj`] /
/// [`Json::arr`]; serialize with [`Json::render`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers keep full `u64` precision (no float round-trip).
    UInt(u64),
    Int(i64),
    /// Non-finite floats render as `null` (JSON has no NaN/Inf).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Parse a JSON document. Integers without a fraction/exponent come
    /// back as [`Json::UInt`]/[`Json::Int`] (full precision — the
    /// baseline comparison diffs cycle counts exactly), everything else
    /// numeric as [`Json::Num`]. Errors carry the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (None on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, whatever numeric variant holds it.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize with two-space indentation — what the archived perf
    /// points use so diffs stay readable.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Recursive-descent parser over the raw bytes (JSON structure is ASCII;
/// string contents pass through as UTF-8).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates never appear in our own output;
                            // map them to the replacement character
                            // rather than failing the whole file.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar through verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display is valid JSON for finite f64,
        // but renders whole floats without a decimal point ("3"), which
        // would re-parse as Json::UInt and break Num round-trips — keep
        // the float-ness explicit with a trailing ".0".
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_containers() {
        let v = Json::obj([
            ("name", Json::from("chip \"A\"\n")),
            ("cores", Json::from(16u64)),
            ("util", Json::from(0.875)),
            ("nan", Json::from(f64::NAN)),
            ("flags", Json::arr([Json::from(true), Json::Null])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"chip \"A\"\n","cores":16,"util":0.875,"nan":null,"flags":[true,null]}"#
        );
    }

    #[test]
    fn integers_keep_full_precision() {
        let big = u64::MAX;
        assert_eq!(Json::from(big).render(), big.to_string());
        assert_eq!(Json::from(-42i64).render(), "-42");
    }

    #[test]
    fn floats_roundtrip_shortest() {
        assert_eq!(Json::from(0.1).render(), "0.1");
        // Whole floats keep an explicit ".0" so they re-parse as Num,
        // not UInt.
        assert_eq!(Json::from(3.0).render(), "3.0");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn negative_numbers_round_trip() {
        for v in [
            Json::Int(-7),
            Json::Int(i64::MIN),
            Json::Num(-2.5),
            Json::Num(-1000.0),
        ] {
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{}", v.render());
        }
        assert_eq!(Json::parse("-0.125").unwrap(), Json::Num(-0.125));
    }

    #[test]
    fn exponent_floats_round_trip() {
        // Whole-valued floats — whether written with an exponent or not —
        // must come back as Num, never silently reclassified as UInt.
        for (text, v) in [("1e3", 1000.0), ("2.5E-2", 0.025), ("-4e2", -400.0)] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed, Json::Num(v), "{text}");
            assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed, "{text}");
        }
        assert_eq!(
            Json::parse(&Json::Num(1e300).render()).unwrap(),
            Json::Num(1e300)
        );
    }

    #[test]
    fn pretty_nests_with_two_spaces() {
        let v = Json::obj([("rows", Json::arr([Json::from(1u64)]))]);
        assert_eq!(v.render_pretty(), "{\n  \"rows\": [\n    1\n  ]\n}\n");
        assert_eq!(Json::arr([]).render_pretty(), "[]\n");
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn parse_round_trips_what_render_writes() {
        let v = Json::obj([
            ("bench", Json::from("service_throughput")),
            ("cores", Json::from(4u64)),
            ("delta", Json::from(-3i64)),
            ("speedup", Json::from(2.4375)),
            ("ok", Json::from(true)),
            ("note", Json::from("tabs\tand \"quotes\" and ünïcode")),
            (
                "nested",
                Json::arr([Json::Null, Json::obj([("k", Json::from(1u64))])]),
            ),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_keeps_integer_precision_and_classifies_numbers() {
        let v = Json::parse(r#"[18446744073709551615, -7, 0.5, 1e3]"#).unwrap();
        let Json::Arr(items) = &v else { panic!() };
        assert_eq!(items[0], Json::UInt(u64::MAX));
        assert_eq!(items[1], Json::Int(-7));
        assert_eq!(items[2], Json::Num(0.5));
        assert_eq!(items[3], Json::Num(1000.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn accessors_read_fields_and_numbers() {
        let v = Json::parse(r#"{"name":"x","n":3}"#).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("missing"), None);
    }
}
