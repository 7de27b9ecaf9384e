//! A minimal JSON value, writer and parser.
//!
//! The workspace deliberately avoids a JSON dependency (it builds fully
//! offline); every exporter hand-rolls its output. This module is the
//! shared implementation for the telemetry layer: a [`Value`] tree that
//! preserves object key order, a compact and a pretty writer, and a
//! strict parser used by the schema validator (`xtask validate-metrics`)
//! and the trace-format tests.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so reports render in
/// the documented field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float. Non-finite values serialize as `null` (JSON has no
    /// NaN/Infinity).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Append a field to an object; panics when `self` is not one.
    pub fn set(&mut self, key: &str, value: Value) -> &mut Value {
        match self {
            Value::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("set() on a non-object"),
        }
        self
    }

    /// Object field by key (objects only).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The fields of an object.
    pub fn fields(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric view: `Int` or `Float` as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{}` is Rust's shortest round-trip representation
                    // and always valid JSON ("1" for 1.0, never "1e3").
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Value::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
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

/// Deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so the limit keeps a hostile document from
/// overflowing the stack; the documents this workspace writes nest
/// fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error,
/// including trailing garbage after the document and nesting deeper
/// than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Parse one array or object a level deeper, failing past
    /// [`MAX_DEPTH`] before recursing.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {start}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any of
                            // our writers; map lone surrogates to the
                            // replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    s.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let mut v = Value::obj();
        v.set("a", Value::Int(1));
        v.set("b", Value::Float(2.5));
        v.set("c", Value::Str("x\"y\n".to_string()));
        v.set("d", Value::Arr(vec![Value::Null, Value::Bool(true)]));
        let text = v.to_compact();
        assert_eq!(text, r#"{"a":1,"b":2.5,"c":"x\"y\n","d":[null,true]}"#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_round_trips() {
        let mut v = Value::obj();
        v.set("nested", {
            let mut o = Value::obj();
            o.set("k", Value::Arr(vec![Value::Int(1), Value::Int(2)]));
            o
        });
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"nested\""));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn preserves_key_order() {
        let parsed = parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = parsed
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn floats_without_fraction_render_as_integers_but_parse_back() {
        assert_eq!(Value::Float(1.0).to_compact(), "1");
        assert_eq!(parse("1").unwrap(), Value::Int(1));
        assert_eq!(parse("1.25e2").unwrap(), Value::Float(125.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::Float(f64::NAN).to_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn rejects_trailing_garbage_and_syntax_errors() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_and_raw_utf8() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".to_string()));
        assert_eq!(parse(r#""A\u00e9""#).unwrap(), Value::Str("Aé".to_string()));
    }

    #[test]
    fn nesting_past_the_limit_fails_closed() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH)).is_ok());
        let too_deep = format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}");
        assert_eq!(parse(&nest("[", "]", MAX_DEPTH + 1)), Err(too_deep.clone()));
        // Far past what the stack could hold: the same error, at once.
        assert_eq!(parse(&"[".repeat(100_000)), Err(too_deep));
        let objects = parse(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(objects.starts_with("nesting deeper"), "{objects}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB of mixed ASCII, two-byte UTF-8 and escapes. A parser
        // that re-scans the rest of the input per character needs
        // minutes for this; a linear one needs milliseconds.
        let chunk = "abcdéfgh\\n";
        let n = (4 << 20) / chunk.len();
        let text = format!("\"{}\"", chunk.repeat(n));
        let start = std::time::Instant::now();
        let parsed = parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed, Value::Str("abcdéfgh\n".repeat(n)));
        assert!(elapsed.as_secs() < 2, "4 MiB string took {elapsed:?}");
    }
}
