//! Minimal JSON emit + parse, enough for snapshot round-trips.
//!
//! The workspace has no serde, so snapshots hand-serialize themselves
//! (see [`Snapshot::to_json`](crate::Snapshot::to_json)) and this module
//! supplies the reverse direction plus string escaping. The parser
//! accepts the standard grammar (objects, arrays, strings with the
//! common escapes, integers/floats, booleans, null) — sufficient to read
//! back anything the crate emits and to let tests assert structure.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; u64 counters up to 2^53 survive exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (key-sorted).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Escape `s` into `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`parse`] accepts. Everything the
/// workspace writes nests a handful of levels; the cap keeps a hostile
/// document (say, 10⁶ `[`) from overflowing the recursive parser's stack.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Returns `Err(position, message)` on malformed
/// input, nesting deeper than `MAX_DEPTH` (128) arrays and objects, or
/// trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, (usize, String)> {
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
        return Err((p.pos, "trailing characters".into()));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, (usize, String)> {
        Err((self.pos, msg.to_owned()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), (usize, String)> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, (usize, String)> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parse one array/object with `container`, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, (usize, String)>,
    ) -> Result<JsonValue, (usize, String)> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, (usize, String)> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, (usize, String)> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, (usize, String)> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, (usize, String)> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one step. Both are ASCII, which never occurs inside
                    // a multi-byte UTF-8 sequence, so the run ends on a
                    // character boundary of `input`.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let end = self.pos + run;
                    let Some(text) = self.input.get(self.pos..end) else {
                        return self.err("invalid UTF-8 in string");
                    };
                    out.push_str(text);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, (usize, String)> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| (start, "invalid UTF-8 in number".to_owned()))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| (start, format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_basics() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\n\"y"], "c": -2.5e1}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-25.0));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_str(), Some("x\n\"y"));
    }

    #[test]
    fn escape_and_reparse() {
        let nasty = "quote\" slash\\ tab\t nl\n ctrl\u{1} unicode→";
        let mut out = String::new();
        escape_into(&mut out, nasty);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
        // A hostile line errors instead of overflowing the stack.
        let (pos, msg) = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(pos, MAX_DEPTH);
        assert!(msg.contains("nesting"), "{msg}");
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    /// A string is copied run by run: a multi-MiB string parses in
    /// time linear in its length, and every escape and multi-byte
    /// character between the runs decodes exactly.
    #[test]
    fn long_strings_and_escapes_decode_exactly() {
        let long = "x→é🦀".repeat(1 << 18);
        let doc = format!("[\"{long}\", \"{long}\\n{long}\"]");
        assert!(doc.len() > 4 << 20);
        let v = parse(&doc).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some(long.as_str()));
        assert_eq!(arr[1].as_str(), Some(format!("{long}\n{long}").as_str()));

        let escapes = r#""a\"b\\c\/d\ne\rf\tg\bh\fi\u0041\u00e9\u2192j→🦀""#;
        assert_eq!(
            parse(escapes).unwrap().as_str(),
            Some("a\"b\\c/d\ne\rf\tg\u{8}h\u{c}iAé→j→🦀")
        );
        assert_eq!(parse(r#""""#).unwrap().as_str(), Some(""));
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
    }

    /// The error texts and positions of a broken string are unchanged.
    #[test]
    fn string_errors_keep_their_text_and_position() {
        for (doc, want) in [
            (r#""abc"#, (4, "unterminated string")),
            (r#""é→"#, (6, "unterminated string")),
            (r#""ab\"#, (4, "bad escape")),
            (r#""ab\x""#, (4, "bad escape")),
            (r#""ab\u00""#, (4, "bad \\u escape")),
            (r#""\ud800""#, (2, "bad \\u escape")),
            (r#"{"a"#, (3, "unterminated string")),
        ] {
            assert_eq!(parse(doc), Err((want.0, want.1.to_owned())), "{doc}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(Default::default()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
    }
}
