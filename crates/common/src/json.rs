//! A minimal strict JSON parser and writer (RFC 8259). The parser
//! validates the repo's serde-free JSON *writers* — the telemetry
//! registry dump, the Chrome trace export, and the bench report; the
//! offline build cannot depend on serde, so schema tests parse with this
//! instead.
//!
//! The [`JsonWriter`] half is the data-interchange layer the sweep
//! server's JSON-line protocol is built on: escape-correct strings,
//! comma/nesting bookkeeping, and single-line output (a JSONL record must
//! never contain a raw newline). [`Json::encode`] round-trips any parsed
//! value; the property tests in this module drive random documents
//! through encode → parse and require equality.

/// A parsed JSON value. Object fields keep document order (duplicates are
/// preserved; [`Json::get`] returns the first match).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one line of `[`
/// overflow the stack; committed documents nest about 8 deep.
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses a complete document; trailing garbage, and arrays or
    /// objects nested more than 128 deep, are errors.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// First field named `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array items if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Numeric value if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Appends `s` to `out` with every character that RFC 8259 requires
/// escaped (`"`, `\`, and all controls below `0x20`) written as an escape
/// sequence. The short forms `\n`, `\r`, `\t`, `\b`, `\f` are preferred;
/// remaining controls use `\u00XX`. All other characters — including
/// non-ASCII — pass through verbatim (the output is UTF-8).
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats a finite `f64` so the parser reads back the identical value
/// (Rust's shortest round-trip `Display`). Non-finite values have no JSON
/// representation and serialize as `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // `Display` omits the fraction for integral values ("3"); that is
        // already valid JSON, so keep it.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The one escape-correct JSON builder every emitter in the workspace
/// goes through.
///
/// The writer tracks nesting and inserts commas, so call sites only state
/// structure: `begin_obj` / `key` / value / `end_obj`. [`JsonWriter::new`]
/// output contains no newlines — one finished document is one JSONL
/// record; [`JsonWriter::pretty`] puts each element on its own line,
/// indented two spaces per level, for files a person reads. The two parse
/// to equal values. Misuse (a value where a key is required, unbalanced
/// `end_*`) panics: the writer is an in-process serializer, not a parser
/// of untrusted input.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One element per line, indented by depth.
    pretty: bool,
    /// One frame per open container: `true` = object (expects keys).
    stack: Vec<bool>,
    /// Whether the current container already holds an element.
    has_elem: Vec<bool>,
    /// A key was just written; exactly one value must follow.
    pending_key: bool,
}

impl JsonWriter {
    /// Creates an empty single-line writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer that breaks and indents every element.
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::default()
        }
    }

    /// Starts the line of an element (or of a closing bracket) at `depth`.
    fn newline(&mut self, depth: usize) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", depth));
        }
    }

    /// Separates the next element of the innermost container from the
    /// previous one.
    fn next_elem(&mut self) {
        let h = self.has_elem.last_mut().expect("container");
        if std::mem::replace(h, true) {
            self.out.push(',');
        }
        self.newline(self.stack.len());
    }

    fn comma(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(is_obj) = self.stack.last() {
            assert!(
                !is_obj,
                "JsonWriter: value in object position requires a key"
            );
            self.next_elem();
        }
    }

    fn end(&mut self, close: char) {
        if self.has_elem.pop().expect("container") {
            self.newline(self.stack.len());
        }
        self.out.push(close);
    }

    /// Opens an object (as a value or the document root).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.comma();
        self.out.push('{');
        self.stack.push(true);
        self.has_elem.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        assert_eq!(self.stack.pop(), Some(true), "end_obj without begin_obj");
        self.end('}');
        self
    }

    /// Opens an array (as a value or the document root).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.comma();
        self.out.push('[');
        self.stack.push(false);
        self.has_elem.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        assert_eq!(self.stack.pop(), Some(false), "end_arr without begin_arr");
        self.end(']');
        self
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        assert!(
            matches!(self.stack.last(), Some(true)) && !self.pending_key,
            "JsonWriter: key outside an object"
        );
        self.next_elem();
        self.out.push('"');
        escape_into(&mut self.out, k);
        self.out.push_str(if self.pretty { "\": " } else { "\":" });
        self.pending_key = true;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.comma();
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
        self
    }

    /// Writes a number value.
    pub fn num(&mut self, v: f64) -> &mut Self {
        self.comma();
        let s = fmt_f64(v);
        self.out.push_str(&s);
        self
    }

    /// Writes an unsigned integer exactly (no float round-trip).
    pub fn num_u64(&mut self, v: u64) -> &mut Self {
        use std::fmt::Write as _;
        self.comma();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.comma();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.comma();
        self.out.push_str("null");
        self
    }

    /// Splices a pre-serialized JSON value verbatim (e.g. an embedded
    /// registry dump). The caller guarantees `json` is a complete value
    /// with no raw newlines.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        debug_assert!(
            !json.contains('\n'),
            "raw JSON spliced into a JSONL record must be single-line"
        );
        self.comma();
        self.out.push_str(json);
        self
    }

    /// Writes a full [`Json`] value.
    pub fn value(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr();
                for it in items {
                    self.value(it);
                }
                self.end_arr()
            }
            Json::Obj(fields) => {
                self.begin_obj();
                for (k, val) in fields {
                    self.key(k);
                    self.value(val);
                }
                self.end_obj()
            }
        }
    }

    /// Finishes the document, returning the serialized text.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open or a key awaits its value.
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty() && !self.pending_key,
            "JsonWriter: unbalanced document"
        );
        self.out
    }
}

impl Json {
    /// Serializes this value as compact single-line JSON that parses back
    /// to an equal value (see the round-trip property tests).
    pub fn encode(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self);
        w.finish()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.i
                    ));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        self.ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object at byte {}: {other:?}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        self.ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array at byte {}: {other:?}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input came from a &str).
                    let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
        assert_eq!(doc.get("d").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1, 2,]",
            "{\"a\": }",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "nul",
            "",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // One line of `[` must fail cleanly, not overflow the stack.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let err = Json::parse(&r#"{"a":"#.repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn unicode_escapes_decode() {
        let esc = Json::parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(esc.as_str(), Some("Aé"));
        let doc = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(doc.as_str(), Some("Aé"));
    }

    #[test]
    fn writer_builds_expected_document() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name").str("line\none \"quoted\"");
        w.key("n").num_u64(42);
        w.key("pi").num(3.25);
        w.key("flag").bool(true);
        w.key("none").null();
        w.key("arr").begin_arr();
        w.num_u64(1).num_u64(2);
        w.begin_obj().key("k").str("v").end_obj();
        w.end_arr();
        w.end_obj();
        let text = w.finish();
        assert_eq!(
            text,
            r#"{"name":"line\none \"quoted\"","n":42,"pi":3.25,"flag":true,"none":null,"arr":[1,2,{"k":"v"}]}"#
        );
        assert!(!text.contains('\n'));
        Json::parse(&text).expect("writer output parses");
    }

    #[test]
    fn pretty_writer_indents_and_parses_equal_to_compact() {
        let doc = Json::parse(r#"{"a":[1,{"k":"v"},[]],"b":{},"c":null}"#).unwrap();
        let mut w = JsonWriter::pretty();
        w.value(&doc);
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"a\": [\n    1,\n    {\n      \"k\": \"v\"\n    },\n    []\n  ],\n  \"b\": {},\n  \"c\": null\n}"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn escape_covers_all_controls() {
        // Every string the writer emits must parse back to the original,
        // including the full control range and the two mandatory escapes.
        for code in 0u32..0x20 {
            let ch = char::from_u32(code).unwrap();
            let original = format!("a{ch}b");
            let encoded = Json::Str(original.clone()).encode();
            assert!(!encoded.contains('\n'), "raw newline in {encoded:?}");
            assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(&original[..]));
        }
        let tricky = "q\"s\\t/u\u{7f}é😀";
        let encoded = Json::Str(tricky.to_string()).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(tricky));
    }

    /// Random JSON value, bounded in depth and width so a case stays small.
    fn gen_value(rng: &mut crate::rng::Xorshift64, depth: u32) -> Json {
        let leaf_only = depth == 0;
        match if leaf_only {
            rng.below(4)
        } else {
            rng.below(6)
        } {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => {
                // Mix integers and fractions; always finite.
                if rng.chance(0.5) {
                    Json::Num(rng.next_u32() as f64 - (u32::MAX / 2) as f64)
                } else {
                    Json::Num(rng.next_f64() * 1e6 - 5e5)
                }
            }
            3 => Json::Str(gen_string(rng)),
            4 => {
                let n = rng.below(4) as usize;
                Json::Arr((0..n).map(|_| gen_value(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.below(4) as usize;
                Json::Obj(
                    (0..n)
                        .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    fn gen_string(rng: &mut crate::rng::Xorshift64) -> String {
        let n = rng.below(8) as usize;
        (0..n)
            .map(|_| match rng.below(5) {
                0 => char::from_u32(rng.below(0x20) as u32).unwrap(), // control
                1 => ['"', '\\', '/', '\u{7f}'][rng.below(4) as usize],
                2 => ['é', '汉', '😀'][rng.below(3) as usize],
                _ => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(), // ASCII
            })
            .collect()
    }

    #[test]
    fn prop_encode_parse_roundtrip() {
        crate::check::check("json encode/parse roundtrip", |rng| {
            let v = gen_value(rng, 3);
            let text = v.encode();
            assert!(!text.contains('\n'), "JSONL record holds raw newline");
            let back = Json::parse(&text)
                .unwrap_or_else(|e| panic!("encode produced unparseable {text:?}: {e}"));
            assert_eq!(back, v, "roundtrip mismatch for {text:?}");
        });
    }

    #[test]
    fn prop_numbers_roundtrip_exactly() {
        crate::check::check("json f64 shortest roundtrip", |rng| {
            let v = f64::from_bits(rng.next_u64());
            if !v.is_finite() {
                return;
            }
            let text = fmt_f64(v);
            let back = Json::parse(&text).unwrap().as_num().unwrap();
            assert!(
                back == v || (back == 0.0 && v == 0.0),
                "{v:?} reparsed as {back:?} via {text:?}"
            );
        });
    }

    #[test]
    #[should_panic(expected = "requires a key")]
    fn writer_rejects_value_in_key_position() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.num_u64(1);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn writer_rejects_unclosed_document() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.finish();
    }
}
