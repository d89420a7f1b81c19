//! A minimal JSON value type with a hand-rolled reader and writer.
//!
//! The workspace has no serde; this module is the whole story for every
//! textual format — the serving layer's request/response bodies, the
//! sharded graph layout's manifest, and the trace formats (solver-event
//! JSONL, request-trace lines and `/debug/requests`, structured log
//! lines) all go through it. It lives here (the bottom of the dependency
//! graph) so there is exactly one number and escaping policy and exactly
//! one tokenizer:
//!
//! * [`Writer`] appends compact JSON to one buffer. Its floats use the
//!   shortest round-trip text (byte-identical to Rust's `{x:?}`, from a
//!   Ryū-style formatter), so scores survive a write → parse cycle
//!   bit-for-bit. [`Json::emit`] is a [`Writer`] walking a tree; a
//!   handler with thousands of scores streams them without one.
//!   [`Writer::lossless_f64`] writes exactly `{x:?}` for every `f64`,
//!   non-finite values included, for the trace formats.
//! * [`Reader`] is a recursive-descent tokenizer that owns the depth
//!   limit. [`parse`] builds a [`Json`] tree with it; a caller can also
//!   pull objects and arrays entry by entry at any depth, read strings,
//!   exact `u64`s and lossless `f64`s, and read an id list straight into
//!   `Vec<u32>`.

mod num;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON text.
    pub fn emit(&self) -> String {
        let mut out = Writer::default();
        out.value(self);
        out.finish()
    }
}

/// Builds an object from key/value pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A streaming JSON writer: compact text appended to one buffer.
///
/// The caller writes the punctuation of its own objects and arrays with
/// [`Writer::raw`]; the writer owns everything with a policy — numbers
/// (integral values below 2^53 as integers, every other finite value as
/// its shortest round-trip text, non-finite as `null`) and string
/// escaping.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.raw(if b { "true" } else { "false" });
    }

    /// A non-negative integer — the same text as [`Writer::num`] of it
    /// below 2^53.
    pub fn uint(&mut self, v: u64) {
        num::write_u64(&mut self.buf, v);
    }

    /// A number.
    pub fn num(&mut self, x: f64) {
        num::write_f64(&mut self.buf, x);
    }

    /// Any `f64` as exactly its `{x:?}` text — `0.0`, `-0.0`, `12.0`,
    /// `NaN`, `inf` and `-inf` included — so every value reads back bit
    /// for bit with [`Reader::lossless_f64`]. The text is strict JSON
    /// only for finite values; the trace formats use it.
    pub fn lossless_f64(&mut self, x: f64) {
        num::write_debug_f64(&mut self.buf, x);
    }

    /// A quoted, escaped string.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.buf.push(b'"');
        let bytes = s.as_bytes();
        // Copy runs of plain bytes whole. Every escaped byte is ASCII, so
        // the runs split the text on char boundaries.
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\t' => b"\\t",
                b'\r' => b"\\r",
                0..=0x1f => &[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ],
                _ => continue,
            };
            self.buf.extend_from_slice(&bytes[run..i]);
            self.buf.extend_from_slice(escape);
            run = i + 1;
        }
        self.buf.extend_from_slice(&bytes[run..]);
        self.buf.push(b'"');
    }

    /// JSON text appended verbatim (punctuation and constant keys).
    pub fn raw(&mut self, text: &str) {
        self.buf.extend_from_slice(text.as_bytes());
    }

    /// A whole tree.
    pub fn value(&mut self, v: &Json) {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(x) => self.num(*x),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.raw("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.raw(",");
                    }
                    self.value(item);
                }
                self.raw("]");
            }
            Json::Obj(pairs) => {
                self.raw("{");
                for (i, (k, item)) in pairs.iter().enumerate() {
                    if i > 0 {
                        self.raw(",");
                    }
                    self.str(k);
                    self.raw(":");
                    self.value(item);
                }
                self.raw("}");
            }
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        String::from_utf8(self.buf).expect("the writer appends only UTF-8")
    }
}

/// Parses a JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut reader = Reader::new(input);
    let v = reader.value()?;
    reader.finish()?;
    Ok(v)
}

/// Nesting deeper than this is rejected (the service parses untrusted
/// bodies; unbounded recursion would let a client overflow the stack).
const MAX_DEPTH: usize = 64;

/// A pull reader over one JSON document — the tokenizer behind
/// [`parse`].
///
/// The reader sits at one value at a time. It walks objects member by
/// member ([`Reader::begin_object`], [`Reader::next_key`]) and arrays
/// element by element ([`Reader::begin_array`], [`Reader::next_element`])
/// at any depth, and reads each value as a tree ([`Reader::value`]), a
/// string ([`Reader::str`]), an exact `u64` ([`Reader::u64`]), a
/// lossless `f64` ([`Reader::lossless_f64`]) or, for id lists, straight
/// into `Vec<u32>` ([`Reader::u32_array`]). It owns the nesting limit:
/// a member or element deeper than 64 containers is an error. Read as
/// trees, every error is the one [`parse`] reports for the same text,
/// at the same byte.
#[derive(Clone)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers entered and not yet closed: the depth of the value at
    /// the reader.
    depth: usize,
    /// Whether the next [`Reader::next_key`] or [`Reader::next_element`]
    /// reads the container's first entry.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`'s document.
    pub fn new(text: &'a str) -> Reader<'a> {
        let mut reader = Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        };
        reader.skip_ws();
        reader
    }

    /// Enters the object at the reader. Returns `false`, having consumed
    /// nothing, when the value is not an object.
    pub fn begin_object(&mut self) -> bool {
        self.begin(b'{')
    }

    /// The next member's key of the innermost object, with its `:`
    /// consumed; `None` once the closing `}` is read.
    pub fn next_key(&mut self) -> Result<Option<String>, String> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        self.within_depth_limit()?;
        Ok(Some(key))
    }

    /// Enters the array at the reader. Returns `false`, having consumed
    /// nothing, when the value is not an array.
    pub fn begin_array(&mut self) -> bool {
        self.begin(b'[')
    }

    /// Moves to the next element of the innermost array: `true` when
    /// there is one, `false` once the closing `]` is read.
    pub fn next_element(&mut self) -> Result<bool, String> {
        let more = self.next_entry(b']')?;
        if more {
            self.within_depth_limit()?;
        }
        Ok(more)
    }

    /// The value at the reader as a tree.
    pub fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object();
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    pairs.push((key, self.value()?));
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                self.begin_array();
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.str()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let (start, text) = self.number_text()?;
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
            }
            Some(b) => Err(format!(
                "unexpected {:?} at byte {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The value at the reader as ids: `Ok(ids)` when it is an array of
    /// plain decimal integers that fit in `u32`. Any other value —
    /// including `1.0`, `-0`, larger numbers and malformed text — is
    /// read as a tree instead and returned as `Err(tree)` for the
    /// caller's own checks and messages.
    pub fn u32_array(&mut self) -> Result<Result<Vec<u32>, Json>, String> {
        let start = self.pos;
        match self.plain_u32_array() {
            Some(ids) => Ok(Ok(ids)),
            None => {
                self.pos = start;
                self.value().map(Err)
            }
        }
    }

    /// The string at the reader.
    pub fn str(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not reassembled; lone
                            // surrogates map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape \\{}", char::from(other)));
                        }
                    }
                }
                _ => {
                    // Copy the run of plain characters up to the next
                    // quote or escape in one slice. Both delimiters are
                    // ASCII, which never occurs inside a multi-byte UTF-8
                    // sequence, so the run ends on a char boundary — and
                    // it starts on one, as every token before it is ASCII.
                    let start = self.pos - 1;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        self.text
                            .get(start..self.pos)
                            .ok_or("invalid utf-8 in string")?,
                    );
                }
            }
        }
    }

    /// The number at the reader as an exact `u64`: plain decimal digits,
    /// no sign, fraction or exponent.
    pub fn u64(&mut self) -> Result<u64, String> {
        let (start, text) = self.number_text()?;
        text.parse()
            .map_err(|e| format!("bad integer {text:?} at byte {start}: {e}"))
    }

    /// The number at the reader as the exact `f64` its text names — the
    /// counterpart of [`Writer::lossless_f64`], so besides JSON numbers
    /// it reads `NaN`, `inf` and `-inf`. Only this method accepts them.
    pub fn lossless_f64(&mut self) -> Result<f64, String> {
        for (word, x) in [
            ("NaN", f64::NAN),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
        ] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(x);
            }
        }
        let (start, text) = self.number_text()?;
        text.parse()
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    /// Checks that only whitespace follows the document.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    /// The fast path of [`Reader::u32_array`]; `None` on anything else.
    fn plain_u32_array(&mut self) -> Option<Vec<u32>> {
        if self.peek() != Some(b'[') {
            return None;
        }
        self.pos += 1;
        let mut ids = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(ids);
        }
        // Elements past the nesting limit are the tree's error.
        if self.depth >= MAX_DEPTH {
            return None;
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let mut id = 0u64;
            while let Some(b @ b'0'..=b'9') = self.peek() {
                if self.pos - start == 10 {
                    return None;
                }
                id = id * 10 + u64::from(b - b'0');
                self.pos += 1;
            }
            if self.pos == start || id > u64::from(u32::MAX) {
                return None;
            }
            ids.push(id as u32);
            // Anything but `,` or `]` here — a fraction, an exponent, a
            // syntax error — is left to the tree.
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Some(ids);
                }
                _ => return None,
            }
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The number token at the reader: a `-` or a digit, then the run of
    /// characters a JSON number can hold (the caller's parser judges it).
    fn number_text(&mut self) -> Result<(usize, &'a str), String> {
        let start = self.pos;
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(format!("expected a number at byte {start}"));
        }
        self.pos += 1;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok((start, &self.text[start..self.pos]))
    }

    /// Consumes the container's opening `open`, if it is at the reader.
    fn begin(&mut self, open: u8) -> bool {
        if self.peek() != Some(open) {
            return false;
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        true
    }

    /// Inside a container whose opening is consumed: moves past the
    /// separator to the next entry, or consumes the closing `close` and
    /// returns `false`.
    fn next_entry(&mut self, close: u8) -> Result<bool, String> {
        let first = std::mem::replace(&mut self.first, false);
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if first => {}
            _ => {
                let close = char::from(close);
                return Err(format!("expected ',' or {close:?} at byte {}", self.pos));
            }
        }
        Ok(true)
    }

    /// Checks that a member or element about to be read sits within the
    /// nesting limit.
    fn within_depth_limit(&self) -> Result<(), String> {
        if self.depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -2.5e3 ").unwrap(), Json::Num(-2500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"members":[1,2,3],"opts":{"damping":0.85},"t":true}"#).unwrap();
        let members: Vec<u64> = v
            .get("members")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|j| j.as_u64().unwrap())
            .collect();
        assert_eq!(members, vec![1, 2, 3]);
        assert_eq!(
            v.get("opts").unwrap().get("damping").unwrap().as_f64(),
            Some(0.85)
        );
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }

    #[test]
    fn floats_round_trip_bitwise() {
        let values = [0.1 + 0.2, 1.0 / 3.0, 6.02e23, 5e-324, 0.85];
        for &x in &values {
            let text = Json::Num(x).emit();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Num(42.0).emit(), "42");
        assert_eq!(Json::Num(-3.0).emit(), "-3");
        assert_eq!(Json::Num(0.5).emit(), "0.5");
    }

    #[test]
    fn emit_escapes_strings() {
        let v = Json::Str("a\"b\\c\nd".into());
        assert_eq!(parse(&v.emit()).unwrap(), v);
    }

    #[test]
    fn object_roundtrip() {
        let v = obj(vec![
            ("id", Json::Num(7.0)),
            ("scores", Json::Arr(vec![Json::Num(0.25), Json::Num(0.75)])),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(parse(&v.emit()).unwrap(), v);
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn unicode_strings() {
        let v = parse("\"héllo → Λ\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → Λ"));
        let v = parse(r#""Aλ""#).unwrap();
        assert_eq!(v.as_str(), Some("Aλ"));
    }

    #[test]
    fn multibyte_chars_at_every_string_position() {
        // 2-, 3- and 4-byte UTF-8 sequences.
        for c in ["é", "€", "𝄞"] {
            for text in [
                format!("{c}ab"),
                format!("a{c}b"),
                format!("ab{c}"),
                c.to_string(),
                format!("{c}{c}"),
                format!("{c}\\n{c}"),
            ] {
                let doc = format!("\"{text}\"");
                let want = text.replace("\\n", "\n");
                assert_eq!(parse(&doc).unwrap().as_str(), Some(want.as_str()), "{doc}");
            }
        }
    }

    #[test]
    fn string_followed_by_a_multibyte_key() {
        let v = parse(r#"{"é":"ü€","𝄞":"Λ","a€":"x"}"#).unwrap();
        assert_eq!(v.get("é").unwrap().as_str(), Some("ü€"));
        assert_eq!(v.get("𝄞").unwrap().as_str(), Some("Λ"));
        assert_eq!(v.get("a€").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Quadratic rescanning would take seconds here.
        let long = "é".repeat(400_000) + &"a".repeat(400_000);
        let doc = Json::Str(long.clone()).emit();
        assert_eq!(parse(&doc).unwrap().as_str(), Some(long.as_str()));
    }

    /// Builds arbitrary [`Json`] trees deterministically from a word
    /// stream (the compat proptest shim has no recursive strategies, so
    /// the recursion lives here, depth-capped well under the parser's
    /// [`MAX_DEPTH`]).
    struct TreeBuilder<'a> {
        words: &'a [u64],
        pos: usize,
    }

    impl TreeBuilder<'_> {
        fn next(&mut self) -> u64 {
            let word = self.words[self.pos % self.words.len()];
            self.pos += 1;
            // Decorrelate wraparound passes so cycling the stream does
            // not repeat the same subtree forever.
            word ^ (self.pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }

        fn number(&mut self) -> f64 {
            // Awkward values the emitter must not mangle: accumulated
            // rounding error, the smallest subnormal, the largest finite,
            // huge magnitudes, and plain integers.
            const POOL: [f64; 10] = [
                0.1 + 0.2,
                5e-324,
                f64::MAX,
                6.02e23,
                -1.0 / 3.0,
                0.85,
                1e-12,
                -42.0,
                0.0,
                9_007_199_254_740_992.0, // 2^53
            ];
            let w = self.next();
            if w.is_multiple_of(3) {
                // Arbitrary bit patterns, skipping the values the emitter
                // documents as lossy: non-finite maps to null, and -0.0's
                // integer formatting drops the sign.
                let f = f64::from_bits(self.next());
                if f.is_finite() && f.to_bits() != (-0.0f64).to_bits() {
                    return f;
                }
            }
            POOL[(w % POOL.len() as u64) as usize]
        }

        fn string(&mut self) -> String {
            const POOL: [char; 12] = [
                'a', 'Z', '"', '\\', '\n', '\t', '\r', '\u{1}', 'λ', '→', '🙂', ' ',
            ];
            let len = (self.next() % 8) as usize;
            (0..len)
                .map(|_| POOL[(self.next() % POOL.len() as u64) as usize])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Json {
            let leaf_only = depth >= 5;
            match self.next() % if leaf_only { 4 } else { 6 } {
                0 => Json::Null,
                1 => Json::Bool(self.next().is_multiple_of(2)),
                2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 => {
                    let n = (self.next() % 4) as usize;
                    Json::Arr((0..n).map(|_| self.value(depth + 1)).collect())
                }
                _ => {
                    let n = (self.next() % 4) as usize;
                    Json::Obj(
                        (0..n)
                            .map(|_| (self.string(), self.value(depth + 1)))
                            .collect(),
                    )
                }
            }
        }
    }

    /// Collects every number in the tree, in traversal order.
    fn numbers(v: &Json, out: &mut Vec<f64>) {
        match v {
            Json::Num(x) => out.push(*x),
            Json::Arr(items) => items.iter().for_each(|item| numbers(item, out)),
            Json::Obj(pairs) => pairs.iter().for_each(|(_, item)| numbers(item, out)),
            _ => {}
        }
    }

    #[test]
    fn writer_escapes_control_characters() {
        let mut out = Writer::default();
        out.str("a\u{1}b\u{1f}\"\\\n\t\r€");
        assert_eq!(out.finish(), r#""a\u0001b\u001f\"\\\n\t\r€""#);
    }

    #[test]
    fn writer_streams_the_same_text_as_emit() {
        let mut out = Writer::with_capacity(8);
        out.raw("{\"n\":");
        out.uint(7);
        out.raw(",\"x\":");
        out.num(0.1 + 0.2);
        out.raw(",\"v\":");
        out.value(&Json::Arr(vec![Json::Null, Json::Bool(false)]));
        out.raw("}");
        let tree = obj(vec![
            ("n", Json::Num(7.0)),
            ("x", Json::Num(0.1 + 0.2)),
            ("v", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(out.finish(), tree.emit());
    }

    /// Walks a document with the pull API, reading every `"ids"` member
    /// with [`Reader::u32_array`], and rebuilds the tree [`parse`] gives.
    fn pull(text: &str) -> Result<Json, String> {
        let mut reader = Reader::new(text);
        if !reader.begin_object() {
            return parse(text);
        }
        let mut pairs = Vec::new();
        while let Some(key) = reader.next_key()? {
            let value = if key == "ids" {
                match reader.u32_array()? {
                    Ok(ids) => Json::Arr(ids.into_iter().map(|id| Json::Num(id.into())).collect()),
                    Err(tree) => tree,
                }
            } else {
                reader.value()?
            };
            pairs.push((key, value));
        }
        reader.finish()?;
        Ok(Json::Obj(pairs))
    }

    #[test]
    fn u32_arrays_read_plain_ids_and_fall_back_to_the_tree() {
        let mut reader = Reader::new(r#"{"ids": [ 0 , 7,4294967295 ] }"#);
        assert!(reader.begin_object());
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("ids"));
        assert_eq!(reader.u32_array().unwrap(), Ok(vec![0, 7, u32::MAX]));
        assert_eq!(reader.next_key().unwrap(), None);
        reader.finish().unwrap();
        for (doc, tree) in [
            ("[1.0]", "[1]"),
            ("[-0]", "[0]"),
            ("[4294967296]", "[4294967296]"),
            ("[00000000007]", "[7]"),
            // 2^64 + 5: would wrap to 5 in u64 arithmetic.
            ("[18446744073709551621]", "[18446744073709551621]"),
            ("[1,\"x\"]", "[1,\"x\"]"),
            ("{\"a\":1}", "{\"a\":1}"),
        ] {
            let text = format!("{{\"ids\":{doc}}}");
            let mut reader = Reader::new(&text);
            assert!(reader.begin_object());
            reader.next_key().unwrap();
            let got = reader.u32_array().unwrap();
            assert_eq!(got, Err(parse(tree).unwrap()), "{doc}");
            assert_eq!(reader.next_key().unwrap(), None);
            reader.finish().unwrap();
        }
        assert!(!Reader::new(" [1]").begin_object());
    }

    #[test]
    fn pull_errors_are_parse_errors() {
        for doc in [
            "{",
            "{\"ids\":[1,2",
            "{\"ids\":[1,2 3]}",
            "{\"ids\":[1,]}",
            "{\"ids\":[1],}",
            "{\"ids\":[1] \"a\":2}",
            "{ids:[1]}",
            "{\"ids\" [1]}",
            "{\"ids\":[1,2]} x",
            "{\"ids\":[1-2]}",
            "{\"a\":}",
        ] {
            let want = parse(doc).unwrap_err();
            assert_eq!(pull(doc), Err(want), "{doc}");
        }
    }

    /// Rebuilds a tree with the pull API: containers entered through
    /// `begin_*` and walked through `next_*`, scalars read as trees.
    fn pull_tree(reader: &mut Reader) -> Result<Json, String> {
        if reader.begin_object() {
            let mut pairs = Vec::new();
            while let Some(key) = reader.next_key()? {
                pairs.push((key, pull_tree(reader)?));
            }
            Ok(Json::Obj(pairs))
        } else if reader.begin_array() {
            let mut items = Vec::new();
            while reader.next_element()? {
                items.push(pull_tree(reader)?);
            }
            Ok(Json::Arr(items))
        } else {
            reader.value()
        }
    }

    fn pull_document(text: &str) -> Result<Json, String> {
        let mut reader = Reader::new(text);
        let tree = pull_tree(&mut reader)?;
        reader.finish()?;
        Ok(tree)
    }

    #[test]
    fn nested_pulls_read_typed_values() {
        let text = r#"{"a":[["x",18446744073709551615],["y",0]],"b":{"c":[NaN,-inf,inf,-0.0,5e-324]},"d":"é"}"#;
        let mut reader = Reader::new(text);
        assert!(reader.begin_object());
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("a"));
        assert!(reader.begin_array());
        let mut pairs = Vec::new();
        while reader.next_element().unwrap() {
            assert!(reader.begin_array());
            assert!(reader.next_element().unwrap());
            let name = reader.str().unwrap();
            assert!(reader.next_element().unwrap());
            pairs.push((name, reader.u64().unwrap()));
            assert!(!reader.next_element().unwrap());
        }
        assert_eq!(pairs, [("x".to_string(), u64::MAX), ("y".to_string(), 0)]);
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("b"));
        assert!(reader.begin_object());
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("c"));
        assert!(!reader.begin_object());
        assert!(reader.begin_array());
        let mut floats = Vec::new();
        while reader.next_element().unwrap() {
            floats.push(reader.lossless_f64().unwrap().to_bits());
        }
        let want = [f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -0.0, 5e-324];
        assert_eq!(floats, want.map(f64::to_bits));
        assert_eq!(reader.next_key().unwrap(), None);
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("d"));
        assert_eq!(reader.str().unwrap(), "é");
        assert_eq!(reader.next_key().unwrap(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn typed_pulls_refuse_other_values() {
        for (text, wants_integer) in [
            ("18446744073709551616", true),
            ("1.0", true),
            ("-1", true),
            ("\"1\"", true),
            ("NaN", true),
            ("\"NaN\"", false),
            ("nan", false),
            ("+1", false),
            ("x", false),
        ] {
            assert!(Reader::new(text).u64().is_err(), "{text}");
            if !wants_integer {
                assert!(Reader::new(text).lossless_f64().is_err(), "{text}");
            }
        }
        assert!(Reader::new("1").str().is_err());
        // Trees stay strict JSON: only the lossless pull reads non-finite
        // values.
        for text in ["NaN", "[inf]", "{\"x\":-inf}"] {
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn lossless_floats_round_trip_every_value() {
        for x in [
            0.0,
            -0.0,
            12.0,
            0.1,
            1e-7,
            1e300,
            5e-324,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let mut out = Writer::default();
            out.lossless_f64(x);
            let text = out.finish();
            assert_eq!(text, format!("{x:?}"));
            let back = Reader::new(&text).lossless_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn pulls_own_the_depth_limit() {
        // Deep documents fail at the limit, not on the stack.
        let deep = "[".repeat(10_000);
        let mut reader = Reader::new(&deep);
        let mut levels = 0;
        let err = loop {
            assert!(reader.begin_array());
            match reader.next_element() {
                Ok(more) => assert!(more),
                Err(e) => break e,
            }
            levels += 1;
        };
        assert_eq!((levels, err.as_str()), (MAX_DEPTH, "nesting too deep"));
        let deep = "{\"a\":".repeat(10_000);
        assert_eq!(pull_document(&deep), parse(&deep));
        // The last level that still holds members, and one past it.
        let fits = "[".repeat(MAX_DEPTH) + "1" + &"]".repeat(MAX_DEPTH);
        assert!(pull_document(&fits).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + "1" + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(pull_document(&over), Err("nesting too deep".to_string()));
        let ids = "{\"a\":".repeat(MAX_DEPTH) + "[1]" + &"}".repeat(MAX_DEPTH);
        let mut reader = Reader::new(&ids);
        for _ in 0..MAX_DEPTH {
            assert!(reader.begin_object());
            reader.next_key().unwrap();
        }
        assert_eq!(reader.u32_array(), Err("nesting too deep".to_string()));
    }

    proptest! {
        /// `parse ∘ emit` is the identity on arbitrary trees — structure,
        /// duplicate object keys, pathological strings, and every f64
        /// down to the bit.
        #[test]
        fn emit_parse_round_trips(words in proptest::collection::vec(any::<u64>(), 1..64)) {
            let tree = TreeBuilder { words: &words, pos: 0 }.value(0);
            let text = tree.emit();
            let back = parse(&text).unwrap_or_else(|e| panic!("emit produced unparseable {text:?}: {e}"));
            prop_assert_eq!(&back, &tree);
            let (mut sent, mut got) = (Vec::new(), Vec::new());
            numbers(&tree, &mut sent);
            numbers(&back, &mut got);
            prop_assert_eq!(sent.len(), got.len());
            for (a, b) in sent.iter().zip(&got) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} reparsed as {}", a, b);
            }
        }

        /// The pull reader agrees with [`parse`] on every document —
        /// objects with id lists (plain, or with elements only the tree
        /// reads), arbitrary other members, and every truncation or
        /// one-byte corruption of them: the same tree, or the same error.
        #[test]
        fn pull_reads_what_parse_reads(
            words in proptest::collection::vec(any::<u64>(), 1..64),
            ids in proptest::collection::vec(any::<u32>(), 0..12),
            cut in any::<u64>(),
        ) {
            const ODD: [&str; 6] = ["1.0", "-0", "4294967296", "\"x\"", "null", "[3]"];
            const NOISE: &[u8] = b"[]{},:\" 1-.x";
            let mut builder = TreeBuilder { words: &words, pos: 0 };
            let mut list: Vec<String> = ids.iter().map(u32::to_string).collect();
            if cut % 3 == 0 {
                let at = (cut / 3) as usize % (list.len() + 1);
                list.insert(at, ODD[(cut / 7) as usize % ODD.len()].to_string());
            }
            let other = builder.value(1);
            let text = format!(
                "{{\"a\":{},\"ids\":[{}], \"b\" : {} ,\"ids\":[{}]}}",
                other.emit(),
                list.join(","),
                builder.value(1).emit(),
                list.join(" , "),
            );
            prop_assert_eq!(pull(&text), parse(&text));
            prop_assert_eq!(pull_document(&text), parse(&text));
            let at = (cut as usize) % (text.len() + 1);
            if text.is_char_boundary(at) {
                let truncated = &text[..at];
                prop_assert_eq!(pull(truncated), parse(truncated));
                prop_assert_eq!(pull_document(truncated), parse(truncated));
                let corrupt = format!("{}{}{}", &text[..at], char::from(NOISE[(cut >> 32) as usize % NOISE.len()]), &text[at..]);
                prop_assert_eq!(pull(&corrupt), parse(&corrupt));
                prop_assert_eq!(pull_document(&corrupt), parse(&corrupt));
            }
        }
    }
}
