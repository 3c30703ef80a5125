//! The workspace's one JSON module: a byte-deterministic [`Writer`] and a
//! small reader, std-only.
//!
//! Every JSON document the workspace emits — the run report, both check
//! reports, the pass catalog, the result tables — is written through
//! [`Writer`], which owns indentation, comma placement, escaping and the
//! spelling of empty containers; keys come out in call order. There is
//! no other emitter, so "byte-identical across runs and `--threads`" is a
//! property of this file plus each caller's call order. The reader side
//! is a recursive-descent parser producing a [`Value`] tree, enough for
//! `massf report` to load what the writer produced and to reject
//! hand-mangled files with a positioned error (never a panic: nesting is
//! bounded by [`MAX_DEPTH`]).

use std::fmt::{self, Write as _};

/// Escapes `s` per JSON string rules and wraps it in double quotes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

fn push_quoted(out: &mut String, s: &str) {
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

/// Formats an `f64` with a fixed six-decimal notation so identical values
/// always serialize to identical bytes (no shortest-round-trip wobble).
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        // NaN / infinities are not valid JSON numbers; the report never
        // produces them, but fail closed rather than emit garbage.
        "null".to_string()
    }
}

/// How a container's members are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per nesting level.
    Block,
    /// All members on one line: `{"a": 1, "b": 2}`, `[1, 2]`.
    Inline,
    /// [`Layout::Inline`] padded inside the brackets: `{ "a": 1 }`.
    Spaced,
}

/// Streaming JSON writer. Containers take a closure for their body, so a
/// document is well-nested by construction; inside an object every value
/// is preceded by [`Writer::key`], inside an array values follow each
/// other directly. An empty container is always `{}` / `[]`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Open containers, innermost last: layout and members written so far.
    open: Vec<(Layout, usize)>,
    /// A key was just written; the next value belongs to it.
    keyed: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished document (no trailing newline).
    pub fn finish(self) -> String {
        self.out
    }

    /// A line break followed by `depth` levels of two-space indentation.
    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Starts the next member of the innermost container: the comma (or
    /// opening line break) and indentation.
    fn member(&mut self) {
        let depth = self.open.len();
        let Some((layout, count)) = self.open.last_mut() else {
            return;
        };
        let (layout, first) = (*layout, *count == 0);
        *count += 1;
        if !first {
            self.out.push(',');
        }
        match layout {
            Layout::Block => self.newline(depth),
            Layout::Inline if first => {}
            Layout::Inline | Layout::Spaced => self.out.push(' '),
        }
    }

    /// Starts a value: a new member inside an array, nothing to separate
    /// after a [`Writer::key`] or at top level.
    fn value(&mut self) {
        if !std::mem::take(&mut self.keyed) {
            self.member();
        }
    }

    fn container(&mut self, layout: Layout, brackets: [char; 2], body: impl FnOnce(&mut Self)) {
        self.value();
        self.out.push(brackets[0]);
        self.open.push((layout, 0));
        body(self);
        match self.open.pop() {
            Some((Layout::Block, n)) if n > 0 => self.newline(self.open.len()),
            Some((Layout::Spaced, n)) if n > 0 => self.out.push(' '),
            _ => {}
        }
        self.out.push(brackets[1]);
    }

    /// Writes an object whose members `body` emits as `key` + value pairs.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) {
        self.container(layout, ['{', '}'], body);
    }

    /// Writes an array whose items `body` emits as consecutive values.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) {
        self.container(layout, ['[', ']'], body);
    }

    /// Starts an object member; exactly one value call must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        push_quoted(&mut self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// A string value, escaped.
    pub fn string(&mut self, s: &str) {
        self.value();
        push_quoted(&mut self.out, s);
    }

    /// An unsigned integer value.
    pub fn uint(&mut self, n: u64) {
        self.value();
        let _ = write!(self.out, "{n}");
    }

    /// A signed integer value.
    pub fn int(&mut self, n: i64) {
        self.value();
        let _ = write!(self.out, "{n}");
    }

    /// A boolean value.
    pub fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    /// A float in the run report's fixed six-decimal form ([`fmt_f64`]);
    /// `null` when not finite.
    pub fn fixed(&mut self, x: f64) {
        self.value();
        self.out.push_str(&fmt_f64(x));
    }

    /// A float in shortest round-trip form (`2.0`, `1e-7` — what
    /// `serde_json` prints, and what `results/*.json` were written with);
    /// `null` when not finite.
    pub fn shortest(&mut self, x: f64) {
        self.value();
        if x.is_finite() {
            let _ = write!(self.out, "{x:?}");
        } else {
            self.out.push_str("null");
        }
    }

    /// A block array with one `layout` object per item, its members
    /// written by `row`.
    pub fn rows<T>(
        &mut self,
        layout: Layout,
        items: impl IntoIterator<Item = T>,
        mut row: impl FnMut(&mut Self, T),
    ) {
        self.array(Layout::Block, |w| {
            for item in items {
                w.object(layout, |w| row(w, item));
            }
        });
    }
}

/// A parsed JSON value. Numbers are kept as `f64`; every quantity the run
/// report stores fits `f64` exactly (counts far below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64` number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a signed integer (rejects fractional numbers).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(x) if x.fract() == 0.0 => Some(*x as i64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`parse`] accepts. The run report nests five
/// levels; the bound keeps a hostile `[[[[…` from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses `input` as one JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> ParseError {
    ParseError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", c as char)))
    }
}

/// `depth` is the number of containers already open around this value.
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_object(input, pos, depth + 1),
        Some(b'[') => parse_array(input, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(input, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(input, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{word}'")))
    }
}

/// Parses the members of the container opening at `pos`, up to and
/// including its `close` bracket; `member` parses one and stores it.
fn parse_members(
    input: &str,
    pos: &mut usize,
    close: u8,
    mut member: impl FnMut(&mut usize) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let bytes = input.as_bytes();
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        member(pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, &format!("expected ',' or '{}'", close as char))),
        }
    }
}

fn parse_object(input: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let mut members = Vec::new();
    parse_members(input, pos, b'}', |pos| {
        skip_ws(input.as_bytes(), pos);
        let key = parse_string(input, pos)?;
        skip_ws(input.as_bytes(), pos);
        expect(input.as_bytes(), pos, b':')?;
        members.push((key, parse_value(input, pos, depth)?));
        Ok(())
    })?;
    Ok(Value::Obj(members))
}

fn parse_array(input: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let mut items = Vec::new();
    parse_members(input, pos, b']', |pos| {
        items.push(parse_value(input, pos, depth)?);
        Ok(())
    })?;
    Ok(Value::Arr(items))
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, ParseError> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // The writer never emits surrogate pairs (it only
                        // escapes control characters), so a lone BMP code
                        // point is all we accept.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // `pos` only ever advances past whole ASCII bytes or whole
                // chars, so it sits on a char boundary of `input`.
                let c = input[*pos..]
                    .chars()
                    .next()
                    .expect("a byte at pos means a char at pos");
                if (c as u32) < 0x20 {
                    return Err(err(*pos, "raw control character in string"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(input: &str, pos: &mut usize) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    // An empty or non-numeric run still ends on an ASCII boundary.
    input[start..*pos]
        .parse::<f64>()
        .map(Value::Num)
        .map_err(|_| err(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::Layout::{Block, Inline, Spaced};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn fmt_f64_is_fixed_width() {
        assert_eq!(fmt_f64(1.0), "1.000000");
        assert_eq!(fmt_f64(0.1234567), "0.123457");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_i64(),
            Some(-3)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn round_trips_quote() {
        let original = "spans \"and\\paths\"\twith\ncontrol \u{3} bytes";
        let quoted = quote(original);
        let mut pos = 0;
        let back = parse_string(&quoted, &mut pos).unwrap();
        assert_eq!(back, original);
        assert_eq!(pos, quoted.len());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        let e = parse("nul").unwrap_err();
        assert!(e.to_string().contains("byte 0"), "{e}");
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        let v = parse("1.5").unwrap();
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.as_i64(), None);
        assert_eq!(parse("-4").unwrap().as_i64(), Some(-4));
        assert_eq!(parse("-4").unwrap().as_u64(), None);
    }

    #[test]
    fn writer_layouts_are_byte_exact() {
        let mut w = Writer::new();
        w.object(Block, |w| {
            w.key("s").string("a\"b");
            w.key("empty_obj").object(Block, |_| {});
            w.key("empty_arr").array(Inline, |_| {});
            w.key("none").null();
            w.key("some").fixed(2.5);
            w.key("nan").shortest(f64::NAN);
            w.key("ints")
                .array(Inline, |w| [3, 2, 1].into_iter().for_each(|x| w.uint(x)));
            w.key("rows")
                .rows(Inline, [(1, true), (-2, false)], |w, (n, b)| {
                    w.key("n").int(n);
                    w.key("b").bool(b);
                });
            w.key("padded")
                .rows(Spaced, [0.1], |w, x| w.key("x").shortest(x));
            w.key("nested")
                .array(Block, |w| w.array(Block, |w| w.null()));
        });
        let expected = r#"{
  "s": "a\"b",
  "empty_obj": {},
  "empty_arr": [],
  "none": null,
  "some": 2.500000,
  "nan": null,
  "ints": [3, 2, 1],
  "rows": [
    {"n": 1, "b": true},
    {"n": -2, "b": false}
  ],
  "padded": [
    { "x": 0.1 }
  ],
  "nested": [
    [
      null
    ]
  ]
}"#;
        assert_eq!(w.finish(), expected);
    }

    #[test]
    fn nesting_is_bounded_not_recursed_to_death() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let e = parse(&("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.to_string().contains("nesting deeper than 128"), "{e}");
        // The hostile case from the field: no stack overflow, just Err.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    /// One `Writer` call tree and the [`Value`] it must parse back to.
    #[derive(Debug)]
    enum Node {
        Str(String),
        Uint(u64),
        Int(i64),
        Bool(bool),
        Null,
        Fixed(f64),
        Shortest(f64),
        Arr(Layout, Vec<Node>),
        Obj(Layout, Vec<(String, Node)>),
    }

    /// Strings over the characters the escaper has to get right: quotes,
    /// backslashes, named and `\u00XX` control characters, non-ASCII.
    fn text(words: &mut impl Iterator<Item = u32>) -> String {
        const PALETTE: [char; 12] = [
            'a', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', 'é', '—', '😀',
        ];
        let n = words.next().unwrap_or(0) % 6;
        (0..n)
            .map(|_| PALETTE[words.next().unwrap_or(0) as usize % PALETTE.len()])
            .collect()
    }

    /// Decodes a word stream into a call tree. The root is a container,
    /// containers stop at depth 4, and an exhausted stream decodes as
    /// zeros (empty strings), so every stream is a finite tree.
    fn node(words: &mut impl Iterator<Item = u32>, depth: usize) -> Node {
        let w = words.next().unwrap_or(0);
        let layout = [Block, Inline, Spaced][(w >> 8) as usize % 3];
        let float = f64::from(w) / 7.0 - 1e8;
        let len = (w >> 12) as usize % 5;
        let kind = match depth {
            0 => 7 + w % 4,
            1..=3 => w % 11,
            _ => w % 7,
        };
        match kind {
            0 => Node::Str(text(words)),
            1 => Node::Uint(u64::from(w) << (w % 33)),
            2 => Node::Int(-i64::from(w)),
            3 => Node::Bool(w & 16 == 0),
            4 => Node::Null,
            5 => Node::Fixed(if w & 16 == 0 { float } else { f64::NAN }),
            6 => Node::Shortest(if w & 16 == 0 { float } else { f64::INFINITY }),
            7 | 8 => Node::Arr(layout, (0..len).map(|_| node(words, depth + 1)).collect()),
            _ => Node::Obj(
                layout,
                (0..len)
                    .map(|_| (text(words), node(words, depth + 1)))
                    .collect(),
            ),
        }
    }

    fn emit(n: &Node, w: &mut Writer) {
        match n {
            Node::Str(s) => w.string(s),
            Node::Uint(x) => w.uint(*x),
            Node::Int(x) => w.int(*x),
            Node::Bool(b) => w.bool(*b),
            Node::Null => w.null(),
            Node::Fixed(x) => w.fixed(*x),
            Node::Shortest(x) => w.shortest(*x),
            Node::Arr(layout, items) => w.array(*layout, |w| items.iter().for_each(|i| emit(i, w))),
            Node::Obj(layout, members) => w.object(*layout, |w| {
                members.iter().for_each(|(k, v)| emit(v, w.key(k)));
            }),
        }
    }

    fn expected(n: &Node) -> Value {
        match n {
            Node::Str(s) => Value::Str(s.clone()),
            Node::Uint(x) => Value::Num(*x as f64),
            Node::Int(x) => Value::Num(*x as f64),
            Node::Bool(b) => Value::Bool(*b),
            Node::Null => Value::Null,
            Node::Fixed(x) | Node::Shortest(x) if !x.is_finite() => Value::Null,
            Node::Fixed(x) => Value::Num(format!("{x:.6}").parse().unwrap()),
            Node::Shortest(x) => Value::Num(*x),
            Node::Arr(_, items) => Value::Arr(items.iter().map(expected).collect()),
            Node::Obj(_, members) => Value::Obj(
                members
                    .iter()
                    .map(|(k, v)| (k.clone(), expected(v)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever well-nested sequence of calls the writer is driven
        /// through, the reader accepts the document and sees the same
        /// keys in the same order and the same strings after unescaping.
        #[test]
        fn writer_output_parses_back(words in prop::collection::vec(any::<u32>(), 1..120)) {
            let tree = node(&mut words.into_iter(), 0);
            let mut w = Writer::new();
            emit(&tree, &mut w);
            let doc = w.finish();
            prop_assert_eq!(parse(&doc), Ok(expected(&tree)), "document: {}", doc);
        }
    }
}
