//! A minimal TOML parser with per-value line tracking.
//!
//! The build environment vendors no registry crates, so the scenario
//! subsystem carries its own reader for the slice of TOML it uses:
//! comments, `[table]` and `[[array-of-tables]]` headers, dotted and
//! quoted keys, basic (`"…"`) and literal (`'…'`) strings, integers with
//! underscores, floats, booleans, (possibly multi-line) arrays, and
//! inline tables. Dates, multi-line strings, and hex/octal/binary
//! integers are rejected with a diagnostic rather than misparsed.
//!
//! Every parsed value remembers the 1-based source line it started on, so
//! schema validation can point at the offending `file:line` instead of
//! dumping a `Debug` tree.

use std::fmt;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlValue {
    /// A string (basic or literal).
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Spanned>),
    /// A table (from a header, a dotted key, or inline syntax).
    Table(Table),
}

impl TomlValue {
    /// Human-readable name of the value's type, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
            TomlValue::Table(_) => "table",
        }
    }
}

/// The value as TOML text that parses back to it: what [`Table::set`]
/// takes, and what the emitter writes for a `[[sweep]]` value.
impl fmt::Display for TomlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let joined = |items: Vec<String>| items.join(", ");
        match self {
            TomlValue::Str(s) => write!(f, "{s:?}"),
            TomlValue::Int(i) => write!(f, "{i}"),
            TomlValue::Float(x) => write!(f, "{x:?}"),
            TomlValue::Bool(b) => write!(f, "{b}"),
            TomlValue::Array(items) => {
                write!(
                    f,
                    "[{}]",
                    joined(items.iter().map(|s| s.value.to_string()).collect())
                )
            }
            TomlValue::Table(t) => {
                let entries = t.entries.iter().map(|(k, s)| format!("{k} = {}", s.value));
                write!(f, "{{ {} }}", joined(entries.collect()))
            }
        }
    }
}

/// A value plus the 1-based line it started on.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// The value.
    pub value: TomlValue,
    /// 1-based source line.
    pub line: u32,
}

impl Spanned {
    fn new(value: TomlValue, line: u32) -> Self {
        Spanned { value, line }
    }
}

/// An insertion-ordered table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// `(key, value)` pairs in source order.
    pub entries: Vec<(String, Spanned)>,
    /// Line of the header (or first key) that opened this table.
    pub line: u32,
}

impl Table {
    /// The entry under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Spanned> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the table holds `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Spanned> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The entry at the dotted key `path` (`run.seed`, `traffic.load`); a
    /// segment naming an array of tables means its most recent element.
    pub fn at(&self, path: &str) -> Option<&Spanned> {
        let mut segments = path.split('.');
        let mut entry = self.get(segments.next()?)?;
        for seg in segments {
            let table = match &entry.value {
                TomlValue::Array(items) => &items.last()?.value,
                other => other,
            };
            let TomlValue::Table(table) = table else {
                return None;
            };
            entry = table.get(seg)?;
        }
        Some(entry)
    }

    /// Edits the document before it is decoded: parses `text` as one TOML
    /// value and stores it at the dotted key `path`, replacing what the
    /// source said there and creating missing tables on the way (a segment
    /// naming an array of tables means its most recent element, so
    /// `traffic.load` is the last `[[traffic]]` group's `load`). The value
    /// and any table it creates carry `line`, so a decoder rejection of
    /// the edit names it rather than a line of the file.
    pub fn set(&mut self, path: &str, text: &str, line: u32) -> Result<(), TomlError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            line,
            depth: 0,
        };
        let value = p.value()?;
        p.require_line_end()?;
        let path: Vec<String> = path.split('.').map(str::to_string).collect();
        let (key, prefix) = path.split_last().expect("split yields a segment");
        let table = navigate(self, prefix, line)?;
        match table.get_mut(key) {
            Some(slot) => *slot = value,
            None => table.entries.push((key.clone(), value)),
        }
        Ok(())
    }
}

/// A parse failure: what went wrong and on which line.
#[derive(Clone, Debug, PartialEq)]
pub struct TomlError {
    /// Diagnostic message.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

/// Parses a TOML document into its root table.
pub fn parse(src: &str) -> Result<Table, TomlError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let mut root = Table {
        entries: Vec::new(),
        line: 1,
    };
    // Dotted path of the currently open `[header]`, empty at the root.
    let mut current: Vec<String> = Vec::new();
    loop {
        p.skip_trivia();
        let Some(b) = p.peek() else { break };
        if b == b'[' {
            let line = p.line;
            p.pos += 1;
            let array = p.peek() == Some(b'[');
            if array {
                p.pos += 1;
            }
            let path = p.key_path()?;
            p.expect(b']')?;
            if array {
                p.expect(b']')?;
            }
            p.require_line_end()?;
            open_header(&mut root, &path, array, line)?;
            current = path;
        } else {
            let line = p.line;
            let path = p.key_path()?;
            p.expect(b'=')?;
            let value = p.value()?;
            p.require_line_end()?;
            let table = navigate(&mut root, &current, line)?;
            insert_dotted(table, &path, value, line)?;
        }
    }
    Ok(root)
}

/// Creates (or re-enters) the table at `path`; with `array` set, appends a
/// fresh table to the array-of-tables at `path`.
fn open_header(root: &mut Table, path: &[String], array: bool, line: u32) -> Result<(), TomlError> {
    let (last, prefix) = path.split_last().expect("key paths are non-empty");
    let parent = navigate(root, prefix, line)?;
    match parent.get_mut(last) {
        None => {
            let fresh = Table {
                entries: Vec::new(),
                line,
            };
            let value = if array {
                TomlValue::Array(vec![Spanned::new(TomlValue::Table(fresh), line)])
            } else {
                TomlValue::Table(fresh)
            };
            parent
                .entries
                .push((last.clone(), Spanned::new(value, line)));
            Ok(())
        }
        Some(existing) => match (&mut existing.value, array) {
            (TomlValue::Array(items), true) => {
                items.push(Spanned::new(
                    TomlValue::Table(Table {
                        entries: Vec::new(),
                        line,
                    }),
                    line,
                ));
                Ok(())
            }
            (TomlValue::Table(_), false) => Err(TomlError {
                msg: format!("table `{last}` defined twice"),
                line,
            }),
            _ => Err(TomlError {
                msg: format!("key `{last}` redefined with a different shape"),
                line,
            }),
        },
    }
}

/// Walks `path` under `root`, creating intermediate tables, and returns
/// the innermost one. A path segment naming an array-of-tables resolves to
/// its most recent element (standard TOML sub-table semantics).
fn navigate<'a>(
    root: &'a mut Table,
    path: &[String],
    line: u32,
) -> Result<&'a mut Table, TomlError> {
    let mut t = root;
    for seg in path {
        if !t.contains(seg) {
            t.entries.push((
                seg.clone(),
                Spanned::new(
                    TomlValue::Table(Table {
                        entries: Vec::new(),
                        line,
                    }),
                    line,
                ),
            ));
        }
        let next = t.get_mut(seg).expect("just ensured");
        t = match &mut next.value {
            TomlValue::Table(sub) => sub,
            TomlValue::Array(items) => match items.last_mut().map(|s| &mut s.value) {
                Some(TomlValue::Table(sub)) => sub,
                _ => {
                    return Err(TomlError {
                        msg: format!("`{seg}` is not a table of tables"),
                        line,
                    })
                }
            },
            other => {
                return Err(TomlError {
                    msg: format!("`{seg}` is a {}, not a table", other.type_name()),
                    line,
                })
            }
        };
    }
    Ok(t)
}

/// Inserts `value` at a (possibly dotted) key path inside `table`.
fn insert_dotted(
    table: &mut Table,
    path: &[String],
    value: Spanned,
    line: u32,
) -> Result<(), TomlError> {
    let (last, prefix) = path.split_last().expect("key paths are non-empty");
    let target = navigate(table, prefix, line)?;
    if target.contains(last) {
        return Err(TomlError {
            msg: format!("duplicate key `{last}`"),
            line,
        });
    }
    target.entries.push((last.clone(), value));
    Ok(())
}

/// How deeply arrays and inline tables may nest: deeper input is refused
/// before the recursive reader can exhaust the stack.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    /// Arrays and inline tables open around the current position.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, msg: impl Into<String>) -> TomlError {
        TomlError {
            msg: msg.into(),
            line: self.line,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, and newlines.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r') => {
                    self.pos += 1;
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), TomlError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                b as char,
                match self.peek() {
                    Some(c) => format!("`{}`", c as char),
                    None => "end of file".into(),
                }
            )))
        }
    }

    /// After a header or key-value, only trivia may remain on the line.
    fn require_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_ws();
        match self.peek() {
            None | Some(b'\n' | b'\r' | b'#') => Ok(()),
            Some(c) => Err(self.err(format!("unexpected `{}` after value", c as char))),
        }
    }

    /// One dotted key path: `a.b."quoted c"`.
    fn key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = Vec::new();
        loop {
            self.skip_ws();
            path.push(self.key_segment()?);
            self.skip_ws();
            if self.peek() == Some(b'.') {
                self.pos += 1;
            } else {
                return Ok(path);
            }
        }
    }

    fn key_segment(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some(b'"') => self.basic_string(),
            Some(b'\'') => self.literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
                {
                    self.pos += 1;
                }
                Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
            }
            Some(c) => Err(self.err(format!("invalid key character `{}`", c as char))),
            None => Err(self.err("expected a key, found end of file")),
        }
    }

    fn value(&mut self) -> Result<Spanned, TomlError> {
        self.skip_ws();
        let line = self.line;
        let v = match self.peek() {
            Some(b'"') => {
                if self.bytes[self.pos..].starts_with(b"\"\"\"") {
                    return Err(self.err("multi-line strings are not supported"));
                }
                TomlValue::Str(self.basic_string()?)
            }
            Some(b'\'') => {
                if self.bytes[self.pos..].starts_with(b"'''") {
                    return Err(self.err("multi-line strings are not supported"));
                }
                TomlValue::Str(self.literal_string()?)
            }
            Some(b'[') => self.nested(Self::array)?,
            Some(b'{') => self.nested(Self::inline_table)?,
            Some(b't' | b'f') => self.boolean()?,
            Some(b'0'..=b'9' | b'-' | b'+') => self.number()?,
            Some(c) => return Err(self.err(format!("unexpected `{}` in value", c as char))),
            None => return Err(self.err("expected a value, found end of file")),
        };
        Ok(Spanned::new(v, line))
    }

    fn basic_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Check before bumping so the error names the line the string
            // started on, not the one after the stray newline.
            if matches!(self.peek(), None | Some(b'\n')) {
                return Err(self.err("unterminated string"));
            }
            match self.bump() {
                None | Some(b'\n') => unreachable!("peeked above"),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let end = self.pos + 4;
                        if end > self.bytes.len() {
                            return Err(self.err("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
                            .ok()
                            .and_then(|t| u32::from_str_radix(t, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.err("bad \\u escape"))?;
                        s.push(hex);
                        self.pos = end;
                    }
                    _ => return Err(self.err("unsupported escape sequence")),
                },
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + width).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = chunk.chars().next().expect("non-empty chunk");
                    s.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn literal_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'\'')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None | Some(b'\n') => return Err(self.err("unterminated literal string")),
                Some(b'\'') => {
                    let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.pos += 1;
                    return Ok(s);
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Reads one array or inline table a level deeper than the caller.
    fn nested(
        &mut self,
        read: fn(&mut Self) -> Result<TomlValue, TomlError>,
    ) -> Result<TomlValue, TomlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("values nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = read(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<TomlValue, TomlError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(TomlValue::Array(items));
            }
            items.push(self.value()?);
            self.skip_trivia();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(TomlValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn inline_table(&mut self) -> Result<TomlValue, TomlError> {
        let line = self.line;
        self.expect(b'{')?;
        let mut table = Table {
            entries: Vec::new(),
            line,
        };
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(TomlValue::Table(table));
        }
        loop {
            self.skip_ws();
            let key_line = self.line;
            let path = self.key_path()?;
            self.expect(b'=')?;
            let value = self.value()?;
            insert_dotted(&mut table, &path, value, key_line)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(TomlValue::Table(table));
                }
                _ => return Err(self.err("expected `,` or `}` in inline table")),
            }
        }
    }

    fn boolean(&mut self) -> Result<TomlValue, TomlError> {
        for (word, v) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(TomlValue::Bool(v));
            }
        }
        Err(self.err("invalid literal (expected true/false)"))
    }

    fn number(&mut self) -> Result<TomlValue, TomlError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-' | b'+')) {
            self.pos += 1;
        }
        if self.bytes[self.pos..].starts_with(b"0x")
            || self.bytes[self.pos..].starts_with(b"0o")
            || self.bytes[self.pos..].starts_with(b"0b")
        {
            return Err(self.err("hex/octal/binary integers are not supported"));
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    // Exponent sign.
                    if matches!(self.peek(), Some(b'-' | b'+')) {
                        self.pos += 1;
                    }
                }
                b'-' => return Err(self.err("dates are not supported")),
                _ => break,
            }
        }
        let txt: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?
            .chars()
            .filter(|&c| c != '_')
            .collect();
        if is_float {
            txt.parse::<f64>()
                .map(TomlValue::Float)
                .map_err(|_| self.err(format!("bad float `{txt}`")))
        } else {
            txt.parse::<i64>()
                .map(TomlValue::Int)
                .map_err(|_| self.err(format!("bad integer `{txt}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(t: &'a Table, k: &str) -> &'a TomlValue {
        &t.get(k).unwrap_or_else(|| panic!("missing key {k}")).value
    }

    #[test]
    fn parses_scalars_and_tables() {
        let doc = parse(
            r#"
# top comment
schema = 1
name = "incast"          # trailing comment
load = 0.35
big = 1_000_000
neg = -4
exp = 2.5e3
on = true
path = 'C:\raw'

[topology]
clusters = 2

[topology.pdes]
partitions = 4
"#,
        )
        .expect("parses");
        assert_eq!(get(&doc, "schema"), &TomlValue::Int(1));
        assert_eq!(get(&doc, "name"), &TomlValue::Str("incast".into()));
        assert_eq!(get(&doc, "load"), &TomlValue::Float(0.35));
        assert_eq!(get(&doc, "big"), &TomlValue::Int(1_000_000));
        assert_eq!(get(&doc, "neg"), &TomlValue::Int(-4));
        assert_eq!(get(&doc, "exp"), &TomlValue::Float(2500.0));
        assert_eq!(get(&doc, "on"), &TomlValue::Bool(true));
        assert_eq!(get(&doc, "path"), &TomlValue::Str("C:\\raw".into()));
        let topo = match get(&doc, "topology") {
            TomlValue::Table(t) => t,
            other => panic!("topology is {other:?}"),
        };
        assert_eq!(get(topo, "clusters"), &TomlValue::Int(2));
        let pdes = match get(topo, "pdes") {
            TomlValue::Table(t) => t,
            other => panic!("pdes is {other:?}"),
        };
        assert_eq!(get(pdes, "partitions"), &TomlValue::Int(4));
    }

    #[test]
    fn parses_arrays_of_tables_and_inline() {
        let doc = parse(
            r#"
[[traffic]]
kind = "poisson"
locality = { rack_local = 0.1, intra_cluster = 0.3, inter_cluster = 0.6 }

[[traffic]]
kind = "incast"
dst = [0, 0, 0]
mix = [
    1.5,
    2.5,  # inner comment
]
"#,
        )
        .expect("parses");
        let traffic = match get(&doc, "traffic") {
            TomlValue::Array(a) => a,
            other => panic!("traffic is {other:?}"),
        };
        assert_eq!(traffic.len(), 2);
        let second = match &traffic[1].value {
            TomlValue::Table(t) => t,
            other => panic!("entry is {other:?}"),
        };
        assert_eq!(get(second, "kind"), &TomlValue::Str("incast".into()));
        match get(second, "dst") {
            TomlValue::Array(a) => assert_eq!(a.len(), 3),
            other => panic!("dst is {other:?}"),
        }
        match get(second, "mix") {
            TomlValue::Array(a) => {
                assert_eq!(a.len(), 2);
                assert_eq!(a[1].value, TomlValue::Float(2.5));
            }
            other => panic!("mix is {other:?}"),
        }
    }

    #[test]
    fn tracks_lines() {
        let doc = parse("a = 1\n\nb = 2\n[t]\nc = 3\n").expect("parses");
        assert_eq!(doc.get("a").unwrap().line, 1);
        assert_eq!(doc.get("b").unwrap().line, 3);
        let t = match get(&doc, "t") {
            TomlValue::Table(t) => t,
            _ => unreachable!(),
        };
        assert_eq!(t.get("c").unwrap().line, 5);
    }

    #[test]
    fn rejects_duplicates_and_garbage_with_lines() {
        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("duplicate"), "{e}");

        let e = parse("[t]\nx = 1\n[t]\n").unwrap_err();
        assert_eq!(e.line, 3);

        let e = parse("a = \"unterminated\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse("a = 1 trailing\n").unwrap_err();
        assert!(e.msg.contains("after value"), "{e}");

        let e = parse("a = 1979-05-27\n").unwrap_err();
        assert!(e.msg.contains("dates"), "{e}");

        let e = parse("a = 0xff\n").unwrap_err();
        assert!(e.msg.contains("hex"), "{e}");
    }

    #[test]
    fn set_replaces_creates_and_rejects() {
        let mut doc = parse("[run]\nseed = 1\n[[traffic]]\nload = 0.1\n[[traffic]]\nload = 0.2\n")
            .expect("parses");
        doc.set("run.seed", "7", 90).expect("replaces");
        doc.set("topology.pdes.partitions", "4", 91)
            .expect("creates");
        doc.set("traffic.load", "0.5", 92).expect("last group");
        assert_eq!(doc.at("run.seed").unwrap().value, TomlValue::Int(7));
        assert_eq!(doc.at("run.seed").unwrap().line, 90);
        let made = doc.at("topology.pdes.partitions").unwrap();
        assert_eq!((&made.value, made.line), (&TomlValue::Int(4), 91));
        assert_eq!(doc.get("topology").unwrap().line, 91, "created tables");
        assert_eq!(doc.at("traffic.load").unwrap().value, TomlValue::Float(0.5));
        match get(&doc, "traffic") {
            TomlValue::Array(a) => match &a[0].value {
                TomlValue::Table(first) => assert_eq!(get(first, "load"), &TomlValue::Float(0.1)),
                other => panic!("group is {other:?}"),
            },
            other => panic!("traffic is {other:?}"),
        }
        assert!(doc.at("run.nope").is_none() && doc.at("nope.seed").is_none());

        let e = doc.set("run.seed", "seven", 93).unwrap_err();
        assert_eq!(e.line, 93);
        assert!(doc.set("run.seed", "1 2", 94).is_err(), "trailing garbage");
        assert!(doc.set("run.seed.x", "1", 95).is_err(), "scalar on the way");
    }

    #[test]
    fn dotted_keys_create_subtables() {
        let doc = parse("a.b.c = 5\na.b.d = 6\n").expect("parses");
        let a = match get(&doc, "a") {
            TomlValue::Table(t) => t,
            _ => unreachable!(),
        };
        let b = match get(a, "b") {
            TomlValue::Table(t) => t,
            _ => unreachable!(),
        };
        assert_eq!(get(b, "c"), &TomlValue::Int(5));
        assert_eq!(get(b, "d"), &TomlValue::Int(6));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("name = {}", "[".repeat(100_000));
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("nested deeper"), "{e}");
        let ok = format!("name = {}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }
}
