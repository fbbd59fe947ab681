//! Offline shim standing in for `serde_json`: renders and parses the
//! serde shim's [`Value`] model as JSON text. Covers `to_string`,
//! `to_string_pretty`, and `from_str` — the full surface this workspace
//! uses — with exact round-tripping of every finite number the workspace
//! serializes (f64 via shortest-representation `{:?}`, integers exactly).

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` emits the shortest decimal that round-trips.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null"); // serde_json behaviour for non-finite
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_delimited(out, indent, depth, '[', ']', items.len(), |o, i| {
            write_value(o, &items[i], indent, depth + 1)
        }),
        Value::Map(entries) => {
            write_delimited(out, indent, depth, '{', '}', entries.len(), |o, i| {
                let (k, val) = &entries[i];
                write_string(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(o, val, indent, depth + 1)
            })
        }
    }
}

fn write_delimited(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Length of the run at the start of `bytes` that holds no `"` and no `\`.
/// Whole blocks are tested without an early exit, which the compiler turns
/// into a few vector instructions a block; the block that ends the run is
/// then searched byte by byte.
fn plain_run(bytes: &[u8]) -> usize {
    const BLOCK: usize = 32;
    let stop = |b: &u8| matches!(b, b'"' | b'\\');
    let clean_blocks = bytes
        .chunks_exact(BLOCK)
        .take_while(|block| block.iter().fold(0, |hits, b| hits | stop(b) as u8) == 0)
        .count();
    let rest = &bytes[BLOCK * clean_blocks..];
    BLOCK * clean_blocks + rest.iter().position(stop).unwrap_or(rest.len())
}

/// How deeply arrays and objects may nest (upstream `serde_json`'s
/// default): deeper input is refused before the recursive reader can
/// exhaust the stack.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: u32,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(Error::custom(format!(
                "unexpected `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::custom("unexpected end of input")),
        }
    }

    /// Reads one array or object a level deeper than the caller.
    fn nested(&mut self, read: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = read(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::custom(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::custom(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::custom("bad surrogate pair"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| Error::custom("bad \\u escape"))?);
                            continue; // hex4 advanced pos past the digits
                        }
                        _ => return Err(Error::custom("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` at once. Both
                    // are ASCII, so the run ends on a character boundary of
                    // the input, which came in as a `&str`.
                    let start = self.pos;
                    self.pos += plain_run(&self.bytes[start..]);
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::custom("invalid utf-8"))?;
                    s.push_str(run);
                }
            }
        }
    }

    /// Reads exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::custom("truncated \\u escape"));
        }
        let txt = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::custom("bad \\u escape"))?;
        let v = u32::from_str_radix(txt, 16).map_err(|_| Error::custom("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let txt = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("bad number"))?;
        if !is_float {
            if let Ok(i) = txt.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = txt.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        txt.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(format!("bad number `{txt}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Value::Map(vec![
            ("a".into(), Value::Int(-3)),
            (
                "b".into(),
                Value::Seq(vec![Value::Float(1.5), Value::Bool(true), Value::Null]),
            ),
            ("c".into(), Value::Str("line\n\"quoted\" \\ πλ".into())),
            ("big".into(), Value::UInt(u64::MAX)),
        ]);
        let s = to_string(&Probe(v.clone())).unwrap();
        let back = parse_value(&s).unwrap();
        assert_eq!(back, v);

        struct Probe(Value);
        impl Serialize for Probe {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1f64, 1e-300, 1e300, -2.5, 0.0, 123456.789] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {s}");
        }
    }

    #[test]
    fn pretty_output_parses() {
        let v: Vec<Vec<u32>> = vec![vec![1, 2], vec![], vec![3]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let back: Vec<Vec<u32>> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(s, "A😀");
    }

    #[test]
    fn multibyte_runs_next_to_escapes() {
        let s: String = from_str(r#""aπ\"b\\né""#).unwrap();
        assert_eq!(s, "aπ\"b\\né");
        let s: String = from_str(r#""π\u00e9\nλ""#).unwrap();
        assert_eq!(s, "πé\nλ");
        let s: String = from_str(r#""""#).unwrap();
        assert_eq!(s, "");
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for text in [r#""abc"#, r#""aπ"#, r#""a\""#, r#"{"k"#, r#"["x\\"#] {
            let err = from_str::<Value>(text).unwrap_err();
            assert!(
                err.to_string().contains("unterminated string"),
                "{text}: {err}"
            );
        }
    }

    /// Runs are scanned a block at a time: a quote or backslash at any
    /// offset, in or across blocks, still ends its run, and a long string
    /// without its closing quote is still unterminated.
    #[test]
    fn escapes_at_every_offset_of_a_long_string() {
        for at in 0..100 {
            for special in ["\"", "\\", "é"] {
                let text = format!("{}{special}{}", "x".repeat(at), "y".repeat(100 - at));
                let back: String = from_str(&to_string(&text).unwrap()).unwrap();
                assert_eq!(back, text, "{special} at {at}");
            }
            let open = format!("\"{}", "z".repeat(at));
            let err = from_str::<String>(&open).unwrap_err();
            assert!(
                err.to_string().contains("unterminated string"),
                "{at}: {err}"
            );
        }
    }

    #[test]
    fn key_at_the_start_of_a_large_document() {
        let values = vec![0.125f64; 200_000];
        let text = format!(r#"{{"kéy":{}}}"#, to_string(&values).unwrap());
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        match parse_value(&text).unwrap() {
            Value::Map(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0, "kéy");
                assert!(matches!(&entries[0].1, Value::Seq(v) if v.len() == values.len()));
            }
            other => panic!("not a map: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1.2.3").is_err());
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u8>>("[1,2").is_err());
        assert!(from_str::<u8>("300").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_value(&"{\"k\":".repeat(100_000)).is_err());
        let ok = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_value(&ok).is_ok());
    }
}
