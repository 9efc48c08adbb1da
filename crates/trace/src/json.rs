//! Minimal JSON support: string escaping for the exporters and a small
//! recursive-descent parser used by tests (and available to tooling) to
//! check that exported traces are well-formed without external crates.

/// Escape a string for embedding in a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parsed JSON value. Object member order is preserved.
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
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Scan the JSON number token starting at `start` — `-? digits (. digits)?
/// ([eE] [+-]? digits)?`, each digit run possibly empty — and read it with
/// `str::parse::<f64>` (short integers take an exact shortcut to the same
/// value). Returns the value and the byte just past the token.
/// This is the one number grammar of the crate: [`parse`] and the canonical
/// event-line decoder both read numbers through it, so they agree on every
/// token either accepts.
pub(crate) fn number(bytes: &[u8], start: usize) -> Result<(f64, usize), String> {
    let digits = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let negative = bytes.get(start) == Some(&b'-');
    let int_start = start + usize::from(negative);
    let int_end = digits(int_start);
    if int_end == start {
        return Err("no number token".into());
    }
    let mut end = int_end;
    if bytes.get(end) == Some(&b'.') {
        end = digits(end + 1);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        end += 1;
        if matches!(bytes.get(end), Some(b'+' | b'-')) {
            end += 1;
        }
        end = digits(end);
    }
    // A plain integer of at most 15 digits is below 2^53, so its value is
    // exactly the f64 `str::parse` returns: skip the general conversion.
    if end == int_end && (1..=15).contains(&(int_end - int_start)) {
        let n = bytes[int_start..int_end].iter().fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
        let x = n as f64;
        return Ok((if negative { -x } else { x }, end));
    }
    let text = std::str::from_utf8(&bytes[start..end])
        .expect("number span contains only ASCII digits, sign, dot and exponent");
    let x = text.parse::<f64>().map_err(|e| format!("bad number {text:?}: {e}"))?;
    Ok((x, end))
}

/// Decode the UTF-8 character starting at `pos` from its own bytes (at most
/// four), so consuming a string costs time linear in its length.
fn char_at(bytes: &[u8], pos: usize) -> Result<char, String> {
    let chunk = &bytes[pos..bytes.len().min(pos + 4)];
    let valid = match std::str::from_utf8(chunk) {
        Ok(s) => s,
        Err(e) => std::str::from_utf8(&chunk[..e.valid_up_to()]).expect("valid prefix"),
    };
    valid.chars().next().ok_or_else(|| format!("invalid UTF-8 at byte {pos}"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let (x, end) = number(self.bytes, self.pos)?;
        self.pos = end;
        Ok(Value::Num(x))
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(_) => {
                    let c = char_at(self.bytes, self.pos)?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basics() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "b": "x\"y", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parses_multi_byte_and_long_strings() {
        let text = "ünïcødé → 𝄞 ".repeat(20_000);
        let v = parse(&format!("[\"{}\", 1]", escape(&text))).expect("long string parses");
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(text.as_str()));
        assert_eq!(v.as_arr().unwrap()[1].as_f64(), Some(1.0));
    }

    #[test]
    fn number_reads_every_token_as_str_parse_does() {
        let mut tokens: Vec<String> = "0 -0 00 -007 1 42 4294967295 4294967296 999999999999999 \
             9999999999999999 -123456789012345 12345678901234567890 1.5 -0.0 1e3 1E+3 1e-3 \
             5e-324 1. 01.50 1e400 -1e400"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let digits = (x % 18 + 1) as usize;
            let n = (x >> 8) % 10u64.pow(digits as u32);
            tokens.push(format!("{:0digits$}", n));
            tokens.push(format!("-{n}"));
        }
        for t in &tokens {
            let (v, end) = number(t.as_bytes(), 0).unwrap();
            assert_eq!(end, t.len(), "{t}");
            assert_eq!(v.to_bits(), t.parse::<f64>().unwrap().to_bits(), "{t}");
        }
        for bad in ["-", "", ".5", "1e", "-e1", "x"] {
            assert!(number(bad.as_bytes(), 0).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn escape_produces_parseable_strings() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }
}
