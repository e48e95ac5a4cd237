//! The JSON text layer: a pull [`Reader`] over a `&str`, the string and
//! float printers, and the renderer of a [`Value`] tree that the traits'
//! bridge methods go through.
//!
//! The reader touches each input byte once. A string is scanned as runs up
//! to the next `"` or `\` and borrowed from the input when it has no
//! escapes; the input is a `&str`, so it was validated as UTF-8 exactly once
//! by whoever made it. Nesting is capped at [`MAX_DEPTH`] so that no input
//! can recurse a thread out of its stack.

use crate::{DeError, Value};
use std::borrow::Cow;
use std::fmt::Write;

/// Deepest accepted nesting of arrays and objects. Deeper input is a
/// [`DeError`], not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A pull parser over JSON text.
///
/// Typed readers (`Deserialize::read_json`) ask it for the token they
/// expect; [`Value`] parsing asks [`Reader::peek`] what comes next. Both see
/// the same grammar because both use these methods and nothing else.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader { src, pos: 0, depth: 0 }
    }

    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token, after whitespace.
    ///
    /// # Errors
    /// The input ended.
    pub fn peek(&mut self) -> Result<u8, DeError> {
        self.skip_ws();
        self.src
            .as_bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| DeError::msg("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError::msg(format!("expected `{}` at offset {}", b as char, self.pos)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), DeError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(DeError::msg(format!("invalid literal at offset {}", self.pos)))
        }
    }

    /// Checks that only whitespace is left.
    ///
    /// # Errors
    /// Anything else follows the value.
    pub fn end(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(DeError::msg(format!("trailing characters at offset {}", self.pos)))
        }
    }

    /// Consumes a `null` if that is the next token and says whether it was.
    ///
    /// # Errors
    /// The next token starts with `n` and is not `null`.
    pub fn null(&mut self) -> Result<bool, DeError> {
        if self.peek()? != b'n' {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    /// The next token is neither.
    pub fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(DeError::msg(format!("expected bool at offset {}", self.pos))),
        }
    }

    /// Reads a number token as [`Value::UInt`] (a non-negative integer that
    /// fits), [`Value::Int`] (a negative one) or [`Value::Float`].
    ///
    /// # Errors
    /// The next token is not a number, or is one no finite `f64` holds
    /// (`1e999`): letting it through would put `inf` into a feature vector.
    pub fn number(&mut self) -> Result<Value, DeError> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if text.is_empty() {
            return Err(DeError::msg(format!("expected value at offset {start}")));
        }
        if !is_float {
            if let Some(int) = integer(text) {
                return Ok(int);
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            Ok(_) => Err(DeError::msg(format!("number out of range `{text}`"))),
            Err(_) => Err(DeError::msg(format!("invalid number `{text}`"))),
        }
    }

    /// Reads a string, borrowed from the input unless it has escapes.
    ///
    /// # Errors
    /// The next token is not a string, the string is unterminated, or an
    /// escape is not one JSON defines (`\u` takes exactly four hex digits; a
    /// surrogate must be half of a pair).
    pub fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let start = self.pos;
        let run = self.run_end()?;
        if self.src.as_bytes()[run] == b'"' {
            self.pos = run + 1;
            return Ok(Cow::Borrowed(&self.src[start..run]));
        }
        let mut out = String::from(&self.src[start..run]);
        self.pos = run;
        loop {
            if self.src.as_bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(Cow::Owned(out));
            }
            self.pos += 1; // the backslash
            out.push(self.escape()?);
            let run = self.run_end()?;
            out.push_str(&self.src[self.pos..run]);
            self.pos = run;
        }
    }

    /// Offset of the next `"` or `\` at or after the cursor. Both are ASCII,
    /// so the offset is a character boundary of the input.
    fn run_end(&self) -> Result<usize, DeError> {
        self.src.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|n| self.pos + n)
            .ok_or_else(|| DeError::msg("unterminated string"))
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, DeError> {
        let esc = *self
            .src
            .as_bytes()
            .get(self.pos)
            .ok_or_else(|| DeError::msg("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let code = match self.hex4()? {
                    hi @ 0xD800..=0xDBFF => {
                        if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                            return Err(DeError::msg("lone surrogate in \\u escape"));
                        }
                        self.pos += 2;
                        match self.hex4()? {
                            lo @ 0xDC00..=0xDFFF => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                            _ => return Err(DeError::msg("lone surrogate in \\u escape")),
                        }
                    }
                    code => code,
                };
                // Only a low surrogate without its high half is left to fail.
                char::from_u32(code).ok_or_else(|| DeError::msg("lone surrogate in \\u escape"))?
            }
            other => return Err(DeError::msg(format!("invalid escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| DeError::msg("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| DeError::msg("invalid \\u escape"))?;
            code = code * 16 + nibble;
        }
        self.pos += 4;
        Ok(code)
    }

    fn enter(&mut self, open: u8, close: u8) -> Result<bool, DeError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(DeError::msg(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        if self.peek()? == close {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    fn next(&mut self, close: u8) -> Result<bool, DeError> {
        match self.peek()? {
            b',' => {
                self.pos += 1;
                Ok(true)
            }
            b if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(DeError::msg(format!(
                "expected `,` or `{}` at offset {}",
                close as char, self.pos
            ))),
        }
    }

    /// Opens an array; `true` when an element follows.
    ///
    /// # Errors
    /// The next token is not `[`, or the array is nested too deep.
    pub fn begin_array(&mut self) -> Result<bool, DeError> {
        self.enter(b'[', b']')
    }

    /// After an element: `true` when another follows, `false` at the `]`.
    ///
    /// # Errors
    /// Neither `,` nor `]` comes next.
    pub fn array_next(&mut self) -> Result<bool, DeError> {
        self.next(b']')
    }

    /// Opens an object; `true` when a key follows.
    ///
    /// # Errors
    /// The next token is not `{`, or the object is nested too deep.
    pub fn begin_object(&mut self) -> Result<bool, DeError> {
        self.enter(b'{', b'}')
    }

    /// Reads a key and its `:`.
    ///
    /// # Errors
    /// See [`Reader::string`]; or no `:` follows.
    pub fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// After a field's value: `true` when another key follows, `false` at
    /// the `}`.
    ///
    /// # Errors
    /// Neither `,` nor `}` comes next.
    pub fn object_next(&mut self) -> Result<bool, DeError> {
        self.next(b'}')
    }

    /// Reads one value of any kind and drops it. It is checked exactly as a
    /// kept value is, so what a typed reader skips (an unknown field, a
    /// repeated key) cannot hide input that [`Value`] parsing would reject.
    ///
    /// # Errors
    /// The value is not well-formed JSON.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            b'n' => self.literal("null"),
            b't' | b'f' => self.bool().map(drop),
            b'"' => self.string().map(drop),
            b'[' => {
                let mut more = self.begin_array()?;
                while more {
                    self.skip_value()?;
                    more = self.array_next()?;
                }
                Ok(())
            }
            b'{' => {
                let mut more = self.begin_object()?;
                while more {
                    self.key()?;
                    self.skip_value()?;
                    more = self.object_next()?;
                }
                Ok(())
            }
            _ => self.number().map(drop),
        }
    }

    /// Reads one value of any kind as a tree.
    ///
    /// # Errors
    /// The value is not well-formed JSON.
    pub fn value(&mut self) -> Result<Value, DeError> {
        Ok(match self.peek()? {
            b'n' => {
                self.literal("null")?;
                Value::Null
            }
            b't' | b'f' => Value::Bool(self.bool()?),
            b'"' => Value::Str(self.string()?.into_owned()),
            b'[' => {
                let mut items = Vec::new();
                let mut more = self.begin_array()?;
                while more {
                    items.push(self.value()?);
                    more = self.array_next()?;
                }
                Value::Array(items)
            }
            b'{' => {
                let mut fields = Vec::new();
                let mut more = self.begin_object()?;
                while more {
                    let key = self.key()?.into_owned();
                    fields.push((key, self.value()?));
                    more = self.object_next()?;
                }
                Value::Object(fields)
            }
            _ => self.number()?,
        })
    }
}

/// The integer a number token without `.`, `e` or `E` stands for, when one
/// fits: [`Value::UInt`] if non-negative, else [`Value::Int`]. Any other
/// number token is a [`Value::Float`].
fn integer(text: &str) -> Option<Value> {
    match text.parse::<i64>() {
        Ok(i) if i >= 0 => Some(Value::UInt(i as u64)),
        Ok(i) => Some(Value::Int(i)),
        Err(_) => text.parse::<u64>().ok().map(Value::UInt),
    }
}

/// Appends `s` as a JSON string: quoted, with `"`, `\` and control
/// characters escaped. Everything else is copied in runs.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// Appends a float in Rust's shortest form that parses back to the same
/// `f64`; `null` when it is not finite.
pub fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
    }
}

/// Appends a [`Value`] tree as compact JSON. A [`Value::Float`] is written
/// as a float token (`1.0`, not `1`), so [`Reader::number`] reads it back
/// as the float it is and not as an integer.
pub fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            let start = out.len();
            write_f64(*f, out);
            let token = &out[start..];
            if !token.contains('.') && integer(token).is_some() {
                out.push_str(".0");
            }
        }
        Value::Str(s) => write_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Value, DeError> {
        let mut r = Reader::new(text);
        let v = r.value()?;
        r.end()?;
        Ok(v)
    }

    fn skip(text: &str) -> Result<(), DeError> {
        let mut r = Reader::new(text);
        r.skip_value()?;
        r.end()
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            for depth in [MAX_DEPTH - 1, MAX_DEPTH] {
                let text = nested(open, close, depth).replace(":}", ":0}");
                assert!(parse(&text).is_ok(), "depth {depth} of `{open}`");
                assert!(skip(&text).is_ok(), "depth {depth} of `{open}`, skipped");
            }
            let text = nested(open, close, MAX_DEPTH + 1).replace(":}", ":0}");
            let err = parse(&text).expect_err("one level too deep");
            assert!(err.0.contains("nesting deeper than 128"), "{err}");
            assert!(skip(&text).is_err());
        }
        // Siblings do not add up: the cap is on depth, not on containers.
        assert!(parse(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn a_megabyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
        let text = "[".repeat(1 << 20);
        assert!(parse(&text).is_err());
        assert!(skip(&text).is_err());
        assert!(<Vec<Vec<u8>> as crate::Deserialize>::read_json(&mut Reader::new(&text)).is_err());
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#""plain" "tab\there""#);
        assert!(matches!(r.string(), Ok(Cow::Borrowed("plain"))));
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "tab\there"));
        assert!(r.end().is_ok());
    }

    #[test]
    fn a_float_is_written_as_a_float_token() {
        let text = |v: Value| {
            let mut out = String::new();
            write_value(&v, &mut out);
            out
        };
        assert_eq!(text(Value::Float(1.0)), "1.0");
        assert_eq!(text(Value::Float(-0.0)), "-0.0");
        assert_eq!(text(Value::Float(0.5)), "0.5");
        // Past `u64`, the digits alone already read back as a float.
        assert_eq!(text(Value::Float(1e30)), "1000000000000000000000000000000");
        assert_eq!(text(Value::UInt(1)), "1");
        for v in [1.0, -0.0, 1e18, 1e30] {
            assert_eq!(parse(&text(Value::Float(v))).unwrap(), Value::Float(v));
        }
    }

    #[test]
    fn escaping_copies_runs_and_escapes_the_rest() {
        let original = "a\"b\\c\nd\u{1}e";
        let mut out = String::new();
        write_str(original, &mut out);
        assert_eq!(out, r#""a\"b\\c\nd\U0001e""#.replace('U', "u"));
        assert_eq!(parse(&out).expect("parses back"), Value::Str(original.into()));
    }
}
