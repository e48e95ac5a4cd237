//! The JSON text layer: a pull [`Reader`] over a `&str`, the number and
//! string printers, and the renderer of a [`Value`] tree that the traits'
//! bridge methods go through.
//!
//! The reader is one byte cursor and touches each input byte once. A
//! string is scanned as runs up to the next `"` or `\` and borrowed from
//! the input when it has no escapes; the input is a `&str`, so it was
//! validated as UTF-8 exactly once by whoever made it. Nesting is capped at
//! [`MAX_DEPTH`] so that no input can recurse a thread out of its stack.
//!
//! Numbers follow RFC 8259 §6: `-? (0 | [1-9][0-9]*) (.[0-9]+)?
//! ([eE][+-]?[0-9]+)?`, so `+1`, `01`, `.5`, `1.` and `1.e3` are errors. An
//! integer token's value is built in the same pass that scans it;
//! `str::parse::<f64>` runs only on a token with a fraction or an exponent
//! (or an integer past 64 bits), so float rounding is std's. As in upstream
//! serde_json, `-0` is a float token: it reads back as `-0.0`, and an
//! integer type refuses it as it refuses `1.0`. An integer that its type
//! does not hold, and a number no finite `f64` holds, is "number out of
//! range"; nothing wraps.
//!
//! The writer prints a finite integral `f64` below 2^53 in magnitude as its
//! integer digits and any other finite float in std's shortest round-trip
//! form; both are exactly what `format!("{}")` prints. Every integer type
//! prints through [`write_u64`].

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

/// A number token as scanned.
enum Number {
    /// A non-negative integer token that fits `u64`.
    UInt(u64),
    /// A negative integer token that fits `i64`.
    Int(i64),
    /// Any other number token: one with a fraction or an exponent, `-0`, or
    /// an integer past the 64-bit types.
    Float(f64),
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader { src, pos: 0, depth: 0 }
    }

    /// The byte at the cursor after whitespace, which is skipped; `None` at
    /// the end of the input.
    #[inline]
    fn next_byte(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// The first byte of the next token, after whitespace.
    ///
    /// # Errors
    /// The input ended.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, DeError> {
        self.next_byte().ok_or_else(end_of_input)
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    #[cold]
    fn expected(&self, b: u8) -> DeError {
        DeError::msg(format!("expected `{}` at offset {}", b as char, self.pos))
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
        match self.next_byte() {
            None => Ok(()),
            Some(_) => Err(DeError::msg(format!("trailing characters at offset {}", self.pos))),
        }
    }

    /// Consumes a `null` if that is the next token and says whether it was.
    ///
    /// # Errors
    /// The input ended, or the next token starts with `n` and is not `null`.
    #[inline]
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

    /// Scans the number token at the cursor and returns it with its start
    /// offset. A token runs to the end of its grammar; a digit, sign, `.` or
    /// exponent right after that end (`01`, `1.2.3`, `1e5e5`) makes it no
    /// number at all.
    ///
    /// # Errors
    /// The next token is not a number, or is one no finite `f64` holds
    /// (`1e999`): letting it through would put `inf` into a feature vector.
    #[inline(always)]
    fn number(&mut self) -> Result<(Number, usize), DeError> {
        let first = self.peek()?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let neg = first == b'-';
        let mut pos = start + usize::from(neg);
        // `0`, or a nonzero digit and more digits. Nineteen digits cannot
        // overflow a `u64`; a longer run is summed again with checks.
        let int_start = pos;
        let mut mag = 0u64;
        match bytes.get(pos) {
            Some(b'0') => pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(&b) = bytes.get(pos) {
                    let digit = b.wrapping_sub(b'0');
                    if digit > 9 {
                        break;
                    }
                    mag = mag.wrapping_mul(10).wrapping_add(u64::from(digit));
                    pos += 1;
                }
            }
            _ => return Err(self.bad_number(start)),
        }
        let fits = pos - int_start < 20 || checked_value(&bytes[int_start..pos]).is_some();
        let mut integral = true;
        if bytes.get(pos) == Some(&b'.') {
            let end = digits_end(bytes, pos + 1);
            if end == pos + 1 {
                return Err(self.bad_number(start));
            }
            pos = end;
            integral = false;
        }
        if let Some(b'e' | b'E') = bytes.get(pos) {
            pos += 1;
            if let Some(b'+' | b'-') = bytes.get(pos) {
                pos += 1;
            }
            let end = digits_end(bytes, pos);
            if end == pos {
                return Err(self.bad_number(start));
            }
            pos = end;
            integral = false;
        }
        if let Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E') = bytes.get(pos) {
            return Err(self.bad_number(start));
        }
        self.pos = pos;
        if integral && fits {
            if !neg {
                return Ok((Number::UInt(mag), start));
            }
            if (1..=1 << 63).contains(&mag) {
                return Ok((Number::Int((mag as i64).wrapping_neg()), start));
            }
        }
        let text = &self.src[start..pos];
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok((Number::Float(f), start)),
            Ok(_) => Err(out_of_range(text)),
            Err(_) => Err(self.bad_number(start)),
        }
    }

    /// The error for a token at `start` that is not a number: named by the
    /// run of number characters there, or "expected value" if there is none.
    #[cold]
    fn bad_number(&self, start: usize) -> DeError {
        let bytes = self.src.as_bytes();
        let mut end = start;
        while let Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E') = bytes.get(end) {
            end += 1;
        }
        if end == start {
            DeError::msg(format!("expected value at offset {start}"))
        } else {
            DeError::msg(format!("invalid number `{}`", &self.src[start..end]))
        }
    }

    /// The error for the number token from `start` to the cursor, read where
    /// an integer belongs and scanned as a float: out of range when its
    /// digits are an integer past 64 bits, else a float token (`1.0`, `-0`).
    #[cold]
    fn not_an_integer(&self, start: usize) -> DeError {
        let text = &self.src[start..self.pos];
        if text != "-0" && text.bytes().all(|b| b == b'-' || b.is_ascii_digit()) {
            out_of_range(text)
        } else {
            DeError::msg(format!("expected integer, got `{text}`"))
        }
    }

    /// Reads an integer token that `u64` holds.
    ///
    /// # Errors
    /// The next token is not a number, is a float token, or is an integer
    /// `u64` does not hold ("number out of range").
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DeError> {
        match self.number()? {
            (Number::UInt(u), _) => Ok(u),
            (Number::Int(_), start) => Err(out_of_range(&self.src[start..self.pos])),
            (Number::Float(_), start) => Err(self.not_an_integer(start)),
        }
    }

    /// Reads an integer token that `i64` holds.
    ///
    /// # Errors
    /// As [`Reader::u64`], for `i64`'s range.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DeError> {
        match self.number()? {
            (Number::Int(i), _) => Ok(i),
            (Number::UInt(u), start) => i64::try_from(u).map_err(|_| out_of_range(&self.src[start..self.pos])),
            (Number::Float(_), start) => Err(self.not_an_integer(start)),
        }
    }

    /// Reads any number token as the `f64` nearest to it (`-0` is `-0.0`).
    /// `null` is not a number here; the float impls take it as NaN first.
    ///
    /// # Errors
    /// The next token is not a number, or is one no finite `f64` holds.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DeError> {
        Ok(match self.number()?.0 {
            Number::UInt(u) => u as f64,
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        })
    }

    /// Reads a string, borrowed from the input unless it has escapes.
    ///
    /// # Errors
    /// The next token is not a string, the string is unterminated, or an
    /// escape is not one JSON defines (`\u` takes exactly four hex digits; a
    /// surrogate must be half of a pair).
    #[inline(always)]
    pub fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let start = self.pos;
        let run = self.run_end()?;
        if self.src.as_bytes()[run] == b'"' {
            self.pos = run + 1;
            return Ok(Cow::Borrowed(&self.src[start..run]));
        }
        self.escaped_string(start, run).map(Cow::Owned)
    }

    /// The rest of a string whose first escape's backslash is at `run`.
    fn escaped_string(&mut self, start: usize, run: usize) -> Result<String, DeError> {
        let mut out = String::from(&self.src[start..run]);
        self.pos = run;
        loop {
            if self.src.as_bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // the backslash
            out.push(self.escape()?);
            let run = self.run_end()?;
            out.push_str(&self.src[self.pos..run]);
            self.pos = run;
        }
    }

    /// Offset of the next `"` or `\` at or after the cursor, found eight
    /// bytes per step. Both are ASCII, so the offset is a character boundary
    /// of the input.
    #[inline]
    fn run_end(&self) -> Result<usize, DeError> {
        let bytes = self.src.as_bytes();
        let mut at = self.pos;
        while let Some(word) = word_at(bytes, at) {
            let hits = bytes_equal(word, b'"') | bytes_equal(word, b'\\');
            if hits != 0 {
                return Ok(at + hits.trailing_zeros() as usize / 8);
            }
            at += 8;
        }
        bytes[at..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|n| at + n)
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

    #[inline(always)]
    fn enter(&mut self, open: u8, close: u8) -> Result<bool, DeError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(too_deep());
        }
        self.depth += 1;
        if self.peek()? == close {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    #[inline(always)]
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
            _ => Err(self.no_separator(close)),
        }
    }

    #[cold]
    fn no_separator(&self, close: u8) -> DeError {
        DeError::msg(format!("expected `,` or `{}` at offset {}", close as char, self.pos))
    }

    /// Opens an array; `true` when an element follows.
    ///
    /// # Errors
    /// The next token is not `[`, or the array is nested too deep.
    #[inline]
    pub fn begin_array(&mut self) -> Result<bool, DeError> {
        self.enter(b'[', b']')
    }

    /// After an element: `true` when another follows, `false` at the `]`.
    ///
    /// # Errors
    /// Neither `,` nor `]` comes next.
    #[inline]
    pub fn array_next(&mut self) -> Result<bool, DeError> {
        self.next(b']')
    }

    /// Opens an object; `true` when a key follows.
    ///
    /// # Errors
    /// The next token is not `{`, or the object is nested too deep.
    #[inline]
    pub fn begin_object(&mut self) -> Result<bool, DeError> {
        self.enter(b'{', b'}')
    }

    /// Reads a key and its `:`.
    ///
    /// # Errors
    /// See [`Reader::string`]; or no `:` follows.
    #[inline(always)]
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
    #[inline]
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

    /// Reads one value of any kind as a tree: a number token as
    /// [`Value::UInt`] (a non-negative integer that fits), [`Value::Int`] (a
    /// negative one) or [`Value::Float`].
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
            _ => match self.number()?.0 {
                Number::UInt(u) => Value::UInt(u),
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            },
        })
    }
}

/// The value of a run of ASCII digits, if it fits a `u64`.
#[cold]
fn checked_value(digits: &[u8]) -> Option<u64> {
    digits
        .iter()
        .try_fold(0u64, |v, &d| v.checked_mul(10)?.checked_add(u64::from(d - b'0')))
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([1; 8]);

/// The eight bytes at `pos` as a little-endian word, if the input has them.
#[inline]
fn word_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let eight = bytes.get(pos..pos + 8)?;
    Some(u64::from_le_bytes(eight.try_into().expect("eight bytes")))
}

/// A word whose lowest set bit is the high bit of `word`'s first byte equal
/// to `b` (bytes past that one may be flagged spuriously); 0 if none is.
#[inline]
fn bytes_equal(word: u64, b: u8) -> u64 {
    let x = word ^ (ONES * u64::from(b));
    x.wrapping_sub(ONES) & !x & (ONES << 7)
}

/// How many of `word`'s bytes, from the first, are ASCII digits.
#[inline]
fn leading_digits(word: u64) -> usize {
    // A digit's high nibble is 3 and stays 3 when 6 is added (its low
    // nibble is at most 9). Adding 6 carries into the next byte only from
    // 0xFA up, which no UTF-8 text holds.
    let high = ONES * 0xF0;
    let off = ((word & high) ^ (ONES * 0x30)) | ((word.wrapping_add(ONES * 6) & high) ^ (ONES * 0x30));
    // The high bit of each byte that is not a digit.
    let non_digits = (((off & (ONES * 0x7F)) + ONES * 0x7F) | off) & (ONES << 7);
    non_digits.trailing_zeros() as usize / 8
}

/// Offset just past the run of ASCII digits that starts at `pos`.
#[inline]
fn digits_end(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(word) = word_at(bytes, pos) {
        let n = leading_digits(word);
        pos += n;
        if n < 8 {
            return pos;
        }
    }
    while let Some(b'0'..=b'9') = bytes.get(pos) {
        pos += 1;
    }
    pos
}

#[cold]
fn end_of_input() -> DeError {
    DeError::msg("unexpected end of input")
}

#[cold]
fn too_deep() -> DeError {
    DeError::msg(format!("nesting deeper than {MAX_DEPTH} levels"))
}

/// The error for a number outside the range of the type that reads it.
#[cold]
pub(crate) fn out_of_range(token: &str) -> DeError {
    DeError::msg(format!("number out of range `{token}`"))
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

/// `"00"`, `"01"`, … `"99"`: two digits per division by 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal digits of `v`: what `format!("{v}")` prints.
pub fn write_u64(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Appends `v` in decimal, with a `-` when negative: what `format!("{v}")`
/// prints.
pub fn write_i64(v: i64, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    write_u64(v.unsigned_abs(), out);
}

/// Below this magnitude every integer is an `f64`, so an integral `f64`'s
/// shortest round-trip digits are its integer digits.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0; // 2^53

/// Appends a float in Rust's shortest form that parses back to the same
/// `f64` (what `format!("{f}")` prints); `null` when it is not finite. An
/// integral value below 2^53 in magnitude is printed by [`write_u64`], with
/// the sign of `-0.0` kept.
pub fn write_f64(f: f64, out: &mut String) {
    if f.abs() < EXACT_INTEGERS && (f as i64) as f64 == f {
        if f.is_sign_negative() {
            out.push('-');
        }
        write_u64((f as i64).unsigned_abs(), out);
    } else if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
    }
}

/// Appends a [`Value`] tree as compact JSON. A [`Value::Float`] is written
/// as a float token (`1.0`, not `1`), so the reader takes it back as the
/// float it is and not as an integer.
pub fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write_i64(*i, out),
        Value::UInt(u) => write_u64(*u, out),
        Value::Float(f) => {
            write_f64(*f, out);
            // The digits of an integral float inside the 64-bit integers'
            // range would read back as an integer; past it they are a float
            // token already. `-0` keeps its `.0` too.
            let as_integer = -9_223_372_036_854_775_808.0..18_446_744_073_709_551_616.0;
            if as_integer.contains(f) && f.fract() == 0.0 {
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

    /// A seeded splitmix64 stream: the random bit patterns below.
    fn bits(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn write_f64_prints_what_format_prints() {
        let check = |x: f64| {
            let mut out = String::new();
            write_f64(x, &mut out);
            assert_eq!(out, format!("{x}"), "bits {:#x}", x.to_bits());
        };
        let two53 = 2f64.powi(53);
        let edges = [
            0.0,
            f64::from(f32::from_bits(1)),
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            2f64.powi(24),
            two53 - 1.0,
            two53,
            two53 + 2.0,
            1e15,
            1e16,
            f64::from(f32::MAX),
            f64::MAX,
            0.5,
            123.0,
        ];
        for x in edges {
            check(x);
            check(-x);
        }
        let mut f32s = 0;
        for b in bits(11).take(1 << 20) {
            let x = f32::from_bits(b as u32);
            if x.is_finite() {
                check(f64::from(x));
                f32s += 1;
            }
        }
        let mut f64s = 0;
        for b in bits(12).take(1 << 20) {
            let x = f64::from_bits(b);
            if x.is_finite() {
                check(x);
                f64s += 1;
            }
        }
        assert!(
            f32s > 1_000_000 && f64s > 1_000_000,
            "{f32s} f32 and {f64s} f64 patterns"
        );
        // The bit patterns above are almost never integral; these are.
        for b in bits(13).take(100_000) {
            check((b >> 10) as f64 - 2f64.powi(53));
            check(f64::from(b as u32 as f32));
        }
        let mut out = String::new();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            out.clear();
            write_f64(x, &mut out);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        let float = |text: &str| {
            let mut r = Reader::new(text);
            r.f64().and_then(|f| r.end().map(|()| f))
        };
        for bad in [
            "+1", "01", "-01", "00.5", "1.", ".5", "-.5", "1.e3", "-", "1e", "1e+", "--1", "1.2.3", "0x10", "1e5e5",
        ] {
            assert!(parse(bad).is_err(), "{bad} parses as a value");
            assert!(skip(bad).is_err(), "{bad} is skipped");
            assert!(float(bad).is_err(), "{bad} reads as a float");
        }
        for (good, want) in [
            ("-0", -0.0),
            ("0", 0.0),
            ("0.5e-3", 0.5e-3),
            ("1E+2", 100.0),
            ("1e2", 100.0),
            ("-12.25", -12.25),
            ("1.7976931348623157e308", f64::MAX),
            ("18446744073709551616", 18446744073709551616.0),
        ] {
            assert_eq!(float(good).map(f64::to_bits).ok(), Some(want.to_bits()), "{good}");
            assert!(skip(good).is_ok(), "{good}");
        }
        // `-0` is a float token, in the tree too; the other integers fit
        // a 64-bit type or are floats as well.
        assert_eq!(parse("-0").unwrap(), Value::Float(-0.0));
        assert!(matches!(parse("-0"), Ok(Value::Float(f)) if f.is_sign_negative()));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::UInt(u64::MAX));
        assert_eq!(
            parse("-9223372036854775809").unwrap(),
            Value::Float(-9223372036854775809.0)
        );
        for huge in ["1e999", "-1e400", &format!("1{}", "0".repeat(400))] {
            let err = parse(huge).expect_err(huge);
            assert!(err.0.contains("number out of range"), "{err}");
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
