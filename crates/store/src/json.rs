//! The workspace's hardened JSON reader.
//!
//! It parses the `dc-obs` event streams (`dc_benches::schema`), the
//! store's records on recovery ([`crate::log`]), and every daemon
//! request line and client reply (`dc_server`). All of these may be
//! truncated mid-write, bit-flipped, or adversarial, so the contract
//! is strict: **every** malformed input comes back as `Err`, never a
//! panic and never a stack overflow. The fuzz suites in
//! `tests/schema_fuzz.rs` and `tests/store_properties.rs` pin that
//! contract.
//!
//! Parsing is linear in the input: a string's plain runs are copied as
//! whole slices, and large objects find duplicate keys through a hash
//! set, so no input makes the parser rescan what it already read.
//!
//! The parser is hand-rolled rather than a dependency because the
//! workspace is offline-vendored and the subset of JSON the stack emits
//! is small and stable.

use std::collections::HashSet;

/// A parsed JSON value (the subset the stack emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (a non-finite f64 serializes as this).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Maximum container nesting [`parse_json`] accepts. The recursive
/// descent would otherwise turn attacker-depth input (`[[[[…`) into a
/// stack overflow — an abort, not an `Err`. Real event lines and store
/// records nest three levels deep.
pub const MAX_DEPTH: usize = 128;

/// Objects with more keys than this index them in a hash set for the
/// duplicate-key check; smaller ones (every record and reply the stack
/// writes) scan their pairs, which costs no allocation.
const KEY_SCAN_MAX: usize = 16;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let mut index: Option<HashSet<String>> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            let duplicate = if pairs.len() < KEY_SCAN_MAX {
                pairs.iter().any(|(k, _)| *k == key)
            } else {
                !index
                    .get_or_insert_with(|| pairs.iter().map(|(k, _)| k.clone()).collect())
                    .insert(key.clone())
            };
            if duplicate {
                return Err(format!("duplicate key \"{key}\" at byte {}", self.pos));
            }
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(format!("bad escape '\\{}'", char::from(other))),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!(
                        "raw control character in string at byte {}",
                        self.pos
                    ))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control character as one slice. All are ASCII,
                    // so the run ends on a char boundary of the input,
                    // which is already valid UTF-8.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is already consumed.
    /// A high surrogate must be followed by an escaped low one, and the
    /// pair decodes to one character outside the BMP; a lone surrogate
    /// is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let unit = self.hex4()?;
        let low = if (0xD800..0xDC00).contains(&unit) && self.eat("\\u") {
            Some(self.hex4()?)
        } else {
            None
        };
        char::decode_utf16(std::iter::once(unit).chain(low))
            .next()
            .and_then(Result::ok)
            .ok_or_else(|| format!("unpaired surrogate \\u{unit:04x} at byte {at}"))
    }

    /// Four hex digits, exactly: no sign, no fewer.
    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let code = hex
            .iter()
            .try_fold(0, |acc, &b| {
                Some(acc << 4 | char::from(b).to_digit(16)? as u16)
            })
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        // `f64::from_str` also takes `01`, `1.` and `1.e5`, which JSON
        // forbids: the integer part is `0` or has no leading zero, and a
        // `.` is followed by a digit.
        let unsigned = token.strip_prefix('-').unwrap_or(token).as_bytes();
        let int = unsigned.iter().take_while(|b| b.is_ascii_digit()).count();
        let json = int > 0
            && (int == 1 || unsigned[0] != b'0')
            && (unsigned.get(int) != Some(&b'.')
                || unsigned.get(int + 1).is_some_and(u8::is_ascii_digit));
        match token.parse::<f64>() {
            Ok(x) if json => Ok(Json::Num(x)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }
}

/// Parse one JSON document. Anything RFC 8259 forbids (a raw control
/// character or lone surrogate in a string, a number such as `01` or
/// `1.`), trailing non-whitespace, duplicate object keys, and nesting
/// beyond [`MAX_DEPTH`] levels are errors — the parser reads artifacts
/// that may be truncated or corrupt, so every malformation must surface
/// as `Err`, never a panic.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

/// Append `s` to `out` as a JSON string literal (the exact escaping
/// rules `dc-obs` uses, so both serializers in the workspace agree).
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn parses_the_value_shapes_the_stack_emits() {
        let doc =
            parse_json(r#"{"a":"x\n\"y\"","b":[1,-2.5e3,null,true],"c":{}}"#).expect("valid json");
        assert_eq!(doc.get("a"), Some(&Json::Str("x\n\"y\"".to_string())));
        match doc.get("b") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1], Json::Num(-2500.0));
                assert_eq!(items[2], Json::Null);
                assert_eq!(items[3], Json::Bool(true));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json(r#"{"a":1} trailing"#).is_err());
        assert!(parse_json("").is_err());
        assert!(parse_json(r#"{"k":1,"k":2}"#)
            .unwrap_err()
            .contains("duplicate key"));
        let too_deep = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_json(&too_deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn string_writer_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}é";
        let mut doc = String::from("{\"k\":");
        write_json_string(&mut doc, nasty);
        doc.push('}');
        let parsed = parse_json(&doc).expect("escaped string parses");
        assert_eq!(parsed.get("k"), Some(&Json::Str(nasty.to_string())));
    }

    #[test]
    fn duplicate_keys_report_the_decoded_key_and_the_byte_after_it() {
        assert_eq!(
            parse_json(r#"{"k":1,"k":2}"#).unwrap_err(),
            "duplicate key \"k\" at byte 10"
        );
        // The key is compared, and reported, unescaped.
        assert_eq!(
            parse_json(r#"{"a\u00e9":1,"aé":2}"#).unwrap_err(),
            "duplicate key \"aé\" at byte 18"
        );
        // Past `KEY_SCAN_MAX` keys the check goes through the index;
        // the first repeat is still the one reported.
        let mut doc = String::from("{");
        for i in 0..3 * KEY_SCAN_MAX {
            doc.push_str(&format!("\"k{i}\":{i},"));
        }
        doc.push_str("\"k7\"");
        let at = doc.len();
        doc.push_str(":0,\"k8\":0}");
        assert_eq!(
            parse_json(&doc).unwrap_err(),
            format!("duplicate key \"k7\" at byte {at}")
        );
    }

    #[test]
    fn escaped_surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        assert_eq!(
            parse_json(r#""\ud83d\ude00""#),
            Ok(Json::Str("\u{1f600}".into()))
        );
        assert_eq!(
            parse_json(r#""a\ud800\udc00b\udbff\udfff""#),
            Ok(Json::Str("a\u{10000}b\u{10ffff}".into()))
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = parse_json(lone).unwrap_err();
            assert!(err.contains("unpaired surrogate"), "{lone}: {err}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            parse_json(r#""\u0041\u00e9\u00E9""#),
            Ok(Json::Str("A\u{e9}\u{e9}".into()))
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
        ] {
            let err = parse_json(bad).unwrap_err();
            assert!(err.contains("bad \\u escape"), "{bad}: {err}");
        }
        assert!(parse_json(r#""\u04""#).is_err());
    }

    #[test]
    fn raw_control_characters_in_strings_are_errors() {
        for c in (0u8..0x20).map(char::from) {
            for doc in [format!("\"a{c}b\""), format!("{{\"k{c}\":1}}")] {
                let err = parse_json(&doc).unwrap_err();
                assert!(err.contains("raw control character"), "{doc:?}: {err}");
            }
        }
        // DEL and everything above it are plain characters.
        assert_eq!(
            parse_json("\"a\u{7f}\u{80}b\""),
            Ok(Json::Str("a\u{7f}\u{80}b".into()))
        );
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for (text, x) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-7", -7.0),
            ("1.5", 1.5),
            ("-0.25", -0.25),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("2.5e-3", 2.5e-3),
            ("0e0", 0.0),
        ] {
            assert_eq!(parse_json(text), Ok(Json::Num(x)), "{text}");
        }
        for bad in [
            "01", "-01", "00", "1.", "1.e5", "-0.", "-", "-.5", "1e", "1e+", "1E-", "--1", "1.5.2",
            "1e5e5",
        ] {
            assert_eq!(
                parse_json(bad),
                Err("bad number at byte 0".to_string()),
                "{bad}"
            );
        }
        // A number must start with a digit or a minus sign.
        assert!(parse_json(".5").is_err());
        assert!(parse_json("+1").is_err());
        assert_eq!(
            parse_json("[1,01]"),
            Err("bad number at byte 3".to_string())
        );
    }

    /// Both documents take minutes when each character, or each key,
    /// rescans what came before it; a linear parse takes milliseconds
    /// even unoptimised.
    #[test]
    fn megabyte_documents_parse_in_linear_time() {
        const MIB: usize = 1 << 20;
        const BOUND: Duration = Duration::from_secs(2);
        let body = "plain é 中 ".repeat(MIB / 16);
        let one_string = format!("\"{body}\"");
        let start = Instant::now();
        let parsed = parse_json(&one_string);
        let took = start.elapsed();
        assert_eq!(parsed, Ok(Json::Str(body)));
        assert!(took < BOUND, "1 MiB string took {took:?}");

        let mut keys = String::from("{");
        let mut n = 0;
        while keys.len() < MIB {
            keys.push_str(&format!("\"key-{n}\":{n},"));
            n += 1;
        }
        keys.push_str("\"last\":null}");
        let start = Instant::now();
        let parsed = parse_json(&keys);
        let took = start.elapsed();
        match parsed {
            Ok(Json::Obj(pairs)) => assert_eq!(pairs.len(), n + 1),
            other => panic!("expected an object, got {other:?}"),
        }
        assert!(took < BOUND, "1 MiB object of {n} keys took {took:?}");
    }

    /// Pieces for the round-trip property: plain runs, multi-byte
    /// UTF-8 at every encoded width, every character the writer
    /// escapes, and control characters.
    const PIECES: &[&str] = &[
        "a",
        "plain run",
        "é",
        "中文",
        "😀",
        "\u{7f}",
        "\u{80}",
        "\u{7ff}",
        "\u{800}",
        "\u{ffff}",
        "\u{10000}",
        "\u{10ffff}",
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{1b}[0m",
    ];

    /// Encode `c` with the escape the writer never emits but the
    /// parser accepts (`\/`, `\b`, `\f`, `\uXXXX` for any BMP
    /// character, or an escaped surrogate pair for any other), so the
    /// property covers every escape.
    fn push_alternate_escape(out: &mut String, c: char) {
        match c {
            '/' => out.push_str("\\/"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }

    proptest! {
        /// Any mix of pieces survives `write_json_string` →
        /// `parse_json`, as a value and as a key, and so does the same
        /// text spelled with the writer's alternate escapes.
        #[test]
        fn strings_round_trip_through_the_writer_and_the_parser(
            picks in collection::vec(0usize..PIECES.len(), 0..40),
            alternate in collection::vec(0u32..2, 0..40),
        ) {
            let text: String = picks.iter().map(|&i| PIECES[i]).collect();
            let mut doc = String::from("{");
            write_json_string(&mut doc, &text);
            doc.push(':');
            write_json_string(&mut doc, &text);
            doc.push('}');
            prop_assert_eq!(
                parse_json(&doc),
                Ok(Json::Obj(vec![(text.clone(), Json::Str(text.clone()))]))
            );

            let mut spelled = String::from("\"");
            for (i, c) in text.chars().enumerate() {
                if alternate.get(i) == Some(&1) {
                    push_alternate_escape(&mut spelled, c);
                } else {
                    let mut literal = String::new();
                    write_json_string(&mut literal, &c.to_string());
                    spelled.push_str(&literal[1..literal.len() - 1]);
                }
            }
            spelled.push('"');
            prop_assert_eq!(parse_json(&spelled), Ok(Json::Str(text)));
        }
    }
}
