//! The event record and its JSON Lines encoding.

/// A field value. Deliberately tiny: everything the stack reports is a
/// counter, a ratio, a name or a flag.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter (cycles, bytes, task ids…).
    U64(u64),
    /// Signed quantity (deltas that may go negative).
    I64(i64),
    /// Ratio / derived metric (IPC, MPKI…).
    F64(f64),
    /// Name or label.
    Str(String),
    /// Flag.
    Bool(bool),
}

impl Value {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The contained u64, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained f64, if this is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => push_display(out, v),
            Value::I64(v) => push_display(out, v),
            Value::F64(v) => push_f64(out, *v),
            Value::Str(s) => write_json_string(out, s),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

fn push_display(out: &mut String, v: &impl std::fmt::Display) {
    use std::fmt::Write;
    let _ = write!(out, "{v}");
}

/// Append a JSON number for `v`: Rust's shortest-round-trip `Display`
/// for finite values (deterministic across platforms), `null` for
/// non-finite ones — JSON has no NaN/Inf, so they encode as null rather
/// than as an invalid line. The one float rule of every JSON surface
/// in the workspace: events, the server protocol and the subset result.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        push_display(out, &v);
    } else {
        out.push_str("null");
    }
}

/// Append `s` to `out` as a JSON string literal (quoted, escaped).
/// Shared by the event encoder and the metrics snapshot encoder so
/// every JSON surface in the crate escapes identically.
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

/// One structured event. See the crate docs for the `seq`/`ts`
/// contract; field order is preserved exactly as emitted (and is part
/// of the byte-identical JSONL guarantee).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Recorder-assigned sequence number: a gapless total order
    /// consistent with sink order.
    pub seq: u64,
    /// Caller-supplied timestamp in the kind's documented time domain.
    pub ts: u64,
    /// Static tag naming the event schema.
    pub kind: &'static str,
    /// Ordered key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Encode as one JSON Lines record (no trailing newline):
    /// `{"seq":N,"ts":N,"kind":"…","fields":{…}}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        use std::fmt::Write;
        let _ = write!(out, "{{\"seq\":{},\"ts\":{},\"kind\":", self.seq, self.ts);
        write_json_string(&mut out, self.kind);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, k);
            out.push(':');
            v.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(fields: Vec<(&'static str, Value)>) -> Event {
        Event {
            seq: 7,
            ts: 1234,
            kind: "test_kind",
            fields,
        }
    }

    #[test]
    fn jsonl_round_trips_every_value_shape() {
        let e = ev(vec![
            ("u", Value::U64(18_446_744_073_709_551_615)),
            ("i", Value::I64(-42)),
            ("f", Value::F64(0.5)),
            ("s", Value::str("sort")),
            ("b", Value::Bool(false)),
        ]);
        assert_eq!(
            e.to_jsonl(),
            "{\"seq\":7,\"ts\":1234,\"kind\":\"test_kind\",\"fields\":\
             {\"u\":18446744073709551615,\"i\":-42,\"f\":0.5,\"s\":\"sort\",\"b\":false}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = ev(vec![("s", Value::str("a\"b\\c\nd\u{1}"))]);
        assert!(e.to_jsonl().contains("\"a\\\"b\\\\c\\nd\\u0001\""));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let e = ev(vec![("f", Value::F64(f64::NAN))]);
        assert!(e.to_jsonl().contains("\"f\":null"));
    }

    #[test]
    fn field_lookup() {
        let e = ev(vec![("a", Value::U64(1)), ("b", Value::str("x"))]);
        assert_eq!(e.field("a").and_then(Value::as_u64), Some(1));
        assert_eq!(e.field("b").and_then(Value::as_str), Some("x"));
        assert!(e.field("missing").is_none());
        assert_eq!(e.field("a").and_then(Value::as_f64), None);
    }
}
