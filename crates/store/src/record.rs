//! Record payloads: one `(measurement key, Vec<PerfCounts>)` pair per
//! log record, serialized as a single-line JSON object.
//!
//! Every `u64` travels as a **decimal string**, not a JSON number: the
//! workspace's hardened parser ([`crate::json`]) reads numbers as
//! `f64`, which silently rounds above 2^53 — fatal for `cfg_hash`,
//! seeds, and long-run cycle counters. Strings round-trip exactly.
//!
//! Counter blocks are serialized as fixed-order arrays (declaration
//! order of [`PerfCounts`]), not keyed objects: the payload is ~3×
//! smaller across a sweep grid. The array codec lives next to the
//! struct in dc-cpu ([`dc_cpu::counters::to_array`], re-exported here
//! as [`counts_to_array`]), whose exhaustive destructuring pins the
//! order at compile time: adding a counter field without placing it
//! in the array is a build error there, not a silent decode mismatch
//! here.

use crate::json::{parse_json, write_json_string, Json};
use dc_cpu::PerfCounts;

/// The counter-block array codec, defined next to the struct.
pub use dc_cpu::counters::{
    from_array as counts_from_array, to_array as counts_to_array, COUNTER_FIELDS,
};

/// Identity of one persisted measurement — the on-disk mirror of
/// `dcbench::cache::CacheKey`. The store cannot name that type (the
/// core crate depends on this one), so the benchmark entry is keyed by
/// its stable registry name instead of the `BenchmarkId` enum.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Registry name of the benchmark entry (e.g. `"Sort"`).
    pub entry: String,
    /// `CpuConfig::stable_hash` of the simulated machine.
    pub cfg_hash: u64,
    /// Measured-window µops.
    pub max_ops: u64,
    /// Warm-up µops.
    pub warmup_ops: u64,
    /// Per-entry trace seed.
    pub seed: u64,
    /// Co-run width (1 = solo).
    pub corun: u32,
    /// SMARTS sampling plan as `(detail_ops, ffwd_ops)`, `None` for
    /// exact simulation. Serialized only when present, so records
    /// written before sampling existed decode as exact — and exact
    /// records keep their historical bytes.
    pub sample: Option<(u64, u64)>,
}

/// One recoverable unit: a key plus its per-core counter blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The measurement this record answers.
    pub key: StoreKey,
    /// One counter block per co-running core (solo = one element).
    pub counts: Vec<PerfCounts>,
}

fn push_u64_str(out: &mut String, v: u64) {
    out.push('"');
    out.push_str(&v.to_string());
    out.push('"');
}

/// Serialize one record as a single-line JSON object (no trailing
/// newline; framing is the log layer's job). Deterministic: identical
/// records always produce identical bytes.
pub fn encode_payload(record: &Record) -> String {
    let mut out = String::with_capacity(128 + record.counts.len() * COUNTER_FIELDS * 8);
    out.push_str("{\"entry\":");
    write_json_string(&mut out, &record.key.entry);
    out.push_str(",\"cfg\":");
    push_u64_str(&mut out, record.key.cfg_hash);
    out.push_str(",\"max_ops\":");
    push_u64_str(&mut out, record.key.max_ops);
    out.push_str(",\"warmup_ops\":");
    push_u64_str(&mut out, record.key.warmup_ops);
    out.push_str(",\"seed\":");
    push_u64_str(&mut out, record.key.seed);
    out.push_str(",\"corun\":");
    push_u64_str(&mut out, u64::from(record.key.corun));
    if let Some((detail, ffwd)) = record.key.sample {
        out.push_str(",\"sample\":[");
        push_u64_str(&mut out, detail);
        out.push(',');
        push_u64_str(&mut out, ffwd);
        out.push(']');
    }
    out.push_str(",\"counts\":[");
    for (i, block) in record.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in counts_to_array(block).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_u64_str(&mut out, *v);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => s
            .parse::<u64>()
            .map_err(|_| format!("field \"{key}\" is not a u64 decimal string")),
        Some(_) => Err(format!("field \"{key}\" must be a decimal string")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

/// Parse one payload line back into a [`Record`]. Any malformation —
/// bad JSON, wrong types, missing fields, wrong counter arity, empty
/// counts — is an `Err`, never a panic: this runs on post-crash,
/// possibly bit-flipped bytes.
pub fn decode_payload(payload: &str) -> Result<Record, String> {
    let doc = parse_json(payload)?;
    let entry = match doc.get("entry") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err("missing or non-string \"entry\"".into()),
    };
    let corun = get_u64(&doc, "corun")?;
    let corun = u32::try_from(corun).map_err(|_| "\"corun\" exceeds u32".to_string())?;
    if corun == 0 {
        return Err("\"corun\" must be at least 1".into());
    }
    // Absent before sampled simulation existed; such records are exact.
    let sample = match doc.get("sample") {
        None => None,
        Some(Json::Arr(pair)) if pair.len() == 2 => {
            let part = |v: &Json| match v {
                Json::Str(s) => s
                    .parse::<u64>()
                    .map_err(|_| "\"sample\" value is not a u64 decimal string".to_string()),
                _ => Err("\"sample\" values must be decimal strings".into()),
            };
            Some((part(&pair[0])?, part(&pair[1])?))
        }
        Some(_) => return Err("\"sample\" must be a two-element array".into()),
    };
    let key = StoreKey {
        entry,
        cfg_hash: get_u64(&doc, "cfg")?,
        max_ops: get_u64(&doc, "max_ops")?,
        warmup_ops: get_u64(&doc, "warmup_ops")?,
        seed: get_u64(&doc, "seed")?,
        corun,
        sample,
    };
    let blocks = match doc.get("counts") {
        Some(Json::Arr(blocks)) => blocks,
        _ => return Err("missing or non-array \"counts\"".into()),
    };
    if blocks.is_empty() {
        return Err("\"counts\" must hold at least one block".into());
    }
    let mut counts = Vec::with_capacity(blocks.len());
    for block in blocks {
        let values = match block {
            Json::Arr(values) => values,
            _ => return Err("counter block must be an array".into()),
        };
        if values.len() != COUNTER_FIELDS {
            return Err(format!(
                "counter block has {} fields, expected {COUNTER_FIELDS}",
                values.len()
            ));
        }
        let mut array = [0u64; COUNTER_FIELDS];
        for (slot, v) in array.iter_mut().zip(values) {
            *slot = match v {
                Json::Str(s) => s
                    .parse::<u64>()
                    .map_err(|_| "counter value is not a u64 decimal string".to_string())?,
                _ => return Err("counter value must be a decimal string".into()),
            };
        }
        counts.push(counts_from_array(&array));
    }
    Ok(Record { key, counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut a = [0u64; COUNTER_FIELDS];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = (i as u64 + 1) * 1_000_003;
        }
        Record {
            key: StoreKey {
                entry: "Sort".to_string(),
                cfg_hash: u64::MAX - 7,
                max_ops: 3_200_000,
                warmup_ops: 200_000,
                seed: 0xDEAD_BEEF_0BAD_F00D,
                corun: 4,
                sample: None,
            },
            counts: vec![counts_from_array(&a), PerfCounts::default()],
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let r = sample();
        assert_eq!(decode_payload(&encode_payload(&r)).expect("decodes"), r);
    }

    #[test]
    fn sampled_records_round_trip_and_exact_ones_omit_the_field() {
        let mut r = sample();
        assert!(
            !encode_payload(&r).contains("sample"),
            "exact records keep their historical bytes"
        );
        r.key.sample = Some((25_000, 75_000));
        let line = encode_payload(&r);
        assert!(line.contains(r#""sample":["25000","75000"]"#));
        assert_eq!(decode_payload(&line).expect("decodes"), r);
    }

    #[test]
    fn records_without_a_sample_field_decode_as_exact() {
        // A pre-sampling record, byte for byte.
        let line = r#"{"entry":"Sort","cfg":"1","max_ops":"1","warmup_ops":"0","seed":"1","corun":"1","counts":[["1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16","17","18","19","20","21","22","23","24","25","26","27","28","29"]]}"#;
        let record = decode_payload(line).expect("old records stay readable");
        assert_eq!(record.key.sample, None);
    }

    #[test]
    fn u64s_above_f64_precision_survive() {
        // 2^53 + 1 is the first integer an f64 cannot represent; the
        // decimal-string encoding must carry it exactly.
        let mut r = sample();
        r.key.cfg_hash = (1 << 53) + 1;
        r.counts[0].cycles = u64::MAX;
        let back = decode_payload(&encode_payload(&r)).expect("decodes");
        assert_eq!(back.key.cfg_hash, (1 << 53) + 1);
        assert_eq!(back.counts[0].cycles, u64::MAX);
    }

    #[test]
    fn array_order_matches_declaration_order() {
        // Distinct per-slot values so any permutation would be caught.
        let mut a = [0u64; COUNTER_FIELDS];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = i as u64 + 1;
        }
        let c = counts_from_array(&a);
        assert_eq!(c.cycles, 1);
        assert_eq!(c.instructions, 2);
        assert_eq!(c.store_buf_stall_cycles, 10);
        assert_eq!(c.l2_accesses, 21);
        assert_eq!(c.stores, 29);
        assert_eq!(counts_to_array(&c), a);
    }

    #[test]
    fn malformed_payloads_are_errors() {
        for bad in [
            "",
            "{",
            "null",
            r#"{"entry":"Sort"}"#,
            // cfg as a bare number instead of a decimal string
            r#"{"entry":"Sort","cfg":1,"max_ops":"1","warmup_ops":"0","seed":"1","corun":"1","counts":[["1"]]}"#,
            // corun of zero
            r#"{"entry":"Sort","cfg":"1","max_ops":"1","warmup_ops":"0","seed":"1","corun":"0","counts":[["1"]]}"#,
            // empty counts
            r#"{"entry":"Sort","cfg":"1","max_ops":"1","warmup_ops":"0","seed":"1","corun":"1","counts":[]}"#,
            // wrong counter arity
            r#"{"entry":"Sort","cfg":"1","max_ops":"1","warmup_ops":"0","seed":"1","corun":"1","counts":[["1","2"]]}"#,
            // sample as a bare flag instead of a plan pair
            r#"{"entry":"Sort","cfg":"1","max_ops":"1","warmup_ops":"0","seed":"1","corun":"1","sample":true,"counts":[["1"]]}"#,
            // sample pair with a bare number
            r#"{"entry":"Sort","cfg":"1","max_ops":"1","warmup_ops":"0","seed":"1","corun":"1","sample":[25000,"75000"],"counts":[["1"]]}"#,
        ] {
            assert!(decode_payload(bad).is_err(), "accepted: {bad}");
        }
    }
}
