//! The documented `dc-obs` JSONL event schema, and a validator for it.
//!
//! Every JSONL artifact the stack emits — the phase exhibit from
//! `examples/phases.rs`, engine job timelines, cluster replays, and
//! `dc-bench`'s own run metadata — is a stream of lines shaped
//! `{"seq":N,"ts":N,"kind":"…","fields":{…}}`. This module pins that
//! contract: [`validate_line`] checks one line's envelope and the
//! per-kind required fields below, and [`validate_stream`] additionally
//! checks that `seq` is gapless from zero (one recorder per artifact).
//!
//! The table is deliberately a compile-time list: adding an event kind
//! anywhere in the stack without documenting it here makes the
//! schema-check CI job fail on the first artifact that contains it.
//!
//! The hardened JSON reader this validator uses is [`dc_store::json`],
//! so the event validator and the persistent store's recovery path
//! share one parser — and one adversarial-input contract.

use dc_store::json::{parse_json, Json};

/// Required fields per event kind. Extra fields are allowed (the
/// producer may enrich events); missing ones fail validation, as does
/// any kind not listed here.
pub const EVENT_SCHEMA: &[(&str, &[&str])] = &[
    // Characterizer cache telemetry (ts: logical, always 0).
    ("cache_hit", &["entry", "corun"]),
    ("cache_miss", &["entry", "corun"]),
    ("sim_uncached", &["entry", "corun"]),
    // Interval PMU sampling (ts: simulated cycles).
    (
        "interval_sample",
        &[
            "workload",
            "interval",
            "start_cycle",
            "end_cycle",
            "instructions",
            "ipc",
            "l2_mpki",
            "l3_mpki",
            "branch_mpki",
        ],
    ),
    (
        "workload_sampled",
        &[
            "workload",
            "intervals",
            "every_cycles",
            "instructions",
            "ipc",
            "ipc_spread",
        ],
    ),
    // Sensitivity sweeps (ts: logical, always 0; order comes from seq).
    (
        "sweep_point",
        &[
            "axis",
            "point",
            "value",
            "workload",
            "ipc",
            "l2_mpki",
            "l3_mpki",
            "l3_misses",
            "misp_ratio",
            "instructions",
        ],
    ),
    ("sweep_axis", &["axis", "points", "workloads"]),
    // Engine job timelines (ts: job-relative wall-clock ms).
    (
        "job_start",
        &["map_tasks", "reduce_tasks", "input_bytes", "speculative"],
    ),
    (
        "job_summary",
        &[
            "map_input_records",
            "map_output_records",
            "shuffle_bytes",
            "reduce_input_records",
            "reduce_input_bytes",
            "reduce_output_records",
            "failed_attempts",
            "speculative_attempts",
            "killed_attempts",
            "reexecuted_bytes",
            "map_ms",
            "reduce_ms",
        ],
    ),
    ("job_failed", &["error"]),
    ("attempt_start", &["phase", "task", "attempt"]),
    ("attempt_end", &["phase", "task", "attempt", "outcome"]),
    ("attempt_retry", &["phase", "task", "attempt", "backoff_ms"]),
    ("speculative_launch", &["phase", "task", "attempt"]),
    // Cluster replay (ts: simulated ms).
    ("phase_start", &["phase", "iteration"]),
    ("phase_end", &["phase", "iteration", "secs"]),
    (
        "node_loss",
        &[
            "lost",
            "alive",
            "requeued_map_secs",
            "rereplicated_mb",
            "rereplication_stall_secs",
        ],
    ),
    ("node_recover", &["recovered", "alive"]),
    // dc-bench run metadata (ts: entry index).
    ("bench_run_start", &["label", "window", "jobs"]),
    ("bench_entry", &["name", "wall_ms", "threads"]),
    ("bench_run_end", &["entries"]),
    // Persistent result store (ts: logical, always 0).
    ("store_hit", &["entry", "corun"]),
    ("store_miss", &["entry", "corun"]),
    ("store_corrupt_skipped", &["records", "stale"]),
    ("store_truncated", &["bytes"]),
    ("store_compacted", &["live", "dropped"]),
    // dc-server daemon lifecycle (ts: logical, always 0). The first
    // two come from the server-wide recorder only; `job_queued` and
    // `job_done` bracket every job's own event stream as well.
    ("request_accepted", &["verb"]),
    ("request_rejected", &["code"]),
    (
        "job_queued",
        &["job", "kind", "entries", "window", "seed", "corun"],
    ),
    ("job_done", &["job", "state", "simulations"]),
];

/// The validated envelope of one event line.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLine {
    /// Recorder-assigned sequence number.
    pub seq: u64,
    /// Producer timestamp (domain documented per kind).
    pub ts: u64,
    /// Event kind.
    pub kind: String,
}

fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Validate one JSONL line: envelope shape, known kind, required
/// fields. Returns the envelope on success.
pub fn validate_line(line: &str) -> Result<EventLine, String> {
    let doc = parse_json(line)?;
    let seq = doc
        .get("seq")
        .and_then(as_u64)
        .ok_or("missing or non-integer \"seq\"")?;
    let ts = doc
        .get("ts")
        .and_then(as_u64)
        .ok_or("missing or non-integer \"ts\"")?;
    let kind = match doc.get("kind") {
        Some(Json::Str(k)) => k.clone(),
        _ => return Err("missing or non-string \"kind\"".into()),
    };
    let fields = doc.get("fields").ok_or("missing \"fields\"")?;
    if !matches!(fields, Json::Obj(_)) {
        return Err("\"fields\" is not an object".into());
    }
    let Some((_, required)) = EVENT_SCHEMA.iter().find(|(k, _)| *k == kind) else {
        return Err(format!("undocumented event kind \"{kind}\""));
    };
    for field in *required {
        if fields.get(field).is_none() {
            return Err(format!("kind \"{kind}\" is missing field \"{field}\""));
        }
    }
    Ok(EventLine { seq, ts, kind })
}

/// Validate a whole single-recorder artifact: every line individually,
/// plus `seq` gapless from zero. Returns the number of events.
pub fn validate_stream(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (i, line) in text.lines().enumerate() {
        let ev = validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if ev.seq != i as u64 {
            return Err(format!(
                "line {}: seq {} breaks the gapless order (expected {})",
                i + 1,
                ev.seq,
                i
            ));
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_obs::{Recorder, SharedBuf, Value};

    #[test]
    fn accepts_every_documented_kind_from_the_real_serializer() {
        let buf = SharedBuf::default();
        let rec = Recorder::jsonl(buf.clone());
        rec.emit(
            0,
            "cache_miss",
            vec![("entry", Value::str("sort")), ("corun", Value::U64(1))],
        );
        rec.emit(
            7,
            "interval_sample",
            vec![
                ("workload", Value::str("sort")),
                ("interval", Value::U64(0)),
                ("start_cycle", Value::U64(0)),
                ("end_cycle", Value::U64(7)),
                ("instructions", Value::U64(5)),
                ("ipc", Value::F64(0.71)),
                ("l2_mpki", Value::F64(1.0)),
                ("l3_mpki", Value::F64(f64::NAN)), // serializes as null
                ("branch_mpki", Value::F64(0.0)),
            ],
        );
        rec.emit(
            9,
            "attempt_end",
            vec![
                ("phase", Value::str("map")),
                ("task", Value::U64(1)),
                ("attempt", Value::U64(0)),
                ("outcome", Value::str("failed")),
            ],
        );
        rec.flush();
        let text = buf.to_string_lossy();
        assert_eq!(validate_stream(&text), Ok(3));
    }

    #[test]
    fn rejects_undocumented_kinds_and_missing_fields() {
        let undocumented = r#"{"seq":0,"ts":0,"kind":"mystery","fields":{}}"#;
        assert!(validate_line(undocumented)
            .unwrap_err()
            .contains("undocumented"));
        let missing = r#"{"seq":0,"ts":0,"kind":"attempt_end","fields":{"phase":"map","task":1,"attempt":0}}"#;
        assert!(validate_line(missing).unwrap_err().contains("outcome"));
        let no_envelope = r#"{"ts":0,"kind":"job_failed","fields":{"error":"x"}}"#;
        assert!(validate_line(no_envelope).unwrap_err().contains("seq"));
    }

    #[test]
    fn stream_validation_requires_gapless_seq() {
        let good = concat!(
            r#"{"seq":0,"ts":0,"kind":"job_failed","fields":{"error":"a"}}"#,
            "\n",
            r#"{"seq":1,"ts":1,"kind":"job_failed","fields":{"error":"b"}}"#,
            "\n"
        );
        assert_eq!(validate_stream(good), Ok(2));
        let gapped = concat!(
            r#"{"seq":0,"ts":0,"kind":"job_failed","fields":{"error":"a"}}"#,
            "\n",
            r#"{"seq":2,"ts":1,"kind":"job_failed","fields":{"error":"b"}}"#,
            "\n"
        );
        assert!(validate_stream(gapped).unwrap_err().contains("gapless"));
    }

    #[test]
    fn parser_handles_escapes_nulls_and_nesting() {
        let doc =
            parse_json(r#"{"a":"x\n\"y\"A","b":[1,-2.5e3,null,true],"c":{}}"#).expect("valid json");
        assert_eq!(doc.get("a"), Some(&Json::Str("x\n\"y\"A".to_string())));
        match doc.get("b") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1], Json::Num(-2500.0));
                assert_eq!(items[2], Json::Null);
                assert_eq!(items[3], Json::Bool(true));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json(r#"{"a":1} trailing"#).is_err());
        assert!(parse_json("").is_err());
    }
}
