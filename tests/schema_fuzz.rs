//! Fuzz-style robustness tests for the hand-rolled JSON parser
//! (`dc_store::json`) and `dc_benches::schema`'s event validators.
//!
//! The parser's job is reading JSONL artifacts off disk — files that
//! may be truncated mid-write, corrupted, or adversarial. The contract
//! under test: **every** malformed input comes back as `Err`, never a
//! panic, and never a stack overflow (which would abort the process,
//! not unwind). Inputs that happen to be well-formed may parse; what
//! is forbidden is any third outcome.
//!
//! The same adversarial corpus is replayed against the dc-store log
//! format (`dc_store::recover` and `decode_payload`), which reads the
//! same parser's output off the same kind of hostile disk — there the
//! contract is stronger still: recovery is *total*, returning a
//! `Recovery` (possibly empty) for any byte soup, never an error and
//! never a panic.
//!
//! The last case feeds the validator a real stream instead: the engine
//! timeline of a multi-job workload run with a recorder in its config.

use dc_benches::schema::{validate_line, validate_stream};
use dc_store::json::{parse_json, Json};
use dc_store::{decode_payload, frame_line, recover};
use proptest::prelude::*;

/// A representative valid event line (a documented kind with all its
/// required fields), used as the seed for truncation/corruption tests.
const GOOD_LINE: &str =
    r#"{"seq":0,"ts":0,"kind":"cache_hit","fields":{"entry":"Sort","corun":1}}"#;

proptest! {
    /// Arbitrary bytes (lossily decoded): parse and validate must
    /// return, not panic. Whatever parses must also re-`get` safely.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u16..256, 0..300)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(doc) = parse_json(&text) {
            let _ = doc.get("seq");
        }
        let _ = validate_line(&text);
        let _ = validate_stream(&text);
    }

    /// Structural garbage — random soups of JSON punctuation, digits
    /// and quotes, the shapes most likely to walk deep into the
    /// parser's recursion — never panics either.
    #[test]
    fn json_shaped_garbage_never_panics(text in r#"[{}:,"0-9a-z. -]{0,120}"#) {
        if let Ok(doc) = parse_json(&text) {
            let _ = doc.get("kind");
        }
        let _ = validate_line(&text);
    }

    /// Every proper prefix of a valid event line is an error for both
    /// the parser and the validator: the closing brace comes last, so
    /// no truncation point leaves a complete document.
    #[test]
    fn truncated_lines_are_errors(cut in 0usize..71) {
        // 0..71 covers every proper prefix of GOOD_LINE (len 71).
        prop_assert_eq!(GOOD_LINE.len(), 71);
        let prefix = &GOOD_LINE[..cut];
        prop_assert!(parse_json(prefix).is_err(), "prefix {prefix:?} parsed");
        prop_assert!(validate_line(prefix).is_err());
    }

    /// Unbalanced nesting at any depth is an error, and past the
    /// parser's depth cap even *balanced* nesting is rejected rather
    /// than recursed into — arbitrarily deep input must never turn
    /// into a stack overflow.
    #[test]
    fn deep_nesting_is_an_error_not_an_overflow(depth in 1usize..200_000) {
        let open = "[".repeat(depth);
        prop_assert!(parse_json(&open).is_err());
        let balanced = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        match parse_json(&balanced) {
            Ok(_) => prop_assert!(depth <= 128, "depth {depth} should exceed the cap"),
            Err(e) => prop_assert!(
                depth > 128,
                "balanced depth {depth} under the cap was rejected: {e}"
            ),
        }
    }

    /// Duplicate keys are rejected wherever they appear — in the event
    /// envelope or nested inside `fields`.
    #[test]
    fn duplicate_keys_are_errors(key in "[a-z]{1,8}", a in 0u64..100, b in 0u64..100) {
        let doc = format!(r#"{{"{key}":{a},"{key}":{b}}}"#);
        let err = parse_json(&doc).unwrap_err();
        prop_assert!(err.contains("duplicate key"), "got: {err}");
        let nested = format!(
            r#"{{"seq":0,"ts":0,"kind":"cache_hit","fields":{{"entry":"S","corun":1,"{key}":{a},"{key}":{b}}}}}"#
        );
        prop_assert!(validate_line(&nested).is_err());
    }

    /// The store format under the same byte soup: recovery is total
    /// (always a Recovery, never a panic), record decoding is closed
    /// (always Ok-or-Err), and whatever survives is schema-valid.
    #[test]
    fn store_recovery_is_total_on_arbitrary_bytes(bytes in collection::vec(0u16..256, 0..300)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let rec = recover(&bytes);
        prop_assert!(rec.records.iter().all(|r| !r.counts.is_empty()));
        let text = String::from_utf8_lossy(&bytes);
        let _ = decode_payload(&text);
    }

    /// Frame-shaped garbage — lines that *look* like store frames
    /// (kind letter, digits, hex, JSON-ish payloads) — is the corpus
    /// most likely to get deep into frame parsing. Still total, and a
    /// frame whose checksum field is damaged never yields a record.
    #[test]
    fn store_frame_shaped_garbage_never_panics(
        lines in collection::vec(r#"[hr 0-9a-f{}:,"]{0,60}"#, 0..6),
    ) {
        let mut bytes = Vec::new();
        for l in &lines {
            bytes.extend_from_slice(l.as_bytes());
            bytes.push(b'\n');
        }
        let rec = recover(&bytes);
        // None of these lines carries a CRC computed over its payload
        // (the odds across a 64-case run are negligible, and the seed
        // is deterministic), so nothing may be served.
        prop_assert!(rec.records.is_empty(), "garbage line verified: {lines:?}");
        prop_assert_eq!(rec.truncated_bytes, 0, "every line was terminated");
    }

    /// Every proper prefix of a valid framed record is either a torn
    /// tail (no newline survived) or a corrupt line — never a served
    /// record, and never a panic.
    #[test]
    fn truncated_store_frames_are_torn_or_quarantined(cut_permille in 0u64..1000) {
        let payload = r#"{"entry":"Sort","cfg":"1","max_ops":"9","warmup_ops":"0","seed":"7","corun":"1","counts":[["1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16","17","18","19","20","21","22","23","24","25","26","27","28","29"]]}"#;
        let frame = frame_line(b'r', payload);
        let cut = (cut_permille as usize * frame.len()) / 1000;
        let rec = recover(&frame[..cut]);
        prop_assert!(rec.records.is_empty(), "prefix of length {cut} served a record");
        if cut > 0 {
            prop_assert!(
                rec.truncated_bytes == cut as u64 || rec.corrupt_skipped == 1,
                "prefix of length {cut} neither torn nor quarantined"
            );
        }
    }
}

#[test]
fn nesting_at_the_cap_parses_and_one_past_does_not() {
    // 127 array levels + the implicit depth of the value inside.
    let ok = format!("{}0{}", "[".repeat(128), "]".repeat(128));
    assert!(parse_json(&ok).is_ok());
    let too_deep = format!("{}0{}", "[".repeat(129), "]".repeat(129));
    let err = parse_json(&too_deep).unwrap_err();
    assert!(err.contains("nesting deeper"), "got: {err}");
}

#[test]
fn sibling_containers_do_not_accumulate_depth() {
    // Ten thousand shallow arrays side by side: depth is per-branch,
    // not cumulative, so this must parse.
    let doc = format!("[{}[0]]", "[0],".repeat(10_000));
    assert!(parse_json(&doc).is_ok());
}

#[test]
fn the_seed_line_is_actually_valid() {
    let ev = validate_line(GOOD_LINE).expect("seed line must validate");
    assert_eq!((ev.seq, ev.ts, ev.kind), (0, 0, "cache_hit".to_string()));
    assert!(matches!(parse_json(GOOD_LINE), Ok(Json::Obj(_))));
}

/// A multi-job workload run with a recorder in its `JobConfig` emits one
/// `job_start`/`job_summary` pair per constituent job, and the whole
/// stream passes the documented schema.
#[test]
fn observed_workload_stream_passes_the_schema() {
    let (recorder, ring) = dc_obs::Recorder::ring(1 << 16);
    let cfg = dc_mapreduce::JobConfig {
        recorder,
        ..Default::default()
    };
    dc_analytics::Workload::HiveBench
        .run(dc_datagen::Scale::bytes(24 << 10), &cfg)
        .expect("fault-free run");
    let starts = ring.count_kind("job_start");
    assert!(starts >= 2, "Hive-bench chains several jobs, saw {starts}");
    assert_eq!(ring.count_kind("job_summary"), starts);
    let stream: String = ring
        .snapshot()
        .iter()
        .map(|e| e.to_jsonl() + "\n")
        .collect();
    let n = validate_stream(&stream).unwrap_or_else(|e| panic!("schema: {e}"));
    assert_eq!(n, ring.snapshot().len());
}
