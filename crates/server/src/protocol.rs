//! The wire protocol: line-delimited JSON requests and responses.
//!
//! # Framing
//!
//! One request per line, one JSON object per request, newline
//! terminated, at most [`MAX_LINE_BYTES`] bytes. Responses are likewise
//! single lines. A line that exceeds the cap is consumed (through its
//! newline) and answered with a [`code::LINE_TOO_LONG`] error; a line
//! that is not a JSON object is answered with [`code::PARSE_ERROR`].
//! Malformed input **never** panics the daemon and never drops the
//! connection — the connection is only closed by the client (EOF) or by
//! a successful `shutdown`.
//!
//! # Requests
//!
//! ```json
//! {"id":"c1","verb":"submit","job":{"kind":"characterize","entries":["Sort"],"window":"quick","seed":2013}}
//! {"id":"c2","verb":"status","job":"job-1"}
//! {"id":"c3","verb":"stream","job":"job-1"}
//! {"id":"c4","verb":"cancel","job":"job-1"}
//! {"id":"c5","verb":"stats"}
//! {"id":"c6","verb":"subset","k":4,"linkage":"complete","window":"quick","seed":2013}
//! {"id":"c7","verb":"shutdown"}
//! ```
//!
//! `id` is a client-chosen string or non-negative integer, echoed on
//! every response; reusing an id on one connection is a
//! [`code::DUPLICATE_ID`] error. `entries` is either an array of figure
//! labels or a group name (`"all"`, `"data_analysis"`, `"services"`,
//! `"hpcc"`). An optional `"sampled":true` runs the job under
//! SMARTS-style systematic sampling (default validated plan) instead of
//! exact simulation.
//!
//! A `subset` request runs Exhibit SS synchronously: characterize the
//! eleven data-analysis workloads (through the shared in-process
//! cache), PCA the metric matrix, hierarchically cluster the
//! PC scores, and answer with the `k` medoid representatives. All four
//! fields are optional: `k` defaults to 4 (must be in `[1, 11]`),
//! `linkage` to `"complete"` (or `"single"`/`"average"`), `window` to
//! `"quick"`, `seed` to 2013.
//!
//! # Responses
//!
//! Success: `{"id":…,"ok":true,"result":{…}}`. Failure:
//! `{"id":…,"ok":false,"error":{"code":"…","message":"…"}}` (the id is
//! `null` when the faulty line did not yield one). A `stream` request
//! additionally emits zero or more `{"id":…,"event":{…}}` frames — one
//! per `dc-obs` event in the job's log — before its final response. A
//! `stats` request's `result` is the daemon's metrics snapshot in the
//! canonical `dc_obs::metrics` JSON encoding (sorted metrics, integer
//! values, quantile upper bounds from bucket edges).
//!
//! # Determinism
//!
//! For a given job spec the `output` object inside a finished job's
//! status is **byte-deterministic**: same bytes across processes,
//! worker counts, and client interleavings. Envelope fields that name
//! the submission order (`job`) or this process's history
//! (`simulations`) sit outside `output` precisely so the contract is
//! exact.

use dc_cpu::core::SimOptions;
use dc_obs::event::write_json_string;
use dc_store::json::{parse_json, Json};
use dcbench::{BenchmarkId, Characterizer};

/// Hard cap on one request line (bytes, newline excluded). Oversized
/// lines are consumed and rejected, never buffered unboundedly.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Widest co-run the server schedules on one chip.
pub const MAX_CORUN: u32 = 8;

/// Structured error codes (the `error.code` field).
pub mod code {
    /// The line is not a well-formed JSON object.
    pub const PARSE_ERROR: &str = "parse_error";
    /// The line exceeded [`super::MAX_LINE_BYTES`].
    pub const LINE_TOO_LONG: &str = "line_too_long";
    /// The object parsed but a field is missing or invalid.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The `verb` is not one of the seven documented verbs.
    pub const UNKNOWN_VERB: &str = "unknown_verb";
    /// The named job does not exist on this daemon.
    pub const UNKNOWN_JOB: &str = "unknown_job";
    /// The request id was already used on this connection.
    pub const DUPLICATE_ID: &str = "duplicate_id";
    /// The bounded job queue is full; retry after jobs drain.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The daemon is shutting down and accepts no new jobs.
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

/// A client-chosen request id: string or non-negative integer, echoed
/// verbatim on every response for that request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestId {
    /// A string id.
    Str(String),
    /// An integer id (kept exact up to 2^53, the JSON number range).
    Num(u64),
}

impl RequestId {
    /// Append the id's JSON rendering to `out`.
    pub fn render(&self, out: &mut String) {
        match self {
            RequestId::Str(s) => write_json_string(out, s),
            RequestId::Num(n) => {
                use std::fmt::Write;
                let _ = write!(out, "{n}");
            }
        }
    }
}

/// A structured protocol error: code + human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`code`] constants.
    pub code: &'static str,
    /// Human-readable detail (single line).
    pub message: String,
}

impl ProtoError {
    /// Build an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

/// The measurement window a job runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Short windows (tests, smoke runs): [`Characterizer::quick`]'s.
    Quick,
    /// Full windows (the figures): [`Characterizer::full`]'s.
    Full,
}

impl Window {
    /// The wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Window::Quick => "quick",
            Window::Full => "full",
        }
    }

    /// The simulation window this maps to: [`Characterizer::quick`]'s
    /// or [`Characterizer::full`]'s.
    pub fn sim_options(&self) -> SimOptions {
        self.options(false)
    }

    /// The named harness window, with [`Characterizer::quick_sampled`]'s
    /// or [`Characterizer::full_sampled`]'s SMARTS plan when `sampled`.
    fn options(self, sampled: bool) -> SimOptions {
        let harness = match (self, sampled) {
            (Window::Quick, false) => Characterizer::quick(),
            (Window::Quick, true) => Characterizer::quick_sampled(),
            (Window::Full, false) => Characterizer::full(),
            (Window::Full, true) => Characterizer::full_sampled(),
        };
        *harness.options()
    }
}

/// A validated characterization job specification. Every field is part
/// of the determinism contract: two specs that compare equal produce
/// byte-identical `output` objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The entries to characterize, in request order.
    pub entries: Vec<BenchmarkId>,
    /// Measurement window.
    pub window: Window,
    /// Master trace seed (per-entry seeds derive from it).
    pub seed: u64,
    /// Co-run width: 1 is the classic solo measurement; wider runs
    /// return the observed core-0 row under shared-L3 contention.
    pub corun: u32,
    /// Run the window under SMARTS-style systematic sampling (the
    /// default validated plan) instead of exact simulation: ~1.7×
    /// faster wall-clock (functional warming still touches every
    /// cache/TLB/predictor), counters extrapolated, cached under a
    /// distinct key. Defaults to `false` — exact — when the field is
    /// absent.
    pub sampled: bool,
}

/// Largest integer the hardened JSON parser carries exactly (its
/// numbers are f64).
const MAX_EXACT_INT: u64 = 1 << 53;

fn exact_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
            Some(*n as u64)
        }
        _ => None,
    }
}

impl JobSpec {
    /// Parse and validate the `job` object of a `submit` request.
    pub fn parse(doc: &Json) -> Result<JobSpec, ProtoError> {
        let bad = |m: String| ProtoError::new(code::BAD_REQUEST, m);
        if !matches!(doc, Json::Obj(_)) {
            return Err(bad("\"job\" must be an object".into()));
        }
        match doc.get("kind") {
            None | Some(Json::Str(_)) => {}
            Some(_) => return Err(bad("\"kind\" must be a string".into())),
        }
        if let Some(Json::Str(kind)) = doc.get("kind") {
            if kind != "characterize" {
                return Err(bad(format!("unknown job kind {kind:?}")));
            }
        }
        let entries = match doc.get("entries") {
            Some(Json::Str(group)) => match group.as_str() {
                "all" => BenchmarkId::all().to_vec(),
                "data_analysis" => BenchmarkId::data_analysis().to_vec(),
                "services" => BenchmarkId::services().to_vec(),
                "hpcc" => BenchmarkId::hpcc().to_vec(),
                other => return Err(bad(format!("unknown entry group {other:?}"))),
            },
            Some(Json::Arr(items)) => {
                let mut entries = Vec::with_capacity(items.len());
                for item in items {
                    let Json::Str(name) = item else {
                        return Err(bad("\"entries\" must contain figure labels".into()));
                    };
                    let Some(id) = BenchmarkId::from_name(name) else {
                        return Err(bad(format!("unknown entry {name:?}")));
                    };
                    if entries.contains(&id) {
                        return Err(bad(format!("duplicate entry {name:?}")));
                    }
                    entries.push(id);
                }
                entries
            }
            _ => {
                return Err(bad(
                    "missing \"entries\" (array of labels or group name)".into()
                ))
            }
        };
        if entries.is_empty() {
            return Err(bad("\"entries\" must not be empty".into()));
        }
        let window = match doc.get("window") {
            None => Window::Quick,
            Some(Json::Str(w)) if w == "quick" => Window::Quick,
            Some(Json::Str(w)) if w == "full" => Window::Full,
            _ => return Err(bad("\"window\" must be \"quick\" or \"full\"".into())),
        };
        let seed = match doc.get("seed") {
            None => 2013,
            Some(v) => exact_u64(v)
                .ok_or_else(|| bad("\"seed\" must be an integer in [0, 2^53]".into()))?,
        };
        let corun = match doc.get("corun") {
            None => 1,
            Some(v) => match exact_u64(v) {
                Some(n) if (1..=u64::from(MAX_CORUN)).contains(&n) => n as u32,
                _ => {
                    return Err(bad(format!(
                        "\"corun\" must be an integer in [1, {MAX_CORUN}]"
                    )))
                }
            },
        };
        let sampled = match doc.get("sampled") {
            None => false,
            Some(Json::Bool(b)) => *b,
            _ => return Err(bad("\"sampled\" must be a boolean".into())),
        };
        Ok(JobSpec {
            entries,
            window,
            seed,
            corun,
            sampled,
        })
    }

    /// The simulation window this job runs at: the named [`Window`],
    /// with the default SMARTS plan folded in when the job asked to be
    /// sampled.
    pub fn sim_options(&self) -> SimOptions {
        self.window.options(self.sampled)
    }
}

/// A validated `subset` request: which Exhibit SS to compute. Every
/// field is part of the determinism contract — two specs that compare
/// equal produce byte-identical `output` objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubsetSpec {
    /// Cluster count (and therefore subset size), in `[1, 11]`.
    pub k: u32,
    /// Linkage the merge tree is built with.
    pub linkage: dcbench::stats::Linkage,
    /// Measurement window for the eleven underlying characterizations.
    pub window: Window,
    /// Master trace seed.
    pub seed: u64,
}

impl SubsetSpec {
    /// Parse and validate a `subset` request's top-level fields (all
    /// optional, all defaulted).
    pub fn parse(doc: &Json) -> Result<SubsetSpec, ProtoError> {
        let bad = |m: String| ProtoError::new(code::BAD_REQUEST, m);
        let max_k = BenchmarkId::data_analysis().len() as u64;
        let k = match doc.get("k") {
            None => 4,
            Some(v) => match exact_u64(v) {
                Some(n) if (1..=max_k).contains(&n) => n as u32,
                _ => return Err(bad(format!("\"k\" must be an integer in [1, {max_k}]"))),
            },
        };
        let linkage = match doc.get("linkage") {
            None => dcbench::stats::Linkage::Complete,
            Some(Json::Str(name)) => match dcbench::stats::Linkage::from_name(name) {
                Some(linkage) => linkage,
                None => return Err(bad(format!("unknown linkage {name:?}"))),
            },
            _ => {
                return Err(bad(
                    "\"linkage\" must be \"single\", \"complete\" or \"average\"".into(),
                ))
            }
        };
        let window = match doc.get("window") {
            None => Window::Quick,
            Some(Json::Str(w)) if w == "quick" => Window::Quick,
            Some(Json::Str(w)) if w == "full" => Window::Full,
            _ => return Err(bad("\"window\" must be \"quick\" or \"full\"".into())),
        };
        let seed = match doc.get("seed") {
            None => 2013,
            Some(v) => exact_u64(v)
                .ok_or_else(|| bad("\"seed\" must be an integer in [0, 2^53]".into()))?,
        };
        Ok(SubsetSpec {
            k,
            linkage,
            window,
            seed,
        })
    }
}

/// What a request asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Queue a new job.
    Submit(JobSpec),
    /// Report a job's state (and output, once done).
    Status(String),
    /// Cancel a queued job.
    Cancel(String),
    /// Replay-and-follow a job's event log.
    Stream(String),
    /// Snapshot the daemon's metrics registry (counters, gauges,
    /// latency histograms) as a deterministic JSON object.
    Stats,
    /// Compute Exhibit SS synchronously: which `k` workloads represent
    /// the data-analysis space.
    Subset(SubsetSpec),
    /// Stop the daemon: finish running jobs, cancel queued ones, exit.
    Shutdown,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed on every response.
    pub id: RequestId,
    /// The verb and its payload.
    pub action: Action,
}

impl Request {
    /// The wire verb of this request's action.
    pub fn verb(&self) -> &'static str {
        match self.action {
            Action::Submit(_) => "submit",
            Action::Status(_) => "status",
            Action::Cancel(_) => "cancel",
            Action::Stream(_) => "stream",
            Action::Stats => "stats",
            Action::Subset(_) => "subset",
            Action::Shutdown => "shutdown",
        }
    }
}

fn parse_id(doc: &Json) -> Result<RequestId, ProtoError> {
    match doc.get("id") {
        Some(Json::Str(s)) if !s.is_empty() && s.len() <= 200 => Ok(RequestId::Str(s.clone())),
        Some(v) => exact_u64(v).map(RequestId::Num).ok_or_else(|| {
            ProtoError::new(
                code::BAD_REQUEST,
                "\"id\" must be a non-empty string (at most 200 bytes) or an integer in [0, 2^53]",
            )
        }),
        None => Err(ProtoError::new(code::BAD_REQUEST, "missing \"id\"")),
    }
}

fn parse_job_name(doc: &Json, verb: &str) -> Result<String, ProtoError> {
    match doc.get("job") {
        Some(Json::Str(name)) => Ok(name.clone()),
        _ => Err(ProtoError::new(
            code::BAD_REQUEST,
            format!("\"{verb}\" needs a \"job\" name string"),
        )),
    }
}

/// Parse one request line. On failure, the error is paired with the
/// request id when one could still be recovered, so the error response
/// can be correlated by the client.
pub fn parse_request(line: &str) -> Result<Request, (Option<RequestId>, ProtoError)> {
    let doc = parse_json(line).map_err(|e| (None, ProtoError::new(code::PARSE_ERROR, e)))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err((
            None,
            ProtoError::new(code::PARSE_ERROR, "request must be a JSON object"),
        ));
    }
    let id = parse_id(&doc).map_err(|e| (None, e))?;
    let verb = match doc.get("verb") {
        Some(Json::Str(v)) => v.clone(),
        _ => {
            return Err((
                Some(id),
                ProtoError::new(code::BAD_REQUEST, "missing or non-string \"verb\""),
            ))
        }
    };
    let action = match verb.as_str() {
        "submit" => {
            let job = doc.get("job").ok_or_else(|| {
                (
                    Some(id.clone()),
                    ProtoError::new(code::BAD_REQUEST, "\"submit\" needs a \"job\" object"),
                )
            })?;
            Action::Submit(JobSpec::parse(job).map_err(|e| (Some(id.clone()), e))?)
        }
        "status" => {
            Action::Status(parse_job_name(&doc, "status").map_err(|e| (Some(id.clone()), e))?)
        }
        "cancel" => {
            Action::Cancel(parse_job_name(&doc, "cancel").map_err(|e| (Some(id.clone()), e))?)
        }
        "stream" => {
            Action::Stream(parse_job_name(&doc, "stream").map_err(|e| (Some(id.clone()), e))?)
        }
        "stats" => Action::Stats,
        "subset" => Action::Subset(SubsetSpec::parse(&doc).map_err(|e| (Some(id.clone()), e))?),
        "shutdown" => Action::Shutdown,
        other => {
            return Err((
                Some(id),
                ProtoError::new(code::UNKNOWN_VERB, format!("unknown verb {other:?}")),
            ))
        }
    };
    Ok(Request { id, action })
}

/// Render a success response. `result` is a pre-rendered JSON object.
pub fn ok_response(id: &RequestId, result: &str) -> String {
    let mut out = String::with_capacity(32 + result.len());
    out.push_str("{\"id\":");
    id.render(&mut out);
    out.push_str(",\"ok\":true,\"result\":");
    out.push_str(result);
    out.push('}');
    out
}

/// Render an error response (`id` is `null` when the faulty line did
/// not yield one).
pub fn error_response(id: Option<&RequestId>, err: &ProtoError) -> String {
    let mut out = String::with_capacity(64 + err.message.len());
    out.push_str("{\"id\":");
    match id {
        Some(id) => id.render(&mut out),
        None => out.push_str("null"),
    }
    out.push_str(",\"ok\":false,\"error\":{\"code\":");
    write_json_string(&mut out, err.code);
    out.push_str(",\"message\":");
    write_json_string(&mut out, &err.message);
    out.push_str("}}");
    out
}

/// Render one stream frame wrapping a `dc-obs` event.
pub fn event_frame(id: &RequestId, event: &dc_obs::Event) -> String {
    let body = event.to_jsonl();
    let mut out = String::with_capacity(16 + body.len());
    out.push_str("{\"id\":");
    id.render(&mut out);
    out.push_str(",\"event\":");
    out.push_str(&body);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_obs::event::push_f64;

    #[test]
    fn both_json_string_escapers_write_identical_bytes() {
        // The daemon writes strings with dc-obs's escaper; dc-store keeps
        // its own copy for store records. Both must agree on every ASCII
        // char (controls included) and on non-ASCII text.
        let chars =
            (0u8..=0x7f)
                .map(char::from)
                .chain(['é', 'ß', '€', '→', '日', '\u{2028}', '\u{1F600}']);
        for ch in chars {
            let text = format!("a{ch}b");
            let mut obs = String::new();
            write_json_string(&mut obs, &text);
            let mut store = String::new();
            dc_store::json::write_json_string(&mut store, &text);
            assert_eq!(obs, store, "escapers disagree on U+{:04X}", ch as u32);
        }
    }

    #[test]
    fn submit_round_trip_with_defaults() {
        let req = parse_request(
            r#"{"id":"a1","verb":"submit","job":{"kind":"characterize","entries":["Sort","Grep"]}}"#,
        )
        .expect("parses");
        assert_eq!(req.id, RequestId::Str("a1".into()));
        assert_eq!(req.verb(), "submit");
        let Action::Submit(spec) = req.action else {
            panic!("expected submit");
        };
        assert_eq!(spec.entries, vec![BenchmarkId::Sort, BenchmarkId::Grep]);
        assert_eq!(spec.window, Window::Quick);
        assert_eq!(spec.seed, 2013);
        assert_eq!(spec.corun, 1);
        assert!(!spec.sampled, "exact is the default");
    }

    #[test]
    fn sampled_jobs_parse_and_map_to_the_default_plan() {
        let req = parse_request(
            r#"{"id":"s1","verb":"submit","job":{"entries":["Sort"],"sampled":true}}"#,
        )
        .expect("parses");
        let Action::Submit(spec) = req.action else {
            panic!("expected submit");
        };
        assert!(spec.sampled);
        let opts = spec.sim_options();
        assert!(opts.is_sampled());
        assert_eq!(opts.max_ops, Window::Quick.sim_options().max_ops);
        let exact = JobSpec {
            sampled: false,
            ..spec
        };
        assert!(!exact.sim_options().is_sampled());
    }

    #[test]
    fn entry_groups_expand() {
        for (group, len) in [
            ("all", 26),
            ("data_analysis", 11),
            ("services", 5),
            ("hpcc", 7),
        ] {
            let line = format!(r#"{{"id":1,"verb":"submit","job":{{"entries":"{group}"}}}}"#);
            let req = parse_request(&line).expect("parses");
            let Action::Submit(spec) = req.action else {
                panic!("expected submit");
            };
            assert_eq!(spec.entries.len(), len, "group {group}");
        }
    }

    #[test]
    fn invalid_submissions_are_structured_errors() {
        let cases = [
            (r#"{"id":1,"verb":"submit"}"#, code::BAD_REQUEST),
            (r#"{"id":1,"verb":"submit","job":{}}"#, code::BAD_REQUEST),
            (
                r#"{"id":1,"verb":"submit","job":{"entries":["NotAWorkload"]}}"#,
                code::BAD_REQUEST,
            ),
            (
                r#"{"id":1,"verb":"submit","job":{"entries":["Sort","Sort"]}}"#,
                code::BAD_REQUEST,
            ),
            (
                r#"{"id":1,"verb":"submit","job":{"entries":["Sort"],"corun":99}}"#,
                code::BAD_REQUEST,
            ),
            (
                r#"{"id":1,"verb":"submit","job":{"entries":["Sort"],"window":"slow"}}"#,
                code::BAD_REQUEST,
            ),
            (
                r#"{"id":1,"verb":"submit","job":{"entries":["Sort"],"sampled":1}}"#,
                code::BAD_REQUEST,
            ),
            (
                r#"{"id":1,"verb":"submit","job":{"entries":[],"seed":7}}"#,
                code::BAD_REQUEST,
            ),
            (r#"{"id":1,"verb":"measure"}"#, code::UNKNOWN_VERB),
            (r#"{"verb":"status","job":"job-1"}"#, code::BAD_REQUEST),
            (r#"not json"#, code::PARSE_ERROR),
            (r#"[1,2,3]"#, code::PARSE_ERROR),
        ];
        for (line, want) in cases {
            let (_, err) = parse_request(line).expect_err(line);
            assert_eq!(err.code, want, "line: {line}");
        }
    }

    #[test]
    fn stats_and_shutdown_take_no_payload() {
        let req = parse_request(r#"{"id":"m1","verb":"stats"}"#).expect("parses");
        assert_eq!(req.action, Action::Stats);
        assert_eq!(req.verb(), "stats");
        let req = parse_request(r#"{"id":"m2","verb":"shutdown"}"#).expect("parses");
        assert_eq!(req.action, Action::Shutdown);
    }

    #[test]
    fn subset_parses_with_defaults_and_overrides() {
        let req = parse_request(r#"{"id":"ss1","verb":"subset"}"#).expect("parses");
        assert_eq!(req.verb(), "subset");
        let Action::Subset(spec) = req.action else {
            panic!("expected subset");
        };
        assert_eq!(spec.k, 4);
        assert_eq!(spec.linkage, dcbench::stats::Linkage::Complete);
        assert_eq!(spec.window, Window::Quick);
        assert_eq!(spec.seed, 2013);

        let req = parse_request(
            r#"{"id":"ss2","verb":"subset","k":3,"linkage":"average","window":"full","seed":7}"#,
        )
        .expect("parses");
        let Action::Subset(spec) = req.action else {
            panic!("expected subset");
        };
        assert_eq!(spec.k, 3);
        assert_eq!(spec.linkage, dcbench::stats::Linkage::Average);
        assert_eq!(spec.window, Window::Full);
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn invalid_subsets_are_structured_errors() {
        for line in [
            r#"{"id":1,"verb":"subset","k":0}"#,
            r#"{"id":1,"verb":"subset","k":12}"#,
            r#"{"id":1,"verb":"subset","k":2.5}"#,
            r#"{"id":1,"verb":"subset","k":"four"}"#,
            r#"{"id":1,"verb":"subset","linkage":"ward"}"#,
            r#"{"id":1,"verb":"subset","linkage":7}"#,
            r#"{"id":1,"verb":"subset","window":"slow"}"#,
            r#"{"id":1,"verb":"subset","seed":-1}"#,
        ] {
            let (id, err) = parse_request(line).expect_err(line);
            assert_eq!(err.code, code::BAD_REQUEST, "line: {line}");
            assert_eq!(id, Some(RequestId::Num(1)), "line: {line}");
        }
    }

    #[test]
    fn error_ids_are_recovered_when_possible() {
        let (id, _) = parse_request(r#"{"id":"x9","verb":"nope"}"#).unwrap_err();
        assert_eq!(id, Some(RequestId::Str("x9".into())));
        let (id, _) = parse_request(r#"{"id":42,"verb":"submit"}"#).unwrap_err();
        assert_eq!(id, Some(RequestId::Num(42)));
        let (id, _) = parse_request("garbage").unwrap_err();
        assert_eq!(id, None);
    }

    #[test]
    fn responses_render_stably() {
        let id = RequestId::Str("c\"1".into());
        assert_eq!(
            ok_response(&id, r#"{"job":"job-1","state":"queued"}"#),
            r#"{"id":"c\"1","ok":true,"result":{"job":"job-1","state":"queued"}}"#
        );
        let err = ProtoError::new(code::QUEUE_FULL, "64 jobs queued");
        assert_eq!(
            error_response(None, &err),
            r#"{"id":null,"ok":false,"error":{"code":"queue_full","message":"64 jobs queued"}}"#
        );
        let mut num = String::new();
        RequestId::Num(7).render(&mut num);
        assert_eq!(num, "7");
    }

    #[test]
    fn f64_rendering_is_json_safe() {
        let mut out = String::new();
        push_f64(&mut out, 1.5);
        push_f64(&mut out, f64::NAN);
        push_f64(&mut out, 2.0);
        assert_eq!(out, "1.5null2");
    }
}
