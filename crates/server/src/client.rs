//! The client side of the line protocol, shared by every program that
//! talks to a daemon: `dc-server-client`, `dc-top`, `dc-bench`'s
//! `server_throughput` entry and the server test suites.
//!
//! A [`Client`] holds one TCP connection. [`Client::request`] sends
//! `{"id":"<prefix><n>",…}` as one write of the line and its newline,
//! numbering ids per connection, and reads the one reply line;
//! [`Client::stream`] follows a job's event frames to the final reply,
//! and [`Client::await_terminal`] polls `status` until the job ends.
//! [`Client::send_raw`] and [`Client::recv_line`] put arbitrary bytes
//! on the wire and read one line back, for garbage and fuzz sessions.
//!
//! Replies are parsed with [`dc_store::json`]. The deterministic
//! `output` object and a frame's event are cut byte-exact from the raw
//! line ([`Reply::output`], [`Reply::event`]): re-rendering a parsed
//! document would not reproduce the daemon's bytes. A `stats` reply
//! decodes back into the registry's [`MetricsSnapshot`]
//! ([`snapshot_from_doc`]).

use dc_obs::event::write_json_string;
use dc_obs::metrics::{HistogramSnapshot, MetricSnapshot, MetricValue, MetricsSnapshot};
use dc_store::json::{parse_json, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long [`Client::await_terminal`] waits for a job to end. A
/// deadline, not a poll count: a poll's round trip varies with the
/// transport, and a count would turn that into a varying wait.
const AWAIT_TIMEOUT: Duration = Duration::from_secs(300);

/// One reply line: the bytes as received (newline stripped) and their
/// parsed document.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The line as received, without its newline.
    pub raw: String,
    /// `raw`, parsed.
    pub doc: Json,
}

impl Reply {
    /// Parse one reply line; a line that is not JSON is an
    /// `InvalidData` error.
    pub fn parse(raw: String) -> io::Result<Reply> {
        match parse_json(&raw) {
            Ok(doc) => Ok(Reply { raw, doc }),
            Err(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparsable reply {raw:?}: {e}"),
            )),
        }
    }

    /// The reply says `"ok":true`.
    pub fn is_ok(&self) -> bool {
        self.doc.get("ok") == Some(&Json::Bool(true))
    }

    /// A stream frame (`{"id":…,"event":{…}}`): the one reply shape
    /// without an `ok` field.
    fn is_frame(&self) -> bool {
        self.doc.get("ok").is_none()
    }

    /// `result.<field>`.
    fn result(&self, field: &str) -> Option<&Json> {
        self.doc.get("result")?.get(field)
    }

    /// `result.<field>` when it is a string (`job`, `state`).
    pub fn result_str(&self, field: &str) -> Option<&str> {
        match self.result(field)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `result.simulations`: the cache misses a finished job or a
    /// `subset` request cost.
    pub fn simulations(&self) -> Option<u64> {
        match self.result("simulations")? {
            Json::Num(n) => Some(*n as u64),
            _ => None,
        }
    }

    /// `error.code` of an error reply.
    pub fn error_code(&self) -> Option<&str> {
        match self.doc.get("error")?.get("code")? {
            Json::Str(code) => Some(code),
            _ => None,
        }
    }

    /// The byte-exact `output` object: brace matching that skips JSON
    /// strings and their escapes, so a brace inside a string cannot end
    /// the object early.
    pub fn output(&self) -> Option<&str> {
        extract_output(&self.raw)
    }

    /// The byte-exact `dc-obs` event of a stream frame.
    pub fn event(&self) -> Option<&str> {
        extract_event(&self.raw)
    }

    /// The registry snapshot a `stats` reply carries; see
    /// [`snapshot_from_doc`].
    pub fn metrics(&self) -> Result<MetricsSnapshot, String> {
        snapshot_from_doc(&self.doc)
    }
}

/// One connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    id_prefix: String,
    next_id: u64,
}

impl Client {
    /// Connect to a daemon. Requests on this connection get the ids
    /// `<id_prefix>1`, `<id_prefix>2`, ….
    pub fn connect(addr: impl ToSocketAddrs, id_prefix: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            id_prefix: id_prefix.to_string(),
            next_id: 1,
        })
    }

    /// Fail a read that waits longer than `timeout` (`None` waits
    /// forever), so a hung daemon fails a test instead of wedging it.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Write `bytes` exactly as given: no newline is added.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Write `line` and its newline in one write.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.send_raw(&framed)
    }

    /// Read one line, without its newline. End of stream is an
    /// `UnexpectedEof` error: the daemon never closes a connection
    /// while a reply is owed.
    pub fn recv_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(line)
    }

    /// Read and parse one reply line.
    pub fn recv(&mut self) -> io::Result<Reply> {
        Reply::parse(self.recv_line()?)
    }

    /// Send `{"id":"<next id>",<fields>}`, where `fields` is the rest of
    /// the request object, e.g. `"verb":"stats"`.
    fn send_request(&mut self, fields: &str) -> io::Result<()> {
        let line = format!("{{\"id\":\"{}{}\",{fields}}}", self.id_prefix, self.next_id);
        self.next_id += 1;
        self.send_line(&line)
    }

    /// Send one request and read its reply.
    pub fn request(&mut self, fields: &str) -> io::Result<Reply> {
        self.send_request(fields)?;
        self.recv()
    }

    /// `submit` a job; `job` is the spec object,
    /// e.g. `{"entries":["Sort"],"seed":7}`.
    pub fn submit(&mut self, job: &str) -> io::Result<Reply> {
        self.request(&format!("\"verb\":\"submit\",\"job\":{job}"))
    }

    /// `stream` a job: hand each event frame to `frame` as it arrives
    /// and return the final reply.
    pub fn stream(&mut self, job: &str, mut frame: impl FnMut(&Reply)) -> io::Result<Reply> {
        self.send_request(&job_fields("stream", job))?;
        loop {
            let reply = self.recv()?;
            if !reply.is_frame() {
                return Ok(reply);
            }
            frame(&reply);
        }
    }

    /// Poll `status` every `interval` until the job is done, cancelled
    /// or failed, handing every reply to `seen`; return the terminal
    /// reply. A reply without a state, or a job still live after 300 s,
    /// is an error.
    pub fn await_terminal(
        &mut self,
        job: &str,
        interval: Duration,
        mut seen: impl FnMut(&Reply),
    ) -> io::Result<Reply> {
        let deadline = Instant::now() + AWAIT_TIMEOUT;
        loop {
            let reply = self.request(&job_fields("status", job))?;
            seen(&reply);
            match reply.result_str("state") {
                Some("done" | "cancelled" | "failed") => return Ok(reply),
                Some(_) if Instant::now() < deadline => std::thread::sleep(interval),
                Some(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("await {job}: not terminal after {AWAIT_TIMEOUT:?}"),
                    ))
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("await {job}: no state in {}", reply.raw),
                    ))
                }
            }
        }
    }
}

/// `"verb":"<verb>","job":"<job>"`.
fn job_fields(verb: &str, job: &str) -> String {
    let mut fields = format!("\"verb\":\"{verb}\",\"job\":");
    write_json_string(&mut fields, job);
    fields
}

/// The byte-exact `"output":{…}` object of a raw reply line.
fn extract_output(raw: &str) -> Option<&str> {
    let start = raw.find("\"output\":")? + "\"output\":".len();
    let bytes = raw.as_bytes();
    if bytes.get(start) != Some(&b'{') {
        return None;
    }
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes[start..].iter().enumerate() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&raw[start..start + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The inner `dc-obs` event of a stream frame `{"id":…,"event":{…}}`,
/// byte-exact: the frame renderer appends the event last, so dropping
/// the final `}` recovers it.
fn extract_event(raw: &str) -> Option<&str> {
    let at = raw.find("\"event\":")?;
    let inner = &raw[at + "\"event\":".len()..raw.len().checked_sub(1)?];
    inner.starts_with('{').then_some(inner)
}

/// Rebuild the registry's [`MetricsSnapshot`] from a `stats` reply
/// document (the shape [`MetricsSnapshot::to_json`] writes under
/// `result`).
pub fn snapshot_from_doc(doc: &Json) -> Result<MetricsSnapshot, String> {
    let Some(Json::Arr(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
        return Err("response carries no metrics snapshot".into());
    };
    let mut out = Vec::with_capacity(metrics.len());
    for m in metrics {
        let Some(Json::Str(name)) = m.get("name") else {
            return Err("metric without a name".into());
        };
        let mut labels = Vec::new();
        if let Some(Json::Obj(pairs)) = m.get("labels") {
            for (k, v) in pairs {
                let Json::Str(v) = v else {
                    return Err(format!("{name}: non-string label value"));
                };
                labels.push((k.clone(), v.clone()));
            }
        }
        let num = |field: &str| match m.get(field) {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        };
        let value = match m.get("type") {
            Some(Json::Str(t)) if t == "counter" => MetricValue::Counter(num("value") as u64),
            Some(Json::Str(t)) if t == "gauge" => MetricValue::Gauge(num("value") as i64),
            Some(Json::Str(t)) if t == "histogram" => {
                let mut buckets = Vec::new();
                if let Some(Json::Arr(pairs)) = m.get("buckets") {
                    for pair in pairs {
                        if let Json::Arr(p) = pair {
                            if let (Some(Json::Num(u)), Some(Json::Num(n))) = (p.first(), p.get(1))
                            {
                                buckets.push((*u as u64, *n as u64));
                            }
                        }
                    }
                }
                MetricValue::Histogram(HistogramSnapshot {
                    count: num("count") as u64,
                    sum: num("sum") as u64,
                    min: num("min") as u64,
                    max: num("max") as u64,
                    buckets,
                })
            }
            _ => return Err(format!("{name}: unknown metric type")),
        };
        out.push(MetricSnapshot {
            name: name.clone(),
            labels,
            value,
        });
    }
    Ok(MetricsSnapshot { metrics: out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_extraction_ignores_braces_inside_strings() {
        let raw = r#"{"id":"c1","ok":true,"result":{"job":"job-1","output":{"a":"}{\"}","b":{"c":1}},"x":2}}"#;
        assert_eq!(extract_output(raw), Some(r#"{"a":"}{\"}","b":{"c":1}}"#));
        assert_eq!(extract_output(r#"{"output":3}"#), None);
        assert_eq!(extract_output(r#"{"output":{"a":1"#), None);
        assert_eq!(extract_output(r#"{"ok":true}"#), None);
    }

    #[test]
    fn event_extraction_returns_the_inner_object() {
        let frame = r#"{"id":"c2","event":{"seq":0,"kind":"job_queued"}}"#;
        assert_eq!(
            extract_event(frame),
            Some(r#"{"seq":0,"kind":"job_queued"}"#)
        );
        let reply = Reply::parse(frame.to_string()).expect("frame parses");
        assert!(reply.is_frame());
        assert_eq!(extract_event(r#"{"id":1,"ok":true,"result":{}}"#), None);
    }

    #[test]
    fn reply_accessors_read_the_envelope() {
        let done = Reply::parse(
            r#"{"id":"c3","ok":true,"result":{"job":"job-4","state":"done","simulations":2,"output":{"k":1}}}"#
                .to_string(),
        )
        .expect("parses");
        assert!(done.is_ok() && !done.is_frame());
        assert_eq!(done.result_str("job"), Some("job-4"));
        assert_eq!(done.result_str("state"), Some("done"));
        assert_eq!(done.simulations(), Some(2));
        assert_eq!(done.output(), Some(r#"{"k":1}"#));
        assert_eq!(done.error_code(), None);

        let err = Reply::parse(
            r#"{"id":null,"ok":false,"error":{"code":"parse_error","message":"x"}}"#.to_string(),
        )
        .expect("parses");
        assert!(!err.is_ok());
        assert_eq!(err.error_code(), Some("parse_error"));
        assert!(Reply::parse("not json".to_string()).is_err());
    }

    #[test]
    fn job_names_are_written_as_json_strings() {
        assert_eq!(
            job_fields("status", "job-7"),
            r#""verb":"status","job":"job-7""#
        );
        assert_eq!(
            job_fields("stream", "a\"b"),
            r#""verb":"stream","job":"a\"b""#
        );
    }
}
