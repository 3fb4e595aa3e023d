//! The daemon: executors draining a bounded job queue, plus the
//! connection loop that speaks the line protocol.
//!
//! One [`Server`] owns one [`dc_mapreduce::pool::SpmcQueue`] of
//! accepted jobs and `workers` executor threads popping it — the same
//! closeable-SPMC idiom the MapReduce engine's phase scheduler proved.
//! Every connection (TCP or stdio) shares that queue, the process-wide
//! `dcbench::cache` memo table, and whatever store `DCBENCH_STORE`
//! attached, so a second client submitting the sweep a first client
//! already ran is answered entirely from memory: zero simulations,
//! byte-identical `output`.
//!
//! Connection handling is deliberately boring: read a line, answer a
//! line. A malformed line is answered with a structured error and the
//! loop continues — the only things that end a connection are client
//! EOF and a successful `shutdown` acknowledgement.
//!
//! Each reply leaves in one write: accepted sockets run with
//! `TCP_NODELAY`, and the connection loop flushes once per request line
//! it handles, after the whole reply is buffered. Small segments of one
//! reply would otherwise meet Nagle's algorithm on this side and a
//! delayed ACK on the client's, a stall of tens of milliseconds. The
//! one exception is a `stream` of a job still running, which flushes
//! each batch of events as it lands so a live follower sees them.
//!
//! Finished jobs are retained for `status` and `stream` up to
//! [`MAX_FINISHED_JOBS`]; past that, each job that finishes evicts the
//! oldest finished one, whose name then answers `unknown_job` by the
//! time the finishing job reads finished.
//!
//! A connection remembers the ids of its last [`MAX_REMEMBERED_IDS`]
//! successful requests, so its memory does not grow with the requests
//! it serves; reusing an id inside that window is `duplicate_id`.

use crate::jobs::Job;
use crate::protocol::{
    self, code, error_response, event_frame, ok_response, Action, ProtoError, Request, RequestId,
    MAX_LINE_BYTES,
};
use dc_mapreduce::pool::SpmcQueue;
use dc_obs::event::write_json_string;
use dc_obs::metrics::{self, Clock, Counter, Histogram, MonotonicClock, Registry};
use dc_obs::{Recorder, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Daemon tunables.
pub struct ServerConfig {
    /// Executor threads draining the job queue (each job additionally
    /// fans its memo misses across `dcbench::pool` workers).
    pub workers: usize,
    /// Bounded queue depth: submissions beyond this many *queued* jobs
    /// are rejected with [`code::QUEUE_FULL`] instead of buffering
    /// without limit.
    pub queue_cap: usize,
    /// Server-wide telemetry recorder (`request_accepted`,
    /// `request_rejected`, `job_queued`, `job_done`). Disabled by
    /// default; the `--events` flag points it at a JSONL file.
    pub recorder: Recorder,
    /// The metrics registry the daemon records into and `stats`
    /// snapshots. Defaults to the process-wide [`metrics::global`]
    /// registry (so cache/pool/simulator metrics appear alongside the
    /// server's own); tests inject a fresh one for isolation.
    pub registry: Arc<Registry>,
    /// Time source for the queue-wait and service-time histograms.
    /// [`MonotonicClock`] in the daemon; tests inject a
    /// [`dc_obs::metrics::FakeClock`] so latency snapshots are
    /// byte-reproducible.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_cap: 64,
            recorder: Recorder::disabled(),
            registry: Arc::clone(metrics::global()),
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

/// Wire verbs, in protocol documentation order. Request counters are
/// pre-registered for every verb so a `stats` snapshot always carries
/// the full family (zeros included) — the snapshot's *shape* never
/// depends on which verbs a session happened to use.
const VERBS: [&str; 7] = [
    "submit", "status", "cancel", "stream", "stats", "subset", "shutdown",
];

/// Every structured error code, likewise pre-registered.
const ERROR_CODES: [&str; 8] = [
    code::PARSE_ERROR,
    code::LINE_TOO_LONG,
    code::BAD_REQUEST,
    code::UNKNOWN_VERB,
    code::UNKNOWN_JOB,
    code::DUPLICATE_ID,
    code::QUEUE_FULL,
    code::SHUTTING_DOWN,
];

/// The daemon's handles into its metrics registry.
struct ServerMetrics {
    registry: Arc<Registry>,
    clock: Arc<dyn Clock>,
    /// `dc_server_queue_wait_us`: accept → executor pop, µs.
    queue_wait: Histogram,
    /// `dc_server_service_time_us`: executor pop → job done, µs.
    service_time: Histogram,
}

impl ServerMetrics {
    fn new(registry: Arc<Registry>, clock: Arc<dyn Clock>) -> ServerMetrics {
        for verb in VERBS {
            registry.counter("dc_server_requests_total", &[("verb", verb)]);
        }
        for code in ERROR_CODES {
            registry.counter("dc_server_errors_total", &[("code", code)]);
        }
        let queue_wait = registry.histogram("dc_server_queue_wait_us", &[]);
        let service_time = registry.histogram("dc_server_service_time_us", &[]);
        ServerMetrics {
            registry,
            clock,
            queue_wait,
            service_time,
        }
    }

    fn requests(&self, verb: &str) -> Counter {
        self.registry
            .counter("dc_server_requests_total", &[("verb", verb)])
    }

    fn errors(&self, code: &str) -> Counter {
        self.registry
            .counter("dc_server_errors_total", &[("code", code)])
    }
}

/// Finished jobs (done, cancelled or failed) kept for `status` and
/// `stream`. When one more finishes, the oldest finished job is
/// evicted; queued and running jobs are never evicted.
pub const MAX_FINISHED_JOBS: usize = 1024;

/// Successful request ids a connection remembers for `duplicate_id`.
/// Reusing one of the last this-many ids is rejected; an id older than
/// the window is forgotten and may be used again.
pub const MAX_REMEMBERED_IDS: usize = 1024;

/// The ids of a connection's last [`MAX_REMEMBERED_IDS`] successful
/// requests, oldest first.
#[derive(Default)]
struct RecentIds {
    order: VecDeque<RequestId>,
    set: HashSet<RequestId>,
}

impl RecentIds {
    fn contains(&self, id: &RequestId) -> bool {
        self.set.contains(id)
    }

    /// Remember `id` (not already remembered), forgetting the oldest
    /// past the window.
    fn insert(&mut self, id: RequestId) {
        if self.order.len() == MAX_REMEMBERED_IDS {
            if let Some(oldest) = self.order.pop_front() {
                self.set.remove(&oldest);
            }
        }
        self.set.insert(id.clone());
        self.order.push_back(id);
    }
}

/// The jobs a name can reach.
#[derive(Default)]
struct JobTable {
    by_name: HashMap<String, Arc<Job>>,
    /// Names of finished jobs still in `by_name`, oldest first.
    finished: VecDeque<String>,
}

struct Inner {
    queue: SpmcQueue<Arc<Job>>,
    /// Jobs physically sitting in the queue (the bounded-ness check).
    queued: AtomicUsize,
    queue_cap: usize,
    jobs: Mutex<JobTable>,
    next_job: AtomicU64,
    shutdown: AtomicBool,
    recorder: Recorder,
    metrics: ServerMetrics,
}

/// A handle to one running daemon. Cheap to clone; the last handle
/// dropping does **not** stop the executors — call
/// [`Server::begin_shutdown`] and [`Server::wait`].
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
    executors: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Start the executor pool and return the handle connections are
    /// served through.
    pub fn start(cfg: ServerConfig) -> Server {
        let inner = Arc::new(Inner {
            queue: SpmcQueue::new(),
            queued: AtomicUsize::new(0),
            queue_cap: cfg.queue_cap.max(1),
            jobs: Mutex::new(JobTable::default()),
            next_job: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            recorder: cfg.recorder,
            metrics: ServerMetrics::new(cfg.registry, cfg.clock),
        });
        let mut executors = Vec::with_capacity(cfg.workers.max(1));
        for _ in 0..cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            executors.push(std::thread::spawn(move || executor_loop(&inner)));
        }
        Server {
            inner,
            executors: Arc::new(Mutex::new(executors)),
        }
    }

    /// The server-wide telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.inner.recorder
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting work: running jobs finish, queued jobs are
    /// cancelled as the executors drain them, and [`Server::wait`]
    /// returns once the pool is idle. Idempotent.
    pub fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue.close();
    }

    /// Join the executor pool (after [`Server::begin_shutdown`]).
    pub fn wait(&self) {
        let handles: Vec<JoinHandle<()>> = {
            let mut slot = self.executors.lock().unwrap_or_else(|p| p.into_inner());
            slot.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.inner.recorder.flush();
    }

    /// Serve one already-connected client from any line-oriented byte
    /// pair (a TCP stream split in two, or stdin/stdout). Returns when
    /// the client disconnects or after acknowledging `shutdown`.
    pub fn serve_connection<R: BufRead, W: Write>(&self, reader: &mut R, writer: &mut W) {
        let mut used_ids = RecentIds::default();
        let mut line = Vec::with_capacity(1024);
        loop {
            let shutdown_acked = match read_capped_line(reader, &mut line) {
                Err(_) | Ok(LineRead::Eof) => return,
                Ok(LineRead::TooLong) => {
                    self.reject(code::LINE_TOO_LONG);
                    let err = ProtoError::new(
                        code::LINE_TOO_LONG,
                        format!("request lines are capped at {MAX_LINE_BYTES} bytes"),
                    );
                    write_line(writer, &error_response(None, &err)).map(|()| false)
                }
                Ok(LineRead::Line) => {
                    self.handle_line(&String::from_utf8_lossy(&line), &mut used_ids, writer)
                }
            };
            // One flush per request line: the whole reply is one write.
            match shutdown_acked.and_then(|acked| writer.flush().map(|()| acked)) {
                Ok(false) => {}
                Ok(true) | Err(_) => return,
            }
        }
    }

    /// Accept TCP clients until shutdown, one thread per connection.
    /// The listener should already be bound; pair with `--port-file`
    /// so scripts learn the ephemeral port.
    ///
    /// A watcher thread dials the listener once shutdown begins, so an
    /// accept loop blocked with no incoming clients still wakes up and
    /// returns.
    pub fn serve_listener(&self, listener: &TcpListener) {
        if let Ok(addr) = listener.local_addr() {
            let server = self.clone();
            std::thread::spawn(move || {
                while !server.is_shutting_down() {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                let _ = TcpStream::connect(addr);
            });
        }
        for stream in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Replies are flushed whole, so there is nothing for Nagle's
            // algorithm to coalesce, only a delayed ACK to wait for.
            let _ = stream.set_nodelay(true);
            let server = self.clone();
            std::thread::spawn(move || {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let mut reader = io::BufReader::new(read_half);
                let mut writer = io::BufWriter::new(stream);
                server.serve_connection(&mut reader, &mut writer);
                let _ = writer.flush();
            });
            if self.is_shutting_down() {
                break;
            }
        }
    }

    /// Begin shutdown *and* wake a blocked [`Server::serve_listener`]
    /// accept loop by dialing it once.
    pub fn shutdown_listener(&self, addr: std::net::SocketAddr) {
        self.begin_shutdown();
        let _ = TcpStream::connect(addr);
    }

    fn emit_accepted(&self, verb: &'static str) {
        self.inner.metrics.requests(verb).inc();
        if self.inner.recorder.is_enabled() {
            self.inner
                .recorder
                .emit(0, "request_accepted", vec![("verb", Value::str(verb))]);
        }
    }

    fn reject(&self, code: &'static str) {
        self.inner.metrics.errors(code).inc();
        if self.inner.recorder.is_enabled() {
            self.inner
                .recorder
                .emit(0, "request_rejected", vec![("code", Value::str(code))]);
        }
    }

    fn job(&self, name: &str) -> Result<Arc<Job>, ProtoError> {
        self.inner
            .jobs()
            .by_name
            .get(name)
            .cloned()
            .ok_or_else(|| ProtoError::new(code::UNKNOWN_JOB, format!("no job named {name:?}")))
    }

    /// Handle one request line: write the response (and, for `stream`,
    /// the event frames before it). Returns whether a `shutdown` was
    /// acknowledged, which ends the connection.
    fn handle_line(
        &self,
        line: &str,
        used_ids: &mut RecentIds,
        writer: &mut impl Write,
    ) -> io::Result<bool> {
        let req = match protocol::parse_request(line) {
            Ok(req) => req,
            Err((id, err)) => {
                self.reject(err.code);
                return write_line(writer, &error_response(id.as_ref(), &err)).map(|()| false);
            }
        };
        if used_ids.contains(&req.id) {
            self.reject(code::DUPLICATE_ID);
            let err = ProtoError::new(
                code::DUPLICATE_ID,
                "request id already used on this connection",
            );
            return write_line(writer, &error_response(Some(&req.id), &err)).map(|()| false);
        }
        match self.dispatch(&req, writer) {
            Ok(shutdown_acked) => {
                used_ids.insert(req.id);
                Ok(shutdown_acked)
            }
            Err(Either::Proto(err)) => {
                self.reject(err.code);
                write_line(writer, &error_response(Some(&req.id), &err)).map(|()| false)
            }
            Err(Either::Io(e)) => Err(e),
        }
    }

    fn dispatch(&self, req: &Request, writer: &mut impl Write) -> Result<bool, Either> {
        match &req.action {
            Action::Submit(spec) => {
                if self.is_shutting_down() {
                    return Err(ProtoError::new(
                        code::SHUTTING_DOWN,
                        "daemon is shutting down; no new jobs",
                    )
                    .into());
                }
                // Bounded admission: claim a slot, undo on overflow.
                let claimed = self.inner.queued.fetch_add(1, Ordering::SeqCst) + 1;
                if claimed > self.inner.queue_cap {
                    self.inner.queued.fetch_sub(1, Ordering::SeqCst);
                    return Err(ProtoError::new(
                        code::QUEUE_FULL,
                        format!("{} jobs already queued", self.inner.queue_cap),
                    )
                    .into());
                }
                let n = self.inner.next_job.fetch_add(1, Ordering::SeqCst);
                let job = Job::new(format!("job-{n}"), spec.clone());
                job.set_enqueued_at(self.inner.metrics.clock.now_micros());
                self.inner
                    .jobs()
                    .by_name
                    .insert(job.name.clone(), Arc::clone(&job));
                self.emit_accepted("submit");
                job.emit_queued(&self.inner.recorder);
                let mut result = String::new();
                result.push_str("{\"job\":");
                write_json_string(&mut result, &job.name);
                result.push_str(",\"state\":\"queued\"}");
                self.inner.queue.push(job);
                write_line(writer, &ok_response(&req.id, &result))?;
                Ok(false)
            }
            Action::Status(name) => {
                let job = self.job(name)?;
                self.emit_accepted("status");
                write_line(writer, &ok_response(&req.id, &job.status_result()))?;
                Ok(false)
            }
            Action::Cancel(name) => {
                let job = self.job(name)?;
                job.cancel(&self.inner.recorder, || self.inner.retire(&job))
                    .map_err(|state| {
                        ProtoError::new(
                            code::BAD_REQUEST,
                            format!("cannot cancel {name}: job is {}", state.as_str()),
                        )
                    })?;
                self.emit_accepted("cancel");
                write_line(writer, &ok_response(&req.id, &job.status_result()))?;
                Ok(false)
            }
            Action::Stream(name) => {
                let job = self.job(name)?;
                self.emit_accepted("stream");
                let mut sent = 0usize;
                loop {
                    // Events and the closed flag are read under one
                    // lock, and nothing is logged after the close, so a
                    // closed read is the whole rest of the log.
                    let (events, closed) = job.log.wait_from(sent);
                    for ev in &events {
                        write_line(writer, &event_frame(&req.id, ev))?;
                    }
                    sent += events.len();
                    if closed {
                        break;
                    }
                    // A live follower sees each batch as it lands; a
                    // finished job's reply leaves whole at the
                    // connection loop's flush.
                    writer.flush()?;
                }
                let mut result = String::new();
                result.push_str("{\"job\":");
                write_json_string(&mut result, &job.name);
                result.push_str(",\"state\":");
                write_json_string(&mut result, job.state().as_str());
                use std::fmt::Write as _;
                let _ = write!(result, ",\"events\":{sent}}}");
                write_line(writer, &ok_response(&req.id, &result))?;
                Ok(false)
            }
            Action::Stats => {
                self.emit_accepted("stats");
                let snap = self.inner.metrics.registry.snapshot();
                write_line(writer, &ok_response(&req.id, &snap.to_json()))?;
                Ok(false)
            }
            Action::Subset(spec) => {
                // Synchronous like `stats`: the exhibit is a pure
                // function of the spec and sub-second on a warm cache.
                let result = crate::subset::run(spec)?;
                self.emit_accepted("subset");
                write_line(writer, &ok_response(&req.id, &result))?;
                Ok(false)
            }
            Action::Shutdown => {
                self.emit_accepted("shutdown");
                self.begin_shutdown();
                write_line(
                    writer,
                    &ok_response(&req.id, "{\"state\":\"shutting_down\"}"),
                )?;
                Ok(true)
            }
        }
    }
}

/// Either a protocol error (answered on the wire) or an I/O error
/// (connection is gone).
enum Either {
    Proto(ProtoError),
    Io(io::Error),
}

impl From<ProtoError> for Either {
    fn from(e: ProtoError) -> Self {
        Either::Proto(e)
    }
}

impl From<io::Error> for Either {
    fn from(e: io::Error) -> Self {
        Either::Io(e)
    }
}

impl Inner {
    fn jobs(&self) -> MutexGuard<'_, JobTable> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record that `job` is finishing (before its terminal state is
    /// visible), evicting the oldest finished job beyond
    /// [`MAX_FINISHED_JOBS`]. A `stream` already following an evicted
    /// job holds its own `Arc` and runs to the end.
    fn retire(&self, job: &Job) {
        let mut jobs = self.jobs();
        jobs.finished.push_back(job.name.clone());
        if jobs.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = jobs.finished.pop_front() {
                jobs.by_name.remove(&oldest);
            }
        }
    }
}

fn executor_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        inner.queued.fetch_sub(1, Ordering::SeqCst);
        if inner.shutdown.load(Ordering::SeqCst) {
            // Shutdown cancels whatever is still queued; `close()` lets
            // the queue drain, so every accepted job still reaches a
            // terminal state and streaming clients are released.
            let _ = job.cancel(&inner.recorder, || inner.retire(&job));
            continue;
        }
        if job.try_start() {
            // Queue wait ends the moment the executor claims the job;
            // service time brackets the characterization itself. Both
            // clocks are the injected one, so under a fake clock these
            // histograms are byte-reproducible.
            let started = inner.metrics.clock.now_micros();
            inner
                .metrics
                .queue_wait
                .observe(started.saturating_sub(job.enqueued_at()));
            job.run_and_retire(&inner.recorder, || inner.retire(&job));
            let finished = inner.metrics.clock.now_micros();
            inner
                .metrics
                .service_time
                .observe(finished.saturating_sub(started));
        }
    }
}

/// Buffer one reply line; the connection loop flushes.
fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

/// Outcome of one capped line read.
pub enum LineRead {
    /// `buf` holds a complete line (newline stripped).
    Line,
    /// Clean end of input before any byte of a new line.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`]; it was consumed through
    /// its newline (or EOF) so the stream stays framed.
    TooLong,
}

/// Read one newline-terminated line into `buf` (cleared first),
/// enforcing [`MAX_LINE_BYTES`]. A final unterminated line is returned
/// as a line (network peers half-close after their last request).
pub fn read_capped_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    buf.clear();
    let mut overflowed = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: whatever accumulated is the final (unterminated) line.
            return Ok(if overflowed {
                LineRead::TooLong
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (chunk.len(), false),
        };
        if !overflowed {
            let body = if done { take - 1 } else { take };
            if buf.len() + body > MAX_LINE_BYTES {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..body]);
            }
        }
        reader.consume(take);
        if done {
            return Ok(if overflowed {
                LineRead::TooLong
            } else {
                LineRead::Line
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(input: &[u8]) -> Vec<(Vec<u8>, bool)> {
        let mut reader = io::BufReader::with_capacity(7, input);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_capped_line(&mut reader, &mut buf).expect("memory reads cannot fail") {
                LineRead::Eof => return out,
                LineRead::Line => out.push((buf.clone(), false)),
                LineRead::TooLong => out.push((Vec::new(), true)),
            }
        }
    }

    #[test]
    fn capped_reader_frames_lines() {
        let got = read_all(b"alpha\nbeta\n\ngamma");
        assert_eq!(
            got,
            vec![
                (b"alpha".to_vec(), false),
                (b"beta".to_vec(), false),
                (Vec::new(), false),
                (b"gamma".to_vec(), false),
            ]
        );
    }

    #[test]
    fn oversized_line_is_consumed_not_buffered() {
        let mut input = vec![b'x'; MAX_LINE_BYTES + 10];
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        let got = read_all(&input);
        assert_eq!(got.len(), 2);
        assert!(got[0].1, "first line overflows");
        assert_eq!(got[1].0, b"after", "framing survives the overflow");
    }

    #[test]
    fn exactly_max_bytes_is_fine() {
        let mut input = vec![b'y'; MAX_LINE_BYTES];
        input.push(b'\n');
        let got = read_all(&input);
        assert_eq!(got.len(), 1);
        assert!(!got[0].1);
        assert_eq!(got[0].0.len(), MAX_LINE_BYTES);
    }

    /// Drive a scripted session against an in-process server over a
    /// plain byte buffer (no sockets): the same `serve_connection` the
    /// TCP and stdio paths use.
    fn session(server: &Server, input: &str) -> Vec<String> {
        let mut reader = io::BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        server.serve_connection(&mut reader, &mut out);
        String::from_utf8(out)
            .expect("responses are utf-8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn malformed_lines_get_errors_and_the_session_continues() {
        let server = Server::start(ServerConfig::default());
        let lines = session(
            &server,
            "garbage\n{\"id\":1,\"verb\":\"status\",\"job\":\"job-999\"}\n{\"id\":1,\"verb\":\"status\",\"job\":\"job-999\"}\n",
        );
        assert_eq!(lines.len(), 3, "every line answered: {lines:?}");
        assert!(lines[0].contains("\"parse_error\""));
        assert!(lines[1].contains("\"unknown_job\""));
        // Ids are only consumed by successful requests, so the retry
        // after an error reuses its id without a duplicate_id penalty.
        assert!(lines[2].contains("\"unknown_job\""));
        server.begin_shutdown();
        server.wait();
    }

    #[test]
    fn duplicate_ids_are_rejected_after_success() {
        let server = Server::start(ServerConfig::default());
        let submit =
            "{\"id\":\"same\",\"verb\":\"submit\",\"job\":{\"entries\":[\"Sort\"],\"seed\":501}}";
        let lines = session(&server, &format!("{submit}\n{submit}\n"));
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"duplicate_id\""));
        server.begin_shutdown();
        server.wait();
    }

    #[test]
    fn duplicate_ids_are_rejected_inside_the_window_and_forgotten_past_it() {
        let server = Server::start(ServerConfig::default());
        let submit =
            "{\"id\":\"first\",\"verb\":\"submit\",\"job\":{\"entries\":[\"Sort\"],\"seed\":502}}";
        let status = |id: &str| format!("{{\"id\":{id},\"verb\":\"status\",\"job\":\"job-1\"}}\n");
        // `first` plus MAX_REMEMBERED_IDS - 1 more successes: `first` is
        // the oldest id still inside the window.
        let mut input = format!("{submit}\n");
        for n in 1..MAX_REMEMBERED_IDS {
            input.push_str(&status(&n.to_string()));
        }
        input.push_str(&status("\"first\""));
        // One more success pushes `first` out; its reuse then succeeds.
        input.push_str(&status(&MAX_REMEMBERED_IDS.to_string()));
        input.push_str(&status("\"first\""));
        let lines = session(&server, &input);
        assert_eq!(lines.len(), MAX_REMEMBERED_IDS + 3, "every line answered");
        assert!(lines[..MAX_REMEMBERED_IDS]
            .iter()
            .all(|l| l.contains("\"ok\":true")));
        let inside = &lines[MAX_REMEMBERED_IDS];
        assert!(inside.contains("\"duplicate_id\""), "inside: {inside}");
        assert!(lines[MAX_REMEMBERED_IDS + 1].contains("\"ok\":true"));
        let outside = &lines[MAX_REMEMBERED_IDS + 2];
        assert!(
            outside.starts_with("{\"id\":\"first\",\"ok\":true"),
            "outside: {outside}"
        );
        server.begin_shutdown();
        server.wait();
    }

    #[test]
    fn queue_bound_rejects_and_recovers() {
        // One executor, queue of one: hold the executor on a job, fill
        // the single slot, and watch the third submission bounce.
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_cap: 1,
            ..ServerConfig::default()
        });
        let submit = |id: u32, seed: u64| {
            format!("{{\"id\":{id},\"verb\":\"submit\",\"job\":{{\"entries\":[\"Sort\"],\"seed\":{seed}}}}}\n")
        };
        // Three rapid submissions: the first is popped by the executor
        // (freeing its slot), so at most one rejection is guaranteed
        // only when the queue really is saturated; assert the shape,
        // not the timing.
        let lines = session(
            &server,
            &format!("{}{}{}", submit(1, 502), submit(2, 503), submit(3, 504)),
        );
        assert_eq!(lines.len(), 3);
        assert!(lines
            .iter()
            .all(|l| l.contains("\"ok\":true") || l.contains("\"queue_full\"")));
        server.begin_shutdown();
        server.wait();
    }

    #[test]
    fn stats_snapshots_the_injected_registry() {
        use dc_obs::metrics::FakeClock;
        let registry = Arc::new(Registry::new());
        let server = Server::start(ServerConfig {
            registry: Arc::clone(&registry),
            clock: Arc::new(FakeClock::at(0)),
            ..ServerConfig::default()
        });
        let lines = session(
            &server,
            "{\"id\":1,\"verb\":\"stats\"}\n{\"id\":2,\"verb\":\"nope\"}\n{\"id\":3,\"verb\":\"stats\"}\n",
        );
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[0].contains("{\"metrics\":["));
        // The snapshot carries the full pre-registered families, so the
        // first stats already shows itself counted and every verb
        // present (zeros included).
        assert!(lines[0]
            .contains("{\"name\":\"dc_server_requests_total\",\"labels\":{\"verb\":\"stats\"},\"type\":\"counter\",\"value\":1}"));
        assert!(lines[0]
            .contains("{\"name\":\"dc_server_requests_total\",\"labels\":{\"verb\":\"submit\"},\"type\":\"counter\",\"value\":0}"));
        assert!(lines[0].contains("\"name\":\"dc_server_queue_wait_us\""));
        assert!(lines[0].contains("\"name\":\"dc_server_service_time_us\""));
        // The unknown verb lands in the error-code family.
        assert!(lines[2]
            .contains("{\"name\":\"dc_server_errors_total\",\"labels\":{\"code\":\"unknown_verb\"},\"type\":\"counter\",\"value\":1}"));
        // Only daemon metrics live in the injected registry — none of
        // the process-global cache/pool families leak in.
        assert!(!lines[2].contains("dcbench_"));
        server.begin_shutdown();
        server.wait();
    }

    /// A writer that notes, at each flush, how many bytes were written
    /// so far.
    #[derive(Default)]
    struct FlushLog {
        bytes: Vec<u8>,
        flushes: Vec<usize>,
    }

    impl Write for FlushLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes.push(self.bytes.len());
            Ok(())
        }
    }

    #[test]
    fn every_request_line_is_answered_by_exactly_one_flush() {
        let server = Server::start(ServerConfig {
            registry: Arc::new(Registry::new()),
            ..ServerConfig::default()
        });
        // Run a three-entry job to its end first, so the scripted
        // `stream` replays a closed log of five events.
        let job = "{\"entries\":[\"Sort\",\"Grep\",\"K-means\"],\"seed\":920005}";
        let first = session(
            &server,
            &format!(
                "{{\"id\":1,\"verb\":\"submit\",\"job\":{job}}}\n\
                 {{\"id\":2,\"verb\":\"stream\",\"job\":\"job-1\"}}\n"
            ),
        );
        assert!(first[first.len() - 1].contains("\"events\":5"), "{first:?}");

        let script = [
            format!("{{\"id\":1,\"verb\":\"submit\",\"job\":{job}}}"),
            "{\"id\":2,\"verb\":\"status\",\"job\":\"job-1\"}".to_string(),
            "{\"id\":3,\"verb\":\"stream\",\"job\":\"job-1\"}".to_string(),
            "garbage".to_string(),
            "x".repeat(MAX_LINE_BYTES + 1),
            "{\"id\":4,\"verb\":\"stats\"}".to_string(),
        ];
        // Reply lines per request: the stream sends five frames and
        // its final reply.
        let replies = [1, 1, 6, 1, 1, 1];
        let input = script.join("\n") + "\n";
        let mut out = FlushLog::default();
        server.serve_connection(&mut io::BufReader::new(input.as_bytes()), &mut out);
        assert_eq!(
            out.flushes.len(),
            script.len(),
            "one flush per request line: {:?}",
            out.flushes
        );
        let mut lines = 0;
        for (&at, n) in out.flushes.iter().zip(replies) {
            lines += n;
            let flushed = &out.bytes[..at];
            assert!(flushed.ends_with(b"\n"), "a flush ends on a whole reply");
            assert_eq!(
                flushed.iter().filter(|&&b| b == b'\n').count(),
                lines,
                "every reply is complete at its own flush"
            );
        }
        assert_eq!(out.flushes.last(), Some(&out.bytes.len()));

        // The shutdown acknowledgement leaves in one flush too.
        let mut out = FlushLog::default();
        let shutdown = b"{\"id\":1,\"verb\":\"shutdown\"}\n";
        server.serve_connection(&mut io::BufReader::new(&shutdown[..]), &mut out);
        assert_eq!(out.flushes, vec![out.bytes.len()]);
        server.wait();
    }

    #[test]
    fn finished_jobs_beyond_the_bound_are_evicted_oldest_first() {
        use crate::protocol::{JobSpec, Window};
        let evicted = 76;
        let total = MAX_FINISHED_JOBS + evicted;
        let spec = JobSpec {
            entries: vec![dcbench::BenchmarkId::Sort],
            window: Window::Quick,
            seed: 920_006,
            corun: 1,
            sampled: false,
        };
        // Warm the memo outside the daemon so every job is a memo hit.
        let warm = Job::new("warm".into(), spec);
        assert!(warm.try_start());
        warm.run(&Recorder::disabled());

        // One executor pops the FIFO queue, so jobs finish in
        // submission order and `job-{total}` finishing means all did.
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_cap: total,
            registry: Arc::new(Registry::new()),
            ..ServerConfig::default()
        });
        let submits: String = (1..=total)
            .map(|i| {
                format!(
                    "{{\"id\":{i},\"verb\":\"submit\",\"job\":{{\"entries\":[\"Sort\"],\"seed\":920006}}}}\n"
                )
            })
            .collect();
        let accepted = session(&server, &submits);
        assert!(accepted.iter().all(|l| l.contains("\"ok\":true")));
        let status = |n: usize| {
            session(
                &server,
                &format!("{{\"id\":1,\"verb\":\"status\",\"job\":\"job-{n}\"}}\n"),
            )
            .remove(0)
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        while !status(total).contains("\"state\":\"done\"") {
            assert!(std::time::Instant::now() < deadline, "jobs never finished");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        for n in [1, evicted] {
            assert!(status(n).contains("\"unknown_job\""), "job-{n} is evicted");
        }
        for n in [evicted + 1, total] {
            assert!(status(n).contains("\"state\":\"done\""), "job-{n} is kept");
        }
        server.begin_shutdown();
        server.wait();
    }

    #[test]
    fn shutdown_acknowledges_cancels_queued_and_ends_the_connection() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_cap: 8,
            ..ServerConfig::default()
        });
        let lines = session(
            &server,
            "{\"id\":1,\"verb\":\"shutdown\"}\n{\"id\":2,\"verb\":\"status\",\"job\":\"job-1\"}\n",
        );
        assert_eq!(lines.len(), 1, "connection closes after shutdown ack");
        assert!(lines[0].contains("\"shutting_down\""));
        server.wait();
        // New submissions on a fresh connection are refused.
        let refused = session(
            &server,
            "{\"id\":1,\"verb\":\"submit\",\"job\":{\"entries\":[\"Sort\"]}}\n",
        );
        assert!(refused[0].contains("\"shutting_down\""));
    }
}
