//! Jobs: the unit of work behind `submit`, and the per-job event log
//! that `stream` replays and follows.
//!
//! A job owns a dedicated [`dc_obs::Recorder`] whose sink appends into
//! an [`EventLog`] — an append-only, closeable in-memory log that any
//! number of `stream` requests can replay from the start and then
//! follow live (a [`std::sync::Condvar`] wakes followers as events
//! land, and closing the log releases them for good). Because each job
//! gets its own recorder, the log's `seq` numbers are gapless from 0
//! and the whole stream passes the `dc-obs` schema check on its own.
//!
//! # Stream determinism
//!
//! A job answers the entries the memo already holds on the
//! executor thread itself, a sub-µs lookup each, and fans only the
//! misses out across [`dcbench::pool`] workers, whose interleaving of
//! cache telemetry would be nondeterministic. Every entry's events are
//! therefore captured privately (the executor's hits in one ring, each
//! miss in its own) and re-emitted into the job log **in entry order**
//! on the executor thread afterwards: the same spec yields the same
//! event sequence at any worker count and whichever path answered an
//! entry. The `simulations` figure in a finished job's status is
//! counted from those captured events (`cache_miss` + `sim_uncached`),
//! so it is exact per job even when other jobs run concurrently against
//! the same process-wide cache.

use crate::protocol::JobSpec;
use dc_cpu::CpuConfig;
use dc_obs::event::{push_f64, write_json_string};
use dc_obs::{Event, Recorder, Sink, Value};
use dc_perfmon::Metrics;
use dcbench::{pool, BenchmarkId, Characterizer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Per-entry telemetry ring capacity. An entry lookup emits at most two
/// events (`cache_miss` + `store_miss`); 16 leaves headroom for future
/// kinds without ever dropping.
const ENTRY_EVENT_CAP: usize = 16;

/// Characterize `entries` at co-run width `corun` under `base`: one
/// metric row per entry and the telemetry their lookups emitted, both
/// in entry order (see the module doc). The misses, possibly none, go
/// through [`pool::parallel_map`]; the hits never leave the calling
/// thread.
pub(crate) fn characterize(
    base: &Characterizer,
    entries: &[BenchmarkId],
    corun: usize,
) -> (Vec<Metrics>, Vec<Event>) {
    let (rec, ring) = Recorder::ring(ENTRY_EVENT_CAP);
    let inline = base.clone().with_recorder(rec);
    let mut answered: Vec<Option<(Metrics, Vec<Event>)>> = entries
        .iter()
        .map(|&id| inline.memoized(id, corun).map(|row| (row, ring.take())))
        .collect();
    let misses: Vec<(usize, BenchmarkId)> = entries
        .iter()
        .enumerate()
        .filter(|&(i, _)| answered[i].is_none())
        .map(|(i, &id)| (i, id))
        .collect();
    let computed = pool::parallel_map(misses, |_, (i, id)| {
        let (rec, ring) = Recorder::ring(ENTRY_EVENT_CAP);
        let c = base.clone().with_recorder(rec);
        let row = if corun == 1 {
            c.run(id)
        } else {
            c.corun(id, corun)
        };
        (i, row, ring.take())
    });
    for (i, row, events) in computed {
        answered[i] = Some((row, events));
    }
    let mut rows = Vec::with_capacity(entries.len());
    let mut events = Vec::new();
    for (row, evs) in answered
        .into_iter()
        .map(|a| a.expect("every entry hit or computed"))
    {
        rows.push(row);
        events.extend(evs);
    }
    (rows, events)
}

/// The simulations a run's captured telemetry records.
pub(crate) fn simulations(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| e.kind == "cache_miss" || e.kind == "sim_uncached")
        .count() as u64
}

fn relock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

struct LogState {
    events: Vec<Event>,
    closed: bool,
}

/// An append-only, closeable event log with blocking follow.
pub struct EventLog {
    state: Mutex<LogState>,
    grew: Condvar,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            state: Mutex::new(LogState {
                events: Vec::new(),
                closed: false,
            }),
            grew: Condvar::new(),
        }
    }
}

impl EventLog {
    fn push(&self, event: Event) {
        let mut st = relock(&self.state);
        debug_assert!(!st.closed, "no events after close");
        st.events.push(event);
        drop(st);
        self.grew.notify_all();
    }

    /// Close the log: no more events will arrive; followers drain what
    /// is left and stop.
    pub fn close(&self) {
        relock(&self.state).closed = true;
        self.grew.notify_all();
    }

    /// Copy of everything logged so far.
    pub fn snapshot(&self) -> Vec<Event> {
        relock(&self.state).events.clone()
    }

    /// Events from index `from` on, blocking while the log is open and
    /// has nothing new. Returns the new events plus whether the log is
    /// now closed; a closed, fully-drained log returns `(vec![], true)`
    /// immediately.
    pub fn wait_from(&self, from: usize) -> (Vec<Event>, bool) {
        let mut st = relock(&self.state);
        loop {
            if st.events.len() > from {
                return (st.events[from..].to_vec(), st.closed);
            }
            if st.closed {
                return (Vec::new(), true);
            }
            st = self.grew.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The sink wiring a job's recorder into its [`EventLog`].
struct LogSink(Arc<EventLog>);

impl Sink for LogSink {
    fn record(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
}

/// Where a job is in its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for an executor.
    Queued,
    /// An executor is characterizing it.
    Running,
    /// Finished; `output` is available.
    Done,
    /// Cancelled while queued (by a client or by shutdown).
    Cancelled,
    /// The characterization panicked; `error` says how.
    Failed,
}

impl JobState {
    /// The wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

struct JobStatus {
    state: JobState,
    simulations: u64,
    /// Rendered deterministic `output` JSON object, once done.
    output: Option<String>,
    /// Failure detail, once failed.
    error: Option<String>,
}

/// One submitted characterization job.
pub struct Job {
    /// Server-assigned name (`"job-N"`, N in submission order).
    pub name: String,
    /// The validated spec.
    pub spec: JobSpec,
    /// The job's event log (what `stream` replays).
    pub log: Arc<EventLog>,
    recorder: Recorder,
    status: Mutex<JobStatus>,
    /// Accept time on the server's injected clock (µs), stamped at
    /// submit so the executor can observe queue wait when it pops the
    /// job. Zero until stamped.
    enqueued_at_us: AtomicU64,
}

impl Job {
    /// A freshly accepted job in the `Queued` state.
    pub fn new(name: String, spec: JobSpec) -> Arc<Job> {
        let log = Arc::new(EventLog::default());
        let recorder = Recorder::with_sink(Box::new(LogSink(Arc::clone(&log))));
        Arc::new(Job {
            name,
            spec,
            log,
            recorder,
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                simulations: 0,
                output: None,
                error: None,
            }),
            enqueued_at_us: AtomicU64::new(0),
        })
    }

    /// Stamp the accept time (server clock, µs).
    pub fn set_enqueued_at(&self, t_us: u64) {
        self.enqueued_at_us.store(t_us, Ordering::Relaxed);
    }

    /// The accept time stamped by [`Job::set_enqueued_at`].
    pub fn enqueued_at(&self) -> u64 {
        self.enqueued_at_us.load(Ordering::Relaxed)
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        relock(&self.status).state
    }

    /// The `job_queued` event fields (shared by the job log and the
    /// server-wide recorder).
    fn queued_fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("job", Value::str(self.name.clone())),
            ("kind", Value::str("characterize")),
            ("entries", Value::U64(self.spec.entries.len() as u64)),
            ("window", Value::str(self.spec.window.as_str())),
            ("seed", Value::U64(self.spec.seed)),
            ("corun", Value::U64(u64::from(self.spec.corun))),
            ("sampled", Value::Bool(self.spec.sampled)),
        ]
    }

    /// Emit `job_queued` into the job's own log and `server_recorder`.
    /// Called exactly once, at accept time, so it is the log's first
    /// event.
    pub fn emit_queued(&self, server_recorder: &Recorder) {
        self.recorder.emit(0, "job_queued", self.queued_fields());
        if server_recorder.is_enabled() {
            server_recorder.emit(0, "job_queued", self.queued_fields());
        }
    }

    fn emit_done(&self, server_recorder: &Recorder, state: JobState, simulations: u64) {
        let fields = || {
            vec![
                ("job", Value::str(self.name.clone())),
                ("state", Value::str(state.as_str())),
                ("simulations", Value::U64(simulations)),
            ]
        };
        self.recorder.emit(0, "job_done", fields());
        if server_recorder.is_enabled() {
            server_recorder.emit(0, "job_done", fields());
        }
        self.log.close();
    }

    /// Cancel a queued job; `retire` runs before the `Cancelled` state
    /// is visible. Fails with the current state, calling nothing, if
    /// the job already started, finished, or was cancelled (running jobs are not torn
    /// down mid-simulation: the measurement layer is pure compute with
    /// no cancellation points, and a finished result feeds the shared
    /// cache anyway).
    pub fn cancel(
        &self,
        server_recorder: &Recorder,
        retire: impl FnOnce(),
    ) -> Result<(), JobState> {
        let st = relock(&self.status);
        if st.state != JobState::Queued {
            return Err(st.state);
        }
        self.conclude(st, JobState::Cancelled, retire, server_recorder);
        Ok(())
    }

    /// Executor-side claim: `Queued` → `Running`. False means the job
    /// was cancelled while waiting and must be skipped.
    pub fn try_start(&self) -> bool {
        let mut st = relock(&self.status);
        if st.state == JobState::Queued {
            st.state = JobState::Running;
            true
        } else {
            false
        }
    }

    /// Run a job no server tracks (nothing to retire) on the calling
    /// thread; see [`Job::try_start`].
    pub fn run(&self, server_recorder: &Recorder) {
        self.run_and_retire(server_recorder, || {});
    }

    /// Run the characterization on the calling (executor) thread;
    /// `retire` runs before the terminal state is visible. The
    /// caller must have claimed the job via [`Job::try_start`]. A panic
    /// anywhere in the measurement pipeline is caught and recorded as
    /// `Failed` — the daemon never dies with a job.
    pub(crate) fn run_and_retire(&self, server_recorder: &Recorder, retire: impl FnOnce()) {
        let spec = &self.spec;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let base = Characterizer::new(
                CpuConfig::westmere_e5645(),
                // Folds in the SMARTS plan when the job asked for it;
                // sampled runs memoize under their own cache key.
                spec.sim_options(),
                spec.seed,
            );
            characterize(&base, &spec.entries, spec.corun as usize)
        }));
        match outcome {
            Ok((rows, events)) => {
                let simulations = simulations(&events);
                for ev in events {
                    self.recorder.emit(ev.ts, ev.kind, ev.fields);
                }
                let output = render_output(spec, &rows);
                let mut st = relock(&self.status);
                st.simulations = simulations;
                st.output = Some(output);
                self.conclude(st, JobState::Done, retire, server_recorder);
            }
            Err(panic) => {
                let mut st = relock(&self.status);
                st.error = Some(panic_message(&panic));
                self.conclude(st, JobState::Failed, retire, server_recorder);
            }
        }
    }

    /// Enter the terminal `state`. `retire` runs first, under `st`'s
    /// status lock, so no `status` or `stream` reader sees the job
    /// finished before its retirement (and any eviction that causes)
    /// has happened. Lock order: a job's status, then the job table.
    fn conclude(
        &self,
        mut st: MutexGuard<'_, JobStatus>,
        state: JobState,
        retire: impl FnOnce(),
        server_recorder: &Recorder,
    ) {
        retire();
        st.state = state;
        let simulations = st.simulations;
        drop(st);
        self.emit_done(server_recorder, state, simulations);
    }

    /// Render the `status` result object. `simulations` and `output`
    /// appear once the job is done; `error` once it failed. `output` is
    /// the byte-deterministic part — the envelope around it names this
    /// process's history (submission order, cache warmth) on purpose.
    pub fn status_result(&self) -> String {
        let st = relock(&self.status);
        let mut out = String::with_capacity(64);
        out.push_str("{\"job\":");
        write_json_string(&mut out, &self.name);
        out.push_str(",\"state\":");
        write_json_string(&mut out, st.state.as_str());
        if st.state == JobState::Done {
            use std::fmt::Write;
            let _ = write!(out, ",\"simulations\":{}", st.simulations);
            if let Some(output) = &st.output {
                out.push_str(",\"output\":");
                out.push_str(output);
            }
        }
        if let Some(error) = &st.error {
            out.push_str(",\"error\":");
            write_json_string(&mut out, error);
        }
        out.push('}');
        out
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Render the deterministic `output` object for a finished job: the
/// spec echo plus one metric row per entry, in entry order. Every
/// float goes through [`push_f64`] (shortest-round-trip `Display`), so
/// the bytes are identical across processes, worker counts, and cache
/// temperature.
fn render_output(spec: &JobSpec, rows: &[Metrics]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(256 + spec.entries.len() * 256);
    out.push_str("{\"kind\":\"characterize\",\"entries\":[");
    for (i, id) in spec.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, id.name());
    }
    let _ = write!(
        out,
        "],\"window\":\"{}\",\"seed\":{},\"corun\":{},\"sampled\":{},\"rows\":[",
        spec.window.as_str(),
        spec.seed,
        spec.corun,
        spec.sampled
    );
    for (i, m) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(&mut out, &m.name);
        for (label, v) in [
            ("ipc", m.ipc),
            ("kernel_fraction", m.kernel_fraction),
            ("l1i_mpki", m.l1i_mpki),
            ("itlb_walk_pki", m.itlb_walk_pki),
            ("l2_mpki", m.l2_mpki),
            ("l3_mpki", m.l3_mpki),
            ("l3_hit_ratio", m.l3_hit_ratio),
            ("dtlb_walk_pki", m.dtlb_walk_pki),
            ("branch_misprediction", m.branch_misprediction),
        ] {
            let _ = write!(out, ",\"{label}\":");
            push_f64(&mut out, v);
        }
        out.push_str(",\"stall_breakdown\":[");
        for (j, s) in m.stall_breakdown.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f64(&mut out, *s);
        }
        let _ = write!(out, "],\"instructions\":{}}}", m.instructions);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Window;
    use dcbench::BenchmarkId;

    fn tiny_spec(entries: Vec<BenchmarkId>, seed: u64) -> JobSpec {
        JobSpec {
            entries,
            window: Window::Quick,
            seed,
            corun: 1,
            sampled: false,
        }
    }

    #[test]
    fn event_log_follows_and_drains_after_close() {
        let log = Arc::new(EventLog::default());
        let mut sink = LogSink(Arc::clone(&log));
        sink.record(&Event {
            seq: 0,
            ts: 0,
            kind: "a",
            fields: vec![],
        });
        let (events, closed) = log.wait_from(0);
        assert_eq!(events.len(), 1);
        assert!(!closed);
        // A follower blocked past the end wakes on close.
        let waiter = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.wait_from(1))
        };
        log.close();
        let (rest, closed) = waiter.join().expect("no panic");
        assert!(rest.is_empty());
        assert!(closed);
        assert_eq!(log.snapshot().len(), 1);
    }

    #[test]
    fn job_runs_to_done_with_deterministic_output() {
        // Seeds nothing else in the workspace uses, so both jobs start
        // cold in the shared process cache.
        let spec = tiny_spec(vec![BenchmarkId::Sort, BenchmarkId::Grep], 0x5EE071);
        let rec = Recorder::disabled();
        let a = Job::new("job-1".into(), spec.clone());
        assert!(a.try_start());
        a.run(&rec);
        assert_eq!(a.state(), JobState::Done);
        let b = Job::new("job-2".into(), spec);
        assert!(b.try_start());
        b.run(&rec);
        let extract = |s: &str| {
            let at = s.find("\"output\":").expect("output present");
            s[at + "\"output\":".len()..s.len() - 1].to_string()
        };
        assert_eq!(
            extract(&a.status_result()),
            extract(&b.status_result()),
            "same spec, byte-identical output"
        );
        // The warm job simulated nothing; the cold one simulated both
        // entries — visible in the envelope, invisible in the output.
        assert!(a.status_result().contains("\"simulations\":2"));
        assert!(b.status_result().contains("\"simulations\":0"));
    }

    #[test]
    fn sampled_jobs_run_to_done_with_their_own_output() {
        // Seed unique to this test so both jobs start cold.
        let mut spec = tiny_spec(vec![BenchmarkId::Sort], 0x5EE074);
        let rec = Recorder::disabled();
        let exact = Job::new("job-e".into(), spec.clone());
        assert!(exact.try_start());
        exact.run(&rec);
        spec.sampled = true;
        let sampled = Job::new("job-s".into(), spec);
        assert!(sampled.try_start());
        sampled.run(&rec);
        assert_eq!(sampled.state(), JobState::Done);
        let s = sampled.status_result();
        assert!(s.contains("\"sampled\":true"));
        // The sampled job re-simulated (its own cache key) and its
        // extrapolated rows differ from the exact ones.
        assert!(s.contains("\"simulations\":1"));
        assert_ne!(s, exact.status_result());
    }

    #[test]
    fn job_log_brackets_the_run_and_closes() {
        let spec = tiny_spec(vec![BenchmarkId::KMeans], 0x5EE072);
        let job = Job::new("job-9".into(), spec);
        let rec = Recorder::disabled();
        job.emit_queued(&rec);
        assert!(job.try_start());
        job.run(&rec);
        let events = job.log.snapshot();
        assert_eq!(events.first().map(|e| e.kind), Some("job_queued"));
        assert_eq!(events.last().map(|e| e.kind), Some("job_done"));
        assert!(events.iter().any(|e| e.kind == "cache_miss"));
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
        // Log is closed: a follower past the end returns immediately.
        assert_eq!(job.log.wait_from(events.len()), (vec![], true));
    }

    #[test]
    fn cancel_only_wins_while_queued() {
        let spec = tiny_spec(vec![BenchmarkId::Sort], 0x5EE073);
        let job = Job::new("job-3".into(), spec.clone());
        let rec = Recorder::disabled();
        assert!(job.cancel(&rec, || {}).is_ok());
        assert_eq!(job.state(), JobState::Cancelled);
        assert!(!job.try_start(), "cancelled jobs are skipped");
        assert_eq!(job.cancel(&rec, || {}), Err(JobState::Cancelled));
        assert!(job.status_result().contains("\"state\":\"cancelled\""));

        let running = Job::new("job-4".into(), spec);
        assert!(running.try_start());
        assert_eq!(running.cancel(&rec, || {}), Err(JobState::Running));
    }
}
