//! The local multi-threaded MapReduce engine.
//!
//! Executes real jobs through the full Hadoop-shaped dataflow:
//!
//! ```text
//! inputs → splits → [map task attempts] → partition → sort → combine → spill
//!        → shuffle → [reduce task attempts: merge → group → reduce] → output
//! ```
//!
//! Map and reduce tasks run on bounded worker pools (the paper's nodes
//! are configured with 24 map and 12 reduce slots), and every stage
//! accounts records and bytes into [`JobStats`] — those measured counters
//! are what the cluster model scales up from.
//!
//! # Fault tolerance
//!
//! Like the Hadoop 1.0.2 runtime the paper measured, execution is
//! organised around **task attempts**:
//!
//! * every attempt runs under [`std::panic::catch_unwind`], so a
//!   panicking mapper or reducer is contained to that attempt;
//! * failed attempts are retried with capped exponential backoff, up to
//!   [`JobConfig::max_attempts`] per task (Hadoop's
//!   `mapred.map.max.attempts`); an exhausted task fails the job with a
//!   [`JobError`] instead of panicking the process;
//! * straggler tasks trigger **speculative execution**: a duplicate
//!   attempt is launched, the first finisher's output is committed
//!   exactly once, and the loser is condemned and counted
//!   ([`JobStats::killed_attempts`]);
//! * a seeded [`FaultPlan`] can inject panics,
//!   slowdowns, and transient I/O errors per attempt —
//!   deterministically, for reproducible chaos runs (see
//!   [`JobConfig::faults`]).
//!
//! Attempt outputs are buffered privately and merged into the job in
//! task order only on first commit, so retries and speculation never
//! duplicate or reorder data: results are byte-identical to a
//! fault-free run.

use crate::bytes::ByteSize;
use crate::faults::{Fault, FaultPlan, TaskKind};
use crate::pool::SpmcQueue;
use dc_obs::{Recorder, Value};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Engine configuration (slot counts mirror Hadoop task slots), plus
/// the run's optional fault plan and timeline recorder.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Concurrent map tasks (Hadoop map slots).
    pub map_slots: usize,
    /// Concurrent reduce tasks (Hadoop reduce slots).
    pub reduce_slots: usize,
    /// Number of map tasks (input splits); 0 = `4 × map_slots`.
    pub map_tasks: usize,
    /// Number of reduce tasks (partitions); 0 = `reduce_slots`.
    pub reduce_tasks: usize,
    /// Attempts per task before the job fails (Hadoop's
    /// `mapred.map.max.attempts` / `mapred.reduce.max.attempts`).
    pub max_attempts: u32,
    /// Base delay before re-dispatching a failed attempt; doubles per
    /// failure of the same task.
    pub retry_backoff_ms: u64,
    /// Ceiling on the per-task retry backoff.
    pub retry_backoff_cap_ms: u64,
    /// Enable speculative execution of stragglers (Hadoop's
    /// `mapred.map.tasks.speculative.execution`).
    pub speculative: bool,
    /// A running attempt becomes a speculation candidate only after
    /// this long *and* after exceeding twice the mean committed-attempt
    /// duration. The default is far above local-test task times, so
    /// speculation engages only on genuine stragglers.
    pub speculative_lag_ms: u64,
    /// Deterministic fault-injection plan applied to every job run with
    /// this config: the engine consults it before every task attempt
    /// and applies the injected panic, slowdown, or transient error.
    /// `None` (the default) injects nothing.
    pub faults: Option<FaultPlan>,
    /// Where the job timeline goes (see [`run_job`] for the events).
    /// Disabled by default: a disabled recorder costs one branch per
    /// would-be event and changes no result or counter.
    pub recorder: Recorder,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            map_slots: 4,
            reduce_slots: 2,
            map_tasks: 0,
            reduce_tasks: 0,
            max_attempts: 4,
            retry_backoff_ms: 1,
            retry_backoff_cap_ms: 50,
            speculative: true,
            speculative_lag_ms: 400,
            faults: None,
            recorder: Recorder::disabled(),
        }
    }
}

impl JobConfig {
    fn effective_map_tasks(&self, inputs: usize) -> usize {
        let t = if self.map_tasks == 0 {
            self.map_slots.max(1) * 4
        } else {
            self.map_tasks
        };
        t.clamp(1, inputs.max(1))
    }

    fn effective_reduce_tasks(&self) -> usize {
        if self.reduce_tasks == 0 {
            self.reduce_slots.max(1)
        } else {
            self.reduce_tasks
        }
    }

    fn backoff_for(&self, failures: u32) -> Duration {
        let shift = failures.saturating_sub(1).min(16);
        let ms = self
            .retry_backoff_ms
            .saturating_mul(1u64 << shift)
            .min(self.retry_backoff_cap_ms);
        Duration::from_millis(ms)
    }
}

/// A job-fatal failure: some task exhausted all its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// One task failed `attempts` times and the job gave up on it.
    TaskExhausted {
        /// Phase of the failing task.
        kind: TaskKind,
        /// Task index within the phase.
        task: usize,
        /// Attempts consumed (== `JobConfig::max_attempts`).
        attempts: u32,
        /// Error text of the final failed attempt.
        last_error: String,
    },
    /// The engine lost its workers mid-phase (should not happen; kept
    /// so the scheduler never has to panic).
    Internal(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TaskExhausted {
                kind,
                task,
                attempts,
                last_error,
            } => write!(
                f,
                "{kind} task {task} failed {attempts} attempts; last error: {last_error}"
            ),
            JobError::Internal(msg) => write!(f, "engine internal error: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Measured counters for one job run (the Hadoop counter set the paper's
/// methodology relies on).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobStats {
    /// Input records consumed by map tasks.
    pub map_input_records: u64,
    /// Input bytes consumed by map tasks.
    pub map_input_bytes: u64,
    /// Records emitted by map functions.
    pub map_output_records: u64,
    /// Bytes emitted by map functions.
    pub map_output_bytes: u64,
    /// Records after the combiner (equals map output when no combiner).
    pub combine_output_records: u64,
    /// Bytes spilled to local disk by map tasks (post-combine).
    pub spilled_bytes: u64,
    /// Bytes moved in the shuffle.
    pub shuffle_bytes: u64,
    /// Records consumed by reduce tasks after the merge (Hadoop's
    /// "Reduce input records"): every shuffled record, counted once.
    pub reduce_input_records: u64,
    /// Bytes consumed by reduce tasks: key + value size of every merged
    /// record (keys of a group counted per record, unlike the grouped
    /// output accounting).
    pub reduce_input_bytes: u64,
    /// Records produced by reduce tasks.
    pub reduce_output_records: u64,
    /// Bytes produced by reduce tasks.
    pub reduce_output_bytes: u64,
    /// Wall-clock milliseconds in the map phase.
    pub map_ms: u64,
    /// Wall-clock milliseconds in the reduce phase (incl. shuffle).
    pub reduce_ms: u64,
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Reduce tasks executed.
    pub reduce_tasks: u64,
    /// Task attempts that failed (panic or transient error) and were
    /// retried or exhausted.
    pub failed_attempts: u64,
    /// Duplicate attempts launched against stragglers.
    pub speculative_attempts: u64,
    /// Attempts condemned because another attempt of the same task
    /// committed first.
    pub killed_attempts: u64,
    /// Input bytes of work whose attempt output was discarded (failed
    /// or killed attempts): the re-execution cost of fault tolerance.
    pub reexecuted_bytes: u64,
}

impl JobStats {
    /// Total wall-clock milliseconds.
    pub fn total_ms(&self) -> u64 {
        self.map_ms + self.reduce_ms
    }

    /// Total bytes written to local disk (spills + final output): the
    /// quantity behind Figure 5.
    pub fn disk_write_bytes(&self) -> u64 {
        self.spilled_bytes + self.reduce_output_bytes
    }

    /// This stats block with wall-clock timings zeroed: every counter
    /// that is a deterministic function of (inputs, config, fault
    /// plan). Two runs with the same seed compare equal on this.
    pub fn without_timings(&self) -> JobStats {
        JobStats {
            map_ms: 0,
            reduce_ms: 0,
            ..*self
        }
    }

    /// This stats block reduced to pure dataflow counters: timings and
    /// fault-recovery counters zeroed. A fault-injected run whose
    /// failures stay under `max_attempts` matches the fault-free run on
    /// this — the engine's exactly-once guarantee.
    pub fn data_counters(&self) -> JobStats {
        JobStats {
            map_ms: 0,
            reduce_ms: 0,
            failed_attempts: 0,
            speculative_attempts: 0,
            killed_attempts: 0,
            reexecuted_bytes: 0,
            ..*self
        }
    }

    /// Merge counters from consecutive jobs of an iterative algorithm.
    pub fn accumulate(&mut self, other: &JobStats) {
        self.map_input_records += other.map_input_records;
        self.map_input_bytes += other.map_input_bytes;
        self.map_output_records += other.map_output_records;
        self.map_output_bytes += other.map_output_bytes;
        self.combine_output_records += other.combine_output_records;
        self.spilled_bytes += other.spilled_bytes;
        self.shuffle_bytes += other.shuffle_bytes;
        self.reduce_input_records += other.reduce_input_records;
        self.reduce_input_bytes += other.reduce_input_bytes;
        self.reduce_output_records += other.reduce_output_records;
        self.reduce_output_bytes += other.reduce_output_bytes;
        self.map_ms += other.map_ms;
        self.reduce_ms += other.reduce_ms;
        self.map_tasks += other.map_tasks;
        self.reduce_tasks += other.reduce_tasks;
        self.failed_attempts += other.failed_attempts;
        self.speculative_attempts += other.speculative_attempts;
        self.killed_attempts += other.killed_attempts;
        self.reexecuted_bytes += other.reexecuted_bytes;
    }
}

/// Map-side combiner signature: fold a key's values into fewer values.
pub type Combiner<'a, K, V> = &'a (dyn Fn(&K, &[V]) -> Vec<V> + Sync);

fn partition_of<K: Hash>(key: &K, parts: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

/// One dispatched execution of one task.
#[derive(Debug, Clone, Copy)]
struct AttemptSpec {
    task: usize,
    attempt: u32,
}

/// What a worker reports back to the scheduler.
struct AttemptReport<T> {
    task: usize,
    attempt: u32,
    outcome: Result<T, String>,
}

/// Fault-recovery counters accumulated by one phase's scheduler.
#[derive(Debug, Clone, Copy, Default)]
struct FaultCounters {
    failed_attempts: u64,
    speculative_attempts: u64,
    killed_attempts: u64,
    reexecuted_bytes: u64,
}

/// Per-task scheduler bookkeeping.
struct TaskState {
    committed: bool,
    failures: u32,
    /// Attempt numbers currently dispatched and not yet reported.
    in_flight: Vec<u32>,
    next_attempt: u32,
    speculated: bool,
    dispatched_at: Instant,
    last_error: String,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked with a non-string payload".to_string()
    }
}

/// Run one attempt: consult the fault plan, contain panics.
fn execute_attempt<T, W>(
    kind: TaskKind,
    spec: AttemptSpec,
    faults: Option<&FaultPlan>,
    work: &W,
) -> Result<T, String>
where
    W: Fn(usize) -> T + Sync,
{
    let injected = faults.and_then(|plan| plan.fault_for(kind, spec.task, spec.attempt));
    if let Some(Fault::IoError) = injected {
        // A transient error path (failed spill / shuffle fetch): the
        // attempt fails cleanly, without unwinding.
        return Err(format!(
            "injected transient I/O error ({kind} task {} attempt {})",
            spec.task, spec.attempt
        ));
    }
    catch_unwind(AssertUnwindSafe(|| {
        match injected {
            Some(Fault::Panic) => panic!(
                "injected fault: {kind} task {} attempt {} panicked",
                spec.task, spec.attempt
            ),
            Some(Fault::SlowdownMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        work(spec.task)
    }))
    .map_err(|payload| panic_text(payload.as_ref()))
}

/// Execute `num_tasks` tasks of one phase on `slots` workers with
/// retries, backoff, and speculative execution. Returns committed
/// outputs in task order — exactly one per task.
///
/// Every attempt consults `cfg.faults`, and every attempt transition is
/// emitted through `cfg.recorder` as a span event (`attempt_start` /
/// `attempt_end` with an `outcome` field, plus `attempt_retry` and
/// `speculative_launch` markers). Timestamps are milliseconds since
/// `epoch` — job-relative wall-clock time, the one explicitly
/// non-deterministic domain in the stack.
fn run_phase<T, W>(
    kind: TaskKind,
    num_tasks: usize,
    slots: usize,
    cfg: &JobConfig,
    task_bytes: &[u64],
    epoch: Instant,
    work: W,
) -> Result<(Vec<T>, FaultCounters), JobError>
where
    T: Send,
    W: Fn(usize) -> T + Sync,
{
    if num_tasks == 0 {
        return Ok((Vec::new(), FaultCounters::default()));
    }

    let faults = cfg.faults.as_ref();
    let recorder = &cfg.recorder;
    let phase_name = match kind {
        TaskKind::Map => "map",
        TaskKind::Reduce => "reduce",
    };
    let now_ms = move || epoch.elapsed().as_millis() as u64;
    let attempt_event =
        |event_kind: &'static str, task: usize, attempt: u32, outcome: Option<&'static str>| {
            if !recorder.is_enabled() {
                return;
            }
            let mut fields = vec![
                ("phase", Value::str(phase_name)),
                ("task", Value::U64(task as u64)),
                ("attempt", Value::U64(u64::from(attempt))),
            ];
            if let Some(o) = outcome {
                fields.push(("outcome", Value::str(o)));
            }
            recorder.emit(now_ms(), event_kind, fields);
        };

    let queue = SpmcQueue::new();
    let (report_tx, report_rx) = mpsc::channel::<AttemptReport<T>>();

    let scope_result = std::thread::scope(|scope| {
        for _ in 0..slots.max(1).min(num_tasks) {
            let queue = &queue;
            let work = &work;
            let tx = report_tx.clone();
            scope.spawn(move || {
                while let Some(spec) = queue.pop() {
                    let outcome = execute_attempt(kind, spec, faults, work);
                    // The scheduler may have finished (e.g. a condemned
                    // speculative loser arriving late): drop silently.
                    if tx
                        .send(AttemptReport {
                            task: spec.task,
                            attempt: spec.attempt,
                            outcome,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
        drop(report_tx);

        // ---- Scheduler (runs on the caller thread) ----
        let mut tasks: Vec<TaskState> = (0..num_tasks)
            .map(|_| TaskState {
                committed: false,
                failures: 0,
                in_flight: Vec::new(),
                next_attempt: 0,
                speculated: false,
                dispatched_at: Instant::now(),
                last_error: String::new(),
            })
            .collect();
        let mut results: Vec<Option<T>> = (0..num_tasks).map(|_| None).collect();
        let mut counters = FaultCounters::default();
        let mut committed = 0usize;
        let mut retries: Vec<(Instant, AttemptSpec)> = Vec::new();
        let mut committed_ms: Vec<u64> = Vec::new();

        for (t, st) in tasks.iter_mut().enumerate() {
            st.dispatched_at = Instant::now();
            st.next_attempt = 1;
            st.in_flight.push(0);
            attempt_event("attempt_start", t, 0, None);
            queue.push(AttemptSpec {
                task: t,
                attempt: 0,
            });
        }

        let verdict = loop {
            if committed == num_tasks {
                break Ok(());
            }

            match report_rx.recv_timeout(Duration::from_millis(2)) {
                Ok(report) => {
                    let bytes = task_bytes.get(report.task).copied().unwrap_or(0);
                    let st = &mut tasks[report.task];
                    if let Some(p) = st.in_flight.iter().position(|a| *a == report.attempt) {
                        st.in_flight.swap_remove(p);
                    }
                    if st.committed {
                        // A condemned attempt finishing late; its kill
                        // was already accounted at commit time.
                        continue;
                    }
                    match report.outcome {
                        Ok(value) => {
                            results[report.task] = Some(value);
                            st.committed = true;
                            committed += 1;
                            committed_ms.push(st.dispatched_at.elapsed().as_millis() as u64);
                            attempt_event("attempt_end", report.task, report.attempt, Some("ok"));
                            // Condemn any attempt still in flight: its
                            // output will be discarded on arrival.
                            let condemned = std::mem::take(&mut st.in_flight);
                            counters.killed_attempts += condemned.len() as u64;
                            counters.reexecuted_bytes += bytes * condemned.len() as u64;
                            for a in condemned {
                                attempt_event("attempt_end", report.task, a, Some("killed"));
                            }
                        }
                        Err(message) => {
                            st.failures += 1;
                            st.last_error = message;
                            counters.failed_attempts += 1;
                            counters.reexecuted_bytes += bytes;
                            attempt_event(
                                "attempt_end",
                                report.task,
                                report.attempt,
                                Some("failed"),
                            );
                            if st.failures >= cfg.max_attempts {
                                break Err(JobError::TaskExhausted {
                                    kind,
                                    task: report.task,
                                    attempts: st.failures,
                                    last_error: std::mem::take(&mut st.last_error),
                                });
                            }
                            let backoff = cfg.backoff_for(st.failures);
                            let ready_at = Instant::now() + backoff;
                            let attempt = st.next_attempt;
                            st.next_attempt += 1;
                            if recorder.is_enabled() {
                                recorder.emit(
                                    now_ms(),
                                    "attempt_retry",
                                    vec![
                                        ("phase", Value::str(phase_name)),
                                        ("task", Value::U64(report.task as u64)),
                                        ("attempt", Value::U64(u64::from(attempt))),
                                        ("backoff_ms", Value::U64(backoff.as_millis() as u64)),
                                    ],
                                );
                            }
                            retries.push((
                                ready_at,
                                AttemptSpec {
                                    task: report.task,
                                    attempt,
                                },
                            ));
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break Err(JobError::Internal(
                        "all workers exited before the phase completed".into(),
                    ));
                }
            }

            // Dispatch retries whose backoff has elapsed.
            let now = Instant::now();
            let mut i = 0;
            while i < retries.len() {
                if retries[i].0 <= now {
                    let (_, spec) = retries.swap_remove(i);
                    let st = &mut tasks[spec.task];
                    st.in_flight.push(spec.attempt);
                    st.dispatched_at = now;
                    attempt_event("attempt_start", spec.task, spec.attempt, None);
                    queue.push(spec);
                } else {
                    i += 1;
                }
            }

            // Hadoop-style speculation: duplicate a straggler when it
            // has run well past the mean committed-attempt duration.
            if cfg.speculative && !committed_ms.is_empty() {
                let mean_ms = committed_ms.iter().sum::<u64>() / committed_ms.len() as u64;
                for (t, st) in tasks.iter_mut().enumerate() {
                    if st.committed || st.speculated || st.in_flight.len() != 1 {
                        continue;
                    }
                    let elapsed = st.dispatched_at.elapsed().as_millis() as u64;
                    if elapsed >= cfg.speculative_lag_ms && elapsed > 2 * mean_ms {
                        let attempt = st.next_attempt;
                        st.next_attempt += 1;
                        st.in_flight.push(attempt);
                        st.speculated = true;
                        counters.speculative_attempts += 1;
                        attempt_event("speculative_launch", t, attempt, None);
                        attempt_event("attempt_start", t, attempt, None);
                        queue.push(AttemptSpec { task: t, attempt });
                    }
                }
            }
        };

        queue.close();
        verdict.map(|()| (results, counters))
    });

    let (results, counters) = scope_result?;
    let mut out = Vec::with_capacity(num_tasks);
    for slot in results {
        match slot {
            Some(v) => out.push(v),
            None => {
                return Err(JobError::Internal(
                    "phase completed with an uncommitted task".into(),
                ))
            }
        }
    }
    Ok((out, counters))
}

/// Private per-attempt output of one map task.
struct MapTaskOut<K, V> {
    runs: Vec<Vec<(K, V)>>,
    records_in: u64,
    bytes_in: u64,
    records_out: u64,
    bytes_out: u64,
    combine_records: u64,
    spill_bytes: u64,
}

/// Private per-attempt output of one reduce task.
struct ReduceTaskOut<O> {
    out: Vec<O>,
    records_in: u64,
    bytes_in: u64,
    records_out: u64,
    bytes_out: u64,
}

/// Run one MapReduce job on the local engine. See the crate docs for an
/// end-to-end example.
///
/// * `mapper` is called once per input record with an `emit` sink;
/// * `combiner`, when present, runs per map task on each sorted
///   key-group before the shuffle (Hadoop's map-side combine);
/// * `reducer` is called once per key with all its values.
///
/// Returns the reduce outputs (ordered by reduce partition, stable
/// across retries and speculation) and the job's measured [`JobStats`],
/// or a [`JobError`] if some task failed [`JobConfig::max_attempts`]
/// times. A plan in [`JobConfig::faults`] is applied to every task
/// attempt; recovery still delivers the fault-free output.
///
/// When [`JobConfig::recorder`] is enabled, the engine emits:
///
/// * `job_start` / `job_summary` (or `job_failed`) bracketing the run —
///   the summary carries the full counter set of the returned
///   [`JobStats`];
/// * `attempt_start` / `attempt_end` span pairs per task attempt, with
///   lane fields `phase`/`task`/`attempt` and an `outcome` on the end
///   event (`"ok"`, `"failed"`, `"killed"`) — exactly the shape
///   `dc_obs::gantt` renders by default;
/// * `attempt_retry` and `speculative_launch` markers for the
///   fault-tolerance machinery.
///
/// Event timestamps are **job-relative wall-clock milliseconds**: real
/// scheduling time of a real multi-threaded run, and therefore the one
/// event stream in the stack that is *not* deterministic across runs
/// (event kinds and counts are; timestamps and interleavings are not).
pub fn run_job<I, K, V, O, M, R>(
    inputs: Vec<I>,
    cfg: &JobConfig,
    mapper: M,
    combiner: Option<Combiner<K, V>>,
    reducer: R,
) -> Result<(Vec<O>, JobStats), JobError>
where
    I: Clone + Send + Sync + ByteSize,
    K: Ord + Hash + Clone + Send + Sync + ByteSize,
    V: Clone + Send + Sync + ByteSize,
    O: Send,
    M: Fn(I, &mut dyn FnMut(K, V)) + Sync,
    R: Fn(&K, &[V]) -> Vec<O> + Sync,
{
    let epoch = Instant::now();
    let result = run_job_inner(inputs, cfg, epoch, mapper, combiner, reducer);
    if let Err(e) = &result {
        if cfg.recorder.is_enabled() {
            cfg.recorder.emit(
                epoch.elapsed().as_millis() as u64,
                "job_failed",
                vec![("error", Value::str(e.to_string()))],
            );
        }
    }
    result
}

fn run_job_inner<I, K, V, O, M, R>(
    inputs: Vec<I>,
    cfg: &JobConfig,
    epoch: Instant,
    mapper: M,
    combiner: Option<Combiner<K, V>>,
    reducer: R,
) -> Result<(Vec<O>, JobStats), JobError>
where
    I: Clone + Send + Sync + ByteSize,
    K: Ord + Hash + Clone + Send + Sync + ByteSize,
    V: Clone + Send + Sync + ByteSize,
    O: Send,
    M: Fn(I, &mut dyn FnMut(K, V)) + Sync,
    R: Fn(&K, &[V]) -> Vec<O> + Sync,
{
    let recorder = &cfg.recorder;
    let num_map_tasks = cfg.effective_map_tasks(inputs.len());
    let num_reduce_tasks = cfg.effective_reduce_tasks();

    // ---- Split ----
    let mut splits: Vec<Vec<I>> = (0..num_map_tasks).map(|_| Vec::new()).collect();
    for (i, item) in inputs.into_iter().enumerate() {
        splits[i % num_map_tasks].push(item);
    }
    let map_bytes: Vec<u64> = splits
        .iter()
        .map(|s| s.iter().map(|i| i.byte_size() as u64).sum())
        .collect();

    if recorder.is_enabled() {
        recorder.emit(
            0,
            "job_start",
            vec![
                ("map_tasks", Value::U64(num_map_tasks as u64)),
                ("reduce_tasks", Value::U64(num_reduce_tasks as u64)),
                (
                    "input_bytes",
                    Value::U64(map_bytes.iter().copied().sum::<u64>()),
                ),
                ("speculative", Value::Bool(cfg.speculative)),
            ],
        );
    }

    // ---- Map phase (attempts, retries, speculation) ----
    let map_start = Instant::now();
    let splits_ref = &splits;
    let mapper_ref = &mapper;
    let (map_outs, map_faults) = run_phase(
        TaskKind::Map,
        num_map_tasks,
        cfg.map_slots.max(1),
        cfg,
        &map_bytes,
        epoch,
        move |t| {
            let mut parts: Vec<Vec<(K, V)>> = (0..num_reduce_tasks).map(|_| Vec::new()).collect();
            let mut records_in = 0u64;
            let mut bytes_in = 0u64;
            let mut records_out = 0u64;
            let mut bytes_out = 0u64;
            for item in splits_ref[t].iter().cloned() {
                records_in += 1;
                bytes_in += item.byte_size() as u64;
                let mut emit = |k: K, v: V| {
                    records_out += 1;
                    bytes_out += (k.byte_size() + v.byte_size()) as u64;
                    parts[partition_of(&k, num_reduce_tasks)].push((k, v));
                };
                mapper_ref(item, &mut emit);
            }
            // Sort, combine, spill each partition run.
            let mut combine_records = 0u64;
            let mut spill_bytes = 0u64;
            let mut runs: Vec<Vec<(K, V)>> = Vec::with_capacity(num_reduce_tasks);
            for mut run in parts {
                if !run.is_empty() {
                    run.sort_by(|a, b| a.0.cmp(&b.0));
                    if let Some(comb) = combiner {
                        run = combine_sorted(run, comb);
                    }
                    combine_records += run.len() as u64;
                    spill_bytes += run.iter().map(|kv| kv.byte_size() as u64).sum::<u64>();
                }
                runs.push(run);
            }
            MapTaskOut {
                runs,
                records_in,
                bytes_in,
                records_out,
                bytes_out,
                combine_records,
                spill_bytes,
            }
        },
    )?;
    let map_ms = map_start.elapsed().as_millis() as u64;

    // ---- Commit map outputs (exactly once, in task order) ----
    let mut stats = JobStats {
        map_tasks: num_map_tasks as u64,
        reduce_tasks: num_reduce_tasks as u64,
        map_ms,
        ..JobStats::default()
    };
    let mut staged: Vec<Vec<Vec<(K, V)>>> = (0..num_reduce_tasks).map(|_| Vec::new()).collect();
    for task_out in map_outs {
        stats.map_input_records += task_out.records_in;
        stats.map_input_bytes += task_out.bytes_in;
        stats.map_output_records += task_out.records_out;
        stats.map_output_bytes += task_out.bytes_out;
        stats.combine_output_records += task_out.combine_records;
        stats.spilled_bytes += task_out.spill_bytes;
        for (r, run) in task_out.runs.into_iter().enumerate() {
            if !run.is_empty() {
                staged[r].push(run);
            }
        }
    }
    stats.shuffle_bytes = stats.spilled_bytes;

    // ---- Shuffle + reduce phase ----
    let reduce_start = Instant::now();
    let reduce_bytes: Vec<u64> = staged
        .iter()
        .map(|runs| runs.iter().flatten().map(|kv| kv.byte_size() as u64).sum())
        .collect();
    let staged_ref = &staged;
    let reducer_ref = &reducer;
    let (reduce_outs, reduce_faults) = run_phase(
        TaskKind::Reduce,
        num_reduce_tasks,
        cfg.reduce_slots.max(1),
        cfg,
        &reduce_bytes,
        epoch,
        move |r| {
            // Merge: concatenate sorted runs and re-sort (k-way merge is
            // equivalent here; the engine is not the bottleneck we study).
            let mut all: Vec<(K, V)> = staged_ref[r].iter().flatten().cloned().collect();
            all.sort_by(|a, b| a.0.cmp(&b.0));
            // Reduce input: every merged record, key counted per record.
            let records_in = all.len() as u64;
            let bytes_in = all.iter().map(|kv| kv.byte_size() as u64).sum::<u64>();
            let mut out = Vec::new();
            let mut records_out = 0u64;
            let mut bytes_out = 0u64;
            let mut i = 0;
            while i < all.len() {
                let mut j = i + 1;
                while j < all.len() && all[j].0 == all[i].0 {
                    j += 1;
                }
                let values: Vec<V> = all[i..j].iter().map(|kv| kv.1.clone()).collect();
                for o in reducer_ref(&all[i].0, &values) {
                    records_out += 1;
                    out.push(o);
                }
                // Output bytes: values consumed plus one key per group
                // (the engine's proxy for emitted volume; `O` carries no
                // byte-size bound).
                bytes_out += all[i..j]
                    .iter()
                    .map(|kv| kv.1.byte_size() as u64)
                    .sum::<u64>()
                    + all[i].0.byte_size() as u64;
                i = j;
            }
            ReduceTaskOut {
                out,
                records_in,
                bytes_in,
                records_out,
                bytes_out,
            }
        },
    )?;
    stats.reduce_ms = reduce_start.elapsed().as_millis() as u64;

    // ---- Commit reduce outputs (partition order) ----
    let mut outputs = Vec::new();
    for task_out in reduce_outs {
        stats.reduce_input_records += task_out.records_in;
        stats.reduce_input_bytes += task_out.bytes_in;
        stats.reduce_output_records += task_out.records_out;
        stats.reduce_output_bytes += task_out.bytes_out;
        outputs.extend(task_out.out);
    }

    stats.failed_attempts = map_faults.failed_attempts + reduce_faults.failed_attempts;
    stats.speculative_attempts =
        map_faults.speculative_attempts + reduce_faults.speculative_attempts;
    stats.killed_attempts = map_faults.killed_attempts + reduce_faults.killed_attempts;
    stats.reexecuted_bytes = map_faults.reexecuted_bytes + reduce_faults.reexecuted_bytes;

    if recorder.is_enabled() {
        recorder.emit(
            epoch.elapsed().as_millis() as u64,
            "job_summary",
            vec![
                ("map_input_records", Value::U64(stats.map_input_records)),
                ("map_output_records", Value::U64(stats.map_output_records)),
                ("shuffle_bytes", Value::U64(stats.shuffle_bytes)),
                (
                    "reduce_input_records",
                    Value::U64(stats.reduce_input_records),
                ),
                ("reduce_input_bytes", Value::U64(stats.reduce_input_bytes)),
                (
                    "reduce_output_records",
                    Value::U64(stats.reduce_output_records),
                ),
                ("failed_attempts", Value::U64(stats.failed_attempts)),
                (
                    "speculative_attempts",
                    Value::U64(stats.speculative_attempts),
                ),
                ("killed_attempts", Value::U64(stats.killed_attempts)),
                ("reexecuted_bytes", Value::U64(stats.reexecuted_bytes)),
                ("map_ms", Value::U64(stats.map_ms)),
                ("reduce_ms", Value::U64(stats.reduce_ms)),
            ],
        );
    }

    Ok((outputs, stats))
}

/// Apply a combiner over a key-sorted run.
fn combine_sorted<K: Ord + Clone, V: Clone>(
    run: Vec<(K, V)>,
    comb: &(dyn Fn(&K, &[V]) -> Vec<V> + Sync),
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(run.len() / 2 + 1);
    let mut i = 0;
    while i < run.len() {
        let mut j = i + 1;
        while j < run.len() && run[j].0 == run[i].0 {
            j += 1;
        }
        let values: Vec<V> = run[i..j].iter().map(|kv| kv.1.clone()).collect();
        for v in comb(&run[i].0, &values) {
            out.push((run[i].0.clone(), v));
        }
        i = j;
    }
    out
}

#[cfg(test)]
// Tests tweak one or two fields of a default `JobConfig`; sequential
// mutation reads better than struct-update syntax at eleven sites.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::faults::{ChaosSpec, Fault, FaultPlan, TaskKind};

    fn wordcount(
        lines: Vec<String>,
        cfg: &JobConfig,
        with_combiner: bool,
    ) -> (Vec<(String, u64)>, JobStats) {
        try_wordcount(lines, cfg, with_combiner).expect("job succeeds")
    }

    fn try_wordcount(
        lines: Vec<String>,
        cfg: &JobConfig,
        with_combiner: bool,
    ) -> Result<(Vec<(String, u64)>, JobStats), JobError> {
        let comb: &(dyn Fn(&String, &[u64]) -> Vec<u64> + Sync) =
            &|_k, vs| vec![vs.iter().sum::<u64>()];
        run_job(
            lines,
            cfg,
            |line: String, emit: &mut dyn FnMut(String, u64)| {
                for w in line.split_whitespace() {
                    emit(w.to_string(), 1);
                }
            },
            with_combiner.then_some(comb),
            |k: &String, vs: &[u64]| vec![(k.clone(), vs.iter().sum::<u64>())],
        )
    }

    #[test]
    fn wordcount_is_correct() {
        let lines = vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the quick dog".to_string(),
        ];
        let (mut out, stats) = wordcount(lines, &JobConfig::default(), true);
        out.sort();
        let the = out.iter().find(|(w, _)| w == "the").expect("word");
        assert_eq!(the.1, 3);
        let quick = out.iter().find(|(w, _)| w == "quick").expect("word");
        assert_eq!(quick.1, 2);
        assert_eq!(stats.map_input_records, 3);
        assert_eq!(stats.map_output_records, 10);
        assert_eq!(stats.reduce_output_records, out.len() as u64);
        assert_eq!(stats.failed_attempts, 0);
        assert_eq!(stats.reexecuted_bytes, 0);
    }

    #[test]
    fn combiner_shrinks_shuffle() {
        let lines: Vec<String> = (0..200)
            .map(|i| format!("w{} w{} common", i % 5, i % 7))
            .collect();
        let (_, with) = wordcount(lines.clone(), &JobConfig::default(), true);
        let (_, without) = wordcount(lines, &JobConfig::default(), false);
        assert!(with.shuffle_bytes < without.shuffle_bytes / 2);
        assert!(with.combine_output_records < without.combine_output_records);
    }

    #[test]
    fn results_stable_across_slot_counts() {
        let lines: Vec<String> = (0..500).map(|i| format!("k{} v", i % 37)).collect();
        let mut cfg1 = JobConfig::default();
        cfg1.map_slots = 1;
        cfg1.reduce_slots = 1;
        let mut cfg8 = JobConfig::default();
        cfg8.map_slots = 8;
        cfg8.reduce_slots = 4;
        let (mut a, _) = wordcount(lines.clone(), &cfg1, true);
        let (mut b, _) = wordcount(lines, &cfg8, true);
        a.sort();
        b.sort();
        assert_eq!(a, b, "parallelism must not change results");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, stats) = wordcount(Vec::new(), &JobConfig::default(), true);
        assert!(out.is_empty());
        assert_eq!(stats.map_input_records, 0);
        assert_eq!(stats.reduce_output_records, 0);
    }

    #[test]
    fn sort_job_orders_within_partition() {
        // Identity map with a single reduce task = total ordering.
        let mut cfg = JobConfig::default();
        cfg.reduce_tasks = 1;
        let nums: Vec<u64> = vec![5, 3, 9, 1, 7, 1];
        let (out, _) = run_job(
            nums,
            &cfg,
            |n: u64, emit: &mut dyn FnMut(u64, u64)| emit(n, n),
            None,
            |k: &u64, vs: &[u64]| vs.iter().map(|_| *k).collect(),
        )
        .expect("job succeeds");
        assert_eq!(out, vec![1, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn stats_accumulate_for_iterative_jobs() {
        let mut total = JobStats::default();
        let (_, s1) = wordcount(vec!["a b".into()], &JobConfig::default(), false);
        let (_, s2) = wordcount(vec!["c d e".into()], &JobConfig::default(), false);
        total.accumulate(&s1);
        total.accumulate(&s2);
        assert_eq!(total.map_input_records, 2);
        assert_eq!(total.map_output_records, 5);
        assert_eq!(total.map_tasks, s1.map_tasks + s2.map_tasks);
    }

    /// Every field of `JobStats`, written as a full literal so this test
    /// fails to compile when a field is added, then checked against
    /// `accumulate` — a field forgotten there would halve silently.
    #[test]
    fn accumulate_sums_every_field() {
        let unit = JobStats {
            map_input_records: 1,
            map_input_bytes: 2,
            map_output_records: 3,
            map_output_bytes: 4,
            combine_output_records: 5,
            spilled_bytes: 6,
            shuffle_bytes: 7,
            reduce_input_records: 8,
            reduce_input_bytes: 9,
            reduce_output_records: 10,
            reduce_output_bytes: 11,
            map_ms: 12,
            reduce_ms: 13,
            map_tasks: 14,
            reduce_tasks: 15,
            failed_attempts: 16,
            speculative_attempts: 17,
            killed_attempts: 18,
            reexecuted_bytes: 19,
        };
        let mut doubled = unit;
        doubled.accumulate(&unit);
        let expected = JobStats {
            map_input_records: 2,
            map_input_bytes: 4,
            map_output_records: 6,
            map_output_bytes: 8,
            combine_output_records: 10,
            spilled_bytes: 12,
            shuffle_bytes: 14,
            reduce_input_records: 16,
            reduce_input_bytes: 18,
            reduce_output_records: 20,
            reduce_output_bytes: 22,
            map_ms: 24,
            reduce_ms: 26,
            map_tasks: 28,
            reduce_tasks: 30,
            failed_attempts: 32,
            speculative_attempts: 34,
            killed_attempts: 36,
            reexecuted_bytes: 38,
        };
        assert_eq!(doubled, expected);
    }

    #[test]
    fn disk_write_bytes_counts_spills_and_output() {
        let (_, s) = wordcount(vec!["x y z".into()], &JobConfig::default(), false);
        assert_eq!(
            s.disk_write_bytes(),
            s.spilled_bytes + s.reduce_output_bytes
        );
        assert!(s.disk_write_bytes() > 0);
    }

    /// Reduce-side input accounting: without a combiner every map
    /// output record crosses the shuffle and is consumed exactly once;
    /// with a combiner the reducers consume the combined records, and
    /// the consumed bytes equal the shuffled bytes either way.
    #[test]
    fn reduce_input_counts_the_merged_shuffle() {
        let lines: Vec<String> = (0..120)
            .map(|i| format!("w{} w{} tok", i % 3, i % 9))
            .collect();
        let (_, plain) = wordcount(lines.clone(), &JobConfig::default(), false);
        assert_eq!(plain.reduce_input_records, plain.map_output_records);
        assert_eq!(plain.reduce_input_bytes, plain.shuffle_bytes);
        assert!(plain.reduce_input_records > plain.reduce_output_records);

        let (_, combined) = wordcount(lines, &JobConfig::default(), true);
        assert_eq!(
            combined.reduce_input_records,
            combined.combine_output_records
        );
        assert_eq!(combined.reduce_input_bytes, combined.shuffle_bytes);
        assert!(combined.reduce_input_records < plain.reduce_input_records);
    }

    // ---- Fault tolerance ----

    /// `cfg` with `plan` as its fault plan.
    fn with_plan(cfg: &JobConfig, plan: FaultPlan) -> JobConfig {
        JobConfig {
            faults: Some(plan),
            ..cfg.clone()
        }
    }

    fn acceptance_lines() -> Vec<String> {
        (0..64)
            .map(|i| format!("alpha beta w{} w{}", i % 7, i % 11))
            .collect()
    }

    /// The issue's acceptance scenario: first-attempt panics in two map
    /// tasks and one reduce task. The job completes, output matches the
    /// fault-free run, `failed_attempts == 3`, and the same seed gives
    /// identical (timing-free) stats across runs.
    #[test]
    fn injected_panics_recover_with_identical_output() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 4;
        cfg.reduce_tasks = 2;
        let plan = FaultPlan::new(0xFA17)
            .with_fault(TaskKind::Map, 0, 0, Fault::Panic)
            .with_fault(TaskKind::Map, 1, 0, Fault::Panic)
            .with_fault(TaskKind::Reduce, 0, 0, Fault::Panic);
        let faulted = with_plan(&cfg, plan);

        let (mut clean_out, clean_stats) = wordcount(acceptance_lines(), &cfg, true);
        let (mut out_a, stats_a) = try_wordcount(acceptance_lines(), &faulted, true)
            .expect("job recovers from injected panics");
        let (mut out_b, stats_b) = try_wordcount(acceptance_lines(), &faulted, true)
            .expect("job recovers from injected panics");

        clean_out.sort();
        out_a.sort();
        out_b.sort();
        assert_eq!(out_a, clean_out, "recovered output must match fault-free");
        assert_eq!(out_b, clean_out);
        assert_eq!(stats_a.failed_attempts, 3);
        assert!(stats_a.reexecuted_bytes > 0);
        assert_eq!(
            stats_a.without_timings(),
            stats_b.without_timings(),
            "same seed must reproduce identical stats"
        );
        assert_eq!(
            stats_a.data_counters(),
            clean_stats.data_counters(),
            "exactly-once: dataflow counters unchanged by faults"
        );
    }

    #[test]
    fn exhausted_attempts_fail_the_job_cleanly() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 2;
        let mut plan = FaultPlan::new(1);
        for attempt in 0..cfg.max_attempts {
            plan = plan.with_fault(TaskKind::Map, 1, attempt, Fault::Panic);
        }
        let faulted = with_plan(&cfg, plan);
        let err = try_wordcount(acceptance_lines(), &faulted, true)
            .expect_err("task must exhaust its attempts");
        match err {
            JobError::TaskExhausted {
                kind,
                task,
                attempts,
                ..
            } => {
                assert_eq!(kind, TaskKind::Map);
                assert_eq!(task, 1);
                assert_eq!(attempts, cfg.max_attempts);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn transient_io_errors_retry_without_unwinding() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 3;
        cfg.reduce_tasks = 2;
        let plan = FaultPlan::new(2)
            .with_fault(TaskKind::Map, 2, 0, Fault::IoError)
            .with_fault(TaskKind::Reduce, 1, 0, Fault::IoError);
        let faulted = with_plan(&cfg, plan);
        let (mut out, stats) = try_wordcount(acceptance_lines(), &faulted, true)
            .expect("transient errors must be retried");
        let (mut clean, _) = wordcount(acceptance_lines(), &cfg, true);
        out.sort();
        clean.sort();
        assert_eq!(out, clean);
        assert_eq!(stats.failed_attempts, 2);
    }

    #[test]
    fn speculation_duplicates_stragglers_and_kills_losers() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 4;
        cfg.reduce_tasks = 1;
        cfg.map_slots = 4;
        cfg.speculative_lag_ms = 20;
        // Task 0's first attempt stalls for 2s; the other tasks finish
        // in microseconds, so the mean-based straggler detector fires
        // and the duplicate attempt (no injected fault) wins.
        let plan = FaultPlan::new(3).with_fault(TaskKind::Map, 0, 0, Fault::SlowdownMs(2_000));
        let faulted = with_plan(&cfg, plan);
        let (mut out, stats) = try_wordcount(acceptance_lines(), &faulted, true)
            .expect("speculation must recover the straggler");
        let (mut clean, _) = wordcount(acceptance_lines(), &cfg, true);
        out.sort();
        clean.sort();
        assert_eq!(out, clean, "speculative winner must commit exactly once");
        assert_eq!(stats.speculative_attempts, 1);
        assert_eq!(stats.killed_attempts, 1);
        assert_eq!(stats.failed_attempts, 0);
        assert!(stats.reexecuted_bytes > 0);
    }

    #[test]
    fn speculation_can_be_disabled() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 4;
        cfg.speculative = false;
        cfg.speculative_lag_ms = 1;
        let plan = FaultPlan::new(4).with_fault(TaskKind::Map, 0, 0, Fault::SlowdownMs(60));
        let faulted = with_plan(&cfg, plan);
        let (_, stats) = try_wordcount(acceptance_lines(), &faulted, true)
            .expect("slowdown alone must not fail the job");
        assert_eq!(stats.speculative_attempts, 0);
        assert_eq!(stats.killed_attempts, 0);
    }

    #[test]
    fn chaos_run_is_reproducible_and_exactly_once() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 6;
        cfg.reduce_tasks = 3;
        let spec = ChaosSpec {
            fault_prob: 0.5,
            max_faulted_attempt: 2,
            slowdown_ms: 1,
        };
        let faulted = with_plan(&cfg, FaultPlan::chaos(0xC4A0, spec));
        let (mut out_a, stats_a) = try_wordcount(acceptance_lines(), &faulted, true)
            .expect("chaos under max_attempts must complete");
        let (mut out_b, stats_b) = try_wordcount(acceptance_lines(), &faulted, true)
            .expect("chaos under max_attempts must complete");
        let (mut clean, clean_stats) = wordcount(acceptance_lines(), &cfg, true);
        out_a.sort();
        out_b.sort();
        clean.sort();
        assert_eq!(out_a, clean);
        assert_eq!(out_b, clean);
        assert_eq!(stats_a.without_timings(), stats_b.without_timings());
        assert_eq!(stats_a.data_counters(), clean_stats.data_counters());
    }

    // ---- Degenerate configurations ----

    #[test]
    fn zero_map_slots_still_completes() {
        let mut cfg = JobConfig::default();
        cfg.map_slots = 0;
        cfg.reduce_slots = 0;
        let (mut out, stats) = wordcount(vec!["a b a".into(), "c".into()], &cfg, true);
        out.sort();
        assert_eq!(
            out,
            vec![("a".into(), 2u64), ("b".into(), 1), ("c".into(), 1)]
        );
        assert!(stats.map_tasks >= 1);
    }

    #[test]
    fn more_reduce_tasks_than_keys_completes() {
        let mut cfg = JobConfig::default();
        cfg.reduce_tasks = 16;
        let (mut out, stats) = wordcount(vec!["a b a".into()], &cfg, true);
        out.sort();
        assert_eq!(out, vec![("a".into(), 2u64), ("b".into(), 1)]);
        assert_eq!(stats.reduce_tasks, 16);
        assert_eq!(stats.reduce_output_records, 2);
    }

    #[test]
    fn zero_byte_records_are_counted_not_crashed() {
        let lines: Vec<String> = vec![String::new(); 8];
        let (out, stats) = wordcount(lines, &JobConfig::default(), true);
        assert!(out.is_empty());
        assert_eq!(stats.map_input_records, 8);
        // Each empty record still costs its 4-byte length prefix.
        assert_eq!(stats.map_input_bytes, 8 * String::new().byte_size() as u64);
        assert_eq!(stats.map_output_records, 0);
        assert_eq!(stats.disk_write_bytes(), 0);
    }

    #[test]
    fn empty_input_with_faults_still_recovers() {
        let plan = FaultPlan::new(5).with_fault(TaskKind::Map, 0, 0, Fault::Panic);
        let faulted = with_plan(&JobConfig::default(), plan);
        let (out, stats) = try_wordcount(Vec::new(), &faulted, true)
            .expect("empty job with a faulted attempt must still finish");
        assert!(out.is_empty());
        assert_eq!(stats.failed_attempts, 1);
    }

    // ---- Job timelines (dc-obs) ----

    /// The attempt timeline mirrors the stats block: one `ok` end per
    /// task, one `failed` end and one retry per failed attempt, and the
    /// summary event carries the full counter set.
    #[test]
    fn observed_job_emits_a_complete_attempt_timeline() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 4;
        cfg.reduce_tasks = 2;
        let plan = FaultPlan::new(0x0B5)
            .with_fault(TaskKind::Map, 1, 0, Fault::Panic)
            .with_fault(TaskKind::Reduce, 0, 0, Fault::IoError);
        let (recorder, ring) = Recorder::ring(4096);
        cfg.faults = Some(plan);
        cfg.recorder = recorder;
        let (_, stats) =
            try_wordcount(acceptance_lines(), &cfg, false).expect("job recovers from faults");
        let events = ring.snapshot();

        assert_eq!(ring.count_kind("job_start"), 1);
        assert_eq!(ring.count_kind("job_summary"), 1);
        assert_eq!(ring.count_kind("job_failed"), 0);
        let total_tasks = stats.map_tasks + stats.reduce_tasks;
        let ends_with = |outcome: &str| {
            events
                .iter()
                .filter(|e| {
                    e.kind == "attempt_end"
                        && e.field("outcome").and_then(Value::as_str) == Some(outcome)
                })
                .count() as u64
        };
        assert_eq!(ends_with("ok"), total_tasks, "one committed end per task");
        assert_eq!(ends_with("failed"), stats.failed_attempts);
        assert_eq!(ends_with("killed"), stats.killed_attempts);
        assert_eq!(
            ring.count_kind("attempt_retry") as u64,
            stats.failed_attempts
        );
        assert_eq!(
            ring.count_kind("speculative_launch") as u64,
            stats.speculative_attempts
        );
        assert_eq!(
            ring.count_kind("attempt_start") as u64,
            total_tasks + stats.failed_attempts + stats.speculative_attempts,
            "every dispatched attempt opened a span"
        );

        let summary = events
            .iter()
            .find(|e| e.kind == "job_summary")
            .expect("summary event");
        assert_eq!(
            summary
                .field("reduce_input_records")
                .and_then(Value::as_u64),
            Some(stats.reduce_input_records)
        );
        assert_eq!(
            summary.field("failed_attempts").and_then(Value::as_u64),
            Some(stats.failed_attempts)
        );

        // The default Gantt config renders this stream directly.
        let chart = dc_obs::gantt::render(&events, &dc_obs::gantt::GanttConfig::default());
        assert!(chart.contains("map/1/0"), "faulted lane present:\n{chart}");
        assert!(chart.contains("failed"), "outcome labelled:\n{chart}");
    }

    #[test]
    fn exhausted_job_emits_job_failed() {
        let mut cfg = JobConfig::default();
        cfg.map_tasks = 2;
        let mut plan = FaultPlan::new(6);
        for attempt in 0..cfg.max_attempts {
            plan = plan.with_fault(TaskKind::Map, 0, attempt, Fault::Panic);
        }
        let (recorder, ring) = Recorder::ring(1024);
        cfg.faults = Some(plan);
        cfg.recorder = recorder;
        let err = try_wordcount(acceptance_lines(), &cfg, false)
            .expect_err("task must exhaust its attempts");
        assert!(matches!(err, JobError::TaskExhausted { .. }));
        assert_eq!(ring.count_kind("job_failed"), 1);
        assert_eq!(ring.count_kind("job_summary"), 0);
    }

    /// Recording is observation only: a run with the default disabled
    /// recorder and one with an enabled recorder give the same outputs
    /// and dataflow counters.
    #[test]
    fn disabled_recorder_changes_nothing() {
        let cfg = JobConfig::default();
        assert!(!cfg.recorder.is_enabled(), "disabled by default");
        let (recorder, ring) = Recorder::ring(1024);
        let observed = JobConfig {
            recorder,
            ..cfg.clone()
        };
        let (mut via_observed, obs_stats) = wordcount(acceptance_lines(), &observed, false);
        assert_eq!(ring.count_kind("job_summary"), 1);
        let (mut plain, plain_stats) = wordcount(acceptance_lines(), &cfg, false);
        via_observed.sort();
        plain.sort();
        assert_eq!(via_observed, plain);
        assert_eq!(obs_stats.data_counters(), plain_stats.data_counters());
    }
}
