//! An in-process `dc-server` on loopback TCP and the closed-loop
//! clients that drive it.
//!
//! Each client holds one connection and sends its next request only
//! after the previous reply is complete (a `stream` counts until its
//! final `ok` line). Latency is what the client observes, from the
//! write of the request line to the last byte of its reply.

use crate::common::{full_window, quick_window, secs, Rng};
use dc_cpu::CpuConfig;
use dc_server::protocol::event_frame;
use dc_server::{JobSpec, RequestId, Server, ServerConfig};
use dc_store::json::{parse_json, Json};
use dcbench::{BenchmarkId, Characterizer};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Wire verbs the mix sends, in reporting order.
pub const VERBS: [&str; 5] = ["submit", "stream", "status", "stats", "subset"];

/// A daemon serving one loopback listener.
pub struct Daemon {
    server: Server,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl Daemon {
    pub fn start(workers: usize) -> io::Result<Daemon> {
        let server = Server::start(ServerConfig {
            workers,
            queue_cap: 256,
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let acceptor = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_listener(&listener))
        };
        Ok(Daemon {
            server,
            addr,
            acceptor,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let running jobs finish and join the daemon's
    /// accept loop and executors.
    pub fn stop(self) {
        self.server.shutdown_listener(self.addr);
        let _ = self.acceptor.join();
        self.server.wait();
    }
}

/// One kind of job the mix submits, with what the daemon must answer.
pub struct JobKind {
    /// The `job` object of the submit line.
    pub body: String,
    /// The offline render of the job's `output` bytes.
    pub output: String,
    /// The offline event log, with the job named `offline`.
    pub events: Vec<dc_obs::Event>,
    /// µops the job's entries were simulated for.
    pub uops: u64,
}

impl JobKind {
    /// Render `body`'s job offline, on the caller thread, through the
    /// same job runner the daemon uses, and return its status result
    /// and the event log a `stream` of it replays.
    pub fn offline(body: &str) -> (JobSpec, String, Vec<dc_obs::Event>) {
        let doc = parse_json(body).expect("job bodies are valid JSON");
        let spec = JobSpec::parse(&doc).expect("job bodies are valid specs");
        let job = dc_server::Job::new("offline".into(), spec.clone());
        // The daemon logs `job_queued` when it accepts a job.
        job.emit_queued(&dc_obs::Recorder::disabled());
        assert!(job.try_start(), "a fresh job starts");
        job.run(&dc_obs::Recorder::disabled());
        (spec, job.status_result(), job.log.snapshot())
    }

    /// The stream frames the daemon must send for this job under
    /// request `id` when it named the job `name`: the offline events
    /// with the job's name put in.
    fn frames(&self, id: &str, name: &str) -> Vec<String> {
        let id = RequestId::Str(id.to_string());
        self.events
            .iter()
            .map(|ev| {
                let mut ev = ev.clone();
                for (k, v) in &mut ev.fields {
                    if *k == "job" {
                        *v = dc_obs::Value::str(name);
                    }
                }
                event_frame(&id, &ev)
            })
            .collect()
    }
}

/// Entries per submitted job, as in the repository's recorded warm
/// traffic (`ci/server-smoke/warm.txt`, `ci/metrics-smoke/warm.txt`
/// and EXPERIMENTS.md Exhibit MX all submit three entries). Fixed, so
/// every job delivers the same simulated work whatever the seed picks.
const ENTRIES_PER_JOB: usize = 3;

/// The one job spec the recorded traffic submits; the mix's first job.
const RECORDED_JOB: [BenchmarkId; ENTRIES_PER_JOB] =
    [BenchmarkId::Sort, BenchmarkId::Grep, BenchmarkId::KMeans];

/// The request mix: jobs plus the warm `subset` request.
pub struct Mix {
    pub jobs: Vec<JobKind>,
    /// Top-level fields of the subset request (without id and verb).
    pub subset_fields: String,
    /// The offline render of the subset `output` bytes.
    pub subset_output: String,
}

impl Mix {
    /// Jobs a client would submit for these entries: the recorded
    /// spec plus five seeded picks of three entries each, rendered
    /// offline, plus the warm subset. `pool` must hold the recorded
    /// spec's entries.
    pub fn build(master: u64, seed: u64, window: &str, sampled: bool, pool: &[BenchmarkId]) -> Mix {
        let mut rng = Rng::new(seed ^ 0x05EE_D0B5);
        let jobs = (0..6)
            .map(|k| {
                let mut ids: Vec<BenchmarkId> = Vec::new();
                if k == 0 {
                    ids.extend(RECORDED_JOB);
                }
                while ids.len() < ENTRIES_PER_JOB {
                    let id = pool[rng.below(pool.len() as u64) as usize];
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                let names: Vec<String> = ids.iter().map(|id| format!("\"{}\"", id.name())).collect();
                let body = format!(
                    "{{\"entries\":[{}],\"window\":\"{window}\",\"seed\":{master},\"sampled\":{sampled}}}",
                    names.join(",")
                );
                let (spec, status, events) = JobKind::offline(&body);
                let output = result_output(&status).unwrap_or_default().to_string();
                let h = Characterizer::new(CpuConfig::westmere_e5645(), spec.sim_options(), master);
                let uops = ids
                    .iter()
                    .map(|&id| spec.sim_options().warmup_ops + h.raw_counts(id).instructions)
                    .sum();
                JobKind {
                    body,
                    output,
                    events,
                    uops,
                }
            })
            .collect();
        let subset_fields =
            format!("\"k\":4,\"linkage\":\"average\",\"window\":\"{window}\",\"seed\":{master}");
        let opts = if window == "full" {
            full_window()
        } else {
            quick_window()
        };
        let harness = Characterizer::new(CpuConfig::westmere_e5645(), opts, master);
        let subset_output =
            dcbench::report::subset_exhibit(&harness, 4, dcbench::stats::Linkage::Average)
                .to_json(window, master);
        Mix {
            jobs,
            subset_fields,
            subset_output,
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Index into [`VERBS`].
    pub verb: usize,
    pub client: usize,
    /// Seconds from the session's start to the request's write.
    pub at: f64,
    pub us: f64,
    pub ok: bool,
}

/// When each client stops starting new actions.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    After(usize),
}

/// What a session produced.
#[derive(Default)]
pub struct Session {
    pub reqs: Vec<Req>,
    pub wall_s: f64,
    /// µops of simulated results delivered by completed jobs.
    pub uops: u64,
    /// µs from each completed job's submit to its status output.
    pub rounds: Vec<f64>,
    /// The first request lines sent, for the protocol probes.
    pub lines: Vec<String>,
}

/// Actions come in blocks of [`BLOCK`]: this many `stats`, this many
/// warm `subset`s, the rest `submit`+`stream`+`status` rounds, in a
/// seeded order. Fixed proportions keep the latency percentiles from
/// depending on how many slow verbs a seed happens to draw. One `stats`
/// per 32 job rounds follows Exhibit MX (one `dc-top --once` read after
/// 4 clients × 8 rounds); one `subset` per block is a choice, as no
/// recorded traffic sends the verb to the daemon.
const BLOCK: usize = 34;
const STATS_PER_BLOCK: usize = 1;
const SUBSETS_PER_BLOCK: usize = 1;

/// The seeded order of one block: 0 = job round, 1 = stats, 2 = subset.
fn block(rng: &mut Rng) -> Vec<u8> {
    let mut b = vec![0u8; BLOCK];
    b[..STATS_PER_BLOCK].fill(1);
    b[STATS_PER_BLOCK..STATS_PER_BLOCK + SUBSETS_PER_BLOCK].fill(2);
    for i in (1..BLOCK).rev() {
        b.swap(i, rng.below(i as u64 + 1) as usize);
    }
    b
}

/// Run `clients` closed-loop clients against `addr`, each with its own
/// seeded schedule of [`block`]s over the mix's jobs.
pub fn run_session(addr: SocketAddr, mix: &Mix, seed: u64, clients: usize, stop: Stop) -> Session {
    let t0 = Instant::now();
    let parts: Vec<Session> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client(addr, mix, seed ^ (c as u64 + 1) << 40, c, stop, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = Session {
        wall_s: secs(t0),
        ..Session::default()
    };
    for p in parts {
        out.reqs.extend(p.reqs);
        out.uops += p.uops;
        out.rounds.extend(p.rounds);
        out.lines.extend(p.lines);
    }
    out
}

const KEPT_LINES: usize = 100;

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line)
    }
}

fn client(addr: SocketAddr, mix: &Mix, seed: u64, c: usize, stop: Stop, t0: Instant) -> Session {
    let mut rng = Rng::new(seed);
    let mut out = Session::default();
    let mut conn = Conn::open(addr).ok();
    let mut actions = 0usize;
    let mut schedule = Vec::new();
    loop {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::After(k) if actions >= k => break,
            _ => {}
        }
        if actions.is_multiple_of(BLOCK) {
            schedule = block(&mut rng);
        }
        let action = schedule[actions % BLOCK];
        actions += 1;
        let n = actions;
        let job = &mix.jobs[rng.below(mix.jobs.len() as u64) as usize];
        // Send `line`, time until `read` has the whole reply, then let
        // `accept` judge the reply lines outside the timed span.
        let mut request = |verb: usize,
                           line: String,
                           out: &mut Session,
                           read: &dyn Fn(&mut Conn) -> io::Result<Vec<String>>,
                           accept: &dyn Fn(&[String]) -> Option<String>| {
            if out.lines.len() < KEPT_LINES {
                out.lines.push(line.trim_end().to_string());
            }
            let t = Instant::now();
            let reply = match conn.as_mut() {
                Some(cn) => cn.send(&line).and_then(|()| read(cn)),
                None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
            };
            let us = secs(t) * 1e6;
            let value = match reply {
                Ok(lines) => accept(&lines),
                Err(_) => {
                    // A dropped connection fails this request; the next
                    // one starts on a fresh connection.
                    conn = Conn::open(addr).ok();
                    None
                }
            };
            out.reqs.push(Req {
                verb,
                client: c,
                at: (t - t0).as_secs_f64(),
                us,
                ok: value.is_some(),
            });
            value
        };
        let one = |cn: &mut Conn| -> io::Result<Vec<String>> { Ok(vec![cn.recv()?]) };
        if action == 1 {
            let line = format!("{{\"id\":\"c{c}-{n}\",\"verb\":\"stats\"}}\n");
            request(3, line, &mut out, &one, &|r| is_ok(&r[0]).then(String::new));
        } else if action == 2 {
            let line = format!(
                "{{\"id\":\"c{c}-{n}\",\"verb\":\"subset\",{}}}\n",
                mix.subset_fields
            );
            let want = mix.subset_output.as_str();
            request(4, line, &mut out, &one, &|r| {
                (is_ok(&r[0]) && subset_output(&r[0]) == Some(want)).then(String::new)
            });
        } else {
            let round = Instant::now();
            let line = format!(
                "{{\"id\":\"c{c}-{n}\",\"verb\":\"submit\",\"job\":{}}}\n",
                job.body
            );
            let Some(name) = request(0, line, &mut out, &one, &|r| {
                is_ok(&r[0]).then(|| job_name(&r[0])).flatten()
            }) else {
                continue;
            };
            let sid = format!("c{c}-{n}s");
            let line = format!("{{\"id\":\"{sid}\",\"verb\":\"stream\",\"job\":\"{name}\"}}\n");
            let frame = format!("{{\"id\":\"{sid}\",\"event\":");
            let read_stream = |cn: &mut Conn| {
                let mut lines = Vec::new();
                loop {
                    let reply = cn.recv()?;
                    let last = !reply.starts_with(&frame);
                    lines.push(reply);
                    if last {
                        return Ok(lines);
                    }
                }
            };
            request(1, line, &mut out, &read_stream, &|r| {
                let (last, frames) = r.split_last()?;
                let want = job.frames(&sid, &name);
                let same = frames.len() == want.len()
                    && frames.iter().zip(&want).all(|(got, w)| got.trim_end() == w);
                (same && stream_done(last) == Some(want.len())).then(String::new)
            });
            let line = format!("{{\"id\":\"c{c}-{n}t\",\"verb\":\"status\",\"job\":\"{name}\"}}\n");
            let delivered = request(2, line, &mut out, &one, &|r| {
                let warm = r[0].contains("\"simulations\":0,");
                (is_ok(&r[0]) && warm && status_output(&r[0]) == Some(job.output.as_str()))
                    .then(String::new)
            });
            if delivered.is_some() {
                out.uops += job.uops;
                out.rounds.push(secs(round) * 1e6);
            }
        }
    }
    out
}

/// The event count of a stream's final line, if it is `ok` and the job
/// is done.
fn stream_done(reply: &str) -> Option<usize> {
    let doc = parse_json(reply).ok()?;
    if !matches!(doc.get("ok"), Some(Json::Bool(true))) {
        return None;
    }
    let result = doc.get("result")?;
    match (result.get("state")?, result.get("events")?) {
        (Json::Str(s), Json::Num(n)) if s == "done" => Some(*n as usize),
        _ => None,
    }
}

fn is_ok(reply: &str) -> bool {
    matches!(
        parse_json(reply).ok().and_then(|d| d.get("ok").cloned()),
        Some(Json::Bool(true))
    )
}

fn job_name(reply: &str) -> Option<String> {
    match parse_json(reply).ok()?.get("result")?.get("job")? {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// The `output` bytes of a job's status result, which ends
/// `…"output":{…}}`.
pub fn result_output(result: &str) -> Option<&str> {
    let result = result.trim_end();
    let at = result.find("\"output\":")? + "\"output\":".len();
    result.get(at..result.len().checked_sub(1)?)
}

/// The `output` bytes of a status reply: its result plus the closing
/// brace of the reply.
pub fn status_output(reply: &str) -> Option<&str> {
    let reply = reply.trim_end();
    result_output(reply.get(..reply.len().checked_sub(1)?)?)
}

/// The `output` bytes of a subset reply: `…"output":{…},"simulations":N}}`.
pub fn subset_output(reply: &str) -> Option<&str> {
    let at = reply.find("\"output\":")? + "\"output\":".len();
    let end = reply.rfind(",\"simulations\":")?;
    reply.get(at..end)
}

/// Read the daemon's own histograms through the `stats` verb: the
/// `(p50, p90, sum, count)` of `name`.
pub fn daemon_histogram(addr: SocketAddr, name: &str) -> io::Result<(f64, f64, f64, f64)> {
    let mut conn = Conn::open(addr)?;
    conn.send("{\"id\":\"ledger\",\"verb\":\"stats\"}\n")?;
    let reply = conn.recv()?;
    let doc = parse_json(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, format!("no histogram {name}"));
    let Some(Json::Arr(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
        return Err(bad());
    };
    let h = metrics
        .iter()
        .find(|m| matches!(m.get("name"), Some(Json::Str(n)) if n == name))
        .ok_or_else(bad)?;
    let num = |k: &str| match h.get(k) {
        Some(Json::Num(v)) => Ok(*v),
        _ => Err(bad()),
    };
    Ok((num("p50")?, num("p90")?, num("sum")?, num("count")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_extraction_matches_the_reply_shapes() {
        let status = "{\"id\":\"a\",\"ok\":true,\"result\":{\"job\":\"job-1\",\"state\":\"done\",\
                      \"simulations\":0,\"output\":{\"kind\":\"characterize\",\"rows\":[]}}}\n";
        assert_eq!(
            status_output(status),
            Some("{\"kind\":\"characterize\",\"rows\":[]}")
        );
        let subset = "{\"id\":1,\"ok\":true,\"result\":{\"output\":{\"k\":4},\"simulations\":0}}";
        assert_eq!(subset_output(subset), Some("{\"k\":4}"));
        assert!(is_ok(status));
        assert!(!is_ok(
            "{\"id\":1,\"ok\":false,\"error\":{\"code\":\"queue_full\",\"message\":\"\"}}"
        ));
        assert_eq!(job_name(status).as_deref(), Some("job-1"));
        let last = "{\"id\":\"s\",\"ok\":true,\"result\":{\"job\":\"job-1\",\"state\":\"done\",\"events\":5}}\n";
        assert_eq!(stream_done(last), Some(5));
        assert_eq!(stream_done(&last.replace("done", "failed")), None);
    }

    #[test]
    fn expected_frames_carry_the_daemons_job_name() {
        let job = JobKind {
            body: String::new(),
            output: String::new(),
            events: vec![dc_obs::Event {
                seq: 0,
                ts: 0,
                kind: "job_done",
                fields: vec![
                    ("job", dc_obs::Value::str("offline")),
                    ("state", dc_obs::Value::str("done")),
                ],
            }],
            uops: 0,
        };
        let frames = job.frames("c0-1s", "job-7");
        assert_eq!(frames.len(), 1);
        assert!(
            frames[0].starts_with("{\"id\":\"c0-1s\",\"event\":"),
            "{}",
            frames[0]
        );
        assert!(frames[0].contains("\"job-7\"") && !frames[0].contains("offline"));
    }
}
