//! `dc-server-client`: a scripted client for `dc-server` sessions.
//!
//! ```text
//! dc-server-client --connect HOST:PORT [--script PATH] [--events PATH]
//! ```
//!
//! Runs a small session script (from `--script`, else stdin) against a
//! live daemon, printing every wire line it receives and exiting
//! non-zero the moment an expectation fails — which is exactly what a
//! CI smoke job wants. Request ids are auto-assigned (`c1`, `c2`, …).
//!
//! Script commands (one per line, `#` starts a comment; `$name` tokens
//! substitute a variable bound by `submit`):
//!
//! ```text
//! submit A {"entries":["Sort","Grep"],"seed":42}   # bind $A to the job name
//! await $A                 # poll status until the job is terminal
//! status $A                # one status request
//! stream $A                # replay+follow events (appended to --events)
//! cancel $A
//! stats                    # snapshot the daemon's metrics registry
//! shutdown
//! send <raw line>          # arbitrary bytes on the wire, read one reply
//! send-bytes N             # a garbage line of N bytes, read one reply
//! sleep-ms N
//! expect-ok                # last response has "ok":true
//! expect-error CODE        # last response is an error with this code
//! expect-state STATE       # last response result.state == STATE
//! expect-sims N            # last response result.simulations == N
//! expect-sims-gt N
//! expect-metric KEY OP N   # assert against the last stats snapshot:
//!                          # KEY is the canonical metric key, e.g.
//!                          # dc_server_requests_total{verb="submit"},
//!                          # with an optional histogram field suffix
//!                          # (.count .sum .min .max .p50 .p90 .p99);
//!                          # OP is one of == != < <= > >=
//! save-output PATH         # write result.output of the last response,
//!                          # byte-exact, to PATH
//! ```

use dc_obs::metrics::{MetricValue, MetricsSnapshot};
use dc_server::client::{Client, Reply};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Duration;

struct Session {
    client: Client,
    vars: HashMap<String, String>,
    /// The last reply that was not a stream frame.
    last: Option<Reply>,
    events_out: Option<std::fs::File>,
}

fn fail(line_no: usize, msg: &str) -> ! {
    eprintln!("dc-server-client: line {line_no}: {msg}");
    std::process::exit(1);
}

/// The value of a wire operation, or the script fails at `line_no`.
fn wire<T>(line_no: usize, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| fail(line_no, &e.to_string()))
}

impl Session {
    /// Print a received reply and keep it as the last one.
    fn keep(&mut self, reply: Reply) -> &Reply {
        println!("{}", reply.raw);
        self.last.insert(reply)
    }

    fn request(&mut self, line_no: usize, fields: &str) -> &Reply {
        let reply = wire(line_no, self.client.request(fields));
        self.keep(reply)
    }

    fn last(&self, line_no: usize) -> &Reply {
        self.last
            .as_ref()
            .unwrap_or_else(|| fail(line_no, "no response received yet"))
    }

    fn subst(&self, line_no: usize, token: &str) -> String {
        if let Some(name) = token.strip_prefix('$') {
            match self.vars.get(name) {
                Some(v) => v.clone(),
                None => fail(line_no, &format!("unbound variable ${name}")),
            }
        } else {
            token.to_string()
        }
    }
}

/// Histogram field suffixes `expect-metric` accepts after the key.
const HIST_FIELDS: [&str; 7] = ["count", "sum", "min", "max", "p50", "p90", "p99"];

/// Look a metric up in a `stats` snapshot by canonical key (`name` or
/// `name{k="v",…}`, labels sorted), with an optional histogram field
/// suffix (`.p99` etc.). Counters and gauges take no suffix.
fn metric_value(snap: &MetricsSnapshot, key: &str) -> Result<f64, String> {
    // Split a trailing `.field` off the key; metric names are
    // snake_case (no dots), so any dot after the last `}` (or at all,
    // for label-less keys) is a field separator.
    let (key, field) = match key.rsplit_once('.') {
        Some((k, f)) if HIST_FIELDS.contains(&f) && !f.contains('}') => (k, Some(f)),
        _ => (key, None),
    };
    let m = snap.get(key).ok_or("no such metric in the snapshot")?;
    let value = match (&m.value, field) {
        (MetricValue::Counter(v), None) => *v as f64,
        (MetricValue::Gauge(v), None) => *v as f64,
        (MetricValue::Histogram(h), Some(field)) => {
            (match field {
                "count" => h.count,
                "sum" => h.sum,
                "min" => h.min,
                "max" => h.max,
                "p50" => h.p50(),
                "p90" => h.p90(),
                _ => h.p99(),
            }) as f64
        }
        _ => {
            let field = field.unwrap_or("value");
            return Err(format!("metric has no numeric field {field:?}"));
        }
    };
    Ok(value)
}

const AWAIT_INTERVAL: Duration = Duration::from_millis(25);

fn run_script(session: &mut Session, script: &str) {
    for (idx, raw_line) in script.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((cmd, rest)) => (cmd, rest.trim()),
            None => (line, ""),
        };
        match cmd {
            "submit" => {
                let (var, job) = rest
                    .split_once(char::is_whitespace)
                    .unwrap_or_else(|| fail(line_no, "usage: submit VAR {job json}"));
                let reply = wire(line_no, session.client.submit(job.trim()));
                if let Some(name) = session.keep(reply).result_str("job") {
                    let name = name.to_string();
                    session.vars.insert(var.to_string(), name);
                }
            }
            "status" | "cancel" => {
                let job = session.subst(line_no, rest);
                session.request(line_no, &format!("\"verb\":\"{cmd}\",\"job\":\"{job}\""));
            }
            "await" => {
                let job = session.subst(line_no, rest);
                let reply = session
                    .client
                    .await_terminal(&job, AWAIT_INTERVAL, |r| println!("{}", r.raw));
                session.last = Some(wire(line_no, reply));
            }
            "stream" => {
                let job = session.subst(line_no, rest);
                let events_out = &mut session.events_out;
                let reply = session.client.stream(&job, |frame| {
                    println!("{}", frame.raw);
                    if let (Some(out), Some(event)) = (events_out.as_mut(), frame.event()) {
                        let _ = writeln!(out, "{event}");
                    }
                });
                let reply = wire(line_no, reply);
                session.keep(reply);
            }
            "stats" | "shutdown" => {
                session.request(line_no, &format!("\"verb\":\"{cmd}\""));
            }
            "send" => {
                wire(line_no, session.client.send_line(rest));
                let reply = wire(line_no, session.client.recv());
                session.keep(reply);
            }
            "send-bytes" => {
                let n: usize = rest
                    .parse()
                    .unwrap_or_else(|_| fail(line_no, "usage: send-bytes N"));
                wire(line_no, session.client.send_line(&"x".repeat(n)));
                let reply = wire(line_no, session.client.recv());
                session.keep(reply);
            }
            "sleep-ms" => {
                let ms: u64 = rest
                    .parse()
                    .unwrap_or_else(|_| fail(line_no, "usage: sleep-ms N"));
                std::thread::sleep(Duration::from_millis(ms));
            }
            "expect-ok" => {
                let last = session.last(line_no);
                if !last.is_ok() {
                    fail(line_no, &format!("expected ok, got {:?}", last.raw));
                }
            }
            "expect-error" => {
                let last = session.last(line_no);
                if last.error_code() != Some(rest) {
                    fail(
                        line_no,
                        &format!("expected error code {rest:?}, got {:?}", last.raw),
                    );
                }
            }
            "expect-state" => {
                let last = session.last(line_no);
                if last.result_str("state") != Some(rest) {
                    fail(
                        line_no,
                        &format!("expected state {rest:?}, got {:?}", last.raw),
                    );
                }
            }
            "expect-sims" | "expect-sims-gt" => {
                let want: f64 = rest
                    .parse()
                    .unwrap_or_else(|_| fail(line_no, "usage: expect-sims N"));
                let last = session.last(line_no);
                let Some(got) = last.simulations() else {
                    fail(
                        line_no,
                        &format!("no simulations in last response {:?}", last.raw),
                    );
                };
                let got = got as f64;
                let pass = if cmd == "expect-sims" {
                    got == want
                } else {
                    got > want
                };
                if !pass {
                    fail(line_no, &format!("{cmd} {want}: got {got}"));
                }
            }
            "expect-metric" => {
                let mut parts = rest.split_whitespace();
                let (key, op, want) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(k), Some(o), Some(v)) => (k, o, v),
                    _ => fail(line_no, "usage: expect-metric KEY OP N"),
                };
                let want: f64 = want
                    .parse()
                    .unwrap_or_else(|_| fail(line_no, "expect-metric: N must be a number"));
                let got = session
                    .last(line_no)
                    .metrics()
                    .and_then(|snap| metric_value(&snap, key))
                    .unwrap_or_else(|e| fail(line_no, &format!("expect-metric {key}: {e}")));
                let pass = match op {
                    "==" => got == want,
                    "!=" => got != want,
                    "<" => got < want,
                    "<=" => got <= want,
                    ">" => got > want,
                    ">=" => got >= want,
                    _ => fail(line_no, &format!("expect-metric: unknown op {op:?}")),
                };
                if !pass {
                    fail(
                        line_no,
                        &format!("expect-metric {key} {op} {want}: got {got}"),
                    );
                }
            }
            "save-output" => {
                let last = session.last(line_no);
                let Some(output) = last.output() else {
                    fail(line_no, &format!("no output object in {:?}", last.raw));
                };
                if let Err(e) = std::fs::write(rest, format!("{output}\n")) {
                    fail(line_no, &format!("save-output {rest}: {e}"));
                }
            }
            other => fail(line_no, &format!("unknown command {other:?}")),
        }
    }
}

fn main() -> ExitCode {
    let mut connect = None;
    let mut script_path = None;
    let mut events_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(0, &format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value("--connect")),
            "--script" => script_path = Some(value("--script")),
            "--events" => events_path = Some(value("--events")),
            other => fail(0, &format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = connect else {
        eprintln!("usage: dc-server-client --connect HOST:PORT [--script PATH] [--events PATH]");
        return ExitCode::from(2);
    };
    let script = match &script_path {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(0, &format!("--script {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(0, &format!("reading stdin: {e}")));
            buf
        }
    };
    let client =
        Client::connect(&addr, "c").unwrap_or_else(|e| fail(0, &format!("connect {addr}: {e}")));
    let events_out = events_path.map(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| fail(0, &format!("--events {path}: {e}")))
    });
    let mut session = Session {
        client,
        vars: HashMap::new(),
        last: None,
        events_out,
    };
    run_script(&mut session, &script);
    ExitCode::SUCCESS
}
