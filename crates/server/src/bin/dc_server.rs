//! The `dc-server` daemon.
//!
//! ```text
//! dc-server [--tcp ADDR | --stdio] [--workers N] [--queue N]
//!           [--events PATH] [--port-file PATH]
//! ```
//!
//! * `--tcp ADDR` — listen on ADDR (default `127.0.0.1:0`; pair the
//!   ephemeral port with `--port-file` so scripts can find it).
//! * `--stdio` — serve exactly one session on stdin/stdout (the
//!   subprocess transport).
//! * `--workers N` — executor threads (default 2). An executor answers
//!   a job's memo hits itself and fans only its misses across
//!   `dcbench::pool` workers (`DCBENCH_JOBS`).
//! * `--queue N` — bounded queue depth (default 64); submissions
//!   beyond it get `queue_full`.
//! * `--events PATH` — stream server-wide telemetry (JSON Lines) to
//!   PATH: `request_accepted`, `request_rejected`, `job_queued`,
//!   `job_done`.
//! * `--port-file PATH` — after binding, write `host:port` to PATH
//!   (written atomically via a temp file + rename so watchers never
//!   read a half-written address).
//!
//! `DCBENCH_STORE=<path>` attaches the persistent result store at boot,
//! so the daemon starts warm from previous runs — and its misses warm
//! the next one.

use dc_obs::Recorder;
use dc_server::{Server, ServerConfig};
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

struct Args {
    tcp: Option<String>,
    stdio: bool,
    workers: usize,
    queue: usize,
    events: Option<String>,
    port_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        stdio: false,
        workers: 2,
        queue: 64,
        events: None,
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--stdio" => args.stdio = true,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--events" => args.events = Some(value("--events")?),
            "--port-file" => args.port_file = Some(value("--port-file")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.stdio && args.tcp.is_some() {
        return Err("--stdio and --tcp are mutually exclusive".into());
    }
    Ok(args)
}

fn recorder_for(events: Option<&str>) -> Result<Recorder, String> {
    match events {
        None => Ok(Recorder::disabled()),
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("--events {path}: {e}"))?;
            Ok(Recorder::jsonl(std::io::BufWriter::new(file)))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("dc-server: {msg}");
            return ExitCode::from(2);
        }
    };
    let recorder = match recorder_for(args.events.as_deref()) {
        Ok(rec) => rec,
        Err(msg) => {
            eprintln!("dc-server: {msg}");
            return ExitCode::from(2);
        }
    };

    // Warm-start: attach the shared store before any client connects,
    // so even the first submission can be answered without simulating.
    match dcbench::cache::attach_from_env(&recorder) {
        Ok(Some(report)) => eprintln!(
            "dc-server: store attached ({} loaded, {} caught up)",
            report.loaded, report.caught_up
        ),
        Ok(None) => {}
        Err(e) => {
            // A broken store degrades to a cold start, never a refusal
            // to serve.
            eprintln!("dc-server: DCBENCH_STORE attach failed: {e}");
        }
    }

    let server = Server::start(ServerConfig {
        workers: args.workers,
        queue_cap: args.queue,
        recorder,
        ..ServerConfig::default()
    });

    if args.stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut reader = stdin.lock();
        let mut writer = std::io::BufWriter::new(stdout.lock());
        server.serve_connection(&mut reader, &mut writer);
        let _ = writer.flush();
        server.begin_shutdown();
        server.wait();
        return ExitCode::SUCCESS;
    }

    let addr = args.tcp.as_deref().unwrap_or("127.0.0.1:0");
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dc-server: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    if let Some(path) = &args.port_file {
        // Temp-file + rename: a watcher polling for the file never
        // observes a partial address.
        let tmp = format!("{path}.tmp");
        let write =
            std::fs::write(&tmp, format!("{local}\n")).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("dc-server: --port-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("dc-server: listening on {local}");
    server.serve_listener(&listener);
    server.wait();
    eprintln!("dc-server: bye");
    ExitCode::SUCCESS
}
