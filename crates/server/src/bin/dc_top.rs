//! `dc-top`: a terminal dashboard over a live daemon's `stats` verb.
//!
//! ```text
//! dc-top --connect HOST:PORT [--once | --interval-ms N [--samples N]]
//! dc-top --connect HOST:PORT --text   # raw Prometheus-style exposition
//! ```
//!
//! Each sample sends one `stats` request, decodes the reply into the
//! registry's [`MetricsSnapshot`] (`dc_server::client`) and renders three aligned tables — counters, gauges, histograms — with a
//! log2-bucket sparkline per histogram (the same width-compression
//! idiom `dc-obs`'s Gantt renderer uses for timelines). `--once` (the
//! default) prints a single sample and exits, which is what CI
//! artifacts want; `--interval-ms` keeps sampling on one connection
//! until `--samples` runs out or the daemon goes away.
//!
//! Output is plain text, one sample per block, log-friendly: no ANSI,
//! no cursor games. For a given snapshot the rendering is
//! byte-deterministic.
//!
//! `--text` skips the dashboard entirely: it fetches one snapshot,
//! rebuilds the [`MetricsSnapshot`] from the wire JSON and prints the
//! registry's own text exposition — the bytes `obs-schema-check
//! --metrics` validates in CI.

use dc_obs::metrics::{bucket_index, sparkline, MetricValue, MetricsSnapshot, BUCKETS};
use dc_server::client::Client;
use std::process::ExitCode;

/// Sparkline column budget per histogram row.
const SPARK_WIDTH: usize = 16;

fn die(msg: &str) -> ! {
    eprintln!("dc-top: {msg}");
    std::process::exit(1);
}

/// Render one stats snapshot as the dashboard block.
fn render(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut counters: Vec<(String, String)> = Vec::new();
    let mut gauges: Vec<(String, String)> = Vec::new();
    // key, spark, [count, p50, p90, p99, max]
    let mut hists: Vec<(String, String, [String; 5])> = Vec::new();
    for m in &snap.metrics {
        match &m.value {
            MetricValue::Counter(v) => counters.push((m.key(), v.to_string())),
            MetricValue::Gauge(v) => gauges.push((m.key(), v.to_string())),
            MetricValue::Histogram(h) => {
                let mut dense = vec![0u64; BUCKETS];
                for &(upper, n) in &h.buckets {
                    dense[bucket_index(upper)] = n;
                }
                let cols = [h.count, h.p50(), h.p90(), h.p99(), h.max].map(|v| v.to_string());
                hists.push((m.key(), sparkline(&dense, SPARK_WIDTH), cols));
            }
        }
    }

    let key_width = counters
        .iter()
        .map(|(k, _)| k.len())
        .chain(gauges.iter().map(|(k, _)| k.len()))
        .chain(hists.iter().map(|(k, _, _)| k.len()))
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    let scalar_table = |out: &mut String, title: &str, rows: &[(String, String)]| {
        if rows.is_empty() {
            return;
        }
        let vw = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let _ = writeln!(out, "{title}");
        for (k, v) in rows {
            let _ = writeln!(out, "  {k:<key_width$}  {v:>vw$}");
        }
    };
    scalar_table(&mut out, "counters", &counters);
    scalar_table(&mut out, "gauges", &gauges);
    if !hists.is_empty() {
        let headers = ["count", "p50", "p90", "p99", "max"];
        let mut widths = headers.map(str::len);
        for (_, _, cols) in &hists {
            for (w, c) in widths.iter_mut().zip(cols) {
                *w = (*w).max(c.len());
            }
        }
        let _ = write!(
            out,
            "histograms {:spark$}",
            "",
            spark = (key_width + SPARK_WIDTH + 4).saturating_sub("histograms".len())
        );
        for (h, w) in headers.iter().zip(widths) {
            let _ = write!(out, "  {h:>w$}");
        }
        out.push('\n');
        for (key, spark, cols) in &hists {
            let _ = write!(out, "  {key:<key_width$}  [{spark}]");
            for (c, w) in cols.iter().zip(widths) {
                let _ = write!(out, "  {c:>w$}");
            }
            out.push('\n');
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics registered)\n");
    }
    out
}

fn main() -> ExitCode {
    let mut connect = None;
    let mut interval_ms: Option<u64> = None;
    let mut samples: Option<u64> = None;
    let mut text = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value("--connect")),
            "--once" => interval_ms = None,
            "--text" => text = true,
            "--interval-ms" => {
                interval_ms = Some(
                    value("--interval-ms")
                        .parse()
                        .unwrap_or_else(|_| die("--interval-ms needs an integer")),
                )
            }
            "--samples" => {
                samples = Some(
                    value("--samples")
                        .parse()
                        .unwrap_or_else(|_| die("--samples needs an integer")),
                )
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = connect else {
        eprintln!(
            "usage: dc-top --connect HOST:PORT [--text | --once | --interval-ms N [--samples N]]"
        );
        return ExitCode::from(2);
    };
    let mut client =
        Client::connect(&addr, "top").unwrap_or_else(|e| die(&format!("connect {addr}: {e}")));
    let mut stats = || {
        client
            .request("\"verb\":\"stats\"")
            .unwrap_or_else(|e| die(&e.to_string()))
            .metrics()
            .unwrap_or_else(|e| die(&e))
    };
    if text {
        print!("{}", stats().render_text());
        return ExitCode::SUCCESS;
    }
    let mut sample = 0u64;
    loop {
        sample += 1;
        let snap = stats();
        println!("dc-top — {addr} — sample {sample}");
        print!("{}", render(&snap));
        let Some(ms) = interval_ms else { break };
        if samples.is_some_and(|n| sample >= n) {
            break;
        }
        println!();
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_obs::metrics::Registry;
    use dc_server::client::snapshot_from_doc;
    use dc_store::json::{parse_json, Json};

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("dc_server_requests_total", &[("verb", "submit")])
            .add(12);
        reg.gauge("dc_pool_queue_depth", &[]).set(3);
        let h = reg.histogram("dc_server_queue_wait_us", &[]);
        for v in [0u64, 5, 5, 120, 4000] {
            h.observe(v);
        }
        reg
    }

    fn sample_doc() -> Json {
        let response = format!(
            "{{\"id\":\"top1\",\"ok\":true,\"result\":{}}}",
            sample_registry().snapshot().to_json()
        );
        parse_json(&response).expect("well-formed")
    }

    fn sample() -> MetricsSnapshot {
        snapshot_from_doc(&sample_doc()).expect("decodes")
    }

    #[test]
    fn renders_aligned_tables_with_sparklines() {
        let out = render(&sample());
        assert!(out.contains("counters\n"));
        assert!(out.contains("dc_server_requests_total{verb=\"submit\"}"));
        assert!(out.contains("gauges\n"));
        assert!(out.contains("histograms"));
        // Histogram row: count and the p50 upper bound (bucket [4,7]).
        let hist_line = out
            .lines()
            .find(|l| l.contains("dc_server_queue_wait_us"))
            .expect("histogram row");
        assert!(hist_line.contains('['));
        assert!(hist_line.contains("  5  "), "count column: {hist_line}");
        // Rendering is deterministic.
        assert_eq!(out, render(&sample()));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let doc = parse_json("{\"id\":1,\"ok\":true,\"result\":{\"metrics\":[]}}").unwrap();
        let snap = snapshot_from_doc(&doc).expect("decodes");
        assert_eq!(render(&snap), "(no metrics registered)\n");
    }

    #[test]
    fn text_mode_round_trips_the_exposition() {
        // The wire JSON carries everything the renderer needs: the
        // rebuilt snapshot's exposition matches the source registry's
        // byte for byte.
        let reg = sample_registry();
        let snap = sample();
        assert_eq!(snap.render_text(), reg.snapshot().render_text());
        // Not just the exposition: the decoded snapshot is the registry's
        // own snapshot, field for field.
        assert_eq!(snap, reg.snapshot());
    }

    #[test]
    fn dashboard_block_is_pinned() {
        // The whole block for `sample_doc()`, byte for byte: key column,
        // sparkline, and every count/quantile column.
        let expected = concat!(
            "counters\n",
            "  dc_server_requests_total{verb=\"submit\"}  12\n",
            "gauges\n",
            "  dc_pool_queue_depth                      3\n",
            "histograms                                                    count  p50   p90   p99   max\n",
            "  dc_server_queue_wait_us                  [@++             ]      5    7  4000  4000  4000\n",
        );
        assert_eq!(render(&sample()), expected);
    }

    #[test]
    fn non_stats_response_is_an_error() {
        let doc = parse_json("{\"id\":1,\"ok\":true,\"result\":{\"job\":\"job-1\"}}").unwrap();
        assert!(snapshot_from_doc(&doc).is_err());
    }
}
