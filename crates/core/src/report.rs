//! Table/figure renderers: regenerate every exhibit of the paper.
//!
//! Each `figure*`/`table*` function returns a structured
//! [`FigureData`] and a ready-to-print text rendering, so both the
//! examples and the Criterion benches print exactly the rows/series the
//! paper reports.

use crate::characterize::Characterizer;
use crate::cluster_experiments;
use crate::registry::BenchmarkId;
use crate::topsites;
use dc_analytics::Workload;
use dc_datagen::Scale;
use dc_perfmon::Metrics;
use std::fmt::Write as _;

/// One regenerated exhibit: labelled rows of numeric series.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Exhibit id (e.g. "Figure 3").
    pub id: String,
    /// Exhibit title as in the paper.
    pub title: String,
    /// Column headers for the series.
    pub columns: Vec<String>,
    /// Rows: (x-axis label, series values).
    pub rows: Vec<(String, Vec<f64>)>,
}

impl FigureData {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(10))
            .max()
            .unwrap_or(10);
        let _ = write!(out, "{:label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, " {c:>12}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for v in values {
                if v.abs() >= 1000.0 {
                    let _ = write!(out, " {v:>12.0}");
                } else {
                    let _ = write!(out, " {v:>12.3}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// The non-data-analysis entries, in figure order.
fn other_entries() -> Vec<BenchmarkId> {
    BenchmarkId::all()
        .iter()
        .copied()
        .filter(|id| id.suite() != crate::registry::Suite::DataAnalysis)
        .collect()
}

/// The full x-axis of the per-metric figures: 11 DA workloads, their
/// `avg` bar, then the remaining 15 entries — all simulated through the
/// parallel pipeline.
fn all_rows(bench: &Characterizer) -> Vec<Metrics> {
    let mut rows = bench.run_data_analysis_with_avg();
    rows.extend(bench.run_many(&other_entries()));
    rows
}

fn metric_figure(
    id: &str,
    title: &str,
    column: &str,
    bench: &Characterizer,
    f: impl Fn(&Metrics) -> f64,
) -> FigureData {
    FigureData {
        id: id.to_string(),
        title: title.to_string(),
        columns: vec![column.to_string()],
        rows: all_rows(bench)
            .into_iter()
            .map(|m| (m.name.clone(), vec![f(&m)]))
            .collect(),
    }
}

/// Figure 1: top sites in the web by category.
pub fn figure1() -> FigureData {
    FigureData {
        id: "Figure 1".into(),
        title: "Top sites in the web".into(),
        columns: vec!["share".into()],
        rows: topsites::category_shares(20)
            .into_iter()
            .map(|(c, s)| (c.name().to_string(), vec![s]))
            .collect(),
    }
}

/// Figure 2: speed-up of the eleven workloads on 1/4/8 slaves.
pub fn figure2(scale: Scale) -> FigureData {
    FigureData {
        id: "Figure 2".into(),
        title: "Varied speed up performance of eleven data analysis workloads".into(),
        columns: vec!["1 slave".into(), "4 slaves".into(), "8 slaves".into()],
        rows: cluster_experiments::figure2_speedups(scale)
            .into_iter()
            .map(|(w, s)| (w.name().to_string(), s.to_vec()))
            .collect(),
    }
}

/// Figure 3: instructions per cycle.
pub fn figure3(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 3",
        "Instructions per cycle for each workload",
        "IPC",
        bench,
        |m| m.ipc,
    )
}

/// Figure 4: user/kernel instruction breakdown (kernel fraction).
pub fn figure4(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 4",
        "User and Kernel Instructions Breakdown (kernel share)",
        "kernel",
        bench,
        |m| m.kernel_fraction,
    )
}

/// Figure 5: disk writes per second (data-analysis workloads, 4 slaves).
pub fn figure5(scale: Scale) -> FigureData {
    FigureData {
        id: "Figure 5".into(),
        title: "Disk Writes per Second".into(),
        columns: vec!["writes/s/node".into()],
        rows: cluster_experiments::figure5_disk_writes(scale)
            .into_iter()
            .map(|(w, r)| (w.name().to_string(), vec![r]))
            .collect(),
    }
}

/// Fault-tolerance exhibit (extension of Figure 2): each workload's
/// 8-slave speedup healthy vs. with one slave lost halfway through the
/// map phase, plus the recovery cost (re-executed slave-seconds and HDFS
/// re-replication traffic). Every job still completes — Hadoop re-runs
/// the lost waves on survivors — so the column is degraded, never empty.
pub fn fault_tolerance_exhibit(scale: Scale) -> FigureData {
    FigureData {
        id: "Exhibit FT".into(),
        title: "Speed up under single-node loss at 8 slaves".into(),
        columns: vec![
            "healthy".into(),
            "degraded".into(),
            "rework s".into(),
            "rerepl MB".into(),
        ],
        rows: cluster_experiments::speedups_under_node_loss(scale)
            .into_iter()
            .map(|row| {
                (
                    row.workload.name().to_string(),
                    vec![
                        row.healthy_speedup,
                        row.degraded_speedup,
                        row.reexecuted_work_secs,
                        row.rereplicated_mb,
                    ],
                )
            })
            .collect(),
    }
}

/// Co-run widths of Exhibit CO: solo, the paper's 4-slot Hadoop
/// configuration, and its 8-slot maximum.
pub const CORUN_WIDTHS: [usize; 3] = [1, 4, 8];

/// Exhibit CO: shared-L3 contention when N copies of each data-analysis
/// workload co-run on one chip ([`dc_cpu::Chip`]), as N map-task slots
/// did on the paper's nodes. Reports core 0's L3 MPKI and IPC at each
/// width in [`CORUN_WIDTHS`]; core 0's trace is identical at every
/// width, so column deltas isolate the cost of contention.
pub fn corun_exhibit(bench: &Characterizer) -> FigureData {
    let ids = BenchmarkId::data_analysis();
    let jobs: Vec<(BenchmarkId, usize)> = ids
        .iter()
        .flat_map(|&id| CORUN_WIDTHS.iter().map(move |&n| (id, n)))
        .collect();
    let cells = crate::pool::parallel_map(jobs, |_, (id, n)| bench.corun(id, n));
    let rows = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let ms = &cells[i * CORUN_WIDTHS.len()..(i + 1) * CORUN_WIDTHS.len()];
            let mut vals: Vec<f64> = ms.iter().map(|m| m.l3_mpki).collect();
            vals.extend(ms.iter().map(|m| m.ipc));
            (id.name().to_string(), vals)
        })
        .collect();
    FigureData {
        id: "Exhibit CO".into(),
        title: "Shared-L3 pressure and IPC of one task under 1/4/8 co-runners".into(),
        columns: vec![
            "MPKI x1".into(),
            "MPKI x4".into(),
            "MPKI x8".into(),
            "IPC x1".into(),
            "IPC x4".into(),
            "IPC x8".into(),
        ],
        rows,
    }
}

/// Exhibit PH: phase behavior of every data-analysis workload — the
/// `perf stat -I`-style time series the paper's successor work
/// (Jia et al., 2015) uses to show that map/shuffle/reduce phases have
/// distinct micro-architectural behavior. One [`FigureData`] per
/// workload: one row per counter interval of `every_cycles` simulated
/// cycles, columns IPC / L2 MPKI / L3 MPKI / branch MPKI / interval
/// instructions.
///
/// Workloads are recorded in parallel ([`crate::pool`]), but with a
/// recorder attached to `bench` the `interval_sample` /
/// `workload_sampled` events are emitted afterwards on the caller
/// thread, in workload order — so the JSONL artifact is byte-identical
/// run to run, at any worker count.
pub fn phase_exhibit(bench: &Characterizer, every_cycles: u64) -> Vec<FigureData> {
    let ids = BenchmarkId::data_analysis();
    // Workers record through a recorder-less clone; deterministic
    // emission happens below, outside the pool.
    let quiet = bench.clone().with_recorder(dc_obs::Recorder::disabled());
    let all = crate::pool::parallel_map(ids.to_vec(), move |_, id| {
        quiet.run_intervals(id, every_cycles)
    });
    all.iter()
        .map(|series| {
            bench.emit_intervals(series);
            let rows = series
                .intervals
                .iter()
                .map(|iv| {
                    (
                        format!("[{}..{})", iv.start_cycle, iv.end_cycle),
                        vec![
                            iv.ipc,
                            iv.l2_mpki,
                            iv.l3_mpki,
                            iv.branch_mpki,
                            iv.instructions as f64,
                        ],
                    )
                })
                .collect();
            FigureData {
                id: "Exhibit PH".into(),
                title: format!(
                    "Phase behavior of {} (interval = {} cycles)",
                    series.name, every_cycles
                ),
                columns: vec![
                    "IPC".into(),
                    "L2 MPKI".into(),
                    "L3 MPKI".into(),
                    "br MPKI".into(),
                    "instr".into(),
                ],
                rows,
            }
        })
        .collect()
}

/// Figure 6: pipeline stall breakdown.
pub fn figure6(bench: &Characterizer) -> FigureData {
    let rows = all_rows(bench)
        .into_iter()
        .map(|m| {
            let [fetch, rat, load, rs, store, rob] = m.stall_breakdown;
            (m.name, vec![fetch, rat, load, rs, store, rob])
        })
        .collect();
    FigureData {
        id: "Figure 6".into(),
        title: "Pipeline Stall Break Down of Each Workload".into(),
        columns: ["fetch", "rat", "load", "rs_full", "store", "rob_full"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// Figure 7: L1-I cache misses per thousand instructions.
pub fn figure7(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 7",
        "L1 Instruction Cache misses per thousand instructions",
        "L1I MPKI",
        bench,
        |m| m.l1i_mpki,
    )
}

/// Figure 8: ITLB-miss-caused completed page walks per k-instructions.
pub fn figure8(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 8",
        "ITLB miss caused completed page walks per thousand instructions",
        "walks PKI",
        bench,
        |m| m.itlb_walk_pki,
    )
}

/// Figure 9: L2 cache misses per thousand instructions.
pub fn figure9(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 9",
        "L2 cache misses per thousand instructions",
        "L2 MPKI",
        bench,
        |m| m.l2_mpki,
    )
}

/// Figure 10: ratio of L3 cache hits over L2 cache misses.
pub fn figure10(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 10",
        "The ratio of L3 cache satisfying L2 cache misses",
        "L3 ratio",
        bench,
        |m| m.l3_hit_ratio,
    )
}

/// Figure 11: DTLB-miss-caused completed page walks per k-instructions.
pub fn figure11(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 11",
        "Completed Page Walks Caused by DTLB Misses per Thousand Instructions",
        "walks PKI",
        bench,
        |m| m.dtlb_walk_pki,
    )
}

/// Figure 12: branch misprediction ratio.
pub fn figure12(bench: &Characterizer) -> FigureData {
    metric_figure(
        "Figure 12",
        "Branch Miss-prediction ratio",
        "misp ratio",
        bench,
        |m| m.branch_misprediction,
    )
}

/// Table I: representative data analysis workloads.
pub fn table1() -> FigureData {
    FigureData {
        id: "Table I".into(),
        title: "Representative data analysis workloads".into(),
        columns: vec!["input GB".into(), "G instructions".into()],
        rows: Workload::all()
            .iter()
            .map(|w| {
                (
                    format!("{} ({}, {})", w.name(), w.input_kind(), w.paper_source()),
                    vec![
                        w.paper_input_gb() as f64,
                        w.paper_giga_instructions() as f64,
                    ],
                )
            })
            .collect(),
    }
}

/// Table II: application scenarios of each workload.
pub fn table2() -> String {
    let mut out = String::from("Table II — Scenarios of data analysis\n");
    for w in Workload::all() {
        let _ = writeln!(out, "{}:", w.name());
        for (domain, scenario) in w.scenarios() {
            let _ = writeln!(out, "    {domain:22} {scenario}");
        }
    }
    out
}

/// Table III: hardware configuration of the simulated machine.
pub fn table3(bench: &Characterizer) -> String {
    let c = bench.config();
    let mut out = String::from("Table III — Details of hardware configurations\n");
    let mut row = |k: &str, v: String| {
        let _ = writeln!(out, "    {k:12} {v}");
    };
    row("CPU Type", "Intel Xeon E5645 (simulated)".into());
    row("# Cores", format!("{} cores @ 2.4 GHz", c.cores));
    row(
        "ITLB",
        format!("{}-way, {} entries", c.itlb.assoc, c.itlb.entries),
    );
    row(
        "DTLB",
        format!("{}-way, {} entries", c.dtlb.assoc, c.dtlb.entries),
    );
    row(
        "L2 TLB",
        format!("{}-way, {} entries", c.stlb.assoc, c.stlb.entries),
    );
    row(
        "L1 DCache",
        format!(
            "{} KB, {}-way, {} byte/line",
            c.l1d.size_bytes >> 10,
            c.l1d.assoc,
            c.l1d.line_bytes
        ),
    );
    row(
        "L1 ICache",
        format!(
            "{} KB, {}-way, {} byte/line",
            c.l1i.size_bytes >> 10,
            c.l1i.assoc,
            c.l1i.line_bytes
        ),
    );
    row(
        "L2 Cache",
        format!(
            "{} KB, {}-way, {} byte/line",
            c.l2.size_bytes >> 10,
            c.l2.assoc,
            c.l2.line_bytes
        ),
    );
    row(
        "L3 Cache",
        format!(
            "{} MB, {}-way, {} byte/line",
            c.l3.size_bytes >> 20,
            c.l3.assoc,
            c.l3.line_bytes
        ),
    );
    out
}

/// Exhibit SW: microarchitectural sensitivity of every data-analysis
/// workload. The grid is measured once through [`crate::sweep::run`]
/// (sharded, cached, deterministic — `sweep_point` / `sweep_axis`
/// events reach any attached recorder in grid order), then unfolded
/// into one [`FigureData`] per (axis, metric): columns are the axis
/// grid points, rows the 11 workloads, so each row *is* that
/// workload's sensitivity curve. Metrics per axis: IPC, L2 MPKI,
/// L3 MPKI, branch-misprediction ratio.
pub fn sweep_exhibit(
    bench: &Characterizer,
    axes: &[crate::sweep::SweepAxis],
) -> Result<Vec<FigureData>, dc_cpu::ConfigError> {
    type MetricColumn = (&'static str, fn(&Metrics) -> f64);
    let sweeps = crate::sweep::run(bench, BenchmarkId::data_analysis(), axes)?;
    let metrics: [MetricColumn; 4] = [
        ("IPC", |m| m.ipc),
        ("L2 MPKI", |m| m.l2_mpki),
        ("L3 MPKI", |m| m.l3_mpki),
        ("misp ratio", |m| m.branch_misprediction),
    ];
    let mut figures = Vec::with_capacity(sweeps.len() * metrics.len());
    for sweep in &sweeps {
        for (metric_name, extract) in metrics {
            let rows = sweep
                .curves
                .iter()
                .map(|curve| {
                    (
                        curve.id.name().to_string(),
                        curve.metrics.iter().map(extract).collect(),
                    )
                })
                .collect();
            figures.push(FigureData {
                id: "Exhibit SW".into(),
                title: format!("{} vs {}", metric_name, sweep.kind.title()),
                columns: sweep.labels.clone(),
                rows,
            });
        }
    }
    Ok(figures)
}

/// Exhibit SS: PCA + hierarchical subsetting of the 11 data-analysis
/// workloads. Characterizes the registry's data-analysis entries (via
/// the cached parallel pipeline — a warm [`crate::cache`] store serves
/// every row with zero simulations), then runs the full
/// [`crate::stats`] pipeline: z-score → Jacobi PCA (retained to
/// [`crate::stats::VARIANCE_TARGET`]) → agglomerative clustering of
/// the PC scores under `linkage` → the `k`-cluster cut with one medoid
/// representative per cluster. Render with
/// [`crate::stats::Subset::render_text`] /
/// [`crate::stats::Subset::to_json`]; both are byte-identical across
/// processes, worker counts, and cold-vs-warm store runs.
pub fn subset_exhibit(
    bench: &Characterizer,
    k: usize,
    linkage: crate::stats::Linkage,
) -> crate::stats::Subset {
    let rows = bench.run_many(BenchmarkId::data_analysis());
    crate::stats::subset_of_metrics(&rows, k, linkage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_rows_and_render() {
        let fig = figure1();
        assert_eq!(fig.rows.len(), 5);
        let text = fig.render();
        assert!(text.contains("Search Engine"));
        assert!(text.contains("Figure 1"));
    }

    #[test]
    fn metric_figures_cover_all_entries() {
        let bench = Characterizer::quick();
        let fig = figure3(&bench);
        // 11 DA + avg + 15 others = 27 bars.
        assert_eq!(fig.rows.len(), 27);
        assert!(fig.rows.iter().any(|(l, _)| l == "avg"));
        assert!(fig.rows.iter().any(|(l, _)| l == "HPCC-STREAM"));
    }

    #[test]
    fn figure6_rows_sum_to_one() {
        let bench = Characterizer::quick();
        let fig = figure6(&bench);
        for (label, row) in &fig.rows {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9 || sum == 0.0,
                "{label}: breakdown sums to {sum}"
            );
        }
    }

    #[test]
    fn fault_tolerance_exhibit_degrades_all_rows() {
        let fig = fault_tolerance_exhibit(Scale::bytes(48 << 10));
        assert_eq!(fig.rows.len(), 11);
        for (label, row) in &fig.rows {
            let [healthy, degraded, rework, rerepl] = row[..] else {
                panic!("{label}: expected 4 columns");
            };
            assert!(degraded.is_finite() && degraded > 0.0, "{label}");
            assert!(degraded < healthy, "{label}: loss must cost speedup");
            assert!(rework > 0.0 && rerepl > 0.0, "{label}: no recovery cost");
        }
        assert!(fig.render().contains("Exhibit FT"));
    }

    #[test]
    fn sweep_exhibit_unfolds_axes_into_metric_figures() {
        let bench = Characterizer::new(
            dc_cpu::CpuConfig::westmere_e5645(),
            dc_cpu::SimOptions::exact(30_000, 10_000),
            0xE4_81B1,
        );
        let axes = [crate::sweep::SweepAxis::prefetch()];
        let figs = sweep_exhibit(&bench, &axes).expect("valid grid");
        // One axis × four metrics.
        assert_eq!(figs.len(), 4);
        for fig in &figs {
            assert_eq!(fig.columns, vec!["off", "on"]);
            assert_eq!(fig.rows.len(), 11);
            assert!(fig.render().contains("Exhibit SW"));
        }
        assert!(figs[0].title.contains("IPC"));
        assert!(figs[3].title.contains("misp ratio"));
    }

    #[test]
    fn tables_render() {
        assert!(table1().render().contains("Naive Bayes"));
        assert!(table2().contains("Word Segmentation"));
        let bench = Characterizer::quick();
        let t3 = table3(&bench);
        assert!(t3.contains("12 MB"));
        assert!(t3.contains("512 entries"));
    }
}
