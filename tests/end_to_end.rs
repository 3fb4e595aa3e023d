//! End-to-end integration: profile → trace → pipeline → PMU → report,
//! across crate boundaries.

use dc_cpu::{core::SimOptions, CpuConfig};
use dc_datagen::Scale;
use dcbench::{report, BenchmarkId, Characterizer};

#[test]
fn full_pipeline_produces_all_exhibits() {
    let bench = Characterizer::quick();
    let scale = Scale::bytes(32 << 10);
    let fig3 = report::figure3(&bench);
    assert_eq!(fig3.rows.len(), 27);
    let fig2 = report::figure2(scale);
    assert_eq!(fig2.rows.len(), 11);
    let fig5 = report::figure5(scale);
    assert_eq!(fig5.rows.len(), 11);
    assert!(!report::table2().is_empty());
}

#[test]
fn pmu_view_matches_metrics_for_every_entry() {
    let bench = Characterizer::quick();
    for &id in BenchmarkId::all() {
        let (m, events) = bench.run_with_events(id);
        let inst = events
            .iter()
            .find(|(e, _)| *e == dc_perfmon::PerfEvent::InstructionsRetired)
            .expect("instructions counted")
            .1;
        assert_eq!(inst, m.instructions, "{id}");
        assert!(m.ipc > 0.0 && m.ipc < 4.0, "{id}: ipc {:.2}", m.ipc);
    }
}

#[test]
fn ablation_llc_capacity_hurts_data_analysis() {
    // The paper's LLC recommendation: DA working sets are L3-resident,
    // so shrinking the LLC must increase memory traffic.
    let full = Characterizer::new(
        CpuConfig::westmere_e5645(),
        SimOptions::exact(400_000, 120_000),
        7,
    );
    let small = Characterizer::new(
        CpuConfig::westmere_e5645()
            .try_with_l3_bytes(1 << 20)
            .expect("a whole number of L3 sets"),
        SimOptions::exact(400_000, 120_000),
        7,
    );
    let big = full.run(BenchmarkId::PageRank);
    let tiny = small.run(BenchmarkId::PageRank);
    assert!(
        tiny.l3_hit_ratio < big.l3_hit_ratio,
        "1 MiB LLC: {:.2} vs 12 MiB: {:.2}",
        tiny.l3_hit_ratio,
        big.l3_hit_ratio
    );
    assert!(tiny.ipc <= big.ipc + 0.02);
}

#[test]
fn ablation_simpler_predictor_is_enough_for_da() {
    // Paper: "A simpler branch predictor may be preferred" for DA. A
    // short-history predictor should cost DA little IPC relative to
    // what it costs SPECINT.
    let opts = SimOptions::exact(300_000, 500_000);
    let westmere = Characterizer::new(CpuConfig::westmere_e5645(), opts, 2013);
    let simple = Characterizer::new(
        CpuConfig::westmere_e5645()
            .try_with_predictor_bits(4)
            .expect("a history the tables honour"),
        opts,
        2013,
    );
    let da_full = westmere.run(BenchmarkId::WordCount);
    let da_simple = simple.run(BenchmarkId::WordCount);
    let da_loss = (da_full.ipc - da_simple.ipc) / da_full.ipc;
    let int_full = westmere.run(BenchmarkId::SpecInt);
    let int_simple = simple.run(BenchmarkId::SpecInt);
    let int_loss = (int_full.ipc - int_simple.ipc) / int_full.ipc;
    assert!(
        da_loss < 0.15,
        "short-history predictor costs DA {:.1}% IPC",
        da_loss * 100.0
    );
    assert!(
        da_loss < int_loss + 0.02,
        "DA tolerates the simpler predictor better than SPECINT: {:.1}% vs {:.1}%",
        da_loss * 100.0,
        int_loss * 100.0
    );
}
