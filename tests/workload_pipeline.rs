//! Integration across the real-execution path: datagen → analytics
//! algorithms → mapreduce engine → cluster model.

use dc_analytics::Workload;
use dc_datagen::Scale;
use dc_mapreduce::cluster::{simulate, ClusterConfig};
use dc_mapreduce::engine::JobConfig;
use dcbench::cluster_experiments::job_model;

#[test]
fn all_eleven_workloads_run_end_to_end() {
    let cfg = JobConfig::default();
    for &w in Workload::all() {
        let run = w.run(Scale::bytes(32 << 10), &cfg).expect("fault-free run");
        assert!(run.outputs > 0, "{w}");
        assert!(run.stats.map_input_bytes > 0, "{w}");
        assert!(
            run.stats.reduce_output_records > 0 || run.stats.map_output_records > 0,
            "{w}"
        );
        assert_eq!(
            run.stats.failed_attempts, 0,
            "{w}: clean run recorded failures"
        );
    }
}

#[test]
fn cluster_survives_one_slave_failing_mid_map() {
    // ISSUE acceptance: at 8 slaves with one slave failing mid-map, every
    // job model completes with a strictly higher runtime than the
    // healthy run, and never errors or returns NaN.
    use dc_mapreduce::cluster::{simulate_with_failures, FailureModel};
    use dc_obs::Recorder;
    for &w in Workload::all() {
        let model = job_model(w, Scale::bytes(32 << 10));
        let cluster = ClusterConfig::paper(8);
        let healthy = simulate(&cluster, &model);
        let failures = FailureModel::single_loss(healthy.map_secs / 2.0);
        let degraded = simulate_with_failures(&cluster, &model, &failures, &Recorder::disabled());
        assert!(
            degraded.makespan_secs.is_finite(),
            "{w}: makespan not finite"
        );
        assert!(
            degraded.makespan_secs > healthy.makespan_secs,
            "{w}: node loss must cost time ({} vs {})",
            degraded.makespan_secs,
            healthy.makespan_secs
        );
        assert!(degraded.reexecuted_work_secs > 0.0, "{w}");
        assert!(degraded.rereplicated_mb > 0.0, "{w}");
    }
}

#[test]
fn engine_stats_scale_into_cluster_models() {
    for &w in Workload::all() {
        let model = job_model(w, Scale::bytes(32 << 10));
        assert!(model.input_gb > 100.0, "{w}: paper-scale input");
        assert!(model.map_cpu_secs_per_gb > 0.0, "{w}");
        assert!(
            model.shuffle_ratio >= 0.0 && model.shuffle_ratio < 20.0,
            "{w}"
        );
        let run = simulate(&ClusterConfig::paper(4), &model);
        assert!(
            run.makespan_secs.is_finite() && run.makespan_secs > 0.0,
            "{w}"
        );
    }
}

#[test]
fn sort_is_the_io_outlier() {
    // Paper narrative: "the input data size of Sort is equal to the
    // output data size" while most data-analysis jobs reduce their
    // input. (Model-training jobs can exceed input at tiny test scales
    // because vocabularies have not saturated, so the claim is checked
    // as: Sort ≈ 1.0, and a clear majority of workloads reduce.)
    let sort = job_model(Workload::Sort, Scale::bytes(48 << 10));
    assert!(
        (0.9..1.3).contains(&sort.output_ratio),
        "sort output ≈ input: {:.2}",
        sort.output_ratio
    );
    assert!(sort.shuffle_ratio > 0.9, "sort shuffles everything");
    let reducers = Workload::all()
        .iter()
        .filter(|&&w| w != Workload::Sort)
        .filter(|&&w| job_model(w, Scale::bytes(48 << 10)).output_ratio < sort.output_ratio)
        .count();
    assert!(
        reducers >= 7,
        "most workloads reduce their input: {reducers}/10"
    );
}
