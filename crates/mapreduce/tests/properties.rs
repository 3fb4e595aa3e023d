//! Property-based invariants of the MapReduce engine and cluster model.

use dc_mapreduce::cluster::{simulate, speedup, ClusterConfig, JobModel};
use dc_mapreduce::engine::{run_job, JobConfig};
use dc_mapreduce::faults::{ChaosSpec, FaultPlan};
use proptest::prelude::*;

fn wordcount(lines: Vec<String>, cfg: &JobConfig) -> (Vec<(String, u64)>, dc_mapreduce::JobStats) {
    run_job(
        lines,
        cfg,
        |line: String, emit: &mut dyn FnMut(String, u64)| {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1);
            }
        },
        Some(&|_k: &String, vs: &[u64]| vec![vs.iter().sum::<u64>()]),
        |k: &String, vs: &[u64]| vec![(k.clone(), vs.iter().sum::<u64>())],
    )
    .expect("faults stay under max_attempts, so the job must complete")
}

proptest! {
    /// Parallelism never changes results; counters stay consistent.
    #[test]
    fn engine_is_deterministic_up_to_order(
        docs in proptest::collection::vec("[a-d ]{0,30}", 0..40),
        map_slots in 1usize..8,
        reduce_tasks in 1usize..6,
    ) {
        let cfg = JobConfig { map_slots, reduce_tasks, ..JobConfig::default() };
        let (mut out_a, stats) = wordcount(docs.clone(), &cfg);
        let (mut out_b, _) = wordcount(docs.clone(), &JobConfig::default());
        out_a.sort();
        out_b.sort();
        prop_assert_eq!(&out_a, &out_b);
        // Conservation: input words == sum of counts.
        let words: u64 = docs.iter().map(|d| d.split_whitespace().count() as u64).sum();
        let counted: u64 = out_a.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(words, counted);
        prop_assert!(stats.combine_output_records <= stats.map_output_records);
        prop_assert!(stats.reduce_output_records as usize == out_a.len());
    }

    /// Exactly-once under faults: for any seeded chaos plan whose
    /// failures stay under `max_attempts`, the fault-injected run's
    /// output and dataflow counters (records/bytes, not timings or
    /// recovery counters) are identical to the fault-free run.
    #[test]
    fn faulted_runs_match_fault_free_runs_exactly(
        docs in proptest::collection::vec("[a-d ]{0,30}", 0..40),
        map_tasks in 1usize..8,
        reduce_tasks in 1usize..5,
        seed in 0u64..1_000_000,
        fault_prob in 0.0f64..0.9,
    ) {
        let cfg = JobConfig { map_tasks, reduce_tasks, ..JobConfig::default() };
        // Up to 2 faulted attempts per task < max_attempts (4), so the
        // chaos run always completes.
        let plan = FaultPlan::chaos(
            seed,
            ChaosSpec { fault_prob, max_faulted_attempt: 2, slowdown_ms: 1 },
        );
        let chaos = JobConfig { faults: Some(plan), ..cfg.clone() };
        let (mut clean_out, clean_stats) = wordcount(docs.clone(), &cfg);
        let (mut chaos_out, chaos_stats) = wordcount(docs, &chaos);
        clean_out.sort();
        chaos_out.sort();
        prop_assert_eq!(chaos_out, clean_out);
        prop_assert_eq!(chaos_stats.data_counters(), clean_stats.data_counters());
    }

    /// Cluster makespans are positive, finite, and monotone in slaves.
    #[test]
    fn makespan_monotone_in_slaves(
        input_gb in 1.0f64..400.0,
        cpu in 1.0f64..400.0,
        shuffle in 0.0f64..2.0,
        output in 0.0f64..2.0,
    ) {
        let job = JobModel {
            name: "prop".into(),
            input_gb,
            map_cpu_secs_per_gb: cpu,
            shuffle_ratio: shuffle,
            reduce_cpu_secs_per_gb: cpu / 2.0,
            output_ratio: output,
            iterations: 1,
        };
        let mut prev = f64::INFINITY;
        for slaves in [1u32, 2, 4, 8] {
            let run = simulate(&ClusterConfig::paper(slaves), &job);
            prop_assert!(run.makespan_secs.is_finite() && run.makespan_secs > 0.0);
            prop_assert!(
                run.makespan_secs <= prev * 1.05,
                "{slaves} slaves should not be materially slower"
            );
            prev = run.makespan_secs;
        }
        let s8 = speedup(&job, 8);
        prop_assert!((0.9..=8.6).contains(&s8), "8-slave speedup {s8}");
    }

    /// A failed cluster never beats a healthy one, and never errors.
    #[test]
    fn failed_clusters_are_slower_never_broken(
        input_gb in 1.0f64..400.0,
        cpu in 1.0f64..400.0,
        at_secs in 0.0f64..2_000.0,
    ) {
        use dc_mapreduce::cluster::{simulate_with_failures, FailureModel};
        use dc_obs::Recorder;
        let job = JobModel {
            name: "prop-fail".into(),
            input_gb,
            map_cpu_secs_per_gb: cpu,
            shuffle_ratio: 0.5,
            reduce_cpu_secs_per_gb: cpu / 2.0,
            output_ratio: 0.5,
            iterations: 1,
        };
        let base = simulate(&ClusterConfig::paper(8), &job);
        let run = simulate_with_failures(
            &ClusterConfig::paper(8),
            &job,
            &FailureModel::single_loss(at_secs),
            &Recorder::disabled(),
        );
        prop_assert!(run.makespan_secs.is_finite());
        prop_assert!(run.makespan_secs >= base.makespan_secs - 1e-9);
        prop_assert!(run.reexecuted_work_secs >= 0.0);
        prop_assert!(run.rereplicated_mb >= 0.0);
    }
}
