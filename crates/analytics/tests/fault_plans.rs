//! A fault plan carried by `JobConfig::faults` reaches the engine through
//! `Workload::run`, exactly as an explicit plan does through
//! `Workload::run_with_faults`.

use dc_analytics::Workload;
use dc_datagen::Scale;
use dc_mapreduce::engine::JobConfig;
use dc_mapreduce::faults::{Fault, FaultPlan, TaskKind};

/// Fail every attempt of map task 0: no retry can save the job.
fn fatal_plan(cfg: &JobConfig) -> FaultPlan {
    (0..cfg.max_attempts).fold(FaultPlan::new(11), |plan, attempt| {
        plan.with_fault(TaskKind::Map, 0, attempt, Fault::IoError)
    })
}

#[test]
fn run_honours_the_configs_fault_plan() {
    let clean = JobConfig::default();
    let plan = fatal_plan(&clean);
    assert!(
        Workload::Sort
            .run_with_faults(Scale::tiny(), &clean, Some(&plan))
            .is_err(),
        "an explicit fatal plan fails the job"
    );
    let cfg = JobConfig {
        faults: Some(plan),
        ..JobConfig::default()
    };
    assert!(
        Workload::Sort.run(Scale::tiny(), &cfg).is_err(),
        "the same plan carried by the config fails the job too"
    );
    assert!(
        Workload::Sort
            .run_with_faults(Scale::tiny(), &cfg, Some(&FaultPlan::new(11)))
            .is_ok(),
        "an explicit plan replaces the config's"
    );
}
