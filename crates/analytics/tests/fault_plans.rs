//! A fault plan carried by `JobConfig::faults` — the one place a plan is
//! set — reaches the engine through `Workload::run`.

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
    assert!(
        Workload::Sort.run(Scale::tiny(), &clean).is_ok(),
        "without a plan the job succeeds"
    );
    let cfg = JobConfig {
        faults: Some(fatal_plan(&clean)),
        ..JobConfig::default()
    };
    assert!(
        Workload::Sort.run(Scale::tiny(), &cfg).is_err(),
        "a fatal plan carried by the config fails the job"
    );
    let harmless = JobConfig {
        faults: Some(FaultPlan::new(11)),
        ..JobConfig::default()
    };
    assert!(
        Workload::Sort.run(Scale::tiny(), &harmless).is_ok(),
        "a plan with no faults changes nothing"
    );
}
