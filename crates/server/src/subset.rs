//! The `subset` verb: Exhibit SS computed daemon-side.
//!
//! A `subset` request characterizes the eleven data-analysis workloads
//! (through the process-wide memoizing cache — a warm daemon answers
//! with **zero** simulations), runs the [`dcbench::stats`] pipeline
//! (z-score → Jacobi PCA → agglomerative clustering → medoids), and
//! returns the canonical subset JSON. The verb is synchronous, like
//! `stats`: the exhibit for quick windows is a sub-second computation
//! on a warm cache, and the result is a pure function of the spec, so
//! there is no job state to track.
//!
//! The `output` object is rendered by [`dcbench::stats::Subset::to_json`]
//! — the same renderer the `subsetting` example uses — so a daemon
//! response byte-matches the offline artifact for the same spec. The
//! `simulations` count sits outside `output`, mirroring the job-status
//! envelope: it names this process's cache history, not the result.

use crate::protocol::{code, ProtoError, SubsetSpec};
use dc_cpu::CpuConfig;
use dcbench::registry::BenchmarkId;
use dcbench::Characterizer;

/// Compute Exhibit SS for `spec`. Returns the rendered result object
/// `{"output":…,"simulations":N}` where `output` is the canonical
/// subset JSON and `simulations` counts the cache misses this request
/// actually simulated (0 on a warm daemon). A panic anywhere in the
/// pipeline is caught and surfaced as a structured error — the daemon
/// never dies with a request.
pub fn run(spec: &SubsetSpec) -> Result<String, ProtoError> {
    let spec = *spec;
    let outcome = std::panic::catch_unwind(move || {
        let base = Characterizer::new(
            CpuConfig::westmere_e5645(),
            spec.window.sim_options(),
            spec.seed,
        );
        // The job executor's lookup path: hits answered on this thread,
        // misses fanned across the shared pool, telemetry captured per
        // request so the simulation count stays exact even when jobs
        // run concurrently against the same cache.
        let (rows, events) = crate::jobs::characterize(&base, BenchmarkId::data_analysis(), 1);
        let simulations = crate::jobs::simulations(&events);
        let subset = dcbench::stats::subset_of_metrics(&rows, spec.k as usize, spec.linkage);
        let output = subset.to_json(spec.window.as_str(), spec.seed);
        let mut result = String::with_capacity(output.len() + 32);
        result.push_str("{\"output\":");
        result.push_str(&output);
        use std::fmt::Write as _;
        let _ = write!(result, ",\"simulations\":{simulations}");
        result.push('}');
        result
    });
    outcome.map_err(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "subset computation panicked".into());
        ProtoError::new(code::BAD_REQUEST, format!("subset failed: {msg}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Window;
    use dcbench::stats::Linkage;

    #[test]
    fn warm_subset_matches_offline_render_with_zero_simulations() {
        let spec = SubsetSpec {
            k: 4,
            linkage: Linkage::Complete,
            window: Window::Quick,
            seed: 0x55E7_2013,
        };
        let cold = run(&spec).expect("computes");
        let warm = run(&spec).expect("computes");
        // Cold ran some simulations; warm served every row from cache.
        assert!(cold.ends_with('}'));
        assert!(warm.contains("\"simulations\":0"), "warm: {warm}");
        // The output object is byte-identical cold vs warm, and
        // byte-matches the offline pipeline for the same spec.
        let strip = |s: &str| s[..s.rfind(",\"simulations\":").expect("envelope")].to_string();
        assert_eq!(strip(&cold), strip(&warm));
        let bench = Characterizer::new(
            CpuConfig::westmere_e5645(),
            spec.window.sim_options(),
            spec.seed,
        );
        let offline = dcbench::report::subset_exhibit(&bench, 4, Linkage::Complete)
            .to_json("quick", spec.seed);
        assert_eq!(strip(&cold), format!("{{\"output\":{offline}"));
    }
}
