//! # dc-datagen — deterministic workload-input generators
//!
//! The paper runs its eleven data-analysis workloads on 147-187 GB
//! production-scale inputs (Table I). This crate generates scaled-down
//! synthetic equivalents with the same statistical structure, so the
//! algorithms in `dc-analytics` exercise the same code paths:
//!
//! * [`text`] — Zipf-distributed word corpora (Sort/WordCount/Grep
//!   documents, Naive Bayes labeled text);
//! * [`vectors`] — Gaussian-mixture feature vectors (K-means /
//!   Fuzzy K-means);
//! * [`ratings`] — user-item rating triples (IBCF);
//! * [`graph`] — preferential-attachment web graphs (PageRank);
//! * [`tables`] — `rankings` / `uservisits` relational tables
//!   (Hive-bench).
//!
//! Every generator takes a seed and a [`Scale`] so experiments are
//! reproducible and the input-size knob is explicit (EXPERIMENTS.md
//! records the scale used for each reproduced figure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod ratings;
pub mod tables;
pub mod text;
pub mod vectors;

/// Input-size knob, expressed as a fraction of the paper's inputs.
///
/// `Scale::tiny()` (test-sized) through `Scale::paper()` (the 147-187 GB
/// originals, not materializable here but representable for
/// bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Target bytes of generated input.
    pub bytes: u64,
}

impl Scale {
    /// Test-sized inputs (~256 KiB).
    pub fn tiny() -> Self {
        Scale { bytes: 256 << 10 }
    }

    /// Example/bench-sized inputs (~8 MiB).
    pub fn small() -> Self {
        Scale { bytes: 8 << 20 }
    }

    /// Larger experiment inputs (~64 MiB).
    pub fn medium() -> Self {
        Scale { bytes: 64 << 20 }
    }

    /// A custom byte size.
    pub fn bytes(bytes: u64) -> Self {
        Scale { bytes }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::tiny().bytes < Scale::small().bytes);
        assert!(Scale::small().bytes < Scale::medium().bytes);
        assert_eq!(Scale::bytes(42).bytes, 42);
    }
}
