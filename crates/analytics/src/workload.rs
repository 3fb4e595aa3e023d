//! The workload registry: uniform access to all eleven workloads with
//! the paper's Table I/II metadata.

use crate::{
    fuzzy_kmeans, grep, hive, hmm, ibcf, kmeans, naive_bayes, pagerank, sort, svm, wordcount,
};
use dc_datagen::{graph, ratings, tables, text, vectors, Scale};
use dc_mapreduce::engine::{JobConfig, JobError, JobStats};
use std::fmt;

/// The eleven data-analysis workloads (Table I order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 1 — Sort (Hadoop example).
    Sort,
    /// 2 — WordCount (Hadoop example).
    WordCount,
    /// 3 — Grep (Hadoop example).
    Grep,
    /// 4 — Naive Bayes (Mahout).
    NaiveBayes,
    /// 5 — SVM (authors' implementation).
    Svm,
    /// 6 — K-means (Mahout).
    KMeans,
    /// 7 — Fuzzy K-means (Mahout).
    FuzzyKMeans,
    /// 8 — Item-based collaborative filtering (Mahout).
    Ibcf,
    /// 9 — HMM segmentation (authors' implementation).
    Hmm,
    /// 10 — PageRank (Mahout).
    PageRank,
    /// 11 — Hive-bench (HIVE-396).
    HiveBench,
}

/// Result of running one workload for real on the local engine.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Which workload ran.
    pub workload: Workload,
    /// Measured engine statistics (accumulated over iterations).
    pub stats: JobStats,
    /// Number of output records/results produced (sanity signal).
    pub outputs: usize,
}

impl Workload {
    /// All eleven, in Table I order.
    pub fn all() -> &'static [Workload] {
        use Workload::*;
        &[
            Sort,
            WordCount,
            Grep,
            NaiveBayes,
            Svm,
            KMeans,
            FuzzyKMeans,
            Ibcf,
            Hmm,
            PageRank,
            HiveBench,
        ]
    }

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Sort => "Sort",
            Workload::WordCount => "WordCount",
            Workload::Grep => "Grep",
            Workload::NaiveBayes => "Naive Bayes",
            Workload::Svm => "SVM",
            Workload::KMeans => "K-means",
            Workload::FuzzyKMeans => "Fuzzy K-means",
            Workload::Ibcf => "IBCF",
            Workload::Hmm => "HMM",
            Workload::PageRank => "PageRank",
            Workload::HiveBench => "Hive-bench",
        }
    }

    /// Paper input size in GB (Table I).
    pub fn paper_input_gb(&self) -> u64 {
        match self {
            Workload::Sort => 150,
            Workload::WordCount => 154,
            Workload::Grep => 154,
            Workload::NaiveBayes => 147,
            Workload::Svm => 148,
            Workload::KMeans => 150,
            Workload::FuzzyKMeans => 150,
            Workload::Ibcf => 147,
            Workload::Hmm => 147,
            Workload::PageRank => 187,
            Workload::HiveBench => 156,
        }
    }

    /// Paper retired-instruction count in billions (Table I).
    pub fn paper_giga_instructions(&self) -> u64 {
        match self {
            Workload::Sort => 4_578,
            Workload::WordCount => 3_533,
            Workload::Grep => 1_499,
            Workload::NaiveBayes => 68_131,
            Workload::Svm => 2_051,
            Workload::KMeans => 3_227,
            Workload::FuzzyKMeans => 15_470,
            Workload::Ibcf => 32_340,
            Workload::Hmm => 1_841,
            Workload::PageRank => 18_470,
            Workload::HiveBench => 3_659,
        }
    }

    /// Input-data description (Table I).
    pub fn input_kind(&self) -> &'static str {
        match self {
            Workload::Sort => "documents",
            Workload::WordCount | Workload::Grep => "documents",
            Workload::NaiveBayes => "text",
            Workload::Svm | Workload::Hmm => "html file",
            Workload::KMeans | Workload::FuzzyKMeans => "vector",
            Workload::Ibcf => "ratings data",
            Workload::PageRank => "web page",
            Workload::HiveBench => "DBtable",
        }
    }

    /// Upstream implementation source (Table I).
    pub fn paper_source(&self) -> &'static str {
        match self {
            Workload::Sort | Workload::WordCount | Workload::Grep => "Hadoop example",
            Workload::NaiveBayes
            | Workload::KMeans
            | Workload::FuzzyKMeans
            | Workload::Ibcf
            | Workload::PageRank => "mahout",
            Workload::Svm | Workload::Hmm => "our implementation",
            Workload::HiveBench => "Hivebench",
        }
    }

    /// Application scenarios per domain (Table II).
    pub fn scenarios(&self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::Grep => &[
                ("search engine", "Log analysis"),
                ("social network", "Web information extraction"),
                ("electronic commerce", "Fuzzy search"),
            ],
            Workload::NaiveBayes => &[
                ("social network", "Spam recognition"),
                ("electronic commerce", "Web page classification"),
            ],
            Workload::Svm => &[
                ("social network", "Image Processing"),
                ("electronic commerce", "Data Mining / Text Categorization"),
            ],
            Workload::PageRank => &[("search engine", "Compute the page rank")],
            Workload::FuzzyKMeans => &[
                ("search engine", "Image processing"),
                ("social network", "High-resolution landform"),
            ],
            Workload::KMeans => &[
                ("electronic commerce", "classification"),
                ("social network", "Speech recognition"),
            ],
            Workload::Hmm => &[
                ("search engine", "Word Segmentation"),
                ("search engine", "Handwriting recognition"),
            ],
            Workload::WordCount => &[
                ("search engine", "Word frequency count"),
                ("social network", "Calculating the TF-IDF value"),
                ("electronic commerce", "Obtaining the user operations count"),
            ],
            Workload::Sort => &[
                ("electronic commerce", "Document sorting"),
                ("search engine", "Pages sorting"),
            ],
            Workload::Ibcf => &[
                ("electronic commerce", "Recommend goods"),
                ("social network", "Recommend friends"),
                ("search engine", "Recommend key words"),
            ],
            Workload::HiveBench => &[
                ("search engine", "Data warehouse"),
                ("social network", "Data warehouse"),
                ("electronic commerce", "Data warehouse"),
            ],
        }
    }

    /// Iterations used when scaling to cluster job models (iterative
    /// algorithms chain several MapReduce jobs).
    pub fn typical_iterations(&self) -> u32 {
        match self {
            Workload::KMeans => 5,
            Workload::FuzzyKMeans => 5,
            Workload::PageRank => 8,
            Workload::Svm => 3,
            _ => 1,
        }
    }

    /// Execute the workload **for real** on the local MapReduce engine at
    /// the given input scale, with a fixed seed.
    ///
    /// `cfg` reaches every constituent job unchanged: a plan in
    /// `cfg.faults` makes the chosen task attempts panic, stall, or fail
    /// with transient I/O errors in the map/reduce phases of *each* job
    /// (iterative workloads — K-means, PageRank, … — re-apply it on every
    /// iteration, like a flaky node harassing a whole job chain), and the
    /// engine's recovery must still deliver the exact fault-free output;
    /// an enabled `cfg.recorder` receives every job's timeline in turn.
    ///
    /// # Errors
    /// Fails when a task exhausts its attempts (see [`JobError`]), e.g.
    /// with a plan that panics `max_attempts` times in the same task;
    /// without injected faults this cannot happen.
    pub fn run(&self, scale: Scale, cfg: &JobConfig) -> Result<WorkloadRun, JobError> {
        let seed = 0xDCBE ^ (*self as u64);
        let (outputs, stats) = match self {
            Workload::Sort => {
                let docs = text::documents(seed, scale, 12);
                let (out, stats) = sort::run(docs, cfg)?;
                (out.len(), stats)
            }
            Workload::WordCount => {
                let docs = text::documents(seed, scale, 80);
                let (out, stats) = wordcount::run(docs, cfg)?;
                (out.len(), stats)
            }
            Workload::Grep => {
                let docs = text::documents(seed, scale, 80);
                let (out, stats) = grep::run(docs, "w012..", cfg)?;
                (out.len(), stats)
            }
            Workload::NaiveBayes => {
                let docs = text::labeled_documents(seed, scale, 4, 60);
                let (model, stats) = naive_bayes::train(docs, 4, cfg)?;
                (model.log_prior.len(), stats)
            }
            Workload::Svm => {
                let bytes = scale.bytes / 4; // vectors are denser than text
                let (data, _) = vectors::linearly_separable(seed, Scale::bytes(bytes), 16, 0.05);
                let (model, stats) = svm::train(&data, 16, 0.01, 3, cfg)?;
                (model.w.len(), stats)
            }
            Workload::KMeans => {
                let set = vectors::gaussian_mixture(seed, scale, 8, 16);
                let result = kmeans::run(&set.points, 8, 5, 1e-3, cfg)?;
                (result.centers.len(), result.stats)
            }
            Workload::FuzzyKMeans => {
                let small = Scale::bytes(scale.bytes / 2); // k× shuffle blow-up
                let set = vectors::gaussian_mixture(seed, small, 8, 16);
                let result = fuzzy_kmeans::run(&set.points, 8, 2.0, 5, 1e-3, cfg)?;
                (result.centers.len(), result.stats)
            }
            Workload::Ibcf => {
                let set = ratings::ratings(seed, scale, 8);
                let (model, stats) = ibcf::train(&set, cfg)?;
                (model.sim.len(), stats)
            }
            Workload::Hmm => {
                let docs = text::documents(seed, scale, 40);
                let (model, stats) = hmm::train(docs, cfg)?;
                (model.emit.len(), stats)
            }
            Workload::PageRank => {
                let g = graph::web_graph(seed, scale, 12);
                let result = pagerank::run(&g, 0.85, 8, 1e-8, cfg)?;
                (result.ranks.len(), result.stats)
            }
            Workload::HiveBench => {
                let w = tables::warehouse(seed, scale);
                let (n, stats) = hive::run_suite(&w, cfg)?;
                (n, stats)
            }
        };
        Ok(WorkloadRun {
            workload: *self,
            stats,
            outputs,
        })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_eleven_workloads() {
        assert_eq!(Workload::all().len(), 11);
    }

    #[test]
    fn table_i_metadata_matches_paper() {
        assert_eq!(Workload::Sort.paper_input_gb(), 150);
        assert_eq!(Workload::PageRank.paper_input_gb(), 187);
        assert_eq!(Workload::NaiveBayes.paper_giga_instructions(), 68_131);
        assert_eq!(Workload::Grep.paper_giga_instructions(), 1_499);
        assert_eq!(Workload::Svm.paper_source(), "our implementation");
        assert_eq!(Workload::KMeans.paper_source(), "mahout");
    }

    #[test]
    fn every_workload_has_scenarios() {
        for w in Workload::all() {
            assert!(!w.scenarios().is_empty(), "{w} lacks Table II scenarios");
            assert!(!w.input_kind().is_empty());
        }
    }

    #[test]
    fn every_workload_runs_at_tiny_scale() {
        let cfg = JobConfig::default();
        for w in Workload::all() {
            let run = w.run(Scale::bytes(24 << 10), &cfg).expect("fault-free run");
            assert!(run.stats.map_input_records > 0, "{w}: no input consumed");
            assert!(run.outputs > 0, "{w}: no outputs produced");
            assert!(run.stats.total_ms() < 120_000, "{w}: unreasonably slow");
        }
    }

    #[test]
    fn every_workload_survives_first_attempt_faults() {
        use dc_mapreduce::faults::{Fault, FaultPlan, TaskKind};
        let cfg = JobConfig::default();
        let scale = Scale::bytes(24 << 10);
        // Panic the first attempt of one map and one reduce task of every
        // constituent job; recovery must reproduce the clean data counters.
        let plan = FaultPlan::new(7)
            .with_fault(TaskKind::Map, 0, 0, Fault::Panic)
            .with_fault(TaskKind::Reduce, 0, 0, Fault::IoError);
        let faulted_cfg = JobConfig {
            faults: Some(plan),
            ..cfg.clone()
        };
        for w in Workload::all() {
            let clean = w.run(scale, &cfg).expect("fault-free run");
            let faulted = w
                .run(scale, &faulted_cfg)
                .unwrap_or_else(|e| panic!("{w} failed under faults: {e}"));
            assert_eq!(faulted.outputs, clean.outputs, "{w}: outputs differ");
            assert_eq!(
                faulted.stats.data_counters(),
                clean.stats.data_counters(),
                "{w}: dataflow counters differ under faults"
            );
            assert!(
                faulted.stats.failed_attempts > 0,
                "{w}: plan injected no faults"
            );
        }
    }

    #[test]
    fn names_are_figure_labels() {
        let names: Vec<&str> = Workload::all().iter().map(|w| w.name()).collect();
        assert!(names.contains(&"Naive Bayes"));
        assert!(names.contains(&"Fuzzy K-means"));
        assert!(names.contains(&"Hive-bench"));
    }
}
