//! # dc-analytics — the eleven data-analysis workloads
//!
//! From-scratch Rust implementations of every workload the paper
//! characterizes (Table I), each with a pure algorithmic kernel and a
//! MapReduce job running on the real `dc-mapreduce` engine:
//!
//! | # | Module | Paper source | Input |
//! |---|--------|--------------|-------|
//! | 1 | [`sort`] | Hadoop example | 150 GB documents |
//! | 2 | [`wordcount`] | Hadoop example | 154 GB documents |
//! | 3 | [`grep`] | Hadoop example | 154 GB documents |
//! | 4 | [`naive_bayes`] | Mahout | 147 GB text |
//! | 5 | [`svm`] | authors' impl. | 148 GB html |
//! | 6 | [`kmeans`] | Mahout | 150 GB vectors |
//! | 7 | [`fuzzy_kmeans`] | Mahout | 150 GB vectors |
//! | 8 | [`ibcf`] | Mahout | 147 GB ratings |
//! | 9 | [`hmm`] | authors' impl. | 147 GB html |
//! | 10 | [`pagerank`] | Mahout | 187 GB web pages |
//! | 11 | [`hive`] | Hive-bench | 156 GB DB tables |
//!
//! [`workload`] provides the uniform registry ([`workload::Workload`])
//! used by the characterization harness: Table II scenario metadata,
//! Table I input sizes, and a fallible `run` entry point that executes
//! the real job at a chosen scale — under whatever seeded fault plan and
//! recorder the `JobConfig` carries — and returns measured engine
//! statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzzy_kmeans;
pub mod grep;
pub mod hive;
pub mod hmm;
pub mod ibcf;
pub mod kmeans;
pub mod naive_bayes;
pub mod pagerank;
pub mod sort;
pub mod svm;
pub mod wordcount;
pub mod workload;

pub use workload::{Workload, WorkloadRun};
