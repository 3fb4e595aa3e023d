//! # dc-mapreduce — the MapReduce substrate
//!
//! The paper's eleven data-analysis workloads run on Hadoop 1.0.2 over a
//! 5-node cluster (one master, four slaves; 24 map and 12 reduce slots
//! per slave; 1 GbE). This crate provides both halves of that substrate:
//!
//! * [`engine`] — a real multi-threaded local MapReduce engine:
//!   input splits → map tasks → partition/sort/combine/spill → shuffle →
//!   merge → reduce tasks, with byte-accurate I/O accounting
//!   ([`engine::JobStats`]). The algorithms in `dc-analytics` execute on
//!   this engine for real.
//! * [`cluster`] — a discrete-event model of the multi-node Hadoop
//!   cluster (slot waves, disk and NIC bandwidth sharing, job setup
//!   overhead, shuffle/compute overlap, node failure and recovery).
//!   Driven by a [`cluster::JobModel`] whose dataflow ratios are
//!   *measured* on the local engine (`dcbench::cluster_experiments`
//!   builds them), the model regenerates the paper's Figure 2 (speed-up
//!   on 1/4/8 slaves) and Figure 5 (disk writes per second).
//! * [`faults`] — seeded, deterministic fault injection (task panics,
//!   stragglers, transient I/O errors) exercising the engine's
//!   Hadoop-style task-attempt recovery: retries with backoff,
//!   speculative execution, and exactly-once output commit.
//! * [`pool`] — the std-only scoped worker-pool primitives underneath
//!   the engine (closeable SPMC queue + deterministic `parallel_map`),
//!   shared with the `dcbench` characterization pipeline.
//!
//! Both halves are observable through `dc-obs`: [`engine::run_job`]
//! emits a live task-attempt timeline into [`engine::JobConfig::recorder`]
//! (wall-clock millisecond timestamps), and
//! [`cluster::simulate_with_failures`] emits the deterministic
//! phase/failure timeline of the cluster replay (simulated-millisecond
//! timestamps).
//!
//! ```
//! use dc_mapreduce::engine::{run_job, JobConfig};
//!
//! // Word count over two lines.
//! let inputs = vec!["a b a".to_string(), "b b".to_string()];
//! let (mut out, stats) = run_job(
//!     inputs,
//!     &JobConfig::default(),
//!     |line, emit| {
//!         for w in line.split(' ') {
//!             emit(w.to_string(), 1u64);
//!         }
//!     },
//!     Some(&|_k: &String, vs: &[u64]| vec![vs.iter().sum::<u64>()]),
//!     |k, vs| vec![(k.clone(), vs.iter().sum::<u64>())],
//! )
//! .expect("no task exhausted its attempts");
//! out.sort();
//! assert_eq!(out, vec![("a".into(), 2), ("b".into(), 3)]);
//! assert!(stats.map_output_records >= 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod pool;

pub use bytes::ByteSize;
pub use cluster::{
    simulate_with_failures, ClusterConfig, ClusterRun, FailureModel, JobModel, NodeFailure,
};
pub use engine::{run_job, JobConfig, JobError, JobStats};
pub use faults::{ChaosSpec, Fault, FaultPlan, TaskKind};
pub use pool::{parallel_map, SpmcQueue};
