//! # dc-cpu — cycle-level out-of-order CPU model
//!
//! The micro-architecture substrate of the dcbench-rs reproduction of
//! "Characterizing Data Analysis Workloads in Data Centers" (IISWC 2013).
//! The paper reads ~20 hardware events from Intel Xeon E5645 (Westmere)
//! performance counters; this crate provides the machine those events
//! come from:
//!
//! * [`config::CpuConfig`] — Table III's machine description (caches,
//!   TLBs, window sizes, latencies) plus ablation knobs;
//! * [`cache`] — set-associative LRU caches, the three-level hierarchy
//!   and the L2 stream prefetcher;
//! * [`tlb`] — split L1 TLBs with a shared second level and page-walk
//!   accounting;
//! * [`branch`] — gshare + BTB branch prediction;
//! * [`core`] — the timestamp-based out-of-order pipeline model with
//!   paper-style stall attribution (fetch / RAT / RS / ROB / load /
//!   store buffer);
//! * [`chip`] — N cores in deterministic lockstep behind one shared,
//!   contended L3, modelling co-running Hadoop task slots, and the one
//!   cycle loop every run uses (a [`Core`] is a one-core chip);
//! * [`intervals`] — `perf stat -I`-style interval series of the
//!   counters, recorded by that loop;
//! * [`shared_trace`] — one synthesized trace run on several machine
//!   configurations at once, the driver behind a sweep curve;
//! * [`counters::PerfCounts`] — every event the paper reports, with the
//!   derived metrics used by each figure, and the fixed-order array
//!   codec ([`counters::to_array`]) the persistent store writes.
//!
//! ```
//! use dc_cpu::{config::CpuConfig, core::{simulate, SimOptions}};
//! use dc_trace::{profile::WorkloadProfile, synth::SyntheticTrace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profile = WorkloadProfile::builder("demo").build()?;
//! let trace = SyntheticTrace::new(&profile, 42);
//! let counts = simulate(trace, &CpuConfig::westmere_e5645(), &SimOptions::quick());
//! assert!(counts.ipc() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod chip;
pub mod config;
pub mod core;
pub mod counters;
pub mod intervals;
pub mod shared_trace;
pub mod tlb;

pub use crate::chip::Chip;
pub use crate::config::{ConfigError, CpuConfig};
pub use crate::core::{simulate, Core, SamplePlan, SimOptions};
pub use crate::counters::PerfCounts;
pub use crate::intervals::{IntervalRun, IntervalSample};
pub use crate::shared_trace::simulate_configs;
