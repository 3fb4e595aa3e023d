//! # dc-perfmon — the performance-monitoring layer
//!
//! The paper collects ~20 hardware events through Linux `perf` and
//! derives every figure from them. This crate does the same over the
//! simulated machine in `dc-cpu`: a [`dc_cpu::PerfCounts`] block is read
//! event by event ([`PerfEvent::extract`]) and turned into metrics.
//!
//! * [`events::PerfEvent`] — the event catalogue, each variant documented
//!   with the Westmere event it stands for (Intel SDM Vol. 3 appendix);
//! * [`metrics::Metrics`] — the derived per-workload metrics behind every
//!   figure of the paper (IPC, stall breakdown, MPKIs, walk rates,
//!   misprediction ratio);
//! * [`intervals`] — per-interval rates of an interval run, the
//!   `perf stat -I` view.
//!
//! ```
//! use dc_perfmon::{Metrics, PerfEvent};
//!
//! let counts = dc_cpu::PerfCounts { instructions: 1000, cycles: 2000, ..Default::default() };
//! assert_eq!(PerfEvent::InstructionsRetired.extract(&counts), 1000);
//! assert_eq!(PerfEvent::UnhaltedCycles.extract(&counts), 2000);
//! assert_eq!(Metrics::from_counts("demo", &counts).ipc, 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod intervals;
pub mod metrics;

pub use events::PerfEvent;
pub use intervals::{IntervalMetrics, IntervalSeries};
pub use metrics::Metrics;
