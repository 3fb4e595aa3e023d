//! # dc-perfmon — the performance-monitoring layer
//!
//! The paper collects ~20 events by programming Westmere performance
//! event-select MSRs through Linux `perf`. This crate reproduces that
//! interface over the simulated machine in `dc-cpu`:
//!
//! * [`events::PerfEvent`] — the event catalogue with Westmere event-select
//!   codes and umasks (from the Intel SDM appendix the paper cites);
//! * [`msr`] — `IA32_PERFEVTSELx` / `IA32_PMCx` register pairs and a
//!   [`msr::Pmu`] that counts programmed events out of a
//!   [`dc_cpu::PerfCounts`] block, the way `perf stat` reads MSRs;
//! * [`metrics::Metrics`] — the derived per-workload metrics behind every
//!   figure of the paper (IPC, stall breakdown, MPKIs, walk rates,
//!   misprediction ratio);
//! * [`intervals`] — per-interval rates of an interval run, the
//!   `perf stat -I` view;
//! * [`osstat`] — `/proc`-style OS-level statistics (disk writes,
//!   network traffic) used by Figure 5.
//!
//! ```
//! use dc_perfmon::events::PerfEvent;
//! use dc_perfmon::msr::Pmu;
//!
//! let mut pmu = Pmu::new();
//! pmu.program(0, PerfEvent::InstructionsRetired);
//! pmu.program(1, PerfEvent::UnhaltedCycles);
//! let counts = dc_cpu::PerfCounts { instructions: 1000, cycles: 2000, ..Default::default() };
//! pmu.observe(&counts);
//! assert_eq!(pmu.read(0), 1000);
//! assert_eq!(pmu.read(1), 2000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod intervals;
pub mod metrics;
pub mod msr;
pub mod osstat;

pub use events::PerfEvent;
pub use intervals::{IntervalMetrics, IntervalSeries};
pub use metrics::Metrics;
pub use msr::{ChipPmu, Pmu};
pub use osstat::OsStats;
