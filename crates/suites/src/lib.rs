//! # dc-suites — intentionally empty
//!
//! The paper's comparison suites (SPEC CPU2006, HPCC, SPECweb2005,
//! CloudSuite) are rows of counter readings, and each is a calibrated
//! workload profile in `dcbench::profiles`. The package stays only because
//! removing it, or `dcbench`'s dependency on it, rewrites
//! `perfbench/Cargo.lock`; it goes with a change allowed to rewrite that.

#![forbid(unsafe_code)]
