//! # dc-benches — CI's measurement and artifact checks
//!
//! Three binaries, each the one path from code to a checked number:
//!
//! * `dc-bench` — times every distinct hot path (characterization
//!   matrix, engine, cluster model, chip co-run, sweeps, store,
//!   subsetting, daemon) and gates the run against
//!   `BENCH_baseline.json`; its `server_throughput` clients talk to the
//!   in-process daemon through `dc_server::client`, the workspace's one
//!   protocol client;
//! * `obs-schema-check` — validates `dc-obs` JSONL artifacts against
//!   [`schema`] and metrics expositions against [`metrics_text`];
//! * `sampled-validation` — holds SMARTS sampled simulation to its
//!   documented error bounds.
//!
//! Exhibits are regenerated by the `characterize_all`, `sweeps`,
//! `phases` and `subsetting` examples; the end-to-end benchmark is the
//! separate `perfbench` package.

pub mod metrics_text;
pub mod schema;
