//! `dc-server`: the characterization stack as a long-running daemon.
//!
//! The paper's measurements come from a fleet-side vantage point —
//! long-lived Hadoop services observed over many jobs — while every
//! driver in this repo so far has been a one-shot process: run, print,
//! exit, forget. `dc-server` closes that gap. One daemon process keeps
//! the process-wide memo cache, the `DCBENCH_STORE` warm-start, and the
//! worker pool resident, and any number of clients submit
//! characterization jobs over a line-delimited JSON protocol (stdio or
//! TCP). The second client asking for a sweep the first client already
//! ran is answered from memory: **zero** simulations, byte-identical
//! `output`.
//!
//! Four layers, and the client that speaks to them:
//!
//! * [`protocol`] — framing, request parsing, response rendering, the
//!   error-code vocabulary. Total over arbitrary bytes: malformed input
//!   becomes a structured error response, never a panic, never a
//!   dropped connection.
//! * [`jobs`] — the job state machine and the per-job [`jobs::EventLog`]
//!   that `stream` replays and follows; job event streams are
//!   deterministic at any worker count.
//! * [`server`] — the bounded queue, the executor pool, and the
//!   connection loop shared by the TCP and stdio transports.
//! * [`subset`] — the synchronous `subset` verb: Exhibit SS (PCA +
//!   hierarchical subsetting) computed daemon-side from the shared
//!   cache.
//! * [`client`] — the client side of the protocol: one connection type
//!   with request ids, `stream` following, the byte-exact `output`
//!   extractor and the `stats` decoder. Every client in the workspace
//!   uses it.
//!
//! The `dc-server` binary is the daemon; `dc-server-client` is the
//! scripted client the CI smoke job (and the README examples) drive
//! sessions with, and `dc-top` renders the `stats` verb. Protocol
//! details live in `DESIGN.md` §12.

#![warn(missing_docs)]

pub mod client;
pub mod jobs;
pub mod protocol;
pub mod server;
pub mod subset;

pub use jobs::{EventLog, Job, JobState};
pub use protocol::{JobSpec, ProtoError, Request, RequestId, SubsetSpec, Window};
pub use server::{Server, ServerConfig};
