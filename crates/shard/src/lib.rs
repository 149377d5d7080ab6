//! `kpm-shard` — distributed realization-sharded moment computation.
//!
//! The KPM stochastic trace is an average over `S x R` independent
//! realizations, which makes it embarrassingly parallel across machines —
//! *if* distribution does not change the answer. This crate guarantees it
//! does not: per-realization RNG streams derive from `(seed, s, r)` alone
//! ([`kpm::random::realization_stream`]), workers return per-realization
//! moment rows untouched, and the merge replays the exact single-process
//! reduction over the rows in canonical order. Merged moments are
//! **bitwise identical** to an unsharded run with the same seed, for any
//! worker count, shard split, or failure history.
//!
//! Layers, bottom up:
//! - [`wire`]: versioned length-prefixed binary frames (`f64` as raw bits,
//!   so no text round-trip can perturb a moment).
//! - [`transport`]: [`transport::Endpoint`] over TCP (worker processes) or
//!   in-process loopback channels (tests; same codec).
//! - [`job`]: [`ShardJob`] — DoS/LDoS/Kubo jobs with canonical lines, the
//!   worker compute half and the merge half.
//! - [`inventory`]: the worker's content-addressed warm-state cache —
//!   assembled operators and per-realization moment rows, advertised to
//!   the scheduler for locality-aware placement (DESIGN.md §13).
//! - [`worker`]: serve one connection; heartbeats answered during compute.
//! - [`scheduler`]: the one coordinator — [`Fleet`] dispatches the shards
//!   of many jobs over persistent workers with heartbeat death detection,
//!   backoff reassignment, speculative re-dispatch, locality-aware
//!   placement and cross-job stealing.
//! - [`journal`]: the fsync'd `KPFJ` row journal that makes a fleet's
//!   merges restartable.
//! - [`coordinator`]: [`run`] — one job as a one-job fleet (locality off,
//!   no journal).
//! - [`engine`]: [`ShardedEngine`] (one-job fleets over a worker set) and
//!   [`FleetEngine`] (a running fleet), both implementing
//!   [`kpm_serve::MomentEngine`], so `kpm serve`/`kpm batch`/`kpm fleet`
//!   execute their queues on workers while staying cache-compatible.
//!
//! See DESIGN.md §8 for the wire format, the determinism argument, and the
//! failure model, and §13 for fleet placement and the journal.

pub mod coordinator;
pub mod engine;
pub mod error;
pub mod inventory;
pub mod job;
pub mod journal;
pub mod scheduler;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::run;
pub use engine::{FleetEngine, ShardedEngine, WorkerSet};
pub use error::{FleetError, ShardError};
pub use inventory::Inventory;
pub use job::{MergedMoments, ShardJob};
pub use journal::{Journal, Replayed};
pub use scheduler::{Fleet, FleetClient, FleetPolicy, FleetStats, JobReceiver};
pub use transport::{loopback_pair, Endpoint};
pub use worker::{
    run_tcp_worker, run_tcp_worker_with, serve_endpoint, serve_endpoint_with,
    serve_endpoint_with_inventory, serve_listener, serve_listener_with, WorkerFault,
};
