//! The KPM suite's benchmark: two workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a traced run.
//!
//! The benchmark drives the system through public APIs only. Per-layer
//! numbers come from timing the benchmark's own calls into each layer's
//! public functions, plus the program's existing obs counters; nothing
//! inside the program is instrumented for it. `BENCHMARK.json` at the
//! repository root lists the workloads, metrics and bounds; `README.md`
//! beside this crate says how to run it.

pub mod gen;
pub mod host;
pub mod inproc;
pub mod layers;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
