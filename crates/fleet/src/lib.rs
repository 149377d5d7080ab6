//! `kpm-fleet` — the fleet scheduler's names, re-exported from
//! `kpm-shard`.
//!
//! The fleet scheduler, its journal and [`FleetEngine`] live in
//! `kpm-shard`, where the scheduler is the only coordinator: a one-job
//! sharded run is a fleet with locality off. This crate keeps the paths
//! that `kpm-cli` and the repository benchmark (`perfbench`) import.

pub use kpm_shard::{Fleet, FleetEngine, FleetError, FleetPolicy, FleetStats, Journal};
