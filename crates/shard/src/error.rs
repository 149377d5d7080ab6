//! Error taxonomy of the distributed shard layer and its fleet scheduler.
//!
//! Transport failures ([`ShardError::Io`]) and missed heartbeats are
//! *recoverable per worker* — the scheduler reassigns the lost shards and
//! keeps going — so they surface from [`crate::coordinator::run`] only when
//! the last worker dies. Everything else (protocol violations, bad job
//! lines, deterministic compute errors reported by a worker) is fatal to
//! the run: retrying a deterministic failure on another worker would fail
//! identically.
//!
//! A [`FleetError`] surfaces per *job* (one submission fails without
//! taking the fleet down) or per *fleet* (journal I/O, a stopped
//! scheduler).

use std::fmt;

/// Why a distributed run (or one of its operations) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Socket/channel failure: connect, send, or receive on a transport.
    Io(String),
    /// A peer violated the wire protocol (bad magic, unknown version or
    /// frame type, truncated payload).
    Protocol(String),
    /// The shard job line itself is invalid (unparseable spec, unshardable
    /// backend, site out of range...).
    Job(String),
    /// A worker reported a deterministic compute failure for a shard; every
    /// worker would fail the same way, so the run aborts.
    Worker {
        /// Shard id the failure was reported for.
        shard: u32,
        /// Worker-rendered error message.
        message: String,
    },
    /// Every worker died before the run completed.
    AllWorkersDead {
        /// Shards still unfinished when the last worker was lost.
        pending: usize,
        /// Peer and error of the last connection that ended, when known.
        last_loss: Option<String>,
    },
    /// One shard exhausted its reassignment budget.
    ShardFailed {
        /// Shard id.
        shard: u32,
        /// Dispatch attempts consumed.
        attempts: u32,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(msg) => write!(f, "io: {msg}"),
            ShardError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ShardError::Job(msg) => write!(f, "job: {msg}"),
            ShardError::Worker { shard, message } => {
                write!(f, "worker failed shard {shard}: {message}")
            }
            ShardError::AllWorkersDead { pending, last_loss } => {
                write!(f, "all workers dead with {pending} shards pending")?;
                last_loss.as_ref().map_or(Ok(()), |l| write!(f, "; last lost {l}"))
            }
            ShardError::ShardFailed { shard, attempts } => {
                write!(f, "shard {shard} failed after {attempts} dispatch attempts")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e.to_string())
    }
}

/// Why a fleet job (or the fleet itself) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// Journal directory or file I/O failed.
    Journal(String),
    /// The submitted job line is invalid or unshardable.
    Job(String),
    /// A shard-layer failure terminal for one job (deterministic worker
    /// error, attempts exhausted, malformed rows).
    Shard(ShardError),
    /// No live worker remained long enough to finish the job.
    NoWorkers {
        /// Shards still unfinished when the job was abandoned.
        pending: usize,
        /// Peer and error of the last connection that ended, when known.
        last_loss: Option<String>,
    },
    /// The scheduler thread is gone (shut down, killed, or crashed); the
    /// submission can never complete.
    Stopped,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Journal(msg) => write!(f, "journal: {msg}"),
            FleetError::Job(msg) => write!(f, "job: {msg}"),
            FleetError::Shard(e) => write!(f, "shard: {e}"),
            FleetError::NoWorkers { pending, last_loss } => {
                write!(f, "no live workers with {pending} shards pending")?;
                last_loss.as_ref().map_or(Ok(()), |l| write!(f, "; last lost {l}"))
            }
            FleetError::Stopped => write!(f, "fleet scheduler stopped"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Journal(e.to_string())
    }
}

impl From<ShardError> for FleetError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Job(msg) => FleetError::Job(msg),
            ShardError::AllWorkersDead { pending, last_loss } => {
                FleetError::NoWorkers { pending, last_loss }
            }
            other => FleetError::Shard(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        assert_eq!(
            ShardError::Worker { shard: 3, message: "kpm: bad".into() }.to_string(),
            "worker failed shard 3: kpm: bad"
        );
        assert_eq!(
            ShardError::AllWorkersDead { pending: 2, last_loss: None }.to_string(),
            "all workers dead with 2 shards pending"
        );
        let refused = ShardError::AllWorkersDead {
            pending: 2,
            last_loss: Some("tcp:w: protocol: protocol version 3, expected 4..=4".into()),
        };
        assert_eq!(
            refused.to_string(),
            "all workers dead with 2 shards pending; \
             last lost tcp:w: protocol: protocol version 3, expected 4..=4"
        );
        assert!(ShardError::Protocol("bad magic".into()).to_string().contains("bad magic"));
    }

    #[test]
    fn io_error_converts() {
        let e: ShardError =
            std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused").into();
        assert!(matches!(e, ShardError::Io(_)));
    }

    #[test]
    fn display_and_conversions_carry_context() {
        assert!(FleetError::Journal("disk full".into()).to_string().contains("disk full"));
        let last_loss = Some("tcp:w: io: connection closed".to_string());
        let from_shard: FleetError =
            ShardError::AllWorkersDead { pending: 3, last_loss: last_loss.clone() }.into();
        assert_eq!(from_shard, FleetError::NoWorkers { pending: 3, last_loss });
        let from_job: FleetError = ShardError::Job("bad".into()).into();
        assert_eq!(from_job, FleetError::Job("bad".into()));
        let from_io: FleetError = std::io::Error::other("nope").into();
        assert!(matches!(from_io, FleetError::Journal(_)));
    }
}
