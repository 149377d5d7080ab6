//! The versioned, length-prefixed binary wire protocol.
//!
//! Framing (magic `KPSH`, version checked on every frame) rides on the
//! shared [`kpm_wire`] codec — the same discipline `kpm-net` uses with its
//! own magic — so both protocols share one header layout, one payload
//! reader, and one set of bit-exact `f64` primitives. See `kpm-wire` for
//! the byte-level format.
//!
//! Moment rows travel as raw IEEE-754 bit patterns (`f64::to_bits`), never
//! through decimal formatting, so a value arrives bit-for-bit as computed —
//! the transport can not perturb the exact-merge guarantee.
//!
//! A version mismatch is a [`ShardError::Protocol`], not a best-effort
//! parse, because silently reinterpreting frames across protocol revisions
//! could corrupt moments without failing loudly.

use crate::error::ShardError;
use kpm_wire::{put_str, put_u32, put_u64, Codec, Reader, WireError};

/// Frame preamble.
pub const MAGIC: [u8; 4] = *b"KPSH";
/// Protocol revision; bump on any change to framing or payload layout, or
/// to the moment family the rows belong to. Version 2 added the
/// spec-deduplicated dispatch frames ([`Frame::SpecAnnounce`] /
/// [`Frame::RequestRef`]) and the fleet inventory exchange
/// ([`Frame::InventoryQuery`] / [`Frame::Inventory`]). Versions 3 and 4
/// change no layout, only the moment family: version 3 workers compute rows
/// with the moment-doubling recursion, whose bits differ at rounding level
/// from the plain-loop rows of a version 1 or 2 worker, and version 4
/// workers run every plan on the tiled engine, where a version 3 worker ran
/// operators below `kpm::exec::ROW_MIN_DIM` through the untiled recursion.
/// A run merges rows of one family only.
pub const VERSION: u16 = 4;
/// Oldest protocol revision the decoder still accepts: [`VERSION`], so a
/// peer computing rows of another family fails loudly instead of joining a
/// run.
pub const MIN_VERSION: u16 = 4;
/// Header length: magic + version + type + payload length.
pub const HEADER_LEN: usize = kpm_wire::HEADER_LEN;
/// Payloads above this are rejected as protocol violations (a corrupted
/// length prefix must not trigger a multi-gigabyte allocation).
pub const MAX_PAYLOAD: u32 = kpm_wire::MAX_PAYLOAD;

/// The shard protocol's framing identity on the shared codec.
pub const CODEC: Codec = Codec { magic: MAGIC, version: VERSION };

impl From<WireError> for ShardError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(msg) => ShardError::Io(msg),
            WireError::Protocol(msg) => ShardError::Protocol(msg),
        }
    }
}

/// One realization-range assignment for a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// Coordinator-chosen run id (echoed back in results).
    pub job: u64,
    /// Shard id within the run's [`kpm::shard_plan`].
    pub shard: u32,
    /// First realization index (canonical `idx = s * R + r`).
    pub start: u64,
    /// One past the last realization index.
    pub end: u64,
    /// Canonical shard-job line ([`crate::job::ShardJob::canonical`]); the
    /// worker rebuilds the Hamiltonian deterministically from it.
    pub spec: String,
}

/// A completed shard: per-realization moment vectors, bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Run id echoed from the request.
    pub job: u64,
    /// Shard id echoed from the request.
    pub shard: u32,
    /// Row `i` is realization `start + i` of the request's range.
    pub rows: Vec<Vec<f64>>,
}

/// One contiguous run of warm per-realization rows in a worker's
/// inventory: realizations `start..end` of the row family `key` are cached
/// at `n` moments each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRun {
    /// Row-family hash ([`crate::job::ShardJob::row_key`]).
    pub key: u64,
    /// First cached realization index.
    pub start: u64,
    /// One past the last cached realization index.
    pub end: u64,
    /// Moments per cached row (prefix-servable for dos/ldos families).
    pub n: u32,
}

/// A worker's content-addressed warm-state advertisement: which assembled
/// operators, per-realization row prefixes, and tuned execution profiles it
/// already holds. The fleet scheduler scores placements against this.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InventoryReport {
    /// Operator hashes ([`crate::job::ShardJob::op_key`]) of assembled
    /// Hamiltonians held in memory.
    pub ops: Vec<u64>,
    /// Warm per-realization row runs.
    pub rows: Vec<RowRun>,
    /// Keys of tuned [`kpm::tune::ExecProfile`]s resident in the worker's
    /// profile store.
    pub profiles: Vec<u64>,
}

/// Every message of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator liveness probe.
    Ping {
        /// Echoed in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Worker liveness reply.
    Pong {
        /// Nonce from the probe.
        nonce: u64,
    },
    /// Shard assignment.
    Request(ShardRequest),
    /// Shard completion.
    Result(ShardResult),
    /// Worker-side deterministic compute failure for a shard.
    WorkerError {
        /// Run id.
        job: u64,
        /// Shard id.
        shard: u32,
        /// Rendered error.
        message: String,
    },
    /// Coordinator tells the worker this session is over.
    Shutdown,
    /// Registers a job's canonical spec line under its run id for this
    /// connection, so later [`Frame::RequestRef`]s (first dispatch, steals,
    /// speculative re-dispatch) are O(1) in spec size (v2).
    SpecAnnounce {
        /// Run id later requests reference.
        job: u64,
        /// Canonical shard-job line ([`crate::job::ShardJob::canonical`]).
        spec: String,
    },
    /// Shard assignment referencing an announced spec (v2). Layout is
    /// [`Frame::Request`] minus the spec string.
    RequestRef {
        /// Run id of a previously announced spec.
        job: u64,
        /// Shard id within the run's [`kpm::shard_plan`].
        shard: u32,
        /// First realization index.
        start: u64,
        /// One past the last realization index.
        end: u64,
    },
    /// Asks the worker for its warm-state inventory (v2).
    InventoryQuery,
    /// The worker's inventory advertisement (v2).
    Inventory(InventoryReport),
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Ping { .. } => 1,
            Frame::Pong { .. } => 2,
            Frame::Request(_) => 3,
            Frame::Result(_) => 4,
            Frame::WorkerError { .. } => 5,
            Frame::Shutdown => 6,
            Frame::SpecAnnounce { .. } => 7,
            Frame::RequestRef { .. } => 8,
            Frame::InventoryQuery => 9,
            Frame::Inventory(_) => 10,
        }
    }
}

/// Encodes a frame to its full wire representation (header + payload).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::Ping { nonce } | Frame::Pong { nonce } => put_u64(&mut payload, *nonce),
        Frame::Request(req) => {
            put_u64(&mut payload, req.job);
            put_u32(&mut payload, req.shard);
            put_u64(&mut payload, req.start);
            put_u64(&mut payload, req.end);
            put_str(&mut payload, &req.spec);
        }
        Frame::Result(res) => {
            put_u64(&mut payload, res.job);
            put_u32(&mut payload, res.shard);
            put_u32(&mut payload, res.rows.len() as u32);
            let cols = res.rows.first().map_or(0, Vec::len);
            put_u32(&mut payload, cols as u32);
            for row in &res.rows {
                debug_assert_eq!(row.len(), cols, "ragged result rows");
                for &v in row {
                    put_u64(&mut payload, v.to_bits());
                }
            }
        }
        Frame::WorkerError { job, shard, message } => {
            put_u64(&mut payload, *job);
            put_u32(&mut payload, *shard);
            put_str(&mut payload, message);
        }
        Frame::Shutdown | Frame::InventoryQuery => {}
        Frame::SpecAnnounce { job, spec } => {
            put_u64(&mut payload, *job);
            put_str(&mut payload, spec);
        }
        Frame::RequestRef { job, shard, start, end } => {
            put_u64(&mut payload, *job);
            put_u32(&mut payload, *shard);
            put_u64(&mut payload, *start);
            put_u64(&mut payload, *end);
        }
        Frame::Inventory(inv) => {
            put_u32(&mut payload, inv.ops.len() as u32);
            for &op in &inv.ops {
                put_u64(&mut payload, op);
            }
            put_u32(&mut payload, inv.rows.len() as u32);
            for run in &inv.rows {
                put_u64(&mut payload, run.key);
                put_u64(&mut payload, run.start);
                put_u64(&mut payload, run.end);
                put_u32(&mut payload, run.n);
            }
            put_u32(&mut payload, inv.profiles.len() as u32);
            for &p in &inv.profiles {
                put_u64(&mut payload, p);
            }
        }
    }
    CODEC.frame(frame.type_byte(), payload)
}

/// Validates a header, returning `(type byte, payload length)`. Accepts
/// any revision in [`MIN_VERSION`]`..=`[`VERSION`].
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), ShardError> {
    let (_, type_byte, len) = CODEC.parse_header_compat(header, MIN_VERSION)?;
    Ok((type_byte, len))
}

/// Decodes a payload given its frame type byte.
pub fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, ShardError> {
    let mut r = Reader::new(payload);
    let frame = match type_byte {
        1 => Frame::Ping { nonce: r.u64()? },
        2 => Frame::Pong { nonce: r.u64()? },
        3 => Frame::Request(ShardRequest {
            job: r.u64()?,
            shard: r.u32()?,
            start: r.u64()?,
            end: r.u64()?,
            spec: r.string()?,
        }),
        4 => {
            let job = r.u64()?;
            let shard = r.u32()?;
            let nrows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            if (nrows as u64) * (cols as u64) * 8 > u64::from(MAX_PAYLOAD) {
                return Err(ShardError::Protocol(format!(
                    "result of {nrows} x {cols} rows exceeds payload cap"
                )));
            }
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(f64::from_bits(r.u64()?));
                }
                rows.push(row);
            }
            Frame::Result(ShardResult { job, shard, rows })
        }
        5 => Frame::WorkerError { job: r.u64()?, shard: r.u32()?, message: r.string()? },
        6 => Frame::Shutdown,
        7 => Frame::SpecAnnounce { job: r.u64()?, spec: r.string()? },
        8 => Frame::RequestRef { job: r.u64()?, shard: r.u32()?, start: r.u64()?, end: r.u64()? },
        9 => Frame::InventoryQuery,
        10 => {
            // Each list length is bounded by the payload that must carry it
            // before any allocation (same discipline as Result rows).
            let cap = |len: usize, elem: usize| -> Result<usize, ShardError> {
                if (len as u64) * (elem as u64) > u64::from(MAX_PAYLOAD) {
                    return Err(ShardError::Protocol(format!(
                        "inventory list of {len} entries exceeds payload cap"
                    )));
                }
                Ok(len)
            };
            let nops = cap(r.u32()? as usize, 8)?;
            let mut ops = Vec::with_capacity(nops);
            for _ in 0..nops {
                ops.push(r.u64()?);
            }
            let nrows = cap(r.u32()? as usize, 28)?;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                rows.push(RowRun { key: r.u64()?, start: r.u64()?, end: r.u64()?, n: r.u32()? });
            }
            let nprofiles = cap(r.u32()? as usize, 8)?;
            let mut profiles = Vec::with_capacity(nprofiles);
            for _ in 0..nprofiles {
                profiles.push(r.u64()?);
            }
            Frame::Inventory(InventoryReport { ops, rows, profiles })
        }
        other => return Err(ShardError::Protocol(format!("unknown frame type {other}"))),
    };
    r.finish()?;
    Ok(frame)
}

/// Decodes one full frame (header + payload) from a byte buffer, as the
/// loopback transport delivers them. Accepts frames from
/// [`MIN_VERSION`]`..=`[`VERSION`] encoders.
pub fn decode_bytes(bytes: &[u8]) -> Result<Frame, ShardError> {
    let (_, type_byte, payload) = CODEC.split_frame_compat(bytes, MIN_VERSION)?;
    decode_payload(type_byte, payload)
}

/// Blocking read of one frame from a byte stream (the TCP transport).
/// Accepts frames from [`MIN_VERSION`]`..=`[`VERSION`] encoders.
///
/// # Errors
/// [`ShardError::Io`] on read failure or EOF, [`ShardError::Protocol`] on
/// malformed frames.
pub fn read_frame<R: std::io::Read>(reader: &mut R) -> Result<Frame, ShardError> {
    let (_, type_byte, payload) = CODEC.read_frame_compat(reader, MIN_VERSION)?;
    decode_payload(type_byte, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode(&frame);
        assert_eq!(decode_bytes(&bytes).unwrap(), frame);
        // Stream decode agrees with buffer decode.
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Ping { nonce: 0xdead_beef });
        roundtrip(Frame::Pong { nonce: 0 });
        roundtrip(Frame::Request(ShardRequest {
            job: 7,
            shard: 3,
            start: 10,
            end: 20,
            spec: "dos lattice=chain:32 moments=16".into(),
        }));
        roundtrip(Frame::Result(ShardResult {
            job: 7,
            shard: 3,
            rows: vec![vec![1.0, -0.25, f64::MIN_POSITIVE], vec![0.0, -0.0, f64::MAX]],
        }));
        roundtrip(Frame::WorkerError { job: 7, shard: 1, message: "kpm: bad".into() });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::SpecAnnounce { job: 7, spec: "dos lattice=chain:32 moments=16".into() });
        roundtrip(Frame::RequestRef { job: 7, shard: 3, start: 10, end: 20 });
        roundtrip(Frame::InventoryQuery);
        roundtrip(Frame::Inventory(InventoryReport::default()));
        roundtrip(Frame::Inventory(InventoryReport {
            ops: vec![1, u64::MAX],
            rows: vec![
                RowRun { key: 9, start: 0, end: 4, n: 64 },
                RowRun { key: 9, start: 6, end: 7, n: 32 },
            ],
            profiles: vec![0xfeed],
        }));
    }

    #[test]
    fn frame_bytes_are_pinned_across_the_codec_extraction() {
        // The shared-codec rewrite must not change a single wire byte:
        // golden encoding of a Ping frame, field by field.
        let bytes = encode(&Frame::Ping { nonce: 0x0102_0304_0506_0708 });
        assert_eq!(&bytes[..4], b"KPSH");
        assert_eq!(bytes[4..6], 4u16.to_le_bytes());
        assert_eq!(bytes[6], 1); // type byte
        assert_eq!(bytes[7..11], 8u32.to_le_bytes()); // payload length
        assert_eq!(bytes[11..], 0x0102_0304_0506_0708u64.to_le_bytes());
    }

    /// Frames of a version 1 to 3 peer, whose rows come from another moment
    /// family, are protocol errors on both decode paths; the same bytes at
    /// version 4 decode. The result frame is what a version 3 worker sends
    /// back: its payload layout is unchanged.
    #[test]
    fn frames_of_older_moment_families_are_rejected() {
        let result = Frame::Result(ShardResult { job: 7, shard: 3, rows: vec![vec![1.0, 0.25]] });
        let current = encode(&result);
        assert_eq!(decode_bytes(&current).unwrap(), result);
        for version in [1u16, 2, 3, 5] {
            let mut bytes = current.clone();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            match decode_bytes(&bytes) {
                Err(ShardError::Protocol(msg)) => assert!(msg.contains("version"), "{msg}"),
                other => panic!("version {version}: expected protocol error, got {other:?}"),
            }
            let mut cursor = std::io::Cursor::new(&bytes);
            assert!(
                matches!(read_frame(&mut cursor), Err(ShardError::Protocol(_))),
                "version {version} on the stream path"
            );
        }
    }

    /// Version tolerance for the bounds provider: a pre-bounds Request
    /// frame (spec line with no `bounds=` key) decodes to a job with the
    /// Gershgorin default and keeps its bounds-free canonical line, while a
    /// bounds-bearing line survives the KPSH round trip verbatim.
    #[test]
    fn legacy_spec_lines_decode_to_gershgorin_bounds() {
        let spec = "dos lattice=chain:32 moments=16";
        let mut payload = Vec::new();
        put_u64(&mut payload, 7);
        put_u32(&mut payload, 3);
        put_u64(&mut payload, 10);
        put_u64(&mut payload, 20);
        put_str(&mut payload, spec);
        let bytes = CODEC.frame(3, payload);
        let Frame::Request(req) = decode_bytes(&bytes).unwrap() else { panic!("expected Request") };
        let job = crate::ShardJob::parse(&req.spec).unwrap();
        assert_eq!(job.spec().bounds, kpm::BoundsMethod::Gershgorin);
        assert!(!job.canonical().contains("bounds="), "{}", job.canonical());

        let line = "ldos:3 lattice=chain:32 disorder=4@1 moments=16 bounds=lanczos:24";
        let job = crate::ShardJob::parse(line).unwrap();
        assert_eq!(job.spec().bounds, kpm::BoundsMethod::Lanczos { steps: 24 });
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 2);
        put_str(&mut payload, &job.canonical());
        let bytes = CODEC.frame(3, payload);
        let Frame::Request(req) = decode_bytes(&bytes).unwrap() else { panic!("expected Request") };
        let round = crate::ShardJob::parse(&req.spec).unwrap();
        assert_eq!(round.canonical(), job.canonical());
        assert_eq!(round.spec().bounds, kpm::BoundsMethod::Lanczos { steps: 24 });
    }

    #[test]
    fn float_bits_survive_exactly() {
        // Values that decimal round-trips mangle must survive bitwise.
        let tricky = vec![vec![
            0.1 + 0.2,
            f64::EPSILON,
            1.0 / 3.0,
            -1e-308,
            f64::from_bits(0x0000_0000_0000_0001), // subnormal
        ]];
        let frame = Frame::Result(ShardResult { job: 1, shard: 0, rows: tricky.clone() });
        let Frame::Result(res) = decode_bytes(&encode(&frame)).unwrap() else {
            panic!("expected result");
        };
        for (a, b) in res.rows[0].iter().zip(&tricky[0]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_magic_and_version_are_protocol_errors() {
        let mut bytes = encode(&Frame::Shutdown);
        bytes[0] = b'X';
        assert!(matches!(decode_bytes(&bytes), Err(ShardError::Protocol(_))));

        let mut bytes = encode(&Frame::Shutdown);
        bytes[4] = 99; // version
        match decode_bytes(&bytes) {
            Err(ShardError::Protocol(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_rejected() {
        let bytes = encode(&Frame::Ping { nonce: 5 });
        assert!(matches!(decode_bytes(&bytes[..bytes.len() - 1]), Err(ShardError::Protocol(_))));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(decode_bytes(&extended), Err(ShardError::Protocol(_))));
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let mut bytes = encode(&Frame::Shutdown);
        bytes[6] = 42;
        assert!(matches!(decode_bytes(&bytes), Err(ShardError::Protocol(_))));
    }

    #[test]
    fn eof_is_io_error() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(ShardError::Io(_))));
    }
}
