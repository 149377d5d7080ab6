//! The restartable merge journal: per-realization rows on disk before ack.
//!
//! Every result row batch the scheduler accepts is appended to
//! `journal.log` as a length-prefixed `KPFJ` frame (the shared
//! [`kpm_wire`] codec, `f64` as raw bits) and fsync'd *before* the rows
//! count toward a job's merge. A coordinator that dies mid-run can
//! therefore be restarted on the same `--journal DIR`: [`Journal::open`]
//! replays the log into an idx-addressed row map, finished work is not
//! recomputed, and — because rows are merged in canonical `idx = s * R + r`
//! order either way — the resumed merge is bitwise identical to an
//! uninterrupted one.
//!
//! Frames are keyed by the job's **content hash** (not its run-local
//! sequence id), so replay is stable across restarts that submit jobs in a
//! different order, and duplicate submissions of the same spec share one
//! journal key. A torn final frame (the crash happened mid-append) is
//! tolerated: replay stops at the last whole frame, exactly the rows that
//! were never acknowledged.

use crate::error::FleetError;
use kpm_wire::{put_f64s, put_str, put_u32, put_u64, Codec, Reader};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Write as _};
use std::path::Path;

/// Journal codec: own magic, version 1.
const CODEC: Codec = Codec { magic: *b"KPFJ", version: 1 };

/// Frame: a job's identity — content hash plus canonical shard-job line.
const TYPE_JOB: u8 = 1;
/// Frame: one accepted shard's per-realization rows.
const TYPE_ROWS: u8 = 2;

/// The replayed image of a journal: everything acknowledged before the
/// previous coordinator stopped.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Job content hash → canonical shard-job line.
    pub jobs: HashMap<u64, String>,
    /// Job content hash → realization idx → moment row.
    pub rows: HashMap<u64, HashMap<u64, Vec<f64>>>,
}

impl Replayed {
    /// Total replayed rows across all jobs.
    pub fn row_count(&self) -> u64 {
        self.rows.values().map(|m| m.len() as u64).sum()
    }
}

/// Append-only, fsync'd journal writer.
pub struct Journal {
    file: File,
    bytes: u64,
}

impl Journal {
    /// Opens (creating if needed) `dir/journal.log`, replaying any frames a
    /// previous coordinator left behind. Appends land after the replayed
    /// tail, so a journal survives any number of restarts.
    ///
    /// # Errors
    /// [`FleetError::Journal`] on directory or file I/O failure.
    pub fn open(dir: &Path) -> Result<(Journal, Replayed), FleetError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| FleetError::Journal(format!("create {}: {e}", dir.display())))?;
        let path = dir.join("journal.log");
        let replayed = match File::open(&path) {
            Ok(f) => replay(BufReader::new(f)),
            Err(_) => Replayed::default(), // fresh journal
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| FleetError::Journal(format!("open {}: {e}", path.display())))?;
        kpm_obs::counter_add("fleet.journal.replayed_rows", replayed.row_count());
        Ok((Journal { file, bytes: 0 }, replayed))
    }

    /// Records a job's identity (idempotent across restarts: replay keeps
    /// the last line seen for a hash, and equal hashes mean equal lines).
    ///
    /// # Errors
    /// [`FleetError::Journal`] when the append or fsync fails.
    pub fn record_job(&mut self, hash: u64, line: &str) -> Result<(), FleetError> {
        let mut payload = Vec::with_capacity(8 + 4 + line.len());
        put_u64(&mut payload, hash);
        put_str(&mut payload, line);
        self.append(TYPE_JOB, payload)
    }

    /// Records one accepted shard: rows for realizations
    /// `start..start + rows.len()` of the job `hash`. Durable (fsync) on
    /// return — only then may the scheduler count the shard as done.
    ///
    /// # Errors
    /// [`FleetError::Journal`] when the append or fsync fails.
    pub fn record_rows(
        &mut self,
        hash: u64,
        start: u64,
        rows: &[Vec<f64>],
    ) -> Result<(), FleetError> {
        let per_row = 4 + rows.first().map_or(0, |r| r.len() * 8);
        let mut payload = Vec::with_capacity(8 + 8 + 4 + rows.len() * per_row);
        put_u64(&mut payload, hash);
        put_u64(&mut payload, start);
        put_u32(&mut payload, rows.len() as u32);
        for row in rows {
            put_f64s(&mut payload, row);
        }
        self.append(TYPE_ROWS, payload)
    }

    /// Bytes appended by this writer (not counting a replayed prefix).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn append(&mut self, ty: u8, payload: Vec<u8>) -> Result<(), FleetError> {
        let frame = CODEC.frame(ty, payload);
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| FleetError::Journal(format!("append: {e}")))?;
        self.bytes += frame.len() as u64;
        kpm_obs::counter_add("fleet.journal.bytes", frame.len() as u64);
        Ok(())
    }
}

/// Replays every whole frame; stops silently at the first torn or foreign
/// byte (the tail a crash may leave). Later rows for the same `(hash, idx)`
/// overwrite earlier ones — they are bitwise identical by construction, so
/// the choice is immaterial.
fn replay(mut reader: BufReader<File>) -> Replayed {
    let mut out = Replayed::default();
    while let Ok((ty, payload)) = CODEC.read_frame(&mut reader) {
        let mut r = Reader::new(&payload);
        let parsed = (|| -> Result<(), kpm_wire::WireError> {
            match ty {
                TYPE_JOB => {
                    let hash = r.u64()?;
                    let line = r.string()?;
                    r.finish()?;
                    out.jobs.insert(hash, line);
                }
                TYPE_ROWS => {
                    let hash = r.u64()?;
                    let start = r.u64()?;
                    let count = r.u32()?;
                    let per_job = out.rows.entry(hash).or_default();
                    for i in 0..count as u64 {
                        per_job.insert(start + i, r.f64s()?);
                    }
                    r.finish()?;
                }
                _ => {} // unknown frame type from a newer writer: skip
            }
            Ok(())
        })();
        if parsed.is_err() {
            break; // torn payload: everything after it was never acked
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kpm-fleet-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_roundtrips_jobs_and_rows_bitwise() {
        let dir = tmp_dir("roundtrip");
        let rows = vec![vec![1.0f64, -0.25, 3e-17], vec![0.5, f64::MIN_POSITIVE, -0.0]];
        {
            let (mut j, replayed) = Journal::open(&dir).unwrap();
            assert!(replayed.jobs.is_empty());
            j.record_job(42, "dos lattice=chain:8 moments=4").unwrap();
            j.record_rows(42, 3, &rows).unwrap();
            assert!(j.bytes_written() > 0);
        }
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.jobs[&42], "dos lattice=chain:8 moments=4");
        let got = &replayed.rows[&42];
        assert_eq!(got.len(), 2);
        // Bitwise: raw f64 bits survive the disk roundtrip.
        assert_eq!(got[&3], rows[0]);
        assert_eq!(got[&4], rows[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Version tolerance across restarts: journals written before the
    /// bounds provider existed carry bounds-free lines, which replay to
    /// jobs with the Gershgorin default; bounds-bearing lines replay to
    /// the same provider they were journaled with.
    #[test]
    fn journaled_spec_lines_replay_bounds_version_tolerantly() {
        let dir = tmp_dir("bounds");
        let legacy = "dos lattice=chain:8 moments=4";
        let bounded = "dos lattice=chain:8 disorder=3@1 moments=4 bounds=lanczos:48";
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_job(1, legacy).unwrap();
            j.record_job(2, bounded).unwrap();
        }
        let (_, replayed) = Journal::open(&dir).unwrap();
        let old = crate::ShardJob::parse(&replayed.jobs[&1]).unwrap();
        assert_eq!(old.spec().bounds, kpm::BoundsMethod::Gershgorin);
        // The default provider never renders, so pre-bounds canonical
        // lines (and the hashes derived from them) are byte-stable.
        assert!(!old.canonical().contains("bounds="), "{}", old.canonical());
        let new = crate::ShardJob::parse(&replayed.jobs[&2]).unwrap();
        assert_eq!(new.spec().bounds, kpm::BoundsMethod::Lanczos { steps: 48 });
        assert!(new.canonical().contains("bounds=lanczos:48"), "{}", new.canonical());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_accumulate_across_reopens() {
        let dir = tmp_dir("reopen");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_rows(7, 0, &[vec![1.0]]).unwrap();
        }
        {
            let (mut j, replayed) = Journal::open(&dir).unwrap();
            assert_eq!(replayed.row_count(), 1);
            j.record_rows(7, 1, &[vec![2.0]]).unwrap();
        }
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.row_count(), 2);
        assert_eq!(replayed.rows[&7][&1], vec![2.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_whole_frames_survive() {
        let dir = tmp_dir("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_rows(1, 0, &[vec![1.0, 2.0]]).unwrap();
            j.record_rows(1, 1, &[vec![3.0, 4.0]]).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let path = dir.join("journal.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.row_count(), 1);
        assert_eq!(replayed.rows[&1][&0], vec![1.0, 2.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
