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
//! were never acknowledged, and [`Journal::open`] cuts the file back to
//! that frame before appending, so the next frame starts where a reader
//! looks for it.
//!
//! The codec version names the moment family of the rows. Version 3 rows
//! come from the tiled moment-doubling engine, which every plan runs. Their
//! bits differ at rounding level from the plain loop's version 1 rows and
//! from version 2 rows, whose operators below `kpm::exec::ROW_MIN_DIM` ran
//! the untiled recursion, so older frames must not be merged with new rows.
//! A journal holding a whole frame that replay can not read — one of
//! another version, or corrupt bytes with whole frames after them — is
//! therefore kept but not used: [`Journal::open`] renames it to
//! `journal.log.aside` and starts an empty one.

use crate::error::FleetError;
use kpm_wire::{put_f64s, put_str, put_u32, put_u64, Codec, Reader, HEADER_LEN};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Journal codec: own magic, version 3 (rows of the tiled moment-doubling
/// engine on every plan).
const CODEC: Codec = Codec { magic: *b"KPFJ", version: 3 };

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
    /// previous coordinator left behind. A torn final frame is cut off, and
    /// appends land right after the last whole frame, so a journal survives
    /// any number of restarts. A journal with a whole frame replay can not
    /// read (another codec version, or corrupt bytes) is renamed to
    /// `journal.log.aside` (`.aside.<n>` when that name is taken), none of
    /// it is replayed, and an empty journal replaces it.
    ///
    /// # Errors
    /// [`FleetError::Journal`] on directory or file I/O failure.
    pub fn open(dir: &Path) -> Result<(Journal, Replayed), FleetError> {
        let io_error = |what: &str, path: &Path, e: std::io::Error| {
            FleetError::Journal(format!("{what} {}: {e}", path.display()))
        };
        std::fs::create_dir_all(dir).map_err(|e| io_error("create", dir, e))?;
        let path = dir.join("journal.log");
        let (mut replayed, whole) = match File::open(&path) {
            Ok(f) => replay(BufReader::new(f)),
            Err(_) => (Replayed::default(), 0), // fresh journal
        };
        let len = std::fs::metadata(&path).map_or(0, |m| m.len());
        if len > whole && !torn_tail(&path, whole, len).map_err(|e| io_error("read", &path, e))? {
            let aside = aside_path(dir);
            std::fs::rename(&path, &aside).map_err(|e| io_error("move aside", &path, e))?;
            replayed = Replayed::default();
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_error("open", &path, e))?;
        if file.metadata().map_err(|e| io_error("stat", &path, e))?.len() > whole {
            // A torn tail: a header left here would claim the next frame's
            // bytes as its payload.
            file.set_len(whole).map_err(|e| io_error("truncate", &path, e))?;
        }
        // A rename aside or a create is a directory entry: durable before
        // any frame appended to the new file counts as acknowledged.
        File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_error("sync", dir, e))?;
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

/// Whether the `len - whole` bytes after the last whole frame of the
/// journal at `path` are a frame a crash cut short: fewer bytes than a
/// header, or a header of this codec whose payload runs past the end of
/// the file. Anything else is a whole frame replay can not read.
fn torn_tail(path: &Path, whole: u64, len: u64) -> std::io::Result<bool> {
    let left = len - whole;
    if left < HEADER_LEN as u64 {
        return Ok(true);
    }
    let mut header = [0u8; HEADER_LEN];
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(whole))?;
    file.read_exact(&mut header)?;
    Ok(CODEC
        .parse_header(&header)
        .is_ok_and(|(_, payload)| HEADER_LEN as u64 + u64::from(payload) > left))
}

/// The first free name for a set-aside journal.
fn aside_path(dir: &Path) -> PathBuf {
    (0..)
        .map(|n| match n {
            0 => dir.join("journal.log.aside"),
            n => dir.join(format!("journal.log.aside.{n}")),
        })
        .find(|p| !p.exists())
        .expect("an unbounded range of names")
}

/// Replays every whole frame; stops silently at the first torn or foreign
/// byte. Returns the replayed image and the byte length of the whole
/// frames it read. Later rows for the same `(hash, idx)` overwrite earlier
/// ones — they are bitwise identical by construction, so the choice is
/// immaterial.
fn replay(mut reader: BufReader<File>) -> (Replayed, u64) {
    let mut out = Replayed::default();
    let mut whole = 0u64;
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
                    let rows = (0..count).map(|_| r.f64s()).collect::<Result<Vec<_>, _>>()?;
                    r.finish()?;
                    out.rows.entry(hash).or_default().extend((start..).zip(rows));
                }
                _ => {} // unknown frame type from a newer writer: skip
            }
            Ok(())
        })();
        if parsed.is_err() {
            break; // a whole payload this codec can not read
        }
        whole += (HEADER_LEN + payload.len()) as u64;
    }
    (out, whole)
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

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// The restart drill: a crash tears the last frame, the restarted
    /// coordinator records that row again and one more, and the next
    /// restart replays every row recorded after the first one bit for bit,
    /// with no row assembled from the torn frame and the new bytes.
    #[test]
    fn rows_recorded_after_a_torn_tail_replay_bitwise() {
        let dir = tmp_dir("torn-append");
        let rows = [vec![1.0, 2.0], vec![3.0, 4.0], vec![-0.0, f64::MIN_POSITIVE]];
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_rows(1, 0, &rows[..1]).unwrap();
            j.record_rows(1, 1, &rows[1..2]).unwrap();
        }
        let path = dir.join("journal.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        {
            let (mut j, replayed) = Journal::open(&dir).unwrap();
            assert_eq!(replayed.row_count(), 1, "only idx 0 was whole");
            j.record_rows(1, 1, &rows[1..2]).unwrap();
            j.record_rows(1, 2, &rows[2..]).unwrap();
        }
        let (_, replayed) = Journal::open(&dir).unwrap();
        let got = &replayed.rows[&1];
        assert_eq!(got.len(), 3, "{got:?}");
        for (idx, row) in rows.iter().enumerate() {
            assert_eq!(bits(&got[&(idx as u64)]), bits(row), "idx {idx}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A rows frame of an older codec version: 1 as the plain-recursion
    /// binary wrote them, 2 as the binary whose small operators ran the
    /// untiled recursion wrote them.
    fn old_rows(version: u16, value: f64) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, 5);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 1);
        put_f64s(&mut payload, &[value, 2.0]);
        Codec { magic: *b"KPFJ", version }.frame(TYPE_ROWS, payload)
    }

    /// A journal of an older codec version (1 or 2) is renamed aside whole,
    /// neither replayed nor appended to; rows recorded after opening it
    /// replay on the next open. A second one does not overwrite the first.
    #[test]
    fn older_journals_are_set_aside_not_replayed() {
        for version in [1u16, 2] {
            let dir = tmp_dir(&format!("v{version}"));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("journal.log");
            std::fs::write(&path, old_rows(version, 1.0)).unwrap();
            {
                let (mut j, replayed) = Journal::open(&dir).unwrap();
                assert_eq!(replayed.row_count(), 0, "v{version} rows are not replayed");
                j.record_rows(5, 0, &[vec![7.0, 8.0]]).unwrap();
            }
            let aside = dir.join("journal.log.aside");
            assert_eq!(std::fs::read(&aside).unwrap(), old_rows(version, 1.0));
            let (_, replayed) = Journal::open(&dir).unwrap();
            assert_eq!(replayed.row_count(), 1);
            assert_eq!(replayed.rows[&5][&0], vec![7.0, 8.0]);

            std::fs::write(&path, old_rows(version, 3.0)).unwrap();
            let (_, replayed) = Journal::open(&dir).unwrap();
            assert_eq!(replayed.row_count(), 0);
            assert_eq!(std::fs::read(&aside).unwrap(), old_rows(version, 1.0));
            let second = dir.join("journal.log.aside.1");
            assert_eq!(std::fs::read(second).unwrap(), old_rows(version, 3.0));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A whole frame replay can not read is no torn tail, so the journal
    /// moves aside byte for byte instead of being cut there: a version 2
    /// frame appended after version 3 frames (a rolled-back binary), and a
    /// corrupt length prefix with an acknowledged frame after it.
    #[test]
    fn unreadable_whole_frames_set_the_journal_aside() {
        let dir = tmp_dir("unreadable");
        let path = dir.join("journal.log");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_rows(1, 0, &[vec![1.0, 2.0]]).unwrap();
        }
        let mut old_after_new = std::fs::read(&path).unwrap();
        old_after_new.extend(old_rows(2, 3.0));
        std::fs::write(&path, &old_after_new).unwrap();
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.row_count(), 0, "a journal set aside replays nothing");
        assert_eq!(std::fs::read(dir.join("journal.log.aside")).unwrap(), old_after_new);
        assert!(std::fs::read(&path).unwrap().is_empty());

        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_rows(1, 0, &[vec![1.0, 2.0]]).unwrap();
            j.record_rows(1, 1, &[vec![3.0, 4.0]]).unwrap();
        }
        let mut corrupt = std::fs::read(&path).unwrap();
        assert_eq!(corrupt[7], 40, "the first frame's payload length");
        corrupt[7] = 32;
        std::fs::write(&path, &corrupt).unwrap();
        let (mut j, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.row_count(), 0);
        assert_eq!(std::fs::read(dir.join("journal.log.aside.1")).unwrap(), corrupt);
        j.record_rows(1, 1, &[vec![3.0, 4.0]]).unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.row_count(), 1);
        assert_eq!(replayed.rows[&1][&1], vec![3.0, 4.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
