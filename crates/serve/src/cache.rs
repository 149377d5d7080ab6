//! Content-addressed moment cache: in-memory LRU plus optional CSV spill.
//!
//! The cache stores *raw* (undamped) moment statistics keyed by
//! [`crate::job::JobSpec::cache_key`] — the job identity minus truncation
//! order and kernel. That exclusion is the whole point: `mu_0..mu_{N-1}` of
//! a run at order `N' >= N` are bitwise identical to a fresh run at `N`
//! ([`MomentStats::truncated`]), and kernel damping is applied at
//! reconstruction time. So one entry serves
//!
//! * exact repeats (same spec, any kernel),
//! * lower-order requests (prefix reuse), and
//! * higher-order requests *after* recomputation upgrades the entry.
//!
//! With a spill directory, `flush` writes each entry to
//! `<dir>/<key as hex>.csv` using Rust's shortest-round-trip float
//! formatting, and `load` restores them, so a warm cache survives process
//! restarts; the files double as human-readable artifacts under
//! `results/cache/`. The header line names the moment family: `v3` files
//! hold moments of the tiled doubling engine, which every plan runs, and
//! `load` skips files of any other version, whose bits differ at rounding
//! level (the plain loop's `v1`, and `v2`, whose operators below
//! `kpm::exec::ROW_MIN_DIM` ran the untiled recursion).

use kpm::MomentStats;
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First line of a spill file; its version names the moment family.
const SPILL_HEADER: &str = "# kpm-serve moment cache v3";

/// A cache hit: enough moments for the request, plus the rescaling that
/// produced them (needed for reconstruction on the original energy axis).
#[derive(Debug, Clone)]
pub struct CachedMoments {
    /// Raw moment statistics, already truncated to the requested order.
    pub stats: MomentStats,
    /// Rescaling centre used by the cached run.
    pub a_plus: f64,
    /// Rescaling half-width used by the cached run.
    pub a_minus: f64,
}

/// Outcome of a cache lookup at a requested order.
#[derive(Debug)]
pub enum Lookup {
    /// Entry found with `n_cached >= n`: ready-to-use truncated moments.
    Hit(CachedMoments),
    /// Entry found but only at a lower order; recomputing will upgrade it.
    Stale {
        /// Order stored in the cache.
        cached_n: usize,
    },
    /// No entry.
    Miss,
}

/// Outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// An existing entry was replaced by a higher-order run.
    pub upgraded: bool,
    /// Entries evicted by the LRU policy to make room.
    pub evicted: usize,
}

struct Entry {
    stats: MomentStats,
    a_plus: f64,
    a_minus: f64,
    tick: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

/// Callback invoked after an entry is upgraded to a higher order; receives
/// the cache key and the new order. See [`MomentCache::set_upgrade_observer`].
pub type UpgradeObserver = std::sync::Arc<dyn Fn(u64, usize) + Send + Sync>;

/// The cache. All methods take `&self`; a mutex guards the map.
pub struct MomentCache {
    inner: Mutex<Inner>,
    capacity: usize,
    dir: Option<PathBuf>,
    observer: Mutex<Option<UpgradeObserver>>,
}

impl MomentCache {
    /// An in-memory cache holding at most `capacity` entries; with
    /// `Some(dir)`, [`MomentCache::flush`] spills entries there as CSV.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            inner: Mutex::new(Inner { entries: HashMap::new(), tick: 0 }),
            capacity,
            dir,
            observer: Mutex::new(None),
        }
    }

    /// Registers a callback fired whenever [`MomentCache::insert`] upgrades
    /// an existing entry to a higher order (the prefix-extension event a
    /// streaming-refinement front-end watches for). The observer runs
    /// outside the entry lock, so it may call back into the cache. At most
    /// one observer; a later call replaces the earlier one.
    pub fn set_upgrade_observer(&self, observer: UpgradeObserver) {
        *self.observer.lock().expect("observer lock") = Some(observer);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").entries.len()
    }

    /// `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key` at truncation order `n`. A hit refreshes the entry's
    /// LRU position and returns moments truncated to exactly `n`.
    pub fn lookup(&self, key: u64, n: usize) -> Lookup {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            None => Lookup::Miss,
            Some(entry) => {
                entry.tick = tick;
                if entry.stats.num_moments() >= n {
                    Lookup::Hit(CachedMoments {
                        stats: entry.stats.truncated(n),
                        a_plus: entry.a_plus,
                        a_minus: entry.a_minus,
                    })
                } else {
                    Lookup::Stale { cached_n: entry.stats.num_moments() }
                }
            }
        }
    }

    /// Inserts (or upgrades) the entry for `key`. A run at a *lower* order
    /// than what is already cached is ignored — the cache only grows more
    /// capable. Evicts least-recently-used entries beyond capacity.
    pub fn insert(&self, key: u64, stats: MomentStats, a_plus: f64, a_minus: f64) -> InsertReport {
        let new_n = stats.num_moments();
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let mut upgraded = false;
        match inner.entries.get_mut(&key) {
            Some(entry) => {
                if stats.num_moments() > entry.stats.num_moments() {
                    *entry = Entry { stats, a_plus, a_minus, tick };
                    upgraded = true;
                } else {
                    entry.tick = tick;
                }
            }
            None => {
                inner.entries.insert(key, Entry { stats, a_plus, a_minus, tick });
            }
        }
        let mut evicted = 0;
        while inner.entries.len() > self.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
                .expect("nonempty over-capacity cache");
            inner.entries.remove(&oldest);
            evicted += 1;
        }
        drop(inner);
        if upgraded {
            let observer = self.observer.lock().expect("observer lock").clone();
            if let Some(observer) = observer {
                observer(key, new_n);
            }
        }
        InsertReport { upgraded, evicted }
    }

    /// Writes every entry to the spill directory (no-op without one);
    /// returns the number of files written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn flush(&self) -> io::Result<usize> {
        let Some(dir) = &self.dir else { return Ok(0) };
        std::fs::create_dir_all(dir)?;
        let inner = self.inner.lock().expect("cache lock");
        for (key, entry) in &inner.entries {
            let path = dir.join(format!("{key:016x}.csv"));
            let mut f = io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(f, "{SPILL_HEADER}")?;
            writeln!(f, "key,{key:016x}")?;
            writeln!(f, "samples,{}", entry.stats.samples)?;
            writeln!(f, "a_plus,{}", entry.a_plus)?;
            writeln!(f, "a_minus,{}", entry.a_minus)?;
            writeln!(f, "n,mean,std_err")?;
            for (n, (m, s)) in entry.stats.mean.iter().zip(&entry.stats.std_err).enumerate() {
                // `{}` is Rust's shortest round-trip formatting, so reading
                // the file back reproduces the f64 bits exactly.
                writeln!(f, "{n},{m},{s}")?;
            }
            f.flush()?;
        }
        Ok(inner.entries.len())
    }

    /// Loads every `*.csv` entry from the spill directory (no-op without
    /// one or when it does not exist); returns the number of entries
    /// loaded. Malformed files are skipped, not fatal.
    ///
    /// # Errors
    /// Propagates directory-listing errors.
    pub fn load(&self) -> io::Result<usize> {
        let Some(dir) = &self.dir else { return Ok(0) };
        if !dir.is_dir() {
            return Ok(0);
        }
        let mut loaded = 0;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("csv") {
                continue;
            }
            if let Some((key, cached)) = parse_entry(&path) {
                self.insert(key, cached.stats, cached.a_plus, cached.a_minus);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

fn parse_entry(path: &Path) -> Option<(u64, CachedMoments)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != SPILL_HEADER {
        return None;
    }
    let key = u64::from_str_radix(lines.next()?.strip_prefix("key,")?, 16).ok()?;
    let samples: usize = lines.next()?.strip_prefix("samples,")?.parse().ok()?;
    let a_plus: f64 = lines.next()?.strip_prefix("a_plus,")?.parse().ok()?;
    let a_minus: f64 = lines.next()?.strip_prefix("a_minus,")?.parse().ok()?;
    if lines.next()? != "n,mean,std_err" {
        return None;
    }
    let mut mean = Vec::new();
    let mut std_err = Vec::new();
    for (expect_n, line) in lines.enumerate() {
        let mut parts = line.split(',');
        let n: usize = parts.next()?.parse().ok()?;
        if n != expect_n {
            return None;
        }
        mean.push(parts.next()?.parse().ok()?);
        std_err.push(parts.next()?.parse().ok()?);
    }
    if mean.len() < 2 {
        return None;
    }
    Some((key, CachedMoments { stats: MomentStats { mean, std_err, samples }, a_plus, a_minus }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(n: usize, seed: f64) -> MomentStats {
        MomentStats {
            mean: (0..n).map(|i| (i as f64 * 0.37 + seed).sin() / 3.0).collect(),
            std_err: (0..n).map(|i| 1e-3 / (i + 1) as f64).collect(),
            samples: 8,
        }
    }

    #[test]
    fn hit_returns_exact_truncation() {
        let cache = MomentCache::new(4, None);
        let full = stats(32, 0.1);
        cache.insert(1, full.clone(), 0.5, 2.0);
        match cache.lookup(1, 12) {
            Lookup::Hit(hit) => {
                assert_eq!(hit.stats.mean, full.mean[..12].to_vec());
                assert_eq!(hit.stats.std_err, full.std_err[..12].to_vec());
                assert_eq!((hit.a_plus, hit.a_minus), (0.5, 2.0));
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn stale_then_upgrade() {
        let cache = MomentCache::new(4, None);
        cache.insert(1, stats(8, 0.1), 0.0, 1.0);
        assert!(matches!(cache.lookup(1, 16), Lookup::Stale { cached_n: 8 }));
        let report = cache.insert(1, stats(16, 0.1), 0.0, 1.0);
        assert!(report.upgraded);
        assert!(matches!(cache.lookup(1, 16), Lookup::Hit(_)));
        // A lower-order insert never downgrades.
        let report = cache.insert(1, stats(4, 0.1), 0.0, 1.0);
        assert!(!report.upgraded);
        assert!(matches!(cache.lookup(1, 16), Lookup::Hit(_)));
    }

    #[test]
    fn upgrade_observer_fires_only_on_prefix_extension() {
        use std::sync::{Arc, Mutex};
        let cache = MomentCache::new(4, None);
        let events: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        cache.set_upgrade_observer(Arc::new(move |key, n| {
            sink.lock().unwrap().push((key, n));
        }));
        cache.insert(9, stats(8, 0.1), 0.0, 1.0); // fresh: no event
        cache.insert(9, stats(8, 0.1), 0.0, 1.0); // same order: no event
        cache.insert(9, stats(4, 0.1), 0.0, 1.0); // downgrade attempt: no event
        cache.insert(9, stats(16, 0.1), 0.0, 1.0); // upgrade
        cache.insert(9, stats(32, 0.1), 0.0, 1.0); // upgrade again
        assert_eq!(*events.lock().unwrap(), vec![(9, 16), (9, 32)]);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = MomentCache::new(2, None);
        cache.insert(1, stats(4, 0.1), 0.0, 1.0);
        cache.insert(2, stats(4, 0.2), 0.0, 1.0);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(matches!(cache.lookup(1, 4), Lookup::Hit(_)));
        let report = cache.insert(3, stats(4, 0.3), 0.0, 1.0);
        assert_eq!(report.evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(2, 4), Lookup::Miss));
        assert!(matches!(cache.lookup(1, 4), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(3, 4), Lookup::Hit(_)));
    }

    #[test]
    fn spill_roundtrip_is_bitwise() {
        let dir = std::env::temp_dir().join(format!("kpm_cache_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MomentCache::new(8, Some(dir.clone()));
        let original = stats(24, 0.7);
        cache.insert(0xdead_beef, original.clone(), 0.125, 3.5 + 1e-13);
        assert_eq!(cache.flush().unwrap(), 1);

        let restored = MomentCache::new(8, Some(dir.clone()));
        assert_eq!(restored.load().unwrap(), 1);
        match restored.lookup(0xdead_beef, 24) {
            Lookup::Hit(hit) => {
                assert_eq!(hit.stats.mean, original.mean, "bitwise mean round-trip");
                assert_eq!(hit.stats.std_err, original.std_err);
                assert_eq!(hit.stats.samples, 8);
                assert_eq!(hit.a_minus, 3.5 + 1e-13);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_skips_spill_files_of_older_moment_families() {
        let dir = std::env::temp_dir().join(format!("kpm_cache_old_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MomentCache::new(8, Some(dir.clone()));
        cache.insert(0xdead_beef, stats(24, 0.7), 0.125, 3.5);
        assert_eq!(cache.flush().unwrap(), 1);
        // The same entry as the plain loop (v1) and the untiled small-D
        // recursion (v2) wrote it: only the header line differs.
        let path = dir.join(format!("{:016x}.csv", 0xdead_beef_u64));
        let text = std::fs::read_to_string(&path).unwrap();
        for old in ["v1", "v2"] {
            let older = text.replacen(SPILL_HEADER, &format!("# kpm-serve moment cache {old}"), 1);
            assert_ne!(older, text);
            std::fs::write(&path, older).unwrap();
            let restored = MomentCache::new(8, Some(dir.clone()));
            assert_eq!(restored.load().unwrap(), 0, "{old} spill");
            assert!(restored.is_empty());
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_skips_malformed_files() {
        let dir = std::env::temp_dir().join(format!("kpm_cache_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("junk.csv"), "not a cache entry").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored entirely").unwrap();
        let cache = MomentCache::new(4, Some(dir.clone()));
        assert_eq!(cache.load().unwrap(), 0);
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}
