//! Zero-cost-when-disabled observability for the KPM pipeline.
//!
//! The paper's entire evaluation is wall-clock timing of pipeline phases
//! (rescale, moment recursion, reconstruction — Figs. 5–8), so the
//! reproduction needs a way to see where time goes without perturbing the
//! numbers it is trying to measure. This crate provides that in the same
//! vendored-shim spirit as `vendor/*`: hand-rolled, no external
//! dependencies, and a single relaxed atomic load on every instrumentation
//! site when tracing is off.
//!
//! # Model
//!
//! - A **trace session** is started with [`TraceHandle::begin`] and closed
//!   with [`TraceHandle::finish`], which returns a [`TraceReport`]. At most
//!   one session is active per process; instrumentation is process-global.
//! - A **span** ([`span`] / [`span_labeled`]) is an RAII guard measuring one
//!   phase. Spans nest per thread: a span opened while another is open on
//!   the same thread records that span as its parent. Spans opened on other
//!   threads (worker pools, rayon) are recorded without a parent.
//! - A **counter** is either an ambient named tally ([`counter_add`], which
//!   only exists inside the active session) or a [`Counter`] cell that is
//!   always live (serve-style metrics) and mirrors into the session when
//!   tracing is enabled.
//!
//! # Example
//!
//! ```
//! let handle = kpm_obs::TraceHandle::begin();
//! {
//!     let _phase = kpm_obs::span("kpm.moments");
//!     kpm_obs::counter_add("kpm.realizations", 4);
//! }
//! let report = handle.finish();
//! assert_eq!(report.spans[0].name, "kpm.moments");
//! assert_eq!(report.counter("kpm.realizations"), Some(4));
//! ```

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);
static SESSION: Mutex<Option<Session>> = Mutex::new(None);

struct SpanRec {
    name: &'static str,
    detail: Option<String>,
    start_us: u64,
    dur_us: u64,
    closed: bool,
    parent: Option<usize>,
}

struct Session {
    id: u64,
    origin: Instant,
    spans: Vec<SpanRec>,
    counters: BTreeMap<String, u64>,
}

thread_local! {
    /// Per-thread stack of open spans: (session id, span index).
    static SPAN_STACK: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Returns `true` while a trace session is active.
///
/// Instrumentation sites may use this to skip work whose only purpose is
/// producing trace detail (e.g. formatting a label string).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn lock_session() -> std::sync::MutexGuard<'static, Option<Session>> {
    // A panic while holding the lock only poisons trace bookkeeping, never
    // the computation being traced, so recover rather than propagate.
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

/// Opens a span named `name`. Equivalent to [`span_labeled`] with no detail.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { slot: None };
    }
    open_span(name, None)
}

/// Opens a span with a free-form detail string (e.g. the CLI subcommand).
///
/// The detail is only formatted into the record when tracing is enabled, but
/// callers constructing an expensive `detail` should still guard on
/// [`enabled`] themselves.
#[inline]
pub fn span_labeled(name: &'static str, detail: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { slot: None };
    }
    open_span(name, Some(detail.to_string()))
}

fn open_span(name: &'static str, detail: Option<String>) -> SpanGuard {
    let mut guard = lock_session();
    let Some(session) = guard.as_mut() else {
        return SpanGuard { slot: None };
    };
    let id = session.id;
    let parent =
        SPAN_STACK.with(|s| s.borrow().last().filter(|(sid, _)| *sid == id).map(|&(_, idx)| idx));
    // Timestamps are assigned under the session lock, so indices in
    // `session.spans` are globally monotonic in `start_us` — the golden
    // trace test pins this ordering.
    let start_us = session.origin.elapsed().as_micros() as u64;
    session.spans.push(SpanRec { name, detail, start_us, dur_us: 0, closed: false, parent });
    let idx = session.spans.len() - 1;
    drop(guard);
    SPAN_STACK.with(|s| s.borrow_mut().push((id, idx)));
    SpanGuard { slot: Some((id, idx)) }
}

/// RAII guard returned by [`span`]; records the span duration on drop.
///
/// Guards belonging to a session that has since been finished (or replaced
/// by a newer [`TraceHandle::begin`]) become inert: dropping them touches
/// nothing.
#[must_use = "a span measures the scope it is alive in; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    slot: Option<(u64, usize)>,
}

impl SpanGuard {
    /// Replaces the span's detail, for a label known only once the measured
    /// work has run (e.g. the interval a bounds probe found).
    ///
    /// Does nothing when tracing is disabled or the span's session has
    /// ended.
    pub fn set_detail(&self, detail: &str) {
        let Some((id, idx)) = self.slot else { return };
        let mut guard = lock_session();
        if let Some(session) = guard.as_mut() {
            if session.id == id {
                session.spans[idx].detail = Some(detail.to_string());
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, idx)) = self.slot else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&(id, idx)) {
                stack.pop();
            }
        });
        let mut guard = lock_session();
        if let Some(session) = guard.as_mut() {
            if session.id == id {
                let now = session.origin.elapsed().as_micros() as u64;
                let rec = &mut session.spans[idx];
                rec.dur_us = now.saturating_sub(rec.start_us);
                rec.closed = true;
            }
        }
    }
}

/// Adds `delta` to the named ambient counter of the active session.
///
/// A no-op (one relaxed atomic load) when tracing is disabled; the counter
/// springs into existence on first use.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut guard = lock_session();
    if let Some(session) = guard.as_mut() {
        *session.counters.entry(name.to_string()).or_insert(0) += delta;
    }
}

/// Handle to an active trace session; finishing it yields the report.
pub struct TraceHandle {
    id: u64,
}

impl TraceHandle {
    /// Starts a new trace session, replacing any active one.
    ///
    /// Replacing invalidates the previous session's open [`SpanGuard`]s
    /// (they become inert) and discards its records. Tests sharing a
    /// process must serialize calls to `begin`/`finish`.
    pub fn begin() -> TraceHandle {
        let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
        let mut guard = lock_session();
        *guard = Some(Session {
            id,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        });
        drop(guard);
        ENABLED.store(true, Ordering::SeqCst);
        TraceHandle { id }
    }

    /// Ends the session and returns everything it recorded.
    ///
    /// Spans still open at this point (e.g. on other threads) are closed
    /// with a duration running to the finish instant. If a newer session
    /// has replaced this one, an empty report is returned and the newer
    /// session is left running.
    pub fn finish(self) -> TraceReport {
        let mut guard = lock_session();
        let owned = matches!(guard.as_ref(), Some(s) if s.id == self.id);
        if !owned {
            return TraceReport::default();
        }
        let session = guard.take().expect("session checked above");
        drop(guard);
        ENABLED.store(false, Ordering::SeqCst);

        let wall_us = session.origin.elapsed().as_micros() as u64;
        let spans = session
            .spans
            .into_iter()
            .map(|rec| TraceSpan {
                name: rec.name.to_string(),
                detail: rec.detail,
                start_us: rec.start_us,
                dur_us: if rec.closed { rec.dur_us } else { wall_us.saturating_sub(rec.start_us) },
                parent: rec.parent,
            })
            .collect();
        TraceReport { command: String::new(), wall_us, spans, counters: session.counters }
    }
}

/// One recorded span in a [`TraceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Phase name, e.g. `"kpm.moments"` (see the README span glossary).
    pub name: String,
    /// Optional free-form detail (e.g. the CLI subcommand).
    pub detail: Option<String>,
    /// Start offset from session begin, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Index into the report's `spans` of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Everything a finished trace session recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// The command or workload this trace covers (set by the producer).
    pub command: String,
    /// Wall time from `begin` to `finish`, microseconds.
    pub wall_us: u64,
    /// Recorded spans, in start order.
    pub spans: Vec<TraceSpan>,
    /// Ambient counters accumulated via [`counter_add`] (and mirrored
    /// [`Counter`] cells), keyed by name.
    pub counters: BTreeMap<String, u64>,
}

impl TraceReport {
    /// Sum of the durations of all spans named `name`, microseconds.
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).sum()
    }

    /// Value of the named counter, if it was ever bumped.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Sets a counter after the fact (used to fold derived gauges into the
    /// report before serialization).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Serializes the report to the versioned trace JSON schema.
    ///
    /// Schema (`version` 1): `command` (string), `wall_us` (integer),
    /// `spans` (array of `{name, detail?, start_us, dur_us, parent}` with
    /// `parent` an index or `null`), `counters` (object of integers).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        out.push_str("{\n  \"version\": 1,\n  \"command\": ");
        out.push_str(&json::quote(&self.command));
        out.push_str(",\n  \"wall_us\": ");
        out.push_str(&self.wall_us.to_string());
        out.push_str(",\n  \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            out.push_str(&json::quote(&span.name));
            if let Some(detail) = &span.detail {
                out.push_str(", \"detail\": ");
                out.push_str(&json::quote(detail));
            }
            out.push_str(", \"start_us\": ");
            out.push_str(&span.start_us.to_string());
            out.push_str(", \"dur_us\": ");
            out.push_str(&span.dur_us.to_string());
            out.push_str(", \"parent\": ");
            match span.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json::quote(name));
            out.push_str(": ");
            out.push_str(&value.to_string());
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Writes [`TraceReport::to_json`] to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// A named, always-live counter cell (serve-style metric).
///
/// Unlike [`counter_add`], the cell accumulates whether or not tracing is
/// enabled, so instance-owned metrics (e.g. per-`BatchService`) stay exact.
/// While a trace session is active, every increment is additionally
/// mirrored into the session's ambient counter of the same name.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter with the given canonical name.
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// The canonical metric name, e.g. `"serve.jobs.submitted"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        counter_add(self.name, delta);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named, always-live up/down gauge cell (point-in-time metric).
///
/// Where a [`Counter`] only ever grows, a gauge tracks a level that rises
/// and falls — open network sessions, per-client in-flight jobs, queue
/// occupancy. Decrements saturate at zero rather than wrapping, so a
/// double-release bug reads as a stuck-low gauge instead of a number near
/// `u64::MAX`.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// Creates a zeroed gauge with the given canonical name.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, value: AtomicU64::new(0) }
    }

    /// The canonical metric name, e.g. `"net.sessions.open"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Raises the level by one and returns the new value.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Lowers the level by one, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        // fetch_update never wraps below zero even under concurrent decs.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Sets the level directly (e.g. mirroring a queue depth).
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Lock-free log₂-bucketed latency histogram (microsecond resolution).
///
/// Bucket `i` counts samples with `floor(log2(µs)) == i`, saturating at the
/// top bucket; sub-microsecond samples land in bucket 0. Good enough for
/// order-of-magnitude queue-wait and execution-time quantiles without
/// allocation or locking on the hot path.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; 32],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = if micros == 0 { 0 } else { (63 - micros.leading_zeros() as usize).min(31) };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed) / n)
    }

    /// Upper bound (in µs) of the bucket containing the `q`-quantile.
    ///
    /// Returns an exclusive power-of-two bound: e.g. `1024` means the
    /// quantile sample took less than 1024 µs.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target.max(1) {
                return 1u64 << (i + 1);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace sessions are process-global; tests touching them serialize.
    static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TRACE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _lock = locked();
        assert!(!enabled());
        {
            let _s = span("kpm.moments");
            counter_add("kpm.realizations", 10);
        }
        let report = TraceHandle::begin().finish();
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let _lock = locked();
        let handle = TraceHandle::begin();
        {
            let _outer = span_labeled("cli.command", "dos");
            {
                let _inner = span("kpm.moments");
                counter_add("kpm.realizations", 3);
                counter_add("kpm.realizations", 4);
            }
            let _sibling = span("kpm.reconstruct");
        }
        let report = handle.finish();
        assert!(!enabled());
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.spans[0].name, "cli.command");
        assert_eq!(report.spans[0].detail.as_deref(), Some("dos"));
        assert_eq!(report.spans[0].parent, None);
        assert_eq!(report.spans[1].name, "kpm.moments");
        assert_eq!(report.spans[1].parent, Some(0));
        assert_eq!(report.spans[2].name, "kpm.reconstruct");
        assert_eq!(report.spans[2].parent, Some(0));
        assert_eq!(report.counter("kpm.realizations"), Some(7));
        // Start offsets are monotonic in record order.
        for pair in report.spans.windows(2) {
            assert!(pair[0].start_us <= pair[1].start_us);
        }
    }

    #[test]
    fn stale_guard_from_replaced_session_is_inert() {
        let _lock = locked();
        let old = TraceHandle::begin();
        let stale = span("kpm.moments");
        let new = TraceHandle::begin();
        assert!(old.finish().spans.is_empty(), "replaced handle yields an empty report");
        drop(stale); // must not touch the new session
        let _live = span("kpm.rescale");
        drop(_live);
        let report = new.finish();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "kpm.rescale");
        assert_eq!(report.spans[0].parent, None);
    }

    #[test]
    fn detail_set_after_the_span_opened_is_recorded() {
        let _lock = locked();
        span("kpm.bounds").set_detail("ignored while disabled");
        let handle = TraceHandle::begin();
        {
            let outer = span_labeled("kpm.rescale", "before");
            let inner = span("kpm.bounds");
            inner.set_detail("lanczos:64 a_plus=0.5");
            outer.set_detail("after");
        }
        let report = handle.finish();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].detail.as_deref(), Some("after"));
        assert_eq!(report.spans[1].name, "kpm.bounds");
        assert_eq!(report.spans[1].detail.as_deref(), Some("lanczos:64 a_plus=0.5"));
        assert_eq!(report.spans[1].parent, Some(0));
    }

    #[test]
    fn counter_cell_mirrors_into_session_when_enabled() {
        let _lock = locked();
        static HITS: Counter = Counter::new("serve.cache.hits");
        let before = HITS.get();
        HITS.inc(); // disabled: cell only
        let handle = TraceHandle::begin();
        HITS.add(2); // enabled: cell + session mirror
        let report = handle.finish();
        assert_eq!(HITS.get(), before + 3);
        assert_eq!(report.counter("serve.cache.hits"), Some(2));
    }

    #[test]
    fn json_output_parses_and_roundtrips_fields() {
        let _lock = locked();
        let handle = TraceHandle::begin();
        {
            let _root = span_labeled("cli.command", "dos \"quoted\"");
            let _child = span("kpm.moments");
        }
        let mut report = handle.finish();
        report.command = "dos".to_string();
        report.set_counter("kpm.realizations", 28);

        let value = json::parse(&report.to_json()).expect("trace JSON parses");
        assert_eq!(value.get("version").and_then(json::Value::as_u64), Some(1));
        assert_eq!(value.get("command").and_then(json::Value::as_str), Some("dos"));
        let spans = value.get("spans").and_then(json::Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("detail").and_then(json::Value::as_str), Some("dos \"quoted\""));
        assert!(spans[0].get("parent").unwrap().is_null());
        assert_eq!(spans[1].get("parent").and_then(json::Value::as_u64), Some(0));
        let counters = value.get("counters").unwrap();
        assert_eq!(counters.get("kpm.realizations").and_then(json::Value::as_u64), Some(28));
    }

    #[test]
    fn gauge_rises_falls_and_saturates_at_zero() {
        static OPEN: Gauge = Gauge::new("net.sessions.open");
        assert_eq!(OPEN.name(), "net.sessions.open");
        assert_eq!(OPEN.inc(), 1);
        assert_eq!(OPEN.inc(), 2);
        OPEN.dec();
        assert_eq!(OPEN.get(), 1);
        OPEN.dec();
        OPEN.dec(); // extra release must not wrap
        assert_eq!(OPEN.get(), 0);
        OPEN.set(7);
        assert_eq!(OPEN.get(), 7);
        OPEN.set(0);
    }

    #[test]
    fn gauge_is_consistent_under_concurrent_inc_dec() {
        let gauge = std::sync::Arc::new(Gauge::new("net.inflight"));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = std::sync::Arc::clone(&gauge);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    g.inc();
                    g.dec();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gauge.get(), 0);
    }

    #[test]
    fn histogram_mean_and_quantiles_match_serve_semantics() {
        let h = Histogram::default();
        for micros in [3u64, 5, 1000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Duration::from_micros(336));
        assert_eq!(h.quantile_upper_micros(0.5), 8);
        assert_eq!(h.quantile_upper_micros(1.0), 1024);
        assert_eq!(Histogram::default().quantile_upper_micros(0.9), 0);
    }

    #[test]
    fn cross_thread_spans_are_recorded_without_parent() {
        let _lock = locked();
        let handle = TraceHandle::begin();
        {
            let _root = span("cli.command");
            std::thread::spawn(|| {
                let _worker = span("serve.job");
            })
            .join()
            .unwrap();
        }
        let report = handle.finish();
        let worker = report.spans.iter().find(|s| s.name == "serve.job").unwrap();
        assert_eq!(worker.parent, None);
    }
}
