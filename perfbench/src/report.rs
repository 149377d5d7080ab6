//! The metric catalogue and the result the runner reads.
//!
//! A run prints notes (lines starting `#`), one `metric NAME = VALUE UNIT`
//! line per metric, and, as its last line, one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit it is reported in.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricSpec; 8] = [
    m("setup_s", "s"),
    m("jobs_per_s", "1/s"),
    m("job_ms_p50", "ms"),
    m("job_ms_tail", "ms"),
    m("fresh_ms_p50", "ms"),
    m("repeat_ms_p50", "ms"),
    m("cpu_s_per_job", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricSpec; 32] = [
    m("linalg.spmm_ms", "ms"),
    m("linalg.spmm_gflops", "GFLOP/s"),
    m("linalg.spmm_gbps", "GB/s"),
    m("linalg.combine_dot_gbps", "GB/s"),
    m("host.triad_gbps", "GB/s"),
    m("linalg.roofline_frac", "ratio"),
    m("kpm.moments_ms", "ms"),
    m("kpm.moments_1t_ms", "ms"),
    m("kpm.parallel_eff", "ratio"),
    m("kpm.exec_steals_per_sweep", "ratio"),
    m("kpm.tune_probe_ms", "ms"),
    m("kpm.tune_tile_rows", "rows"),
    m("kpm.bounds_ms", "ms"),
    m("kpm.bounds_probes_per_job", "count"),
    m("kpm.reconstruct_ms", "ms"),
    m("lattice.assemble_ms", "ms"),
    m("lattice.op_bytes", "B"),
    m("serve.queue_wait_ms_p50", "ms"),
    m("serve.exec_ms_p50", "ms"),
    m("serve.cache_hit_ratio", "ratio"),
    m("shard.partial_ms", "ms"),
    m("shard.codec_us", "us"),
    m("shard.frame_bytes", "B"),
    m("shard.merge_us", "us"),
    m("shard.coordinator_ms", "ms"),
    m("fleet.warm_place_ratio", "ratio"),
    m("fleet.steals", "count"),
    m("fleet.journal_append_ms", "ms"),
    m("fleet.journal_bytes_per_job", "B"),
    m("net.codec_us", "us"),
    m("net.stats_rtt_ms", "ms"),
    m("obs.trace_overhead_frac", "ratio"),
];

/// A valid metric name: at most 64 letters, digits, `_`, `.` and `-`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every timed job completed and every check on its outputs passed.
    pub correct: bool,
    /// Jobs attempted in the timed phases.
    pub attempted: u64,
    /// Failed, rejected or wrong jobs among them.
    pub failed: u64,
    metrics: Vec<(MetricSpec, f64)>,
    /// Lines printed ahead of the metrics: attribution, sample counts,
    /// failure reasons.
    pub notes: Vec<String>,
}

impl Report {
    /// A report holding exactly `catalogue`'s metrics, in catalogue order.
    ///
    /// # Errors
    /// A catalogue metric is missing or not finite, or `values` names a
    /// metric outside the catalogue.
    pub fn new(
        catalogue: &[MetricSpec],
        mut values: BTreeMap<&'static str, f64>,
        attempted: u64,
        failed: u64,
        notes: Vec<String>,
    ) -> Result<Report, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for spec in catalogue {
            let value = values
                .remove(spec.name)
                .ok_or_else(|| format!("{} was not measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("{} is not finite ({value})", spec.name));
            }
            metrics.push((*spec, value));
        }
        if let Some(extra) = values.keys().next() {
            return Err(format!("{extra} is not in the catalogue"));
        }
        Ok(Report { correct: failed == 0 && attempted > 0, attempted, failed, metrics, notes })
    }

    /// Notes, one `metric` line per metric, then the JSON result as the
    /// last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (spec, value) in &self.metrics {
            let _ = writeln!(out, "metric {} = {value} {}", spec.name, spec.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(spec, value)| {
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", spec.name, spec.unit)
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use kpm::obs::json;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_used_once() {
        let mut names = std::collections::HashSet::new();
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(valid_unit(spec.unit), "{}: {}", spec.name, spec.unit);
            assert!(names.insert(spec.name), "{} is listed twice", spec.name);
        }
        assert!(!valid_name("two words") && !valid_name("_x") && !valid_name("a/b"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit("seventeen-letters"));
    }

    #[test]
    fn render_prints_every_metric_with_its_unit_and_ends_with_the_result() {
        for catalogue in [&END_TO_END[..], &PER_LAYER[..]] {
            let values =
                catalogue.iter().enumerate().map(|(i, s)| (s.name, 0.25 + i as f64)).collect();
            let report = Report::new(catalogue, values, 12, 0, vec!["a note".into()]).unwrap();
            let text = report.render();
            for (i, spec) in catalogue.iter().enumerate() {
                let line = format!("metric {} = {} {}", spec.name, 0.25 + i as f64, spec.unit);
                assert!(text.lines().any(|l| l == line), "missing '{line}'");
            }
            let result = json::parse(text.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> =
                result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = result.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), catalogue.len());
            for (spec, (name, metric)) in catalogue.iter().zip(metrics) {
                assert_eq!(name, spec.name);
                assert_eq!(metric.get("unit").and_then(|u| u.as_str()), Some(spec.unit));
            }
        }
    }

    #[test]
    fn a_missing_unknown_or_infinite_metric_is_an_error() {
        let all = || -> BTreeMap<&'static str, f64> {
            END_TO_END.iter().map(|s| (s.name, 1.0)).collect()
        };
        assert!(Report::new(&END_TO_END, all(), 1, 0, vec![]).is_ok());
        assert!(Report::new(&END_TO_END, BTreeMap::new(), 1, 0, vec![]).is_err());
        let mut extra = all();
        extra.insert("not_a_metric", 1.0);
        assert!(Report::new(&END_TO_END, extra, 1, 0, vec![]).is_err());
        let mut infinite = all();
        infinite.insert("setup_s", f64::INFINITY);
        assert!(Report::new(&END_TO_END, infinite, 1, 0, vec![]).is_err());
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field =
            |v: &json::Value, key: &str| v.get(key).and_then(|s| s.as_str()).unwrap().to_string();
        let list = |key: &str| doc.get(key).and_then(|l| l.as_array()).unwrap().to_vec();
        for (key, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> =
                list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
            let ours: Vec<(String, String)> =
                catalogue.iter().map(|s| (s.name.to_string(), s.unit.to_string())).collect();
            assert_eq!(listed, ours, "{key}");
        }
        for workload in list("workloads") {
            assert!(field(&workload, "name").parse::<Workload>().is_ok(), "{workload:?}");
        }
    }
}
