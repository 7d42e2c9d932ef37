//! What a run reports: the metric catalogue (names and units exactly as in
//! `BENCHMARK.json`), answer checks, and the JSON written at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Printed on every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("index_bytes_per_term", "B/term"),
    ("fpr_per_doc", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Printed on every traced run; a
/// layer the workload never calls reads 0 and is listed under
/// `not_on_path` in the run's detail file.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read_p99_us", "us"),
    ("read_qps_at_slo", "1/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("write_mterms_per_s", "Mterm/s"),
    ("kmer.extract_ns_per_base", "ns/base"),
    ("core.pipeline.hash_s", "s"),
    ("core.pipeline.apply_s", "s"),
    ("core.index.bytes", "B"),
    ("core.index.size_over_lemma46", "ratio"),
    ("core.query.p50_us", "us"),
    ("core.query.p99_us", "us"),
    ("core.query.share", "ratio"),
    ("core.batch.p50_us", "us"),
    ("core.batch.over_query", "ratio"),
    ("server.engine.p50_us", "us"),
    ("server.engine.p99_us", "us"),
    ("server.inline_share", "ratio"),
    ("server.mean_batch", "count"),
    ("server.queue_depth_max", "count"),
    ("server.rejected", "count"),
    ("server.expired", "count"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.evictions", "count"),
    ("server.tcp.wire_p50_us", "us"),
    ("server.tcp.wire_share", "ratio"),
    ("server.tenant.read_p50_us", "us"),
    ("server.tenant.read_p99_us", "us"),
    ("server.resp.wire_p50_us", "us"),
    ("server.live.read_p99_us", "us"),
    ("server.live.write_p99_us", "us"),
    ("server.live.beside_writes_p50_us", "us"),
    ("core.generations.seals", "count"),
    ("core.generations.merges", "count"),
    ("core.generations.final_generations", "count"),
    ("core.generations.insert_p99_us", "us"),
    ("core.generations.seal_ms", "ms"),
    ("core.generations.merge_ms", "ms"),
    ("core.generations.write_amp", "ratio"),
    ("cluster.coordinator.p50_us", "us"),
    ("cluster.shard.p50_us", "us"),
    ("cluster.hop_p50_us", "us"),
    ("cluster.hedge_rate", "ratio"),
    ("cluster.failovers", "count"),
    ("error_rate", "ratio"),
    ("trace.overhead_us", "us"),
];

/// Accumulates answer checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub made: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first few failures, described.
    pub first: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failed += 1;
            if self.first.len() < 5 {
                self.first.push(what());
            }
        }
    }

    /// Record each error reply (by request index) as a failed check: a
    /// wrong answer, never a refusal.
    pub fn error_replies(&mut self, errors: &[(usize, String)]) {
        for (i, why) in errors {
            self.check(false, || format!("request {i}: error reply {why:?}"));
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Answer checks.
    pub checks: Checks,
    /// Requests attempted (all open-loop reads and writes of the run).
    pub attempted: u64,
    /// Requests refused, expired or timed out.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload does not reach.
    pub not_on_path: Vec<&'static str>,
    /// Extra facts for the detail file: name → raw JSON value.
    pub details: BTreeMap<String, String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a detail (`value` is already JSON).
    pub fn detail(&mut self, name: &str, value: impl Into<String>) {
        self.details.insert(name.to_string(), value.into());
    }

    /// The final result line for `catalogue`: every metric of the catalogue
    /// (missing per-layer metrics read 0 and are noted as off-path).
    pub fn result_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut body = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None => {
                    self.not_on_path.push(name);
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.checks.failed == 0 && self.checks.made > 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// The detail document: metrics, checks, and every recorded detail.
    #[must_use]
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"checks\": {{\"made\": {}, \"failed\": {}, \"first_failures\": [{}]}},",
            self.checks.made,
            self.checks.failed,
            self.checks
                .first
                .iter()
                .map(|s| json_str(s))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  \"not_on_path\": [{}],",
            self.not_on_path
                .iter()
                .map(|s| json_str(s))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (k, v) in &self.details {
            let _ = writeln!(out, "  {}: {v},", json_str(k));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let _ = writeln!(out, "  \"metrics\": {{{}}}", metrics.join(", "));
        out.push('}');
        out
    }
}

/// A JSON number (non-finite values, which JSON cannot carry, become -1).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_and_notes_missing_layers() {
        let mut r = Report::default();
        r.checks.check(true, String::new);
        r.attempted = 10;
        r.set("server.rejected", 2.0);
        let at = PER_LAYER
            .iter()
            .position(|m| m.0 == "server.queue_depth_max")
            .unwrap();
        let line = r.result_line(&PER_LAYER[at..at + 2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"server.queue_depth_max\": {\"value\": 0, \"unit\": \"count\"}, \"server.rejected\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert_eq!(r.not_on_path, vec!["server.queue_depth_max"]);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.checks.check(true, String::new);
        r.checks.check(false, || "mismatch".into());
        assert!(r.result_line(&[]).starts_with("{\"correct\": false"));
        assert!(r.detail_json().contains("\"mismatch\""));
    }
}
