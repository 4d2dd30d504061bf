//! Metric names, units and the result line.
//!
//! The two name lists below are the benchmark's contract with `BENCHMARK.json`: an untraced
//! run reports exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`] (a test checks that
//! both match the file). A metric a run could not measure, because the workload does not load
//! that layer or its set-up failed, is still written, as `0`.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ns_per_pair", "ns"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("counted_ops", "count"),
    ("latency_samples", "count"),
    ("latency_tail_samples", "count"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_mean_ns", "ns"),
    ("trace.layer_cover", "ratio"),
    ("ingest.parse_lower_ns", "ns"),
    ("canon.canonicalize_ns", "ns"),
    ("service.fingerprint_ns", "ns"),
    ("service.self_ns", "ns"),
    ("service.hit_ns", "ns"),
    ("service.recost_ns", "ns"),
    ("service.miss_ns", "ns"),
    ("service.hits", "count"),
    ("service.shape_hits", "count"),
    ("service.recost_fallbacks", "count"),
    ("service.misses", "count"),
    ("service.evictions", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.pinned_serves", "count"),
    ("service.pins", "count"),
    ("service.pinned_cost_ratio", "ratio"),
    ("service.observe_execution_ns", "ns"),
    ("source.hit_p50_us", "us"),
    ("source.recost_p50_us", "us"),
    ("source.recost_fallback_p50_us", "us"),
    ("source.miss_p50_us", "us"),
    ("source.pinned_p50_us", "us"),
    ("recost.recost_spec_ns", "ns"),
    ("adaptive.optimize_ns", "ns"),
    ("adaptive.exact_ccps", "count"),
    ("adaptive.tier_exact", "count"),
    ("adaptive.tier_idp", "count"),
    ("adaptive.tier_greedy", "count"),
    ("adaptive.pruned_pairs", "count"),
    ("adaptive.fallback_cost_calls", "count"),
    ("adaptive.dp_entries", "count"),
    ("baselines.idp_ns", "ns"),
    ("baselines.goo_ns", "ns"),
    ("enumerate.ns_per_pair", "ns"),
    ("catalog.cost_ns_per_pair", "ns"),
    ("algebra.derive_ns", "ns"),
    ("exec.execute_ns", "ns"),
    ("exec.row_limit_bursts", "count"),
    ("exact.clique12.ns_per_pair", "ns"),
    ("exact.star16.ns_per_pair", "ns"),
    ("exact.star16_splits.ns_per_pair", "ns"),
    ("exact.cycle16_splits.ns_per_pair", "ns"),
    ("exact.chain96.ns_per_pair", "ns"),
    ("exact.fig8a_antijoin_star16.ns_per_pair", "ns"),
    ("exact.fig8b_outer_cycle16.ns_per_pair", "ns"),
    ("mix.unseen_share", "ratio"),
    ("mix.repeat_share", "ratio"),
    ("mix.small_drift_share", "ratio"),
    ("mix.large_drift_share", "ratio"),
    ("mix.feedback_share", "ratio"),
];

/// One run's outcome: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (at least 1 in a printed result).
    pub attempted: u64,
    /// Operations that returned an error, panicked or failed a correctness check.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric. Names must come from [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the contract"
        );
        self.metrics.insert(name, value);
    }

    /// The JSON result line for the metric set `names`: every name is written, missing ones
    /// as `0`, non-finite values as `0` (JSON has no NaN). `correct` holds when nothing failed.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        let attempted = self.attempted.max(1);
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (list, key) in [(END_TO_END, "\"end_to_end\""), (PER_LAYER, "\"per_layer\"")] {
            let section = &text[text.find(key).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let declared = section.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{key}: metric count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{key}: missing {entry}");
            }
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn json_writes_every_name_and_finite_numbers() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 1.25);
        r.set("ops_per_s", f64::NAN);
        let json = r.to_json(END_TO_END);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"ops_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
        r.failed = 1;
        assert!(r.to_json(END_TO_END).starts_with("{\"correct\": false"));
    }
}
