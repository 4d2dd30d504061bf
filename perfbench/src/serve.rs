//! Helpers the two serving workloads share: plan checks, per-source latency, service
//! counters, and the per-layer metrics derived from traces and reference optimizations.

use crate::harness::{TraceAgg, LAYERS};
use crate::probe::{baselines, enumerate, Reference};
use crate::report::Report;
use crate::stats::{geomean, mean, median};
use dphyp::{canonicalize, PlanTier, QuerySpec};
use qo_plan::PlanNode;
use qo_service::{CacheStats, Fingerprint, PlanSource};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A served plan is valid when it scans each of the query's `n` relations exactly once and
/// its cost is a finite non-negative number.
pub fn valid_plan(plan: &PlanNode, n: usize, cost: f64) -> bool {
    let mut ids = plan.relation_ids();
    ids.sort_unstable();
    cost.is_finite()
        && cost >= 0.0
        && ids.len() == n
        && ids.iter().enumerate().all(|(i, &r)| i == r)
}

/// Latency samples of individual serves, by the path that answered them. Only the traced
/// run reports them, so the untraced run keeps none (see [`SourceLatencies::off`]).
#[derive(Debug, Default)]
pub struct SourceLatencies {
    off: bool,
    by_source: BTreeMap<&'static str, Vec<f64>>,
}

impl SourceLatencies {
    /// A recorder that keeps nothing.
    pub fn off() -> SourceLatencies {
        SourceLatencies {
            off: true,
            ..SourceLatencies::default()
        }
    }

    pub fn record(&mut self, source: PlanSource, ns: f64) {
        if self.off {
            return;
        }
        let key = match source {
            PlanSource::CacheHit => "source.hit_p50_us",
            PlanSource::Recost => "source.recost_p50_us",
            PlanSource::RecostFallback => "source.recost_fallback_p50_us",
            PlanSource::Miss => "source.miss_p50_us",
            PlanSource::Pinned => "source.pinned_p50_us",
        };
        self.by_source.entry(key).or_default().push(ns);
    }

    pub fn report(&self, report: &mut Report) {
        for (name, samples) in &self.by_source {
            report.set(name, median(samples) / 1e3);
        }
    }
}

/// Mean time of `Fingerprint::of` over the canonical forms of `specs`.
pub fn fingerprint_ns<'a>(specs: impl Iterator<Item = &'a QuerySpec>) -> f64 {
    const REPS: usize = 200;
    let per_spec: Vec<f64> = specs
        .map(|spec| {
            let canonical = canonicalize(spec);
            let t = Instant::now();
            for _ in 0..REPS {
                black_box(Fingerprint::of(black_box(&canonical)));
            }
            t.elapsed().as_nanos() as f64 / REPS as f64
        })
        .collect();
    mean(&per_spec)
}

/// Cache outcome counts (cumulative since the service was built) and mean serve time per
/// outcome over the window `before..after`.
pub fn service_stats(
    report: &mut Report,
    counted: &CacheStats,
    before: &CacheStats,
    after: &CacheStats,
) {
    report.set("service.hits", counted.hits as f64);
    report.set("service.shape_hits", counted.shape_hits as f64);
    report.set("service.recost_fallbacks", counted.recost_fallbacks as f64);
    report.set("service.misses", counted.misses as f64);
    report.set("service.evictions", counted.evictions as f64);
    report.set(
        "service.hit_ratio",
        counted.hits as f64 / counted.lookups().max(1) as f64,
    );
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    report.set(
        "service.hit_ns",
        per(after.hit_ns - before.hit_ns, after.hits - before.hits),
    );
    report.set(
        "service.recost_ns",
        per(
            after.recost_ns - before.recost_ns,
            after.shape_hits - before.shape_hits,
        ),
    );
    report.set(
        "service.miss_ns",
        per(
            after.miss_ns - before.miss_ns,
            (after.misses + after.recost_fallbacks) - (before.misses + before.recost_fallbacks),
        ),
    );
}

/// Per-layer times from the traced phase's spans: program spans `parse`, `lower`,
/// `canonicalize`, `serve`, `recost` and the benchmark's own `bench.*` spans.
pub fn trace_layers(report: &mut Report, agg: &TraceAgg) {
    let parses = agg.spans.get("parse").map_or(0, |s| s.count);
    let ingest_ns: u64 = ["parse", "lower"]
        .iter()
        .filter_map(|n| agg.spans.get(n))
        .map(|s| s.total_ns)
        .sum();
    report.set(
        "ingest.parse_lower_ns",
        if parses == 0 {
            0.0
        } else {
            ingest_ns as f64 / parses as f64
        },
    );
    report.set("canon.canonicalize_ns", agg.mean_ns("canonicalize"));
    let serves = agg.spans.get("serve").map_or(0, |s| s.count);
    let service = LAYERS.iter().position(|&l| l == "service").expect("layer");
    let service_self: u64 = agg.per_op.iter().map(|op| op[service]).sum();
    report.set(
        "service.self_ns",
        if serves == 0 {
            0.0
        } else {
            service_self as f64 / serves as f64
        },
    );
    report.set("recost.recost_spec_ns", agg.mean_ns("recost"));
    report.set("exec.execute_ns", agg.mean_ns("bench.execute"));
    report.set(
        "service.observe_execution_ns",
        agg.mean_ns("bench.observe_execution"),
    );
}

/// The adaptive layer's work on the workload's reference optimizations (counts are
/// deterministic for a given query set), and on the exact-tier ones the split of a pair's
/// time into enumeration and costing. The heuristics alone are timed on at most
/// `probe_cap` of the references.
pub fn reference_layers(report: &mut Report, refs: &[(QuerySpec, Reference)], probe_cap: usize) {
    let sum = |f: fn(&Reference) -> usize| refs.iter().map(|(_, r)| f(r)).sum::<usize>() as f64;
    let tier = |t: PlanTier| refs.iter().filter(|(_, r)| r.tier == t).count() as f64;
    let times: Vec<f64> = refs.iter().map(|(_, r)| r.optimize_ns).collect();
    report.set("adaptive.optimize_ns", mean(&times));
    report.set("adaptive.exact_ccps", sum(|r| r.telemetry.exact_ccps));
    report.set("adaptive.tier_exact", tier(PlanTier::Exact));
    report.set("adaptive.tier_idp", tier(PlanTier::Idp));
    report.set("adaptive.tier_greedy", tier(PlanTier::Greedy));
    report.set("adaptive.pruned_pairs", sum(|r| r.telemetry.pruned_pairs));
    report.set(
        "adaptive.fallback_cost_calls",
        sum(|r| r.telemetry.fallback_cost_calls),
    );
    report.set("adaptive.dp_entries", sum(|r| r.dp_entries));

    let (mut full, mut enumeration) = (Vec::new(), Vec::new());
    for (spec, r) in refs {
        if let Some(npp) = r.ns_per_pair() {
            let (ns, pairs) = enumerate(spec, 3);
            full.push(npp);
            enumeration.push(ns / pairs.max(1) as f64);
        }
    }
    let enumerate_npp = geomean(&enumeration);
    report.set("enumerate.ns_per_pair", enumerate_npp);
    report.set("catalog.cost_ns_per_pair", geomean(&full) - enumerate_npp);

    let (idp_ns, goo_ns): (Vec<f64>, Vec<f64>) = refs
        .iter()
        .take(probe_cap)
        .map(|(spec, _)| baselines(spec))
        .unzip();
    report.set("baselines.idp_ns", mean(&idp_ns));
    report.set("baselines.goo_ns", mean(&goo_ns));
}
