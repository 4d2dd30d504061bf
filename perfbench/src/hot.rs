//! `serve_hot`: after one warm-up pass over the 36 corpus `.jg` texts, the texts go through
//! `Service::plan_jg` with skewed (Zipf) popularity, and every serve is an exact cache hit.
//!
//! The optimizer does no work here: parsing and lowering, canonicalization, fingerprinting
//! and the cache lookup with its serve wrapper make up the whole serve. Popularity follows
//! Zipf(1) with the shortest texts most popular, so the seed varies the request sequence, not
//! which queries are hot, and the p50 and p99 each fall well inside one query's share (the
//! 5-relation JOB queries and `dsb_snow_34`) rather than on the edge between two queries of
//! very different serve times. Every serve must be a `CacheHit` whose plan and cost are
//! bit-identical to the warm-up serve.

use crate::harness::{
    end_to_end, paired_phase, repeated_setup, timed_phase, trace_common, Args, Limits, Side,
    SETUP_REPEATS,
};
use crate::inputs::{Rng, Zipf};
use crate::probe::{time_ns, Reference};
use crate::report::Report;
use crate::serve::{
    fingerprint_ns, reference_layers, service_stats, trace_layers, SourceLatencies,
};
use crate::stats::{cost_ratio, geomean};
use dphyp::{AdaptiveOptions, QuerySpec};
use qo_ingest::IngestQuery;
use qo_obsv::Span;
use qo_plan::PlanNode;
use qo_service::{PlanSource, Service};
use qo_workloads::CORPUS;

/// Serves counted for the deterministic per-layer counts.
const COUNTED: usize = 20_000;
/// After every this many serves, one exact-tier corpus query (round robin) is optimized
/// cold by a fresh optimizer as a [`Reference`], for `ns_per_pair`. Interleaving the timings
/// with the serves makes them average over the same machine conditions as the serves.
const SAMPLE_EVERY: usize = 100;

struct Setup {
    service: Service,
    texts: Vec<&'static str>,
    /// The warm-up serve of each text (`None` if it failed: every later serve of that text
    /// then counts as failed).
    warm: Vec<Option<(PlanNode, f64)>>,
    /// Each corpus query with its options and fresh-optimizer reference optimization.
    references: Vec<(QuerySpec, AdaptiveOptions, Reference)>,
    /// The references the exact tier answered, whose time per pair is sampled.
    exact: Vec<usize>,
    /// The reference cost of each text (`None` if it could not be computed).
    reference_costs: Vec<Option<f64>>,
    /// Popularity rank → text index: shorter texts are more popular.
    by_rank: Vec<usize>,
    popularity: Zipf,
    seed: u64,
    failures: u64,
}

fn setup(seed: u64) -> Setup {
    let texts: Vec<&'static str> = CORPUS.iter().map(|e| e.source).collect();
    let service = Service::default();
    let mut failures = 0;
    let warm = texts
        .iter()
        .map(|text| match service.plan_jg(text) {
            Ok(mut served) if served.len() == 1 => {
                let s = served.remove(0);
                Some((s.plan, s.cost))
            }
            _ => {
                failures += 1;
                None
            }
        })
        .collect();
    let mut references = Vec::new();
    let mut reference_costs = Vec::new();
    for text in &texts {
        let reference = qo_ingest::parse_queries(text)
            .map_err(|e| e.message)
            .and_then(|mut queries| {
                let q: IngestQuery = queries.pop().ok_or("no query")?;
                let options = q.options.apply(AdaptiveOptions::default());
                Ok((q.spec.clone(), options, Reference::of(&q.spec, options, 1)?))
            });
        match reference {
            Ok(r) => {
                reference_costs.push(Some(r.2.cost));
                references.push(r);
            }
            Err(_) => {
                failures += 1;
                reference_costs.push(None);
            }
        }
    }
    let exact = (0..references.len())
        .filter(|&k| references[k].2.ns_per_pair().is_some())
        .collect();
    let mut by_rank: Vec<usize> = (0..texts.len()).collect();
    by_rank.sort_by_key(|&k| texts[k].len());
    Setup {
        service,
        popularity: Zipf::new(texts.len(), 1.0),
        texts,
        warm,
        references,
        exact,
        reference_costs,
        by_rank,
        seed,
        failures,
    }
}

impl Setup {
    /// The text of request `i`: a pure function of the seed and `i`, so a replay sends the
    /// same sequence.
    fn pick(&self, i: usize) -> usize {
        let mut rng = Rng::new(self.seed, 1 + i as u64);
        self.by_rank[self.popularity.sample(&mut rng)]
    }

    fn op(&self, i: usize, sources: &mut SourceLatencies) -> (f64, bool) {
        let k = self.pick(i);
        let (ns, served) = time_ns(|| {
            let _span = Span::enter("bench.plan_jg");
            self.service.plan_jg(self.texts[k])
        });
        let ok = match (served, &self.warm[k]) {
            (Ok(served), Some((plan, cost))) if served.len() == 1 => {
                let s = &served[0];
                sources.record(s.source, ns);
                s.source == PlanSource::CacheHit
                    && s.cost.to_bits() == cost.to_bits()
                    && s.plan == *plan
            }
            _ => false,
        };
        (ns, ok)
    }

    /// Serve `i`, then every [`SAMPLE_EVERY`] serves one interleaved reference optimization,
    /// whose time per pair goes to `ns_per_pair`. A failed reference fails the operation.
    fn op_sampled(
        &self,
        i: usize,
        sources: &mut SourceLatencies,
        side: &mut Side,
        ns_per_pair: &mut Vec<f64>,
    ) -> (f64, bool) {
        let (ns, mut ok) = self.op(i, sources);
        if i.is_multiple_of(SAMPLE_EVERY) && !self.exact.is_empty() {
            let k = self.exact[(i / SAMPLE_EVERY) % self.exact.len()];
            let (spec, options, _) = &self.references[k];
            match side.run(|| Reference::of(spec, *options, 1)) {
                Ok(r) => ns_per_pair.extend(r.ns_per_pair()),
                Err(_) => ok = false,
            }
        }
        (ns, ok)
    }

    /// Served cost over the reference cost, per corpus query; every serve's cost was checked
    /// equal to its warm-up serve.
    fn cost_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .warm
            .iter()
            .zip(&self.reference_costs)
            .filter_map(|(w, r)| Some(cost_ratio(w.as_ref()?.1, (*r)?)))
            .collect();
        geomean(&ratios)
    }
}

fn limits(seconds: f64) -> Limits {
    Limits {
        seconds,
        min_ops: COUNTED,
        granule: 1,
        max_ops: 2_000_000,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    if !args.trace {
        let (s, setup_times) = repeated_setup(SETUP_REPEATS, || setup(args.seed));
        report.attempted += s.texts.len() as u64;
        report.failed += s.failures;
        let mut sources = SourceLatencies::off();
        let mut ns_per_pair = Vec::new();
        let log = timed_phase(limits(args.seconds), |i, side| {
            s.op_sampled(i, &mut sources, side, &mut ns_per_pair)
        });
        end_to_end(
            report,
            &setup_times,
            &log,
            geomean(&ns_per_pair),
            s.cost_ratio(),
        );
        return;
    }

    let s = setup(args.seed);
    report.attempted += s.texts.len() as u64;
    report.failed += s.failures;
    let mut sources = SourceLatencies::default();
    let before = s.service.cache_stats();
    let mut counted = before;
    // The traced serves go to an identically prepared second service.
    let replay = setup(args.seed);
    let (untraced, traced, agg) = paired_phase(
        limits(args.seconds / 2.0),
        |i, _| {
            let r = s.op(i, &mut sources);
            if i + 1 == COUNTED {
                counted = s.service.cache_stats();
            }
            r
        },
        |i| replay.op(i, &mut SourceLatencies::off()),
    );
    let after = s.service.cache_stats();
    trace_common(report, &untraced, &traced, &agg);
    report.set("counted_ops", COUNTED as f64);
    sources.report(report);
    service_stats(report, &counted, &before, &after);
    trace_layers(report, &agg);
    report.set(
        "service.fingerprint_ns",
        fingerprint_ns(s.references.iter().map(|(spec, _, _)| spec)),
    );
    let refs: Vec<(QuerySpec, Reference)> = s
        .references
        .into_iter()
        .map(|(spec, _, r)| (spec, r))
        .collect();
    reference_layers(report, &refs, usize::MAX);
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_run_has_ten_samples_beyond_its_p99() {
        assert!(crate::stats::samples_beyond(super::COUNTED, 0.99) >= 10);
    }
}
