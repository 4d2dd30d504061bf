//! `serve_churn`: one `Service` at default capacity receives a seeded mix of never-seen
//! join graphs, corpus queries under small and large statistics drift, exact repeats, and
//! execution feedback. It loads the service layers in the write direction (inserts,
//! evictions, re-costs, regret-ledger writes), so a change that speeds up hits by adding work
//! to misses shows here.
//!
//! The mix and the budgets below are chosen, not measured: the repository holds no record of
//! query traffic to derive them from. The corpus itself plans 32 of its 36 queries exactly and
//! 4 in the IDP tier; those 4 have 25 or more relations and budgets of 150 000–250 000 pairs,
//! and take ~40 ms each, so they stay out of the timed loop (see [`DRIFT_MAX_RELATIONS`]).
//!
//! * Unseen shapes are random connected graphs of 8–14 relations, each with a shape no
//!   earlier query had. 80% carry no options and plan exactly; to load the fallback tiers on
//!   shapes this small, 13% carry `option ccp_budget = 100` (IDP tier) and 7%
//!   `option ccp_budget = 5` (greedy tier). Enough of them arrive that the cache fills and
//!   evicts.
//! * Drift rescales every cardinality of a corpus query of at most 20 relations by up to
//!   ±10% (small: the re-cost path) or by up to 100× either way (large: mostly the full
//!   re-optimization fallback).
//! * Repeats re-send one of the recent texts verbatim (a corpus text before any was sent).
//! * Feedback serves a corpus query of at most 14 relations, executes the plan with
//!   `qo-exec` on seeded synthetic tables, reports it with `observe_execution`, and re-plans
//!   it with `plan_observed_with` under the observed statistics.
//!
//! Every served plan must scan each relation of its query exactly once at a finite cost.

use crate::harness::{
    end_to_end, paired_phase, repeated_setup, timed_phase, trace_common, Args, Limits, Side,
    SETUP_REPEATS,
};
use crate::inputs::{drift_cardinalities, random_shape_jg, Rng};
use crate::probe::{time_ns, Reference};
use crate::report::Report;
use crate::serve::{
    fingerprint_ns, reference_layers, service_stats, trace_layers, valid_plan, SourceLatencies,
};
use crate::stats::{cost_ratio, geomean};
use dphyp::{canonicalize, AdaptiveOptions, QuerySpec};
use qo_exec::{execute_plan_observed, scaled_table_sizes, Database};
use qo_hypergraph::Hypergraph;
use qo_ingest::{parse_queries, IngestQuery};
use qo_obsv::Span;
use qo_service::{PlanSource, ServedPlan, Service};
use qo_workloads::CORPUS;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Operations counted for the deterministic per-layer counts and for `cost_ratio`; every
/// run performs at least this many.
const COUNTED: usize = 6_000;
/// One operation in this many is re-optimized by a fresh optimizer: over the whole run for
/// `ns_per_pair`, so its timings average over the same machine conditions as the serves, and
/// among the counted operations also for `cost_ratio` and the per-layer counts.
const REFERENCE_EVERY: usize = 12;
/// Timed repetitions of each exact-tier reference optimization (the median is used).
const REFERENCE_REPS: usize = 3;
/// Unseen shapes generated during set-up.
const UNSEEN_POOL: usize = 3_000;
/// Recent texts a repeat draws from.
const HISTORY: usize = 2_048;
/// Largest intermediate result the feedback executions may build.
const ROW_LIMIT: usize = 50_000;
/// Largest corpus query (relations) used for feedback: execution stays small.
const FEEDBACK_MAX_RELATIONS: usize = 14;
/// Largest corpus query (relations) sent with drifted statistics. The larger ones plan in
/// the IDP tier in ~40 ms; a handful of them more or less per run would move the p99 and the
/// throughput by more than the benchmark's bounds, so unseen shapes exercise that tier.
const DRIFT_MAX_RELATIONS: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Unseen,
    Repeat,
    SmallDrift,
    LargeDrift,
    Feedback,
}

/// The operation mix: kind, probability (a choice; see the module comment) and the per-layer
/// metric that reports its share of the counted operations.
const MIX: [(Kind, f64, &str); 5] = [
    (Kind::Unseen, 0.30, "mix.unseen_share"),
    (Kind::Repeat, 0.30, "mix.repeat_share"),
    (Kind::SmallDrift, 0.20, "mix.small_drift_share"),
    (Kind::LargeDrift, 0.05, "mix.large_drift_share"),
    (Kind::Feedback, 0.15, "mix.feedback_share"),
];

/// A `.jg` text with its relation count.
type Text = (Arc<str>, usize);

/// Never-seen shapes, generated in order from the seed. The first [`UNSEEN_POOL`] are made
/// during set-up; later ones on demand.
struct Unseen {
    rng: Rng,
    seen: HashSet<u64>,
    made: u64,
    pool: VecDeque<Text>,
}

impl Unseen {
    fn new(seed: u64, corpus: &[IngestQuery]) -> Unseen {
        let mut unseen = Unseen {
            rng: Rng::new(seed, 2),
            seen: corpus
                .iter()
                .map(|q| canonicalize(&q.spec).shape_hash)
                .collect(),
            made: 0,
            pool: VecDeque::with_capacity(UNSEEN_POOL),
        };
        while unseen.pool.len() < UNSEEN_POOL {
            let text = unseen.make();
            unseen.pool.push_back(text);
        }
        unseen
    }

    fn next(&mut self) -> Text {
        self.pool.pop_front().unwrap_or_else(|| self.make())
    }

    /// A random shape no earlier query had, with the chosen tier split's budget option.
    fn make(&mut self) -> Text {
        loop {
            let n = self.rng.between(8, 14);
            let options = match self.rng.unit() {
                u if u < 0.8 => vec![],
                u if u < 0.93 => vec!["option ccp_budget = 100".to_string()],
                _ => vec!["option ccp_budget = 5".to_string()],
            };
            let name = format!("unseen_{}", self.made);
            let text = random_shape_jg(&mut self.rng, &name, n, &options);
            let spec = &parse_queries(&text).expect("generated text parses")[0].spec;
            if self.seen.insert(canonicalize(spec).shape_hash) {
                self.made += 1;
                return (text.into(), n);
            }
        }
    }
}

/// A corpus query used for execution feedback, with its synthetic tables.
struct FeedbackQuery {
    corpus: usize,
    graph: Hypergraph,
    db: Database,
}

struct Setup {
    service: Service,
    texts: Vec<Text>,
    queries: Vec<IngestQuery>,
    feedback: Vec<FeedbackQuery>,
    /// Corpus queries eligible for drift.
    drift: Vec<usize>,
    unseen: Unseen,
    history: VecDeque<Text>,
    rng: Rng,
    failures: u64,
}

/// Per-run tallies of the counted prefix and the whole run.
#[derive(Default)]
struct Tally {
    sources: SourceLatencies,
    kinds: [u64; MIX.len()],
    pinned_serves: u64,
    bursts: u64,
    /// Fresh-optimizer references of the counted serves.
    refs: Vec<(QuerySpec, Reference)>,
    /// Exact-tier time per pair of every reference, counted or not.
    ns_per_pair: Vec<f64>,
    /// Served cost over reference cost, for serves the model's plan answered.
    ratios: Vec<f64>,
    /// The same for pinned serves. The regret ledger deliberately serves the order that
    /// measured best in execution instead of the model's optimum, so these are kept apart.
    pinned_ratios: Vec<f64>,
    /// Serves that could not be re-optimized.
    reference_failures: u64,
}

impl Tally {
    /// Re-optimizes a serve with a fresh optimizer and records its time per pair, and for a
    /// `counted` serve the cost ratio and the reference.
    fn reference(
        &mut self,
        spec: QuerySpec,
        options: AdaptiveOptions,
        cost: f64,
        source: PlanSource,
        counted: bool,
    ) {
        match Reference::of(&spec, options, REFERENCE_REPS) {
            Ok(r) if !counted => self.ns_per_pair.extend(r.ns_per_pair()),
            Ok(r) => {
                self.ns_per_pair.extend(r.ns_per_pair());
                let ratio = cost_ratio(cost, r.cost);
                if source == PlanSource::Pinned {
                    self.pinned_ratios.push(ratio);
                } else {
                    self.ratios.push(ratio);
                }
                self.refs.push((spec, r));
            }
            Err(_) => self.reference_failures += 1,
        }
    }

    /// The reference of a serve answered from `.jg` text.
    fn reference_text(&mut self, text: &str, cost: f64, source: PlanSource, counted: bool) {
        match parse_queries(text) {
            Ok(mut q) if q.len() == 1 => {
                let q = q.remove(0);
                let options = q.options.apply(AdaptiveOptions::default());
                self.reference(q.spec, options, cost, source, counted);
            }
            _ => self.reference_failures += 1,
        }
    }
}

fn setup(seed: u64) -> Setup {
    // One query per corpus file, in file order.
    let queries: Vec<IngestQuery> = qo_workloads::corpus();
    let texts: Vec<Text> = CORPUS
        .iter()
        .zip(&queries)
        .map(|(e, q)| (Arc::from(e.source), q.relation_count()))
        .collect();
    let service = Service::default();
    let mut failures = 0;
    for (text, _) in &texts {
        if service.plan_jg(text).is_err() {
            failures += 1;
        }
    }
    let feedback = queries
        .iter()
        .enumerate()
        .filter(|(_, q)| q.relation_count() <= FEEDBACK_MAX_RELATIONS)
        .map(|(corpus, q)| {
            let n = q.relation_count();
            let cards: Vec<f64> = (0..n).map(|r| q.spec.cardinality(r)).collect();
            let sizes = scaled_table_sizes(&cards, &q.row_overrides, 6);
            FeedbackQuery {
                corpus,
                graph: q.spec.instantiate::<1>().0,
                db: Database::generate(&sizes, seed.wrapping_add(corpus as u64)),
            }
        })
        .collect();
    let drift = (0..queries.len())
        .filter(|&i| queries[i].relation_count() <= DRIFT_MAX_RELATIONS)
        .collect();
    let unseen = Unseen::new(seed, &queries);
    Setup {
        service,
        texts,
        queries,
        feedback,
        drift,
        unseen,
        history: VecDeque::with_capacity(HISTORY),
        rng: Rng::new(seed, 3),
        failures,
    }
}

impl Setup {
    fn remember(&mut self, text: Text) {
        if self.history.len() == HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(text);
    }

    fn kind(&mut self) -> Kind {
        let mut u = self.rng.unit();
        for (kind, p, _) in MIX {
            if u < p {
                return kind;
            }
            u -= p;
        }
        MIX[MIX.len() - 1].0
    }

    /// The text a non-feedback operation of `kind` sends.
    fn text(&mut self, kind: Kind) -> Text {
        let text = match kind {
            Kind::Unseen => self.unseen.next(),
            Kind::Repeat if self.history.is_empty() => {
                return self.texts[self.drift[self.rng.below(self.drift.len())]].clone()
            }
            Kind::Repeat => return self.history[self.rng.below(self.history.len())].clone(),
            Kind::SmallDrift | Kind::LargeDrift => {
                let pick = self.drift[self.rng.below(self.drift.len())];
                let (text, n) = self.texts[pick].clone();
                let drifted = if kind == Kind::SmallDrift {
                    drift_cardinalities(&text, &mut self.rng, |r| 0.9 + 0.2 * r.unit())
                } else {
                    drift_cardinalities(&text, &mut self.rng, |r| r.log_uniform(-2.0, 2.0))
                };
                (drifted.into(), n)
            }
            Kind::Feedback => unreachable!("feedback sends a corpus query"),
        };
        self.remember(text.clone());
        text
    }

    /// One serve through `plan_jg`, timed and checked.
    fn serve_text(&self, text: &str, n: usize, tally: &mut Tally) -> (f64, Option<ServedPlan>) {
        let (ns, served) = time_ns(|| {
            let _span = Span::enter("bench.plan_jg");
            self.service.plan_jg(text)
        });
        let served = match served {
            Ok(mut v) if v.len() == 1 => v.remove(0),
            _ => return (ns, None),
        };
        tally.sources.record(served.source, ns);
        if served.source == PlanSource::Pinned {
            tally.pinned_serves += 1;
        }
        let ok = valid_plan(&served.plan, n, served.cost);
        (ns, ok.then_some(served))
    }

    /// Operation `i`; counted operations (`i < COUNTED`) update the prefix tallies. With
    /// `side`, one operation in [`REFERENCE_EVERY`] is re-optimized by a fresh optimizer right
    /// after it ran, as side work excluded from the measurement.
    fn op(&mut self, i: usize, tally: &mut Tally, side: Option<&mut Side>) -> (f64, bool) {
        let kind = self.kind();
        let k = MIX.iter().position(|m| m.0 == kind).expect("listed kind");
        let counted = i < COUNTED;
        if counted {
            tally.kinds[k] += 1;
        }
        let side = side.filter(|_| i.is_multiple_of(REFERENCE_EVERY));
        if kind != Kind::Feedback {
            let (text, n) = self.text(kind);
            let (ns, served) = self.serve_text(&text, n, tally);
            if let (Some(side), Some(s)) = (side, &served) {
                side.run(|| tally.reference_text(&text, s.cost, s.source, counted));
            }
            return (ns, served.is_some());
        }

        let fq = &self.feedback[self.rng.below(self.feedback.len())];
        let q = &self.queries[fq.corpus];
        let (text, n) = self.texts[fq.corpus].clone();
        let options = q.options.apply(self.service.options().adaptive);
        let mut ok = true;
        let mut fed_serve = None;
        let (ns, ()) = time_ns(|| {
            let (_, served) = self.serve_text(&text, n, tally);
            let Some(served) = served else {
                ok = false;
                return;
            };
            let observed = {
                let _span = Span::enter("bench.execute");
                execute_plan_observed(&served.plan, &fq.graph, &fq.db, ROW_LIMIT)
            };
            let Some(observed) = observed else {
                tally.bursts += 1;
                return;
            };
            {
                let _span = Span::enter("bench.observe_execution");
                self.service
                    .observe_execution(&served, &observed.feedback());
            }
            let stats = observed.observed_stats(&fq.db);
            let (fed_ns, fed) = time_ns(|| {
                let _span = Span::enter("bench.plan_observed");
                self.service.plan_observed_with(&q.spec, &stats, options)
            });
            match fed {
                Ok(fed) if valid_plan(&fed.plan, n, fed.cost) => {
                    tally.sources.record(fed.source, fed_ns);
                    if fed.source == PlanSource::Pinned {
                        tally.pinned_serves += 1;
                    }
                    fed_serve = Some((stats, fed.cost, fed.source));
                }
                _ => ok = false,
            }
        });
        if let (Some(side), Some((stats, cost, source))) = (side, fed_serve) {
            let spec = q.spec.apply_observed(&stats);
            side.run(|| tally.reference(spec, options, cost, source, counted));
        }
        (ns, ok)
    }
}

fn limits(seconds: f64) -> Limits {
    Limits {
        seconds,
        min_ops: COUNTED,
        granule: 1,
        max_ops: 400_000,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    if !args.trace {
        let (mut s, setup_times) = repeated_setup(SETUP_REPEATS, || setup(args.seed));
        report.attempted += s.texts.len() as u64;
        report.failed += s.failures;
        let mut tally = Tally {
            sources: SourceLatencies::off(),
            ..Tally::default()
        };
        let log = timed_phase(limits(args.seconds), |i, side| {
            s.op(i, &mut tally, Some(side))
        });
        report.failed += tally.reference_failures;
        end_to_end(
            report,
            &setup_times,
            &log,
            geomean(&tally.ns_per_pair),
            geomean(&tally.ratios),
        );
        return;
    }

    let mut s = setup(args.seed);
    report.attempted += s.texts.len() as u64;
    report.failed += s.failures;
    let mut tally = Tally::default();
    let before = s.service.cache_stats();
    // Cache counters, ledger pins, pinned serves and row-limit bursts after the counted
    // prefix.
    let mut counted = (before, 0, 0, 0);
    // The traced operations go to an identically prepared second service.
    let mut replay = setup(args.seed);
    let mut replay_tally = Tally {
        sources: SourceLatencies::off(),
        ..Tally::default()
    };
    let (untraced, traced, agg) = paired_phase(
        limits(args.seconds / 2.0),
        |i, side| {
            let r = s.op(i, &mut tally, Some(side));
            if i + 1 == COUNTED {
                let pins = s.service.regret_ledger().pins();
                counted = (
                    s.service.cache_stats(),
                    pins,
                    tally.pinned_serves,
                    tally.bursts,
                );
            }
            r
        },
        |i| replay.op(i, &mut replay_tally, None),
    );
    let after = s.service.cache_stats();

    trace_common(report, &untraced, &traced, &agg);

    report.failed += tally.reference_failures;
    report.set("counted_ops", COUNTED as f64);
    for (k, (_, _, name)) in MIX.iter().enumerate() {
        report.set(name, tally.kinds[k] as f64 / COUNTED as f64);
    }
    tally.sources.report(report);
    service_stats(report, &counted.0, &before, &after);
    report.set("service.pins", counted.1 as f64);
    report.set("service.pinned_serves", counted.2 as f64);
    report.set("exec.row_limit_bursts", counted.3 as f64);
    report.set("service.pinned_cost_ratio", geomean(&tally.pinned_ratios));
    trace_layers(report, &agg);
    report.set(
        "service.fingerprint_ns",
        fingerprint_ns(tally.refs.iter().take(200).map(|(spec, _)| spec)),
    );
    reference_layers(report, &tally.refs, 200);
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_run_has_ten_samples_beyond_its_p99() {
        assert!(crate::stats::samples_beyond(super::COUNTED, 0.99) >= 10);
    }
}
