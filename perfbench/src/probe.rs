//! Single-layer measurements on one query: enumeration alone, the baseline heuristics alone,
//! and a cold optimization by a fresh `AdaptiveOptimizer` (the reference plan `cost_ratio` is
//! measured against).

use crate::stats::median;
use dphyp::{
    AdaptiveOptimizer, AdaptiveOptions, BudgetTelemetry, OptimizeResult, PlanTier, QuerySpec,
};
use qo_baselines::{goo, idp, MAX_IDP_BLOCK_SIZE};
use qo_catalog::{CcpHandler, CoutCost};
use std::hint::black_box;
use std::time::Instant;

/// Node-set width a spec needs (one 64-bit word up to 64 relations, else two).
fn wide(spec: &QuerySpec) -> bool {
    spec.node_count() > 64
}

/// Wall time of `f` in nanoseconds, with its result.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed().as_nanos() as f64, out)
}

/// Median wall time of `reps` runs of `count_ccps_dphyp` (enumeration with a counting
/// handler, no costing), and the pair count.
pub fn enumerate(spec: &QuerySpec, reps: usize) -> (f64, usize) {
    fn run<const W: usize>(spec: &QuerySpec, reps: usize) -> (f64, usize) {
        let (graph, _) = spec.instantiate::<W>();
        let mut pairs = 0;
        let times: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let (ns, handler) = time_ns(|| dphyp::count_ccps_dphyp(&graph));
                pairs = handler.ccp_count();
                ns
            })
            .collect();
        (median(&times), pairs)
    }
    if wide(spec) {
        run::<2>(spec, reps)
    } else {
        run::<1>(spec, reps)
    }
}

/// Wall times of one IDP run (block size as in the default `AdaptiveOptions`) and one greedy
/// (GOO) run under `C_out`. A run that finds no plan still reports its time.
pub fn baselines(spec: &QuerySpec) -> (f64, f64) {
    fn run<const W: usize>(spec: &QuerySpec) -> (f64, f64) {
        let (graph, catalog) = spec.instantiate::<W>();
        let k = AdaptiveOptions::default()
            .idp_block_size
            .clamp(2, MAX_IDP_BLOCK_SIZE);
        let (idp_ns, _) = time_ns(|| idp(&graph, &catalog, &CoutCost, k).ok());
        let (goo_ns, _) = time_ns(|| goo(&graph, &catalog, &CoutCost).ok());
        (idp_ns, goo_ns)
    }
    if wide(spec) {
        run::<2>(spec)
    } else {
        run::<1>(spec)
    }
}

/// A cold optimization by a fresh [`AdaptiveOptimizer`].
#[derive(Clone, Debug)]
pub struct Reference {
    pub cost: f64,
    pub tier: PlanTier,
    pub telemetry: BudgetTelemetry,
    pub dp_entries: usize,
    /// Median wall time over the repetitions, nanoseconds.
    pub optimize_ns: f64,
}

impl Reference {
    /// Optimizes `spec` under `options` with a fresh optimizer, `reps` times when the exact tier
    /// answers (only exact-tier times are used, as time per pair) and once otherwise.
    pub fn of(
        spec: &QuerySpec,
        options: AdaptiveOptions,
        reps: usize,
    ) -> Result<Reference, String> {
        let mut times = Vec::with_capacity(reps);
        let r = loop {
            let (ns, r) = time_ns(|| AdaptiveOptimizer::new(options).optimize_spec(spec));
            times.push(ns);
            let r = r.map_err(|e| e.to_string())?;
            if r.tier != PlanTier::Exact || times.len() >= reps {
                break r;
            }
        };
        Ok(Reference::from_result(&r, median(&times)))
    }

    /// The reference an optimization that took `optimize_ns` stands for.
    pub fn from_result(r: &OptimizeResult, optimize_ns: f64) -> Reference {
        Reference {
            cost: r.cost,
            tier: r.tier,
            telemetry: r.telemetry,
            dp_entries: r.dp_entries,
            optimize_ns,
        }
    }

    /// Exact-tier time per csg-cmp pair, for references the exact tier answered.
    pub fn ns_per_pair(&self) -> Option<f64> {
        (self.tier == PlanTier::Exact && self.telemetry.exact_ccps > 0)
            .then(|| self.optimize_ns / self.telemetry.exact_ccps as f64)
    }
}
