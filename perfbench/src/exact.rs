//! `exact_dphyp`: cold optimizations of the paper's graph families, every one answered by
//! the exact tier. Enumeration and costing do all the work; the service layers do none.
//!
//! The families sit at opposite ends of the costing layer: on the clique nearly every pair
//! reaches the cost function's pruning-relevant path, on the stars almost none does, so a
//! change to pruning or to the per-pair combiner shows in the rows where it applies and leaves
//! the others unchanged. Each graph's pair count is checked against the paper's closed forms
//! (chain, star, clique) or DPsize's count, and each cost against the DPsize optimum, both
//! computed during set-up.

use crate::harness::{
    end_to_end, paired_phase, repeated_setup, timed_phase, trace_common, Args, Limits,
};
use crate::probe::{time_ns, Reference};
use crate::report::Report;
use crate::serve::reference_layers;
use crate::stats::{closed_form, cost_ratio, geomean, median};
use dphyp::{AdaptiveOptimizer, OptimizeResult, PlanTier, QuerySpec};
use qo_algebra::{derive_query, ConflictEncoding, OpTree};
use qo_baselines::dpsize;
use qo_catalog::CoutCost;
use qo_obsv::Span;
use qo_workloads as wl;

/// Timed set-ups per untraced run, after one untimed warm-up set-up. This set-up runs DPsize
/// on every graph and takes seconds, so three give a steady median and keep the run short.
const SETUP_REPEATS: usize = 3;

struct Graph {
    /// Per-graph metric name.
    metric: &'static str,
    spec: QuerySpec,
    /// The Fig. 8 graphs come from an operator tree with non-inner joins, derived into a
    /// hypergraph inside every operation; `spec` is the derived query.
    tree: Option<OpTree>,
    /// Expected csg-cmp-pair count: the paper's closed form where the family has one, else
    /// DPsize's cost-function calls (one per csg-cmp pair, counted by an enumerator that
    /// shares no code with DPhyp's).
    pairs: usize,
    /// DPsize optimum.
    optimum: f64,
}

fn family<const W: usize>(metric: &'static str, w: wl::Workload<W>, closed: Option<u64>) -> Graph {
    let reference = dpsize(&w.graph, &w.catalog, &CoutCost).expect("DPsize plans every family");
    Graph {
        metric,
        spec: w.to_spec(),
        tree: None,
        pairs: closed.map_or(reference.cost_calls, |p| p as usize),
        optimum: reference.cost,
    }
}

fn tree(metric: &'static str, tree: OpTree) -> Graph {
    let q = derive_query(&tree, ConflictEncoding::Hyperedges).expect("valid operator tree");
    let reference = dpsize(&q.graph, &q.catalog, &CoutCost).expect("DPsize plans every family");
    let derived = wl::Workload {
        name: metric.to_string(),
        graph: q.graph,
        catalog: q.catalog,
    };
    Graph {
        metric,
        spec: derived.to_spec(),
        tree: Some(tree),
        pairs: reference.cost_calls,
        optimum: reference.cost,
    }
}

fn setup(seed: u64) -> Vec<Graph> {
    vec![
        family(
            "exact.clique12.ns_per_pair",
            wl::clique_query(12, seed),
            Some(closed_form::clique(12)),
        ),
        family(
            "exact.star16.ns_per_pair",
            wl::star_query(15, seed),
            Some(closed_form::star(16)),
        ),
        // Fig. 4: 16 satellites (17 relations) and a 16-cycle, each with a big hyperedge
        // split three times.
        family(
            "exact.star16_splits.ns_per_pair",
            wl::star_with_hyperedge_splits(16, 3, seed),
            None,
        ),
        family(
            "exact.cycle16_splits.ns_per_pair",
            wl::cycle_with_hyperedge_splits(16, 3, seed),
            None,
        ),
        // 96 relations need the two-word node sets.
        family(
            "exact.chain96.ns_per_pair",
            wl::chain_query_w::<2>(96, seed),
            Some(closed_form::chain(96)),
        ),
        // Fig. 8: a 16-relation star with 8 antijoins and a 16-cycle with 8 outer joins.
        tree(
            "exact.fig8a_antijoin_star16.ns_per_pair",
            wl::star_with_antijoins(15, 8, seed),
        ),
        tree(
            "exact.fig8b_outer_cycle16.ns_per_pair",
            wl::cycle_with_outer_joins(16, 8, seed),
        ),
    ]
}

/// One cold optimization of `g`, timed; the caller checks the result.
fn optimize(g: &Graph) -> (f64, Result<OptimizeResult, String>) {
    let optimizer = AdaptiveOptimizer::default();
    time_ns(|| {
        let result = match &g.tree {
            None => {
                let _span = Span::enter("bench.optimize");
                optimizer.optimize_spec(&g.spec)
            }
            Some(tree) => {
                let q = {
                    let _span = Span::enter("bench.derive");
                    derive_query(tree, ConflictEncoding::Hyperedges).map_err(|e| e.to_string())?
                };
                let _span = Span::enter("bench.optimize");
                optimizer.optimize_hypergraph(&q.graph, &q.catalog)
            }
        };
        result.map_err(|e| e.to_string())
    })
}

fn passes(g: &Graph, r: &OptimizeResult) -> bool {
    let tolerance = 1e-9 * g.optimum.abs();
    r.tier == PlanTier::Exact
        && r.telemetry.exact_ccps == g.pairs
        && (r.cost == g.optimum || (r.cost - g.optimum).abs() <= tolerance)
}

/// Outcomes of a phase over whole passes: latency per graph, each cost over the DPsize
/// optimum, and the first pass's results (the traced run's per-layer counts).
struct Passes {
    per_graph_ns: Vec<Vec<f64>>,
    first: Vec<Option<OptimizeResult>>,
    ratios: Vec<f64>,
}

impl Passes {
    fn new(graphs: usize) -> Passes {
        Passes {
            per_graph_ns: vec![Vec::new(); graphs],
            first: vec![None; graphs],
            ratios: Vec::new(),
        }
    }

    /// Optimizes graph `i % graphs` and records it.
    fn op(&mut self, graphs: &[Graph], i: usize) -> (f64, bool) {
        let k = i % graphs.len();
        let (ns, result) = optimize(&graphs[k]);
        self.per_graph_ns[k].push(ns);
        let ok = match result {
            Ok(r) => {
                let ok = passes(&graphs[k], &r);
                if !ok {
                    eprintln!(
                        "{}: tier {} pairs {} (want {}) cost {} (want {})",
                        graphs[k].metric,
                        r.tier,
                        r.telemetry.exact_ccps,
                        graphs[k].pairs,
                        r.cost,
                        graphs[k].optimum
                    );
                }
                self.ratios.push(cost_ratio(r.cost, graphs[k].optimum));
                self.first[k].get_or_insert(r);
                ok
            }
            Err(e) => {
                eprintln!("{}: {e}", graphs[k].metric);
                false
            }
        };
        (ns, ok)
    }

    /// Median time per graph over its pair count.
    fn ns_per_pair(&self, graphs: &[Graph]) -> Vec<f64> {
        graphs
            .iter()
            .zip(&self.per_graph_ns)
            .map(|(g, t)| median(t) / g.pairs.max(1) as f64)
            .collect()
    }
}

/// Whole passes over the `graphs` for `seconds`.
fn limits(seconds: f64, graphs: usize) -> Limits {
    Limits {
        seconds,
        min_ops: graphs,
        granule: graphs,
        max_ops: 100_000,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    if !args.trace {
        let (graphs, setup_times) = repeated_setup(SETUP_REPEATS, || setup(args.seed));
        let mut p = Passes::new(graphs.len());
        let log = timed_phase(limits(args.seconds, graphs.len()), |i, _| p.op(&graphs, i));
        let npp = geomean(&p.ns_per_pair(&graphs));
        end_to_end(report, &setup_times, &log, npp, geomean(&p.ratios));
        return;
    }

    let graphs = setup(args.seed);
    let mut u = Passes::new(graphs.len());
    let mut t = Passes::new(graphs.len());
    let (untraced, traced, agg) = paired_phase(
        limits(args.seconds / 2.0, graphs.len()),
        |i, _| u.op(&graphs, i),
        |i| t.op(&graphs, i),
    );
    trace_common(report, &untraced, &traced, &agg);

    for (g, v) in graphs.iter().zip(u.ns_per_pair(&graphs)) {
        report.set(g.metric, v);
    }
    report.set("counted_ops", graphs.len() as f64);
    report.set("algebra.derive_ns", agg.mean_ns("bench.derive"));
    // The first pass's results with each graph's median time stand in for the references
    // the serve workloads optimize separately.
    let refs: Vec<(QuerySpec, Reference)> = graphs
        .iter()
        .zip(&u.first)
        .zip(&u.per_graph_ns)
        .filter_map(|((g, r), t)| {
            Some((
                g.spec.clone(),
                Reference::from_result(r.as_ref()?, median(t)),
            ))
        })
        .collect();
    reference_layers(report, &refs, usize::MAX);
}
