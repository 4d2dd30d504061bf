//! Ablation A2: cost of the neighborhood computation `N(S, X)` — the hot inner operation of
//! DPhyp — on graphs with and without complex hyperedges, and of the connecting-edge kernel
//! that `EmitCsgCmp` runs once per csg-cmp pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qo_bitset::{NodeSet, NodeSet128};
use qo_hypergraph::{CsgIncidence, EdgeId, Hypergraph};
use qo_workloads::{chain_query_w, clique_query, cycle_with_hyperedge_splits, star_query};
use std::hint::black_box;
use std::time::Duration;

fn bench_neighborhood(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighborhood");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));

    // Simple star: neighborhoods come entirely from the precomputed simple-neighbor masks.
    let star = star_query(16, 3);
    let s = NodeSet::from_iter([0, 1, 2, 3]);
    let x = NodeSet::from_iter([0, 1, 2, 3, 4, 5]);
    group.bench_function(BenchmarkId::new("simple-star-17", "S4"), |b| {
        b.iter(|| black_box(star.graph.neighborhood(black_box(s), black_box(x))))
    });

    // Cycle with an unsplit hyperedge: the complex-edge path with subsumption elimination.
    let hyper = cycle_with_hyperedge_splits(16, 0, 3);
    let s = NodeSet::range(0, 8);
    group.bench_function(BenchmarkId::new("hyperedge-cycle-16", "S8"), |b| {
        b.iter(|| black_box(hyper.graph.neighborhood(black_box(s), black_box(s))))
    });

    // Partially split hyperedges: several complex edges to scan.
    let partially = cycle_with_hyperedge_splits(16, 3, 3);
    group.bench_function(BenchmarkId::new("split-cycle-16", "S8"), |b| {
        b.iter(|| black_box(partially.graph.neighborhood(black_box(s), black_box(s))))
    });

    group.finish();
}

/// Benchmarks both entry points of the connecting-edge kernel on one pair: the one-shot
/// `connecting_edges_into`, and `connecting_edges_of_csg` with the csg half already loaded
/// (the per-pair cost inside DPhyp, where a csg's complements arrive in a row).
fn bench_pair<const W: usize>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    graph: &Hypergraph<W>,
    s1: NodeSet<W>,
    s2: NodeSet<W>,
) {
    let mut out: Vec<EdgeId> = Vec::new();
    group.bench_function(BenchmarkId::new(name, "one-shot"), |b| {
        b.iter(|| {
            graph.connecting_edges_into(black_box(s1), black_box(s2), &mut out);
            black_box(out.len())
        })
    });
    let mut csg = CsgIncidence::new();
    group.bench_function(BenchmarkId::new(name, "per-csg"), |b| {
        b.iter(|| {
            graph.connecting_edges_of_csg(&mut csg, black_box(s1), black_box(s2), &mut out);
            black_box(out.len())
        })
    });
}

fn bench_connecting_edges(c: &mut Criterion) {
    let mut group = c.benchmark_group("connecting_edges");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));

    // Clique-12: 66 edges (two incidence words), 36 of them cross a 6|6 split.
    let clique = clique_query(12, 3);
    let half = NodeSet::first_n(6);
    bench_pair(
        &mut group,
        "clique-12",
        &clique.graph,
        half,
        clique.graph.all_nodes() - half,
    );

    // Star-17: the hub against all 16 satellites, one edge each.
    let star = star_query(16, 3);
    let hub = NodeSet::single(0);
    bench_pair(
        &mut group,
        "star-17",
        &star.graph,
        hub,
        star.graph.all_nodes() - hub,
    );

    // Chain-96 at W = 2: two intervals meeting across the word boundary, one connecting edge.
    let chain = chain_query_w::<2>(96, 3);
    bench_pair(
        &mut group,
        "chain-96",
        &chain.graph,
        NodeSet128::range(20, 64),
        NodeSet128::range(64, 90),
    );

    group.finish();
}

criterion_group!(benches, bench_neighborhood, bench_connecting_edges);
criterion_main!(benches);
