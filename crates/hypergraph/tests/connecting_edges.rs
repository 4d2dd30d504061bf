//! The connecting-edge kernel against brute force: on random hypergraphs at both node-set
//! widths, `connecting_edges_into` and the per-csg `connecting_edges_of_csg` must return
//! exactly the edges whose `connects` holds, in ascending id order, each once.
//!
//! The graphs mix parallel simple edges between the same two nodes, hyperedges and
//! generalized (flex) edges in random id order, and many have more than 64 edges, so the
//! incidence bitmaps span several words and complex edges fall into every word.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qo_hypergraph::{CsgIncidence, EdgeId, Hyperedge, Hypergraph, NodeSet};

/// SplitMix64, seeded by the property's generated seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A random non-empty subset of the non-empty `pool` with at most `1 + rng.below(max_len)`
/// members.
fn pick<const W: usize>(rng: &mut Rng, pool: NodeSet<W>, max_len: usize) -> NodeSet<W> {
    let members: Vec<usize> = pool.iter().collect();
    let mut s = NodeSet::EMPTY;
    for _ in 0..=rng.below(max_len) {
        s.insert(members[rng.below(members.len())]);
    }
    s
}

/// A random hypergraph over `n` nodes: a clique or a chain as the base (so the graph is dense
/// or spans the whole width), then `extra` edges in random order — simple edges drawn from few
/// endpoints (so many are parallel), hyperedges with sides of up to three nodes, and
/// generalized edges with up to two flexible nodes.
fn random_graph<const W: usize>(
    rng: &mut Rng,
    n: usize,
    clique: bool,
    extra: usize,
) -> Hypergraph<W> {
    let mut b = Hypergraph::<W>::builder(n);
    if clique {
        for i in 0..n {
            for j in i + 1..n {
                b.add_simple_edge(i, j);
            }
        }
    } else {
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1);
        }
    }
    let all = NodeSet::<W>::first_n(n);
    let hot = n.min(6);
    for _ in 0..extra {
        match rng.below(4) {
            0 | 1 => {
                let a = rng.below(hot);
                let c = (a + 1 + rng.below(hot - 1)) % hot;
                b.add_simple_edge(a, c);
            }
            kind => {
                let left = pick(rng, all, 3);
                if left == all {
                    continue;
                }
                let right = pick(rng, all - left, 3);
                let rest = all - left - right;
                let flex = if kind == 3 && !rest.is_empty() {
                    pick(rng, rest, 2)
                } else {
                    NodeSet::EMPTY
                };
                b.add_edge(Hyperedge::generalized(left, right, flex));
            }
        }
    }
    b.build()
}

/// Two random disjoint non-empty node sets.
fn split<const W: usize>(rng: &mut Rng, n: usize) -> (NodeSet<W>, NodeSet<W>) {
    loop {
        let (mut s1, mut s2) = (NodeSet::EMPTY, NodeSet::EMPTY);
        let spread = 2 + rng.below(4);
        for v in 0..n {
            match rng.below(spread) {
                0 => s1.insert(v),
                1 => s2.insert(v),
                _ => {}
            }
        }
        if !s1.is_empty() && !s2.is_empty() {
            return (s1, s2);
        }
    }
}

fn brute_force<const W: usize>(g: &Hypergraph<W>, s1: NodeSet<W>, s2: NodeSet<W>) -> Vec<EdgeId> {
    g.edges()
        .filter(|(_, e)| e.connects(s1, s2))
        .map(|(id, _)| id)
        .collect()
}

/// Checks the one-shot and the per-csg kernel on `rounds` csgs with several complements each,
/// in the order DPhyp uses them: all complements of one csg in a row.
fn check<const W: usize>(
    g: &Hypergraph<W>,
    rng: &mut Rng,
    rounds: usize,
) -> Result<(), TestCaseError> {
    let n = g.node_count();
    let mut csg = CsgIncidence::new();
    let mut one_shot = Vec::new();
    let mut reused = Vec::new();
    for _ in 0..rounds {
        let (s1, _) = split::<W>(rng, n);
        for _ in 0..4 {
            let s2 = pick(rng, g.all_nodes() - s1, n);
            let expected = brute_force(g, s1, s2);
            g.connecting_edges_into(s1, s2, &mut one_shot);
            g.connecting_edges_of_csg(&mut csg, s1, s2, &mut reused);
            prop_assert_eq!(&one_shot, &expected);
            prop_assert_eq!(&reused, &expected);
            prop_assert!(expected.windows(2).all(|w| w[0] < w[1]));
            // The one-shot entry point is symmetric in its sides.
            prop_assert_eq!(&g.connecting_edges(s2, s1), &expected);
            prop_assert_eq!(g.has_connecting_edge(s1, s2), !expected.is_empty());
        }
        // An unrelated pair between two csgs' complements must not disturb the cache.
        let (t1, t2) = split::<W>(rng, n);
        g.connecting_edges_of_csg(&mut csg, t1, t2, &mut reused);
        prop_assert_eq!(&reused, &brute_force(g, t1, t2));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_brute_force_at_width_one(
        seed in any::<u64>(),
        n in 3usize..14,
        clique in any::<bool>(),
        extra in 0usize..40,
    ) {
        let mut rng = Rng(seed);
        let g = random_graph::<1>(&mut rng, n, clique, extra);
        check(&g, &mut rng, 8)?;
    }

    #[test]
    fn kernel_matches_brute_force_at_width_two(
        seed in any::<u64>(),
        n in 60usize..110,
        extra in 0usize..80,
    ) {
        let mut rng = Rng(seed);
        let g = random_graph::<2>(&mut rng, n, false, extra);
        check(&g, &mut rng, 8)?;
    }
}

#[test]
fn clique_13_spans_two_incidence_words() {
    let mut rng = Rng(13);
    let g = random_graph::<1>(&mut rng, 13, true, 0);
    assert_eq!(g.edge_count(), 78);
    // Even|odd split: the 42 crossing edges connect, in both words.
    let s1: NodeSet = (0..13).step_by(2).collect();
    let s2 = g.all_nodes() - s1;
    let edges = g.connecting_edges(s1, s2);
    assert_eq!(edges.len(), 42);
    assert_eq!(edges, brute_force(&g, s1, s2));
    assert!(edges.iter().any(|&e| e >= 64));
    check(&g, &mut rng, 32).unwrap();
}
