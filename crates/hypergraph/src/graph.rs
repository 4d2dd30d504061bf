//! The [`Hypergraph`] type and its builder.

use crate::edge::{EdgeId, Hyperedge};
use qo_bitset::{NodeId, NodeSet};
use std::fmt;

/// A query hypergraph: `n` relations (nodes `R0 .. R{n-1}`) plus a set of hyperedges.
///
/// Nodes are totally ordered by their index (`R_i ≺ R_j ⟺ i < j`), which is the ordering the
/// enumeration algorithms rely on. Simple edges are additionally indexed into per-node neighbor
/// masks, so that the hot neighborhood computation does not have to scan them, and into
/// per-node incidence bitmaps over edge ids, from which connecting edges are collected.
///
/// The const parameter `W` is the mask width in 64-bit words (default one word, up to 64
/// relations); a `Hypergraph<2>` holds up to 128 relations. The width is fixed when the builder
/// is created, so every mask operation inside the enumeration is monomorphized for it.
///
/// ```
/// use qo_hypergraph::{Hypergraph, Hyperedge};
/// use qo_bitset::NodeSet;
///
/// // The hypergraph of Fig. 2 of the paper (0-based relation indexes).
/// let mut b = Hypergraph::builder(6);
/// b.add_simple_edge(0, 1);
/// b.add_simple_edge(1, 2);
/// b.add_simple_edge(3, 4);
/// b.add_simple_edge(4, 5);
/// b.add_edge(Hyperedge::new(
///     NodeSet::from_iter([0, 1, 2]),
///     NodeSet::from_iter([3, 4, 5]),
/// ));
/// let g: Hypergraph = b.build();
/// assert_eq!(g.node_count(), 6);
/// assert_eq!(g.edge_count(), 5);
/// // Neighborhood of S = {R0,R1,R2} with X = S: only the representative R3 of {R3,R4,R5}.
/// let s = NodeSet::from_iter([0, 1, 2]);
/// assert_eq!(g.neighborhood(s, s), NodeSet::single(3));
/// ```
#[derive(Clone)]
pub struct Hypergraph<const W: usize = 1> {
    node_count: usize,
    edges: Vec<Hyperedge<W>>,
    /// For every node, the union of the opposite endpoints of all *simple* edges incident to it.
    simple_neighbors: Vec<NodeSet<W>>,
    /// Ids of all non-simple (complex or generalized) edges, ascending.
    complex_edges: Vec<EdgeId>,
    /// Words per node in `incidence`: `⌈edge_count / 64⌉`.
    incidence_words: usize,
    /// For every node, a bitmap over edge ids of the *simple* edges incident to it
    /// (`incidence_words` words per node, node-major).
    incidence: Vec<u64>,
}

/// The half of connecting-edge collection that depends on the csg `S1` alone: the union of the
/// incidence bitmaps of `S1`'s nodes and `S1`'s simple-neighbor mask.
///
/// DPhyp emits every complement of a csg one after another, so a caller that keeps one
/// `CsgIncidence` and passes it to [`Hypergraph::connecting_edges_of_csg`] for each pair pays
/// for this half once per csg instead of once per pair. A `CsgIncidence` caches state of one
/// graph; use it with that graph only.
#[derive(Clone, Debug, Default)]
pub struct CsgIncidence<const W: usize = 1> {
    /// The csg loaded; empty before the first load (no csg is empty).
    set: NodeSet<W>,
    /// `simple_neighbors_of_set(set)`.
    neighbors: NodeSet<W>,
    /// `OR_{u ∈ set} incidence[u]`.
    words: Vec<u64>,
}

impl<const W: usize> CsgIncidence<W> {
    /// An empty cache; the first use loads its csg.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const W: usize> Hypergraph<W> {
    /// Starts building a hypergraph over `node_count` relations.
    pub fn builder(node_count: usize) -> HypergraphBuilder<W> {
        HypergraphBuilder::new(node_count)
    }

    /// Number of relations.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The set of all relations `V`.
    #[inline]
    pub fn all_nodes(&self) -> NodeSet<W> {
        NodeSet::first_n(self.node_count)
    }

    /// Number of hyperedges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All hyperedges with their ids.
    #[inline]
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Hyperedge<W>)> {
        self.edges.iter().enumerate()
    }

    /// The hyperedge with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Hyperedge<W> {
        &self.edges[id]
    }

    /// Ids of all non-simple edges.
    #[inline]
    pub fn complex_edge_ids(&self) -> &[EdgeId] {
        &self.complex_edges
    }

    /// Does the graph contain any non-simple edge?
    #[inline]
    pub fn has_complex_edges(&self) -> bool {
        !self.complex_edges.is_empty()
    }

    /// The union of simple-edge neighbors of a single node.
    #[inline]
    pub fn simple_neighbors(&self, node: NodeId) -> NodeSet<W> {
        self.simple_neighbors[node]
    }

    /// The union of simple-edge neighbors of all nodes in `s` (not yet filtered by any
    /// exclusion set).
    #[inline]
    pub fn simple_neighbors_of_set(&self, s: NodeSet<W>) -> NodeSet<W> {
        let mut n = NodeSet::EMPTY;
        for node in s {
            n |= self.simple_neighbors[node];
        }
        n - s
    }

    /// Is there at least one hyperedge connecting `s1` and `s2` (Def. 4 / Def. 7)?
    pub fn has_connecting_edge(&self, s1: NodeSet<W>, s2: NodeSet<W>) -> bool {
        self.has_connecting_edge_with(s1, self.simple_neighbors_of_set(s1), s2)
    }

    /// [`has_connecting_edge`](Self::has_connecting_edge) with `s1`'s simple-neighbor mask
    /// (`simple_neighbors_of_set(s1)`) supplied by a caller that tests many `s2` against one
    /// `s1`.
    #[inline]
    pub fn has_connecting_edge_with(
        &self,
        s1: NodeSet<W>,
        s1_neighbors: NodeSet<W>,
        s2: NodeSet<W>,
    ) -> bool {
        debug_assert_eq!(s1_neighbors, self.simple_neighbors_of_set(s1));
        // Fast path: any simple edge from s1 into s2.
        if s1_neighbors.intersects(s2) {
            return true;
        }
        self.complex_edges
            .iter()
            .any(|&eid| self.edges[eid].connects(s1, s2))
    }

    /// All edge ids connecting `s1` and `s2`. These are the predicates that `EmitCsgCmp`
    /// conjoins into the join predicate of the new plan.
    pub fn connecting_edges(&self, s1: NodeSet<W>, s2: NodeSet<W>) -> Vec<EdgeId> {
        let mut out = Vec::new();
        self.connecting_edges_into(s1, s2, &mut out);
        out
    }

    /// Like [`Hypergraph::connecting_edges`], but clears and fills a caller-provided buffer so
    /// the planner's hot path (one call per emitted csg-cmp-pair) does not allocate.
    ///
    /// `s1` and `s2` must be disjoint. The ids come out in ascending order, each once — the
    /// edges `e` of [`edges`](Self::edges) for which `e.connects(s1, s2)` holds, in id order.
    pub fn connecting_edges_into(&self, s1: NodeSet<W>, s2: NodeSet<W>, out: &mut Vec<EdgeId>) {
        // The result is symmetric in the two sides; compute the neighbor mask of the smaller.
        let (s1, s2) = if s1.len() <= s2.len() {
            (s1, s2)
        } else {
            (s2, s1)
        };
        // Only nodes with a simple edge across the cut contribute bitmaps: `reach` on the s2
        // side, and on the s1 side the nodes adjacent to `reach`.
        let reach = s2 & self.simple_neighbors_of_set(s1);
        let touched = s1 & self.simple_neighbors_of_set(reach);
        let words = self.incidence_words;
        let s1_word = |w: usize| {
            touched
                .iter()
                .fold(0, |acc, u| acc | self.incidence[u * words + w])
        };
        self.collect_connecting(s1, s2, reach, s1_word, out);
    }

    /// [`connecting_edges_into`](Self::connecting_edges_into) for a caller that pairs one csg
    /// with many complements in a row: `csg` keeps the half of the work that depends on `s1`
    /// alone and is reloaded only when `s1` differs from the csg it holds. Same output, same
    /// contract.
    pub fn connecting_edges_of_csg(
        &self,
        csg: &mut CsgIncidence<W>,
        s1: NodeSet<W>,
        s2: NodeSet<W>,
        out: &mut Vec<EdgeId>,
    ) {
        if csg.set != s1 {
            let words = self.incidence_words;
            csg.words.clear();
            csg.words.resize(words, 0);
            let mut neighbors = NodeSet::EMPTY;
            for u in s1 {
                neighbors |= self.simple_neighbors[u];
                let row = &self.incidence[u * words..(u + 1) * words];
                for (acc, &x) in csg.words.iter_mut().zip(row) {
                    *acc |= x;
                }
            }
            csg.set = s1;
            csg.neighbors = neighbors - s1;
        }
        debug_assert_eq!(
            csg.words.len(),
            self.incidence_words,
            "csg of another graph"
        );
        let reach = s2 & csg.neighbors;
        self.collect_connecting(s1, s2, reach, |w| csg.words[w], out);
    }

    /// The connecting-edge kernel. A simple edge connects the disjoint sets `s1` and `s2` iff
    /// it is incident to `s1` and to a node of `reach = s2 ∩ N(s1)`, so the simple edges of
    /// word `w` are `s1_word(w) & OR_{v ∈ reach} incidence[v][w]`, where `s1_word(w)` is
    /// `OR_{u ∈ s1} incidence[u][w]` (or that OR over any part of `s1` containing every node
    /// adjacent to `reach`). Complex edges are tested one by one and merged into their word,
    /// so the ids come out ascending without a sort.
    #[inline]
    fn collect_connecting(
        &self,
        s1: NodeSet<W>,
        s2: NodeSet<W>,
        reach: NodeSet<W>,
        s1_word: impl Fn(usize) -> u64,
        out: &mut Vec<EdgeId>,
    ) {
        debug_assert!(s1.is_disjoint(s2), "{s1:?} and {s2:?} overlap");
        debug_assert_eq!(reach, s2 & self.simple_neighbors_of_set(s1));
        out.clear();
        if reach.is_empty() && self.complex_edges.is_empty() {
            return;
        }
        let words = self.incidence_words;
        let mut complex = self.complex_edges.iter().copied().peekable();
        for w in 0..words {
            let mut bits = 0u64;
            if !reach.is_empty() {
                let a = s1_word(w);
                if a != 0 {
                    let b = reach
                        .iter()
                        .fold(0, |acc, v| acc | self.incidence[v * words + w]);
                    bits = a & b;
                }
            }
            while let Some(eid) = complex.next_if(|&eid| eid / 64 == w) {
                if self.edges[eid].connects(s1, s2) {
                    bits |= 1 << (eid % 64);
                }
            }
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// All edge ids whose referenced nodes are fully contained in `s` (used by cardinality
    /// estimation: these are the predicates already applied within a plan class `s`).
    pub fn edges_within(&self, s: NodeSet<W>) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.all_nodes().is_subset_of(s))
            .map(|(id, _)| id)
            .collect()
    }
}

impl<const W: usize> fmt::Debug for Hypergraph<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Hypergraph over {} relations:", self.node_count)?;
        for (id, e) in self.edges() {
            writeln!(f, "  e{id}: {e:?}")?;
        }
        Ok(())
    }
}

/// Builder for [`Hypergraph`].
pub struct HypergraphBuilder<const W: usize = 1> {
    node_count: usize,
    edges: Vec<Hyperedge<W>>,
}

impl<const W: usize> HypergraphBuilder<W> {
    /// Creates a builder for a graph over `node_count` relations.
    ///
    /// # Panics
    /// Panics if `node_count` is zero or exceeds the width's capacity
    /// ([`NodeSet::CAPACITY`] `= 64 * W` relations).
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "a hypergraph needs at least one relation");
        assert!(
            node_count <= NodeSet::<W>::CAPACITY,
            "at most {} relations are supported at width {W} (got {node_count})",
            NodeSet::<W>::CAPACITY,
        );
        HypergraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Adds a hyperedge; returns its id.
    ///
    /// # Panics
    /// Panics if the edge references nodes outside the graph.
    pub fn add_edge(&mut self, edge: Hyperedge<W>) -> EdgeId {
        assert!(
            edge.all_nodes()
                .is_subset_of(NodeSet::first_n(self.node_count)),
            "edge {edge:?} references nodes outside the graph"
        );
        let id = self.edges.len();
        self.edges.push(edge);
        id
    }

    /// Adds a simple edge `({a}, {b})`; returns its id.
    pub fn add_simple_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        self.add_edge(Hyperedge::simple(a, b))
    }

    /// Adds a hyperedge between two hypernodes; returns its id.
    pub fn add_hyperedge(&mut self, left: NodeSet<W>, right: NodeSet<W>) -> EdgeId {
        self.add_edge(Hyperedge::new(left, right))
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph, computing the per-node simple-edge indexes.
    pub fn build(self) -> Hypergraph<W> {
        let words = self.edges.len().div_ceil(64);
        let mut simple_neighbors = vec![NodeSet::EMPTY; self.node_count];
        let mut incidence = vec![0u64; self.node_count * words];
        let mut complex_edges = Vec::new();
        for (id, e) in self.edges.iter().enumerate() {
            if e.is_simple() {
                let a = e.left().min_node().expect("non-empty");
                let b = e.right().min_node().expect("non-empty");
                simple_neighbors[a].insert(b);
                simple_neighbors[b].insert(a);
                for node in [a, b] {
                    incidence[node * words + id / 64] |= 1 << (id % 64);
                }
            } else {
                complex_edges.push(id);
            }
        }
        Hypergraph {
            node_count: self.node_count,
            edges: self.edges,
            simple_neighbors,
            complex_edges,
            incidence_words: words,
            incidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_bitset::NodeSet128;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    /// The example hypergraph of Fig. 2 (0-based).
    pub(crate) fn fig2_graph() -> Hypergraph {
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        b.build()
    }

    #[test]
    fn builder_counts() {
        let g = fig2_graph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.complex_edge_ids(), &[4]);
        assert!(g.has_complex_edges());
        assert_eq!(g.all_nodes(), NodeSet::first_n(6));
    }

    #[test]
    fn simple_neighbor_masks() {
        let g = fig2_graph();
        assert_eq!(g.simple_neighbors(0), ns(&[1]));
        assert_eq!(g.simple_neighbors(1), ns(&[0, 2]));
        assert_eq!(g.simple_neighbors(4), ns(&[3, 5]));
        assert_eq!(g.simple_neighbors_of_set(ns(&[0, 1])), ns(&[2]));
        assert_eq!(g.simple_neighbors_of_set(ns(&[3, 4, 5])), NodeSet::EMPTY);
    }

    #[test]
    fn connecting_edge_tests() {
        let g = fig2_graph();
        assert!(g.has_connecting_edge(ns(&[0]), ns(&[1])));
        assert!(!g.has_connecting_edge(ns(&[0]), ns(&[2])));
        // Hyperedge connects the two halves only when both hypernodes are covered.
        assert!(g.has_connecting_edge(ns(&[0, 1, 2]), ns(&[3, 4, 5])));
        assert!(!g.has_connecting_edge(ns(&[0, 1]), ns(&[3, 4, 5])));
        assert_eq!(g.connecting_edges(ns(&[0, 1, 2]), ns(&[3, 4, 5])), vec![4]);
        assert_eq!(g.connecting_edges(ns(&[1]), ns(&[0, 2])), vec![0, 1]);
    }

    #[test]
    fn edges_within_set() {
        let g = fig2_graph();
        assert_eq!(g.edges_within(ns(&[0, 1, 2])), vec![0, 1]);
        assert_eq!(g.edges_within(g.all_nodes()).len(), 5);
        assert!(g.edges_within(ns(&[0, 3])).is_empty());
    }

    #[test]
    fn wide_graphs_accept_more_than_64_relations() {
        // A 96-relation chain fits in a two-word graph; the 64-relation cap only applies to the
        // single-word width.
        let mut b = Hypergraph::<2>::builder(96);
        for i in 0..95 {
            b.add_simple_edge(i, i + 1);
        }
        let g = b.build();
        assert_eq!(g.node_count(), 96);
        assert_eq!(g.all_nodes().len(), 96);
        // Adjacency across the word boundary works like everywhere else.
        assert!(g.has_connecting_edge(NodeSet128::single(63), NodeSet128::single(64)));
        assert!(!g.has_connecting_edge(NodeSet128::single(63), NodeSet128::single(65)));
        assert_eq!(
            g.connecting_edges(NodeSet128::first_n(64), NodeSet128::range(64, 96)),
            vec![63]
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 relations")]
    fn narrow_builder_rejects_more_than_64_nodes() {
        let _ = Hypergraph::<1>::builder(65);
    }

    #[test]
    #[should_panic(expected = "at most 128 relations")]
    fn wide_builder_rejects_more_than_128_nodes() {
        let _ = Hypergraph::<2>::builder(129);
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn edge_outside_graph_panics() {
        let mut b = Hypergraph::<1>::builder(2);
        b.add_simple_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "at least one relation")]
    fn zero_nodes_panics() {
        let _ = Hypergraph::<1>::builder(0);
    }

    #[test]
    fn debug_output_lists_edges() {
        let g = fig2_graph();
        let s = format!("{g:?}");
        assert!(s.contains("6 relations"));
        assert!(s.contains("e4"));
    }
}
