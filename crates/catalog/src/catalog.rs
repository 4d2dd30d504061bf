//! The [`Catalog`]: statistics and operator annotations attached to a query hypergraph.

use qo_bitset::{NodeId, NodeSet};
use qo_hypergraph::{EdgeId, Hypergraph};
use qo_plan::JoinOp;

/// Per-hyperedge annotation: the join predicate's selectivity, the operator the edge was derived
/// from (Sec. 5.4: "we associate with each hyperedge the operator from which it was derived"),
/// and the operator's total eligibility set for the generate-and-test variant of Sec. 5.8.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeAnnotation<const W: usize = 1> {
    /// Selectivity of the predicate, in `(0, 1]`.
    pub selectivity: f64,
    /// Operator the edge was derived from. Plain join predicates use [`JoinOp::Inner`].
    pub op: JoinOp,
    /// Relations that must be on the left side before the operator may be applied
    /// (TES ∩ T(left)). Empty means "no constraint beyond the edge's own hypernode".
    pub tes_left: NodeSet<W>,
    /// Relations that must be on the right side before the operator may be applied
    /// (TES ∩ T(right)).
    pub tes_right: NodeSet<W>,
}

impl<const W: usize> EdgeAnnotation<W> {
    /// Annotation for a plain inner-join predicate with the given selectivity.
    pub fn inner(selectivity: f64) -> Self {
        EdgeAnnotation {
            selectivity,
            op: JoinOp::Inner,
            tes_left: NodeSet::EMPTY,
            tes_right: NodeSet::EMPTY,
        }
    }

    /// Annotation for a predicate attached to an arbitrary operator.
    pub fn with_op(selectivity: f64, op: JoinOp) -> Self {
        EdgeAnnotation {
            selectivity,
            op,
            tes_left: NodeSet::EMPTY,
            tes_right: NodeSet::EMPTY,
        }
    }

    /// Attaches an explicit TES split (used by the generate-and-test comparison).
    pub fn with_tes(mut self, tes_left: NodeSet<W>, tes_right: NodeSet<W>) -> Self {
        self.tes_left = tes_left;
        self.tes_right = tes_right;
        self
    }

    /// The full TES of the operator (left and right requirement combined).
    pub fn tes(&self) -> NodeSet<W> {
        self.tes_left | self.tes_right
    }
}

impl<const W: usize> Default for EdgeAnnotation<W> {
    fn default() -> Self {
        EdgeAnnotation::inner(1.0)
    }
}

/// A digest of every statistic a [`Catalog`] feeds into costing: cardinalities, selectivities
/// and lateral-reference sets, folded into one 64-bit value.
///
/// Two catalogs over the same query shape cost every plan identically **iff** they agree on
/// these inputs, so the epoch is the currency of staleness: the plan-cache subsystem stamps
/// each cached `DpTable` with the epoch it was costed under, and a changed epoch on an
/// otherwise identical shape means "same query, drifted statistics" — the incremental
/// re-costing case rather than a fresh optimization. The digest hashes the raw `f64` bits, so
/// any representable drift (even in the last ulp) changes the epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StatsEpoch(pub u64);

impl StatsEpoch {
    /// The seed every digest chain starts from.
    pub const SEED: StatsEpoch = StatsEpoch(0x5174_7A75_2722_0A95);

    /// Folds one word into the digest (FxHash-style rotate-xor-multiply). Public so other
    /// digests in the costing pipeline (e.g. the plan service's option keys) share one hashing
    /// scheme instead of re-implementing it.
    #[inline]
    pub fn fold(self, word: u64) -> StatsEpoch {
        StatsEpoch((self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Final avalanche: spreads near-identical chains over the whole `u64` range.
    #[inline]
    pub fn finalize(self) -> StatsEpoch {
        let mut h = self.0;
        h ^= h >> 32;
        StatsEpoch(h.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The epoch of a query's costing inputs: the relation cardinalities, each relation's
    /// lateral-reference set, and each edge's selectivity and operator. This is
    /// [`Catalog::stats_epoch`]; taking the inputs as plain sequences lets a caller holding
    /// them in another form digest them without building a catalog.
    pub fn of_stats<const W: usize>(
        cardinalities: &[f64],
        lateral_refs: impl Iterator<Item = NodeSet<W>>,
        edges: impl ExactSizeIterator<Item = (f64, JoinOp)>,
    ) -> StatsEpoch {
        let mut epoch = StatsEpoch::SEED.fold(cardinalities.len() as u64);
        for &c in cardinalities {
            epoch = epoch.fold(c.to_bits());
        }
        for refs in lateral_refs {
            for w in refs.words() {
                epoch = epoch.fold(w);
            }
        }
        epoch = epoch.fold(edges.len() as u64);
        for (selectivity, op) in edges {
            epoch = epoch.fold(selectivity.to_bits());
            epoch = epoch.fold(op as u64);
        }
        epoch.finalize()
    }
}

/// Statistics and annotations for one query: base-relation cardinalities, lateral references of
/// table functions / dependent subqueries, and per-edge annotations.
///
/// A `Catalog` is always interpreted relative to a [`Hypergraph`] with the same number of nodes
/// and edges; [`Catalog::validate_for`] checks the correspondence.
#[derive(Clone, Debug)]
pub struct Catalog<const W: usize = 1> {
    cardinalities: Vec<f64>,
    lateral_refs: Vec<NodeSet<W>>,
    edge_annotations: Vec<EdgeAnnotation<W>>,
    /// Union of all relations that appear in some lateral-reference set; empty for the vast
    /// majority of queries, letting the planner skip the per-pair free-table scans entirely.
    any_lateral: NodeSet<W>,
}

impl<const W: usize> Catalog<W> {
    /// Starts building a catalog for `node_count` relations.
    pub fn builder(node_count: usize) -> CatalogBuilder<W> {
        CatalogBuilder::new(node_count)
    }

    /// Convenience constructor: every relation has the given cardinality, every edge (up to
    /// `edge_count`) is an inner join with the given selectivity.
    pub fn uniform(
        node_count: usize,
        cardinality: f64,
        edge_count: usize,
        selectivity: f64,
    ) -> Self {
        let mut b = CatalogBuilder::new(node_count);
        for i in 0..node_count {
            b.set_cardinality(i, cardinality);
        }
        for e in 0..edge_count {
            b.annotate_edge(e, EdgeAnnotation::inner(selectivity));
        }
        b.build()
    }

    /// Number of relations covered by the catalog.
    pub fn relation_count(&self) -> usize {
        self.cardinalities.len()
    }

    /// Cardinality of a base relation.
    pub fn cardinality(&self, relation: NodeId) -> f64 {
        self.cardinalities[relation]
    }

    /// Relations referenced laterally (freely) by the given relation — non-empty only for
    /// table-valued functions and dependent subqueries (Sec. 5.6).
    pub fn lateral_refs(&self, relation: NodeId) -> NodeSet<W> {
        self.lateral_refs[relation]
    }

    /// Does any relation of the query carry lateral references? When `false` — the common case
    /// — every [`Catalog::free_tables`] result is empty and the planner's dependent-join
    /// analysis can be skipped per pair.
    #[inline]
    pub fn has_lateral_refs(&self) -> bool {
        !self.any_lateral.is_empty()
    }

    /// Union of the lateral references of all relations in `set` that are not satisfied within
    /// `set` itself: `FT(set) \ set`.
    pub fn free_tables(&self, set: NodeSet<W>) -> NodeSet<W> {
        if self.any_lateral.is_empty() {
            return NodeSet::EMPTY;
        }
        let mut ft = NodeSet::EMPTY;
        for r in set {
            ft |= self.lateral_refs[r];
        }
        ft - set
    }

    /// Annotation of a hyperedge. Edges beyond the annotated range get the default annotation
    /// (inner join, selectivity 1).
    pub fn edge_annotation(&self, edge: EdgeId) -> EdgeAnnotation<W> {
        self.edge_annotations.get(edge).copied().unwrap_or_default()
    }

    /// Number of edges carrying an explicit annotation (edges beyond it read as the default).
    pub fn annotated_edge_count(&self) -> usize {
        self.edge_annotations.len()
    }

    /// Product of the selectivities of the given edges.
    pub fn selectivity_product(&self, edges: &[EdgeId]) -> f64 {
        edges
            .iter()
            .map(|&e| self.edge_annotation(e).selectivity)
            .product()
    }

    /// The statistics epoch of this catalog: a digest over every costing input (cardinalities,
    /// selectivities, lateral-reference sets, operators). See [`StatsEpoch`].
    pub fn stats_epoch(&self) -> StatsEpoch {
        StatsEpoch::of_stats(
            &self.cardinalities,
            self.lateral_refs.iter().copied(),
            self.edge_annotations.iter().map(|a| (a.selectivity, a.op)),
        )
    }

    /// Checks that the catalog matches the graph: same relation count and no annotated edge
    /// beyond the graph's edge count. Returns an error message otherwise.
    pub fn validate_for(&self, graph: &Hypergraph<W>) -> Result<(), String> {
        if self.relation_count() != graph.node_count() {
            return Err(format!(
                "catalog covers {} relations but the graph has {}",
                self.relation_count(),
                graph.node_count()
            ));
        }
        if self.edge_annotations.len() > graph.edge_count() {
            return Err(format!(
                "catalog annotates {} edges but the graph has only {}",
                self.edge_annotations.len(),
                graph.edge_count()
            ));
        }
        for (i, &c) in self.cardinalities.iter().enumerate() {
            if !(c.is_finite() && c >= 0.0) {
                return Err(format!("relation R{i} has invalid cardinality {c}"));
            }
        }
        for (i, a) in self.edge_annotations.iter().enumerate() {
            if !(a.selectivity.is_finite() && a.selectivity > 0.0 && a.selectivity <= 1.0) {
                return Err(format!(
                    "edge e{i} has invalid selectivity {}",
                    a.selectivity
                ));
            }
        }
        Ok(())
    }
}

/// Builder for [`Catalog`].
#[derive(Clone, Debug)]
pub struct CatalogBuilder<const W: usize = 1> {
    cardinalities: Vec<f64>,
    lateral_refs: Vec<NodeSet<W>>,
    edge_annotations: Vec<EdgeAnnotation<W>>,
}

impl<const W: usize> CatalogBuilder<W> {
    /// Creates a builder for `node_count` relations, all with a default cardinality of 1000.
    pub fn new(node_count: usize) -> Self {
        CatalogBuilder {
            cardinalities: vec![1000.0; node_count],
            lateral_refs: vec![NodeSet::EMPTY; node_count],
            edge_annotations: Vec::new(),
        }
    }

    /// Sets the cardinality of a relation.
    pub fn set_cardinality(&mut self, relation: NodeId, cardinality: f64) -> &mut Self {
        self.cardinalities[relation] = cardinality;
        self
    }

    /// Sets the lateral references of a relation (for table functions / dependent subqueries).
    pub fn set_lateral_refs(&mut self, relation: NodeId, refs: NodeSet<W>) -> &mut Self {
        self.lateral_refs[relation] = refs;
        self
    }

    /// Annotates the edge with the given id; intermediate edge ids get default annotations.
    pub fn annotate_edge(&mut self, edge: EdgeId, annotation: EdgeAnnotation<W>) -> &mut Self {
        if self.edge_annotations.len() <= edge {
            self.edge_annotations
                .resize(edge + 1, EdgeAnnotation::default());
        }
        self.edge_annotations[edge] = annotation;
        self
    }

    /// Shorthand for annotating an inner-join edge with a selectivity.
    pub fn set_selectivity(&mut self, edge: EdgeId, selectivity: f64) -> &mut Self {
        let mut a = if self.edge_annotations.len() > edge {
            self.edge_annotations[edge]
        } else {
            EdgeAnnotation::default()
        };
        a.selectivity = selectivity;
        self.annotate_edge(edge, a)
    }

    /// Finalizes the catalog.
    pub fn build(&self) -> Catalog<W> {
        let any_lateral = self
            .lateral_refs
            .iter()
            .fold(NodeSet::EMPTY, |acc, &r| acc | r);
        Catalog {
            cardinalities: self.cardinalities.clone(),
            lateral_refs: self.lateral_refs.clone(),
            edge_annotations: self.edge_annotations.clone(),
            any_lateral,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_hypergraph::Hypergraph;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let mut b = Catalog::<1>::builder(3);
        b.set_cardinality(0, 10.0).set_cardinality(2, 500.0);
        let c = b.build();
        assert_eq!(c.relation_count(), 3);
        assert_eq!(c.cardinality(0), 10.0);
        assert_eq!(c.cardinality(1), 1000.0);
        assert_eq!(c.cardinality(2), 500.0);
    }

    #[test]
    fn uniform_catalog() {
        let c = Catalog::<1>::uniform(4, 100.0, 3, 0.5);
        for i in 0..4 {
            assert_eq!(c.cardinality(i), 100.0);
        }
        for e in 0..3 {
            assert_eq!(c.edge_annotation(e).selectivity, 0.5);
            assert_eq!(c.edge_annotation(e).op, JoinOp::Inner);
        }
        // Unannotated edges get the default.
        assert_eq!(c.edge_annotation(17).selectivity, 1.0);
    }

    #[test]
    fn selectivity_product() {
        let mut b = Catalog::<1>::builder(3);
        b.set_selectivity(0, 0.5).set_selectivity(1, 0.1);
        let c = b.build();
        assert!((c.selectivity_product(&[0, 1]) - 0.05).abs() < 1e-12);
        assert_eq!(c.selectivity_product(&[]), 1.0);
    }

    #[test]
    fn free_tables_excludes_self() {
        let mut b = Catalog::builder(4);
        // R2 is a table function referencing R0; R3 references R2.
        b.set_lateral_refs(2, ns(&[0]));
        b.set_lateral_refs(3, ns(&[2]));
        let c = b.build();
        assert_eq!(c.free_tables(ns(&[2])), ns(&[0]));
        assert_eq!(c.free_tables(ns(&[2, 3])), ns(&[0]));
        assert_eq!(c.free_tables(ns(&[0, 2, 3])), NodeSet::EMPTY);
        assert_eq!(c.free_tables(ns(&[1])), NodeSet::EMPTY);
    }

    #[test]
    fn edge_annotation_helpers() {
        let a = EdgeAnnotation::<1>::with_op(0.2, JoinOp::LeftAnti).with_tes(ns(&[0, 1]), ns(&[2]));
        assert_eq!(a.op, JoinOp::LeftAnti);
        assert_eq!(a.tes(), ns(&[0, 1, 2]));
        let d = EdgeAnnotation::<1>::default();
        assert_eq!(d.op, JoinOp::Inner);
        assert_eq!(d.selectivity, 1.0);
    }

    #[test]
    fn stats_epoch_tracks_every_costing_input() {
        let base = Catalog::<1>::uniform(3, 100.0, 2, 0.5);
        assert_eq!(base.stats_epoch(), base.stats_epoch(), "deterministic");

        // Cardinality drift — even a tiny one — changes the epoch.
        let mut b = Catalog::<1>::builder(3);
        b.set_cardinality(0, 100.0)
            .set_cardinality(1, 100.0)
            .set_cardinality(2, 100.0 + 1e-9)
            .set_selectivity(0, 0.5)
            .set_selectivity(1, 0.5);
        assert_ne!(b.build().stats_epoch(), base.stats_epoch());

        // Selectivity drift changes it too.
        let mut b = Catalog::<1>::builder(3);
        for r in 0..3 {
            b.set_cardinality(r, 100.0);
        }
        b.set_selectivity(0, 0.5).set_selectivity(1, 0.25);
        assert_ne!(b.build().stats_epoch(), base.stats_epoch());

        // Operators and lateral references are costing inputs as well.
        let mut b = Catalog::<1>::builder(3);
        for r in 0..3 {
            b.set_cardinality(r, 100.0);
        }
        b.annotate_edge(0, EdgeAnnotation::with_op(0.5, JoinOp::LeftOuter))
            .set_selectivity(1, 0.5);
        assert_ne!(b.build().stats_epoch(), base.stats_epoch());

        let mut b = Catalog::<1>::builder(3);
        for r in 0..3 {
            b.set_cardinality(r, 100.0);
        }
        b.set_selectivity(0, 0.5)
            .set_selectivity(1, 0.5)
            .set_lateral_refs(2, ns(&[0]));
        assert_ne!(b.build().stats_epoch(), base.stats_epoch());
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        let g = b.build();

        let good = Catalog::uniform(3, 100.0, 2, 0.5);
        assert!(good.validate_for(&g).is_ok());

        let wrong_nodes = Catalog::uniform(4, 100.0, 2, 0.5);
        assert!(wrong_nodes.validate_for(&g).is_err());

        let too_many_edges = Catalog::uniform(3, 100.0, 5, 0.5);
        assert!(too_many_edges.validate_for(&g).is_err());

        let mut bad_sel = Catalog::builder(3);
        bad_sel.set_selectivity(0, 0.0);
        assert!(bad_sel.build().validate_for(&g).is_err());

        let mut bad_card = Catalog::builder(3);
        bad_card.set_cardinality(1, f64::NAN);
        assert!(bad_card.build().validate_for(&g).is_err());
    }
}
