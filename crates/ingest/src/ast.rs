//! The parsed form of a `.jg` source, before lowering.
//!
//! Every node keeps the [`Span`]s of its semantically meaningful parts so the lowering pass
//! can report *validation* errors (unknown relation, selectivity out of range) with the same
//! source-anchored diagnostics as syntax errors. Identifiers borrow their text from the source
//! (`'s`), so parsing copies no names.

use crate::span::Span;

/// A spanned identifier: the name plus where it was written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Name<'s> {
    /// The identifier text, borrowed from the source.
    pub text: &'s str,
    /// Its location in the source.
    pub span: Span,
}

/// A spanned numeric literal, kept as both the parsed value and the source span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NumberLit {
    /// The parsed value.
    pub value: f64,
    /// Its location in the source.
    pub span: Span,
}

/// One `relation` declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationDecl<'s> {
    /// The relation's name; declaration order defines the relation ids of the lowered query.
    pub name: Name<'s>,
    /// `cardinality=<number>` — required by the lowering pass, optional at parse time so the
    /// omission can be reported as a *spanned* validation error.
    pub cardinality: Option<NumberLit>,
    /// `rows=<integer>` — optional override of the synthetic table size the feedback
    /// experiments generate for this relation (the planner never reads it; `cardinality` stays
    /// the estimator's input).
    pub rows: Option<NumberLit>,
    /// `lateral=(r1, r2, …)` — relations this one references freely (table functions,
    /// dependent subqueries).
    pub lateral: Vec<Name<'s>>,
}

/// One side of a `join` statement: a single relation or a braced hypernode.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinSide<'s> {
    /// The relations named on this side (one for the simple-edge shorthand).
    pub relations: Vec<Name<'s>>,
    /// Span of the whole side (the identifier, or the braces and everything between).
    pub span: Span,
}

/// One `join` statement: `join <side> -- <side> selectivity=<num> [op=<name>] [flex={…}]`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinDecl<'s> {
    /// Left hypernode.
    pub left: JoinSide<'s>,
    /// Right hypernode.
    pub right: JoinSide<'s>,
    /// Flexible relations of a generalized hyperedge (inner joins only).
    pub flex: Vec<Name<'s>>,
    /// `selectivity=<number>` — required by lowering, optional at parse time (see
    /// [`RelationDecl::cardinality`]).
    pub selectivity: Option<NumberLit>,
    /// `op=<name>` — the join operator; `None` means inner.
    pub op: Option<Name<'s>>,
    /// Span of the whole statement (from the `join` keyword to its last attribute).
    pub span: Span,
}

/// The value of an `option` statement: a number or a bare symbol (e.g. `cost_model = mixed`).
#[derive(Clone, Debug, PartialEq)]
pub enum OptionValue<'s> {
    /// A numeric value.
    Number(NumberLit),
    /// A symbolic value.
    Symbol(Name<'s>),
}

impl OptionValue<'_> {
    /// The span of the value.
    pub fn span(&self) -> Span {
        match self {
            OptionValue::Number(n) => n.span,
            OptionValue::Symbol(s) => s.span,
        }
    }
}

/// One `option <key> = <value>` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct OptionDecl<'s> {
    /// The option key.
    pub key: Name<'s>,
    /// The option value.
    pub value: OptionValue<'s>,
}

/// One `query <name> { … }` block.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryDecl<'s> {
    /// The query's name.
    pub name: Name<'s>,
    /// Relation declarations, in source order.
    pub relations: Vec<RelationDecl<'s>>,
    /// Join statements, in source order (their order defines the lowered edge ids).
    pub joins: Vec<JoinDecl<'s>>,
    /// Per-query planner options.
    pub options: Vec<OptionDecl<'s>>,
}

/// A whole parsed `.jg` file: one or more query blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct JgFile<'s> {
    /// The queries, in source order.
    pub queries: Vec<QueryDecl<'s>>,
}
