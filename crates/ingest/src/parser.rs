//! Recursive-descent parser for `.jg` sources: spanned tokens → [`JgFile`].
//!
//! The grammar (see the crate docs for the prose version):
//!
//! ```text
//! file      := query*                                   ; at least one
//! query     := "query" IDENT "{" stmt* "}"
//! stmt      := relation | join | option
//! relation  := "relation" IDENT rel-attr*
//! rel-attr  := "cardinality" "=" NUMBER
//!            | "rows" "=" NUMBER
//!            | "lateral" "=" "(" IDENT ("," IDENT)* ")"
//! join      := "join" side "--" side join-attr*
//! side      := IDENT | "{" IDENT ("," IDENT)* "}"
//! join-attr := "selectivity" "=" NUMBER
//!            | "op" "=" IDENT
//!            | "flex" "=" "{" IDENT ("," IDENT)* "}"
//! option    := "option" IDENT "=" (NUMBER | IDENT)
//! ```
//!
//! Keywords (`query`, `relation`, `join`, `option`, attribute names) are contextual: they are
//! ordinary identifiers everywhere except at the position where the grammar expects them, so
//! relations may freely be named `option` or `flex`.

use crate::ast::{
    JgFile, JoinDecl, JoinSide, Name, NumberLit, OptionDecl, OptionValue, QueryDecl, RelationDecl,
};
use crate::lexer::{lex, Token, TokenKind};
use crate::span::{JgError, Span};

/// Parses a whole `.jg` source into its AST.
///
/// Fails with a spanned [`JgError`] on the first lexical or syntactic violation; empty input
/// (no `query` block) is an error too.
pub fn parse(source: &str) -> Result<JgFile<'_>, JgError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        source,
        tokens,
        pos: 0,
    };
    let mut queries = Vec::new();
    while !p.at(TokenKind::Eof) {
        queries.push(p.query()?);
    }
    if queries.is_empty() {
        return Err(JgError::new(
            "empty input: expected at least one `query` block",
            Span::new(0, 0),
        ));
    }
    Ok(JgFile { queries })
}

struct Parser<'s> {
    source: &'s str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Token {
        self.tokens[self.pos]
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek().kind == kind
    }

    /// Is the next token the given contextual keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        let t = self.peek();
        t.kind == TokenKind::Ident && t.text(self.source) == kw
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if t.kind != TokenKind::Eof {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, JgError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(JgError::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    found(t, self.source)
                ),
                t.span,
            ))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Token, JgError> {
        if self.at_keyword(kw) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(JgError::new(
                format!("expected `{kw}`, found {}", found(t, self.source)),
                t.span,
            ))
        }
    }

    fn name(&mut self) -> Result<Name<'s>, JgError> {
        let t = self.expect(TokenKind::Ident)?;
        Ok(Name {
            text: t.text(self.source),
            span: t.span,
        })
    }

    fn number(&mut self) -> Result<NumberLit, JgError> {
        let t = self.expect(TokenKind::Number)?;
        let text = t.text(self.source);
        let value = text
            .parse::<f64>()
            .map_err(|_| JgError::new(format!("number `{text}` does not parse as f64"), t.span))?;
        Ok(NumberLit {
            value,
            span: t.span,
        })
    }

    fn query(&mut self) -> Result<QueryDecl<'s>, JgError> {
        self.expect_keyword("query")?;
        let name = self.name()?;
        self.expect(TokenKind::LBrace)?;
        let mut q = QueryDecl {
            name,
            relations: Vec::new(),
            joins: Vec::new(),
            options: Vec::new(),
        };
        loop {
            if self.at(TokenKind::RBrace) {
                self.bump();
                return Ok(q);
            }
            if self.at_keyword("relation") {
                q.relations.push(self.relation()?);
            } else if self.at_keyword("join") {
                q.joins.push(self.join()?);
            } else if self.at_keyword("option") {
                q.options.push(self.option()?);
            } else {
                let t = self.peek();
                return Err(JgError::new(
                    format!(
                        "expected `relation`, `join`, `option` or `}}`, found {}",
                        found(t, self.source)
                    ),
                    t.span,
                ));
            }
        }
    }

    fn relation(&mut self) -> Result<RelationDecl<'s>, JgError> {
        self.expect_keyword("relation")?;
        let name = self.name()?;
        let mut decl = RelationDecl {
            name,
            cardinality: None,
            rows: None,
            lateral: Vec::new(),
        };
        loop {
            if self.at_keyword("cardinality") {
                let kw = self.bump();
                if decl.cardinality.is_some() {
                    return Err(JgError::new("duplicate `cardinality` attribute", kw.span));
                }
                self.expect(TokenKind::Equals)?;
                decl.cardinality = Some(self.number()?);
            } else if self.at_keyword("rows") {
                let kw = self.bump();
                if decl.rows.is_some() {
                    return Err(JgError::new("duplicate `rows` attribute", kw.span));
                }
                self.expect(TokenKind::Equals)?;
                decl.rows = Some(self.number()?);
            } else if self.at_keyword("lateral") {
                let kw = self.bump();
                if !decl.lateral.is_empty() {
                    return Err(JgError::new("duplicate `lateral` attribute", kw.span));
                }
                self.expect(TokenKind::Equals)?;
                self.expect(TokenKind::LParen)?;
                decl.lateral = self.name_list(TokenKind::RParen)?;
            } else {
                return Ok(decl);
            }
        }
    }

    fn join(&mut self) -> Result<JoinDecl<'s>, JgError> {
        let kw = self.expect_keyword("join")?;
        let left = self.join_side()?;
        self.expect(TokenKind::Connector)?;
        let right = self.join_side()?;
        let mut decl = JoinDecl {
            span: kw.span.to(right.span),
            left,
            right,
            flex: Vec::new(),
            selectivity: None,
            op: None,
        };
        loop {
            if self.at_keyword("selectivity") {
                let kw = self.bump();
                if decl.selectivity.is_some() {
                    return Err(JgError::new("duplicate `selectivity` attribute", kw.span));
                }
                self.expect(TokenKind::Equals)?;
                let n = self.number()?;
                decl.span = decl.span.to(n.span);
                decl.selectivity = Some(n);
            } else if self.at_keyword("op") {
                let kw = self.bump();
                if decl.op.is_some() {
                    return Err(JgError::new("duplicate `op` attribute", kw.span));
                }
                self.expect(TokenKind::Equals)?;
                let op = self.name()?;
                decl.span = decl.span.to(op.span);
                decl.op = Some(op);
            } else if self.at_keyword("flex") {
                let kw = self.bump();
                if !decl.flex.is_empty() {
                    return Err(JgError::new("duplicate `flex` attribute", kw.span));
                }
                self.expect(TokenKind::Equals)?;
                self.expect(TokenKind::LBrace)?;
                decl.flex = self.name_list(TokenKind::RBrace)?;
                if let Some(last) = decl.flex.last() {
                    decl.span = decl.span.to(last.span);
                }
            } else {
                return Ok(decl);
            }
        }
    }

    fn join_side(&mut self) -> Result<JoinSide<'s>, JgError> {
        if self.at(TokenKind::LBrace) {
            let open = self.bump();
            let relations = self.name_list(TokenKind::RBrace)?;
            let end = self.tokens[self.pos - 1].span; // the consumed closing brace
            Ok(JoinSide {
                relations,
                span: open.span.to(end),
            })
        } else {
            let n = self.name().map_err(|e| {
                JgError::new(
                    format!(
                        "{} (a join side is a relation name or `{{a, b, …}}`)",
                        e.message
                    ),
                    e.span,
                )
            })?;
            Ok(JoinSide {
                span: n.span,
                relations: vec![n],
            })
        }
    }

    /// Parses `IDENT ("," IDENT)* <close>` and consumes the closing token.
    fn name_list(&mut self, close: TokenKind) -> Result<Vec<Name<'s>>, JgError> {
        let mut names = vec![self.name()?];
        loop {
            if self.at(TokenKind::Comma) {
                self.bump();
                names.push(self.name()?);
            } else {
                self.expect(close)?;
                return Ok(names);
            }
        }
    }

    fn option(&mut self) -> Result<OptionDecl<'s>, JgError> {
        self.expect_keyword("option")?;
        let key = self.name()?;
        self.expect(TokenKind::Equals)?;
        let value = if self.at(TokenKind::Number) {
            OptionValue::Number(self.number()?)
        } else if self.at(TokenKind::Ident) {
            OptionValue::Symbol(self.name()?)
        } else {
            let t = self.peek();
            return Err(JgError::new(
                format!(
                    "expected a number or a symbol as option value, found {}",
                    found(t, self.source)
                ),
                t.span,
            ));
        };
        Ok(OptionDecl { key, value })
    }
}

/// "found …" rendering for diagnostics: the offending text, or a description for EOF.
fn found(t: Token, source: &str) -> String {
    if t.kind == TokenKind::Eof {
        "end of input".to_string()
    } else {
        format!("`{}`", t.text(source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = "
# A two-relation query with every statement kind.
query tiny {
  relation a cardinality=100
  relation b cardinality=2000 lateral=(a)
  join a -- b selectivity=0.01 op=left_outer
  join {a, b} -- {b} selectivity=0.5 flex={a}
  option ccp_budget = 5000
  option cost_model = mixed
}
";

    #[test]
    fn parses_every_statement_kind() {
        let file = parse(OK).unwrap();
        assert_eq!(file.queries.len(), 1);
        let q = &file.queries[0];
        assert_eq!(q.name.text, "tiny");
        assert_eq!(q.relations.len(), 2);
        assert_eq!(q.relations[1].lateral[0].text, "a");
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].op.as_ref().unwrap().text, "left_outer");
        assert_eq!(q.joins[1].left.relations.len(), 2);
        assert_eq!(q.joins[1].flex[0].text, "a");
        assert_eq!(q.options.len(), 2);
        match &q.options[1].value {
            OptionValue::Symbol(s) => assert_eq!(s.text, "mixed"),
            v => panic!("expected symbol, got {v:?}"),
        }
    }

    #[test]
    fn join_spans_cover_the_whole_statement() {
        let src = "query q {\n  relation a cardinality=1\n  relation b cardinality=1\n  join a -- b selectivity=0.5\n}";
        let file = parse(src).unwrap();
        let j = &file.queries[0].joins[0];
        assert_eq!(
            &src[j.span.start..j.span.end],
            "join a -- b selectivity=0.5"
        );
    }

    #[test]
    fn contextual_keywords_are_valid_relation_names() {
        let src = "query q {\n  relation option cardinality=1\n  relation join cardinality=2\n  join option -- join selectivity=0.1\n}";
        let q = &parse(src).unwrap().queries[0];
        assert_eq!(q.relations[0].name.text, "option");
        assert_eq!(q.joins[0].right.relations[0].text, "join");
    }

    #[test]
    fn missing_connector_is_spanned() {
        let src = "query q { relation a cardinality=1\n join a a selectivity=0.5 }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("expected `--`"), "{}", err.message);
        assert_eq!(&src[err.span.start..err.span.end], "a");
        assert_eq!(err.span.start, src.rfind("a s").unwrap());
    }

    #[test]
    fn eof_inside_a_block_is_reported_as_such() {
        let err = parse("query q { relation a cardinality=1").unwrap_err();
        assert!(err.message.contains("end of input"), "{}", err.message);
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = parse("# only comments\n").unwrap_err();
        assert!(err.message.contains("empty input"));
    }

    #[test]
    fn duplicate_attributes_are_rejected() {
        let src = "query q { relation a cardinality=1 cardinality=2 }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("duplicate `cardinality`"));
        assert_eq!(err.span.start, src.rfind("cardinality").unwrap());
    }
}
