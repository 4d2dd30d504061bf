//! Hand-rolled lexer for `.jg` sources: bytes → spanned tokens.
//!
//! The token set is deliberately tiny — identifiers, numbers, six punctuation marks and the
//! `--` join connector. Comments run from `#` to end of line; keywords are plain identifiers
//! that the parser recognizes positionally, so relation names like `option` never clash with
//! the grammar.

use crate::span::{JgError, Span};

/// What kind of lexeme a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// `[A-Za-z_][A-Za-z0-9_]*` — names, keywords and symbolic option values.
    Ident,
    /// A decimal number with optional sign, fraction and exponent (`2528312`, `4.0e-7`, `-3`).
    Number,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Equals,
    /// `--`, the join connector.
    Connector,
    /// Virtual end-of-input token (zero-width span at the end of the source).
    Eof,
}

impl TokenKind {
    /// Human-readable name used in "expected X, found Y" diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            TokenKind::Ident => "an identifier",
            TokenKind::Number => "a number",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::Comma => "`,`",
            TokenKind::Equals => "`=`",
            TokenKind::Connector => "`--`",
            TokenKind::Eof => "end of input",
        }
    }
}

/// One spanned lexeme. The text is not copied: consumers slice the source with the span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// The lexeme class.
    pub kind: TokenKind,
    /// Where in the source the lexeme sits.
    pub span: Span,
}

impl Token {
    /// The lexeme's text within its source.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.span.start..self.span.end]
    }
}

/// Lexes a whole source into tokens (the final token is always [`TokenKind::Eof`]).
///
/// Fails with a spanned [`JgError`] on the first byte that starts no token.
pub fn lex(source: &str) -> Result<Vec<Token>, JgError> {
    let bytes = source.as_bytes();
    // Sized for a token per four bytes (the embedded corpus has one per eight to eleven), so
    // lexing a query does not regrow the vector.
    let mut tokens = Vec::with_capacity(bytes.len() / 4 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' | b'}' | b'(' | b')' | b',' | b'=' => {
                let kind = match b {
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b',' => TokenKind::Comma,
                    _ => TokenKind::Equals,
                };
                tokens.push(Token {
                    kind,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    tokens.push(Token {
                        kind: TokenKind::Connector,
                        span: Span::new(i, i + 2),
                    });
                    i += 2;
                } else if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    let end = scan_number(bytes, i + 1);
                    tokens.push(Token {
                        kind: TokenKind::Number,
                        span: Span::new(i, end),
                    });
                    i = end;
                } else {
                    return Err(JgError::new(
                        "stray `-`: expected `--` (join connector) or a negative number",
                        Span::new(i, i + 1),
                    ));
                }
            }
            b'0'..=b'9' => {
                let end = scan_number(bytes, i);
                tokens.push(Token {
                    kind: TokenKind::Number,
                    span: Span::new(i, end),
                });
                i = end;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    span: Span::new(start, i),
                });
            }
            _ => {
                // Report the whole UTF-8 scalar, not a lone continuation byte.
                let ch_len = source[i..].chars().next().map_or(1, char::len_utf8);
                return Err(JgError::new(
                    format!("unexpected character `{}`", &source[i..i + ch_len]),
                    Span::new(i, i + ch_len),
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(bytes.len(), bytes.len()),
    });
    Ok(tokens)
}

/// Scans the digits/fraction/exponent of a number starting at `i` (the sign, if any, was
/// already consumed) and returns the end offset.
fn scan_number(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_full_token_set() {
        assert_eq!(
            kinds("query q { join a -- {b, c} selectivity=4.0e-7 }"),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::LBrace,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Connector,
                TokenKind::LBrace,
                TokenKind::Ident,
                TokenKind::Comma,
                TokenKind::Ident,
                TokenKind::RBrace,
                TokenKind::Ident,
                TokenKind::Equals,
                TokenKind::Number,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_whitespace_vanish() {
        assert_eq!(
            kinds("# a comment\n  x # trailing\n\t42"),
            vec![TokenKind::Ident, TokenKind::Number, TokenKind::Eof]
        );
    }

    #[test]
    fn numbers_cover_signs_fractions_exponents() {
        let src = "1 -2 3.5 -0.25 1e6 4.0e-7 2E+3";
        let toks = lex(src).unwrap();
        let texts: Vec<&str> = toks[..toks.len() - 1].iter().map(|t| t.text(src)).collect();
        assert_eq!(
            texts,
            vec!["1", "-2", "3.5", "-0.25", "1e6", "4.0e-7", "2E+3"]
        );
        assert!(toks[..toks.len() - 1]
            .iter()
            .all(|t| t.kind == TokenKind::Number));
    }

    #[test]
    fn exponent_needs_digits_to_bind() {
        // `1e` is the number `1` followed by the identifier... no — `e` cannot restart inside
        // a number, so the lexer must split `1e` into Number("1") + Ident("e").
        let src = "1e x";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Number);
        assert_eq!(toks[0].text(src), "1");
        assert_eq!(toks[1].kind, TokenKind::Ident);
    }

    #[test]
    fn stray_minus_is_a_spanned_error() {
        let err = lex("a - b").unwrap_err();
        assert_eq!(err.span, Span::new(2, 3));
        assert!(err.message.contains("stray `-`"));
    }

    #[test]
    fn unknown_characters_are_spanned_errors() {
        let err = lex("rel @ x").unwrap_err();
        assert_eq!(err.span, Span::new(4, 5));
        assert!(err.message.contains('@'));
    }
}
