//! Parse errors with source positions.

use crate::span::Span;
use std::fmt;

/// An error produced while parsing the Datalog-style query syntax.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub(crate) line: usize,
    /// 1-based column of the offending token.
    pub(crate) column: usize,
    /// Byte range of the offending token (empty at end of input).
    pub(crate) span: Span,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, column: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            column,
            span: Span::new(0, 0, line, column),
            message: message.into(),
        }
    }

    pub(crate) fn spanned(span: Span, message: impl Into<String>) -> ParseError {
        ParseError {
            line: span.line,
            column: span.column,
            span,
            message: message.into(),
        }
    }

    /// Builds a parse error at an explicit position. Primarily for
    /// adapters wrapping other syntaxes into `ParseError` (e.g. the
    /// extended-query comparison parser).
    pub fn at(line: usize, column: usize, message: impl Into<String>) -> ParseError {
        ParseError::new(line, column, message)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = ParseError::new(3, 7, "expected ')'");
        assert_eq!(e.to_string(), "parse error at 3:7: expected ')'");
    }

    #[test]
    fn spanned_errors_carry_their_byte_range() {
        let e = ParseError::spanned(Span::new(10, 14, 2, 3), "boom");
        assert_eq!((e.line, e.column), (2, 3));
        assert_eq!((e.span.start, e.span.end), (10, 14));
    }
}
