//! Byte-range source spans.
//!
//! The tokenizer attaches a [`Span`] to every token and the parser
//! merges them into per-atom spans, so downstream diagnostics (the
//! `viewplan-analyze` checks and `viewplan check`) can underline the
//! exact source text of an offending atom instead of pointing at a
//! single line/column.

/// A half-open byte range `start..end` into the parsed source, plus the
/// 1-based line and column of its first byte.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Span {
    /// Byte offset of the first byte (inclusive).
    pub start: usize,
    /// Byte offset one past the last byte (exclusive).
    pub end: usize,
    /// 1-based line of `start`.
    pub line: usize,
    /// 1-based column of `start`.
    pub column: usize,
}

impl Span {
    /// A span over `start..end` beginning at `line`:`column`.
    pub fn new(start: usize, end: usize, line: usize, column: usize) -> Span {
        Span {
            start,
            end,
            line,
            column,
        }
    }

    /// The smallest span covering both `self` and `other`. The
    /// line/column anchor comes from whichever span starts first.
    pub(crate) fn merge(self, other: Span) -> Span {
        let (first, _) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: first.line,
            column: first.column,
        }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the span covers no bytes (e.g. an end-of-input marker).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// The covered slice of `src`, or `""` when out of bounds (a span
    /// from a different source string).
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both_and_keeps_earliest_anchor() {
        let a = Span::new(4, 9, 1, 5);
        let b = Span::new(12, 20, 2, 3);
        let m = a.merge(b);
        assert_eq!(m, Span::new(4, 20, 1, 5));
        // Merge is symmetric.
        assert_eq!(b.merge(a), m);
    }

    #[test]
    fn slice_is_bounds_checked() {
        let s = Span::new(2, 5, 1, 3);
        assert_eq!(s.slice("abcdef"), "cde");
        assert_eq!(s.slice("ab"), "");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(Span::new(7, 7, 1, 8).is_empty());
    }
}
