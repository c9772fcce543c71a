//! The diagnostic data model: coded, span-carrying findings.

use viewplan_cq::Span;

/// How serious a diagnostic is.
///
/// Only [`Severity::Error`] diagnostics make a program unprocessable:
/// the CLI refuses to run `rewrite`/`plan`/`eval`/`batch`/`serve` over a
/// program with errors (exit code 2), while warnings merely print.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum Severity {
    /// Suspicious but processable: the pipeline will run, though the
    /// result is likely not what the author intended (or provably empty).
    Warning,
    /// Unprocessable: running the pipeline over this program would
    /// produce garbage (e.g. an arity mismatch makes the canonical
    /// database ill-typed).
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers ("error" / "warning").
    pub(crate) fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding: a stable code, a severity, a human message, and the
/// source span of the offending construct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable machine-readable code (`"VP001"` … `"VP007"`).
    pub code: &'static str,
    /// Error or warning.
    pub(crate) severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Where in the source the finding anchors (byte range + line/col).
    pub span: Span,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub(crate) fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
        }
    }

    /// A warning-severity diagnostic.
    pub(crate) fn warning(
        code: &'static str,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
        }
    }
}

/// The result of analyzing one program: all findings, in source order.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Findings sorted by (source position, code).
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// True iff any finding has error severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub(crate) fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub(crate) fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True iff the program is clean.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Sorts findings into the deterministic presentation order: source
    /// position first, then code, then message (for co-anchored pairs).
    pub(crate) fn finish(mut self) -> Analysis {
        self.diagnostics.sort_by(|a, b| {
            (a.span.start, a.span.end, a.code, &a.message).cmp(&(
                b.span.start,
                b.span.end,
                b.code,
                &b.message,
            ))
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ordering() {
        let a = Analysis {
            diagnostics: vec![
                Diagnostic::warning("VP003", Span::new(10, 12, 2, 1), "later"),
                Diagnostic::error("VP001", Span::new(0, 4, 1, 1), "earlier"),
            ],
        }
        .finish();
        assert!(a.has_errors());
        assert_eq!(a.error_count(), 1);
        assert_eq!(a.warning_count(), 1);
        assert_eq!(a.diagnostics[0].code, "VP001");
        assert_eq!(a.diagnostics[1].code, "VP003");
    }

    #[test]
    fn clean_analysis() {
        let a = Analysis::default();
        assert!(a.is_empty());
        assert!(!a.has_errors());
        assert_eq!(a.errors().count(), 0);
    }
}
