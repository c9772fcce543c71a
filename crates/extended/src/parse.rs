//! Parsing helpers for conditional queries.
//!
//! The base grammar (in `viewplan-cq`) has no comparison syntax; this
//! module layers a tiny parser for comparison strings (`"C <= D"`,
//! `"X != 3"`) and a convenience constructor for whole conditional
//! queries.

use crate::ccq::ConditionalQuery;
use crate::comparison::{CompOp, Comparison};
use crate::constraints::ConstraintSet;
use viewplan_cq::{parse_query, ParseError, Term};

fn parse_term(src: &str) -> Result<Term, ParseError> {
    let src = src.trim();
    if src.is_empty() {
        return Err(err("empty term in comparison".to_string()));
    }
    if let Ok(i) = src.parse::<i64>() {
        return Ok(Term::int(i));
    }
    let first = src.chars().next().expect("nonempty");
    let valid = src.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !valid || !(first.is_ascii_alphabetic() || first == '_') {
        return Err(err(format!("bad term {src:?} in comparison")));
    }
    if first.is_ascii_uppercase() {
        Ok(Term::var(src))
    } else {
        Ok(Term::cst(src))
    }
}

fn err(message: String) -> ParseError {
    ParseError::at(1, 1, message)
}

/// Parses one comparison such as `"C <= D"`, `"X < 3"`, `"A = b"`,
/// `"A != B"`. `>` and `>=` are accepted and normalized by swapping the
/// operands.
pub(crate) fn parse_comparison(src: &str) -> Result<Comparison, ParseError> {
    // Two-character operators first so "<=" does not lex as "<" + "=".
    for (symbol, op, flip) in [
        ("<=", CompOp::Le, false),
        (">=", CompOp::Le, true),
        ("!=", CompOp::Ne, false),
        ("<", CompOp::Lt, false),
        (">", CompOp::Lt, true),
        ("=", CompOp::Eq, false),
    ] {
        if let Some(pos) = src.find(symbol) {
            let (l, r) = (
                parse_term(&src[..pos])?,
                parse_term(&src[pos + symbol.len()..])?,
            );
            let (lhs, rhs) = if flip { (r, l) } else { (l, r) };
            return Ok(Comparison { lhs, op, rhs });
        }
    }
    Err(err(format!("no comparison operator in {src:?}")))
}

/// Parses a conditional query from a relational rule plus comparison
/// strings: `parse_conditional("q(X, Y) :- r(X, Y)", &["X <= Y"])`.
pub fn parse_conditional(
    relational: &str,
    comparisons: &[&str],
) -> Result<ConditionalQuery, ParseError> {
    let q = parse_query(relational)?;
    let cs = comparisons
        .iter()
        .map(|c| parse_comparison(c))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ConditionalQuery::new(
        q,
        ConstraintSet::from_comparisons(cs),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_operators() {
        assert_eq!(parse_comparison("C <= D").unwrap().to_string(), "C <= D");
        assert_eq!(parse_comparison("C < D").unwrap().to_string(), "C < D");
        assert_eq!(parse_comparison("C = D").unwrap().to_string(), "C = D");
        assert_eq!(parse_comparison("C != D").unwrap().to_string(), "C != D");
    }

    #[test]
    fn flips_reversed_operators() {
        assert_eq!(parse_comparison("C > D").unwrap().to_string(), "D < C");
        assert_eq!(parse_comparison("C >= D").unwrap().to_string(), "D <= C");
    }

    #[test]
    fn parses_constants() {
        assert_eq!(parse_comparison("X < 3").unwrap().to_string(), "X < 3");
        assert_eq!(parse_comparison("-2 <= X").unwrap().to_string(), "-2 <= X");
        assert_eq!(parse_comparison("X = abc").unwrap().to_string(), "X = abc");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_comparison("no operator here").is_err());
        assert!(parse_comparison("X <").is_err());
        assert!(parse_comparison("<= Y").is_err());
        assert!(parse_comparison("X ** Y").is_err());
    }

    #[test]
    fn conditional_query_round_trip() {
        let q = parse_conditional("q(X, Y) :- r(X, Y)", &["X <= Y", "X != 0"]).unwrap();
        assert_eq!(q.to_string(), "q(X, Y) :- r(X, Y), X <= Y, X != 0");
    }

    #[test]
    fn conditional_rejects_unbound_comparison_vars() {
        let out =
            std::panic::catch_unwind(|| parse_conditional("q(X) :- r(X, X)", &["Z < X"]).unwrap());
        assert!(out.is_err());
    }
}
