//! Comparison atoms: built-in predicates over query terms.

use std::fmt;
use viewplan_cq::{Constant, Substitution, Symbol, Term};
use viewplan_engine::Value;

/// A comparison operator. The order predicates (`<`, `≤`) are interpreted
/// over a dense linear order covering all values. The symbolic-reasoning
/// side ([`ConstraintSet`](crate::ConstraintSet)) treats symbolic constants as
/// *uninterpreted points* of that order (their relative position is
/// unknown), which keeps implication sound while the runtime order fixes
/// them by name — a deliberately conservative split.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CompOp {
    /// Evaluates the operator on two runtime values. The runtime order is
    /// *total*, matching the dense-total-order theory the containment test
    /// assumes: integers by value, then symbolic constants by name, then
    /// frozen values by name (integers sort below symbols, symbols below
    /// frozen values — an arbitrary but fixed convention).
    pub(crate) fn eval(self, a: Value, b: Value) -> bool {
        match self {
            CompOp::Eq => a == b,
            CompOp::Ne => a != b,
            CompOp::Lt => value_cmp(a, b) == std::cmp::Ordering::Less,
            CompOp::Le => value_cmp(a, b) != std::cmp::Ordering::Greater,
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
        })
    }
}

/// The total runtime order used by `<`/`≤` (see [`CompOp::eval`]).
fn value_cmp(a: Value, b: Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(&y),
        (Value::Int(_), _) => Ordering::Less,
        (_, Value::Int(_)) => Ordering::Greater,
        (Value::Sym(x), Value::Sym(y)) => x.as_str().cmp(y.as_str()),
        (Value::Sym(_), _) => Ordering::Less,
        (_, Value::Sym(_)) => Ordering::Greater,
        (Value::Frozen(x), Value::Frozen(y)) => x.as_str().cmp(y.as_str()),
        (Value::Frozen(_), _) => Ordering::Less,
        (_, Value::Frozen(_)) => Ordering::Greater,
        // Skolem witnesses (inverse-rule evaluation) order by identifier.
        (Value::Skolem(x), Value::Skolem(y)) => x.cmp(&y),
    }
}

/// A comparison atom `lhs op rhs`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Comparison {
    /// Left operand.
    pub lhs: Term,
    /// Operator.
    pub op: CompOp,
    /// Right operand.
    pub rhs: Term,
}

impl Comparison {
    /// `lhs < rhs`.
    pub(crate) fn lt(lhs: Term, rhs: Term) -> Comparison {
        Comparison {
            lhs,
            op: CompOp::Lt,
            rhs,
        }
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: Term, rhs: Term) -> Comparison {
        Comparison {
            lhs,
            op: CompOp::Le,
            rhs,
        }
    }

    /// `lhs = rhs`.
    pub(crate) fn eq(lhs: Term, rhs: Term) -> Comparison {
        Comparison {
            lhs,
            op: CompOp::Eq,
            rhs,
        }
    }

    /// `lhs ≠ rhs`.
    #[cfg(test)]
    pub(crate) fn ne(lhs: Term, rhs: Term) -> Comparison {
        Comparison {
            lhs,
            op: CompOp::Ne,
            rhs,
        }
    }

    /// The variables mentioned.
    pub(crate) fn variables(&self) -> impl Iterator<Item = Symbol> {
        [self.lhs, self.rhs].into_iter().filter_map(Term::as_var)
    }

    /// Applies a substitution to both operands.
    pub(crate) fn apply(&self, subst: &Substitution) -> Comparison {
        Comparison {
            lhs: subst.apply(self.lhs),
            op: self.op,
            rhs: subst.apply(self.rhs),
        }
    }

    /// Evaluates against a variable binding (variables not bound evaluate
    /// to `None`, i.e. "unknown").
    pub(crate) fn eval(&self, lookup: &dyn Fn(Symbol) -> Option<Value>) -> Option<bool> {
        let v = |t: Term| -> Option<Value> {
            match t {
                Term::Var(x) => lookup(x),
                Term::Const(Constant::Int(i)) => Some(Value::Int(i)),
                Term::Const(Constant::Sym(s)) => Some(Value::Sym(s)),
            }
        };
        Some(self.op.eval(v(self.lhs)?, v(self.rhs)?))
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_evaluate_on_integers() {
        assert!(CompOp::Lt.eval(Value::Int(1), Value::Int(2)));
        assert!(!CompOp::Lt.eval(Value::Int(2), Value::Int(2)));
        assert!(CompOp::Le.eval(Value::Int(2), Value::Int(2)));
        assert!(CompOp::Eq.eval(Value::Int(3), Value::Int(3)));
        assert!(CompOp::Ne.eval(Value::Int(3), Value::Int(4)));
    }

    #[test]
    fn symbols_order_totally_by_name() {
        assert!(CompOp::Lt.eval(Value::sym("a"), Value::sym("b")));
        assert!(CompOp::Le.eval(Value::sym("a"), Value::sym("a")));
        assert!(!CompOp::Lt.eval(Value::sym("b"), Value::sym("a")));
        assert!(CompOp::Eq.eval(Value::sym("a"), Value::sym("a")));
        assert!(CompOp::Ne.eval(Value::sym("a"), Value::sym("b")));
        // Integers sort below symbols (fixed convention).
        assert!(CompOp::Lt.eval(Value::Int(999), Value::sym("a")));
    }

    #[test]
    fn comparison_eval_with_bindings() {
        let c = Comparison::le(Term::var("C"), Term::var("D"));
        let lookup = |v: Symbol| -> Option<Value> {
            match v.as_str() {
                "C" => Some(Value::Int(1)),
                "D" => Some(Value::Int(5)),
                _ => None,
            }
        };
        assert_eq!(c.eval(&lookup), Some(true));
        let c2 = Comparison::lt(Term::var("D"), Term::var("C"));
        assert_eq!(c2.eval(&lookup), Some(false));
        let unknown = Comparison::lt(Term::var("Z"), Term::int(3));
        assert_eq!(unknown.eval(&lookup), None);
    }

    #[test]
    fn constants_evaluate_without_bindings() {
        let c = Comparison::lt(Term::int(1), Term::int(2));
        assert_eq!(c.eval(&|_| None), Some(true));
    }

    #[test]
    fn display() {
        assert_eq!(
            Comparison::le(Term::var("C"), Term::var("D")).to_string(),
            "C <= D"
        );
        assert_eq!(
            Comparison::ne(Term::var("X"), Term::int(0)).to_string(),
            "X != 0"
        );
    }

    #[test]
    fn apply_substitution() {
        let c = Comparison::lt(Term::var("X"), Term::var("Y"));
        let s = Substitution::from_pairs([(Symbol::new("X"), Term::int(7))]);
        assert_eq!(c.apply(&s).to_string(), "7 < Y");
    }
}
