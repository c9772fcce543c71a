//! Conjunctions of comparisons: satisfiability and implication over a
//! dense linear order.
//!
//! The decision procedures are the classic order-constraint closure:
//! equalities are merged first; `≤`/`<` become edges of a graph whose
//! transitive closure (Floyd–Warshall over the {≤, <} semiring) exposes
//! every implied order relation; a cycle containing a strict edge is
//! unsatisfiable, a non-strict cycle forces equality; disequalities are
//! checked against the forced equalities; integer constants carry their
//! natural order, and distinct constants are implicitly disequal. The
//! order is *dense* (think rationals), so `x < y` never implies the
//! existence of integers between — matching the semantics query
//! containment with comparisons is defined over.

use crate::comparison::{CompOp, Comparison};
use std::collections::{HashMap, HashSet};
use std::fmt;
use viewplan_cq::{Constant, Substitution, Symbol, Term};

/// A conjunction of comparison atoms.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ConstraintSet {
    comparisons: Vec<Comparison>,
}

/// Pairwise order knowledge in the closure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Rel {
    /// Nothing known.
    None,
    /// `≤` derivable.
    Le,
    /// `<` derivable.
    Lt,
}

impl Rel {
    fn join(self, other: Rel) -> Rel {
        match (self, other) {
            (Rel::None, _) | (_, Rel::None) => Rel::None,
            (Rel::Lt, _) | (_, Rel::Lt) => Rel::Lt,
            _ => Rel::Le,
        }
    }

    fn strengthen(self, other: Rel) -> Rel {
        match (self, other) {
            (Rel::Lt, _) | (_, Rel::Lt) => Rel::Lt,
            (Rel::Le, _) | (_, Rel::Le) => Rel::Le,
            _ => Rel::None,
        }
    }
}

/// The solved form of a constraint set.
struct Solved {
    nodes: Vec<Term>,
    index: HashMap<Term, usize>,
    rel: Vec<Vec<Rel>>,
    /// Disequalities between node indices (symmetric pairs).
    ne: HashSet<(usize, usize)>,
    /// Union-find representative per node (for explicit equalities).
    rep: Vec<usize>,
    unsat: bool,
}

impl ConstraintSet {
    /// The empty (trivially true) constraint set.
    pub(crate) fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Builds from comparisons.
    pub fn from_comparisons(cs: impl IntoIterator<Item = Comparison>) -> ConstraintSet {
        ConstraintSet {
            comparisons: cs.into_iter().collect(),
        }
    }

    /// Adds one comparison.
    pub(crate) fn push(&mut self, c: Comparison) {
        self.comparisons.push(c);
    }

    /// The comparisons, as written.
    pub fn iter(&self) -> std::slice::Iter<'_, Comparison> {
        self.comparisons.iter()
    }

    /// True iff no comparison is present.
    pub(crate) fn is_empty(&self) -> bool {
        self.comparisons.is_empty()
    }

    /// The variables mentioned anywhere.
    pub(crate) fn variables(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for c in &self.comparisons {
            for v in c.variables() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Applies a substitution to every comparison.
    pub(crate) fn apply(&self, subst: &Substitution) -> ConstraintSet {
        ConstraintSet {
            comparisons: self.comparisons.iter().map(|c| c.apply(subst)).collect(),
        }
    }

    /// Conjoins two sets.
    pub(crate) fn conjoin(&self, other: &ConstraintSet) -> ConstraintSet {
        let mut out = self.clone();
        out.comparisons.extend(other.comparisons.iter().copied());
        out
    }

    /// True iff some assignment over the dense order satisfies all
    /// comparisons.
    pub fn is_satisfiable(&self) -> bool {
        !self.solve().unsat
    }

    /// True iff every satisfying assignment of `self` also satisfies `c`.
    /// An unsatisfiable set implies everything.
    pub fn implies(&self, c: &Comparison) -> bool {
        let mut solved = self.solve();
        if solved.unsat {
            return true;
        }
        solved.implies(c)
    }

    /// True iff `self` implies every comparison in `other`.
    pub(crate) fn implies_all(&self, other: &ConstraintSet) -> bool {
        let mut solved = self.solve();
        if solved.unsat {
            return true;
        }
        other.comparisons.iter().all(|c| solved.implies(c))
    }

    fn solve(&self) -> Solved {
        let mut solved = Solved::new();
        // Install every term (so implication queries about seen terms have
        // nodes) and the explicit constraints.
        for c in &self.comparisons {
            solved.touch(c.lhs);
            solved.touch(c.rhs);
        }
        // Equalities first (union-find).
        for c in &self.comparisons {
            if c.op == CompOp::Eq {
                solved.merge(c.lhs, c.rhs);
            }
        }
        // Order edges and disequalities on representatives.
        for c in &self.comparisons {
            match c.op {
                CompOp::Eq => {}
                CompOp::Le => solved.add_edge(c.lhs, c.rhs, Rel::Le),
                CompOp::Lt => solved.add_edge(c.lhs, c.rhs, Rel::Lt),
                CompOp::Ne => solved.add_ne(c.lhs, c.rhs),
            }
        }
        solved.close();
        solved
    }
}

impl Solved {
    fn new() -> Solved {
        Solved {
            nodes: Vec::new(),
            index: HashMap::new(),
            rel: Vec::new(),
            ne: HashSet::new(),
            rep: Vec::new(),
            unsat: false,
        }
    }

    fn touch(&mut self, t: Term) -> usize {
        if let Some(&i) = self.index.get(&t) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(t);
        self.index.insert(t, i);
        self.rep.push(i);
        for row in &mut self.rel {
            row.push(Rel::None);
        }
        self.rel.push(vec![Rel::None; self.nodes.len()]);
        self.rel[i][i] = Rel::Le;
        i
    }

    fn find(&mut self, i: usize) -> usize {
        if self.rep[i] != i {
            let r = self.find(self.rep[i]);
            self.rep[i] = r;
            r
        } else {
            i
        }
    }

    fn merge(&mut self, a: Term, b: Term) {
        let (ia, ib) = (self.touch(a), self.touch(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            return;
        }
        // Equating distinct constants is unsatisfiable.
        if let (Term::Const(ca), Term::Const(cb)) = (self.nodes[ra], self.nodes[rb]) {
            if ca != cb {
                self.unsat = true;
                return;
            }
        }
        // Prefer a constant representative.
        let (winner, loser) = if matches!(self.nodes[ra], Term::Const(_)) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.rep[loser] = winner;
    }

    fn add_edge(&mut self, a: Term, b: Term, r: Rel) {
        let (ia, ib) = (self.touch(a), self.touch(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        self.rel[ra][rb] = self.rel[ra][rb].strengthen(r);
    }

    fn add_ne(&mut self, a: Term, b: Term) {
        let (ia, ib) = (self.touch(a), self.touch(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            self.unsat = true;
            return;
        }
        self.ne.insert((ra.min(rb), ra.max(rb)));
    }

    /// Installs constant-order edges, runs the transitive closure, and
    /// checks consistency.
    fn close(&mut self) {
        if self.unsat {
            return;
        }
        // Natural order among integer constants; distinct constants are
        // disequal (symbolic ones only disequal, not ordered).
        let reps: Vec<usize> = (0..self.nodes.len())
            .map(|i| self.find(i))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        for (k, &i) in reps.iter().enumerate() {
            for &j in reps.iter().skip(k + 1) {
                if let (Term::Const(ci), Term::Const(cj)) = (self.nodes[i], self.nodes[j]) {
                    if ci != cj {
                        self.ne.insert((i.min(j), i.max(j)));
                    }
                    if let (Constant::Int(x), Constant::Int(y)) = (ci, cj) {
                        if x < y {
                            self.rel[i][j] = self.rel[i][j].strengthen(Rel::Lt);
                        } else if y < x {
                            self.rel[j][i] = self.rel[j][i].strengthen(Rel::Lt);
                        }
                    }
                }
            }
        }
        // Floyd–Warshall over the {None, Le, Lt} semiring, on
        // representatives (non-representatives inherit via find()).
        let n = self.nodes.len();
        for k in 0..n {
            for i in 0..n {
                if self.rel[i][k] == Rel::None {
                    continue;
                }
                for j in 0..n {
                    let through = self.rel[i][k].join(self.rel[k][j]);
                    if through != Rel::None {
                        self.rel[i][j] = self.rel[i][j].strengthen(through);
                    }
                }
            }
        }
        // Strict cycle → unsat.
        for i in 0..n {
            if self.rel[i][i] == Rel::Lt {
                self.unsat = true;
                return;
            }
        }
        // Forced equality vs disequality / distinct constants.
        for i in 0..n {
            for j in (i + 1)..n {
                let equal_forced = self.find(i) == self.find(j)
                    || (self.rel[i][j] == Rel::Le && self.rel[j][i] == Rel::Le);
                if equal_forced {
                    if self.ne.contains(&(i.min(j), i.max(j))) {
                        self.unsat = true;
                        return;
                    }
                    if let (Term::Const(ci), Term::Const(cj)) = (self.nodes[i], self.nodes[j]) {
                        if ci != cj {
                            self.unsat = true;
                            return;
                        }
                    }
                }
            }
        }
    }

    fn lookup(&mut self, t: Term) -> Option<usize> {
        self.index.get(&t).copied().map(|i| self.find(i))
    }

    /// Order knowledge between two terms; unseen terms only relate to
    /// themselves and to constants.
    fn relation(&mut self, a: Term, b: Term) -> Rel {
        if a == b {
            return Rel::Le;
        }
        // Constant-vs-constant is decidable without the graph.
        if let (Term::Const(Constant::Int(x)), Term::Const(Constant::Int(y))) = (a, b) {
            return match x.cmp(&y) {
                std::cmp::Ordering::Less => Rel::Lt,
                std::cmp::Ordering::Equal => Rel::Le,
                std::cmp::Ordering::Greater => Rel::None,
            };
        }
        let (Some(ia), Some(ib)) = (self.lookup(a), self.lookup(b)) else {
            return Rel::None;
        };
        if ia == ib {
            return Rel::Le;
        }
        self.rel[ia][ib]
    }

    fn equal(&mut self, a: Term, b: Term) -> bool {
        if a == b {
            return true;
        }
        match (self.lookup(a), self.lookup(b)) {
            (Some(ia), Some(ib)) => {
                ia == ib || (self.rel[ia][ib] == Rel::Le && self.rel[ib][ia] == Rel::Le)
            }
            _ => false,
        }
    }

    fn not_equal(&mut self, a: Term, b: Term) -> bool {
        // Distinct constants.
        if let (Term::Const(ca), Term::Const(cb)) = (a, b) {
            if ca != cb {
                return true;
            }
        }
        if self.relation(a, b) == Rel::Lt || self.relation(b, a) == Rel::Lt {
            return true;
        }
        match (self.lookup(a), self.lookup(b)) {
            (Some(ia), Some(ib)) if ia != ib => self.ne.contains(&(ia.min(ib), ia.max(ib))),
            _ => false,
        }
    }

    fn implies(&mut self, c: &Comparison) -> bool {
        match c.op {
            CompOp::Eq => self.equal(c.lhs, c.rhs),
            CompOp::Ne => self.not_equal(c.lhs, c.rhs),
            CompOp::Le => self.equal(c.lhs, c.rhs) || self.relation(c.lhs, c.rhs) != Rel::None,
            CompOp::Lt => self.relation(c.lhs, c.rhs) == Rel::Lt,
        }
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.comparisons.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    #[test]
    fn empty_set_is_satisfiable_and_implies_nothing_strict() {
        let cs = ConstraintSet::new();
        assert!(cs.is_satisfiable());
        assert!(!cs.implies(&Comparison::lt(v("X"), v("Y"))));
        assert!(cs.implies(&Comparison::le(v("X"), v("X"))));
        assert!(cs.implies(&Comparison::eq(v("X"), v("X"))));
    }

    #[test]
    fn transitivity_of_order() {
        let cs = ConstraintSet::from_comparisons([
            Comparison::le(v("X"), v("Y")),
            Comparison::lt(v("Y"), v("Z")),
        ]);
        assert!(cs.is_satisfiable());
        assert!(cs.implies(&Comparison::lt(v("X"), v("Z"))));
        assert!(cs.implies(&Comparison::le(v("X"), v("Z"))));
        assert!(cs.implies(&Comparison::ne(v("X"), v("Z"))));
        assert!(!cs.implies(&Comparison::lt(v("Z"), v("X"))));
    }

    #[test]
    fn strict_cycle_is_unsatisfiable() {
        let cs = ConstraintSet::from_comparisons([
            Comparison::lt(v("X"), v("Y")),
            Comparison::le(v("Y"), v("X")),
        ]);
        assert!(!cs.is_satisfiable());
        // Ex falso: implies everything.
        assert!(cs.implies(&Comparison::lt(v("A"), v("B"))));
    }

    #[test]
    fn nonstrict_cycle_forces_equality() {
        let cs = ConstraintSet::from_comparisons([
            Comparison::le(v("X"), v("Y")),
            Comparison::le(v("Y"), v("X")),
        ]);
        assert!(cs.is_satisfiable());
        assert!(cs.implies(&Comparison::eq(v("X"), v("Y"))));
        assert!(cs.implies(&Comparison::le(v("Y"), v("X"))));
        assert!(!cs.implies(&Comparison::lt(v("X"), v("Y"))));
    }

    #[test]
    fn forced_equality_conflicts_with_disequality() {
        let cs = ConstraintSet::from_comparisons([
            Comparison::le(v("X"), v("Y")),
            Comparison::le(v("Y"), v("X")),
            Comparison::ne(v("X"), v("Y")),
        ]);
        assert!(!cs.is_satisfiable());
    }

    #[test]
    fn explicit_equality_merges() {
        let cs = ConstraintSet::from_comparisons([
            Comparison::eq(v("X"), v("Y")),
            Comparison::lt(v("Y"), v("Z")),
        ]);
        assert!(cs.implies(&Comparison::lt(v("X"), v("Z"))));
        let bad = ConstraintSet::from_comparisons([
            Comparison::eq(v("X"), v("Y")),
            Comparison::ne(v("Y"), v("X")),
        ]);
        assert!(!bad.is_satisfiable());
    }

    #[test]
    fn integer_constants_are_ordered() {
        let cs = ConstraintSet::from_comparisons([
            Comparison::le(v("X"), Term::int(3)),
            Comparison::le(Term::int(5), v("Y")),
        ]);
        assert!(cs.implies(&Comparison::lt(v("X"), v("Y"))));
        assert!(cs.implies(&Comparison::ne(v("X"), v("Y"))));
    }

    #[test]
    fn equating_distinct_constants_is_unsat() {
        let cs = ConstraintSet::from_comparisons([Comparison::eq(Term::int(1), Term::int(2))]);
        assert!(!cs.is_satisfiable());
        let cs2 = ConstraintSet::from_comparisons([
            Comparison::eq(v("X"), Term::int(1)),
            Comparison::eq(v("X"), Term::int(2)),
        ]);
        assert!(!cs2.is_satisfiable());
        let sym = ConstraintSet::from_comparisons([
            Comparison::eq(v("X"), Term::cst("a")),
            Comparison::eq(v("X"), Term::cst("b")),
        ]);
        assert!(!sym.is_satisfiable());
    }

    #[test]
    fn sandwich_between_constants_forces_value() {
        let cs = ConstraintSet::from_comparisons([
            Comparison::le(Term::int(3), v("X")),
            Comparison::le(v("X"), Term::int(3)),
        ]);
        assert!(cs.is_satisfiable());
        assert!(cs.implies(&Comparison::eq(v("X"), Term::int(3))));
        // Dense order: 3 ≤ X ≤ 4 does NOT force X ∈ {3, 4}.
        let dense = ConstraintSet::from_comparisons([
            Comparison::lt(Term::int(3), v("X")),
            Comparison::lt(v("X"), Term::int(4)),
        ]);
        assert!(dense.is_satisfiable());
    }

    #[test]
    fn distinct_symbolic_constants_are_disequal_but_unordered() {
        let cs = ConstraintSet::new();
        assert!(cs.implies(&Comparison::ne(Term::cst("a"), Term::cst("b"))));
        assert!(!cs.implies(&Comparison::lt(Term::cst("a"), Term::cst("b"))));
    }

    #[test]
    fn implication_of_whole_sets() {
        let strong = ConstraintSet::from_comparisons([
            Comparison::lt(v("X"), v("Y")),
            Comparison::lt(v("Y"), v("Z")),
        ]);
        let weak = ConstraintSet::from_comparisons([
            Comparison::le(v("X"), v("Z")),
            Comparison::ne(v("X"), v("Y")),
        ]);
        assert!(strong.implies_all(&weak));
        assert!(!weak.implies_all(&strong));
    }

    #[test]
    fn substitution_application() {
        let cs = ConstraintSet::from_comparisons([Comparison::le(v("C"), v("D"))]);
        let s = Substitution::from_pairs([(Symbol::new("C"), v("U")), (Symbol::new("D"), v("W"))]);
        assert_eq!(cs.apply(&s).to_string(), "U <= W");
    }
}
