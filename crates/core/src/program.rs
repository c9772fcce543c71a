//! Views compiled once per snapshot, and the numbering of the query that
//! steps 2 and 3 of a run share.
//!
//! Everything CoreCover reads of a view that does not depend on the
//! query — which of its terms are head variables, existentials or
//! constants, its `(predicate, arity)` slots, what its head demands of a
//! tuple — is worked out once, when the view is compiled into a
//! [`ViewProgram`]. A [`PreparedViews`](crate::PreparedViews) snapshot
//! holds one program per view, and an unprepared run compiles the views
//! it selects, so a run reads views through programs only.
//!
//! What depends on the query alone is worked out once per run, in a
//! `QueryTable`: the minimized query's variables numbered, with a
//! distinguished bit and the mask of the subgoals using each, the body
//! coded over that numbering, and the body's relations with their
//! facts. The matcher of step 2 binds program variables to coded query
//! terms and hands each tuple to step 3 as coded arguments and an
//! *exposure* set — the query variables among its arguments, as a bitset
//! over the numbering — so step 3 classifies a tuple's variables with
//! mask operations and never compares a symbol.

use viewplan_cq::{ConjunctiveQuery, Constant, Symbol, Term, View};

/// A term as a program or a run's table codes it: a variable number, or
/// a constant.
///
/// In a [`ViewProgram`], variable `n` below the view's arity is the head
/// variable first at head position `n` — whatever a tuple holds at that
/// position is its image — and variable `arity + k` is the view's `k`-th
/// existential. In a [`QueryTable`], variable `k` is the query's `k`-th.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Code {
    Var(u32),
    Const(Constant),
}

/// One body atom of a program: its predicate and where its terms start
/// in [`ViewProgram`]'s codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Slot {
    predicate: Symbol,
    start: u32,
}

/// A view compiled for step 2 (matching its body on the query's
/// subgoals) and step 3 (reading its body as a tuple's expansion): the
/// head and the body coded as head positions, existential numbers and
/// constants, and the body's `(predicate, arity)` slots. The head's
/// codes carry what the view demands of a tuple — a repeated head
/// variable is coded by its first position, so its positions must
/// agree, and a head constant must meet itself. Compiled once per view
/// and snapshot (module docs); immutable afterwards.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViewProgram {
    name: Symbol,
    arity: usize,
    existentials: usize,
    /// The head's codes, then every body atom's, flat.
    codes: Vec<Code>,
    slots: Vec<Slot>,
    /// Per body atom, the atoms sharing a variable with it, as a bitset
    /// over the body (a word per 64 atoms): what the matcher's join
    /// order reads.
    links: Vec<u64>,
}

impl ViewProgram {
    /// Compiles `view`.
    pub fn compile(view: &View) -> ViewProgram {
        let mut program = ViewProgram {
            name: view.name(),
            arity: 0,
            existentials: 0,
            codes: Vec::new(),
            slots: Vec::new(),
            links: Vec::new(),
        };
        program.recompile(view);
        program
    }

    /// Compiles `view` into this program's buffers, which allocates only
    /// while `view` is larger than every view compiled into them before.
    pub(crate) fn recompile(&mut self, view: &View) {
        let head = &view.head().terms;
        let body = &view.definition.body;
        self.name = view.name();
        self.arity = head.len();
        self.existentials = 0;
        self.codes.clear();
        self.slots.clear();
        // Sized up front: a compiled program's buffers are allocated
        // once, one after the other, and are read together.
        let terms = body.iter().map(|atom| atom.arity()).sum::<usize>();
        self.codes.reserve_exact(head.len() + terms);
        self.slots.reserve_exact(body.len());
        for (p, &t) in head.iter().enumerate() {
            self.codes.push(match t {
                Term::Const(c) => Code::Const(c),
                Term::Var(_) => Code::Var(position(&head[..p], t).unwrap_or(p) as u32),
            });
        }
        // A body variable is coded by its head position, else like its
        // first body occurrence, else as the next existential. Bodies
        // are a handful of terms: earlier ones are scanned.
        let coded = || body.iter().flat_map(|atom| &atom.terms);
        for atom in body {
            self.slots.push(Slot {
                predicate: atom.predicate,
                start: self.codes.len() as u32,
            });
            for &t in &atom.terms {
                let code = match t {
                    Term::Const(c) => Code::Const(c),
                    Term::Var(_) => match position(head, t) {
                        Some(p) => Code::Var(p as u32),
                        None => {
                            let before = self.codes.len() - self.arity;
                            match position(coded().take(before), t) {
                                Some(first) => self.codes[self.arity + first],
                                None => {
                                    self.existentials += 1;
                                    Code::Var((self.arity + self.existentials - 1) as u32)
                                }
                            }
                        }
                    },
                };
                self.codes.push(code);
            }
        }
        let atoms = self.slots.len();
        let words = atoms.div_ceil(64);
        let mut links = std::mem::take(&mut self.links);
        links.clear();
        links.reserve_exact(atoms * words);
        links.resize(atoms * words, 0);
        for i in 0..atoms {
            let of_i = self.atom(i).1;
            for j in 0..atoms {
                let linked = self
                    .atom(j)
                    .1
                    .iter()
                    .any(|code| matches!(code, Code::Var(_)) && of_i.contains(code));
                if linked {
                    links[i * words + j / 64] |= 1 << (j % 64);
                }
            }
        }
        self.links = links;
    }

    /// The view's name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The view's head arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Program variables: head positions, then existentials.
    pub(crate) fn variables(&self) -> usize {
        self.arity + self.existentials
    }

    pub(crate) fn head(&self) -> &[Code] {
        &self.codes[..self.arity]
    }

    /// Number of body atoms.
    pub(crate) fn atoms(&self) -> usize {
        self.slots.len()
    }

    /// Body atom `j`: its predicate and its codes (so its arity).
    pub(crate) fn atom(&self, j: usize) -> (Symbol, &[Code]) {
        let start = self.slots[j].start as usize;
        let end = self
            .slots
            .get(j + 1)
            .map_or(self.codes.len(), |s| s.start as usize);
        (self.slots[j].predicate, &self.codes[start..end])
    }

    /// The body atoms sharing a variable with atom `j`, as a bitset.
    pub(crate) fn links(&self, j: usize) -> &[u64] {
        let words = self.slots.len().div_ceil(64);
        &self.links[j * words..(j + 1) * words]
    }

    /// Whether `args` can be a tuple of this view: the arity matches, a
    /// repeated head variable meets one term at all its positions, and a
    /// head constant meets itself.
    pub(crate) fn admits(&self, args: &[Term]) -> bool {
        args.len() == self.arity
            && self
                .head()
                .iter()
                .zip(args)
                .all(|(&code, &arg)| match code {
                    Code::Const(c) => arg == Term::Const(c),
                    Code::Var(first) => args[first as usize] == arg,
                })
    }
}

/// The first position of `t` among `terms`.
fn position<'t>(terms: impl IntoIterator<Item = &'t Term>, t: Term) -> Option<usize> {
    terms.into_iter().position(|&x| x == t)
}

/// One `(predicate, arity)` pair of the query's body.
pub(crate) struct Relation {
    pub(crate) predicate: Symbol,
    pub(crate) arity: usize,
    /// The subgoals of this relation, as a bitmask (subgoals past the
    /// 64th are left out; only a matcher reads such a query).
    pub(crate) subgoals: u64,
    /// Where its facts start and end in [`QueryTable::facts`].
    facts: (usize, usize),
}

/// The query's side of a run (module docs).
pub(crate) struct QueryTable<'q> {
    pub(crate) query: &'q ConjunctiveQuery,
    /// The variables by number: the head's first, then the body's, each
    /// by first occurrence.
    pub(crate) variables: Vec<Symbol>,
    /// Words in a bitset over the variables.
    pub(crate) words: usize,
    /// The distinguished variables, as a bitset.
    pub(crate) distinguished: Vec<u64>,
    /// Per variable, the subgoals using it, as a bitmask (as in
    /// [`Relation::subgoals`]).
    pub(crate) users: Vec<u64>,
    /// The body's codes, flat: `terms[starts[i]..starts[i + 1]]` are
    /// subgoal `i`'s.
    pub(crate) terms: Vec<Code>,
    pub(crate) starts: Vec<usize>,
    pub(crate) relations: Vec<Relation>,
    /// The relation of each subgoal, as an index into `relations`.
    pub(crate) relation_of: Vec<usize>,
    /// Every relation's distinct subgoals, in body order, relation after
    /// relation: `D_Q`'s facts, variables read as constants.
    facts: Vec<usize>,
}

impl<'q> QueryTable<'q> {
    pub(crate) fn of(query: &'q ConjunctiveQuery) -> QueryTable<'q> {
        let body = &query.body;
        let size = body.iter().map(|atom| atom.arity()).sum::<usize>();
        let mut variables: Vec<Symbol> = Vec::with_capacity(query.head.arity() + size);
        let mut users: Vec<u64> = Vec::with_capacity(variables.capacity());
        let mut number = |v: Symbol, users: &mut Vec<u64>| {
            variables.iter().position(|&x| x == v).unwrap_or_else(|| {
                variables.push(v);
                users.push(0);
                variables.len() - 1
            })
        };
        for v in query.head.variables() {
            number(v, &mut users);
        }
        let head = users.len();
        let mut terms = Vec::with_capacity(size);
        let mut starts = Vec::with_capacity(body.len() + 1);
        let mut relations: Vec<Relation> = Vec::with_capacity(body.len());
        let mut relation_of = Vec::with_capacity(body.len());
        for (i, atom) in body.iter().enumerate() {
            starts.push(terms.len());
            let bit = if i < 64 { 1u64 << i } else { 0 };
            for &t in &atom.terms {
                terms.push(match t {
                    Term::Const(c) => Code::Const(c),
                    Term::Var(v) => {
                        let k = number(v, &mut users);
                        users[k] |= bit;
                        Code::Var(k as u32)
                    }
                });
            }
            let known = relations
                .iter()
                .position(|r| r.predicate == atom.predicate && r.arity == atom.arity());
            let r = known.unwrap_or_else(|| {
                relations.push(Relation {
                    predicate: atom.predicate,
                    arity: atom.arity(),
                    subgoals: 0,
                    facts: (0, 0),
                });
                relations.len() - 1
            });
            relations[r].subgoals |= bit;
            relation_of.push(r);
        }
        starts.push(terms.len());
        // The facts, relation after relation; a subgoal equal to an
        // earlier one is the same fact.
        let mut facts = Vec::with_capacity(body.len());
        for (r, relation) in relations.iter_mut().enumerate() {
            let start = facts.len();
            for i in (0..body.len()).filter(|&i| relation_of[i] == r) {
                if !facts[start..].iter().any(|&f| body[f] == body[i]) {
                    facts.push(i);
                }
            }
            relation.facts = (start, facts.len());
        }
        let words = variables.len().div_ceil(64);
        let mut distinguished = vec![0u64; words];
        for k in 0..head {
            distinguished[k / 64] |= 1 << (k % 64);
        }
        QueryTable {
            query,
            variables,
            words,
            distinguished,
            users,
            terms,
            starts,
            relations,
            relation_of,
            facts,
        }
    }

    /// Relation `r`'s facts, as subgoal indices in body order.
    pub(crate) fn facts(&self, r: usize) -> &[usize] {
        let (start, end) = self.relations[r].facts;
        &self.facts[start..end]
    }

    /// The relation of each of `view`'s body atoms, as an index into
    /// `relations`, or [`QueryTable::NONE`] where the query lacks it.
    pub(crate) fn relations_of(&self, view: &ViewProgram, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..view.atoms()).map(|j| {
            let (predicate, codes) = view.atom(j);
            self.relations
                .iter()
                .position(|r| r.predicate == predicate && r.arity == codes.len())
                .unwrap_or(QueryTable::NONE)
        }));
    }

    /// The relation of a body atom whose relation the query lacks.
    pub(crate) const NONE: usize = usize::MAX;

    /// Subgoal `i`'s codes.
    pub(crate) fn subgoal(&self, i: usize) -> &[Code] {
        &self.terms[self.starts[i]..self.starts[i + 1]]
    }

    /// `t` coded over this table; a variable the query lacks gets a
    /// number past the table's, `foreign`, which equals no query term.
    pub(crate) fn code(&self, t: Term, foreign: usize) -> Code {
        match t {
            Term::Const(c) => Code::Const(c),
            Term::Var(v) => Code::Var(
                self.variables
                    .iter()
                    .position(|&x| x == v)
                    .unwrap_or(self.variables.len() + foreign) as u32,
            ),
        }
    }

    /// The term a code of this table stands for.
    pub(crate) fn term(&self, code: Code) -> Term {
        match code {
            Code::Const(c) => Term::Const(c),
            Code::Var(k) => Term::Var(self.variables[k as usize]),
        }
    }

    /// Adds the query variables among `args` to the bitset `exposure`
    /// (of [`QueryTable::words`] words).
    pub(crate) fn expose(&self, args: &[Code], exposure: &mut [u64]) {
        for &code in args {
            if let Code::Var(k) = code {
                let k = k as usize;
                if k < self.variables.len() {
                    exposure[k / 64] |= 1 << (k % 64);
                }
            }
        }
    }
}

/// Whether bit `k` of a bitset is set.
pub(crate) fn has(bits: &[u64], k: usize) -> bool {
    bits[k / 64] >> (k % 64) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};

    fn program(src: &str) -> ViewProgram {
        ViewProgram::compile(&parse_views(src).unwrap().as_slice()[0])
    }

    #[test]
    fn terms_are_coded_as_head_positions_existentials_and_constants() {
        let p = program("v(A, c, B, A) :- e(A, X), f(X, Y, B), e(Y, c).");
        assert_eq!(p.arity(), 4);
        assert_eq!(p.variables(), 6);
        let c = Code::Const(Constant::sym("c"));
        assert_eq!(p.head(), [Code::Var(0), c, Code::Var(2), Code::Var(0)]);
        let atoms: Vec<(String, Vec<Code>)> = (0..p.atoms())
            .map(|j| {
                let (predicate, codes) = p.atom(j);
                (predicate.as_str().to_string(), codes.to_vec())
            })
            .collect();
        assert_eq!(
            atoms,
            [
                ("e".to_string(), vec![Code::Var(0), Code::Var(4)]),
                (
                    "f".to_string(),
                    vec![Code::Var(4), Code::Var(5), Code::Var(2)]
                ),
                ("e".to_string(), vec![Code::Var(5), c]),
            ]
        );
    }

    #[test]
    fn a_recompiled_program_equals_a_fresh_one() {
        let views = parse_views(
            "v(A, B, C) :- e(A, X), f(X, B), g(C, Y, Y).\n\
             w(A) :- e(A, A).",
        )
        .unwrap();
        let mut scratch = ViewProgram::compile(&views.as_slice()[0]);
        scratch.recompile(&views.as_slice()[1]);
        assert_eq!(scratch, ViewProgram::compile(&views.as_slice()[1]));
    }

    #[test]
    fn the_head_admits_only_tuples_the_view_can_produce() {
        let p = program("v(A, A, k) :- e(A, k).");
        let terms = |src: &str| viewplan_cq::parse_atom(src).unwrap().terms;
        assert!(p.admits(&terms("v(X, X, k)")));
        assert!(!p.admits(&terms("v(X, Y, k)")), "a repeated head variable");
        assert!(!p.admits(&terms("v(X, X, j)")), "a head constant");
        assert!(!p.admits(&terms("v(X, X)")), "the arity");
    }

    #[test]
    fn the_table_numbers_head_variables_first() {
        let q = parse_query("q(Y) :- e(X, Y), e(X, Y), f(Y, c)").unwrap();
        let table = QueryTable::of(&q);
        let names: Vec<&str> = table.variables.iter().map(|v| v.as_str()).collect();
        assert_eq!(names, ["Y", "X"]);
        assert_eq!(table.distinguished, [0b01]);
        assert_eq!(table.users, [0b111, 0b011]);
        assert_eq!(table.relations.len(), 2);
        assert_eq!(table.facts(0), [0], "duplicate subgoals are one fact");
        assert_eq!(table.facts(1), [2]);
        assert_eq!(table.relations[0].subgoals, 0b011);
        assert_eq!(table.relation_of, [0, 0, 1]);
    }
}
