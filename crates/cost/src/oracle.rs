//! Size oracles: the one interface both plan searches cost against.
//!
//! [`ExactOracle`] measures sizes by actually evaluating subgoal prefixes
//! over a (view) database through the engine — the ground truth the
//! paper's cost measures are defined over — and memoizes per (subgoals,
//! retained-variables) key. [`EstimateOracle`] predicts the same
//! quantities from a [`Catalog`] with the independence assumption, as a
//! real optimizer would; its memo is positional, scoped to the body a
//! search is working on (see [`crate::subsets`]), which is what makes
//! both plan searches cheap: the M2 dynamic program asks about subsets
//! of the body by mask ([`Subsets`]), a graft bound about the body and
//! one more subgoal, and the M3 order search about the path it is on
//! ([`Prefixes`]: subgoal indices and closed renames, spelled out as
//! atoms and variable names only for an oracle that does not override
//! [`SizeOracle::prefix_size`]).

use crate::catalog::Catalog;
use crate::subsets::{selected, Fold, Prefixes, Subsets};
use std::collections::{BTreeSet, HashMap};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term};
use viewplan_engine::{evaluate, Database};
use viewplan_obs as obs;

/// Counts subset sizes a search requested and how many of them were
/// answered without a join or an evaluation — from a memo, or from the
/// half of a dynamic program a grafted filter reuses. Single
/// registration site per counter name (the xtask lint enforces this).
pub(crate) fn note_oracle_calls(calls: u64, cache_hits: u64) {
    obs::counter!("cost.oracle_calls").add(calls);
    obs::counter!("cost.oracle_cache_hits").add(cache_hits);
}

/// Sizes used by the M2/M3 cost measures.
pub trait SizeOracle {
    /// `size(g)`: the size of the stored relation behind subgoal `g`.
    fn relation_size(&mut self, atom: &Atom) -> f64;

    /// The size of the intermediate relation joining the subgoals of
    /// `body` selected by `mask`, projected onto `retained` (pass all
    /// variables of the subset for plain `IR`, a subset for `GSR`).
    fn intermediate_size(&mut self, body: &[Atom], mask: u32, retained: &BTreeSet<Symbol>) -> f64;

    /// `size(IR(mask))` with all attributes retained, for a search that
    /// walks the subsets of one body by mask. The default spells the
    /// request out for [`intermediate_size`](Self::intermediate_size);
    /// an oracle that can tabulate per body overrides it.
    fn subset_size(&mut self, subsets: &mut Subsets, mask: u32) -> f64 {
        let retained = subsets.variables(mask);
        self.intermediate_size(subsets.body(), mask, &retained)
    }

    /// `size(IR)` of the whole body of `subsets` and `atom`, all
    /// attributes retained — what [`subset_size`](Self::subset_size)
    /// answers for the top mask once `atom` is pushed, asked without
    /// pushing it. The default spells the request out for
    /// [`intermediate_size`](Self::intermediate_size) exactly as that
    /// top mask would, so a memoizing oracle answers both from one entry.
    fn joined_size(&mut self, subsets: &mut Subsets, atom: &Atom) -> f64 {
        let mut body = subsets.body().to_vec();
        body.push(atom.clone());
        let whole = u32::MAX >> (32 - body.len());
        let retained = body.iter().flat_map(Atom::variables).collect();
        self.intermediate_size(&body, whole, &retained)
    }

    /// `size(GSR)` of the path `prefixes` holds: its subgoals in order,
    /// renames applied, projected onto the variables it retains. The
    /// default spells the request out for
    /// [`intermediate_size`](Self::intermediate_size); an oracle that can
    /// tabulate per body overrides it.
    fn prefix_size(&mut self, prefixes: &mut Prefixes) -> f64 {
        let atoms = prefixes.atoms();
        let whole = u32::MAX >> (32 - atoms.len());
        self.intermediate_size(&atoms, whole, &prefixes.retained())
    }
}

/// Measures sizes against a real database (exact, memoized).
pub struct ExactOracle<'a> {
    db: &'a Database,
    memo: HashMap<(Vec<Atom>, Vec<Symbol>), f64>,
}

impl<'a> ExactOracle<'a> {
    /// Builds an oracle over the given (view) database.
    pub fn new(db: &'a Database) -> ExactOracle<'a> {
        ExactOracle {
            db,
            memo: HashMap::new(),
        }
    }
}

impl SizeOracle for ExactOracle<'_> {
    fn relation_size(&mut self, atom: &Atom) -> f64 {
        self.db.get(atom.predicate).map_or(0.0, |r| r.len() as f64)
    }

    fn intermediate_size(&mut self, body: &[Atom], mask: u32, retained: &BTreeSet<Symbol>) -> f64 {
        let atoms: Vec<Atom> = selected(body, mask).cloned().collect();
        let key = (atoms.clone(), retained.iter().copied().collect::<Vec<_>>());
        if let Some(&v) = self.memo.get(&key) {
            note_oracle_calls(1, 1);
            return v;
        }
        note_oracle_calls(1, 0);
        let head = Atom::new("__ir__", retained.iter().map(|&v| Term::Var(v)).collect());
        let q = ConjunctiveQuery::new(head, atoms);
        let size = evaluate(&q, self.db).len() as f64;
        self.memo.insert(key, size);
        size
    }
}

/// Predicts sizes from catalog statistics (System-R style). The
/// arithmetic and both memo shapes live in [`Subsets`] and
/// [`Prefixes`].
pub struct EstimateOracle<'a> {
    catalog: &'a Catalog,
    fold: Fold,
}

impl<'a> EstimateOracle<'a> {
    /// Builds an estimator over the given catalog.
    pub fn new(catalog: &'a Catalog) -> EstimateOracle<'a> {
        EstimateOracle {
            catalog,
            fold: Fold::default(),
        }
    }
}

impl SizeOracle for EstimateOracle<'_> {
    fn relation_size(&mut self, atom: &Atom) -> f64 {
        self.catalog
            .get(atom.predicate)
            .map_or(0.0, |s| s.cardinality)
    }

    /// Folds the selected subgoals in index order, then caps the rows by
    /// the product of the retained distincts (the projection estimate).
    /// A function of the catalog and the subgoals alone: every executor
    /// joins the same unreduced relations step by step, so none of them
    /// changes what an intermediate holds.
    fn intermediate_size(&mut self, body: &[Atom], mask: u32, retained: &BTreeSet<Symbol>) -> f64 {
        let (len, known) = self.fold.fold(self.catalog, selected(body, mask));
        note_oracle_calls(1, u64::from(known));
        self.fold.projected_size(len, retained)
    }

    fn subset_size(&mut self, subsets: &mut Subsets, mask: u32) -> f64 {
        let (size, known) = subsets.estimated_size(self.catalog, mask);
        note_oracle_calls(1, u64::from(known));
        size
    }

    fn joined_size(&mut self, subsets: &mut Subsets, atom: &Atom) -> f64 {
        note_oracle_calls(1, 0);
        subsets.joined_size(self.catalog, atom)
    }

    fn prefix_size(&mut self, prefixes: &mut Prefixes) -> f64 {
        let (size, known) = prefixes.estimated_size(self.catalog);
        note_oracle_calls(1, u64::from(known));
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RelationStats;
    use viewplan_cq::parse_query;

    fn body(src: &str) -> Vec<Atom> {
        parse_query(src).unwrap().body
    }

    fn all_vars(atoms: &[Atom]) -> BTreeSet<Symbol> {
        atoms.iter().flat_map(|a| a.variables()).collect()
    }

    #[test]
    fn exact_oracle_measures_prefixes() {
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2], &[1, 4], &[1, 6], &[1, 8]]);
        db.insert_int("v2", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let b = body("q(A) :- v1(A, B), v2(A, B)");
        let mut o = ExactOracle::new(&db);
        assert_eq!(o.relation_size(&b[0]), 4.0);
        let full = all_vars(&b);
        assert_eq!(o.intermediate_size(&b, 0b01, &full), 4.0);
        // v1 ⋈ v2 on (A, B): only (1,2) matches.
        assert_eq!(o.intermediate_size(&b, 0b11, &full), 1.0);
        // GSR: project the v1 prefix onto A only → one value.
        let a_only: BTreeSet<Symbol> = [Symbol::new("A")].into_iter().collect();
        assert_eq!(o.intermediate_size(&b, 0b01, &a_only), 1.0);
    }

    #[test]
    fn estimate_oracle_join_formula() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 10.0));
        cat.set("s", RelationStats::uniform(2, 50.0, 10.0));
        let b = body("q(X, Z) :- r(X, Y), s(Y, Z)");
        let mut o = EstimateOracle::new(&cat);
        let full = all_vars(&b);
        // |r ⋈ s| = 100·50 / max(10,10) = 500.
        assert_eq!(o.intermediate_size(&b, 0b11, &full), 500.0);
    }

    #[test]
    fn estimate_selection_on_constant() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 10.0));
        let b = body("q(X) :- r(X, c)");
        let mut o = EstimateOracle::new(&cat);
        let full = all_vars(&b);
        assert_eq!(o.intermediate_size(&b, 0b1, &full), 10.0);
    }

    #[test]
    fn estimate_projection_caps_by_distincts() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 5.0));
        let b = body("q(X) :- r(X, Y)");
        let mut o = EstimateOracle::new(&cat);
        let x_only: BTreeSet<Symbol> = [Symbol::new("X")].into_iter().collect();
        // Projecting 100 rows onto a 5-distinct column → 5.
        assert_eq!(o.intermediate_size(&b, 0b1, &x_only), 5.0);
    }

    #[test]
    fn unknown_relation_estimates_zero() {
        let cat = Catalog::new();
        let b = body("q(X) :- nope(X, Y)");
        let mut o = EstimateOracle::new(&cat);
        assert_eq!(o.relation_size(&b[0]), 0.0);
        assert_eq!(o.intermediate_size(&b, 0b1, &all_vars(&b)), 0.0);
    }

    #[test]
    fn repeated_variable_selection_estimate() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 10.0));
        let b = body("q(X) :- r(X, X)");
        let mut o = EstimateOracle::new(&cat);
        assert_eq!(o.intermediate_size(&b, 0b1, &all_vars(&b)), 10.0);
    }

    /// `HashMap` iteration order differs from one map to the next, and
    /// five divisions (or four multiplications) of non-integers round
    /// differently in different orders: an estimate folded in hash order
    /// differs between two oracles over one catalog in the last place,
    /// enough to flip a cost tie.
    #[test]
    fn estimates_do_not_depend_on_hash_seeds() {
        let mut cat = Catalog::new();
        let stats = |cardinality: f64, distinct: [f64; 5]| RelationStats {
            cardinality,
            distinct: distinct.to_vec(),
        };
        cat.set("r", stats(1_000_003.0, [3.1, 7.3, 11.7, 13.9, 17.3]));
        cat.set("s", stats(999_983.0, [19.3, 23.9, 29.3, 31.1, 37.7]));
        let b = body("q(A) :- r(A, B, C, D, E), s(A, B, C, D, E)");
        let full = all_vars(&b);
        let mut all_but_e = full.clone();
        all_but_e.remove(&Symbol::new("E"));
        let distinct_answers = |mask: u32, retained: &BTreeSet<Symbol>| {
            (0..64)
                .map(|_| {
                    EstimateOracle::new(&cat)
                        .intermediate_size(&b, mask, retained)
                        .to_bits()
                })
                .collect::<BTreeSet<u64>>()
                .len()
        };
        // Joined on five shared variables; one subgoal projected onto four.
        assert_eq!(distinct_answers(0b11, &full), 1);
        assert_eq!(distinct_answers(0b01, &all_but_e), 1);
    }

    /// The estimate describes the plan, not the thread: a plan step joins
    /// unreduced relations whichever executor is installed, so an ambient
    /// engine must not move a single bit — acyclic chain or cyclic
    /// triangle, prefix fold or subset table.
    #[test]
    fn estimates_are_bit_equal_under_every_installed_engine() {
        use viewplan_engine::{install, Engine};
        let mut cat = Catalog::new();
        for (p, rows) in [("r", 100.0), ("s", 50.0), ("t", 70.0)] {
            cat.set(p, RelationStats::uniform(2, rows, 10.0));
        }
        for src in [
            "q(X, Z) :- r(X, Y), s(Y, Z)",
            "q(A) :- r(A, B), s(B, C), t(C, A)",
        ] {
            let b = body(src);
            let full = all_vars(&b);
            let sizes = || -> Vec<u64> {
                let mut o = EstimateOracle::new(&cat);
                let mut subsets = Subsets::new(&b);
                (1..1u32 << b.len())
                    .flat_map(|mask| {
                        [
                            o.intermediate_size(&b, mask, &full).to_bits(),
                            o.subset_size(&mut subsets, mask).to_bits(),
                        ]
                    })
                    .collect()
            };
            let ambient = sizes();
            for engine in [Engine::Row, Engine::Columnar] {
                let _g = install(engine);
                assert_eq!(sizes(), ambient, "{src} under {engine:?}");
            }
        }
    }
}
