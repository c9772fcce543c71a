//! Query and view generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, View, ViewSet};

/// Query/view shapes studied in §7 (after \[23\]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// `r1(X0, X1), r2(X1, X2), …` — all relations binary.
    Chain,
    /// `r1(X0, …), r2(X0, …), …` — subgoals share the first (center)
    /// attribute.
    Star,
    /// Random predicate choice with random variable sharing.
    Random,
}

/// Generator parameters (the inputs listed in §7).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Shape of the query and views.
    pub shape: Shape,
    /// Number of base relations available.
    pub(crate) relations: usize,
    /// Attributes per relation (chains force 2).
    pub(crate) arity: usize,
    /// Number of subgoals in the query (8 in the paper).
    pub(crate) query_subgoals: usize,
    /// Minimum subgoals per view (1 in the paper).
    pub(crate) view_min_subgoals: usize,
    /// Maximum subgoals per view (3 in the paper).
    pub(crate) view_max_subgoals: usize,
    /// Number of views to generate.
    pub(crate) views: usize,
    /// Number of nondistinguished variables per query/view head (0 =
    /// "all variables distinguished"). Views with a single subgoal keep
    /// all variables distinguished, following §7.2.
    pub(crate) nondistinguished: usize,
    /// RNG seed; everything is deterministic in it.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's star-query setting: 8 subgoals, views of 1–3 subgoals.
    pub fn star(views: usize, nondistinguished: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            shape: Shape::Star,
            relations: 8,
            arity: 3,
            query_subgoals: 8,
            view_min_subgoals: 1,
            view_max_subgoals: 3,
            views,
            nondistinguished,
            seed,
        }
    }

    /// The paper's chain-query setting: 8 binary subgoals.
    pub fn chain(views: usize, nondistinguished: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            shape: Shape::Chain,
            relations: 8,
            arity: 2,
            query_subgoals: 8,
            view_min_subgoals: 1,
            view_max_subgoals: 3,
            views,
            nondistinguished,
            seed,
        }
    }

    /// A random-shape setting with the same counts.
    pub fn random(views: usize, nondistinguished: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            shape: Shape::Random,
            relations: 8,
            arity: 3,
            query_subgoals: 8,
            view_min_subgoals: 1,
            view_max_subgoals: 3,
            views,
            nondistinguished,
            seed,
        }
    }
}

/// A generated query with its views.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The query.
    pub query: ConjunctiveQuery,
    /// The views.
    pub views: ViewSet,
}

/// Generates a workload from the configuration.
pub fn generate(config: &WorkloadConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let query_body = query_body(config, &mut rng);
    let query = make_query("q", &query_body, config.nondistinguished, &mut rng);
    let mut views = ViewSet::new();
    for vi in 0..config.views {
        let len = rng.gen_range(
            config.view_min_subgoals..=config.view_max_subgoals.max(config.view_min_subgoals),
        );
        let subset = view_subgoals(config, &query_body, len, &mut rng);
        // §7.2: single-subgoal views keep all variables distinguished.
        let nondist = if subset.len() <= 1 {
            0
        } else {
            config.nondistinguished
        };
        let def = make_query(
            &format!("v{vi}"),
            &rename_apart(&subset, vi),
            nondist,
            &mut rng,
        );
        views.push(View::new(def));
    }
    Workload { query, views }
}

/// The query body for the configured shape.
fn query_body(config: &WorkloadConfig, rng: &mut StdRng) -> Vec<Atom> {
    let arity = if config.shape == Shape::Chain {
        2
    } else {
        config.arity.max(2)
    };
    let rel = |i: usize| Symbol::new(&format!("r{i}"));
    match config.shape {
        Shape::Chain => (0..config.query_subgoals)
            .map(|i| {
                Atom::new(
                    rel(i % config.relations.max(1)),
                    vec![var("X", i), var("X", i + 1)],
                )
            })
            .collect(),
        Shape::Star => {
            let mut next_var = 1;
            (0..config.query_subgoals)
                .map(|i| {
                    let mut terms = vec![var("X", 0)];
                    for _ in 1..arity {
                        terms.push(var("X", next_var));
                        next_var += 1;
                    }
                    Atom::new(rel(i % config.relations.max(1)), terms)
                })
                .collect()
        }
        Shape::Random => {
            let mut vars: Vec<Symbol> = Vec::new();
            let mut body = Vec::new();
            for i in 0..config.query_subgoals {
                let mut terms = Vec::with_capacity(arity);
                for _ in 0..arity {
                    // Reuse an existing variable half the time to create
                    // join structure.
                    if !vars.is_empty() && rng.gen_bool(0.5) {
                        let v = vars[rng.gen_range(0..vars.len())];
                        terms.push(Term::Var(v));
                    } else {
                        let v = Symbol::new(&format!("X{}", vars.len()));
                        vars.push(v);
                        terms.push(Term::Var(v));
                    }
                }
                body.push(Atom::new(rel(i % config.relations.max(1)), terms));
            }
            body
        }
    }
}

/// Picks the view's subgoals as a sub-pattern of the query.
fn view_subgoals(
    config: &WorkloadConfig,
    query_body: &[Atom],
    len: usize,
    rng: &mut StdRng,
) -> Vec<Atom> {
    let n = query_body.len();
    let len = len.min(n);
    match config.shape {
        Shape::Chain => {
            // A contiguous segment.
            let start = rng.gen_range(0..=n - len);
            query_body[start..start + len].to_vec()
        }
        Shape::Star | Shape::Random => {
            // A random subset of distinct subgoals.
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..len {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            let mut chosen = idx[..len].to_vec();
            chosen.sort_unstable();
            chosen.iter().map(|&i| query_body[i].clone()).collect()
        }
    }
}

/// Renames the variables of a sub-pattern apart so a view definition does
/// not textually share variables with the query (view index `vi` salts the
/// names; determinism is preserved).
fn rename_apart(atoms: &[Atom], vi: usize) -> Vec<Atom> {
    let mut map: HashMap<Symbol, Symbol> = HashMap::new();
    atoms
        .iter()
        .map(|a| Atom {
            predicate: a.predicate,
            terms: a
                .terms
                .iter()
                .map(|t| match *t {
                    Term::Var(v) => {
                        let next = map.len();
                        Term::Var(
                            *map.entry(v)
                                .or_insert_with(|| Symbol::new(&format!("V{vi}_{next}"))),
                        )
                    }
                    c => c,
                })
                .collect(),
        })
        .collect()
}

/// Builds a safe query from a body: the head keeps every variable except
/// `nondistinguished` randomly chosen ones (never dropping below one
/// variable for nonempty bodies, so heads stay informative).
fn make_query(
    head_name: &str,
    body: &[Atom],
    nondistinguished: usize,
    rng: &mut StdRng,
) -> ConjunctiveQuery {
    let mut vars: Vec<Symbol> = Vec::new();
    let mut seen: HashSet<Symbol> = HashSet::new();
    for a in body {
        for v in a.variables() {
            if seen.insert(v) {
                vars.push(v);
            }
        }
    }
    let keep = vars
        .len()
        .saturating_sub(nondistinguished)
        .max(1.min(vars.len()));
    // Choose which to drop, uniformly.
    let mut idx: Vec<usize> = (0..vars.len()).collect();
    for i in 0..vars.len() {
        let j = rng.gen_range(i..vars.len());
        idx.swap(i, j);
    }
    let dropped: HashSet<usize> = idx[keep..].iter().copied().collect();
    let head_terms: Vec<Term> = vars
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, &v)| Term::Var(v))
        .collect();
    ConjunctiveQuery::new(Atom::new(head_name, head_terms), body.to_vec())
}

fn var(prefix: &str, i: usize) -> Term {
    Term::Var(Symbol::new(&format!("{prefix}{i}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_query_has_chain_structure() {
        let w = generate(&WorkloadConfig::chain(10, 0, 42));
        assert_eq!(w.query.body.len(), 8);
        for (i, a) in w.query.body.iter().enumerate() {
            assert_eq!(a.arity(), 2);
            if i > 0 {
                // Consecutive subgoals share a variable.
                assert_eq!(w.query.body[i - 1].terms[1], a.terms[0]);
            }
        }
        assert!(w.query.is_safe());
        assert_eq!(w.views.len(), 10);
    }

    #[test]
    fn star_query_shares_center() {
        let w = generate(&WorkloadConfig::star(10, 0, 7));
        let center = w.query.body[0].terms[0];
        for a in &w.query.body {
            assert_eq!(a.terms[0], center);
        }
    }

    #[test]
    fn views_are_safe_and_within_size_bounds() {
        for seed in 0..5 {
            let w = generate(&WorkloadConfig::star(50, 1, seed));
            for v in &w.views {
                assert!(v.definition.is_safe());
                assert!((1..=3).contains(&v.definition.body.len()));
            }
        }
    }

    #[test]
    fn determinism_in_seed() {
        let a = generate(&WorkloadConfig::chain(20, 1, 99));
        let b = generate(&WorkloadConfig::chain(20, 1, 99));
        assert_eq!(a.query, b.query);
        assert_eq!(a.views, b.views);
        let c = generate(&WorkloadConfig::chain(20, 1, 100));
        assert!(a.query != c.query || a.views != c.views);
    }

    #[test]
    fn all_distinguished_means_full_heads() {
        let w = generate(&WorkloadConfig::chain(5, 0, 1));
        assert_eq!(w.query.existential_vars().len(), 0);
        for v in &w.views {
            assert_eq!(v.definition.existential_vars().len(), 0);
        }
    }

    #[test]
    fn nondistinguished_drops_one_variable() {
        let w = generate(&WorkloadConfig::chain(20, 1, 3));
        assert_eq!(w.query.existential_vars().len(), 1);
        for v in &w.views {
            if v.definition.body.len() == 1 {
                // §7.2: single-subgoal views keep both variables.
                assert_eq!(v.definition.existential_vars().len(), 0);
            } else {
                assert_eq!(v.definition.existential_vars().len(), 1);
            }
        }
    }

    #[test]
    fn views_do_not_share_variables_with_query() {
        let w = generate(&WorkloadConfig::star(10, 0, 5));
        let qvars: HashSet<Symbol> = w.query.variables().into_iter().collect();
        for v in &w.views {
            for var in v.definition.variables() {
                assert!(!qvars.contains(&var), "view shares {var} with query");
            }
        }
    }

    #[test]
    fn random_shape_generates_connected_enough_bodies() {
        let w = generate(&WorkloadConfig::random(10, 0, 11));
        assert_eq!(w.query.body.len(), 8);
        assert!(w.query.is_safe());
    }

    #[test]
    fn star_workloads_have_rewritings_when_all_distinguished() {
        // With all-distinguished sub-pattern views including the (likely)
        // full coverage, CoreCover should find rewritings for most seeds.
        let mut hits = 0;
        for seed in 0..10 {
            let w = generate(&WorkloadConfig::star(30, 0, seed));
            let r = viewplan_core::CoreCover::new(&w.query, &w.views).run();
            if !r.rewritings().is_empty() {
                hits += 1;
            }
        }
        assert!(hits >= 8, "only {hits}/10 star workloads had rewritings");
    }

    #[test]
    fn chain_workloads_have_rewritings_when_all_distinguished() {
        let mut hits = 0;
        for seed in 0..10 {
            let w = generate(&WorkloadConfig::chain(30, 0, seed));
            let r = viewplan_core::CoreCover::new(&w.query, &w.views).run();
            if !r.rewritings().is_empty() {
                hits += 1;
            }
        }
        assert!(hits >= 8, "only {hits}/10 chain workloads had rewritings");
    }
}
