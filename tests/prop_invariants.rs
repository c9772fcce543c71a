//! Property-based tests of the core invariants, over randomly generated
//! conjunctive queries.

use proptest::prelude::*;
use viewplan::prelude::*;

/// A strategy for small random conjunctive queries: up to `max_subgoals`
/// atoms over binary/ternary predicates with variables drawn from a small
/// pool (sharing emerges naturally), plus an occasional constant.
fn arb_query(max_subgoals: usize) -> impl Strategy<Value = ConjunctiveQuery> {
    let term = prop_oneof![
        4 => (0..6usize).prop_map(|i| Term::var(&format!("X{i}"))),
        1 => (0..3usize).prop_map(|i| Term::cst(&format!("k{i}"))),
    ];
    let atom = ((0..4usize), prop::collection::vec(term, 1..=3))
        .prop_map(|(p, terms)| Atom::new(format!("p{}_{}", p, terms.len()).as_str(), terms));
    prop::collection::vec(atom, 1..=max_subgoals).prop_map(|body| {
        // Head: the (sorted) variables of the body, so the query is safe.
        let mut vars: Vec<Symbol> = Vec::new();
        for a in &body {
            for v in a.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        // Keep roughly half the variables distinguished (deterministically).
        let head_terms: Vec<Term> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, &v)| Term::Var(v))
            .collect();
        ConjunctiveQuery::new(Atom::new("q", head_terms), body)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Minimization preserves equivalence and is idempotent.
    #[test]
    fn minimize_is_sound_and_idempotent(q in arb_query(5)) {
        let m = minimize(&q);
        prop_assert!(are_equivalent(&q, &m));
        let mm = minimize(&m);
        prop_assert_eq!(m.body.len(), mm.body.len());
    }

    /// Containment is reflexive; equivalence is symmetric.
    #[test]
    fn containment_reflexive(q in arb_query(4)) {
        prop_assert!(is_contained_in(&q, &q));
        prop_assert!(are_equivalent(&q, &q));
    }

    /// Dropping a subgoal only weakens a query.
    #[test]
    fn dropping_subgoals_weakens(q in arb_query(5)) {
        for i in 0..q.body.len() {
            if q.body.len() == 1 { break; }
            let weaker = q.without_subgoal(i);
            if weaker.is_safe() {
                prop_assert!(is_contained_in(&q, &weaker));
            }
        }
    }

    /// Variants are equivalent, and variant-ness is symmetric.
    #[test]
    fn variants_are_equivalent(q in arb_query(4)) {
        // Rename all variables consistently.
        let mut subst = Substitution::new();
        for (i, v) in q.variables().into_iter().enumerate() {
            subst.bind(v, Term::var(&format!("Y{i}")));
        }
        let renamed = q.apply(&subst);
        prop_assert!(is_variant(&q, &renamed));
        prop_assert!(is_variant(&renamed, &q));
        prop_assert!(are_equivalent(&q, &renamed));
    }

    /// The canonical-database property: Q(D_Q) contains the frozen head.
    #[test]
    fn canonical_database_contains_frozen_head(q in arb_query(5)) {
        let db = canonical_database(&q);
        let ans = evaluate(&q, &db);
        let frozen: Vec<Value> = q
            .head
            .terms
            .iter()
            .map(|&t| match t {
                Term::Var(v) => Value::Frozen(v),
                Term::Const(c) => Value::from_constant(c),
            })
            .collect();
        prop_assert!(ans.contains(&frozen));
    }

    /// Chandra–Merlin, checked against the engine: Q1 ⊑ Q2 iff Q2's answer
    /// over Q1's canonical database contains Q1's frozen head.
    #[test]
    fn containment_agrees_with_canonical_database(
        q1 in arb_query(4),
        q2 in arb_query(4),
    ) {
        // Align heads (containment requires same head shape).
        prop_assume!(q1.head.arity() == q2.head.arity());
        let q2 = ConjunctiveQuery::new(q1.head.clone(), q2.body.clone());
        prop_assume!(q2.is_safe());
        let db = canonical_database(&q1);
        let frozen: Vec<Value> = q1
            .head
            .terms
            .iter()
            .map(|&t| match t {
                Term::Var(v) => Value::Frozen(v),
                Term::Const(c) => Value::from_constant(c),
            })
            .collect();
        let semantic = evaluate(&q2, &db).contains(&frozen);
        prop_assert_eq!(is_contained_in(&q1, &q2), semantic);
    }

    /// Engine evaluation is join-order independent.
    #[test]
    fn evaluation_is_order_independent(q in arb_query(4), seed in 0u64..100) {
        let rels = random_database(&q, 20, 4, seed);
        let mut db = Database::new();
        for (name, rows) in rels {
            for row in rows {
                db.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        let a = evaluate(&q, &db);
        let mut reversed = q.clone();
        reversed.body.reverse();
        let b = evaluate(&reversed, &db);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Workload soundness at scale: every CoreCover rewriting on a random
    /// chain workload stays equivalent after expansion.
    #[test]
    fn corecover_rewritings_expand_equivalently(seed in 0u64..200) {
        let w = generate(&WorkloadConfig::chain(10, 1, seed));
        let result = CoreCover::new(&w.query, &w.views).run();
        let qm = minimize(&w.query);
        for r in result.rewritings().iter().take(3) {
            let exp = expand(r, &w.views).unwrap();
            prop_assert!(are_equivalent(&exp, &qm), "{}", r);
        }
    }

    /// Tuple-cores are stable under recomputation (Lemma 4.2 uniqueness,
    /// exercised through the public API).
    #[test]
    fn tuple_cores_are_deterministic(seed in 0u64..200) {
        let w = generate(&WorkloadConfig::star(8, 1, seed));
        let qm = minimize(&w.query);
        let tuples = view_tuples(&qm, &w.views);
        for t in tuples.iter().take(6) {
            let a = tuple_core(&qm, t, &w.views);
            let b = tuple_core(&qm, t, &w.views);
            prop_assert_eq!(a, b);
        }
    }

    /// Generated workloads are free of static-analysis *errors* (VP001):
    /// the generator and the analyzer agree on what a well-formed
    /// problem is, across every shape.
    #[test]
    fn generated_workloads_are_diagnostic_error_free(seed in 0u64..150) {
        for config in [
            WorkloadConfig::star(6, 1, seed),
            WorkloadConfig::chain(6, 1, seed),
            WorkloadConfig::random(6, 1, seed),
        ] {
            let w = generate(&config);
            let mut src = format!("{}.\n", w.query);
            for v in w.views.iter() {
                src.push_str(&format!("{v}.\n"));
            }
            let program = viewplan::cq::parse_program(&src)
                .expect("generated workloads must parse back");
            let analysis =
                viewplan::analyze::analyze(&program, viewplan::analyze::Layout::Problem);
            prop_assert!(
                !analysis.has_errors(),
                "seed {seed}: {:?}",
                analysis.errors().collect::<Vec<_>>()
            );
        }
    }

    /// The VP006 pruning pre-pass is output-invariant: with an
    /// unmatchable view injected, CoreCover with pruning on and off
    /// renders byte-identical rewriting sets (both the globally-minimal
    /// and the all-minimal searches).
    #[test]
    fn view_pruning_is_output_invariant(seed in 0u64..100) {
        let w = generate(&WorkloadConfig::chain(8, 1, seed));
        // Append views the pruner must discard: a foreign predicate and
        // a self-join the (minimized) query cannot satisfy.
        let mut vsrc = String::new();
        for v in w.views.iter() {
            vsrc.push_str(&format!("{v}.\n"));
        }
        vsrc.push_str("zdead(A) :- zforeign(A, A).\n");
        let views = parse_views(&vsrc).expect("views render round-trips");

        let render = |prune: bool| {
            let config = CoreCoverConfig {
                prune_unusable_views: prune,
                ..CoreCoverConfig::default()
            };
            let gmr = CoreCover::new(&w.query, &views).with_config(config.clone()).run();
            let all = CoreCover::new(&w.query, &views)
                .with_config(config)
                .run_all_minimal();
            let fmt = |rs: &[ConjunctiveQuery]| -> String {
                rs.iter().map(|r| format!("{r}\n")).collect()
            };
            (fmt(gmr.rewritings()), fmt(all.rewritings()))
        };
        prop_assert_eq!(render(true), render(false));
    }
}
