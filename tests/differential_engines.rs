//! Differential testing of the columnar batch engine against the row
//! engine — the PR's tentpole contract: for every query, database, thread
//! count, and budget, the two engines must produce *byte-identical*
//! results, including the answer's row order and the full
//! [`viewplan::engine::ExecutionTrace`] (subgoal/IR/GSR sizes).
//!
//! The Yannakakis engine joins the same contract: acyclic queries run
//! the semijoin full reduction before joining, cyclic ones fall back,
//! and either way every answer, trace, and served render below must be
//! byte-identical to the row and columnar engines.
//!
//! The second half holds regression tests for the three error-path
//! bugfixes that rode along:
//!
//! 1. an unsafe head query (head variable never bound by the body) is a
//!    typed [`EngineError::UnboundHeadVariable`], and exits the CLI
//!    with code 2 instead of panicking;
//! 2. a subgoal whose arity disagrees with the stored relation counts
//!    its skipped tuples in `engine.arity_mismatch_skips` instead of
//!    silently returning an empty join;
//! 3. re-registering a relation at a conflicting arity is a typed
//!    [`EngineError::ArityConflict`] from `Database::try_get_or_create`
//!    / `try_insert`, and a bad fact file exits the CLI with code 2.

mod common;

use proptest::prelude::*;
use std::process::Command;
use viewplan::engine::install;
use viewplan::obs::BudgetSpec;
use viewplan::prelude::*;

/// Runs `f` under each engine and asserts the outputs are equal,
/// including row order where the output is a relation slice.
fn both_engines<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let row = {
        let _g = install(Engine::Row);
        f()
    };
    let columnar = {
        let _g = install(Engine::Columnar);
        f()
    };
    assert_eq!(row, columnar, "row and columnar engines diverged");
    columnar
}

/// [`both_engines`] plus the Yannakakis engine: all three must agree
/// byte-for-byte.
fn all_engines<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let baseline = both_engines(&f);
    let yannakakis = {
        let _g = install(Engine::Yannakakis);
        f()
    };
    assert_eq!(
        baseline, yannakakis,
        "yannakakis engine diverged from row/columnar"
    );
    yannakakis
}

// ---------------------------------------------------------------------
// Random queries and databases (same shape as the engine crate's
// nested-loop reference suite, but comparing the two engines).

fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let term = prop_oneof![
        5 => (0..4usize).prop_map(|i| Term::var(&format!("V{i}"))),
        1 => (0..3i64).prop_map(Term::int),
    ];
    let atom = ((0..3usize), prop::collection::vec(term, 1..=3))
        .prop_map(|(p, ts)| Atom::new(format!("rel{}_{}", p, ts.len()).as_str(), ts));
    prop::collection::vec(atom, 1..=4).prop_map(|body| {
        let mut vars: Vec<Symbol> = Vec::new();
        for a in &body {
            for v in a.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let head_terms: Vec<Term> = vars.into_iter().map(Term::Var).collect();
        ConjunctiveQuery::new(Atom::new("out", head_terms), body)
    })
}

fn arb_db(q: &ConjunctiveQuery) -> impl Strategy<Value = Database> {
    let preds: Vec<(Symbol, usize)> = {
        let mut seen = std::collections::HashSet::new();
        q.body
            .iter()
            .filter(|a| seen.insert(a.predicate))
            .map(|a| (a.predicate, a.arity()))
            .collect()
    };
    let tables: Vec<_> = preds
        .into_iter()
        .map(|(name, arity)| {
            prop::collection::vec(prop::collection::vec(0i64..4, arity), 0..8)
                .prop_map(move |rows| (name, rows))
        })
        .collect();
    tables.prop_map(|tables| {
        let mut db = Database::new();
        for (name, rows) in tables {
            for row in rows {
                db.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random query + database: `evaluate` and `execute_ordered` agree
    /// across all three engines, trace and answer order included. The
    /// generator's mix of chains, stars, cycles, self-joins, and
    /// disconnected bodies exercises both the Yannakakis reduction and
    /// its cyclic fallback.
    #[test]
    fn engines_agree_on_random_queries(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q);
            (Just(q), db)
        })
    ) {
        all_engines(|| {
            let answer = evaluate(&q, &db);
            let trace = execute_ordered(&q.head, &q.body, &db);
            assert_eq!(trace.answer, answer);
            (
                trace.subgoal_sizes.clone(),
                trace.intermediate_sizes.clone(),
                trace.answer.rows(),
            )
        });
    }
}

// ---------------------------------------------------------------------
// Scale and edges of the word-column storage. The random databases
// above hold at most seven rows per relation, which the engine scans
// without building anything; the cases below put the chained index, the
// row-number set and the kind tags under the same row ≡ columnar
// contract.

/// What one execution shows: the trace's sizes and the answer's tuples in
/// order.
type Shown = (Vec<usize>, Vec<usize>, Vec<Vec<Value>>);

fn shown(trace: viewplan::engine::ExecutionTrace) -> Shown {
    (
        trace.subgoal_sizes,
        trace.intermediate_sizes,
        trace.answer.rows(),
    )
}

fn int_database(q: &ConjunctiveQuery, rows: usize, domain: i64, seed: u64) -> Database {
    let mut db = Database::new();
    for (name, tuples) in random_database(q, rows, domain, seed) {
        for tuple in tuples {
            db.insert(name, tuple.into_iter().map(Value::Int).collect());
        }
    }
    db
}

/// A 20 000-row star and chain over a domain as large as the relations
/// (the benchmark's sizing: joins neither explode nor die out), and a
/// triangle whose closing subgoal joins on two columns at once. Answer
/// order and trace must match the row engine's tuple for tuple.
#[test]
fn engines_agree_at_scale_on_order_and_trace() {
    let cases = [
        (
            "q(X, A, B, C, D) :- s1(X, A), s2(X, B), s3(X, C), s4(X, D)",
            20_000,
            20_000,
        ),
        (
            "q(A, B, C, D, E) :- c1(A, B), c2(B, C), c3(C, D), c4(D, E)",
            20_000,
            20_000,
        ),
        ("q(A, B, C) :- t1(A, B), t2(B, C), t3(C, A)", 1_000, 40),
    ];
    for (text, rows, domain) in cases {
        let q = parse_query(text).unwrap();
        let db = int_database(&q, rows, domain, 19);
        let (_, intermediates, answer) =
            both_engines(|| shown(execute_ordered(&q.head, &q.body, &db)));
        assert!(
            intermediates.iter().all(|&n| n > 8) && !answer.is_empty(),
            "{text}: the joins must neither explode nor die out"
        );
        let evaluated = all_engines(|| evaluate(&q, &db).rows());
        assert_eq!(evaluated.len(), answer.len(), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The random queries again, over relations of 9–20 rows (the name
    /// is from when smaller relations were scanned, not indexed): chains
    /// of the join index hold several rows and row sets have doubled.
    #[test]
    fn engines_agree_on_random_queries_past_the_scan_threshold(
        (q, seed) in (arb_query(), 0u64..1000)
    ) {
        let rows = 9 + (seed % 12) as usize;
        let db = int_database(&q, rows, 5, seed);
        all_engines(|| {
            let answer = evaluate(&q, &db);
            let trace = execute_ordered(&q.head, &q.body, &db);
            assert_eq!(trace.answer, answer);
            shown(trace)
        });
    }
}

/// `r` holds integers, `s` Skolem witnesses with the same words: both key
/// columns are single-kind, of different kinds, so nothing joins.
#[test]
fn single_kind_keys_of_different_kinds_join_to_nothing() {
    let q = parse_query("q(X, Y, Z) :- r(X, Y), s(Y, Z)").unwrap();
    for rows in [4i64, 40] {
        let mut db = Database::new();
        for k in 0..rows {
            db.insert("r", vec![Value::Int(k), Value::Int(k)]);
            db.insert("s", vec![Value::Skolem(k as u32), Value::Int(k)]);
        }
        let (_, intermediates, answer) =
            both_engines(|| shown(execute_ordered(&q.head, &q.body, &db)));
        assert_eq!(intermediates, [rows as usize, 0]);
        assert!(answer.is_empty());
        assert!(all_engines(|| evaluate(&q, &db)).is_empty());
    }
}

/// A column that mixes kinds under equal words: `Int(k)`, `Skolem(k)`,
/// a symbol and a frozen variable. Joining on it matches words *and*
/// kinds, and projecting through it keeps them apart.
#[test]
fn engines_agree_through_a_mixed_column() {
    let x = Symbol::new("X");
    let mixed = |k: i64| match k % 4 {
        0 => Value::Int(k / 4),
        1 => Value::Skolem((k / 4) as u32),
        2 => Value::Sym(x),
        _ => Value::Frozen(x),
    };
    for rows in [6i64, 48] {
        let mut db = Database::new();
        for k in 0..rows {
            db.insert("r", vec![Value::Int(k % 5), mixed(k)]);
            // Shifted by one, so equal words meet under different kinds.
            db.insert("s", vec![mixed(k + 1), Value::Int(k % 3)]);
        }
        let q = parse_query("q(A, C) :- r(A, M), s(M, C)").unwrap();
        let (_, _, joined) = both_engines(|| shown(execute_ordered(&q.head, &q.body, &db)));
        assert!(!joined.is_empty());
        // (`evaluate` picks its own join order: same set, other order.)
        assert_eq!(all_engines(|| evaluate(&q, &db).rows()).len(), joined.len());

        // M3-style: drop A after the first step, so the table is
        // re-deduplicated *on* the mixed column, then join through it.
        let steps = [
            viewplan::engine::AnnotatedStep {
                atom: q.body[0].clone(),
                drop_after: [Symbol::new("A")].into_iter().collect(),
            },
            viewplan::engine::AnnotatedStep {
                atom: q.body[1].clone(),
                drop_after: Default::default(),
            },
        ];
        let head = parse_atom("q(M, C)").unwrap();
        let (_, gsr, _) = both_engines(|| shown(execute_annotated(&head, &steps, &db)));
        // Int(k), Skolem(k), the symbol and the frozen variable all stay
        // distinct values of M.
        let distinct_m = (0..rows)
            .map(mixed)
            .collect::<std::collections::HashSet<_>>();
        assert_eq!(gsr[0], distinct_m.len());
    }
}

/// A head that repeats a variable and carries a constant, and a
/// zero-arity head over a non-empty join.
#[test]
fn engines_agree_on_repeating_constant_and_empty_heads() {
    for rows in [5usize, 60] {
        let body = parse_query("q(A, B, C) :- r(A, B), s(B, C)").unwrap().body;
        let db = int_database(
            &ConjunctiveQuery::new(Atom::new("q", vec![]), body.clone()),
            rows,
            6,
            5,
        );
        let head = parse_atom("q(B, 7, A, B, tag)").unwrap();
        let (_, intermediates, answer) = both_engines(|| shown(execute_ordered(&head, &body, &db)));
        assert!(intermediates[1] > 0);
        assert!(answer
            .iter()
            .all(|t| t[0] == t[3] && t[1] == Value::Int(7) && t[4] == Value::sym("tag")));

        let unit = Atom::new("q", vec![]);
        let (_, _, answer) = both_engines(|| shown(execute_ordered(&unit, &body, &db)));
        assert_eq!(answer, [Vec::<Value>::new()]);
        let q = ConjunctiveQuery::new(unit, body);
        assert_eq!(all_engines(|| evaluate(&q, &db)).len(), 1);
    }
}

// ---------------------------------------------------------------------
// The join kernel's two shortcuts. A single key whose columns share one
// kind is matched on its hash alone (the hash of one word is a bijection
// of it); every other key is compared once the hashes agree. A head that
// keeps every variable builds its answer without deduplicating.

/// `Int(w)`, `Skolem(w)` and the symbol whose index is `w`: three values
/// under one word.
#[derive(Clone, Copy, Debug, PartialEq)]
enum KeyKind {
    Int,
    Skolem,
    Sym,
    /// The three kinds in turn, by row.
    Mixed,
}

/// The value of kind `kind` over the `i`-th word of `words` (interned
/// symbols, so each word is also a symbol's index); `row` picks the kind
/// of a mixed column.
fn key_value(kind: KeyKind, words: &[Symbol], i: usize, row: usize) -> Value {
    let sym = words[i % words.len()];
    let kind = match kind {
        KeyKind::Mixed => [KeyKind::Int, KeyKind::Skolem, KeyKind::Sym][row % 3],
        single => single,
    };
    match kind {
        KeyKind::Int => Value::Int(sym.index() as i64),
        KeyKind::Skolem => Value::Skolem(sym.index() as u32),
        _ => Value::Sym(sym),
    }
}

fn key_words(n: usize) -> Vec<Symbol> {
    (0..n).map(|i| Symbol::new(&format!("key{i}"))).collect()
}

/// Single-key joins over every pairing of key kinds on the two sides —
/// both single-kind (hash alone decides, or the kinds clash), one side
/// mixed, both mixed — with equal words under different kinds on every
/// key, so a match on words alone would show.
#[test]
fn single_key_joins_tell_kinds_apart_under_equal_words() {
    use KeyKind::*;
    let words = key_words(16);
    let q = parse_query("q(X, K, Y) :- r(X, K), s(K, Y)").unwrap();
    for probe in [Int, Skolem, Sym, Mixed] {
        for build in [Int, Skolem, Sym, Mixed] {
            let mut db = Database::new();
            for row in 0..200 {
                db.insert(
                    "r",
                    vec![Value::Int(row as i64), key_value(probe, &words, row, row)],
                );
                // Shifted kinds: word `i` meets every kind on both sides.
                let key = key_value(build, &words, row, row / 16);
                db.insert("s", vec![key, Value::Int(row as i64)]);
            }
            let (_, intermediates, answer) =
                both_engines(|| shown(execute_ordered(&q.head, &q.body, &db)));
            let clash = probe != Mixed && build != Mixed && probe != build;
            assert_eq!(answer.is_empty(), clash, "{probe:?} against {build:?}");
            assert_eq!(intermediates[1], answer.len());
            let evaluated = all_engines(|| evaluate(&q, &db));
            assert_eq!(evaluated.len(), answer.len(), "{probe:?} against {build:?}");
        }
    }
}

/// A join on two keys, each of which sometimes differs only in its kind:
/// equal hashes are not enough, the cells are compared.
#[test]
fn two_key_joins_compare_cells_after_the_hash() {
    use KeyKind::*;
    let words = key_words(8);
    let q = parse_query("q(A, B, C) :- r(A, B), s(A, B, C)").unwrap();
    for (left, right) in [(Int, Int), (Int, Mixed), (Mixed, Skolem), (Mixed, Mixed)] {
        let mut db = Database::new();
        for row in 0..300 {
            db.insert(
                "r",
                vec![
                    key_value(left, &words, row, row),
                    key_value(Int, &words, row / 8, row),
                ],
            );
            db.insert(
                "s",
                vec![
                    key_value(right, &words, row, row / 8),
                    key_value(Int, &words, row / 8, row),
                    Value::Int(row as i64),
                ],
            );
        }
        let (_, _, answer) = both_engines(|| shown(execute_ordered(&q.head, &q.body, &db)));
        assert!(!answer.is_empty(), "{left:?} against {right:?}");
        assert_eq!(all_engines(|| evaluate(&q, &db)).len(), answer.len());
    }
}

/// Heads that keep every variable (no deduplication), drop one
/// (duplicates collapse, keep-first), repeat one, or carry a constant;
/// over a small domain, where dropping a variable merges rows, and at
/// 20 000 rows.
#[test]
fn heads_that_keep_drop_or_repeat_variables() {
    let body = parse_query("q(A, B, C) :- r(A, B), s(B, C)").unwrap().body;
    let unit_head = ConjunctiveQuery::new(Atom::new("q", vec![]), body.clone());
    for (rows, domain) in [(60usize, 6i64), (20_000, 20_000)] {
        let db = int_database(&unit_head, rows, domain, 31);
        let keep = parse_atom("q(C, A, B)").unwrap();
        let (_, intermediates, kept) = both_engines(|| shown(execute_ordered(&keep, &body, &db)));
        assert_eq!(kept.len(), intermediates[1], "every join row is an answer");
        for (head, collapses) in [
            ("q(A, C)", true),
            ("q(A, B, C, A)", false),
            ("q(B, 7, A, C, tag)", false),
            ("q(7, C)", true),
        ] {
            let head = parse_atom(head).unwrap();
            let (_, _, answer) = both_engines(|| shown(execute_ordered(&head, &body, &db)));
            let distinct: std::collections::HashSet<&Vec<Value>> = answer.iter().collect();
            assert_eq!(distinct.len(), answer.len(), "{head}: rows repeat");
            // At 20 000 rows over as many values, dropped variables
            // seldom merge two rows.
            if rows < 100 {
                assert_eq!(answer.len() < kept.len(), collapses, "{head}");
            }
        }
    }
}

/// Probe sides one row short of, at, and one past one probe batch (64
/// rows) and two, each probe row matching a chain of two build rows.
#[test]
fn probe_lengths_around_the_batch_size() {
    let q = parse_query("q(X, K, Y) :- r(X, K), s(K, Y)").unwrap();
    for probes in [63i64, 64, 65, 127, 128, 129] {
        let mut db = Database::new();
        for x in 0..probes {
            db.insert("r", vec![Value::Int(x), Value::Int(x % 50)]);
        }
        for y in 0..120 {
            db.insert("s", vec![Value::Int(y % 60), Value::Int(y)]);
        }
        let (_, intermediates, answer) =
            both_engines(|| shown(execute_ordered(&q.head, &q.body, &db)));
        assert_eq!(intermediates[0], probes as usize);
        // Keys 0..49 each occur twice in `s`.
        assert_eq!(answer.len(), 2 * probes as usize, "{probes} probes");
    }
}

// ---------------------------------------------------------------------
// Workload-scale differential: the full pipeline (CoreCover over
// canonical databases, M1 planning, serving) under each engine, on 1
// and 8 threads sharing one server, with and without node budgets.

fn served_renders(
    views: &ViewSet,
    stream: &[ConjunctiveQuery],
    engine: Engine,
    threads: usize,
    budget: BudgetSpec,
) -> Vec<String> {
    let server = BatchServer::with_config(
        views,
        ServeConfig {
            engine,
            budget,
            ..ServeConfig::default()
        },
    );
    common::serve_concurrently(&server, stream, threads)
        .into_iter()
        .map(|r| match r {
            Ok(a) => a.render(),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

#[test]
fn engines_agree_on_served_workloads() {
    for (shape, seed) in [(0usize, 11u64), (1, 23), (2, 47)] {
        let make = match shape {
            0 => WorkloadConfig::star,
            1 => WorkloadConfig::chain,
            _ => WorkloadConfig::random,
        };
        let views = generate(&make(10, 1, seed)).views;
        let stream: Vec<ConjunctiveQuery> = (0..4)
            .map(|i| generate(&make(10, 1, seed + i as u64)).query)
            .collect();
        for budget in [BudgetSpec::new(), BudgetSpec::new().node_budget(500)] {
            for threads in [1usize, 8] {
                let row = served_renders(&views, &stream, Engine::Row, threads, budget);
                for engine in [Engine::Columnar, Engine::Yannakakis] {
                    let other = served_renders(&views, &stream, engine, threads, budget);
                    assert_eq!(
                        row,
                        other,
                        "{} diverged from row (shape {shape}, seed {seed}, threads {threads})",
                        engine.name()
                    );
                }
            }
        }
    }
}

/// Optimizer-chosen plans execute byte-identically under all three
/// engines over a random view database (the M2/M3 ground-truth costing
/// path). Annotated plans encode their own join order and drops, so the
/// Yannakakis engine executes them through the shared columnar driver —
/// the trace equality below is the proof that delegation stays exact.
#[test]
fn engines_agree_on_optimized_plan_traces() {
    for seed in [3u64, 9, 27] {
        let w = generate(&WorkloadConfig::chain(12, 0, seed));
        let mut base = Database::new();
        // Keep the chain joins small: the M2 exact oracle *executes*
        // every DP subset, so intermediate sizes grow like
        // rows·(rows/domain)^k.
        for (name, rows) in random_database(&w.query, 12, 12, seed) {
            for row in rows {
                base.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        let vdb = all_engines(|| materialize_views(&w.views, &base));
        let mut oracle = ExactOracle::new(&vdb);
        let Some(best) = Optimizer::new(&w.query, &w.views).best_plan(CostModel::M2, &mut oracle)
        else {
            continue;
        };
        all_engines(|| {
            let trace = best
                .plan
                .try_execute(&best.rewriting.head, &vdb)
                .expect("optimizer plans never drop head variables");
            (
                trace.subgoal_sizes.clone(),
                trace.intermediate_sizes.clone(),
                trace.answer.rows(),
            )
        });
    }
}

// ---------------------------------------------------------------------
// Yannakakis edge cases: the reduction must not change any answer even
// when a relation is empty, missing, or joined against itself.

/// An empty (or entirely absent) relation empties the acyclic join; the
/// reduction short-circuits, and the answer stays byte-identical.
#[test]
fn engines_agree_with_empty_and_missing_relations() {
    let q = parse_query("q(X, Z) :- e(X, Y), f(Y, Z)").unwrap();
    // `f` registered but empty.
    let mut db = Database::new();
    db.insert_int("e", &[&[1, 2], &[3, 4]]);
    db.set("f".into(), viewplan::engine::Relation::new(2));
    let answer = all_engines(|| evaluate(&q, &db));
    assert!(answer.is_empty());
    // `f` missing entirely.
    let mut db = Database::new();
    db.insert_int("e", &[&[1, 2]]);
    let answer = all_engines(|| evaluate(&q, &db));
    assert!(answer.is_empty());
}

/// Self-joins: both atoms read the same stored relation, but the
/// reduction filters each *occurrence* independently (private per-atom
/// names), so dangling tuples drop from one side without corrupting the
/// other.
#[test]
fn engines_agree_on_self_joins() {
    let q = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
    let mut db = Database::new();
    // 1→2→3 chains; 7→8 dangles (no successor, no predecessor).
    db.insert_int("e", &[&[1, 2], &[2, 3], &[7, 8]]);
    let answer = all_engines(|| {
        let a = evaluate(&q, &db);
        let trace = execute_ordered(&q.head, &q.body, &db);
        assert_eq!(trace.answer, a);
        a.rows()
    });
    assert_eq!(answer.len(), 1, "only 1→2→3 completes the 2-chain");
}

/// Routing counters: acyclic bodies run the reduction, cyclic bodies
/// take the fallback. Deltas use `>=` (shared registry).
#[test]
fn yannakakis_routing_counters_fire() {
    viewplan::obs::set_enabled(true);
    let _g = install(Engine::Yannakakis);
    let mut db = Database::new();
    db.insert_int("e", &[&[1, 2], &[2, 3]]);

    let chain = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
    let before = viewplan::obs::counter_value("engine.yannakakis_reductions");
    evaluate(&chain, &db);
    let after = viewplan::obs::counter_value("engine.yannakakis_reductions");
    assert!(after > before, "acyclic chain did not run the reduction");

    let triangle = parse_query("q(X) :- e(X, Y), e(Y, Z), e(Z, X)").unwrap();
    let before = viewplan::obs::counter_value("engine.yannakakis_fallbacks");
    evaluate(&triangle, &db);
    let after = viewplan::obs::counter_value("engine.yannakakis_fallbacks");
    assert!(after > before, "cyclic triangle did not fall back");
}

/// CLI: `eval --engine yannakakis` produces byte-identical stdout to
/// the row and columnar engines on the bundled example problem (the
/// served-answer agreement line included).
#[test]
fn cli_eval_is_byte_identical_across_engines() {
    let outputs: Vec<(String, String)> = ["row", "columnar", "yannakakis"]
        .iter()
        .map(|engine| {
            let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
                .args([
                    "eval",
                    "examples/problems/carlocpart.vp",
                    "--engine",
                    engine,
                ])
                .output()
                .expect("failed to spawn viewplan");
            assert!(
                out.status.success(),
                "--engine {engine} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            (
                engine.to_string(),
                String::from_utf8_lossy(&out.stdout).into_owned(),
            )
        })
        .collect();
    for (engine, stdout) in &outputs[1..] {
        assert_eq!(
            stdout, &outputs[0].1,
            "--engine {engine} stdout diverged from row"
        );
    }
}

// ---------------------------------------------------------------------
// Regression tests for the three error-path bugfixes.

/// Bugfix 1 (engine): a head variable the body never binds is a typed
/// error from both engines, not an `expect` panic.
#[test]
fn unbound_head_variable_is_a_typed_error() {
    let parsed = parse_query("q(A) :- r(A, B)").unwrap();
    let unsafe_q = ConjunctiveQuery::new(Atom::new("q", vec![Term::var("Z")]), parsed.body);
    let mut db = Database::new();
    db.insert_int("r", &[&[1, 2]]);
    for engine in [Engine::Row, Engine::Columnar] {
        let _g = install(engine);
        let err = try_evaluate(&unsafe_q, &db).unwrap_err();
        assert!(
            matches!(err, EngineError::UnboundHeadVariable { .. }),
            "expected UnboundHeadVariable, got {err}"
        );
    }
}

/// Bugfix 1 (CLI): an unsafe head query is an input error — exit 2 with
/// a diagnostic, never a panic (exit 101) or an internal error (exit 1).
#[test]
fn unsafe_head_query_exits_2() {
    let path = std::env::temp_dir().join("viewplan_diff_unsafe.vp");
    std::fs::write(&path, "q(X) :- r(A, B).\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .args(["eval", path.to_str().unwrap()])
        .output()
        .expect("failed to spawn viewplan");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unsafe") || stderr.contains("head variable"),
        "stderr should explain the unsafe head: {stderr}"
    );
}

/// Bugfix 2: a subgoal whose arity disagrees with the stored relation
/// counts every skipped tuple in `engine.arity_mismatch_skips` (and
/// still evaluates to the empty answer) instead of skipping silently.
#[test]
fn arity_mismatch_increments_counter() {
    viewplan::obs::set_enabled(true);
    let q = parse_query("q(X) :- r(X, Y, Z)").unwrap();
    let mut db = Database::new();
    db.insert_int("r", &[&[1, 2], &[3, 4], &[5, 6]]); // stored arity 2, used with 3
    let before = viewplan::obs::counter_value("engine.arity_mismatch_skips");
    let answer = all_engines(|| evaluate(&q, &db));
    assert!(answer.is_empty());
    let after = viewplan::obs::counter_value("engine.arity_mismatch_skips");
    // 3 skipped tuples per engine (the Yannakakis reducer mirrors the
    // join driver's per-atom accounting); `>=` because other tests
    // share the process-global metrics registry.
    assert!(
        after >= before + 9,
        "expected +9 skips, counter went {before} -> {after}"
    );
}

/// Bugfix 3 (API): re-registering a relation at a different arity is a
/// typed error, not a silently reused wrong-arity relation.
#[test]
fn arity_conflict_is_a_typed_error() {
    let mut db = Database::new();
    assert!(db
        .try_insert("r", vec![Value::Int(1), Value::Int(2)])
        .unwrap());
    let err = db.try_insert("r", vec![Value::Int(1)]).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::ArityConflict {
                existing: 2,
                requested: 1,
                ..
            }
        ),
        "expected ArityConflict, got {err}"
    );
    // The original relation is untouched.
    assert_eq!(db.get("r".into()).map(|r| r.len()), Some(1));
}

/// Bugfix 3 (CLI): a fact file whose facts disagree on a predicate's
/// arity exits 2 with a diagnostic naming the arity conflict.
#[test]
fn conflicting_fact_arity_exits_2() {
    let path = std::env::temp_dir().join("viewplan_diff_arity.vp");
    std::fs::write(&path, "q(X) :- r(X, Y).\nr(1, 2).\nr(1, 2, 3).\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .args(["eval", path.to_str().unwrap()])
        .output()
        .expect("failed to spawn viewplan");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("arity"),
        "stderr should name the arity conflict: {stderr}"
    );
}
