//! Canonical forms of conjunctive queries, up to variable renaming.
//!
//! Two queries that differ only in variable names are the same query to
//! every algorithm the paper runs (Chandra & Merlin homomorphisms never
//! look at variable *names*). Renaming every variable to its order of
//! first occurrence — head first, then body, left to right — makes all
//! variants of a query one: one [`CanonicalQuery`] key, and one
//! byte-identical query in canonical variable space
//! ([`canonicalize`], [`parse_canonical`]). The serving layer's
//! rewriting cache is keyed on these.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use viewplan_cq::{
    parse_query_with, ConjunctiveQuery, Constant, FirstSeen, ParseError, Substitution, Symbol,
    Term, Variables,
};
use viewplan_sync::RwLock;

/// One token of a canonical query encoding. Variables are replaced by
/// dense first-occurrence indices, so two queries that differ only by a
/// variable renaming encode identically; constants and predicates keep
/// their interned identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Tok {
    /// Atom start: predicate symbol + arity.
    Pred(u32, u32),
    /// Variable by dense first-occurrence index.
    Var(u32),
    /// Symbolic constant by interned id.
    Sym(u32),
    /// Integer constant.
    Int(i64),
}

/// A conjunctive query canonicalized up to variable renaming. Two queries
/// that are variants (differ only in variable names) produce equal keys;
/// queries that differ structurally (including body order) produce
/// different keys, which costs hit rate but never correctness.
///
/// The key is hashed once, when it is built: [`CanonicalQuery::hash64`]
/// picks a cache's shard and is the one word `Hash` feeds the shard's
/// map, so a probe never walks the encoding twice — and the encoding is
/// shared, so a clone (an in-flight table entry, a stored key) is a
/// reference count, not a copy. The hash is `DefaultHasher::new()` over
/// the encoding, the same function for every process: which shard a
/// query lands in, and so what a shard evicts, repeats from run to run.
#[derive(Clone, Debug)]
pub struct CanonicalQuery {
    toks: Arc<[Tok]>,
    hash: u64,
}

impl CanonicalQuery {
    fn new(toks: Vec<Tok>) -> CanonicalQuery {
        let mut h = DefaultHasher::new();
        toks.hash(&mut h);
        CanonicalQuery {
            hash: h.finish(),
            toks: toks.into(),
        }
    }

    /// The hash of the encoding, computed when the key was built.
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for CanonicalQuery {
    fn eq(&self, other: &CanonicalQuery) -> bool {
        self.hash == other.hash && self.toks == other.toks
    }
}

impl Eq for CanonicalQuery {}

impl Hash for CanonicalQuery {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Canonicalizes a query for use as a cache key.
pub fn canonical_key(q: &ConjunctiveQuery) -> CanonicalQuery {
    numbered(q).0
}

/// `q`'s key, and its distinct variables in first-occurrence order: the
/// `i`-th is the one the key encodes as `i`.
fn numbered(q: &ConjunctiveQuery) -> (CanonicalQuery, Vec<Symbol>) {
    let mut vars = FirstSeen::default();
    let key = encode(q, |v| vars.number(&v).0 as u32);
    (key, vars.into_keys())
}

/// The one key encoding: `q`'s atoms in order, each variable occurrence
/// as the first-occurrence index `var` gives it — which must be the
/// index [`canonical_key`] would, for the key to be the same.
fn encode(q: &ConjunctiveQuery, mut var: impl FnMut(Symbol) -> u32) -> CanonicalQuery {
    let atoms = || std::iter::once(&q.head).chain(&q.body);
    let mut toks = Vec::with_capacity(atoms().map(|a| 1 + a.arity()).sum());
    for atom in atoms() {
        toks.push(Tok::Pred(
            atom.predicate.index() as u32,
            atom.terms.len() as u32,
        ));
        toks.extend(atom.terms.iter().map(|t| match *t {
            Term::Var(v) => Tok::Var(var(v)),
            Term::Const(Constant::Sym(s)) => Tok::Sym(s.index() as u32),
            Term::Const(Constant::Int(i)) => Tok::Int(i),
        }));
    }
    CanonicalQuery::new(toks)
}

/// Canonical variables interned when the pool is first used — more than
/// any query of the paper's workloads has, and read without a lock.
const POOL_INITIAL: usize = 64;

/// `__c0 … __c63`, interned once and kept: asking for one of them is an
/// index, not a `format!` and an interner probe per variable per request.
fn initial_pool() -> &'static [Symbol] {
    static POOL: OnceLock<Vec<Symbol>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..POOL_INITIAL)
            .map(|i| Symbol::new(&format!("__c{i}")))
            .collect()
    })
}

/// `__c64, __c65, …`: grown by the first query wider than the initial
/// pool, to its own width, and kept.
fn wider_pool() -> &'static RwLock<Vec<Symbol>> {
    static POOL: RwLock<Vec<Symbol>> = RwLock::new(Vec::new());
    &POOL
}

/// The canonical name of the `i`-th variable (by first occurrence) of a
/// canonicalized query. The `__c` prefix keeps canonical names out of the
/// way of ordinary user variables, but nothing breaks if a user query
/// already contains one: canonicalization is a *simultaneous* bijective
/// renaming, so collisions cannot alias two variables.
pub fn canonical_variable(i: usize) -> Symbol {
    match initial_pool().get(i) {
        Some(&v) => v,
        None => wider_variable(i),
    }
}

/// [`canonical_variable`] past the initial pool.
// lock-order: the single wider-pool lock, read then write, strictly
// sequentially — the read guard is a temporary of the `let known`
// statement and is gone before the write acquisition.
fn wider_variable(i: usize) -> Symbol {
    let at = i - POOL_INITIAL;
    let known = wider_pool().read().get(at).copied();
    if let Some(v) = known {
        return v;
    }
    let mut pool = wider_pool().write();
    for n in pool.len()..=at {
        pool.push(Symbol::new(&format!("__c{}", POOL_INITIAL + n)));
    }
    pool[at]
}

/// A query renamed into canonical variable space, together with the map
/// back to the original names.
///
/// Canonicalization assigns every variable the dense name
/// [`canonical_variable`]`(i)` where `i` is its first-occurrence index
/// (head first, then body, left to right) — the same order
/// [`canonical_key`] uses. Two queries that are variants of each other
/// therefore canonicalize to **byte-identical** queries, which is the
/// foundation of the serving layer's rewriting cache: run the pipeline on
/// `canonical`, and any variant of the original query can reuse the
/// result by renaming it through its own `from_canonical` map. Because
/// every variant performs the *same* canonical computation, a cache hit
/// is provably identical to a cold run — no equivariance assumption about
/// the pipeline is needed.
#[derive(Clone, Debug)]
pub struct Canonicalization {
    /// The query with every variable renamed to its canonical name.
    pub canonical: ConjunctiveQuery,
    /// The cache key (equals `canonical_key` of the original query).
    pub key: CanonicalQuery,
    /// Substitution mapping canonical names back to the original
    /// variables. Pipeline outputs over `canonical` mention only its
    /// variables, so applying this recovers the original vocabulary.
    pub from_canonical: Substitution,
}

/// Canonicalizes a query: renames variables to dense first-occurrence
/// names and returns the renamed query, its cache key, and the inverse
/// renaming. See [`Canonicalization`].
pub fn canonicalize(q: &ConjunctiveQuery) -> Canonicalization {
    let (key, order) = numbered(q);
    let to_canonical = Substitution::from_pairs(
        order
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, Term::Var(canonical_variable(i)))),
    );
    let from_canonical = Substitution::from_pairs(
        order
            .iter()
            .enumerate()
            .map(|(i, &v)| (canonical_variable(i), Term::Var(v))),
    );
    Canonicalization {
        canonical: q.apply(&to_canonical),
        key,
        from_canonical,
    }
}

/// A rule parsed straight into canonical variable space; see
/// [`parse_canonical`].
#[derive(Clone, Debug)]
pub struct CanonicalParse<'a> {
    /// The rule in canonical variables: the `canonical` query of
    /// [`canonicalize`] over the interning parse.
    pub canonical: ConjunctiveQuery,
    /// Its cache key, [`canonical_key`] of either query.
    pub key: CanonicalQuery,
    /// `names[i]` is what the source calls [`canonical_variable`]`(i)`.
    pub names: Vec<&'a str>,
}

/// Parses a rule straight into canonical variable space: the `i`-th
/// distinct variable in textual order — head first, then body, left to
/// right, which is [`canonicalize`]'s first-occurrence order — *is*
/// [`canonical_variable`]`(i)`, and its spelling is kept beside the query
/// as a slice of `src`. The result is the `canonical` query and the `key`
/// `canonicalize(&parse_query(src)?)` would return, with `names[i]` where
/// `from_canonical` maps `canonical_variable(i)`; no variable name the
/// source invents is interned. Errors are [`parse_query`]'s, byte for
/// byte, in the source's own spellings.
///
/// The key is encoded from the indices the parse handed out, so nothing
/// walks the query through a rename map a second time.
///
/// [`parse_query`]: viewplan_cq::parse_query
pub fn parse_canonical(src: &str) -> Result<CanonicalParse<'_>, ParseError> {
    let mut vars = FirstOccurrence::default();
    let canonical = parse_query_with(src, &mut vars)?;
    // The parser asks for one variable per variable occurrence, in
    // textual order: the order `encode` meets them in.
    let mut indices = vars.occurrences.iter().copied();
    let key = encode(&canonical, |_| indices.next().unwrap_or_default());
    Ok(CanonicalParse {
        canonical,
        key,
        names: vars.spellings.into_keys(),
    })
}

/// Numbers variables by first occurrence against the canonical pool.
#[derive(Default)]
struct FirstOccurrence<'a> {
    /// The `i`-th spelling is what the source calls the `i`-th canonical
    /// variable.
    spellings: FirstSeen<&'a str>,
    /// Every variable occurrence's index, in the order they were made.
    occurrences: Vec<u32>,
}

impl<'a> Variables<'a> for FirstOccurrence<'a> {
    fn make(&mut self, spelling: &'a str) -> Symbol {
        let (i, _) = self.spellings.number(&spelling);
        self.occurrences.push(i as u32);
        canonical_variable(i)
    }

    fn spelling(&self, v: Symbol) -> &str {
        // A canonical variable's name carries its index: reading it back
        // keeps quoting a wide rule linear in its width.
        let index = v
            .as_str()
            .strip_prefix("__c")
            .and_then(|i| i.parse::<usize>().ok());
        match index.and_then(|i| self.spellings.keys().get(i)) {
            Some(spelling) => spelling,
            None => v.as_str(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;
    use viewplan_cq::SCAN_WIDTH;

    #[test]
    fn variants_share_a_key() {
        let q1 = parse_query("q(X) :- e(X, Y), e(Y, Z)").unwrap();
        let q2 = parse_query("q(A) :- e(A, B), e(B, C)").unwrap();
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn structurally_different_queries_differ() {
        let q1 = parse_query("q(X) :- e(X, Y)").unwrap();
        let q2 = parse_query("q(X) :- e(Y, X)").unwrap();
        let q3 = parse_query("q(X) :- f(X, Y)").unwrap();
        let q4 = parse_query("q(X) :- e(X, a)").unwrap();
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
        assert_ne!(canonical_key(&q1), canonical_key(&q3));
        assert_ne!(canonical_key(&q1), canonical_key(&q4));
    }

    #[test]
    fn variants_canonicalize_to_byte_identical_queries() {
        let q1 = parse_query("q(X, Y) :- e(X, Z), f(Z, Y), g(Y, a)").unwrap();
        let q2 = parse_query("q(A, B) :- e(A, C), f(C, B), g(B, a)").unwrap();
        let c1 = canonicalize(&q1);
        let c2 = canonicalize(&q2);
        assert_eq!(c1.canonical, c2.canonical);
        assert_eq!(c1.key, c2.key);
        assert_eq!(c1.key, canonical_key(&q1));
        // Round trip: renaming back recovers each original query.
        assert_eq!(c1.canonical.apply(&c1.from_canonical), q1);
        assert_eq!(c2.canonical.apply(&c2.from_canonical), q2);
    }

    #[test]
    fn canonicalize_handles_adversarial_names() {
        // A query that already uses canonical-style names in "wrong"
        // positions: the simultaneous renaming must stay bijective.
        let q = parse_query("q(__c1, __c0) :- e(__c1, __c0), e(__c0, W)").unwrap();
        let c = canonicalize(&q);
        assert_eq!(c.canonical.apply(&c.from_canonical), q);
        // Distinct originals stay distinct in canonical space.
        let vars = c.canonical.variables();
        assert_eq!(vars.len(), q.variables().len());
    }

    /// A rule over `n` distinct variables, each used twice and some
    /// spelled alike but for case, ending in a constant.
    fn wide_rule(n: usize) -> String {
        let name = |i: usize| {
            if i.is_multiple_of(2) {
                format!("V{i}x")
            } else {
                format!("V{}X", i - 1)
            }
        };
        let args: Vec<String> = (0..n).map(name).collect();
        let back: Vec<String> = (0..n).rev().map(name).collect();
        format!(
            "q({}) :- e({}, k), f({}, 3)",
            name(n - 1),
            args.join(", "),
            back.join(", ")
        )
    }

    #[test]
    fn parsing_into_canonical_space_is_canonicalize_of_the_parse() {
        let wide = [
            wide_rule(SCAN_WIDTH),
            wide_rule(SCAN_WIDTH + 1),
            wide_rule(200),
        ];
        for src in [
            "q(X, Y) :- e(X, Z), f(Z, Y), g(Y, a)",
            "q(B, A, B) :- e(A, B), e(B, A)  % body-first numbering would swap these",
            "q(X1, X10) :- e(X1, X10, x1), e(X10, X1, 7).",
            "q() :- e(), f(X, __c0, X)",
        ]
        .into_iter()
        .chain(wide.iter().map(String::as_str))
        {
            let c = canonicalize(&parse_query(src).unwrap());
            let CanonicalParse {
                canonical,
                key,
                names,
            } = parse_canonical(src).unwrap();
            assert_eq!(canonical, c.canonical, "{src}");
            assert_eq!(key, c.key, "{src}");
            assert_eq!(key.hash64(), c.key.hash64(), "{src}");
            for (i, name) in names.iter().enumerate() {
                assert_eq!(
                    c.from_canonical.get(canonical_variable(i)),
                    Some(Term::var(name)),
                    "{src}"
                );
            }
            assert_eq!(names.len(), c.canonical.variables().len());
        }
    }

    #[test]
    fn canonical_parse_errors_are_the_interning_parsers_errors() {
        for src in [
            "q(X, Y) :- a(X)",
            "q(Y, X) :- a(X, W), b(W)",
            "q(X) :- Foo(X)",
            "q(X) :- a(X) extra",
            "q(X) :- ",
            "q(X) :- a(X, @)",
        ] {
            let interned = parse_query(src).unwrap_err();
            assert_eq!(parse_canonical(src).unwrap_err(), interned, "{src}");
        }
        let unsafe_rule = parse_canonical("q(Left, Right) :- a(Left)").unwrap_err();
        assert_eq!(
            unsafe_rule.message,
            "unsafe rule (head variable not in body): q(Left, Right) :- a(Left)"
        );
        // Past the scan width, spellings are found through the map.
        let src =
            format!("{}, g(Lost)", wide_rule(2 * SCAN_WIDTH)).replacen("q(", "q(Lost, Gone, ", 1);
        let wide = parse_canonical(&src).unwrap_err();
        assert_eq!(wide, parse_query(&src).unwrap_err());
        assert!(wide
            .message
            .starts_with("unsafe rule (head variable not in body): q(Lost, Gone, "));
    }

    #[test]
    fn the_pool_grows_to_the_widest_query_and_hands_out_stable_symbols() {
        let wide = canonical_variable(POOL_INITIAL + 40);
        assert_eq!(wide.as_str(), format!("__c{}", POOL_INITIAL + 40));
        assert_eq!(canonical_variable(POOL_INITIAL + 40), wide);
        assert_eq!(canonical_variable(3), Symbol::new("__c3"));
    }

    #[test]
    fn repeated_variables_are_distinguished_from_distinct_ones() {
        let diag = parse_query("q(X) :- e(X, X)").unwrap();
        let free = parse_query("q(X) :- e(X, Y)").unwrap();
        assert_ne!(canonical_key(&diag), canonical_key(&free));
    }
}
