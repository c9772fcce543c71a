//! The benchmark's own seeded input generator.
//!
//! Everything the program under test sees comes out of here as plain
//! text (`.vp` rules) and integer rows; nothing is shared with
//! `viewplan-workload` or the `rand` stub, so a change to either cannot
//! move a benchmark input. The shapes follow §7 of the paper: an
//! eight-subgoal template per shape, views that are 1–3-subgoal
//! sub-patterns of a template, heads that drop `nd` variables.
//!
//! The three shapes live on disjoint predicate namespaces (`s*`, `c*`,
//! `r*`; views `vs*`, `vc*`, `vr*`), so one catalog can hold all three
//! and a query of one shape never sees a view tuple of another. A view
//! set is generated once and queries are drawn from the same templates
//! afterwards, without touching the views again.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit word of state, full
/// period, and good enough mixing that consecutive seeds give unrelated
/// streams — the driver passes small consecutive seeds.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// An independent stream for one named part of the input, so adding
    /// a draw to one part leaves every other part's inputs unchanged.
    pub fn fork(&self, label: &str) -> Rng {
        let mut h = Checksum::new();
        h.update(label.as_bytes());
        let mut mixed = Rng::new(self.state ^ h.value());
        mixed.next_u64();
        Rng::new(mixed.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for
    /// every `n` used here). `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values of `0..n`, ascending.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }
}

/// FNV-1a over everything generated, printed with each result so input
/// drift between two commits of the benchmark is visible.
#[derive(Clone, Copy, Debug)]
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Checksum {
        Checksum(0xCBF2_9CE4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn update_rows(&mut self, rows: &[Vec<i64>]) {
        for row in rows {
            for v in row {
                self.update(&v.to_le_bytes());
            }
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight
/// `1 / (k + 1)^s`, by inversion on the precomputed distribution.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Query/view shapes of §7.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Shape {
    Star,
    Chain,
    Random,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::Star, Shape::Chain, Shape::Random];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Star => "star",
            Shape::Chain => "chain",
            Shape::Random => "random",
        }
    }

    /// Base-relation name prefix; the three are disjoint.
    fn predicate_prefix(self) -> &'static str {
        match self {
            Shape::Star => "s",
            Shape::Chain => "c",
            Shape::Random => "r",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            Shape::Chain => 2,
            Shape::Star | Shape::Random => 3,
        }
    }
}

/// Subgoals per template, as in the paper.
pub const SUBGOALS: usize = 8;

/// One subgoal of a template: relation index and variable indices.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TemplateAtom {
    relation: usize,
    vars: Vec<usize>,
}

/// The templates of one shape. Star and chain have exactly one (their
/// structure is fixed); random has several, drawn from the seed, so a
/// random view set serves queries of more than one join structure.
#[derive(Clone, Debug)]
pub struct Family {
    pub shape: Shape,
    templates: Vec<Vec<TemplateAtom>>,
}

impl Family {
    /// `random_templates` is ignored for star and chain.
    pub fn new(shape: Shape, random_templates: usize, rng: &mut Rng) -> Family {
        let templates = match shape {
            Shape::Star => vec![(0..SUBGOALS)
                .map(|i| TemplateAtom {
                    relation: i,
                    vars: vec![0, 2 * i + 1, 2 * i + 2],
                })
                .collect()],
            Shape::Chain => vec![(0..SUBGOALS)
                .map(|i| TemplateAtom {
                    relation: i,
                    vars: vec![i, i + 1],
                })
                .collect()],
            // A random tree join: every subgoal after the first shares
            // exactly one variable with the subgoals before it, at a random
            // position, and its other positions are new variables. Joining
            // on one variable keeps intermediate results near the relation
            // size when the domain is as large as the relations; sharing
            // two would leave the joins all but empty, sharing none would
            // make them Cartesian products.
            Shape::Random => (0..random_templates.max(1))
                .map(|_| {
                    let mut next_var = 0;
                    (0..SUBGOALS)
                        .map(|i| {
                            let linked = rng.below(3);
                            let earlier = next_var;
                            TemplateAtom {
                                relation: i,
                                vars: (0..3)
                                    .map(|k| {
                                        if i > 0 && k == linked {
                                            rng.below(earlier)
                                        } else {
                                            next_var += 1;
                                            next_var - 1
                                        }
                                    })
                                    .collect(),
                            }
                        })
                        .collect()
                })
                .collect(),
        };
        Family { shape, templates }
    }

    pub fn relation_name(&self, relation: usize) -> String {
        format!("{}{relation}", self.shape.predicate_prefix())
    }

    /// Names of the base relations, in relation order.
    pub fn relation_names(&self) -> Vec<String> {
        (0..SUBGOALS).map(|r| self.relation_name(r)).collect()
    }

    /// `count` views as rule text, one per entry. With `cover`, the first
    /// few views partition template 0 into connected groups of one to
    /// three subgoals with every variable distinguished, so the
    /// full-template query is certain to have a rewriting.
    pub fn views(&self, count: usize, nd: usize, cover: bool, rng: &mut Rng) -> Vec<String> {
        let mut out = Vec::with_capacity(count);
        let mut next = 0;
        if cover {
            let mut unassigned: Vec<usize> = (0..SUBGOALS).collect();
            while !unassigned.is_empty() && out.len() < count {
                let len = rng.between(1, 3);
                let mut group = vec![unassigned.remove(0)];
                while group.len() < len {
                    let Some(at) = unassigned
                        .iter()
                        .position(|&i| group.iter().any(|&g| self.share_a_variable(0, g, i)))
                    else {
                        break;
                    };
                    group.push(unassigned.remove(at));
                }
                group.sort_unstable();
                out.push(self.rule(&self.view_name(next), 0, &group, 0, "V", rng));
                next += 1;
            }
        }
        while out.len() < count {
            let template = rng.below(self.templates.len());
            let len = rng.between(1, 3);
            let picked = self.sub_pattern(template, len, rng);
            // §7.2: single-subgoal views keep all variables distinguished.
            let nd = if len == 1 { 0 } else { nd };
            out.push(self.rule(&self.view_name(next), template, &picked, nd, "V", rng));
            next += 1;
        }
        out
    }

    pub fn view_name(&self, index: usize) -> String {
        format!("v{}{index}", self.shape.predicate_prefix())
    }

    /// The full-template query of template 0 with every variable in the
    /// head `q`, written in variables `X0`, `X1`, ….
    pub fn full_query(&self, rng: &mut Rng) -> String {
        let all: Vec<usize> = (0..SUBGOALS).collect();
        self.rule("q", 0, &all, 0, "X", rng)
    }

    /// A query over `min_subgoals..=8` subgoals of a random template
    /// (chains take a contiguous segment), dropping `min_nd..=max_nd` head
    /// variables, written in variables `X0`, `X1`, … (see
    /// [`rename_variables`]).
    pub fn query(
        &self,
        min_subgoals: usize,
        min_nd: usize,
        max_nd: usize,
        rng: &mut Rng,
    ) -> String {
        let template = rng.below(self.templates.len());
        let len = rng.between(min_subgoals.min(SUBGOALS), SUBGOALS);
        let picked = self.sub_pattern(template, len, rng);
        let nd = rng.between(min_nd, max_nd);
        self.rule("q", template, &picked, nd, "X", rng)
    }

    fn share_a_variable(&self, template: usize, a: usize, b: usize) -> bool {
        let atoms = &self.templates[template];
        atoms[a].vars.iter().any(|v| atoms[b].vars.contains(v))
    }

    /// `len` subgoals of a template forming a connected sub-pattern, in
    /// template order: a contiguous segment of a chain, any subset of a
    /// star (the centre joins them all), and for a random template a set
    /// grown from one subgoal by adding subgoals that share a variable
    /// with it.
    fn sub_pattern(&self, template: usize, len: usize, rng: &mut Rng) -> Vec<usize> {
        let len = len.clamp(1, SUBGOALS);
        match self.shape {
            Shape::Chain => {
                let start = rng.below(SUBGOALS - len + 1);
                (start..start + len).collect()
            }
            Shape::Star => rng.distinct(SUBGOALS, len),
            Shape::Random => {
                let mut picked = vec![rng.below(SUBGOALS)];
                while picked.len() < len {
                    let adjacent: Vec<usize> = (0..SUBGOALS)
                        .filter(|i| !picked.contains(i))
                        .filter(|&i| {
                            picked
                                .iter()
                                .any(|&p| self.share_a_variable(template, p, i))
                        })
                        .collect();
                    if adjacent.is_empty() {
                        break;
                    }
                    picked.push(adjacent[rng.below(adjacent.len())]);
                }
                picked.sort_unstable();
                picked
            }
        }
    }

    /// Renders `head(kept vars) :- picked subgoals` with variables
    /// renumbered densely by first occurrence and `nd` of them (chosen
    /// uniformly, never all) left out of the head.
    fn rule(
        &self,
        head: &str,
        template: usize,
        picked: &[usize],
        nd: usize,
        var_prefix: &str,
        rng: &mut Rng,
    ) -> String {
        let atoms = &self.templates[template];
        let mut order: Vec<usize> = Vec::new();
        for &i in picked {
            for &v in &atoms[i].vars {
                if !order.contains(&v) {
                    order.push(v);
                }
            }
        }
        let dense = |v: usize| order.iter().position(|&o| o == v).unwrap_or(0);
        let drop_count = nd.min(order.len().saturating_sub(1));
        let dropped: BTreeSet<usize> = rng.distinct(order.len(), drop_count).into_iter().collect();
        let mut text = String::new();
        let _ = write!(text, "{head}(");
        let mut first = true;
        for i in (0..order.len()).filter(|i| !dropped.contains(i)) {
            if !first {
                text.push_str(", ");
            }
            first = false;
            let _ = write!(text, "{var_prefix}{i}");
        }
        text.push_str(") :- ");
        for (n, &i) in picked.iter().enumerate() {
            if n > 0 {
                text.push_str(", ");
            }
            let _ = write!(text, "{}(", self.relation_name(atoms[i].relation));
            for (k, &v) in atoms[i].vars.iter().enumerate() {
                if k > 0 {
                    text.push_str(", ");
                }
                let _ = write!(text, "{var_prefix}{}", dense(v));
            }
            text.push(')');
        }
        text
    }

    /// `rows` integer tuples over `0..domain` for each base relation, in
    /// relation order. Keeping `rows` at or below `domain` keeps the
    /// eight-way joins from blowing up multiplicatively.
    pub fn base_rows(&self, rows: usize, domain: i64, rng: &mut Rng) -> Vec<Vec<Vec<i64>>> {
        (0..SUBGOALS)
            .map(|_| {
                (0..rows)
                    .map(|_| {
                        (0..self.shape.arity())
                            .map(|_| rng.below(domain.max(1) as usize) as i64)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }
}

/// Rewrites every variable of a rule (`{from}{n}`) to `{to}{n}`: the
/// same canonical query under other names. Variables are the only
/// identifiers in generated text that start with an upper-case letter.
pub fn rename_variables(rule: &str, from: &str, to: &str) -> String {
    let mut out = String::with_capacity(rule.len() + 16);
    let mut rest = rule;
    while let Some(at) = rest.find(from) {
        let boundary = rest[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        out.push_str(&rest[..at]);
        out.push_str(if boundary { to } else { from });
        rest = &rest[at + from.len()..];
    }
    out.push_str(rest);
    out
}

/// `count` distinct queries (by text under one variable prefix, which for
/// a fixed subgoal order is distinctness up to renaming), drawn round-
/// robin from the families.
pub fn distinct_queries(
    families: &[Family],
    count: usize,
    min_subgoals: usize,
    max_nd: usize,
    rng: &mut Rng,
) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    let mut turn = 0;
    // Small families (chains) run out of distinct queries; the attempt
    // cap lets the others fill the remainder instead of looping forever.
    let mut attempts = 0;
    while out.len() < count && attempts < count * 200 {
        let family = &families[turn % families.len()];
        turn += 1;
        attempts += 1;
        let q = family.query(min_subgoals, 0, max_nd, rng);
        if seen.insert(q.clone()) {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let build = |seed: u64| {
            let root = Rng::new(seed);
            let mut out = Vec::new();
            for shape in Shape::ALL {
                let mut rng = root.fork(shape.name());
                let family = Family::new(shape, 4, &mut rng);
                out.extend(family.views(50, 1, false, &mut rng));
                out.push(family.query(5, 0, 2, &mut rng));
                out.push(format!("{:?}", family.base_rows(5, 100, &mut rng)));
            }
            out
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn fork_streams_are_independent_of_draw_order() {
        let root = Rng::new(42);
        let mut a = root.fork("a");
        let first = a.next_u64();
        let mut b = root.fork("b");
        b.next_u64();
        assert_eq!(root.fork("a").next_u64(), first);
        assert_ne!(root.fork("b").next_u64(), first);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let picked = rng.distinct(10, 4);
        assert_eq!(picked.len(), 4);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let zipf = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        let top = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        // Rank 0 carries 1/H(1000) = 13.4 % of the mass.
        assert!((0.12..0.15).contains(&top), "rank-0 share {top}");
        let top_ten = a.iter().filter(|&&k| k < 10).count() as f64 / a.len() as f64;
        assert!((0.36..0.42).contains(&top_ten), "top-10 share {top_ten}");
        assert!(a.iter().all(|&k| k < 1000));
    }

    #[test]
    fn shapes_use_disjoint_predicates_and_views_parse() {
        let root = Rng::new(5);
        let mut names = BTreeSet::new();
        for shape in Shape::ALL {
            let mut rng = root.fork(shape.name());
            let family = Family::new(shape, 3, &mut rng);
            for name in family.relation_names() {
                assert!(names.insert(name), "predicate shared between shapes");
            }
            let text = family.views(40, 2, true, &mut rng).join(".\n");
            let views = viewplan_cq::parse_views(&text).expect("generated views parse");
            assert_eq!(views.len(), 40);
            for v in &views {
                assert!(v.definition.is_safe());
                assert!((1..=3).contains(&v.definition.body.len()));
            }
            let q = viewplan_cq::parse_query(&family.query(5, 0, 2, &mut rng))
                .expect("generated query parses");
            assert!(q.is_safe());
            assert!((5..=8).contains(&q.body.len()));
        }
    }

    #[test]
    fn random_patterns_are_connected() {
        let mut rng = Rng::new(13);
        let family = Family::new(Shape::Random, 10, &mut rng);
        let connected = |q: &viewplan_cq::ConjunctiveQuery| {
            let mut reached = vec![0usize];
            let mut grew = true;
            while grew {
                grew = false;
                for i in 0..q.body.len() {
                    if reached.contains(&i) {
                        continue;
                    }
                    let vars: Vec<_> = q.body[i].variables().collect();
                    if reached
                        .iter()
                        .any(|&r| q.body[r].variables().any(|v| vars.contains(&v)))
                    {
                        reached.push(i);
                        grew = true;
                    }
                }
            }
            reached.len() == q.body.len()
        };
        for text in family.views(200, 1, true, &mut rng) {
            let v = viewplan_cq::parse_query(&text).expect("view parses");
            assert!(connected(&v), "disconnected view {text}");
        }
        for _ in 0..20 {
            let q = viewplan_cq::parse_query(&family.query(8, 0, 1, &mut rng)).expect("parses");
            assert_eq!(q.body.len(), 8);
            assert!(connected(&q), "disconnected query {q}");
        }
    }

    #[test]
    fn renaming_changes_names_but_not_structure() {
        let mut rng = Rng::new(9);
        let family = Family::new(Shape::Star, 1, &mut rng);
        let q = family.query(8, 2, 2, &mut rng);
        let renamed = rename_variables(&q, "X", "Qa");
        assert_ne!(q, renamed);
        assert!(!renamed.contains('X'));
        let a = viewplan_cq::parse_query(&q).expect("parses");
        let b = viewplan_cq::parse_query(&renamed).expect("parses");
        assert_eq!(
            viewplan_containment::canonicalize(&a).key,
            viewplan_containment::canonicalize(&b).key
        );
    }

    #[test]
    fn distinct_queries_are_distinct() {
        let root = Rng::new(11);
        let mut rng = root.fork("q");
        let families: Vec<Family> = Shape::ALL
            .iter()
            .map(|&s| Family::new(s, 6, &mut rng))
            .collect();
        let qs = distinct_queries(&families, 500, 4, 2, &mut rng);
        assert_eq!(qs.len(), 500);
        let unique: BTreeSet<&String> = qs.iter().collect();
        assert_eq!(unique.len(), 500);
    }
}
