//! `viewplan explain` — replay a rewrite/plan run with full provenance.
//!
//! Where `rewrite` and `plan` print only the winning answer, `explain`
//! reports *why* that answer won: which views the VP006 analyzer pruned
//! before the search started, every candidate cover `CoreCover` built
//! with the verdict that kept or rejected it (accepted, renaming variant
//! of an earlier cover, failed the equivalence check, or left unverified
//! by an exhausted budget) and the check that decided it (the cover
//! certificate or the expansion-equivalence oracle — and every cover
//! the certificate vouched for is put to the oracle again here, a
//! disagreement being a bug this report shouts about), and — when the
//! input carries ground facts —
//! the per-term cost breakdown of the winning plan against the runner-up
//! under the chosen cost model.
//!
//! The per-term numbers are *measured*, not estimated: the chosen plan is
//! executed against the materialized view database and each step reports
//! `size(gᵢ)` (the joined relation) and the intermediate-result size
//! after the step (`IRᵢ` under M2, `GSRᵢ` under M3 where the plan's drop
//! annotations have been applied). Under M1 no data is needed and the
//! per-term cost is simply 1 per subgoal.
//!
//! Everything here is deterministic for a fixed input file, which is what
//! lets the `explain --json` golden tests pin the output byte-for-byte.

use std::collections::BTreeMap;

use viewplan_core::{
    is_equivalent_rewriting, CandidateVerdict, CoreCover, CoreCoverConfig, DecidedBy,
};
use viewplan_cost::{
    try_optimal_m2_order, try_optimal_m3_plan, CostModel, DropPolicy, ExactOracle, PhysicalPlan,
    PlanError,
};
use viewplan_cq::{ConjunctiveQuery, ViewSet};
use viewplan_engine::{materialize_views, Database};
use viewplan_obs::Json;

/// How a candidate cover fared, in report form.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// The candidate rewriting, rendered.
    pub rewriting: String,
    /// Names of the views its body uses (in body order, deduplicated).
    pub views_used: Vec<String>,
    /// Machine-readable verdict tag: `accepted`, `duplicate_variant`,
    /// `not_equivalent`, or `unverified`.
    pub verdict: &'static str,
    /// For `duplicate_variant`: index (into this list) of the candidate
    /// this one renames.
    pub variant_of: Option<usize>,
    /// The check that decided the verdict: `certificate` or `oracle`;
    /// absent for a duplicate variant.
    pub decided_by: Option<&'static str>,
    /// True iff the cover of tuple-class representatives failed and
    /// `rewriting` is the class-mate combination that passed instead.
    pub retried: bool,
    /// For a cover the certificate vouched for: whether the oracle, run
    /// on it here without a budget, agrees. `Some(false)` is a bug in
    /// the certificate.
    pub oracle_agrees: Option<bool>,
}

/// One step of an explained plan with its measured sizes.
#[derive(Clone, Debug)]
pub struct TermReport {
    /// The subgoal joined at this step, rendered.
    pub atom: String,
    /// `size(gᵢ)` — tuples in the joined view relation (absent under M1).
    pub relation_size: Option<u64>,
    /// Intermediate-result size after this step, post-drop (absent
    /// under M1).
    pub intermediate_size: Option<u64>,
    /// Variables dropped after this step (M3 only), sorted.
    pub dropped: Vec<String>,
    /// This term's cost contribution under the model.
    pub cost: f64,
}

/// A fully explained physical plan.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Index into [`Explanation::candidates`] of the rewriting planned.
    pub candidate: usize,
    /// The rewriting, rendered.
    pub rewriting: String,
    /// The physical plan, rendered (M1 renders the unordered body).
    pub plan: String,
    /// Total cost under the model, as reported by the plan search.
    pub cost: f64,
    /// Per-term breakdown; sums to the measured plan cost.
    pub terms: Vec<TermReport>,
}

/// The complete provenance report behind one `rewrite`/`plan` answer.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The input query, rendered.
    pub query: String,
    /// The minimized query the search actually ran on.
    pub minimized_query: String,
    /// Whether the minimized query's hypergraph is acyclic (GYO reduces
    /// it fully) — when true, containment checks against it are
    /// fast-path eligible and Yannakakis evaluation applies. Structural:
    /// independent of which containment route actually runs.
    pub acyclic: bool,
    /// Hypertree-width estimate of the minimized query (1 iff acyclic).
    pub hypertree_width: usize,
    /// Cost model tag: `m1`, `m2`, or `m3`.
    pub model: &'static str,
    /// Whether all minimal covers were enumerated (vs. globally minimal).
    pub all_minimal: bool,
    /// Views in the input.
    pub views_total: usize,
    /// Equivalence classes among them.
    pub view_classes: usize,
    /// Views discarded by the VP006 usability pre-filter.
    pub pruned_views: Vec<String>,
    /// Views that survived into the search.
    pub surviving_views: Vec<String>,
    /// View tuples enumerated / representatives after grouping.
    pub view_tuples: usize,
    /// Representative tuples after tuple grouping.
    pub representative_tuples: usize,
    /// Tuples whose core came out empty (filter candidates).
    pub empty_core_tuples: usize,
    /// True when enumeration hit the rewriting cap.
    pub truncated: bool,
    /// Budget outcome of the run, rendered.
    pub completeness: String,
    /// Every candidate cover with its verdict.
    pub candidates: Vec<CandidateReport>,
    /// The cheapest plan under the model, when one could be built.
    pub winner: Option<PlanReport>,
    /// The second-cheapest plan, when at least two candidates planned.
    pub runner_up: Option<PlanReport>,
}

fn verdict_tag(v: &CandidateVerdict) -> &'static str {
    match v {
        CandidateVerdict::Accepted => "accepted",
        CandidateVerdict::DuplicateVariant { .. } => "duplicate_variant",
        CandidateVerdict::NotEquivalent => "not_equivalent",
        CandidateVerdict::Unverified => "unverified",
    }
}

/// Renders an M1 "plan": the body as an unordered set.
fn m1_plan_string(r: &ConjunctiveQuery) -> String {
    let atoms: Vec<String> = r.body.iter().map(|a| a.to_string()).collect();
    format!("{{{}}}", atoms.join(", "))
}

/// Builds the per-term breakdown by executing `plan` against the view
/// database — the reported sizes are exact, the same quantities the
/// `ExactOracle` costed the plan with.
fn measured_terms(
    plan: &PhysicalPlan,
    head: &viewplan_cq::Atom,
    vdb: &Database,
) -> Result<Vec<TermReport>, PlanError> {
    let trace = plan.try_execute(head, vdb)?;
    Ok(plan
        .steps
        .iter()
        .zip(trace.subgoal_sizes.iter().zip(&trace.intermediate_sizes))
        .map(|(step, (&gsize, &isize))| {
            let mut dropped: Vec<&str> = step.drop_after.iter().map(|s| s.as_str()).collect();
            dropped.sort_unstable();
            TermReport {
                atom: step.atom.to_string(),
                relation_size: Some(gsize as u64),
                intermediate_size: Some(isize as u64),
                dropped: dropped.into_iter().map(str::to_string).collect(),
                cost: gsize as f64 + isize as f64,
            }
        })
        .collect())
}

/// Plans one accepted candidate under the model; `Ok(None)` when the plan
/// search could not produce a plan (too wide for the model's search, or
/// the budget exhausted mid-search), `Err` when the engine rejected the
/// chosen plan outright.
fn plan_candidate(
    model: CostModel,
    query: &ConjunctiveQuery,
    views: &ViewSet,
    candidate: usize,
    rewriting: &ConjunctiveQuery,
    vdb: &Database,
) -> Result<Option<PlanReport>, PlanError> {
    match model {
        CostModel::M1 => Ok(Some(PlanReport {
            candidate,
            rewriting: rewriting.to_string(),
            plan: m1_plan_string(rewriting),
            cost: rewriting.body.len() as f64,
            terms: rewriting
                .body
                .iter()
                .map(|a| TermReport {
                    atom: a.to_string(),
                    relation_size: None,
                    intermediate_size: None,
                    dropped: Vec::new(),
                    cost: 1.0,
                })
                .collect(),
        })),
        CostModel::M2 => {
            let mut oracle = ExactOracle::new(vdb);
            let Some((order, _, cost)) = try_optimal_m2_order(&rewriting.body, &mut oracle)
                .ok()
                .flatten()
            else {
                return Ok(None);
            };
            let atoms: Vec<viewplan_cq::Atom> =
                order.iter().map(|&i| rewriting.body[i].clone()).collect();
            let plan = PhysicalPlan::ordered(atoms);
            Ok(Some(PlanReport {
                candidate,
                rewriting: rewriting.to_string(),
                plan: plan.to_string(),
                cost,
                terms: measured_terms(&plan, &rewriting.head, vdb)?,
            }))
        }
        CostModel::M3(policy) => {
            let mut oracle = ExactOracle::new(vdb);
            let Some((plan, cost)) =
                try_optimal_m3_plan(query, views, rewriting, policy, &mut oracle)
                    .ok()
                    .flatten()
            else {
                return Ok(None);
            };
            Ok(Some(PlanReport {
                candidate,
                rewriting: rewriting.to_string(),
                plan: plan.to_string(),
                cost,
                terms: measured_terms(&plan, &rewriting.head, vdb)?,
            }))
        }
    }
}

/// Runs the rewrite search with provenance collection on and explains the
/// outcome. `model` needs ground facts (a non-empty `base`) for M2/M3;
/// the CLI enforces that before calling here.
pub fn explain(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    base: &Database,
    model: CostModel,
    all_minimal: bool,
) -> Result<Explanation, PlanError> {
    let config = CoreCoverConfig {
        collect_provenance: true,
        ..CoreCoverConfig::default()
    };
    let cc = CoreCover::new(query, views).with_config(config);
    let result = if all_minimal {
        cc.try_run_all_minimal()?
    } else {
        cc.try_run()?
    };
    let provenance = result
        .provenance
        .as_ref()
        .expect("collect_provenance was set");

    let candidates: Vec<CandidateReport> = {
        // The cross-check must not inherit the request's budget: an
        // oracle cut short would read as a disagreement.
        let _unbudgeted = viewplan_obs::budget::install(viewplan_obs::Budget::unlimited());
        provenance
            .candidates
            .iter()
            .map(|c| CandidateReport {
                rewriting: c.rewriting.to_string(),
                views_used: c.views_used.clone(),
                verdict: verdict_tag(&c.verdict),
                variant_of: match c.verdict {
                    CandidateVerdict::DuplicateVariant { of } => Some(of),
                    _ => None,
                },
                decided_by: c.decided_by.map(DecidedBy::label),
                retried: c.retried,
                oracle_agrees: (c.decided_by == Some(DecidedBy::Certificate))
                    .then(|| is_equivalent_rewriting(&c.rewriting, query, views)),
            })
            .collect()
    };

    // Rank every accepted candidate by its best plan cost under the
    // model; ties break on candidate order, so the report is stable.
    let (winner, runner_up) = {
        let vdb = materialize_views(views, base);
        let mut planned: Vec<PlanReport> = Vec::new();
        for (i, c) in provenance
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.verdict == CandidateVerdict::Accepted)
        {
            if let Some(report) = plan_candidate(model, query, views, i, &c.rewriting, &vdb)? {
                planned.push(report);
            }
        }
        planned.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.candidate.cmp(&b.candidate))
        });
        let mut it = planned.into_iter();
        (it.next(), it.next())
    };

    let s = &result.stats;
    Ok(Explanation {
        query: query.to_string(),
        minimized_query: result.minimized_query.to_string(),
        acyclic: viewplan_cq::is_acyclic(&result.minimized_query.body),
        hypertree_width: viewplan_cq::hypertree_width_estimate(&result.minimized_query.body),
        model: match model {
            CostModel::M1 => "m1",
            CostModel::M2 => "m2",
            CostModel::M3(_) => "m3",
        },
        all_minimal,
        views_total: s.views,
        view_classes: s.view_classes,
        pruned_views: provenance.pruned_views.clone(),
        surviving_views: provenance.surviving_views.clone(),
        view_tuples: s.view_tuples,
        representative_tuples: s.representative_tuples,
        empty_core_tuples: s.empty_core_tuples,
        truncated: s.truncated,
        completeness: s.completeness.to_string(),
        candidates,
        winner,
        runner_up,
    })
}

/// Convenience: explain with the default drop policy for a model name.
/// Returns `None` for an unknown name.
pub fn model_from_name(name: &str) -> Option<CostModel> {
    match name {
        "m1" => Some(CostModel::M1),
        "m2" => Some(CostModel::M2),
        "m3" => Some(CostModel::M3(DropPolicy::SmartCostBased)),
        _ => None,
    }
}

fn json_plan(p: &PlanReport) -> Json {
    let mut o = BTreeMap::new();
    o.insert("candidate".into(), Json::num(p.candidate as u64));
    o.insert("rewriting".into(), Json::str(&p.rewriting));
    o.insert("plan".into(), Json::str(&p.plan));
    o.insert("cost".into(), Json::Number(p.cost));
    o.insert(
        "terms".into(),
        Json::Array(
            p.terms
                .iter()
                .map(|t| {
                    let mut term = BTreeMap::new();
                    term.insert("atom".into(), Json::str(&t.atom));
                    if let Some(g) = t.relation_size {
                        term.insert("relation_size".into(), Json::num(g));
                    }
                    if let Some(i) = t.intermediate_size {
                        term.insert("intermediate_size".into(), Json::num(i));
                    }
                    if !t.dropped.is_empty() {
                        term.insert(
                            "dropped".into(),
                            Json::Array(t.dropped.iter().map(Json::str).collect()),
                        );
                    }
                    term.insert("cost".into(), Json::Number(t.cost));
                    Json::Object(term)
                })
                .collect(),
        ),
    );
    Json::Object(o)
}

impl Explanation {
    /// The stable JSON form (`explain --json`). Schema version 1; the
    /// golden tests pin this byte-for-byte, so every field here must be
    /// deterministic for a fixed input file.
    pub fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::Array(v.iter().map(Json::str).collect());
        let mut o = BTreeMap::new();
        o.insert("schema_version".into(), Json::num(1));
        o.insert("query".into(), Json::str(&self.query));
        o.insert("minimized_query".into(), Json::str(&self.minimized_query));
        let mut structure = BTreeMap::new();
        structure.insert("acyclic".into(), Json::Bool(self.acyclic));
        structure.insert(
            "hypertree_width".into(),
            Json::num(self.hypertree_width as u64),
        );
        o.insert("structure".into(), Json::Object(structure));
        o.insert("model".into(), Json::str(self.model));
        o.insert("all_minimal".into(), Json::Bool(self.all_minimal));

        let mut views = BTreeMap::new();
        views.insert("total".into(), Json::num(self.views_total as u64));
        views.insert("classes".into(), Json::num(self.view_classes as u64));
        views.insert("pruned".into(), strings(&self.pruned_views));
        views.insert("surviving".into(), strings(&self.surviving_views));
        o.insert("views".into(), Json::Object(views));

        let mut search = BTreeMap::new();
        search.insert("view_tuples".into(), Json::num(self.view_tuples as u64));
        search.insert(
            "representative_tuples".into(),
            Json::num(self.representative_tuples as u64),
        );
        search.insert(
            "empty_core_tuples".into(),
            Json::num(self.empty_core_tuples as u64),
        );
        search.insert("truncated".into(), Json::Bool(self.truncated));
        search.insert("completeness".into(), Json::str(&self.completeness));
        o.insert("search".into(), Json::Object(search));

        o.insert(
            "candidates".into(),
            Json::Array(
                self.candidates
                    .iter()
                    .map(|c| {
                        let mut cand = BTreeMap::new();
                        cand.insert("rewriting".into(), Json::str(&c.rewriting));
                        cand.insert("views_used".into(), strings(&c.views_used));
                        cand.insert("verdict".into(), Json::str(c.verdict));
                        if let Some(of) = c.variant_of {
                            cand.insert("variant_of".into(), Json::num(of as u64));
                        }
                        if let Some(by) = c.decided_by {
                            cand.insert("decided_by".into(), Json::str(by));
                        }
                        if c.retried {
                            cand.insert("retried".into(), Json::Bool(true));
                        }
                        if let Some(agrees) = c.oracle_agrees {
                            cand.insert("oracle_agrees".into(), Json::Bool(agrees));
                        }
                        Json::Object(cand)
                    })
                    .collect(),
            ),
        );
        o.insert(
            "winner".into(),
            self.winner.as_ref().map_or(Json::Null, json_plan),
        );
        o.insert(
            "runner_up".into(),
            self.runner_up.as_ref().map_or(Json::Null, json_plan),
        );
        Json::Object(o)
    }

    /// The human-readable form (`explain` without `--json`).
    pub fn render_human(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "query:           {}", self.query);
        let _ = writeln!(out, "minimized query: {}", self.minimized_query);
        if self.acyclic {
            let _ = writeln!(
                out,
                "structure:       acyclic (hypertree width 1) — semijoin \
                 fast path eligible"
            );
        } else {
            let _ = writeln!(
                out,
                "structure:       cyclic (hypertree width ~{}) — homomorphism search",
                self.hypertree_width
            );
        }
        let _ = writeln!(
            out,
            "model: {}   covers: {}",
            self.model,
            if self.all_minimal {
                "all-minimal"
            } else {
                "globally-minimal"
            }
        );

        let _ = writeln!(
            out,
            "\nviews: {} ({} equivalence class(es)); {} pruned by VP006, {} surviving",
            self.views_total,
            self.view_classes,
            self.pruned_views.len(),
            self.surviving_views.len()
        );
        for v in &self.pruned_views {
            let _ = writeln!(out, "  - {v}  (pruned: cannot appear in any rewriting)");
        }
        for v in &self.surviving_views {
            let _ = writeln!(out, "  + {v}");
        }

        let _ = writeln!(
            out,
            "\nsearch: {} view tuple(s) -> {} representative(s); {} empty-core; completeness: {}{}",
            self.view_tuples,
            self.representative_tuples,
            self.empty_core_tuples,
            self.completeness,
            if self.truncated {
                " (truncated at the rewriting cap)"
            } else {
                ""
            }
        );

        let _ = writeln!(out, "\ncandidate covers ({}):", self.candidates.len());
        for (i, c) in self.candidates.iter().enumerate() {
            let verdict = match (c.verdict, c.variant_of) {
                ("duplicate_variant", Some(of)) => {
                    format!("rejected: variable-renaming variant of #{of}")
                }
                ("accepted", _) => "accepted".into(),
                ("not_equivalent", _) => "rejected: expansion not equivalent to the query".into(),
                ("unverified", _) => "unverified: budget exhausted before the check".into(),
                (other, _) => other.into(),
            };
            let _ = writeln!(out, "  #{i} {}", c.rewriting);
            let decided = match (c.decided_by, c.retried) {
                (Some(by), true) => format!("  decided by: {by}, after swapping in class-mates"),
                (Some(by), false) => format!("  decided by: {by}"),
                (None, _) => String::new(),
            };
            let _ = writeln!(
                out,
                "      views: [{}]  verdict: {verdict}{decided}",
                c.views_used.join(", ")
            );
            if c.oracle_agrees == Some(false) {
                let _ = writeln!(
                    out,
                    "      !!! CERTIFICATE AND ORACLE DISAGREE: the certificate vouched for \
                     this cover, but its expansion is not equivalent to the query — this \
                     is a bug"
                );
            }
        }
        let rechecked = self
            .candidates
            .iter()
            .filter(|c| c.oracle_agrees.is_some())
            .count();
        let disagreements = self
            .candidates
            .iter()
            .filter(|c| c.oracle_agrees == Some(false))
            .count();
        let _ = writeln!(
            out,
            "cross-check: {rechecked} certified cover(s) re-checked against the oracle, \
             {disagreements} disagreement(s)"
        );

        let mut plan_section = |title: &str, p: &PlanReport| {
            let _ = writeln!(out, "\n{title} (candidate #{}):", p.candidate);
            let _ = writeln!(out, "  rewriting: {}", p.rewriting);
            let _ = writeln!(out, "  plan:      {}", p.plan);
            let _ = writeln!(out, "  cost:      {}", p.cost);
            for t in &p.terms {
                let sizes = match (t.relation_size, t.intermediate_size) {
                    (Some(g), Some(ir)) => format!("size(g)={g} size(IR)={ir}"),
                    _ => "unit".into(),
                };
                let dropped = if t.dropped.is_empty() {
                    String::new()
                } else {
                    format!("  drop[{}]", t.dropped.join(", "))
                };
                let _ = writeln!(out, "    {}  {sizes} cost={}{dropped}", t.atom, t.cost);
            }
        };
        match (&self.winner, &self.runner_up) {
            (Some(w), Some(r)) => {
                plan_section("winning plan", w);
                plan_section("runner-up plan", r);
            }
            (Some(w), None) => {
                plan_section("winning plan", w);
                let _ = writeln!(out, "\n(no runner-up: only one candidate could be planned)");
            }
            (None, _) => {
                let _ = writeln!(out, "\n(no plan: no accepted candidate could be planned)");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};

    fn example_1_1() -> (ConjunctiveQuery, ViewSet) {
        let query =
            parse_query("q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)").unwrap();
        let views = parse_views(
            "v1(M, D, C)    :- car(M, D), loc(D, C).
             v2(S, M, C)    :- part(S, M, C).
             v3(S)          :- car(M, anderson), loc(anderson, C), part(S, M, C).
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
             v5(M, D, C)    :- car(M, D), loc(D, C).
             v6(X, Y)       :- highway(X, Y).",
        )
        .unwrap();
        (query, views)
    }

    #[test]
    fn m1_explanation_reports_pruning_and_verdicts() {
        let (query, views) = example_1_1();
        let e = explain(&query, &views, &Database::new(), CostModel::M1, false).unwrap();
        // v6 mentions a predicate the query never uses: VP006 prunes it.
        assert_eq!(e.pruned_views, vec!["v6".to_string()]);
        assert!(!e.surviving_views.contains(&"v6".to_string()));
        assert_eq!(e.views_total, 6);
        assert!(!e.candidates.is_empty());
        // The globally-minimal cover is the single v4 access, and every
        // candidate carries a verdict tag.
        let winner = e.winner.as_ref().expect("a winner under M1");
        assert_eq!(winner.cost, 1.0);
        assert!(winner.rewriting.contains("v4"));
        for c in &e.candidates {
            assert!(matches!(
                c.verdict,
                "accepted" | "duplicate_variant" | "not_equivalent" | "unverified"
            ));
        }
    }

    #[test]
    fn candidates_name_the_deciding_check_and_certified_ones_are_rechecked() {
        // va hides X, so {va, vb} goes to the oracle and fails; the
        // class-mate va2 exposes X and the certificate vouches for it.
        let query = parse_query("q(P, R) :- e(P, X), g(X, Y), f(Y, R)").unwrap();
        let views = parse_views(
            "va(P, Y) :- e(P, X), g(X, Y).
             va2(P, X, Y) :- e(P, X), g(X, Y).
             vb(X, R) :- g(X, Y), f(Y, R).",
        )
        .unwrap();
        let mut e = explain(&query, &views, &Database::new(), CostModel::M1, false).unwrap();
        let c = &e.candidates[0];
        assert_eq!(c.rewriting, "q(P, R) :- va2(P, X, Y), vb(X, R)");
        assert_eq!(
            (c.verdict, c.decided_by, c.retried, c.oracle_agrees),
            ("accepted", Some("certificate"), true, Some(true))
        );
        let human = e.render_human();
        assert!(human.contains("decided by: certificate, after swapping in class-mates"));
        assert!(human.contains("1 certified cover(s) re-checked against the oracle, 0 disag"));
        assert!(!human.contains("DISAGREE"));
        // A certificate the oracle contradicts cannot be produced from
        // outside, so forge the report: it must not pass quietly.
        e.candidates[0].oracle_agrees = Some(false);
        assert!(e
            .render_human()
            .contains("!!! CERTIFICATE AND ORACLE DISAGREE"));
        let doc = viewplan_obs::parse_json(&e.to_json().render()).unwrap();
        let Json::Array(candidates) = doc.get("candidates").unwrap() else {
            panic!("candidates must be an array");
        };
        assert_eq!(candidates[0].get("oracle_agrees"), Some(&Json::Bool(false)));
    }

    #[test]
    fn all_minimal_m1_has_a_runner_up_and_ranks_by_subgoal_count() {
        let (query, views) = example_1_1();
        let e = explain(&query, &views, &Database::new(), CostModel::M1, true).unwrap();
        let w = e.winner.as_ref().expect("winner");
        let r = e
            .runner_up
            .as_ref()
            .expect("runner-up among minimal covers");
        assert!(w.cost <= r.cost);
        assert_eq!(w.terms.iter().map(|t| t.cost).sum::<f64>(), w.cost);
    }

    #[test]
    fn json_form_is_stable_and_round_trips() {
        let (query, views) = example_1_1();
        let e = explain(&query, &views, &Database::new(), CostModel::M1, false).unwrap();
        let doc = e.to_json().render();
        let parsed = viewplan_obs::parse_json(&doc).unwrap();
        assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("model").unwrap().as_str(), Some("m1"));
        assert!(parsed.get("winner").unwrap().get("cost").is_some());
        // Structural acyclicity provenance (independent of the
        // containment route, so goldens hold with the fast path on or off).
        let structure = parsed.get("structure").unwrap();
        assert_eq!(structure.get("hypertree_width").unwrap().as_u64(), Some(1));
        // Deterministic: a second run renders the identical document.
        let e2 = explain(&query, &views, &Database::new(), CostModel::M1, false).unwrap();
        assert_eq!(e2.to_json().render(), doc);
    }

    #[test]
    fn m3_breakdown_sums_to_the_measured_cost() {
        // Example 6.1 / Figure 5: the renaming drop makes the M3 plan
        // cheaper than its M2 counterpart.
        let query = parse_query("q(A) :- r(A, B), s(B, C), t(D, B)").unwrap();
        let views = parse_views(
            "v1(A, B) :- r(A, B).
             v2(B, C) :- s(B, C).
             v3(D, B) :- t(D, B).",
        )
        .unwrap();
        let mut base = Database::new();
        base.insert_int("r", &[&[1, 1], &[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        base.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        base.insert_int("t", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let e = explain(
            &query,
            &views,
            &base,
            CostModel::M3(DropPolicy::SmartCostBased),
            false,
        )
        .unwrap();
        let w = e.winner.as_ref().expect("an M3 winner");
        let measured: f64 = w.terms.iter().map(|t| t.cost).sum();
        assert_eq!(measured, w.cost, "per-term breakdown must sum to the cost");
        assert_eq!(w.terms.len(), 3);
        assert!(w.terms.iter().all(|t| t.relation_size.is_some()));
    }
}
