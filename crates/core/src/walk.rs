//! Step (5) of `CoreCover`, on demand: the covers of step (4) stay
//! unbuilt in the [`CoreCoverResult`], and a rewriting is built and
//! decided only when a walk reaches its cover.
//!
//! # Deciding one cover
//!
//! A cover's fate is decided once per result and kept, whichever walk
//! asks first ([`crate::corecover`] module docs, "Certified covers"):
//!
//! 1. *Dedup.* The cover's rewriting of class representatives is
//!    dropped when it is a variable renaming of the rewriting of an
//!    earlier cover in lexicographic order: the first variant is kept,
//!    as §3.3 keeps one rewriting per renaming class. Only earlier
//!    covers with the same renaming-invariant shape hash can be
//!    renamings, and those are found through a chain precomputed for
//!    every cover, so no other cover has to be built.
//! 2. *Certificate.* The bitmask certificate, tested for every cover
//!    up front because the walk's order depends on it.
//! 3. *Oracle, then class-mates.* A cover the certificate cannot vouch
//!    for is expanded and tested for equivalence with the query; when
//!    that fails, class-mates that expose other variables are tried in
//!    its place before the cover is dropped.
//!
//! # The walk
//!
//! [`CoreCoverResult::walk`] takes a weight per view tuple — a relation
//! size under M2/M3, 1 under M1 — and visits the covers by ascending
//! (key, lexicographic index). A cover's *key* is a lower bound on the
//! weight of whatever rewriting it becomes: the sum over its class
//! representatives when the certificate vouches for it, since then the
//! rewriting is those representatives; otherwise the sum over its
//! members of the cheapest view tuple each could be retried with. The
//! caller hands [`CoverWalk::next_within`] the plan it holds as an
//! incumbent `(cost, cover)`, and the walk stops at the first cover that
//! cannot beat it: a key above the cost, or equal to it at a later
//! index. Every cover after that one sorts after it, so none of them
//! could win either, and none is built. A caller whose cost for a
//! rewriting is at least the weight of its view tuples, with ties going
//! to the smaller index, therefore chooses what it would have chosen
//! planning every rewriting in index order with a strict `<`.
//!
//! `CoreCoverResult::rewritings` is the same decisions in index order
//! with no incumbent, materialised once.

use crate::certificate::certify;
use crate::corecover::{
    exposed_variables, CandidateCover, CandidateVerdict, CoreCoverResult, DecidedBy,
};
use crate::lattice::is_equivalent_rewriting;
use crate::rewriting::Rewriting;
use crate::tuple_core::TupleCore;
use crate::view_tuple::ViewTuple;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;
use viewplan_containment::is_variant;
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, ViewSet};
use viewplan_obs as obs;

// Single registration site per counter name (the xtask lint enforces
// this): every cover that is not a duplicate is noted here once.
fn note_decided(fate: &Fate) {
    let accepted = matches!(fate, Fate::Accepted { .. });
    let certified = matches!(
        fate,
        Fate::Accepted {
            by: DecidedBy::Certificate,
            mates: None,
            ..
        }
    );
    obs::counter!("corecover.covers_certified").add(u64::from(certified));
    obs::counter!("corecover.covers_oracle_checked").add(u64::from(!certified));
    obs::counter!("corecover.rewritings").add(u64::from(accepted));
    if accepted {
        return;
    }
    if obs::budget::current().is_some() {
        // Under a budget a failed oracle check can mean the equivalence
        // search was cut short: shed for lack of proof, not disproved.
        obs::counter!("budget.unverified_dropped").incr();
    } else {
        obs::counter!("corecover.nonequivalent_covers").incr();
    }
}

fn note_covers_pruned_by_bound(covers: usize) {
    obs::counter!("corecover.covers_pruned_by_bound").add(covers as u64);
}

/// The covers of step (4), unbuilt, with what deciding them needs.
#[derive(Clone, Debug)]
pub(crate) struct CoverSpace {
    universe: u64,
    /// Each cover as view-tuple indices, in lexicographic order.
    covers: Vec<Vec<usize>>,
    /// Whether the certificate vouches for each cover.
    certified: Vec<bool>,
    /// The latest earlier cover with the same shape hash: the chain of
    /// covers each cover's rewriting could be a renaming of.
    same_shape_before: Vec<Option<usize>>,
    /// Per view tuple, what a failed cover retries it with: itself
    /// first, then one class-mate per other set of exposed variables.
    /// `None` without tuple grouping or when every cover is certified;
    /// an empty entry stands for the tuple alone.
    mates: Option<Vec<Vec<usize>>>,
    /// The definitions the oracle expands; empty when every cover is
    /// certified, so that no cover reaches the oracle.
    views: ViewSet,
    fates: Vec<OnceLock<Fate>>,
}

/// What deciding one cover found.
#[derive(Clone, Debug)]
pub(crate) enum Fate {
    /// A renaming of the rewriting of the earlier cover `of`.
    Duplicate { of: usize },
    /// A rewriting; `mates` are the view tuples it uses when a
    /// class-mate retry replaced the cover's representatives.
    Accepted {
        rewriting: Rewriting,
        by: DecidedBy,
        mates: Option<Vec<usize>>,
    },
    /// No check vouched for it (always last decided by the oracle).
    Rejected,
}

impl Fate {
    /// The check that decided the fate; `None` for a duplicate.
    fn by(&self) -> Option<DecidedBy> {
        match self {
            Fate::Duplicate { .. } => None,
            Fate::Accepted { by, .. } => Some(*by),
            Fate::Rejected => Some(DecidedBy::Oracle),
        }
    }
}

impl CoverSpace {
    /// Certifies every cover, chains the covers by shape, and — when some
    /// cover will need the oracle — keeps the definitions it expands and
    /// the class-mates a retry tries.
    #[allow(clippy::too_many_arguments)] // the pieces of a result that does not exist yet
    pub(crate) fn new(
        qm: &ConjunctiveQuery,
        tuples: &[ViewTuple],
        cores: &[TupleCore],
        tuple_classes: &[Vec<usize>],
        views: &ViewSet,
        universe: u64,
        covers: Vec<Vec<usize>>,
        group_view_tuples: bool,
    ) -> CoverSpace {
        let mut parts: Vec<&[u64]> = Vec::new();
        let certified: Vec<bool> = covers
            .iter()
            .map(|cover| {
                parts.clear();
                parts.extend(cover.iter().map(|&t| cores[t].parts.as_slice()));
                certify(universe, &parts)
            })
            .collect();
        let shapes: Vec<u64> = tuples
            .iter()
            .map(|t| shape_hash(&qm.head, &t.atom))
            .collect();
        let mut latest: HashMap<u64, usize> = HashMap::with_capacity(covers.len());
        let same_shape_before = covers
            .iter()
            .enumerate()
            .map(|(c, cover)| {
                let shape = cover.iter().fold(0u64, |h, &t| h.wrapping_add(shapes[t]));
                match latest.entry(shape) {
                    Entry::Occupied(mut e) => Some(std::mem::replace(e.get_mut(), c)),
                    Entry::Vacant(e) => {
                        e.insert(c);
                        None
                    }
                }
            })
            .collect();
        let oracle_needed = certified.contains(&false);
        let mates = (oracle_needed && group_view_tuples).then(|| {
            let mut mates = vec![Vec::new(); tuples.len()];
            for class in tuple_classes.iter().filter(|class| class.len() > 1) {
                mates[class[0]] = mates_by_exposure(qm, tuples, cores, class);
            }
            mates
        });
        let views = if oracle_needed {
            let mut names: Vec<Symbol> = tuples.iter().map(|t| t.view).collect();
            names.sort_unstable();
            names.dedup();
            ViewSet::from_views(names.into_iter().filter_map(|n| views.get(n)).cloned())
        } else {
            ViewSet::new()
        };
        let fates = (0..covers.len()).map(|_| OnceLock::new()).collect();
        CoverSpace {
            universe,
            covers,
            certified,
            same_shape_before,
            mates,
            views,
            fates,
        }
    }

    /// Number of covers.
    pub(crate) fn len(&self) -> usize {
        self.covers.len()
    }

    /// True iff some cover decided so far was dropped.
    pub(crate) fn any_rejected(&self) -> bool {
        self.fates
            .iter()
            .any(|f| matches!(f.get(), Some(Fate::Rejected)))
    }
}

/// A hash of `atom` that a renaming of the variables outside `head`
/// leaves unchanged: predicate, constants, head variables by name, other
/// variables by the position of their first occurrence in the atom. Two
/// rewritings with the same head that are renamings of each other map
/// head onto head, so their atoms pair up with equal hashes, and summing
/// over a cover gives renamings the same hash.
fn shape_hash(head: &Atom, atom: &Atom) -> u64 {
    let mut h = DefaultHasher::new();
    atom.predicate.hash(&mut h);
    for (i, t) in atom.terms.iter().enumerate() {
        match *t {
            Term::Const(c) => (0u8, c).hash(&mut h),
            Term::Var(v) if head.terms.contains(t) => (1u8, v).hash(&mut h),
            Term::Var(_) => {
                let first = atom.terms[..i].iter().position(|x| x == t).unwrap_or(i);
                (2u8, first).hash(&mut h);
            }
        }
    }
    h.finish()
}

/// The members of one tuple-core class worth trying in a cover: the
/// representative, then the first mate for every other set of exposed
/// variables.
fn mates_by_exposure(
    qm: &ConjunctiveQuery,
    tuples: &[ViewTuple],
    cores: &[TupleCore],
    class: &[usize],
) -> Vec<usize> {
    let mut seen: Vec<Vec<Symbol>> = Vec::new();
    let mut mates = Vec::new();
    for &i in class {
        let exposed = exposed_variables(qm, &tuples[i], &cores[i]);
        if !seen.contains(&exposed) {
            seen.push(exposed);
            mates.push(i);
        }
    }
    mates
}

/// The first combination of one pick per list that `check` passes, with
/// what it returned. The last list varies fastest; the combination of
/// every list's first entry — the cover that already failed — is
/// skipped. Gives up when the ambient budget's cover meter runs out.
fn first_other_combination<T>(
    alternatives: &[Vec<usize>],
    check: &mut dyn FnMut(&[usize]) -> Option<T>,
) -> Option<(Vec<usize>, T)> {
    let mut meter = obs::Meter::start(obs::Phase::Cover);
    let mut pick = vec![0usize; alternatives.len()];
    loop {
        let mut pos = pick.len();
        loop {
            if pos == 0 {
                return None;
            }
            pos -= 1;
            pick[pos] += 1;
            if pick[pos] < alternatives[pos].len() {
                break;
            }
            pick[pos] = 0;
        }
        if !meter.tick() {
            return None;
        }
        let members: Vec<usize> = pick.iter().zip(alternatives).map(|(&p, a)| a[p]).collect();
        if let Some(passed) = check(&members) {
            return Some((members, passed));
        }
    }
}

impl CoreCoverResult {
    /// Walks the covers by ascending key under `weight` (module docs):
    /// the relation size of each view tuple's view for M2/M3, 1 for M1.
    /// Weights must be non-negative and the same for two view tuples that
    /// differ only in variable names.
    pub fn walk(&self, mut weight: impl FnMut(&ViewTuple) -> f64) -> CoverWalk<'_> {
        let space = &self.space;
        let weights: Vec<f64> = self.view_tuples.iter().map(&mut weight).collect();
        let floor = |t: usize| match &space.mates {
            Some(mates) => mates[t].iter().fold(weights[t], |w, &m| w.min(weights[m])),
            None => weights[t],
        };
        let mut order: Vec<(f64, usize)> = space
            .covers
            .iter()
            .enumerate()
            .map(|(c, cover)| {
                let key = if space.certified[c] {
                    cover.iter().fold(0.0, |s, &t| s + weights[t])
                } else {
                    cover.iter().fold(0.0, |s, &t| s + floor(t))
                };
                (key, c)
            })
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        CoverWalk {
            result: self,
            weights,
            order,
            next: 0,
        }
    }

    /// The fate of cover `c`, decided on first request.
    pub(crate) fn fate(&self, c: usize) -> &Fate {
        self.space.fates[c].get_or_init(|| {
            let fate = self.decide(c);
            if let Some(by) = fate.by() {
                note_decided(&fate);
                obs::trace_event!(
                    "corecover.cover_verified",
                    ("subgoals", self.space.covers[c].len()),
                    ("equivalent", matches!(fate, Fate::Accepted { .. })),
                    ("by", by.label())
                );
            }
            fate
        })
    }

    /// The rewriting made of view tuples `members`, in that order.
    fn rewriting_of(&self, members: &[usize]) -> Rewriting {
        ConjunctiveQuery::new(
            self.minimized_query.head.clone(),
            members
                .iter()
                .map(|&t| self.view_tuples[t].atom.clone())
                .collect(),
        )
    }

    fn decide(&self, c: usize) -> Fate {
        let space = &self.space;
        let cover = &space.covers[c];
        let candidate = self.rewriting_of(cover);
        let mut earlier = space.same_shape_before[c];
        let mut first_variant = None;
        while let Some(d) = earlier {
            if is_variant(&self.rewriting_of(&space.covers[d]), &candidate) {
                first_variant = Some(d);
            }
            earlier = space.same_shape_before[d];
        }
        if let Some(of) = first_variant {
            return Fate::Duplicate { of };
        }
        if space.certified[c] {
            return Fate::Accepted {
                rewriting: candidate,
                by: DecidedBy::Certificate,
                mates: None,
            };
        }
        let oracle =
            |r: &Rewriting| is_equivalent_rewriting(r, &self.minimized_query, &space.views);
        if oracle(&candidate) {
            return Fate::Accepted {
                rewriting: candidate,
                by: DecidedBy::Oracle,
                mates: None,
            };
        }
        // The cover of representatives is not a rewriting; a class-mate
        // that exposes other variables may make it one. Without tuple
        // grouping every mate is a candidate in its own right and its
        // covers are enumerated anyway.
        let alternatives: Vec<Vec<usize>> = match &space.mates {
            Some(mates) => cover
                .iter()
                .map(|&t| match mates[t].as_slice() {
                    [] => vec![t],
                    class => class.to_vec(),
                })
                .collect(),
            None => Vec::new(),
        };
        let passed = first_other_combination(&alternatives, &mut |members| {
            let parts: Vec<&[u64]> = members
                .iter()
                .map(|&t| self.cores[t].parts.as_slice())
                .collect();
            if certify(space.universe, &parts) {
                Some(DecidedBy::Certificate)
            } else {
                oracle(&self.rewriting_of(members)).then_some(DecidedBy::Oracle)
            }
        });
        match passed {
            Some((members, by)) => Fate::Accepted {
                rewriting: self.rewriting_of(&members),
                by,
                mates: Some(members),
            },
            None => Fate::Rejected,
        }
    }

    /// Every cover in enumeration order with its fate, deciding the ones
    /// not yet decided; `budgeted` labels a dropped cover unverified.
    pub(crate) fn candidates(&self, budgeted: bool) -> Vec<CandidateCover> {
        (0..self.space.len())
            .map(|c| {
                let fate = self.fate(c);
                let (rewriting, verdict) = match fate {
                    Fate::Duplicate { of } => (
                        self.rewriting_of(&self.space.covers[c]),
                        CandidateVerdict::DuplicateVariant { of: *of },
                    ),
                    Fate::Accepted { rewriting, .. } => {
                        (rewriting.clone(), CandidateVerdict::Accepted)
                    }
                    Fate::Rejected => (
                        self.rewriting_of(&self.space.covers[c]),
                        if budgeted {
                            CandidateVerdict::Unverified
                        } else {
                            CandidateVerdict::NotEquivalent
                        },
                    ),
                };
                CandidateCover {
                    views_used: rewriting
                        .body
                        .iter()
                        .map(|a| a.predicate.as_str().to_string())
                        .collect(),
                    rewriting,
                    verdict,
                    decided_by: fate.by(),
                    retried: matches!(fate, Fate::Accepted { mates: Some(_), .. }),
                }
            })
            .collect()
    }
}

/// A walk over a [`CoreCoverResult`]'s covers by ascending key, made by
/// [`CoreCoverResult::walk`].
pub struct CoverWalk<'r> {
    result: &'r CoreCoverResult,
    weights: Vec<f64>,
    /// `(key, cover)`, ascending; `order[next..]` is still to visit.
    order: Vec<(f64, usize)>,
    next: usize,
}

/// A rewriting a walk reached.
#[derive(Clone, Copy, Debug)]
pub struct Found<'r> {
    /// Its cover's index in lexicographic order: the tie-break.
    pub cover: usize,
    /// The weight of the view tuples it uses, summed in body order.
    pub bound: f64,
    /// The rewriting.
    pub rewriting: &'r Rewriting,
}

impl<'r> CoverWalk<'r> {
    /// The next rewriting that could still beat `incumbent`, a plan's
    /// `(cost, cover)` — ties going to the smaller cover — deciding the
    /// covers on the way. `None` once no cover left can: the rest are
    /// never built, and counted under `corecover.covers_pruned_by_bound`.
    pub fn next_within(&mut self, incumbent: Option<(f64, usize)>) -> Option<Found<'r>> {
        let _span = obs::span("corecover.verify");
        while let Some(&(key, cover)) = self.order.get(self.next) {
            if incumbent.is_some_and(|(cost, at)| key > cost || (key == cost && cover > at)) {
                note_covers_pruned_by_bound(self.order.len() - self.next);
                self.next = self.order.len();
                return None;
            }
            self.next += 1;
            if let Fate::Accepted {
                rewriting, mates, ..
            } = self.result.fate(cover)
            {
                let members = mates.as_deref().unwrap_or(&self.result.space.covers[cover]);
                let bound = members.iter().fold(0.0, |s, &t| s + self.weights[t]);
                return Some(Found {
                    cover,
                    bound,
                    rewriting,
                });
            }
        }
        None
    }
}
