//! Cross-query amortization on a shared context.
//!
//! Production traffic is many implications φ against few constraint
//! sets Σ, and both complete decision procedures have Σ-only phases
//! that are goal-independent and therefore amortizable:
//!
//! - the chase's prefix rounds over the bare root graph (captured by
//!   [`SharedChase`], resumed per query by
//!   [`crate::chase_implication_with`]);
//! - `post*` saturation of the prefix-rewriting system, which depends
//!   only on `(Σ, φ.lhs)` — so per distinct left-hand side the
//!   saturated automaton is cached and each query answers as NFA
//!   membership ([`SharedWord`]), plus the ε-collapse predicate and the
//!   certificate extractor's [`RuleIndex`], which are Σ-only and built
//!   once.
//!
//! A [`SharedContext`] bundles both and is attached to a
//! [`crate::Solver`] via [`crate::Solver::with_shared`]. Reuse is
//! guarded: each component checks that the query's Σ (and, for the
//! chase, the budget caps) is *identical* to what it was built from and
//! silently falls back to cold solving otherwise — the shared state is
//! an accelerator, never a source of different answers. Warm and cold
//! runs produce byte-identical verdicts, traces, and countermodels;
//! `reaches(α, β)` is *defined* as `post*(α) ∋ β`, so cached membership
//! is the same computation, and the shared chase resumes the exact
//! deterministic state a cold run recomputes inline.

use crate::chase::SharedChase;
use crate::outcome::Budget;
use crate::word::WordEngine;
use crate::word_evidence::{derivation_guided, Derivation, RuleIndex};
use pathcons_automata::{determinize_capped, Dfa, Nfa};
use pathcons_constraints::{Path, PathConstraint};
use pathcons_graph::Label;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-context word-constraint amortization: the prefix-rewriting
/// system and the derivation extractor's rule index built once, the
/// ε-collapse predicate precomputed, and one saturated `post*`
/// automaton cached per distinct query left-hand side.
pub struct SharedWord {
    sigma: Vec<PathConstraint>,
    engine: WordEngine,
    rules: RuleIndex,
    collapse: bool,
    /// `post*(lhs)` per lhs. Saturation is a function of `(Σ, lhs)`
    /// alone; the automaton is immutable once built, so clones of the
    /// `Arc` are handed out under a short lock.
    post: Mutex<BTreeMap<Vec<Label>, Arc<Nfa>>>,
    /// Determinized `post*(lhs)` per lhs, for callers that test many
    /// memberships against one saturation (certificate extraction).
    /// `None` records that determinization blew the state cap for this
    /// lhs, so it is not retried.
    post_dfa: Mutex<BTreeMap<Vec<Label>, Option<Arc<Dfa>>>>,
    /// Decisions answered from a cached saturation (one per query).
    hits: AtomicU64,
    /// Saturations computed.
    misses: AtomicU64,
}

/// Subset-state ceiling for the determinized `post*` cache: the DFA is
/// an accelerator for repeated membership, and an automaton that blows
/// this up determinizing is served by NFA membership instead.
const POST_DFA_STATE_CAP: usize = 4_096;

impl SharedWord {
    /// Builds the shared word state, or `None` when Σ is not a pure
    /// word-constraint theory (the word engine would never run on it).
    pub fn build(sigma: &[PathConstraint]) -> Option<SharedWord> {
        if !sigma.iter().all(|c| c.is_word()) {
            return None;
        }
        let engine = WordEngine::new(sigma).ok()?;
        let rules = RuleIndex::new(sigma)?;
        let collapse = engine.has_epsilon_collapse();
        Some(SharedWord {
            sigma: sigma.to_vec(),
            engine,
            rules,
            collapse,
            post: Mutex::new(BTreeMap::new()),
            post_dfa: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Whether this state was built from exactly this Σ (in order).
    pub fn compatible(&self, sigma: &[PathConstraint]) -> bool {
        self.sigma == sigma
    }

    /// The Σ-only ε-collapse predicate (see
    /// [`WordEngine::has_epsilon_collapse`]), paid once at build.
    pub fn has_epsilon_collapse(&self) -> bool {
        self.collapse
    }

    /// Pre-saturates `post*` for each of `words` (e.g. the left-hand
    /// sides expected in traffic).
    pub fn warm(&self, words: &[Vec<Label>]) {
        for word in words {
            let _ = self.consequences(word);
        }
    }

    /// The cached `post*(alpha)` automaton, saturating on first use;
    /// a cached one counts as a hit.
    pub fn consequences(&self, alpha: &[Label]) -> Arc<Nfa> {
        let (nfa, cached) = self.saturation(alpha);
        if cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        nfa
    }

    /// `post*(alpha)` and whether it was cached, counting a miss but no
    /// hit: the shared fetch behind decisions (which count their hit)
    /// and certificate extraction (which rides its decision's hit).
    fn saturation(&self, alpha: &[Label]) -> (Arc<Nfa>, bool) {
        let mut post = self.post.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(nfa) = post.get(alpha) {
            return (Arc::clone(nfa), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let nfa = Arc::new(self.engine.system().post_star(alpha));
        post.insert(alpha.to_vec(), Arc::clone(&nfa));
        (nfa, false)
    }

    /// Whether `lhs → rhs` is derivable — `post*(lhs) ∋ rhs`, which is
    /// exactly what a cold [`WordEngine::implies_word`] computes. A
    /// determinized `post*(lhs)` answers when one is cached (same
    /// language, `O(|rhs|)`, counted as a hit); the decision never
    /// determinizes itself, so first-touch cost stays one saturation.
    pub fn implies_word(&self, lhs: &Path, rhs: &Path) -> bool {
        let dfa = self
            .post_dfa
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(lhs.labels())
            .cloned()
            .flatten();
        match dfa {
            Some(dfa) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                dfa.accepts(rhs)
            }
            None => self.consequences(lhs).accepts(rhs),
        }
    }

    /// The cached *determinized* `post*(alpha)` automaton — same
    /// language as [`Self::consequences`], O(|word|) membership — or
    /// `None` when determinization blew the state cap for this alpha.
    /// Built once per lhs (subset construction is deterministic, so
    /// every caller sees the same automaton).
    pub fn consequences_dfa(&self, alpha: &[Label]) -> Option<Arc<Dfa>> {
        if let Some(cached) = self
            .post_dfa
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(alpha)
        {
            return cached.clone();
        }
        // Determinize outside the lock: the construction can be slow and
        // a racing builder computes the identical automaton anyway.
        let (nfa, _) = self.saturation(alpha);
        let alphabet: std::collections::BTreeSet<Label> = (0..nfa.state_count())
            .flat_map(|i| {
                nfa.transitions(pathcons_automata::StateId::from_index(i))
                    .map(|(l, _)| l)
                    .collect::<Vec<_>>()
            })
            .collect();
        let alphabet: Vec<Label> = alphabet.into_iter().collect();
        let dfa = determinize_capped(&nfa, &alphabet, POST_DFA_STATE_CAP).map(Arc::new);
        self.post_dfa
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(alpha.to_vec())
            .or_insert(dfa)
            .clone()
    }

    /// A shortest derivation of `alpha ⇒* beta` (see
    /// [`derivation_guided`]) over the rule index built with this
    /// state, guided by the cached `post*(alpha)` — determinized when
    /// the subset construction stays under its cap, the NFA otherwise;
    /// either decides the same language, so the derivation is the same.
    /// The guide is fetched on the search's first membership query (a
    /// reflexive derivation asks none, so it builds no DFA). Counts no
    /// hit: the decision that precedes extraction has.
    pub fn derivation(&self, alpha: &[Label], beta: &[Label], fuel: usize) -> Option<Derivation> {
        let mut guide: Option<Result<Arc<Dfa>, Arc<Nfa>>> = None;
        derivation_guided(&self.rules, alpha, beta, fuel, |w| {
            let guide = guide.get_or_insert_with(|| {
                self.consequences_dfa(alpha)
                    .ok_or_else(|| self.saturation(alpha).0)
            });
            match guide {
                Ok(dfa) => dfa.accepts(w),
                Err(nfa) => nfa.accepts(w),
            }
        })
    }

    /// `(hits, misses)` of the `post*` cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Counter snapshot of a [`SharedContext`], for service stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Queries that resumed the shared chase prefix.
    pub chase_reuses: u64,
    /// Chase rounds the prefix holds (saved per reusing query).
    pub prefix_rounds: u64,
    /// Repair steps the prefix holds.
    pub prefix_steps: u64,
    /// `post*` cache hits.
    pub word_hits: u64,
    /// `post*` cache misses (first-time saturations).
    pub word_misses: u64,
}

impl std::fmt::Debug for SharedContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedContext")
            .field("word", &self.word.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Everything one context shares across its queries: the Σ-only chase
/// prefix and (for word theories) the saturated-`post*` cache.
pub struct SharedContext {
    chase: SharedChase,
    word: Option<SharedWord>,
    chase_reuses: AtomicU64,
}

impl SharedContext {
    /// Builds all shared state for `sigma` under `budget`'s caps. Build
    /// with an unarmed deadline: the work done here is charged to the
    /// context, not to any query.
    pub fn build(sigma: &[PathConstraint], budget: &Budget) -> SharedContext {
        SharedContext {
            chase: SharedChase::build(sigma, budget),
            word: SharedWord::build(sigma),
            chase_reuses: AtomicU64::new(0),
        }
    }

    /// The shared chase prefix for a query on `sigma` under `budget`,
    /// or `None` when it is not an exact match (the caller then chases
    /// cold, inlining the prefix). Counts the reuse.
    pub fn chase_for(&self, sigma: &[PathConstraint], budget: &Budget) -> Option<&SharedChase> {
        if self.chase.compatible(sigma, budget) {
            self.chase_reuses.fetch_add(1, Ordering::Relaxed);
            Some(&self.chase)
        } else {
            None
        }
    }

    /// The shared word state for a query on `sigma`, or `None` when Σ
    /// differs or is not a word theory.
    pub fn word_for(&self, sigma: &[PathConstraint]) -> Option<&SharedWord> {
        self.word.as_ref().filter(|w| w.compatible(sigma))
    }

    /// The underlying chase prefix snapshot.
    pub fn chase(&self) -> &SharedChase {
        &self.chase
    }

    /// The underlying word state, when Σ is a word theory.
    pub fn word(&self) -> Option<&SharedWord> {
        self.word.as_ref()
    }

    /// Counter snapshot for service stats.
    pub fn stats(&self) -> SharedStats {
        let (word_hits, word_misses) = self
            .word
            .as_ref()
            .map(SharedWord::cache_stats)
            .unwrap_or((0, 0));
        SharedStats {
            chase_reuses: self.chase_reuses.load(Ordering::Relaxed),
            prefix_rounds: self.chase.rounds(),
            prefix_steps: self.chase.steps() as u64,
            word_hits,
            word_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    #[test]
    fn cached_post_star_matches_fresh_reaches() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(
            "book.author -> person\nperson.wrote -> book\nbook.ref -> book",
            &mut labels,
        )
        .unwrap();
        let shared = SharedWord::build(&sigma).expect("word theory");
        let engine = WordEngine::new(&sigma).unwrap();
        let queries = [
            ("book.ref.author", "person"),
            ("book.ref.ref.ref", "book"),
            ("book.ref.author.wrote", "book"),
            ("person", "book.author"),
            ("book.ref.author", "book"),
        ];
        for (lhs_text, rhs_text) in queries {
            let lhs = Path::parse(lhs_text, &mut labels).unwrap();
            let rhs = Path::parse(rhs_text, &mut labels).unwrap();
            assert_eq!(
                shared.implies_word(&lhs, &rhs),
                engine.implies_word(&lhs, &rhs),
                "{lhs_text} -> {rhs_text}"
            );
        }
        let (hits, misses) = shared.cache_stats();
        // Four distinct lhs, five queries: the repeat hits.
        assert_eq!(misses, 4);
        assert_eq!(hits, 1);
    }

    #[test]
    fn non_word_theories_have_no_word_state() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("K: a -> b", &mut labels).unwrap();
        assert!(SharedWord::build(&sigma).is_none());
        let shared = SharedContext::build(&sigma, &Budget::default());
        assert!(shared.word().is_none());
        assert!(shared.word_for(&sigma).is_none());
    }

    #[test]
    fn shared_state_refuses_a_different_sigma() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let other = parse_constraints("a -> c", &mut labels).unwrap();
        let budget = Budget::default();
        let shared = SharedContext::build(&sigma, &budget);
        assert!(shared.chase_for(&sigma, &budget).is_some());
        assert!(shared.chase_for(&other, &budget).is_none());
        assert!(shared.word_for(&other).is_none());
        let tighter = Budget {
            chase_rounds: 3,
            ..budget.clone()
        };
        assert!(shared.chase_for(&sigma, &tighter).is_none());
        assert_eq!(shared.stats().chase_reuses, 1);
    }
}
