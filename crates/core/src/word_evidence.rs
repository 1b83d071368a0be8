//! Evidence extraction for the word-constraint engine: concrete rewrite
//! derivations for positive answers and canonical countermodels for
//! negative ones.
//!
//! The `post*` decision procedure is complete but opaque; this module
//! turns its verdicts into artifacts a skeptic can replay:
//!
//! - [`derivation_guided`] — a shortest step-by-step prefix-rewrite
//!   sequence from `α` to `β`, checkable by [`Derivation::check`]. It is
//!   a meet-in-the-middle search: forward from `α`, backward from `β`
//!   pruned by membership in the `post*(α)` the decision already
//!   saturated, over a [`RuleIndex`] of Σ; the [`crate::Solver`] runs it
//!   as it decides, and the evidence carries the result. Shortest
//!   derivations can be long, so extraction is fuel-bounded and optional
//!   — the decision itself never is;
//! - [`canonical_countermodel`] — a finite truncation of the canonical
//!   model of Σ (one vertex per word `y`, edges `n_x --l--> n_y` iff
//!   `y ⇒* x·l`, so `u` reaches exactly the `pre*(u)` vertices). The
//!   candidate is *verified* against `Σ ∧ ¬φ` before being returned, so
//!   a `Some` answer is self-certifying; `None` means the truncation was
//!   too coarse, not that no countermodel exists.

use pathcons_automata::PrefixRewriteSystem;
use pathcons_constraints::{all_hold, holds, PathConstraint};
use pathcons_graph::{Graph, Label, NodeId};
use std::collections::HashMap;

/// One prefix-rewrite step: rule `index` applied to the current word's
/// prefix, yielding `result`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationStep {
    /// Index of the applied word constraint in Σ.
    pub rule: usize,
    /// The word after the step.
    pub result: Vec<Label>,
}

/// A prefix-rewrite derivation witnessing `Σ ⊢ α → β` under
/// {reflexivity, transitivity, right-congruence}.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// The starting word `α`.
    pub start: Vec<Label>,
    /// The steps; the final step's `result` is `β` (empty for `α = β`).
    pub steps: Vec<DerivationStep>,
}

impl Derivation {
    /// The final word of the derivation.
    pub fn end(&self) -> &[Label] {
        self.steps
            .last()
            .map(|s| s.result.as_slice())
            .unwrap_or(&self.start)
    }

    /// Replays the derivation against Σ, verifying every step.
    pub fn check(&self, sigma: &[PathConstraint]) -> Result<(), String> {
        let mut current: Vec<Label> = self.start.clone();
        for (i, step) in self.steps.iter().enumerate() {
            let rule = sigma
                .get(step.rule)
                .ok_or_else(|| format!("step {i}: rule index out of range"))?;
            if !rule.is_word() {
                return Err(format!("step {i}: rule is not a word constraint"));
            }
            let lhs = rule.lhs().labels();
            if current.len() < lhs.len() || current[..lhs.len()] != lhs[..] {
                return Err(format!("step {i}: lhs is not a prefix of the current word"));
            }
            let mut next: Vec<Label> = rule.rhs().to_vec();
            next.extend_from_slice(&current[lhs.len()..]);
            if next != step.result {
                return Err(format!("step {i}: recorded result does not match"));
            }
            current = next;
        }
        Ok(())
    }
}

/// Σ's word rules bucketed for prefix matching in both directions. A
/// forward step needs the rule's lhs to be a prefix of the word and a
/// backward step its rhs, so each side scans only the bucket of the
/// word's first label. Every bucket has the empty-side rules (which apply
/// to every word) merged in, and lists rules in Σ index order — the
/// search's discovery order, and hence the derivation it returns, does
/// not depend on the bucketing. Built once per Σ: a shared context keeps
/// one for all its queries.
#[derive(Clone, Debug)]
pub struct RuleIndex {
    /// `[lhs, rhs]` per rule, in Σ index order.
    rules: Vec<[Vec<Label>; 2]>,
    /// Forward buckets (by lhs) and backward buckets (by rhs).
    buckets: [Buckets; 2],
}

#[derive(Clone, Debug, Default)]
struct Buckets {
    by_first: HashMap<Label, Vec<u32>>,
    empty: Vec<u32>,
}

/// Search sides, indexing `RuleIndex::buckets` and the per-word marks:
/// forward steps rewrite a rule's lhs (slot 0) into its rhs (slot 1),
/// backward steps the other way round.
const FORWARD: usize = 0;
const BACKWARD: usize = 1;

impl RuleIndex {
    /// Indexes Σ, or `None` when some constraint is not a word
    /// constraint.
    pub fn new(sigma: &[PathConstraint]) -> Option<RuleIndex> {
        let rules = sigma
            .iter()
            .map(|c| c.is_word().then(|| [c.lhs().to_vec(), c.rhs().to_vec()]))
            .collect::<Option<Vec<_>>>()?;
        let buckets = [FORWARD, BACKWARD].map(|side| {
            let mut b = Buckets::default();
            for (i, rule) in rules.iter().enumerate() {
                match rule[side].first() {
                    Some(l) => b.by_first.entry(*l).or_default().push(i as u32),
                    None => b.empty.push(i as u32),
                }
            }
            for bucket in b.by_first.values_mut() {
                bucket.extend_from_slice(&b.empty);
                bucket.sort_unstable();
            }
            b
        });
        Some(RuleIndex { rules, buckets })
    }

    /// The rules whose `side` pattern may prefix `word`, in Σ order.
    fn candidates(&self, side: usize, word: &[Label]) -> &[u32] {
        let b = &self.buckets[side];
        word.first()
            .and_then(|l| b.by_first.get(l))
            .unwrap_or(&b.empty)
    }
}

/// How a side of the search reached a word.
#[derive(Clone, Copy)]
enum Mark {
    Unseen,
    /// The side's start word.
    Root,
    /// Reached from word `link` by rule `rule` — on the forward side
    /// `link ⇒ word`, on the backward side `word ⇒ link`.
    Via {
        link: u32,
        rule: u32,
    },
}

/// The words a search visited, each stored once in a flat label buffer
/// and addressed by `u32` id, with both sides' marks. An open-addressing
/// table over the ids finds a word by content without owning a copy of
/// it.
struct Arena {
    labels: Vec<Label>,
    /// `labels[start..end]` per word.
    spans: Vec<(usize, usize)>,
    hashes: Vec<u64>,
    marks: Vec<[Mark; 2]>,
    /// Word ids, `u32::MAX` for an empty slot; the length is a power of
    /// two, kept at least twice the word count.
    slots: Vec<u32>,
}

const EMPTY_SLOT: u32 = u32::MAX;

fn word_hash(word: &[Label]) -> u64 {
    word.iter().fold(word.len() as u64, |h, l| {
        (h.rotate_left(5) ^ l.index() as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

impl Arena {
    fn new() -> Arena {
        Arena {
            labels: Vec::new(),
            spans: Vec::new(),
            hashes: Vec::new(),
            marks: Vec::new(),
            slots: vec![EMPTY_SLOT; 1024],
        }
    }

    fn word(&self, id: u32) -> &[Label] {
        let (start, end) = self.spans[id as usize];
        &self.labels[start..end]
    }

    fn home(&self, hash: u64) -> usize {
        // Multiplicative hashing puts the well-mixed bits at the top.
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The word's id, or the empty slot where it would go.
    fn find(&self, word: &[Label], hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                EMPTY_SLOT => return Err(slot),
                id if self.hashes[id as usize] == hash && self.word(id) == word => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn intern(&mut self, word: &[Label]) -> u32 {
        let hash = word_hash(word);
        match self.find(word, hash) {
            Ok(id) => id,
            Err(slot) => self.insert(word, hash, slot),
        }
    }

    /// Adds `word` (absent, with `slot` from [`Arena::find`]) unmarked.
    fn insert(&mut self, word: &[Label], hash: u64, slot: usize) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.labels.len();
        self.labels.extend_from_slice(word);
        self.spans.push((start, self.labels.len()));
        self.hashes.push(hash);
        self.marks.push([Mark::Unseen; 2]);
        self.slots[slot] = id;
        if self.spans.len() * 2 > self.slots.len() {
            self.slots = vec![EMPTY_SLOT; self.slots.len() * 2];
            let mask = self.slots.len() - 1;
            for (id, &hash) in self.hashes.iter().enumerate() {
                let mut slot = self.home(hash);
                while self.slots[slot] != EMPTY_SLOT {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = id as u32;
            }
        }
        id
    }

    /// The derivation through `meet`, a word both sides have marked:
    /// the forward marks lead back to `α`, the backward marks on to `β`.
    fn derivation(&self, meet: u32) -> Derivation {
        let mut steps = Vec::new();
        let mut cursor = meet;
        while let Mark::Via { link, rule } = self.marks[cursor as usize][FORWARD] {
            steps.push(DerivationStep {
                rule: rule as usize,
                result: self.word(cursor).to_vec(),
            });
            cursor = link;
        }
        let start = self.word(cursor).to_vec();
        steps.reverse();
        cursor = meet;
        while let Mark::Via { link, rule } = self.marks[cursor as usize][BACKWARD] {
            steps.push(DerivationStep {
                rule: rule as usize,
                result: self.word(link).to_vec(),
            });
            cursor = link;
        }
        Derivation { start, steps }
    }
}

/// Visited-word budget (both sides of [`derivation_guided`] together)
/// for the derivation an implied word answer carries; running out
/// leaves the answer without one, and hence uncertified.
pub const WORD_DERIVATION_FUEL: usize = 20_000;

/// Extracts a shortest derivation of `Σ ⊢ α → β` by meet-in-the-middle
/// search over prefix rewrites. `member` must answer membership in
/// `post*(α)` — the language the decision procedure already saturated —
/// and `rules` must index the Σ the derivation's rule numbers refer to.
/// Returns `None` when `β` is not derivable or the `fuel` (words visited,
/// both sides together) runs out: shortest derivations can be
/// exponentially long, so extraction is best-effort while the decision
/// itself is exact.
///
/// The forward side grows from `α`, applying rules whose lhs prefixes the
/// word; the backward side grows from `β`, un-applying rules whose rhs
/// prefixes it, and keeps only `post*(α)` members (every word on a
/// derivation from `α` is one). Each round expands one full level of the
/// side with the smaller frontier (forward on a tie), so a depth-`d`
/// derivation costs about `2·b^(d/2)` visited words instead of the
/// one-sided `b^d`.
///
/// The result is shortest: while the sides have not met after `k`
/// forward and `j` backward levels, every derivation is longer than
/// `k + j` (its word at forward depth `min(k, d)` would otherwise lie in
/// both searches), so the first word the `(k + j + 1)`-th level shares
/// with the other side lies on a derivation of exactly that length. The
/// result is also a function of `(Σ, α, β)` and `member`'s *language*
/// alone — rules are tried in Σ index order, frontiers are FIFO, and the
/// first meeting in discovery order wins — so callers holding a cached
/// or determinized `post*(α)` and callers that re-saturate it extract
/// the identical derivation.
pub fn derivation_guided(
    rules: &RuleIndex,
    alpha: &[Label],
    beta: &[Label],
    fuel: usize,
    member: impl FnMut(&[Label]) -> bool,
) -> Option<Derivation> {
    search(rules, alpha, beta, fuel, member).0
}

/// The words [`derivation_guided`] visits on both sides before it
/// returns: a deterministic work counter for regression tests.
#[doc(hidden)]
pub fn derivation_guided_visits(
    rules: &RuleIndex,
    alpha: &[Label],
    beta: &[Label],
    fuel: usize,
    member: impl FnMut(&[Label]) -> bool,
) -> usize {
    search(rules, alpha, beta, fuel, member).1
}

fn search(
    rules: &RuleIndex,
    alpha: &[Label],
    beta: &[Label],
    fuel: usize,
    mut member: impl FnMut(&[Label]) -> bool,
) -> (Option<Derivation>, usize) {
    if alpha == beta {
        let reflexive = Derivation {
            start: alpha.to_vec(),
            steps: Vec::new(),
        };
        return (Some(reflexive), 0);
    }
    if !member(beta) {
        return (None, 0);
    }
    let mut arena = Arena::new();
    let mut frontiers: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    for (side, root) in [(FORWARD, alpha), (BACKWARD, beta)] {
        let id = arena.intern(root);
        arena.marks[id as usize][side] = Mark::Root;
        frontiers[side].push(id);
    }
    let mut visited = 2;
    let (mut word, mut next, mut level) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let side = if frontiers[FORWARD].len() <= frontiers[BACKWARD].len() {
            FORWARD
        } else {
            BACKWARD
        };
        // An exhausted side has closed its reachable set without
        // meeting the other: β is not derivable from α.
        if frontiers[side].is_empty() {
            return (None, visited);
        }
        for &id in &frontiers[side] {
            if visited > fuel {
                return (None, visited);
            }
            word.clear();
            word.extend_from_slice(arena.word(id));
            for &rule in rules.candidates(side, &word) {
                let pair = &rules.rules[rule as usize];
                let (pattern, replacement) = (&pair[side], &pair[1 - side]);
                if !word.starts_with(pattern) {
                    continue;
                }
                next.clear();
                next.extend_from_slice(replacement);
                next.extend_from_slice(&word[pattern.len()..]);
                let hash = word_hash(&next);
                let found = match arena.find(&next, hash) {
                    Ok(seen) => seen,
                    // Forward words are in post*(α) by construction.
                    Err(_) if side == BACKWARD && !member(&next) => continue,
                    Err(slot) => arena.insert(&next, hash, slot),
                };
                let marks = &mut arena.marks[found as usize];
                if !matches!(marks[side], Mark::Unseen) {
                    continue;
                }
                marks[side] = Mark::Via { link: id, rule };
                visited += 1;
                // Stored words are marked by some side: this one by the
                // other side, so the searches meet here.
                if !matches!(marks[1 - side], Mark::Unseen) {
                    return (Some(arena.derivation(found)), visited);
                }
                level.push(found);
            }
        }
        std::mem::swap(&mut frontiers[side], &mut level);
        level.clear();
    }
}

/// Attempts to build a finite countermodel of `Σ ∧ ¬φ` by truncating the
/// canonical model of Σ.
///
/// In the (generally infinite) canonical model, there is one vertex
/// `n_y` per word `y`, the root is `n_ε`, and `n_x --l--> n_y` iff
/// `y ⇒* x·l` under the rewrite rules read off Σ. A word `u` then
/// reaches exactly `{n_y : y ⇒* u}`, so every rule `u → v` of Σ holds
/// (`y ⇒* u` implies `y ⇒* v`), while a non-derivable `α → β` fails at
/// the witness `n_α`. Truncating to words of length ≤ `max_len` only
/// *removes* vertices and edges, which preserves `¬φ` but may break Σ —
/// so the candidate is verified with the satisfaction checker before
/// being returned, and a `None` means the truncation was too coarse, not
/// that the implication holds.
pub fn canonical_countermodel(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    max_len: usize,
) -> Option<Graph> {
    let mut system = PrefixRewriteSystem::new();
    for c in sigma {
        if !c.is_word() {
            return None;
        }
        system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
    }
    if !phi.is_word() {
        return None;
    }

    // Alphabet: labels mentioned anywhere.
    let mut alphabet: Vec<Label> = sigma
        .iter()
        .chain(std::iter::once(phi))
        .flat_map(|c| {
            c.lhs()
                .labels()
                .iter()
                .chain(c.rhs().labels())
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    alphabet.sort_unstable();
    alphabet.dedup();
    if alphabet.is_empty() {
        return None;
    }

    // Grow the truncation length until a candidate verifies — smaller
    // universes give smaller (more readable) countermodels.
    (1..=max_len).find_map(|len| canonical_truncation(&system, sigma, phi, &alphabet, len))
}

/// One truncation attempt at a fixed word length.
fn canonical_truncation(
    system: &PrefixRewriteSystem,
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    alphabet: &[Label],
    max_len: usize,
) -> Option<Graph> {
    // Keep the universe manageable: cap the word count.
    const MAX_WORDS: usize = 240;
    let mut words: Vec<Vec<Label>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Label>> = vec![Vec::new()];
    'grow: for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for &l in alphabet {
                let mut e = w.clone();
                e.push(l);
                words.push(e.clone());
                next.push(e);
                if words.len() >= MAX_WORDS {
                    break 'grow;
                }
            }
        }
        frontier = next;
    }

    let mut graph = Graph::new();
    let nodes: Vec<NodeId> = std::iter::once(graph.root())
        .chain((1..words.len()).map(|_| graph.add_node()))
        .collect();

    // Edges: n_x --l--> n_y iff y ∈ pre*(x·l). One pre* automaton per
    // (x, l); membership tested for every candidate y.
    for (xi, x) in words.iter().enumerate() {
        for &l in alphabet {
            let mut xl = x.clone();
            xl.push(l);
            let pre = system.pre_star(&xl);
            for (yi, y) in words.iter().enumerate() {
                if pre.accepts(y) {
                    graph.add_edge(nodes[xi], l, nodes[yi]);
                }
            }
        }
    }

    // The truncation may cut Σ-required edges to out-of-universe words;
    // only a verified candidate is a countermodel.
    if all_hold(&graph, sigma) && !holds(&graph, phi) {
        Some(graph)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::{parse_constraints, Path};
    use pathcons_graph::LabelInterner;

    /// Extracts `alpha_text ⇒* beta_text` the way the engine does: over
    /// Σ's rule index, guided by `post*(α)` membership.
    fn extract(
        sigma: &[PathConstraint],
        alpha_text: &str,
        beta_text: &str,
        fuel: usize,
        labels: &mut LabelInterner,
    ) -> Option<Derivation> {
        let alpha = Path::parse(alpha_text, labels).unwrap();
        let beta = Path::parse(beta_text, labels).unwrap();
        let mut system = PrefixRewriteSystem::new();
        for c in sigma {
            system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
        }
        let post = system.post_star(&alpha);
        let rules = RuleIndex::new(sigma).expect("word theory");
        let d = derivation_guided(&rules, &alpha, &beta, fuel, |w| post.accepts(w))?;
        d.check(sigma).unwrap();
        assert_eq!(d.start, alpha.to_vec());
        assert_eq!(d.end(), beta.labels());
        Some(d)
    }

    #[test]
    fn derivation_for_chained_rules() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\nb.g -> c", &mut labels).unwrap();
        let d = extract(&sigma, "a.g", "c", 10_000, &mut labels).expect("derivable");
        assert_eq!(d.steps.len(), 2);
    }

    #[test]
    fn derivations_are_shortest_and_use_empty_sides() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(
            "a -> b\nb -> c\nc -> d\nd -> e\na -> d\n() -> k\nk.m -> k\nx -> ()",
            &mut labels,
        )
        .unwrap();
        // a ⇒ d ⇒ e beats the four-step chain through b and c.
        let d = extract(&sigma, "a.z", "e.z", 10_000, &mut labels).unwrap();
        assert_eq!(d.steps.iter().map(|s| s.rule).collect::<Vec<_>>(), [4, 3]);
        // An empty lhs prefixes every word; an empty rhs un-applies
        // backward onto every word.
        assert_eq!(
            extract(&sigma, "m", "k", 10_000, &mut labels)
                .unwrap()
                .steps
                .len(),
            2
        );
        assert_eq!(
            extract(&sigma, "x.y", "y", 10_000, &mut labels)
                .unwrap()
                .steps
                .len(),
            1
        );
        // Fuel counts visited words, the two start words included.
        assert_eq!(extract(&sigma, "a.z", "e.z", 2, &mut labels), None);
    }

    #[test]
    fn reflexive_derivation_is_empty_and_consults_no_oracle() {
        let mut labels = LabelInterner::new();
        let a = Path::parse("a.b", &mut labels).unwrap();
        let rules = RuleIndex::new(&[]).unwrap();
        let refl = derivation_guided(&rules, &a, &a, 100, |_: &[Label]| {
            panic!("reflexive case must not consult the oracle")
        })
        .unwrap();
        assert!(refl.steps.is_empty());
        refl.check(&[]).unwrap();
    }

    #[test]
    fn underivable_returns_none() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        // b ⇏ a: the oracle rules the target out immediately.
        assert_eq!(extract(&sigma, "b", "a", 10_000, &mut labels), None);
        // Past the oracle, an exhausted side ends the search.
        let rules = RuleIndex::new(&sigma).unwrap();
        let b = labels.get("b").unwrap();
        let c = labels.intern("c");
        assert_eq!(
            derivation_guided(&rules, &[b], &[c], 10_000, |_| true),
            None
        );
    }

    #[test]
    fn rule_index_rejects_non_word_theories() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("K: a -> b", &mut labels).unwrap();
        assert!(RuleIndex::new(&sigma).is_none());
    }

    #[test]
    fn derivation_check_rejects_forgeries() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        // Claiming a ⇒ a via rule 0 (which produces b) must fail.
        let forged = Derivation {
            start: vec![a],
            steps: vec![DerivationStep {
                rule: 0,
                result: vec![a],
            }],
        };
        assert!(forged.check(&sigma).is_err());
        // And an honest one passes.
        let honest = Derivation {
            start: vec![a],
            steps: vec![DerivationStep {
                rule: 0,
                result: vec![b],
            }],
        };
        honest.check(&sigma).unwrap();
    }

    #[test]
    fn canonical_countermodel_for_simple_case() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        let g = canonical_countermodel(&sigma, &phi, 4).expect("countermodel");
        assert!(all_hold(&g, &sigma));
        assert!(!holds(&g, &phi));
    }

    #[test]
    fn canonical_countermodel_none_for_implied() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("a.c -> b.c", &mut labels).unwrap();
        assert!(canonical_countermodel(&sigma, &phi, 4).is_none());
    }

    #[test]
    fn canonical_countermodel_handles_growing_rules() {
        let mut labels = LabelInterner::new();
        // a ⇒ b·a keeps post* sets distinct; refute b·a -> a.
        let sigma = parse_constraints("a -> b.a", &mut labels).unwrap();
        let phi = PathConstraint::parse("b.a -> a", &mut labels).unwrap();
        if let Some(g) = canonical_countermodel(&sigma, &phi, 5) {
            assert!(all_hold(&g, &sigma));
            assert!(!holds(&g, &phi));
        }
        // (None is acceptable — the truncation may be too coarse — but a
        // returned model must verify, which the asserts above cover.)
    }
}
