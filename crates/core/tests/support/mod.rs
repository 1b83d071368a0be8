//! Test-only reference extractors and the shared-context workload for
//! the derivation tests.
//!
//! The two extractors are the straightforward searches the library's
//! meet-in-the-middle [`pathcons_core::derivation_guided`] replaced:
//! both return shortest derivations, so they pin its step counts and
//! its `Some`/`None` answers. They live here because nothing but tests
//! needs them.

#![allow(dead_code)]

use pathcons_automata::PrefixRewriteSystem;
use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::{Derivation, DerivationStep};
use pathcons_graph::{Label, LabelInterner};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Extracts a derivation of `Σ ⊢ α → β` by BFS over rewrites, pruned to
/// words that can still reach `β` (membership in `pre*(β)`). Returns
/// `None` when `β` is unreachable or the `fuel` (visited-word budget)
/// runs out — shortest derivations can be exponentially long, so
/// extraction is best-effort while the decision itself is exact.
pub fn derivation_prestar(
    sigma: &[PathConstraint],
    alpha: &Path,
    beta: &Path,
    fuel: usize,
) -> Option<Derivation> {
    let mut system = PrefixRewriteSystem::new();
    for c in sigma {
        if !c.is_word() {
            return None;
        }
        system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
    }
    if alpha.labels() == beta.labels() {
        return Some(Derivation {
            start: alpha.to_vec(),
            steps: Vec::new(),
        });
    }
    let pre_star = system.pre_star(beta);
    if !pre_star.accepts(alpha) {
        return None;
    }

    // BFS with parent pointers over (word) nodes, expanding only words
    // inside pre*(β).
    let start: Vec<Label> = alpha.to_vec();
    let target: Vec<Label> = beta.to_vec();
    let mut parent: HashMap<Vec<Label>, (Vec<Label>, usize)> = HashMap::new();
    let mut queue: VecDeque<Vec<Label>> = VecDeque::new();
    let mut seen: HashSet<Vec<Label>> = HashSet::new();
    seen.insert(start.clone());
    queue.push_back(start.clone());
    let mut found = false;
    while let Some(word) = queue.pop_front() {
        if word == target {
            found = true;
            break;
        }
        if seen.len() > fuel {
            return None;
        }
        for (rule_idx, rule) in system.rules().iter().enumerate() {
            if word.len() >= rule.lhs.len() && word[..rule.lhs.len()] == rule.lhs[..] {
                let mut next: Vec<Label> = rule.rhs.clone();
                next.extend_from_slice(&word[rule.lhs.len()..]);
                if !seen.contains(&next) && pre_star.accepts(&next) {
                    seen.insert(next.clone());
                    parent.insert(next.clone(), (word.clone(), rule_idx));
                    queue.push_back(next);
                }
            }
        }
    }
    if !found {
        return None;
    }
    // Reconstruct.
    let mut steps = Vec::new();
    let mut cursor = target.clone();
    while cursor != start {
        let (prev, rule) = parent.get(&cursor).expect("BFS parent");
        steps.push(DerivationStep {
            rule: *rule,
            result: cursor.clone(),
        });
        cursor = prev.clone();
    }
    steps.reverse();
    Some(Derivation { start, steps })
}

/// Extracts a derivation of `Σ ⊢ α → β` by *backward* BFS from `β`,
/// pruned to words reachable from `α` — `member` must answer membership
/// in `post*(α)`, which is exactly the language the decision procedure
/// already saturated to answer the query. A shared context hands in
/// (the determinized form of) its cached automaton, so extraction costs
/// membership queries instead of the fresh `pre*(β)` saturation
/// [`derivation_prestar`] pays per query.
///
/// Every word on a forward derivation `α ⇒* β` lies in `post*(α)`, so
/// the pruning keeps the search complete while confining it to the cone
/// between `α` and `β`. The result is a function of `(Σ, α, β)` alone
/// (candidates scan in Σ index order, FIFO queue) for any `member`
/// deciding the same language: callers that share the saturation and
/// callers that rebuild it extract the identical derivation.
pub fn derivation_backward(
    sigma: &[PathConstraint],
    alpha: &Path,
    beta: &Path,
    fuel: usize,
    mut member: impl FnMut(&[Label]) -> bool,
) -> Option<Derivation> {
    let mut system = PrefixRewriteSystem::new();
    for c in sigma {
        if !c.is_word() {
            return None;
        }
        system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
    }
    let start: Vec<Label> = alpha.to_vec();
    let target: Vec<Label> = beta.to_vec();
    if start == target {
        return Some(Derivation {
            start,
            steps: Vec::new(),
        });
    }
    if !member(&target) {
        return None;
    }
    // A backward step requires the rule's rhs to be a prefix of the
    // current word, so bucketing rules by the rhs' first label cuts the
    // per-word scan to the bucket (plus the everywhere-applicable
    // empty-rhs rules). Candidates stay in Σ index order, so the
    // derivation found does not depend on the bucketing.
    let mut by_first: HashMap<Label, Vec<usize>> = HashMap::new();
    let mut empty_rhs: Vec<usize> = Vec::new();
    for (i, rule) in system.rules().iter().enumerate() {
        match rule.rhs.first() {
            Some(l) => by_first.entry(*l).or_default().push(i),
            None => empty_rhs.push(i),
        }
    }

    // Backward step: a word `r·t` un-rewrites to `l·t` for each rule
    // `l → r`. `next_hop` records the forward edge each discovery
    // witnesses, so reaching `α` leaves a ready-made forward chain.
    let mut next_hop: HashMap<Vec<Label>, (Vec<Label>, usize)> = HashMap::new();
    let mut queue: VecDeque<Vec<Label>> = VecDeque::new();
    let mut seen: HashSet<Vec<Label>> = HashSet::new();
    seen.insert(target.clone());
    queue.push_back(target.clone());
    let mut found = false;
    let mut candidates: Vec<usize> = Vec::new();
    'bfs: while let Some(word) = queue.pop_front() {
        if seen.len() > fuel {
            return None;
        }
        candidates.clear();
        if let Some(bucket) = word.first().and_then(|l| by_first.get(l)) {
            candidates.extend_from_slice(bucket);
        }
        candidates.extend_from_slice(&empty_rhs);
        candidates.sort_unstable();
        for &rule_idx in &candidates {
            let rule = &system.rules()[rule_idx];
            if word.len() >= rule.rhs.len() && word[..rule.rhs.len()] == rule.rhs[..] {
                let mut pred: Vec<Label> = rule.lhs.clone();
                pred.extend_from_slice(&word[rule.rhs.len()..]);
                if !seen.contains(&pred) && member(&pred) {
                    seen.insert(pred.clone());
                    next_hop.insert(pred.clone(), (word.clone(), rule_idx));
                    if pred == start {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(pred);
                }
            }
        }
    }
    if !found {
        return None;
    }
    let mut steps = Vec::new();
    let mut cursor = start.clone();
    while cursor != target {
        let (succ, rule) = next_hop.get(&cursor).expect("BFS next-hop");
        steps.push(DerivationStep {
            rule: *rule,
            result: succ.clone(),
        });
        cursor = succ.clone();
    }
    Some(Derivation { start, steps })
}

/// The resident 128-rule word theory of `bench_shared_context` (and of
/// the `shared_warm` serve workload): a fixed xorshift* stream draws
/// `|l|` in 1..=3 and `|r|` in 1..=4 over labels `w0`..`w7`. Returns the
/// theory and its query lhs `w0.w1`.
pub fn shared_theory(labels: &mut LabelInterner) -> (Vec<PathConstraint>, Path) {
    let mut state = 0x5eed_0fc0_ffeeu64;
    let mut next = |bound: usize| -> usize {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    };
    let alphabet: Vec<Label> = (0..8).map(|i| labels.intern(&format!("w{i}"))).collect();
    let mut word = |min: usize, max: usize| -> Path {
        let len = min + next(max - min + 1);
        Path::from_labels((0..len).map(|_| alphabet[next(8)]).collect::<Vec<_>>())
    };
    let sigma = (0..128)
        .map(|_| {
            let lhs = word(1, 3);
            PathConstraint::word(lhs, word(1, 4))
        })
        .collect();
    (sigma, Path::from_labels([alphabet[0], alphabet[1]]))
}

/// The distinct words at most `depth` prefix-rewrite steps from `start`
/// and at most 12 labels long, breadth-first — so each word's position
/// is at its shortest depth, and `levels[k]` is where depth `k + 1`
/// begins in the returned list.
pub fn rewrite_ball(
    sigma: &[PathConstraint],
    start: &[Label],
    depth: usize,
) -> (Vec<Vec<Label>>, Vec<usize>) {
    let mut seen = BTreeSet::from([start.to_vec()]);
    let mut frontier = vec![start.to_vec()];
    let mut ball = Vec::new();
    let mut levels = Vec::new();
    for _ in 0..depth {
        levels.push(ball.len());
        let mut next_frontier = Vec::new();
        for w in &frontier {
            for c in sigma {
                let (l, r) = (c.lhs().labels(), c.rhs().labels());
                if w.starts_with(l) {
                    let mut next = r.to_vec();
                    next.extend_from_slice(&w[l.len()..]);
                    if next.len() <= 12 && seen.insert(next.clone()) {
                        ball.push(next.clone());
                        next_frontier.push(next);
                    }
                }
            }
        }
        frontier = next_frontier;
    }
    (ball, levels)
}
