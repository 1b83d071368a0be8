//! `canonicalize` computes exactly the key and renaming of the direct
//! quadratic greedy (`support::canonicalize_reference`): on random Σ of
//! up to 160 constraints, on alpha-renamed reorderings of them, and on
//! the 128-rule resident theory of the shared-context benchmark.

mod support;

use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::DataContext;
use pathcons_engine::canonicalize;
use pathcons_graph::{Label, LabelInterner};
use proptest::prelude::*;
use support::canonicalize_reference;

/// A constraint over label numbers `0..n`: backward flag, prefix, lhs,
/// rhs. Any of the paths may be empty.
type Shape = (bool, Vec<usize>, Vec<usize>, Vec<usize>);

fn shape(n: usize, max_len: usize) -> impl Strategy<Value = Shape> {
    let path = move |max: usize| prop::collection::vec(0..n, 0..=max);
    (
        prop::bool::ANY,
        path(max_len / 2),
        path(max_len),
        path(max_len),
    )
}

/// A random query over 1–12 labels, as the label count, Σ, φ and a seed
/// for the alpha-renamed variant's label permutation and Σ order. Σ has
/// up to 160 constraints: mostly short ones, a few with many distinct
/// labels, plus repeats and alpha-renamed copies of earlier ones (the
/// copies tie with their originals, which exercises the tie-break).
fn query() -> impl Strategy<Value = (usize, Vec<Shape>, Shape, u64)> {
    (1usize..=12).prop_flat_map(|n| {
        (
            prop::collection::vec(shape(n, 3), 0..=120),
            prop::collection::vec(shape(n, 8), 0..=8),
            shape(n, 3),
            prop::collection::vec(0..usize::MAX, 0..=16),
            prop::collection::vec((0..usize::MAX, 0..u64::MAX), 0..=16),
            0..u64::MAX,
        )
            .prop_map(move |(mut sigma, wide, phi, repeats, copies, seed)| {
                sigma.extend(wide);
                if !sigma.is_empty() {
                    let len = sigma.len();
                    for r in repeats {
                        sigma.push(sigma[r % len].clone());
                    }
                    for (r, mut copy_seed) in copies {
                        let perm = permutation(n, &mut copy_seed);
                        let (kind, prefix, lhs, rhs) = &sigma[r % len];
                        let map = |p: &Vec<usize>| p.iter().map(|&i| perm[i]).collect();
                        sigma.push((*kind, map(prefix), map(lhs), map(rhs)));
                    }
                }
                (n, sigma, phi, seed)
            })
    })
}

/// Builds a constraint, numbering label `i` as `label(i)`.
fn build(s: &Shape, label: &dyn Fn(usize) -> Label) -> PathConstraint {
    let path = |p: &[usize]| Path::from_labels(p.iter().map(|&i| label(i)));
    let (prefix, lhs, rhs) = (path(&s.1), path(&s.2), path(&s.3));
    if s.0 {
        PathConstraint::backward(prefix, lhs, rhs)
    } else {
        PathConstraint::forward(prefix, lhs, rhs)
    }
}

/// Fisher–Yates shuffle of `0..len` driven by a xorshift stream.
fn permutation(len: usize, seed: &mut u64) -> Vec<usize> {
    *seed |= 1;
    let mut out: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        out.swap(i, (*seed % (i as u64 + 1)) as usize);
    }
    out
}

fn assert_matches_reference(sigma: &[PathConstraint], phi: &PathConstraint) {
    let fast = canonicalize(&DataContext::Semistructured, sigma, phi);
    let reference = canonicalize_reference(sigma, phi);
    assert_eq!(fast.key, reference.key, "key for {sigma:?} ⊨ {phi:?}");
    assert_eq!(
        fast.renaming, reference.renaming,
        "renaming for {sigma:?} ⊨ {phi:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_greedy_matches_reference(q in query()) {
        let (n, sigma, phi, mut seed) = q;
        let label = |i: usize| Label::from_index(i);
        let original: Vec<PathConstraint> = sigma.iter().map(|s| build(s, &label)).collect();
        assert_matches_reference(&original, &build(&phi, &label));

        // The alpha-renamed, reordered variant, over sparse label ids.
        let perm = permutation(n, &mut seed);
        let renamed = |i: usize| Label::from_index(1000 + 37 * perm[i]);
        let variant: Vec<PathConstraint> = permutation(sigma.len(), &mut seed)
            .into_iter()
            .map(|i| build(&sigma[i], &renamed))
            .collect();
        assert_matches_reference(&variant, &build(&phi, &renamed));
    }
}

/// Deterministic xorshift* stream of the shared-context benchmark.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    }
}

/// The resident 128-rule theory of the shared-context benchmark (same
/// generator and seed), asked `w0.w1 -> β` for a few hundred β derived
/// from `w0.w1` by prefix rewriting — the queries a warm context serves.
#[test]
fn resident_theory_queries_match_reference() {
    let mut rng = Rng(0x5eed_0fc0_ffee);
    let word = |rng: &mut Rng, min: usize, max: usize| -> Vec<usize> {
        let len = min + rng.next(max - min + 1);
        (0..len).map(|_| rng.next(8)).collect()
    };
    let rules: Vec<(Vec<usize>, Vec<usize>)> = (0..128)
        .map(|_| (word(&mut rng, 1, 3), word(&mut rng, 1, 4)))
        .collect();
    let render = |w: &[usize]| {
        w.iter()
            .map(|l| format!("w{l}"))
            .collect::<Vec<_>>()
            .join(".")
    };

    let mut labels = LabelInterner::new();
    let sigma: Vec<PathConstraint> = rules
        .iter()
        .map(|(l, r)| {
            let text = format!("{} -> {}", render(l), render(r));
            PathConstraint::parse(&text, &mut labels).expect("generated syntax is valid")
        })
        .collect();

    let start = vec![0, 1];
    let mut seen = std::collections::BTreeSet::from([start.clone()]);
    let mut frontier = vec![start];
    let mut derived: Vec<Vec<usize>> = Vec::new();
    while derived.len() < 300 && !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for w in &frontier {
            for (l, r) in &rules {
                if w.starts_with(l) {
                    let mut next = r.clone();
                    next.extend_from_slice(&w[l.len()..]);
                    if next.len() <= 12 && seen.insert(next.clone()) {
                        derived.push(next.clone());
                        next_frontier.push(next);
                    }
                }
            }
        }
        frontier = next_frontier;
    }
    derived.truncate(300);
    assert!(derived.len() >= 200, "rewrite ball too small");

    for rhs in &derived {
        let text = format!("w0.w1 -> {}", render(rhs));
        let phi = PathConstraint::parse(&text, &mut labels).expect("generated syntax is valid");
        assert_matches_reference(&sigma, &phi);
    }
}
