//! The meet-in-the-middle derivation extractor against the reference
//! searches it replaced: the same `Some`/`None` answers and the same
//! (shortest) step counts, replayable output that does not depend on
//! which automaton answers `post*(α)` membership, the same derivation
//! carried by cold and warm solver answers, and a pinned visited-word
//! count on the shared-context workload.

mod support;

use pathcons_automata::{determinize, PrefixRewriteSystem};
use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::{
    derivation_guided, derivation_guided_visits, Budget, DataContext, Derivation, Evidence,
    Outcome, RuleIndex, SharedContext, SharedWord, Solver, WORD_DERIVATION_FUEL as CERT_FUEL,
};
use pathcons_graph::{Label, LabelInterner};
use proptest::prelude::*;
use std::sync::Arc;
use support::{derivation_backward, derivation_prestar, rewrite_ball, shared_theory};

fn system(sigma: &[PathConstraint]) -> PrefixRewriteSystem {
    let mut system = PrefixRewriteSystem::new();
    for c in sigma {
        system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
    }
    system
}

fn word_theory(
    alphabet: usize,
    rules: &[(Vec<usize>, Vec<usize>)],
) -> (Vec<Label>, Vec<PathConstraint>) {
    let labels =
        LabelInterner::with_labels((0..alphabet).map(|i| format!("l{i}")).collect::<Vec<_>>());
    let all: Vec<Label> = labels.labels().collect();
    let path = |w: &[usize]| Path::from_labels(w.iter().map(|&i| all[i]));
    let sigma = rules
        .iter()
        .map(|(l, r)| PathConstraint::word(path(l), path(r)))
        .collect();
    (all, sigma)
}

fn steps(d: &Option<Derivation>) -> Option<usize> {
    d.as_ref().map(|d| d.steps.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn matches_the_reference_extractors(
        alphabet in 2..=4usize,
        rules in prop::collection::vec(
            (prop::collection::vec(0..4usize, 0..=3),
             prop::collection::vec(0..4usize, 0..=3)),
            0..=6,
        ),
        lhs in prop::collection::vec(0..4usize, 0..=3),
        rhs in prop::collection::vec(0..4usize, 0..=3),
        walk in prop::collection::vec(0..6usize, 0..=6),
    ) {
        let fold = |w: &[usize]| w.iter().map(|i| i % alphabet).collect::<Vec<_>>();
        let rules: Vec<_> = rules.iter().map(|(l, r)| (fold(l), fold(r))).collect();
        let (all, sigma) = word_theory(alphabet, &rules);
        let alpha = Path::from_labels(fold(&lhs).into_iter().map(|i| all[i]));
        // A non-empty walk derives β from α, each choice picking among
        // the rules that apply (so most cases are implied); an empty one
        // takes `rhs`.
        let mut beta = alpha.to_vec();
        for &choice in &walk {
            let applicable: Vec<&PathConstraint> =
                sigma.iter().filter(|c| beta.starts_with(c.lhs())).collect();
            if let Some(c) = applicable.get(choice % applicable.len().max(1)) {
                beta.splice(..c.lhs().len(), c.rhs().iter().copied());
            }
        }
        if walk.is_empty() {
            beta = fold(&rhs).into_iter().map(|i| all[i]).collect();
        }
        let beta = Path::from_labels(beta);
        let case = format!("Σ={rules:?} α={lhs:?} β={beta:?} over {alphabet} labels");

        let system = system(&sigma);
        let post = system.post_star(&alpha);
        let dfa = determinize(&post, &all);
        let index = RuleIndex::new(&sigma).expect("word theory");
        let fuel = 50_000;
        let via_nfa = derivation_guided(&index, &alpha, &beta, fuel, |w| post.accepts(w));
        let via_dfa = derivation_guided(&index, &alpha, &beta, fuel, |w| dfa.accepts(w));
        // w ∈ post*(α) ⟺ α ∈ pre*(w): the same language, asked backwards.
        let via_pre = derivation_guided(&index, &alpha, &beta, fuel, |w| {
            system.pre_star(w).accepts(&alpha)
        });
        prop_assert_eq!(&via_nfa, &via_dfa, "{}", case);
        prop_assert_eq!(&via_nfa, &via_pre, "{}", case);

        // The references search far more words and may run out of fuel
        // on a long derivation: their `None` is then inconclusive, not a
        // disagreement. Up to four steps they always settle.
        let implied = post.accepts(&beta);
        prop_assert_eq!(via_nfa.is_some(), implied, "{}", case);
        let backward = derivation_backward(&sigma, &alpha, &beta, fuel, |w| post.accepts(w));
        let forward = derivation_prestar(&sigma, &alpha, &beta, fuel);
        for reference in [&backward, &forward] {
            if reference.is_some() || steps(&via_nfa).map_or(true, |n| n <= 4) {
                prop_assert_eq!(steps(&via_nfa), steps(reference), "{}", case);
            }
        }
        if let Some(d) = via_nfa {
            prop_assert!(d.check(&sigma).is_ok(), "{}", case);
            prop_assert_eq!(d.start.as_slice(), alpha.labels(), "{}", case);
            prop_assert_eq!(d.end(), beta.labels(), "{}", case);
        }
    }
}

/// Every `stride`-th word of `words`, `count` of them.
fn sample(words: &[Vec<Label>], count: usize) -> Vec<&[Label]> {
    let stride = words.len() / count;
    assert!(stride > 0, "{} words to sample {count} from", words.len());
    words
        .iter()
        .step_by(stride)
        .take(count)
        .map(Vec::as_slice)
        .collect()
}

#[test]
fn shared_context_derivations_match_the_reference_lengths() {
    let mut labels = LabelInterner::new();
    let (sigma, start) = shared_theory(&mut labels);
    let shared = SharedWord::build(&sigma).expect("word theory");
    let dfa = shared.consequences_dfa(&start).expect("small DFA");
    let (ball, _) = rewrite_ball(&sigma, &start, 5);
    for beta in sample(&ball, 300) {
        let beta_path = Path::from_labels(beta.iter().copied());
        let got = shared
            .derivation(&start, beta, CERT_FUEL)
            .expect("certifies");
        got.check(&sigma).unwrap();
        assert_eq!(got.end(), beta);
        let reference =
            derivation_backward(&sigma, &start, &beta_path, CERT_FUEL, |w| dfa.accepts(w))
                .expect("reference certifies");
        assert_eq!(got.steps.len(), reference.steps.len(), "β = {beta:?}");
    }
}

#[test]
fn six_step_shared_context_words_certify_within_budget() {
    let mut labels = LabelInterner::new();
    let (sigma, start) = shared_theory(&mut labels);
    let shared = SharedWord::build(&sigma).expect("word theory");
    let (ball, levels) = rewrite_ball(&sigma, &start, 6);
    for beta in sample(&ball[levels[5]..], 50) {
        let d = shared
            .derivation(&start, beta, CERT_FUEL)
            .unwrap_or_else(|| panic!("β = {beta:?} outran the budget"));
        d.check(&sigma).unwrap();
        assert_eq!(d.end(), beta);
        assert!(d.steps.len() <= 6, "β = {beta:?}: {} steps", d.steps.len());
    }
}

/// A clock-free guard on the search's cost: the words visited to
/// extract a fixed sample of depth-5 derivations on the 128-rule
/// context. The meet-in-the-middle search visits about 200 words per
/// derivation here; the one-sided backward search it replaced visited
/// about 2,800, which this bound fails. Measured: 15,112 for the 100.
const VISIT_BOUND: usize = 20_000;

#[test]
fn depth_five_extraction_visits_stay_pinned() {
    let mut labels = LabelInterner::new();
    let (sigma, start) = shared_theory(&mut labels);
    let shared = SharedWord::build(&sigma).expect("word theory");
    let dfa = shared.consequences_dfa(&start).expect("small DFA");
    let index = RuleIndex::new(&sigma).expect("word theory");
    let (ball, levels) = rewrite_ball(&sigma, &start, 5);
    let words = sample(&ball[levels[4]..], 100);
    let visits: usize = words
        .iter()
        .map(|beta| derivation_guided_visits(&index, &start, beta, CERT_FUEL, |w| dfa.accepts(w)))
        .sum();
    println!("visited {visits} words for {} derivations", words.len());
    assert!(visits <= VISIT_BOUND, "visited {visits} > {VISIT_BOUND}");
}

/// The derivation an implied word answer carries.
fn carried(solver: &Solver, sigma: &[PathConstraint], phi: &PathConstraint) -> Derivation {
    match solver.implies(sigma, phi).unwrap().outcome {
        Outcome::Implied(Evidence::WordDerivation(Some(d))) => *d,
        other => panic!("{phi:?}: expected a carried derivation, got {other:?}"),
    }
}

/// The solver extracts the derivation the moment it decides: cold from
/// the `post*(α)` it just saturated (NFA guide), warm from the shared
/// context's cached saturation (DFA guide). Both are the same language,
/// so every depth-≤5 word of the 128-rule context gets the identical
/// derivation either way.
#[test]
fn cold_and_warm_solves_carry_equal_derivations() {
    let mut labels = LabelInterner::new();
    let (sigma, start) = shared_theory(&mut labels);
    let cold = Solver::new(DataContext::Semistructured);
    let shared = Arc::new(SharedContext::build(&sigma, &Budget::default()));
    let warm = Solver::new(DataContext::Semistructured).with_shared(Arc::clone(&shared));
    let (ball, _) = rewrite_ball(&sigma, &start, 5);
    let words = sample(&ball, 50);
    for &beta in &words {
        let phi = PathConstraint::word(start.clone(), Path::from_labels(beta.iter().copied()));
        let d = carried(&cold, &sigma, &phi);
        d.check(&sigma).unwrap();
        assert_eq!(d.end(), beta);
        assert_eq!(d, carried(&warm, &sigma, &phi), "β = {beta:?}");
    }
    // Every warm decision after the first saturation was a cache hit.
    let stats = shared.stats();
    assert_eq!(
        (stats.word_misses, stats.word_hits),
        (1, words.len() as u64 - 1)
    );
}
