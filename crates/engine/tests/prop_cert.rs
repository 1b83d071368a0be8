//! Satellite property: every certificate the engine emits for a
//! decided (`implied` / `not-implied`) outcome survives a JSON wire
//! round-trip and is accepted by the trusted checker against the
//! re-canonicalized query — and a tampered certificate (snapshot bit
//! flipped, rule or constraint index pushed out of range, countermodel
//! replaced by an inert graph) is rejected. An alpha-variant served
//! from the cache gets a certificate that checks against its own query.

use pathcons_constraints::PathConstraint;
use pathcons_core::cert::{self, CertificateBody, ImpliedCert};
use pathcons_core::{Budget, DataContext, Outcome};
use pathcons_engine::{
    canonicalize, certificate_from_json, certificate_to_json, evidence_kind, snapshot_id,
    BatchEngine, CacheOutcome, EngineConfig, Json,
};
use pathcons_graph::{Graph, LabelInterner};
use proptest::prelude::*;

/// A random constraint text over a small label alphabet (same scheme as
/// `prop_cache`).
fn constraint_text(rng_bits: u64, alphabet: &[&str]) -> String {
    let mut bits = rng_bits;
    let mut take = |n: u64| {
        let v = bits % n;
        bits /= n;
        v
    };
    let path = |take: &mut dyn FnMut(u64) -> u64| {
        let len = 1 + take(2);
        (0..len)
            .map(|_| alphabet[take(alphabet.len() as u64) as usize])
            .collect::<Vec<_>>()
            .join(".")
    };
    let lhs = path(&mut take);
    let rhs = path(&mut take);
    let arrow = if take(4) == 0 { "<-" } else { "->" };
    if take(3) == 0 {
        let prefix = path(&mut take);
        format!("{prefix}: {lhs} {arrow} {rhs}")
    } else {
        format!("{lhs} {arrow} {rhs}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certificates_round_trip_and_reject_tampering(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        phi_seed in 0u64..u64::MAX,
    ) {
        let alphabet = ["a", "b", "c"];
        let mut labels = LabelInterner::with_labels(alphabet.iter().copied());
        let sigma: Vec<PathConstraint> = seeds
            .iter()
            .map(|s| {
                PathConstraint::parse(&constraint_text(*s, &alphabet), &mut labels)
                    .expect("generated syntax is valid")
            })
            .collect();
        let phi = PathConstraint::parse(&constraint_text(phi_seed, &alphabet), &mut labels)
            .expect("generated syntax is valid");

        let context = DataContext::Semistructured;
        let engine = BatchEngine::new(EngineConfig {
            budget: Budget::small(),
            threads: 1,
            ..EngineConfig::default()
        });
        let (answer, _, certificate) = engine
            .solve_full(&context, &sigma, &phi, Budget::small())
            .unwrap();
        let decided = matches!(
            answer.outcome,
            Outcome::Implied(_) | Outcome::NotImplied(_)
        );
        let Some(certificate) = certificate else {
            // Some evidence kinds have no certificate form; nothing to
            // round-trip for this query.
            return Ok(());
        };

        let canon = canonicalize(&context, &sigma, &phi);
        let check_context = cert::CheckContext {
            snapshot: snapshot_id(&canon.key),
            sigma: &canon.key.sigma,
            phi: &canon.key.phi,
        };

        // Wire round-trip: serialize, reparse, and the checker must
        // still accept the reconstruction.
        let line = certificate_to_json(&certificate).to_string();
        let back = certificate_from_json(&Json::parse(&line).unwrap()).unwrap();
        prop_assert!(
            cert::check(&back, &check_context).is_valid(),
            "round-tripped certificate rejected for a {} outcome: {line}",
            if decided { "decided" } else { "budget" },
        );

        // Tampering with the snapshot binding is always detected.
        let mut wrong_snapshot = back;
        wrong_snapshot.snapshot ^= 1;
        prop_assert!(!cert::check(&wrong_snapshot, &check_context).is_valid());

        // Kind-specific tampering: push one rule / constraint index out
        // of range, or swap the countermodel for an inert graph that
        // refutes nothing.
        let mut mutated = certificate.clone();
        let mutable = match &mut mutated.body {
            CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)) => {
                match trace.steps.first_mut() {
                    Some(step) => {
                        step.constraint = canon.key.sigma.len();
                        true
                    }
                    None => false, // zero-step replay: nothing to flip
                }
            }
            CertificateBody::Implied(ImpliedCert::WordRewrite { steps, .. }) => {
                match steps.first_mut() {
                    Some(step) => {
                        step.rule = canon.key.sigma.len();
                        true
                    }
                    None => false, // α = β directly: no steps to flip
                }
            }
            CertificateBody::NotImplied(cm) => {
                // A single-node edgeless graph satisfies every
                // constraint vacuously (lhs paths are non-empty), so it
                // cannot witness a violation of φ.
                cm.graph = Graph::new();
                true
            }
            CertificateBody::Unknown(_) => false, // only the snapshot binds
        };
        if mutable {
            prop_assert!(
                !cert::check(&mutated, &check_context).is_valid(),
                "tampered certificate accepted: {}",
                certificate_to_json(&mutated)
            );
        }
    }
}

/// Solves `sigma ⊨ phi` (constraint texts) on `engine` and checks the
/// returned certificate against the query's own canonical form.
fn solve_checked(
    engine: &BatchEngine,
    sigma: &[&str],
    phi: &str,
) -> (Outcome, CacheOutcome, String) {
    let mut labels = LabelInterner::new();
    let sigma: Vec<PathConstraint> = sigma
        .iter()
        .map(|c| PathConstraint::parse(c, &mut labels).unwrap())
        .collect();
    let phi = PathConstraint::parse(phi, &mut labels).unwrap();
    let context = DataContext::Semistructured;
    let (answer, cache, certificate) = engine
        .solve_full(&context, &sigma, &phi, Budget::default())
        .unwrap();
    let certificate = certificate.expect("implied answers here certify");
    let canon = canonicalize(&context, &sigma, &phi);
    let check_context = cert::CheckContext {
        snapshot: snapshot_id(&canon.key),
        sigma: &canon.key.sigma,
        phi: &canon.key.phi,
    };
    assert!(cert::check(&certificate, &check_context).is_valid());
    let wire = certificate_to_json(&certificate).to_string();
    (answer.outcome, cache, wire)
}

/// Solves `original`, then its alpha-variant `variant` (both `(Σ, φ)`
/// texts) on one engine: the variant must hit the cache and be served
/// the same certificate of kind `kind`, and the same evidence kind.
fn assert_variant_hit(
    engine: &BatchEngine,
    original: (&[&str], &str),
    variant: (&[&str], &str),
    kind: &str,
) {
    let (first, cache, wire) = solve_checked(engine, original.0, original.1);
    assert_eq!(cache, CacheOutcome::Miss, "{}", original.1);
    assert!(wire.contains(&format!("\"kind\":\"{kind}\"")), "{wire}");
    let (second, cache, variant_wire) = solve_checked(engine, variant.0, variant.1);
    assert_eq!(
        cache,
        CacheOutcome::Hit,
        "{} is an alpha-variant",
        variant.1
    );
    assert_eq!(wire, variant_wire, "{}", variant.1);
    match (&first, &second) {
        (Outcome::Implied(a), Outcome::Implied(b)) => {
            assert_eq!(evidence_kind(a), evidence_kind(b), "{}", variant.1)
        }
        other => panic!("{}: expected implied answers, got {other:?}", original.1),
    }
}

/// Evidence payloads stay in the space of the job that was solved; a
/// reordered, alpha-renamed variant served from the cache still gets a
/// certificate that checks against its own query, and the same evidence
/// kind.
#[test]
fn alpha_variant_hits_get_certificates_that_check() {
    let engine = BatchEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    // Word theory: p·r ⇒ q·r ⇒ s ⇒ t, a three-step rewrite.
    assert_variant_hit(
        &engine,
        (&["p -> q", "q.r -> s", "s -> t"], "p.r -> t"),
        (&["b -> e", "a.d -> b", "c -> a"], "c.d -> e"),
        "word-rewrite",
    );
    // General P_c: decided by the chase, certified by its trace.
    assert_variant_hit(
        &engine,
        (
            &["book: author <- wrote", "book -> book"],
            "book: author -> author.wrote.author",
        ),
        (&["k -> k", "k: x <- y"], "k: x -> x.y.x"),
        "chase-trace",
    );
}
