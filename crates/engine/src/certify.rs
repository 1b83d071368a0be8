//! Certificate emission: translates solver evidence into the canonical
//! label space and self-checks it before anything is attached.
//!
//! Certificates live in the *canonical* query's label space and are
//! bound to [`crate::canon::snapshot_id`] of the canonical key, so one
//! certificate serves every alpha-variant that hits the same cache
//! entry — and an offline checker recovers the binding by
//! re-canonicalizing the job (canonicalization is deterministic across
//! processes).
//!
//! Translation per evidence kind:
//!
//! - **Chase traces** record node ids (label-independent: the ¬φ
//!   pattern has the same shape under renaming) and constraint indices
//!   into the *original* Σ; the indices are remapped by renaming the
//!   original constraint and locating it in the canonical Σ.
//! - **Word derivations** arrive with the answer: the solver extracts a
//!   shortest derivation in the original label space the moment it
//!   decides `implied`, guided by the `post*(lhs)` that decided it (see
//!   [`pathcons_core::Evidence::WordDerivation`]). It is renamed into
//!   canonical space, rule indices included, exactly like a chase
//!   trace; evidence without a derivation (the extraction fuel ran out)
//!   has no certificate.
//! - **Countermodels** are renamed edge-by-edge into canonical labels.
//!   Typed countermodels are skipped: they carry `Φ(σ)` obligations the
//!   untyped checker cannot audit.
//! - **`Unknown`** answers get the budget audit record.
//!
//! Evidence with no certificate form (`I_r` proofs, local-extent and
//! vacuity arguments, inconsistency witnesses) yields `None` — those
//! hits are served unchecked in `--verify` check mode. Every emitted
//! certificate is validated with the trusted checker first; anything
//! the checker would reject is dropped at the source.

use crate::canon::{self, CanonicalQuery};
use pathcons_cert::{
    self as cert, Certificate, CertificateBody, ChaseStep, ChaseTrace, CounterModelCert,
    ImpliedCert, RewriteStep,
};
use pathcons_constraints::PathConstraint;
use pathcons_core::{Answer, Derivation, Evidence, Outcome, SharedContext};
use pathcons_graph::Label;

/// Builds the canonical-space certificate for `answer`, or `None` when
/// the evidence has no certificate form. `original_sigma` is the Σ the
/// solver actually ran on: chase trace and word derivation indices point
/// into it, and its labels are renamed into canonical space.
/// `original_phi` and `shared` are not read (word evidence carries its
/// derivation, so nothing is extracted here); they remain in the
/// signature until the benchmark harness that calls `certify` is changed
/// to drop them.
///
/// The returned certificate has already passed the trusted checker
/// against the canonical query — emission is self-checking, so an
/// engine bug that produces an unreplayable trace results in an
/// uncertified entry, never an invalid certificate on the wire.
pub fn certify(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    _original_phi: &PathConstraint,
    answer: &Answer,
    _shared: Option<&SharedContext>,
) -> Option<Certificate> {
    let body = match &answer.outcome {
        Outcome::Implied(evidence) => {
            CertificateBody::Implied(implied_cert(canonical, original_sigma, evidence)?)
        }
        Outcome::NotImplied(refutation) => {
            let cm = refutation.countermodel.as_ref()?;
            if cm.types.is_some() {
                return None;
            }
            let graph = canon::rename_graph(&cm.graph, &canonical.renaming)?;
            CertificateBody::NotImplied(CounterModelCert { graph })
        }
        Outcome::Unknown(reason) => {
            let (kind, phase) = crate::batch::unknown_reason_wire(reason);
            CertificateBody::Unknown(cert::BudgetCert {
                reason: kind.to_owned(),
                phase: phase.map(str::to_owned),
            })
        }
    };
    // Only now that a body exists: evidence without a certificate form
    // returns above without hashing the key.
    let snapshot = canon::snapshot_id(&canonical.key);
    let certificate = Certificate { snapshot, body };
    let context = cert::CheckContext {
        snapshot,
        sigma: &canonical.key.sigma,
        phi: &canonical.key.phi,
    };
    if cert::check(&certificate, &context).is_valid() {
        Some(certificate)
    } else {
        None
    }
}

fn implied_cert(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    evidence: &Evidence,
) -> Option<ImpliedCert> {
    match evidence {
        // Only complete traces certify: the reference chase emits an
        // empty trace for positive step counts (its merges rebuild the
        // graph with fresh ids, which would not replay).
        Evidence::ChaseForced { steps, trace } if trace.steps.len() == *steps => {
            let mut remapped = Vec::with_capacity(trace.steps.len());
            for step in &trace.steps {
                let original = original_sigma.get(step.constraint)?;
                let renamed = canon::rename_constraint(original, &canonical.renaming)?;
                let index = canonical.key.sigma.iter().position(|c| *c == renamed)?;
                remapped.push(ChaseStep {
                    constraint: index,
                    a: step.a,
                    b: step.b,
                });
            }
            Some(ImpliedCert::ChaseReplay(ChaseTrace {
                steps: remapped,
                pattern_at: trace.pattern_at,
            }))
        }
        Evidence::WordDerivation(derivation) => {
            word_rewrite_cert(canonical, original_sigma, derivation.as_deref()?)
        }
        // The untyped-transfer wrapper is sound to strip: the inner
        // evidence certifies implication over all structures, which
        // the checker's semantics already are.
        Evidence::UntypedImplication(inner) => implied_cert(canonical, original_sigma, inner),
        _ => None,
    }
}

/// Renames a word-rewrite derivation from the *original* label space
/// into canonical space, step indices included, exactly like the chase
/// branch. The derivation is a function of (Σ, α, β) and the language of
/// `post*(α)`, so the certificate bytes do not depend on whether the
/// solver ran warm or cold.
fn word_rewrite_cert(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    d: &Derivation,
) -> Option<ImpliedCert> {
    let start = rename_word(&d.start, canonical)?;
    let mut steps = Vec::with_capacity(d.steps.len());
    for s in &d.steps {
        let original = original_sigma.get(s.rule)?;
        let renamed = canon::rename_constraint(original, &canonical.renaming)?;
        let rule = canonical.key.sigma.iter().position(|c| *c == renamed)?;
        steps.push(RewriteStep {
            rule,
            result: rename_word(&s.result, canonical)?,
        });
    }
    Some(ImpliedCert::WordRewrite { start, steps })
}

fn rename_word(word: &[Label], canonical: &CanonicalQuery) -> Option<Vec<Label>> {
    word.iter()
        .map(|l| canonical.renaming.get(l).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_core::{DataContext, Solver};
    use pathcons_graph::LabelInterner;

    fn certify_query(sigma_text: &str, phi_text: &str) -> (Option<Certificate>, Answer) {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(sigma_text, &mut labels).unwrap();
        let phi = PathConstraint::parse(phi_text, &mut labels).unwrap();
        let answer = Solver::new(DataContext::Semistructured)
            .implies(&sigma, &phi)
            .unwrap();
        let canonical = canon::canonicalize(&DataContext::Semistructured, &sigma, &phi);
        (certify(&canonical, &sigma, &phi, &answer, None), answer)
    }

    #[test]
    fn word_implications_get_checked_rewrite_certificates() {
        let (certificate, answer) = certify_query("a -> b\nb -> c", "a -> c");
        assert!(answer.outcome.is_implied());
        let certificate = certificate.expect("word evidence certifies");
        assert!(matches!(
            certificate.body,
            CertificateBody::Implied(ImpliedCert::WordRewrite { .. })
                | CertificateBody::Implied(ImpliedCert::ChaseReplay(_))
        ));
    }

    /// The word answer for `a -> c` from `a -> b`, `b -> c` and its
    /// query, with the evidence swapped for `evidence(derivation)`.
    fn word_answer_with(
        evidence: impl FnOnce(Box<Derivation>) -> Evidence,
    ) -> (CanonicalQuery, Vec<PathConstraint>, PathConstraint, Answer) {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\nb -> c", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> c", &mut labels).unwrap();
        let mut answer = Solver::new(DataContext::Semistructured)
            .implies(&sigma, &phi)
            .unwrap();
        let Outcome::Implied(Evidence::WordDerivation(Some(derivation))) = answer.outcome else {
            panic!("word evidence carries its derivation: {answer:?}");
        };
        answer.outcome = Outcome::Implied(evidence(derivation));
        let canonical = canon::canonicalize(&DataContext::Semistructured, &sigma, &phi);
        (canonical, sigma, phi, answer)
    }

    #[test]
    fn word_evidence_without_a_derivation_is_uncertified() {
        // Nothing is extracted here: no derivation, no certificate.
        let (canonical, sigma, phi, answer) = word_answer_with(|_| Evidence::WordDerivation(None));
        assert!(certify(&canonical, &sigma, &phi, &answer, None).is_none());
    }

    #[test]
    fn unreplayable_derivations_are_dropped_by_the_checker() {
        // Swapping the two steps' rules keeps every index in range, so a
        // certificate body is built; replay fails at the first step.
        let (canonical, sigma, phi, answer) = word_answer_with(|mut d| {
            let (first, second) = (d.steps[0].rule, d.steps[1].rule);
            d.steps[0].rule = second;
            d.steps[1].rule = first;
            Evidence::WordDerivation(Some(d))
        });
        let Outcome::Implied(evidence) = &answer.outcome else {
            unreachable!()
        };
        assert!(implied_cert(&canonical, &sigma, evidence).is_some());
        assert!(certify(&canonical, &sigma, &phi, &answer, None).is_none());
    }

    #[test]
    fn refutations_get_countermodel_certificates_in_canonical_space() {
        let mut labels = LabelInterner::new();
        // Use non-canonical label names so the renaming is non-trivial.
        let sigma = parse_constraints("x -> y", &mut labels).unwrap();
        let phi = PathConstraint::parse("y -> x", &mut labels).unwrap();
        let answer = Solver::new(DataContext::Semistructured)
            .implies(&sigma, &phi)
            .unwrap();
        assert!(answer.outcome.is_not_implied());
        let canonical = canon::canonicalize(&DataContext::Semistructured, &sigma, &phi);
        let certificate =
            certify(&canonical, &sigma, &phi, &answer, None).expect("countermodel certifies");
        assert!(matches!(certificate.body, CertificateBody::NotImplied(_)));
        // It validates against the canonical query, as any alpha-variant
        // hitting the same entry would present it.
        let context = cert::CheckContext {
            snapshot: canon::snapshot_id(&canonical.key),
            sigma: &canonical.key.sigma,
            phi: &canonical.key.phi,
        };
        assert!(cert::check(&certificate, &context).is_valid());
    }

    #[test]
    fn chase_traces_remap_constraint_indices_into_canonical_sigma() {
        // General P_c (growing rhs + backward): routed to the chase.
        // Labels chosen so canonical order differs from input order.
        let (certificate, answer) = certify_query("z: m -> m.n\nz: q <- m.n", "z: m -> m.n.q");
        if !answer.outcome.is_implied() {
            // Budget-dependent: if the chase did not decide it, there is
            // nothing to certify here.
            return;
        }
        if let Some(certificate) = certificate {
            assert!(matches!(
                certificate.body,
                CertificateBody::Implied(ImpliedCert::ChaseReplay(_))
            ));
        }
    }
}
