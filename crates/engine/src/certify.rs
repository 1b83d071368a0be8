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
//! - **Word derivations** are re-extracted in the original label space
//!   (the solver's `WordDerivation` evidence carries no steps) by the
//!   meet-in-the-middle search of [`pathcons_core::derivation_guided`]:
//!   forward from φ's lhs, backward from its rhs pruned by the
//!   context's cached `post*(lhs)`, over the context's rule index (cold
//!   callers build both per call). The shortest derivation found is
//!   renamed into canonical space, rule indices included.
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
use pathcons_core::{Answer, Evidence, Outcome, SharedContext, SharedWord};
use pathcons_graph::Label;

/// Visited-word budget for re-extracting a word derivation: words
/// visited by the forward and the backward side of the search together.
/// Shortest derivations can be exponentially long; extraction is
/// best-effort (a `None` just means the hit is served unchecked).
const WORD_DERIVATION_FUEL: usize = 20_000;

/// Builds the canonical-space certificate for `answer`, or `None` when
/// the evidence has no certificate form. `original_sigma` and
/// `original_phi` are the query the solver actually ran on (chase trace
/// indices point into that Σ; word derivations are extracted in its
/// label space and renamed). `shared` is the per-context amortization
/// state, when the query ran against one: word-derivation extraction
/// reuses its cached `post*` saturation instead of re-saturating per
/// certificate.
///
/// The returned certificate has already passed the trusted checker
/// against the canonical query — emission is self-checking, so an
/// engine bug that produces an unreplayable trace results in an
/// uncertified entry, never an invalid certificate on the wire.
pub fn certify(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    original_phi: &PathConstraint,
    answer: &Answer,
    shared: Option<&SharedContext>,
) -> Option<Certificate> {
    let body = match &answer.outcome {
        Outcome::Implied(evidence) => CertificateBody::Implied(implied_cert(
            canonical,
            original_sigma,
            original_phi,
            evidence,
            shared,
        )?),
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
    original_phi: &PathConstraint,
    evidence: &Evidence,
    shared: Option<&SharedContext>,
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
        Evidence::WordDerivation => {
            word_rewrite_cert(canonical, original_sigma, original_phi, shared)
        }
        // The untyped-transfer wrapper is sound to strip: the inner
        // evidence certifies implication over all structures, which
        // the checker's semantics already are.
        Evidence::UntypedImplication(inner) => {
            implied_cert(canonical, original_sigma, original_phi, inner, shared)
        }
        _ => None,
    }
}

/// Extracts the word-rewrite derivation in the *original* label space —
/// where the context's cached `post*(α)` saturation lives — then renames
/// it into canonical space, step indices included, exactly like the
/// chase branch. Cold callers rebuild the same saturation the decision
/// procedure used, so the extracted derivation (and hence the
/// certificate bytes) is identical across cache temperature.
fn word_rewrite_cert(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    original_phi: &PathConstraint,
    shared: Option<&SharedContext>,
) -> Option<ImpliedCert> {
    let owned;
    let word = match shared.and_then(|s| s.word_for(original_sigma)) {
        Some(w) => w,
        None => {
            owned = SharedWord::build(original_sigma)?;
            &owned
        }
    };
    let d = word.derivation(original_phi.lhs(), original_phi.rhs(), WORD_DERIVATION_FUEL)?;
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
