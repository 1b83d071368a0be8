//! Test-only oracles for the engine's integration tests.

use pathcons_constraints::{Kind, PathConstraint};
use pathcons_engine::canon::rename_constraint;
use pathcons_engine::{CanonicalQuery, ContextKey, QueryKey, Renaming};
use pathcons_graph::Label;
use std::collections::HashSet;

/// The direct greedy alpha-renaming that `canonicalize` computes
/// incrementally, for the `Semistructured` context: at every step,
/// rename each remaining constraint on a copy of the renaming and place
/// the first whose renamed form is smallest. Quadratic in |Σ|, which is
/// why it lives here as the oracle and not in the library.
pub fn canonicalize_reference(sigma: &[PathConstraint], phi: &PathConstraint) -> CanonicalQuery {
    let mut seen: HashSet<&PathConstraint> = HashSet::new();
    let mut remaining: Vec<&PathConstraint> = sigma.iter().filter(|c| seen.insert(*c)).collect();

    let mut renaming = Renaming::new();
    let mut next = 0usize;
    assign_first_occurrence(&mut renaming, &mut next, phi);
    remaining.sort_by_cached_key(|c| self_key(c));

    let mut renamed_sigma: Vec<PathConstraint> = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut best: Option<(usize, PathConstraint, Renaming, usize)> = None;
        for (i, c) in remaining.iter().enumerate() {
            let mut trial = renaming.clone();
            let mut trial_next = next;
            assign_first_occurrence(&mut trial, &mut trial_next, c);
            let rc = rename_constraint(c, &trial).expect("trial renaming covers c");
            let better = match &best {
                None => true,
                Some((_, bc, _, _)) => sort_key(&rc) < sort_key(bc),
            };
            if better {
                best = Some((i, rc, trial, trial_next));
            }
        }
        let (i, rc, committed, committed_next) = best.expect("remaining is non-empty");
        renaming = committed;
        next = committed_next;
        renamed_sigma.push(rc);
        remaining.remove(i);
    }
    renamed_sigma.sort_by_key(sort_key);
    renamed_sigma.dedup();
    let phi = rename_constraint(phi, &renaming).expect("φ's labels were assigned first");
    CanonicalQuery {
        key: QueryKey {
            context: ContextKey::Semistructured,
            sigma: renamed_sigma,
            phi,
            revision: 0,
        },
        renaming,
    }
}

fn constraint_labels(c: &PathConstraint) -> impl Iterator<Item = Label> + '_ {
    c.prefix()
        .labels()
        .iter()
        .chain(c.lhs().labels())
        .chain(c.rhs().labels())
        .copied()
}

fn assign_first_occurrence(map: &mut Renaming, next: &mut usize, c: &PathConstraint) {
    for l in constraint_labels(c) {
        map.entry(l).or_insert_with(|| {
            *next += 1;
            Label::from_index(*next - 1)
        });
    }
}

fn sort_key(c: &PathConstraint) -> (u8, Vec<u32>, Vec<u32>, Vec<u32>) {
    let kind = match c.kind() {
        Kind::Forward => 0u8,
        Kind::Backward => 1u8,
    };
    let path = |p: &pathcons_constraints::Path| -> Vec<u32> {
        p.labels().iter().map(|l| l.index() as u32).collect()
    };
    (kind, path(c.prefix()), path(c.lhs()), path(c.rhs()))
}

fn self_key(c: &PathConstraint) -> (u8, Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut map = Renaming::new();
    let mut next = 0usize;
    assign_first_occurrence(&mut map, &mut next, c);
    sort_key(&rename_constraint(c, &map).expect("self renaming covers c"))
}
