//! Canonical query keys — the normal form the answer cache is keyed by.
//!
//! Implication `Σ ⊨ φ` is invariant under bijective renaming of labels:
//! a structure witnesses (or refutes) the renamed query iff its renamed
//! copy witnesses the original. The cache exploits this by keying
//! entries on an *alpha-renamed normal form* of `(context, Σ, φ)`:
//!
//! 1. Σ is de-duplicated (it denotes a set of constraints, not a list).
//! 2. Labels are renamed to `0, 1, 2, …` — first by order of occurrence
//!    in φ, then constraint by constraint, greedily choosing at each
//!    step the constraint whose renamed form is smallest (ties go to
//!    the first in an order presorted by each constraint's shape).
//! 3. The renamed Σ is sorted.
//!
//! Step 2 is incremental. A candidate's *trial key* writes its
//! already-renamed labels as their ids and its k-th distinct
//! unassigned label as the symbol `fresh + k`, where `fresh` lies
//! above every id the query can assign. Placing the candidate would
//! give that label the id `next + k`, and every assigned id is below
//! `next`, so symbolic keys order the candidates exactly as their
//! renamed forms do — but, unlike the renamed forms, a symbolic key
//! changes only when one of the candidate's *own* labels gets an id.
//! Candidates sit in a min-heap keyed by `(trial key, presort
//! position)`; placing one re-keys just the constraints that share a
//! newly renamed label (a label → constraints index finds them) and
//! leaves their old heap entries to be skipped as stale. Each
//! constraint is keyed once up front and at most once per distinct
//! label it holds, so the greedy costs
//! `O(Σ_c |c| · |labels(c)| · log |Σ|)` instead of re-trying every
//! remaining constraint at each of the `|Σ|` steps.
//!
//! The key **is** the renamed query, so a collision between two queries
//! proves they are alpha-equivalent (the renamings are injective by
//! construction) — cache hits are sound by construction, never by
//! hash-fingerprint luck. The converse is best-effort: symmetric ties
//! in step 2 are broken by input order, so some exotic alpha-variants
//! hash apart and merely miss. That costs a re-solve, never an answer.
//!
//! Schema contexts (`M`, `M⁺`, `M⁺_f`) pin label identities to the
//! schema, so their queries keep their labels (identity renaming) and
//! the key carries a structural fingerprint of the schema instead.

use pathcons_constraints::{Kind, Path, PathConstraint};
use pathcons_core::DataContext;
use pathcons_graph::{Graph, Label};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::{self, Write as _};

/// An injective label renaming, as a total map on the labels it covers.
pub type Renaming = BTreeMap<Label, Label>;

/// The context part of a cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ContextKey {
    /// All semistructured structures (alpha-renaming applies).
    Semistructured,
    /// Model `M` over a schema with the given structural fingerprint.
    M(u64),
    /// `M⁺` over a fingerprinted schema.
    MPlus(u64),
    /// `M⁺_f` over a fingerprinted schema.
    MPlusFinite(u64),
}

impl ContextKey {
    /// The key of a solver context.
    pub fn of(context: &DataContext) -> ContextKey {
        match context {
            DataContext::Semistructured => ContextKey::Semistructured,
            DataContext::M(ctx) => ContextKey::M(fingerprint(&ctx.schema)),
            DataContext::MPlus(ctx) => ContextKey::MPlus(fingerprint(&ctx.schema)),
            DataContext::MPlusFinite(ctx) => ContextKey::MPlusFinite(fingerprint(&ctx.schema)),
        }
    }

    /// Whether queries in this context may be alpha-renamed (labels not
    /// pinned by a schema).
    pub fn renames_labels(&self) -> bool {
        matches!(self, ContextKey::Semistructured)
    }
}

/// FNV-1a over a value's structural debug rendering, hashed as the
/// formatter emits it (no intermediate `String`). Used to separate
/// *different* schemas into different cache keys; the constraints
/// themselves are stored structurally, so a (vanishingly unlikely)
/// fingerprint collision between two distinct schemas could at worst
/// conflate their contexts — acceptable for a cache whose verify mode
/// re-checks, and irrelevant for the single-schema batches the service
/// front-end produces.
fn fingerprint(value: &dyn fmt::Debug) -> u64 {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    // Writing into the hasher never fails; a value whose `Debug` errors
    // just hashes the bytes it emitted.
    let _ = write!(hash, "{value:?}");
    hash.0
}

/// FNV-1a state, fed through [`fmt::Write`].
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// A stable fingerprint of a canonical query — the *snapshot id*
/// certificates are bound to.
///
/// Computed over the structural debug rendering of the key with the
/// same FNV-1a used for schema fingerprints. Canonicalization renames
/// labels to first-occurrence order anchored at φ, so alpha-variants of
/// a query share a snapshot id across processes — an offline checker
/// that re-canonicalizes a job recovers the id the engine issued the
/// certificate under.
///
/// The [`QueryKey::revision`] field is excluded: it scopes *cache
/// reuse*, not query identity. The same `(context, Σ, φ)` asked at two
/// store revisions is one logical query with one certificate, and an
/// offline auditor re-canonicalizing the job text (which records no
/// revision) must recover the id the engine issued.
pub fn snapshot_id(key: &QueryKey) -> u64 {
    fingerprint(&Revisionless(key))
}

/// Renders a key exactly as its derived `Debug` would with `revision`
/// zeroed, without cloning it.
struct Revisionless<'a>(&'a QueryKey);

impl fmt::Debug for Revisionless<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryKey")
            .field("context", &self.0.context)
            .field("sigma", &self.0.sigma)
            .field("phi", &self.0.phi)
            .field("revision", &0u64)
            .finish()
    }
}

/// The cache key: the alpha-renamed normal form itself.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Context discriminant (plus schema fingerprint where applicable).
    pub context: ContextKey,
    /// Renamed, de-duplicated, sorted Σ.
    pub sigma: Vec<PathConstraint>,
    /// Renamed φ.
    pub phi: PathConstraint,
    /// Revision of the resident context the query ran against (`0` for
    /// queries outside a mutable store). Part of the key's equality, so
    /// answers cached under an earlier revision of a mutated context
    /// can never be served to a later one — per-context invalidation by
    /// construction, without flushing unrelated entries. Excluded from
    /// [`snapshot_id`]: certificates name the query, not the revision.
    pub revision: u64,
}

/// A canonicalized query: the key plus the renaming that produced it.
#[derive(Clone, Debug)]
pub struct CanonicalQuery {
    /// The cache key.
    pub key: QueryKey,
    /// Query labels → canonical labels (identity for schema contexts).
    pub renaming: Renaming,
}

/// Computes the canonical form of a query.
pub fn canonicalize(
    context: &DataContext,
    sigma: &[PathConstraint],
    phi: &PathConstraint,
) -> CanonicalQuery {
    let context_key = ContextKey::of(context);
    if !context_key.renames_labels() {
        return identity_canonical(context_key, sigma, phi);
    }
    // Alpha-renaming, anchored at φ. Σ's duplicates need no removal
    // here: a copy has its original's key and a later presort position,
    // so it is placed after the original and renames nothing. The sort
    // below drops it.
    let Some((renaming, _)) = greedy_renaming(sigma, phi) else {
        // Unreachable (every label is covered, ids fit), but never abort.
        return identity_canonical(context_key, sigma, phi);
    };
    let mut renamed_sigma = Vec::with_capacity(sigma.len());
    for c in sigma {
        // The greedy renamed every label of Σ, so the rename is total.
        // If that invariant is ever broken, degrade to the identity
        // form instead of aborting — the query stays solvable and
        // cacheable, just without alpha-variant sharing.
        let Some(rc) = rename_constraint(c, &renaming) else {
            return identity_canonical(context_key, sigma, phi);
        };
        renamed_sigma.push(rc);
    }
    renamed_sigma.sort_by(constraint_order);
    renamed_sigma.dedup();

    let Some(renamed_phi) = rename_constraint(phi, &renaming) else {
        // Unreachable (φ's labels were assigned first), but never abort.
        return identity_canonical(context_key, sigma, phi);
    };
    CanonicalQuery {
        key: QueryKey {
            context: context_key,
            sigma: renamed_sigma,
            phi: renamed_phi,
            revision: 0,
        },
        renaming,
    }
}

/// The identity-renamed canonical form: Σ de-duplicated and sorted,
/// labels kept as-is. The normal form for schema contexts (labels are
/// pinned by the schema), and the never-abort fallback should the
/// alpha-renaming pass ever fail to cover a label.
fn identity_canonical(
    context_key: ContextKey,
    sigma: &[PathConstraint],
    phi: &PathConstraint,
) -> CanonicalQuery {
    let mut renaming = Renaming::new();
    for c in sigma.iter().chain(std::iter::once(phi)) {
        for l in constraint_labels(c) {
            renaming.insert(l, l);
        }
    }
    let mut sigma = sigma.to_vec();
    sigma.sort_by(constraint_order);
    sigma.dedup();
    CanonicalQuery {
        key: QueryKey {
            context: context_key,
            sigma,
            phi: phi.clone(),
            revision: 0,
        },
        renaming,
    }
}

/// All labels of a constraint, in scan order (prefix, lhs, rhs).
fn constraint_labels(c: &PathConstraint) -> impl Iterator<Item = Label> + '_ {
    c.prefix()
        .labels()
        .iter()
        .chain(c.lhs().labels())
        .chain(c.rhs().labels())
        .copied()
}

/// Marks a label without a canonical id yet.
const UNASSIGNED: u32 = u32::MAX;

/// Ends the prefix and the lhs inside a flat template or key. It sorts
/// below every label symbol, so a path sorts before its extensions —
/// the lexicographic order on `(kind, prefix, lhs, rhs)`.
const SEP: u32 = 0;

/// The label state of the greedy, over *local* label numbers: the
/// query's distinct labels in ascending order, so the arrays are sized
/// by the query, not by the interner.
///
/// A constraint's *template* is one flat vector: its kind (0 forward,
/// 1 backward), then its prefix, lhs and rhs as local numbers plus one,
/// each path but the last closed by [`SEP`]. Keys share the layout,
/// with every label symbol rewritten (see [`Labels::key`]).
struct Labels {
    /// Canonical id of each local label, or [`UNASSIGNED`].
    ids: Vec<u32>,
    /// Scratch for [`Labels::key`]: the fresh symbol of each unassigned
    /// label seen so far in the template being keyed.
    pending: Vec<u32>,
    /// The symbol of a candidate's first fresh label: above `id + 1` for
    /// every id the query can assign.
    fresh: u32,
    /// The id the next newly renamed label gets.
    next: u32,
}

impl Labels {
    /// The trial key of `template`: an assigned label becomes `id + 1`,
    /// the k-th distinct unassigned one `fresh + k`.
    fn key(&mut self, template: &[u32]) -> Vec<u32> {
        let (kind, syms) = template.split_at(1);
        let mut key = Vec::with_capacity(template.len());
        key.extend_from_slice(kind);
        let mut fresh = self.fresh;
        for &sym in syms {
            if sym == SEP {
                key.push(SEP);
                continue;
            }
            let l = sym as usize - 1;
            key.push(match (self.ids[l], self.pending[l]) {
                (UNASSIGNED, UNASSIGNED) => {
                    self.pending[l] = fresh;
                    fresh += 1;
                    self.pending[l]
                }
                (UNASSIGNED, pending) => pending,
                (id, _) => id + 1,
            });
        }
        for l in local_labels(template) {
            self.pending[l] = UNASSIGNED;
        }
        key
    }

    /// Gives `template`'s unassigned labels the next ids, in order of
    /// first occurrence, appending them to `placed`.
    fn place(&mut self, template: &[u32], placed: &mut Vec<usize>) {
        for l in local_labels(template) {
            if self.ids[l] == UNASSIGNED {
                self.ids[l] = self.next;
                self.next += 1;
                placed.push(l);
            }
        }
    }
}

/// The local label numbers of a template, in scan order.
fn local_labels(template: &[u32]) -> impl Iterator<Item = usize> + '_ {
    template[1..]
        .iter()
        .filter(|&&sym| sym != SEP)
        .map(|&sym| sym as usize - 1)
}

/// Step 2 of the module doc: renames φ's labels first, then places Σ's
/// constraints greedily, smallest trial key first, re-keying only the
/// constraints that share a newly renamed label. Returns the renaming
/// and the number of trial keys computed (the work counter that pins
/// the greedy's complexity in tests); `None` only if the ids could
/// not fit the key encoding (2³¹ distinct labels or more).
fn greedy_renaming(sigma: &[PathConstraint], phi: &PathConstraint) -> Option<(Renaming, usize)> {
    let mut alphabet: Vec<Label> = constraint_labels(phi)
        .chain(sigma.iter().flat_map(constraint_labels))
        .collect();
    alphabet.sort_unstable();
    alphabet.dedup();
    // Assigned symbols run 1..=n and fresh ones fresh..2n: all in u32.
    let n = u32::try_from(alphabet.len())
        .ok()
        .filter(|n| *n < u32::MAX / 2)?;
    let template = |c: &PathConstraint| -> Option<Vec<u32>> {
        let kind = match c.kind() {
            Kind::Forward => 0,
            Kind::Backward => 1,
        };
        let mut t = vec![kind];
        for (i, path) in [c.prefix(), c.lhs(), c.rhs()].into_iter().enumerate() {
            if i > 0 {
                t.push(SEP);
            }
            for l in path.labels() {
                t.push(alphabet.binary_search(l).ok()? as u32 + 1);
            }
        }
        Some(t)
    };
    let mut labels = Labels {
        ids: vec![UNASSIGNED; alphabet.len()],
        pending: vec![UNASSIGNED; alphabet.len()],
        fresh: n + 1,
        next: 0,
    };

    // Presort by each constraint's *self-canonical* shape — its key with
    // nothing renamed yet — which is independent of the caller's label
    // names and of Σ's order, so greedy tie-breaks depend on neither.
    // The sort is stable: equal shapes keep their order in Σ.
    let mut candidates: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(sigma.len());
    for c in sigma {
        let t = template(c)?;
        candidates.push((labels.key(&t), t));
    }
    candidates.sort_by(|a, b| a.0.cmp(&b.0));
    let templates: Vec<Vec<u32>> = candidates.into_iter().map(|(_, t)| t).collect();

    // Label → positions of the constraints holding it, each listed once
    // (positions are visited in order, so a repeat is always the last).
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); alphabet.len()];
    for (pos, t) in templates.iter().enumerate() {
        for l in local_labels(t) {
            if holders[l].last() != Some(&pos) {
                holders[l].push(pos);
            }
        }
    }

    let mut placed = Vec::new();
    labels.place(&template(phi)?, &mut placed);

    // Each heap entry carries the step that keyed it (0 up front); a
    // constraint's entry is current iff its stamp matches `keyed`. The
    // stamp also re-keys a holder of two newly renamed labels once.
    let mut keyed = vec![0usize; templates.len()];
    let mut done = vec![false; templates.len()];
    let mut heap: BinaryHeap<Reverse<(Vec<u32>, usize, usize)>> = templates
        .iter()
        .enumerate()
        .map(|(pos, t)| Reverse((labels.key(t), pos, 0)))
        .collect();
    let mut trial_keys = templates.len();
    let mut step = 0;
    while let Some(Reverse((_, pos, stamp))) = heap.pop() {
        if done[pos] || stamp != keyed[pos] {
            continue;
        }
        done[pos] = true;
        step += 1;
        placed.clear();
        labels.place(&templates[pos], &mut placed);
        for &l in &placed {
            for &holder in &holders[l] {
                if done[holder] || keyed[holder] == step {
                    continue;
                }
                keyed[holder] = step;
                heap.push(Reverse((labels.key(&templates[holder]), holder, step)));
                trial_keys += 1;
            }
        }
    }

    let renaming = alphabet
        .iter()
        .zip(&labels.ids)
        .filter(|(_, id)| **id != UNASSIGNED)
        .map(|(l, id)| (*l, Label::from_index(*id as usize)))
        .collect();
    Some((renaming, trial_keys))
}

/// Applies a renaming to a constraint; `None` if a label is uncovered.
pub fn rename_constraint(c: &PathConstraint, map: &Renaming) -> Option<PathConstraint> {
    let prefix = rename_path(c.prefix(), map)?;
    let lhs = rename_path(c.lhs(), map)?;
    let rhs = rename_path(c.rhs(), map)?;
    Some(match c.kind() {
        Kind::Forward => PathConstraint::forward(prefix, lhs, rhs),
        Kind::Backward => PathConstraint::backward(prefix, lhs, rhs),
    })
}

fn rename_path(path: &Path, map: &Renaming) -> Option<Path> {
    let labels: Option<Vec<Label>> = path.labels().iter().map(|l| map.get(l).copied()).collect();
    Some(Path::from_labels(labels?))
}

/// Applies a renaming to a graph's edge labels, preserving nodes and
/// root; `None` if an edge label is uncovered.
pub fn rename_graph(graph: &Graph, map: &Renaming) -> Option<Graph> {
    let mut out = Graph::with_capacity(graph.node_count());
    for _ in 1..graph.node_count() {
        out.add_node();
    }
    out.set_root(graph.root());
    for (from, label, to) in graph.edges() {
        out.add_edge(from, *map.get(&label)?, to);
    }
    Some(out)
}

/// Inverts an injective renaming.
pub fn invert(map: &Renaming) -> Renaming {
    map.iter().map(|(k, v)| (*v, *k)).collect()
}

/// Total order on constraints used for canonical sorting: forward
/// before backward, then prefix, lhs and rhs, each lexicographic by
/// label id.
fn constraint_order(a: &PathConstraint, b: &PathConstraint) -> Ordering {
    let backward = |c: &PathConstraint| c.kind() == Kind::Backward;
    (backward(a), a.prefix(), a.lhs(), a.rhs()).cmp(&(backward(b), b.prefix(), b.lhs(), b.rhs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;
    use std::collections::HashSet;

    fn canon(sigma_text: &str, phi_text: &str) -> QueryKey {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(sigma_text, &mut labels).unwrap();
        let phi = PathConstraint::parse(phi_text, &mut labels).unwrap();
        canonicalize(&DataContext::Semistructured, &sigma, &phi).key
    }

    #[test]
    fn renamed_variants_share_a_key() {
        // Same query up to label names and Σ order.
        let a = canon("a -> b\nb -> c", "a -> c");
        let b = canon("y -> z\nx -> y", "x -> z");
        assert_eq!(a, b);
    }

    #[test]
    fn duplicates_and_order_are_normalized() {
        let a = canon("a -> b\na -> b\nb -> a", "a -> a");
        let b = canon("b -> a\na -> b", "a -> a");
        assert_eq!(a, b);
    }

    #[test]
    fn different_shapes_get_different_keys() {
        let a = canon("a -> b", "b -> a");
        let b = canon("a -> b", "a -> b");
        assert_ne!(a, b);
        let fwd = canon("p: a -> b", "a -> b");
        let bwd = canon("p: a <- b", "a -> b");
        assert_ne!(fwd, bwd);
    }

    #[test]
    fn renaming_is_injective_and_total() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("q: a.b -> c\nc -> a", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> c", &mut labels).unwrap();
        let canon = canonicalize(&DataContext::Semistructured, &sigma, &phi);
        let images: HashSet<Label> = canon.renaming.values().copied().collect();
        assert_eq!(images.len(), canon.renaming.len(), "injective");
        assert_eq!(canon.renaming.len(), 4, "covers a, b, c, q");
    }

    #[test]
    fn phi_anchors_the_smallest_ids() {
        let mut labels = LabelInterner::new();
        let z = labels.intern("z");
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("z -> z", &mut labels).unwrap();
        let canon = canonicalize(&DataContext::Semistructured, &sigma, &phi);
        assert_eq!(canon.renaming[&z], Label::from_index(0));
    }

    #[test]
    fn snapshot_ids_track_alpha_equivalence() {
        let a = canon("a -> b\nb -> c", "a -> c");
        let b = canon("y -> z\nx -> y", "x -> z");
        assert_eq!(snapshot_id(&a), snapshot_id(&b), "alpha-variants share");
        let c = canon("a -> b", "a -> b");
        assert_ne!(snapshot_id(&a), snapshot_id(&c), "different queries differ");
    }

    #[test]
    fn revision_scopes_keys_but_not_snapshot_ids() {
        let base = canon("a -> b\nb -> c", "a -> c");
        let bumped = QueryKey {
            revision: 3,
            ..base.clone()
        };
        // Different revisions are different cache keys…
        assert_ne!(base, bumped);
        // …but one logical query: certificates bind to one snapshot id.
        assert_eq!(snapshot_id(&base), snapshot_id(&bumped));
    }

    #[test]
    fn snapshot_ids_are_pinned() {
        // Ids that certificates already on the wire carry: the bytes the
        // hasher sees must not change.
        let cases = [
            (
                "a -> b\nb -> c",
                "a -> c",
                0x8906_b551_163c_dc43,
                0xa62b_47c9_08ef_97d8,
            ),
            (
                "p: a.b -> c\nq: c <- a\n() -> a\na.a -> ()",
                "p: a -> a.b",
                0x4edf_ebf2_8415_fe35,
                0x2d54_1627_e495_6e2c,
            ),
            (
                "x -> y\ny -> x\nz: x.y <- y.x.z",
                "z -> z",
                0x2997_e385_b825_dfb4,
                0x4314_ba03_cb04_230d,
            ),
            ("", "() -> ()", 0x6325_022f_5dcb_8673, 0xa3b0_8ab1_caf2_8248),
            (
                "w0.w1 -> w2\nw2.w3 -> w0.w1.w4\nw5 -> w6.w7\nw6: w7 <- w5.w0\nw3 -> w3.w3",
                "w0.w1 -> w4.w2",
                0xb725_c941_b133_b984,
                0x6b50_2080_b774_b4b9,
            ),
        ];
        for (sigma, phi, id, typed_id) in cases {
            let mut key = canon(sigma, phi);
            key.revision = 7;
            assert_eq!(snapshot_id(&key), id, "{sigma} ⊨ {phi}");
            key.context = ContextKey::MPlus(0xdead_beef);
            assert_eq!(snapshot_id(&key), typed_id, "{sigma} ⊨ {phi} under M⁺");
        }
    }

    #[test]
    fn schema_fingerprints_hash_the_rendered_schema() {
        // Streaming the rendering hashes the bytes `format!` would build.
        let fnv = |text: &str| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        for name in ["m-bibliography", "mplus-bibliography"] {
            let context = crate::batch::build_context(name, &mut LabelInterner::new()).unwrap();
            let (DataContext::M(ctx) | DataContext::MPlus(ctx)) = &context else {
                panic!("{name} is a schema context");
            };
            let expected = fnv(&format!("{:?}", ctx.schema));
            assert!(matches!(
                ContextKey::of(&context),
                ContextKey::M(fp) | ContextKey::MPlus(fp) if fp == expected
            ));
        }
    }

    #[test]
    fn greedy_work_is_bounded_by_label_occurrences() {
        // 1024 distinct rules over 8 labels. Re-trying every remaining
        // constraint at each step would compute ~500k trial keys; the
        // incremental greedy keys each constraint once, plus once per
        // distinct label of it that gets renamed later.
        let mut labels = LabelInterner::new();
        let alphabet: Vec<Label> = (0..8).map(|i| labels.intern(&format!("l{i}"))).collect();
        let path = |mut x: usize, len: usize| {
            Path::from_labels((0..len).map(|_| {
                let l = alphabet[x % 8];
                x /= 8;
                l
            }))
        };
        let sigma: Vec<PathConstraint> = (0..1024)
            .map(|i| {
                let (prefix, lhs, rhs) = (path(i / 128, i % 2), path(i, 2), path(i / 64, 2));
                if i % 3 == 0 {
                    PathConstraint::backward(prefix, lhs, rhs)
                } else {
                    PathConstraint::forward(prefix, lhs, rhs)
                }
            })
            .collect();
        let phi = PathConstraint::word(path(5, 1), path(6, 1));
        let (renaming, trial_keys) = greedy_renaming(&sigma, &phi).unwrap();
        assert_eq!(renaming.len(), 8);
        let bound = sigma.len()
            + sigma
                .iter()
                .map(|c| constraint_labels(c).collect::<HashSet<_>>().len())
                .sum::<usize>();
        assert!(
            trial_keys <= bound,
            "{trial_keys} trial keys for |Σ| = {}: bound {bound}",
            sigma.len()
        );
    }

    #[test]
    fn graph_renaming_round_trips() {
        let mut g = Graph::new();
        let n = g.add_node();
        let (a, b) = (Label::from_index(0), Label::from_index(1));
        g.add_edge(g.root(), a, n);
        g.add_edge(n, b, g.root());
        let map: Renaming = [(a, b), (b, a)].into_iter().collect();
        let renamed = rename_graph(&g, &map).unwrap();
        assert!(renamed.has_edge(g.root(), b, n));
        assert!(renamed.has_edge(n, a, g.root()));
        let back = rename_graph(&renamed, &invert(&map)).unwrap();
        assert!(back.has_edge(g.root(), a, n));
        // Uncovered labels are detected, not dropped.
        let partial: Renaming = [(a, a)].into_iter().collect();
        assert!(rename_graph(&g, &partial).is_none());
    }
}
