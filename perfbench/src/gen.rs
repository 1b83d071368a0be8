//! Seeded workload generators. Every job stream is a pure function of
//! `(workload, seed, size)`: the same seed gives byte-identical job
//! lines and the same construction-known answers.
//!
//! Inputs are built from the `pathcons_bench` generators
//! (`gen_word_instance`, `gen_local_extent_instance`, and `gen_m_schema`
//! with the equation draw of `gen_m_instance`) and the resident-context
//! construction of `bench_shared_context`.

use crate::{fnv1a, Workload};
use pathcons_bench::{gen_local_extent_instance, gen_m_schema, gen_word_instance};
use pathcons_constraints::{Path, PathConstraint};
use pathcons_engine::{EngineConfig, Job};
use pathcons_graph::{Label, LabelInterner};
use pathcons_types::{Schema, TypeGraph, TypeNodeId};
use std::collections::{BTreeMap, BTreeSet};

/// splitmix64: a small, fully specified generator, so a stream does not
/// depend on any library's sampling algorithm.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The answer a job has by construction, when it has one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Implied: derived by prefix rewriting, right congruence, chaining,
    /// or φ ∈ Σ.
    Implied,
    /// Not known in advance; only certificates and consistency checks
    /// apply.
    Open,
}

/// Which procedure a job is built to reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Pure word theory (`post*`).
    Word,
    /// Local-extent instance (Theorem 5.1 reduction).
    LocalExtent,
    /// General `P_c` (budgeted chase, then countermodel search).
    General,
}

/// One JSONL job line with what the generator knows about it.
#[derive(Clone, Debug)]
pub struct WireJob {
    /// The request line, exactly as sent.
    pub line: String,
    /// The job id inside the line.
    pub id: String,
    /// Construction-known answer.
    pub expect: Expect,
    /// Intended procedure.
    pub family: Family,
}

/// A served workload: the job stream plus the resident contexts the
/// server loads (as `ConstraintStore` JSONL; `None` runs with no
/// snapshot).
pub struct WireStream {
    /// Jobs in stream order; the load generator cycles through them.
    pub jobs: Vec<WireJob>,
    /// Resident-context JSONL for `pathcons snapshot`-format loading.
    pub contexts: Option<String>,
    /// Whether the load generator may cycle through the stream: where
    /// repeats are the point (`hot_keys`), or where the stream outlasts
    /// the answer cache (see [`wraps_as_misses`]).
    pub cycles: bool,
    /// Requests sent during set-up, before the timed window.
    pub warmup: Vec<String>,
}

impl WireStream {
    /// FNV-1a over every job line: equal digests mean byte-identical
    /// streams.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for job in &self.jobs {
            bytes.extend_from_slice(job.line.as_bytes());
            bytes.push(b'\n');
        }
        if let Some(ctx) = &self.contexts {
            bytes.extend_from_slice(ctx.as_bytes());
        }
        fnv1a(&bytes)
    }
}

/// Stream sizes. `Full` is what the benchmark runs; `Small` is the
/// seconds-scale shape the tests use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Benchmark shape.
    Full,
    /// Test shape.
    Small,
}

fn render(c: &PathConstraint, labels: &LabelInterner) -> String {
    c.display(labels).to_string()
}

fn job_line(id: &str, context: &str, sigma: Vec<String>, phi: String) -> String {
    Job {
        id: id.to_owned(),
        context: context.to_owned(),
        sigma,
        phi,
        deadline_ms: None,
        request_id: None,
    }
    .to_json()
    .to_string()
}

/// Whether a stream of `len` distinct jobs may wrap: only when it holds
/// more jobs than the default answer cache, with room to spare for the
/// callers' interleaving, so that a job comes round again only after
/// least-recently-used eviction dropped it, and is a miss as on its
/// first ask.
pub fn wraps_as_misses(len: usize) -> bool {
    len > EngineConfig::default().cache_capacity + 64
}

/// Rewrites `start` by up to `steps` prefix-rewrite steps under the word
/// rules of `sigma` (rule `l -> r` turns `l·s` into `r·s`). Each step
/// is a consequence of Σ, so `start -> result` is implied.
fn rewrite_chain(
    sigma: &[PathConstraint],
    start: &[Label],
    steps: usize,
    rng: &mut Rng,
) -> Vec<Label> {
    let mut word = start.to_vec();
    for _ in 0..steps {
        let applicable: Vec<&PathConstraint> = sigma
            .iter()
            .filter(|c| c.lhs().labels().len() <= word.len() && word.starts_with(c.lhs().labels()))
            .collect();
        if applicable.is_empty() {
            break;
        }
        let rule = applicable[rng.below(applicable.len())];
        let mut next = rule.rhs().labels().to_vec();
        next.extend_from_slice(&word[rule.lhs().len()..]);
        word = next;
    }
    word
}

/// `n` word constraints over `alphabet` labels with paths up to
/// `max_len`: the first `n` rules with a non-empty rhs from
/// `gen_word_instance` theories. An empty rhs lets a theory collapse words to `ε`,
/// which sends negative answers to the chase and search semi-deciders
/// instead of `post*`; the workloads built on word theories keep
/// `post*` the procedure.
fn word_theory(
    n: usize,
    alphabet: usize,
    max_len: usize,
    seed: u64,
) -> (Vec<PathConstraint>, LabelInterner) {
    let mut rng = Rng::new(seed, 5);
    let mut sigma = Vec::with_capacity(n);
    loop {
        let inst = gen_word_instance(2 * n, alphabet, max_len, rng.next_u64());
        sigma.extend(inst.sigma.into_iter().filter(|c| !c.rhs().is_empty()));
        if sigma.len() >= n {
            sigma.truncate(n);
            return (sigma, inst.labels);
        }
    }
}

/// A word query implied by construction: a Σ lhs extended by a short
/// suffix, rewritten one to three steps.
fn derived_word_query(sigma: &[PathConstraint], alphabet: usize, rng: &mut Rng) -> PathConstraint {
    let base = &sigma[rng.below(sigma.len())];
    let mut start = base.lhs().labels().to_vec();
    for _ in 0..rng.below(2) {
        start.push(Label::from_index(rng.below(alphabet)));
    }
    let steps = 1 + rng.below(3);
    let end = rewrite_chain(sigma, &start, steps, rng);
    PathConstraint::word(Path::from_labels(start), Path::from_labels(end))
}

/// Keys in `hot_keys`: more than the engine's 4096-entry answer cache.
const HOT_UNIVERSE: usize = 16384;
const HOT_STREAM: usize = 65536;
const RENAME_POOL: &[&str] = &[
    "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "m", "n", "o", "p", "q", "r", "s", "t",
    "u", "v", "w", "x", "y", "z", "aa", "bb", "cc", "dd", "ee", "ff", "gg",
];

/// `hot_keys`: 3-constraint word theories keyed from a universe wider
/// than the answer cache, drawn log-skewed (`P(k) ∝ 1/(k+1)`), every
/// request alpha-renamed into fresh label names so only the canonical
/// key repeats. Every query is derived by rewriting, so a miss costs one
/// small `post*` and a short derivation: refuting a query would
/// materialize a canonical countermodel, orders of magnitude dearer than
/// the cache path this workload is about.
pub fn hot_keys(seed: u64, size: Size) -> WireStream {
    let (universe, len) = match size {
        Size::Full => (HOT_UNIVERSE, HOT_STREAM),
        Size::Small => (256, 2048),
    };
    struct Key {
        sigma: Vec<PathConstraint>,
        phi: PathConstraint,
    }
    let keys: Vec<Key> = (0..universe)
        .map(|k| {
            let mut rng = Rng::new(seed, 0x1000_0000 + k as u64);
            let (sigma, _) = word_theory(3, 3, 3, rng.next_u64());
            let phi = derived_word_query(&sigma, 3, &mut rng);
            Key { sigma, phi }
        })
        .collect();
    let mut rng = Rng::new(seed, 1);
    let ln_universe = (universe as f64).ln();
    let jobs = (0..len)
        .map(|i| {
            let k = (((rng.unit() * ln_universe).exp() as usize).max(1) - 1).min(universe - 1);
            let key = &keys[k];
            // A fresh injective renaming of l0, l1, l2 per request.
            let mut pool: Vec<&str> = RENAME_POOL.to_vec();
            let names: Vec<&str> = (0..3)
                .map(|_| pool.swap_remove(rng.below(pool.len())))
                .collect();
            let labels = LabelInterner::with_labels(names);
            let id = format!("h{i}");
            WireJob {
                line: job_line(
                    &id,
                    "",
                    key.sigma.iter().map(|c| render(c, &labels)).collect(),
                    render(&key.phi, &labels),
                ),
                id,
                expect: Expect::Implied,
                family: Family::Word,
            }
        })
        .collect();
    WireStream {
        jobs,
        contexts: None,
        cycles: true,
        warmup: Vec::new(),
    }
}

/// `cold_untyped`: every job carries its own Σ and is distinct within
/// any stretch the answer cache can hold (the 20000-job stream wraps,
/// see [`wraps_as_misses`]). 88 % are
/// 40-constraint word theories over 4 labels with paths up to length 4,
/// asking a query derived by rewriting; 8 % are local-extent instances
/// (every other one asking φ ∈ Σ); 4 % are general-`P_c` instances (word
/// rules plus a backward constraint) for the chase → search stack, one in
/// four asking a random backward query.
pub fn cold_untyped(seed: u64, size: Size) -> WireStream {
    let (len, word_n) = match size {
        Size::Full => (20000, 40),
        Size::Small => (40, 12),
    };
    let mut rng = Rng::new(seed, 2);
    // Families and open queries are interleaved at fixed strides rather
    // than drawn, so every prefix of the stream holds the same mix and
    // only the instances vary with the seed.
    let (mut local_extent, mut general) = (0usize, 0usize);
    let jobs = (0..len)
        .map(|i| {
            let id = format!("u{i}");
            let sub = rng.next_u64();
            let roll = (i * 37) % 100;
            let (sigma, phi, labels, expect, family) = if roll < 8 {
                let inst = gen_local_extent_instance(3, 3, 3, 2, sub);
                local_extent += 1;
                let (phi, expect) = if local_extent % 2 == 0 {
                    (inst.sigma[rng.below(3)].clone(), Expect::Implied)
                } else {
                    (inst.phi, Expect::Open)
                };
                (inst.sigma, phi, inst.labels, expect, Family::LocalExtent)
            } else if roll < 12 {
                let (mut sigma, labels) = word_theory(4, 3, 2, sub);
                let alpha: Vec<Label> = labels.labels().collect();
                let pick = |rng: &mut Rng| Path::single(alpha[rng.below(alpha.len())]);
                sigma.push(PathConstraint::backward(
                    pick(&mut rng),
                    pick(&mut rng),
                    pick(&mut rng),
                ));
                general += 1;
                let (phi, expect) = if general % 4 != 0 {
                    (sigma[rng.below(sigma.len())].clone(), Expect::Implied)
                } else {
                    (
                        PathConstraint::backward(pick(&mut rng), pick(&mut rng), pick(&mut rng)),
                        Expect::Open,
                    )
                };
                (sigma, phi, labels, expect, Family::General)
            } else {
                let (sigma, labels) = word_theory(word_n, 4, 4, sub);
                let phi = derived_word_query(&sigma, 4, &mut rng);
                (sigma, phi, labels, Expect::Implied, Family::Word)
            };
            WireJob {
                line: job_line(
                    &id,
                    "",
                    sigma.iter().map(|c| render(c, &labels)).collect(),
                    render(&phi, &labels),
                ),
                id,
                expect,
                family,
            }
        })
        .collect();
    WireStream {
        cycles: wraps_as_misses(len),
        jobs,
        contexts: None,
        warmup: Vec::new(),
    }
}

/// Name of the resident context in `shared_warm`.
const SHARED_CONTEXT: &str = "shared";
const SHARED_ALPHABET: usize = 8;
const SHARED_START: [usize; 2] = [0, 1];

fn shared_word(word: &[usize]) -> String {
    word.iter()
        .map(|l| format!("w{l}"))
        .collect::<Vec<_>>()
        .join(".")
}

/// The 128 rules of the `bench_shared_context` construction, drawn from
/// its fixed xorshift stream: `|l|` in 1..=3 and `|r|` in 1..=4 over 8
/// labels. No empty rhs: an ε-collapsing theory would send negative
/// answers to the semi-deciders, a different cost model. The theory is
/// fixed so that seeds vary the traffic, not the deployment: the cost of
/// a 128-rule theory varies several-fold from one draw to the next.
fn shared_rules() -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut state = 0x5eed_0fc0_ffeeu64;
    let mut next = |bound: usize| -> usize {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    };
    let mut word = |min: usize, max: usize| -> Vec<usize> {
        let len = min + next(max - min + 1);
        (0..len).map(|_| next(SHARED_ALPHABET)).collect()
    };
    (0..128).map(|_| (word(1, 3), word(1, 4))).collect()
}

/// The distinct words at most `depth` prefix-rewrite steps from the
/// start word and at most 12 labels long, breadth-first (shallowest
/// first: extraction cost grows with derivation depth, and the shallow
/// cone is where amortized saturation is the per-job work).
fn rewrite_ball(rules: &[(Vec<usize>, Vec<usize>)], depth: usize) -> Vec<Vec<usize>> {
    let mut seen = BTreeSet::from([SHARED_START.to_vec()]);
    let mut frontier = vec![SHARED_START.to_vec()];
    let mut ball: Vec<Vec<usize>> = Vec::new();
    for _ in 0..depth {
        let mut next_frontier = Vec::new();
        for w in &frontier {
            for (l, r) in rules {
                if w.starts_with(l) {
                    let mut next = r.clone();
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
    ball
}

/// `shared_warm`: one resident 128-constraint word context (the
/// `bench_shared_context` construction, fixed), jobs with an empty Σ asking
/// `w0.w1 -> β` for every β at most five prefix-rewrite steps from
/// `w0.w1` (4418 words; deeper ones outrun the certificate extractor's
/// budget) — all implied, and none repeated within any stretch the
/// answer cache can hold (the stream wraps, see [`wraps_as_misses`]), so
/// the answer cache never hits and the per-context `post*` cache does
/// the work.
pub fn shared_warm(seed: u64, size: Size) -> WireStream {
    let (depth, len) = match size {
        Size::Full => (5, usize::MAX),
        Size::Small => (3, 64),
    };
    let mut rng = Rng::new(seed, 3);
    let rules = shared_rules();
    // The `len` shallowest derived words, in a seeded order.
    let mut ball = rewrite_ball(&rules, depth);
    ball.truncate(len);
    for i in (1..ball.len()).rev() {
        ball.swap(i, rng.below(i + 1));
    }
    let sigma: Vec<String> = rules
        .iter()
        .map(|(l, r)| format!("{} -> {}", shared_word(l), shared_word(r)))
        .collect();
    let contexts = pathcons_engine::Json::Obj(vec![
        (
            "name".to_owned(),
            pathcons_engine::Json::Str(SHARED_CONTEXT.to_owned()),
        ),
        (
            "kind".to_owned(),
            pathcons_engine::Json::Str("semistructured".to_owned()),
        ),
        (
            "sigma".to_owned(),
            pathcons_engine::Json::Arr(sigma.into_iter().map(pathcons_engine::Json::Str).collect()),
        ),
    ])
    .to_string();
    let start = shared_word(&SHARED_START);
    let jobs = ball
        .iter()
        .enumerate()
        .map(|(i, rhs)| {
            let id = format!("s{i}");
            WireJob {
                line: job_line(
                    &id,
                    SHARED_CONTEXT,
                    Vec::new(),
                    format!("{start} -> {}", shared_word(rhs)),
                ),
                id,
                expect: Expect::Implied,
                family: Family::Word,
            }
        })
        .collect();
    WireStream {
        cycles: wraps_as_misses(ball.len()),
        jobs,
        contexts: Some(contexts),
        // Saturates post*(w0.w1) in the resident context during set-up.
        warmup: vec![job_line(
            "warmup",
            SHARED_CONTEXT,
            Vec::new(),
            format!("{start} -> {start}"),
        )],
    }
}

/// One generated `M` schema with its theory and queries.
pub struct TypedInstance {
    /// Labels of the schema, Σ and the queries.
    pub labels: LabelInterner,
    /// The schema (in the model `M`).
    pub schema: Schema,
    /// Σ: the generator's equations plus planted chains.
    pub sigma: Vec<PathConstraint>,
}

/// One typed job: which instance, the query, and its known answer.
#[derive(Clone, Debug)]
pub struct TypedQuery {
    /// Job id.
    pub id: String,
    /// Index into [`TypedStream::instances`].
    pub instance: usize,
    /// φ.
    pub phi: PathConstraint,
    /// Construction-known answer.
    pub expect: Expect,
}

/// The `typed_m` workload, run in-process: a few schemas, many distinct
/// queries each.
pub struct TypedStream {
    /// The schemas and theories.
    pub instances: Vec<TypedInstance>,
    /// Queries in stream order.
    pub queries: Vec<TypedQuery>,
}

impl TypedStream {
    /// FNV-1a over the rendered stream (schema sizes, Σ and queries).
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for inst in &self.instances {
            text.push_str(&format!("schema {}\n", inst.labels.len()));
            for c in &inst.sigma {
                text.push_str(&render(c, &inst.labels));
                text.push('\n');
            }
        }
        for q in &self.queries {
            text.push_str(&format!(
                "{} {} {}\n",
                q.id,
                q.instance,
                render(&q.phi, &self.instances[q.instance].labels)
            ));
        }
        fnv1a(text.as_bytes())
    }
}

/// Longest suffix appended to both sides of a derived typed query.
const TYPED_EXTEND: usize = 3;

/// Seed of the fixed `typed_m` theories.
const TYPED_THEORY_SEED: u64 = 0x7e57_ed11;

/// Shape of the typed workload.
#[derive(Clone, Copy, Debug)]
pub struct TypedShape {
    /// Classes per schema (`gen_m_schema`).
    pub classes: usize,
    /// Equations per schema, from `gen_m_instance`.
    pub equations: usize,
    /// Longest generated path.
    pub max_len: usize,
    /// Schemas in the stream.
    pub schemas: usize,
    /// Queries per schema.
    pub per_schema: usize,
}

impl TypedShape {
    /// The shape `typed_m` runs at.
    pub fn of(size: Size) -> TypedShape {
        match size {
            Size::Full => TypedShape {
                classes: 8,
                equations: 40,
                max_len: 14,
                schemas: 40,
                per_schema: 750,
            },
            Size::Small => TypedShape {
                classes: 4,
                equations: 12,
                max_len: 4,
                schemas: 2,
                per_schema: 12,
            },
        }
    }
}

/// `typed_m`: `gen_m_instance` schemas and equations; queries are
/// chained equations (`x -> y`, `y -> z` planted in Σ, ask `x -> z`),
/// right-congruent ones (`x -> y` in Σ, ask `x.w -> y.w`), and random
/// same-type pairs.
pub fn typed_m(seed: u64, size: Size) -> TypedStream {
    typed_m_with(seed, TypedShape::of(size))
}

/// [`typed_m`] at an explicit shape.
pub fn typed_m_with(seed: u64, shape: TypedShape) -> TypedStream {
    let TypedShape {
        classes,
        equations,
        max_len,
        schemas,
        per_schema,
    } = shape;
    // The theories are fixed and the seed draws the queries: seeds vary
    // the traffic, not the deployment, whose cost would otherwise move
    // every figure from one seed to the next.
    let mut theory_rng = Rng::new(TYPED_THEORY_SEED, 4);
    let mut rng = Rng::new(seed, 6);
    let mut instances = Vec::new();
    let mut queries = Vec::new();
    for s in 0..schemas {
        // `gen_m_instance` draws its equations from `HashMap` buckets, so
        // its Σ is not a function of the seed; the same draw is made here
        // from ordered buckets.
        let mut labels = LabelInterner::new();
        let schema = gen_m_schema(classes, &mut labels);
        let type_graph = TypeGraph::build(&schema, &mut labels);
        let mut buckets: BTreeMap<TypeNodeId, Vec<Path>> = BTreeMap::new();
        for w in type_graph.to_dfa().readable_up_to(max_len) {
            let t = type_graph
                .type_of_path(&w)
                .expect("readable path has a type");
            buckets.entry(t).or_default().push(Path::from_labels(w));
        }
        let rich: Vec<&Vec<Path>> = buckets.values().filter(|v| v.len() >= 3).collect();
        let pair = |rng: &mut Rng| {
            let bucket = rich[rng.below(rich.len())];
            (
                bucket[rng.below(bucket.len())].clone(),
                bucket[rng.below(bucket.len())].clone(),
            )
        };
        let mut sigma: Vec<PathConstraint> = (0..equations)
            .map(|_| {
                let (x, y) = pair(&mut theory_rng);
                PathConstraint::word(x, y)
            })
            .collect();
        // Planted chains x -> y, y -> z.
        let mut chains = Vec::new();
        for _ in 0..4 {
            let bucket = rich[theory_rng.below(rich.len())];
            let x = bucket[theory_rng.below(bucket.len())].clone();
            let y = bucket[theory_rng.below(bucket.len())].clone();
            let z = bucket[theory_rng.below(bucket.len())].clone();
            sigma.push(PathConstraint::word(x.clone(), y.clone()));
            sigma.push(PathConstraint::word(y, z.clone()));
            chains.push((x, z));
        }
        let mut asked = BTreeSet::new();
        let mut made = 0;
        while made < per_schema {
            let roll = rng.below(3);
            let (phi, expect) = match roll {
                0 => {
                    let (x, z) = &chains[rng.below(chains.len())];
                    // Extend both sides so chained queries stay distinct.
                    let w = extension(&type_graph, x, TYPED_EXTEND, &mut rng);
                    (
                        PathConstraint::word(x.concat(&w), z.concat(&w)),
                        Expect::Implied,
                    )
                }
                1 => {
                    let base = &sigma[rng.below(sigma.len())];
                    let w = extension(&type_graph, base.lhs(), TYPED_EXTEND, &mut rng);
                    (
                        PathConstraint::word(base.lhs().concat(&w), base.rhs().concat(&w)),
                        Expect::Implied,
                    )
                }
                _ => {
                    let bucket = rich[rng.below(rich.len())];
                    let x = bucket[rng.below(bucket.len())].clone();
                    let y = bucket[rng.below(bucket.len())].clone();
                    (PathConstraint::word(x, y), Expect::Open)
                }
            };
            if !asked.insert(render(&phi, &labels)) {
                continue;
            }
            queries.push(TypedQuery {
                id: format!("m{s}-{made}"),
                instance: s,
                phi,
                expect,
            });
            made += 1;
        }
        instances.push(TypedInstance {
            labels,
            schema,
            sigma,
        });
    }
    // Interleave schemas so both callers see every schema.
    let mut order: Vec<TypedQuery> = Vec::with_capacity(queries.len());
    for i in 0..per_schema {
        for s in 0..schemas {
            order.push(queries[s * per_schema + i].clone());
        }
    }
    TypedStream {
        instances,
        queries: order,
    }
}

/// A random path of 1 to `longest` labels readable from the end of
/// `from` (shorter where the type has no fields).
fn extension(type_graph: &TypeGraph, from: &Path, longest: usize, rng: &mut Rng) -> Path {
    let mut w: Vec<Label> = Vec::new();
    let mut current: Vec<Label> = from.labels().to_vec();
    for _ in 0..1 + rng.below(longest) {
        let Some(t) = type_graph.type_of_path(&current) else {
            break;
        };
        let fields = type_graph.out_labels(t);
        if fields.is_empty() {
            break;
        }
        let l = fields[rng.below(fields.len())];
        w.push(l);
        current.push(l);
    }
    Path::from_labels(w)
}

/// The served stream of a wire workload.
pub fn wire_stream(workload: Workload, seed: u64, size: Size) -> WireStream {
    match workload {
        Workload::HotKeys => hot_keys(seed, size),
        Workload::ColdUntyped => cold_untyped(seed, size),
        Workload::SharedWarm => shared_warm(seed, size),
        Workload::TypedM => unreachable!("typed_m runs in-process"),
    }
}
