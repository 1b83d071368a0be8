//! The traced run: each workload's job stream (its digest prefix)
//! replayed in-process on one thread, once untraced and once with a
//! span around every public layer call — decode, `prepare`,
//! `canonicalize`, `solve_prepared`, `Solver::implies`, `certify`,
//! `pathcons_cert::check` and encode. The answer cache is reachable only
//! inside `solve_prepared`; its self time is that span minus the child
//! calls re-timed on the same inputs (`canonicalize`, and on a miss
//! `Solver::implies` and `certify`). Counts come from the `post*` NFA
//! sizes, proof and certificate sizes, and the program's own
//! `InMemoryRecorder` telemetry (cache and amortization counts come from
//! the served run's `stats` op). Spans live in the benchmark only;
//! nothing inside the program is instrumented.

use crate::drive::{typed_job, typed_setup};
use crate::gen::{TypedStream, WireStream};
use pathcons_cert::{CertificateBody, ImpliedCert};
use pathcons_core::telemetry::{schema, InMemoryRecorder};
use pathcons_core::{
    chase_implication, Answer, Budget, Evidence, Method, Outcome, Solver, Telemetry, WordEngine,
};
use pathcons_engine::{
    canonicalize, certify, snapshot_id, BatchEngine, CacheOutcome, EngineConfig, Job, PreparedJob,
};
use pathcons_store::ConstraintStore;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Layers of the job-time split, in report order. `serve` is wire and
/// protocol time (decode and encode in-process; on served workloads the
/// served run's round trip minus the engine's `micros` replaces it).
pub const LAYERS: [&str; 10] = [
    "serve",
    "store",
    "canon",
    "cache",
    "word",
    "local_extent",
    "chase",
    "search",
    "typed_m",
    "certify",
];

/// Span durations (microseconds) and counters of one replay.
#[derive(Debug, Default)]
pub struct Trace {
    /// Span name → every duration recorded, in microseconds.
    pub spans: BTreeMap<&'static str, Vec<f64>>,
    /// Counter name → total.
    pub counts: BTreeMap<&'static str, u64>,
    /// Verdicts in stream order.
    pub verdicts: Vec<String>,
    /// Wall time of the replay, seconds.
    pub wall_s: f64,
    /// Time inside re-timed child calls and counting, seconds: work the
    /// traced replay does on top of the untraced one.
    pub rerun_s: f64,
}

impl Trace {
    fn span(&mut self, name: &'static str, micros: f64) {
        self.spans.entry(name).or_default().push(micros);
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Sum of a span's durations, microseconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |v| v.iter().fold(0.0, |a, b| a + b))
    }
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The store the server would hold for this stream: the contexts
/// loaded, amortization state built under the default budget and warmed
/// (what `pathcons serve --snapshot … --warm` does).
pub fn local_store(stream: &WireStream) -> Result<ConstraintStore, String> {
    let mut store = ConstraintStore::from_jsonl(stream.contexts.as_deref().unwrap_or(""))?;
    store.set_shared_budget(Some(Budget::default()));
    if stream.contexts.is_some() {
        store.warm_all();
    }
    Ok(store)
}

/// The store and engine of an in-process replay, warm-up requests
/// answered (as the served set-up does).
fn replay_setup(stream: &WireStream) -> Result<(ConstraintStore, BatchEngine), String> {
    let store = local_store(stream)?;
    let engine = BatchEngine::new(EngineConfig::default());
    for line in &stream.warmup {
        let job = Job::from_json_line(line)?;
        engine.solve_prepared(job.id.clone(), &store.prepare(&job)?, None, Instant::now());
    }
    Ok((store, engine))
}

/// Untraced in-process replay of the first `n` jobs of a wire stream.
pub fn replay_wire_plain(stream: &WireStream, n: usize) -> Result<Trace, String> {
    let (store, engine) = replay_setup(stream)?;
    let mut trace = Trace::default();
    let start = Instant::now();
    for job in &stream.jobs[..n] {
        let parsed = Job::from_json_line(&job.line)?;
        let prepared = store.prepare(&parsed)?;
        let result = engine.solve_prepared(parsed.id, &prepared, None, Instant::now());
        let line = result.to_json().to_string();
        std::hint::black_box(line);
        trace.verdicts.push(result.verdict.as_str().to_owned());
    }
    trace.wall_s = start.elapsed().as_secs_f64();
    Ok(trace)
}

/// Traced in-process replay of the first `n` jobs of a wire stream.
pub fn replay_wire_traced(stream: &WireStream, n: usize) -> Result<Trace, String> {
    let (store, engine) = replay_setup(stream)?;
    let mut trace = Trace::default();
    let start = Instant::now();
    for job in &stream.jobs[..n] {
        let t = Instant::now();
        let parsed = Job::from_json_line(&job.line)?;
        trace.span("serve.decode_us", us(t));
        let t = Instant::now();
        let prepared = store.prepare(&parsed)?;
        trace.span("store.prepare_us", us(t));
        solve_traced(&engine, parsed.id, &prepared, &mut trace);
    }
    trace.wall_s = start.elapsed().as_secs_f64();
    Ok(trace)
}

/// Untraced in-process replay of the first `n` typed queries.
pub fn replay_typed_plain(stream: &TypedStream, n: usize) -> Trace {
    let setup = typed_setup(stream);
    let mut trace = Trace::default();
    let start = Instant::now();
    for i in 0..n {
        let prepared = typed_job(stream, &setup, i);
        let result = setup.engine.solve_prepared(
            stream.queries[i].id.clone(),
            &prepared,
            None,
            Instant::now(),
        );
        std::hint::black_box(result.to_json().to_string());
        trace.verdicts.push(result.verdict.as_str().to_owned());
    }
    trace.wall_s = start.elapsed().as_secs_f64();
    trace
}

/// Traced in-process replay of the first `n` typed queries.
pub fn replay_typed_traced(stream: &TypedStream, n: usize) -> Trace {
    let setup = typed_setup(stream);
    let mut trace = Trace::default();
    let start = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        let prepared = typed_job(stream, &setup, i);
        trace.span("store.prepare_us", us(t));
        solve_traced(
            &setup.engine,
            stream.queries[i].id.clone(),
            &prepared,
            &mut trace,
        );
    }
    trace.wall_s = start.elapsed().as_secs_f64();
    trace
}

/// One job through `solve_prepared` with spans, its children re-timed
/// on the same inputs, then encode and certificate check.
fn solve_traced(engine: &BatchEngine, id: String, prepared: &PreparedJob, trace: &mut Trace) {
    let t = Instant::now();
    let canon = canonicalize(&prepared.context, &prepared.sigma, &prepared.phi);
    let canon_us = us(t);
    trace.span("canon.us", canon_us);
    let t = Instant::now();
    let result = engine.solve_prepared(id, prepared, None, Instant::now());
    let solve_prepared_us = us(t);
    // Time spent in calls the untraced replay does not make.
    let mut rerun_us = canon_us;
    let mut children_us = canon_us;
    let miss = result.cache == Some(CacheOutcome::Miss);
    if miss {
        let mut solver =
            Solver::new(prepared.context.clone()).with_budget(engine.config().budget.clone());
        if let Some(shared) = &prepared.shared {
            solver = solver.with_shared(Arc::clone(shared));
        }
        let t = Instant::now();
        let answer = solver.implies(&prepared.sigma, &prepared.phi);
        let implies_us = us(t);
        if let Ok(answer) = answer {
            let t = Instant::now();
            let certificate = certify(
                &canon,
                &prepared.sigma,
                &prepared.phi,
                &answer,
                prepared.shared.as_deref(),
            );
            let certify_us = us(t);
            trace.span("certify.us", certify_us);
            children_us += implies_us + certify_us;
            let t = Instant::now();
            attribute_procedure(engine, prepared, &answer, implies_us, trace);
            if let Some(cert) = &certificate {
                trace.count("certify.steps", certificate_steps(&cert.body));
            }
            rerun_us += implies_us + certify_us + us(t);
        }
    }
    let self_us = (solve_prepared_us - children_us).max(0.0);
    trace.span(
        if miss {
            "cache.self_us"
        } else {
            "cache.hit_self_us"
        },
        self_us,
    );

    let t = Instant::now();
    let line = result.to_json().to_string();
    trace.span("serve.encode_us", us(t));
    std::hint::black_box(line);
    if let Some(cert) = &result.certificate {
        let t = Instant::now();
        let context = pathcons_cert::CheckContext {
            snapshot: snapshot_id(&canon.key),
            sigma: &canon.key.sigma,
            phi: &canon.key.phi,
        };
        let valid = pathcons_cert::check(cert, &context).is_valid();
        let check_us = us(t);
        trace.span("certify.check_us", check_us);
        rerun_us += check_us;
        let outcome = if valid {
            "certify.check_valid"
        } else {
            "certify.check_invalid"
        };
        trace.count(outcome, 1);
    }
    trace.rerun_s += rerun_us / 1e6;
    trace.verdicts.push(result.verdict.as_str().to_owned());
}

/// Books a miss's `Solver::implies` time to the procedure that answered
/// it, with that procedure's work counts. Chase and search share one
/// answer: the chase is re-timed alone and search gets the rest.
fn attribute_procedure(
    engine: &BatchEngine,
    prepared: &PreparedJob,
    answer: &Answer,
    implies_us: f64,
    trace: &mut Trace,
) {
    match answer.method {
        Method::WordAutomaton => {
            trace.span("word.solve_us", implies_us);
            if let Ok(word) = WordEngine::new(&prepared.sigma) {
                let nfa = word.consequences(prepared.phi.lhs());
                trace.count("word.poststar_states", nfa.state_count() as u64);
                trace.count("word.poststar_transitions", nfa.transition_count() as u64);
            }
        }
        Method::LocalExtentReduction => trace.span("local_extent.solve_us", implies_us),
        Method::MCongruenceClosure | Method::UntypedLift => {
            trace.span("typed_m.solve_us", implies_us);
            if let Outcome::Implied(Evidence::IrProof(proof)) = &answer.outcome {
                trace.count("typed_m.proof_steps", proof.size() as u64);
            }
        }
        Method::Chase | Method::CounterModelSearch => {
            let rec = Arc::new(InMemoryRecorder::new());
            let budget = engine
                .config()
                .budget
                .clone()
                .with_telemetry(Telemetry::new(rec.clone()));
            let t = Instant::now();
            std::hint::black_box(chase_implication(&prepared.sigma, &prepared.phi, &budget));
            let chase_us = us(t).min(implies_us);
            let steps: u64 = rec
                .snapshot()
                .events_named(schema::EVENT_ATTRIBUTION)
                .iter()
                .filter(|e| e.label(schema::LABEL_ENGINE) == Some("chase"))
                .filter_map(|e| e.field(schema::FIELD_STEPS_TOTAL))
                .sum();
            trace.count("chase.steps", steps);
            if answer.method == Method::Chase && !answer.outcome.is_unknown() {
                trace.span("chase.solve_us", implies_us);
            } else {
                trace.span("chase.solve_us", chase_us);
                trace.span("search.solve_us", implies_us - chase_us);
            }
        }
    }
}

/// Replayed steps in a certificate: rewrite steps or chase steps;
/// countermodel and budget certificates count zero.
fn certificate_steps(body: &CertificateBody) -> u64 {
    match body {
        CertificateBody::Implied(ImpliedCert::WordRewrite { steps, .. }) => steps.len() as u64,
        CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)) => trace.steps.len() as u64,
        CertificateBody::NotImplied(_) | CertificateBody::Unknown(_) => 0,
    }
}
