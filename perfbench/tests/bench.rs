//! The benchmark's own tests: seeded generators are deterministic, the
//! answers known by construction hold (checked by the trusted
//! certificate checker, or the `I_r` proof checker for typed queries,
//! not only by the solver), and a small shape runs end to end in
//! seconds.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`; set
//! `PATHCONS_BIN` to a built `pathcons` binary to also drive the served
//! workloads through `pathcons serve`.

use pathcons_core::{Evidence, Outcome, Solver};
use pathcons_engine::{BatchEngine, EngineConfig, Job};
use pathcons_perfbench::bench::{self, check_typed, check_wire, Options};
use pathcons_perfbench::drive::{typed_job, typed_setup};
use pathcons_perfbench::gen::{self, Expect, Family, Size};
use pathcons_perfbench::trace::{self, local_store};
use pathcons_perfbench::{verdict_digest, Workload};
use std::path::PathBuf;
use std::time::Instant;

const WIRE: [Workload; 3] = [
    Workload::HotKeys,
    Workload::ColdUntyped,
    Workload::SharedWarm,
];

#[test]
fn same_seed_gives_byte_identical_streams() {
    for w in WIRE {
        let a = gen::wire_stream(w, 7, Size::Small);
        let b = gen::wire_stream(w, 7, Size::Small);
        let lines = |s: &gen::WireStream| s.jobs.iter().map(|j| j.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b), "{}", w.name());
        assert_eq!(a.contexts, b.contexts, "{}", w.name());
        assert_eq!(a.digest(), b.digest(), "{}", w.name());
        assert_ne!(
            a.digest(),
            gen::wire_stream(w, 8, Size::Small).digest(),
            "{}",
            w.name()
        );
    }
    let a = gen::typed_m(7, Size::Small);
    assert_eq!(a.digest(), gen::typed_m(7, Size::Small).digest());
    assert_ne!(a.digest(), gen::typed_m(8, Size::Small).digest());
}

/// Answers every job of a wire stream in-process; returns the reply lines.
fn answer_wire(stream: &gen::WireStream) -> Vec<String> {
    let store = local_store(stream).expect("contexts load");
    let engine = BatchEngine::new(EngineConfig::default());
    stream
        .jobs
        .iter()
        .map(|job| {
            let parsed = Job::from_json_line(&job.line).expect("generated line parses");
            let prepared = store.prepare(&parsed).expect("generated job resolves");
            engine
                .solve_prepared(parsed.id, &prepared, None, Instant::now())
                .to_json()
                .to_string()
        })
        .collect()
}

#[test]
fn construction_known_answers_carry_accepted_certificates() {
    for w in WIRE {
        let stream = gen::wire_stream(w, 3, Size::Small);
        let replies = answer_wire(&stream);
        let checked = check_wire(
            &stream,
            replies.iter().enumerate().map(|(i, r)| (i, r.as_str())),
        );
        let mut known = 0;
        for (job, c) in stream.jobs.iter().zip(&checked) {
            assert!(
                c.failure.is_none(),
                "{}: {}: {:?}",
                w.name(),
                job.id,
                c.failure
            );
            if job.expect != Expect::Implied {
                continue;
            }
            known += 1;
            assert_eq!(c.verdict, "implied", "{}: {}", w.name(), job.id);
            if job.family == Family::LocalExtent {
                // The program certifies no local-extent answers; these
                // ask φ ∈ Σ, which the job line itself shows.
                let parsed = Job::from_json_line(&job.line).expect("generated line parses");
                assert!(
                    parsed.sigma.contains(&parsed.phi),
                    "{}: {}",
                    w.name(),
                    job.id
                );
            } else {
                assert!(
                    c.certified,
                    "{}: {} has no accepted certificate",
                    w.name(),
                    job.id
                );
            }
        }
        assert!(known > 0, "{}: no construction-known answers", w.name());
    }
}

#[test]
fn construction_known_typed_answers_carry_checking_proofs() {
    let stream = gen::typed_m(3, Size::Small);
    let setup = typed_setup(&stream);
    let mut known = 0;
    for (i, q) in stream.queries.iter().enumerate() {
        let prepared = typed_job(&stream, &setup, i);
        let answer = Solver::new(prepared.context.clone())
            .implies(&prepared.sigma, &prepared.phi)
            .expect("M schema");
        if q.expect != Expect::Implied {
            assert!(
                !answer.outcome.is_unknown(),
                "{}: typed M is decidable",
                q.id
            );
            continue;
        }
        known += 1;
        match &answer.outcome {
            Outcome::Implied(Evidence::IrProof(proof)) => {
                proof.check(&prepared.sigma).expect("the I_r proof replays");
                assert_eq!(proof.conclusion, prepared.phi, "{}", q.id);
            }
            other => panic!("{}: expected an I_r proof, got {other:?}", q.id),
        }
    }
    assert!(known > 0);
}

#[test]
fn small_traced_replays_agree_with_direct_answers() {
    for w in WIRE {
        let stream = gen::wire_stream(w, 5, Size::Small);
        let n = w.digest_jobs(Size::Small).min(stream.jobs.len());
        let direct = answer_wire(&stream);
        let checked = check_wire(
            &stream,
            direct
                .iter()
                .take(n)
                .enumerate()
                .map(|(i, r)| (i, r.as_str())),
        );
        let digest = verdict_digest(checked.iter().map(|c| c.verdict.as_str()));
        let plain = trace::replay_wire_plain(&stream, n).expect("replay");
        let traced = trace::replay_wire_traced(&stream, n).expect("traced replay");
        assert_eq!(
            verdict_digest(plain.verdicts.iter().map(String::as_str)),
            digest,
            "{}",
            w.name()
        );
        assert_eq!(
            verdict_digest(traced.verdicts.iter().map(String::as_str)),
            digest,
            "{}",
            w.name()
        );
        assert_eq!(
            traced.spans["canon.us"].len(),
            n,
            "{}: one canon span per job",
            w.name()
        );
        assert_eq!(
            traced.counts.get("certify.check_invalid"),
            None,
            "{}",
            w.name()
        );
    }
}

#[test]
fn small_typed_workload_runs_end_to_end() {
    let opts = Options {
        seed: 11,
        seconds: 0.5,
        trace: true,
        pathcons: &PathBuf::from("unused"),
        workdir: &std::env::temp_dir(),
        size: Size::Small,
    };
    let outcome = bench::run(Workload::TypedM, &opts).expect("typed_m runs");
    assert!(outcome.correct);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    for name in [
        "jobs_per_s",
        "latency_p50_ms",
        "latency_p99_ms",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(outcome.end_to_end[name].value > 0.0, "{name}");
    }
    assert!(outcome.per_layer["share.typed_m"].value > 0.0);
    // The replies of a second pass check clean too.
    let stream = gen::typed_m(11, Size::Small);
    let setup = typed_setup(&stream);
    let replies: Vec<String> = (0..stream.queries.len())
        .map(|i| {
            setup
                .engine
                .solve_prepared(
                    stream.queries[i].id.clone(),
                    &typed_job(&stream, &setup, i),
                    None,
                    Instant::now(),
                )
                .to_json()
                .to_string()
        })
        .collect();
    let checked = check_typed(
        &stream,
        replies.iter().enumerate().map(|(i, r)| (i, r.as_str())),
    );
    assert!(checked.iter().all(|c| c.failure.is_none()));
}

/// Drives the served workloads through a real `pathcons serve` when
/// `PATHCONS_BIN` names one.
#[test]
fn small_served_workloads_run_end_to_end() {
    let Some(bin) = std::env::var_os("PATHCONS_BIN") else {
        eprintln!("PATHCONS_BIN not set; skipping the served workloads");
        return;
    };
    let workdir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let bin = PathBuf::from(bin);
    let opts = Options {
        seed: 13,
        seconds: 0.5,
        trace: true,
        pathcons: &bin,
        workdir: &workdir,
        size: Size::Small,
    };
    for w in WIRE {
        let outcome = bench::run(w, &opts).expect("served workload runs");
        assert!(outcome.correct, "{}", w.name());
        assert_eq!(outcome.failed, 0, "{}", w.name());
        assert!(outcome.end_to_end["jobs_per_s"].value > 0.0, "{}", w.name());
    }
    let _ = std::fs::remove_dir_all(&workdir);
}
