//! Batch-level guarantees: parallel determinism, cache efficiency on
//! realistic (repeated / near-duplicate) workloads, and deadline
//! isolation for deliberately hard undecidable jobs.

use pathcons_engine::{BatchEngine, CacheOutcome, EngineConfig, Job, Verdict};
use std::collections::BTreeMap;

/// A workload of `n` jobs cycling through a few query shapes, with
/// label names rotated so most repeats are alpha-variants rather than
/// byte-identical queries.
fn workload(n: usize) -> Vec<Job> {
    // (Σ, φ) templates over placeholder labels A/B/C.
    let templates: &[(&[&str], &str)] = &[
        (&["A -> B", "B -> C"], "A -> C"),
        (&["A -> B"], "B -> A"),
        (&["A -> B", "B -> A"], "A -> A"),
        (&["A: B -> C"], "A: B -> C"),
        (&["A -> A.B"], "A.B -> A"),
        (&["A.B -> C", "C -> A"], "A.B -> A"),
        (&["B -> A", "C -> B"], "C -> A"),
        (&["A -> B.C"], "A -> B"),
    ];
    // Rotating label alphabets: same shapes, different names.
    let alphabets: &[[&str; 3]] = &[
        ["a", "b", "c"],
        ["x", "y", "z"],
        ["foo", "bar", "baz"],
        ["b", "c", "a"],
        ["p", "q", "r"],
    ];
    (0..n)
        .map(|i| {
            let (sigma, phi) = templates[i % templates.len()];
            let names = alphabets[(i / templates.len()) % alphabets.len()];
            let instantiate = |text: &str| {
                text.replace('A', names[0])
                    .replace('B', names[1])
                    .replace('C', names[2])
            };
            Job {
                id: format!("job-{i}"),
                context: String::new(),
                sigma: sigma.iter().map(|s| instantiate(s)).collect(),
                phi: instantiate(phi),
                deadline_ms: None,
                request_id: None,
            }
        })
        .collect()
}

/// The observable answer of a batch as a multiset of (id, verdict).
fn verdict_multiset(engine: &BatchEngine, jobs: Vec<Job>) -> BTreeMap<(String, Verdict), usize> {
    let report = engine.run_batch(jobs);
    let mut multiset = BTreeMap::new();
    for result in report.results {
        *multiset.entry((result.id, result.verdict)).or_insert(0) += 1;
    }
    multiset
}

#[test]
fn parallel_batches_are_deterministic() {
    // Satellite: N-thread batches return the same multiset of answers
    // as the 1-thread baseline, cold cache each time.
    let jobs = workload(120);
    let baseline = verdict_multiset(
        &BatchEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        }),
        jobs.clone(),
    );
    for threads in [2, 4, 8] {
        let parallel = verdict_multiset(
            &BatchEngine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            }),
            jobs.clone(),
        );
        assert_eq!(baseline, parallel, "{threads}-thread batch diverged");
    }
}

#[test]
fn thousand_job_batch_exceeds_half_cache_hits() {
    // Acceptance: 1000 repeated / near-duplicate jobs, > 50% hit rate.
    let engine = BatchEngine::new(EngineConfig::default());
    let report = engine.run_batch(workload(1000));
    assert_eq!(report.stats.jobs, 1000);
    assert_eq!(report.stats.errors, 0);
    assert!(
        report.stats.hit_rate() > 0.5,
        "hit rate {:.1}% with {} hits / {} misses",
        report.stats.hit_rate() * 100.0,
        report.stats.hits,
        report.stats.misses,
    );
    // The workload has only 8 shapes; at most one miss per shape per
    // concurrent duplicate burst. Sanity-check the counters add up.
    assert_eq!(report.stats.hits + report.stats.misses, 1000);
}

#[test]
fn a_zero_capacity_cache_stores_nothing_and_counts_every_miss() {
    let engine = BatchEngine::new(EngineConfig {
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    let report = engine.run_batch(workload(16));
    assert!(report
        .results
        .iter()
        .all(|r| r.cache == Some(CacheOutcome::Miss)));
    assert_eq!((report.stats.hits, report.stats.misses), (0, 16));
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 16, 0));
    assert_eq!(engine.cache_len(), 0);
}

#[test]
fn hard_job_deadline_does_not_delay_neighbours() {
    // Acceptance: a deliberately hard job — general P_c (backward
    // constraint under a prefix, so no complete procedure applies) with
    // a diverging chase and no countermodel the randomized search finds
    // (probed across seeds) — under a budget that would otherwise run
    // for minutes. Its 50 ms deadline must produce Unknown while
    // unrelated easy jobs (all in decidable fragments) are served
    // normally.
    let hard = Job {
        id: "hard".into(),
        context: String::new(),
        sigma: vec!["p: a -> a.b.c.d".into(), "p: d <- e".into()],
        phi: "p: a -> e".into(),
        deadline_ms: Some(50),
        request_id: None,
    };
    let mut jobs = vec![hard];
    jobs.extend(workload(60));

    let engine = BatchEngine::new(EngineConfig {
        threads: 2,
        budget: pathcons_core::Budget {
            chase_rounds: 1_000_000,
            chase_max_nodes: 1_000_000,
            search_samples: 1_000_000_000,
            ..pathcons_core::Budget::default()
        },
        ..EngineConfig::default()
    });
    let start = std::time::Instant::now();
    let report = engine.run_batch(jobs);
    let wall = start.elapsed();

    let hard_result = &report.results[0];
    assert_eq!(hard_result.verdict, Verdict::Unknown);
    assert_eq!(hard_result.detail.as_deref(), Some("deadline exceeded"));
    // The hard job respected its deadline (with generous scheduling
    // slack) instead of running the full multi-second budget.
    assert!(
        hard_result.micros < 2_000_000,
        "hard job took {} µs",
        hard_result.micros
    );
    // Every easy job still completed with a definite verdict.
    for result in &report.results[1..] {
        assert_ne!(result.verdict, Verdict::Error, "{}", result.id);
        assert_ne!(result.verdict, Verdict::Unknown, "{}", result.id);
    }
    // And the batch as a whole finished promptly.
    assert!(wall.as_secs() < 30, "batch took {wall:?}");
}
