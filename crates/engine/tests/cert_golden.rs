//! Certificate bytes are pinned: every certificate the engine emits for
//! two fixed job sets must match `cert_golden.jsonl` byte for byte.
//!
//! A certificate is a function of (Σ, φ, context) alone — not of cache
//! temperature, thread count, or how the solver found its evidence — so
//! a change to how evidence is produced must leave this file untouched.
//! The job sets are `examples/batch_jobs.jsonl` (every verdict kind,
//! alpha-variants that hit the cache) and seeded cold word jobs shaped
//! like the `cold_untyped` word family: one 40-rule theory over 4
//! labels per job, asking a query derived by one to three rewrites.
//!
//! Only when a certificate change is intended, rewrite the golden file
//! with `cargo test -p pathcons-engine --test cert_golden -- --ignored`
//! and review its diff.

use pathcons_engine::{certificate_to_json, BatchEngine, EngineConfig, Job, Json};
use std::path::PathBuf;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const WORD_JOBS: usize = 240;
const RULES: usize = 40;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/cert_golden.jsonl")
}

/// SplitMix64: a fixed, dependency-free stream for the generated jobs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// A non-empty word of up to `max` labels.
    fn word(&mut self, max: usize) -> Vec<usize> {
        (0..1 + self.below(max))
            .map(|_| self.below(LABELS.len()))
            .collect()
    }
}

fn render(word: &[usize]) -> String {
    word.iter()
        .map(|&l| LABELS[l])
        .collect::<Vec<_>>()
        .join(".")
}

/// A cold word job: its own 40-rule theory (non-empty right-hand sides,
/// so no word collapses to ε and `post*` decides) and a query implied by
/// rewriting a rule's lhs, possibly extended by one label.
fn word_job(index: usize, rng: &mut Rng) -> Job {
    let rules: Vec<(Vec<usize>, Vec<usize>)> =
        (0..RULES).map(|_| (rng.word(4), rng.word(4))).collect();
    let (lhs, _) = &rules[rng.below(RULES)];
    let mut start = lhs.clone();
    if rng.below(2) == 1 {
        start.push(rng.below(LABELS.len()));
    }
    let mut end = start.clone();
    for _ in 0..1 + rng.below(3) {
        let applicable: Vec<&(Vec<usize>, Vec<usize>)> =
            rules.iter().filter(|(l, _)| end.starts_with(l)).collect();
        if applicable.is_empty() {
            break;
        }
        let (l, r) = applicable[rng.below(applicable.len())];
        end.splice(..l.len(), r.iter().copied());
    }
    Job {
        id: format!("w{index}"),
        context: String::new(),
        sigma: rules
            .iter()
            .map(|(l, r)| format!("{} -> {}", render(l), render(r)))
            .collect(),
        phi: format!("{} -> {}", render(&start), render(&end)),
        deadline_ms: None,
        request_id: None,
    }
}

fn jobs() -> Vec<Job> {
    let examples = include_str!("../../../examples/batch_jobs.jsonl");
    let mut jobs = Job::parse_jobs(examples).expect("example jobs parse");
    let mut rng = Rng(0x00C0_1D5E_ED00_0001);
    jobs.extend((0..WORD_JOBS).map(|i| word_job(i, &mut rng)));
    jobs
}

/// One line per job: its id, verdict and certificate (`null` when the
/// evidence has no certificate form).
fn certificate_lines() -> String {
    let engine = BatchEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let report = engine.run_batch(jobs());
    let mut out = String::new();
    for result in report.results {
        let line = Json::Obj(vec![
            ("id".to_owned(), Json::Str(result.id.clone())),
            (
                "verdict".to_owned(),
                Json::Str(result.verdict.as_str().to_owned()),
            ),
            (
                "certificate".to_owned(),
                result
                    .certificate
                    .as_ref()
                    .map_or(Json::Null, certificate_to_json),
            ),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[test]
fn certificates_match_the_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file present");
    let actual = certificate_lines();
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "job count changed"
    );
    let word_certificates = actual
        .lines()
        .filter(|l| l.starts_with("{\"id\":\"w") && l.contains("\"kind\":\"word-rewrite\""))
        .count();
    assert!(
        word_certificates >= 200,
        "only {word_certificates} generated jobs carry rewrite certificates"
    );
    for (golden, actual) in golden.lines().zip(actual.lines()) {
        assert_eq!(golden, actual);
    }
}

#[test]
#[ignore = "rewrites the golden file; run only for an intended certificate change"]
fn regenerate_golden_file() {
    std::fs::write(golden_path(), certificate_lines()).expect("golden file written");
}
