//! One workload end to end: generate, drive, check, and (with tracing)
//! replay in-process and split job time by layer.

use crate::drive::{self, Run};
use crate::gen::{self, Size, TypedStream, WireStream};
use crate::report::{median, put, put_span, quantile, Metrics};
use crate::trace::{self, Trace, LAYERS};
use crate::verify::{prefix_verdicts, Checked, Checker, JobInfo};
use crate::{verdict_digest, Workload};
use pathcons_engine::{prepare_job, Job};
use std::collections::HashMap;
use std::path::Path;

/// How to run one workload.
pub struct Options<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Timed-window length.
    pub seconds: f64,
    /// Also run the traced in-process replay.
    pub trace: bool,
    /// The `pathcons` binary (served workloads).
    pub pathcons: &'a Path,
    /// Scratch directory for sockets and snapshots.
    pub workdir: &'a Path,
    /// Stream shape.
    pub size: Size,
}

/// What one workload produced.
pub struct Outcome {
    /// Every check passed and the digests agree.
    pub correct: bool,
    /// Jobs answered and checked.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
}

enum Stream {
    Wire(WireStream),
    Typed(TypedStream),
}

impl Stream {
    fn len(&self) -> usize {
        match self {
            Stream::Wire(s) => s.jobs.len(),
            Stream::Typed(s) => s.queries.len(),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Stream::Wire(s) => s.digest(),
            Stream::Typed(s) => s.digest(),
        }
    }
}

/// Runs one workload and prints its report; the caller prints the
/// result line.
pub fn run(workload: Workload, opts: &Options<'_>) -> Result<Outcome, String> {
    let started = std::time::Instant::now();
    let stream = match workload {
        Workload::TypedM => Stream::Typed(gen::typed_m(opts.seed, opts.size)),
        w => Stream::Wire(gen::wire_stream(w, opts.seed, opts.size)),
    };
    let digest_jobs = workload.digest_jobs(opts.size).min(stream.len());
    println!(
        "== {} (seed {}, {} jobs in stream, stream digest {:016x})",
        workload.name(),
        opts.seed,
        stream.len(),
        stream.digest()
    );

    let generated_s = started.elapsed().as_secs_f64();
    let run = match &stream {
        Stream::Wire(s) => {
            drive::run_served(s, opts.pathcons, opts.workdir, opts.seconds, digest_jobs)?
        }
        Stream::Typed(s) => drive::run_typed(s, opts.seconds, digest_jobs)?,
    };
    let driven_s = started.elapsed().as_secs_f64();
    let checked = check_run(&stream, &run);
    let checked_s = started.elapsed().as_secs_f64();
    println!(
        "phases (s): generate {generated_s:.2}, set up and drive {:.2}, check {:.2}",
        driven_s - generated_s,
        checked_s - driven_s
    );
    let failures: Vec<&Checked> = checked.iter().filter(|c| c.failure.is_some()).collect();
    for c in failures.iter().take(10) {
        println!(
            "FAILED job at draw {}: {}",
            c.index,
            c.failure.as_deref().unwrap_or("")
        );
    }
    let prefix = prefix_verdicts(&checked, digest_jobs);
    let complete = prefix.iter().all(Option::is_some);
    let digest = verdict_digest(prefix.iter().map(|v| v.as_deref().unwrap_or("missing")));
    let mut correct = failures.is_empty() && complete;

    let end_to_end = end_to_end_metrics(&run, &checked);
    let decided = checked.iter().filter(|c| c.decided()).count();
    let certified = checked.iter().filter(|c| c.certified).count();
    let rtts = latencies_ms(&run);
    let p99 = quantile(&rtts, 0.99);
    println!(
        "served {} jobs in {:.2} s ({} untimed digest jobs); whole window p50 {:.4} ms, p99 {:.4} ms with {} beyond; failed {} (failed_frac {:.4}); verdict digest {:016x} over {} draws",
        run.samples.len(),
        run.window_s,
        run.extra.len(),
        quantile(&rtts, 0.5),
        p99,
        rtts.iter().filter(|&&r| r > p99).count(),
        failures.len(),
        failures.len() as f64 / checked.len().max(1) as f64,
        digest,
        digest_jobs
    );
    let all = slices(&run);
    let slice_row: Vec<String> = all
        .iter()
        .map(|s| {
            format!(
                "{:.3}/{:.1}%",
                quantile(&s.latencies_ms, 0.99),
                s.steal * 100.0
            )
        })
        .collect();
    println!(
        "slices, p99 ms / cpu stolen: {}; {} calm",
        slice_row.join(" "),
        calm_slices(&all).len()
    );
    println!(
        "certified {certified} of {decided} definite verdicts; cache {} hits / {} misses / {} evictions",
        run.cache_hits, run.cache_misses, run.cache_evictions
    );
    let setups: Vec<String> = run
        .setups_s
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    let stolen = match (run.cpu.first(), run.cpu.last()) {
        (Some(a), Some(b)) => drive::steal_share(a, b),
        _ => 0.0,
    };
    println!(
        "set-ups (ms): {}; cpu stolen during the window: {:.1}%",
        setups.join(" "),
        stolen * 100.0
    );
    crate::report::print_table("end-to-end", &end_to_end);

    let mut per_layer = Metrics::new();
    if opts.trace {
        let (plain, traced) = match &stream {
            Stream::Wire(s) => (
                trace::replay_wire_plain(s, digest_jobs)?,
                trace::replay_wire_traced(s, digest_jobs)?,
            ),
            Stream::Typed(s) => (
                trace::replay_typed_plain(s, digest_jobs),
                trace::replay_typed_traced(s, digest_jobs),
            ),
        };
        let plain_digest = verdict_digest(plain.verdicts.iter().map(String::as_str));
        let traced_digest = verdict_digest(traced.verdicts.iter().map(String::as_str));
        println!(
            "traced replay of {digest_jobs} jobs: digest {traced_digest:016x} (untraced {plain_digest:016x}, served {digest:016x}) {}",
            if traced_digest == digest && plain_digest == digest { "match" } else { "MISMATCH" }
        );
        correct &= traced_digest == digest && plain_digest == digest;
        if traced
            .counts
            .get("certify.check_invalid")
            .copied()
            .unwrap_or(0)
            > 0
        {
            println!("traced replay: certificates rejected by the checker");
            correct = false;
        }
        per_layer = per_layer_metrics(&run, &checked, &plain, &traced, digest_jobs);
        print_shares(workload, &per_layer);
        crate::report::print_table("per-layer", &per_layer);
    }
    Ok(Outcome {
        correct,
        attempted: checked.len() as u64,
        failed: failures.len() as u64,
        end_to_end,
        per_layer,
    })
}

/// Checks every answer of a run against its stream.
fn check_run(stream: &Stream, run: &Run) -> Vec<Checked> {
    match stream {
        Stream::Wire(s) => check_wire(s, run.answers()),
        Stream::Typed(s) => check_typed(s, run.answers()),
    }
}

/// Threads the output check runs on. It runs after the timed window,
/// so it may use every processor the load did.
const CHECK_THREADS: usize = 2;

/// Checks `(draw index, reply)` pairs on `CHECK_THREADS` threads and
/// returns the checks in input order. Draw `i` is stream position
/// `i % len`; each thread owns the positions congruent to its number,
/// so every repeat of a position meets that thread's memo. `check_part`
/// checks one thread's `(draw index, position, reply)` triples in order.
fn check_split<'a>(
    len: usize,
    answers: impl Iterator<Item = (usize, &'a str)>,
    check_part: impl Fn(&[(usize, usize, &'a str)]) -> Vec<Checked> + Sync,
) -> Vec<Checked> {
    let mut parts: Vec<Vec<(usize, usize, &str)>> = vec![Vec::new(); CHECK_THREADS];
    let mut owners = Vec::new();
    for (i, reply) in answers {
        let pos = i % len.max(1);
        owners.push(pos % CHECK_THREADS);
        parts[pos % CHECK_THREADS].push((i, pos, reply));
    }
    let check_part = &check_part;
    let mut checked: Vec<std::vec::IntoIter<Checked>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .map(|part| scope.spawn(move || check_part(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread").into_iter())
            .collect()
    });
    owners
        .into_iter()
        .map(|t| checked[t].next().expect("one check per answer"))
        .collect()
}

/// Checks `(draw index, reply)` pairs against a wire stream.
pub fn check_wire<'a>(
    stream: &WireStream,
    answers: impl Iterator<Item = (usize, &'a str)>,
) -> Vec<Checked> {
    check_split(stream.jobs.len(), answers, |part| {
        let store = trace::local_store(stream).expect("the stream's contexts load");
        let mut checker = Checker::new(
            |pos| {
                let job = &stream.jobs[pos];
                JobInfo {
                    id: job.id.clone(),
                    expect: job.expect,
                }
            },
            |pos| {
                let job = Job::from_json_line(&stream.jobs[pos].line)?;
                if stream.contexts.is_some() {
                    store.prepare(&job)
                } else {
                    prepare_job(&job.context, &job.sigma, &job.phi, &mut Default::default())
                }
            },
        );
        part.iter()
            .map(|&(i, pos, reply)| checker.check(i, pos, reply))
            .collect()
    })
}

/// Checks `(draw index, reply)` pairs against the typed stream.
pub fn check_typed<'a>(
    stream: &TypedStream,
    answers: impl Iterator<Item = (usize, &'a str)>,
) -> Vec<Checked> {
    check_split(stream.queries.len(), answers, |part| {
        let setup = drive::typed_setup(stream);
        let mut checker = Checker::new(
            |pos| {
                let q = &stream.queries[pos];
                JobInfo {
                    id: q.id.clone(),
                    expect: q.expect,
                }
            },
            |pos| Ok(drive::typed_job(stream, &setup, pos)),
        );
        part.iter()
            .map(|&(i, pos, reply)| checker.check(i, pos, reply))
            .collect()
    })
}

fn latencies_ms(run: &Run) -> Vec<f64> {
    run.samples.iter().map(|s| s.rtt_ns as f64 / 1e6).collect()
}

/// Samples every slice of the timed window must hold, so that more than
/// ten lie beyond each slice's p99.
const SLICE_SAMPLES: usize = 1000;

/// Share of CPU time the hypervisor may steal during a slice for the
/// slice to count as undisturbed.
const STEAL_LIMIT: f64 = 0.02;

/// One equal slice of the timed window.
pub struct Slice {
    /// Latencies (ms) of the jobs that completed in the slice.
    pub latencies_ms: Vec<f64>,
    /// Share of CPU time the hypervisor stole during the slice.
    pub steal: f64,
}

/// The timed window split by completion time into the largest odd
/// number of equal slices, from 3 to 11, that leaves at least
/// `SLICE_SAMPLES` samples per slice.
pub fn slices(run: &Run) -> Vec<Slice> {
    let count = (3..=11)
        .step_by(2)
        .filter(|k| run.samples.len() / k >= SLICE_SAMPLES)
        .last()
        .unwrap_or(3);
    let window_ns = (run.window_s * 1e9).max(1.0);
    let mut slices: Vec<Slice> = (0..count)
        .map(|k| {
            let from = window_ns * k as f64 / count as f64;
            let to = window_ns * (k + 1) as f64 / count as f64;
            let before = run.cpu.iter().rev().find(|c| c.t_ns as f64 <= from);
            let after = run.cpu.iter().find(|c| c.t_ns as f64 >= to);
            let steal = match (before.or(run.cpu.first()), after.or(run.cpu.last())) {
                (Some(a), Some(b)) => drive::steal_share(a, b),
                _ => 0.0,
            };
            Slice {
                latencies_ms: Vec::new(),
                steal,
            }
        })
        .collect();
    for s in &run.samples {
        let done = (s.sent_ns + s.rtt_ns) as f64;
        let k = ((done / window_ns * count as f64) as usize).min(count - 1);
        slices[k].latencies_ms.push(s.rtt_ns as f64 / 1e6);
    }
    slices
}

/// The slices the end-to-end figures are computed over: those in which
/// the hypervisor stole at most `STEAL_LIMIT` of the CPU time, or the
/// calmest half when fewer qualify. Only the machine's own steal counter
/// decides; the program's timings never do.
pub fn calm_slices(slices: &[Slice]) -> Vec<&Slice> {
    let mut sorted: Vec<&Slice> = slices.iter().collect();
    sorted.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let calm = sorted.iter().filter(|s| s.steal <= STEAL_LIMIT).count();
    sorted.truncate(calm.max(slices.len().div_ceil(2)));
    sorted
}

/// The end-to-end metrics of a run.
///
/// Throughput and latency quantiles are medians over the calm slices of
/// the timed window, so another tenant's load on the shared machine
/// moves neither the figure nor its spread.
pub fn end_to_end_metrics(run: &Run, checked: &[Checked]) -> Metrics {
    let mut m = Metrics::new();
    let attempted = checked.len().max(1) as f64;
    let failed = checked.iter().filter(|c| c.failure.is_some()).count() as f64;
    let decided = checked.iter().filter(|c| c.decided()).count() as f64;
    let all = slices(run);
    let calm = calm_slices(&all);
    let slice_s = run.window_s.max(1e-9) / all.len() as f64;
    let per_slice = |f: &dyn Fn(&Vec<f64>) -> f64| {
        median(&calm.iter().map(|s| f(&s.latencies_ms)).collect::<Vec<_>>())
    };
    put(
        &mut m,
        "jobs_per_s",
        per_slice(&|s| s.len() as f64 / slice_s),
        "1/s",
    );
    put(
        &mut m,
        "latency_p50_ms",
        per_slice(&|s| quantile(s, 0.5)),
        "ms",
    );
    put(
        &mut m,
        "latency_p99_ms",
        per_slice(&|s| quantile(s, 0.99)),
        "ms",
    );
    put(&mut m, "ok_frac", 1.0 - failed / attempted, "ratio");
    put(&mut m, "decided_frac", decided / attempted, "ratio");
    put(&mut m, "setup_s", median(&run.setups_s), "s");
    put(
        &mut m,
        "peak_rss_mb",
        run.peak_rss_kb as f64 / 1024.0,
        "MiB",
    );
    m
}

/// Misses that overlapped in time with another in-flight miss of the
/// same canonical key: duplicate solves that single-flight would
/// coalesce.
pub fn concurrent_duplicate_misses(run: &Run, checked: &[Checked]) -> u64 {
    let mut by_key: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for (sample, c) in run.samples.iter().zip(checked) {
        if !c.hit && c.failure.is_none() {
            by_key
                .entry(c.key)
                .or_default()
                .push((sample.sent_ns, sample.sent_ns + sample.rtt_ns));
        }
    }
    let mut dups = 0;
    for intervals in by_key.values_mut() {
        intervals.sort_unstable();
        let mut latest_end = 0u64;
        for (i, &(start, end)) in intervals.iter().enumerate() {
            if i > 0 && start < latest_end {
                dups += 1;
            }
            latest_end = latest_end.max(end);
        }
    }
    dups
}

/// The per-layer metrics: served-run counters and wire overhead, plus
/// the traced replay's spans, counts and layer shares.
pub fn per_layer_metrics(
    run: &Run,
    checked: &[Checked],
    plain: &Trace,
    traced: &Trace,
    jobs: usize,
) -> Metrics {
    let mut m = Metrics::new();
    let timed = &checked[..run.samples.len()];
    let overhead: Vec<f64> = run
        .samples
        .iter()
        .zip(timed)
        .map(|(s, c)| (s.rtt_ns as f64 / 1e3 - c.micros as f64).max(0.0))
        .collect();
    let hit_micros: Vec<f64> = timed
        .iter()
        .filter(|c| c.hit)
        .map(|c| c.micros as f64)
        .collect();
    put_span(&mut m, "serve.overhead_us", &overhead);
    put_span(&mut m, "cache.hit_us", &hit_micros);
    for name in [
        "serve.decode_us",
        "serve.encode_us",
        "store.prepare_us",
        "canon.us",
        "cache.self_us",
        "word.solve_us",
        "certify.us",
        "certify.check_us",
        "local_extent.solve_us",
        "chase.solve_us",
        "search.solve_us",
        "typed_m.solve_us",
    ] {
        put_span(
            &mut m,
            name,
            traced.spans.get(name).map_or(&[][..], Vec::as_slice),
        );
    }
    let lookups = (run.cache_hits + run.cache_misses).max(1) as f64;
    put(
        &mut m,
        "cache.hit_ratio",
        run.cache_hits as f64 / lookups,
        "ratio",
    );
    put(
        &mut m,
        "cache.dup_solves",
        concurrent_duplicate_misses(run, timed) as f64,
        "count",
    );
    put(
        &mut m,
        "cache.evictions",
        run.cache_evictions as f64,
        "count",
    );
    let count = |k: &str| traced.counts.get(k).copied().unwrap_or(0) as f64;
    for k in [
        "word.poststar_states",
        "word.poststar_transitions",
        "certify.steps",
        "chase.steps",
        "typed_m.proof_steps",
    ] {
        put(&mut m, k, count(k), "count");
    }
    let word_lookups = (run.amortize_word_hits + run.amortize_word_misses).max(1) as f64;
    put(
        &mut m,
        "amortize.word_hit_ratio",
        run.amortize_word_hits as f64 / word_lookups,
        "ratio",
    );
    put(
        &mut m,
        "amortize.chase_reuses",
        run.amortize_chase_reuses as f64,
        "count",
    );
    put(&mut m, "store.load_s", median(&run.load_s), "s");
    put(&mut m, "store.warm_s", median(&run.warm_s), "s");
    let decided = checked.iter().filter(|c| c.decided()).count().max(1) as f64;
    put(
        &mut m,
        "certified_frac",
        checked.iter().filter(|c| c.certified).count() as f64 / decided,
        "ratio",
    );
    // Instrumentation cost: traced wall time, less the re-timed child
    // calls and counting, against the untraced replay.
    put(
        &mut m,
        "trace.overhead_frac",
        (traced.wall_s - traced.rerun_s - plain.wall_s) / plain.wall_s.max(1e-9),
        "ratio",
    );
    put(&mut m, "trace.replay_s", plain.wall_s, "s");

    // Layer shares of job time: mean self time per job, per layer.
    let n = jobs.max(1) as f64;
    let serve_mean = if run.samples.is_empty() || overhead.iter().all(|&o| o == 0.0) {
        (traced.total("serve.decode_us") + traced.total("serve.encode_us")) / n
    } else {
        overhead.iter().sum::<f64>() / overhead.len() as f64
    };
    let means: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&layer| {
            let mean = match layer {
                "serve" => serve_mean,
                "store" => traced.total("store.prepare_us") / n,
                "canon" => traced.total("canon.us") / n,
                "cache" => (traced.total("cache.self_us") + traced.total("cache.hit_self_us")) / n,
                "certify" => traced.total("certify.us") / n,
                other => traced.total(&format!("{other}.solve_us")) / n,
            };
            (layer, mean)
        })
        .collect();
    let sum: f64 = means.iter().map(|(_, v)| v).sum::<f64>().max(1e-9);
    for (layer, mean) in means {
        put(&mut m, &format!("share.{layer}"), mean / sum, "ratio");
    }
    put(&mut m, "share.job_us", sum, "us");
    m
}

fn print_shares(workload: Workload, per_layer: &Metrics) {
    let row: Vec<String> = LAYERS
        .iter()
        .map(|layer| {
            let share = per_layer
                .get(&format!("share.{layer}"))
                .map_or(0.0, |m| m.value);
            format!("{layer} {:.1}%", share * 100.0)
        })
        .collect();
    println!(
        "layer shares of job time ({}): {}",
        workload.name(),
        row.join(", ")
    );
}
