//! Load generation. Served workloads spawn the real `pathcons serve`
//! binary (default flags, unix socket) and drive it from two
//! closed-loop connections that draw from one shared job sequence: each
//! caller sends its next line only after the previous reply arrived.
//! `typed_m` runs in-process: two caller threads call
//! `BatchEngine::solve_prepared`, the entry point the serve loop uses.
//!
//! A served workload's timed window runs in `SETUPS` equal segments, and
//! the callers idle between segments while one more set-up is measured,
//! so the set-ups a run takes its median over are spread across the run
//! rather than bunched into one moment of a machine whose speed drifts.
//! `typed_m` sets up in-process, where a set-up beside the window's grown
//! engine would measure a different process, so its set-ups stay ahead
//! of the window, which runs unbroken.

use crate::gen::{TypedStream, WireStream};
use pathcons_core::{DataContext, SchemaContext};
use pathcons_engine::{BatchEngine, EngineConfig, Json, PreparedJob};
use pathcons_store::{Client, ConstraintStore, Endpoint};
use pathcons_types::TypeGraph;
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop callers per workload: connections when served, threads
/// on `typed_m`.
pub const CALLERS: usize = 2;
/// Draws after which `typed_m` reads its peak resident set: as many as
/// the engine's answer cache holds, so the cache has just filled. Later,
/// entries allocated on one caller's malloc arena are evicted from the
/// other's, and the fragmentation this leaves moved a reading at the
/// window's end between about 360 and 530 MB on identical 30000-job
/// runs.
pub const RSS_AT_DRAW: usize = 4096;
/// Set-ups per run, and segments of the timed window; `setup_s` is the
/// set-ups' median.
pub const SETUPS: usize = 9;

/// One answered job of the timed window.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Absolute draw index; the job is `stream[index % len]`.
    pub index: usize,
    /// Send time, nanoseconds after the window opened.
    pub sent_ns: u64,
    /// Send-to-reply time in nanoseconds.
    pub rtt_ns: u64,
    /// The reply line.
    pub reply: String,
}

/// Everything one served or in-process run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Timed-window samples, in draw order.
    pub samples: Vec<Sample>,
    /// Untimed replies for digest-prefix jobs the window did not reach.
    pub extra: Vec<(usize, String)>,
    /// Length of the timed window in seconds.
    pub window_s: f64,
    /// Each set-up's duration in seconds.
    pub setups_s: Vec<f64>,
    /// Store load times reported by the server banner, in seconds.
    pub load_s: Vec<f64>,
    /// `--warm` times reported by the server banner, in seconds.
    pub warm_s: Vec<f64>,
    /// Peak resident set (VmHWM) of the process that solved, in KiB.
    pub peak_rss_kb: u64,
    /// Cache hits and misses during the window.
    pub cache_hits: u64,
    /// Cache misses during the window.
    pub cache_misses: u64,
    /// Answer-cache evictions during the window.
    pub cache_evictions: u64,
    /// `post*` cache hits of the resident context, when there is one.
    pub amortize_word_hits: u64,
    /// `post*` cache misses of the resident context.
    pub amortize_word_misses: u64,
    /// Chase-prefix reuses of the resident context.
    pub amortize_chase_reuses: u64,
    /// `/proc/stat` readings across the timed window.
    pub cpu: Vec<CpuSample>,
}

impl Run {
    /// Every answered `(index, reply)`, timed then untimed.
    pub fn answers(&self) -> impl Iterator<Item = (usize, &str)> {
        self.samples
            .iter()
            .map(|s| (s.index, s.reply.as_str()))
            .chain(self.extra.iter().map(|(i, r)| (*i, r.as_str())))
    }
}

/// A spawned `pathcons serve` process.
struct ServeProcess {
    child: Child,
    endpoint: Endpoint,
    _stderr: BufReader<ChildStderr>,
}

impl ServeProcess {
    /// Spawns the server, waits until it answers a ping, and sends the
    /// warm-up requests. Returns the process, the set-up time, and the
    /// banner's load/warm times.
    ///
    /// Set-up time runs from the spawn to the banner (printed once the
    /// store is loaded, warmed and the socket bound), plus the warm-up
    /// round trips. The wait for the first connection to be accepted is
    /// left out: the accept loop polls every 5 ms, so that wait depends
    /// only on the phase of the poll.
    fn start(
        pathcons: &Path,
        socket: &Path,
        snapshot: Option<&Path>,
        warmup: &[String],
    ) -> Result<(ServeProcess, f64, f64, f64), String> {
        let _ = std::fs::remove_file(socket);
        let started = Instant::now();
        let mut cmd = Command::new(pathcons);
        cmd.arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()));
        if let Some(path) = snapshot {
            cmd.arg("--snapshot").arg(path).arg("--warm");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", pathcons.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut banner = String::new();
        let read = stderr.read_line(&mut banner);
        let mut setup = started.elapsed().as_secs_f64();
        let endpoint = Endpoint::Unix(socket.to_owned());
        let mut process = ServeProcess {
            child,
            endpoint,
            _stderr: stderr,
        };
        if read.is_err() || !banner.starts_with("serving on") {
            process.kill();
            return Err(format!("server did not start: {}", banner.trim()));
        }
        let mut client = process.connect()?;
        let pong = client
            .round_trip(r#"{"op": "ping"}"#)
            .map_err(|e| format!("ping failed: {e}"))?;
        if Json::parse(&pong)
            .ok()
            .and_then(|v| v.get("ok").and_then(Json::as_bool))
            != Some(true)
        {
            process.kill();
            return Err(format!("bad ping reply: {pong}"));
        }
        for line in warmup {
            let sent = Instant::now();
            let reply = client
                .round_trip(line)
                .map_err(|e| format!("warm-up failed: {e}"))?;
            setup += sent.elapsed().as_secs_f64();
            let verdict = Json::parse(&reply)
                .ok()
                .and_then(|v| v.get("verdict").and_then(Json::as_str).map(str::to_owned));
            if verdict.as_deref() != Some("implied") {
                process.kill();
                return Err(format!("bad warm-up reply: {reply}"));
            }
        }
        let (load, warm) = banner_times(&banner);
        Ok((process, setup, load, warm))
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint)
            .map_err(|e| format!("cannot connect to {}: {e}", self.endpoint))
    }

    fn op(&self, line: &str) -> Result<Json, String> {
        let reply = self
            .connect()?
            .round_trip(line)
            .map_err(|e| format!("{line}: {e}"))?;
        Json::parse(&reply).map_err(|e| format!("{line}: bad reply: {e}"))
    }

    fn peak_rss_kb(&self) -> u64 {
        peak_rss_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to shut down and waits for it; kills it if it
    /// has not exited after ten seconds.
    fn stop(mut self) -> Result<(), String> {
        let _ = self.op(r#"{"op": "shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("server did not exit after shutdown".to_owned());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Parses `store loaded in X ms` and `warmed in Y ms` from the serve
/// banner, in seconds (0 when absent).
fn banner_times(banner: &str) -> (f64, f64) {
    let after = |marker: &str| -> f64 {
        banner
            .split(marker)
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse::<f64>().ok())
            .map_or(0.0, |ms| ms / 1e3)
    };
    (after("store loaded in "), after("warmed in "))
}

/// VmHWM from a `/proc/<pid>/status` file, in KiB (0 if unreadable).
pub fn peak_rss_kb(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Drives one served workload: a spawn that carries the timed window,
/// with `SETUPS - 1` set-up-only spawns on a second socket between its
/// segments, then the untimed digest-prefix jobs, stats, and shutdown.
pub fn run_served(
    stream: &WireStream,
    pathcons: &Path,
    workdir: &Path,
    seconds: f64,
    digest_jobs: usize,
) -> Result<Run, String> {
    std::fs::create_dir_all(workdir)
        .map_err(|e| format!("cannot create {}: {e}", workdir.display()))?;
    let socket = workdir.join(format!("s{}.sock", std::process::id()));
    let probe_socket = workdir.join(format!("p{}.sock", std::process::id()));
    let snapshot: Option<PathBuf> = match &stream.contexts {
        None => None,
        Some(jsonl) => {
            let store = ConstraintStore::from_jsonl(jsonl)?;
            let path = workdir.join(format!("ctx{}.pcstore", std::process::id()));
            std::fs::write(&path, store.to_bytes())
                .map_err(|e| format!("cannot write snapshot: {e}"))?;
            Some(path)
        }
    };
    let result = drive_served(
        stream,
        pathcons,
        [&socket, &probe_socket],
        snapshot.as_deref(),
        seconds,
        digest_jobs,
    );
    if let Some(path) = &snapshot {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&probe_socket);
    result
}

fn drive_served(
    stream: &WireStream,
    pathcons: &Path,
    [socket, probe_socket]: [&Path; 2],
    snapshot: Option<&Path>,
    seconds: f64,
    digest_jobs: usize,
) -> Result<Run, String> {
    let mut run = Run::default();
    let (server, setup, load, warm) =
        ServeProcess::start(pathcons, socket, snapshot, &stream.warmup)?;
    run.setups_s.push(setup);
    run.load_s.push(load);
    run.warm_s.push(warm);
    let set_up_between = || -> Result<(), String> {
        let (probe, setup, load, warm) =
            ServeProcess::start(pathcons, probe_socket, snapshot, &stream.warmup)?;
        probe.stop()?;
        run.setups_s.push(setup);
        run.load_s.push(load);
        run.warm_s.push(warm);
        Ok(())
    };

    let lines: Vec<&str> = stream.jobs.iter().map(|j| j.line.as_str()).collect();
    let clients = (0..CALLERS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let limit = if stream.cycles {
        usize::MAX
    } else {
        lines.len()
    };
    let window = closed_loop(clients, seconds, limit, set_up_between, |client, i| {
        client
            .round_trip(lines[i % lines.len()])
            .map_err(|e| format!("job {i}: {e}"))
    })?;
    let drawn = window.samples.len();
    run.samples = window.samples;
    run.window_s = window.window_s;
    run.cpu = window.cpu;

    let stats = server.op(r#"{"op": "stats"}"#)?;
    let metrics = server.op(r#"{"op": "metrics"}"#)?;
    let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    run.cache_hits = num(&stats, "cache_hits");
    run.cache_misses = num(&stats, "cache_misses");
    // Every miss inserts (no deadlines, no shedding), so evictions are
    // the misses that are no longer resident.
    let entries = metrics
        .get("families")
        .and_then(|f| f.get("pathcons_cache_entries"))
        .and_then(|f| f.get("samples"))
        .and_then(|s| match s {
            Json::Arr(items) => items
                .first()
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            _ => None,
        })
        .unwrap_or(0.0) as u64;
    run.cache_evictions = run.cache_misses.saturating_sub(entries);
    if let Some(Json::Arr(contexts)) = stats.get("contexts_detail") {
        for ctx in contexts {
            run.amortize_word_hits += num(ctx, "word_hits");
            run.amortize_word_misses += num(ctx, "word_misses");
            run.amortize_chase_reuses += num(ctx, "chase_reuses");
        }
    }
    run.peak_rss_kb = server.peak_rss_kb();

    if drawn < digest_jobs {
        let mut client = server.connect()?;
        for i in drawn..digest_jobs {
            let reply = client
                .round_trip(lines[i % lines.len()])
                .map_err(|e| format!("job {i}: {e}"))?;
            run.extra.push((i, reply));
        }
    }
    server.stop()?;
    Ok(run)
}

/// A `/proc/stat` reading taken during the timed window.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSample {
    /// Nanoseconds after the window opened.
    pub t_ns: u64,
    /// All CPU ticks so far.
    pub total: u64,
    /// Ticks the hypervisor stole so far.
    pub steal: u64,
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_share(from: &CpuSample, to: &CpuSample) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        0.0
    } else {
        to.steal.saturating_sub(from.steal) as f64 / total as f64
    }
}

/// What a timed window produced.
pub struct Window {
    /// Answered jobs in draw order; draws `0..samples.len()` are all
    /// answered.
    pub samples: Vec<Sample>,
    /// Length of the window in seconds.
    pub window_s: f64,
    /// `/proc/stat` readings every 50 ms across the window.
    pub cpu: Vec<CpuSample>,
}

/// Runs one closed-loop caller per element of `callers` for `seconds` in `SETUPS` equal
/// segments, calling `between` after each segment but the last while the
/// callers idle. Every caller draws the next index from one shared
/// sequence (at most `limit` draws when the stream must not wrap;
/// `usize::MAX` cycles), while a sampler records how much CPU time the
/// hypervisor steals. Sample and reading times are on the window's own
/// clock, which stops during the pauses.
pub fn closed_loop<C: Send>(
    mut callers: Vec<C>,
    seconds: f64,
    limit: usize,
    mut between: impl FnMut() -> Result<(), String>,
    call: impl Fn(&mut C, usize) -> Result<String, String> + Sync,
) -> Result<Window, String> {
    let next = AtomicUsize::new(0);
    let mut window = Window {
        samples: Vec::new(),
        window_s: 0.0,
        cpu: Vec::new(),
    };
    for segment in 0..SETUPS {
        if segment > 0 {
            between()?;
        }
        let offset_ns = (window.window_s * 1e9) as u64;
        let part = run_segment(
            &mut callers,
            seconds / SETUPS as f64,
            limit,
            &next,
            offset_ns,
            &call,
        )?;
        window.window_s += part.window_s;
        window.samples.extend(part.samples);
        window.cpu.extend(part.cpu);
    }
    window.samples.sort_by_key(|s| s.index);
    Ok(window)
}

/// Runs the callers for `seconds`, one segment of [`closed_loop`] or
/// `typed_m`'s whole window, with times offset by `offset_ns`.
fn run_segment<C: Send>(
    callers: &mut [C],
    seconds: f64,
    limit: usize,
    next: &AtomicUsize,
    offset_ns: u64,
    call: &(impl Fn(&mut C, usize) -> Result<String, String> + Sync),
) -> Result<Window, String> {
    let collected: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let error: Mutex<Option<String>> = Mutex::new(None);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (window_s, cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut readings = Vec::new();
            loop {
                let (total, steal) = cpu_ticks();
                let t_ns = offset_ns + start.elapsed().as_nanos() as u64;
                readings.push(CpuSample { t_ns, total, steal });
                if done.load(Ordering::SeqCst) {
                    return readings;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let workers: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                let (collected, error) = (&collected, &error);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= limit {
                            break;
                        }
                        let sent = Instant::now();
                        match call(caller, index) {
                            Ok(reply) => mine.push(Sample {
                                index,
                                sent_ns: offset_ns + (sent - start).as_nanos() as u64,
                                rtt_ns: sent.elapsed().as_nanos() as u64,
                                reply,
                            }),
                            Err(e) => {
                                *error.lock().expect("error slot") = Some(e);
                                break;
                            }
                        }
                    }
                    collected.lock().expect("sample sink").extend(mine);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("caller thread");
        }
        let window_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        (window_s, sampler.join().expect("cpu sampler thread"))
    });
    if let Some(e) = error.into_inner().expect("error slot") {
        return Err(e);
    }
    Ok(Window {
        samples: collected.into_inner().expect("sample sink"),
        window_s,
        cpu,
    })
}

/// `(total, steal)` ticks of the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// The typed program state built at set-up: the engine and one solver
/// context per schema (type graph included).
pub struct TypedSetup {
    /// The engine, default configuration.
    pub engine: BatchEngine,
    /// One context per instance of the stream.
    pub contexts: Vec<DataContext>,
}

/// Builds the engine and the schema contexts, then answers one warm-up
/// query per schema (`φ ∈ Σ`): what a typed service pays before its
/// first timed query.
pub fn typed_setup(stream: &TypedStream) -> TypedSetup {
    let engine = BatchEngine::new(EngineConfig::default());
    let contexts: Vec<DataContext> = stream
        .instances
        .iter()
        .map(|inst| {
            let mut labels = inst.labels.clone();
            let type_graph = TypeGraph::build(&inst.schema, &mut labels);
            DataContext::M(SchemaContext::new(inst.schema.clone(), type_graph))
        })
        .collect();
    for (inst, context) in stream.instances.iter().zip(&contexts) {
        let warmup = PreparedJob {
            context: context.clone(),
            sigma: inst.sigma.clone(),
            phi: inst.sigma[0].clone(),
            shared: None,
            revision: 0,
        };
        let result = engine.solve_prepared("warmup".to_owned(), &warmup, None, Instant::now());
        assert_eq!(
            result.verdict.as_str(),
            "implied",
            "a member of Σ is implied"
        );
    }
    TypedSetup { engine, contexts }
}

/// The prepared job for query `index` of the typed stream.
pub fn typed_job(stream: &TypedStream, setup: &TypedSetup, index: usize) -> PreparedJob {
    let q = &stream.queries[index];
    PreparedJob {
        context: setup.contexts[q.instance].clone(),
        sigma: stream.instances[q.instance].sigma.clone(),
        phi: q.phi.clone(),
        shared: None,
        revision: 0,
    }
}

/// Drives `typed_m` in-process: `SETUPS` set-ups (median reported; the
/// last one's engine carries the window), two callers on
/// `solve_prepared` for `seconds`, then the untimed digest-prefix jobs.
/// The 30000-query stream wraps (see [`crate::gen::wraps_as_misses`]),
/// so every job is a miss.
///
/// `peak_rss_mb` is read once the window has drawn `RSS_AT_DRAW` jobs:
/// the engine's memory keeps growing with every answered job even with
/// its cache full, so a reading at the window's end would follow the
/// machine's speed and the callers' interleaving.
pub fn run_typed(stream: &TypedStream, seconds: f64, digest_jobs: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let mut setup = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = typed_setup(stream);
        run.setups_s.push(started.elapsed().as_secs_f64());
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up");
    let len = stream.queries.len();
    let peak_at_draw = AtomicU64::new(0);
    let solve = |index: usize| -> String {
        let prepared = typed_job(stream, &setup, index % len);
        let id = stream.queries[index % len].id.clone();
        let result = setup
            .engine
            .solve_prepared(id, &prepared, None, Instant::now());
        if index + 1 == RSS_AT_DRAW {
            peak_at_draw.store(peak_rss_kb("/proc/self/status"), Ordering::SeqCst);
        }
        result.to_json().to_string()
    };
    let limit = if crate::gen::wraps_as_misses(len) {
        usize::MAX
    } else {
        len
    };
    // One unbroken segment: a fresh caller thread per segment could land
    // on another malloc arena and move the resident set.
    let mut window = run_segment(
        &mut [(); CALLERS],
        seconds,
        limit,
        &AtomicUsize::new(0),
        0,
        &|_: &mut (), i| Ok(solve(i)),
    )?;
    window.samples.sort_by_key(|s| s.index);
    let drawn = window.samples.len();
    run.samples = window.samples;
    run.window_s = window.window_s;
    run.cpu = window.cpu;
    let stats = setup.engine.cache_stats();
    run.cache_hits = stats.hits;
    run.cache_misses = stats.misses;
    run.cache_evictions = stats.evictions;
    run.peak_rss_kb = match peak_at_draw.load(Ordering::SeqCst) {
        0 => peak_rss_kb("/proc/self/status"),
        kb => kb,
    };
    for i in drawn..digest_jobs.min(len) {
        run.extra.push((i, solve(i)));
    }
    Ok(run)
}
