//! The live metrics plane behind `pathcons serve`.
//!
//! A [`MetricsPlane`] records the serve loop's counters and latency
//! histograms into the engine's [`MetricsRegistry`] — the one store the
//! engine's own counters live in — and joins it with the state that is
//! read, not recorded: the inflight gauge, the answer cache's live
//! length, and the per-context amortization state. It renders the
//! merged view two ways:
//!
//! - [`MetricsPlane::json`]: the `{"op": "metrics"}` response, a
//!   structured snapshot with quantile estimates for every histogram;
//! - [`MetricsPlane::prometheus_text`]: Prometheus text exposition
//!   (0.0.4) for the `--metrics-addr` HTTP listener.
//!
//! Both renderings are **deterministic**: families and label sets are
//! ordered, rate windows slide only on record, and nothing
//! time-dependent (uptime, timestamps) is included — so two scrapes of
//! an idle server are byte-identical.

use crate::store::ConstraintStore;
use pathcons_engine::{BatchEngine, CacheStats, Json};
use pathcons_metrics::{
    names, Counter, Histogram, MetricKind, MetricsRegistry, MetricsSnapshot, SampleValue,
    WindowedRate,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The serve-side metrics plane: the engine's registry plus
/// pre-resolved hot-path handles, and the exposition entry points.
pub struct MetricsPlane {
    registry: Arc<MetricsRegistry>,
    store: Arc<ConstraintStore>,
    engine: Arc<BatchEngine>,
    /// Connections accepted.
    pub(crate) connections: Arc<Counter>,
    /// Job lines answered (any verdict).
    pub(crate) jobs: Arc<Counter>,
    /// Malformed lines answered with error records.
    pub(crate) malformed: Arc<Counter>,
    /// Jobs shed by admission control.
    pub(crate) shed: Arc<Counter>,
    /// Control operations handled (ping/stats/check/shutdown/metrics).
    pub(crate) ops: Arc<Counter>,
    /// Jobs that crossed the slow-query threshold.
    pub(crate) slow: Arc<Counter>,
    /// Jobs currently being solved, across all connections — a level,
    /// not a count, so it is read at scrape time rather than recorded.
    pub(crate) inflight: AtomicU64,
    op_job: Arc<Histogram>,
    op_ping: Arc<Histogram>,
    op_stats: Arc<Histogram>,
    op_check: Arc<Histogram>,
    op_metrics: Arc<Histogram>,
    job_rate: Arc<WindowedRate>,
}

impl MetricsPlane {
    /// A plane over the engine's registry: the exposition carries the
    /// engine-side families (verdicts, cache lookups, solve latency)
    /// alongside the serve-side ones by construction.
    pub fn new(store: Arc<ConstraintStore>, engine: Arc<BatchEngine>) -> MetricsPlane {
        let registry = Arc::clone(engine.metrics());
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let op = |name: &str| {
            registry.histogram(
                names::OP_LATENCY_MICROS,
                names::OP_LATENCY_MICROS_HELP,
                &[("op", name)],
            )
        };
        MetricsPlane {
            connections: counter(names::CONNECTIONS_TOTAL, names::CONNECTIONS_TOTAL_HELP),
            jobs: counter(names::JOBS_TOTAL, names::JOBS_TOTAL_HELP),
            malformed: counter(names::MALFORMED_TOTAL, names::MALFORMED_TOTAL_HELP),
            shed: counter(names::SHED_TOTAL, names::SHED_TOTAL_HELP),
            ops: counter(names::OPS_TOTAL, names::OPS_TOTAL_HELP),
            slow: counter(names::SLOW_JOBS_TOTAL, names::SLOW_JOBS_TOTAL_HELP),
            inflight: AtomicU64::new(0),
            op_job: op("job"),
            op_ping: op("ping"),
            op_stats: op("stats"),
            op_check: op("check"),
            op_metrics: op("metrics"),
            job_rate: registry.rate(names::JOB_RATE_PER_SEC, names::JOB_RATE_PER_SEC_HELP, &[]),
            registry,
            store,
            engine,
        }
    }

    /// The underlying registry — the engine's own.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Jobs currently admitted and being solved.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Records one answered job: latency into the per-op histogram and
    /// one event into the throughput window.
    pub(crate) fn record_job(&self, micros: u64) {
        self.op_job.record(micros);
        self.job_rate.record(1);
    }

    /// Records one control op's service latency.
    pub(crate) fn record_op(&self, op: &str, micros: u64) {
        match op {
            "ping" => self.op_ping.record(micros),
            "stats" => self.op_stats.record(micros),
            "check" => self.op_check.record(micros),
            "metrics" => self.op_metrics.record(micros),
            other => self
                .registry
                .histogram(
                    names::OP_LATENCY_MICROS,
                    names::OP_LATENCY_MICROS_HELP,
                    &[("op", other)],
                )
                .record(micros),
        }
    }

    /// Counts a verdict the serve loop produced *without* entering the
    /// engine (shed answers, store-lookup errors) so
    /// `pathcons_verdicts_total` covers every job line answered, not
    /// just the solved ones.
    pub(crate) fn count_wire_verdict(&self, verdict: &str, unknown_kind: Option<&str>) {
        self.registry
            .counter(
                names::VERDICTS_TOTAL,
                names::VERDICTS_TOTAL_HELP,
                &[("verdict", verdict)],
            )
            .add(1);
        if let Some(kind) = unknown_kind {
            self.registry
                .counter(
                    names::UNKNOWN_TOTAL,
                    names::UNKNOWN_TOTAL_HELP,
                    &[("kind", kind)],
                )
                .add(1);
        }
    }

    /// A merged point-in-time snapshot: everything recorded into the
    /// registry, plus the scrape-time families read from the inflight
    /// gauge, the answer cache, and the store's per-context state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        use MetricKind::{Counter, Gauge};
        let mut snap = self.registry.snapshot();
        let c = SampleValue::Counter;
        let g = SampleValue::Gauge;
        snap.set(
            names::INFLIGHT,
            Gauge,
            names::INFLIGHT_HELP,
            vec![],
            g(self.inflight() as f64),
        );

        let cache = CacheStats::from_snapshot(&snap);
        let lookups = cache.hits + cache.misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        snap.set(
            names::CACHE_HIT_RATIO,
            Gauge,
            names::CACHE_HIT_RATIO_HELP,
            vec![],
            g(hit_ratio),
        );
        snap.set(
            names::CACHE_ENTRIES,
            Gauge,
            names::CACHE_ENTRIES_HELP,
            vec![],
            g(self.engine.cache_len() as f64),
        );
        snap.set(
            names::DEGRADED,
            Gauge,
            names::DEGRADED_HELP,
            vec![],
            g(if self.engine.is_degraded() { 1.0 } else { 0.0 }),
        );

        for ctx in self.store.context_stats() {
            let labels = || vec![("context".to_owned(), ctx.name.clone())];
            snap.set(
                names::CONTEXT_REVISION,
                Gauge,
                names::CONTEXT_REVISION_HELP,
                labels(),
                g(ctx.revision as f64),
            );
            snap.set(
                names::CONTEXT_JOBS_TOTAL,
                Counter,
                names::CONTEXT_JOBS_TOTAL_HELP,
                labels(),
                c(ctx.jobs),
            );
            snap.set(
                names::CONTEXT_WARM,
                Gauge,
                names::CONTEXT_WARM_HELP,
                labels(),
                g(if ctx.warm { 1.0 } else { 0.0 }),
            );
            snap.set(
                names::CONTEXT_CHASE_REUSES_TOTAL,
                Counter,
                names::CONTEXT_CHASE_REUSES_TOTAL_HELP,
                labels(),
                c(ctx.shared.chase_reuses),
            );
            snap.set(
                names::CONTEXT_WORD_HITS_TOTAL,
                Counter,
                names::CONTEXT_WORD_HITS_TOTAL_HELP,
                labels(),
                c(ctx.shared.word_hits),
            );
            snap.set(
                names::CONTEXT_WORD_MISSES_TOTAL,
                Counter,
                names::CONTEXT_WORD_MISSES_TOTAL_HELP,
                labels(),
                c(ctx.shared.word_misses),
            );
        }
        snap
    }

    /// Prometheus text exposition (0.0.4) of [`MetricsPlane::snapshot`].
    pub fn prometheus_text(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// The `{"op": "metrics"}` response body: the snapshot as structured
    /// JSON, with quantile estimates for every histogram.
    pub fn json(&self) -> Json {
        snapshot_to_json(&self.snapshot())
    }
}

/// Renders a snapshot as the `metrics` op's JSON shape: a `families`
/// object keyed by family name, each with `kind`, `help`, and a
/// `samples` array of `{labels, ...value}` objects.
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> Json {
    let mut families = Vec::new();
    for (name, family) in snap.families() {
        let samples = family
            .samples
            .iter()
            .map(|(labels, value)| {
                let label_obj = Json::Obj(
                    labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                );
                let mut members = vec![("labels".to_owned(), label_obj)];
                match value {
                    SampleValue::Counter(n) => {
                        members.push(("value".to_owned(), Json::Num(*n as f64)));
                    }
                    SampleValue::Gauge(v) => {
                        members.push(("value".to_owned(), Json::Num(*v)));
                    }
                    SampleValue::Histogram(h) => {
                        members.push(("count".to_owned(), Json::Num(h.count() as f64)));
                        members.push(("sum".to_owned(), Json::Num(h.sum as f64)));
                        members.push(("max".to_owned(), Json::Num(h.max as f64)));
                        members.push(("p50".to_owned(), Json::Num(h.p50() as f64)));
                        members.push(("p90".to_owned(), Json::Num(h.p90() as f64)));
                        members.push(("p99".to_owned(), Json::Num(h.p99() as f64)));
                    }
                }
                Json::Obj(members)
            })
            .collect();
        families.push((
            name.to_owned(),
            Json::Obj(vec![
                (
                    "kind".to_owned(),
                    Json::Str(family.kind.as_str().to_owned()),
                ),
                ("help".to_owned(), Json::Str(family.help.clone())),
                ("samples".to_owned(), Json::Arr(samples)),
            ]),
        ));
    }
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("op".to_owned(), Json::Str("metrics".to_owned())),
        ("families".to_owned(), Json::Obj(families)),
    ])
}
