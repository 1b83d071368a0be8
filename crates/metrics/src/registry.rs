//! The metric registry and its exposition formats.
//!
//! A [`MetricsRegistry`] hands out shared handles ([`Counter`],
//! [`Histogram`], [`WindowedRate`]) keyed by a family name plus a label
//! set. Hot paths resolve their handles once and record through the
//! `Arc` directly — recording never touches the registry lock.
//!
//! [`MetricsRegistry::snapshot`] produces a [`MetricsSnapshot`]: a
//! deterministic, ordered copy of every sample. Callers may add
//! scrape-time values (gauges computed from other subsystems) with
//! [`MetricsSnapshot::set`] before rendering. Rendering is available as
//! Prometheus text format (version 0.0.4: `# HELP` / `# TYPE` comment
//! lines, one sample per line, histograms as cumulative `_bucket{le=…}`
//! series); the same snapshot backs structured-JSON exposition, which
//! the serve layer assembles with its own JSON type.
//!
//! Everything in a snapshot is a pure function of the recorded counts —
//! no timestamps, no scrape-clock reads — so two snapshots taken with
//! no traffic in between render to byte-identical text.

use crate::hist::{bucket_upper, Histogram, HistogramSnapshot};
use crate::rate::WindowedRate;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A label set, sorted lexicographically by construction so identical
/// sets written in any order resolve to the same metric.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    let mut labels: Labels = pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    labels.sort();
    labels
}

/// A monotonic counter handle.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `delta`, returning the value before the add — the ordinal
    /// of the event just counted.
    #[inline]
    pub fn add(&self, delta: u64) -> u64 {
        self.0.fetch_add(delta, Ordering::Relaxed)
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a metric family is, for the `# TYPE` exposition line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A log2 latency distribution.
    Histogram,
}

impl MetricKind {
    /// The kind's `# TYPE` exposition name.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Default)]
struct Inner {
    families: BTreeMap<String, (MetricKind, String)>,
    counters: BTreeMap<(String, Labels), Arc<Counter>>,
    hists: BTreeMap<(String, Labels), Arc<Histogram>>,
    rates: BTreeMap<(String, Labels), Arc<WindowedRate>>,
}

/// A registry of named metric families. Handle resolution takes a
/// read-mostly lock; recording through a resolved handle is lock-free
/// (counters, histograms) or a short mutex (rates).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn inner_read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn inner_write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter for `family` + `labels`, creating it (and
    /// registering the family's help text) on first use. Family names
    /// must already be valid Prometheus metric names.
    pub fn counter(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = (family.to_owned(), labels_of(labels));
        if let Some(c) = self.inner_read().counters.get(&key) {
            return Arc::clone(c);
        }
        let mut inner = self.inner_write();
        inner
            .families
            .entry(key.0.clone())
            .or_insert((MetricKind::Counter, help.to_owned()));
        Arc::clone(inner.counters.entry(key).or_default())
    }

    /// The histogram for `family` + `labels`, creating it on first use.
    pub fn histogram(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = (family.to_owned(), labels_of(labels));
        if let Some(h) = self.inner_read().hists.get(&key) {
            return Arc::clone(h);
        }
        let mut inner = self.inner_write();
        inner
            .families
            .entry(key.0.clone())
            .or_insert((MetricKind::Histogram, help.to_owned()));
        Arc::clone(inner.hists.entry(key).or_default())
    }

    /// The windowed-rate gauge for `family` + `labels`, creating it on
    /// first use.
    pub fn rate(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Arc<WindowedRate> {
        let key = (family.to_owned(), labels_of(labels));
        if let Some(r) = self.inner_read().rates.get(&key) {
            return Arc::clone(r);
        }
        let mut inner = self.inner_write();
        inner
            .families
            .entry(key.0.clone())
            .or_insert((MetricKind::Gauge, help.to_owned()));
        Arc::clone(inner.rates.entry(key).or_default())
    }

    /// A deterministic, ordered copy of every registered sample.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner_read();
        let mut snap = MetricsSnapshot::default();
        for ((family, labels), counter) in &inner.counters {
            let (kind, help) = &inner.families[family];
            snap.set(
                family,
                *kind,
                help,
                labels.clone(),
                SampleValue::Counter(counter.get()),
            );
        }
        for ((family, labels), hist) in &inner.hists {
            let (kind, help) = &inner.families[family];
            snap.set(
                family,
                *kind,
                help,
                labels.clone(),
                SampleValue::Histogram(Box::new(hist.snapshot())),
            );
        }
        for ((family, labels), rate) in &inner.rates {
            let (kind, help) = &inner.families[family];
            snap.set(
                family,
                *kind,
                help,
                labels.clone(),
                SampleValue::Gauge(rate.per_sec()),
            );
        }
        snap
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner_read();
        f.debug_struct("MetricsRegistry")
            .field("families", &inner.families.len())
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.hists.len())
            .field("rates", &inner.rates.len())
            .finish()
    }
}

/// One sample's value inside a snapshot.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// A monotonic count.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A full histogram (boxed: a snapshot carries 65 buckets, far
    /// larger than the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One family's samples inside a snapshot.
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    /// The family's kind (`# TYPE` line).
    pub kind: MetricKind,
    /// The family's help text (`# HELP` line).
    pub help: String,
    /// Samples by label set, in label order.
    pub samples: BTreeMap<Labels, SampleValue>,
}

/// An ordered point-in-time view of a registry, plus any scrape-time
/// values the caller adds before rendering.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    families: BTreeMap<String, FamilySnapshot>,
}

impl MetricsSnapshot {
    /// Adds (or overwrites) one sample. `kind`/`help` register the
    /// family on first touch; later calls for the same family keep the
    /// original metadata.
    pub fn set(
        &mut self,
        family: &str,
        kind: MetricKind,
        help: &str,
        labels: Labels,
        value: SampleValue,
    ) {
        self.families
            .entry(family.to_owned())
            .or_insert_with(|| FamilySnapshot {
                kind,
                help: help.to_owned(),
                samples: BTreeMap::new(),
            })
            .samples
            .insert(labels, value);
    }

    /// Iterates families in name order.
    pub fn families(&self) -> impl Iterator<Item = (&str, &FamilySnapshot)> {
        self.families.iter().map(|(name, fam)| (name.as_str(), fam))
    }

    /// One family's snapshot, if present.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.get(name)
    }

    /// The value of the counter sample `family` + `labels`; 0 when the
    /// sample was never registered (a lazily registered event that has
    /// not happened yet).
    pub fn counter(&self, family: &str, labels: &[(&str, &str)]) -> u64 {
        match self
            .families
            .get(family)
            .and_then(|f| f.samples.get(&labels_of(labels)))
        {
            Some(SampleValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// Renders Prometheus text exposition format (0.0.4). Deterministic:
    /// families and label sets are ordered, values are pure counts —
    /// two renders with no recording in between are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, value) in &family.samples {
                match value {
                    SampleValue::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, &[]));
                    }
                    SampleValue::Gauge(v) => {
                        let _ =
                            writeln!(out, "{name}{} {}", render_labels(labels, &[]), fmt_f64(*v));
                    }
                    SampleValue::Histogram(hist) => {
                        render_histogram(&mut out, name, labels, hist);
                    }
                }
            }
        }
        out
    }
}

/// Cumulative `_bucket` series: one line per log2 bucket up to the
/// highest non-empty one, then the mandatory `+Inf` bucket, `_sum`, and
/// `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &Labels, hist: &HistogramSnapshot) {
    let highest = hist
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (index, &n) in hist.buckets.iter().enumerate().take(highest) {
        cumulative += n;
        let le = bucket_upper(index).to_string();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            render_labels(labels, &[("le", &le)])
        );
    }
    let count = hist.count();
    let _ = writeln!(
        out,
        "{name}_bucket{} {count}",
        render_labels(labels, &[("le", "+Inf")])
    );
    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels, &[]), hist.sum);
    let _ = writeln!(out, "{name}_count{} {count}", render_labels(labels, &[]));
}

/// `{k="v",…}` with extra pairs appended (for `le`), or the empty
/// string when there are no labels at all.
fn render_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Deterministic float rendering: integral values print as integers,
/// the rest with six decimals. Never locale- or time-dependent.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_label_order_is_canonical() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m_total", "help", &[("x", "1"), ("y", "2")]);
        let b = reg.counter("m_total", "help", &[("y", "2"), ("x", "1")]);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
    }

    #[test]
    fn prometheus_rendering_is_ordered_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", "bees", &[]).add(2);
        reg.counter("a_total", "ays", &[("op", "job")]).add(1);
        reg.histogram("lat_micros", "latency", &[("op", "job")])
            .record(5);
        let text = reg.snapshot().render_prometheus();
        let a = text.find("# TYPE a_total counter").expect("a typed");
        let b = text.find("# TYPE b_total counter").expect("b typed");
        assert!(a < b, "families render in name order:\n{text}");
        assert!(text.contains("a_total{op=\"job\"} 1"));
        assert!(text.contains("lat_micros_bucket{op=\"job\",le=\"7\"} 1"));
        assert!(text.contains("lat_micros_bucket{op=\"job\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_micros_sum{op=\"job\"} 5"));
        assert!(text.contains("lat_micros_count{op=\"job\"} 1"));
    }

    #[test]
    fn snapshot_counter_reads_registered_and_missing_samples() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ev_total", "events", &[("event", "a"), ("z", "1")]);
        assert_eq!(c.add(2), 0);
        assert_eq!(c.add(1), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ev_total", &[("z", "1"), ("event", "a")]), 3);
        assert_eq!(snap.counter("ev_total", &[("event", "b")]), 0);
        assert_eq!(snap.counter("absent_total", &[]), 0);
    }

    #[test]
    fn two_idle_snapshots_render_identically() {
        let reg = MetricsRegistry::new();
        reg.counter("jobs_total", "jobs", &[]).add(17);
        reg.histogram("lat", "latency", &[]).record(123);
        reg.rate("rate_per_sec", "rate", &[]).record(9);
        let first = reg.snapshot().render_prometheus();
        let second = reg.snapshot().render_prometheus();
        assert_eq!(first, second);
    }

    #[test]
    fn scrape_time_values_merge_into_the_render() {
        let mut snap = MetricsRegistry::new().snapshot();
        snap.set(
            "up",
            MetricKind::Gauge,
            "server liveness",
            Vec::new(),
            SampleValue::Gauge(1.0),
        );
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE up gauge"));
        assert!(text.contains("up 1"));
    }
}
