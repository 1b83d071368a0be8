//! Metric values, quantiles, and the printed report.

use std::collections::BTreeMap;

/// One named metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `us`, `count`, `ratio`, `MiB`).
    pub unit: &'static str,
}

/// Named metrics in insertion-independent (sorted) order.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts `name = value unit`.
pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_owned(), Metric { value, unit });
}

/// The `q`-quantile (nearest rank) of unsorted values; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Adds `<name>.count`, `<name>.total` and `<name>.p50` for one span.
pub fn put_span(metrics: &mut Metrics, name: &str, micros: &[f64]) {
    put(
        metrics,
        &format!("{name}.count"),
        micros.len() as f64,
        "count",
    );
    put(
        metrics,
        &format!("{name}.total"),
        micros.iter().fold(0.0, |a, b| a + b),
        "us",
    );
    put(metrics, &format!("{name}.p50"), median(micros), "us");
}

/// A JSON number with every digit Rust keeps (non-finite values, which
/// JSON cannot carry, print as 0).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        let text = format!("{x}");
        if text.contains('.') || text.contains('e') {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "0.0".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{}"}}"#,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// Prints metrics as an aligned `name value unit` table.
pub fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, m) in metrics {
        println!("  {name:<36} {:>14.4} {}", m.value, m.unit);
    }
}
