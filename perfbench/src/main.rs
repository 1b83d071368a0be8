//! Command-line entry point; see `perfbench/WORKLOADS.md`.
//!
//! ```text
//! pathcons-perfbench --pathcons PATH --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a report per workload and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! With `--workload all` the metric names carry a `<workload>.` prefix.

use pathcons_perfbench::bench::{self, Options};
use pathcons_perfbench::gen::Size;
use pathcons_perfbench::report::{result_line, Metrics};
use pathcons_perfbench::Workload;
use std::path::PathBuf;

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    pathcons: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values = std::collections::HashMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option, found `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
        values.insert(name.to_owned(), value.clone());
    }
    let get = |k: &str| {
        values
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = get("workload")?;
    let (workloads, all) = if workload == "all" {
        (Workload::ALL.to_vec(), true)
    } else {
        let w =
            Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
        (vec![w], false)
    };
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_owned());
    }
    Ok(Args {
        workloads,
        all,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        pathcons: PathBuf::from(get("pathcons")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pathcons-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workdir = PathBuf::from(".bench_build").join("perfbench");
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        pathcons: &args.pathcons,
        workdir: &workdir,
        size: Size::Full,
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Metrics::new();
    for workload in &args.workloads {
        let outcome = match bench::run(*workload, &opts) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("pathcons-perfbench: {}: {e}", workload.name());
                std::process::exit(1);
            }
        };
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        let chosen = if args.trace {
            outcome.per_layer
        } else {
            outcome.end_to_end
        };
        for (name, metric) in chosen {
            let name = if args.all {
                format!("{}.{name}", workload.name())
            } else {
                name
            };
            metrics.insert(name, metric);
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
}
