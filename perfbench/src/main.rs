//! ZOOM's benchmark: four workloads over the in-process query, wire,
//! view-switch and ingest/recovery paths.
//!
//! ```text
//! zoom-perfbench --workload <query_hot|query_wire|view_switch|ingest_recover>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it records spans around each layer's public calls and
//! reports the per-layer metrics instead. Human-readable detail goes to
//! standard error; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any wrong answer makes
//! `correct` false and the exit code 1.

mod fs;
mod ingest;
mod queries;
mod stats;
mod trace;

use queries::Mode;
use std::path::PathBuf;

/// Generator seed of the `Scale::Paper` corpus every workload runs on.
/// The corpus is the benchmark's fixed dataset, so set-up time and memory
/// compare across runs; `--seed` drives everything the workloads generate
/// over it (hot-set data, query sequences, cold samples, ingest waves and
/// their interleavings).
pub const CORPUS_SEED: u64 = 1;

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit.to_string();
            }
            None => self.0.push((name.to_string(), value, unit.to_string())),
        }
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Adds every metric of `other` this set does not have yet.
    pub fn merge(&mut self, other: Metrics) {
        for (n, v, u) in other.0 {
            if self.get(&n).is_none() {
                self.0.push((n, v, u));
            }
        }
    }
}

/// Prints the metrics after the first `own`: those a traced run took from
/// short probes of layers its workload does not exercise. The result must
/// name every per-layer metric, so a traced run fills them in; they do not
/// explain the workload's own end-to-end figures.
pub fn print_probed(metrics: &Metrics, own: usize) {
    let names: Vec<&str> = metrics.0[own..].iter().map(|m| m.0.as_str()).collect();
    eprintln!(
        "  from probes outside this workload ({}): {}",
        names.len(),
        names.join(" ")
    );
}

/// Workload sizes, printed with the result.
pub struct Sizes(pub Vec<(&'static str, f64)>);

/// One run's outcome.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub sizes: Sizes,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

const WORKLOADS: [&str; 4] = ["query_hot", "query_wire", "view_switch", "ingest_recover"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zoom-perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (seed, secs) = (args.seed, args.seconds);
    let report = match (args.workload.as_str(), args.trace) {
        ("query_hot", false) => queries::run_inproc(Mode::Hot, seed, secs),
        ("view_switch", false) => queries::run_inproc(Mode::Switch, seed, secs),
        ("query_wire", false) => queries::run_wire(seed, secs),
        ("ingest_recover", false) => ingest::run(seed, secs),
        ("query_hot", true) => queries::run_inproc_traced(Mode::Hot, seed, secs),
        ("view_switch", true) => queries::run_inproc_traced(Mode::Switch, seed, secs),
        ("query_wire", true) => queries::run_wire_traced(seed, secs),
        (_, true) => ingest::run_traced(seed, secs),
        _ => unreachable!("workload validated by parse_args"),
    };
    if args.trace {
        let path = PathBuf::from(".bench_run").join(format!("spans-{}.tsv", args.workload));
        if let Err(e) = trace::write_spans(&path, &trace::spans()) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }

    for (name, v) in &report.sizes.0 {
        eprintln!("  size {name} = {v}");
    }
    eprintln!(
        "  error_frac = {} / {} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let metrics: Vec<String> = report
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
