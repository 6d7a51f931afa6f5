//! Layered benchmark of the TopL-ICDE pipeline.
//!
//! ```text
//! layerbench --workload <query-mix|serve-zipf|update-stream> --seed <n> --seconds <s> --trace <0|1>
//! layerbench compare <results-dir-a> <results-dir-b> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from the seed, builds the index, runs the
//! workload's timed phase, checks every output, and prints the machine
//! record, the op counts, every metric with its unit and, as the last line,
//! one JSON object. See README.md for the workloads and metrics.

mod check;
mod compare;
mod inputs;
mod setup;
mod trace;
mod util;
mod workloads;

use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Per-layer metrics every traced run prints, with their units. A layer a
/// workload does not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("precompute.build_s", "s"),
    ("precompute.support_s", "s"),
    ("precompute.table_s", "s"),
    ("precompute.seed_s", "s"),
    ("index.build_s", "s"),
    ("graph.rss_mb", "MiB"),
    ("precompute.rss_mb", "MiB"),
    ("index.rss_mb", "MiB"),
    ("index.snapshot_mb", "MiB"),
    ("serving.rss_mb", "MiB"),
    ("streaming.rss_mb", "MiB"),
    ("topl.heap_pops", "count"),
    ("topl.exact_verifications", "count"),
    ("topl.candidates_refined", "count"),
    ("topl.candidates_without_community", "count"),
    ("topl.drained_queries", "count"),
    ("topl.refine_yield", "ratio"),
    ("topl.self_ms", "ms"),
    ("seed.extract_us", "us"),
    ("influence.expand_us", "us"),
    ("graph.hop_us", "us"),
    ("dtopl.diversity_pruned", "count"),
    ("serving.hit_rate", "%"),
    ("serving.executed", "count"),
    ("serving.hit_us", "us"),
    ("serving.kernel_ms", "ms"),
    ("serving.handoff_us", "us"),
    ("serving.fresh_kernel_ms", "ms"),
    ("streaming.apply_ms", "ms"),
    ("streaming.publish_ms", "ms"),
    ("streaming.support_patch_ms", "ms"),
    ("streaming.ball_recompute_ms", "ms"),
    ("streaming.index_patch_ms", "ms"),
    ("streaming.vertices_per_update", "count"),
    ("streaming.ball_overlap_ratio", "ratio"),
    ("streaming.compactions", "count"),
    ("streaming.repacks", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// End-to-end metrics every untraced run prints.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("side_p50_ms", "ms"),
];

/// What one run measured and found.
pub struct Report {
    metrics: Vec<(String, f64)>,
    /// `(op type, attempted, failed)`.
    ops: Vec<(&'static str, u64, u64)>,
    /// Checks outside the timed ops (gates, end-of-stream state).
    correct: bool,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            ops: Vec::new(),
            correct: true,
        }
    }

    pub fn end_to_end(&mut self, name: &str, value: f64, unit: &str) {
        self.put(name, value, unit, END_TO_END);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.put(name, value, unit, PER_LAYER);
    }

    fn put(&mut self, name: &str, value: f64, unit: &str, table: &[(&str, &str)]) {
        assert!(
            table.contains(&(name, unit)),
            "metric {name} [{unit}] is not declared"
        );
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Counts one op type; prints each failure's reason to stderr.
    pub fn ops(&mut self, op: &'static str, attempted: u64, failures: &[String]) {
        for reason in failures.iter().take(5) {
            eprintln!("failed {op}: {reason}");
        }
        self.ops.push((op, attempted, failures.len() as u64));
    }

    /// A check outside the timed ops failed.
    pub fn wrong(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.correct = false;
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| if v.is_finite() { *v } else { 0.0 })
    }

    /// The result object: the run's declared metrics, with their units.
    fn result(&self, trace: bool) -> Value {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics = table
            .iter()
            .map(|(name, unit)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Float(self.value(name))),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::UInt(self.ops.iter().map(|o| o.1).sum()),
            ),
            (
                "failed".to_string(),
                Value::UInt(self.ops.iter().map(|o| o.2).sum()),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// Settings of one run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: layerbench --workload <query-mix|serve-zipf|update-stream> --seed <n> \
         --seconds <s> --trace <0|1>\n       layerbench compare <dir-a> <dir-b> [--benchmark <file>]"
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Option<Run> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().ok()?,
            "--seconds" => run.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    workloads::WORKLOADS
        .contains(&run.workload.as_str())
        .then_some(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let Some(run) = parse_run(&args) else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(run.out_dir.join("results")) {
        eprintln!("cannot create {}: {e}", run.out_dir.display());
        return ExitCode::from(1);
    }
    let machine = util::machine_record();
    println!("{machine}");
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    let report = workloads::run(&run);
    for (op, attempted, failed) in &report.ops {
        println!("ops: {op} attempted={attempted} failed={failed}");
    }
    let table = if run.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        println!("metric: {name} = {} {unit}", report.value(name));
    }
    let result = report.result(run.trace);
    let record = Value::Object(vec![
        ("workload".to_string(), Value::Str(run.workload.clone())),
        ("seed".to_string(), Value::UInt(run.seed)),
        ("seconds".to_string(), Value::Float(run.seconds)),
        ("trace".to_string(), Value::Bool(run.trace)),
        ("machine".to_string(), Value::Str(machine)),
        ("result".to_string(), result.clone()),
    ]);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let path = run.out_dir.join("results").join(format!(
        "{}-trace{}-seed{}-{stamp}.json",
        run.workload, run.trace as u8, run.seed
    ));
    let text = serde_json::to_string(&record).expect("record serialises");
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
    ExitCode::SUCCESS
}
