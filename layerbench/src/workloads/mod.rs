//! The three workloads and what they share: the kernel-internal cost
//! estimates of a traced run and the trace overhead.

mod query_mix;
mod serve_zipf;
mod update_stream;

use crate::inputs::{MIX_BROAD, MIX_MEDIUM, MIX_NARROW};
use crate::trace::{LayerTable, Tracer};
use crate::util::{median, us};
use crate::{Report, Run};
use icde_core::seed::extract_seed_community;
use icde_core::{PruningStats, TopLQuery};
use icde_graph::traversal::hop_subgraph;
use icde_graph::{SocialNetwork, VertexId};
use icde_influence::{InfluenceConfig, InfluenceEvaluator};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const WORKLOADS: &[&str] = &["query-mix", "serve-zipf", "update-stream"];

/// Runs one workload. A traced run measures the timed phase twice, first
/// untraced and then traced, and reports the difference as the tracing
/// overhead; its per-layer figures come from the traced phase.
pub fn run(run: &Run) -> Report {
    let mut report = Report::new();
    let mut tracer = Tracer::new(false);
    match run.workload.as_str() {
        "query-mix" => query_mix::run(run, &mut tracer, &mut report),
        "serve-zipf" => serve_zipf::run(run, &mut tracer, &mut report),
        "update-stream" => update_stream::run(run, &mut tracer, &mut report),
        other => unreachable!("workload {other} was validated at parse time"),
    }
    if run.trace {
        let path = run
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    report
}

/// Wall time and op count of one timed phase.
#[derive(Clone, Copy)]
pub struct Phase {
    pub wall: Duration,
    pub ops: usize,
}

/// Reports the tracing overhead (per-op time of the traced phase over the
/// untraced one) and the share of the traced wall no layer row covers.
pub fn report_trace(report: &mut Report, table: &LayerTable, untraced: Phase, traced: Phase) {
    let per_op = |p: Phase| p.wall.as_secs_f64() / p.ops.max(1) as f64;
    report.layer(
        "trace.overhead_pct",
        100.0 * (per_op(traced) / per_op(untraced) - 1.0),
        "%",
    );
    report.layer(
        "trace.unattributed_pct",
        100.0 * table.unattributed_ms() / table.wall_ms,
        "%",
    );
    table.print();
    println!(
        "trace overhead: untraced {:.3} ms/op over {} ops, traced {:.3} ms/op over {} ops",
        per_op(untraced) * 1e3,
        untraced.ops,
        per_op(traced) * 1e3,
        traced.ops
    );
}

/// Centres the kernel refined, with the query they were refined for:
/// where the traced run replays the kernel's internal calls.
pub type Replay = Vec<(TopLQuery, VertexId)>;

/// Replays taken per traced run.
const REPLAYS: usize = 64;

/// Per-call costs in µs, replayed from outside the kernel.
struct CallCosts {
    /// Seed extraction that finds a community (at returned centres).
    extract_found: f64,
    /// Seed extraction that finds none (at spread vertices where it fails).
    extract_none: f64,
    /// Influence expansion of a returned community.
    expand: f64,
    /// r-hop traversal around a returned centre.
    hop: f64,
}

/// Replays the kernel's internal calls at the given centres, and seed
/// extraction also at vertices spread over the graph, where it mostly finds
/// no community as most of the kernel's candidates do.
fn replay_costs(g: &SocialNetwork, samples: &Replay) -> CallCosts {
    let (mut found, mut none, mut expand, mut hop) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let stride = (samples.len() / REPLAYS).max(1);
    let n = g.num_vertices();
    for (i, (q, center)) in samples.iter().step_by(stride).take(REPLAYS).enumerate() {
        let t = Instant::now();
        let members = extract_seed_community(g, *center, q.support, q.radius, &q.keywords);
        found.push(us(t.elapsed()));
        for k in 0..4 {
            let v = VertexId::from_index((i * 4 + k) * 7_919 % n);
            let t = Instant::now();
            let outcome = extract_seed_community(g, v, q.support, q.radius, &q.keywords);
            if outcome.is_none() {
                none.push(us(t.elapsed()));
            }
        }
        let Some(members) = members else { continue };
        let evaluator = InfluenceEvaluator::new(g, InfluenceConfig { theta: q.theta });
        let t = Instant::now();
        black_box(evaluator.influenced_community(&members));
        expand.push(us(t.elapsed()));
        let t = Instant::now();
        black_box(hop_subgraph(g, *center, q.radius));
        hop.push(us(t.elapsed()));
    }
    CallCosts {
        extract_found: median(&found),
        extract_none: median(&none),
        expand: median(&expand),
        hop: median(&hop),
    }
}

/// Kernel counters and kernel time of a set of Top-L runs, split into the
/// estimated seed-extraction and influence-expansion time and the rest
/// (bound scan, heap, answer cache): reported as per-layer metrics and as
/// rows of `table`.
pub fn kernel_layers(
    report: &mut Report,
    table: &mut LayerTable,
    g: &SocialNetwork,
    replay: &Replay,
    runs: &[PruningStats],
    communities_returned: usize,
    kernel_ms: f64,
) {
    let costs = replay_costs(g, replay);
    let n = runs.len().max(1) as f64;
    let sum = |f: fn(&PruningStats) -> usize| runs.iter().map(f).sum::<usize>() as f64;
    let refined = sum(|s| s.candidates_refined);
    let without = sum(|s| s.candidates_without_community);
    let extractions = refined + without;
    let verifications = sum(|s| s.exact_verifications);
    let drained = runs
        .iter()
        .filter(|s| s.early_termination_pops == 0)
        .count() as f64;
    let seed_ms = (refined * costs.extract_found + without * costs.extract_none) / 1e3;
    let extract_us = 1e3 * seed_ms / extractions.max(1.0);
    let (expand_us, hop_us) = (costs.expand, costs.hop);
    let influence_ms = verifications * expand_us / 1e3;
    let self_ms = kernel_ms - seed_ms - influence_ms;
    report.layer("topl.heap_pops", sum(|s| s.heap_pops) / n, "count");
    report.layer("topl.exact_verifications", verifications / n, "count");
    report.layer("topl.candidates_refined", refined / n, "count");
    report.layer("topl.candidates_without_community", without / n, "count");
    // per query-mix round's worth of kernel runs
    let round = (MIX_BROAD + MIX_MEDIUM + MIX_NARROW) as f64;
    report.layer("topl.drained_queries", round * drained / n, "count");
    report.layer(
        "topl.refine_yield",
        communities_returned as f64 / verifications.max(1.0),
        "ratio",
    );
    report.layer("topl.self_ms", self_ms / n, "ms");
    report.layer("seed.extract_us", extract_us, "us");
    report.layer("influence.expand_us", expand_us, "us");
    report.layer("graph.hop_us", hop_us, "us");
    table.estimate("seed (extraction)", seed_ms);
    table.estimate("influence (expansion)", influence_ms);
    table.estimate("topl (kernel self)", self_ms);
    println!(
        "kernel estimate: {refined} extractions finding a community x {:.2} us, {without} finding \
         none x {:.2} us, {verifications} expansions x {expand_us:.2} us, over {kernel_ms:.3} ms of \
         kernel time; an r-hop traversal inside an extraction costs {hop_us:.2} us",
        costs.extract_found, costs.extract_none
    );
}
