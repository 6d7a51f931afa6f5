//! `update-stream`: a `StreamingMaintainer` applies a seeded stream of
//! valid edge updates in fixed-size batches and publishes each batch to a
//! one-worker runtime; one query then goes to the runtime and must miss on
//! the new epoch. The op is one batch (`apply_batch` + `publish_to`); the
//! side op is the first query after each publish.

use super::{kernel_layers, report_trace, Phase, Replay};
use crate::check::{centerless, check_edge_set, validate_answer, Mirror};
use crate::inputs::{
    distinct_broad_queries, UpdateStream, BROAD_GRID, COMPACT_THRESHOLD, REPACK_THRESHOLD,
};
use crate::setup::{build_pair, config, repeated, snapshot_mib};
use crate::trace::{LayerTable, Tracer};
use crate::util::{median, ms, peak_rss_mib, percentile};
use crate::{Report, Run};
use icde_core::{
    IndexBuilder, MaintainerStats, ServedAnswer, ServingConfig, ServingRuntime,
    StreamingMaintainer, TopLProcessor, TopLQuery,
};
use icde_graph::SocialNetwork;
use std::time::{Duration, Instant};

/// Distinct broad queries the side op cycles through: one per combination
/// of the broad grid.
const SIDE_POOL: usize = BROAD_GRID;
/// Batches applied before timing: enough for the hottest vertices to reach
/// their degree cap, so the timed phase sees a stream in steady state.
const WARM_BATCHES: usize = 200;
/// Every `DIRECT_EVERY`-th side answer is also compared with the direct
/// kernel answer on the maintained pair.
const DIRECT_EVERY: u64 = 8;
/// Batches (counted from the first warm-up batch) after which the
/// maintained edge set and its answers are compared with the mirror and a
/// from-scratch build over it.
const SAMPLED: [u64; 2] = [100, 400];
/// Side queries compared with the from-scratch build at a sampled batch.
const SAMPLED_QUERIES: usize = 4;
/// `op_tail_ms` percentile: a run applies more than 500 batches, so at
/// least 10 lie beyond it.
const TAIL: f64 = 0.98;

struct State {
    maintainer: StreamingMaintainer,
    runtime: ServingRuntime,
    mirror: Mirror,
    stream: UpdateStream,
    side_pool: Vec<TopLQuery>,
    /// The generated graph: the keyword source of from-scratch builds.
    generated: SocialNetwork,
    batches: u64,
}

/// What the timed phase saw, per batch.
#[derive(Default)]
struct Seen {
    op_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    side_ms: Vec<f64>,
    side: Vec<(usize, ServedAnswer)>,
    op_failures: Vec<String>,
    side_failures: Vec<String>,
}

pub fn run(run: &Run, tracer: &mut Tracer, report: &mut Report) {
    let mut snapshot_mb = 0.0;
    let mut generated = None;
    let (maintainer, runtime) = repeated(tracer, report, |tracer| {
        let (g, index, mut cost) = build_pair(tracer);
        snapshot_mb = snapshot_mib(&index, &run.out_dir);
        generated = Some(g.clone());
        let (runtime, rss) = cost.start(tracer, "serving.ServingRuntime::start", || {
            ServingRuntime::start(ServingConfig::with_workers(1), g.clone(), index.clone())
                .expect("runtime starts")
        });
        cost.serving_rss = rss;
        let (maintainer, rss) = cost.start(tracer, "streaming.StreamingMaintainer::new", || {
            StreamingMaintainer::new(g, index)
                .with_compact_threshold(COMPACT_THRESHOLD)
                .with_repack_threshold(REPACK_THRESHOLD)
        });
        cost.streaming_rss = rss;
        ((maintainer, runtime), cost)
    });
    report.layer("index.snapshot_mb", snapshot_mb, "MiB");
    let generated = generated.expect("set-up ran");
    let mirror = Mirror::from_graph(&generated);
    let mut state = State {
        stream: UpdateStream::new(run.seed, &mirror),
        mirror,
        maintainer,
        runtime,
        side_pool: distinct_broad_queries(run.seed, 5, SIDE_POOL),
        generated,
        batches: 0,
    };
    let mut seen = Seen::default();
    for _ in 0..WARM_BATCHES {
        batch(&mut state, &mut Tracer::new(false), &mut seen);
    }
    let mut seen = Seen {
        op_failures: seen.op_failures,
        side_failures: seen.side_failures,
        ..Seen::default()
    };

    let seconds = Duration::from_secs_f64(run.seconds);
    let before = state.maintainer.stats();
    let untraced = phase(&mut state, seconds, tracer, &mut seen);
    let peak = peak_rss_mib();
    if run.trace {
        let mut traced_seen = Seen::default();
        let before = state.maintainer.stats();
        tracer.set_recording(true);
        let traced = phase(&mut state, seconds, tracer, &mut traced_seen);
        tracer.set_recording(false);
        let delta = diff(state.maintainer.stats(), before);
        layer_metrics(report, &traced_seen, &delta);
        let mut table = LayerTable::new(ms(traced.wall));
        let apply = tracer.total_ms("streaming.StreamingMaintainer::apply_batch");
        let (support, ball, index) = (
            delta.support_patch_secs * 1e3,
            delta.ball_recompute_secs * 1e3,
            delta.index_patch_secs * 1e3,
        );
        table.row("streaming (support patch)", support);
        table.row("precompute (ball recompute)", ball);
        table.row("index (patch or repack)", index);
        table.row(
            "streaming (rest of apply_batch)",
            apply - support - ball - index,
        );
        table.row(
            "snapshot (publish_to)",
            tracer.total_ms("streaming.StreamingMaintainer::publish_to"),
        );
        let kernel_ms: f64 = traced_seen
            .side
            .iter()
            .map(|(_, a)| ms(a.answer.elapsed))
            .sum();
        // The worker may run the kernel before `submit` returns, so the
        // kernel time is taken out of submit and wait together.
        table.row(
            "serving (submit + wait, less kernel)",
            tracer.total_ms("serving.ServingRuntime::submit")
                + tracer.total_ms("serving.QueryTicket::wait")
                - kernel_ms,
        );
        let replay: Replay = traced_seen
            .side
            .iter()
            .flat_map(|(q, a)| {
                let q = &state.side_pool[*q];
                a.answer
                    .communities
                    .iter()
                    .map(move |c| (q.clone(), c.center))
            })
            .collect();
        kernel_layers(
            report,
            &mut table,
            state.maintainer.graph(),
            &replay,
            &traced_seen
                .side
                .iter()
                .map(|(_, a)| a.answer.stats)
                .collect::<Vec<_>>(),
            traced_seen
                .side
                .iter()
                .map(|(_, a)| a.answer.communities.len())
                .sum(),
            kernel_ms,
        );
        report_trace(report, &table, untraced, traced);
        seen.op_failures.append(&mut traced_seen.op_failures);
        seen.side_failures.append(&mut traced_seen.side_failures);
        seen.op_ms.append(&mut traced_seen.op_ms);
        seen.side_ms.append(&mut traced_seen.side_ms);
    } else {
        report.end_to_end("peak_rss_mb", peak, "MiB");
        report.end_to_end("op_p50_ms", median(&seen.op_ms), "ms");
        report.end_to_end("op_tail_ms", percentile(&seen.op_ms, TAIL), "ms");
        report.end_to_end(
            "ops_per_s",
            untraced.ops as f64 / untraced.wall.as_secs_f64(),
            "1/s",
        );
        report.end_to_end("side_p50_ms", median(&seen.side_ms), "ms");
        let delta = diff(state.maintainer.stats(), before);
        println!(
            "stream: {} batches, {} updates, {} compactions, {} repacks, {:.1} vertices recomputed per update",
            untraced.ops,
            delta.updates_applied(),
            delta.compactions,
            delta.repacks,
            delta.vertices_recomputed as f64 / delta.updates_applied().max(1) as f64
        );
    }

    // the whole maintained pair against the mirror and a from-scratch build
    let pool: Vec<usize> = (0..SIDE_POOL).collect();
    if let Err(e) = against_scratch(&state, &pool) {
        report.wrong(format!("after {} batches: {e}", state.batches));
    }
    report.ops(
        "batch",
        (seen.op_ms.len() + WARM_BATCHES) as u64,
        &seen.op_failures,
    );
    report.ops(
        "fresh-query",
        (seen.side_ms.len() + WARM_BATCHES) as u64,
        &seen.side_failures,
    );
    let State { runtime, .. } = state;
    runtime.shutdown();
}

fn diff(now: MaintainerStats, before: MaintainerStats) -> MaintainerStats {
    MaintainerStats {
        batches: now.batches - before.batches,
        inserts_applied: now.inserts_applied - before.inserts_applied,
        removes_applied: now.removes_applied - before.removes_applied,
        updates_skipped: now.updates_skipped - before.updates_skipped,
        vertices_recomputed: now.vertices_recomputed - before.vertices_recomputed,
        ball_overlap: now.ball_overlap - before.ball_overlap,
        compactions: now.compactions - before.compactions,
        index_patches: now.index_patches - before.index_patches,
        repacks: now.repacks - before.repacks,
        publishes_skipped: now.publishes_skipped - before.publishes_skipped,
        support_patch_secs: now.support_patch_secs - before.support_patch_secs,
        ball_recompute_secs: now.ball_recompute_secs - before.ball_recompute_secs,
        index_patch_secs: now.index_patch_secs - before.index_patch_secs,
        publish_secs: now.publish_secs - before.publish_secs,
    }
}

/// Batches until `seconds` of timed work have passed. Generating a batch
/// and checking its results are not timed.
fn phase(state: &mut State, seconds: Duration, tracer: &mut Tracer, seen: &mut Seen) -> Phase {
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut ops = 0;
    while ops == 0 || start.elapsed() - paused < seconds {
        paused += batch(state, tracer, seen);
        ops += 1;
    }
    Phase {
        wall: start.elapsed() - paused,
        ops,
    }
}

/// One batch and its side query; returns the untimed time spent generating
/// the batch and checking the results.
fn batch(state: &mut State, tracer: &mut Tracer, seen: &mut Seen) -> Duration {
    let untimed = Instant::now();
    let updates = state.stream.next_batch(&mut state.mirror);
    let skipped_before = state.maintainer.stats().updates_skipped;
    let mut paused = untimed.elapsed();
    let id = state.batches;
    state.batches += 1;

    let op = tracer.enter("op.batch", id);
    let (_, apply) = tracer.call("streaming.StreamingMaintainer::apply_batch", id, || {
        state.maintainer.apply_batch(&updates)
    });
    let (published, publish) = tracer.call("streaming.StreamingMaintainer::publish_to", id, || {
        state.maintainer.publish_to(&state.runtime)
    });
    seen.op_ms.push(ms(tracer.exit(op)));
    seen.apply_ms.push(ms(apply));
    seen.publish_ms.push(ms(publish));

    let q = id as usize % state.side_pool.len();
    let query = state.side_pool[q].clone();
    let sent = Instant::now();
    let (ticket, _) = tracer.call("serving.ServingRuntime::submit", id, || {
        state.runtime.submit(query)
    });
    let (served, _) = tracer.call("serving.QueryTicket::wait", id, || ticket.wait());
    seen.side_ms.push(ms(sent.elapsed()));

    let checks = Instant::now();
    let skipped = state.maintainer.stats().updates_skipped - skipped_before;
    let op_check = match &published {
        Err(e) => Err(format!("publish failed: {e}")),
        Ok(_) if skipped > 0 => Err(format!("{skipped} valid updates were skipped")),
        Ok(_) if SAMPLED.contains(&state.batches) => {
            against_scratch(state, &(0..SAMPLED_QUERIES).collect::<Vec<_>>())
        }
        Ok(_) => Ok(()),
    };
    if let Err(e) = op_check {
        seen.op_failures.push(format!("batch {id}: {e}"));
    }
    let side_check = || -> Result<ServedAnswer, String> {
        let served = served.map_err(|e| e.to_string())?;
        let epoch = published.as_ref().map_err(|e| e.to_string())?.epoch();
        if served.cache_hit || served.epoch != epoch {
            return Err(format!(
                "first query after publishing epoch {epoch} was served from epoch {} (cache hit: {})",
                served.epoch, served.cache_hit
            ));
        }
        validate_answer(&state.mirror, &state.side_pool[q], &served.answer)?;
        if id.is_multiple_of(DIRECT_EVERY) {
            let direct = TopLProcessor::new(state.maintainer.graph(), state.maintainer.index())
                .run(&state.side_pool[q])
                .map_err(|e| e.to_string())?;
            if centerless(&direct.communities) != centerless(&served.answer.communities) {
                return Err("served answer differs from the direct kernel answer".into());
            }
        }
        Ok(served)
    };
    match side_check() {
        Ok(served) => seen.side.push((q, served)),
        Err(e) => seen.side_failures.push(format!("batch {id}: {e}")),
    }
    paused += checks.elapsed();
    paused
}

/// The maintained edge set equals the mirror, and the maintained pair
/// answers the given side queries as a from-scratch build over the mirror
/// does.
fn against_scratch(state: &State, queries: &[usize]) -> Result<(), String> {
    check_edge_set(&state.mirror, state.maintainer.graph())?;
    let scratch = state.mirror.build_graph(&state.generated);
    let scratch_index = IndexBuilder::new(config()).build(&scratch);
    let fresh = TopLProcessor::new(&scratch, &scratch_index);
    let live = TopLProcessor::new(state.maintainer.graph(), state.maintainer.index());
    for &q in queries {
        let query = &state.side_pool[q];
        let want = fresh.run(query).map_err(|e| e.to_string())?;
        let got = live.run(query).map_err(|e| e.to_string())?;
        if centerless(&want.communities) != centerless(&got.communities) {
            return Err(format!("side query {q} differs from a from-scratch build"));
        }
    }
    Ok(())
}

fn layer_metrics(report: &mut Report, seen: &Seen, delta: &MaintainerStats) {
    let updates = delta.updates_applied().max(1) as f64;
    report.layer("streaming.apply_ms", median(&seen.apply_ms), "ms");
    report.layer("streaming.publish_ms", median(&seen.publish_ms), "ms");
    report.layer(
        "streaming.support_patch_ms",
        delta.support_patch_secs * 1e3 / updates,
        "ms",
    );
    report.layer(
        "streaming.ball_recompute_ms",
        delta.ball_recompute_secs * 1e3 / updates,
        "ms",
    );
    report.layer(
        "streaming.index_patch_ms",
        delta.index_patch_secs * 1e3 / updates,
        "ms",
    );
    report.layer(
        "streaming.vertices_per_update",
        delta.vertices_recomputed as f64 / updates,
        "count",
    );
    report.layer(
        "streaming.ball_overlap_ratio",
        delta.ball_overlap as f64 / delta.vertices_recomputed.max(1) as f64,
        "ratio",
    );
    report.layer("streaming.compactions", delta.compactions as f64, "count");
    report.layer("streaming.repacks", delta.repacks as f64, "count");
    let fresh: Vec<f64> = seen
        .side
        .iter()
        .map(|(_, a)| ms(a.answer.elapsed))
        .collect();
    report.layer("serving.fresh_kernel_ms", median(&fresh), "ms");
}
