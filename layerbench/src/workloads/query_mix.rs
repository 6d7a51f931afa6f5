//! `query-mix`: one thread calls `TopLProcessor::run` directly over a
//! seeded list of 400 queries of three keyword widths; every fourth broad
//! query is also sent as a DTopL-ICDE query (the side op).

use super::{kernel_layers, report_trace, Phase, Replay};
use crate::check::{centerless, close, diversity, validate_answer, validate_communities, Mirror};
use crate::inputs::{generate_graph, query_mix, MixQuery, Shape, GATE_SCALE};
use crate::setup::{build_pair, config, repeated, snapshot_mib};
use crate::trace::{LayerTable, Tracer};
use crate::util::{median, ms, peak_rss_mib, percentile};
use crate::{Report, Run};
use icde_core::baseline::bruteforce::brute_force_topl;
use icde_core::{
    CommunityIndex, DTopLAnswer, DTopLProcessor, DTopLQuery, DTopLStrategy, IndexBuilder,
    TopLAnswer, TopLProcessor, TopLQuery,
};
use icde_graph::SocialNetwork;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Every `SIDE_EVERY`-th broad query is also sent as a DTopL query.
const SIDE_EVERY: usize = 4;
/// DTopL candidate multiplier `n`.
const DTOPL_N: usize = 3;
/// `op_tail_ms` percentile: 10 of every 400 queries lie beyond it.
const TAIL: f64 = 0.975;
/// Queries of the list answered at gate scale against the oracles.
const GATE_QUERIES: usize = 24;

struct Ran {
    q: usize,
    ms: f64,
    answer: Result<TopLAnswer, String>,
}

struct Side {
    q: usize,
    ms: f64,
    answer: Result<DTopLAnswer, String>,
}

pub fn run(run: &Run, tracer: &mut Tracer, report: &mut Report) {
    let list = query_mix(run.seed);
    gate(&list, report);

    let (g, index) = repeated(tracer, report, |tracer| {
        let (g, index, cost) = build_pair(tracer);
        ((g, index), cost)
    });
    report.layer(
        "index.snapshot_mb",
        snapshot_mib(&index, &run.out_dir),
        "MiB",
    );
    let mirror = Mirror::from_graph(&g);

    // warm-up: the first query of each shape fills the kernel's
    // thread-local workspace over the whole graph
    let processor = TopLProcessor::new(&g, &index);
    for shape in [Shape::Broad, Shape::Medium, Shape::Narrow] {
        let entry = list
            .iter()
            .find(|e| e.shape == shape)
            .expect("every shape is listed");
        let _ = processor.run(&entry.query);
    }

    let seconds = Duration::from_secs_f64(run.seconds);
    let (mut ran, mut sides) = (Vec::new(), Vec::new());
    let untraced = phase(&g, &index, &list, seconds, tracer, &mut ran, &mut sides);
    let peak = peak_rss_mib();
    if run.trace {
        tracer.set_recording(true);
        let first = (ran.len(), sides.len());
        let traced = phase(&g, &index, &list, seconds, tracer, &mut ran, &mut sides);
        tracer.set_recording(false);
        let mut table = LayerTable::new(ms(traced.wall));
        table.row(
            "dtopl (DTopLProcessor::run)",
            tracer.total_ms("dtopl.DTopLProcessor::run"),
        );
        let answers: Vec<(&TopLQuery, &TopLAnswer)> = ran[first.0..]
            .iter()
            .filter_map(|r| Some((&list[r.q].query, r.answer.as_ref().ok()?)))
            .collect();
        let replay: Replay = answers
            .iter()
            .flat_map(|(q, a)| a.communities.iter().map(|c| ((*q).clone(), c.center)))
            .collect();
        kernel_layers(
            report,
            &mut table,
            &g,
            &replay,
            &answers.iter().map(|(_, a)| a.stats).collect::<Vec<_>>(),
            answers.iter().map(|(_, a)| a.communities.len()).sum(),
            tracer.total_ms("topl.TopLProcessor::run"),
        );
        let pruned: Vec<f64> = sides[first.1..]
            .iter()
            .filter_map(|s| Some(s.answer.as_ref().ok()?.stats.diversity_pruned as f64))
            .collect();
        report.layer(
            "dtopl.diversity_pruned",
            pruned.iter().sum::<f64>() / pruned.len().max(1) as f64,
            "count",
        );
        report_trace(report, &table, untraced, traced);
    } else {
        let lat: Vec<f64> = ran.iter().map(|r| r.ms).collect();
        report.end_to_end("peak_rss_mb", peak, "MiB");
        report.end_to_end("op_p50_ms", median(&lat), "ms");
        report.end_to_end("op_tail_ms", percentile(&lat, TAIL), "ms");
        report.end_to_end(
            "ops_per_s",
            untraced.ops as f64 / untraced.wall.as_secs_f64(),
            "1/s",
        );
        let side: Vec<f64> = sides.iter().map(|s| s.ms).collect();
        report.end_to_end("side_p50_ms", median(&side), "ms");
        for shape in [Shape::Broad, Shape::Medium, Shape::Narrow] {
            let lat: Vec<f64> = ran
                .iter()
                .filter(|r| list[r.q].shape == shape)
                .map(|r| r.ms)
                .collect();
            println!(
                "shape {shape:?}: {} queries, p50 {:.3} ms, max {:.3} ms",
                lat.len(),
                median(&lat),
                percentile(&lat, 1.0)
            );
        }
    }

    let failures: Vec<String> = ran
        .iter()
        .filter_map(|r| {
            let q = &list[r.q].query;
            let checked = r
                .answer
                .as_ref()
                .map_err(String::clone)
                .and_then(|a| validate_answer(&mirror, q, a));
            checked.err().map(|e| format!("query {}: {e}", r.q))
        })
        .collect();
    report.ops("topl-query", ran.len() as u64, &failures);
    let failures = check_sides(&g, &index, &mirror, &list, &sides);
    report.ops("dtopl-query", sides.len() as u64, &failures);
}

/// Whole rounds over the list until `seconds` have passed.
fn phase(
    g: &SocialNetwork,
    index: &CommunityIndex,
    list: &[MixQuery],
    seconds: Duration,
    tracer: &mut Tracer,
    ran: &mut Vec<Ran>,
    sides: &mut Vec<Side>,
) -> Phase {
    let processor = TopLProcessor::new(g, index);
    let dprocessor = DTopLProcessor::new(g, index);
    let start = Instant::now();
    let mut ops = 0;
    while ops == 0 || start.elapsed() < seconds {
        for (i, entry) in list.iter().enumerate() {
            let q = &entry.query;
            let op = ran.len() as u64;
            let (answer, took) = tracer.call("topl.TopLProcessor::run", op, || processor.run(q));
            ran.push(Ran {
                q: i,
                ms: ms(took),
                answer: answer.map_err(|e| e.to_string()),
            });
            if entry.shape == Shape::Broad && entry.j % SIDE_EVERY == 0 {
                let dq = DTopLQuery::new(q.clone(), DTOPL_N);
                let (answer, took) = tracer.call("dtopl.DTopLProcessor::run", op, || {
                    dprocessor.run(&dq, DTopLStrategy::GreedyWithPruning)
                });
                sides.push(Side {
                    q: i,
                    ms: ms(took),
                    answer: answer.map_err(|e| e.to_string()),
                });
            }
            ops += 1;
        }
    }
    Phase {
        wall: start.elapsed(),
        ops,
    }
}

/// Each DTopL answer: valid communities, the diversity score the benchmark
/// recomputes, and the selection of the unpruned greedy.
fn check_sides(
    g: &SocialNetwork,
    index: &CommunityIndex,
    mirror: &Mirror,
    list: &[MixQuery],
    sides: &[Side],
) -> Vec<String> {
    let dprocessor = DTopLProcessor::new(g, index);
    let mut unpruned = HashMap::new();
    sides
        .iter()
        .filter_map(|s| {
            let q = &list[s.q].query;
            let mut check = || -> Result<(), String> {
                let answer = s.answer.as_ref().map_err(String::clone)?;
                validate_communities(mirror, q, &answer.communities)?;
                let reference = unpruned
                    .entry(s.q)
                    .or_insert_with(|| {
                        dprocessor
                            .run(
                                &DTopLQuery::new(q.clone(), DTOPL_N),
                                DTopLStrategy::GreedyWithoutPruning,
                            )
                            .map_err(|e| e.to_string())
                    })
                    .as_ref()
                    .map_err(String::clone)?;
                same_selection(mirror, q.theta, answer, reference)
            };
            check().err().map(|e| format!("dtopl query {}: {e}", s.q))
        })
        .collect()
}

/// The pruned greedy selects what the unpruned greedy selects. The two
/// break ties between equal marginal gains in different orders, so a
/// different set passes when it reaches the same diversity score. Both
/// scores are recomputed by the benchmark.
fn same_selection(
    mirror: &Mirror,
    theta: f64,
    pruned: &DTopLAnswer,
    unpruned: &DTopLAnswer,
) -> Result<(), String> {
    let d = diversity(mirror, &pruned.communities, theta);
    if !close(d, pruned.diversity_score) {
        return Err(format!(
            "reported diversity {} differs from the recomputed {d}",
            pruned.diversity_score
        ));
    }
    if centerless(&pruned.communities) != centerless(&unpruned.communities)
        && !close(d, diversity(mirror, &unpruned.communities, theta))
    {
        return Err("pruned greedy selected another set than the unpruned greedy".into());
    }
    Ok(())
}

/// Before any timing, on a graph of the same family at gate scale: the
/// progressive kernel agrees with the eager reference and the brute-force
/// baseline, and the pruned DTopL greedy agrees with the unpruned one and
/// reaches (1 − 1/e) of the optimal diversity.
fn gate(list: &[MixQuery], report: &mut Report) {
    let g = generate_graph(GATE_SCALE);
    let index = IndexBuilder::new(config()).build(&g);
    let processor = TopLProcessor::new(&g, &index);
    let dprocessor = DTopLProcessor::new(&g, &index);
    let mirror = Mirror::from_graph(&g);
    let mut checked = 0;
    for MixQuery {
        shape, query: q, ..
    } in list.iter().take(GATE_QUERIES)
    {
        let progressive = processor.run(q).map(|a| centerless(&a.communities));
        let eager = processor.run_eager(q).map(|a| centerless(&a.communities));
        let brute = centerless(&brute_force_topl(&g, q).communities);
        match (progressive, eager) {
            (Ok(p), Ok(e)) if p == e && p == brute => {}
            (p, e) => report.wrong(format!(
                "gate: {shape:?} query {q:?} disagrees (progressive {:?} communities, eager {:?}, brute force {})",
                p.map(|a| a.len()),
                e.map(|a| a.len()),
                brute.len()
            )),
        }
        if *shape != Shape::Broad {
            continue;
        }
        let dq = DTopLQuery::new(q.with_result_size(3), DTOPL_N);
        let run = |strategy| dprocessor.run(&dq, strategy).map_err(|e| e.to_string());
        match (
            run(DTopLStrategy::GreedyWithPruning),
            run(DTopLStrategy::GreedyWithoutPruning),
            run(DTopLStrategy::Optimal),
        ) {
            (Ok(pruned), Ok(unpruned), Ok(optimal)) => {
                if let Err(e) = same_selection(&mirror, q.theta, &pruned, &unpruned) {
                    report.wrong(format!("gate: {e} on {q:?}"));
                }
                let bound = (1.0 - (-1.0f64).exp()) * optimal.diversity_score;
                if pruned.diversity_score < bound - 1e-9 {
                    report.wrong(format!(
                        "gate: greedy diversity {} below (1 - 1/e) of optimal {}",
                        pruned.diversity_score, optimal.diversity_score
                    ));
                }
            }
            (a, b, c) => report.wrong(format!(
                "gate: DTopL failed: {:?} {:?} {:?}",
                a.err(),
                b.err(),
                c.err()
            )),
        }
        checked += 1;
    }
    println!(
        "gate: {GATE_QUERIES} queries at {GATE_SCALE} vertices against run_eager and brute force, \
         {checked} DTopL queries against the unpruned greedy and the optimum"
    );
}
