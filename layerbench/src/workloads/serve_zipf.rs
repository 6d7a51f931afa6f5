//! `serve-zipf`: one client thread keeps a fixed window of tickets in
//! flight against a one-worker `ServingRuntime` (a closed loop). Requests
//! are Zipf-skewed over a pool of distinct broad queries plus a share of
//! one-off queries; the LRU holds fewer entries than the pool. The op is
//! any request; the side op is a request that missed the cache.

use super::{kernel_layers, report_trace, Phase, Replay};
use crate::check::{centerless, validate_answer, Mirror};
use crate::inputs::{RequestStream, SERVE_POOL};
use crate::setup::{build_pair, repeated, snapshot_mib};
use crate::trace::{LayerTable, Tracer};
use crate::util::{median, ms, peak_rss_mib, percentile, pin_to_one_cpu};
use crate::{Report, Run};
use icde_core::{
    ServedAnswer, ServingConfig, ServingError, ServingRuntime, TopLAnswer, TopLProcessor, TopLQuery,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tickets the client keeps in flight.
pub const WINDOW: usize = 8;
/// LRU capacity, below the pool size, so the Zipf tail gets evicted.
pub const CACHE_CAPACITY: usize = 192;
/// LRU shards. With one, which entries get evicted follows the request
/// stream alone; with the default 16, it followed how the seed's queries
/// hash onto shards and moved the hit rate from seed to seed.
pub const CACHE_SHARDS: usize = 1;
/// `op_tail_ms` percentile. A run serves more than 20 000 requests; p99.9
/// also has more than 10 beyond it but spread by 31% over five seeds.
const TAIL: f64 = 0.99;

/// One request as the client saw it, kept small: a run serves over
/// 100 000 of them and their storage counts in `peak_rss_mb`.
struct Served {
    ms: f32,
    hit: bool,
}

/// What the client keeps across requests.
struct Client {
    /// Hash of the direct kernel answer of each pool query.
    expected: Vec<u64>,
    /// The last answer served per pool query once checked: a hit is an
    /// `Arc` clone of it, so only a new answer is hashed.
    checked: Vec<Option<Arc<TopLAnswer>>>,
    served: Vec<Served>,
    /// One-off queries with their answers, checked after the timed phase.
    one_offs: Vec<(TopLQuery, Arc<TopLAnswer>)>,
    hit_failures: Vec<String>,
    miss_failures: Vec<String>,
    /// Answers of misses with their query, kept in the traced phase only.
    misses: Vec<(TopLQuery, Arc<TopLAnswer>)>,
    keep_misses: bool,
}

fn answer_hash(answer: &TopLAnswer) -> u64 {
    let mut h = DefaultHasher::new();
    centerless(&answer.communities).hash(&mut h);
    h.finish()
}

pub fn run(run: &Run, tracer: &mut Tracer, report: &mut Report) {
    // The client and the runtime's worker share one CPU, so a hand-off is a
    // context switch. Across two CPUs the hit latency settled at about
    // 28 µs in some sets of runs and 59 µs in others, depending on how the
    // idle CPU was woken.
    match pin_to_one_cpu() {
        Some(cpu) => println!("client and worker pinned to cpu {cpu}"),
        None => println!("client and worker not pinned: affinity unavailable"),
    }
    let mut snapshot_mb = 0.0;
    let runtime = repeated(tracer, report, |tracer| {
        let (g, index, mut cost) = build_pair(tracer);
        snapshot_mb = snapshot_mib(&index, &run.out_dir);
        let config = ServingConfig {
            cache_capacity: CACHE_CAPACITY,
            cache_shards: CACHE_SHARDS,
            ..ServingConfig::with_workers(1)
        };
        let (runtime, rss) = cost.start(tracer, "serving.ServingRuntime::start", || {
            ServingRuntime::start(config, g, index).expect("runtime starts")
        });
        cost.serving_rss = rss;
        (runtime, cost)
    });
    report.layer("index.snapshot_mb", snapshot_mb, "MiB");
    let snapshot = runtime.current();
    let mirror = Mirror::from_graph(&snapshot.graph);

    // Every pool query's direct kernel answer on the served snapshot, itself
    // checked against Definition 2: what each served answer must equal.
    let mut requests = RequestStream::new(run.seed);
    let processor = TopLProcessor::new(&snapshot.graph, &snapshot.index);
    let mut expected = Vec::with_capacity(SERVE_POOL);
    for q in &requests.pool {
        let answer = processor.run(q).expect("pool queries are valid");
        if let Err(e) = validate_answer(&mirror, q, &answer) {
            report.wrong(format!("direct kernel answer of a pool query: {e}"));
        }
        expected.push(answer_hash(&answer));
    }

    // warm-up: the pool, coldest first, leaves the hottest queries cached
    let warm: Vec<_> = requests
        .pool
        .iter()
        .rev()
        .map(|q| runtime.submit(q.clone()))
        .collect();
    for ticket in warm {
        let _ = ticket.wait();
    }

    let seconds = Duration::from_secs_f64(run.seconds);
    let mut client = Client {
        expected,
        checked: vec![None; SERVE_POOL],
        served: Vec::new(),
        one_offs: Vec::new(),
        hit_failures: Vec::new(),
        miss_failures: Vec::new(),
        misses: Vec::new(),
        keep_misses: false,
    };
    let untraced = phase(&runtime, &mut requests, &mut client, seconds, tracer);
    let peak = peak_rss_mib();
    if run.trace {
        tracer.set_recording(true);
        client.keep_misses = true;
        let first = client.served.len();
        let executed_before = runtime.stats().queries_executed;
        let traced = phase(&runtime, &mut requests, &mut client, seconds, tracer);
        let executed = runtime.stats().queries_executed - executed_before;
        tracer.set_recording(false);
        let kernel_ms: f64 = client.misses.iter().map(|(_, a)| ms(a.elapsed)).sum();
        layer_metrics(report, &client, first, executed);
        let mut table = LayerTable::new(ms(traced.wall));
        // The worker may run the kernel before `submit` returns, so the
        // kernel time is taken out of submit and wait together.
        table.row(
            "serving (submit + wait, less kernel)",
            tracer.total_ms("serving.ServingRuntime::submit")
                + tracer.total_ms("serving.QueryTicket::wait")
                - kernel_ms,
        );
        let replay: Replay = client
            .misses
            .iter()
            .flat_map(|(q, a)| a.communities.iter().map(move |c| (q.clone(), c.center)))
            .collect();
        kernel_layers(
            report,
            &mut table,
            &snapshot.graph,
            &replay,
            &client
                .misses
                .iter()
                .map(|(_, a)| a.stats)
                .collect::<Vec<_>>(),
            client.misses.iter().map(|(_, a)| a.communities.len()).sum(),
            kernel_ms,
        );
        report_trace(report, &table, untraced, traced);
    } else {
        let lat: Vec<f64> = client.served.iter().map(|s| f64::from(s.ms)).collect();
        let missed: Vec<f64> = client
            .served
            .iter()
            .filter(|s| !s.hit)
            .map(|s| f64::from(s.ms))
            .collect();
        report.end_to_end("peak_rss_mb", peak, "MiB");
        report.end_to_end("op_p50_ms", median(&lat), "ms");
        report.end_to_end("op_tail_ms", percentile(&lat, TAIL), "ms");
        report.end_to_end(
            "ops_per_s",
            untraced.ops as f64 / untraced.wall.as_secs_f64(),
            "1/s",
        );
        report.end_to_end("side_p50_ms", median(&missed), "ms");
        println!(
            "requests: {} served, {} misses, {} one-off queries",
            lat.len(),
            missed.len(),
            client.one_offs.len()
        );
    }

    // A one-off ran the kernel once, in the worker: its answer is checked
    // against Definition 2 rather than by running the kernel again.
    for (q, answer) in &client.one_offs {
        if let Err(e) = validate_answer(&mirror, q, answer) {
            client.miss_failures.push(format!("one-off query: {e}"));
        }
    }
    let hits = client.served.iter().filter(|s| s.hit).count();
    report.ops("hit", hits as u64, &client.hit_failures);
    report.ops(
        "miss",
        (client.served.len() - hits) as u64,
        &client.miss_failures,
    );
    drop(snapshot);
    runtime.shutdown();
}

/// The closed loop: keep `WINDOW` tickets in flight until `seconds` have
/// passed, then drain.
fn phase(
    runtime: &ServingRuntime,
    requests: &mut RequestStream,
    client: &mut Client,
    seconds: Duration,
    tracer: &mut Tracer,
) -> Phase {
    let start = Instant::now();
    let epoch = runtime.current().epoch();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut op = client.served.len() as u64;
    let mut submit = |tracer: &mut Tracer, inflight: &mut VecDeque<_>| {
        let (q, rank) = requests.next_request();
        let sent = Instant::now();
        let (ticket, _) = tracer.call("serving.ServingRuntime::submit", op, || {
            runtime.submit(q.clone())
        });
        inflight.push_back((ticket, sent, q, rank, op));
        op += 1;
    };
    for _ in 0..WINDOW {
        submit(tracer, &mut inflight);
    }
    let mut ops = 0;
    while let Some((ticket, sent, q, rank, op)) = inflight.pop_front() {
        let (answer, _) = tracer.call("serving.QueryTicket::wait", op, || ticket.wait());
        let hit = answer.as_ref().is_ok_and(|a| a.cache_hit);
        client.served.push(Served {
            ms: ms(sent.elapsed()) as f32,
            hit,
        });
        ops += 1;
        if start.elapsed() < seconds {
            submit(tracer, &mut inflight);
        }
        if let Err(e) = check(client, answer, epoch, q, rank) {
            let failures = if hit {
                &mut client.hit_failures
            } else {
                &mut client.miss_failures
            };
            failures.push(format!("request {op}: {e}"));
        }
    }
    Phase {
        wall: start.elapsed(),
        ops,
    }
}

/// A pool query's answer must equal its direct kernel answer; a one-off's
/// is kept for the validator.
fn check(
    client: &mut Client,
    answer: Result<ServedAnswer, ServingError>,
    epoch: u64,
    q: TopLQuery,
    rank: Option<usize>,
) -> Result<(), String> {
    let served = answer.map_err(|e| e.to_string())?;
    if served.epoch != epoch {
        return Err(format!(
            "served at epoch {}, published {epoch}",
            served.epoch
        ));
    }
    if client.keep_misses && !served.cache_hit {
        client.misses.push((q.clone(), Arc::clone(&served.answer)));
    }
    let Some(rank) = rank else {
        client.one_offs.push((q, served.answer));
        return Ok(());
    };
    if let Some(last) = &client.checked[rank] {
        if Arc::ptr_eq(last, &served.answer) {
            return Ok(());
        }
    }
    if answer_hash(&served.answer) != client.expected[rank] {
        return Err(format!(
            "pool query {rank}: served answer differs from the direct kernel answer"
        ));
    }
    client.checked[rank] = Some(served.answer);
    Ok(())
}

fn layer_metrics(report: &mut Report, client: &Client, first: usize, executed: u64) {
    let window = &client.served[first..];
    let hits: Vec<f64> = window
        .iter()
        .filter(|s| s.hit)
        .map(|s| f64::from(s.ms) * 1e3)
        .collect();
    let missed = window.iter().filter(|s| !s.hit).map(|s| f64::from(s.ms));
    let kernel: Vec<f64> = client.misses.iter().map(|(_, a)| ms(a.elapsed)).collect();
    report.layer(
        "serving.hit_rate",
        100.0 * hits.len() as f64 / window.len().max(1) as f64,
        "%",
    );
    report.layer("serving.executed", executed as f64, "count");
    report.layer("serving.hit_us", median(&hits), "us");
    report.layer("serving.kernel_ms", median(&kernel), "ms");
    let handoff: Vec<f64> = missed
        .zip(&kernel)
        .map(|(client_ms, kernel_ms)| (client_ms - kernel_ms) * 1e3)
        .collect();
    report.layer("serving.handoff_us", median(&handoff), "us");
}
