//! The timed set-up shared by every workload: generation, the offline
//! build and the index build, each timed and its VmRSS delta taken.

use crate::inputs::{generate_graph, R_MAX, SCALE, THETAS};
use crate::trace::Tracer;
use crate::util::{median, rss_mib};
use crate::Report;
use icde_core::{CommunityIndex, IndexBuilder, PrecomputeConfig, PrecomputedData};
use icde_graph::SocialNetwork;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Worker threads of the offline build and of the maintainer refresh.
pub const BUILD_THREADS: usize = 1;

pub fn config() -> PrecomputeConfig {
    PrecomputeConfig::new(R_MAX, THETAS.to_vec())
        .with_num_threads(Some(BUILD_THREADS.min(crate::util::nproc())))
}

/// Time and memory of one set-up.
#[derive(Default, Clone)]
pub struct SetupCost {
    pub generate_s: f64,
    pub build_s: f64,
    pub support_s: f64,
    pub table_s: f64,
    pub seed_s: f64,
    pub index_s: f64,
    /// Runtime start and maintainer construction.
    pub start_s: f64,
    pub graph_rss: f64,
    pub precompute_rss: f64,
    pub index_rss: f64,
    pub serving_rss: f64,
    pub streaming_rss: f64,
}

impl SetupCost {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.index_s + self.start_s
    }

    /// Times `f` as part of the start calls and returns its VmRSS delta.
    pub fn start<T>(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let before = rss_mib();
        let (value, took) = tracer.call(name, 0, f);
        self.start_s += took.as_secs_f64();
        (value, rss_mib() - before)
    }
}

/// Generates the graph and builds its index.
pub fn build_pair(tracer: &mut Tracer) -> (SocialNetwork, CommunityIndex, SetupCost) {
    let mut cost = SetupCost::default();
    let before = rss_mib();
    let (g, took) = tracer.call("graph.generate", 0, || generate_graph(SCALE));
    cost.generate_s = took.as_secs_f64();
    let after_graph = rss_mib();
    let ((data, stats), took) = tracer.call("precompute.compute_with_stats", 0, || {
        PrecomputedData::compute_with_stats(&g, config())
    });
    cost.build_s = took.as_secs_f64();
    cost.support_s = stats.support_phase_secs;
    cost.table_s = stats.table_phase_secs;
    cost.seed_s = stats.seed_phase_secs;
    let after_build = rss_mib();
    let (index, took) = tracer.call("index.build_from_precomputed", 0, || {
        IndexBuilder::new(config()).build_from_precomputed(&g, data)
    });
    cost.index_s = took.as_secs_f64();
    let after_index = rss_mib();
    cost.graph_rss = after_graph - before;
    cost.precompute_rss = after_build - after_graph;
    cost.index_rss = after_index - after_build;
    (g, index, cost)
}

/// Runs a workload's set-up [`SETUP_REPS`] times, dropping each instance
/// before the next, and keeps the last. Times are medians over the
/// repetitions; memory deltas come from the first, which starts from a
/// fresh heap.
pub fn repeated<T>(
    tracer: &mut Tracer,
    report: &mut Report,
    mut once: impl FnMut(&mut Tracer) -> (T, SetupCost),
) -> T {
    let mut costs: Vec<SetupCost> = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (value, cost) = once(tracer);
        costs.push(cost);
        kept = Some(value);
    }
    let med = |f: fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    let first = &costs[0];
    report.end_to_end("setup_s", med(SetupCost::total_s), "s");
    report.layer("graph.generate_s", med(|c| c.generate_s), "s");
    report.layer("precompute.build_s", med(|c| c.build_s), "s");
    report.layer("precompute.support_s", med(|c| c.support_s), "s");
    report.layer("precompute.table_s", med(|c| c.table_s), "s");
    report.layer("precompute.seed_s", med(|c| c.seed_s), "s");
    report.layer("index.build_s", med(|c| c.index_s), "s");
    report.layer("graph.rss_mb", first.graph_rss, "MiB");
    report.layer("precompute.rss_mb", first.precompute_rss, "MiB");
    report.layer("index.rss_mb", first.index_rss, "MiB");
    report.layer("serving.rss_mb", first.serving_rss, "MiB");
    report.layer("streaming.rss_mb", first.streaming_rss, "MiB");
    kept.expect("at least one set-up")
}

/// Size of the index's binary snapshot, written under the output
/// directory and removed again.
pub fn snapshot_mib(index: &CommunityIndex, out_dir: &std::path::Path) -> f64 {
    let path = out_dir.join(format!("index-{}.snap", std::process::id()));
    icde_core::snapshot::write_index_snapshot(index, &path).expect("index snapshot writes");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    bytes as f64 / (1024.0 * 1024.0)
}
