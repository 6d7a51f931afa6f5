//! Seeded inputs: the graph, the query lists and the edge-update stream.
//!
//! Every input is a deterministic function of the `--seed` argument; the
//! program under test receives only what these functions generate.

use crate::check::Mirror;
use icde_core::streaming::EdgeUpdate;
use icde_core::TopLQuery;
use icde_graph::generators::{
    assign_keywords, assign_uniform_weights, small_world, KeywordDistribution, SmallWorldConfig,
    WeightRange,
};
use icde_graph::{KeywordSet, SocialNetwork, VertexId};
use std::collections::{HashSet, VecDeque};

/// Vertices of the benchmark graph (every workload).
pub const SCALE: usize = 50_000;
/// Vertices of the gate graph the exhaustive oracles run on.
pub const GATE_SCALE: usize = 3_000;
/// Keyword domain `|Σ|` and keywords per vertex of the generated graph.
pub const KEYWORD_DOMAIN: u32 = 12;
pub const KEYWORDS_PER_VERTEX: usize = 3;
/// Offline pre-computation grid: `r_max` and the θ thresholds.
pub const R_MAX: u32 = 2;
pub const THETAS: [f64; 2] = [0.15, 0.3];

/// splitmix64: the stream every input draw comes from.
pub struct Stream(u64);

impl Stream {
    /// A stream for one input family (`tag`) of one seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        Stream(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `count` distinct keyword ids out of the domain.
    fn keywords(&mut self, count: usize) -> KeywordSet {
        let mut ids: Vec<u32> = Vec::with_capacity(count);
        while ids.len() < count {
            let id = self.below(KEYWORD_DOMAIN as usize) as u32;
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        KeywordSet::from_ids(ids)
    }
}

/// Seed of the generated graph. The graph is the data set and stays the
/// same for every `--seed`; the seed draws the queries, the request stream
/// and the update stream. Query cost hangs on the few best communities of
/// the graph, so a graph drawn per seed would move every latency with it.
pub const GRAPH_SEED: u64 = 20240614;

/// The bench9 graph family at `n` vertices: a locality-dominated small-world
/// ring (degree 6, shortcut probability 2·10⁻⁴), uniform weights in
/// `[0.5, 0.6)` and 3 uniform keywords out of 12 per vertex.
pub fn generate_graph(n: usize) -> SocialNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(GRAPH_SEED ^ 0xB9);
    let mut g = small_world(&SmallWorldConfig::locality(n), &mut rng);
    assign_uniform_weights(&mut g, WeightRange::paper_default(), &mut rng);
    assign_keywords(
        &mut g,
        KEYWORD_DOMAIN,
        KEYWORDS_PER_VERTEX,
        KeywordDistribution::Uniform,
        &mut rng,
    );
    g
}

/// Query shape groups of the `query-mix` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 4–6 keywords, r ∈ {1, 2}, θ ∈ {0.15, 0.2, 0.3}, k ∈ {3, 4}.
    Broad,
    /// 3 keywords, r ∈ {1, 2}, on-grid θ ∈ {0.15, 0.3}, k ∈ {3, 4}.
    Medium,
    /// The bound-resistant shape: 2 keywords, r = 2, k = 4, off-grid
    /// θ ∈ {0.2, 0.35}. Too few such communities exist to fill L, so the
    /// early-termination test never fires and the heap drains.
    Narrow,
}

/// Queries per `query-mix` round and the make-up of one round.
pub const MIX_BROAD: usize = 320;
pub const MIX_MEDIUM: usize = 40;
pub const MIX_NARROW: usize = 40;

/// The `j`-th query of a group. Within a group the parameters other than
/// the keywords cycle through a fixed grid, so every seed gets the same
/// make-up; the seed draws the keywords and the order.
fn shaped_query(s: &mut Stream, shape: Shape, j: usize) -> TopLQuery {
    match shape {
        Shape::Broad => TopLQuery::new(
            s.keywords(4 + j % 3),
            [3, 4][j / 3 % 2],
            [1, 2][j / 6 % 2],
            [0.15, 0.2, 0.3][j / 12 % 3],
            3 + j / 36 % 6,
        ),
        Shape::Medium => TopLQuery::new(
            s.keywords(3),
            [3, 4][j % 2],
            [1, 2][j / 2 % 2],
            [0.15, 0.3][j / 4 % 2],
            3 + j / 8 % 6,
        ),
        Shape::Narrow => TopLQuery::new(s.keywords(2), 4, 2, [0.2, 0.35][j % 2], 1 + j / 2 % 8),
    }
}

/// One entry of the `query-mix` list: the query, its shape and its index
/// within its shape group.
pub struct MixQuery {
    pub shape: Shape,
    pub j: usize,
    pub query: TopLQuery,
}

/// One `query-mix` round: 320 broad, 40 medium and 40 narrow queries in a
/// seeded shuffled order, so each group spreads over the whole round.
pub fn query_mix(seed: u64) -> Vec<MixQuery> {
    let mut s = Stream::new(seed, 1);
    let mut entries: Vec<MixQuery> = [
        (Shape::Broad, MIX_BROAD),
        (Shape::Medium, MIX_MEDIUM),
        (Shape::Narrow, MIX_NARROW),
    ]
    .into_iter()
    .flat_map(|(shape, count)| (0..count).map(move |j| (shape, j)))
    .map(|(shape, j)| MixQuery {
        shape,
        j,
        query: shaped_query(&mut s, shape, j),
    })
    .collect();
    for i in (1..entries.len()).rev() {
        entries.swap(i, s.below(i + 1));
    }
    entries
}

/// Parameter combinations of the broad grid (width × k × r × θ).
pub const BROAD_GRID: usize = 36;

/// `count` broad queries with pairwise distinct canonical fingerprints. The
/// `i`-th takes combination `i mod 36` of the broad grid, so the make-up
/// is the same for every seed; the seed draws the keywords.
pub fn distinct_broad_queries(seed: u64, tag: u64, count: usize) -> Vec<TopLQuery> {
    let mut s = Stream::new(seed, tag);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = shaped_query(&mut s, Shape::Broad, out.len() % BROAD_GRID);
        if seen.insert(q.canonical_fingerprint()) {
            out.push(q);
        }
    }
    out
}

/// Cumulative Zipf(`exponent`) distribution over `n` ranks.
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

pub fn sample_zipf(cdf: &[f64], s: &mut Stream) -> usize {
    let u = s.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Requests of `serve-zipf`: Zipf-skewed picks over a pool of distinct broad
/// queries, and every `SERVE_ONE_OFF_EVERY`-th request a one-off query that
/// never repeats.
pub struct RequestStream {
    pub pool: Vec<TopLQuery>,
    cdf: Vec<f64>,
    s: Stream,
    sent: u64,
}

/// Distinct queries in the `serve-zipf` pool.
pub const SERVE_POOL: usize = 256;
/// Zipf exponent over the pool ranks.
pub const SERVE_ZIPF_S: f64 = 1.2;
/// One request in this many is a one-off query.
pub const SERVE_ONE_OFF_EVERY: u64 = 200;

impl RequestStream {
    pub fn new(seed: u64) -> Self {
        RequestStream {
            pool: distinct_broad_queries(seed, 2, SERVE_POOL),
            cdf: zipf_cdf(SERVE_POOL, SERVE_ZIPF_S),
            s: Stream::new(seed, 3),
            sent: 0,
        }
    }

    /// The next request, with its pool rank (`None` for a one-off).
    pub fn next_request(&mut self) -> (TopLQuery, Option<usize>) {
        self.sent += 1;
        if self.sent.is_multiple_of(SERVE_ONE_OFF_EVERY) {
            // a pool query at a θ no other request uses: same work, new key
            let mut q = self.pool[self.s.below(SERVE_POOL)].clone();
            q.theta += self.sent as f64 * 1e-12;
            (q, None)
        } else {
            let rank = sample_zipf(&self.cdf, &mut self.s);
            (self.pool[rank].clone(), Some(rank))
        }
    }
}

/// Edge updates per `update-stream` batch.
pub const BATCH: usize = 8;
/// Hot vertices the update endpoints are drawn from, evenly spread.
pub const HOT_POOL: usize = 256;
/// Zipf exponent over the hot-vertex ranks.
pub const HOT_ZIPF_S: f64 = 1.1;
/// Extra degree a hot vertex may gain over its generated degree; an insert
/// that would pass it becomes the removal of one of that vertex's inserted
/// edges instead, so hot balls stay bounded over any run length.
pub const HOT_DEGREE_SLACK: usize = 6;
/// Share of updates that remove a live generated edge, or put back the
/// oldest one removed once `REMOVED_CAP` are missing, so the graph around
/// the hot vertices neither thins out nor fills up over a run.
pub const BASE_REMOVE_SHARE: f64 = 0.1;
pub const REMOVED_CAP: usize = 64;
/// Overlay fraction at which the maintainer compacts.
pub const COMPACT_THRESHOLD: f64 = 0.003;
/// Share of the vertices recomputed since the last full index build at
/// which the maintainer repacks the index: about one batch in 18, so the
/// `op_tail_ms` percentile lies among the repacking batches.
pub const REPACK_THRESHOLD: f64 = 0.1;

/// The `update-stream` generator. It keeps a mirror of the logical edge set,
/// so every update it emits is valid when applied: inserts join two
/// non-adjacent vertices, removals name live edges, and inserted weights
/// stay within the generated range `[0.5, 0.6)`.
pub struct UpdateStream {
    s: Stream,
    hot: Vec<VertexId>,
    cdf: Vec<f64>,
    base_degree: Vec<usize>,
    /// Live inserted edges, oldest first, per hot endpoint.
    inserted: Vec<VecDeque<VertexId>>,
    inserted_set: HashSet<(u32, u32)>,
    /// Removed generated edges with their weights, oldest first.
    removed: VecDeque<(VertexId, VertexId, f64, f64)>,
}

fn edge_key(u: VertexId, v: VertexId) -> (u32, u32) {
    (u.0.min(v.0), u.0.max(v.0))
}

impl UpdateStream {
    pub fn new(seed: u64, mirror: &Mirror) -> Self {
        let n = mirror.num_vertices();
        let stride = n / HOT_POOL;
        let hot: Vec<VertexId> = (0..HOT_POOL)
            .map(|i| VertexId::from_index(i * stride + stride / 2))
            .collect();
        UpdateStream {
            s: Stream::new(seed, 4),
            base_degree: hot.iter().map(|&v| mirror.degree(v)).collect(),
            inserted: vec![VecDeque::new(); HOT_POOL],
            inserted_set: HashSet::new(),
            removed: VecDeque::new(),
            hot,
            cdf: zipf_cdf(HOT_POOL, HOT_ZIPF_S),
        }
    }

    /// The next batch, applied to `mirror` as it is generated.
    pub fn next_batch(&mut self, mirror: &mut Mirror) -> Vec<EdgeUpdate> {
        let mut batch = Vec::with_capacity(BATCH);
        while batch.len() < BATCH {
            if let Some(update) = self.next_update(mirror) {
                mirror.apply(&update);
                batch.push(update);
            }
        }
        batch
    }

    fn next_update(&mut self, mirror: &Mirror) -> Option<EdgeUpdate> {
        let rank = sample_zipf(&self.cdf, &mut self.s);
        let u = self.hot[rank];
        if self.s.unit() < BASE_REMOVE_SHARE {
            if self.removed.len() >= REMOVED_CAP {
                let (u, v, p_uv, p_vu) = self.removed.pop_front()?;
                // a triadic closure may have joined the two again meanwhile
                return mirror.weight(u, v).is_none().then_some(EdgeUpdate::Insert {
                    u,
                    v,
                    p_uv,
                    p_vu,
                });
            }
            // remove a live generated edge next to the hot vertex, keeping
            // at least 4 neighbours so its truss structure does not vanish
            let v = mirror.random_neighbor(u, &mut self.s)?;
            let generated = !self.inserted_set.contains(&edge_key(u, v));
            if !generated || mirror.degree(u) <= 4 || mirror.degree(v) <= 4 {
                return None;
            }
            let p_uv = mirror.weight(u, v)?;
            let p_vu = mirror.weight(v, u)?;
            self.removed.push_back((u, v, p_uv, p_vu));
            return Some(EdgeUpdate::Remove { u, v });
        }
        if mirror.degree(u) >= self.base_degree[rank] + HOT_DEGREE_SLACK {
            let v = self.inserted[rank].pop_front()?;
            self.inserted_set.remove(&edge_key(u, v));
            return Some(EdgeUpdate::Remove { u, v });
        }
        // triadic closure: u — v — w becomes the triangle u — v — w
        let v = mirror.random_neighbor(u, &mut self.s)?;
        let w = mirror.random_neighbor(v, &mut self.s)?;
        if w == u || mirror.weight(u, w).is_some() {
            return None;
        }
        self.inserted[rank].push_back(w);
        self.inserted_set.insert(edge_key(u, w));
        Some(EdgeUpdate::Insert {
            u,
            v: w,
            p_uv: 0.5 + 0.1 * self.s.unit(),
            p_vu: 0.5 + 0.1 * self.s.unit(),
        })
    }
}
