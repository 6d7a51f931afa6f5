//! Answer checks written apart from the code under test.
//!
//! [`Mirror`] is the benchmark's own copy of the logical graph: adjacency
//! with directed weights and keyword masks, kept in step with every update
//! the benchmark sends. [`validate_answer`] checks a Top-L answer against
//! Definition 2 and recomputes every influential score σ with its own
//! multi-source max-product propagation over the mirror.

use crate::inputs::Stream;
use icde_core::streaming::EdgeUpdate;
use icde_core::{SeedCommunity, TopLAnswer, TopLQuery};
use icde_graph::{GraphBuilder, KeywordSet, SocialNetwork, VertexId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// Relative tolerance between a reported σ and the recomputed one.
const SIGMA_REL_TOL: f64 = 1e-9;

/// The benchmark's own copy of the logical graph.
pub struct Mirror {
    /// `adj[u]` holds `(v, p_uv)` for every live edge `{u, v}`.
    adj: Vec<Vec<(u32, f64)>>,
    keywords: Vec<u32>,
}

fn keyword_mask(set: &KeywordSet) -> u32 {
    set.iter().fold(0, |m, k| m | 1 << k.0)
}

impl Mirror {
    /// Copies the generated graph's edge table and keywords.
    pub fn from_graph(g: &SocialNetwork) -> Self {
        let mut adj = vec![Vec::new(); g.num_vertices()];
        for (u, v, p_uv, p_vu) in g.edge_table_iter() {
            adj[u.index()].push((v.0, p_uv));
            adj[v.index()].push((u.0, p_vu));
        }
        Mirror {
            adj,
            keywords: g
                .vertices()
                .map(|v| keyword_mask(g.keyword_set(v)))
                .collect(),
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// `p_uv` when `{u, v}` is live.
    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<f64> {
        self.adj[u.index()]
            .iter()
            .find(|&&(w, _)| w == v.0)
            .map(|&(_, p)| p)
    }

    pub fn random_neighbor(&self, v: VertexId, s: &mut Stream) -> Option<VertexId> {
        let row = &self.adj[v.index()];
        (!row.is_empty()).then(|| VertexId(row[s.below(row.len())].0))
    }

    /// Applies one update; panics on an update the mirror cannot apply,
    /// since the stream generator only emits valid ones.
    pub fn apply(&mut self, update: &EdgeUpdate) {
        match *update {
            EdgeUpdate::Insert { u, v, p_uv, p_vu } => {
                assert!(self.weight(u, v).is_none(), "insert of a live edge");
                self.adj[u.index()].push((v.0, p_uv));
                self.adj[v.index()].push((u.0, p_vu));
            }
            EdgeUpdate::Remove { u, v } => {
                for (a, b) in [(u, v), (v, u)] {
                    let row = &mut self.adj[a.index()];
                    let at = row
                        .iter()
                        .position(|&(w, _)| w == b.0)
                        .expect("removal of a live edge");
                    row.swap_remove(at);
                }
            }
        }
    }

    /// The live edge set as sorted `(u < v, p_uv bits, p_vu bits)` rows.
    pub fn edge_rows(&self) -> Vec<(u32, u32, u64, u64)> {
        let mut rows = Vec::new();
        for (u, row) in self.adj.iter().enumerate() {
            let u = u as u32;
            for &(v, p_uv) in row.iter().filter(|&&(v, _)| u < v) {
                let p_vu = self.weight(VertexId(v), VertexId(u)).expect("symmetric");
                rows.push((u, v, p_uv.to_bits(), p_vu.to_bits()));
            }
        }
        rows.sort_unstable();
        rows
    }

    /// A fresh graph over the mirrored edge set, built from scratch.
    pub fn build_graph(&self, keywords_of: &SocialNetwork) -> SocialNetwork {
        let mut b = GraphBuilder::with_vertices(self.num_vertices());
        for v in keywords_of.vertices() {
            b.set_keywords(v, keywords_of.keyword_set(v).clone())
                .expect("vertex exists");
        }
        for (u, v, p_uv, p_vu) in self.edge_rows() {
            b.add_edge(
                VertexId(u),
                VertexId(v),
                f64::from_bits(p_uv),
                f64::from_bits(p_vu),
            );
        }
        b.build().expect("mirrored edge set is a valid graph")
    }
}

/// The live edge set of a graph under test, in [`Mirror::edge_rows`] form.
fn graph_edge_rows(g: &SocialNetwork) -> Vec<(u32, u32, u64, u64)> {
    let mut rows: Vec<_> = g
        .edge_table_iter()
        .map(|(u, v, p_uv, p_vu)| {
            if u.0 < v.0 {
                (u.0, v.0, p_uv.to_bits(), p_vu.to_bits())
            } else {
                (v.0, u.0, p_vu.to_bits(), p_uv.to_bits())
            }
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Checks that a maintained graph holds exactly the mirrored edge set.
pub fn check_edge_set(mirror: &Mirror, g: &SocialNetwork) -> Result<(), String> {
    let (want, got) = (mirror.edge_rows(), graph_edge_rows(g));
    if want == got {
        return Ok(());
    }
    let want_set: HashSet<_> = want.iter().collect();
    let got_set: HashSet<_> = got.iter().collect();
    Err(format!(
        "edge set differs from the mirror: {} missing, {} unexpected",
        want_set.difference(&got_set).count(),
        got_set.difference(&want_set).count()
    ))
}

/// `cpp(g, v)` of every vertex of the influenced community of `g`, by
/// multi-source max-product propagation from every member:
/// `cpp(v) = max over neighbours u of cpp(u) · p_uv`, members at 1, and only
/// vertices with `cpp ≥ θ` kept.
pub fn influenced(mirror: &Mirror, members: &[VertexId], theta: f64) -> HashMap<u32, f64> {
    struct Entry(f64, u32);
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let mut best: HashMap<u32, f64> = members.iter().map(|v| (v.0, 1.0)).collect();
    let mut heap: BinaryHeap<Entry> = members.iter().map(|v| Entry(1.0, v.0)).collect();
    while let Some(Entry(p, u)) = heap.pop() {
        if p < best[&u] {
            continue;
        }
        for &(w, p_uw) in &mirror.adj[u as usize] {
            let q = p * p_uw;
            if q >= theta && best.get(&w).is_none_or(|&b| q > b) {
                best.insert(w, q);
                heap.push(Entry(q, w));
            }
        }
    }
    best
}

/// A sum in ascending order, so it does not depend on map order.
fn sorted_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    values.iter().sum()
}

/// σ(g): the summed `cpp` over the influenced community.
pub fn influential_score(mirror: &Mirror, members: &[VertexId], theta: f64) -> f64 {
    sorted_sum(influenced(mirror, members, theta).into_values())
}

/// The diversity score `D(S) = Σ_v max over g ∈ S of cpp(g, v)`.
pub fn diversity(mirror: &Mirror, communities: &[SeedCommunity], theta: f64) -> f64 {
    let mut best: HashMap<u32, f64> = HashMap::new();
    for c in communities {
        let members: Vec<VertexId> = c.vertices.iter().collect();
        for (v, p) in influenced(mirror, &members, theta) {
            let entry = best.entry(v).or_insert(0.0);
            *entry = entry.max(p);
        }
    }
    sorted_sum(best.into_values())
}

/// `a` and `b` agree within [`SIGMA_REL_TOL`].
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SIGMA_REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The maximal k-truss of the subgraph induced by `members`, as adjacency:
/// induced edges lying in fewer than `need` triangles of the remaining
/// edges are peeled until none is left.
fn truss_edges(mirror: &Mirror, members: &HashSet<u32>, need: usize) -> HashMap<u32, HashSet<u32>> {
    let mut adj: HashMap<u32, HashSet<u32>> = members
        .iter()
        .map(|&u| {
            let inside = mirror.adj[u as usize].iter().map(|&(w, _)| w);
            (u, inside.filter(|w| members.contains(w)).collect())
        })
        .collect();
    loop {
        let weak: Vec<(u32, u32)> = adj
            .iter()
            .flat_map(|(&u, row)| row.iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v && adj[&u].intersection(&adj[&v]).count() < need)
            .collect();
        if weak.is_empty() {
            return adj;
        }
        for (u, v) in weak {
            adj.get_mut(&u).expect("member").remove(&v);
            adj.get_mut(&v).expect("member").remove(&u);
        }
    }
}

/// Hop distances from `source` over the edges `next` yields.
fn hops_from(source: u32, next: impl Fn(u32) -> Vec<u32>) -> HashMap<u32, u32> {
    let mut dist = HashMap::from([(source, 0)]);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        for w in next(u) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Checks one community against Definition 2 for `query` and recomputes σ.
/// A community is a subgraph whose edges are those of the maximal k-truss
/// of its induced subgraph: every member must be reached from the centre
/// over them. An induced edge in fewer than k − 2 triangles is not part of
/// the community and does not make it invalid.
pub fn validate_community(
    mirror: &Mirror,
    query: &TopLQuery,
    c: &SeedCommunity,
) -> Result<(), String> {
    let members: HashSet<u32> = c.vertices.iter().map(|v| v.0).collect();
    let center = c.center.0;
    if !members.contains(&center) {
        return Err(format!("community does not hold its centre {center}"));
    }
    let q_mask = keyword_mask(&query.keywords);
    if let Some(v) = members
        .iter()
        .find(|&&v| mirror.keywords[v as usize] & q_mask == 0)
    {
        return Err(format!("member {v} shares no query keyword"));
    }
    // the community's edges: the maximal k-truss of its induced subgraph
    let need = query.support.saturating_sub(2) as usize;
    let truss = truss_edges(mirror, &members, need);
    let reached = hops_from(center, |u| truss[&u].iter().copied().collect());
    if reached.len() != members.len() {
        return Err(format!(
            "community is disconnected: {} of {} members reachable from the centre \
             over edges in at least k - 2 = {need} triangles",
            reached.len(),
            members.len()
        ));
    }
    // The radius is measured over all induced edges, as the extraction
    // does. Measured over the truss edges alone, extraction returns
    // members beyond r after edge updates; see README.md.
    let dist = hops_from(center, |u| {
        let row = mirror.adj[u as usize].iter().map(|&(w, _)| w);
        row.filter(|w| members.contains(w)).collect()
    });
    if let Some((v, d)) = dist.iter().find(|&(_, &d)| d > query.radius) {
        return Err(format!(
            "member {v} is {d} hops from the centre (r = {})",
            query.radius
        ));
    }
    let vertices: Vec<VertexId> = c.vertices.iter().collect();
    let sigma = influential_score(mirror, &vertices, query.theta);
    if !close(sigma, c.influential_score) {
        return Err(format!(
            "reported sigma {} differs from the recomputed {sigma}",
            c.influential_score
        ));
    }
    Ok(())
}

/// Checks a whole Top-L answer: at most L communities, scores
/// non-increasing, distinct vertex sets, and every community valid.
pub fn validate_answer(
    mirror: &Mirror,
    query: &TopLQuery,
    answer: &TopLAnswer,
) -> Result<(), String> {
    let query = query.canonicalize().map_err(|e| e.to_string())?;
    validate_communities(mirror, &query, &answer.communities)?;
    if answer.communities.len() > query.l {
        return Err(format!(
            "{} communities for L = {}",
            answer.communities.len(),
            query.l
        ));
    }
    if let Some(w) = answer
        .communities
        .windows(2)
        .find(|w| w[0].influential_score < w[1].influential_score)
    {
        return Err(format!(
            "scores out of order: {} before {}",
            w[0].influential_score, w[1].influential_score
        ));
    }
    Ok(())
}

/// Every community valid, with pairwise distinct vertex sets.
pub fn validate_communities(
    mirror: &Mirror,
    query: &TopLQuery,
    communities: &[SeedCommunity],
) -> Result<(), String> {
    let mut seen = HashSet::new();
    for c in communities {
        if !seen.insert(c.vertices.as_slice().to_vec()) {
            return Err("two communities share one vertex set".to_string());
        }
        validate_community(mirror, query, c)?;
    }
    Ok(())
}

/// An answer with centres ignored: score bits and sorted vertex sets, in
/// score order, ties sorted by vertex set. Centres of bit-equal scores
/// depend on traversal order, so no comparison looks at them.
pub type Centerless = Vec<(u64, Vec<u32>)>;

pub fn centerless(communities: &[SeedCommunity]) -> Centerless {
    let mut rows: Centerless = communities
        .iter()
        .map(|c| {
            let mut ids: Vec<u32> = c.vertices.iter().map(|v| v.0).collect();
            ids.sort_unstable();
            (c.influential_score.to_bits(), ids)
        })
        .collect();
    rows.sort_by(|a, b| {
        f64::from_bits(b.0)
            .total_cmp(&f64::from_bits(a.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate_graph, UpdateStream};
    use icde_core::{IndexBuilder, PrecomputeConfig, TopLProcessor};

    /// A small graph of the benchmark family, its index and an answered
    /// query whose top community has more than one member.
    fn answered() -> (SocialNetwork, Mirror, TopLQuery, TopLAnswer) {
        let g = generate_graph(2_000);
        let index = IndexBuilder::new(PrecomputeConfig::new(2, vec![0.15, 0.3])).build(&g);
        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3, 4, 5]), 3, 2, 0.15, 5);
        let answer = TopLProcessor::new(&g, &index)
            .run(&query)
            .expect("query runs");
        assert!(
            answer.communities.len() >= 2,
            "the fixture needs two communities"
        );
        assert!(
            answer.communities[0].len() >= 3,
            "the fixture needs a real community"
        );
        let mirror = Mirror::from_graph(&g);
        (g, mirror, query, answer)
    }

    #[test]
    fn untouched_answer_passes() {
        let (_, mirror, query, answer) = answered();
        validate_answer(&mirror, &query, &answer).expect("kernel answer is valid");
    }

    #[test]
    fn dropped_keyword_fails() {
        let (_, mirror, mut query, answer) = answered();
        // drop from Q every keyword of one non-centre member
        let c = &answer.communities[0];
        let member = c.vertices.iter().find(|&v| v != c.center).expect("member");
        let kept: Vec<u32> = query
            .keywords
            .iter()
            .map(|k| k.0)
            .filter(|&k| mirror.keywords[member.index()] & 1 << k == 0)
            .collect();
        query.keywords = KeywordSet::from_ids(kept);
        assert!(validate_answer(&mirror, &query, &answer).is_err());
    }

    #[test]
    fn disconnected_member_fails() {
        let (_, mirror, query, mut answer) = answered();
        let c = &mut answer.communities[0];
        // a vertex far along the ring from the centre, carrying a query keyword
        let q_mask = keyword_mask(&query.keywords);
        let far = (0..mirror.num_vertices() as u32)
            .map(|i| (c.center.0 + 1_000 + i) % mirror.num_vertices() as u32)
            .find(|&v| mirror.keywords[v as usize] & q_mask != 0)
            .expect("a keyword-bearing vertex");
        c.vertices.insert(VertexId(far));
        let err = validate_answer(&mirror, &query, &answer).expect_err("must fail");
        assert!(err.contains("disconnected"), "{err}");
    }

    #[test]
    fn perturbed_score_fails() {
        let (_, mirror, query, mut answer) = answered();
        answer.communities[0].influential_score *= 1.0 + 1e-6;
        assert!(validate_answer(&mirror, &query, &answer).is_err());
    }

    #[test]
    fn out_of_order_list_fails() {
        let (_, mirror, query, mut answer) = answered();
        answer.communities.swap(0, 1);
        if answer.communities[0].influential_score == answer.communities[1].influential_score {
            answer.communities[1].influential_score -= 1.0;
        }
        assert!(validate_answer(&mirror, &query, &answer).is_err());
    }

    #[test]
    fn maintained_graph_missing_one_update_fails() {
        let (g, mut mirror, _, _) = answered();
        let mut stream = UpdateStream::new(5, &mirror);
        let mut maintained = g.clone();
        let mut last = None;
        for _ in 0..4 {
            for update in stream.next_batch(&mut mirror) {
                if let Some(previous) = last.replace(update) {
                    apply_to_graph(&mut maintained, previous);
                }
            }
        }
        assert!(
            check_edge_set(&mirror, &maintained).is_err(),
            "one update withheld"
        );
        apply_to_graph(&mut maintained, last.expect("stream emitted updates"));
        check_edge_set(&mirror, &maintained).expect("all updates applied");
    }

    fn apply_to_graph(g: &mut SocialNetwork, update: EdgeUpdate) {
        match update {
            EdgeUpdate::Insert { u, v, p_uv, p_vu } => {
                g.apply_edge_inserted(u, v, p_uv, p_vu)
                    .expect("valid insert");
            }
            EdgeUpdate::Remove { u, v } => {
                g.apply_edge_removed(u, v).expect("valid removal");
            }
        }
    }
}
