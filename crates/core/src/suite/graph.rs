//! Bipartite-graph construction and edge-cost computation (§4.1), with the
//! monotonicity optimization of §5.3.1.
//!
//! Edge costs require invoking the optimizer with rules disabled — for rule
//! pairs, `nC2` invocations per query in the worst case — so the number of
//! optimizer invocations is itself the cost metric of Figure 14.

use super::{RuleTarget, TestSuite};
use crate::framework::Framework;
use crate::supervise::{fan_out, settle, Quarantine, SITE_GRAPH};
use ruletest_common::{try_par_map, Result};
use ruletest_optimizer::OptimizerConfig;
use ruletest_telemetry::{Counter, Event, Stage};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A fully materialized bipartite graph (Figure 4 / Figure 7).
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    pub targets: Vec<RuleTarget>,
    pub k: usize,
    /// `Cost(q)` per query.
    pub node_cost: Vec<f64>,
    /// Queries covering each target.
    pub adjacency: Vec<Vec<usize>>,
    /// `(target, query) -> Cost(q, ¬R)`; present for every adjacency pair
    /// when built eagerly, or for the demanded subset when built through
    /// the pruned oracle.
    pub edges: HashMap<(usize, usize), f64>,
    /// Which target each query was generated for (drives BASELINE).
    pub generated_for: Vec<usize>,
    /// Optimizer invocations spent computing edge costs.
    pub optimizer_calls: u64,
}

/// Demand-driven edge-cost computation with caching and invocation
/// counting. Thread-safe: campaign workers probing different targets
/// share one oracle.
pub struct EdgeOracle<'a> {
    fw: &'a Framework,
    suite: &'a TestSuite,
    cache: Mutex<HashMap<(usize, usize), f64>>,
    calls: AtomicU64,
}

impl<'a> EdgeOracle<'a> {
    pub fn new(fw: &'a Framework, suite: &'a TestSuite) -> Self {
        Self {
            fw,
            suite,
            cache: Mutex::new(HashMap::new()),
            calls: AtomicU64::new(0),
        }
    }

    /// `Cost(q, ¬R)` for query `q` and target `t` — one edge-cost
    /// computation (the Figure 14 invocation metric) per cache miss. The
    /// underlying optimizer call goes through the invocation cache, so
    /// repeated `(tree, mask)` pairs across graph builds cost nothing; the
    /// counter still reports the logical per-edge invocations §5.3.1
    /// prunes.
    pub fn edge_cost(&self, t: usize, q: usize) -> Result<f64> {
        if let Some(&c) = self.cache.lock().expect("edge cache poisoned").get(&(t, q)) {
            return Ok(c);
        }
        let rules = self.suite.targets[t].rules();
        let res = self.fw.optimizer.optimize_with_cached(
            &self.suite.queries[q].tree,
            &OptimizerConfig::disabling(&rules),
        )?;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.fw.telemetry.incr(Counter::OracleCalls);
        self.cache
            .lock()
            .expect("edge cache poisoned")
            .insert((t, q), res.cost);
        Ok(res.cost)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn into_edges(self) -> (HashMap<(usize, usize), f64>, u64) {
        let calls = self.calls.load(Ordering::Relaxed);
        (self.cache.into_inner().expect("edge cache poisoned"), calls)
    }
}

fn skeleton(suite: &TestSuite) -> (Vec<f64>, Vec<Vec<usize>>, Vec<usize>) {
    let node_cost: Vec<f64> = suite.queries.iter().map(|q| q.cost).collect();
    let adjacency: Vec<Vec<usize>> = (0..suite.targets.len())
        .map(|t| suite.covering(t))
        .collect();
    let generated_for = suite.queries.iter().map(|q| q.generated_for).collect();
    (node_cost, adjacency, generated_for)
}

/// Builds the graph eagerly: every adjacency edge's cost is computed — the
/// exhaustive strategy Figure 14 compares against. Any error returns and
/// a panic unwinds to the caller.
pub fn build_graph(fw: &Framework, suite: &TestSuite) -> Result<BipartiteGraph> {
    build_graph_with(fw, suite, None).map(|(_, graph)| graph)
}

/// [`build_graph`] under a quarantine: a target whose edge computation
/// fails is quarantined and dropped *together with its dedicated
/// queries* (the suite shrinks), rather than aborting the campaign.
/// Returns the (possibly shrunk) suite the graph indexes.
pub fn build_graph_supervised(
    fw: &Framework,
    suite: &TestSuite,
    quarantine: &mut Quarantine,
) -> Result<(TestSuite, BipartiteGraph)> {
    build_graph_with(fw, suite, Some(quarantine))
}

/// The eager graph driver under either supervision policy (see
/// [`crate::supervise`]). Targets quarantined by an earlier run leave
/// with their queries before any edge is computed; targets that fail now
/// leave afterwards, and the survivors' edges are remapped onto the
/// shrunk suite. Without a quarantine nothing leaves and both drops are
/// the identity.
pub(crate) fn build_graph_with(
    fw: &Framework,
    suite: &TestSuite,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<(TestSuite, BipartiteGraph)> {
    let known_bad: BTreeSet<usize> = match quarantine.as_deref() {
        Some(q) => (0..suite.targets.len())
            .filter(|&t| q.contains_input(SITE_GRAPH, &suite.targets[t].label(&fw.optimizer)))
            .collect(),
        None => BTreeSet::new(),
    };
    let (base, _) = drop_targets(suite.clone(), &known_bad);
    let adjacency: Vec<Vec<usize>> = (0..base.targets.len()).map(|t| base.covering(t)).collect();
    // One worker per target: every (t, q) edge belongs to exactly one
    // target, so workers never race on an edge, and edge costs are pure,
    // so the edge lists are identical at any thread count.
    let indexed: Vec<usize> = (0..adjacency.len()).collect();
    let results = fan_out(fw, quarantine.is_some(), SITE_GRAPH, &indexed, |_, &t| {
        // Per-target span inside the leaf closure: the tree shape stays
        // identical at any thread count.
        let _span = fw.telemetry.span(Stage::Graph);
        let rules = base.targets[t].rules();
        let mut edges = Vec::with_capacity(adjacency[t].len());
        for &q in &adjacency[t] {
            let res = fw
                .optimizer
                .optimize_with_cached(&base.queries[q].tree, &OptimizerConfig::disabling(&rules))?;
            fw.telemetry.incr(Counter::OracleCalls);
            edges.push((q, res.cost));
        }
        Ok(edges)
    });

    let mut failed = BTreeSet::new();
    let mut per_target = Vec::with_capacity(results.len());
    for (t, result) in results.into_iter().enumerate() {
        let target = base.targets[t];
        let settled = settle(fw, SITE_GRAPH, quarantine.as_deref_mut(), result, || {
            let label = target.label(&fw.optimizer);
            (label, None, target.rule_names(&fw.optimizer))
        })?;
        match settled {
            Some(edges) => per_target.push(edges),
            None => {
                failed.insert(t);
            }
        }
    }

    let (suite, query_remap) = drop_targets(base, &failed);
    let mut edges: HashMap<(usize, usize), f64> = HashMap::new();
    for (t, list) in per_target.into_iter().enumerate() {
        for (q, c) in list {
            if let Some(nq) = query_remap[q] {
                edges.insert((t, nq), c);
            }
        }
    }
    let (node_cost, adjacency, generated_for) = skeleton(&suite);
    let graph = BipartiteGraph {
        targets: suite.targets.clone(),
        k: suite.k,
        node_cost,
        adjacency,
        optimizer_calls: edges.len() as u64,
        edges,
        generated_for,
    };
    Ok((suite, graph))
}

/// Drops the targets at `drop` from `suite`, discarding their dedicated
/// queries and retagging the survivors. Returns the shrunk suite plus
/// the query remap (`old -> Some(new)`).
fn drop_targets(suite: TestSuite, drop: &BTreeSet<usize>) -> (TestSuite, Vec<Option<usize>>) {
    let mut target_remap = Vec::with_capacity(suite.targets.len());
    let mut targets = Vec::new();
    for (t, target) in suite.targets.into_iter().enumerate() {
        if drop.contains(&t) {
            target_remap.push(None);
        } else {
            target_remap.push(Some(targets.len()));
            targets.push(target);
        }
    }
    let mut query_remap = Vec::with_capacity(suite.queries.len());
    let mut queries = Vec::new();
    for mut q in suite.queries {
        match target_remap[q.generated_for] {
            Some(nt) => {
                query_remap.push(Some(queries.len()));
                q.generated_for = nt;
                queries.push(q);
            }
            None => query_remap.push(None),
        }
    }
    let suite = TestSuite {
        targets,
        queries,
        ..suite
    };
    (suite, query_remap)
}

/// Builds the graph with the §5.3.1 pruning: for each target, queries are
/// visited in increasing `Cost(q)` order while maintaining the k cheapest
/// edges seen; once the next query's node cost reaches the current k-th
/// cheapest edge cost, no remaining query can improve the top-k (because
/// `Cost(q) <= Cost(q, ¬R)` for a well-behaved optimizer) and the scan
/// stops. Only the edges the TopKIndependent algorithm can ever use are
/// computed.
pub fn build_graph_pruned(fw: &Framework, suite: &TestSuite) -> Result<BipartiteGraph> {
    let (node_cost, adjacency, generated_for) = skeleton(suite);
    let oracle = EdgeOracle::new(fw, suite);
    // The §5.3.1 scan is sequential *within* a target (each edge decides
    // whether to keep scanning), but targets are independent — the
    // parallel campaign fans out across them with the pruning intact.
    let indexed: Vec<usize> = (0..adjacency.len()).collect();
    try_par_map(fw.parallelism.threads, &indexed, |_, &t| {
        let _span = fw.telemetry.span(Stage::Graph);
        let adj = &adjacency[t];
        let mut by_node_cost = adj.clone();
        by_node_cost.sort_by(|&a, &b| node_cost[a].total_cmp(&node_cost[b]));
        // Max-heap of the k cheapest edge costs seen so far.
        let mut heap: std::collections::BinaryHeap<ordered::F64> =
            std::collections::BinaryHeap::new();
        let mut scanned = 0u32;
        for &q in &by_node_cost {
            if heap.len() == suite.k {
                let kth = heap.peek().expect("heap is full").0;
                if node_cost[q] >= kth {
                    break; // every remaining edge is at least this expensive
                }
            }
            let c = oracle.edge_cost(t, q)?;
            scanned += 1;
            if heap.len() < suite.k {
                heap.push(ordered::F64(c));
            } else if c < heap.peek().expect("heap is full").0 {
                heap.pop();
                heap.push(ordered::F64(c));
            }
        }
        let pruned = adj.len() as u32 - scanned;
        fw.telemetry.add(Counter::EdgesPruned, pruned as u64);
        fw.telemetry.event(|| Event::GraphProbe {
            target: t as u32,
            scanned,
            pruned,
        });
        Ok(())
    })?;
    let (edges, optimizer_calls) = oracle.into_edges();
    Ok(BipartiteGraph {
        targets: suite.targets.clone(),
        k: suite.k,
        node_cost,
        adjacency,
        edges,
        generated_for,
        optimizer_calls,
    })
}

mod ordered {
    /// Total order wrapper for f64 costs. Uses `total_cmp` so a NaN cost
    /// (possible when a cost model divides by zero) orders after every
    /// finite value instead of panicking the heap operations.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct F64(pub f64);
    impl Eq for F64 {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::generate::{GenConfig, Strategy};
    use crate::suite::{generate_suite, singleton_targets};

    fn small_suite() -> (Framework, TestSuite) {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let suite =
            generate_suite(&fw, targets, 2, Strategy::Pattern, &GenConfig::default()).unwrap();
        (fw, suite)
    }

    #[test]
    fn nan_costs_sort_and_heap_deterministically_instead_of_panicking() {
        // Regression: `ordered::F64`'s `Ord` used
        // `partial_cmp().expect("finite costs")` and panicked on NaN.
        let mut heap = std::collections::BinaryHeap::new();
        for c in [3.0, f64::NAN, 1.0, 2.0] {
            heap.push(ordered::F64(c));
        }
        // NaN is the max under `total_cmp`, so it pops first; the rest pop
        // in descending order.
        assert!(heap.pop().unwrap().0.is_nan());
        assert_eq!(heap.pop().unwrap().0, 3.0);
        assert_eq!(heap.pop().unwrap().0, 2.0);
        assert_eq!(heap.pop().unwrap().0, 1.0);

        let mut costs = [2.0, f64::NAN, 1.0];
        costs.sort_by(f64::total_cmp);
        assert_eq!(costs[0], 1.0);
        assert_eq!(costs[1], 2.0);
        assert!(costs[2].is_nan());
    }

    #[test]
    fn eager_graph_has_all_adjacency_edges_with_monotone_costs() {
        let (fw, suite) = small_suite();
        let g = build_graph(&fw, &suite).unwrap();
        let mut total_edges = 0;
        for (t, adj) in g.adjacency.iter().enumerate() {
            assert!(adj.len() >= suite.k);
            for &q in adj {
                let e = g.edges[&(t, q)];
                assert!(
                    e >= g.node_cost[q] - 1e-9,
                    "edge cost below node cost: {} < {}",
                    e,
                    g.node_cost[q]
                );
                total_edges += 1;
            }
        }
        assert_eq!(g.edges.len(), total_edges);
        assert_eq!(g.optimizer_calls, total_edges as u64);
    }

    #[test]
    fn pruned_graph_spends_fewer_calls_and_keeps_the_topk_edges() {
        let (fw, suite) = small_suite();
        let eager = build_graph(&fw, &suite).unwrap();
        let pruned = build_graph_pruned(&fw, &suite).unwrap();
        assert!(pruned.optimizer_calls <= eager.optimizer_calls);
        // The k cheapest edges per target must be present and identical.
        for (t, adj) in eager.adjacency.iter().enumerate() {
            let mut costs: Vec<f64> = adj.iter().map(|&q| eager.edges[&(t, q)]).collect();
            costs.sort_by(f64::total_cmp);
            let kth = costs[suite.k - 1];
            let cheap: Vec<usize> = adj
                .iter()
                .copied()
                .filter(|&q| eager.edges[&(t, q)] <= kth + 1e-9)
                .collect();
            // At least k of the cheap edges were computed by the pruned
            // build (ties may differ, so check achievable coverage).
            let present = cheap
                .iter()
                .filter(|&&q| pruned.edges.contains_key(&(t, q)))
                .count();
            assert!(
                present >= suite.k.min(cheap.len()),
                "pruned build lost top-k edges for target {t}"
            );
        }
    }

    #[test]
    fn oracle_caches_repeated_edges() {
        let (fw, suite) = small_suite();
        let oracle = EdgeOracle::new(&fw, &suite);
        let a = oracle.edge_cost(0, 0).unwrap();
        let b = oracle.edge_cost(0, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(oracle.calls(), 1);
    }
}
