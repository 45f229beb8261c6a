//! Microbenchmarks for the test-suite compression algorithms (§5) on
//! synthetic bipartite instances of growing size. Runs on the
//! dependency-free std::time harness.

use ruletest_bench::harness;
use ruletest_common::Rng;
use ruletest_core::compress::{matching, smc, topk, Instance};
use std::collections::HashMap;

/// A synthetic instance: `targets` rules, `k` per rule, with dedicated
/// queries plus random cross-coverage; edge costs exceed node costs
/// (the monotonicity invariant).
fn synth(targets: usize, k: usize, seed: u64) -> Instance {
    let mut rng = Rng::new(seed);
    let nq = targets * k;
    let node_cost: Vec<f64> = (0..nq).map(|_| 10.0 + rng.gen_below(1000) as f64).collect();
    let mut adjacency = vec![Vec::new(); targets];
    let mut edge_cost = HashMap::new();
    let mut generated_for = vec![0usize; nq];
    for (t, adj) in adjacency.iter_mut().enumerate() {
        for slot in 0..k {
            let q = t * k + slot;
            generated_for[q] = t;
            adj.push(q);
            edge_cost.insert(
                (t, q),
                node_cost[q] * (1.0 + rng.gen_below(300) as f64 / 100.0),
            );
        }
    }
    // Cross coverage: each query additionally covers ~25% of other targets.
    for q in 0..nq {
        for (t, adj) in adjacency.iter_mut().enumerate() {
            if generated_for[q] != t && rng.gen_bool(0.25) {
                adj.push(q);
                edge_cost.insert(
                    (t, q),
                    node_cost[q] * (1.0 + rng.gen_below(300) as f64 / 100.0),
                );
            }
        }
    }
    Instance {
        k,
        node_cost,
        adjacency,
        edge_cost,
        generated_for,
    }
}

fn main() {
    let mut group = harness::group("compression");
    for &targets in &[10usize, 30, 100] {
        let inst = synth(targets, 10, 42);
        group.bench(&format!("smc/{targets}"), || {
            smc(&inst).unwrap().total_cost(&inst)
        });
        group.bench(&format!("topk/{targets}"), || {
            topk(&inst).unwrap().total_cost(&inst)
        });
    }
    // The Hungarian solver on the no-sharing variant.
    let inst = synth(12, 4, 7);
    group.bench("matching/12x4", || {
        matching(&inst).unwrap().total_cost(&inst)
    });
    group.finish();
}
