//! Per-layer samples, and the ones read from a traced campaign's
//! `RunReport` for layers that run only inside another call (the
//! optimizer inside generation, the executor inside correctness).

use ruletest::telemetry::{Counter, Hist, Json, RunReport};
use std::collections::BTreeMap;

/// Samples per metric name, one per repetition.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.0.iter().map(|(name, v)| (name.as_str(), v.as_slice()))
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, values)| {
                    let values = values.iter().map(|&v| Json::num(v)).collect();
                    (name.clone(), Json::Arr(values))
                })
                .collect(),
        )
    }

    pub fn from_json(doc: &Json) -> Option<Samples> {
        let mut samples = Samples::default();
        for (name, values) in doc.as_obj()? {
            for v in values.as_arr()? {
                samples.add(name, v.as_f64()?);
            }
        }
        Some(samples)
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Adds the report-derived per-layer samples of one traced campaign.
/// Layers a workload does not run read 0.
pub fn from_report(report: &RunReport, s: &mut Samples) {
    let count = |c: Counter| report.counter(c) as f64;
    s.add("generate.trials", count(Counter::GenTrials));
    s.add(
        "generate.hit_ratio",
        ratio(count(Counter::GenHits), count(Counter::GenTrials)),
    );
    s.add("graph.probes", count(Counter::OracleCalls));
    s.add("graph.pruned", count(Counter::EdgesPruned));
    // Invocation-cache misses served from the persisted store instead of
    // an optimizer compute.
    s.add("cache.warm_hits", count(Counter::CacheWarmHits));
    s.add("correctness.executions", count(Counter::Executions));
    s.add(
        "correctness.identical_ratio",
        ratio(
            count(Counter::SkippedIdentical),
            count(Counter::Validations),
        ),
    );

    let spans = &report.profile.spans;
    let (mut exec_ns, mut exec_runs, mut opt_wall, mut opt_self) = (0u64, 0u64, 0u64, 0u64);
    let (mut mutation_wall, mut mutation_self) = (0u64, 0u64);
    for row in spans {
        match row.leaf() {
            "execution" => {
                exec_ns += row.wall_ns;
                exec_runs += row.count;
            }
            "optimize" => {
                opt_wall += row.wall_ns;
                opt_self += row.self_ns();
            }
            "mutation" => {
                mutation_wall += row.wall_ns;
                mutation_self += row.self_ns();
            }
            _ => {}
        }
    }
    s.add("executor.s", exec_ns as f64 / 1e9);
    s.add("executor.runs", exec_runs as f64);
    s.add(
        "optimizer.unattributed_share",
        ratio(opt_self as f64, opt_wall as f64),
    );
    s.add(
        "mutate.self_share",
        ratio(mutation_self as f64, mutation_wall as f64),
    );

    let hist = |h: Hist, p: f64| {
        report
            .histograms
            .get(h.name())
            .map_or(0.0, |snap| snap.percentile(p))
    };
    s.add(
        "optimizer.invocation_us.p50",
        hist(Hist::InvocationMicros, 50.0),
    );
    s.add(
        "optimizer.invocation_us.p99",
        hist(Hist::InvocationMicros, 99.0),
    );
    s.add("optimizer.memo_exprs.p99", hist(Hist::MemoExprs, 99.0));
    let rules = report.profile.rules.values();
    let (binds, fires, bind_ns, subst_ns) = rules.fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.binds,
            acc.1 + r.fires,
            acc.2 + r.bind_ns,
            acc.3 + r.subst_ns,
        )
    });
    s.add("optimizer.bind_s", bind_ns as f64 / 1e9);
    s.add("optimizer.subst_s", subst_ns as f64 / 1e9);
    s.add("optimizer.fire_ratio", ratio(fires as f64, binds as f64));
}
