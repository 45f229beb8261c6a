//! The `audit-cold` and `audit-warm` workloads: the supervised audit
//! campaign of `ruletest audit --cache-dir DIR`, from an empty store or
//! from a store filled during set-up.

use crate::child::{spawn, Job, Mode, Report};
use crate::layers::{self, ratio, Samples};
use crate::measure::{cpu_seconds, mean, peak_rss_mib, secs};
use crate::{Run, Scale};
use ruletest::common::{poolstats, Parallelism, Rng};
use ruletest::core::compress::{baseline, smc, topk};
use ruletest::core::persist::{
    graph_to_json, suite_to_json, CampaignStore, BOUNDARY_EXECUTE, BOUNDARY_GRAPH, BOUNDARY_SUITE,
    STAGE_GRAPH, STAGE_SUITE,
};
use ruletest::core::{
    build_graph_supervised, execute_solution_supervised, final_persist, generate_suite_supervised,
    run_checkpointed_campaign_supervised, singleton_targets, BipartiteGraph, CampaignParams,
    CorrectnessReport, Framework, FrameworkConfig, GenConfig, Instance, Quarantine, Solution,
    Strategy, TestSuite,
};
use ruletest::executor::ExecConfig;
use ruletest::optimizer::{CacheKey, Fnv64, OptimizerConfig, SnapshotStore};
use ruletest::sql::parse_sql;
use ruletest::storage::{tpch_database, TpchConfig};
use ruletest::telemetry::{Json, Stage, Telemetry};
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Generation padding of `ruletest audit` (part of the checkpoint identity).
const PAD_OPS: usize = 2;

/// What one campaign produced, reduced to what the output checks compare.
struct Campaign {
    /// Hash of the deterministic slice: suite SQL and rule sets, query and
    /// edge cost bits, the TOPK assignment and the correctness report
    /// counts.
    digest: u64,
    /// Rules brought to a verdict.
    verdicts: usize,
    /// Physical optimizer computes (`Optimizer::invocation_count`).
    invocations: u64,
    executions: u64,
    /// Quarantine entries.
    quarantined: u64,
    /// Quarantine entries plus quarantined or executor-refused validations.
    failures: u64,
    bugs: usize,
}

/// Wall time of each stage call of one staged campaign.
#[derive(Default)]
struct StageTimes {
    load: f64,
    generate: f64,
    graph: f64,
    compress: f64,
    correctness: f64,
    save: f64,
}

impl StageTimes {
    fn total(&self) -> f64 {
        self.load + self.generate + self.graph + self.compress + self.correctness + self.save
    }
}

fn params(scale: &Scale, seed: u64) -> CampaignParams {
    CampaignParams {
        rules: scale.rules,
        k: scale.k,
        seed,
        pad_ops: PAD_OPS,
        max_trials: GenConfig::default().max_trials,
    }
}

fn framework(scale: &Scale, seed: u64, telemetry: Telemetry) -> Result<Framework, String> {
    Framework::new(&FrameworkConfig {
        parallelism: Parallelism {
            threads: scale.threads,
            seed,
        },
        telemetry,
        ..Default::default()
    })
    .map_err(|e| format!("framework construction: {e}"))
}

/// The generation seeds of one run: `n` values drawn from `seed`, so a
/// run covers several suites and two runs with neighbouring seeds share
/// none.
fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u64() % 1_000_000).collect()
}

/// Empties (or creates) a campaign's cache directory.
fn reset_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {}: {e}", dir.display())),
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Total size of the files under `dir`, in bytes.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn digest(suite: &TestSuite, graph: &BipartiteGraph, sol: &Solution, r: &CorrectnessReport) -> u64 {
    let mut h = Fnv64::new();
    for q in &suite.queries {
        h.write_str(&q.sql)
            .write_u64(q.cost.to_bits())
            .write_u64(q.generated_for as u64);
        for rule in &q.rule_set {
            h.write_u64(u64::from(rule.0));
        }
    }
    let mut edges: Vec<_> = graph.edges.iter().collect();
    edges.sort_by_key(|(key, _)| **key);
    for (&(t, q), cost) in edges {
        h.write_u64(t as u64)
            .write_u64(q as u64)
            .write_u64(cost.to_bits());
    }
    for queries in &sol.assignment {
        h.write_u64(queries.len() as u64);
        for &q in queries {
            h.write_u64(q as u64);
        }
    }
    for count in [
        r.validations,
        r.executions,
        r.skipped_identical,
        r.skipped_expensive,
        r.skipped_unsupported,
        r.skipped_quarantined,
        r.bugs.len(),
    ] {
        h.write_u64(count as u64);
    }
    h.write_u64(r.estimated_cost.to_bits()).finish()
}

fn summarize(
    fw: &Framework,
    suite: &TestSuite,
    graph: &BipartiteGraph,
    sol: &Solution,
    report: &CorrectnessReport,
    quarantine: &Quarantine,
) -> Campaign {
    Campaign {
        digest: digest(suite, graph, sol, report),
        verdicts: suite.targets.len(),
        invocations: fw.optimizer.invocation_count(),
        executions: report.executions as u64,
        quarantined: quarantine.len() as u64,
        failures: (quarantine.len() + report.skipped_quarantined + report.skipped_unsupported)
            as u64,
        bugs: report.bugs.len(),
    }
}

fn compress(graph: &BipartiteGraph) -> Result<(Instance, Solution), String> {
    let inst = Instance::from_graph(graph);
    baseline(&inst).map_err(|e| format!("BASELINE: {e}"))?;
    smc(&inst).map_err(|e| format!("SMC: {e}"))?;
    let sol = topk(&inst).map_err(|e| format!("TOPK: {e}"))?;
    Ok((inst, sol))
}

/// One campaign through the calls `ruletest audit --cache-dir DIR` makes,
/// in its order.
fn audit_campaign(fw: &Framework, params: &CampaignParams, dir: &Path) -> Result<Campaign, String> {
    let mut quarantine = Quarantine::new();
    let run =
        run_checkpointed_campaign_supervised(fw, params, Some(dir), false, None, &mut quarantine)
            .map_err(|e| format!("generation and graph stages: {e}"))?
            .ok_or("campaign stopped without a stop hook")?;
    let (inst, sol) = compress(&run.graph)?;
    let report = execute_solution_supervised(
        fw,
        &run.suite,
        &inst,
        &sol,
        &ExecConfig::default(),
        &mut quarantine,
    )
    .map_err(|e| format!("correctness stage: {e}"))?;
    if let Some(store) = &run.store {
        store
            .save_quarantine(&quarantine)
            .map_err(|e| format!("saving quarantine: {e}"))?;
    }
    final_persist(fw).map_err(|e| format!("final persist: {e}"))?;
    Ok(summarize(
        fw,
        &run.suite,
        &run.graph,
        &sol,
        &report,
        &quarantine,
    ))
}

/// The same campaign with each stage called, and timed, on its own:
/// the stage sequence of `run_checkpointed_campaign_supervised` (open the
/// stores, then generation and graph, each followed by its checkpoint)
/// and then the rest of [`audit_campaign`]. The snapshot store loads its
/// shards lazily on the first probe that maps to each; the load stage
/// probes until every stored entry is resident, so shard decoding is
/// timed as loading rather than hidden inside generation.
fn staged_campaign(
    fw: &Framework,
    params: &CampaignParams,
    dir: &Path,
    stored_entries: usize,
    times: &mut StageTimes,
) -> Result<(Campaign, usize), String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let core = |what: &'static str| move |e: ruletest::common::Error| format!("{what}: {e}");
    let mut quarantine = Quarantine::new();

    let t = Instant::now();
    let fingerprint = fw.campaign_fingerprint();
    let cstore = CampaignStore::open(dir, fingerprint, params, fw.telemetry.is_enabled())
        .map_err(io("opening checkpoint dir"))?;
    cstore.clear().map_err(io("clearing checkpoints"))?;
    let store = Arc::new(SnapshotStore::open(dir, fingerprint, None).map_err(io("opening store"))?);
    fw.optimizer.attach_snapshot_store(Arc::clone(&store));
    let probe = parse_sql(&fw.db.catalog, "SELECT n_name FROM nation").map_err(core("probe"))?;
    let mut config = OptimizerConfig::default();
    for max_exprs in 1..4096 {
        if store.resident_entries() >= stored_entries {
            break;
        }
        config.max_exprs = max_exprs;
        store.peek_warm(&CacheKey::new(&probe, &config));
    }
    times.load = secs(t);

    let checkpoint = |name: &str, boundary: u64, payload: Json, q: &Quarantine| {
        {
            let _span = fw.telemetry.span(Stage::Persist);
            fw.optimizer
                .persist_cache()
                .map_err(io("persisting invocation cache"))?;
        }
        cstore
            .save_stage(name, boundary, payload, &fw.run_report())
            .map_err(io("writing stage checkpoint"))?;
        cstore.save_quarantine(q).map_err(io("writing quarantine"))
    };

    store.set_boundary(BOUNDARY_SUITE);
    let t = Instant::now();
    let targets = singleton_targets(fw, params.rules);
    let suite = generate_suite_supervised(
        fw,
        targets,
        params.k,
        Strategy::Pattern,
        &params.gen_config(),
        &mut quarantine,
    )
    .map_err(core("generation stage"))?;
    times.generate = secs(t);
    let t = Instant::now();
    checkpoint(
        STAGE_SUITE,
        BOUNDARY_SUITE,
        suite_to_json(&suite),
        &quarantine,
    )?;
    times.save = secs(t);

    store.set_boundary(BOUNDARY_GRAPH);
    let t = Instant::now();
    let (suite, graph) =
        build_graph_supervised(fw, &suite, &mut quarantine).map_err(core("graph stage"))?;
    times.graph = secs(t);
    let t = Instant::now();
    let payload = Json::obj(vec![
        ("suite", suite_to_json(&suite)),
        ("graph", graph_to_json(&graph)),
    ]);
    checkpoint(STAGE_GRAPH, BOUNDARY_GRAPH, payload, &quarantine)?;
    times.save += secs(t);
    store.set_boundary(BOUNDARY_EXECUTE);

    let t = Instant::now();
    let (inst, sol) = compress(&graph)?;
    times.compress = secs(t);
    let t = Instant::now();
    let report = execute_solution_supervised(
        fw,
        &suite,
        &inst,
        &sol,
        &ExecConfig::default(),
        &mut quarantine,
    )
    .map_err(core("correctness stage"))?;
    times.correctness = secs(t);
    let t = Instant::now();
    cstore
        .save_quarantine(&quarantine)
        .map_err(io("saving quarantine"))?;
    final_persist(fw).map_err(core("final persist"))?;
    times.save += secs(t);
    let campaign = summarize(fw, &suite, &graph, &sol, &report, &quarantine);
    Ok((campaign, store.resident_entries()))
}

/// Runs one campaign of `job` in this process (the child side).
pub fn campaign(job: &Job, scale: &Scale) -> Result<Report, String> {
    let cold = job.workload == "audit-cold";
    if cold {
        reset_dir(&job.dir)?;
    }
    let p = params(scale, job.gen_seed);
    let mut r = Report::default();
    let s = &mut r.samples;
    let c = match job.mode {
        Mode::EndToEnd => {
            let t = Instant::now();
            let fw = framework(scale, job.gen_seed, Telemetry::disabled())?;
            // The warm workload's set-up is the store fill, timed by the
            // orchestrating process.
            if cold {
                s.add("setup_s", secs(t));
            }
            let cpu = cpu_seconds();
            let t = Instant::now();
            let c = audit_campaign(&fw, &p, &job.dir)?;
            let wall = secs(t);
            s.add("campaign_s", wall);
            if let Some((a, b)) = cpu.zip(cpu_seconds()) {
                s.add("campaign_cpu_s", b - a);
            }
            s.add("verdicts_per_s", c.verdicts as f64 / wall);
            r.stored = fw
                .optimizer
                .snapshot_store()
                .map_or(0, |st| st.resident_entries());
            c
        }
        Mode::Untraced => {
            let fw = framework(scale, job.gen_seed, Telemetry::disabled())?;
            let t = Instant::now();
            let (c, _) =
                staged_campaign(&fw, &p, &job.dir, job.stored, &mut StageTimes::default())?;
            s.add("untraced_campaign_s", secs(t));
            if let Some(peak) = peak_rss_mib() {
                s.add("peak_rss_mb", peak);
            }
            c
        }
        Mode::Traced => {
            let t = Instant::now();
            tpch_database(&TpchConfig::default()).map_err(|e| format!("datagen: {e}"))?;
            s.add("storage.datagen_s", secs(t));
            let fw = framework(scale, job.gen_seed, Telemetry::enabled())?;
            let mut times = StageTimes::default();
            let t = Instant::now();
            let (c, resident) = staged_campaign(&fw, &p, &job.dir, job.stored, &mut times)?;
            let wall = secs(t);
            s.add("traced_campaign_s", wall);
            s.add("stages.coverage", times.total() / wall);
            s.add("generate.s", times.generate);
            s.add("graph.s", times.graph);
            s.add("compress.s", times.compress);
            s.add("correctness.s", times.correctness);
            s.add("persist.load_s", times.load);
            s.add("persist.save_s", times.save);
            s.add("persist.bytes", dir_bytes(&job.dir) as f64);
            s.add("persist.entries", resident as f64);
            s.add("invocations", c.invocations as f64);
            let attempted = (c.invocations + c.executions) as f64;
            s.add("failed_share", ratio(c.failures as f64, attempted));
            s.add("supervise.quarantined", c.quarantined as f64);
            // This process ran one campaign, so the pool totals are its.
            let pool = poolstats::snapshot();
            let parallel = times.generate + times.graph + times.correctness;
            s.add(
                "pool.busy_share",
                ratio(pool.busy_ns as f64 / 1e9, scale.threads as f64 * parallel),
            );
            s.add("pool.steals", pool.steals as f64);
            layers::from_report(&fw.run_report(), s);
            let cache = fw.optimizer.cache_stats();
            s.add("cache.hit_ratio", cache.hit_rate());
            s.add("cache.misses", cache.misses as f64);
            c
        }
    };
    r.digest = c.digest;
    r.invocations = c.invocations;
    r.attempted = c.invocations + c.executions;
    r.failed = c.failures;
    if c.bugs > 0 {
        r.problems
            .push(format!("{} bug(s) on the clean catalog", c.bugs));
    }
    if c.failures > 0 {
        r.problems
            .push(format!("{} failed or quarantined operation(s)", c.failures));
    }
    Ok(r)
}

/// Runs an audit workload (the orchestrating side): campaigns in child
/// processes, in whole cycles over the run's generation seeds, for at
/// least `seconds`. Every campaign on one seed must produce the same
/// deterministic slice and invocation count; warm campaigns must
/// reproduce the slice of the cold campaign that filled their store and
/// compute nothing.
pub fn run(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
    work: &Path,
) -> Run {
    let mut out = Run::default();
    if let Err(e) = orchestrate(workload, seed, seconds, trace, scale, work, &mut out) {
        out.problems.push(e);
    }
    out
}

fn orchestrate(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
    work: &Path,
    out: &mut Run,
) -> Result<(), String> {
    let warm = workload == "audit-warm";
    let mut seeds = sub_seeds(
        seed,
        if warm {
            scale.warm_seeds
        } else {
            scale.cold_seeds
        },
    );
    if trace {
        seeds.truncate(scale.traced_seeds);
    }
    let job = |i: usize, workload: &'static str, mode: Mode, stored: usize| Job {
        workload,
        gen_seed: seeds[i],
        dir: work.join(format!("seed-{}", seeds[i])),
        mode,
        stored,
        tiny: scale.tiny,
    };
    // Per seed: the expected (digest, invocations), and the store size.
    let mut expected: Vec<Option<(u64, u64)>> = vec![None; seeds.len()];
    let mut stored = vec![0usize; seeds.len()];

    if warm {
        // Set-up: fill each seed's store with a cold campaign. Warm
        // campaigns must reproduce its slice and compute nothing.
        let mut fills = Vec::with_capacity(seeds.len());
        for i in 0..seeds.len() {
            let t = Instant::now();
            let fill = spawn(&job(i, "audit-cold", Mode::EndToEnd, 0))?;
            fills.push(secs(t));
            stored[i] = fill.stored;
            expected[i] = Some((fill.digest, 0));
            let fill = Report {
                samples: Samples::default(),
                invocations: 0,
                ..fill
            };
            check_campaign(&mut expected[i], seeds[i], fill, out);
        }
        // A fill takes as long as the seed's cold campaign, which depends
        // on its suite: the mean over the run's seeds, like the campaign
        // metrics.
        out.samples.add("setup_s", mean(&fills));
    }

    let started = Instant::now();
    let mut cycle = 0usize;
    while cycle == 0 || secs(started) < seconds {
        for i in 0..seeds.len() {
            if !trace {
                let r = spawn(&job(i, workload, Mode::EndToEnd, stored[i]))?;
                check_campaign(&mut expected[i], seeds[i], r, out);
                continue;
            }
            // An untraced and a traced campaign per seed, in alternating
            // order, so the tracing overhead is measured on one code path
            // under the same conditions.
            let traced_first = (cycle + i) % 2 == 1;
            for traced in [traced_first, !traced_first] {
                let mode = if traced { Mode::Traced } else { Mode::Untraced };
                let r = spawn(&job(i, workload, mode, stored[i]))?;
                check_campaign(&mut expected[i], seeds[i], r, out);
            }
        }
        cycle += 1;
    }
    Ok(())
}

/// Folds one campaign into the run, with a mismatch against the first
/// campaign on its seed (`expected`) as a problem.
fn check_campaign(expected: &mut Option<(u64, u64)>, seed: u64, r: Report, out: &mut Run) {
    let what = format!("seed {seed}");
    match *expected {
        None => *expected = Some((r.digest, r.invocations)),
        Some((digest, _)) if digest != r.digest => out.problems.push(format!(
            "{what}: deterministic slice {:016x} differs from {digest:016x}",
            r.digest
        )),
        Some((_, invocations)) if invocations != r.invocations => out.problems.push(format!(
            "{what}: {} optimizer invocations, expected {invocations}",
            r.invocations
        )),
        Some(_) => {}
    }
    out.absorb(&what, seed, r);
}
