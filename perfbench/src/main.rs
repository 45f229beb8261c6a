//! Benchmark of the ruletest campaigns, end to end and per layer.
//!
//! ```text
//! perfbench --workload <audit-cold|audit-warm|mutate> --seed N --seconds S --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Each workload drives the public functions `ruletest audit` and
//! `ruletest mutate` call, checks every output, and repeats campaigns for
//! at least `--seconds`, each in a child process of its own (see
//! `child`). With `--trace 0` campaigns run with telemetry
//! disabled and the end-to-end metrics are printed; with `--trace 1`
//! untraced and traced campaigns alternate and the per-layer metrics are
//! printed. A table of medians and quartiles goes to standard output,
//! followed by one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. Any failed output check exits with status 1.
//!
//! `--self-test` runs a tiny configuration of every workload in both
//! modes and checks that the metric names printed are exactly those in
//! `BENCHMARK.json` (read from the current directory).

mod audit;
mod child;
mod layers;
mod measure;
mod mutate;

use layers::Samples;
use measure::{Metrics, Summary};
use ruletest::telemetry::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["audit-cold", "audit-warm", "mutate"];

/// End-to-end metrics (`--trace 0`), with units, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("campaign_cpu_s", "s"),
    ("verdicts_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order. A layer a
/// workload does not run reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("storage.datagen_s", "s"),
    ("generate.s", "s"),
    ("generate.trials", "count"),
    ("generate.hit_ratio", "ratio"),
    ("graph.s", "s"),
    ("graph.probes", "count"),
    ("graph.pruned", "count"),
    ("compress.s", "s"),
    ("correctness.s", "s"),
    ("correctness.executions", "count"),
    ("correctness.identical_ratio", "ratio"),
    ("executor.s", "s"),
    ("executor.runs", "count"),
    ("optimizer.invocation_us.p50", "us"),
    ("optimizer.invocation_us.p99", "us"),
    ("optimizer.memo_exprs.p99", "count"),
    ("optimizer.bind_s", "s"),
    ("optimizer.subst_s", "s"),
    ("optimizer.fire_ratio", "ratio"),
    ("optimizer.unattributed_share", "ratio"),
    ("invocations", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.warm_hits", "count"),
    ("persist.load_s", "s"),
    ("persist.save_s", "s"),
    ("persist.bytes", "bytes"),
    ("persist.entries", "count"),
    ("mutate.self_share", "ratio"),
    ("pool.busy_share", "ratio"),
    ("pool.steals", "count"),
    ("supervise.quarantined", "count"),
    ("failed_share", "ratio"),
    ("stages.coverage", "ratio"),
    ("telemetry.overhead_pct", "%"),
    ("traced_campaign_s", "s"),
    ("untraced_campaign_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The timed stage calls must account for at least this share of the
/// traced campaign's wall time.
const MIN_STAGE_COVERAGE: f64 = 0.95;

/// Workload size. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] only
/// exercises every path for the self-test.
pub struct Scale {
    /// Singleton rule targets per audit campaign.
    pub rules: usize,
    /// Queries per target.
    pub k: usize,
    /// Worker threads of every campaign.
    pub threads: usize,
    /// Generation seeds per audit-cold run, drawn from `--seed`: the
    /// campaign time depends on the suite a seed generates (its few
    /// join-reorder queries), so a run covers many.
    pub cold_seeds: usize,
    /// Generation seeds per audit-warm run. Each costs a store fill in
    /// set-up; warm campaign time varies little between seeds.
    pub warm_seeds: usize,
    /// Generation seeds of a traced audit run (the first of the run's
    /// seeds): each costs two campaigns, and per-layer shares need fewer
    /// inputs than end-to-end means.
    pub traced_seeds: usize,
    /// Mutants kept per bug class (`None`: the whole catalog).
    pub mutate_sample: Option<usize>,
    /// Whether this is [`Scale::TINY`] (passed on to child processes).
    pub tiny: bool,
}

impl Scale {
    const FULL: Scale = Scale {
        rules: 32,
        k: 2,
        threads: 2,
        cold_seeds: 10,
        warm_seeds: 4,
        traced_seeds: 4,
        mutate_sample: None,
        tiny: false,
    };
    const TINY: Scale = Scale {
        rules: 4,
        k: 1,
        threads: 2,
        cold_seeds: 1,
        warm_seeds: 1,
        traced_seeds: 1,
        mutate_sample: Some(1),
        tiny: true,
    };
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    /// Every sample of the run.
    pub samples: Samples,
    /// The same samples by input (generation seed), for the end-to-end
    /// metrics.
    inputs: BTreeMap<u64, Samples>,
    /// Operations attempted: optimizer invocations plus executions
    /// (audit), mutants swept (mutate).
    pub attempted: u64,
    /// Operations that failed or were quarantined.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Run {
    /// Folds the report of one campaign on `input` into the run.
    fn absorb(&mut self, what: &str, input: u64, r: child::Report) {
        self.problems
            .extend(r.problems.into_iter().map(|p| format!("{what}: {p}")));
        self.attempted += r.attempted;
        self.failed += r.failed;
        let by_input = self.inputs.entry(input).or_default();
        for (name, values) in r.samples.iter() {
            for &v in values {
                by_input.add(name, v);
                self.samples.add(name, v);
            }
        }
    }

    fn metrics(&self, trace: bool) -> Metrics {
        let mut m = Metrics::default();
        if !trace {
            // Set-up of a campaign process does not depend on the input:
            // the median over all set-ups (`audit-warm` records one value,
            // the mean of its store fills). A campaign metric is the mean
            // over the run's inputs of each input's median (mean, for CPU
            // time read in clock ticks): campaigns on one input differ by
            // noise, so the median; inputs differ by the work they hold,
            // so the mean.
            m.median("setup_s", "s", self.samples.get("setup_s"));
            for (name, unit) in &END_TO_END[1..] {
                let per_input: Vec<f64> = self
                    .inputs
                    .values()
                    .map(|s| s.get(name))
                    .filter(|v| !v.is_empty())
                    .map(|v| match *name {
                        "campaign_cpu_s" => measure::mean(v),
                        _ => Summary::of(v).map_or(0.0, |s| s.median),
                    })
                    .collect();
                m.mean(name, unit, &per_input);
            }
            return m;
        }
        for (name, unit) in PER_LAYER {
            if name == "telemetry.overhead_pct" {
                let median = |n| Summary::of(self.samples.get(n)).map(|s| s.median);
                let overhead = median("traced_campaign_s")
                    .zip(median("untraced_campaign_s"))
                    .map_or(0.0, |(t, u)| (t / u - 1.0) * 100.0);
                m.median(name, unit, &[overhead]);
            } else if self.samples.get(name).is_empty() && name != "peak_rss_mb" {
                // A layer the workload does not run. Peak memory, read
                // from `/proc`, is left out instead where `/proc` is absent.
                m.median(name, unit, &[0.0]);
            } else {
                m.median(name, unit, self.samples.get(name));
            }
        }
        m
    }

    /// Adds the consistency check of a traced run: the timed stage calls
    /// account for the campaign time.
    fn check_coverage(&mut self) {
        if let Some(s) = Summary::of(self.samples.get("stages.coverage")) {
            let low = self
                .samples
                .get("stages.coverage")
                .iter()
                .copied()
                .fold(f64::MAX, f64::min);
            println!(
                "consistency: timed stage calls account for at least {:.1}% of each traced campaign_s (median {:.1}%, required >= {:.0}%)",
                low * 100.0,
                s.median * 100.0,
                MIN_STAGE_COVERAGE * 100.0
            );
            if low < MIN_STAGE_COVERAGE {
                self.problems.push(format!(
                    "timed stage calls account for only {:.1}% of campaign_s",
                    low * 100.0
                ));
            }
        }
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("missing --workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload} (one of {WORKLOADS:?})"))?;
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: must be 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// A working directory for one run's cache stores, under the current
/// directory; removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    const PARENT: &'static str = ".perfbench_work";

    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(Self::PARENT).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(Self::PARENT);
    }
}

fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> Run {
    let work = match WorkDir::create(workload) {
        Ok(work) => work,
        Err(e) => {
            return Run {
                problems: vec![e],
                ..Run::default()
            }
        }
    };
    let mut run = match workload {
        "mutate" => mutate::run(seconds, trace, scale),
        audit => audit::run(audit, seed, seconds, trace, scale, &work.0),
    };
    if run.failed > 0 {
        run.problems.push(format!(
            "{} operation(s) failed or were quarantined",
            run.failed
        ));
    }
    if trace {
        run.check_coverage();
    }
    run
}

fn print_table(metrics: &Metrics) {
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>4}  unit",
        "metric", "value", "q1", "q3", "n"
    );
    for m in &metrics.rows {
        let s = m.summary;
        println!(
            "{:<32} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
            m.name, m.value, s.q1, s.q3, s.n, m.unit
        );
    }
}

fn result_json(run: &Run, metrics: &Metrics) -> String {
    let metrics = metrics
        .rows
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(run.problems.is_empty())),
        ("attempted", Json::count(run.attempted.max(1))),
        ("failed", Json::count(run.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string_compact()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-test"] {
        return self_test();
    }
    if argv.first().map(String::as_str) == Some("--campaign") {
        return campaign_main(&argv);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = run_workload(
        args.workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        &Scale::FULL,
    );
    let metrics = run.metrics(args.trace);
    print_table(&metrics);
    for p in &run.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", result_json(&run, &metrics));
    if run.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The child side of [`child::spawn`]: runs one campaign and prints its
/// report as the last line of standard output.
fn campaign_main(argv: &[String]) -> ExitCode {
    let report = child::Job::from_args(argv).and_then(|job| {
        let scale = if job.tiny { &Scale::TINY } else { &Scale::FULL };
        match job.workload {
            "mutate" => mutate::campaign(&job, scale),
            _ => audit::campaign(&job, scale),
        }
    });
    let report = report.unwrap_or_else(|e| child::Report {
        problems: vec![e],
        ..child::Report::default()
    });
    println!("{}", report.to_json().to_string_compact());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Names listed under `key` in `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// A metric name: up to 64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn self_test() -> ExitCode {
    let doc = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("self-test: reading BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems = Vec::new();
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let workloads = sorted(declared(&doc, "workloads"));
    if workloads != sorted(WORKLOADS.map(String::from).to_vec()) {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = run_workload(workload, 42, 0.0, trace, &Scale::TINY);
            problems.extend(run.problems.iter().map(|p| format!("{workload}: {p}")));
            let emitted: Vec<String> = run
                .metrics(trace)
                .rows
                .iter()
                .map(|m| m.name.to_string())
                .collect();
            for name in emitted.iter().filter(|n| !valid_name(n)) {
                problems.push(format!("{workload}: invalid metric name {name}"));
            }
            let (emitted, listed) = (sorted(emitted), sorted(declared(&doc, key)));
            if emitted != listed {
                problems.push(format!(
                    "{workload} --trace {}: emitted {emitted:?}, BENCHMARK.json {key} lists {listed:?}",
                    u8::from(trace)
                ));
            }
            println!("self-test: {workload} --trace {} ran", u8::from(trace));
        }
    }
    if problems.is_empty() {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("self-test: {p}");
        }
        ExitCode::FAILURE
    }
}
