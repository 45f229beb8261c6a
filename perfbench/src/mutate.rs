//! The `mutate` workload: the mutant catalog through
//! `run_mutation_campaign`, as `ruletest mutate` runs it.

use crate::child::{spawn, Job, Mode, Report};
use crate::layers::{self, ratio};
use crate::measure::{cpu_seconds, peak_rss_mib, secs};
use crate::{Run, Scale};
use ruletest::common::poolstats;
use ruletest::core::{run_mutation_campaign, MutationConfig};
use ruletest::optimizer::Fnv64;
use ruletest::storage::{tpch_database, TpchConfig};
use ruletest::telemetry::Telemetry;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Runs one sweep of the catalog in this process (the child side).
pub fn campaign(job: &Job, scale: &Scale) -> Result<Report, String> {
    let mut r = Report::default();
    let s = &mut r.samples;
    // Set-up is the test database the detection budgets were tuned on.
    let t = Instant::now();
    let db = Arc::new(tpch_database(&TpchConfig::default()).map_err(|e| format!("datagen: {e}"))?);
    let setup = secs(t);
    let cfg = MutationConfig {
        sample: scale.mutate_sample,
        threads: scale.threads,
        ..Default::default()
    };
    let telemetry = if job.mode == Mode::Traced {
        poolstats::enable();
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let cpu = cpu_seconds();
    let t = Instant::now();
    let report = run_mutation_campaign(&db, &cfg, &telemetry)
        .map_err(|e| format!("mutation campaign: {e}"))?;
    let wall = secs(t);
    match job.mode {
        Mode::EndToEnd => {
            s.add("setup_s", setup);
            s.add("campaign_s", wall);
            if let Some((a, b)) = cpu.zip(cpu_seconds()) {
                s.add("campaign_cpu_s", b - a);
            }
            s.add("verdicts_per_s", report.outcomes.len() as f64 / wall);
        }
        Mode::Untraced => {
            s.add("untraced_campaign_s", wall);
            if let Some(peak) = peak_rss_mib() {
                s.add("peak_rss_mb", peak);
            }
        }
        Mode::Traced => {
            s.add("storage.datagen_s", setup);
            s.add("traced_campaign_s", wall);
            // The sweep is a single call, so it accounts for all of its
            // campaign time.
            s.add("stages.coverage", 1.0);
            let pool = poolstats::snapshot();
            s.add(
                "pool.busy_share",
                ratio(pool.busy_ns as f64 / 1e9, scale.threads as f64 * wall),
            );
            s.add("pool.steals", pool.steals as f64);
            let run = telemetry.run_report(&[]);
            layers::from_report(&run, s);
            r.invocations = run.invocations();
            let executions: f64 = s.get("executor.runs").iter().sum();
            s.add("invocations", r.invocations as f64);
            let attempted = r.invocations as f64 + executions;
            s.add(
                "failed_share",
                ratio(report.failures().len() as f64, attempted),
            );
        }
    }
    r.digest = Fnv64::new()
        .write_str(&report.to_json().to_string_compact())
        .finish();
    r.attempted = report.outcomes.len() as u64;
    r.failed = report.failures().len() as u64;
    if report.failed() {
        r.problems.push(format!(
            "{} mutant(s) violated their expected verdict",
            r.failed
        ));
    }
    Ok(r)
}

/// Sweeps the catalog in child processes for at least `seconds` (the
/// orchestrating side); every sweep must produce the same report. The
/// mutants and their seed range are pinned with their expected verdicts,
/// so the inputs do not depend on the run's seed.
pub fn run(seconds: f64, trace: bool, scale: &Scale) -> Run {
    let mut out = Run::default();
    let mut first = None;
    let started = Instant::now();
    let mut rep = 0usize;
    while rep < 2 || secs(started) < seconds {
        // Untraced only, or an untraced and a traced sweep in alternating
        // order.
        let modes: &[Mode] = match (trace, rep % 2) {
            (false, _) => &[Mode::EndToEnd],
            (true, 0) => &[Mode::Untraced, Mode::Traced],
            (true, _) => &[Mode::Traced, Mode::Untraced],
        };
        for &mode in modes {
            let job = Job {
                workload: "mutate",
                gen_seed: 0,
                dir: PathBuf::new(),
                mode,
                stored: 0,
                tiny: scale.tiny,
            };
            let r = match spawn(&job) {
                Ok(r) => r,
                Err(e) => {
                    out.problems.push(e);
                    return out;
                }
            };
            if *first.get_or_insert(r.digest) != r.digest {
                out.problems
                    .push("mutation report differs between sweeps".to_string());
            }
            out.absorb("mutate", 0, r);
        }
        rep += 1;
    }
    out
}
