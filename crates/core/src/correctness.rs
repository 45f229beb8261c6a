//! Correctness-validation execution (§2.3).
//!
//! For every query in a (compressed) suite, `Plan(q)` executes once; for
//! every `(target, query)` assignment, `Plan(q, ¬R)` executes and the two
//! result multisets are compared. Differing results are correctness bugs.
//! Per the paper's footnote 1, when the two plans are identical the
//! execution is skipped — the results are guaranteed equal.

use crate::compress::{Instance, Solution};
use crate::framework::Framework;
use crate::suite::{RuleTarget, TestSuite};
use crate::supervise::{fan_out, settle, Quarantine, SITE_EXEC_BASE, SITE_EXEC_PAIR};
use ruletest_common::{diff_multisets, Error, Result, Row};
use ruletest_executor::{execute_profiled, ExecConfig};
use ruletest_optimizer::OptimizerConfig;
use ruletest_telemetry::{Counter, Event, Stage};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// One detected correctness bug. Carries a full repro: the SQL alone is
/// not one, because the result diff depends on the generated database
/// (seed + scale) and on exactly which rules were masked.
#[derive(Debug, Clone)]
pub struct BugReport {
    pub target: RuleTarget,
    pub target_label: String,
    /// Index of the witness query in the suite (for triage post-processing).
    pub query: usize,
    pub sql: String,
    pub diff_summary: String,
    /// Suite generation seed (`GenConfig::seed`).
    pub seed: u64,
    /// Names of the rules disabled in the masked optimization.
    pub rule_mask: Vec<String>,
    /// Test-database scale factor at detection time.
    pub scale: usize,
}

/// The outcome of executing a test suite.
#[derive(Debug, Clone, Default)]
pub struct CorrectnessReport {
    /// (target, query) validations attempted.
    pub validations: usize,
    /// Plans actually executed (base plans + differing disabled plans).
    pub executions: usize,
    /// Validations skipped because `Plan(q)` and `Plan(q, ¬R)` were
    /// identical (footnote 1).
    pub skipped_identical: usize,
    /// Validations skipped because execution exceeded the work budget.
    pub skipped_expensive: usize,
    /// Validations skipped because the executor refused the masked plan
    /// (`Error::Unsupported`). Distinct from budget skips: a refused plan
    /// may hide an optimizer bug and deserves scrutiny, an expensive one
    /// is just slow.
    pub skipped_unsupported: usize,
    /// Validations skipped because the input is (or just became)
    /// quarantined: its plan pair crashed, timed out, or blew a budget
    /// under supervision — this run or a previous one. Always 0 in
    /// unsupervised execution.
    pub skipped_quarantined: usize,
    /// Total estimated cost actually incurred (nodes once + edges).
    pub estimated_cost: f64,
    pub bugs: Vec<BugReport>,
    pub elapsed: std::time::Duration,
}

impl CorrectnessReport {
    pub fn passed(&self) -> bool {
        self.bugs.is_empty()
    }
}

/// What one `(target, query)` validation produced, before the ordered
/// merge into the report.
enum Validation {
    Identical,
    Expensive,
    Unsupported,
    /// Supervised execution only: the input is quarantined (previously or
    /// just now) and the validation was not attempted / not completed.
    Quarantined,
    Clean,
    Bug(BugReport),
}

/// Executes a compressed test suite against the framework's optimizer.
/// Plan-pair executions run concurrently on the campaign pool; outcomes
/// are merged in assignment order, so the report (bug order, counters,
/// cost sums) is byte-identical at any thread count. Any error returns
/// and a panic unwinds to the caller.
pub fn execute_solution(
    fw: &Framework,
    suite: &TestSuite,
    _inst: &Instance,
    sol: &Solution,
    exec_config: &ExecConfig,
) -> Result<CorrectnessReport> {
    execute_with_policy(fw, suite, sol, exec_config, None)
}

/// [`execute_solution`] under a quarantine: failed inputs are quarantined
/// (with their SQL, so the crash minimizer can shrink them later) instead
/// of aborting the campaign, and inputs already in the quarantine are
/// skipped *before* any optimizer or executor call — a resumed campaign
/// never re-triggers a known crash.
pub fn execute_solution_supervised(
    fw: &Framework,
    suite: &TestSuite,
    _inst: &Instance,
    sol: &Solution,
    exec_config: &ExecConfig,
    quarantine: &mut Quarantine,
) -> Result<CorrectnessReport> {
    execute_with_policy(fw, suite, sol, exec_config, Some(quarantine))
}

/// The correctness driver under either supervision policy (see
/// [`crate::supervise`]).
fn execute_with_policy(
    fw: &Framework,
    suite: &TestSuite,
    sol: &Solution,
    exec_config: &ExecConfig,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<CorrectnessReport> {
    let start = Instant::now();
    let mut report = CorrectnessReport::default();
    let supervised = quarantine.is_some();

    // Base results, one execution per distinct query (the node-cost-sharing
    // observation of §4.1). Each query is independent; results merge in
    // `used_queries` order so the floating-point cost sum is reproducible.
    // Quarantined queries are skipped up front.
    let mut poisoned: HashSet<usize> = HashSet::new();
    let pending: Vec<usize> = sol
        .used_queries()
        .into_iter()
        .filter(|&q| {
            let known = quarantine
                .as_deref()
                .is_some_and(|qr| qr.contains_input(SITE_EXEC_BASE, &suite.queries[q].sql));
            if known {
                poisoned.insert(q);
            }
            !known
        })
        .collect();
    let base_items = fan_out(fw, supervised, SITE_EXEC_BASE, &pending, |_, &q| {
        // Spans open inside the leaf closure so the tree shape is
        // thread-count-invariant.
        let _span = fw.telemetry.span(Stage::Correctness);
        let res = fw.optimizer.optimize_cached(&suite.queries[q].tree)?;
        let rows = match execute_profiled(&fw.db, &res.plan, exec_config, &fw.telemetry) {
            Ok(rows) => Some(rows),
            Err(Error::Budget(_) | Error::Unsupported(_)) => None,
            Err(e) => return Err(e),
        };
        Ok((res.cost, rows))
    });
    let mut base_results: HashMap<usize, Option<Vec<Row>>> = HashMap::new();
    for (&q, item) in pending.iter().zip(base_items) {
        let sql = &suite.queries[q].sql;
        let settled = settle(fw, SITE_EXEC_BASE, quarantine.as_deref_mut(), item, || {
            (sql.clone(), Some(sql.clone()), Vec::new())
        })?;
        match settled {
            Some((cost, rows)) => {
                report.estimated_cost += cost;
                if rows.is_some() {
                    report.executions += 1;
                }
                base_results.insert(q, rows);
            }
            None => {
                poisoned.insert(q);
            }
        }
    }

    // Every (target, query) assignment is an independent plan-pair
    // validation against the read-only test database. Pairs that must be
    // skipped (quarantined pairs, or pairs over a poisoned base query)
    // are decided up front, so the workers never touch a poisoned input.
    let pairs: Vec<(usize, usize)> = sol
        .assignment
        .iter()
        .enumerate()
        .flat_map(|(t, qs)| qs.iter().map(move |&q| (t, q)))
        .collect();
    let labels: Vec<String> = suite
        .targets
        .iter()
        .map(|t| t.label(&fw.optimizer))
        .collect();
    let pair_label = |t: usize, q: usize| format!("{}|{}", labels[t], suite.queries[q].sql);
    let skip: Vec<bool> = pairs
        .iter()
        .map(|&(t, q)| {
            quarantine.as_deref().is_some_and(|qr| {
                poisoned.contains(&q) || qr.contains_input(SITE_EXEC_PAIR, &pair_label(t, q))
            })
        })
        .collect();
    let validated = fan_out(fw, supervised, SITE_EXEC_PAIR, &pairs, |i, &(t, q)| {
        if skip[i] {
            return Ok((0.0, Validation::Quarantined));
        }
        let _span = fw.telemetry.span(Stage::Correctness);
        let target = suite.targets[t];
        let rules = target.rules();
        // Both optimizations are near-guaranteed invocation-cache hits:
        // the base plan was computed for the base-results stage, the
        // masked plan during graph construction.
        let base = fw.optimizer.optimize_cached(&suite.queries[q].tree)?;
        let masked = fw
            .optimizer
            .optimize_with_cached(&suite.queries[q].tree, &OptimizerConfig::disabling(&rules))?;
        let cost = masked.cost;
        if base.plan.same_shape(&masked.plan) {
            return Ok((cost, Validation::Identical));
        }
        let Some(Some(expected)) = base_results.get(&q) else {
            return Ok((cost, Validation::Expensive));
        };
        let outcome = match execute_profiled(&fw.db, &masked.plan, exec_config, &fw.telemetry) {
            Ok(actual) => {
                let diff = diff_multisets(expected, &actual);
                if diff.is_empty() {
                    Validation::Clean
                } else {
                    Validation::Bug(BugReport {
                        target,
                        target_label: labels[t].clone(),
                        query: q,
                        sql: suite.queries[q].sql.clone(),
                        diff_summary: diff.summary(),
                        seed: suite.seed,
                        rule_mask: target.rule_names(&fw.optimizer),
                        scale: fw.db_profile.scale,
                    })
                }
            }
            Err(Error::Budget(_)) => Validation::Expensive,
            Err(Error::Unsupported(_)) => Validation::Unsupported,
            Err(e) => return Err(e),
        };
        Ok((cost, outcome))
    });
    // The merge runs in assignment order on one thread, so the telemetry
    // counters and events below are deterministic at any thread count.
    fw.telemetry
        .add(Counter::Executions, report.executions as u64);
    for (&(t, q), item) in pairs.iter().zip(validated) {
        let settled = settle(fw, SITE_EXEC_PAIR, quarantine.as_deref_mut(), item, || {
            let sql = suite.queries[q].sql.clone();
            (
                pair_label(t, q),
                Some(sql),
                suite.targets[t].rule_names(&fw.optimizer),
            )
        })?;
        let (cost, outcome) = settled.unwrap_or((0.0, Validation::Quarantined));
        merge_one(fw, &mut report, t, q, cost, outcome);
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Folds one `(target, query)` validation outcome into the report and the
/// telemetry stream.
fn merge_one(
    fw: &Framework,
    report: &mut CorrectnessReport,
    t: usize,
    q: usize,
    cost: f64,
    outcome: Validation,
) {
    let tel = &fw.telemetry;
    report.validations += 1;
    report.estimated_cost += cost;
    tel.incr(Counter::Validations);
    let label = match outcome {
        Validation::Identical => {
            report.skipped_identical += 1;
            tel.incr(Counter::SkippedIdentical);
            "identical"
        }
        Validation::Expensive => {
            report.skipped_expensive += 1;
            tel.incr(Counter::SkippedExpensive);
            "expensive"
        }
        Validation::Unsupported => {
            report.skipped_unsupported += 1;
            tel.incr(Counter::SkippedUnsupported);
            "unsupported"
        }
        Validation::Quarantined => {
            report.skipped_quarantined += 1;
            "quarantined"
        }
        Validation::Clean => {
            report.executions += 1;
            tel.incr(Counter::Executions);
            "clean"
        }
        Validation::Bug(bug) => {
            report.executions += 1;
            tel.incr(Counter::Executions);
            tel.incr(Counter::CorrectnessBugs);
            report.bugs.push(bug);
            "bug"
        }
    };
    tel.event(|| Event::Validation {
        target: t as u32,
        query: q as u32,
        outcome: label,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{baseline, topk};
    use crate::framework::FrameworkConfig;
    use crate::generate::{GenConfig, Strategy};
    use crate::suite::{build_graph, generate_suite, singleton_targets};

    #[test]
    fn correct_rules_yield_no_bugs() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 5);
        let suite = generate_suite(
            &fw,
            targets,
            2,
            Strategy::Pattern,
            &GenConfig {
                pad_ops: 2,
                ..GenConfig::default()
            },
        )
        .unwrap();
        let graph = build_graph(&fw, &suite).unwrap();
        let inst = Instance::from_graph(&graph);
        for sol in [baseline(&inst).unwrap(), topk(&inst).unwrap()] {
            let report =
                execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()).unwrap();
            assert!(report.passed(), "false positives: {:?}", report.bugs);
            assert!(report.validations > 0);
            assert!(report.executions > 0);
        }
    }
}
