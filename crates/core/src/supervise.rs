//! Campaign-level supervision: quarantine, the supervision policy of the
//! stage drivers, and crash repro bundles.
//!
//! `ruletest_common::supervise` provides the mechanism (panic sandbox,
//! deadlines, the [`Failure`] taxonomy); this module provides the policy.
//! Each campaign stage — generation, eager graph building, correctness
//! execution, and the checkpointed driver around them — has one driver
//! that takes the policy as an `Option<&mut Quarantine>`:
//!
//! * `None` propagates: ordinary errors return and panics unwind to the
//!   caller, exactly as a plain `par_map` fan-out behaves.
//! * `Some(quarantine)` supervises: the fan-out runs through
//!   `par_map_supervised` ([`fan_out`]), per-item failures are caught
//!   instead of aborting the campaign ([`settle`]), and every poisoned
//!   input is recorded in the [`Quarantine`] keyed by a *stable
//!   fingerprint* of `(site, input)`. Inputs already quarantined are
//!   skipped before any optimizer or executor call.
//!
//! The quarantine persists in campaign checkpoints, so a `--resume` skips
//! known-poisoned inputs instead of re-hitting the crash; crash inputs
//! that carry SQL are fed to the triage minimizer's shrink lattice and
//! emitted as [`ReproBundle`]s. The public `*_supervised` names are
//! one-line entry points selecting `Some`.
//!
//! **Determinism contract:** on a clean run (no failures, empty
//! quarantine) both policies perform exactly the same optimizer/executor
//! calls, open the same telemetry spans, and bump the same counters — the
//! deterministic report slice is byte-identical with supervision on or
//! off, at any thread count. All supervision counters are environmental
//! (excluded from the deterministic slice), so absorbed faults never
//! perturb it either.

use crate::framework::Framework;
use crate::triage::{bundle::BUNDLE_VERSION, minimize, ReproBundle, TriageConfig};
use ruletest_common::{par_map, par_map_supervised, sandbox, Failure, Fnv64, Result, RuleId};
use ruletest_executor::execute_with;
use ruletest_logical::LogicalTree;
use ruletest_optimizer::{codec, OptimizerConfig};
use ruletest_telemetry::{Counter, Event};

/// Supervision site labels (stable: they feed quarantine fingerprints).
pub const SITE_SUITE: &str = "suite.generate";
pub const SITE_GRAPH: &str = "graph.edges";
pub const SITE_EXEC_BASE: &str = "exec.base";
pub const SITE_EXEC_PAIR: &str = "exec.pair";

/// Stable fingerprint of a supervised input: a pure function of the site
/// label and the input's identity string (target label, SQL text, ...),
/// never of run state like indices or thread ids — so the same poisoned
/// input maps to the same quarantine entry across runs and resumes.
pub fn fingerprint_u64(site: &str, input: &str) -> u64 {
    Fnv64::of(format!("{site}\u{1f}{input}").as_bytes())
}

/// [`fingerprint_u64`] rendered as the 16-hex-digit key quarantine files
/// use.
pub fn input_fingerprint(site: &str, input: &str) -> String {
    format!("{:016x}", fingerprint_u64(site, input))
}

/// One quarantined input: enough to skip it on resume and to attempt a
/// crash repro later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// [`input_fingerprint`] of `(site, input)` — the dedup/skip key.
    pub fingerprint: String,
    /// Failure kind tag (`panic` / `timeout` / `budget`).
    pub kind: String,
    /// Supervision site (`suite.generate`, `graph.edges`, `exec.base`,
    /// `exec.pair`).
    pub site: String,
    /// Failure message (panic payload, deadline description, ...).
    pub message: String,
    /// Human-readable input identity (target label or query label).
    pub label: String,
    /// The poisoned query's SQL, when the input has one — the crash
    /// minimizer's starting witness.
    pub sql: Option<String>,
    /// Rule names masked when the failure happened (empty for base
    /// executions and suite generation).
    pub rule_mask: Vec<String>,
}

/// The set of inputs a campaign must not touch again. Ordered by first
/// insertion; deduplicated by fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    pub fn new() -> Self {
        Quarantine::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }

    /// True when `(site, input)` is already quarantined.
    pub fn contains_input(&self, site: &str, input: &str) -> bool {
        let fp = input_fingerprint(site, input);
        self.entries.iter().any(|e| e.fingerprint == fp)
    }

    /// Inserts an entry; returns `true` when it is new (false = already
    /// quarantined under the same fingerprint).
    pub fn add(&mut self, entry: QuarantineEntry) -> bool {
        if self
            .entries
            .iter()
            .any(|e| e.fingerprint == entry.fingerprint)
        {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Merges another quarantine (e.g. one loaded from a checkpoint) into
    /// this one, first-insertion order preserved.
    pub fn merge(&mut self, other: Quarantine) {
        for e in other.entries {
            self.add(e);
        }
    }
}

codec!(struct QuarantineEntry {
    fingerprint: "fingerprint",
    kind: "kind",
    site: "site",
    message: "message",
    label: "label",
    sql: "sql" if Some,
    rule_mask: "rule_mask",
});
codec!(struct Quarantine { entries: "entries" });

/// One [`fan_out`] item: its result, or the failure the panic sandbox
/// caught.
pub(crate) type Outcome<R> = std::result::Result<Result<R>, Failure>;

/// What a quarantine entry records about a poisoned input: its label
/// (the fingerprinted identity), its SQL when it has one, and the names
/// of the rules masked when it failed.
pub(crate) type PoisonedInput = (String, Option<String>, Vec<String>);

/// Fans `f` out over `items` on the campaign pool, results in item order.
/// Supervised, each item runs in the panic sandbox and a panic comes back
/// as that item's `Err(Failure)`; unsupervised, a panic unwinds to the
/// caller after every worker finishes, as in [`par_map`].
pub(crate) fn fan_out<T, R, F>(
    fw: &Framework,
    supervised: bool,
    site: &str,
    items: &[T],
    f: F,
) -> Vec<Outcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R> + Sync,
{
    let threads = fw.parallelism.threads;
    if supervised {
        par_map_supervised(threads, items, site, f)
    } else {
        par_map(threads, items, |i, x| Ok(f(i, x)))
    }
}

/// Settles one [`fan_out`] item under the policy. A result passes through
/// as `Some`. Any error without a quarantine, and any error that is not a
/// supervision failure, returns. Under a quarantine, a panic, timeout, or
/// budget failure settles as `None` after being recorded: the per-kind
/// supervision counter is bumped, the `supervised` event emitted, and
/// the `input` quarantined at `site` (the quarantine counter counts only
/// *new* entries — a resume re-absorbing a known input is not a new
/// quarantine).
pub(crate) fn settle<R>(
    fw: &Framework,
    site: &str,
    quarantine: Option<&mut Quarantine>,
    item: Outcome<R>,
    input: impl FnOnce() -> PoisonedInput,
) -> Result<Option<R>> {
    let Some(quarantine) = quarantine else {
        // An unsupervised fan-out never catches: its panics already unwound.
        return item.expect("unsupervised fan-out caught a panic").map(Some);
    };
    let failure = match item {
        Ok(Ok(value)) => return Ok(Some(value)),
        Ok(Err(e)) => Failure::from_error(&e).ok_or(e)?,
        Err(failure) => failure,
    };
    let (label, sql, rule_mask) = input();
    let fp = fingerprint_u64(site, &label);
    let kind = failure.kind();
    fw.telemetry.incr(match kind {
        "panic" => Counter::SupervisePanics,
        "timeout" => Counter::SuperviseTimeouts,
        _ => Counter::SuperviseBudget,
    });
    fw.telemetry.event(|| Event::Supervised {
        kind,
        site: site.to_string(),
        fingerprint: fp,
    });
    let new = quarantine.add(QuarantineEntry {
        fingerprint: format!("{fp:016x}"),
        kind: kind.to_string(),
        site: site.to_string(),
        message: failure.message().to_string(),
        label,
        sql,
        rule_mask,
    });
    if new {
        fw.telemetry.incr(Counter::SuperviseQuarantined);
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Crash repro bundles.

/// Probes whether `tree` still fails (panic / timeout / budget) when
/// optimized both ways and executed. Returns the failure when it does.
fn crash_probe(
    fw: &Framework,
    tree: &LogicalTree,
    rules: &[RuleId],
    cfg: &TriageConfig,
) -> Option<Failure> {
    let outcome = sandbox("crash.probe", || {
        let base = fw.optimizer.optimize_cached(tree)?;
        let masked = fw
            .optimizer
            .optimize_with_cached(tree, &OptimizerConfig::disabling(rules))?;
        execute_with(&fw.db, &base.plan, &cfg.exec)?;
        execute_with(&fw.db, &masked.plan, &cfg.exec)?;
        Ok(())
    });
    outcome.err()
}

/// Converts quarantined crash inputs that carry SQL into repro bundles,
/// shrinking each witness through the triage minimizer's candidate
/// lattice while the failure (same kind) still reproduces. Entries whose
/// failure no longer reproduces (e.g. an exhausted chaos injection cap)
/// are bundled unshrunk — the bundle still records the witness, site,
/// and failure message.
///
/// Unlike result-diff bundles, crash bundles are *not* self-checked
/// against a recorded divergence: their `signature` is
/// `crash:<kind>:<site>` and their `diff_summary` is the failure
/// message; `base_plan`/`masked_plan` stay empty (the plans may not be
/// derivable from a crashing input).
pub fn crash_bundles(
    fw: &Framework,
    suite_seed: u64,
    quarantine: &Quarantine,
    cfg: &TriageConfig,
) -> Vec<ReproBundle> {
    let mut out = Vec::new();
    let mut total_steps = 0u64;
    for entry in quarantine.entries() {
        let Some(sql) = &entry.sql else {
            continue;
        };
        let Ok(mut tree) = ruletest_sql::parse_sql(&fw.db.catalog, sql) else {
            continue;
        };
        let rules: Vec<RuleId> = entry
            .rule_mask
            .iter()
            .filter_map(|n| fw.optimizer.rule_id(n))
            .collect();
        let mut steps = 0usize;
        if rules.len() == entry.rule_mask.len()
            && crash_probe(fw, &tree, &rules, cfg).is_some_and(|f| f.kind() == entry.kind)
        {
            // Greedy first-improvement descent, accepting any candidate
            // on which the same failure kind still reproduces.
            'shrink: while steps < cfg.max_steps {
                for cand in minimize::candidates(&tree) {
                    if !minimize::is_valid(fw, &cand) {
                        continue;
                    }
                    if crash_probe(fw, &cand, &rules, cfg).is_some_and(|f| f.kind() == entry.kind) {
                        tree = cand;
                        steps += 1;
                        continue 'shrink;
                    }
                }
                break;
            }
        }
        let final_sql = ruletest_sql::to_sql(&fw.db.catalog, &tree).unwrap_or_else(|_| sql.clone());
        total_steps += steps as u64;
        out.push(ReproBundle {
            version: BUNDLE_VERSION,
            target_label: entry.label.clone(),
            rule_mask: entry.rule_mask.clone(),
            fault: cfg.fault.map(|m| m.id.to_string()),
            seed: suite_seed,
            db_seed: fw.db_profile.db_seed,
            scale: fw.db_profile.scale as u64,
            sql: final_sql,
            ops: tree.op_count() as u64,
            signature: format!("crash:{}:{}", entry.kind, entry.site),
            duplicates: 0,
            diff_summary: format!("{} at {}: {}", entry.kind, entry.site, entry.message),
            base_plan: String::new(),
            masked_plan: String::new(),
        });
    }
    if !out.is_empty() {
        fw.telemetry.add(Counter::BugsMinimized, out.len() as u64);
        fw.telemetry.add(Counter::MinimizationSteps, total_steps);
    }
    out
}

/// Renders a one-line quarantine summary for campaign output.
pub fn quarantine_summary(q: &Quarantine) -> String {
    if q.is_empty() {
        return "quarantine: empty".to_string();
    }
    let mut by_kind: Vec<(String, usize)> = Vec::new();
    for e in q.entries() {
        match by_kind.iter_mut().find(|(k, _)| *k == e.kind) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((e.kind.clone(), 1)),
        }
    }
    let detail: Vec<String> = by_kind
        .into_iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect();
    format!("quarantine: {} entries ({})", q.len(), detail.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::generate::{GenConfig, Strategy};
    use crate::suite::{build_graph_supervised, generate_suite_supervised};
    use ruletest_optimizer::persist::Codec;

    #[test]
    fn fingerprints_are_stable_and_site_scoped() {
        let a = input_fingerprint("suite.generate", "InnerJoinCommute");
        let b = input_fingerprint("suite.generate", "InnerJoinCommute");
        let c = input_fingerprint("graph.edges", "InnerJoinCommute");
        assert_eq!(a, b);
        assert_ne!(
            a, c,
            "the same input at a different site is a different entry"
        );
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn quarantine_dedups_by_fingerprint_and_round_trips_json() {
        let mut q = Quarantine::new();
        let entry = QuarantineEntry {
            fingerprint: input_fingerprint(SITE_EXEC_PAIR, "A|SELECT 1"),
            kind: "panic".to_string(),
            site: SITE_EXEC_PAIR.to_string(),
            message: "chaos: injected panic at memo.insert (hit 3)".to_string(),
            label: "A|SELECT 1".to_string(),
            sql: Some("SELECT 1".to_string()),
            rule_mask: vec!["InnerJoinCommute".to_string()],
        };
        assert!(q.add(entry.clone()));
        assert!(!q.add(entry.clone()), "same fingerprint must dedup");
        assert!(q.add(QuarantineEntry {
            fingerprint: input_fingerprint(SITE_SUITE, "B"),
            kind: "timeout".to_string(),
            site: SITE_SUITE.to_string(),
            message: "deadline".to_string(),
            label: "B".to_string(),
            sql: None,
            rule_mask: vec![],
        }));
        assert_eq!(q.len(), 2);
        assert!(q.contains_input(SITE_EXEC_PAIR, "A|SELECT 1"));
        assert!(!q.contains_input(SITE_EXEC_PAIR, "A|SELECT 2"));

        let round = Quarantine::dec(&q.enc()).unwrap();
        assert_eq!(round, q);
        // The optional sql field round-trips both present and absent.
        assert_eq!(round.entries()[0].sql.as_deref(), Some("SELECT 1"));
        assert_eq!(round.entries()[1].sql, None);
    }

    #[test]
    fn merge_preserves_first_insertion_and_dedups() {
        let mk = |site: &str, label: &str| QuarantineEntry {
            fingerprint: input_fingerprint(site, label),
            kind: "budget".to_string(),
            site: site.to_string(),
            message: "m".to_string(),
            label: label.to_string(),
            sql: None,
            rule_mask: vec![],
        };
        let mut a = Quarantine::new();
        a.add(mk(SITE_SUITE, "x"));
        let mut b = Quarantine::new();
        b.add(mk(SITE_SUITE, "x"));
        b.add(mk(SITE_GRAPH, "y"));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.entries()[0].label, "x");
        assert_eq!(a.entries()[1].label, "y");
    }

    #[test]
    fn quarantine_summary_groups_by_kind() {
        let mut q = Quarantine::new();
        assert_eq!(quarantine_summary(&q), "quarantine: empty");
        for (site, label, kind) in [
            (SITE_SUITE, "a", "panic"),
            (SITE_SUITE, "b", "panic"),
            (SITE_GRAPH, "c", "timeout"),
        ] {
            q.add(QuarantineEntry {
                fingerprint: input_fingerprint(site, label),
                kind: kind.to_string(),
                site: site.to_string(),
                message: String::new(),
                label: label.to_string(),
                sql: None,
                rule_mask: vec![],
            });
        }
        assert_eq!(
            quarantine_summary(&q),
            "quarantine: 3 entries (2 panic, 1 timeout)"
        );
    }

    #[test]
    fn supervised_generation_matches_strict_generation_on_the_clean_path() {
        use crate::suite::{generate_suite, singleton_targets};
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let strict = generate_suite(
            &fw,
            targets.clone(),
            2,
            Strategy::Pattern,
            &GenConfig::default(),
        )
        .unwrap();
        let mut q = Quarantine::new();
        let supervised = generate_suite_supervised(
            &fw,
            targets,
            2,
            Strategy::Pattern,
            &GenConfig::default(),
            &mut q,
        )
        .unwrap();
        assert!(q.is_empty());
        assert_eq!(supervised.targets, strict.targets);
        assert_eq!(supervised.queries.len(), strict.queries.len());
        for (a, b) in supervised.queries.iter().zip(&strict.queries) {
            assert_eq!(a.sql, b.sql);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.generated_for, b.generated_for);
        }
    }

    #[test]
    fn supervised_graph_matches_eager_graph_on_the_clean_path() {
        use crate::suite::{build_graph, generate_suite, singleton_targets};
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let suite =
            generate_suite(&fw, targets, 2, Strategy::Pattern, &GenConfig::default()).unwrap();
        let eager = build_graph(&fw, &suite).unwrap();
        let mut q = Quarantine::new();
        let (sup_suite, sup) = build_graph_supervised(&fw, &suite, &mut q).unwrap();
        assert!(q.is_empty());
        assert_eq!(sup_suite.targets, suite.targets);
        assert_eq!(sup.adjacency, eager.adjacency);
        assert_eq!(sup.edges, eager.edges);
        assert_eq!(sup.node_cost, eager.node_cost);
        assert_eq!(sup.generated_for, eager.generated_for);
        assert_eq!(sup.optimizer_calls, eager.optimizer_calls);
    }

    #[test]
    fn quarantined_targets_are_skipped_and_dropped() {
        use crate::suite::{generate_suite, singleton_targets};
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let labels: Vec<String> = targets.iter().map(|t| t.label(&fw.optimizer)).collect();
        // Pre-poison the second target at the generation site.
        let mut q = Quarantine::new();
        q.add(QuarantineEntry {
            fingerprint: input_fingerprint(SITE_SUITE, &labels[1]),
            kind: "panic".to_string(),
            site: SITE_SUITE.to_string(),
            message: "previously crashed".to_string(),
            label: labels[1].clone(),
            sql: None,
            rule_mask: vec![],
        });
        let suite = generate_suite_supervised(
            &fw,
            targets.clone(),
            2,
            Strategy::Pattern,
            &GenConfig::default(),
            &mut q,
        )
        .unwrap();
        assert_eq!(suite.targets.len(), 3, "poisoned target dropped");
        assert!(!suite.targets.contains(&targets[1]));
        // The surviving targets' queries are identical to the strict
        // build's (original-index seed streams survive the drop).
        let strict = generate_suite(
            &fw,
            targets.clone(),
            2,
            Strategy::Pattern,
            &GenConfig::default(),
        )
        .unwrap();
        let strict_sql: Vec<&String> = strict
            .queries
            .iter()
            .filter(|sq| sq.generated_for != 1)
            .map(|sq| &sq.sql)
            .collect();
        let sup_sql: Vec<&String> = suite.queries.iter().map(|sq| &sq.sql).collect();
        assert_eq!(sup_sql, strict_sql);

        // Graph stage: pre-poison one more target at the graph site.
        q.add(QuarantineEntry {
            fingerprint: input_fingerprint(SITE_GRAPH, &labels[2]),
            kind: "timeout".to_string(),
            site: SITE_GRAPH.to_string(),
            message: "previously hung".to_string(),
            label: labels[2].clone(),
            sql: None,
            rule_mask: vec![],
        });
        let (g_suite, graph) = build_graph_supervised(&fw, &suite, &mut q).unwrap();
        assert_eq!(g_suite.targets.len(), 2);
        assert!(!g_suite.targets.contains(&targets[2]));
        assert_eq!(graph.targets, g_suite.targets);
        // Every adjacency pair has an edge (eager invariant preserved
        // across the shrink/remap).
        for (t, adj) in graph.adjacency.iter().enumerate() {
            for &qi in adj {
                assert!(
                    graph.edges.contains_key(&(t, qi)),
                    "missing edge ({t},{qi})"
                );
            }
        }
        assert_eq!(graph.optimizer_calls, graph.edges.len() as u64);
    }
}
