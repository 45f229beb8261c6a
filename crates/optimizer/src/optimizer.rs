//! The optimization driver: exploration to a fixpoint, then cost-based
//! plan extraction — with the three testing extensions (rule tracing, rule
//! masking, pattern export) the framework requires (§2.3).

use crate::cache::{CacheKey, CacheStats, OptCache};
use crate::cost::phys_cost;
use crate::mask::RuleMask;
use crate::memo::{GroupId, Memo};
use crate::pattern::{OpMatcher, PatternTree};
use crate::persist::SnapshotStore;
use crate::physical::{PhysOp, PhysicalPlan};
use crate::rule::{newtree_from_logical, Bound, BoundChild, Rule, RuleAction, RuleCtx, RuleKind};
use crate::rules::exploration_rules;
use crate::rules_impl::implementation_rules;
use ruletest_common::{Error, Result, RuleId};
use ruletest_expr::Expr;
use ruletest_logical::{
    derive_schema, output_schema, IdGen, JoinKind, LogicalTree, Operator, Schema,
};
use ruletest_storage::Database;
use ruletest_telemetry::{Counter, Event, Hist, ProfileSample, RulePhase, Telemetry};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Search budgets and the rule mask for one optimization.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Disabled rules (`¬R`); empty for `Plan(q)`.
    pub mask: RuleMask,
    /// Safety cap on total memo expressions; exceeding it sets
    /// [`OptimizeResult::truncated`].
    pub max_exprs: usize,
    /// Safety cap on exploration passes.
    pub max_passes: usize,
    /// Hard memo-growth cap: exceeding it *fails* the invocation with
    /// `Error::Budget` instead of truncating. `None` (the default) keeps
    /// the graceful truncation behavior. The supervision layer uses this
    /// to turn a rule that floods the memo into a quarantinable
    /// `Failure::BudgetExhausted` rather than a silently weaker search.
    pub hard_max_exprs: Option<usize>,
    /// Cooperative wall-clock deadline, checked at pass and
    /// task-expansion boundaries. Unarmed by default. Deliberately **not**
    /// part of [`CacheKey`]: wall-clock state must never address cached
    /// results (a timed-out compute is an error and is never cached).
    pub deadline: ruletest_common::Deadline,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            mask: RuleMask::all_enabled(),
            // Large enough that the fixpoint is reached for the padded
            // pattern queries correctness suites use; large random
            // multi-join queries may truncate (industrial optimizers prune
            // their search too).
            max_exprs: 3_000,
            max_passes: 64,
            hard_max_exprs: None,
            deadline: ruletest_common::Deadline::none(),
        }
    }
}

impl OptimizerConfig {
    /// All rules enabled.
    pub fn all_enabled() -> Self {
        Self::default()
    }

    /// Disabling exactly `rules`.
    pub fn disabling(rules: &[RuleId]) -> Self {
        Self {
            mask: RuleMask::disabling(rules),
            ..Self::default()
        }
    }
}

/// The outcome of optimizing one query.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// `Plan(q)` (or `Plan(q, ¬R)` under a mask).
    pub plan: PhysicalPlan,
    /// `Cost(q)` — the plan's estimated cost in optimizer units.
    pub cost: f64,
    /// `RuleSet(q)`: every rule exercised during this optimization.
    pub rule_set: BTreeSet<RuleId>,
    /// Observed rule dependencies (§7's second interaction flavor): a pair
    /// `(r1, r2)` records that r2 fired on an expression r1 had created.
    pub rule_dependencies: BTreeSet<(RuleId, RuleId)>,
    /// Memo size diagnostics.
    pub groups: usize,
    pub exprs: usize,
    /// True if a search budget was hit (the plan is still valid, the
    /// exploration just stopped early).
    pub truncated: bool,
}

impl OptimizeResult {
    /// Exercised rules restricted to exploration rules.
    pub fn exercised(&self, optimizer: &Optimizer) -> BTreeSet<RuleId> {
        self.rule_set
            .iter()
            .copied()
            .filter(|&r| optimizer.rule(r).kind == RuleKind::Exploration)
            .collect()
    }
}

/// The rule-based optimizer.
pub struct Optimizer {
    db: Arc<Database>,
    rules: Vec<Rule>,
    by_name: HashMap<&'static str, RuleId>,
    /// Exploration-rule indexes whose pattern root can match each OpKind —
    /// avoids testing all rules against every expression.
    explore_by_kind: HashMap<ruletest_logical::OpKind, Vec<usize>>,
    /// Same for implementation rules.
    implement_by_kind: HashMap<ruletest_logical::OpKind, Vec<usize>>,
    invocations: AtomicU64,
    /// Invocation cache for the `optimize*_cached` entry points; shared
    /// across every campaign phase that goes through this optimizer.
    cache: OptCache,
    /// Campaign telemetry, attached once (through the `Arc`) by whoever
    /// owns the campaign; never attached → every recording site is a
    /// near-no-op branch.
    telemetry: OnceLock<Telemetry>,
    /// Disk-backed warm store (`--cache-dir`), attached once like
    /// telemetry; never attached → the cached path never touches disk.
    store: OnceLock<Arc<SnapshotStore>>,
    /// Debug-mode static auditor run on every exploration substitute
    /// before it is inserted into the memo (see the `ruletest-lint`
    /// crate); `None` (the default) costs one branch per rule firing.
    auditor: Mutex<Option<Arc<dyn SubstituteAuditor>>>,
}

/// Hook for statically auditing rule substitutes as they are produced,
/// before memo insertion. Implemented by the lint crate's online auditor;
/// kept as a trait here so the optimizer does not depend on it.
pub trait SubstituteAuditor: Send + Sync {
    /// Inspects one substitute `rule_name` produced for the match `bound`
    /// and returns the number of violations found (zero when clean); the
    /// optimizer feeds the count into telemetry.
    fn audit(
        &self,
        db: &Database,
        memo: &Memo,
        bound: &Bound,
        rule_name: &str,
        substitute: &crate::rule::NewTree,
    ) -> usize;
}

/// Tree-only fingerprint used to correlate trace events (cache lookups
/// and invocations on the same query share it; the mask does not feed it).
fn tree_fingerprint(tree: &LogicalTree) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tree.hash(&mut h);
    h.finish()
}

impl Optimizer {
    /// Builds the optimizer with the full rule catalog over `db`.
    pub fn new(db: Arc<Database>) -> Self {
        let mut rules = exploration_rules();
        rules.extend(implementation_rules());
        Self::with_rules(db, rules)
    }

    /// Builds the optimizer with the standard catalog, but with any rule
    /// whose name matches an override replaced by the override. This is the
    /// fault-injection hook the testing framework uses to demonstrate that
    /// correctness validation detects incorrectly implemented rules.
    pub fn new_with_overrides(db: Arc<Database>, overrides: Vec<Rule>) -> Self {
        let mut rules = exploration_rules();
        rules.extend(implementation_rules());
        for over in overrides {
            if let Some(slot) = rules.iter_mut().find(|r| r.name == over.name) {
                *slot = over;
            } else {
                rules.push(over);
            }
        }
        Self::with_rules(db, rules)
    }

    fn with_rules(db: Arc<Database>, rules: Vec<Rule>) -> Self {
        let by_name = rules
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name, RuleId(i as u16)))
            .collect();
        use ruletest_logical::OpKind;
        const ALL_KINDS: [OpKind; 9] = [
            OpKind::Get,
            OpKind::Select,
            OpKind::Project,
            OpKind::Join,
            OpKind::GbAgg,
            OpKind::UnionAll,
            OpKind::Distinct,
            OpKind::Sort,
            OpKind::Top,
        ];
        let mut explore_by_kind: HashMap<OpKind, Vec<usize>> = HashMap::new();
        let mut implement_by_kind: HashMap<OpKind, Vec<usize>> = HashMap::new();
        for kind in ALL_KINDS {
            for (i, r) in rules.iter().enumerate() {
                let root_accepts = match &r.pattern {
                    PatternTree::Op { matcher, .. } => match matcher {
                        OpMatcher::Kind(k) => *k == kind,
                        OpMatcher::Join(_) => kind == OpKind::Join,
                    },
                    PatternTree::Any => true,
                };
                if root_accepts {
                    match r.kind {
                        RuleKind::Exploration => explore_by_kind.entry(kind).or_default().push(i),
                        RuleKind::Implementation => {
                            implement_by_kind.entry(kind).or_default().push(i)
                        }
                    }
                }
            }
        }
        Self {
            db,
            rules,
            by_name,
            explore_by_kind,
            implement_by_kind,
            invocations: AtomicU64::new(0),
            cache: OptCache::default(),
            telemetry: OnceLock::new(),
            store: OnceLock::new(),
            auditor: Mutex::new(None),
        }
    }

    /// Attaches campaign telemetry. The first attachment wins; later calls
    /// are ignored. Takes `&self` so it works through an `Arc<Optimizer>`.
    pub fn attach_telemetry(&self, telemetry: Telemetry) {
        let _ = self.telemetry.set(telemetry);
    }

    /// The attached telemetry handle, or a disabled (no-op) one.
    pub fn telemetry(&self) -> &Telemetry {
        static DISABLED: Telemetry = Telemetry::disabled();
        self.telemetry.get().unwrap_or(&DISABLED)
    }

    /// Attaches the disk-backed warm store. The first attachment wins.
    /// A store whose on-disk snapshot was fingerprint-rejected is still
    /// attached (it starts cold and overwrites the stale snapshot on
    /// save); the rejection is counted so reports surface it. Attach
    /// telemetry first for the rejection counter to land.
    pub fn attach_snapshot_store(&self, store: Arc<SnapshotStore>) {
        if store.rejected() {
            self.telemetry().incr(Counter::CacheFingerprintRejected);
        }
        let _ = self.store.set(store);
    }

    /// The attached warm store, if any.
    pub fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.store.get()
    }

    /// Saves the warm store to disk (no-op without one), counting the
    /// persisted entries under `cache.persisted`.
    pub fn persist_cache(&self) -> std::io::Result<u64> {
        let Some(store) = self.store.get() else {
            return Ok(0);
        };
        let persisted = store.save()?;
        self.telemetry().add(Counter::CachePersisted, persisted);
        Ok(persisted)
    }

    /// Installs a debug-mode substitute auditor, invoked on every
    /// exploration substitute before memo insertion. Takes `&self` so it
    /// works through an `Arc<Optimizer>`; pass `None` to uninstall.
    pub fn set_substitute_auditor(&self, auditor: Option<Arc<dyn SubstituteAuditor>>) {
        *self.auditor.lock().expect("auditor poisoned") = auditor;
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Total number of rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    pub fn rule_id(&self, name: &str) -> Option<RuleId> {
        self.by_name.get(name).copied()
    }

    /// **The pattern-export API of §3.1**: the rule pattern tree for a rule.
    /// Serialize with [`PatternTree::to_xml`] for the paper's XML format.
    pub fn rule_pattern(&self, id: RuleId) -> &PatternTree {
        &self.rule(id).pattern
    }

    /// Ids of all exploration (logical) rules, in stable order.
    pub fn exploration_rule_ids(&self) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == RuleKind::Exploration)
            .map(|(i, _)| RuleId(i as u16))
            .collect()
    }

    /// Ids of all implementation (physical) rules.
    pub fn implementation_rule_ids(&self) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == RuleKind::Implementation)
            .map(|(i, _)| RuleId(i as u16))
            .collect()
    }

    /// Number of `optimize*` calls made so far (the "optimizer invocations"
    /// counted by §5.3.1 / Figure 14).
    pub fn invocation_count(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Optimizes with every rule enabled — `Plan(q)`.
    pub fn optimize(&self, tree: &LogicalTree) -> Result<OptimizeResult> {
        self.optimize_with(tree, &OptimizerConfig::default())
    }

    /// Cached variant of [`Optimizer::optimize`]: identical result, but a
    /// repeat of a previously optimized `(tree, mask, budgets)` key is
    /// served from the invocation cache without spending an invocation.
    pub fn optimize_cached(&self, tree: &LogicalTree) -> Result<Arc<OptimizeResult>> {
        self.optimize_with_cached(tree, &OptimizerConfig::default())
    }

    /// Cached variant of [`Optimizer::optimize_with`]. Errors are not
    /// cached (they are rare and cheap to rediscover).
    pub fn optimize_with_cached(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
    ) -> Result<Arc<OptimizeResult>> {
        let key = CacheKey::new(tree, config);
        let tel = self.telemetry();
        if let Some(hit) = self.cache.lookup(&key) {
            tel.event(|| Event::CacheLookup {
                fingerprint: tree_fingerprint(tree),
                hit: true,
            });
            return Ok(hit);
        }
        tel.event(|| Event::CacheLookup {
            fingerprint: tree_fingerprint(tree),
            hit: false,
        });
        // Disk warm path: a persisted entry stands in for the compute —
        // including its profile sample, so warm telemetry replays the
        // cold run's exactly. Entries absorbed from a checkpoint report
        // (`counted_in_base`) are already in the base aggregates and must
        // not re-record.
        if let Some(store) = self.store.get() {
            if let Some(warm) = store.peek_warm(&key) {
                tel.incr(Counter::CacheWarmHits);
                if self.cache.insert(key, Arc::clone(&warm.result)) && !warm.counted_in_base {
                    self.record_result(&warm.result, warm.sample);
                }
                return Ok(warm.result);
            }
        }
        let (result, sample) = self.compute(tree, config)?;
        let result = Arc::new(result);
        if let Some(store) = self.store.get() {
            store.record_fresh(&key, &result, sample.as_ref());
        }
        // Racing workers may compute the same key concurrently; only the
        // insertion winner records the result (and flushes the profile
        // sample), so telemetry aggregates count each unique optimization
        // exactly once regardless of thread count or scheduling.
        if self.cache.insert(key, Arc::clone(&result)) {
            self.record_result(&result, sample);
        }
        Ok(result)
    }

    /// Hit/miss/eviction counters of the invocation cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached optimization result (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.clear()
    }

    /// Optimizes under a configuration — `Plan(q, ¬R)` when rules are
    /// disabled in `config.mask`.
    pub fn optimize_with(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
    ) -> Result<OptimizeResult> {
        let (result, sample) = self.compute(tree, config)?;
        self.record_result(&result, sample);
        Ok(result)
    }

    /// Records a finished unique optimization into the telemetry registry
    /// and books its profile sample under the caller's span stack.
    /// Called once per *unique* `(tree, mask, budgets)` key on the cached
    /// path (insertion winner) and once per direct [`Self::optimize_with`]
    /// call, which keeps every aggregate thread-count-invariant.
    fn record_result(&self, result: &OptimizeResult, sample: Option<ProfileSample>) {
        let tel = self.telemetry();
        if !tel.is_enabled() {
            return;
        }
        if let Some(sample) = &sample {
            tel.flush_profile(sample);
        }
        tel.incr(Counter::OptInvocations);
        if result.truncated {
            tel.incr(Counter::OptTruncated);
        }
        tel.observe(Hist::MemoGroups, result.groups as u64);
        tel.observe(Hist::MemoExprs, result.exprs as u64);
        let explore = result
            .rule_set
            .iter()
            .filter(|&&r| self.rule(r).kind == RuleKind::Exploration)
            .count() as u64;
        tel.add(Counter::RuleFiresExplore, explore);
        tel.add(
            Counter::RuleFiresImplement,
            result.rule_set.len() as u64 - explore,
        );
        tel.record_rule_set(result.rule_set.iter().map(|r| r.0));
    }

    /// The actual optimization (uninstrumented entry point — callers are
    /// responsible for [`Self::record_result`] so cached and uncached paths
    /// agree on what counts as one invocation). Returns the profile sample
    /// alongside the result so the caller can flush it only for
    /// deduplicated winners.
    fn compute(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
    ) -> Result<(OptimizeResult, Option<ProfileSample>)> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        let tel = self.telemetry();
        // Timestamp only when enabled: `Instant::now` is a syscall on some
        // platforms and the disabled path must stay near-free.
        let started = tel.is_enabled().then(Instant::now);
        // Per-rule bind/substitute timing, buffered until the dedup
        // decision (`Some` exactly when `started` is).
        let mut sample = tel.profile_sample();
        // Fingerprint the *unpinned* tree so invocation events correlate
        // with the cache-lookup events for the same query.
        let fingerprint = tel.tracing().then(|| tree_fingerprint(tree));

        // Pin the root output order with an identity projection so that
        // every alternative plan emits columns in the same order (join
        // commutativity legitimately permutes column order inside).
        let pinned;
        let tree = if matches!(tree.op, Operator::Project { .. }) {
            tree
        } else {
            let schema = derive_schema(&self.db.catalog, tree)?;
            let outputs = schema
                .iter()
                .map(|c| (c.id, Expr::col(c.id)))
                .collect::<Vec<_>>();
            pinned = LogicalTree::project(tree.clone(), outputs);
            &pinned
        };

        let mut memo = Memo::new();
        let (root, _) = memo.insert(&self.db, &newtree_from_logical(tree), None, true)?;
        let ids = RefCell::new(IdGen::above(tree));
        let auditor = self.auditor.lock().expect("auditor poisoned").clone();
        let mut exercised: BTreeSet<RuleId> = BTreeSet::new();
        let mut rule_dependencies: BTreeSet<(RuleId, RuleId)> = BTreeSet::new();
        let mut truncated = false;

        // ---- Exploration to fixpoint ----
        // `applied` dedupes (expression, rule, concrete binding). Rules
        // that mint fresh column ids fire only on *organic* expressions
        // (those not derived from any fresh-id rule): their outputs can
        // never deduplicate, so firing them on their own descendants would
        // diverge (e.g. endlessly re-splitting the global aggregate of a
        // previous split). Organic-ness is intrinsic to an expression's
        // derivation, hence independent of the rule mask — which preserves
        // cost monotonicity under masking.
        let mut applied: HashSet<AppliedKey> = HashSet::new();
        // (group, expr, rule) -> sum of child group sizes when last matched;
        // re-matching is pointless until some child group grows.
        let mut match_watermark: HashMap<(u32, u32, u16), usize> = HashMap::new();
        let empty: Vec<usize> = Vec::new();

        'passes: for _pass in 0..config.max_passes {
            config.deadline.check("memo exploration pass")?;
            let mut changed = false;
            let mut g = 0usize;
            while g < memo.num_groups() {
                let gid = GroupId(g as u32);
                // Task-expansion boundary: a runaway rule is abandoned
                // within one group's worth of work.
                config.deadline.check("memo task expansion")?;
                let mut ei = 0usize;
                while ei < memo.group(gid).exprs.len() {
                    let kind = memo.group(gid).exprs[ei].op.kind();
                    let candidates = self.explore_by_kind.get(&kind).unwrap_or(&empty);
                    for &ri in candidates {
                        let rule = &self.rules[ri];
                        let rid = RuleId(ri as u16);
                        if config.mask.is_disabled(rid) {
                            continue;
                        }
                        if rule.mints_fresh_ids && !memo.is_organic(gid, ei) {
                            continue;
                        }
                        // Child-growth watermark: bindings only change when
                        // a child group gains expressions.
                        let child_sum: usize = memo.group(gid).exprs[ei]
                            .children
                            .iter()
                            .map(|&c| memo.group(c).exprs.len())
                            .sum();
                        let wm_key = (gid.0, ei as u32, rid.0);
                        if match_watermark.get(&wm_key) == Some(&child_sum) {
                            continue;
                        }
                        match_watermark.insert(wm_key, child_sum);
                        let bind_started = sample.is_some().then(Instant::now);
                        let bindings = match_bindings(&memo, &rule.pattern, gid, ei);
                        if let (Some(s), Some(t)) = (sample.as_mut(), bind_started) {
                            s.record_bind(rid.0, RulePhase::Explore, t.elapsed().as_nanos() as u64);
                        }
                        for (bound, sig) in bindings {
                            if rule.mints_fresh_ids
                                && !sig.iter().all(|&(g, e)| memo.is_organic(GroupId(g), e))
                            {
                                continue;
                            }
                            let key = (gid.0, ei, rid.0, sig);
                            if !applied.insert(key) {
                                continue;
                            }
                            let apply_started = sample.is_some().then(Instant::now);
                            let results = {
                                let ctx = RuleCtx {
                                    db: &self.db,
                                    memo: &memo,
                                    ids: &ids,
                                };
                                rule.action
                                    .apply_explore(&ctx, &bound)
                                    .expect("exploration task on implementation rule")
                            };
                            if let (Some(s), Some(t)) = (sample.as_mut(), apply_started) {
                                s.record_apply(
                                    rid.0,
                                    RulePhase::Explore,
                                    t.elapsed().as_nanos() as u64,
                                    !results.is_empty(),
                                );
                            }
                            if !results.is_empty() {
                                exercised.insert(rid);
                                if let Some(creator) = memo.created_by(gid, ei) {
                                    rule_dependencies.insert((creator, rid));
                                }
                                let produced = results.len() as u32;
                                tel.event(|| Event::RuleFire {
                                    rule: rid.0,
                                    phase: RulePhase::Explore,
                                    produced,
                                });
                            }
                            if let Some(aud) = &auditor {
                                for nt in &results {
                                    let violations =
                                        aud.audit(&self.db, &memo, &bound, rule.name, nt);
                                    if violations > 0 {
                                        tel.add(Counter::LintViolations, violations as u64);
                                        tel.event(|| Event::LintViolation { rule: rid.0 });
                                    }
                                }
                            }
                            let organic = !rule.mints_fresh_ids && memo.is_organic(gid, ei);
                            for nt in results {
                                ruletest_common::chaos::point("memo.insert")?;
                                let (_, fresh) = memo.insert_created_by(
                                    &self.db,
                                    &nt,
                                    Some(gid),
                                    organic,
                                    Some(rid),
                                )?;
                                changed |= fresh;
                            }
                            if let Some(hard) = config.hard_max_exprs {
                                if memo.num_exprs() > hard {
                                    return Err(Error::budget(format!(
                                        "memo grew past the hard cap of {hard} expressions"
                                    )));
                                }
                            }
                            if memo.num_exprs() > config.max_exprs {
                                truncated = true;
                                break 'passes;
                            }
                        }
                    }
                    ei += 1;
                }
                g += 1;
            }
            if !changed {
                break;
            }
            if _pass + 1 == config.max_passes {
                truncated = true;
            }
        }

        // ---- Implementation & extraction ----
        let mut extractor = Extractor {
            optimizer: self,
            memo: &memo,
            config,
            ids: &ids,
            cache: HashMap::new(),
            exercised: &mut exercised,
            sample: &mut sample,
        };
        let best = extractor.best_plan(root)?;
        let Some((plan, cost)) = best else {
            return Err(Error::invalid(
                "no physical plan exists under the given rule mask",
            ));
        };

        if let Some(started) = started {
            let elapsed = started.elapsed();
            let elapsed_us = elapsed.as_micros() as u64;
            tel.observe(Hist::InvocationMicros, elapsed_us);
            if let Some(s) = sample.as_mut() {
                s.elapsed_ns = elapsed.as_nanos() as u64;
            }
            let (groups, exprs) = (memo.num_groups() as u32, memo.num_exprs() as u32);
            let masked_rules = config.mask.disabled_rules().len() as u32;
            tel.event(|| Event::Invocation {
                fingerprint: fingerprint.unwrap_or(0),
                masked_rules,
                groups,
                exprs,
                truncated,
                elapsed_us,
            });
        }

        Ok((
            OptimizeResult {
                cost,
                plan,
                rule_set: exercised,
                rule_dependencies,
                groups: memo.num_groups(),
                exprs: memo.num_exprs(),
                truncated,
            },
            sample,
        ))
    }
}

/// Signature of one concrete binding: the (group, expression) pairs
/// chosen for nested pattern nodes, used to deduplicate applications.
pub type BindingSig = Vec<(u32, usize)>;

/// One rule application, for the explore loop's dedup set: expression
/// coordinates, rule id, and the concrete binding signature.
type AppliedKey = (u32, usize, u16, BindingSig);

/// Enumerates pattern bindings of `pattern` against expression `ei` of
/// group `gid`. Returns each binding plus a signature identifying the
/// nested expressions chosen (for deduplication). Public so the lint
/// crate's corpus auditor can bind rules exactly as the explore loop does.
pub fn match_bindings(
    memo: &Memo,
    pattern: &PatternTree,
    gid: GroupId,
    ei: usize,
) -> Vec<(Bound, BindingSig)> {
    let expr = &memo.group(gid).exprs[ei];
    let PatternTree::Op { matcher, children } = pattern else {
        // A bare placeholder pattern matches trivially but binds nothing a
        // rule could use; no rule has one.
        return vec![];
    };
    if !matcher_accepts(matcher, &expr.op) {
        return vec![];
    }
    if children.len() != expr.children.len() {
        return vec![];
    }
    // For each child slot, the list of possible (BoundChild, signature)
    // alternatives.
    let mut slot_options: Vec<Vec<(BoundChild, BindingSig)>> = Vec::new();
    for (pat_child, &cg) in children.iter().zip(&expr.children) {
        match pat_child {
            PatternTree::Any => {
                slot_options.push(vec![(BoundChild::Leaf(cg), vec![])]);
            }
            PatternTree::Op { .. } => {
                let mut opts = Vec::new();
                for (cei, _) in memo.group(cg).exprs.iter().enumerate() {
                    for (nested, mut sig) in match_bindings(memo, pat_child, cg, cei) {
                        sig.insert(0, (cg.0, cei));
                        opts.push((BoundChild::Nested(nested), sig));
                    }
                }
                if opts.is_empty() {
                    return vec![];
                }
                slot_options.push(opts);
            }
        }
    }
    // Cartesian product over slots.
    let mut out: Vec<(Vec<BoundChild>, BindingSig)> = vec![(vec![], vec![])];
    for opts in slot_options {
        let mut next = Vec::with_capacity(out.len() * opts.len());
        for (partial, psig) in &out {
            for (child, csig) in &opts {
                let mut p = partial.clone();
                p.push(child.clone());
                let mut s = psig.clone();
                s.extend(csig.iter().copied());
                next.push((p, s));
            }
        }
        out = next;
    }
    out.into_iter()
        .map(|(children, sig)| {
            (
                Bound {
                    group: gid,
                    op: expr.op.clone(),
                    children,
                },
                sig,
            )
        })
        .collect()
}

fn matcher_accepts(matcher: &OpMatcher, op: &Operator) -> bool {
    matcher.accepts(op.kind(), op.join_kind())
}

/// Maps a physical operator to the logical operator whose schema derivation
/// it shares.
fn logical_equivalent(op: &PhysOp) -> Operator {
    match op {
        PhysOp::SeqScan { table, cols } => Operator::Get {
            table: *table,
            cols: cols.clone(),
        },
        PhysOp::IndexSeek { table, cols, .. } => Operator::Get {
            table: *table,
            cols: cols.clone(),
        },
        PhysOp::Filter { predicate } => Operator::Select {
            predicate: predicate.clone(),
        },
        PhysOp::Compute { outputs } => Operator::Project {
            outputs: outputs.clone(),
        },
        PhysOp::NLJoin { kind, predicate } => Operator::Join {
            kind: *kind,
            predicate: predicate.clone(),
        },
        PhysOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let mut pred = residual.clone();
            for (l, r) in left_keys.iter().zip(right_keys) {
                pred = Expr::and(pred, Expr::eq(Expr::col(*l), Expr::col(*r)));
            }
            Operator::Join {
                kind: *kind,
                predicate: pred,
            }
        }
        PhysOp::MergeJoin {
            left_key,
            right_key,
            residual,
        } => Operator::Join {
            kind: JoinKind::Inner,
            predicate: Expr::and(
                residual.clone(),
                Expr::eq(Expr::col(*left_key), Expr::col(*right_key)),
            ),
        },
        PhysOp::HashAgg { group_by, aggs } | PhysOp::StreamAgg { group_by, aggs } => {
            Operator::GbAgg {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }
        }
        PhysOp::Concat {
            outputs,
            left_cols,
            right_cols,
        } => Operator::UnionAll {
            outputs: outputs.clone(),
            left_cols: left_cols.clone(),
            right_cols: right_cols.clone(),
        },
        PhysOp::HashDistinct => Operator::Distinct,
        PhysOp::SortOp { keys } => Operator::Sort { keys: keys.clone() },
        PhysOp::TopN { n, keys } => Operator::Top {
            n: *n,
            keys: keys.clone(),
        },
    }
}

/// Output schema of a physical operator given its child *plan* schemas
/// (positional, so a commuted join's plan schema reflects the commuted
/// order).
pub fn phys_schema(db: &Database, op: &PhysOp, children: &[&Schema]) -> Result<Schema> {
    let logical = logical_equivalent(op);
    // IndexSeek absorbed a Select(Get); its schema is the Get's.
    output_schema(&db.catalog, &logical, children)
}

enum CacheEntry {
    InProgress,
    Done(Option<(PhysicalPlan, f64)>),
}

struct Extractor<'a> {
    optimizer: &'a Optimizer,
    memo: &'a Memo,
    config: &'a OptimizerConfig,
    ids: &'a RefCell<IdGen>,
    cache: HashMap<GroupId, CacheEntry>,
    exercised: &'a mut BTreeSet<RuleId>,
    /// The invocation's profile buffer (implementation-phase bind/apply
    /// timings land here, `None` when telemetry is disabled).
    sample: &'a mut Option<ProfileSample>,
}

impl Extractor<'_> {
    /// Bottom-up dynamic program: the cheapest physical plan for a group.
    fn best_plan(&mut self, g: GroupId) -> Result<Option<(PhysicalPlan, f64)>> {
        match self.cache.get(&g) {
            Some(CacheEntry::Done(r)) => return Ok(r.clone()),
            Some(CacheEntry::InProgress) => return Ok(None), // cycle guard
            None => {}
        }
        self.cache.insert(g, CacheEntry::InProgress);

        let db = &self.optimizer.db;
        let mut best: Option<(PhysicalPlan, f64)> = None;
        let empty: Vec<usize> = Vec::new();
        for ei in 0..self.memo.group(g).exprs.len() {
            let kind = self.memo.group(g).exprs[ei].op.kind();
            let candidates = self
                .optimizer
                .implement_by_kind
                .get(&kind)
                .unwrap_or(&empty);
            for &ri in candidates.iter() {
                let rule = &self.optimizer.rules[ri];
                let rid = RuleId(ri as u16);
                if self.config.mask.is_disabled(rid) {
                    continue;
                }
                let bind_started = self.sample.is_some().then(Instant::now);
                let bindings = match_bindings(self.memo, &rule.pattern, g, ei);
                if let (Some(s), Some(t)) = (self.sample.as_mut(), bind_started) {
                    s.record_bind(rid.0, RulePhase::Implement, t.elapsed().as_nanos() as u64);
                }
                for (bound, _) in bindings {
                    let apply_started = self.sample.is_some().then(Instant::now);
                    let candidates = {
                        let ctx = RuleCtx {
                            db,
                            memo: self.memo,
                            ids: self.ids,
                        };
                        match &rule.action {
                            RuleAction::Implement(f) => f(&ctx, &bound),
                            _ => unreachable!(),
                        }
                    };
                    if let (Some(s), Some(t)) = (self.sample.as_mut(), apply_started) {
                        s.record_apply(
                            rid.0,
                            RulePhase::Implement,
                            t.elapsed().as_nanos() as u64,
                            !candidates.is_empty(),
                        );
                    }
                    if !candidates.is_empty() {
                        self.exercised.insert(rid);
                        let produced = candidates.len() as u32;
                        self.optimizer.telemetry().event(|| Event::RuleFire {
                            rule: rid.0,
                            phase: RulePhase::Implement,
                            produced,
                        });
                    }
                    'cand: for cand in candidates {
                        let mut child_plans = Vec::with_capacity(cand.children.len());
                        for &cg in &cand.children {
                            match self.best_plan(cg)? {
                                Some((p, _)) => child_plans.push(p),
                                None => continue 'cand,
                            }
                        }
                        let child_schemas: Vec<&Schema> =
                            child_plans.iter().map(|p| &p.schema).collect();
                        let schema = phys_schema(db, &cand.op, &child_schemas)?;
                        let child_rows: Vec<f64> = child_plans.iter().map(|p| p.est_rows).collect();
                        let child_costs: Vec<f64> =
                            child_plans.iter().map(|p| p.est_cost).collect();
                        // Cardinality is a *group* (logical) property: every
                        // plan implementing this group carries the same row
                        // estimate. Per-plan estimates would let a locally
                        // cheaper alternative claim a different output size
                        // and make parent costs — and therefore the chosen
                        // plan — depend on which alternatives the rule mask
                        // happened to generate.
                        let rows = self.memo.est_rows(g);
                        let cost = phys_cost(&cand.op, &child_rows, &child_costs, rows);
                        if best.as_ref().is_none_or(|(_, bc)| cost < *bc) {
                            best = Some((
                                PhysicalPlan {
                                    op: cand.op,
                                    children: child_plans,
                                    schema,
                                    est_rows: rows,
                                    est_cost: cost,
                                },
                                cost,
                            ));
                        }
                    }
                }
            }
        }
        self.cache.insert(g, CacheEntry::Done(best.clone()));
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_storage::{tpch_database, TpchConfig};

    fn optimizer() -> Optimizer {
        Optimizer::new(Arc::new(tpch_database(&TpchConfig::default()).unwrap()))
    }

    fn simple_join(opt: &Optimizer) -> LogicalTree {
        let cat = &opt.db.catalog;
        let mut ids = IdGen::new();
        let l = LogicalTree::get(cat.table_by_name("nation").unwrap(), &mut ids);
        let r = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let pred = Expr::eq(Expr::col(l.output_col(2)), Expr::col(r.output_col(0)));
        LogicalTree::join(JoinKind::Inner, l, r, pred)
    }

    #[test]
    fn optimize_produces_a_plan_and_ruleset() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let res = opt.optimize(&tree).unwrap();
        assert!(res.cost > 0.0);
        assert!(!res.truncated);
        assert!(!res.rule_set.is_empty());
        let commute = opt.rule_id("InnerJoinCommute").unwrap();
        assert!(res.rule_set.contains(&commute));
        // Implementation rules are traced too.
        let seqscan = opt.rule_id("GetToSeqScan").unwrap();
        assert!(res.rule_set.contains(&seqscan));
    }

    #[test]
    fn expired_deadline_abandons_the_search_with_a_timeout() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        // A 1ms deadline that has certainly passed by the time the memo
        // loop reaches its first cooperative check.
        let deadline = ruletest_common::Deadline::after_ms(1);
        while !deadline.expired() {
            std::hint::spin_loop();
        }
        let err = opt
            .optimize_with(
                &tree,
                &OptimizerConfig {
                    deadline,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::Timeout(_)), "{err}");
        // The same tree still optimizes fine without a deadline — the
        // abandoned invocation left no poisoned state behind.
        assert!(opt.optimize(&tree).is_ok());
    }

    #[test]
    fn hard_memo_cap_fails_with_a_budget_error() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let err = opt
            .optimize_with(
                &tree,
                &OptimizerConfig {
                    hard_max_exprs: Some(1),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::Budget(_)), "{err}");
    }

    #[test]
    fn masking_a_rule_removes_it_from_the_ruleset() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let commute = opt.rule_id("InnerJoinCommute").unwrap();
        let res = opt
            .optimize_with(&tree, &OptimizerConfig::disabling(&[commute]))
            .unwrap();
        assert!(!res.rule_set.contains(&commute));
    }

    #[test]
    fn disabling_rules_never_lowers_cost() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let base = opt.optimize(&tree).unwrap();
        for rid in opt.exploration_rule_ids() {
            let masked = opt
                .optimize_with(&tree, &OptimizerConfig::disabling(&[rid]))
                .unwrap();
            assert!(
                masked.cost >= base.cost - 1e-9,
                "disabling {} lowered cost: {} -> {}",
                opt.rule(rid).name,
                base.cost,
                masked.cost
            );
        }
    }

    #[test]
    fn hash_join_beats_nested_loops_here() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let base = opt.optimize(&tree).unwrap();
        let hj = opt.rule_id("JoinToHashJoin").unwrap();
        let mj = opt.rule_id("InnerJoinToMergeJoin").unwrap();
        let masked = opt
            .optimize_with(&tree, &OptimizerConfig::disabling(&[hj, mj]))
            .unwrap();
        assert!(masked.cost > base.cost);
    }

    #[test]
    fn disabling_every_join_implementation_fails() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let ids: Vec<RuleId> = [
            "JoinToNestedLoops",
            "JoinToHashJoin",
            "InnerJoinToMergeJoin",
        ]
        .iter()
        .map(|n| opt.rule_id(n).unwrap())
        .collect();
        assert!(opt
            .optimize_with(&tree, &OptimizerConfig::disabling(&ids))
            .is_err());
    }

    #[test]
    fn invocation_counter_increments() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let before = opt.invocation_count();
        let _ = opt.optimize(&tree).unwrap();
        let _ = opt.optimize(&tree).unwrap();
        assert_eq!(opt.invocation_count(), before + 2);
    }

    #[test]
    fn telemetry_counts_unique_optimizations_once() {
        let opt = optimizer();
        opt.attach_telemetry(Telemetry::enabled());
        let tree = simple_join(&opt);
        let a = opt.optimize_cached(&tree).unwrap();
        let _b = opt.optimize_cached(&tree).unwrap(); // cache hit
        let tel = opt.telemetry();
        assert_eq!(tel.counter(Counter::OptInvocations), 1);
        let snap = tel.metrics_snapshot();
        // Every rule in the result's rule set got exactly one firing.
        for rid in &a.rule_set {
            assert_eq!(snap.rule_firings[rid.0 as usize], 1, "rule {rid:?}");
        }
        // Both lookups and the computed invocation were traced.
        let events = tel.trace_stats();
        assert!(events.recorded >= 3, "lookups + rule fires + invocation");
    }

    #[test]
    fn profile_samples_flush_once_per_unique_key() {
        let opt = optimizer();
        opt.attach_telemetry(Telemetry::metrics_only());
        let tree = simple_join(&opt);
        let res = opt.optimize_cached(&tree).unwrap();
        let _ = opt.optimize_cached(&tree).unwrap(); // cache hit: no reflush
        let names: Vec<String> = (0..opt.num_rules())
            .map(|i| opt.rule(RuleId(i as u16)).name.to_string())
            .collect();
        let profile = opt.telemetry().profile_section(&names);
        profile.validate().unwrap();
        // No enclosing stage span here, so the invocation is a root row.
        let root = profile
            .spans
            .iter()
            .find(|r| r.path == "optimize")
            .expect("optimize row");
        assert_eq!(root.count, 1);
        // Per-rule attribution covers both phases.
        assert!(profile.rules.contains_key("InnerJoinCommute/explore"));
        assert!(profile.rules.contains_key("GetToSeqScan/implement"));
        let scan = &profile.rules["GetToSeqScan/implement"];
        assert!(scan.binds >= 1 && scan.fires >= 1);
        // Every rule in the result's rule set shows up in the cost table.
        for rid in &res.rule_set {
            let name = opt.rule(*rid).name;
            assert!(
                profile.rules.keys().any(|k| k.starts_with(name)),
                "missing cost row for {name}"
            );
        }
    }

    #[test]
    fn uncached_calls_record_each_time() {
        let opt = optimizer();
        opt.attach_telemetry(Telemetry::metrics_only());
        let tree = simple_join(&opt);
        let _ = opt.optimize(&tree).unwrap();
        let _ = opt.optimize(&tree).unwrap();
        assert_eq!(opt.telemetry().counter(Counter::OptInvocations), 2);
    }

    #[test]
    fn warm_store_replays_cold_telemetry_without_computing() {
        use crate::persist::{campaign_fingerprint, SnapshotStore};
        let dir = std::env::temp_dir().join(format!(
            "ruletest-opt-warm-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let cold = optimizer();
        cold.attach_telemetry(Telemetry::metrics_only());
        let fp = campaign_fingerprint(&cold.db.catalog, cold.rules.iter(), 1, 1);
        cold.attach_snapshot_store(Arc::new(SnapshotStore::open(&dir, fp, None).unwrap()));
        let tree = simple_join(&cold);
        let cold_res = cold.optimize_cached(&tree).unwrap();
        assert!(cold.persist_cache().unwrap() >= 1);
        assert!(cold.telemetry().counter(Counter::CachePersisted) >= 1);

        let warm = optimizer();
        warm.attach_telemetry(Telemetry::metrics_only());
        warm.attach_snapshot_store(Arc::new(SnapshotStore::open(&dir, fp, None).unwrap()));
        let warm_res = warm.optimize_cached(&tree).unwrap();
        assert_eq!(warm.invocation_count(), 0, "warm hit must not compute");
        assert_eq!(warm_res.cost.to_bits(), cold_res.cost.to_bits());
        assert_eq!(warm_res.rule_set, cold_res.rule_set);
        assert_eq!(warm.telemetry().counter(Counter::OptInvocations), 1);
        assert_eq!(warm.telemetry().counter(Counter::CacheWarmHits), 1);
        // The persisted profile sample replays verbatim: warm and cold
        // profile sections are byte-identical.
        let names: Vec<String> = (0..cold.num_rules())
            .map(|i| cold.rule(RuleId(i as u16)).name.to_string())
            .collect();
        assert_eq!(
            cold.telemetry()
                .profile_section(&names)
                .to_json()
                .to_string_compact(),
            warm.telemetry()
                .profile_section(&names)
                .to_json()
                .to_string_compact()
        );

        // A stale fingerprint is rejected and counted; the probe computes.
        let stale = optimizer();
        stale.attach_telemetry(Telemetry::metrics_only());
        stale.attach_snapshot_store(Arc::new(SnapshotStore::open(&dir, fp + 1, None).unwrap()));
        assert_eq!(
            stale.telemetry().counter(Counter::CacheFingerprintRejected),
            1
        );
        let _ = stale.optimize_cached(&tree).unwrap();
        assert_eq!(stale.invocation_count(), 1, "rejected snapshot stays cold");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pattern_api_exports_xml() {
        let opt = optimizer();
        let commute = opt.rule_id("InnerJoinCommute").unwrap();
        let xml = opt.rule_pattern(commute).to_xml();
        assert!(xml.contains("Join"));
        assert!(xml.contains("<Any/>"));
    }

    #[test]
    fn rule_catalog_is_well_formed() {
        let opt = optimizer();
        assert!(opt.exploration_rule_ids().len() >= 30, "paper uses ~30");
        assert!(opt.implementation_rule_ids().len() >= 10);
        // Names unique.
        let mut names: Vec<_> = (0..opt.num_rules())
            .map(|i| opt.rule(RuleId(i as u16)).name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), opt.num_rules());
    }
}
