//! Campaign checkpoint/resume: stage-boundary persistence for the audit
//! pipeline.
//!
//! The optimizer-level snapshot store (`ruletest_optimizer::persist`)
//! answers *invocation* probes across processes; this module persists
//! *campaign progress* — the generated test suite and the bipartite graph
//! — so a campaign killed mid-flight resumes at its last completed stage
//! instead of restarting. Both layers are guarded by the same campaign
//! fingerprint (catalog, rule catalog, seed, scale), so neither can ever
//! serve state produced under a different configuration.
//!
//! The checkpoint protocol keeps the resumed report byte-identical to an
//! uninterrupted run on the deterministic slice:
//!
//! 1. Entering stage *k*, the snapshot store's boundary stamp is set to
//!    *k*: invocation entries recorded during the stage are tagged with
//!    it.
//! 2. At the boundary after stage *k*, the invocation cache is saved
//!    (inside a [`Stage::Persist`] span), the cumulative [`RunReport`] is
//!    snapshotted (it includes that span), and the stage file is written
//!    via atomic rename.
//! 3. A kill mid-stage therefore discards the partial stage from *both*
//!    the report (the base is the previous boundary's snapshot) and the
//!    disk cache (saves only happen at boundaries) — the resumed process
//!    recomputes the whole stage, warm-started by entries the boundary
//!    saves did persist.
//!
//! On `--resume`, disk entries whose boundary stamp is covered by the
//! loaded checkpoint (`boundary <= counted_through`) are already counted
//! in the base report and replay silently; later entries replay their
//! telemetry exactly as a cold compute would.

use crate::framework::Framework;
use crate::generate::{GenConfig, Strategy};
use crate::suite::graph::build_graph_with;
use crate::suite::{
    generate_suite_with, singleton_targets, BipartiteGraph, RuleTarget, SuiteQuery, TestSuite,
};
use crate::supervise::Quarantine;
use ruletest_common::{Error, Result};
use ruletest_optimizer::codec;
use ruletest_optimizer::persist::{field, write_atomic, Codec};
use ruletest_optimizer::SnapshotStore;
use ruletest_telemetry::{Json, RunReport, Stage};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checkpoint layout version; a mismatch invalidates the checkpoint the
/// same way a fingerprint mismatch does. Version 2: every graph
/// checkpoint carries `{suite, graph}` (version 1 wrote a bare graph for
/// unsupervised runs).
pub const CHECKPOINT_FORMAT: u64 = 2;

/// Stage names (also the checkpoint file names).
pub const STAGE_SUITE: &str = "suite";
pub const STAGE_GRAPH: &str = "graph";

/// The persisted quarantine's file name, next to the stage files.
const QUARANTINE_FILE: &str = "quarantine.json";

/// Boundary stamps for the snapshot store: which completed stage an
/// invocation-cache entry belongs to. The final save after the execute
/// stage uses [`BOUNDARY_EXECUTE`] and writes no stage file — compression
/// is pure arithmetic and execution results are never checkpointed.
pub const BOUNDARY_SUITE: u64 = 1;
pub const BOUNDARY_GRAPH: u64 = 2;
pub const BOUNDARY_EXECUTE: u64 = 3;

fn io_err(what: &str, e: io::Error) -> Error {
    Error::unsupported(format!("{what}: {e}"))
}

fn malformed(e: String) -> Error {
    Error::unsupported(format!("campaign checkpoint: malformed {e}"))
}

// ---------------------------------------------------------------------
// Parameters and fingerprinting.

/// The audit-campaign parameters that, together with the campaign
/// fingerprint, identify a checkpoint. Two runs with the same fingerprint
/// but different parameters (a different seed, `k`, target count, or
/// generation budget) must not consume each other's checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignParams {
    /// Number of (singleton) rule targets.
    pub rules: usize,
    /// Queries per target.
    pub k: usize,
    /// Generation seed.
    pub seed: u64,
    /// Padding operators above each instantiated pattern.
    pub pad_ops: usize,
    /// Generation trial budget per problem.
    pub max_trials: usize,
}

impl CampaignParams {
    /// The generation configuration these parameters induce.
    pub fn gen_config(&self) -> GenConfig {
        GenConfig {
            seed: self.seed,
            pad_ops: self.pad_ops,
            max_trials: self.max_trials,
            ..GenConfig::default()
        }
    }
}

codec!(struct CampaignParams {
    rules: "rules",
    k: "k",
    seed: "seed",
    pad_ops: "pad_ops",
    max_trials: "max_trials",
});

// ---------------------------------------------------------------------
// Suite / graph wire forms. Floats travel as hex bit patterns, for the
// same reason as in the optimizer snapshot: costs must survive
// bit-exactly.

/// `{"s": id}` for a single rule, `{"p": [a, b]}` for a pair.
impl Codec for RuleTarget {
    fn enc(&self) -> Json {
        match *self {
            RuleTarget::Single(r) => Json::obj(vec![("s", r.enc())]),
            RuleTarget::Pair(a, b) => Json::obj(vec![("p", (a, b).enc())]),
        }
    }
    fn dec(j: &Json) -> std::result::Result<Self, String> {
        if j.get("s").is_some() {
            field(j, "s").map(RuleTarget::Single)
        } else {
            field(j, "p").map(|(a, b)| RuleTarget::Pair(a, b))
        }
    }
}

codec!(struct SuiteQuery {
    tree: "tree",
    sql: "sql",
    rule_set: "rule_set",
    cost: "cost",
    generated_for: "generated_for",
});
codec!(struct TestSuite { targets: "targets", k: "k", seed: "seed", queries: "queries" });

/// One graph edge `(target, query) -> Cost(q, ¬R)` on the wire.
struct Edge {
    t: usize,
    q: usize,
    c: f64,
}

codec!(struct Edge { t: "t", q: "q", c: "c" });

/// Edges are written sorted by `(target, query)` so the checkpoint bytes
/// are deterministic.
impl Codec for BipartiteGraph {
    fn enc(&self) -> Json {
        let mut edges: Vec<Edge> = self
            .edges
            .iter()
            .map(|(&(t, q), &c)| Edge { t, q, c })
            .collect();
        edges.sort_by_key(|e| (e.t, e.q));
        Json::obj(vec![
            ("targets", self.targets.enc()),
            ("k", self.k.enc()),
            ("node_cost", self.node_cost.enc()),
            ("adjacency", self.adjacency.enc()),
            ("edges", edges.enc()),
            ("generated_for", self.generated_for.enc()),
            ("optimizer_calls", self.optimizer_calls.enc()),
        ])
    }
    fn dec(j: &Json) -> std::result::Result<Self, String> {
        let edges: Vec<Edge> = field(j, "edges")?;
        Ok(BipartiteGraph {
            targets: field(j, "targets")?,
            k: field(j, "k")?,
            node_cost: field(j, "node_cost")?,
            adjacency: field(j, "adjacency")?,
            edges: edges.into_iter().map(|e| ((e.t, e.q), e.c)).collect(),
            generated_for: field(j, "generated_for")?,
            optimizer_calls: field(j, "optimizer_calls")?,
        })
    }
}

/// Serializes a generated test suite for the `suite` checkpoint.
pub fn suite_to_json(suite: &TestSuite) -> Json {
    suite.enc()
}

/// Serializes a bipartite graph for the `graph` checkpoint.
pub fn graph_to_json(graph: &BipartiteGraph) -> Json {
    graph.enc()
}

// ---------------------------------------------------------------------
// The checkpoint store.

/// Stage-boundary checkpoint files under `<cache-dir>/checkpoint/`. Each
/// stage file carries the format version, campaign fingerprint, campaign
/// parameters, the boundary stamp, the stage payload, and the cumulative
/// run-report snapshot at that boundary.
pub struct CampaignStore {
    dir: PathBuf,
    fingerprint: String,
    params: Json,
    metrics: bool,
}

impl CampaignStore {
    /// Opens (creating if needed) the checkpoint directory for a campaign
    /// identified by `fingerprint` and `params`. `metrics` records whether
    /// telemetry is observing the campaign — it is part of the checkpoint
    /// identity, because a metrics-enabled resume merging the empty base
    /// report of an unobserved original would claim zero invocations for
    /// stages that very much ran (and trip `report --check`). Switching
    /// telemetry on or off between runs recomputes instead.
    pub fn open(
        cache_dir: &Path,
        fingerprint: u64,
        params: &CampaignParams,
        metrics: bool,
    ) -> io::Result<Self> {
        let dir = cache_dir.join("checkpoint");
        fs::create_dir_all(&dir)?;
        Ok(CampaignStore {
            dir,
            fingerprint: format!("{fingerprint:016x}"),
            params: params.enc(),
            metrics,
        })
    }

    /// Writes `members` plus the campaign identity (format version,
    /// fingerprint, parameters) atomically as checkpoint file `file`.
    fn write(&self, file: &str, mut members: Vec<(&str, Json)>) -> io::Result<()> {
        members.extend([
            ("format", CHECKPOINT_FORMAT.enc()),
            ("fingerprint", self.fingerprint.enc()),
            ("params", self.params.clone()),
        ]);
        write_atomic(&self.dir.join(file), Json::obj(members).to_string_compact())
    }

    /// Reads checkpoint file `file` if it was written for this campaign:
    /// `None` when it is absent, unreadable, or carries a different format
    /// version, fingerprint, or parameter set — a stale checkpoint
    /// silently falls back to recomputation, never to an error. A file
    /// that exists but does not parse (truncated by a crash mid-write of a
    /// non-atomic editor, disk corruption) is *warned about*, naming the
    /// `fallback`, so the operator learns the resume was partial.
    fn read(&self, file: &str, fallback: &str) -> Option<Json> {
        let text = fs::read_to_string(self.dir.join(file)).ok()?;
        let doc = match Json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("warning: campaign checkpoint {file} is corrupted ({e}); {fallback}");
                return None;
            }
        };
        let ours = field(&doc, "format") == Ok(CHECKPOINT_FORMAT)
            && doc.get("fingerprint").and_then(Json::as_str) == Some(&self.fingerprint)
            && doc.get("params") == Some(&self.params);
        ours.then_some(doc)
    }

    fn stage_file(name: &str) -> String {
        format!("stage-{name}.json")
    }

    /// Writes the checkpoint for one completed stage atomically.
    pub fn save_stage(
        &self,
        name: &str,
        boundary: u64,
        payload: Json,
        report: &RunReport,
    ) -> io::Result<()> {
        let members = vec![
            ("metrics", self.metrics.enc()),
            ("boundary", boundary.enc()),
            ("payload", payload),
            ("report", report.to_json()),
        ];
        self.write(&Self::stage_file(name), members)
    }

    /// Loads a stage checkpoint, or `None` when it is absent, corrupted,
    /// or stale, or was written with telemetry switched the other way.
    pub fn load_stage(&self, name: &str) -> Option<(u64, Json, RunReport)> {
        let doc = self.read(&Self::stage_file(name), "recomputing the stage")?;
        if field(&doc, "metrics") != Ok(self.metrics) {
            return None;
        }
        let boundary = field(&doc, "boundary").ok()?;
        let report = RunReport::from_json_value(doc.get("report")?).ok()?;
        Some((boundary, doc.get("payload")?.clone(), report))
    }

    /// Persists the campaign's quarantine atomically, guarded by the same
    /// format/fingerprint/params identity as the stage files (quarantine
    /// fingerprints are only meaningful for the campaign that wrote them).
    /// Telemetry on/off is deliberately *not* part of the identity: the
    /// quarantine records poisoned inputs, not counted work.
    pub fn save_quarantine(&self, quarantine: &Quarantine) -> io::Result<()> {
        self.write(QUARANTINE_FILE, vec![("quarantine", quarantine.enc())])
    }

    /// Loads the persisted quarantine; absent, unreadable, or mismatched
    /// files yield an empty quarantine (same soft-fail contract as
    /// [`CampaignStore::load_stage`], with the same corruption warning).
    pub fn load_quarantine(&self) -> Quarantine {
        self.read(QUARANTINE_FILE, "starting with an empty quarantine")
            .and_then(|doc| field(&doc, "quarantine").ok())
            .unwrap_or_default()
    }

    /// Removes all stage files and the quarantine (a fresh non-resume run
    /// must not leave a previous campaign's checkpoints behind for a
    /// later `--resume`).
    pub fn clear(&self) -> io::Result<()> {
        for file in [
            Self::stage_file(STAGE_SUITE),
            Self::stage_file(STAGE_GRAPH),
            QUARANTINE_FILE.to_string(),
        ] {
            match fs::remove_file(self.dir.join(file)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The checkpointed campaign driver.

/// The suite and graph an audit campaign runs its compression and
/// correctness stages over, plus which stages came from checkpoints.
pub struct CampaignRun {
    pub suite: TestSuite,
    pub graph: BipartiteGraph,
    /// Stage names answered from a checkpoint instead of recomputed.
    pub resumed: Vec<&'static str>,
    /// The checkpoint store, when one is attached — the caller uses it to
    /// persist the final quarantine after the execute stage.
    pub store: Option<CampaignStore>,
}

/// Runs the generation and graph stages of an audit campaign with
/// optional persistence (`cache_dir`) and resume.
///
/// With a cache dir, the optimizer's snapshot store is attached (warm
/// invocation entries answer probes without recomputing) and each
/// completed stage is checkpointed; with `resume`, valid checkpoints are
/// loaded instead of recomputed and their report snapshot becomes the
/// framework's base report. Returns `None` when `stop_after` names the
/// last completed stage — the test hook simulating a `kill -9` at a
/// stage boundary (a kill mid-stage is equivalent to a kill at the
/// previous boundary: neither the report nor the disk cache retains
/// partial-stage state).
///
/// On return, the snapshot store's boundary is set to
/// [`BOUNDARY_EXECUTE`]; the caller runs compression/execution and
/// finishes with [`final_persist`].
pub fn run_checkpointed_campaign(
    fw: &Framework,
    params: &CampaignParams,
    cache_dir: Option<&Path>,
    resume: bool,
    stop_after: Option<&str>,
) -> Result<Option<CampaignRun>> {
    campaign_impl(fw, params, cache_dir, resume, stop_after, None)
}

/// [`run_checkpointed_campaign`] under a quarantine: the generation and
/// graph stages run under the panic sandbox, absorbed failures land in
/// `quarantine` (which is persisted in the checkpoint dir at every stage
/// boundary and merged back on `--resume`, so a resumed campaign skips
/// known-poisoned inputs instead of re-crashing on them), and quarantined
/// targets shrink the suite instead of aborting the run.
pub fn run_checkpointed_campaign_supervised(
    fw: &Framework,
    params: &CampaignParams,
    cache_dir: Option<&Path>,
    resume: bool,
    stop_after: Option<&str>,
    quarantine: &mut Quarantine,
) -> Result<Option<CampaignRun>> {
    campaign_impl(fw, params, cache_dir, resume, stop_after, Some(quarantine))
}

fn campaign_impl(
    fw: &Framework,
    params: &CampaignParams,
    cache_dir: Option<&Path>,
    resume: bool,
    stop_after: Option<&str>,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<Option<CampaignRun>> {
    let fingerprint = fw.campaign_fingerprint();
    let cstore = match cache_dir {
        Some(dir) => Some(
            CampaignStore::open(dir, fingerprint, params, fw.telemetry.is_enabled())
                .map_err(|e| io_err("opening checkpoint dir", e))?,
        ),
        None => None,
    };
    // Load usable checkpoints before opening the snapshot store: the warm
    // store must know which boundary the base report already covers. A
    // graph checkpoint is only usable together with the suite it was
    // derived from.
    let (suite_ck, graph_ck) = match (&cstore, resume) {
        (Some(cs), true) => {
            let suite_ck = cs.load_stage(STAGE_SUITE);
            let graph_ck = if suite_ck.is_some() {
                cs.load_stage(STAGE_GRAPH)
            } else {
                None
            };
            (suite_ck, graph_ck)
        }
        _ => (None, None),
    };
    if let (Some(cs), false) = (&cstore, resume) {
        cs.clear()
            .map_err(|e| io_err("clearing stale checkpoints", e))?;
    }
    // A supervised resume inherits the persisted quarantine: inputs that
    // crashed the previous run are skipped, not retried.
    if let (Some(cs), true, Some(q)) = (&cstore, resume, quarantine.as_deref_mut()) {
        q.merge(cs.load_quarantine());
    }
    let counted_through = graph_ck
        .as_ref()
        .or(suite_ck.as_ref())
        .map(|(boundary, _, _)| *boundary);
    let store = match cache_dir {
        Some(dir) => {
            let s = Arc::new(
                SnapshotStore::open(dir, fingerprint, counted_through)
                    .map_err(|e| io_err("opening cache snapshot", e))?,
            );
            fw.optimizer.attach_snapshot_store(Arc::clone(&s));
            Some(s)
        }
        None => None,
    };
    let mut resumed = Vec::new();
    if suite_ck.is_some() {
        resumed.push(STAGE_SUITE);
    }
    if graph_ck.is_some() {
        resumed.push(STAGE_GRAPH);
    }
    // The newest checkpoint's report snapshot is cumulative through its
    // boundary — it becomes the base the resumed process builds on.
    if let Some((_, _, report)) = graph_ck.as_ref().or(suite_ck.as_ref()) {
        fw.set_report_base(report.clone());
    }

    // Stage 1: suite generation.
    let suite = match &suite_ck {
        Some((_, payload, _)) => TestSuite::dec(payload).map_err(malformed)?,
        None => {
            if let Some(s) = &store {
                s.set_boundary(BOUNDARY_SUITE);
            }
            let suite = generate_suite_with(
                fw,
                singleton_targets(fw, params.rules),
                params.k,
                Strategy::Pattern,
                &params.gen_config(),
                quarantine.as_deref_mut(),
            )?;
            let payload = suite.enc();
            let q = quarantine.as_deref();
            checkpoint(fw, &cstore, STAGE_SUITE, BOUNDARY_SUITE, payload, q)?;
            suite
        }
    };
    if stop_after == Some(STAGE_SUITE) {
        return Ok(None);
    }

    // Stage 2: bipartite graph. A supervised graph stage may shrink the
    // suite (quarantined targets drop with their queries), so the
    // checkpoint payload carries the graph's suite alongside the graph —
    // the two must stay consistent on resume.
    let (suite, graph) = match &graph_ck {
        Some((_, payload, _)) => (
            field(payload, "suite").map_err(malformed)?,
            field(payload, "graph").map_err(malformed)?,
        ),
        None => {
            if let Some(s) = &store {
                s.set_boundary(BOUNDARY_GRAPH);
            }
            let (suite, graph) = build_graph_with(fw, &suite, quarantine.as_deref_mut())?;
            let payload = Json::obj(vec![("suite", suite.enc()), ("graph", graph.enc())]);
            let q = quarantine.as_deref();
            checkpoint(fw, &cstore, STAGE_GRAPH, BOUNDARY_GRAPH, payload, q)?;
            (suite, graph)
        }
    };
    if stop_after == Some(STAGE_GRAPH) {
        return Ok(None);
    }
    // Compression is pure arithmetic (always recomputed); execution
    // entries recorded from here on belong to the final boundary.
    if let Some(s) = &store {
        s.set_boundary(BOUNDARY_EXECUTE);
    }
    Ok(Some(CampaignRun {
        suite,
        graph,
        resumed,
        store: cstore,
    }))
}

/// One stage boundary: persist the invocation cache (inside the persist
/// span — the span count is part of the deterministic slice and must be
/// identical for cold, warm, and resumed runs), then snapshot the
/// cumulative report (which includes that span), then write the stage
/// file and, for a supervised run, the quarantine.
fn checkpoint(
    fw: &Framework,
    cstore: &Option<CampaignStore>,
    name: &str,
    boundary: u64,
    payload: Json,
    quarantine: Option<&Quarantine>,
) -> Result<()> {
    let Some(cs) = cstore else {
        return Ok(());
    };
    {
        let _span = fw.telemetry.span(Stage::Persist);
        fw.optimizer
            .persist_cache()
            .map_err(|e| io_err("persisting invocation cache", e))?;
    }
    let report = fw.run_report();
    cs.save_stage(name, boundary, payload, &report)
        .map_err(|e| io_err("writing stage checkpoint", e))?;
    if let Some(q) = quarantine {
        cs.save_quarantine(q)
            .map_err(|e| io_err("writing quarantine", e))?;
    }
    Ok(())
}

/// The final invocation-cache save after the execute stage. No stage file
/// follows it: a completed campaign's checkpoints stay at the graph
/// boundary, and the boundary stamps on the execute-stage entries tell a
/// later resume they were never counted in any checkpointed report.
pub fn final_persist(fw: &Framework) -> Result<u64> {
    if fw.optimizer.snapshot_store().is_none() {
        return Ok(0);
    }
    let _span = fw.telemetry.span(Stage::Persist);
    fw.optimizer
        .persist_cache()
        .map_err(|e| io_err("persisting invocation cache", e))
}
