//! Persistent invocation cache + campaign checkpoint/resume invariants:
//! (1) a warm start answers every unchanged invocation from disk and
//! reproduces the cold run's deterministic report slice byte for byte,
//! (2) a campaign killed at a stage boundary resumes to the identical
//! deterministic slice an uninterrupted run produces, and (3) a snapshot
//! written under a different campaign fingerprint is rejected, never
//! served.

use ruletest_core::compress::topk;
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    final_persist, run_checkpointed_campaign, CampaignParams, Framework, FrameworkConfig,
    GenConfig, Instance,
};
use ruletest_executor::ExecConfig;
use ruletest_telemetry::{Counter, RunReport, Telemetry};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruletest_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fw() -> Framework {
    Framework::new(&FrameworkConfig::default())
        .unwrap()
        .with_telemetry(Telemetry::metrics_only())
}

fn params() -> CampaignParams {
    CampaignParams {
        rules: 3,
        k: 2,
        seed: 11,
        pad_ops: 1,
        max_trials: GenConfig::default().max_trials,
    }
}

/// Runs the full campaign (generation → graph → compression → execution →
/// final cache save) and returns the resumed-stage list and final report.
fn full_campaign(
    fw: &Framework,
    cache_dir: Option<&Path>,
    resume: bool,
) -> (Vec<&'static str>, RunReport) {
    let run = run_checkpointed_campaign(fw, &params(), cache_dir, resume, None)
        .unwrap()
        .expect("no stop hook: campaign runs to completion");
    let inst = Instance::from_graph(&run.graph);
    let sol = topk(&inst).unwrap();
    execute_solution(fw, &run.suite, &inst, &sol, &ExecConfig::default()).unwrap();
    final_persist(fw).unwrap();
    let report = fw.run_report();
    report.check().unwrap();
    (run.resumed, report)
}

/// A warm start recomputes nothing and reproduces the cold deterministic
/// slice exactly.
#[test]
fn warm_start_is_deterministic_with_zero_recomputation() {
    let dir = temp_dir("warm");

    let cold_fw = fw();
    let (resumed, cold) = full_campaign(&cold_fw, Some(&dir), false);
    assert!(resumed.is_empty(), "nothing to resume on a cold start");
    assert!(cold_fw.optimizer.invocation_count() > 0);
    assert!(cold.counter(Counter::CachePersisted) > 0);
    assert_eq!(cold.counter(Counter::CacheWarmHits), 0);

    let warm_fw = fw();
    let (_, warm) = full_campaign(&warm_fw, Some(&dir), false);
    assert_eq!(
        warm_fw.optimizer.invocation_count(),
        0,
        "warm start must not re-optimize any unchanged entry"
    );
    assert!(warm.counter(Counter::CacheWarmHits) > 0);
    assert_eq!(
        cold.deterministic_json(),
        warm.deterministic_json(),
        "cold and warm deterministic slices diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing the campaign at a stage boundary and resuming yields the same
/// deterministic slice as never having been killed.
#[test]
fn resume_after_kill_matches_uninterrupted_run() {
    for (tag, stop_after, expect_resumed) in [
        ("kill-suite", "suite", vec!["suite"]),
        ("kill-graph", "graph", vec!["suite", "graph"]),
    ] {
        let dir = temp_dir(tag);

        // The "killed" process: runs up to the boundary, then vanishes —
        // the Framework is dropped without any further persistence, like
        // a SIGKILL between stages.
        let killed = fw();
        let out =
            run_checkpointed_campaign(&killed, &params(), Some(&dir), false, Some(stop_after))
                .unwrap();
        assert!(out.is_none(), "stop hook must report the simulated kill");
        drop(killed);

        let resumed_fw = fw();
        let (resumed, report) = full_campaign(&resumed_fw, Some(&dir), true);
        assert_eq!(resumed, expect_resumed, "{tag}");

        let baseline_dir = temp_dir(&format!("{tag}-baseline"));
        let (_, uninterrupted) = full_campaign(&fw(), Some(&baseline_dir), false);
        assert_eq!(
            report.deterministic_json(),
            uninterrupted.deterministic_json(),
            "{tag}: resumed slice diverged from the uninterrupted run"
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }
}

/// A checkpoint written by an unobserved (telemetry-disabled) campaign
/// must not serve as the report base of a metrics-enabled resume: the
/// empty base would make the merged report claim zero invocations for
/// stages that ran, tripping `RunReport::check`. A telemetry-mode switch
/// recomputes the stages instead.
/// Seeds above 2^53 stay exact in the checkpoint identity and payload: a
/// JSON number would round 2^53 + 1 down to 2^53, and the second campaign
/// would resume the first one's checkpoints.
#[test]
fn seeds_beyond_2_pow_53_do_not_share_checkpoints() {
    let dir = temp_dir("bigseed");
    let campaign = |seed: u64, resume: bool| {
        let params = CampaignParams { seed, ..params() };
        run_checkpointed_campaign(&fw(), &params, Some(&dir), resume, None)
            .unwrap()
            .expect("no stop hook: campaign runs to completion")
    };
    let low = 1u64 << 53;
    assert!(campaign(low, false).resumed.is_empty());
    let high = campaign(low + 1, true);
    assert!(
        high.resumed.is_empty(),
        "seed 2^53+1 resumed the checkpoints of seed 2^53: {:?}",
        high.resumed
    );
    assert_eq!(high.suite.seed, low + 1);
    let again = campaign(low + 1, true);
    assert_eq!(again.resumed, vec!["suite", "graph"]);
    assert_eq!(again.suite.seed, low + 1, "the checkpointed seed is exact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_mode_switch_invalidates_checkpoints() {
    let dir = temp_dir("mode-switch");

    let unobserved = Framework::new(&FrameworkConfig::default()).unwrap();
    let out = run_checkpointed_campaign(&unobserved, &params(), Some(&dir), false, Some("graph"))
        .unwrap();
    assert!(out.is_none());
    drop(unobserved);

    // full_campaign's fw() enables metrics, and the helper runs
    // `report.check()` — which would fail on a zero-invocation report.
    let (resumed, report) = full_campaign(&fw(), Some(&dir), true);
    assert!(
        resumed.is_empty(),
        "unobserved checkpoints must not resume an observed campaign"
    );
    assert!(report.counter(Counter::OptInvocations) > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted or truncated checkpoint files degrade to recomputation, not
/// a crash: garbage in a stage checkpoint, a truncated cache shard, or a
/// mangled quarantine file each warn and cold-start, and the recomputed
/// campaign reproduces the clean deterministic slice.
#[test]
fn corrupted_checkpoints_recompute_instead_of_crashing() {
    let dir = temp_dir("corrupt");
    let (_, clean) = full_campaign(&fw(), Some(&dir), false);

    // Corrupt every persisted artifact class at once: stage checkpoints
    // (truncated JSON), one cache shard (binary garbage), and the
    // quarantine file (not JSON at all).
    let checkpoint = dir.join("checkpoint");
    std::fs::write(checkpoint.join("stage-suite.json"), "{\"format\":1,\"trunc").unwrap();
    std::fs::write(checkpoint.join("stage-graph.json"), "\0\0garbage\0").unwrap();
    std::fs::write(checkpoint.join("quarantine.json"), "not json either").unwrap();
    let shard = dir.join("cache").join("shard-0.jsonl");
    if shard.exists() {
        std::fs::write(&shard, "{\"truncated").unwrap();
    }

    let resumed_fw = fw();
    let mut quarantine = ruletest_core::Quarantine::new();
    let run = ruletest_core::run_checkpointed_campaign_supervised(
        &resumed_fw,
        &params(),
        Some(&dir),
        true,
        None,
        &mut quarantine,
    )
    .unwrap()
    .expect("no stop hook");
    assert!(
        run.resumed.is_empty(),
        "corrupted checkpoints must not resume: {:?}",
        run.resumed
    );
    assert!(
        quarantine.is_empty(),
        "a corrupted quarantine file loads as empty, not as an error"
    );
    let inst = Instance::from_graph(&run.graph);
    let sol = topk(&inst).unwrap();
    execute_solution(&resumed_fw, &run.suite, &inst, &sol, &ExecConfig::default()).unwrap();
    final_persist(&resumed_fw).unwrap();
    let report = resumed_fw.run_report();
    report.check().unwrap();
    assert_eq!(
        clean.deterministic_json(),
        report.deterministic_json(),
        "recomputation after corruption diverged from the clean run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot produced under one campaign fingerprint is rejected by a
/// campaign with another (here: a different database seed) — the second
/// campaign recomputes everything rather than serve poisoned entries.
#[test]
fn fingerprint_mismatch_rejects_snapshot_and_checkpoints() {
    let dir = temp_dir("mismatch");
    full_campaign(&fw(), Some(&dir), false);

    let mut other_cfg = FrameworkConfig::default();
    other_cfg.db.seed = other_cfg.db.seed.wrapping_add(1);
    let other_fw = Framework::new(&other_cfg)
        .unwrap()
        .with_telemetry(Telemetry::metrics_only());
    let (resumed, report) = full_campaign(&other_fw, Some(&dir), true);
    assert!(
        resumed.is_empty(),
        "checkpoints from a different fingerprint must not resume"
    );
    assert_eq!(
        report.counter(Counter::CacheFingerprintRejected),
        1,
        "the stale snapshot must be counted as rejected"
    );
    assert_eq!(report.counter(Counter::CacheWarmHits), 0);
    assert!(
        other_fw.optimizer.invocation_count() > 0,
        "a rejected snapshot means everything recomputes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
