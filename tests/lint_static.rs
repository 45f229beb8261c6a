//! Static lint acceptance: the shipped rule catalog audits clean, the
//! three canonical injected faults of the mutation catalog are caught
//! *without executing a single query*, and the pattern-necessity audit holds for
//! every exported rule pattern.

use ruletest_core::{mutant_optimizer, Mutant};
use ruletest_lint::{lint_rules, LintPass};
use ruletest_optimizer::Optimizer;
use ruletest_storage::{tpch_database, TpchConfig};
use std::sync::Arc;

fn db() -> Arc<ruletest_storage::Database> {
    // The audit is purely static — only the catalog matters — so the
    // default (smallest) data scale suffices.
    Arc::new(tpch_database(&TpchConfig::default()).unwrap())
}

#[test]
fn clean_catalog_has_no_violations() {
    let opt = Optimizer::new(db());
    let report = lint_rules(&opt).unwrap();
    assert!(
        report.is_clean(),
        "clean rule catalog flagged:\n{}",
        report.render_text()
    );
    // The audit must have actually exercised the catalog, not vacuously
    // passed on an empty corpus.
    assert!(report.rules_audited > 20);
    assert!(report.stats.corpus_trees > 50);
    assert!(report.stats.substitutes_audited > 100);
    assert!(report.stats.necessity_probes > 500);
}

#[test]
fn every_injected_fault_is_caught_statically() {
    for id in [
        "OuterJoinSimplifyUnconditional",
        "PushBelowNullSupplyingSide",
        "SelectMergedIntoOuterJoin",
    ] {
        let fault = Mutant::by_id(id).unwrap();
        let opt = mutant_optimizer(db(), fault);
        let report = lint_rules(&opt).unwrap();
        let flagged = report.flagged_rules();
        assert!(
            flagged.iter().any(|r| r == fault.rule_name),
            "{:?} not caught: flagged {:?}\n{}",
            fault,
            flagged,
            report.render_text()
        );
        // All three faults corrupt outer-join row provenance; the audit
        // must attribute them to the right pass, not trip incidentally.
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.pass == LintPass::RowProvenance
                    && v.rule.as_deref() == Some(fault.rule_name)),
            "{fault:?} caught but not by the row-provenance pass:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn necessity_audit_covers_every_rule() {
    let opt = Optimizer::new(db());
    let report = lint_rules(&opt).unwrap();
    assert_eq!(report.count_for(LintPass::PatternNecessity), 0);
    // Every rule in the catalog (exploration and implementation) was
    // probed against every corpus tree.
    let rules = opt.num_rules();
    assert!(report.stats.necessity_probes >= rules * report.stats.corpus_trees / 2);
}
