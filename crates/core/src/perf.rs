//! The third rule-testing dimension (§1): **performance** — "analyze how
//! the transformation rule impacts the performance of a query/workload".
//! The paper scopes this out ("we focus on the first two aspects"); this
//! module implements the natural design over the same two optimizer hooks:
//! for every rule, compare `Cost(q)` against `Cost(q, ¬{r})` across a
//! workload, reporting how often the rule is relevant and how much plan
//! cost it saves.

use crate::framework::Framework;
use ruletest_common::{Result, RuleId};
use ruletest_logical::LogicalTree;
use ruletest_optimizer::OptimizerConfig;

/// Workload-level impact of one rule.
#[derive(Debug, Clone)]
pub struct RuleImpact {
    pub rule: RuleId,
    pub rule_name: &'static str,
    /// Queries in the workload that exercised the rule.
    pub exercised: usize,
    /// Queries whose chosen plan changes when the rule is disabled.
    pub relevant: usize,
    /// Total estimated plan cost across the workload with the rule enabled.
    pub cost_enabled: f64,
    /// Same with the rule disabled.
    pub cost_disabled: f64,
}

impl RuleImpact {
    /// Workload cost inflation factor from disabling the rule.
    pub fn inflation(&self) -> f64 {
        if self.cost_enabled > 0.0 {
            self.cost_disabled / self.cost_enabled
        } else {
            1.0
        }
    }
}

/// Measures the impact of every exploration rule on a workload, sorted by
/// descending cost inflation. `Cost(q)` is computed once per query; each
/// rule adds one `Cost(q, ¬{r})` optimization per query that exercised it
/// (queries that did not exercise the rule cannot change).
pub fn rule_impact(fw: &Framework, workload: &[LogicalTree]) -> Result<Vec<RuleImpact>> {
    let base: Vec<_> = workload
        .iter()
        .map(|q| fw.optimizer.optimize(q))
        .collect::<Result<_>>()?;
    let mut out = Vec::new();
    for rid in fw.optimizer.exploration_rule_ids() {
        let mut impact = RuleImpact {
            rule: rid,
            rule_name: fw.optimizer.rule(rid).name,
            exercised: 0,
            relevant: 0,
            cost_enabled: 0.0,
            cost_disabled: 0.0,
        };
        for (q, b) in workload.iter().zip(&base) {
            impact.cost_enabled += b.cost;
            if !b.rule_set.contains(&rid) {
                impact.cost_disabled += b.cost;
                continue;
            }
            impact.exercised += 1;
            let masked = fw
                .optimizer
                .optimize_with(q, &OptimizerConfig::disabling(&[rid]))?;
            impact.cost_disabled += masked.cost;
            if !b.plan.same_shape(&masked.plan) {
                impact.relevant += 1;
            }
        }
        out.push(impact);
    }
    out.sort_by(by_inflation_desc);
    Ok(out)
}

/// Sort key for impact reports: descending inflation, rule id as the tie
/// break. `total_cmp`, not `partial_cmp().expect(..)`: a NaN inflation
/// (e.g. a NaN cost propagated through the ratio) must sort
/// deterministically instead of panicking a whole campaign.
fn by_inflation_desc(a: &RuleImpact, b: &RuleImpact) -> std::cmp::Ordering {
    b.inflation()
        .total_cmp(&a.inflation())
        .then(a.rule.cmp(&b.rule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::generate::random::random_tree;
    use ruletest_common::Rng;
    use ruletest_logical::IdGen;

    #[test]
    fn impact_report_covers_all_rules_and_orders_by_inflation() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let mut rng = Rng::new(0x1337);
        let workload: Vec<LogicalTree> = (0..12)
            .map(|_| {
                let mut ids = IdGen::new();
                random_tree(&fw.db, &mut rng, &mut ids, 6).tree
            })
            .collect();
        let report = rule_impact(&fw, &workload).unwrap();
        assert_eq!(report.len(), fw.optimizer.exploration_rule_ids().len());
        for w in report.windows(2) {
            assert!(w[0].inflation() >= w[1].inflation() - 1e-12);
        }
        for r in &report {
            assert!(r.relevant <= r.exercised);
            assert!(
                r.cost_disabled >= r.cost_enabled - 1e-6 || r.inflation() >= 0.95,
                "{}: disabling a rule should not make the workload cheaper",
                r.rule_name
            );
        }
        // At least one rule should genuinely matter for a 12-query workload.
        assert!(report.iter().any(|r| r.relevant > 0));
    }

    #[test]
    fn nan_inflation_sorts_deterministically_instead_of_panicking() {
        // Regression: the sort used `partial_cmp().expect("finite costs")`
        // and panicked if any cost was NaN.
        let mk = |rule: u16, cost_enabled: f64, cost_disabled: f64| RuleImpact {
            rule: RuleId(rule),
            rule_name: "r",
            exercised: 1,
            relevant: 1,
            cost_enabled,
            cost_disabled,
        };
        let mut v = [mk(0, 1.0, 2.0), mk(1, 1.0, f64::NAN), mk(2, 1.0, 1.5)];
        v.sort_by(super::by_inflation_desc);
        let order: Vec<u16> = v.iter().map(|r| r.rule.0).collect();
        // NaN (descending total_cmp) sorts first; the finite entries keep
        // their descending-inflation order. What matters is: no panic, and
        // the same order every time.
        assert_eq!(order, vec![1, 0, 2]);
        let mut again = [mk(2, 1.0, 1.5), mk(1, 1.0, f64::NAN), mk(0, 1.0, 2.0)];
        again.sort_by(super::by_inflation_desc);
        let order2: Vec<u16> = again.iter().map(|r| r.rule.0).collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn empty_workload_is_fine() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let report = rule_impact(&fw, &[]).unwrap();
        assert!(report.iter().all(|r| r.exercised == 0));
        assert!(report.iter().all(|r| (r.inflation() - 1.0).abs() < 1e-12));
    }
}
