//! Deterministic chaos injection: the framework testing itself.
//!
//! Robustness claims need evidence. This module plants named
//! instrumentation sites ([`point`]) in the optimizer's memo loop, the
//! executor's batch loop, and the cache I/O path, and drives them from a
//! deterministic fault plan ([`ChaosPlan`]): a seeded or hand-written
//! schedule that injects panics, simulated stalls (deadline-expiry
//! errors), and budget pressure at exact site hit counts. The
//! supervision layer must catch every injected fault, attribute it in
//! telemetry, and quarantine the poisoned input — and because the plan
//! is a pure function of `(seed | spec, site hit index)`, a failing run
//! replays exactly.
//!
//! Injection is process-global (installed from `--chaos-seed` /
//! `--chaos-plan`) and off by default: a disabled [`point`] is one
//! relaxed atomic load.

use crate::error::{Error, Result};
use crate::hash::Fnv64;
use crate::rng::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The named instrumentation sites compiled into the workspace. A plan
/// may only reference these (typos in `--chaos-plan` fail fast instead
/// of silently never firing).
pub const SITES: [&str; 4] = ["memo.insert", "exec.batch", "cache.load", "cache.save"];

/// What a chaos rule injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site — exercises the `catch_unwind` sandbox.
    Panic,
    /// A simulated stall: the site returns `Error::Timeout` as if a
    /// cooperative deadline had expired there. Simulation (rather than
    /// sleeping) keeps chaos runs fast and bit-deterministic.
    Stall,
    /// Budget pressure: the site returns `Error::Budget`.
    Budget,
}

impl FaultKind {
    pub const ALL: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Stall, FaultKind::Budget];

    /// Stable name used in plan specs and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::Budget => "budget",
        }
    }

    pub fn from_name(name: &str) -> Result<FaultKind> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                Error::unsupported(format!(
                    "unknown chaos fault kind '{name}' (known: panic, stall, budget)"
                ))
            })
    }
}

/// One schedule entry: inject `kind` at `site` on every `every`-th hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRule {
    pub site: String,
    pub kind: FaultKind,
    /// Fire on hits `every, 2*every, 3*every, ...` (1-based hit count).
    pub every: u64,
    /// Total injections this rule may perform (0 = unlimited). A bounded
    /// rule lets a campaign absorb a fault storm and then finish: once
    /// the budget is spent the site behaves normally again.
    pub times: u64,
}

/// A deterministic fault schedule over the known [`SITES`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// The seed the plan was derived from (0 for hand-written specs).
    pub seed: u64,
    pub rules: Vec<SiteRule>,
}

impl ChaosPlan {
    /// Parses a hand-written spec: comma-separated `site:kind@every`
    /// entries with an optional `#times` injection cap, e.g.
    /// `memo.insert:panic@3,exec.batch:stall@5#2`.
    pub fn parse(spec: &str) -> Result<ChaosPlan> {
        let mut rules = Vec::new();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (site, rest) = entry.split_once(':').ok_or_else(|| {
                Error::parse(format!("chaos entry '{entry}': expected site:kind@every"))
            })?;
            let (kind, sched) = rest.split_once('@').ok_or_else(|| {
                Error::parse(format!("chaos entry '{entry}': expected site:kind@every"))
            })?;
            if !SITES.contains(&site) {
                return Err(Error::unsupported(format!(
                    "unknown chaos site '{site}' (known: {})",
                    SITES.join(", ")
                )));
            }
            let (every, times) = match sched.split_once('#') {
                Some((e, t)) => {
                    let times: u64 = t.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        Error::parse(format!("chaos entry '{entry}': bad injection cap '{t}'"))
                    })?;
                    (e, times)
                }
                None => (sched, 0),
            };
            let every: u64 = every.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                Error::parse(format!("chaos entry '{entry}': bad period '{every}'"))
            })?;
            rules.push(SiteRule {
                site: site.to_string(),
                kind: FaultKind::from_name(kind)?,
                every,
                times,
            });
        }
        Ok(ChaosPlan { seed: 0, rules })
    }

    /// Derives a plan from a seed: each site gets one rule whose kind and
    /// period are a pure function of `(seed, site)`. Cache sites never
    /// get `panic` (a panic inside lazy shard loading would poison the
    /// shard mutex and cascade); they degrade via stall/budget instead.
    pub fn seeded(seed: u64) -> ChaosPlan {
        let mut rules = Vec::new();
        for site in SITES {
            // Per-site streams keyed by a stable hash of the site name, so
            // seeded plans don't depend on site declaration order.
            let mut rng = Rng::new(seed ^ Fnv64::of(site.as_bytes()));
            let kinds: &[FaultKind] = if site.starts_with("cache.") {
                &[FaultKind::Stall, FaultKind::Budget]
            } else {
                &FaultKind::ALL
            };
            let kind = kinds[(rng.next_u64() % kinds.len() as u64) as usize];
            let every = 2 + rng.next_u64() % 8; // period in 2..=9
                                                // Seeded plans are bounded (1..=3 injections per site) so a
                                                // supervised campaign converges instead of re-hitting the
                                                // same fault forever on retried or subsequent stages.
            let times = 1 + rng.next_u64() % 3;
            rules.push(SiteRule {
                site: site.to_string(),
                kind,
                every,
                times,
            });
        }
        ChaosPlan { seed, rules }
    }

    /// Renders the plan back to spec syntax (logging / replay).
    pub fn to_spec(&self) -> String {
        self.rules
            .iter()
            .map(|r| {
                if r.times > 0 {
                    format!("{}:{}@{}#{}", r.site, r.kind.name(), r.every, r.times)
                } else {
                    format!("{}:{}@{}", r.site, r.kind.name(), r.every)
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Counts of injected faults since the plan was installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    pub panics: u64,
    pub stalls: u64,
    pub budgets: u64,
}

impl ChaosStats {
    pub fn total(&self) -> u64 {
        self.panics + self.stalls + self.budgets
    }
}

struct Active {
    plan: ChaosPlan,
    /// Per-rule hit counters (parallel to `plan.rules`).
    hits: Vec<AtomicU64>,
    /// Per-rule injection counters (parallel to `plan.rules`) enforcing
    /// each rule's `times` cap.
    fired: Vec<AtomicU64>,
    injected: [AtomicU64; 3],
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<Active>>> = RwLock::new(None);

/// Installs `plan` process-wide, resetting hit counters and stats.
pub fn install(plan: ChaosPlan) {
    let active = Arc::new(Active {
        hits: plan.rules.iter().map(|_| AtomicU64::new(0)).collect(),
        fired: plan.rules.iter().map(|_| AtomicU64::new(0)).collect(),
        injected: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        plan,
    });
    *ACTIVE.write().expect("chaos plan lock poisoned") = Some(active);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the installed plan; [`point`] returns to its one-load path.
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    *ACTIVE.write().expect("chaos plan lock poisoned") = None;
}

/// True when a plan is installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// The installed plan, if any (for logging / report sections).
pub fn installed() -> Option<ChaosPlan> {
    ACTIVE
        .read()
        .expect("chaos plan lock poisoned")
        .as_ref()
        .map(|a| a.plan.clone())
}

/// Injected-fault counts since [`install`].
pub fn stats() -> ChaosStats {
    match ACTIVE.read().expect("chaos plan lock poisoned").as_ref() {
        Some(a) => ChaosStats {
            panics: a.injected[0].load(Ordering::Relaxed),
            stalls: a.injected[1].load(Ordering::Relaxed),
            budgets: a.injected[2].load(Ordering::Relaxed),
        },
        None => ChaosStats::default(),
    }
}

/// Total hits recorded at `site` by the installed plan (the maximum over
/// that site's per-rule counters — every rule counts every hit). 0 with
/// no plan, or when no rule references the site. A calibration aid: a
/// test that must land a fault in a specific stage installs a plan with a
/// never-firing sentinel rule, measures the hits consumed by the stages
/// before the target, and aims `every` just past them.
pub fn site_hits(site: &str) -> u64 {
    match ACTIVE.read().expect("chaos plan lock poisoned").as_ref() {
        Some(a) => a
            .plan
            .rules
            .iter()
            .zip(&a.hits)
            .filter(|(r, _)| r.site == site)
            .map(|(_, h)| h.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0),
        None => 0,
    }
}

/// A named instrumentation site. With no plan installed this is one
/// relaxed load. With a plan, the site's hit counter advances and the
/// matching rule may fire: `panic` unwinds (to be caught by the
/// supervision sandbox), `stall` returns `Error::Timeout`, `budget`
/// returns `Error::Budget`.
#[inline]
pub fn point(site: &str) -> Result<()> {
    if !ENABLED.load(Ordering::Acquire) {
        return Ok(());
    }
    point_slow(site)
}

#[cold]
fn point_slow(site: &str) -> Result<()> {
    let guard = ACTIVE.read().expect("chaos plan lock poisoned");
    let Some(active) = guard.as_ref() else {
        return Ok(());
    };
    for ((rule, hits), fired) in active
        .plan
        .rules
        .iter()
        .zip(&active.hits)
        .zip(&active.fired)
    {
        if rule.site != site {
            continue;
        }
        let hit = hits.fetch_add(1, Ordering::Relaxed) + 1;
        if hit % rule.every != 0 {
            continue;
        }
        if rule.times > 0 && fired.fetch_add(1, Ordering::Relaxed) >= rule.times {
            continue; // injection cap spent: site behaves normally again
        }
        let slot = match rule.kind {
            FaultKind::Panic => 0,
            FaultKind::Stall => 1,
            FaultKind::Budget => 2,
        };
        active.injected[slot].fetch_add(1, Ordering::Relaxed);
        match rule.kind {
            FaultKind::Panic => {
                // Drop the read guard before unwinding so the sandbox
                // that catches this panic leaves the lock unpoisoned.
                drop(guard);
                panic!("chaos: injected panic at {site} (hit {hit})");
            }
            FaultKind::Stall => {
                return Err(Error::timeout(format!(
                    "chaos: injected stall at {site} (hit {hit})"
                )))
            }
            FaultKind::Budget => {
                return Err(Error::budget(format!(
                    "chaos: injected budget pressure at {site} (hit {hit})"
                )))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Chaos state is process-global; tests in this module serialize on
    /// this lock so cargo's parallel test threads don't interleave plans.
    static CHAOS_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        CHAOS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn spec_round_trips_and_rejects_garbage() {
        let plan = ChaosPlan::parse("memo.insert:panic@3, exec.batch:stall@5#2").unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].times, 0, "no cap means unlimited");
        assert_eq!(plan.rules[1].times, 2);
        assert_eq!(plan.to_spec(), "memo.insert:panic@3,exec.batch:stall@5#2");
        assert_eq!(ChaosPlan::parse(&plan.to_spec()).unwrap(), plan);
        assert!(ChaosPlan::parse("").unwrap().rules.is_empty());
        for bad in [
            "memo.insert",
            "memo.insert:panic",
            "memo.insert:explode@3",
            "no.such.site:panic@3",
            "memo.insert:panic@0",
            "memo.insert:panic@x",
            "memo.insert:panic@3#0",
            "memo.insert:panic@3#x",
        ] {
            assert!(ChaosPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_every_site() {
        let a = ChaosPlan::seeded(7);
        let b = ChaosPlan::seeded(7);
        assert_eq!(a, b);
        assert_ne!(a, ChaosPlan::seeded(8));
        assert_eq!(a.rules.len(), SITES.len());
        for (rule, site) in a.rules.iter().zip(SITES) {
            assert_eq!(rule.site, site);
            assert!(rule.every >= 2 && rule.every <= 9);
            assert!(
                rule.times >= 1 && rule.times <= 3,
                "seeded rules must be bounded so campaigns converge"
            );
            if site.starts_with("cache.") {
                assert_ne!(rule.kind, FaultKind::Panic, "cache sites must not panic");
            }
        }
    }

    #[test]
    fn injection_cap_exhausts_and_the_site_recovers() {
        let _guard = locked();
        install(ChaosPlan::parse("exec.batch:stall@2#2").unwrap());
        // Fires on hits 2 and 4, then the cap is spent: hits 6, 8, ...
        // pass even though they match the period.
        let outcomes: Vec<bool> = (0..10).map(|_| point("exec.batch").is_err()).collect();
        assert_eq!(
            outcomes,
            [false, true, false, true, false, false, false, false, false, false]
        );
        assert_eq!(stats().stalls, 2);
        clear();
    }

    #[test]
    fn disabled_points_are_noops() {
        let _guard = locked();
        clear();
        assert!(!enabled());
        for site in SITES {
            point(site).unwrap();
        }
        assert_eq!(stats(), ChaosStats::default());
    }

    #[test]
    fn installed_plan_fires_at_exact_hit_counts() {
        let _guard = locked();
        install(ChaosPlan::parse("exec.batch:stall@3,memo.insert:budget@2").unwrap());
        // exec.batch fires on hits 3 and 6.
        let outcomes: Vec<bool> = (0..6).map(|_| point("exec.batch").is_err()).collect();
        assert_eq!(outcomes, [false, false, true, false, false, true]);
        assert!(matches!(
            point("memo.insert").and(point("memo.insert")),
            Err(Error::Budget(_))
        ));
        // Sites with no rule never fire.
        for _ in 0..10 {
            point("cache.load").unwrap();
        }
        let s = stats();
        assert_eq!((s.stalls, s.budgets, s.panics), (2, 1, 0));
        assert_eq!(s.total(), 3);
        clear();
    }

    #[test]
    fn injected_panics_unwind_with_site_in_the_message() {
        let _guard = locked();
        install(ChaosPlan::parse("memo.insert:panic@1").unwrap());
        let caught = std::panic::catch_unwind(|| point("memo.insert"));
        let payload = caught.expect_err("panic kind must unwind");
        let msg = crate::supervise::panic_message(payload.as_ref());
        assert!(msg.contains("memo.insert"), "{msg}");
        assert_eq!(stats().panics, 1);
        // The read lock was released before unwinding: chaos stays usable.
        clear();
        point("memo.insert").unwrap();
    }

    #[test]
    fn replay_is_identical_for_the_same_plan() {
        let _guard = locked();
        let run = || {
            install(ChaosPlan::seeded(99));
            let fired: Vec<bool> = (0..40)
                .map(|i| {
                    let site = SITES[i % SITES.len()];
                    std::panic::catch_unwind(|| point(site))
                        .map(|r| r.is_err())
                        .unwrap_or(true)
                })
                .collect();
            let s = stats();
            clear();
            (fired, s)
        };
        assert_eq!(run(), run());
    }
}
