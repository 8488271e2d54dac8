//! Latency objectives, error-budget burn, and derived node health.
//!
//! An SLO here is the classic shape: "at most `budget` of requests may be
//! slower than `objective`". Burn is how hard the budget is being spent —
//! the observed slow fraction divided by the allowed fraction, so `1.0`
//! means the budget is exactly exhausted and `4.0` means the node is
//! blowing through it 4× too fast. [`HealthPolicy`] folds the worst
//! per-class burn together with a memory budget into the three-state
//! [`Health`] that cluster reports and `loadgen watch` surface per node.
//!
//! Everything is computed read-side from frozen
//! [`HistogramSnapshot`]s — nothing on the serve path consults an SLO.

use crate::histogram::HistogramSnapshot;

/// One latency objective: at most `budget` (a fraction in `(0, 1]`) of
/// samples may exceed `objective_nanos`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloObjective {
    /// The latency threshold, in nanoseconds.
    pub objective_nanos: u64,
    /// The allowed fraction of samples above the threshold.
    pub budget: f64,
}

impl SloObjective {
    /// A new objective.
    pub const fn new(objective_nanos: u64, budget: f64) -> Self {
        SloObjective {
            objective_nanos,
            budget,
        }
    }

    /// Error-budget burn rate against a frozen histogram: observed slow
    /// fraction over allowed fraction. `0.0` for an empty histogram (no
    /// traffic burns no budget) and for a non-positive budget.
    pub fn burn(&self, histogram: &HistogramSnapshot) -> f64 {
        if self.budget <= 0.0 {
            return 0.0;
        }
        histogram.fraction_above(self.objective_nanos) / self.budget
    }
}

/// Node health, derived from burn rate and memory pressure. Ordered:
/// `Ok < Degraded < Overloaded`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Health {
    /// All burns under budget and memory inside budget.
    #[default]
    Ok,
    /// Some error budget is exhausted, or memory is near its budget.
    Degraded,
    /// Burn far past budget, or memory at/over its budget.
    Overloaded,
}

impl Health {
    /// The lowercase label used in reports and the watch table.
    pub fn name(&self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Overloaded => "overloaded",
        }
    }

    /// Numeric severity (`0`/`1`/`2`) for the metrics list.
    pub fn level(&self) -> u8 {
        match self {
            Health::Ok => 0,
            Health::Degraded => 1,
            Health::Overloaded => 2,
        }
    }

    /// Parses a report label back into a health state.
    pub fn from_name(name: &str) -> Option<Health> {
        match name {
            "ok" => Some(Health::Ok),
            "degraded" => Some(Health::Degraded),
            "overloaded" => Some(Health::Overloaded),
            _ => None,
        }
    }
}

/// Thresholds that fold burn rate and memory usage into a [`Health`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthPolicy {
    /// Worst per-class burn at or above this is at least [`Health::Degraded`].
    pub degraded_burn: f64,
    /// Worst per-class burn at or above this is [`Health::Overloaded`].
    pub overloaded_burn: f64,
    /// Memory budget in bytes; `0` means unlimited (memory never degrades
    /// health). At ≥ 80% of the budget the node is at least degraded, at
    /// 100% it is overloaded.
    pub mem_budget_bytes: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degraded_burn: 1.0,
            overloaded_burn: 4.0,
            mem_budget_bytes: 0,
        }
    }
}

impl HealthPolicy {
    /// Folds the worst per-class burn and the accounted memory bytes into
    /// a health state. Non-finite burns are treated as `0.0` (the registry's
    /// NaN discipline).
    pub fn assess(&self, max_burn: f64, mem_bytes: u64) -> Health {
        let max_burn = if max_burn.is_finite() { max_burn } else { 0.0 };
        let mut health = if max_burn >= self.overloaded_burn {
            Health::Overloaded
        } else if max_burn >= self.degraded_burn {
            Health::Degraded
        } else {
            Health::Ok
        };
        if self.mem_budget_bytes > 0 {
            if mem_bytes >= self.mem_budget_bytes {
                health = health.max(Health::Overloaded);
            } else if mem_bytes.saturating_mul(10) >= self.mem_budget_bytes.saturating_mul(8) {
                health = health.max(Health::Degraded);
            }
        }
        health
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram_with(fast: u64, slow: u64) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for _ in 0..fast {
            h.record_nanos(1_000);
        }
        for _ in 0..slow {
            h.record_nanos(100_000_000);
        }
        h
    }

    #[test]
    fn burn_is_slow_fraction_over_budget() {
        let slo = SloObjective::new(1_000_000, 0.05);
        // 10% slow against a 5% budget: burn 2.0.
        let burn = slo.burn(&histogram_with(90, 10));
        assert!((burn - 2.0).abs() < 0.05, "burn {burn}");
        // No slow samples: zero burn.
        assert_eq!(slo.burn(&histogram_with(100, 0)), 0.0);
        // Empty histogram: zero burn, never NaN.
        assert_eq!(slo.burn(&HistogramSnapshot::default()), 0.0);
        // Degenerate budget never divides by zero.
        assert_eq!(SloObjective::new(1, 0.0).burn(&histogram_with(0, 10)), 0.0);
    }

    #[test]
    fn health_orders_and_labels() {
        assert!(Health::Ok < Health::Degraded);
        assert!(Health::Degraded < Health::Overloaded);
        for health in [Health::Ok, Health::Degraded, Health::Overloaded] {
            assert_eq!(Health::from_name(health.name()), Some(health));
            assert_eq!(health.level() as usize, health as usize);
        }
        assert_eq!(Health::from_name("sideways"), None);
    }

    #[test]
    fn policy_thresholds_on_burn() {
        let policy = HealthPolicy::default();
        assert_eq!(policy.assess(0.0, 0), Health::Ok);
        assert_eq!(policy.assess(0.99, 0), Health::Ok);
        assert_eq!(policy.assess(1.0, 0), Health::Degraded);
        assert_eq!(policy.assess(4.0, 0), Health::Overloaded);
        assert_eq!(policy.assess(f64::NAN, 0), Health::Ok);
    }

    #[test]
    fn policy_memory_budget_degrades_and_overloads() {
        let policy = HealthPolicy {
            mem_budget_bytes: 1000,
            ..HealthPolicy::default()
        };
        assert_eq!(policy.assess(0.0, 100), Health::Ok);
        assert_eq!(policy.assess(0.0, 799), Health::Ok);
        assert_eq!(policy.assess(0.0, 800), Health::Degraded);
        assert_eq!(policy.assess(0.0, 1000), Health::Overloaded);
        // Memory pressure never *improves* a burn-derived state.
        assert_eq!(policy.assess(5.0, 100), Health::Overloaded);
        // Unlimited budget ignores memory entirely.
        assert_eq!(HealthPolicy::default().assess(0.0, u64::MAX), Health::Ok);
    }
}
