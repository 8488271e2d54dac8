//! The re-solve policy: incremental re-rounding vs. full LP re-solve.
//!
//! An *incremental* solve reuses (possibly cached) LP factors computed over
//! the session's full population and merely re-runs the CSF rounding on the
//! rows of the present shoppers — the mechanism of the paper's §5 dynamic
//! scenario. A *full* solve re-runs the LP relaxation on the restricted
//! instance, producing fresher factors — and, from an exact backend, a tight
//! bound — at LP cost.
//!
//! The policy escalates to a full solve when enough membership churn has
//! accumulated since the last full solve, when the observed utility has
//! drifted too far from the last tight bound, or when the present population
//! is a small fraction of the full group (full-population factors are then a
//! poor guide).
//!
//! Orthogonally to incremental-vs-full, the policy picks how any needed LP
//! work *starts*: [`LpStart::Warm`] reuses cached per-component solutions
//! (identical factors, less work — see [`crate::warm`]), [`LpStart::Cold`]
//! recomputes everything (forced re-solves, or `warm_start_lp: false`).

/// How a scheduled re-solve should be executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveKind {
    /// Re-round the present shoppers against full-population factors.
    Incremental,
    /// Re-run the LP relaxation on the restricted instance, then round.
    FullLp,
}

/// How a factor computation (when one is needed) should start.
///
/// Warm and cold produce **identical factors** — warm only reuses cached
/// solutions of social-graph components whose sub-instances are bit-identical
/// to previously solved ones, so it is a pure optimization. Cold exists as
/// the recompute-everything escape hatch (and as the baseline the warm path
/// is benchmarked against).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStart {
    /// Reuse cached per-component solutions where fingerprints match.
    Warm,
    /// Solve every component from scratch (results still refresh the warm
    /// cache when warm-starting is enabled).
    Cold,
}

/// The policy's full verdict for one scheduled re-solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolveDecision {
    /// Incremental re-rounding vs. full LP re-solve.
    pub kind: ResolveKind,
    /// Warm vs. cold start for whatever LP work the solve needs.
    pub lp_start: LpStart,
}

/// Tunables deciding between [`ResolveKind`]s.
#[derive(Clone, Debug)]
pub struct ResolvePolicy {
    /// Full solve after this many applied events since the last full solve.
    pub full_resolve_event_budget: usize,
    /// Full solve when `(bound - utility) / bound` exceeds this value
    /// (measured against the last *tight* bound).
    pub drift_threshold: f64,
    /// Full solve when `present / full_population` drops below this fraction.
    pub min_population_fraction: f64,
    /// Catalogue or λ changes always force a full solve when `true`
    /// (they invalidate the factor fingerprint anyway, but the cache may
    /// still hold factors for the new fingerprint; `false` lets those hits
    /// serve incrementally).
    pub full_on_reshape: bool,
    /// Warm-start LP re-solves from cached per-component solutions. Purely
    /// an optimization — factors are identical either way — so this is `true`
    /// by default; `false` gives the cold baseline (and disables the
    /// component cache entirely). Forced re-solves are always cold.
    pub warm_start_lp: bool,
}

impl Default for ResolvePolicy {
    fn default() -> Self {
        ResolvePolicy {
            full_resolve_event_budget: 16,
            drift_threshold: 0.35,
            min_population_fraction: 0.25,
            full_on_reshape: false,
            warm_start_lp: true,
        }
    }
}

/// The per-session signals the policy reads.
#[derive(Clone, Copy, Debug)]
pub struct PolicyInputs {
    /// Applied events since the last full LP solve.
    pub events_since_full: usize,
    /// Present shoppers after applying the pending batch.
    pub present: usize,
    /// Size of the full population.
    pub full_population: usize,
    /// `(bound - utility) / bound` of the last served solution, if any.
    pub relative_gap: Option<f64>,
    /// Whether the pending batch reshapes the instance (catalogue / λ).
    pub reshaped: bool,
    /// Whether the caller explicitly requested a full solve.
    pub forced_full: bool,
}

impl ResolvePolicy {
    /// Decides how to execute the next re-solve: incremental vs. full, and
    /// warm vs. cold for whatever LP the choice entails.
    pub fn decide(&self, inputs: &PolicyInputs) -> ResolveDecision {
        ResolveDecision {
            kind: self.decide_kind(inputs),
            lp_start: self.decide_lp_start(inputs),
        }
    }

    fn decide_kind(&self, inputs: &PolicyInputs) -> ResolveKind {
        if inputs.forced_full {
            return ResolveKind::FullLp;
        }
        if inputs.reshaped && self.full_on_reshape {
            return ResolveKind::FullLp;
        }
        if inputs.events_since_full >= self.full_resolve_event_budget {
            return ResolveKind::FullLp;
        }
        if let Some(gap) = inputs.relative_gap {
            if gap > self.drift_threshold {
                return ResolveKind::FullLp;
            }
        }
        if inputs.full_population > 0 {
            let fraction = inputs.present as f64 / inputs.full_population as f64;
            if fraction < self.min_population_fraction {
                return ResolveKind::FullLp;
            }
        }
        ResolveKind::Incremental
    }

    fn decide_lp_start(&self, inputs: &PolicyInputs) -> LpStart {
        // A forced re-solve is the caller's escape hatch: recompute from
        // scratch (the results still refresh the warm cache).
        if inputs.forced_full || !self.warm_start_lp {
            LpStart::Cold
        } else {
            LpStart::Warm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_inputs() -> PolicyInputs {
        PolicyInputs {
            events_since_full: 0,
            present: 8,
            full_population: 10,
            relative_gap: Some(0.05),
            reshaped: false,
            forced_full: false,
        }
    }

    #[test]
    fn defaults_to_incremental_and_warm() {
        let policy = ResolvePolicy::default();
        let decision = policy.decide(&base_inputs());
        assert_eq!(decision.kind, ResolveKind::Incremental);
        assert_eq!(decision.lp_start, LpStart::Warm);
    }

    #[test]
    fn escalates_on_event_budget() {
        let policy = ResolvePolicy::default();
        let inputs = PolicyInputs {
            events_since_full: policy.full_resolve_event_budget,
            ..base_inputs()
        };
        let decision = policy.decide(&inputs);
        assert_eq!(decision.kind, ResolveKind::FullLp);
        // A scheduled (non-forced) full solve still warm-starts.
        assert_eq!(decision.lp_start, LpStart::Warm);
    }

    #[test]
    fn escalates_on_drift() {
        let policy = ResolvePolicy::default();
        let inputs = PolicyInputs {
            relative_gap: Some(0.9),
            ..base_inputs()
        };
        assert_eq!(policy.decide(&inputs).kind, ResolveKind::FullLp);
    }

    #[test]
    fn escalates_on_small_population() {
        let policy = ResolvePolicy::default();
        let inputs = PolicyInputs {
            present: 1,
            ..base_inputs()
        };
        assert_eq!(policy.decide(&inputs).kind, ResolveKind::FullLp);
    }

    #[test]
    fn forced_wins_and_is_cold() {
        let policy = ResolvePolicy::default();
        let inputs = PolicyInputs {
            forced_full: true,
            ..base_inputs()
        };
        let decision = policy.decide(&inputs);
        assert_eq!(decision.kind, ResolveKind::FullLp);
        assert_eq!(decision.lp_start, LpStart::Cold);
    }

    #[test]
    fn disabling_warm_start_goes_cold() {
        let policy = ResolvePolicy {
            warm_start_lp: false,
            ..ResolvePolicy::default()
        };
        assert_eq!(policy.decide(&base_inputs()).lp_start, LpStart::Cold);
    }
}
