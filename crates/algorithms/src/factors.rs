//! LP-relaxation backends and the utility factors `x*_{u,s}^c`.
//!
//! The first phase of both AVG and AVG-D solves a relaxation of the SVGIC IP
//! and interprets the optimal fractional decision variables as *utility
//! factors*: how attractive it is to display item `c` to user `u` at slot `s`,
//! either because `u` prefers `c` or because `c` can trigger discussions.
//!
//! Backends (all produce the condensed per-user factors `x*_u^c`; Observation 2
//! of the paper turns them into per-slot factors by dividing by `k`):
//!
//! * [`LpBackend::ExactSimplex`] — solves LP_SIMP exactly by Dantzig–Wolfe
//!   decomposition ([`svgic_lp::decomposition`]): one minimum cut per item
//!   prices the per-item user sets, Polyak subgradient steps aimed at the
//!   structured ascent's objective collect them, and a restricted master
//!   over the sets, solved by the dense two-phase simplex, is priced until
//!   no item has a column with positive reduced cost. Every result carries a
//!   Lagrangian dual bound within 1e-9 relative of its objective. A master
//!   whose simplex stops on its pivot budget or a numerical abort falls back
//!   to the structured ascent, labelled [`LpBackend::Structured`]. Used
//!   whenever the paper compares against the exact LP bound.
//! * [`LpBackend::Structured`] — block-coordinate ascent on the min-coupling
//!   form (the "β-approximate LP" of Corollary 4.2); scales to the paper's
//!   default `n = 125`, `k = 50` sizes without a commercial solver.
//! * [`LpBackend::FullLpSvgic`] — solves the per-slot LP_SVGIC exactly; only
//!   useful to validate Observation 2 (it is strictly larger than LP_SIMP).
//! * [`LpBackend::Auto`] — exact below a size threshold, structured above.

use svgic_core::ip_model::{build_full_model, build_min_coupling};
use svgic_core::{ItemIdx, SlotIdx, SvgicInstance, UserIdx};
use svgic_lp::{
    solve_lp, solve_min_coupling, solve_min_coupling_exact, CoordinateAscentOptions, SimplexError,
    SimplexOptions,
};

/// Which relaxation backend to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LpBackend {
    /// Exact solve of the condensed LP_SIMP (§4.4): per-item minimum cuts
    /// and a Dantzig–Wolfe master solved by the two-phase simplex.
    ExactSimplex,
    /// Block-coordinate ascent on the min-coupling form (scalable,
    /// β-approximate; Corollary 4.2).
    Structured,
    /// Exact simplex on the full per-slot LP_SVGIC (no LP transformation) —
    /// the ablation "AVG–ALP" of Fig. 9(b).
    FullLpSvgic,
    /// Exact simplex when `n·m + pairs·m` is small, structured otherwise.
    #[default]
    Auto,
}

impl LpBackend {
    /// Whether factors labelled with this backend hold an exact LP optimum,
    /// so that their objective is an upper bound on the optimal utility.
    pub fn is_exact(self) -> bool {
        matches!(self, LpBackend::ExactSimplex | LpBackend::FullLpSvgic)
    }
}

/// Fractional utility factors produced by a relaxation backend.
#[derive(Clone, Debug)]
pub struct UtilityFactors {
    n: usize,
    m: usize,
    k: usize,
    /// Aggregate factors `x*_u^c ∈ [0, 1]`, row-major `n × m`.
    aggregate: Vec<f64>,
    /// Objective value of the fractional solution in the *scaled* convention
    /// (preferences scaled by `(1-λ)/λ`), i.e. `SAVG utility / λ` for `λ > 0`.
    pub scaled_objective: f64,
    /// Which backend produced the factors.
    pub backend: LpBackend,
}

impl UtilityFactors {
    /// Builds factors directly from an aggregate matrix (used in tests and by
    /// the dynamic-scenario incremental update).
    pub fn from_aggregate(
        instance: &SvgicInstance,
        aggregate: Vec<f64>,
        scaled_objective: f64,
        backend: LpBackend,
    ) -> Self {
        assert_eq!(
            aggregate.len(),
            instance.num_users() * instance.num_items(),
            "aggregate factor matrix has wrong dimensions"
        );
        Self {
            n: instance.num_users(),
            m: instance.num_items(),
            k: instance.num_slots(),
            aggregate,
            scaled_objective,
            backend,
        }
    }

    /// Rebuilds factors from raw dimensions and an aggregate matrix — the
    /// deserialization constructor used by the engine's wire codec, where no
    /// instance is at hand. Returns `None` when `aggregate` is not an
    /// `n × m` matrix or any entry is non-finite.
    pub fn from_parts(
        n: usize,
        m: usize,
        k: usize,
        aggregate: Vec<f64>,
        scaled_objective: f64,
        backend: LpBackend,
    ) -> Option<Self> {
        if aggregate.len() != n * m || aggregate.iter().any(|x| !x.is_finite()) {
            return None;
        }
        Some(Self {
            n,
            m,
            k,
            aggregate,
            scaled_objective,
            backend,
        })
    }

    /// The raw aggregate factor matrix, row-major `n × m` (`x*_u^c` at
    /// `u * m + c`) — the serialization accessor paired with
    /// [`UtilityFactors::from_parts`].
    pub fn aggregate_matrix(&self) -> &[f64] {
        &self.aggregate
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.n
    }
    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.m
    }
    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.k
    }

    /// Aggregate factor `x*_u^c`.
    #[inline]
    pub fn aggregate(&self, u: UserIdx, c: ItemIdx) -> f64 {
        self.aggregate[u * self.m + c]
    }

    /// Per-slot factor `x*_{u,s}^c = x*_u^c / k` (Observation 2).  The slot
    /// argument is accepted for readability even though the optimal condensed
    /// solution is slot-uniform.
    #[inline]
    pub fn per_slot(&self, u: UserIdx, _s: SlotIdx, c: ItemIdx) -> f64 {
        self.aggregate(u, c) / self.k as f64
    }

    /// Per-pair per-slot factor `y*_{e,s}^c = min(x*_{u,s}^c, x*_{v,s}^c)`.
    #[inline]
    pub fn pair_per_slot(&self, u: UserIdx, v: UserIdx, s: SlotIdx, c: ItemIdx) -> f64 {
        self.per_slot(u, s, c).min(self.per_slot(v, s, c))
    }

    /// The true (unscaled) LP objective value: an upper bound on the optimal
    /// total SAVG utility when produced by an exact backend.
    pub fn utility_upper_bound(&self, instance: &SvgicInstance) -> f64 {
        if instance.lambda() > 0.0 {
            self.scaled_objective * instance.lambda()
        } else {
            self.scaled_objective
        }
    }
}

/// Options for the relaxation solve.
#[derive(Clone, Debug)]
pub struct RelaxationOptions {
    /// Backend selection.
    pub backend: LpBackend,
    /// Size threshold (number of LP variables `n·m + pairs·m`) below which
    /// [`LpBackend::Auto`] uses the exact simplex.
    pub auto_exact_threshold: usize,
    /// Simplex options for the exact backends.
    pub simplex: SimplexOptions,
    /// Coordinate-ascent options for the structured backend.
    pub ascent: CoordinateAscentOptions,
}

impl Default for RelaxationOptions {
    fn default() -> Self {
        Self {
            backend: LpBackend::Auto,
            auto_exact_threshold: 1_500,
            simplex: SimplexOptions::default(),
            ascent: CoordinateAscentOptions::default(),
        }
    }
}

/// Solves the relaxation of `instance` with the requested backend.
pub fn solve_relaxation(instance: &SvgicInstance, options: &RelaxationOptions) -> UtilityFactors {
    let n = instance.num_users();
    let m = instance.num_items();
    let pairs = instance.friend_pairs().len();
    let backend = match options.backend {
        LpBackend::Auto => {
            if (n + pairs) * m <= options.auto_exact_threshold {
                LpBackend::ExactSimplex
            } else {
                LpBackend::Structured
            }
        }
        other => other,
    };
    match backend {
        LpBackend::ExactSimplex | LpBackend::Auto => {
            let problem = build_min_coupling(instance);
            let ascent = solve_min_coupling(&problem, &options.ascent);
            // LP_SIMP is always feasible (x = k/m is an interior point) and
            // bounded (every variable lives in [0, 1]), so the only reachable
            // errors are resource/stability aborts of the master's simplex:
            // the pivot budget, or a near-zero pivot element or a dual bound
            // that fails to certify (`SimplexError::Numerical`). Those must
            // not take a serving engine down — fall back to the structured
            // ascent, which is deterministic for the same instance, so
            // cached/warm reuse stays byte-identical.
            match solve_min_coupling_exact(&problem, &ascent, &options.simplex) {
                Ok(sol) => UtilityFactors::from_aggregate(
                    instance,
                    sol.values,
                    sol.objective,
                    LpBackend::ExactSimplex,
                ),
                Err(SimplexError::IterationLimit | SimplexError::Numerical) => {
                    UtilityFactors::from_aggregate(
                        instance,
                        ascent.values,
                        ascent.objective,
                        LpBackend::Structured,
                    )
                }
                Err(error) => unreachable!(
                    "LP_SIMP cannot be {error}: it has a feasible interior point and box bounds"
                ),
            }
        }
        LpBackend::FullLpSvgic => {
            let model = build_full_model(instance, false);
            // Same hardening as the ExactSimplex arm: LP_SVGIC is feasible
            // and bounded, so any error is a resource/stability abort — fall
            // back to the structured ascent rather than unwind.
            let sol = match solve_lp(&model.lp, &options.simplex) {
                Ok(sol) => sol,
                Err(SimplexError::IterationLimit | SimplexError::Numerical) => {
                    let problem = build_min_coupling(instance);
                    let sol = solve_min_coupling(&problem, &options.ascent);
                    return UtilityFactors::from_aggregate(
                        instance,
                        sol.values,
                        sol.objective,
                        LpBackend::Structured,
                    );
                }
                Err(error) => unreachable!(
                    "LP_SVGIC cannot be {error}: it has a feasible interior point and box bounds"
                ),
            };
            // Aggregate the per-slot variables into x*_u^c.
            let k = instance.num_slots();
            let mut aggregate = vec![0.0; n * m];
            for u in 0..n {
                for c in 0..m {
                    let mut total = 0.0;
                    for s in 0..k {
                        total += sol.value(model.x_var(u, s, c));
                    }
                    aggregate[u * m + c] = total.clamp(0.0, 1.0);
                }
            }
            UtilityFactors::from_aggregate(
                instance,
                aggregate,
                sol.objective,
                LpBackend::FullLpSvgic,
            )
        }
        LpBackend::Structured => {
            let problem = build_min_coupling(instance);
            let sol = solve_min_coupling(&problem, &options.ascent);
            UtilityFactors::from_aggregate(
                instance,
                sol.values,
                sol.objective,
                LpBackend::Structured,
            )
        }
    }
}

/// Convenience: solve with a bare backend choice and default options.
pub fn solve_relaxation_with(instance: &SvgicInstance, backend: LpBackend) -> UtilityFactors {
    solve_relaxation(
        instance,
        &RelaxationOptions {
            backend,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_core::example::running_example;

    #[test]
    fn exact_factors_respect_budget_and_bounds() {
        let inst = running_example();
        let f = solve_relaxation_with(&inst, LpBackend::ExactSimplex);
        assert_eq!(f.num_users(), 4);
        assert_eq!(f.num_items(), 5);
        for u in 0..4 {
            let row_sum: f64 = (0..5).map(|c| f.aggregate(u, c)).sum();
            assert!((row_sum - 3.0).abs() < 1e-6, "user {u} budget {row_sum}");
            for c in 0..5 {
                let x = f.aggregate(u, c);
                assert!((-1e-9..=1.0 + 1e-9).contains(&x));
                assert!((f.per_slot(u, 0, c) - x / 3.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn exact_and_full_lp_agree_on_objective() {
        // Observation 2: LP_SIMP and LP_SVGIC have the same optimum.
        let inst = running_example()
            .restrict_items(&[0, 1, 4])
            .with_slots(2)
            .unwrap();
        let simp = solve_relaxation_with(&inst, LpBackend::ExactSimplex);
        let full = solve_relaxation_with(&inst, LpBackend::FullLpSvgic);
        assert!(
            (simp.scaled_objective - full.scaled_objective).abs() < 1e-5,
            "simp {} vs full {}",
            simp.scaled_objective,
            full.scaled_objective
        );
    }

    #[test]
    fn structured_backend_is_close_to_exact() {
        let inst = running_example();
        let exact = solve_relaxation_with(&inst, LpBackend::ExactSimplex);
        let approx = solve_relaxation_with(&inst, LpBackend::Structured);
        assert!(approx.scaled_objective <= exact.scaled_objective + 1e-6);
        assert!(
            approx.scaled_objective >= 0.85 * exact.scaled_objective,
            "structured {} vs exact {}",
            approx.scaled_objective,
            exact.scaled_objective
        );
        // Budgets still hold.
        for u in 0..4 {
            let row_sum: f64 = (0..5).map(|c| approx.aggregate(u, c)).sum();
            assert!((row_sum - 3.0).abs() < 1e-6);
        }
    }

    /// A random 6-user instance whose ascent no subgradient step certifies,
    /// so the exact backend has to solve its restricted master.
    fn master_bound_instance() -> SvgicInstance {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (n, m, k) = (6, 5, 2);
        let mut rng = StdRng::seed_from_u64(14);
        let graph = svgic_graph::generate::erdos_renyi(n, 0.6, &mut rng);
        let mut builder = svgic_core::SvgicInstanceBuilder::new(graph, m, k, 0.5);
        let preferences: Vec<f64> = (0..n * m).map(|_| rng.gen::<f64>()).collect();
        let social: Vec<f64> = (0..n * n * m).map(|_| rng.gen::<f64>()).collect();
        builder.fill_preferences(|u, c| preferences[u * m + c]);
        builder.fill_social(|u, v, c| social[(u * n + v) * m + c]);
        builder.build().expect("valid instance")
    }

    #[test]
    fn simplex_abort_falls_back_to_structured_instead_of_panicking() {
        // Exhausting the pivot budget (and, equivalently, the near-zero-pivot
        // Numerical abort) must degrade to the structured ascent, not unwind
        // through a serving engine. The instance needs the master: a bound
        // that certified the ascent would answer before any simplex ran.
        let inst = master_bound_instance();
        let problem = build_min_coupling(&inst);
        let ascent = solve_min_coupling(&problem, &CoordinateAscentOptions::default());
        let exact = solve_min_coupling_exact(&problem, &ascent, &SimplexOptions::default())
            .expect("the unconstrained master solves");
        assert!(exact.master_rounds > 0, "the ascent must not be certified");
        let strangled = solve_relaxation(
            &inst,
            &RelaxationOptions {
                backend: LpBackend::ExactSimplex,
                simplex: SimplexOptions {
                    max_pivots: 0,
                    ..SimplexOptions::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(strangled.backend, LpBackend::Structured);
        let reference = solve_relaxation_with(&inst, LpBackend::Structured);
        assert!((strangled.scaled_objective - reference.scaled_objective).abs() < 1e-9);
        // Budgets still hold on the fallback factors.
        for u in 0..inst.num_users() {
            let row_sum: f64 = (0..inst.num_items())
                .map(|c| strangled.aggregate(u, c))
                .sum();
            assert!((row_sum - inst.num_slots() as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn auto_switches_backend_by_size() {
        let inst = running_example();
        let small = solve_relaxation(
            &inst,
            &RelaxationOptions {
                backend: LpBackend::Auto,
                auto_exact_threshold: 10_000,
                ..Default::default()
            },
        );
        assert_eq!(small.backend, LpBackend::ExactSimplex);
        let large = solve_relaxation(
            &inst,
            &RelaxationOptions {
                backend: LpBackend::Auto,
                auto_exact_threshold: 1,
                ..Default::default()
            },
        );
        assert_eq!(large.backend, LpBackend::Structured);
    }

    #[test]
    fn upper_bound_dominates_optimum() {
        let inst = running_example();
        let f = solve_relaxation_with(&inst, LpBackend::ExactSimplex);
        // The paper optimum is 10.35 unweighted = 5.175 weighted at λ = ½.
        assert!(f.utility_upper_bound(&inst) >= 5.175 - 1e-6);
    }

    #[test]
    fn pair_factor_is_min_of_endpoints() {
        let inst = running_example();
        let f = solve_relaxation_with(&inst, LpBackend::ExactSimplex);
        let y = f.pair_per_slot(0, 1, 0, 4);
        assert!((y - f.per_slot(0, 0, 4).min(f.per_slot(1, 0, 4))).abs() < 1e-12);
    }
}
