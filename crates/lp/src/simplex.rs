//! Dense two-phase primal simplex.
//!
//! The solver works on the generic [`LinearProgram`] model: arbitrary variable
//! bounds, `≤` / `≥` / `=` constraints, maximisation objective.  Internally it
//! converts the program to standard form (shifted non-negative variables,
//! explicit upper-bound rows, slack / surplus / artificial columns) and runs a
//! textbook two-phase tableau simplex with a largest-reduced-cost pivot rule
//! and a Bland's-rule fallback to prevent cycling.
//!
//! The implementation targets correctness and predictability at the scale
//! where the paper itself uses exact LPs (small evaluation instances and the
//! root relaxations of the IP baseline); the large-scale relaxations are
//! handled by [`crate::structured`].

use crate::model::{ConstraintSense, LinearProgram, Solution};

/// Consecutive degenerate pivots after which the simplex picks pivots by
/// Bland's rule until one makes progress.
const DEGENERATE_RUN: usize = 100;

/// Options controlling the simplex run.
#[derive(Clone, Debug)]
pub struct SimplexOptions {
    /// Maximum number of pivots across both phases.
    pub max_pivots: usize,
    /// Numerical tolerance for optimality / feasibility tests.
    pub tolerance: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_pivots: 200_000,
            tolerance: 1e-8,
        }
    }
}

/// Errors reported by the simplex solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The pivot budget was exhausted before reaching optimality.
    IterationLimit,
    /// The model contains a variable with an infinite lower bound, which the
    /// standard-form conversion does not support.
    UnsupportedLowerBound,
    /// Every remaining improving pivot would land on a (near-)zero element;
    /// proceeding would corrupt the tableau, so the solve is aborted instead.
    Numerical,
}

impl std::fmt::Display for SimplexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimplexError::Infeasible => write!(f, "linear program is infeasible"),
            SimplexError::Unbounded => write!(f, "linear program is unbounded"),
            SimplexError::IterationLimit => write!(f, "simplex pivot limit exhausted"),
            SimplexError::UnsupportedLowerBound => {
                write!(f, "variables must have finite lower bounds")
            }
            SimplexError::Numerical => {
                write!(
                    f,
                    "simplex aborted: every improving pivot is numerically unstable"
                )
            }
        }
    }
}

impl std::error::Error for SimplexError {}

/// Solves `lp` (treating every variable as continuous) and returns the optimal
/// solution.
///
/// Integer variables are *not* enforced here; use [`crate::branch_bound`] for
/// MILPs.
pub fn solve_lp(lp: &LinearProgram, options: &SimplexOptions) -> Result<Solution, SimplexError> {
    let mut tableau = Tableau::build(lp, options)?;
    tableau.optimise()?;
    Ok(tableau.primal(lp))
}

/// Solves `lp` like [`solve_lp`] and also returns the dual value of every
/// constraint, in the order of [`LinearProgram::constraints`].
///
/// The duals are read off the final tableau and belong to the maximisation:
/// the dual of a `≤` row is non-negative, of a `≥` row non-positive, of an
/// `=` row free, and each is the rate at which the optimum grows with the
/// row's right-hand side. Variable bounds are not constraints here and get no
/// dual; with every variable in `[0, ∞)`, strong duality reads
/// `Σ_i dual_i · rhs_i = objective`.
pub(crate) fn solve_lp_with_duals(
    lp: &LinearProgram,
    options: &SimplexOptions,
) -> Result<(Solution, Vec<f64>), SimplexError> {
    let mut tableau = Tableau::build(lp, options)?;
    tableau.optimise()?;
    let duals = tableau.duals(lp.num_constraints());
    Ok((tableau.primal(lp), duals))
}

/// Internal standard-form tableau.
struct Tableau {
    /// Row-major matrix of size `rows × (cols + 1)`; the last column is the RHS.
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    /// `basis[r]` is the column currently basic in row `r`.
    basis: Vec<usize>,
    /// Phase-2 objective coefficients per column (minimisation form).
    cost: Vec<f64>,
    /// Phase-1 objective coefficients per column.
    phase1_cost: Vec<f64>,
    /// Columns corresponding to the original (shifted) structural variables.
    structural: usize,
    /// Shift applied to each original variable (its lower bound).
    shift: Vec<f64>,
    /// Constant offset of the objective induced by the shifts.
    objective_offset: f64,
    options: SimplexOptions,
    artificial_start: usize,
    /// Per row, the column that starts as the row's unit vector (its slack,
    /// or its artificial): in the final tableau it holds `B⁻¹ e_row`.
    unit_col: Vec<usize>,
    /// Per row, whether a negative right-hand side was flipped at build.
    flipped: Vec<bool>,
}

impl Tableau {
    fn build(lp: &LinearProgram, options: &SimplexOptions) -> Result<Self, SimplexError> {
        let nvars = lp.num_variables();
        let mut shift = vec![0.0; nvars];
        for (i, v) in lp.variables().iter().enumerate() {
            if !v.lower.is_finite() {
                return Err(SimplexError::UnsupportedLowerBound);
            }
            shift[i] = v.lower;
        }

        // Collect rows: user constraints plus finite upper-bound rows.
        // Each row: (coefficients over structural vars, sense, rhs).
        struct Row {
            coeffs: Vec<(usize, f64)>,
            sense: ConstraintSense,
            rhs: f64,
        }
        let mut raw_rows: Vec<Row> = Vec::new();
        for c in lp.constraints() {
            // Merge duplicate terms. BTreeMap, not HashMap: the shift sum
            // below adds floats in iteration order, and float addition is not
            // associative — hash order would make the tableau (and the
            // configuration digest downstream) vary run to run.
            let mut merged: std::collections::BTreeMap<usize, f64> =
                std::collections::BTreeMap::new();
            for &(v, a) in &c.terms {
                *merged.entry(v).or_insert(0.0) += a;
            }
            // Shift: Σ a_i (x_i' + l_i) sense b  =>  Σ a_i x_i' sense b - Σ a_i l_i
            let shift_amount: f64 = merged.iter().map(|(&v, &a)| a * shift[v]).sum();
            raw_rows.push(Row {
                coeffs: merged.into_iter().collect(),
                sense: c.sense,
                rhs: c.rhs - shift_amount,
            });
        }
        for (i, v) in lp.variables().iter().enumerate() {
            if v.upper.is_finite() {
                let span = v.upper - v.lower;
                raw_rows.push(Row {
                    coeffs: vec![(i, 1.0)],
                    sense: ConstraintSense::LessEq,
                    rhs: span,
                });
            }
        }

        // Normalise RHS to be non-negative.
        let mut flipped = vec![false; raw_rows.len()];
        for (row, flipped) in raw_rows.iter_mut().zip(&mut flipped) {
            if row.rhs < 0.0 {
                *flipped = true;
                for (_, a) in &mut row.coeffs {
                    *a = -*a;
                }
                row.rhs = -row.rhs;
                row.sense = match row.sense {
                    ConstraintSense::LessEq => ConstraintSense::GreaterEq,
                    ConstraintSense::GreaterEq => ConstraintSense::LessEq,
                    ConstraintSense::Equal => ConstraintSense::Equal,
                };
            }
        }

        let rows = raw_rows.len();
        // Count auxiliary columns.
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for row in &raw_rows {
            match row.sense {
                ConstraintSense::LessEq => num_slack += 1,
                ConstraintSense::GreaterEq => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                ConstraintSense::Equal => num_artificial += 1,
            }
        }
        let structural = nvars;
        let cols = structural + num_slack + num_artificial;
        let artificial_start = structural + num_slack;

        let mut a = vec![0.0; rows * (cols + 1)];
        let mut basis = vec![usize::MAX; rows];
        let mut unit_col = vec![usize::MAX; rows];
        let mut slack_idx = structural;
        let mut art_idx = artificial_start;
        for (r, row) in raw_rows.iter().enumerate() {
            for &(v, coef) in &row.coeffs {
                a[r * (cols + 1) + v] += coef;
            }
            a[r * (cols + 1) + cols] = row.rhs;
            match row.sense {
                ConstraintSense::LessEq => {
                    a[r * (cols + 1) + slack_idx] = 1.0;
                    basis[r] = slack_idx;
                    slack_idx += 1;
                }
                ConstraintSense::GreaterEq => {
                    a[r * (cols + 1) + slack_idx] = -1.0;
                    slack_idx += 1;
                    a[r * (cols + 1) + art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
                ConstraintSense::Equal => {
                    a[r * (cols + 1) + art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
            }
            unit_col[r] = basis[r];
        }

        // Phase-2 cost: minimise -objective over shifted variables.
        let mut cost = vec![0.0; cols];
        let mut objective_offset = 0.0;
        for (i, v) in lp.variables().iter().enumerate() {
            cost[i] = -v.objective;
            objective_offset += v.objective * shift[i];
        }
        // Phase-1 cost: minimise the sum of artificials.
        let mut phase1_cost = vec![0.0; cols];
        for slot in phase1_cost.iter_mut().skip(artificial_start) {
            *slot = 1.0;
        }

        Ok(Self {
            a,
            rows,
            cols,
            basis,
            cost,
            phase1_cost,
            structural,
            shift,
            objective_offset,
            options: options.clone(),
            artificial_start,
            unit_col,
            flipped,
        })
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.cols + 1) + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * (self.cols + 1) + c] = v;
    }

    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols)
    }

    /// Smallest pivot element magnitude the tableau update tolerates. Scaled
    /// off the configured tolerance but never below an absolute floor:
    /// dividing a row by anything smaller amplifies its rounding noise past
    /// any later feasibility/optimality test.
    fn min_pivot(&self) -> f64 {
        self.options.tolerance.max(1e-11)
    }

    /// Performs the pivot, returning `false` (tableau untouched) when the
    /// pivot element is too small to divide by. In release builds this is the
    /// guard that keeps an ill-conditioned instance from silently corrupting
    /// the tableau; callers fall back to another column or report
    /// [`SimplexError::Numerical`].
    #[must_use]
    fn pivot(&mut self, pr: usize, pc: usize) -> bool {
        let width = self.cols + 1;
        let pivot_val = self.at(pr, pc);
        if !pivot_val.is_finite() || pivot_val.abs() <= self.min_pivot() {
            return false;
        }
        for c in 0..width {
            let v = self.at(pr, c) / pivot_val;
            self.set(pr, c, v);
        }
        for r in 0..self.rows {
            if r == pr {
                continue;
            }
            let factor = self.at(r, pc);
            if factor.abs() <= 0.0 {
                continue;
            }
            for c in 0..width {
                let v = self.at(r, c) - factor * self.a[pr * width + c];
                self.set(r, c, v);
            }
        }
        self.basis[pr] = pc;
        true
    }

    /// Runs the simplex method on the given cost vector, starting from the
    /// current basic feasible solution.  `allowed_cols` limits the entering
    /// columns (phase 2 forbids artificials).  Returns the number of pivots.
    fn run_phase(
        &mut self,
        cost: &[f64],
        forbid_artificials: bool,
        pivots_used: &mut usize,
    ) -> Result<(), SimplexError> {
        let tol = self.options.tolerance;
        // Columns rejected this iteration because their only improving pivot
        // element was numerically unusable; cleared after every successful
        // pivot (the tableau, and hence the elements, change).
        let mut rejected = vec![false; self.cols];
        // Consecutive degenerate pivots (zero steps: the objective did not
        // move). The largest-reduced-cost rule can cycle through such pivots
        // indefinitely; after `DEGENERATE_RUN` of them Bland's rule, which
        // cannot cycle, picks the pivots until one makes progress.
        let mut degenerate_run = 0usize;
        loop {
            if *pivots_used >= self.options.max_pivots {
                return Err(SimplexError::IterationLimit);
            }
            // Reduced costs: c_j - c_B B^{-1} A_j.  With an explicit tableau the
            // reduced cost is c_j - Σ_r c_{basis[r]} * a[r][j].
            let mut entering: Option<usize> = None;
            let mut best_reduced = -tol;
            let mut any_rejected_improving = false;
            let use_bland =
                *pivots_used > self.options.max_pivots / 2 || degenerate_run >= DEGENERATE_RUN;
            let col_limit = if forbid_artificials {
                self.artificial_start
            } else {
                self.cols
            };
            for j in 0..col_limit {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut reduced = cost[j];
                for r in 0..self.rows {
                    let cb = cost[self.basis[r]];
                    if cb != 0.0 {
                        reduced -= cb * self.at(r, j);
                    }
                }
                if reduced < -tol {
                    if rejected[j] {
                        any_rejected_improving = true;
                        continue;
                    }
                    if use_bland {
                        entering = Some(j);
                        break;
                    }
                    if reduced < best_reduced {
                        best_reduced = reduced;
                        entering = Some(j);
                    }
                }
            }
            let Some(pc) = entering else {
                if any_rejected_improving {
                    // Improvement is still possible in exact arithmetic, but
                    // every improving column pivots on a (near-)zero element.
                    return Err(SimplexError::Numerical);
                }
                return Ok(()); // optimal for this phase
            };
            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let coef = self.at(r, pc);
                if coef > tol {
                    let ratio = self.rhs(r) / coef;
                    if ratio < best_ratio - tol
                        || (ratio < best_ratio + tol
                            && leaving.is_none_or(|lr| self.basis[r] < self.basis[lr]))
                    {
                        best_ratio = ratio;
                        leaving = Some(r);
                    }
                }
            }
            let Some(pr) = leaving else {
                return Err(SimplexError::Unbounded);
            };
            if !self.pivot(pr, pc) {
                // Near-zero pivot element: reject the column and retry with
                // the remaining candidates (Bland-style fallback) rather than
                // dividing the row by numerical noise.
                rejected[pc] = true;
                continue;
            }
            rejected.fill(false);
            *pivots_used += 1;
            degenerate_run = if best_ratio <= tol {
                degenerate_run + 1
            } else {
                0
            };
        }
    }

    /// Runs both phases to an optimal basis.
    fn optimise(&mut self) -> Result<(), SimplexError> {
        let tol = self.options.tolerance;
        let mut pivots = 0usize;

        // Phase 1: drive artificials to zero (only needed if any exist).
        if self.artificial_start < self.cols {
            let phase1 = self.phase1_cost.clone();
            self.run_phase(&phase1, false, &mut pivots)?;
            // Compute phase-1 objective = sum of artificial values.
            let mut infeasibility = 0.0;
            for r in 0..self.rows {
                if self.basis[r] >= self.artificial_start {
                    infeasibility += self.rhs(r);
                }
            }
            if infeasibility > 1e-6 {
                return Err(SimplexError::Infeasible);
            }
            // Drive remaining artificial basics out of the basis when possible.
            for r in 0..self.rows {
                if self.basis[r] >= self.artificial_start {
                    // Find a non-artificial column with a non-zero coefficient.
                    let mut replacement = None;
                    for j in 0..self.artificial_start {
                        if !self.basis.contains(&j) && self.at(r, j).abs() > tol {
                            replacement = Some(j);
                            break;
                        }
                    }
                    if let Some(j) = replacement {
                        if self.pivot(r, j) {
                            pivots += 1;
                        }
                    }
                    // If no replacement exists (or its pivot element is too
                    // small to divide by) the row is redundant; the artificial
                    // stays basic at value ~0, which is harmless.
                }
            }
        }

        // Phase 2: optimise the real objective without artificials entering.
        let phase2 = self.cost.clone();
        self.run_phase(&phase2, true, &mut pivots)
    }

    /// The primal solution of the current (optimal) basis.
    fn primal(&self, lp: &LinearProgram) -> Solution {
        let mut shifted = vec![0.0; self.structural];
        for r in 0..self.rows {
            let b = self.basis[r];
            if b < self.structural {
                shifted[b] = self.rhs(r);
            }
        }
        let values: Vec<f64> = shifted
            .iter()
            .enumerate()
            .map(|(i, &x)| x + self.shift[i])
            .collect();
        let _ = self.objective_offset;
        let objective = lp.objective_value(&values);
        Solution { values, objective }
    }

    /// Duals of the first `count` rows (the user constraints) at the current
    /// (optimal) basis, for the maximisation.
    ///
    /// Row `r`'s unit column holds `B⁻¹ e_r`, so `c_B · B⁻¹ e_r` is the row's
    /// dual in the minimisation the tableau solves. Its cost is the negated
    /// objective, hence the sign change; a row flipped at build is the
    /// negated user row, hence the second one.
    fn duals(&self, count: usize) -> Vec<f64> {
        (0..count)
            .map(|r| {
                let col = self.unit_col[r];
                let dual: f64 = (0..self.rows)
                    .map(|i| self.cost[self.basis[i]] * self.at(i, col))
                    .sum();
                if self.flipped[r] {
                    dual
                } else {
                    -dual
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense, LinearProgram, VarKind};

    fn solve(lp: &LinearProgram) -> Solution {
        solve_lp(lp, &SimplexOptions::default()).expect("solvable")
    }

    #[test]
    fn simple_two_variable_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic example, opt 36 at (2,6))
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(3.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(5.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 4.0, None);
        lp.add_constraint(vec![(y, 2.0)], ConstraintSense::LessEq, 12.0, None);
        lp.add_constraint(
            vec![(x, 3.0), (y, 2.0)],
            ConstraintSense::LessEq,
            18.0,
            None,
        );
        let sol = solve(&lp);
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!((sol.values[x] - 2.0).abs() < 1e-6);
        assert!((sol.values[y] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_geq_constraints() {
        // max x + y s.t. x + y = 5, x >= 2, y >= 1  => objective 5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::Equal, 5.0, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::GreaterEq, 2.0, None);
        lp.add_constraint(vec![(y, 1.0)], ConstraintSense::GreaterEq, 1.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn variable_bounds_are_respected() {
        // max 2x + y with x in [0, 1], y in [0.5, 2], x + y <= 2 => x=1, y=1, obj 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(2.0, 0.0, 1.0, VarKind::Continuous, None);
        let y = lp.add_variable(1.0, 0.5, 2.0, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEq, 2.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!((sol.values[x] - 1.0).abs() < 1e-6);
        assert!((sol.values[y] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min-like test via maximisation of a negative coefficient:
        // max -x with x in [3, 10] => x = 3, objective -3.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 3.0, 10.0, VarKind::Continuous, None);
        let sol = solve(&lp);
        assert!((sol.objective + 3.0).abs() < 1e-6);
        assert!((sol.values[x] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, 1.0, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::GreaterEq, 2.0, None);
        let err = solve_lp(&lp, &SimplexOptions::default()).unwrap_err();
        assert_eq!(err, SimplexError::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(0.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(
            vec![(x, 1.0), (y, -1.0)],
            ConstraintSense::LessEq,
            1.0,
            None,
        );
        let err = solve_lp(&lp, &SimplexOptions::default()).unwrap_err();
        assert_eq!(err, SimplexError::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several redundant constraints through the same vertex.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        for _ in 0..4 {
            lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEq, 1.0, None);
        }
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 1.0, None);
        lp.add_constraint(vec![(y, 1.0)], ConstraintSense::LessEq, 1.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cycling_example_solves() {
        // Chvátal's cycling example: under the largest-coefficient rule with
        // smallest-subscript ties, its degenerate pivots return to the
        // starting basis after six steps. The solve must still end at the
        // optimum, 1 at x1 = x3 = 1, well within a small pivot budget.
        let mut lp = LinearProgram::new();
        let x: Vec<usize> = [10.0, -57.0, -9.0, -24.0]
            .iter()
            .map(|&c| lp.add_variable(c, 0.0, f64::INFINITY, VarKind::Continuous, None))
            .collect();
        let rows = [
            ([0.5, -5.5, -2.5, 9.0], 0.0),
            ([0.5, -1.5, -0.5, 1.0], 0.0),
            ([1.0, 0.0, 0.0, 0.0], 1.0),
        ];
        for (coefficients, rhs) in rows {
            let terms = x.iter().copied().zip(coefficients).collect();
            lp.add_constraint(terms, ConstraintSense::LessEq, rhs, None);
        }
        let options = SimplexOptions {
            max_pivots: 1_000,
            ..SimplexOptions::default()
        };
        let sol = solve_lp(&lp, &options).expect("solves despite degeneracy");
        assert!(
            (sol.objective - 1.0).abs() < 1e-9,
            "objective {}",
            sol.objective
        );
        assert!(lp.is_feasible(&sol.values, 1e-9));
    }

    #[test]
    fn duplicate_terms_are_merged() {
        // max x s.t. 0.5x + 0.5x <= 3  => x = 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 0.5), (x, 0.5)], ConstraintSense::LessEq, 3.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn near_zero_pivot_is_rejected_not_executed() {
        // `y` is profitable and its *only* constraint row carries a 1e-13
        // coefficient. With a tolerance below that coefficient the ratio test
        // accepts the row, and the pre-guard solver pivoted on it — dividing
        // the row by 1e-13 and blowing the tableau up (the old debug_assert
        // only caught this in debug builds). The runtime guard must reject
        // the column and, since no stable improving pivot remains, abort with
        // the numerical-error variant instead of "solving".
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, 1.0, VarKind::Continuous, None);
        let y = lp.add_variable(1e6, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(y, 1e-13)], ConstraintSense::LessEq, 1.0, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 1.0, None);
        let options = SimplexOptions {
            tolerance: 1e-15,
            ..SimplexOptions::default()
        };
        let err = solve_lp(&lp, &options).unwrap_err();
        assert_eq!(err, SimplexError::Numerical);
    }

    #[test]
    fn ill_conditioned_but_stable_instance_still_solves() {
        // Coefficients spanning ten orders of magnitude, solved with a much
        // smaller tolerance than the default: every pivot element is still
        // above the guard's floor, so the solve must succeed and stay exact.
        // max 2a + b  s.t.  1e-3·a + 1e-7·b ≤ 1e-3,  a,b ∈ [0, 1]  →  a = 1
        // forces 1e-7·b ≤ 0 at the vertex... keep slack: rhs 2e-3 → a = 1,
        // b = min(1, 1e4·1e-3) = 1.
        let mut lp = LinearProgram::new();
        let a = lp.add_variable(2.0, 0.0, 1.0, VarKind::Continuous, None);
        let b = lp.add_variable(1.0, 0.0, 1.0, VarKind::Continuous, None);
        lp.add_constraint(
            vec![(a, 1e-3), (b, 1e-7)],
            ConstraintSense::LessEq,
            2e-3,
            None,
        );
        let options = SimplexOptions {
            tolerance: 1e-12,
            ..SimplexOptions::default()
        };
        let sol = solve_lp(&lp, &options).expect("stable instance solves");
        assert!((sol.objective - 3.0).abs() < 1e-6, "got {}", sol.objective);
        assert!(lp.is_feasible(&sol.values, 1e-9));
    }

    /// Checks the duals of an LP whose variables all live in `[0, ∞)`:
    /// strong duality, the sign of each row's dual, dual feasibility, and
    /// complementary slackness on rows and columns.
    fn assert_duality(lp: &LinearProgram) -> (Solution, Vec<f64>) {
        let (sol, duals) = solve_lp_with_duals(lp, &SimplexOptions::default()).expect("solvable");
        assert_eq!(duals.len(), lp.num_constraints());
        let dual_objective: f64 = lp
            .constraints()
            .iter()
            .zip(&duals)
            .map(|(c, d)| c.rhs * d)
            .sum();
        assert!(
            (dual_objective - sol.objective).abs() < 1e-9,
            "strong duality: dual {dual_objective} vs primal {}",
            sol.objective
        );
        let mut priced = lp
            .variables()
            .iter()
            .map(|v| v.objective)
            .collect::<Vec<_>>();
        for (c, &d) in lp.constraints().iter().zip(&duals) {
            match c.sense {
                ConstraintSense::LessEq => assert!(d >= -1e-9, "≤ row dual {d}"),
                ConstraintSense::GreaterEq => assert!(d <= 1e-9, "≥ row dual {d}"),
                ConstraintSense::Equal => {}
            }
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * sol.values[v]).sum();
            assert!(
                (d * (c.rhs - lhs)).abs() < 1e-9,
                "row slack {} with dual {d}",
                c.rhs - lhs
            );
            for &(v, a) in &c.terms {
                priced[v] -= d * a;
            }
        }
        for (reduced, &x) in priced.iter().zip(&sol.values) {
            assert!(*reduced <= 1e-9, "dual infeasible: reduced cost {reduced}");
            assert!((reduced * x).abs() < 1e-9, "column slack {reduced} at {x}");
        }
        (sol, duals)
    }

    fn unbounded_var(lp: &mut LinearProgram, objective: f64) -> usize {
        lp.add_variable(objective, 0.0, f64::INFINITY, VarKind::Continuous, None)
    }

    #[test]
    fn duals_of_a_textbook_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18: optimum 36 at
        // (2, 6) with duals (0, 3/2, 1).
        let mut lp = LinearProgram::new();
        let x = unbounded_var(&mut lp, 3.0);
        let y = unbounded_var(&mut lp, 5.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 4.0, None);
        lp.add_constraint(vec![(y, 2.0)], ConstraintSense::LessEq, 12.0, None);
        lp.add_constraint(
            vec![(x, 3.0), (y, 2.0)],
            ConstraintSense::LessEq,
            18.0,
            None,
        );
        let (_, duals) = assert_duality(&lp);
        for (got, want) in duals.iter().zip([0.0, 1.5, 1.0]) {
            assert!((got - want).abs() < 1e-9, "duals {duals:?}");
        }
    }

    #[test]
    fn duals_of_geq_and_flipped_rows() {
        // max −2x − 3y s.t. x + y ≥ 4, x + 3y ≥ 6: optimum −9 at (3, 1),
        // duals (−3/2, −1/2). The same rows written as `−x − y ≤ −4` and
        // `−x − 3y = …` have negative right-hand sides, which the tableau
        // flips at build; their duals must come back negated.
        let mut geq = LinearProgram::new();
        let x = unbounded_var(&mut geq, -2.0);
        let y = unbounded_var(&mut geq, -3.0);
        geq.add_constraint(
            vec![(x, 1.0), (y, 1.0)],
            ConstraintSense::GreaterEq,
            4.0,
            None,
        );
        geq.add_constraint(
            vec![(x, 1.0), (y, 3.0)],
            ConstraintSense::GreaterEq,
            6.0,
            None,
        );
        let (sol, duals) = assert_duality(&geq);
        assert!((sol.objective + 9.0).abs() < 1e-9);
        for (got, want) in duals.iter().zip([-1.5, -0.5]) {
            assert!((got - want).abs() < 1e-9, "duals {duals:?}");
        }

        let mut flipped = LinearProgram::new();
        let x = unbounded_var(&mut flipped, -2.0);
        let y = unbounded_var(&mut flipped, -3.0);
        flipped.add_constraint(
            vec![(x, -1.0), (y, -1.0)],
            ConstraintSense::LessEq,
            -4.0,
            None,
        );
        flipped.add_constraint(
            vec![(x, -1.0), (y, -3.0)],
            ConstraintSense::Equal,
            -6.0,
            None,
        );
        let (sol, duals) = assert_duality(&flipped);
        assert!((sol.objective + 9.0).abs() < 1e-9);
        for (got, want) in duals.iter().zip([1.5, 0.5]) {
            assert!((got - want).abs() < 1e-9, "duals {duals:?}");
        }
    }

    #[test]
    fn duals_of_random_mixed_lps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Rows of every sense, built around a known feasible point so the LP
        // is feasible, and capped by one `≤` row so it is bounded. Some rows
        // get negative right-hand sides, which the tableau flips.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let vars = rng.gen_range(2..7);
            let mut lp = LinearProgram::new();
            let ids: Vec<usize> = (0..vars)
                .map(|_| unbounded_var(&mut lp, rng.gen_range(-1.0..2.0)))
                .collect();
            let point: Vec<f64> = (0..vars).map(|_| rng.gen_range(0.0..2.0)).collect();
            lp.add_constraint(
                ids.iter().map(|&v| (v, 1.0)).collect(),
                ConstraintSense::LessEq,
                2.0 * vars as f64,
                None,
            );
            for row in 0..rng.gen_range(1..5) {
                let terms: Vec<(usize, f64)> =
                    ids.iter().map(|&v| (v, rng.gen_range(-2.0..2.0))).collect();
                let at_point: f64 = terms.iter().map(|&(v, a)| a * point[v]).sum();
                let (sense, rhs) = match row % 3 {
                    0 => (ConstraintSense::LessEq, at_point + rng.gen_range(0.0..1.0)),
                    1 => (
                        ConstraintSense::GreaterEq,
                        at_point - rng.gen_range(0.0..1.0),
                    ),
                    _ => (ConstraintSense::Equal, at_point),
                };
                lp.add_constraint(terms, sense, rhs, None);
            }
            assert_duality(&lp);
        }
    }

    #[test]
    fn fractional_assignment_structure() {
        // A tiny LP with the structure of LP_SIMP: two users, two items, k = 1,
        // a single friend pair with symmetric social utility.  The optimum
        // co-displays the shared item when the social utility dominates.
        // Variables: x_a1, x_a2, x_b1, x_b2, y_1, y_2.
        let mut lp = LinearProgram::new();
        let xa1 = lp.add_unit_var(0.3, None);
        let xa2 = lp.add_unit_var(0.0, None);
        let xb1 = lp.add_unit_var(0.0, None);
        let xb2 = lp.add_unit_var(0.3, None);
        let y1 = lp.add_unit_var(1.0, None);
        let y2 = lp.add_unit_var(1.0, None);
        lp.add_constraint(
            vec![(xa1, 1.0), (xa2, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(xb1, 1.0), (xb2, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(y1, 1.0), (xa1, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        lp.add_constraint(
            vec![(y1, 1.0), (xb1, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        lp.add_constraint(
            vec![(y2, 1.0), (xa2, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        lp.add_constraint(
            vec![(y2, 1.0), (xb2, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        let sol = solve(&lp);
        // Best: both users take the same item (either one); objective = 1.0 + 0.3.
        assert!((sol.objective - 1.3).abs() < 1e-6);
    }
}
