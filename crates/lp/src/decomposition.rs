//! Exact solver for the condensed LP_SIMP relaxation (§4.4) by Dantzig–Wolfe
//! decomposition.
//!
//! In the min-coupling form of [`crate::structured`], only the group budgets
//! `Σ_{i ∈ g} x_i = budget_g` tie the variables of different *blocks*
//! together, where a block is a connected component of the coupling graph (in
//! SVGIC: the users joined by weighted friend pairs on one item). Written with an auxiliary
//! `y_t ≤ x_first`, `y_t ≤ x_second` per coupling term, each block's polytope
//! has one `+1` and one `−1` per coupling row and is therefore integral: its
//! vertices are the indicator vectors of variable sets `S`, each worth
//! `val(S) = Σ_{i∈S} a_i + Σ_{t ⊆ S} w_t`. The Dantzig–Wolfe master
//!
//! ```text
//! maximise   Σ_{b,S} val(S) · λ_{b,S}
//! subject to Σ_{b,S} |S ∩ g| · λ_{b,S} = budget_g    for every group g,
//!            Σ_S λ_{b,S} = 1                          for every block b,
//!            λ ≥ 0,
//! ```
//!
//! with one row per group and one per block, is therefore exactly the LP.
//!
//! Pricing a block at multipliers `π` on the group rows asks for the set that
//! maximises `Σ_{i∈S} (a_i − π_{g(i)}) + Σ_{t ⊆ S} w_t`: a supermodular
//! (max-closure) problem, solved exactly by one s–t minimum cut on the
//! block's variables plus a source and a sink, with one edge per coupling
//! term. Pricing every block also gives the Lagrangian upper bound
//! `L(π) = Σ_g budget_g · π_g + Σ_b max_S (…)` on the optimum, for any `π`.
//!
//! [`solve_min_coupling_exact`] takes the structured ascent's solution as its
//! lower bound and runs two stages:
//!
//! 1. **Subgradient steps.** From multipliers read off the ascent's solution,
//!    up to 40 Polyak steps aimed at the ascent's objective. When a bound
//!    meets that objective within [`CERTIFICATE_TOLERANCE`], the ascent's own
//!    solution is optimal and is returned; when the cut sets meet every
//!    budget (a zero subgradient) they are an integral optimum and are
//!    returned. Every cut set is kept as a master column.
//! 2. **Restricted master and exact pricing.** The master over the columns
//!    kept so far — seeded with each block's empty and full set and the level
//!    sets of the ascent's solution, so it is always feasible — is solved by
//!    the dense simplex, which also returns its row duals. Each block is priced at the master's duals
//!    smoothed towards the best multipliers seen (Wentges smoothing), and at
//!    the plain duals after a round that adds no column. The solve stops when
//!    no block has a column with positive reduced cost: the duals are then
//!    feasible for the full master, which proves optimality.
//!
//! Every step is deterministic, and each minimum cut returns the source side
//! reachable in the residual graph, so ties resolve the same way on every
//! run.

use crate::model::{ConstraintSense, LinearProgram, VarKind};
use crate::simplex::{solve_lp_with_duals, SimplexError, SimplexOptions};
use crate::structured::{MinCouplingProblem, StructuredSolution};

/// Relative gap within which a dual bound certifies an objective.
pub const CERTIFICATE_TOLERANCE: f64 = 1e-9;

/// Polyak subgradient steps before the restricted master is built.
const SUBGRADIENT_STEPS: usize = 40;

/// Weight of the best multipliers seen in the smoothed pricing point.
const SMOOTHING: f64 = 0.8;

/// Cap on restricted-master solves; reaching it reports
/// [`SimplexError::IterationLimit`].
const MAX_MASTER_ROUNDS: usize = 500;

/// An optimal solution of a [`MinCouplingProblem`] with its certificate.
#[derive(Clone, Debug)]
pub struct ExactSolution {
    /// Variable values, each in `[0, 1]`.
    pub values: Vec<f64>,
    /// Objective value of `values`.
    pub objective: f64,
    /// A Lagrangian upper bound on the optimum. It exceeds `objective` by at
    /// most [`CERTIFICATE_TOLERANCE`] relative.
    pub dual_bound: f64,
    /// Restricted-master solves; `0` when a subgradient step answered first.
    pub master_rounds: usize,
}

/// Whether `bound` certifies `objective` as optimal.
fn certifies(bound: f64, objective: f64) -> bool {
    bound - objective <= CERTIFICATE_TOLERANCE * objective.abs().max(bound.abs())
}

/// Solves the min-coupling problem exactly (see the module documentation).
///
/// `ascent` must be a feasible solution of `problem`, normally the output of
/// [`crate::solve_min_coupling`]: its objective aims the subgradient steps
/// and its level sets seed the master.
///
/// # Errors
/// [`SimplexError::IterationLimit`] when a master solve exhausts
/// `simplex.max_pivots` or the master rounds run out, and
/// [`SimplexError::Numerical`] when the master's simplex aborts or the final
/// dual bound does not certify the objective. Callers can fall back to
/// `ascent`.
pub fn solve_min_coupling_exact(
    problem: &MinCouplingProblem,
    ascent: &StructuredSolution,
    simplex: &SimplexOptions,
) -> Result<ExactSolution, SimplexError> {
    let mut solver = Decomposition::new(problem);
    let target = ascent.objective;

    // Stage 1: Polyak subgradient steps on the group multipliers.
    let mut mu = initial_multipliers(problem, &ascent.values);
    let mut best_bound = f64::INFINITY;
    let mut center = mu.clone();
    let mut theta = 1.0;
    let mut stalled = 0usize;
    let mut cut_sets = Vec::with_capacity(SUBGRADIENT_STEPS);
    for _ in 0..SUBGRADIENT_STEPS {
        let priced = solver.price(&mu);
        if priced.bound < best_bound {
            best_bound = priced.bound;
            center.clone_from(&mu);
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= 2 {
                theta *= 0.5;
                stalled = 0;
            }
        }
        if certifies(priced.bound, target) {
            return Ok(ExactSolution {
                values: ascent.values.clone(),
                objective: target,
                dual_bound: priced.bound,
                master_rounds: 0,
            });
        }
        let mut subgradient = problem.budgets.clone();
        for (&g, &inside) in problem.group_of.iter().zip(&priced.set) {
            if inside {
                subgradient[g] -= 1.0;
            }
        }
        let norm2: f64 = subgradient.iter().map(|g| g * g).sum();
        if norm2 == 0.0 {
            // The cut sets meet every budget: an integral point whose value
            // is the Lagrangian bound itself.
            let values: Vec<f64> = priced
                .set
                .iter()
                .map(|&inside| f64::from(u8::from(inside)))
                .collect();
            let objective = problem.objective(&values);
            if certifies(priced.bound, objective) {
                return Ok(ExactSolution {
                    values,
                    objective,
                    dual_bound: priced.bound,
                    master_rounds: 0,
                });
            }
        }
        cut_sets.push(priced.set);
        let step = theta * (priced.bound - target).max(0.0) / norm2;
        if !step.is_finite() || step == 0.0 {
            break;
        }
        for (m, g) in mu.iter_mut().zip(&subgradient) {
            *m -= step * g;
        }
    }

    // Stage 2: restricted master with smoothed exact pricing. Seed it with
    // every block's empty and full set, the level sets of the ascent's
    // solution (so the master starts at the ascent's objective) and the cut
    // sets of stage 1.
    let n = problem.num_variables();
    solver.add_columns(&vec![false; n], None);
    solver.add_columns(&vec![true; n], None);
    let mut levels: Vec<f64> = ascent.values.iter().copied().filter(|&x| x > 0.0).collect();
    levels.sort_by(|a, b| b.total_cmp(a));
    levels.dedup();
    for level in levels {
        let set: Vec<bool> = ascent.values.iter().map(|&x| x >= level).collect();
        solver.add_columns(&set, None);
    }
    for set in &cut_sets {
        solver.add_columns(set, None);
    }
    let groups = problem.budgets.len();
    for round in 1..=MAX_MASTER_ROUNDS {
        let (lambda, duals) = solver.solve_master(simplex)?;
        let (pi, sigma) = duals.split_at(groups);
        let smoothed: Vec<f64> = center
            .iter()
            .zip(pi)
            .map(|(c, p)| SMOOTHING * c + (1.0 - SMOOTHING) * p)
            .collect();
        let mut added = false;
        let mut plain_bound = f64::INFINITY;
        for (point, smoothed_round) in [(smoothed.as_slice(), true), (pi, false)] {
            let priced = solver.price(point);
            if priced.bound < best_bound {
                best_bound = priced.bound;
                center.clear();
                center.extend_from_slice(point);
            }
            if !smoothed_round {
                plain_bound = priced.bound;
            }
            added = solver.add_columns(&priced.set, Some((pi, sigma)));
            if added {
                break;
            }
        }
        if added {
            continue;
        }
        // No block has a column with positive reduced cost at the plain
        // duals: the master's optimum is the LP's.
        let values = solver.primal(&lambda);
        let objective = problem.objective(&values);
        let dual_bound = best_bound.min(plain_bound);
        if !certifies(dual_bound, objective) {
            return Err(SimplexError::Numerical);
        }
        return Ok(ExactSolution {
            values,
            objective,
            dual_bound,
            master_rounds: round,
        });
    }
    Err(SimplexError::IterationLimit)
}

/// Starting multipliers read off a feasible point: each coupling weight is
/// credited to its lower endpoint (half to each on a tie), and each group's
/// multiplier separates its `⌊budget⌋` best credited values from the rest.
fn initial_multipliers(problem: &MinCouplingProblem, x: &[f64]) -> Vec<f64> {
    let mut credited = problem.linear.clone();
    for t in &problem.couplings {
        let (a, b) = (x[t.first], x[t.second]);
        if a < b {
            credited[t.first] += t.weight;
        } else if b < a {
            credited[t.second] += t.weight;
        } else {
            credited[t.first] += 0.5 * t.weight;
            credited[t.second] += 0.5 * t.weight;
        }
    }
    let mut members: Vec<Vec<f64>> = vec![Vec::new(); problem.budgets.len()];
    for (i, &g) in problem.group_of.iter().enumerate() {
        members[g].push(credited[i]);
    }
    members
        .into_iter()
        .zip(&problem.budgets)
        .map(|(mut values, &budget)| {
            values.sort_by(|a, b| b.total_cmp(a));
            let take = budget.floor() as usize;
            match values.len() {
                0 => 0.0,
                _ if take == 0 => values[0] + 1.0,
                len if take >= len => values[len - 1] - 1.0,
                _ => 0.5 * (values[take - 1] + values[take]),
            }
        })
        .collect()
}

/// One connected component of the coupling graph.
struct Block {
    /// Global variable indices, ascending.
    vars: Vec<usize>,
    /// Coupling terms as `(first, second, weight)` over local indices.
    edges: Vec<(usize, usize, f64)>,
}

impl Block {
    /// `val(S)` of the block's part of `set` (an indicator over all
    /// variables): the members' linear coefficients plus the weights of the
    /// coupling terms inside.
    fn value(&self, problem: &MinCouplingProblem, set: &[bool]) -> f64 {
        let linear: f64 = self
            .vars
            .iter()
            .filter(|&&i| set[i])
            .map(|&i| problem.linear[i])
            .sum();
        let coupled: f64 = self
            .edges
            .iter()
            .filter(|&&(a, b, _)| set[self.vars[a]] && set[self.vars[b]])
            .map(|&(_, _, w)| w)
            .sum();
        linear + coupled
    }

    /// `Σ_{i∈S} π_{g(i)}` over the block's part of `set`: the multipliers
    /// its members pay.
    fn cost(&self, problem: &MinCouplingProblem, set: &[bool], pi: &[f64]) -> f64 {
        self.vars
            .iter()
            .filter(|&&i| set[i])
            .map(|&i| pi[problem.group_of[i]])
            .sum()
    }
}

/// The cut sets of one pricing pass, as one indicator over all variables,
/// and the Lagrangian bound they give.
struct Priced {
    set: Vec<bool>,
    bound: f64,
}

/// Solver state: the blocks, the master's columns and the cut workspace.
struct Decomposition<'a> {
    problem: &'a MinCouplingProblem,
    blocks: Vec<Block>,
    /// Per block, its master columns as `(members over the block's local
    /// indices, val)`, without duplicates.
    columns: Vec<Vec<(Vec<bool>, f64)>>,
    cut: CutGraph,
}

impl<'a> Decomposition<'a> {
    fn new(problem: &'a MinCouplingProblem) -> Self {
        let n = problem.num_variables();
        // Union-find that keeps each root the smallest index of its set, so
        // blocks come out ordered by their smallest variable.
        let mut parent: Vec<usize> = (0..n).collect();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for t in &problem.couplings {
            let (a, b) = (root(&mut parent, t.first), root(&mut parent, t.second));
            parent[a.max(b)] = a.min(b);
        }
        let mut block_of = vec![0usize; n];
        let mut local = vec![0usize; n];
        let mut blocks: Vec<Block> = Vec::new();
        for i in 0..n {
            let r = root(&mut parent, i);
            block_of[i] = if r == i {
                blocks.push(Block {
                    vars: Vec::new(),
                    edges: Vec::new(),
                });
                blocks.len() - 1
            } else {
                block_of[r]
            };
            let block = &mut blocks[block_of[i]];
            local[i] = block.vars.len();
            block.vars.push(i);
        }
        for t in &problem.couplings {
            blocks[block_of[t.first]]
                .edges
                .push((local[t.first], local[t.second], t.weight));
        }
        let largest = blocks.iter().map(|b| b.vars.len()).max().unwrap_or(0);
        Self {
            problem,
            columns: vec![Vec::new(); blocks.len()],
            blocks,
            cut: CutGraph::new(largest + 2),
        }
    }

    /// Prices every block at multipliers `mu`.
    fn price(&mut self, mu: &[f64]) -> Priced {
        let problem = self.problem;
        let mut bound: f64 = problem.budgets.iter().zip(mu).map(|(b, m)| b * m).sum();
        let mut set = vec![false; problem.num_variables()];
        for block in &self.blocks {
            let upper = self.cut.max_closure(problem, block, mu, &mut set);
            let reduced = block.value(problem, &set) - block.cost(problem, &set, mu);
            bound += upper.max(reduced);
        }
        Priced { set, bound }
    }

    /// Adds each block's part of `set` as a master column unless the block
    /// already has it, or, given the master's duals `(π, σ)`, unless its
    /// reduced cost `val − Σ π − σ_b` is not positive. Returns whether any
    /// column was added.
    fn add_columns(&mut self, set: &[bool], duals: Option<(&[f64], &[f64])>) -> bool {
        let mut added = false;
        for (b, block) in self.blocks.iter().enumerate() {
            let value = block.value(self.problem, set);
            if let Some((pi, sigma)) = duals {
                if value - block.cost(self.problem, set, pi) - sigma[b] <= 0.0 {
                    continue;
                }
            }
            let members: Vec<bool> = block.vars.iter().map(|&i| set[i]).collect();
            if self.columns[b].iter().any(|(known, _)| *known == members) {
                continue;
            }
            self.columns[b].push((members, value));
            added = true;
        }
        added
    }

    /// Solves the restricted master; returns the column weights (block by
    /// block) and the duals of the group rows followed by those of the block
    /// rows.
    fn solve_master(&self, simplex: &SimplexOptions) -> Result<(Vec<f64>, Vec<f64>), SimplexError> {
        let problem = self.problem;
        let mut lp = LinearProgram::new();
        let mut group_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); problem.budgets.len()];
        let mut block_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.blocks.len()];
        for ((block, columns), block_row) in
            self.blocks.iter().zip(&self.columns).zip(&mut block_rows)
        {
            for (members, value) in columns {
                let var = lp.add_variable(*value, 0.0, f64::INFINITY, VarKind::Continuous, None);
                for (&i, &inside) in block.vars.iter().zip(members) {
                    if inside {
                        group_rows[problem.group_of[i]].push((var, 1.0));
                    }
                }
                block_row.push((var, 1.0));
            }
        }
        for (terms, &budget) in group_rows.into_iter().zip(&problem.budgets) {
            lp.add_constraint(terms, ConstraintSense::Equal, budget, None);
        }
        for terms in block_rows {
            lp.add_constraint(terms, ConstraintSense::Equal, 1.0, None);
        }
        match solve_lp_with_duals(&lp, simplex) {
            Ok((solution, duals)) => Ok((solution.values, duals)),
            Err(SimplexError::IterationLimit) => Err(SimplexError::IterationLimit),
            Err(_) => Err(SimplexError::Numerical),
        }
    }

    /// The LP solution `x_i = Σ_{S ∋ i} λ_S` of master weights `lambda`.
    fn primal(&self, lambda: &[f64]) -> Vec<f64> {
        let mut values = vec![0.0; self.problem.num_variables()];
        let columns = self
            .blocks
            .iter()
            .zip(&self.columns)
            .flat_map(|(block, columns)| columns.iter().map(move |(members, _)| (block, members)));
        for ((block, members), &weight) in columns.zip(lambda) {
            for (&i, &inside) in block.vars.iter().zip(members) {
                if inside {
                    values[i] += weight;
                }
            }
        }
        for v in &mut values {
            *v = v.clamp(0.0, 1.0);
        }
        values
    }
}

/// Dense residual graph for the per-block minimum cuts (Dinic's algorithm on
/// an adjacency matrix; blocks are small).
struct CutGraph {
    /// Row-major residual capacities, `stride × stride`.
    residual: Vec<f64>,
    stride: usize,
    level: Vec<u32>,
    next_arc: Vec<usize>,
    queue: Vec<usize>,
    gain: Vec<f64>,
}

const UNREACHED: u32 = u32::MAX;

impl CutGraph {
    fn new(nodes: usize) -> Self {
        Self {
            residual: vec![0.0; nodes * nodes],
            stride: nodes,
            level: vec![UNREACHED; nodes],
            next_arc: vec![0; nodes],
            queue: Vec::with_capacity(nodes),
            gain: Vec::with_capacity(nodes),
        }
    }

    /// Writes into `set` the block's members of the set maximising
    /// `Σ_{i∈S} (a_i − mu_{g(i)}) + Σ_{t ⊆ S} w_t`, and returns an upper bound
    /// on that maximum (the positive source capacity minus the maximum
    /// flow).
    ///
    /// Each term `w · [first ∈ S][second ∈ S]` is written as
    /// `w · [first ∈ S] − w · [first ∈ S][second ∉ S]`: the first part joins
    /// `first`'s gain, the second is an edge `first → second` of capacity `w`
    /// that a cut pays when it separates them. The returned set is the source
    /// side reachable in the final residual graph.
    fn max_closure(
        &mut self,
        problem: &MinCouplingProblem,
        block: &Block,
        mu: &[f64],
        set: &mut [bool],
    ) -> f64 {
        let nb = block.vars.len();
        self.gain.clear();
        self.gain.extend(
            block
                .vars
                .iter()
                .map(|&i| problem.linear[i] - mu[problem.group_of[i]]),
        );
        for &(a, _, w) in &block.edges {
            self.gain[a] += w;
        }
        let positive: f64 = self.gain.iter().filter(|&&g| g > 0.0).sum();
        if block.edges.is_empty() {
            for (&i, &g) in block.vars.iter().zip(&self.gain) {
                set[i] = g > 0.0;
            }
            return positive;
        }
        let (source, sink, stride) = (nb, nb + 1, self.stride);
        for row in self.residual.chunks_mut(stride).take(nb + 2) {
            row[..nb + 2].fill(0.0);
        }
        for (i, &g) in self.gain.iter().enumerate() {
            if g > 0.0 {
                self.residual[source * stride + i] = g;
            } else if g < 0.0 {
                self.residual[i * stride + sink] = -g;
            }
        }
        for &(a, b, w) in &block.edges {
            if a != b {
                self.residual[a * stride + b] += w;
            }
        }
        let nodes = nb + 2;
        let mut flow = 0.0;
        while self.levels(source, sink, nodes) {
            self.next_arc[..nodes].fill(0);
            loop {
                let pushed = self.augment(source, sink, nodes, f64::INFINITY);
                if pushed <= 0.0 {
                    break;
                }
                flow += pushed;
            }
        }
        for (&i, &l) in block.vars.iter().zip(&self.level) {
            set[i] = l != UNREACHED;
        }
        positive - flow
    }

    /// Breadth-first levels from `source` over positive residual arcs;
    /// returns whether `sink` is reachable.
    fn levels(&mut self, source: usize, sink: usize, nodes: usize) -> bool {
        let stride = self.stride;
        self.level[..nodes].fill(UNREACHED);
        self.level[source] = 0;
        self.queue.clear();
        self.queue.push(source);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for v in 0..nodes {
                if self.level[v] == UNREACHED && self.residual[u * stride + v] > 0.0 {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v);
                }
            }
        }
        self.level[sink] != UNREACHED
    }

    /// Pushes up to `limit` along one level-increasing path from `u` to
    /// `sink`; returns the amount pushed (`0` when `u` is a dead end).
    fn augment(&mut self, u: usize, sink: usize, nodes: usize, limit: f64) -> f64 {
        if u == sink {
            return limit;
        }
        let stride = self.stride;
        while self.next_arc[u] < nodes {
            let v = self.next_arc[u];
            let residual = self.residual[u * stride + v];
            if residual > 0.0 && self.level[v] == self.level[u] + 1 {
                let pushed = self.augment(v, sink, nodes, limit.min(residual));
                if pushed > 0.0 {
                    self.residual[u * stride + v] -= pushed;
                    self.residual[v * stride + u] += pushed;
                    return pushed;
                }
            }
            self.next_arc[u] += 1;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_lp;
    use crate::structured::{solve_min_coupling, CoordinateAscentOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The explicit LP (with one `y` per coupling term) of a problem.
    fn explicit_lp(p: &MinCouplingProblem) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let xs: Vec<_> = p.linear.iter().map(|&a| lp.add_unit_var(a, None)).collect();
        for t in &p.couplings {
            let y = lp.add_unit_var(t.weight, None);
            for x in [xs[t.first], xs[t.second]] {
                lp.add_constraint(
                    vec![(y, 1.0), (x, -1.0)],
                    ConstraintSense::LessEq,
                    0.0,
                    None,
                );
            }
        }
        for (g, &b) in p.budgets.iter().enumerate() {
            let terms = (0..xs.len())
                .filter(|&i| p.group_of[i] == g)
                .map(|i| (xs[i], 1.0))
                .collect();
            lp.add_constraint(terms, ConstraintSense::Equal, b, None);
        }
        lp
    }

    /// Users × items with the SVGIC shape: group = user, couplings between
    /// the same item of two users. With `frustrated`, the users form an odd
    /// cycle whose pairs gain mostly on an item of their own, so the LP
    /// optimum is fractional and usually needs the master.
    fn random_problem(
        rng: &mut StdRng,
        users: usize,
        items: usize,
        k: usize,
        frustrated: bool,
    ) -> MinCouplingProblem {
        let mut p = MinCouplingProblem::new(vec![k as f64; users]);
        for u in 0..users {
            for _ in 0..items {
                let a = rng.gen::<f64>();
                p.add_variable(u, if frustrated { 0.3 * a } else { a });
            }
        }
        for u in 0..users {
            for v in (u + 1)..users {
                let cycle_edge = v == u + 1 || (u == 0 && v == users - 1);
                for c in 0..items {
                    let w = match (frustrated, cycle_edge) {
                        (false, _) if rng.gen::<f64>() < 0.6 => rng.gen::<f64>(),
                        (true, true) if c == u => 1.0 + 0.2 * rng.gen::<f64>(),
                        (true, true) if rng.gen::<f64>() < 0.3 => 0.5 * rng.gen::<f64>(),
                        _ => 0.0,
                    };
                    p.add_coupling(u * items + c, v * items + c, w);
                }
            }
        }
        p
    }

    /// A mixed corpus: general instances and frustrated odd cycles.
    fn corpus() -> Vec<MinCouplingProblem> {
        let mut rng = StdRng::seed_from_u64(5);
        (0..60)
            .map(|trial| {
                if trial % 2 == 0 {
                    random_problem(&mut rng, 2 + trial % 6, 2 + trial % 5, 1 + trial % 2, false)
                } else {
                    let users = [3, 5][trial % 4 / 2];
                    random_problem(&mut rng, users, users + trial % 3, 1, true)
                }
            })
            .collect()
    }

    fn solve(p: &MinCouplingProblem) -> ExactSolution {
        let ascent = solve_min_coupling(p, &CoordinateAscentOptions::default());
        solve_min_coupling_exact(p, &ascent, &SimplexOptions::default()).expect("solves")
    }

    #[test]
    fn matches_the_dense_simplex_with_a_certificate() {
        let mut master_solves = 0;
        for (trial, p) in corpus().iter().enumerate() {
            let exact = solve(p);
            let dense = solve_lp(&explicit_lp(p), &SimplexOptions::default()).unwrap();
            let scale = dense.objective.abs().max(1.0);
            assert!(
                (exact.objective - dense.objective).abs() <= 1e-9 * scale,
                "trial {trial}: {} vs dense {}",
                exact.objective,
                dense.objective
            );
            assert!(p.is_feasible(&exact.values, 1e-9), "trial {trial}");
            assert!((exact.objective - p.objective(&exact.values)).abs() <= 1e-12 * scale);
            assert!(exact.dual_bound >= dense.objective - 1e-9 * scale);
            assert!(certifies(exact.dual_bound, exact.objective));
            master_solves += exact.master_rounds;
        }
        assert!(master_solves > 0, "the corpus must reach the master");
    }

    #[test]
    fn two_solves_are_bit_identical() {
        for p in corpus().iter().take(20) {
            let (a, b) = (solve(p), solve(p));
            assert_eq!(a.values, b.values);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.dual_bound.to_bits(), b.dual_bound.to_bits());
        }
    }

    #[test]
    fn min_cut_finds_the_best_set() {
        // Against brute force over every subset of small random blocks, with
        // multipliers of both signs.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let size = rng.gen_range(1..8);
            let mut p = MinCouplingProblem::new(vec![1.0; size]);
            for g in 0..size {
                p.add_variable(g, rng.gen::<f64>());
            }
            for a in 0..size {
                for b in (a + 1)..size {
                    if rng.gen::<f64>() < 0.5 {
                        p.add_coupling(a, b, rng.gen::<f64>());
                    }
                }
            }
            let mu: Vec<f64> = (0..size).map(|_| rng.gen_range(-0.5..1.5)).collect();
            let block = Block {
                vars: (0..size).collect(),
                edges: p
                    .couplings
                    .iter()
                    .map(|t| (t.first, t.second, t.weight))
                    .collect(),
            };
            let mut set = vec![false; size];
            let upper = CutGraph::new(size + 2).max_closure(&p, &block, &mu, &mut set);
            let score = |s: &[bool]| block.value(&p, s) - block.cost(&p, s, &mu);
            let best = (0u32..1 << size)
                .map(|mask| score(&(0..size).map(|i| mask >> i & 1 == 1).collect::<Vec<_>>()))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                (score(&set) - best).abs() < 1e-12,
                "cut {} vs best {best}",
                score(&set)
            );
            assert!(upper >= best - 1e-12 && upper - best < 1e-12);
        }
    }

    #[test]
    fn exhausted_pivots_report_iteration_limit() {
        let strangled = SimplexOptions {
            max_pivots: 0,
            ..SimplexOptions::default()
        };
        let mut reached_master = false;
        for p in corpus() {
            let ascent = solve_min_coupling(&p, &CoordinateAscentOptions::default());
            let needs_master = solve(&p).master_rounds > 0;
            reached_master |= needs_master;
            let strangled = solve_min_coupling_exact(&p, &ascent, &strangled);
            // Instances a subgradient step answers never run the simplex.
            assert_eq!(strangled.is_err(), needs_master);
            if let Err(error) = strangled {
                assert_eq!(error, SimplexError::IterationLimit);
            }
        }
        assert!(reached_master);
    }
}
