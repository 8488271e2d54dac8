//! # svgic-lp
//!
//! Linear-programming and mixed-integer-programming substrate for the SVGIC
//! reproduction.
//!
//! The paper solves its LP relaxations with commercial solvers (Gurobi /
//! CPLEX).  Those are not available in this environment, so this crate
//! implements from scratch everything the AVG / AVG-D algorithms and the exact
//! IP baseline need:
//!
//! * [`model::LinearProgram`] — a small modelling layer: bounded continuous or
//!   integer variables, sparse linear constraints, maximisation objective.
//! * [`simplex`] — a dense two-phase primal simplex solving an LP exactly and
//!   reading row duals off its final tableau (used for the decomposition's
//!   master, the full LP_SVGIC relaxation, and inside branch & bound).
//! * [`branch_bound`] — a branch-and-bound MILP solver on top of the simplex,
//!   with pluggable node-selection strategies (used as the "IP" baseline and
//!   for the time-boxed MIP-strategy comparison of Fig. 9(a)).
//! * [`structured`] — a special-purpose solver for the condensed LP_SIMP
//!   relaxation of §4.4: a block-coordinate ascent over capped per-user
//!   simplices exploiting the fact that at optimum `y*_e^c = min(x*_u^c,
//!   x*_v^c)`.  This is the "β-approximate LP" path covered by Corollary 4.2
//!   of the paper and is what makes the large-scale experiments feasible
//!   without a commercial solver.
//! * [`decomposition`] — the exact solver for the same relaxation. Only the
//!   per-user budgets couple the items, and each item's block is integral,
//!   so a Dantzig–Wolfe master over per-item user sets (one row per user and
//!   per item) is exactly LP_SIMP. One dense Dinic minimum cut per item
//!   prices a set; Polyak subgradient steps aimed at the ascent's objective
//!   collect sets (and often certify the ascent, or find an integral optimum,
//!   outright); the restricted master is solved by [`simplex`], whose row
//!   duals, read off the final tableau, drive exact pricing until no item
//!   has a column with positive reduced cost. Every solution carries a Lagrangian
//!   dual bound within [`CERTIFICATE_TOLERANCE`] of its objective. The
//!   serving engine's exact LPs take this path; the dense simplex solves the
//!   master, the full LP_SVGIC ablation and branch & bound.
//!
//! ## Example: an exact solve with its certificate
//!
//! ```rust
//! use svgic_lp::{
//!     solve_min_coupling, solve_min_coupling_exact, CoordinateAscentOptions,
//!     MinCouplingProblem, SimplexOptions, CERTIFICATE_TOLERANCE,
//! };
//!
//! // Two users with one slot each; sharing item 0 is worth more than
//! // either user's favourite.
//! let mut problem = MinCouplingProblem::new(vec![1.0, 1.0]);
//! let a0 = problem.add_variable(0, 0.3);
//! problem.add_variable(0, 0.4);
//! let b0 = problem.add_variable(1, 0.3);
//! problem.add_variable(1, 0.4);
//! problem.add_coupling(a0, b0, 1.0);
//!
//! let ascent = solve_min_coupling(&problem, &CoordinateAscentOptions::default());
//! let exact = solve_min_coupling_exact(&problem, &ascent, &SimplexOptions::default())
//!     .expect("LP_SIMP-shaped problems always solve");
//! assert!((exact.objective - 1.6).abs() < 1e-12);
//! assert!(exact.dual_bound - exact.objective <= CERTIFICATE_TOLERANCE * exact.objective);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch_bound;
pub mod decomposition;
pub mod model;
pub mod simplex;
pub mod structured;

pub use branch_bound::{BranchBoundConfig, MilpResult, MilpStatus, NodeSelection};
pub use decomposition::{solve_min_coupling_exact, ExactSolution, CERTIFICATE_TOLERANCE};
pub use model::{Constraint, ConstraintSense, LinearProgram, Solution, VarId, VarKind};
pub use simplex::{solve_lp, SimplexError, SimplexOptions};
pub use structured::{
    solve_min_coupling, CoordinateAscentOptions, CouplingTerm, MinCouplingProblem,
    StructuredSolution,
};
