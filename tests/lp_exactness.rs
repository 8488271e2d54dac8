//! Exactness of the decomposition backend for LP_SIMP (per-item minimum cuts
//! and a Dantzig–Wolfe master) against the dense two-phase simplex on the
//! explicit LP: equal objectives within 1e-9 relative, budgets and `[0, 1]`
//! bounds that hold, a dual bound that certifies the objective, and
//! bit-identical repeat solves.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svgic::algorithms::factors::solve_relaxation_with;
use svgic::core::ip_model::{build_lp_simp, build_min_coupling};
use svgic::graph::generate::erdos_renyi;
use svgic::lp::{
    solve_lp, solve_min_coupling, solve_min_coupling_exact, CoordinateAscentOptions,
    SimplexOptions, CERTIFICATE_TOLERANCE,
};
use svgic::prelude::*;

/// One utility draw: uniform on `[0, 1)`, tied on the levels `{0, ½, 1}`,
/// or log-uniform over `1e-6..1e3`.
fn draw(rng: &mut StdRng, shape: usize) -> f64 {
    match shape {
        0 => rng.gen::<f64>(),
        1 => (rng.gen::<f64>() * 3.0).floor() * 0.5,
        _ => 10f64.powf(rng.gen::<f64>() * 9.0 - 6.0),
    }
}

/// A random instance. `density` 0 leaves every user isolated, and low
/// densities give disconnected graphs; a quarter of the pair utilities are
/// zero, so some friend pairs carry no weight on some items.
fn instance(
    n: usize,
    m: usize,
    k: usize,
    lambda: f64,
    density: f64,
    shape: usize,
    seed: u64,
) -> SvgicInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = erdos_renyi(n, density, &mut rng);
    let mut builder = SvgicInstanceBuilder::new(graph, m, k, lambda);
    let preferences: Vec<f64> = (0..n * m).map(|_| draw(&mut rng, shape)).collect();
    let social: Vec<f64> = (0..n * n * m)
        .map(|_| {
            if rng.gen::<f64>() < 0.25 {
                0.0
            } else {
                draw(&mut rng, shape)
            }
        })
        .collect();
    builder.fill_preferences(|u, c| preferences[u * m + c]);
    builder.fill_social(|u, v, c| social[(u * n + v) * m + c]);
    builder.build().expect("random instance is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decomposition_matches_the_dense_simplex(
        n in 1usize..13,
        m in 1usize..7,
        k_pick in 0usize..4,
        lambda_pick in 0usize..3,
        density_pick in 0usize..4,
        shape in 0usize..3,
        seed in 0u64..100_000,
    ) {
        // k_pick 0 sets k = m: every user takes the whole catalogue.
        let k = if k_pick == 0 { m } else { 1 + k_pick % m };
        let lambda = [0.0, 0.5, 1.0][lambda_pick];
        let density = [0.0, 0.2, 0.5, 1.0][density_pick];
        let instance = instance(n, m, k, lambda, density, shape, seed);

        let dense = solve_lp(&build_lp_simp(&instance).lp, &SimplexOptions::default())
            .expect("LP_SIMP is feasible and bounded");
        let problem = build_min_coupling(&instance);
        let ascent = solve_min_coupling(&problem, &CoordinateAscentOptions::default());
        let exact = solve_min_coupling_exact(&problem, &ascent, &SimplexOptions::default())
            .expect("the decomposition solves");

        let scale = dense.objective.abs().max(exact.objective.abs());
        prop_assert!(
            (exact.objective - dense.objective).abs() <= 1e-9 * scale,
            "decomposition {} vs dense simplex {}", exact.objective, dense.objective
        );
        prop_assert!(exact.dual_bound - exact.objective <= CERTIFICATE_TOLERANCE * scale);
        for u in 0..n {
            let row = &exact.values[u * m..(u + 1) * m];
            let budget: f64 = row.iter().sum();
            prop_assert!((budget - k as f64).abs() <= 1e-9, "user {u} takes {budget} of {k}");
            prop_assert!(row.iter().all(|x| (0.0..=1.0).contains(x)));
        }

        let again = solve_min_coupling_exact(&problem, &ascent, &SimplexOptions::default())
            .expect("the decomposition solves");
        prop_assert_eq!(&again.values, &exact.values);
        prop_assert_eq!(again.objective.to_bits(), exact.objective.to_bits());

        // The serving path labels these factors exact and carries the same
        // optimum.
        let factors = solve_relaxation_with(&instance, LpBackend::ExactSimplex);
        prop_assert_eq!(factors.backend, LpBackend::ExactSimplex);
        prop_assert_eq!(factors.scaled_objective.to_bits(), exact.objective.to_bits());
    }
}
