//! Component-wise, warm-startable LP factor solving.
//!
//! The LP relaxation of an SVGIC instance separates exactly across the
//! connected components of its social graph: no coupling term crosses a
//! component boundary, so the factors of each component can be solved
//! independently and concatenated. That makes component solutions perfect
//! warm-start currency for the dynamic scenario — a Join/Leave only changes
//! the components the churning shopper touches, and every other component's
//! sub-instance is *bit-identical* to one solved before.
//!
//! [`solve_factors_warm`] exploits this: it splits the instance into
//! components, fingerprints each component's sub-instance, reuses cached
//! component factors on fingerprint match, and solves only the rest. Because
//! a reused solution is the verbatim output of the same deterministic solver
//! on the same subproblem, the warm path is a **pure optimization**: factors
//! (and therefore served configurations) are byte-identical with and without
//! the cache. This is the property the engine's warm/cold digest-equality
//! tests and the `churn-heavy` bench pin down.

use std::sync::Arc;

use svgic_algorithms::factors::{solve_relaxation, RelaxationOptions};
use svgic_algorithms::{LpBackend, UtilityFactors};
use svgic_core::{SvgicInstance, UserIdx};

use crate::cache::FactorCache;
use crate::fingerprint::instance_fingerprint;

/// What a component-wise factor solve did.
#[derive(Clone, Debug)]
pub struct WarmOutcome {
    /// The assembled factors over the whole instance.
    pub factors: Arc<UtilityFactors>,
    /// Number of social-graph components the instance splits into.
    pub components: usize,
    /// Components whose factors were reused from the warm cache.
    pub reused: usize,
}

impl WarmOutcome {
    /// Components that had to be solved from scratch.
    pub fn solved(&self) -> usize {
        self.components - self.reused
    }

    /// Whether any component was warm-reused.
    pub fn warm(&self) -> bool {
        self.reused > 0
    }
}

/// Connected components of the instance's social graph, as sorted user-index
/// lists ordered by smallest member — a deterministic partition of
/// `0..num_users()` (isolated shoppers are singleton components). Delegates
/// to [`svgic_graph::SocialGraph::connected_components`], which guarantees
/// exactly this ordering.
pub fn social_components(instance: &SvgicInstance) -> Vec<Vec<UserIdx>> {
    instance.graph().connected_components()
}

/// How a component cache participates in a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Look cached components up and insert the newly solved ones (the warm
    /// path).
    Reuse,
    /// Skip lookups but insert the fresh solutions (a forced cold solve that
    /// still refreshes the cache).
    Refresh,
}

/// Solves the instance's LP factors component by component.
///
/// With `cache: Some((.., CacheMode::Reuse))`, each component's sub-instance
/// fingerprint is first looked up and the solved components are inserted back
/// (the warm path); `CacheMode::Refresh` skips lookups but still inserts;
/// `None` neither reads nor writes any cache (the cold path). All paths
/// produce **identical factors** — the cache only skips recomputation of
/// subproblems it has seen verbatim.
pub fn solve_factors_warm(
    instance: &Arc<SvgicInstance>,
    options: &RelaxationOptions,
    mut cache: Option<(&mut FactorCache, CacheMode)>,
) -> WarmOutcome {
    // Looks one component's sub-instance up in the warm cache (solving and
    // inserting on miss); returns the factors and whether they were reused.
    let resolve = |sub: &Arc<SvgicInstance>,
                   cache: &mut Option<(&mut FactorCache, CacheMode)>|
     -> (Arc<UtilityFactors>, bool) {
        let fingerprint = instance_fingerprint(sub);
        let looked_up = match cache.as_mut() {
            Some((cache, CacheMode::Reuse)) => cache.get(fingerprint),
            _ => None,
        };
        match looked_up {
            Some(cached) => (cached, true),
            None => {
                let solved = Arc::new(solve_relaxation(sub, options));
                if let Some((cache, _)) = cache.as_mut() {
                    cache.insert(fingerprint, Arc::clone(&solved));
                }
                (solved, false)
            }
        }
    };

    let components = social_components(instance);
    let n = instance.num_users();
    let m = instance.num_items();

    // Single component spanning the whole instance (the common connected
    // case): the component's factors *are* the instance's factors — return
    // the Arc as-is instead of copying the matrix through `from_aggregate`.
    // The component cache may still know the instance as a fragment of a
    // larger population seen earlier, so the lookup happens either way.
    if components.len() == 1 {
        let (factors, was_reused) = resolve(instance, &mut cache);
        return WarmOutcome {
            factors,
            components: 1,
            reused: usize::from(was_reused),
        };
    }

    let mut aggregate = vec![0.0f64; n * m];
    let mut scaled_objective = 0.0f64;
    let mut reused = 0usize;
    let num_components = components.len();
    // The assembly is exact only when every component is: one component
    // solved by (or fallen back to) the ascent makes the sum a lower bound.
    let mut backend = None;

    for component in &components {
        let sub = Arc::new(instance.restrict_users(component));
        let (factors, was_reused) = resolve(&sub, &mut cache);
        reused += usize::from(was_reused);
        backend = match backend {
            Some(label) if label != factors.backend => Some(LpBackend::Structured),
            _ => Some(factors.backend),
        };
        scaled_objective += factors.scaled_objective;
        for (row, &user) in component.iter().enumerate() {
            for item in 0..m {
                aggregate[user * m + item] = factors.aggregate(row, item);
            }
        }
    }

    let factors = Arc::new(UtilityFactors::from_aggregate(
        instance,
        aggregate,
        scaled_objective,
        backend.unwrap_or(options.backend),
    ));
    WarmOutcome {
        factors,
        components: num_components,
        reused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_core::example::running_example;

    #[test]
    fn components_partition_the_population() {
        let instance = running_example();
        let components = social_components(&instance);
        let mut seen: Vec<UserIdx> = components.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..instance.num_users()).collect::<Vec<_>>());
        for component in &components {
            assert!(component.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn restricted_population_fragments_into_components() {
        // The running example's social graph is connected; dropping the right
        // shopper must split the rest (or at least never lose anyone).
        let instance = running_example();
        for drop in 0..instance.num_users() {
            let keep: Vec<UserIdx> = (0..instance.num_users()).filter(|&u| u != drop).collect();
            let restricted = instance.restrict_users(&keep);
            let components = social_components(&restricted);
            let total: usize = components.iter().map(Vec::len).sum();
            assert_eq!(total, keep.len());
        }
    }

    #[test]
    fn warm_and_cold_factors_are_identical() {
        let instance = Arc::new(running_example().restrict_users(&[0, 1, 3]));
        let options = RelaxationOptions::default();
        let cold = solve_factors_warm(&instance, &options, None);
        let mut cache = FactorCache::new(16);
        let first = solve_factors_warm(&instance, &options, Some((&mut cache, CacheMode::Reuse)));
        let second = solve_factors_warm(&instance, &options, Some((&mut cache, CacheMode::Reuse)));
        assert_eq!(first.reused, 0);
        assert_eq!(second.reused, second.components, "everything reused");
        for u in 0..instance.num_users() {
            for c in 0..instance.num_items() {
                assert_eq!(cold.factors.aggregate(u, c), first.factors.aggregate(u, c));
                assert_eq!(cold.factors.aggregate(u, c), second.factors.aggregate(u, c));
            }
        }
        assert_eq!(
            cold.factors.scaled_objective,
            second.factors.scaled_objective
        );
    }

    #[test]
    fn component_fingerprints_are_stable_across_supersets() {
        // The same component reached through different population restrictions
        // must fingerprint identically — that is what makes component reuse
        // fire across membership churn.
        let base = running_example();
        let a = base.restrict_users(&[0, 1, 2]);
        let b = base
            .restrict_users(&[0, 1, 2, 3])
            .restrict_users(&[0, 1, 2]);
        assert_eq!(instance_fingerprint(&a), instance_fingerprint(&b));
    }

    #[test]
    fn objective_sums_to_the_whole_instance_bound() {
        // Factors solved component-wise carry the summed scaled objective,
        // which must equal the whole-instance LP bound (the LP separates).
        let base = running_example();
        // Drop a user to (possibly) fragment the graph; either way the
        // whole-instance exact solve and the component-wise solve agree.
        let instance = Arc::new(base.restrict_users(&[0, 2, 3]));
        let options = RelaxationOptions {
            backend: svgic_algorithms::LpBackend::ExactSimplex,
            ..RelaxationOptions::default()
        };
        let componentwise = solve_factors_warm(&instance, &options, None);
        let whole = solve_relaxation(&instance, &options);
        assert!(
            (componentwise.factors.scaled_objective - whole.scaled_objective).abs() < 1e-6,
            "componentwise {} vs whole {}",
            componentwise.factors.scaled_objective,
            whole.scaled_objective
        );
    }
}
