//! Per-session live state.
//!
//! A session owns the shopping group's *full* instance (every shopper who may
//! ever be present, the full item universe), the currently active catalogue
//! and `λ`, the present population, the queue of unapplied events, and the
//! last served solution. The derived *base instance* — full population
//! restricted to the active catalogue at the current `λ` — is what the LP
//! factors are computed over; its fingerprint keys the shared factor cache.

use std::sync::Arc;

use svgic_algorithms::UtilityFactors;
use svgic_core::{Configuration, ItemIdx, SvgicInstance, UserIdx};

use crate::api::{ConfigurationView, SessionEvent, SessionId};
use crate::fingerprint::instance_fingerprint;

/// The last solution served for a session.
#[derive(Clone, Debug)]
pub struct Served {
    /// Configuration over restricted indices (`present` × `catalog`).
    pub configuration: Configuration,
    /// Original user indices the configuration covers.
    pub present: Vec<UserIdx>,
    /// Original item indices of the active catalogue at solve time.
    pub catalog: Vec<ItemIdx>,
    /// SAVG utility of the configuration.
    pub utility: f64,
    /// LP bound associated with the factors used.
    pub lp_bound: f64,
    /// Whether `lp_bound` is tight: an exact backend solved the LP on
    /// exactly this restricted instance. A full-population bound, or factors
    /// from the structured ascent (configured or fallen back to), are not —
    /// the ascent's objective is a lower bound on the LP optimum.
    pub tight: bool,
}

/// Live state of one session.
#[derive(Debug)]
pub struct SessionState {
    /// The session's id.
    pub id: SessionId,
    /// Full instance as provided at creation (all shoppers, all items).
    /// `Arc`-shared with `base` until catalogue or λ diverge.
    pub full: Arc<SvgicInstance>,
    /// Active catalogue (sorted original item indices).
    pub catalog: Vec<ItemIdx>,
    /// Current trade-off weight.
    pub lambda: f64,
    /// Derived base instance: full population × active catalogue at `lambda`.
    /// `Arc`-shared so flush dispatch can hand it to worker jobs without
    /// copying the utility matrices.
    pub base: Arc<SvgicInstance>,
    /// Fingerprint of `base` (factor-cache key for incremental solves).
    pub base_fingerprint: u64,
    /// Present shoppers (sorted original user indices).
    pub present: Vec<UserIdx>,
    /// Submitted-but-unapplied events, in arrival order.
    pub pending: Vec<SessionEvent>,
    /// Last served solution, if the session has ever been solved.
    pub served: Option<Served>,
    /// Base seed for randomized rounding; combined with `generation`.
    pub seed: u64,
    /// Number of completed solves.
    pub generation: u64,
    /// Applied events since the last full LP solve.
    pub events_since_full: usize,
    /// Total events applied over the session's lifetime.
    pub lifetime_events: u64,
    /// The fractional LP factors the last solve used, kept for
    /// session-affine warm starts: when the next solve needs the same
    /// factor fingerprint (the common case for incremental re-rounds, whose
    /// fingerprint is the stable `base_fingerprint`), they are reused without
    /// touching any shared cache. The variable-index map from these
    /// full-population factor rows to the present shoppers is `present`
    /// itself — row `i` of a sliced solve is `present[i]`.
    pub last_factors: Option<Arc<UtilityFactors>>,
    /// Fingerprint the `last_factors` were computed for.
    pub last_factor_fingerprint: Option<u64>,
}

/// A session's complete transferable state, as produced by
/// [`crate::Engine::export_session`] and consumed by
/// [`crate::Engine::import_session`].
///
/// This is the unit of **live migration**: everything a session is — full
/// instance, active catalogue and λ, present population, unapplied events,
/// the last served solution, the rounding seed and generation — plus its
/// **warm capital**, the LP factors of the last solve and their fingerprint.
/// Importing on another engine continues the session exactly where it left
/// off: solve seeds derive from `(seed, generation)` and factors are
/// byte-identical wherever they are computed, so served configurations are
/// independent of which engine hosts the session. The receiving engine's
/// session-affine reuse layer picks the carried factors up directly, so a
/// migrated session keeps its warm-start behaviour without touching the
/// destination's (cold) caches.
#[derive(Clone, Debug)]
pub struct SessionExport {
    /// Full instance (all shoppers, all items).
    pub full: Arc<SvgicInstance>,
    /// Active catalogue (sorted original item indices).
    pub catalog: Vec<ItemIdx>,
    /// Current trade-off weight.
    pub lambda: f64,
    /// Present shoppers (sorted original user indices).
    pub present: Vec<UserIdx>,
    /// Submitted-but-unapplied events, in arrival order.
    pub pending: Vec<SessionEvent>,
    /// Last served solution, if any.
    pub served: Option<Served>,
    /// Base rounding seed.
    pub seed: u64,
    /// Completed solves.
    pub generation: u64,
    /// Applied events since the last full LP solve.
    pub events_since_full: usize,
    /// Total events applied over the session's lifetime.
    pub lifetime_events: u64,
    /// Warm capital: factors of the last solve, if any.
    pub last_factors: Option<Arc<UtilityFactors>>,
    /// Fingerprint the `last_factors` were computed for.
    pub last_factor_fingerprint: Option<u64>,
}

impl SessionExport {
    /// Whether the export carries reusable LP factors (the warm capital a
    /// migration preserves and a node crash loses).
    pub fn has_warm_capital(&self) -> bool {
        self.last_factors.is_some()
    }
}

impl SessionState {
    /// Creates the state (does not solve). `present` must be sorted/deduped
    /// and within bounds; the caller validates.
    pub fn new(id: SessionId, full: SvgicInstance, present: Vec<UserIdx>, seed: u64) -> Self {
        let catalog: Vec<ItemIdx> = (0..full.num_items()).collect();
        let lambda = full.lambda();
        let full = Arc::new(full);
        let base = Arc::clone(&full);
        let base_fingerprint = instance_fingerprint(&base);
        SessionState {
            id,
            full,
            catalog,
            lambda,
            base,
            base_fingerprint,
            present,
            pending: Vec::new(),
            served: None,
            seed,
            generation: 0,
            events_since_full: 0,
            lifetime_events: 0,
            last_factors: None,
            last_factor_fingerprint: None,
        }
    }

    /// Consumes the state into its transferable form (the id stays behind —
    /// the importing engine assigns its own).
    pub fn into_export(self) -> SessionExport {
        SessionExport {
            full: self.full,
            catalog: self.catalog,
            lambda: self.lambda,
            present: self.present,
            pending: self.pending,
            served: self.served,
            seed: self.seed,
            generation: self.generation,
            events_since_full: self.events_since_full,
            lifetime_events: self.lifetime_events,
            last_factors: self.last_factors,
            last_factor_fingerprint: self.last_factor_fingerprint,
        }
    }

    /// Clones the state into its transferable form without consuming it —
    /// the replication path ([`crate::api::EngineRequest::SnapshotSession`]):
    /// the session keeps serving while the copy travels to a standby. Cheap
    /// relative to a solve: the full instance is `Arc`-shared, so only the
    /// catalogue/population/pending vectors and the served solution clone.
    pub fn to_export(&self) -> SessionExport {
        SessionExport {
            full: Arc::clone(&self.full),
            catalog: self.catalog.clone(),
            lambda: self.lambda,
            present: self.present.clone(),
            pending: self.pending.clone(),
            served: self.served.clone(),
            seed: self.seed,
            generation: self.generation,
            events_since_full: self.events_since_full,
            lifetime_events: self.lifetime_events,
            last_factors: self.last_factors.clone(),
            last_factor_fingerprint: self.last_factor_fingerprint,
        }
    }

    /// Rebuilds a live state from an export under a new local id. The base
    /// instance and its fingerprint are recomputed from (full, catalogue, λ)
    /// — a pure function of the exported fields, so the fingerprint (and with
    /// it every cache key and warm-start decision) is identical on any host.
    pub fn from_export(id: SessionId, export: SessionExport) -> Self {
        let mut state = SessionState {
            id,
            base: Arc::clone(&export.full),
            base_fingerprint: 0,
            full: export.full,
            catalog: export.catalog,
            lambda: export.lambda,
            present: export.present,
            pending: export.pending,
            served: export.served,
            seed: export.seed,
            generation: export.generation,
            events_since_full: export.events_since_full,
            lifetime_events: export.lifetime_events,
            last_factors: export.last_factors,
            last_factor_fingerprint: export.last_factor_fingerprint,
        };
        state.rebuild_base();
        state
    }

    /// Rebuilds `base` (and its fingerprint) after a catalogue or λ change,
    /// sharing `full` when nothing actually diverges and copying at most once.
    pub fn rebuild_base(&mut self) {
        let full_catalog = self.catalog.len() == self.full.num_items();
        let same_lambda = self.lambda == self.full.lambda();
        self.base = match (full_catalog, same_lambda) {
            (true, true) => Arc::clone(&self.full),
            (true, false) => Arc::new(
                self.full
                    .with_lambda(self.lambda)
                    .expect("lambda validated at submit time"),
            ),
            (false, _) => {
                let mut restricted = self.full.restrict_items(&self.catalog);
                if !same_lambda {
                    restricted = restricted
                        .with_lambda(self.lambda)
                        .expect("lambda validated at submit time");
                }
                Arc::new(restricted)
            }
        };
        self.base_fingerprint = instance_fingerprint(&self.base);
    }

    /// Rounding seed for the next solve; changes every generation but is
    /// independent of scheduling/thread timing, keeping the engine
    /// deterministic under a fixed seed.
    pub fn next_solve_seed(&self) -> u64 {
        self.seed
            ^ (self
                .generation
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The served view (an empty configuration when never solved or dormant).
    pub fn view(&self) -> ConfigurationView {
        match &self.served {
            Some(served) => ConfigurationView {
                session: self.id,
                present: served.present.clone(),
                catalog: served.catalog.clone(),
                configuration: served.configuration.clone(),
                utility: served.utility,
                lp_bound: served.lp_bound,
                staleness: self.pending.len(),
                generation: self.generation,
            },
            None => ConfigurationView {
                session: self.id,
                present: Vec::new(),
                catalog: self.catalog.clone(),
                configuration: Configuration::from_flat(0, self.full.num_slots(), Vec::new()),
                utility: 0.0,
                lp_bound: 0.0,
                staleness: self.pending.len(),
                generation: self.generation,
            },
        }
    }

    /// Relative gap `(bound - utility) / bound` of the served solution, only
    /// when the bound is tight (loose bounds would over-trigger the policy).
    pub fn relative_gap(&self) -> Option<f64> {
        self.served.as_ref().and_then(|served| {
            if served.tight && served.lp_bound > 0.0 {
                Some(((served.lp_bound - served.utility) / served.lp_bound).max(0.0))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_core::example::running_example;

    #[test]
    fn new_session_covers_everything() {
        let full = running_example();
        let n = full.num_users();
        let state = SessionState::new(SessionId(1), full, (0..n).collect(), 42);
        assert_eq!(state.catalog.len(), state.full.num_items());
        assert_eq!(state.present.len(), n);
        assert!(state.served.is_none());
        assert_eq!(state.view().staleness, 0);
    }

    #[test]
    fn rebuild_base_tracks_catalog_and_lambda() {
        let full = running_example();
        let mut state = SessionState::new(SessionId(1), full, vec![0, 1], 7);
        let original = state.base_fingerprint;
        state.catalog = vec![0, 1, 2];
        state.lambda = 0.25;
        state.rebuild_base();
        assert_ne!(state.base_fingerprint, original);
        assert_eq!(state.base.num_items(), 3);
        assert!((state.base.lambda() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn export_import_roundtrip_preserves_state_and_fingerprint() {
        let full = running_example();
        let mut state = SessionState::new(SessionId(3), full, vec![0, 1, 2], 99);
        state.catalog = vec![0, 1, 2, 3];
        state.lambda = 0.3;
        state.rebuild_base();
        state.generation = 5;
        state.events_since_full = 2;
        state.lifetime_events = 11;
        let fingerprint = state.base_fingerprint;
        let next_seed = state.next_solve_seed();
        let export = state.into_export();
        assert!(!export.has_warm_capital(), "never solved: no factors");
        let restored = SessionState::from_export(SessionId(77), export);
        assert_eq!(restored.id, SessionId(77), "importer assigns the id");
        assert_eq!(restored.base_fingerprint, fingerprint);
        assert_eq!(restored.present, vec![0, 1, 2]);
        assert_eq!(restored.catalog, vec![0, 1, 2, 3]);
        assert_eq!(restored.generation, 5);
        assert_eq!(restored.events_since_full, 2);
        assert_eq!(restored.lifetime_events, 11);
        assert_eq!(
            restored.next_solve_seed(),
            next_seed,
            "solve seeds are host-independent"
        );
    }

    #[test]
    fn snapshot_matches_destructive_export_and_leaves_session_live() {
        let full = running_example();
        let mut state = SessionState::new(SessionId(5), full, vec![0, 1], 13);
        state.generation = 2;
        state.lifetime_events = 4;
        let snapshot = state.to_export();
        assert_eq!(state.id, SessionId(5), "session stays live");
        let export = state.into_export();
        assert_eq!(snapshot.present, export.present);
        assert_eq!(snapshot.catalog, export.catalog);
        assert_eq!(snapshot.generation, export.generation);
        assert_eq!(snapshot.lifetime_events, export.lifetime_events);
        assert_eq!(snapshot.seed, export.seed);
    }

    #[test]
    fn solve_seeds_differ_per_generation() {
        let full = running_example();
        let mut state = SessionState::new(SessionId(1), full, vec![0], 7);
        let first = state.next_solve_seed();
        state.generation += 1;
        assert_ne!(first, state.next_solve_seed());
    }
}
