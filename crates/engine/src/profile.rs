//! Per-template cost-attribution ledger.
//!
//! Every solve is attributed to the **template fingerprint** of its base
//! instance (the catalogue/layout skeleton sessions are stamped from), so a
//! profile names which templates burn cold LP time and why. The ledger is a
//! fixed-capacity `BTreeMap` folded **serially** in the engine's apply loop
//! (session order), so its counts are deterministic under a fixed seed;
//! the nanosecond fields are wall-clock and are never digest-covered.
//!
//! Cold solves carry a **miss cause**:
//!
//! * `new_fingerprint` — first time any session needed this exact factor
//!   fingerprint under this template: cold by necessity;
//! * `evicted` — this factor fingerprint was computed before, so the miss is
//!   pure cache pressure (capacity tuning fixes it);
//! * `component_changed` — the template was seen before but this factor
//!   fingerprint is new: population/catalogue churn changed the instance
//!   composition (incremental factorization is the fix, not capacity).

use std::collections::{BTreeMap, BTreeSet};

use svgic_obs::{PhaseAggregate, RequestWaterfall};

/// Hard cap on the seen-fingerprint recall sets, independent of the entry
/// capacity. Past it new fingerprints stop being remembered (deterministic
/// drop-new policy) and previously-unseen misses classify as
/// `new_fingerprint` — a conservative answer, never a wrong `evicted` one.
const SEEN_CAPACITY: usize = 65_536;

/// Ledger counters for one template fingerprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The template (base-instance) fingerprint the counters attribute to.
    pub template_fingerprint: u64,
    /// Re-solves served warm (factors reused) under this template.
    pub warm_solves: u64,
    /// Re-solves served cold (factors computed) under this template.
    pub cold_solves: u64,
    /// Wall nanoseconds of the warm re-solves (observability only).
    pub warm_nanos: u64,
    /// Wall nanoseconds of the cold re-solves (observability only).
    pub cold_nanos: u64,
    /// Cold solves whose factor fingerprint had never been computed.
    pub miss_new: u64,
    /// Cold solves whose factor fingerprint had been computed before —
    /// pure cache-capacity pressure.
    pub miss_evicted: u64,
    /// Cold solves under a previously-seen template but a new factor
    /// fingerprint — population/catalogue churn.
    pub miss_component_changed: u64,
}

impl ProfileEntry {
    /// Total solves attributed to this template.
    pub fn solves(&self) -> u64 {
        self.warm_solves + self.cold_solves
    }

    /// Folds another entry for the same template into this one.
    pub fn merge(&mut self, other: &ProfileEntry) {
        self.warm_solves += other.warm_solves;
        self.cold_solves += other.cold_solves;
        self.warm_nanos += other.warm_nanos;
        self.cold_nanos += other.cold_nanos;
        self.miss_new += other.miss_new;
        self.miss_evicted += other.miss_evicted;
        self.miss_component_changed += other.miss_component_changed;
    }
}

/// Merges `src` ledger entries into `dst`, matching on template fingerprint
/// and keeping `dst` ascending by fingerprint. This is how
/// `StatsSnapshot::merge` aggregates per-node ledgers into a fleet view.
pub fn merge_entries(dst: &mut Vec<ProfileEntry>, src: &[ProfileEntry]) {
    for entry in src {
        match dst.binary_search_by_key(&entry.template_fingerprint, |e| e.template_fingerprint) {
            Ok(i) => dst[i].merge(entry),
            Err(i) => dst.insert(i, entry.clone()),
        }
    }
}

/// The engine's fixed-capacity per-template solve ledger.
///
/// `capacity` bounds the number of distinct template entries; solves for
/// templates beyond it are counted in `dropped` instead of being attributed
/// (deterministic drop-new policy — existing entries keep accumulating). A
/// capacity of `0` disables the ledger entirely.
#[derive(Debug)]
pub struct SolveLedger {
    capacity: usize,
    entries: BTreeMap<u64, ProfileEntry>,
    dropped: u64,
    seen_factors: BTreeSet<u64>,
    seen_templates: BTreeSet<u64>,
}

impl SolveLedger {
    /// A ledger holding at most `capacity` template entries (`0` disables).
    pub fn new(capacity: usize) -> Self {
        SolveLedger {
            capacity,
            entries: BTreeMap::new(),
            dropped: 0,
            seen_factors: BTreeSet::new(),
            seen_templates: BTreeSet::new(),
        }
    }

    /// Whether the ledger records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Attributes one solve to `template_fingerprint`. `factor_fingerprint`
    /// identifies the exact factor set the solve needed (drives miss-cause
    /// classification), `warm` whether factors were reused, `nanos` the
    /// solve's wall time.
    pub fn record(
        &mut self,
        template_fingerprint: u64,
        factor_fingerprint: u64,
        warm: bool,
        nanos: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        let template_seen = self.seen_templates.contains(&template_fingerprint);
        let factors_seen = self.seen_factors.contains(&factor_fingerprint);
        if self.seen_templates.len() < SEEN_CAPACITY {
            self.seen_templates.insert(template_fingerprint);
        }
        if self.seen_factors.len() < SEEN_CAPACITY {
            self.seen_factors.insert(factor_fingerprint);
        }
        if !self.entries.contains_key(&template_fingerprint) && self.entries.len() >= self.capacity
        {
            self.dropped += 1;
            return;
        }
        let entry = self
            .entries
            .entry(template_fingerprint)
            .or_insert_with(|| ProfileEntry {
                template_fingerprint,
                ..ProfileEntry::default()
            });
        if warm {
            entry.warm_solves += 1;
            entry.warm_nanos += nanos;
        } else {
            entry.cold_solves += 1;
            entry.cold_nanos += nanos;
            if factors_seen {
                entry.miss_evicted += 1;
            } else if template_seen {
                entry.miss_component_changed += 1;
            } else {
                entry.miss_new += 1;
            }
        }
    }

    /// Every entry, ascending by template fingerprint.
    pub fn entries(&self) -> Vec<ProfileEntry> {
        self.entries.values().cloned().collect()
    }

    /// Solves that could not be attributed because the entry capacity was
    /// exhausted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets everything — entries, drop count and the seen-fingerprint
    /// recall sets (a measurement boundary, mirroring `StatsSnapshot::reset`).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
        self.seen_factors.clear();
        self.seen_templates.clear();
    }
}

/// The full profile served by the `QueryProfile` wire request: the ledger
/// plus the critical-path view assembled from the flight recorder. The span
/// sections (`phases`, `waterfalls`, `collapsed`) are empty when tracing is
/// disabled; the ledger sections are empty when `profile_capacity` is `0`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineProfile {
    /// Per-template ledger entries, ascending by template fingerprint.
    pub entries: Vec<ProfileEntry>,
    /// Solves the ledger could not attribute (capacity overflow).
    pub dropped: u64,
    /// Per-phase span aggregates in pipeline order.
    pub phases: Vec<PhaseAggregate>,
    /// The top-K-slowest reconstructed request waterfalls.
    pub waterfalls: Vec<RequestWaterfall>,
    /// Collapsed-stack (folded flamegraph) export of the recorded spans.
    pub collapsed: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_attributes_solves_and_classifies_misses() {
        let mut ledger = SolveLedger::new(8);
        assert!(ledger.is_enabled());
        // First cold solve for template 10 / factors 100: brand new.
        ledger.record(10, 100, false, 5_000);
        // Warm solve on the same template.
        ledger.record(10, 100, true, 1_000);
        // Cold again on factors 100: they were computed before → evicted.
        ledger.record(10, 100, false, 4_000);
        // Cold on a new factor fingerprint under the known template →
        // component changed.
        ledger.record(10, 101, false, 6_000);
        // A different template entirely → new fingerprint.
        ledger.record(20, 200, false, 2_000);
        let entries = ledger.entries();
        assert_eq!(entries.len(), 2);
        let t10 = &entries[0];
        assert_eq!(t10.template_fingerprint, 10);
        assert_eq!(t10.solves(), 4);
        assert_eq!(t10.warm_solves, 1);
        assert_eq!(t10.cold_solves, 3);
        assert_eq!(t10.warm_nanos, 1_000);
        assert_eq!(t10.cold_nanos, 15_000);
        assert_eq!(
            (t10.miss_new, t10.miss_evicted, t10.miss_component_changed),
            (1, 1, 1)
        );
        assert_eq!(entries[1].miss_new, 1);
        assert_eq!(ledger.dropped(), 0);
    }

    #[test]
    fn capacity_drops_new_templates_deterministically() {
        let mut ledger = SolveLedger::new(2);
        ledger.record(1, 1, false, 100);
        ledger.record(2, 2, false, 100);
        ledger.record(3, 3, false, 100); // over capacity: dropped
        ledger.record(1, 1, true, 50); // existing entries keep accumulating
        assert_eq!(ledger.entries().len(), 2);
        assert_eq!(ledger.dropped(), 1);
        assert_eq!(ledger.entries()[0].warm_solves, 1);
        // Zero capacity disables everything.
        let mut off = SolveLedger::new(0);
        assert!(!off.is_enabled());
        off.record(1, 1, false, 100);
        assert!(off.entries().is_empty());
        assert_eq!(off.dropped(), 0);
    }

    #[test]
    fn clear_is_a_measurement_boundary() {
        let mut ledger = SolveLedger::new(4);
        ledger.record(1, 1, false, 100);
        ledger.clear();
        assert!(ledger.entries().is_empty());
        // The recall sets reset too: the same solve is `new` again, not
        // `evicted` — post-reset classification matches a fresh engine.
        ledger.record(1, 1, false, 100);
        assert_eq!(ledger.entries()[0].miss_new, 1);
        assert_eq!(ledger.entries()[0].miss_evicted, 0);
    }

    #[test]
    fn merge_entries_matches_on_fingerprint_and_stays_sorted() {
        let mut dst = vec![
            ProfileEntry {
                template_fingerprint: 10,
                warm_solves: 1,
                ..ProfileEntry::default()
            },
            ProfileEntry {
                template_fingerprint: 30,
                cold_solves: 2,
                ..ProfileEntry::default()
            },
        ];
        let src = vec![
            ProfileEntry {
                template_fingerprint: 10,
                warm_solves: 4,
                ..ProfileEntry::default()
            },
            ProfileEntry {
                template_fingerprint: 20,
                miss_new: 1,
                ..ProfileEntry::default()
            },
        ];
        merge_entries(&mut dst, &src);
        let fingerprints: Vec<u64> = dst.iter().map(|e| e.template_fingerprint).collect();
        assert_eq!(fingerprints, vec![10, 20, 30]);
        assert_eq!(dst[0].warm_solves, 5);
        assert_eq!(dst[1].miss_new, 1);
    }
}
