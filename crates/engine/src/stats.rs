//! Engine-wide counters and latency accounting.
//!
//! All counters are atomics behind an [`Arc`](std::sync::Arc) so worker threads record
//! directly. Configurations and cache accounting are deterministic under a
//! fixed seed; wall-clock latencies naturally are not and are reported for
//! observability only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use svgic_obs::telemetry::rate_to_ppm;
use svgic_obs::{
    AtomicHistogram, Health, HealthPolicy, HistogramSnapshot, MetricsRegistry, SloObjective,
    TelemetrySample,
};

/// Default per-request-class latency objectives: `(class, objective)` for
/// each phase histogram the engine keeps. A class burns error budget when
/// more than `budget` of its samples exceed `objective_nanos`; the budgets
/// are deliberately loose (5%) so health flags sustained pressure, not a
/// stray slow solve.
pub const DEFAULT_SLO: [(&str, SloObjective); 4] = [
    ("lp", SloObjective::new(50_000_000, 0.05)),
    ("warm_solve", SloObjective::new(10_000_000, 0.05)),
    ("cold_solve", SloObjective::new(250_000_000, 0.05)),
    ("round", SloObjective::new(20_000_000, 0.05)),
];

/// Per-shard counters: how busy each shard is and how much work is queued
/// against it. `queue_depth` and `cache_entries` are **gauges** (pending
/// events / cached factor entries of the shard right now), the rest are
/// monotonic. Load-aware cluster rebalancing reads these to find hot nodes;
/// they are useful observability on their own.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Pipeline jobs dispatched to this shard.
    pub jobs: AtomicU64,
    /// Session solves executed by this shard.
    pub solves: AtomicU64,
    /// Nanoseconds this shard's jobs spent busy (restrict + factors + round).
    pub busy_nanos: AtomicU64,
    /// Pending events currently queued against this shard's sessions
    /// (incremented at submit, drained at dispatch/close/export).
    pub queue_depth: AtomicU64,
    /// Entries in this shard's factor cache right now (gauge, refreshed at
    /// the end of each shard pipeline job).
    pub cache_entries: AtomicU64,
    /// Bytes held by this shard's factor and component caches right now
    /// (gauge, refreshed alongside `cache_entries`; capacity accounting per
    /// `svgic_obs::mem`).
    pub cache_bytes: AtomicU64,
}

/// Max/mean ratio of per-shard busy nanoseconds (`0` with no shards or no
/// work yet).
fn busy_imbalance(busy: &[u64]) -> f64 {
    let total: u64 = busy.iter().sum();
    if busy.is_empty() || total == 0 {
        return 0.0;
    }
    let max = *busy.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / busy.len() as f64;
    max / mean
}

/// Monotonic counters shared between the engine and its workers.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Requests handled (all five request kinds).
    pub requests: AtomicU64,
    /// Sessions opened.
    pub sessions_created: AtomicU64,
    /// Sessions closed.
    pub sessions_closed: AtomicU64,
    /// Sessions exported (live-migrated out, not counted as closed).
    pub sessions_exported: AtomicU64,
    /// Sessions imported (live-migrated in, not counted as created).
    pub sessions_imported: AtomicU64,
    /// Per-shard busy/queue counters (length = the engine's shard count;
    /// empty for a bare `EngineStats::default()`).
    pub per_shard: Vec<ShardStats>,
    /// Events accepted into pending queues.
    pub events_submitted: AtomicU64,
    /// Events folded away by the batch coalescer.
    pub events_coalesced: AtomicU64,
    /// Dispatch batches run.
    pub batches: AtomicU64,
    /// Solves executed incrementally (re-round on cached/base factors).
    pub solves_incremental: AtomicU64,
    /// Solves executed as full LP re-solves.
    pub solves_full: AtomicU64,
    /// Factor-cache hits (LP skipped because a previous batch computed it).
    pub cache_hits: AtomicU64,
    /// Factor-cache misses (LP executed).
    pub cache_misses: AtomicU64,
    /// LP solves skipped because another session in the *same* batch needed
    /// the same fingerprint (batch dedup, distinct from cache reuse).
    pub batch_shared: AtomicU64,
    /// Factor lookups satisfied by the session's own last solution (the
    /// session-affine fast path; also counted in `cache_hits`).
    pub session_reuse: AtomicU64,
    /// Re-solves served warm: factors obtained from an exact reuse layer
    /// (session-affine, fingerprint cache, or within-batch sharing) instead
    /// of a fresh LP computation.
    pub solves_warm: AtomicU64,
    /// Re-solves served cold: factors computed from scratch.
    pub solves_cold: AtomicU64,
    /// Social-graph components reused verbatim from the warm cache.
    pub warm_components_reused: AtomicU64,
    /// Social-graph components solved from scratch.
    pub warm_components_solved: AtomicU64,
    /// Total nanoseconds spent in LP relaxation jobs.
    pub lp_nanos: AtomicU64,
    /// Total nanoseconds of warm re-solves (factor resolution + rounding).
    pub warm_solve_nanos: AtomicU64,
    /// Total nanoseconds of cold re-solves (LP computation + rounding).
    pub cold_solve_nanos: AtomicU64,
    /// Total nanoseconds spent in rounding jobs.
    pub round_nanos: AtomicU64,
    /// Slowest single job (one LP relaxation or one rounding pass) observed,
    /// in nanoseconds. LP and rounding run as separate pool jobs (an LP can
    /// serve many solves), so there is no meaningful combined per-solve total.
    pub max_solve_nanos: AtomicU64,
    /// Sum of per-solve `(bound - utility) / bound` gaps, in micro-units,
    /// over solves with a tight bound.
    pub gap_micros: AtomicU64,
    /// Number of solves contributing to `gap_micros`.
    pub gap_samples: AtomicU64,
    /// Per-LP-computation latency distribution (one sample per cache miss —
    /// the same events that feed `lp_nanos`/`cache_misses`).
    pub lp_latency: AtomicHistogram,
    /// Per-re-solve latency distribution, warm class.
    pub warm_solve_latency: AtomicHistogram,
    /// Per-re-solve latency distribution, cold class.
    pub cold_solve_latency: AtomicHistogram,
    /// Per-rounding-job latency distribution (one sample per solve).
    pub round_latency: AtomicHistogram,
    /// Queue-wait distribution: one sample per shard pipeline job with
    /// pending events, measuring how long the shard's oldest enqueued event
    /// waited between submit and the job starting.
    pub queue_wait_latency: AtomicHistogram,
    /// Bytes held by live session state — instances (full + diverged base)
    /// and warm factors (gauge, refreshed by `Engine::stats`).
    pub mem_session_bytes: AtomicU64,
    /// Bytes held by pending (un-flushed) event queues (gauge).
    pub mem_pending_bytes: AtomicU64,
    /// Bytes held by served solutions (gauge).
    pub mem_served_bytes: AtomicU64,
}

impl EngineStats {
    /// Stats for an engine with `shards` session shards.
    pub fn with_shards(shards: usize) -> Self {
        EngineStats {
            per_shard: (0..shards).map(|_| ShardStats::default()).collect(),
            ..EngineStats::default()
        }
    }

    /// Records one pipeline job dispatched to `shard` covering `solves`
    /// session solves.
    pub fn record_shard_dispatch(&self, shard: usize, solves: u64) {
        if let Some(stats) = self.per_shard.get(shard) {
            // lint: allow(relaxed-store, independent monotonic counters; a torn pair only skews a transient rate)
            stats.jobs.fetch_add(1, Ordering::Relaxed);
            stats.solves.fetch_add(solves, Ordering::Relaxed);
        }
    }

    /// Adds busy nanoseconds to `shard`'s clock.
    pub fn record_shard_busy(&self, shard: usize, nanos: u64) {
        if let Some(stats) = self.per_shard.get(shard) {
            // lint: allow(relaxed-store, independent monotonic counter; nothing else is published with it)
            stats.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Refreshes `shard`'s factor-cache gauges (entry count and bytes) as one
    /// published pair.
    ///
    /// The two gauges describe the same cache state and are read together by
    /// [`EngineStats::snapshot`]; publishing them independently with relaxed
    /// stores is exactly the multi-field gauge race PR 7 fixed in
    /// `sample_telemetry`. The byte store is made visible *before* the entry
    /// store (Release), and `snapshot` loads entries with Acquire first, so
    /// any snapshot that observes an entry count also observes a byte figure
    /// at least as recent as that count's pair.
    pub fn set_shard_cache_gauges(&self, shard: usize, entries: usize, bytes: u64) {
        if let Some(stats) = self.per_shard.get(shard) {
            // lint: allow(relaxed-store, ordered by the Release store of cache_entries below; see the doc comment)
            stats.cache_bytes.store(bytes, Ordering::Relaxed);
            stats.cache_entries.store(entries as u64, Ordering::Release);
        }
    }

    /// Refreshes the engine-level memory gauges (session / pending / served
    /// bytes). Called by `Engine::stats` just before snapshotting, so wire
    /// scrapes and local reads see the same accounting.
    pub fn set_mem_gauges(&self, session_bytes: u64, pending_bytes: u64, served_bytes: u64) {
        // Written and then read by the same snapshotting thread
        // (`Engine::stats` refreshes, then snapshots), so the three gauges
        // need no cross-thread publish ordering.
        // lint: allow(relaxed-store, same-thread write-then-read; no cross-thread pairing)
        let set = |gauge: &AtomicU64, v: u64| gauge.store(v, Ordering::Relaxed);
        set(&self.mem_session_bytes, session_bytes);
        set(&self.mem_pending_bytes, pending_bytes);
        set(&self.mem_served_bytes, served_bytes);
    }

    /// Raises `shard`'s queue-depth gauge by `events`.
    pub fn shard_queue_add(&self, shard: usize, events: usize) {
        if let Some(stats) = self.per_shard.get(shard) {
            // lint: allow(relaxed-store, single saturating gauge; no paired state)
            stats
                .queue_depth
                .fetch_add(events as u64, Ordering::Relaxed);
        }
    }

    /// Lowers `shard`'s queue-depth gauge by `events` (saturating — the
    /// gauge never wraps even if bookkeeping and a reset race).
    pub fn shard_queue_sub(&self, shard: usize, events: usize) {
        if let Some(stats) = self.per_shard.get(shard) {
            // lint: allow(relaxed-store, single saturating gauge; no paired state)
            let _ = stats
                .queue_depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                    Some(depth.saturating_sub(events as u64))
                });
        }
    }

    /// Records one job's duration (exactly one of `lp`/`rounding` is
    /// non-zero per call), updating totals and the slowest-job high-water
    /// mark.
    pub fn record_solve_nanos(&self, lp: u64, rounding: u64) {
        // lint: allow(relaxed-store, cumulative totals read for means; a torn read skews one transient mean only)
        self.lp_nanos.fetch_add(lp, Ordering::Relaxed);
        self.round_nanos.fetch_add(rounding, Ordering::Relaxed);
        // lint: allow(relaxed-store, high-water mark; fetch_max keeps it monotonic regardless of order)
        self.max_solve_nanos
            .fetch_max(lp.max(rounding), Ordering::Relaxed);
    }

    /// Records one LP factor computation: its duration and how many
    /// social-graph components it warm-reused vs. solved.
    pub fn record_lp_compute(&self, nanos: u64, reused_components: u64, solved_components: u64) {
        self.record_solve_nanos(nanos, 0);
        self.lp_latency.record_nanos(nanos);
        // lint: allow(relaxed-store, independent monotonic counter; nothing else is published with it)
        self.warm_components_reused
            .fetch_add(reused_components, Ordering::Relaxed);
        // lint: allow(relaxed-store, independent monotonic counter; nothing else is published with it)
        self.warm_components_solved
            .fetch_add(solved_components, Ordering::Relaxed);
    }

    /// Records one rounding job: aggregate time plus the per-job latency
    /// distribution (every solve rounds exactly once).
    pub fn record_round(&self, nanos: u64) {
        self.record_solve_nanos(0, nanos);
        self.round_latency.record_nanos(nanos);
    }

    /// Records one whole re-solve (factor resolution through rounding) as
    /// warm (factors reused) or cold (factors computed).
    pub fn record_solve_class(&self, nanos: u64, warm: bool) {
        if warm {
            // lint: allow(relaxed-store, cumulative count and nanos totals; a torn mean is transient and self-corrects)
            self.solves_warm.fetch_add(1, Ordering::Relaxed);
            self.warm_solve_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.warm_solve_latency.record_nanos(nanos);
        } else {
            // lint: allow(relaxed-store, cumulative count and nanos totals; a torn mean is transient and self-corrects)
            self.solves_cold.fetch_add(1, Ordering::Relaxed);
            self.cold_solve_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.cold_solve_latency.record_nanos(nanos);
        }
    }

    /// Records how long a shard's oldest pending event waited between submit
    /// and its shard pipeline job starting (one sample per dispatched shard
    /// job that had pending events).
    pub fn record_queue_wait(&self, nanos: u64) {
        self.queue_wait_latency.record_nanos(nanos);
    }

    /// Records a utility-vs-bound gap sample (tight bounds only).
    pub fn record_gap(&self, utility: f64, bound: f64) {
        if bound > 0.0 && utility.is_finite() {
            let gap = ((bound - utility) / bound).clamp(0.0, 1.0);
            // lint: allow(relaxed-store, cumulative sum and sample-count totals; a torn mean is transient and self-corrects)
            self.gap_micros
                .fetch_add((gap * 1e6) as u64, Ordering::Relaxed);
            self.gap_samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resets every counter to zero, so a measured run can exclude warmup
    /// traffic without rebuilding the engine and losing its caches. The
    /// per-shard **queue-depth and cache-size gauges and the `mem_*` byte
    /// gauges are left alone**: they track live pending events, live cache
    /// contents and live session state, which a measurement boundary does
    /// not consume.
    pub fn reset(&self) {
        // lint: allow(relaxed-store, reset is a driver-side measurement boundary; writers are quiesced between runs)
        let clear = |counter: &AtomicU64| counter.store(0, Ordering::Relaxed);
        for shard in &self.per_shard {
            clear(&shard.jobs);
            clear(&shard.solves);
            clear(&shard.busy_nanos);
        }
        self.lp_latency.reset();
        self.warm_solve_latency.reset();
        self.cold_solve_latency.reset();
        self.round_latency.reset();
        self.queue_wait_latency.reset();
        clear(&self.requests);
        clear(&self.sessions_created);
        clear(&self.sessions_closed);
        clear(&self.sessions_exported);
        clear(&self.sessions_imported);
        clear(&self.events_submitted);
        clear(&self.events_coalesced);
        clear(&self.batches);
        clear(&self.solves_incremental);
        clear(&self.solves_full);
        clear(&self.cache_hits);
        clear(&self.cache_misses);
        clear(&self.batch_shared);
        clear(&self.session_reuse);
        clear(&self.solves_warm);
        clear(&self.solves_cold);
        clear(&self.warm_components_reused);
        clear(&self.warm_components_solved);
        clear(&self.lp_nanos);
        clear(&self.warm_solve_nanos);
        clear(&self.cold_solve_nanos);
        clear(&self.round_nanos);
        clear(&self.max_solve_nanos);
        clear(&self.gap_micros);
        clear(&self.gap_samples);
    }

    /// The [`TelemetrySample`] at `tick`, read straight from the counters.
    /// It loads only the numbers a sample stores, where [`Self::snapshot`]
    /// copies every histogram too; each field equals what the snapshot's
    /// accessors derive.
    pub(crate) fn telemetry_sample(&self, tick: u64) -> TelemetrySample {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let per_shard = |gauge: fn(&ShardStats) -> &AtomicU64| -> u64 {
            self.per_shard.iter().map(|shard| load(gauge(shard))).sum()
        };
        let busy: Vec<u64> = self.per_shard.iter().map(|s| load(&s.busy_nanos)).collect();
        let (warm, cold) = (load(&self.solves_warm), load(&self.solves_cold));
        let warm_rate = if warm + cold == 0 {
            0.0
        } else {
            warm as f64 / (warm + cold) as f64
        };
        let session = load(&self.mem_session_bytes);
        let pending = load(&self.mem_pending_bytes);
        let served = load(&self.mem_served_bytes);
        let cache = per_shard(|s| &s.cache_bytes);
        TelemetrySample {
            tick,
            requests: load(&self.requests),
            solves: load(&self.solves_incremental) + load(&self.solves_full),
            queue_depth: per_shard(|s| &s.queue_depth),
            warm_rate_ppm: rate_to_ppm(warm_rate),
            imbalance_ppm: rate_to_ppm(busy_imbalance(&busy)),
            mem_session_bytes: session,
            mem_pending_bytes: pending,
            mem_served_bytes: served,
            mem_cache_bytes: cache,
            mem_total_bytes: session + pending + served + cache,
        }
    }

    /// A point-in-time copy of every counter plus derived rates.
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            requests: load(&self.requests),
            sessions_created: load(&self.sessions_created),
            sessions_closed: load(&self.sessions_closed),
            sessions_exported: load(&self.sessions_exported),
            sessions_imported: load(&self.sessions_imported),
            shards: self
                .per_shard
                .iter()
                .map(|shard| ShardSnapshot {
                    jobs: load(&shard.jobs),
                    solves: load(&shard.solves),
                    busy_time: Duration::from_nanos(load(&shard.busy_nanos)),
                    queue_depth: load(&shard.queue_depth),
                    // Acquire pairs with the Release store in
                    // `set_shard_cache_gauges`: seeing an entry count makes
                    // its paired byte store visible (struct fields evaluate
                    // in source order, so entries is read first).
                    cache_entries: shard.cache_entries.load(Ordering::Acquire),
                    cache_bytes: load(&shard.cache_bytes),
                })
                .collect(),
            events_submitted: load(&self.events_submitted),
            events_coalesced: load(&self.events_coalesced),
            batches: load(&self.batches),
            solves_incremental: load(&self.solves_incremental),
            solves_full: load(&self.solves_full),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            batch_shared: load(&self.batch_shared),
            session_reuse: load(&self.session_reuse),
            solves_warm: load(&self.solves_warm),
            solves_cold: load(&self.solves_cold),
            warm_components_reused: load(&self.warm_components_reused),
            warm_components_solved: load(&self.warm_components_solved),
            lp_time: Duration::from_nanos(load(&self.lp_nanos)),
            warm_solve_time: Duration::from_nanos(load(&self.warm_solve_nanos)),
            cold_solve_time: Duration::from_nanos(load(&self.cold_solve_nanos)),
            round_time: Duration::from_nanos(load(&self.round_nanos)),
            max_solve_time: Duration::from_nanos(load(&self.max_solve_nanos)),
            gap_micros: load(&self.gap_micros),
            gap_samples: load(&self.gap_samples),
            lp_latency: self.lp_latency.snapshot(),
            warm_solve_latency: self.warm_solve_latency.snapshot(),
            cold_solve_latency: self.cold_solve_latency.snapshot(),
            round_latency: self.round_latency.snapshot(),
            queue_wait_latency: self.queue_wait_latency.snapshot(),
            profile: Vec::new(),
            profile_dropped: 0,
            mem_session_bytes: load(&self.mem_session_bytes),
            mem_pending_bytes: load(&self.mem_pending_bytes),
            mem_served_bytes: load(&self.mem_served_bytes),
        }
    }
}

/// Point-in-time view of one shard's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Pipeline jobs dispatched to the shard.
    pub jobs: u64,
    /// Session solves the shard executed.
    pub solves: u64,
    /// Cumulative busy time of the shard's jobs.
    pub busy_time: Duration,
    /// Pending events queued against the shard right now (gauge).
    pub queue_depth: u64,
    /// Factor-cache entries held by the shard right now (gauge).
    pub cache_entries: u64,
    /// Bytes held by the shard's factor caches right now (gauge).
    pub cache_bytes: u64,
}

/// A consistent view of the engine counters with derived metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests handled.
    pub requests: u64,
    /// Sessions opened.
    pub sessions_created: u64,
    /// Sessions closed.
    pub sessions_closed: u64,
    /// Sessions live-migrated out.
    pub sessions_exported: u64,
    /// Sessions live-migrated in.
    pub sessions_imported: u64,
    /// Per-shard busy/queue counters (one entry per shard).
    pub shards: Vec<ShardSnapshot>,
    /// Events accepted.
    pub events_submitted: u64,
    /// Events coalesced away before solving.
    pub events_coalesced: u64,
    /// Dispatch batches run.
    pub batches: u64,
    /// Incremental solves.
    pub solves_incremental: u64,
    /// Full LP solves.
    pub solves_full: u64,
    /// Factor-cache hits.
    pub cache_hits: u64,
    /// Factor-cache misses.
    pub cache_misses: u64,
    /// LP solves deduplicated within a single batch.
    pub batch_shared: u64,
    /// Factor lookups satisfied by the session's own last solution.
    pub session_reuse: u64,
    /// Re-solves whose factors came from an exact reuse layer.
    pub solves_warm: u64,
    /// Re-solves that computed factors from scratch.
    pub solves_cold: u64,
    /// Component solutions reused verbatim from the warm cache.
    pub warm_components_reused: u64,
    /// Component solutions solved from scratch.
    pub warm_components_solved: u64,
    /// Cumulative LP time.
    pub lp_time: Duration,
    /// Cumulative latency of warm re-solves (reuse + rounding).
    pub warm_solve_time: Duration,
    /// Cumulative latency of cold re-solves (LP + rounding).
    pub cold_solve_time: Duration,
    /// Cumulative rounding time.
    pub round_time: Duration,
    /// Slowest single job (LP relaxation or rounding pass).
    pub max_solve_time: Duration,
    /// Sum of tight-bound gaps in micro-units.
    pub gap_micros: u64,
    /// Tight-bound gap samples.
    pub gap_samples: u64,
    /// Per-LP-computation latency distribution.
    pub lp_latency: HistogramSnapshot,
    /// Per-warm-re-solve latency distribution.
    pub warm_solve_latency: HistogramSnapshot,
    /// Per-cold-re-solve latency distribution.
    pub cold_solve_latency: HistogramSnapshot,
    /// Per-rounding-job latency distribution.
    pub round_latency: HistogramSnapshot,
    /// Queue-wait distribution (oldest pending event's submit→dispatch wait,
    /// one sample per dispatched shard job with pending events).
    pub queue_wait_latency: HistogramSnapshot,
    /// Per-template solve ledger entries, ascending by template fingerprint
    /// (populated by `Engine::stats`; empty for a bare `EngineStats`
    /// snapshot). Counts are deterministic under a fixed seed; nanos are
    /// wall-clock and never digest-covered.
    pub profile: Vec<crate::profile::ProfileEntry>,
    /// Template solves the ledger dropped because its fixed capacity was
    /// exhausted (attributed to no entry; `0` means full coverage).
    pub profile_dropped: u64,
    /// Bytes held by live session state (instances + warm factors) right
    /// now (gauge; capacity accounting per `svgic_obs::mem`).
    pub mem_session_bytes: u64,
    /// Bytes held by pending event queues right now (gauge).
    pub mem_pending_bytes: u64,
    /// Bytes held by served solutions right now (gauge).
    pub mem_served_bytes: u64,
}

impl StatsSnapshot {
    /// Total solves of either kind.
    pub fn solves(&self) -> u64 {
        self.solves_incremental + self.solves_full
    }

    /// Pending events queued engine-wide right now (sum of the per-shard
    /// queue-depth gauges).
    pub fn total_queue_depth(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Folds another snapshot into this one: counters and durations add,
    /// high-water marks take the max, and the per-shard vectors add
    /// element-wise (padded with zeros when lengths differ). This is how a
    /// cluster aggregates per-node engine snapshots into one fleet view;
    /// derived rates stay consistent because they are recomputed from the
    /// merged raw counters.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.requests += other.requests;
        self.sessions_created += other.sessions_created;
        self.sessions_closed += other.sessions_closed;
        self.sessions_exported += other.sessions_exported;
        self.sessions_imported += other.sessions_imported;
        if self.shards.len() < other.shards.len() {
            self.shards
                .resize(other.shards.len(), ShardSnapshot::default());
        }
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.jobs += theirs.jobs;
            mine.solves += theirs.solves;
            mine.busy_time += theirs.busy_time;
            mine.queue_depth += theirs.queue_depth;
            mine.cache_entries += theirs.cache_entries;
            mine.cache_bytes += theirs.cache_bytes;
        }
        self.events_submitted += other.events_submitted;
        self.events_coalesced += other.events_coalesced;
        self.batches += other.batches;
        self.solves_incremental += other.solves_incremental;
        self.solves_full += other.solves_full;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.batch_shared += other.batch_shared;
        self.session_reuse += other.session_reuse;
        self.solves_warm += other.solves_warm;
        self.solves_cold += other.solves_cold;
        self.warm_components_reused += other.warm_components_reused;
        self.warm_components_solved += other.warm_components_solved;
        self.lp_time += other.lp_time;
        self.warm_solve_time += other.warm_solve_time;
        self.cold_solve_time += other.cold_solve_time;
        self.round_time += other.round_time;
        self.max_solve_time = self.max_solve_time.max(other.max_solve_time);
        self.gap_micros += other.gap_micros;
        self.gap_samples += other.gap_samples;
        self.lp_latency.merge(&other.lp_latency);
        self.warm_solve_latency.merge(&other.warm_solve_latency);
        self.cold_solve_latency.merge(&other.cold_solve_latency);
        self.round_latency.merge(&other.round_latency);
        self.queue_wait_latency.merge(&other.queue_wait_latency);
        crate::profile::merge_entries(&mut self.profile, &other.profile);
        self.profile_dropped += other.profile_dropped;
        self.mem_session_bytes += other.mem_session_bytes;
        self.mem_pending_bytes += other.mem_pending_bytes;
        self.mem_served_bytes += other.mem_served_bytes;
    }

    /// Factor-cache hit rate in `[0, 1]` (`0` when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Mean solve latency (LP + rounding amortized over solves).
    pub fn mean_solve_time(&self) -> Duration {
        let solves = self.solves();
        if solves == 0 {
            Duration::ZERO
        } else {
            (self.lp_time + self.round_time) / solves as u32
        }
    }

    /// Mean `(bound - utility) / bound` over tight-bound solves.
    pub fn mean_gap(&self) -> f64 {
        if self.gap_samples == 0 {
            0.0
        } else {
            self.gap_micros as f64 / 1e6 / self.gap_samples as f64
        }
    }

    /// Fraction of submitted events folded away by the coalescer, in
    /// `[0, 1]` (`0` when nothing was submitted).
    pub fn coalesce_rate(&self) -> f64 {
        if self.events_submitted == 0 {
            0.0
        } else {
            self.events_coalesced as f64 / self.events_submitted as f64
        }
    }

    /// Fraction of solves served by the cheap incremental re-rounding path.
    pub fn incremental_fraction(&self) -> f64 {
        let solves = self.solves();
        if solves == 0 {
            0.0
        } else {
            self.solves_incremental as f64 / solves as f64
        }
    }

    /// Mean latency of one LP relaxation job (LP jobs run once per cache
    /// miss; hits and batch-shared solves skip the LP entirely). Derived
    /// from the per-phase histogram, so `p50/p95/p99` companions in
    /// [`StatsSnapshot::metrics`] describe the same sample set; zero (never
    /// NaN) when no LP ran.
    pub fn mean_lp_time(&self) -> Duration {
        mean_of(&self.lp_latency)
    }

    /// Fraction of re-solves served warm — factors reused from the session,
    /// a fingerprint cache, or within-batch sharing rather than recomputed —
    /// in `[0, 1]` (`0` when nothing was solved).
    pub fn warm_start_rate(&self) -> f64 {
        let solves = self.solves_warm + self.solves_cold;
        if solves == 0 {
            0.0
        } else {
            self.solves_warm as f64 / solves as f64
        }
    }

    /// Fraction of social-graph components reused verbatim instead of
    /// re-solved, in `[0, 1]` (`0` when no LP ran).
    pub fn component_reuse_rate(&self) -> f64 {
        let components = self.warm_components_reused + self.warm_components_solved;
        if components == 0 {
            0.0
        } else {
            self.warm_components_reused as f64 / components as f64
        }
    }

    /// Mean end-to-end latency of one warm re-solve (zero when none ran),
    /// from the warm-class phase histogram.
    pub fn mean_warm_solve_time(&self) -> Duration {
        mean_of(&self.warm_solve_latency)
    }

    /// Mean end-to-end latency of one cold re-solve (zero when none ran),
    /// from the cold-class phase histogram.
    pub fn mean_cold_solve_time(&self) -> Duration {
        mean_of(&self.cold_solve_latency)
    }

    /// Mean latency of one rounding job (every solve rounds exactly once),
    /// from the rounding phase histogram.
    pub fn mean_round_time(&self) -> Duration {
        mean_of(&self.round_latency)
    }

    /// Shard busy-time imbalance: the busiest shard's busy-nanos over the
    /// mean across shards. `1.0` is a perfectly even spread, `shards` is
    /// everything on one shard, `0.0` when no shard did any work — so the
    /// sharded-dispatch skew is visible per run without eyeballing the
    /// `shard<i>_busy_seconds` series.
    pub fn shard_imbalance(&self) -> f64 {
        let busy: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.busy_time.as_nanos().min(u64::MAX as u128) as u64)
            .collect();
        busy_imbalance(&busy)
    }

    /// Factor-cache entries held engine-wide right now (sum of the
    /// per-shard cache-size gauges).
    pub fn total_cache_entries(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_entries).sum()
    }

    /// Bytes held by factor caches engine-wide right now (sum of the
    /// per-shard cache-byte gauges).
    pub fn mem_cache_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_bytes).sum()
    }

    /// Total accounted bytes: session state + pending queues + served
    /// solutions + factor caches. Capacity accounting (`Arc`-shared
    /// payloads attributed to every holder), not RSS — see
    /// `svgic_obs::mem`.
    pub fn mem_total_bytes(&self) -> u64 {
        self.mem_session_bytes
            + self.mem_pending_bytes
            + self.mem_served_bytes
            + self.mem_cache_bytes()
    }

    /// Error-budget burn per request class, against [`DEFAULT_SLO`]: the
    /// observed fraction of samples over the class objective divided by the
    /// allowed fraction. All zero (never NaN) with no traffic.
    pub fn slo_burns(&self) -> [(&'static str, f64); 4] {
        let histogram = |class: &str| match class {
            "lp" => &self.lp_latency,
            "warm_solve" => &self.warm_solve_latency,
            "cold_solve" => &self.cold_solve_latency,
            _ => &self.round_latency,
        };
        DEFAULT_SLO.map(|(class, objective)| (class, objective.burn(histogram(class))))
    }

    /// The worst per-class burn (what [`StatsSnapshot::health`] thresholds
    /// on).
    pub fn max_slo_burn(&self) -> f64 {
        self.slo_burns()
            .iter()
            .map(|&(_, burn)| burn)
            .fold(0.0, f64::max)
    }

    /// Node health under the default [`HealthPolicy`] (no memory budget):
    /// `ok` under budget, `degraded` past it, `overloaded` far past it.
    pub fn health(&self) -> Health {
        self.health_with(&HealthPolicy::default())
    }

    /// Node health under an explicit policy (a memory budget makes the
    /// `mem_*` gauges participate).
    pub fn health_with(&self, policy: &HealthPolicy) -> Health {
        policy.assess(self.max_slo_burn(), self.mem_total_bytes())
    }

    /// The whole snapshot — raw counters *and* every derived rate — as an
    /// ordered `(name, value)` list, so reports (the `loadgen` JSON, the
    /// bench trajectory, the `QueryMetrics` wire response) can serialize it
    /// without re-deriving metrics ad hoc. Assembled through the
    /// [`MetricsRegistry`], the single source of truth for naming and
    /// NaN-guarding. Times are in seconds; rates/fractions are in `[0, 1]`;
    /// the per-phase latency distributions appear as
    /// `mean/p50/p95/p99_<phase>_seconds` quadruples. Per-shard
    /// busy/queue/cache counters are appended as `shard<i>_*` entries.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut registry = MetricsRegistry::new();
        registry.counter("requests", self.requests);
        registry.counter("sessions_created", self.sessions_created);
        registry.counter("sessions_closed", self.sessions_closed);
        registry.counter("sessions_exported", self.sessions_exported);
        registry.counter("sessions_imported", self.sessions_imported);
        registry.counter("events_submitted", self.events_submitted);
        registry.counter("events_coalesced", self.events_coalesced);
        registry.counter("batches", self.batches);
        registry.counter("solves_incremental", self.solves_incremental);
        registry.counter("solves_full", self.solves_full);
        registry.counter("cache_hits", self.cache_hits);
        registry.counter("cache_misses", self.cache_misses);
        registry.counter("batch_shared", self.batch_shared);
        registry.counter("session_reuse", self.session_reuse);
        registry.counter("solves_warm", self.solves_warm);
        registry.counter("solves_cold", self.solves_cold);
        registry.counter("warm_components_reused", self.warm_components_reused);
        registry.counter("warm_components_solved", self.warm_components_solved);
        registry.counter("gap_samples", self.gap_samples);
        registry.gauge("cache_hit_rate", self.cache_hit_rate());
        registry.gauge("coalesce_rate", self.coalesce_rate());
        registry.gauge("incremental_fraction", self.incremental_fraction());
        registry.gauge("warm_start_rate", self.warm_start_rate());
        registry.gauge("component_reuse_rate", self.component_reuse_rate());
        registry.gauge("mean_gap", self.mean_gap());
        registry.gauge("lp_seconds", self.lp_time.as_secs_f64());
        registry.gauge("warm_solve_seconds", self.warm_solve_time.as_secs_f64());
        registry.gauge("cold_solve_seconds", self.cold_solve_time.as_secs_f64());
        registry.gauge("round_seconds", self.round_time.as_secs_f64());
        registry.latency("lp", &self.lp_latency);
        registry.latency("warm_solve", &self.warm_solve_latency);
        registry.latency("cold_solve", &self.cold_solve_latency);
        registry.latency("round", &self.round_latency);
        registry.latency("queue_wait", &self.queue_wait_latency);
        registry.gauge("mean_solve_seconds", self.mean_solve_time().as_secs_f64());
        registry.gauge("max_solve_seconds", self.max_solve_time.as_secs_f64());
        registry.counter("shards", self.shards.len() as u64);
        registry.counter("queue_depth", self.total_queue_depth());
        registry.counter("cache_entries", self.total_cache_entries());
        registry.gauge("shard_imbalance", self.shard_imbalance());
        registry.counter("mem_session_bytes", self.mem_session_bytes);
        registry.counter("mem_pending_bytes", self.mem_pending_bytes);
        registry.counter("mem_served_bytes", self.mem_served_bytes);
        registry.counter("mem_cache_bytes", self.mem_cache_bytes());
        registry.counter("mem_total_bytes", self.mem_total_bytes());
        for (class, burn) in self.slo_burns() {
            registry.gauge(format!("slo_{class}_burn"), burn);
        }
        registry.gauge("health", self.health().level() as f64);
        for (index, shard) in self.shards.iter().enumerate() {
            registry.counter(format!("shard{index}_jobs"), shard.jobs);
            registry.counter(format!("shard{index}_solves"), shard.solves);
            registry.gauge(
                format!("shard{index}_busy_seconds"),
                shard.busy_time.as_secs_f64(),
            );
            registry.counter(format!("shard{index}_queue_depth"), shard.queue_depth);
            registry.counter(format!("shard{index}_cache_entries"), shard.cache_entries);
            registry.counter(format!("shard{index}_cache_bytes"), shard.cache_bytes);
        }
        registry.finish()
    }
}

/// Exact histogram mean as a [`Duration`] (zero when empty).
fn mean_of(histogram: &HistogramSnapshot) -> Duration {
    if histogram.is_empty() {
        Duration::ZERO
    } else {
        Duration::from_nanos(histogram.sum_nanos() / histogram.count())
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "engine stats")?;
        writeln!(
            f,
            "  requests {:>8}   sessions {:>5} opened / {:>5} closed ({} exported, {} imported)",
            self.requests,
            self.sessions_created,
            self.sessions_closed,
            self.sessions_exported,
            self.sessions_imported
        )?;
        writeln!(
            f,
            "  events   {:>8} submitted, {} coalesced away ({:.1}%)",
            self.events_submitted,
            self.events_coalesced,
            if self.events_submitted == 0 {
                0.0
            } else {
                100.0 * self.events_coalesced as f64 / self.events_submitted as f64
            }
        )?;
        writeln!(
            f,
            "  solves   {:>8} ({} incremental, {} full LP) over {} batches",
            self.solves(),
            self.solves_incremental,
            self.solves_full,
            self.batches
        )?;
        writeln!(
            f,
            "  factors  {:>8} cache hits / {} misses (hit rate {:.1}%), {} batch-shared",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.batch_shared
        )?;
        writeln!(
            f,
            "  warm     {:>8} warm / {} cold re-solves (warm-start rate {:.1}%), {} of {} components reused, {} session-affine reuses",
            self.solves_warm,
            self.solves_cold,
            100.0 * self.warm_start_rate(),
            self.warm_components_reused,
            self.warm_components_reused + self.warm_components_solved,
            self.session_reuse
        )?;
        writeln!(
            f,
            "  latency  mean {:?} per solve (LP {:?}, rounding {:?}), slowest job {:?}; mean re-solve warm {:?} vs cold {:?}",
            self.mean_solve_time(),
            self.lp_time,
            self.round_time,
            self.max_solve_time,
            self.mean_warm_solve_time(),
            self.mean_cold_solve_time()
        )?;
        writeln!(
            f,
            "  phases   p99 lp {:.1}µs / round {:.1}µs; shard imbalance {:.2} over {} shards ({} cached factors)",
            1e6 * self.lp_latency.quantile_seconds(0.99),
            1e6 * self.round_latency.quantile_seconds(0.99),
            self.shard_imbalance(),
            self.shards.len(),
            self.total_cache_entries()
        )?;
        writeln!(
            f,
            "  memory   {} bytes accounted (sessions {}, pending {}, served {}, caches {}); health {} (max burn {:.2})",
            self.mem_total_bytes(),
            self.mem_session_bytes,
            self.mem_pending_bytes,
            self.mem_served_bytes,
            self.mem_cache_bytes(),
            self.health().name(),
            self.max_slo_burn()
        )?;
        write!(
            f,
            "  quality  mean utility-vs-LP-bound gap {:.3}% over {} tight solves",
            100.0 * self.mean_gap(),
            self.gap_samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_gap() {
        let stats = EngineStats::default();
        stats.cache_hits.store(3, Ordering::Relaxed);
        stats.cache_misses.store(1, Ordering::Relaxed);
        stats.record_gap(0.8, 1.0);
        stats.record_gap(1.0, 1.0);
        let snap = stats.snapshot();
        assert!((snap.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((snap.mean_gap() - 0.1).abs() < 1e-3);
    }

    #[test]
    fn derived_rates_and_metrics_agree() {
        let stats = EngineStats::default();
        stats.events_submitted.store(10, Ordering::Relaxed);
        stats.events_coalesced.store(4, Ordering::Relaxed);
        stats.solves_incremental.store(3, Ordering::Relaxed);
        stats.solves_full.store(1, Ordering::Relaxed);
        stats.cache_misses.store(2, Ordering::Relaxed);
        stats.record_lp_compute(1_000, 0, 1);
        stats.record_lp_compute(3_000, 0, 1);
        stats.record_round(8_000);
        let snap = stats.snapshot();
        assert!((snap.coalesce_rate() - 0.4).abs() < 1e-12);
        assert!((snap.incremental_fraction() - 0.75).abs() < 1e-12);
        // Mean phase times come from the per-phase histograms, which sample
        // the same events (one LP record per cache miss, one rounding record
        // per solve).
        assert_eq!(snap.mean_lp_time(), Duration::from_nanos(2_000));
        assert_eq!(snap.mean_round_time(), Duration::from_nanos(8_000));
        assert_eq!(snap.lp_latency.count(), snap.cache_misses);
        let metrics = snap.metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .1
        };
        assert_eq!(get("events_submitted"), 10.0);
        assert!((get("coalesce_rate") - 0.4).abs() < 1e-12);
        assert!((get("cache_hit_rate") - snap.cache_hit_rate()).abs() < 1e-12);
        assert!((get("mean_lp_seconds") - 2e-6).abs() < 1e-12);
        // Names are unique (the JSON report uses them as object keys).
        let names: std::collections::HashSet<_> = metrics.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), metrics.len());
    }

    #[test]
    fn phase_histograms_give_quantile_companions() {
        let stats = EngineStats::default();
        for i in 1..=100u64 {
            stats.record_lp_compute(i * 10_000, 0, 1);
            stats.record_solve_class(i * 20_000, false);
            stats.record_solve_class(i * 1_000, true);
            stats.record_round(i * 500);
            stats.record_queue_wait(i * 2_500);
        }
        let snap = stats.snapshot();
        let metrics = snap.metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .1
        };
        for base in ["lp", "warm_solve", "cold_solve", "round", "queue_wait"] {
            let (mean, p50, p95, p99) = (
                get(&format!("mean_{base}_seconds")),
                get(&format!("p50_{base}_seconds")),
                get(&format!("p95_{base}_seconds")),
                get(&format!("p99_{base}_seconds")),
            );
            assert!(mean > 0.0, "{base} mean");
            assert!(p50 <= p95 && p95 <= p99, "{base} quantiles must order");
            assert!(p99 > 0.0, "{base} p99");
        }
        // The quantiles describe the same samples the means do: a uniform
        // 10..1000µs LP grid has p50 ≈ 500µs within the histogram's 1/32
        // relative error band.
        let p50 = get("p50_lp_seconds");
        assert!((p50 - 500e-6).abs() / 500e-6 < 0.05, "p50_lp {p50}");
        // The mean metrics agree with the Duration-typed accessors.
        assert!(
            (get("mean_cold_solve_seconds") - snap.mean_cold_solve_time().as_secs_f64()).abs()
                < 1e-9
        );
    }

    #[test]
    fn shard_imbalance_reads_busy_skew() {
        let stats = EngineStats::with_shards(4);
        // No work yet: imbalance is the documented 0, not NaN.
        assert_eq!(stats.snapshot().shard_imbalance(), 0.0);
        stats.record_shard_busy(0, 3_000);
        stats.record_shard_busy(1, 1_000);
        // Shards 2 and 3 idle: mean = 1000, max = 3000.
        let snap = stats.snapshot();
        assert!((snap.shard_imbalance() - 3.0).abs() < 1e-9);
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("shard_imbalance") - 3.0).abs() < 1e-9);
        // A perfectly even spread reads 1.0.
        let even = EngineStats::with_shards(2);
        even.record_shard_busy(0, 5_000);
        even.record_shard_busy(1, 5_000);
        assert!((even.snapshot().shard_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cache_entry_gauges_survive_reset_like_queue_depth() {
        let stats = EngineStats::with_shards(2);
        stats.set_shard_cache_gauges(0, 5, 0);
        stats.set_shard_cache_gauges(1, 2, 0);
        stats.set_shard_cache_gauges(9, 7, 0); // out of range: ignored
        assert_eq!(stats.snapshot().total_cache_entries(), 7);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(
            snap.total_cache_entries(),
            7,
            "reset must not pretend live caches emptied"
        );
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("cache_entries"), 7.0);
        assert_eq!(get("shard0_cache_entries"), 5.0);
        assert_eq!(get("shard1_cache_entries"), 2.0);
    }

    #[test]
    fn warm_cold_accounting_and_rates() {
        let stats = EngineStats::default();
        stats.record_lp_compute(6_000, 2, 1); // 2 components reused, 1 solved
        stats.record_lp_compute(10_000, 0, 3); // 3 components solved
        stats.record_solve_class(4_000, true); // warm re-solve
        stats.record_solve_class(20_000, false); // cold re-solve
        let snap = stats.snapshot();
        assert_eq!(snap.solves_warm, 1);
        assert_eq!(snap.solves_cold, 1);
        assert_eq!(snap.warm_components_reused, 2);
        assert_eq!(snap.warm_components_solved, 4);
        assert!((snap.warm_start_rate() - 0.5).abs() < 1e-12);
        assert!((snap.component_reuse_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(snap.mean_warm_solve_time(), Duration::from_nanos(4_000));
        assert_eq!(snap.mean_cold_solve_time(), Duration::from_nanos(20_000));
        // LP computation durations feed the aggregate LP accounting.
        assert_eq!(snap.lp_time, Duration::from_nanos(16_000));
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("warm_start_rate") - 0.5).abs() < 1e-12);
        assert!((get("mean_warm_solve_seconds") - 4e-6).abs() < 1e-12);
    }

    #[test]
    fn rates_are_zero_not_nan_when_denominators_are_zero() {
        // After a reset every denominator is zero; every derived rate must be
        // a well-defined 0, never NaN (the loadgen JSON would render `null`).
        let stats = EngineStats::default();
        stats.events_submitted.store(10, Ordering::Relaxed);
        stats.solves_incremental.store(3, Ordering::Relaxed);
        stats.record_lp_compute(5_000, 1, 0);
        stats.record_solve_class(5_000, true);
        stats.reset();
        let snap = stats.snapshot();
        for (name, value) in snap.metrics() {
            assert!(value.is_finite(), "{name} is not finite after reset");
            assert_eq!(value, 0.0, "{name} should be zero after reset");
        }
        assert_eq!(snap.coalesce_rate(), 0.0);
        assert_eq!(snap.incremental_fraction(), 0.0);
        assert_eq!(snap.cache_hit_rate(), 0.0);
        assert_eq!(snap.warm_start_rate(), 0.0);
        assert_eq!(snap.component_reuse_rate(), 0.0);
        assert_eq!(snap.mean_gap(), 0.0);
        assert_eq!(snap.mean_lp_time(), Duration::ZERO);
        assert_eq!(snap.mean_warm_solve_time(), Duration::ZERO);
        assert_eq!(snap.mean_cold_solve_time(), Duration::ZERO);
    }

    #[test]
    fn mem_gauges_survive_reset_and_feed_metrics_and_merge() {
        let stats = EngineStats::with_shards(2);
        stats.set_mem_gauges(1000, 50, 200);
        stats.set_shard_cache_gauges(0, 1, 300);
        stats.set_shard_cache_gauges(1, 1, 100);
        stats.set_shard_cache_gauges(9, 1, 7); // out of range: ignored
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.mem_session_bytes, 1000, "live gauges survive reset");
        assert_eq!(snap.mem_cache_bytes(), 400);
        assert_eq!(snap.mem_total_bytes(), 1000 + 50 + 200 + 400);
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("mem_session_bytes"), 1000.0);
        assert_eq!(get("mem_pending_bytes"), 50.0);
        assert_eq!(get("mem_served_bytes"), 200.0);
        assert_eq!(get("mem_cache_bytes"), 400.0);
        assert_eq!(get("mem_total_bytes"), 1650.0);
        assert_eq!(get("shard0_cache_bytes"), 300.0);
        // Fleet aggregation: byte gauges add across nodes.
        let mut merged = snap.clone();
        merged.merge(&snap);
        assert_eq!(merged.mem_total_bytes(), 2 * 1650);
    }

    #[test]
    fn slo_burn_thresholds_drive_health() {
        let stats = EngineStats::default();
        let snap = stats.snapshot();
        assert_eq!(snap.max_slo_burn(), 0.0, "no traffic burns nothing");
        assert_eq!(snap.health(), Health::Ok);
        // 100 fast rounds and 20 slow ones: 1/6 over the 20ms round
        // objective against a 5% budget is a burn of ~3.3 → degraded.
        for _ in 0..100 {
            stats.record_round(1_000_000);
        }
        for _ in 0..20 {
            stats.record_round(100_000_000);
        }
        let snap = stats.snapshot();
        let burns = snap.slo_burns();
        let round_burn = burns
            .iter()
            .find(|(class, _)| *class == "round")
            .expect("round class")
            .1;
        assert!(
            (round_burn - (20.0 / 120.0) / 0.05).abs() < 0.2,
            "round burn {round_burn}"
        );
        assert_eq!(snap.health(), Health::Degraded);
        // Make every round slow: burn 20 → overloaded.
        for _ in 0..2000 {
            stats.record_round(100_000_000);
        }
        assert_eq!(stats.snapshot().health(), Health::Overloaded);
        // A memory budget folds in through the explicit policy.
        let policy = HealthPolicy {
            mem_budget_bytes: 100,
            ..HealthPolicy::default()
        };
        let idle = EngineStats::default();
        idle.set_mem_gauges(150, 0, 0);
        assert_eq!(idle.snapshot().health_with(&policy), Health::Overloaded);
        assert_eq!(idle.snapshot().health(), Health::Ok, "default: no budget");
    }

    #[test]
    fn imbalance_and_phase_gauges_pin_to_zero_after_reset() {
        // Regression: immediately after `reset_stats` with no traffic the
        // skew/latency gauges must read a hard 0 — a NaN here renders as
        // `null` in reports and breaks the bench trajectory diff.
        let stats = EngineStats::with_shards(4);
        for shard in 0..4 {
            stats.record_shard_busy(shard, 1_000 * (shard as u64 + 1));
        }
        for i in 1..=50 {
            stats.record_lp_compute(i * 1_000, 0, 1);
            stats.record_round(i * 500);
            stats.record_solve_class(i * 2_000, i % 2 == 0);
            stats.record_queue_wait(i * 3_000);
        }
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.shard_imbalance(), 0.0);
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("shard_imbalance"), 0.0);
        for base in ["lp", "warm_solve", "cold_solve", "round", "queue_wait"] {
            for prefix in ["mean", "p50", "p95", "p99"] {
                let name = format!("{prefix}_{base}_seconds");
                let value = get(&name);
                assert!(value == 0.0 && value.is_finite(), "{name} = {value}");
            }
        }
        for (class, burn) in snap.slo_burns() {
            assert_eq!(burn, 0.0, "slo_{class}_burn after reset");
        }
        assert_eq!(get("health"), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = EngineStats::default();
        stats.requests.store(5, Ordering::Relaxed);
        stats.record_solve_nanos(1_000, 0);
        stats.record_gap(0.5, 1.0);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.lp_time, Duration::ZERO);
        assert_eq!(snap.gap_samples, 0);
    }

    #[test]
    fn display_renders() {
        let stats = EngineStats::default();
        stats.record_solve_nanos(1_000, 2_000);
        let text = stats.snapshot().to_string();
        assert!(text.contains("engine stats"));
        assert!(text.contains("hit rate"));
    }

    #[test]
    fn shard_counters_track_dispatch_and_queue() {
        let stats = EngineStats::with_shards(3);
        assert_eq!(stats.per_shard.len(), 3);
        stats.record_shard_dispatch(0, 2);
        stats.record_shard_dispatch(2, 1);
        stats.record_shard_busy(2, 5_000);
        stats.shard_queue_add(1, 4);
        stats.shard_queue_sub(1, 1);
        // Out-of-range shards are ignored, never panic.
        stats.record_shard_dispatch(9, 1);
        stats.shard_queue_add(9, 1);
        let snap = stats.snapshot();
        assert_eq!(snap.shards.len(), 3, "snapshot pins the shard count");
        assert_eq!(snap.shards[0].jobs, 1);
        assert_eq!(snap.shards[0].solves, 2);
        assert_eq!(snap.shards[2].busy_time, Duration::from_nanos(5_000));
        assert_eq!(snap.shards[1].queue_depth, 3);
        assert_eq!(snap.total_queue_depth(), 3);
        // Per-shard solves sum to exactly the dispatched solves.
        let total: u64 = snap.shards.iter().map(|s| s.solves).sum();
        assert_eq!(total, 3);
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("shards"), 3.0);
        assert_eq!(get("shard1_queue_depth"), 3.0);
        assert_eq!(get("shard0_solves"), 2.0);
        assert_eq!(get("queue_depth"), 3.0);
        // Names stay unique with the per-shard entries appended.
        let names: std::collections::HashSet<_> = metrics.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), metrics.len());
    }

    #[test]
    fn queue_gauge_saturates_and_survives_reset() {
        let stats = EngineStats::with_shards(2);
        stats.shard_queue_add(0, 2);
        stats.shard_queue_sub(0, 5); // saturates at zero, never wraps
        assert_eq!(stats.snapshot().shards[0].queue_depth, 0);
        stats.shard_queue_add(0, 7);
        stats.record_shard_dispatch(0, 3);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(
            snap.shards[0].queue_depth, 7,
            "reset must not consume live pending events"
        );
        assert_eq!(snap.shards[0].jobs, 0, "monotonic counters do reset");
        assert_eq!(snap.shards[0].solves, 0);
    }

    #[test]
    fn merge_adds_counters_and_pads_shards() {
        let a_stats = EngineStats::with_shards(2);
        a_stats.requests.store(3, Ordering::Relaxed);
        a_stats.solves_full.store(2, Ordering::Relaxed);
        a_stats.record_shard_dispatch(1, 5);
        a_stats.record_solve_nanos(1_000, 500);
        let b_stats = EngineStats::with_shards(4);
        b_stats.requests.store(4, Ordering::Relaxed);
        b_stats.solves_incremental.store(6, Ordering::Relaxed);
        b_stats.record_shard_dispatch(3, 1);
        b_stats.record_solve_nanos(9_000, 0);
        let mut merged = a_stats.snapshot();
        merged.merge(&b_stats.snapshot());
        assert_eq!(merged.requests, 7);
        assert_eq!(merged.solves(), 8);
        assert_eq!(merged.shards.len(), 4, "shard vectors pad to the longer");
        assert_eq!(merged.shards[1].solves, 5);
        assert_eq!(merged.shards[3].jobs, 1);
        assert_eq!(merged.lp_time, Duration::from_nanos(10_000));
        assert_eq!(merged.max_solve_time, Duration::from_nanos(9_000));
        // Derived rates recompute from merged raw counters.
        assert!((merged.incremental_fraction() - 0.75).abs() < 1e-12);
    }
}
