//! Engine-wide counters and latency accounting.
//!
//! The engine keeps its counters as one plain [`StatsSnapshot`], changed
//! only through `&mut Engine` on the thread that calls into it. Shard jobs
//! return what they measured, and the batch records it on that thread: a
//! job's report writes its own shard's slots, and solve outcomes apply in
//! session order. Every counter is a sum, a maximum or a histogram, so its
//! value does not depend on the order records arrive in. Reading the stats
//! is a copy.
//!
//! Configurations and cache accounting are deterministic under a fixed
//! seed; wall-clock latencies naturally are not and are reported for
//! observability only.

use std::time::Duration;

use svgic_obs::telemetry::rate_to_ppm;
use svgic_obs::{
    Health, HealthPolicy, HistogramSnapshot, MetricsRegistry, SloObjective, TelemetrySample,
};

use crate::mem::SessionFootprint;

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

/// The engine counters with derived metrics: the engine records into one,
/// and every reader gets a copy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// (filled in by `Engine::stats`; empty in the engine's own record).
    /// Counts are deterministic under a fixed seed; nanos are wall-clock and
    /// never digest-covered.
    pub profile: Vec<crate::profile::ProfileEntry>,
    /// Template solves the ledger dropped because its fixed capacity was
    /// exhausted (attributed to no entry; `0` means full coverage).
    pub profile_dropped: u64,
    /// Bytes held by live session state (instances + warm factors) right
    /// now (gauge; capacity accounting per `svgic_obs::mem`). `Engine::stats`
    /// fills the three `mem_*` gauges in from the live session store.
    pub mem_session_bytes: u64,
    /// Bytes held by pending event queues right now (gauge).
    pub mem_pending_bytes: u64,
    /// Bytes held by served solutions right now (gauge).
    pub mem_served_bytes: u64,
}

impl StatsSnapshot {
    /// Zeroed counters for an engine with `shards` session shards.
    pub fn with_shards(shards: usize) -> Self {
        StatsSnapshot {
            shards: vec![ShardSnapshot::default(); shards],
            ..StatsSnapshot::default()
        }
    }

    /// Records one job's duration (exactly one of `lp`/`rounding` is
    /// non-zero per call), updating totals and the slowest-job high-water
    /// mark.
    fn record_solve_nanos(&mut self, lp: u64, rounding: u64) {
        self.lp_time += Duration::from_nanos(lp);
        self.round_time += Duration::from_nanos(rounding);
        self.max_solve_time = self
            .max_solve_time
            .max(Duration::from_nanos(lp.max(rounding)));
    }

    /// Records one LP factor computation: its duration and how many
    /// social-graph components it warm-reused vs. solved.
    pub(crate) fn record_lp_compute(
        &mut self,
        nanos: u64,
        reused_components: u64,
        solved_components: u64,
    ) {
        self.record_solve_nanos(nanos, 0);
        self.lp_latency.record_nanos(nanos);
        self.warm_components_reused += reused_components;
        self.warm_components_solved += solved_components;
    }

    /// Records one rounding job: aggregate time plus the per-job latency
    /// distribution (every solve rounds exactly once).
    pub(crate) fn record_round(&mut self, nanos: u64) {
        self.record_solve_nanos(0, nanos);
        self.round_latency.record_nanos(nanos);
    }

    /// Records one whole re-solve (factor resolution through rounding) as
    /// warm (factors reused) or cold (factors computed).
    pub(crate) fn record_solve_class(&mut self, nanos: u64, warm: bool) {
        if warm {
            self.solves_warm += 1;
            self.warm_solve_time += Duration::from_nanos(nanos);
            self.warm_solve_latency.record_nanos(nanos);
        } else {
            self.solves_cold += 1;
            self.cold_solve_time += Duration::from_nanos(nanos);
            self.cold_solve_latency.record_nanos(nanos);
        }
    }

    /// Records a utility-vs-bound gap sample (tight bounds only).
    pub(crate) fn record_gap(&mut self, utility: f64, bound: f64) {
        if bound > 0.0 && utility.is_finite() {
            let gap = ((bound - utility) / bound).clamp(0.0, 1.0);
            self.gap_micros += (gap * 1e6) as u64;
            self.gap_samples += 1;
        }
    }

    /// Lowers `shard`'s queue-depth gauge by `events`, saturating at zero
    /// (out-of-range shards are ignored).
    pub(crate) fn shard_queue_sub(&mut self, shard: usize, events: usize) {
        if let Some(shard) = self.shards.get_mut(shard) {
            shard.queue_depth = shard.queue_depth.saturating_sub(events as u64);
        }
    }

    /// Resets every counter to zero, so a measured run can exclude warmup
    /// traffic without rebuilding the engine and losing its caches. The
    /// per-shard **queue-depth and cache-size gauges are kept**: they track
    /// live pending events and live cache contents, which a measurement
    /// boundary does not consume. (The session-side `mem_*` gauges need no
    /// keeping: `Engine::stats` recomputes them from the live store.)
    pub(crate) fn reset(&mut self) {
        let shards = self
            .shards
            .iter()
            .map(|shard| ShardSnapshot {
                queue_depth: shard.queue_depth,
                cache_entries: shard.cache_entries,
                cache_bytes: shard.cache_bytes,
                ..ShardSnapshot::default()
            })
            .collect();
        *self = StatsSnapshot {
            shards,
            ..StatsSnapshot::default()
        };
    }

    /// The [`TelemetrySample`] at `tick`, with `sessions` as the session-side
    /// memory gauges. It reads only the numbers a sample stores, where a
    /// copy of the snapshot would clone every histogram too; each field
    /// equals what the accessors of [`Engine::stats`](crate::Engine::stats)'s
    /// copy derive.
    pub(crate) fn telemetry_sample(
        &self,
        tick: u64,
        sessions: SessionFootprint,
    ) -> TelemetrySample {
        let cache = self.mem_cache_bytes();
        TelemetrySample {
            tick,
            requests: self.requests,
            solves: self.solves(),
            queue_depth: self.total_queue_depth(),
            warm_rate_ppm: rate_to_ppm(self.warm_start_rate()),
            imbalance_ppm: rate_to_ppm(self.shard_imbalance()),
            mem_session_bytes: sessions.session_bytes,
            mem_pending_bytes: sessions.pending_bytes,
            mem_served_bytes: sessions.served_bytes,
            mem_cache_bytes: cache,
            mem_total_bytes: sessions.total() + cache,
        }
    }

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
        let mut stats = StatsSnapshot {
            cache_hits: 3,
            cache_misses: 1,
            ..StatsSnapshot::default()
        };
        stats.record_gap(0.8, 1.0);
        stats.record_gap(1.0, 1.0);
        assert!((stats.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((stats.mean_gap() - 0.1).abs() < 1e-3);
    }

    #[test]
    fn derived_rates_and_metrics_agree() {
        let mut snap = StatsSnapshot {
            events_submitted: 10,
            events_coalesced: 4,
            solves_incremental: 3,
            solves_full: 1,
            cache_misses: 2,
            ..StatsSnapshot::default()
        };
        snap.record_lp_compute(1_000, 0, 1);
        snap.record_lp_compute(3_000, 0, 1);
        snap.record_round(8_000);
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
        let mut snap = StatsSnapshot::default();
        for i in 1..=100u64 {
            snap.record_lp_compute(i * 10_000, 0, 1);
            snap.record_solve_class(i * 20_000, false);
            snap.record_solve_class(i * 1_000, true);
            snap.record_round(i * 500);
            snap.queue_wait_latency.record_nanos(i * 2_500);
        }
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
        let mut snap = StatsSnapshot::with_shards(4);
        // No work yet: imbalance is the documented 0, not NaN.
        assert_eq!(snap.shard_imbalance(), 0.0);
        snap.shards[0].busy_time = Duration::from_nanos(3_000);
        snap.shards[1].busy_time = Duration::from_nanos(1_000);
        // Shards 2 and 3 idle: mean = 1000, max = 3000.
        assert!((snap.shard_imbalance() - 3.0).abs() < 1e-9);
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("shard_imbalance") - 3.0).abs() < 1e-9);
        // A perfectly even spread reads 1.0.
        let mut even = StatsSnapshot::with_shards(2);
        for shard in &mut even.shards {
            shard.busy_time = Duration::from_nanos(5_000);
        }
        assert!((even.shard_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cache_entry_gauges_survive_reset_like_queue_depth() {
        let mut snap = StatsSnapshot::with_shards(2);
        snap.shards[0].cache_entries = 5;
        snap.shards[1].cache_entries = 2;
        snap.shards[0].jobs = 4;
        assert_eq!(snap.total_cache_entries(), 7);
        snap.reset();
        assert_eq!(
            snap.total_cache_entries(),
            7,
            "reset must not pretend live caches emptied"
        );
        assert_eq!(snap.shards[0].jobs, 0);
        let metrics = snap.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("cache_entries"), 7.0);
        assert_eq!(get("shard0_cache_entries"), 5.0);
        assert_eq!(get("shard1_cache_entries"), 2.0);
    }

    #[test]
    fn warm_cold_accounting_and_rates() {
        let mut snap = StatsSnapshot::default();
        snap.record_lp_compute(6_000, 2, 1); // 2 components reused, 1 solved
        snap.record_lp_compute(10_000, 0, 3); // 3 components solved
        snap.record_solve_class(4_000, true); // warm re-solve
        snap.record_solve_class(20_000, false); // cold re-solve
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
        let mut snap = StatsSnapshot {
            events_submitted: 10,
            solves_incremental: 3,
            ..StatsSnapshot::default()
        };
        snap.record_lp_compute(5_000, 1, 0);
        snap.record_solve_class(5_000, true);
        snap.reset();
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
        let mut snap = StatsSnapshot::with_shards(2);
        snap.shards[0].cache_bytes = 300;
        snap.shards[1].cache_bytes = 100;
        snap.reset();
        assert_eq!(snap.mem_cache_bytes(), 400, "live cache bytes survive");
        // The session-side gauges, as `Engine::stats` fills them in from
        // the live store (their survival of `Engine::reset_stats` is tested
        // at engine level).
        snap.mem_session_bytes = 1000;
        snap.mem_pending_bytes = 50;
        snap.mem_served_bytes = 200;
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
        let mut snap = StatsSnapshot::default();
        assert_eq!(snap.max_slo_burn(), 0.0, "no traffic burns nothing");
        assert_eq!(snap.health(), Health::Ok);
        // 100 fast rounds and 20 slow ones: 1/6 over the 20ms round
        // objective against a 5% budget is a burn of ~3.3 → degraded.
        for _ in 0..100 {
            snap.record_round(1_000_000);
        }
        for _ in 0..20 {
            snap.record_round(100_000_000);
        }
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
            snap.record_round(100_000_000);
        }
        assert_eq!(snap.health(), Health::Overloaded);
        // A memory budget folds in through the explicit policy.
        let policy = HealthPolicy {
            mem_budget_bytes: 100,
            ..HealthPolicy::default()
        };
        let idle = StatsSnapshot {
            mem_session_bytes: 150,
            ..StatsSnapshot::default()
        };
        assert_eq!(idle.health_with(&policy), Health::Overloaded);
        assert_eq!(idle.health(), Health::Ok, "default: no budget");
    }

    #[test]
    fn imbalance_and_phase_gauges_pin_to_zero_after_reset() {
        // Regression: immediately after `reset_stats` with no traffic the
        // skew/latency gauges must read a hard 0 — a NaN here renders as
        // `null` in reports and breaks the bench trajectory diff.
        let mut snap = StatsSnapshot::with_shards(4);
        for (index, shard) in snap.shards.iter_mut().enumerate() {
            shard.busy_time = Duration::from_nanos(1_000 * (index as u64 + 1));
        }
        for i in 1..=50 {
            snap.record_lp_compute(i * 1_000, 0, 1);
            snap.record_round(i * 500);
            snap.record_solve_class(i * 2_000, i % 2 == 0);
            snap.queue_wait_latency.record_nanos(i * 3_000);
        }
        snap.reset();
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
        let mut snap = StatsSnapshot {
            requests: 5,
            ..StatsSnapshot::default()
        };
        snap.record_solve_nanos(1_000, 0);
        snap.record_gap(0.5, 1.0);
        snap.reset();
        assert_eq!(snap, StatsSnapshot::default());
    }

    #[test]
    fn display_renders() {
        let mut snap = StatsSnapshot::default();
        snap.record_solve_nanos(1_000, 2_000);
        let text = snap.to_string();
        assert!(text.contains("engine stats"));
        assert!(text.contains("hit rate"));
    }

    #[test]
    fn shard_counters_track_dispatch_and_queue() {
        let mut snap = StatsSnapshot::with_shards(3);
        assert_eq!(snap.shards.len(), 3);
        snap.shards[0].jobs += 1;
        snap.shards[0].solves += 2;
        snap.shards[2].jobs += 1;
        snap.shards[2].solves += 1;
        snap.shards[2].busy_time += Duration::from_nanos(5_000);
        snap.shards[1].queue_depth += 4;
        snap.shard_queue_sub(1, 1);
        // Out-of-range shards are ignored, never panic.
        snap.shard_queue_sub(9, 1);
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
        let mut snap = StatsSnapshot::with_shards(2);
        snap.shards[0].queue_depth += 2;
        snap.shard_queue_sub(0, 5); // saturates at zero, never wraps
        assert_eq!(snap.shards[0].queue_depth, 0);
        snap.shards[0].queue_depth += 7;
        snap.shards[0].jobs += 1;
        snap.shards[0].solves += 3;
        snap.reset();
        assert_eq!(
            snap.shards[0].queue_depth, 7,
            "reset must not consume live pending events"
        );
        assert_eq!(snap.shards[0].jobs, 0, "monotonic counters do reset");
        assert_eq!(snap.shards[0].solves, 0);
    }

    #[test]
    fn merge_adds_counters_and_pads_shards() {
        let mut merged = StatsSnapshot {
            requests: 3,
            solves_full: 2,
            ..StatsSnapshot::with_shards(2)
        };
        merged.shards[1].jobs = 1;
        merged.shards[1].solves = 5;
        merged.record_solve_nanos(1_000, 500);
        let mut b = StatsSnapshot {
            requests: 4,
            solves_incremental: 6,
            ..StatsSnapshot::with_shards(4)
        };
        b.shards[3].jobs = 1;
        b.shards[3].solves = 1;
        b.record_solve_nanos(9_000, 0);
        merged.merge(&b);
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
