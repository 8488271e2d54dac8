//! The engine: session store, session-sharded dispatch, worker pool,
//! per-shard factor and warm-component caches.
//!
//! # Dispatch model
//!
//! Events accumulate per session ([`crate::scheduler::coalesce`] folds them at
//! dispatch time). Sessions hash to a **fixed shard** (`session id mod
//! shards`), and a flush runs one pipeline job per busy shard: the job
//! restricts the instance, resolves factors (session-affine reuse → shard
//! factor cache → component-wise solve via [`crate::warm`]) and re-rounds its
//! sessions in order. Shards own their caches outright, so a global flush
//! never serializes on a shared cache path — the serial part of a flush is
//! only the event coalescing and policy decisions.
//!
//! Shard `s` runs on lane `s mod workers`, and the thread that calls into
//! the engine is one of the workers: [`WorkerPool`] spawns `workers − 1`
//! threads. Each batch hands every busy lane but one to a pool thread and
//! runs the lane of its highest busy shard itself, so a batch that touches
//! one shard (every create, every forced re-solve) never crosses a thread,
//! and a one-worker engine runs every shard on the caller, in shard order.
//!
//! Factor resolution inside a shard job:
//!
//! 1. **Session-affine reuse** — a solve whose factor fingerprint matches the
//!    session's previous solve reuses the session's own factors (the common
//!    case for incremental re-rounds, whose fingerprint is the stable base
//!    fingerprint).
//! 2. **Shard factor cache** — an LRU keyed by restricted-instance
//!    fingerprint, shared by the shard's sessions (hot templates hit here).
//! 3. **Component-wise solve** — the LP separates across social-graph
//!    components, so missing factors are solved per component with
//!    fingerprint-keyed reuse of unchanged components
//!    ([`crate::warm::solve_factors_warm`]). Warm starts are *pure
//!    optimizations*: factors are byte-identical to a cold solve.
//!
//! Incremental solves then slice the full-population factor rows of the
//! present shoppers (the paper's §5 dynamic mechanism); full solves round on
//! factors computed for exactly the restricted instance.
//!
//! Sharding trades engine-wide LP dedup for isolation: a fingerprint shared
//! by sessions on *different* shards is solved once per shard (bounded by
//! the shard count) instead of once per flush, because restricting and
//! fingerprinting happen inside the shard jobs — moving them back to the
//! serial dispatch phase to dedup globally would reintroduce exactly the
//! serialized O(n·m) per-session work sharding removes. Within a shard,
//! dedup is exact (`batch_shared`), and hot-template reuse re-converges via
//! each shard's own caches after one solve per shard.
//!
//! Rounding seeds derive from `(session seed, generation)` and results are
//! applied in session order, so served configurations are reproducible under
//! a fixed seed regardless of worker scheduling, shard count, or cache
//! contents.
//!
//! # Counting
//!
//! Pool threads write no counter. Each shard job returns what it measured —
//! its outcomes (each naming the layer that served its factors, with the LP
//! time of a fresh computation), the queue wait, the shard's cache gauges
//! and its busy time — and the calling thread records it in the engine's
//! one [`StatsSnapshot`] once every job has reported. A report writes only
//! its own shard's slots and the queue-wait histogram, whose contents do not
//! depend on the order of records, and outcomes apply in session order. So
//! the counters do not depend on which thread ran a job, every gauge is
//! exact when a batch returns, and [`Engine::stats`] is a copy that takes no
//! lock.

use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use svgic_algorithms::avg::round_with_factors;
use svgic_algorithms::factors::RelaxationOptions;
use svgic_algorithms::{LpBackend, SamplingScheme, UtilityFactors};
use svgic_core::utility::total_utility;
use svgic_core::{Configuration, ItemIdx, SvgicInstance, UserIdx};

use rand_chacha::ChaCha8Rng;

use crate::api::{
    ConfigurationView, CreateSession, EngineError, EngineRequest, EngineResponse, SessionEvent,
    SessionId,
};
use crate::cache::FactorCache;
use crate::fingerprint::instance_fingerprint;
use crate::mem::SessionFootprint;
use crate::policy::{LpStart, PolicyInputs, ResolveKind, ResolvePolicy};
use crate::pool::WorkerPool;
use crate::profile::{EngineProfile, SolveLedger};
use crate::scheduler::coalesce;
use crate::session::{Served, SessionExport, SessionState};
use crate::stats::StatsSnapshot;
use crate::warm::{solve_factors_warm, CacheMode};
use svgic_obs::{ObsConfig, Phase, SpanRecord, TelemetryRing, TelemetrySample, Tracer};

use rand::SeedableRng;

/// Engine-wide tunables.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Workers that run shard jobs, the calling thread included: the
    /// engine spawns `workers − 1` threads (`0` = one worker per available
    /// core).
    pub workers: usize,
    /// Session shards (`0` = one per worker). Sessions map to shard
    /// `session id mod shards`; each shard owns a factor cache and a warm
    /// component cache and always runs on lane `shard mod workers` — the
    /// calling thread or one pool thread, whichever holds that lane in the
    /// batch.
    pub shards: usize,
    /// Per-shard factor-cache capacity in factor sets (`0` disables factor
    /// caching).
    pub cache_capacity: usize,
    /// Per-shard warm component-cache capacity in component factor sets.
    /// `0` disables only the component-level reuse layer — session-affine
    /// and factor-cache reuse still serve warm; set
    /// [`ResolvePolicy::warm_start_lp`] to `false` for a fully cold engine.
    pub component_cache_capacity: usize,
    /// Incremental-vs-full re-solve (and warm-vs-cold LP) policy.
    pub policy: ResolvePolicy,
    /// Auto-flush once this many events are pending engine-wide
    /// (`0` disables auto-flush; call [`Engine::flush`] manually).
    pub auto_flush_pending: usize,
    /// LP backend for relaxation solves.
    pub backend: LpBackend,
    /// Rounding sampling scheme.
    pub sampling: SamplingScheme,
    /// Idle-iteration safety valve for the rounding loop.
    pub max_idle_iterations: usize,
    /// Observability switches (span tracing + flight recorder). Off by
    /// default; enabling it is strictly read-side — served configurations,
    /// counters and response digests are byte-identical either way.
    pub obs: ObsConfig,
    /// Capacity of the telemetry ring: how many per-tick
    /// [`TelemetrySample`]s the engine retains (one is recorded after every
    /// handled [`EngineRequest::Flush`], the driver's deterministic tick).
    /// `0` disables sampling entirely. Like `obs`, strictly read-side.
    pub telemetry_capacity: usize,
    /// Capacity of the per-template cost-attribution ledger: how many
    /// distinct template fingerprints [`crate::profile::SolveLedger`]
    /// attributes solves to (`0` disables the ledger). Folded serially in
    /// session order, so its counts are deterministic; like `obs`, strictly
    /// read-side.
    pub profile_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            shards: 0,
            cache_capacity: 128,
            component_cache_capacity: 256,
            policy: ResolvePolicy::default(),
            auto_flush_pending: 32,
            backend: LpBackend::Auto,
            sampling: SamplingScheme::Advanced,
            max_idle_iterations: 10_000,
            obs: ObsConfig::default(),
            telemetry_capacity: 1024,
            profile_capacity: 128,
        }
    }
}

/// One scheduled solve, produced by the serial dispatch phase and executed
/// inside its session's shard job.
struct SolvePlan {
    session: u64,
    kind: ResolveKind,
    lp_start: LpStart,
    base: Arc<SvgicInstance>,
    base_fingerprint: u64,
    present: Vec<UserIdx>,
    catalog: Vec<ItemIdx>,
    seed: u64,
    /// The session's previous factors + their fingerprint, for session-affine
    /// reuse without touching the shard cache.
    session_factors: Option<(u64, Arc<UtilityFactors>)>,
}

/// Result of one session's solve inside a shard job.
struct SolveOutcome {
    session: u64,
    kind: ResolveKind,
    configuration: Configuration,
    utility: f64,
    lp_bound: f64,
    tight: bool,
    present: Vec<UserIdx>,
    catalog: Vec<ItemIdx>,
    round_nanos: u64,
    /// Factors the solve used, persisted back onto the session.
    factors: Arc<UtilityFactors>,
    factor_fingerprint: u64,
    /// The session's base-instance (template) fingerprint — the ledger's
    /// attribution key.
    base_fingerprint: u64,
    /// The layer that served the factors.
    source: FactorSource,
    /// Whole-solve wall time (factor resolution through rounding).
    solve_nanos: u64,
}

/// Which layer served a solve's factors.
#[derive(Clone, Copy, Debug)]
enum FactorSource {
    /// The session's own last factors (session-affine reuse).
    Session,
    /// Factors an earlier solve of the same shard job computed.
    Batch,
    /// The shard's fingerprint-keyed factor cache.
    Cache,
    /// A fresh LP computation: its wall time, and how many social-graph
    /// components it reused from the component cache and solved.
    Computed {
        lp_nanos: u64,
        reused: u64,
        solved: u64,
    },
}

impl FactorSource {
    /// Whether a reuse layer served the factors (vs. a fresh computation).
    fn is_warm(self) -> bool {
        !matches!(self, FactorSource::Computed { .. })
    }
}

impl SolveOutcome {
    /// Records what the solve measured: its resolve kind, the layer that
    /// served its factors, its warm/cold class, its rounding and, for a
    /// tight bound, its utility gap.
    fn record(&self, stats: &mut StatsSnapshot) {
        match self.kind {
            ResolveKind::Incremental => stats.solves_incremental += 1,
            ResolveKind::FullLp => stats.solves_full += 1,
        }
        match self.source {
            FactorSource::Session => {
                stats.cache_hits += 1;
                stats.session_reuse += 1;
            }
            FactorSource::Batch => stats.batch_shared += 1,
            FactorSource::Cache => stats.cache_hits += 1,
            FactorSource::Computed {
                lp_nanos,
                reused,
                solved,
            } => {
                stats.cache_misses += 1;
                stats.record_lp_compute(lp_nanos, reused, solved);
            }
        }
        stats.record_solve_class(self.solve_nanos, self.source.is_warm());
        stats.record_round(self.round_nanos);
        if self.tight {
            stats.record_gap(self.utility, self.lp_bound);
        }
    }
}

/// What one shard job measured, returned to the thread that runs the batch.
struct ShardReport {
    shard: usize,
    /// The job's solves, in session order.
    outcomes: Vec<SolveOutcome>,
    /// How long the shard's oldest drained event waited for this job
    /// (`None` when the job had no pending event to attribute a wait to).
    queue_wait_nanos: Option<u64>,
    /// The shard's factor-cache entries and bytes when the job finished.
    cache_entries: u64,
    cache_bytes: u64,
    /// The job's wall time.
    busy_nanos: u64,
}

/// Caches owned by one shard. Only the shard's own pipeline job touches them
/// (one job per shard per flush, on the shard's lane), so the mutex is
/// uncontended — it exists to move the state into the job and back, not to
/// arbitrate access.
#[derive(Debug)]
struct ShardState {
    /// LRU of whole-instance factors, keyed by restricted-instance
    /// fingerprint.
    factors: FactorCache,
    /// LRU of per-component factors, keyed by component sub-instance
    /// fingerprint — the warm-start currency.
    components: FactorCache,
}

/// The online multi-session serving engine.
pub struct Engine {
    config: EngineConfig,
    sessions: BTreeMap<u64, SessionState>,
    /// Passive standby replicas, keyed by the *cluster's* session key (the
    /// router's namespace, not local session ids). Replicas are inert
    /// payload: never solved, never flushed, invisible to `describe` and the
    /// memory gauges' session walk — they exist only to be taken back by the
    /// router when another node dies.
    standbys: BTreeMap<u64, SessionExport>,
    next_session: u64,
    shards: Vec<Arc<Mutex<ShardState>>>,
    pool: WorkerPool,
    /// The engine counters, recorded on the thread that calls into the
    /// engine.
    stats: StatsSnapshot,
    tracer: Tracer,
    /// The wire request id currently being served by [`Engine::handle_traced`]
    /// (0 between requests), so spans recorded inside the handler correlate
    /// with the frame that caused them.
    current_request: u64,
    /// Events queued across all sessions (kept incrementally so the
    /// auto-flush threshold check is O(1) per submit).
    pending_total: usize,
    /// Per-tick time series, one sample per handled `Flush` request.
    telemetry: TelemetryRing,
    /// Ticks elapsed since construction or the last stats reset (the
    /// sample timestamps; monotone within the ring).
    ticks: u64,
    /// The per-template cost-attribution ledger, folded serially in the
    /// batch apply loop (disabled at `profile_capacity: 0`).
    ledger: SolveLedger,
    /// Per shard: when the shard's *oldest* currently-pending event was
    /// enqueued (`None` = no pending events since the last dispatch).
    /// Feeds the queue-wait histogram and `Phase::QueueWait` spans.
    queue_since: Vec<Option<Instant>>,
}

impl Engine {
    /// Builds an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let pool = WorkerPool::new(config.workers);
        let shard_count = if config.shards == 0 {
            pool.workers()
        } else {
            config.shards
        };
        let shards = (0..shard_count)
            .map(|_| {
                Arc::new(Mutex::new(ShardState {
                    factors: FactorCache::new(config.cache_capacity),
                    components: FactorCache::new(config.component_cache_capacity),
                }))
            })
            .collect();
        let tracer = Tracer::new(config.obs);
        let telemetry = TelemetryRing::new(config.telemetry_capacity);
        let ledger = SolveLedger::new(config.profile_capacity);
        Engine {
            config,
            sessions: BTreeMap::new(),
            standbys: BTreeMap::new(),
            next_session: 1,
            shards,
            pool,
            stats: StatsSnapshot::with_shards(shard_count),
            tracer,
            current_request: 0,
            pending_total: 0,
            telemetry,
            ticks: 0,
            ledger,
            // lint: allow(prealloc, shard_count is the engine's own resolved shard total, not wire input)
            queue_since: vec![None; shard_count],
        }
    }

    /// The shard a session id pins to.
    fn shard_of(&self, id: u64) -> usize {
        shard_index(id, self.shards.len())
    }

    /// Builds an engine with default configuration.
    pub fn with_defaults() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Events queued engine-wide, awaiting the next flush.
    pub fn pending_events(&self) -> usize {
        self.pending_total
    }

    /// Number of workers, the calling thread included (`0` configured
    /// resolves to one per core).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Number of session shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of factor sets currently cached, summed over shards.
    pub fn cached_factor_sets(&self) -> usize {
        self.shards
            .iter()
            // lint: allow(no-panic, a poisoned shard lock means a worker panicked mid-batch; engine state is unrecoverable)
            .map(|shard| shard.lock().expect("shard poisoned").factors.len())
            .sum()
    }

    /// Number of warm component solutions currently cached, summed over
    /// shards.
    pub fn cached_component_sets(&self) -> usize {
        self.shards
            .iter()
            // lint: allow(no-panic, a poisoned shard lock means a worker panicked mid-batch; engine state is unrecoverable)
            .map(|shard| shard.lock().expect("shard poisoned").components.len())
            .sum()
    }

    /// A copy of the engine counters, with the ledger and the session-side
    /// `mem_*` gauges filled in (an O(sessions) arithmetic walk — strictly
    /// read-side, never touching matrix data). Every shard job has reported
    /// by the time its batch returns, so the copy needs no shard lock.
    pub fn stats(&self) -> StatsSnapshot {
        let sessions = self.sessions_footprint();
        StatsSnapshot {
            profile: self.ledger.entries(),
            profile_dropped: self.ledger.dropped(),
            mem_session_bytes: sessions.session_bytes,
            mem_pending_bytes: sessions.pending_bytes,
            mem_served_bytes: sessions.served_bytes,
            ..self.stats.clone()
        }
    }

    /// The engine's full profile: the per-template ledger plus the critical
    /// path assembled from the flight recorder (the in-process answer to
    /// [`EngineRequest::QueryProfile`]). The span-derived sections are empty
    /// when tracing is off; the ledger sections are empty at
    /// `profile_capacity: 0`.
    pub fn profile(&self) -> EngineProfile {
        let spans = self.spans();
        EngineProfile {
            entries: self.ledger.entries(),
            dropped: self.ledger.dropped(),
            phases: svgic_obs::aggregate_phases(&spans),
            waterfalls: svgic_obs::assemble_waterfalls(&spans),
            collapsed: svgic_obs::collapsed_stacks(&spans),
        }
    }

    /// The sample the telemetry ring records at a flush, stamped with the
    /// latest tick. It reads only the numbers a [`TelemetrySample`] stores,
    /// and computes the `mem_*` gauges the way [`Engine::stats`] does.
    pub fn telemetry_sample(&self) -> TelemetrySample {
        self.stats
            .telemetry_sample(self.ticks.saturating_sub(1), self.sessions_footprint())
    }

    /// The live session store's bytes, split the way the `mem_*` gauges
    /// split them (shard cache bytes come from the shard jobs' reports and
    /// from imports, where the caches actually change).
    fn sessions_footprint(&self) -> SessionFootprint {
        let mut total = SessionFootprint::default();
        for state in self.sessions.values() {
            let footprint = crate::mem::session_footprint(state);
            total.session_bytes += footprint.session_bytes;
            total.pending_bytes += footprint.pending_bytes;
            total.served_bytes += footprint.served_bytes;
        }
        total
    }

    /// Resets the engine counters to zero without touching sessions or the
    /// factor cache — e.g. to exclude a warmup prefix from a measured run
    /// while keeping the caches warm. The telemetry ring and its tick clock
    /// reset too: reports carry only the measured window.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.telemetry.clear();
        self.ticks = 0;
        self.ledger.clear();
    }

    /// The telemetry ring's samples, oldest first (empty when
    /// [`EngineConfig::telemetry_capacity`] is 0 or no flush has happened
    /// yet).
    pub fn telemetry(&self) -> Vec<TelemetrySample> {
        self.telemetry.samples()
    }

    /// Records one time-series sample at the current tick, then advances
    /// the tick clock. Called from the `Flush` request arm — the driver's
    /// deterministic tick boundary — never from a timer.
    fn sample_telemetry(&mut self) {
        self.ticks += 1;
        if !self.telemetry.is_enabled() {
            return;
        }
        // Every shard job of the flush has reported by now, so the sample
        // reads the post-batch cache sizes — which keeps the ring
        // deterministic across backends.
        let sample = self.telemetry_sample();
        self.telemetry.push(sample);
    }

    /// Handles a typed request.
    pub fn handle(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        match request {
            EngineRequest::CreateSession(spec) => self
                .create_session(*spec)
                .map(EngineResponse::SessionCreated),
            EngineRequest::SubmitEvent(session, event) => self
                .submit_event(session, event)
                .map(|pending| EngineResponse::EventAccepted { session, pending }),
            EngineRequest::QueryConfiguration(session) => self
                .query_configuration(session)
                .map(EngineResponse::Configuration),
            EngineRequest::ForceResolve(session) => {
                self.force_resolve(session).map(EngineResponse::Resolved)
            }
            EngineRequest::CloseSession(session) => {
                self.close_session(session)
                    .map(|lifetime_events| EngineResponse::SessionClosed {
                        session,
                        lifetime_events,
                    })
            }
            EngineRequest::Flush => {
                self.flush();
                // The handled Flush is the driver's tick boundary: exactly
                // one telemetry sample per tick, on no wall-clock at all.
                self.sample_telemetry();
                Ok(EngineResponse::Flushed)
            }
            EngineRequest::QueryStats => Ok(EngineResponse::Stats(Box::new(self.stats()))),
            EngineRequest::ResetStats => {
                self.reset_stats();
                Ok(EngineResponse::StatsReset)
            }
            EngineRequest::ExportSession(session) => self
                .export_session(session)
                .map(|export| EngineResponse::SessionExported(Box::new(export))),
            EngineRequest::ImportSession(export) => Ok(EngineResponse::SessionImported(
                self.import_session(*export),
            )),
            EngineRequest::Describe => Ok(EngineResponse::Description(self.describe())),
            EngineRequest::QueryMetrics => Ok(EngineResponse::Metrics(self.stats().metrics())),
            EngineRequest::QueryTelemetry => Ok(EngineResponse::Telemetry(self.telemetry())),
            EngineRequest::QueryProfile => Ok(EngineResponse::Profile(Box::new(self.profile()))),
            EngineRequest::SnapshotSession(session) => self
                .snapshot_session(session)
                .map(|export| EngineResponse::SessionExported(Box::new(export))),
            EngineRequest::PutStandby(key, export) => {
                self.put_standby(key, *export);
                Ok(EngineResponse::StandbyStored)
            }
            EngineRequest::TakeStandby(key) => Ok(EngineResponse::StandbyTaken(
                self.take_standby(key).map(Box::new),
            )),
            EngineRequest::Crash => {
                self.crash();
                Ok(EngineResponse::Crashed)
            }
        }
    }

    /// Handles a typed request on behalf of wire frame `request_id`,
    /// recording a [`Phase::Serve`] span around the whole handler. Spans
    /// recorded *inside* the handler (Submit, Coalesce, Migrate, …) carry the
    /// same id, and the server echoes it in the response frame — so one id
    /// names one request's work on both sides of a TCP connection.
    pub fn handle_traced(
        &mut self,
        request_id: u64,
        request: EngineRequest,
    ) -> Result<EngineResponse, EngineError> {
        let t = self.tracer.begin();
        let session = match &request {
            EngineRequest::SubmitEvent(session, _)
            | EngineRequest::QueryConfiguration(session)
            | EngineRequest::ForceResolve(session)
            | EngineRequest::CloseSession(session)
            | EngineRequest::ExportSession(session)
            | EngineRequest::SnapshotSession(session) => session.0,
            _ => 0,
        };
        self.current_request = request_id;
        let result = self.handle(request);
        self.current_request = 0;
        self.tracer
            .finish(t, Phase::Serve, request_id, session, SpanRecord::NO_SHARD);
        result
    }

    /// The engine's span tracer (cloneable; a no-op handle unless
    /// [`EngineConfig::obs`] enabled tracing).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Every span the flight recorder retains, sorted by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer.spans()
    }

    /// The engine's shape and occupancy (the in-process answer to
    /// [`EngineRequest::Describe`]).
    pub fn describe(&self) -> crate::api::EngineInfo {
        crate::api::EngineInfo {
            workers: self.workers(),
            shards: self.shard_count(),
            sessions: self.session_count(),
            pending_events: self.pending_events(),
        }
    }

    /// Opens a session and solves its initial configuration.
    pub fn create_session(
        &mut self,
        spec: CreateSession,
    ) -> Result<ConfigurationView, EngineError> {
        self.count_request();
        let CreateSession {
            instance,
            mut initial_present,
            seed,
        } = spec;
        if instance.num_users() == 0 {
            return Err(EngineError::InvalidSession("instance has no users".into()));
        }
        if initial_present.is_empty() {
            initial_present = (0..instance.num_users()).collect();
        }
        initial_present.sort_unstable();
        initial_present.dedup();
        if let Some(&out_of_range) = initial_present
            .iter()
            .find(|&&user| user >= instance.num_users())
        {
            return Err(EngineError::InvalidSession(format!(
                "initial user {out_of_range} outside population 0..{}",
                instance.num_users()
            )));
        }
        let id = self.next_session;
        self.next_session += 1;
        let state = SessionState::new(SessionId(id), instance, initial_present, seed);
        self.sessions.insert(id, state);
        self.stats.sessions_created += 1;
        self.run_batch(&[id], false);
        Ok(self.sessions[&id].view())
    }

    /// Queues an event; may trigger an auto-flush.
    pub fn submit_event(
        &mut self,
        session: SessionId,
        event: SessionEvent,
    ) -> Result<usize, EngineError> {
        self.count_request();
        let t = self.tracer.begin();
        let state = self
            .sessions
            .get_mut(&session.0)
            .ok_or(EngineError::UnknownSession(session))?;
        let event = validate_event(&state.full, event)?;
        state.pending.push(event);
        self.pending_total += 1;
        let shard = self.shard_of(session.0);
        if self.queue_since[shard].is_none() {
            // lint: allow(wall-clock, queue-wait telemetry only; solve results never read it)
            self.queue_since[shard] = Some(Instant::now());
        }
        self.stats.shards[shard].queue_depth += 1;
        self.stats.events_submitted += 1;
        // The span covers validation + queueing; an auto-flush below is
        // traced as its own Coalesce/ShardDispatch spans, not folded in here.
        self.tracer.finish(
            t,
            Phase::Submit,
            self.current_request,
            session.0,
            SpanRecord::NO_SHARD,
        );
        let threshold = self.config.auto_flush_pending;
        if threshold > 0 && self.pending_total >= threshold {
            self.flush();
        }
        Ok(self
            .sessions
            .get(&session.0)
            .map(|state| state.pending.len())
            .unwrap_or(0))
    }

    /// Reads the last served configuration without solving.
    pub fn query_configuration(
        &mut self,
        session: SessionId,
    ) -> Result<ConfigurationView, EngineError> {
        self.count_request();
        self.sessions
            .get(&session.0)
            .map(SessionState::view)
            .ok_or(EngineError::UnknownSession(session))
    }

    /// Applies the session's pending events now and forces a full LP re-solve.
    pub fn force_resolve(&mut self, session: SessionId) -> Result<ConfigurationView, EngineError> {
        self.count_request();
        if !self.sessions.contains_key(&session.0) {
            return Err(EngineError::UnknownSession(session));
        }
        self.run_batch(&[session.0], true);
        Ok(self.sessions[&session.0].view())
    }

    /// Closes a session, dropping any unapplied events.
    pub fn close_session(&mut self, session: SessionId) -> Result<u64, EngineError> {
        self.count_request();
        let state = self
            .sessions
            .remove(&session.0)
            .ok_or(EngineError::UnknownSession(session))?;
        self.pending_total = self.pending_total.saturating_sub(state.pending.len());
        self.stats
            .shard_queue_sub(self.shard_of(session.0), state.pending.len());
        self.stats.sessions_closed += 1;
        Ok(state.lifetime_events)
    }

    /// Removes a session and returns its complete transferable state —
    /// the drain half of a **live migration**. Unapplied events, the served
    /// solution, the solve generation and the session's warm capital (last
    /// LP factors + fingerprint) all travel with the export; nothing is
    /// solved or dropped. Not counted as a close.
    pub fn export_session(&mut self, session: SessionId) -> Result<SessionExport, EngineError> {
        self.count_request();
        let t = self.tracer.begin();
        let state = self
            .sessions
            .remove(&session.0)
            .ok_or(EngineError::UnknownSession(session))?;
        self.pending_total = self.pending_total.saturating_sub(state.pending.len());
        self.stats
            .shard_queue_sub(self.shard_of(session.0), state.pending.len());
        self.stats.sessions_exported += 1;
        let export = state.into_export();
        self.tracer.finish(
            t,
            Phase::Migrate,
            self.current_request,
            session.0,
            SpanRecord::NO_SHARD,
        );
        Ok(export)
    }

    /// Adopts an exported session under a fresh local id — the hand-off half
    /// of a live migration. The session continues exactly where it left off:
    /// solve seeds derive from `(seed, generation)` (both carried), factors
    /// are byte-identical wherever computed, and the next flush applies any
    /// carried pending events — so served configurations are independent of
    /// which engine hosts the session. Not counted as a create.
    pub fn import_session(&mut self, export: SessionExport) -> SessionId {
        self.count_request();
        let t = self.tracer.begin();
        let id = self.next_session;
        self.next_session += 1;
        let state = SessionState::from_export(SessionId(id), export);
        let shard = self.shard_of(id);
        self.pending_total += state.pending.len();
        if !state.pending.is_empty() && self.queue_since[shard].is_none() {
            // lint: allow(wall-clock, queue-wait telemetry only; solve results never read it)
            self.queue_since[shard] = Some(Instant::now());
        }
        self.stats.shards[shard].queue_depth += state.pending.len() as u64;
        self.stats.sessions_imported += 1;
        // Seed the receiving shard's factor cache with the carried warm
        // capital: beyond the session's own session-affine reuse, *other*
        // sessions sharing the fingerprint (same template, e.g.) now hit the
        // cache instead of recomputing the LP this engine never ran —
        // migrations cross-pollinate node caches. Factors are byte-identical
        // wherever computed, so this is a pure optimization.
        if let (Some(fingerprint), Some(factors)) =
            (state.last_factor_fingerprint, state.last_factors.clone())
        {
            // lint: allow(no-panic, a poisoned shard lock means a worker panicked mid-batch; engine state is unrecoverable)
            let mut shard_state = self.shards[shard].lock().expect("shard poisoned");
            shard_state.factors.insert(fingerprint, factors);
            let counters = &mut self.stats.shards[shard];
            counters.cache_entries = shard_state.factors.len() as u64;
            counters.cache_bytes = shard_state.factors.footprint_bytes();
        }
        self.sessions.insert(id, state);
        self.tracer.finish(
            t,
            Phase::Migrate,
            self.current_request,
            id,
            SpanRecord::NO_SHARD,
        );
        SessionId(id)
    }

    /// Clones a session's complete transferable state *without* draining it
    /// — the replication half of warm standby. The live session is
    /// untouched; the copy is what travels to the ring-successor. Not
    /// counted as a request or an export, so replication leaves every
    /// traffic counter exactly where a replication-free run puts it.
    pub fn snapshot_session(&mut self, session: SessionId) -> Result<SessionExport, EngineError> {
        self.sessions
            .get(&session.0)
            .map(SessionState::to_export)
            .ok_or(EngineError::UnknownSession(session))
    }

    /// Stores a standby replica under a cluster-assigned key, replacing any
    /// previous replica under that key. The replica is passive payload; it
    /// participates in nothing until taken back.
    pub fn put_standby(&mut self, key: u64, export: SessionExport) {
        self.standbys.insert(key, export);
    }

    /// Removes and returns the standby replica under `key`, if any. Taking
    /// is both promotion (the router imports the result elsewhere) and
    /// discard (the router drops a stale copy) — one operation, no separate
    /// delete to drift out of sync.
    pub fn take_standby(&mut self, key: u64) -> Option<SessionExport> {
        self.standbys.remove(&key)
    }

    /// Standby replicas currently held (test/inspection surface).
    pub fn standby_count(&self) -> usize {
        self.standbys.len()
    }

    /// Simulates a node crash: drops every session, standby replica, cached
    /// factor set, telemetry sample and counter, returning the engine to
    /// its freshly-constructed state. The worker pool survives (threads are
    /// the *process's* resource; a simulated crash kills the node's state,
    /// not the host). After `crash`, session ids restart at 1 — a crashed
    /// server is indistinguishable from a newly spawned one, which is what
    /// lets the cluster kill and re-join remote processes it cannot fork.
    pub fn crash(&mut self) {
        self.sessions.clear();
        self.standbys.clear();
        self.next_session = 1;
        self.pending_total = 0;
        self.telemetry.clear();
        self.ticks = 0;
        self.ledger.clear();
        for slot in &mut self.queue_since {
            *slot = None;
        }
        for state in &self.shards {
            // lint: allow(no-panic, a poisoned shard lock means a worker panicked mid-batch; engine state is unrecoverable)
            let mut shard_state = state.lock().expect("shard poisoned");
            shard_state.factors = FactorCache::new(self.config.cache_capacity);
            shard_state.components = FactorCache::new(self.config.component_cache_capacity);
        }
        self.stats = StatsSnapshot::with_shards(self.shards.len());
    }

    /// Applies every session's pending events in one batched dispatch.
    pub fn flush(&mut self) {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        self.run_batch(&ids, false);
    }

    fn count_request(&mut self) {
        self.stats.requests += 1;
    }

    /// Serial dispatch phase + one pipeline job per busy shard. `forced_full`
    /// applies to every id in `ids` (used by `force_resolve`).
    fn run_batch(&mut self, ids: &[u64], forced_full: bool) {
        // ---- Phase A: coalesce, decide, plan (serial, deterministic) ----
        // Plans bucket by shard; everything cache- or LP-related happens
        // inside the shard jobs, against shard-owned state.
        let shard_count = self.shards.len();
        let mut buckets: BTreeMap<usize, Vec<SolvePlan>> = BTreeMap::new();
        let mut planned = 0usize;
        let mut drained_shards: std::collections::BTreeSet<usize> =
            std::collections::BTreeSet::new();

        let t_coalesce = self.tracer.begin();
        for &id in ids {
            let Some(state) = self.sessions.get_mut(&id) else {
                continue;
            };
            let batch = coalesce(&state.present, &state.catalog, state.lambda, &state.pending);
            let needs_initial = state.served.is_none() && state.generation == 0;
            if !state.pending.is_empty() {
                drained_shards.insert(shard_index(id, shard_count));
            }
            self.pending_total = self.pending_total.saturating_sub(state.pending.len());
            self.stats
                .shard_queue_sub(shard_index(id, shard_count), state.pending.len());
            state.pending.clear();
            state.lifetime_events += batch.raw_events as u64;
            self.stats.events_coalesced += batch.coalesced_away as u64;
            if !batch.dirty && !needs_initial && !forced_full {
                continue;
            }
            let net_events = batch.raw_events - batch.coalesced_away;
            state.events_since_full += net_events;
            state.present = batch.present.clone();
            if let Some(catalog) = batch.catalog {
                state.catalog = catalog;
            }
            if let Some(lambda) = batch.lambda {
                state.lambda = lambda;
            }
            if batch.reshaped {
                state.rebuild_base();
            }
            if state.present.is_empty() {
                // Dormant: everyone left. Nothing to solve until a join. A
                // base rebuilt here gets no solve, so factors kept for the
                // old base would no longer fit it.
                state.served = None;
                if batch.reshaped {
                    state.last_factors = None;
                    state.last_factor_fingerprint = None;
                }
                continue;
            }

            let inputs = PolicyInputs {
                events_since_full: state.events_since_full,
                present: state.present.len(),
                full_population: state.base.num_users(),
                relative_gap: state.relative_gap(),
                reshaped: batch.reshaped,
                forced_full,
            };
            let decision = self.config.policy.decide(&inputs);

            let session_factors = state
                .last_factor_fingerprint
                .zip(state.last_factors.clone());
            planned += 1;
            buckets
                .entry(shard_index(id, shard_count))
                .or_default()
                .push(SolvePlan {
                    session: id,
                    kind: decision.kind,
                    lp_start: decision.lp_start,
                    base: Arc::clone(&state.base),
                    base_fingerprint: state.base_fingerprint,
                    present: state.present.clone(),
                    catalog: state.catalog.clone(),
                    seed: state.next_solve_seed(),
                    session_factors,
                });
        }
        self.tracer.finish(
            t_coalesce,
            Phase::Coalesce,
            self.current_request,
            0,
            SpanRecord::NO_SHARD,
        );

        // Queue-wait bookkeeping: a shard whose pending events were drained
        // stops waiting now. Shards that also dispatch a job below record
        // the oldest event's enqueue→pickup wait; shards whose events
        // coalesced to nothing just clear (no dispatch to attribute to).
        let mut queue_waits: BTreeMap<usize, Instant> = BTreeMap::new();
        for &shard in &drained_shards {
            if let Some(enqueued_at) = self.queue_since[shard].take() {
                if buckets.contains_key(&shard) {
                    queue_waits.insert(shard, enqueued_at);
                }
            }
        }

        if planned == 0 {
            return;
        }
        self.stats.batches += 1;

        // ---- Shard jobs: restrict, resolve factors, round — in parallel
        // across lanes, sequentially (in session order) within a shard ----
        // Shard `s` runs on lane `s mod workers`, and the calling thread is
        // one of the workers: it takes the lane of the highest busy shard,
        // and every other busy lane goes to its own pool thread (lane `l` to
        // thread `l` below the caller's lane, `l − 1` above it). A batch on
        // one lane therefore never crosses a thread.
        // Each job returns what it measured, and this thread records it.
        // A report writes only its own shard's slots and a histogram, so
        // reports are recorded as they arrive; outcomes apply in session
        // order.
        let (report_tx, report_rx) = channel();
        let lanes = self.pool.workers();
        let caller_lane = buckets.keys().next_back().map_or(0, |&shard| shard % lanes);
        let mut caller_jobs = Vec::new();
        let mut pool_jobs = 0usize;
        for (shard, plans) in buckets {
            let counters = &mut self.stats.shards[shard];
            counters.jobs += 1;
            counters.solves += plans.len() as u64;
            let job = ShardJob {
                shard,
                plans,
                state: Arc::clone(&self.shards[shard]),
                enqueued_at: queue_waits.get(&shard).copied(),
                options: RelaxationOptions {
                    backend: self.config.backend,
                    ..RelaxationOptions::default()
                },
                warm_enabled: self.config.policy.warm_start_lp,
                sampling: self.config.sampling,
                max_idle: self.config.max_idle_iterations,
                tracer: self.tracer.clone(),
            };
            let lane = shard % lanes;
            if lane == caller_lane {
                caller_jobs.push(job);
            } else {
                let thread = if lane < caller_lane { lane } else { lane - 1 };
                let tx = report_tx.clone();
                pool_jobs += 1;
                self.pool.execute_on(
                    thread,
                    Box::new(move || {
                        let _ = tx.send(job.run());
                    }),
                );
            }
        }
        // Only the pool jobs' clones may keep the channel open: a pool job
        // that panics drops its sender, and the wait below fails instead of
        // hanging.
        drop(report_tx);
        let mut reports: Vec<ShardReport> = caller_jobs.into_iter().map(ShardJob::run).collect();
        for _ in 0..pool_jobs {
            // lint: allow(no-panic, a dead worker already panicked; the batch cannot complete and crashing is correct)
            reports.push(report_rx.recv().expect("shard worker died"));
        }
        let mut outcomes = Vec::new();
        for report in reports {
            let counters = &mut self.stats.shards[report.shard];
            counters.busy_time += Duration::from_nanos(report.busy_nanos);
            counters.cache_entries = report.cache_entries;
            counters.cache_bytes = report.cache_bytes;
            if let Some(waited) = report.queue_wait_nanos {
                self.stats.queue_wait_latency.record_nanos(waited);
            }
            outcomes.extend(report.outcomes);
        }
        outcomes.sort_by_key(|outcome| outcome.session);

        // ---- Apply results in session order (deterministic) ----
        for outcome in outcomes {
            outcome.record(&mut self.stats);
            let Some(state) = self.sessions.get_mut(&outcome.session) else {
                continue;
            };
            state.generation += 1;
            if outcome.kind == ResolveKind::FullLp {
                state.events_since_full = 0;
            }
            // Ledger fold: serial, in session order — attribution counts are
            // deterministic; the nanos are wall-clock telemetry only.
            self.ledger.record(
                outcome.base_fingerprint,
                outcome.factor_fingerprint,
                outcome.source.is_warm(),
                outcome.solve_nanos,
            );
            state.last_factors = Some(Arc::clone(&outcome.factors));
            state.last_factor_fingerprint = Some(outcome.factor_fingerprint);
            state.served = Some(Served {
                configuration: outcome.configuration,
                present: outcome.present,
                catalog: outcome.catalog,
                utility: outcome.utility,
                lp_bound: outcome.lp_bound,
                tight: outcome.tight,
            });
        }
    }
}

/// The single definition of the session→shard pinning rule (`id mod
/// shards`); every gauge update and dispatch bucket goes through it so the
/// rule can never silently diverge between call sites.
fn shard_index(id: u64, shard_count: usize) -> usize {
    (id % shard_count as u64) as usize
}

/// One busy shard's share of a batch: its plans plus everything the job
/// reads, owned so that a pool thread and the calling thread run it alike.
struct ShardJob {
    shard: usize,
    plans: Vec<SolvePlan>,
    state: Arc<Mutex<ShardState>>,
    /// When the shard's oldest drained event was enqueued (`None` when the
    /// shard had no pending event to attribute a wait to).
    enqueued_at: Option<Instant>,
    options: RelaxationOptions,
    warm_enabled: bool,
    sampling: SamplingScheme,
    max_idle: usize,
    tracer: Tracer,
}

impl ShardJob {
    /// Runs the job whole under its shard lock and reports what it
    /// measured: its outcomes, the queue wait, the shard's cache gauges and
    /// its busy time.
    fn run(mut self) -> ShardReport {
        let lane = self.shard as u32;
        // lint: allow(wall-clock, worker busy-clock telemetry only; solve results never read it)
        let busy_started = Instant::now();
        // Queueing ends where service begins: the shard's oldest pending
        // event waited from enqueue to this pickup.
        let queue_wait_nanos = self.enqueued_at.map(|enqueued_at| {
            let waited = enqueued_at.elapsed().as_nanos() as u64;
            let started = self.tracer.is_enabled().then_some(enqueued_at);
            self.tracer.finish(started, Phase::QueueWait, 0, 0, lane);
            waited
        });
        let t_dispatch = self.tracer.begin();
        let plans = std::mem::take(&mut self.plans);
        // lint: allow(no-panic, a poisoned shard lock means a worker panicked mid-batch; engine state is unrecoverable)
        let mut state = self.state.lock().expect("shard poisoned");
        let outcomes = run_shard_plans(&mut state, plans, &self);
        let cache_entries = state.factors.len() as u64;
        let cache_bytes = state.factors.footprint_bytes();
        drop(state);
        self.tracer
            .finish(t_dispatch, Phase::ShardDispatch, 0, 0, lane);
        ShardReport {
            shard: self.shard,
            outcomes,
            queue_wait_nanos,
            cache_entries,
            cache_bytes,
            busy_nanos: busy_started.elapsed().as_nanos() as u64,
        }
    }
}

/// Executes one shard's plans: restrict the instance, resolve factors
/// (session-affine reuse → shard cache → component-wise solve) and re-round,
/// returning the outcomes in plan order. Runs on the shard's lane with the
/// shard state locked for the whole job; `job` supplies everything but the
/// plans.
fn run_shard_plans(
    shard: &mut ShardState,
    plans: Vec<SolvePlan>,
    job: &ShardJob,
) -> Vec<SolveOutcome> {
    let (tracer, options) = (&job.tracer, &job.options);
    let (warm_enabled, sampling, max_idle) = (job.warm_enabled, job.sampling, job.max_idle);
    let shard_lane = job.shard as u32;

    // Factors computed by *this* job, keyed by fingerprint. Checked before
    // the shard cache so (a) batch dedup survives `cache_capacity: 0` (the
    // LRU insert is a no-op then) and (b) the stats can tell within-batch
    // sharing apart from genuine cross-flush cache reuse.
    let mut computed_this_batch: std::collections::HashMap<u64, Arc<UtilityFactors>> =
        std::collections::HashMap::new();
    let mut outcomes = Vec::new();
    for plan in plans {
        // lint: allow(wall-clock, per-solve latency telemetry only; solve results never read it)
        let solve_started = Instant::now();
        let t_project = tracer.begin();
        let restricted = if plan.present.len() == plan.base.num_users() {
            Arc::clone(&plan.base)
        } else {
            Arc::new(plan.base.restrict_users(&plan.present))
        };
        let factor_fingerprint = match plan.kind {
            ResolveKind::Incremental => plan.base_fingerprint,
            ResolveKind::FullLp => instance_fingerprint(&restricted),
        };
        tracer.finish(t_project, Phase::Project, 0, plan.session, shard_lane);

        // A solve may reuse previously computed factors only when the warm
        // policy allows it (a forced re-solve, or a cold-baseline engine,
        // recomputes). Reuse layers, in order: the session's own last
        // solution, then the shard's fingerprint-keyed factor cache.
        // An import carries factors under a fingerprint its sender chose, so
        // reused factors must also have the shape this solve reads: the
        // restricted catalogue, over the base population (sliced below) or
        // the restricted one.
        let reuse_allowed = warm_enabled && plan.lp_start == LpStart::Warm;
        let fits = |factors: &UtilityFactors| {
            factors.num_items() == restricted.num_items()
                && (factors.num_users() == plan.base.num_users()
                    || factors.num_users() == restricted.num_users())
        };
        let session_reused = plan
            .session_factors
            .as_ref()
            .filter(|(fingerprint, factors)| {
                reuse_allowed && *fingerprint == factor_fingerprint && fits(factors)
            });
        let (factors, source) = if let Some((_, factors)) = session_reused {
            (Arc::clone(factors), FactorSource::Session)
        } else if let Some(factors) = reuse_allowed
            .then(|| computed_this_batch.get(&factor_fingerprint))
            .flatten()
        {
            (Arc::clone(factors), FactorSource::Batch)
        } else if let Some(factors) = reuse_allowed
            .then(|| shard.factors.get(factor_fingerprint))
            .flatten()
            .filter(|factors| fits(factors))
        {
            (factors, FactorSource::Cache)
        } else {
            let factor_instance = match plan.kind {
                ResolveKind::Incremental => &plan.base,
                ResolveKind::FullLp => &restricted,
            };
            let component_cache = if !warm_enabled {
                None
            } else if reuse_allowed {
                Some(CacheMode::Reuse)
            } else {
                // Forced cold solve in a warm engine: recompute everything,
                // but refresh the warm cache with the fresh solutions.
                Some(CacheMode::Refresh)
            };
            // lint: allow(wall-clock, LP latency telemetry only; solve results never read it)
            let started = Instant::now();
            let t_lp = tracer.begin();
            let outcome = match component_cache {
                None => solve_factors_warm(factor_instance, options, None),
                Some(mode) => solve_factors_warm(
                    factor_instance,
                    options,
                    Some((&mut shard.components, mode)),
                ),
            };
            // Warm vs. cold by what actually happened: a solve that reused at
            // least one cached component solution ran warm.
            let lp_phase = if outcome.reused > 0 {
                Phase::LpWarm
            } else {
                Phase::LpCold
            };
            tracer.finish(t_lp, lp_phase, 0, plan.session, shard_lane);
            let source = FactorSource::Computed {
                lp_nanos: started.elapsed().as_nanos() as u64,
                reused: outcome.reused as u64,
                solved: outcome.solved() as u64,
            };
            if warm_enabled {
                shard
                    .factors
                    .insert(factor_fingerprint, Arc::clone(&outcome.factors));
                computed_this_batch.insert(factor_fingerprint, Arc::clone(&outcome.factors));
            }
            (outcome.factors, source)
        };

        // lint: allow(wall-clock, rounding latency telemetry only; solve results never read it)
        let started = Instant::now();
        // Borrow the shared factors in the pass-through case (full population
        // present, or a full solve); only genuine incremental restriction
        // copies rows.
        let sliced;
        let effective: &UtilityFactors = if factors.num_users() == restricted.num_users() {
            factors.as_ref()
        } else {
            sliced = slice_factors(&factors, &restricted, &plan.present);
            &sliced
        };
        let lp_bound = effective.utility_upper_bound(&restricted);
        let mut rng = ChaCha8Rng::seed_from_u64(plan.seed);
        let t_round = tracer.begin();
        let (configuration, _iterations) =
            round_with_factors(&restricted, effective, None, sampling, max_idle, &mut rng);
        tracer.finish(t_round, Phase::Round, 0, plan.session, shard_lane);
        let utility = total_utility(&restricted, &configuration);
        let solve_nanos = solve_started.elapsed().as_nanos() as u64;
        outcomes.push(SolveOutcome {
            session: plan.session,
            kind: plan.kind,
            configuration,
            utility,
            lp_bound,
            // Only an exact solve on exactly this instance bounds the
            // optimum; ascent factors (configured or fallen back to) are a
            // lower bound.
            tight: plan.kind == ResolveKind::FullLp && factors.backend.is_exact(),
            present: plan.present,
            catalog: plan.catalog,
            round_nanos: started.elapsed().as_nanos() as u64,
            factors,
            factor_fingerprint,
            base_fingerprint: plan.base_fingerprint,
            source,
            solve_nanos,
        });
    }
    outcomes
}

/// Restricts `factors` (over the base population) to the rows of `present`,
/// producing factors dimensioned for `restricted`. The caller handles the
/// dimensions-already-match case by borrowing the shared factors instead.
fn slice_factors(
    factors: &Arc<UtilityFactors>,
    restricted: &SvgicInstance,
    present: &[UserIdx],
) -> UtilityFactors {
    let n = restricted.num_users();
    let m = restricted.num_items();
    debug_assert_eq!(present.len(), n);
    let mut aggregate = Vec::with_capacity(n * m);
    for &user in present {
        for item in 0..m {
            aggregate.push(factors.aggregate(user, item));
        }
    }
    UtilityFactors::from_aggregate(
        restricted,
        aggregate,
        factors.scaled_objective,
        factors.backend,
    )
}

/// Validates a single event against the session's full universe, returning it
/// in normalized form (`SetCatalog` payloads come back sorted and
/// deduplicated, so the scheduler can compare them directly).
fn validate_event(full: &SvgicInstance, event: SessionEvent) -> Result<SessionEvent, EngineError> {
    use svgic_core::extensions::DynamicEvent;
    match event {
        SessionEvent::Membership(DynamicEvent::Join(user))
        | SessionEvent::Membership(DynamicEvent::Leave(user)) => {
            if user >= full.num_users() {
                return Err(EngineError::InvalidEvent(format!(
                    "user {user} outside population 0..{}",
                    full.num_users()
                )));
            }
        }
        SessionEvent::SetCatalog(items) => {
            let mut sorted = items;
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() < full.num_slots() {
                return Err(EngineError::InvalidEvent(format!(
                    "catalogue of {} items cannot fill k = {} slots",
                    sorted.len(),
                    full.num_slots()
                )));
            }
            if let Some(&item) = sorted.iter().find(|&&item| item >= full.num_items()) {
                return Err(EngineError::InvalidEvent(format!(
                    "item {item} outside catalogue 0..{}",
                    full.num_items()
                )));
            }
            return Ok(SessionEvent::SetCatalog(sorted));
        }
        SessionEvent::RetuneLambda(lambda) => {
            if !lambda.is_finite() || !(0.0..=1.0).contains(&lambda) {
                return Err(EngineError::InvalidEvent(format!(
                    "lambda {lambda} outside [0, 1]"
                )));
            }
        }
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_core::example::running_example;
    use svgic_core::extensions::DynamicEvent;
    use svgic_obs::telemetry::rate_to_ppm;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            workers: 2,
            auto_flush_pending: 0,
            ..EngineConfig::default()
        })
    }

    fn create(engine: &mut Engine) -> SessionId {
        let view = engine
            .create_session(CreateSession {
                instance: running_example(),
                initial_present: Vec::new(),
                seed: 0xFEED,
            })
            .expect("session created");
        assert!(view.configuration.is_valid(view.catalog.len()));
        view.session
    }

    #[test]
    fn create_solves_immediately() {
        let mut engine = engine();
        let id = create(&mut engine);
        let view = engine.query_configuration(id).unwrap();
        assert_eq!(view.present.len(), 4);
        assert!(view.utility > 0.0);
        assert_eq!(view.staleness, 0);
    }

    #[test]
    fn events_queue_until_flush() {
        let mut engine = engine();
        let id = create(&mut engine);
        let pending = engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        assert_eq!(pending, 1);
        assert_eq!(engine.query_configuration(id).unwrap().staleness, 1);
        engine.flush();
        let view = engine.query_configuration(id).unwrap();
        assert_eq!(view.staleness, 0);
        assert_eq!(view.present, vec![1, 2, 3]);
        assert!(view.configuration.is_valid(view.catalog.len()));
    }

    #[test]
    fn invalid_events_rejected() {
        let mut engine = engine();
        let id = create(&mut engine);
        assert!(matches!(
            engine.submit_event(id, SessionEvent::Membership(DynamicEvent::Join(99))),
            Err(EngineError::InvalidEvent(_))
        ));
        assert!(matches!(
            engine.submit_event(id, SessionEvent::RetuneLambda(1.5)),
            Err(EngineError::InvalidEvent(_))
        ));
        assert!(matches!(
            engine.submit_event(id, SessionEvent::SetCatalog(vec![0])),
            Err(EngineError::InvalidEvent(_))
        ));
        assert!(matches!(
            engine.submit_event(SessionId(999), SessionEvent::RetuneLambda(0.5)),
            Err(EngineError::UnknownSession(_))
        ));
    }

    #[test]
    fn force_resolve_is_full_and_tight() {
        let mut engine = engine();
        let id = create(&mut engine);
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(2)))
            .unwrap();
        let view = engine.force_resolve(id).unwrap();
        assert_eq!(view.present, vec![0, 1, 3]);
        assert!(view.lp_bound + 1e-9 >= view.utility);
        let stats = engine.stats();
        assert!(stats.solves_full >= 1);
    }

    #[test]
    fn only_exact_solves_record_bound_gaps() {
        // The structured ascent's objective is a lower bound on the LP
        // optimum, not an upper bound on the utility: full solves from it
        // are not tight and must record no utility-vs-bound gap.
        for (backend, exact) in [
            (LpBackend::Structured, false),
            (LpBackend::ExactSimplex, true),
        ] {
            let mut engine = Engine::new(EngineConfig {
                workers: 2,
                auto_flush_pending: 0,
                backend,
                ..EngineConfig::default()
            });
            let id = create(&mut engine);
            engine.force_resolve(id).unwrap();
            let stats = engine.stats();
            assert!(stats.solves_full >= 1);
            assert_eq!(stats.gap_samples > 0, exact, "{backend:?}: {stats}");
        }
    }

    #[test]
    fn telemetry_sample_matches_the_stats_snapshot() {
        let mut engine = engine();
        let id = create(&mut engine);
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(1)))
            .unwrap();
        engine.handle(EngineRequest::Flush).unwrap();
        let sample = engine.telemetry_sample();
        let snapshot = engine.stats();
        assert_eq!(sample.requests, snapshot.requests);
        assert_eq!(sample.solves, snapshot.solves());
        assert_eq!(sample.queue_depth, snapshot.total_queue_depth());
        assert_eq!(
            sample.warm_rate_ppm,
            rate_to_ppm(snapshot.warm_start_rate())
        );
        assert_eq!(
            sample.imbalance_ppm,
            rate_to_ppm(snapshot.shard_imbalance())
        );
        assert_eq!(sample.mem_cache_bytes, snapshot.mem_cache_bytes());
        assert_eq!(sample.mem_total_bytes, snapshot.mem_total_bytes());
        assert_eq!(engine.telemetry().last(), Some(&sample));
    }

    #[test]
    fn cache_hits_on_population_revisit() {
        let mut engine = engine();
        let id = create(&mut engine);
        // Leave then rejoin: the second solve revisits the original
        // population fingerprint and must hit the cache.
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(3)))
            .unwrap();
        engine.flush();
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Join(3)))
            .unwrap();
        engine.flush();
        let stats = engine.stats();
        assert!(stats.cache_hits >= 1, "stats: {stats}");
    }

    #[test]
    fn batch_dedup_survives_zero_cache_capacity() {
        // With the factor cache disabled, two sessions needing the same
        // fingerprint in one flush must still share a single LP computation
        // (the within-batch map, not the LRU, carries that guarantee).
        let mut engine = Engine::new(EngineConfig {
            workers: 2,
            shards: 1,
            cache_capacity: 0,
            auto_flush_pending: 0,
            policy: ResolvePolicy {
                // Escalate to a full solve on every event so both sessions
                // need factors for the *same restricted* fingerprint (the
                // session-affine layer can't serve those).
                full_resolve_event_budget: 1,
                ..ResolvePolicy::default()
            },
            ..EngineConfig::default()
        });
        let a = create(&mut engine);
        let b = create(&mut engine);
        engine
            .submit_event(a, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        engine
            .submit_event(b, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        engine.flush();
        let stats = engine.stats();
        assert_eq!(engine.cached_factor_sets(), 0, "cache stays disabled");
        assert!(stats.batch_shared >= 1, "{stats}");
        // Two creates + one shared full re-solve = three computations, not
        // four.
        assert_eq!(stats.cache_misses, 3, "{stats}");
    }

    #[test]
    fn full_resolves_on_fragmented_groups_reuse_untouched_components() {
        // The component layer's contract end to end: a group whose social
        // graph splits into two friend pairs loses one shopper; the full
        // re-solve on the restricted population must reuse the untouched
        // pair's factors (solved as part of the initial base solve) instead
        // of recomputing them.
        use svgic_core::instance::SvgicInstanceBuilder;
        use svgic_graph::SocialGraph;
        let graph = SocialGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let mut builder = SvgicInstanceBuilder::new(graph, 4, 2, 0.5);
        builder.fill_preferences(|u, c| 0.1 + 0.07 * ((u * 4 + c) % 9) as f64);
        builder.fill_social(|u, v, c| 0.05 + 0.03 * ((u + 2 * v + c) % 5) as f64);
        let instance = builder.build().expect("valid instance");

        let mut engine = Engine::new(EngineConfig {
            workers: 2,
            shards: 1,
            auto_flush_pending: 0,
            policy: ResolvePolicy {
                full_resolve_event_budget: 1,
                ..ResolvePolicy::default()
            },
            ..EngineConfig::default()
        });
        let view = engine
            .create_session(CreateSession {
                instance,
                initial_present: Vec::new(),
                seed: 11,
            })
            .expect("session created");
        let id = view.session;
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        engine.flush();
        let view = engine.query_configuration(id).unwrap();
        assert_eq!(view.present, vec![1, 2, 3]);
        assert!(view.configuration.is_valid(view.catalog.len()));
        let stats = engine.stats();
        assert!(stats.solves_full >= 1, "{stats}");
        assert!(
            stats.warm_components_reused >= 1,
            "untouched friend pair must be served from the component cache: {stats}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut engine = engine();
            let id = create(&mut engine);
            engine
                .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(1)))
                .unwrap();
            engine.flush();
            engine
                .submit_event(id, SessionEvent::Membership(DynamicEvent::Join(1)))
                .unwrap();
            engine
                .submit_event(id, SessionEvent::RetuneLambda(0.25))
                .unwrap();
            engine.flush();
            let view = engine.query_configuration(id).unwrap();
            (
                view.configuration.clone(),
                view.utility,
                engine.stats().cache_hits,
            )
        };
        let (config_a, utility_a, hits_a) = run();
        let (config_b, utility_b, hits_b) = run();
        assert_eq!(config_a, config_b);
        assert_eq!(utility_a, utility_b);
        assert_eq!(hits_a, hits_b);
    }

    #[test]
    fn dormant_session_serves_empty_view() {
        let mut engine = engine();
        let id = create(&mut engine);
        for user in 0..4 {
            engine
                .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(user)))
                .unwrap();
        }
        engine.flush();
        let view = engine.query_configuration(id).unwrap();
        assert!(view.present.is_empty());
        assert_eq!(view.utility, 0.0);
        // A join revives it.
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Join(2)))
            .unwrap();
        engine.flush();
        let view = engine.query_configuration(id).unwrap();
        assert_eq!(view.present, vec![2]);
        assert!(view.configuration.is_valid(view.catalog.len()));
    }

    #[test]
    fn migrated_session_serves_identically_and_warm() {
        // Reference run: one engine serves the whole session.
        let mut reference = engine();
        let ref_id = create(&mut reference);
        reference
            .submit_event(ref_id, SessionEvent::Membership(DynamicEvent::Leave(1)))
            .unwrap();
        reference.flush();
        reference
            .submit_event(ref_id, SessionEvent::Membership(DynamicEvent::Join(1)))
            .unwrap();
        reference.flush();
        let want = reference.query_configuration(ref_id).unwrap();

        // Migrated run: same prefix on engine A, then export → import into a
        // fresh engine B mid-stream (with a pending event in flight).
        let mut a = engine();
        let id = create(&mut a);
        a.submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(1)))
            .unwrap();
        a.flush();
        a.submit_event(id, SessionEvent::Membership(DynamicEvent::Join(1)))
            .unwrap();
        let export = a.export_session(id).unwrap();
        assert!(export.has_warm_capital(), "solved sessions carry factors");
        assert_eq!(export.pending.len(), 1, "in-flight events travel along");
        assert!(a.query_configuration(id).is_err(), "exported = gone");
        assert_eq!(a.stats().sessions_exported, 1);

        let mut b = engine();
        let new_id = b.import_session(export);
        b.flush();
        let got = b.query_configuration(new_id).unwrap();
        assert_eq!(got.configuration, want.configuration);
        assert_eq!(got.utility, want.utility);
        assert_eq!(got.present, want.present);
        assert_eq!(got.generation, want.generation);
        let stats = b.stats();
        assert_eq!(stats.sessions_imported, 1);
        // The carried factors serve the post-migration incremental re-solve
        // via session-affine reuse: no LP ran on the receiving engine.
        assert!(
            stats.session_reuse >= 1,
            "migrated warm capital must be reused: {stats}"
        );
        assert_eq!(stats.cache_misses, 0, "no cold LP after migration");
        assert!(stats.warm_start_rate() > 0.0);
    }

    #[test]
    fn shard_queue_gauge_tracks_pending() {
        let mut engine = Engine::new(EngineConfig {
            workers: 2,
            shards: 2,
            auto_flush_pending: 0,
            ..EngineConfig::default()
        });
        let a = create(&mut engine);
        let b = create(&mut engine);
        engine
            .submit_event(a, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        engine
            .submit_event(b, SessionEvent::Membership(DynamicEvent::Leave(1)))
            .unwrap();
        engine
            .submit_event(b, SessionEvent::RetuneLambda(0.4))
            .unwrap();
        let snap = engine.stats();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.total_queue_depth(), 3);
        // Sessions 1 and 2 pin to shards 1 and 0 respectively.
        assert_eq!(snap.shards[(a.0 % 2) as usize].queue_depth, 1);
        assert_eq!(snap.shards[(b.0 % 2) as usize].queue_depth, 2);
        engine.flush();
        let snap = engine.stats();
        assert_eq!(snap.total_queue_depth(), 0, "flush drains the gauges");
        let shard_solves: u64 = snap.shards.iter().map(|s| s.solves).sum();
        assert_eq!(
            shard_solves,
            snap.solves(),
            "per-shard solves account for every solve"
        );
        assert!(snap.shards.iter().any(|s| s.jobs > 0));
    }

    #[test]
    fn a_panicking_pool_job_fails_the_batch_instead_of_hanging() {
        let mut engine = Engine::new(EngineConfig {
            workers: 2,
            shards: 2,
            auto_flush_pending: 0,
            ..EngineConfig::default()
        });
        let a = create(&mut engine);
        let b = create(&mut engine);
        for id in [a, b] {
            engine
                .submit_event(id, SessionEvent::RetuneLambda(0.4))
                .unwrap();
        }
        // The caller runs the lane of the highest busy shard (1), so shard
        // 0's job goes to the pool thread; poison that shard's lock so the
        // job panics there.
        let shard = Arc::clone(&engine.shards[0]);
        let _ = std::thread::spawn(move || {
            let _held = shard.lock().unwrap();
            panic!("poisoning shard 0");
        })
        .join();
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.flush()));
            let _ = done_tx.send(flushed.is_err());
        });
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(panicked) => assert!(panicked, "a batch with a dead shard job cannot complete"),
            Err(_) => panic!("the batch hung waiting for a dead shard job"),
        }
    }

    #[test]
    fn telemetry_samples_on_flush_requests_with_monotone_ticks() {
        let mut engine = engine();
        let id = create(&mut engine);
        assert!(engine.telemetry().is_empty(), "no tick yet");
        for _ in 0..3 {
            engine
                .submit_event(id, SessionEvent::RetuneLambda(0.3))
                .unwrap();
            engine.handle(EngineRequest::Flush).unwrap();
        }
        let samples = engine.telemetry();
        assert_eq!(samples.len(), 3);
        let ticks: Vec<u64> = samples.iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2], "ticks are the flush count");
        let last = samples.last().unwrap();
        assert!(last.requests > 0);
        assert!(last.mem_session_bytes > 0, "live session is accounted");
        assert_eq!(
            last.mem_total_bytes,
            last.mem_session_bytes
                + last.mem_pending_bytes
                + last.mem_served_bytes
                + last.mem_cache_bytes
        );
        // Direct flush() calls (auto-flush path) are not tick boundaries.
        engine.flush();
        assert_eq!(engine.telemetry().len(), 3);
    }

    #[test]
    fn reset_stats_clears_the_ring_and_restarts_the_tick_clock() {
        let mut engine = engine();
        create(&mut engine);
        engine.handle(EngineRequest::Flush).unwrap();
        engine.handle(EngineRequest::Flush).unwrap();
        assert_eq!(engine.telemetry().len(), 2);
        engine.handle(EngineRequest::ResetStats).unwrap();
        assert!(engine.telemetry().is_empty(), "warmup samples discarded");
        engine.handle(EngineRequest::Flush).unwrap();
        let samples = engine.telemetry();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].tick, 0, "tick clock restarts at the boundary");
    }

    #[test]
    fn zero_telemetry_capacity_disables_sampling() {
        let mut engine = Engine::new(EngineConfig {
            workers: 2,
            auto_flush_pending: 0,
            telemetry_capacity: 0,
            ..EngineConfig::default()
        });
        create(&mut engine);
        engine.handle(EngineRequest::Flush).unwrap();
        assert!(engine.telemetry().is_empty());
        let EngineResponse::Telemetry(samples) =
            engine.handle(EngineRequest::QueryTelemetry).unwrap()
        else {
            panic!("wrong response variant");
        };
        assert!(samples.is_empty());
    }

    #[test]
    fn mem_gauges_track_live_state_and_survive_reset() {
        let mut engine = engine();
        let id = create(&mut engine);
        let snap = engine.stats();
        assert!(snap.mem_session_bytes > 0);
        assert!(snap.mem_served_bytes > 0, "initial solve leaves a Served");
        assert_eq!(snap.mem_pending_bytes, 0);
        engine
            .submit_event(id, SessionEvent::RetuneLambda(0.7))
            .unwrap();
        let queued = engine.stats();
        assert!(queued.mem_pending_bytes > 0, "queued event is accounted");
        engine.reset_stats();
        let after = engine.stats();
        assert_eq!(after.requests, 0, "counters reset");
        for (gauge, kept, live) in [
            ("session", after.mem_session_bytes, queued.mem_session_bytes),
            ("pending", after.mem_pending_bytes, queued.mem_pending_bytes),
            ("served", after.mem_served_bytes, queued.mem_served_bytes),
            ("cache", after.mem_cache_bytes(), queued.mem_cache_bytes()),
        ] {
            assert_eq!(
                kept, live,
                "mem_{gauge}_bytes describes live state, not the measurement window"
            );
        }
        engine.close_session(id).unwrap();
        let empty = engine.stats();
        assert_eq!(empty.mem_session_bytes, 0);
        assert_eq!(empty.mem_pending_bytes, 0);
        assert_eq!(empty.mem_served_bytes, 0);
    }

    /// Snapshots `id` and sends the export through the response codec, as a
    /// migration over TCP does; the decode must accept it.
    fn export_survives_the_wire(engine: &mut Engine, id: SessionId) {
        let export = engine.snapshot_session(id).expect("live session");
        let bytes =
            crate::codec::encode_response(&Ok(EngineResponse::SessionExported(Box::new(export))));
        match crate::codec::decode_response(&bytes) {
            Ok(Ok(EngineResponse::SessionExported(_))) => {}
            other => panic!("export does not survive the wire: {other:?}"),
        }
    }

    #[test]
    fn a_dormant_catalogue_change_leaves_no_stale_factors() {
        // Everyone leaves and the catalogue shrinks in one batch: the base is
        // rebuilt without a solve, so factors for the old catalogue must not
        // outlive it.
        let mut engine = engine();
        let id = create(&mut engine);
        for user in 0..4 {
            engine
                .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(user)))
                .unwrap();
        }
        engine
            .submit_event(id, SessionEvent::SetCatalog(vec![0, 1, 2, 3]))
            .unwrap();
        engine.flush();
        assert!(engine.query_configuration(id).unwrap().present.is_empty());
        export_survives_the_wire(&mut engine, id);
    }

    #[test]
    fn full_solves_on_a_partial_population_export_cleanly() {
        // A forced full LP after a leave solves the restricted instance, so
        // the session keeps present × catalogue factors — also once the
        // rest of the group has left and the session is dormant.
        let mut engine = engine();
        let id = create(&mut engine);
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(1)))
            .unwrap();
        let view = engine.force_resolve(id).unwrap();
        assert_eq!(view.present, vec![0, 2, 3]);
        export_survives_the_wire(&mut engine, id);
        for user in [0, 2, 3] {
            engine
                .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(user)))
                .unwrap();
        }
        engine.flush();
        assert!(engine.query_configuration(id).unwrap().present.is_empty());
        export_survives_the_wire(&mut engine, id);
    }

    /// Sends `export` through the response codec, imports it into
    /// `receiver` and flushes; the flush must serve a valid configuration.
    fn import_and_flush(receiver: &mut Engine, export: SessionExport) -> ConfigurationView {
        let bytes =
            crate::codec::encode_response(&Ok(EngineResponse::SessionExported(Box::new(export))));
        let Ok(Ok(EngineResponse::SessionExported(export))) = crate::codec::decode_response(&bytes)
        else {
            panic!("the export decodes");
        };
        let id = receiver.import_session(*export);
        receiver.flush();
        let view = receiver.query_configuration(id).unwrap();
        assert!(view.configuration.is_valid(view.catalog.len()));
        view
    }

    #[test]
    fn imported_factors_of_the_wrong_shape_are_never_reused() {
        // A peer chooses the fingerprint an export carries. Factors over
        // three of four shoppers, labelled with the full base's fingerprint,
        // then a join: reuse must check the shape, not trust the label —
        // the session's own, and the copy the import put in the shard cache,
        // which a new session of the same template looks up.
        let mut receiver = Engine::new(EngineConfig {
            workers: 1,
            shards: 1,
            auto_flush_pending: 0,
            ..EngineConfig::default()
        });
        let mut engine = engine();
        let id = create(&mut engine);
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(1)))
            .unwrap();
        engine.force_resolve(id).unwrap();
        let mut export = engine.snapshot_session(id).unwrap();
        export.last_factor_fingerprint = Some(instance_fingerprint(&export.full));
        export
            .pending
            .push(SessionEvent::Membership(DynamicEvent::Join(1)));
        assert_eq!(
            import_and_flush(&mut receiver, export.clone()).present,
            vec![0, 1, 2, 3]
        );
        let mut fresh = Engine::new(EngineConfig {
            workers: 1,
            shards: 1,
            auto_flush_pending: 0,
            ..EngineConfig::default()
        });
        fresh.import_session(export);
        create(&mut fresh);

        // Factors over four items, labelled with the fingerprint of the
        // five-item base a pending catalogue change is about to build.
        let id = create(&mut engine);
        engine
            .submit_event(id, SessionEvent::SetCatalog(vec![0, 1, 2, 3]))
            .unwrap();
        engine.flush();
        let mut export = engine.snapshot_session(id).unwrap();
        export.last_factor_fingerprint = Some(instance_fingerprint(&export.full));
        export
            .pending
            .push(SessionEvent::SetCatalog(vec![0, 1, 2, 3, 4]));
        assert_eq!(
            import_and_flush(&mut receiver, export).catalog,
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn close_reports_lifetime_events() {
        let mut engine = engine();
        let id = create(&mut engine);
        engine
            .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        engine.flush();
        let lifetime = engine.close_session(id).unwrap();
        assert_eq!(lifetime, 1);
        assert!(engine.query_configuration(id).is_err());
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn typed_request_roundtrip() {
        let mut engine = engine();
        let response = engine
            .handle(EngineRequest::CreateSession(Box::new(CreateSession {
                instance: running_example(),
                initial_present: vec![0, 1],
                seed: 1,
            })))
            .unwrap();
        let EngineResponse::SessionCreated(view) = response else {
            panic!("wrong response variant");
        };
        let id = view.session;
        let response = engine
            .handle(EngineRequest::SubmitEvent(
                id,
                SessionEvent::Membership(DynamicEvent::Join(2)),
            ))
            .unwrap();
        assert!(matches!(
            response,
            EngineResponse::EventAccepted { pending: 1, .. }
        ));
        let response = engine.handle(EngineRequest::ForceResolve(id)).unwrap();
        let EngineResponse::Resolved(view) = response else {
            panic!("wrong response variant");
        };
        assert_eq!(view.present, vec![0, 1, 2]);
        let response = engine.handle(EngineRequest::CloseSession(id)).unwrap();
        assert!(matches!(response, EngineResponse::SessionClosed { .. }));
    }
}
