//! The load driver: feeds a trace into `svgic-engine` and measures it.
//!
//! Two drive modes:
//!
//! * **Open loop** ([`DriveMode::OpenLoop`]) — events are submitted as fast
//!   as possible and the engine is flushed once per trace tick, exactly as
//!   the batched serving deployment runs. Submission latency and flush
//!   latency are recorded separately.
//! * **Closed loop** ([`DriveMode::ClosedLoop`]) — after every submitted
//!   event the driver flushes and waits for the fresh configuration, modeling
//!   a client that blocks on every update. This is the per-event latency
//!   worst case and the baseline the batched mode is compared against.
//!
//! Besides wall-clock measurements (log-bucketed histograms per request
//! class, sustained throughput) the driver folds every query response into a
//! deterministic **configuration digest**: replaying the same trace in the
//! same mode must reproduce the identical digest, which is how regressions
//! in served configurations are caught across machines.

use std::collections::HashMap;
use std::time::Instant;

use svgic_core::extensions::DynamicEvent;
use svgic_core::SvgicInstance;
use svgic_engine::fingerprint::Fnv;
use svgic_engine::prelude::*;
use svgic_engine::{CreateSession, TelemetrySample};

use crate::trace::{Trace, TraceEvent};
use crate::LatencyHistogram;

/// How the driver paces the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveMode {
    /// Batched: flush once per trace tick.
    OpenLoop,
    /// Per-event: flush after every submitted event.
    ClosedLoop,
}

impl DriveMode {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            DriveMode::OpenLoop => "open-loop",
            DriveMode::ClosedLoop => "closed-loop",
        }
    }
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Pacing mode.
    pub mode: DriveMode,
    /// Ticks to drive before measurement starts. At the warmup boundary the
    /// engine counters are reset ([`Engine::reset_stats`]) **keeping its
    /// caches warm**, and the driver's latency/quality/throughput accounting
    /// restarts — so reports describe steady-state traffic only. `0` (the
    /// default) measures the whole run. The configuration digest always
    /// covers the full run, so the replay contract is warmup-independent.
    pub warmup_ticks: usize,
    /// Engine under test.
    pub engine: EngineConfig,
}

impl Default for DriverConfig {
    fn default() -> Self {
        let engine = EngineConfig {
            // The driver owns the batch clock; spontaneous auto-flushes would
            // blur the open/closed-loop distinction.
            auto_flush_pending: 0,
            ..EngineConfig::default()
        };
        DriverConfig {
            mode: DriveMode::OpenLoop,
            warmup_ticks: 0,
            engine,
        }
    }
}

/// Per-request-class latency histograms.
#[derive(Clone, Debug, Default)]
pub struct LatencyBreakdown {
    /// `CreateSession` (includes the initial solve).
    pub create: LatencyHistogram,
    /// Event submission (queueing only in open loop; in closed loop the
    /// matching flush is measured separately under `flush`).
    pub submit: LatencyHistogram,
    /// Configuration reads.
    pub query: LatencyHistogram,
    /// Engine flushes (one per tick in open loop, one per event in closed).
    pub flush: LatencyHistogram,
    /// Session closes.
    pub close: LatencyHistogram,
}

impl LatencyBreakdown {
    /// All classes merged into one histogram.
    pub fn all(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for h in [
            &self.create,
            &self.submit,
            &self.query,
            &self.flush,
            &self.close,
        ] {
            all.merge(h);
        }
        all
    }
}

/// Utility-vs-bound quality accumulated over query responses under load.
#[derive(Clone, Copy, Debug, Default)]
pub struct QualityUnderLoad {
    /// Query responses with a non-empty configuration.
    pub samples: u64,
    /// Sum of served SAVG utilities.
    pub utility_sum: f64,
    /// Sum of LP bounds associated with the served solutions.
    pub bound_sum: f64,
}

impl QualityUnderLoad {
    /// Mean served utility (zero when no samples).
    pub fn mean_utility(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.utility_sum / self.samples as f64
        }
    }

    /// Aggregate utility / bound ratio in `[0, 1]`-ish (zero when unknown).
    pub fn bound_ratio(&self) -> f64 {
        if self.bound_sum <= 0.0 {
            0.0
        } else {
            self.utility_sum / self.bound_sum
        }
    }
}

/// Everything one driver run produced.
///
/// With a non-zero [`DriverConfig::warmup_ticks`], the measured fields
/// (`wall_seconds`, `requests`, `latency`, `quality`, `engine`) cover only
/// the post-warmup window; `trace_events`, `sessions` and `config_digest`
/// always cover the full run.
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// Pacing mode the run used.
    pub mode: DriveMode,
    /// Wall-clock duration of the measured window.
    pub wall_seconds: f64,
    /// Engine requests issued in the measured window
    /// (create/submit/query/close; flushes excluded).
    pub requests: u64,
    /// Trace events consumed (including ticks), whole run.
    pub trace_events: usize,
    /// Sessions opened over the whole run.
    pub sessions: u64,
    /// Workers the engine actually ran with, the calling thread included
    /// (resolved by the engine, so reports never re-derive the `0 = one
    /// per core` default).
    pub workers: usize,
    /// Per-class latency histograms.
    pub latency: LatencyBreakdown,
    /// Quality of served configurations sampled at queries.
    pub quality: QualityUnderLoad,
    /// Deterministic digest over every query response (and the final sweep).
    pub config_digest: u64,
    /// Engine counters at the end of the run.
    pub engine: StatsSnapshot,
    /// The engine's per-tick telemetry ring at the end of the run, oldest
    /// sample first (empty when the engine samples with capacity 0). With
    /// warmup, the ring restarts at the boundary along with the counters, so
    /// the series covers the measured window only.
    pub telemetry: Vec<TelemetrySample>,
}

impl LoadOutcome {
    /// Sustained request throughput (requests per wall-clock second).
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.requests as f64 / self.wall_seconds
        }
    }
}

/// Folds one query response into the digest (the engine's own FNV-1a word
/// hasher, so both sides of the cache key / replay story share one
/// implementation). Shared with the cluster driver, whose digests must be
/// comparable with single-engine runs.
pub(crate) fn digest_view(hasher: &mut Fnv, key: u64, view: &ConfigurationView) {
    hasher.write_u64(key);
    hasher.write_u64(view.generation);
    hasher.write_u64(view.present.len() as u64);
    for &user in &view.present {
        hasher.write_u64(user as u64);
    }
    hasher.write_u64(view.catalog.len() as u64);
    for &item in &view.catalog {
        hasher.write_u64(item as u64);
    }
    for user in 0..view.configuration.num_users() {
        for &item in view.configuration.items_of(user) {
            hasher.write_u64(item as u64);
        }
    }
    hasher.write_f64(view.utility);
}

/// The trace-driven load driver.
#[derive(Clone, Debug, Default)]
pub struct LoadDriver {
    config: DriverConfig,
}

impl LoadDriver {
    /// Builds a driver.
    pub fn new(config: DriverConfig) -> Self {
        LoadDriver { config }
    }

    /// Drives `trace` through a fresh in-process engine and measures it.
    ///
    /// Panics if the trace references unknown session keys or the engine
    /// rejects an event — traces produced by [`crate::synth::generate`] are
    /// valid by construction, so a rejection means the trace file was edited
    /// or corrupted.
    pub fn run(&self, trace: &Trace) -> LoadOutcome {
        let mut engine = Engine::new(self.config.engine.clone());
        self.run_on(&mut engine, trace)
    }

    /// Drives `trace` through any [`EngineTransport`] backend — the
    /// in-process engine, or a `svgic_net::NetClient` connected to a
    /// `loadgen serve` process (`loadgen --connect host:port`). The
    /// backend's own engine configuration applies;
    /// [`DriverConfig::engine`] is only used by [`LoadDriver::run`].
    ///
    /// Because the engine is deterministic and the wire codec canonical,
    /// `run_on` produces the identical `config_digest` through any backend;
    /// only the measured latencies differ (they include the transport).
    pub fn run_on<B: EngineTransport>(&self, mut engine: &mut B, trace: &Trace) -> LoadOutcome {
        let instances: Vec<SvgicInstance> =
            trace.templates.iter().map(|spec| spec.build()).collect();

        let workers = engine.describe().expect("backend describes itself").workers;
        // A remote backend may be a long-lived `loadgen serve` process that
        // already served earlier runs; start this run's counters from zero
        // so the reported stats cover exactly this trace. (A no-op for the
        // freshly built in-process engine — and never a digest concern,
        // since counters don't influence serving.)
        engine.reset_stats().expect("backend resets stats");
        let mut sessions: HashMap<u64, SessionId> = HashMap::new();
        let mut latency = LatencyBreakdown::default();
        let mut quality = QualityUnderLoad::default();
        let mut digest = Fnv::new();
        let mut requests = 0u64;
        let mut sessions_opened = 0u64;
        let closed_loop = self.config.mode == DriveMode::ClosedLoop;

        // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
        let mut started = Instant::now();
        let mut warming = self.config.warmup_ticks > 0;
        for event in &trace.events {
            match event {
                TraceEvent::Tick(tick) => {
                    if !closed_loop {
                        // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                        let t0 = Instant::now();
                        engine.flush().expect("backend flushes");
                        latency.flush.record(t0.elapsed());
                    }
                    if warming && *tick >= self.config.warmup_ticks {
                        // Warmup boundary: the flush above still belonged to
                        // the warmup window. Reset the engine counters (its
                        // caches stay warm) and restart measurement.
                        warming = false;
                        engine.reset_stats().expect("backend resets stats");
                        latency = LatencyBreakdown::default();
                        quality = QualityUnderLoad::default();
                        requests = 0;
                        // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                        started = Instant::now();
                    }
                }
                TraceEvent::Open {
                    key,
                    template,
                    seed,
                    present,
                } => {
                    // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                    let t0 = Instant::now();
                    let view = engine
                        .create_session(CreateSession {
                            instance: instances[*template].clone(),
                            initial_present: present.clone(),
                            seed: *seed,
                        })
                        .expect("trace opens a valid session");
                    latency.create.record(t0.elapsed());
                    requests += 1;
                    sessions_opened += 1;
                    assert!(
                        view.present.is_empty() || view.configuration.is_valid(view.catalog.len()),
                        "engine served an invalid initial configuration"
                    );
                    sessions.insert(*key, view.session);
                }
                TraceEvent::Join { key, user } | TraceEvent::Leave { key, user } => {
                    let id = sessions[key];
                    let membership = match event {
                        TraceEvent::Join { .. } => DynamicEvent::Join(*user),
                        _ => DynamicEvent::Leave(*user),
                    };
                    self.submit(
                        &mut engine,
                        id,
                        SessionEvent::Membership(membership),
                        &mut latency,
                        &mut requests,
                    );
                }
                TraceEvent::Catalog { key, items } => {
                    let id = sessions[key];
                    self.submit(
                        &mut engine,
                        id,
                        SessionEvent::SetCatalog(items.clone()),
                        &mut latency,
                        &mut requests,
                    );
                }
                TraceEvent::Lambda { key, value } => {
                    let id = sessions[key];
                    self.submit(
                        &mut engine,
                        id,
                        SessionEvent::RetuneLambda(*value),
                        &mut latency,
                        &mut requests,
                    );
                }
                TraceEvent::Query { key } => {
                    let id = sessions[key];
                    // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                    let t0 = Instant::now();
                    let view = engine.query_configuration(id).expect("live session");
                    latency.query.record(t0.elapsed());
                    requests += 1;
                    self.observe(*key, &view, &mut digest, &mut quality);
                }
                TraceEvent::Close { key } => {
                    let id = sessions.remove(key).expect("trace closes a live session");
                    // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                    let t0 = Instant::now();
                    engine.close_session(id).expect("close succeeds");
                    latency.close.record(t0.elapsed());
                    requests += 1;
                }
            }
        }

        // Final sweep: flush leftovers and digest every still-open session so
        // a truncated-but-parseable trace still yields a comparable digest.
        engine.flush().expect("backend flushes");
        let mut leftovers: Vec<(u64, SessionId)> = sessions.into_iter().collect();
        leftovers.sort_unstable();
        for (key, id) in leftovers {
            let view = engine.query_configuration(id).expect("live session");
            self.observe(key, &view, &mut digest, &mut quality);
            engine.close_session(id).expect("close succeeds");
            requests += 2;
        }
        let wall_seconds = started.elapsed().as_secs_f64();

        LoadOutcome {
            mode: self.config.mode,
            wall_seconds,
            requests,
            trace_events: trace.events.len(),
            sessions: sessions_opened,
            workers,
            latency,
            quality,
            config_digest: digest.finish(),
            engine: engine.stats().expect("backend reports stats"),
            telemetry: engine.query_telemetry().expect("backend reports telemetry"),
        }
    }

    fn submit<B: EngineTransport>(
        &self,
        engine: &mut B,
        id: SessionId,
        event: SessionEvent,
        latency: &mut LatencyBreakdown,
        requests: &mut u64,
    ) {
        // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
        let t0 = Instant::now();
        engine
            .submit_event(id, event)
            .expect("trace event is valid");
        latency.submit.record(t0.elapsed());
        *requests += 1;
        if self.config.mode == DriveMode::ClosedLoop {
            // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
            let t0 = Instant::now();
            engine.flush().expect("backend flushes");
            latency.flush.record(t0.elapsed());
        }
    }

    fn observe(
        &self,
        key: u64,
        view: &ConfigurationView,
        digest: &mut Fnv,
        quality: &mut QualityUnderLoad,
    ) {
        digest_view(digest, key, view);
        if !view.present.is_empty() {
            assert!(
                view.configuration.is_valid(view.catalog.len()),
                "engine served an invalid configuration under load"
            );
            quality.samples += 1;
            quality.utility_sum += view.utility;
            quality.bound_sum += view.lp_bound;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::synth::generate;
    use svgic_obs::telemetry::RATE_PPM;

    fn tiny_trace() -> Trace {
        let mut scenario = Scenario::steady_mall().smoke();
        scenario.ticks = 3;
        generate(&scenario, 5)
    }

    #[test]
    fn open_loop_run_is_deterministic() {
        let trace = tiny_trace();
        let default = DriverConfig::default();
        // One shard per core, then one shard and four shards whatever the
        // core count.
        for (workers, shards) in [
            (default.engine.workers, default.engine.shards),
            (1, 1),
            (2, 4),
        ] {
            let mut config = default.clone();
            config.engine.workers = workers;
            config.engine.shards = shards;
            let driver = LoadDriver::new(config);
            let a = driver.run(&trace);
            let b = driver.run(&trace);
            assert_eq!(a.config_digest, b.config_digest);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.engine.solves(), b.engine.solves());
            assert!(a.requests > 0);
            assert!(a.throughput_rps() > 0.0);
            assert_eq!(a.sessions as usize, trace.session_count());
            // Every session was closed by the trace (or the final sweep).
            assert_eq!(a.engine.sessions_created, a.engine.sessions_closed);
            // The default engine samples its telemetry ring on every driver
            // flush: one sample per tick plus the final sweep, ticks monotone.
            assert!(!a.telemetry.is_empty());
            assert!(a.telemetry.windows(2).all(|w| w[0].tick < w[1].tick));
            let masked = |outcome: &LoadOutcome| -> Vec<TelemetrySample> {
                outcome
                    .telemetry
                    .iter()
                    .map(|s| s.without_busy_time())
                    .collect()
            };
            assert_eq!(masked(&a), masked(&b), "telemetry is deterministic");
            // The masked field is max/mean of the shards' busy time: no
            // shard has run yet, or a ratio in [1, shards].
            let shard_count = a.engine.shards.len() as u64;
            for sample in a.telemetry.iter().chain(&b.telemetry) {
                let imbalance = sample.imbalance_ppm;
                assert!(
                    imbalance == 0 || (RATE_PPM..=shard_count * RATE_PPM).contains(&imbalance),
                    "imbalance {imbalance} ppm outside [1, {shard_count}] at tick {}",
                    sample.tick
                );
            }
            assert!(a.telemetry.iter().any(|s| s.requests > 0));
        }
    }

    #[test]
    fn closed_loop_solves_at_least_as_often() {
        let trace = tiny_trace();
        let open = LoadDriver::new(DriverConfig::default()).run(&trace);
        let closed = LoadDriver::new(DriverConfig {
            mode: DriveMode::ClosedLoop,
            ..DriverConfig::default()
        })
        .run(&trace);
        assert!(
            closed.engine.solves() >= open.engine.solves(),
            "closed {} vs open {}",
            closed.engine.solves(),
            open.engine.solves()
        );
        assert!(closed.requests == open.requests);
    }

    #[test]
    fn warmup_excludes_counters_but_not_the_digest() {
        let mut scenario = Scenario::steady_mall().smoke();
        scenario.ticks = 4;
        let trace = generate(&scenario, 9);
        let full = LoadDriver::new(DriverConfig::default()).run(&trace);
        let warmed = LoadDriver::new(DriverConfig {
            warmup_ticks: 2,
            ..DriverConfig::default()
        })
        .run(&trace);
        // Identical served configurations: warmup only moves the measurement
        // boundary, it never changes what the engine does.
        assert_eq!(full.config_digest, warmed.config_digest);
        assert_eq!(full.sessions, warmed.sessions);
        // But the measured window shrank, and the engine counters were reset
        // at the boundary while its caches stayed warm.
        assert!(warmed.requests < full.requests);
        assert!(warmed.engine.requests < full.engine.requests);
        assert!(warmed.latency.all().count() < full.latency.all().count());
    }

    #[test]
    fn quality_and_latency_are_populated() {
        let trace = tiny_trace();
        let outcome = LoadDriver::new(DriverConfig::default()).run(&trace);
        assert!(outcome.quality.samples > 0);
        assert!(outcome.quality.mean_utility() > 0.0);
        // Bounds are loose for incremental solves, so the ratio is only a
        // sanity band here, not an approximation-guarantee check.
        let ratio = outcome.quality.bound_ratio();
        assert!(ratio > 0.0 && ratio.is_finite(), "bound ratio {ratio}");
        assert!(!outcome.latency.create.is_empty());
        assert!(!outcome.latency.flush.is_empty());
        assert!(outcome.latency.all().count() >= outcome.requests);
    }
}
