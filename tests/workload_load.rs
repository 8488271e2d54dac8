//! Engine-under-load integration tests plus the determinism audit.
//!
//! * Every named scenario (at smoke size) must drive a fresh engine end to
//!   end: valid configurations only, full session lifecycle, non-zero
//!   throughput.
//! * Determinism audit: the same `(scenario, seed)` must yield byte-identical
//!   traces, and driving the generated trace, a re-generated trace, and a
//!   trace round-tripped through the text format must all serve **identical**
//!   configurations (equal digests).

use svgic::engine::{EngineError, EngineTransport};
use svgic::prelude::*;
use svgic::workload::report::REPORT_SCHEMA;

fn smoke(name: &str) -> Scenario {
    let mut scenario = Scenario::by_name(name).expect("named scenario").smoke();
    scenario.ticks = scenario.ticks.min(4);
    scenario
}

#[test]
fn every_scenario_drives_the_engine_under_load() {
    for scenario in Scenario::all() {
        let scenario = smoke(&scenario.name);
        let trace = generate(&scenario, 0xBEEF);
        let outcome = LoadDriver::new(DriverConfig::default()).run(&trace);
        assert!(
            outcome.requests > 0,
            "{}: no requests driven",
            scenario.name
        );
        assert!(
            outcome.throughput_rps() > 0.0,
            "{}: zero throughput",
            scenario.name
        );
        // Full lifecycle: everything opened was closed (trace or final sweep)
        // and nothing was rejected along the way (the driver panics on
        // rejection).
        assert_eq!(
            outcome.engine.sessions_created, outcome.engine.sessions_closed,
            "{}: sessions leaked",
            scenario.name
        );
        assert_eq!(outcome.sessions as usize, trace.session_count());
    }
}

#[test]
fn determinism_audit_traces_and_configurations() {
    let scenario = smoke("flash-sale");

    // Byte-identical traces from the same seed.
    let trace_a = generate(&scenario, 7);
    let trace_b = generate(&scenario, 7);
    assert_eq!(
        trace_a.render(),
        trace_b.render(),
        "same (scenario, seed) must serialize byte-identically"
    );

    // Identical served configurations end-to-end: generated trace vs its
    // text-format round trip vs an independent regeneration.
    let driver = LoadDriver::new(DriverConfig::default());
    let direct = driver.run(&trace_a);
    let roundtrip: Trace = trace_a.render().parse().expect("canonical text parses");
    let replayed = driver.run(&roundtrip);
    let regenerated = driver.run(&trace_b);
    assert_eq!(direct.config_digest, replayed.config_digest);
    assert_eq!(direct.config_digest, regenerated.config_digest);
    assert_eq!(direct.engine.solves(), replayed.engine.solves());
    assert_eq!(direct.engine.cache_hits, replayed.engine.cache_hits);

    // A different seed must actually change what is served.
    let other = driver.run(&generate(&scenario, 8));
    assert_ne!(direct.config_digest, other.config_digest);
}

#[test]
fn closed_loop_mode_also_replays_deterministically() {
    let scenario = smoke("steady-mall");
    let trace = generate(&scenario, 3);
    let driver = LoadDriver::new(DriverConfig {
        mode: DriveMode::ClosedLoop,
        ..DriverConfig::default()
    });
    let a = driver.run(&trace);
    let b = driver.run(&trace);
    assert_eq!(a.config_digest, b.config_digest);
    // Closed-loop flushes per event, so it can never solve less than the
    // batched open loop.
    let open = LoadDriver::new(DriverConfig::default()).run(&trace);
    assert!(a.engine.solves() >= open.engine.solves());
}

#[test]
fn load_report_serializes_engine_snapshot_without_rederiving() {
    let scenario = smoke("churn-heavy");
    let trace = generate(&scenario, 11);
    let outcome = LoadDriver::new(DriverConfig::default()).run(&trace);
    let snapshot_rate = outcome.engine.cache_hit_rate();
    let report = LoadReport::new(&trace, outcome);
    let json = report.to_json();
    assert!(json.contains(REPORT_SCHEMA));
    assert!(json.contains("\"throughput_rps\""));
    assert!(json.contains("\"p50\"") && json.contains("\"p95\"") && json.contains("\"p99\""));
    // The engine block carries the snapshot's own derived rate verbatim.
    assert!(
        json.contains(&format!("\"cache_hit_rate\": {snapshot_rate}")),
        "report must embed the snapshot-computed rate, got:\n{json}"
    );
}

/// Served configurations do not depend on the engine's shape: a churn-heavy
/// and a steady-mall trace each get one config digest and one solve count
/// on every (workers, shards) pair — one worker running several shards
/// itself, and the calling thread taking one of several lanes.
#[test]
fn served_configurations_do_not_depend_on_engine_shape() {
    let churn = Scenario {
        ticks: 24,
        ..Scenario::churn_heavy().smoke()
    };
    for scenario in [churn, Scenario::steady_mall().smoke()] {
        let trace = generate(&scenario, 11);
        let served = |workers: usize, shards: usize| {
            let mut config = DriverConfig::default();
            config.engine.workers = workers;
            config.engine.shards = shards;
            let outcome = LoadDriver::new(config).run(&trace);
            let counters: Vec<(String, f64)> = outcome
                .engine
                .metrics()
                .into_iter()
                .filter(|(name, _)| !carries_wall_clock(name))
                .collect();
            ((outcome.config_digest, outcome.engine.solves()), counters)
        };
        let (expected, _) = served(1, 1);
        assert!(expected.1 > 0, "{}: nothing was solved", scenario.name);
        let mut counters = std::collections::BTreeMap::new();
        for (workers, shards) in [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)] {
            let (got, counted) = served(workers, shards);
            assert_eq!(
                got, expected,
                "{}: {workers} workers on {shards} shards serve differently from 1 on 1",
                scenario.name
            );
            counters.insert((workers, shards), counted);
        }
        // Which thread ran a shard job must not change what was counted:
        // with the shard count fixed, every counter (per-shard rows
        // included) reads the same on one worker as on two.
        for shards in [2, 4] {
            assert_eq!(
                counters[&(2, shards)],
                counters[&(1, shards)],
                "{}: 2 workers count differently from 1 on {shards} shards",
                scenario.name
            );
        }
    }
}

/// Whether a `metrics()` key carries wall-clock time: latencies and
/// durations, the busy-time skew, and the SLO burns and health derived
/// from latencies.
fn carries_wall_clock(name: &str) -> bool {
    name.ends_with("_seconds")
        || name == "shard_imbalance"
        || name.starts_with("slo_")
        || name == "health"
}

/// An in-process engine that checks its gauges after every request: each
/// request returns only once its batch has, so the queue-depth and cache
/// gauges in `stats()` must equal the live state exactly.
struct GaugeCheckedEngine {
    engine: Engine,
    flushes: usize,
}

impl EngineTransport for GaugeCheckedEngine {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        self.flushes += usize::from(matches!(request, EngineRequest::Flush));
        let response = self.engine.handle(request);
        let stats = self.engine.stats();
        assert_eq!(
            stats.total_cache_entries(),
            self.engine.cached_factor_sets() as u64,
            "cache gauge after request {}",
            stats.requests
        );
        assert_eq!(
            stats.total_queue_depth(),
            self.engine.pending_events() as u64,
            "queue gauge after request {}",
            stats.requests
        );
        response
    }
}

#[test]
fn gauges_are_exact_when_a_batch_returns() {
    let scenario = Scenario {
        ticks: 24,
        ..Scenario::churn_heavy().smoke()
    };
    let trace = generate(&scenario, 5);
    let config = DriverConfig::default();
    let mut checked = GaugeCheckedEngine {
        engine: Engine::new(EngineConfig {
            workers: 3,
            shards: 6,
            ..config.engine.clone()
        }),
        flushes: 0,
    };
    let outcome = LoadDriver::new(config).run_on(&mut checked, &trace);
    assert!(checked.flushes > 0, "the trace never flushed");
    assert!(outcome.engine.solves() > 0, "nothing was solved");
}
