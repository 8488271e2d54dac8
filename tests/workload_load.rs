//! Engine-under-load integration tests plus the determinism audit.
//!
//! * Every named scenario (at smoke size) must drive a fresh engine end to
//!   end: valid configurations only, full session lifecycle, non-zero
//!   throughput.
//! * Determinism audit: the same `(scenario, seed)` must yield byte-identical
//!   traces, and driving the generated trace, a re-generated trace, and a
//!   trace round-tripped through the text format must all serve **identical**
//!   configurations (equal digests).

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
            (outcome.config_digest, outcome.engine.solves())
        };
        let expected = served(1, 1);
        assert!(expected.1 > 0, "{}: nothing was solved", scenario.name);
        for (workers, shards) in [(1, 4), (2, 2), (2, 4), (3, 2)] {
            assert_eq!(
                served(workers, shards),
                expected,
                "{}: {workers} workers on {shards} shards serve differently from 1 on 1",
                scenario.name
            );
        }
    }
}
