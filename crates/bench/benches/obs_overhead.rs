//! What observability costs: the same churn-heavy trace served with
//! tracing off (the default) and on, plus the per-call price of a span
//! site in both states.
//!
//! Four gates run **before** any timing:
//!
//! 1. **read-side contract** — the traced run's configuration digest and
//!    solve count equal the untraced run's (tracing observes the engine,
//!    it never steers it);
//! 2. **disabled overhead < 1%** — the measured cost of a disabled span
//!    site (one relaxed atomic load), multiplied by the number of spans
//!    the *enabled* run recorded, must project to less than 1% of the
//!    untraced run's wall time. That is the price every production engine
//!    pays for having the instrumentation compiled in;
//! 3. **sampler overhead < 2%** — the telemetry ring takes one sample per
//!    flush tick (on by default). The measured cost of one
//!    `Engine::telemetry_sample` call, the code the sampler runs, multiplied
//!    by the number of samples the default run pushed, must project to less
//!    than 2% of a sampling-disabled run's wall time — and sampling must not
//!    change the digest or solve count either;
//! 4. **profiler overhead < 2%** — the solve ledger folds one record per
//!    solve (on by default at capacity 128). The measured cost of one
//!    ledger fold, multiplied by the run's solve count, must project to
//!    less than 2% of a profiler-disabled run's wall time — and the
//!    profiled run's digest and solve count must equal the baseline's.
//!
//! Criterion then times the smallest units: one disabled `begin`/`finish`
//! pair vs. one enabled pair (clock read + ring insert).
//!
//! `SVGIC_BENCH_SMOKE=1` (set in CI) shrinks the scenario to smoke size.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use svgic_bench::bench_scale;
use svgic_engine::prelude::*;
use svgic_experiments::ExperimentScale;
use svgic_obs::{ObsConfig, Phase, Tracer};
use svgic_workload::prelude::*;
use svgic_workload::DriverConfig;

const SEED: u64 = 0x0B5E_0BED;

fn scenario() -> Scenario {
    let scenario = Scenario::churn_heavy();
    match bench_scale() {
        ExperimentScale::Smoke => {
            let mut scenario = scenario.smoke();
            scenario.ticks = 6;
            scenario
        }
        _ => scenario,
    }
}

/// Pinned engine shape so solve counters match between the runs. The
/// baseline runs with everything off (telemetry and profiler capacity 0),
/// so each gate below toggles exactly one read-side feature.
fn engine_config(
    obs: ObsConfig,
    telemetry_capacity: usize,
    profile_capacity: usize,
) -> EngineConfig {
    EngineConfig {
        workers: 2,
        shards: 2,
        auto_flush_pending: 0,
        obs,
        telemetry_capacity,
        profile_capacity,
        ..EngineConfig::default()
    }
}

fn driver(obs: ObsConfig) -> LoadDriver {
    LoadDriver::new(DriverConfig {
        engine: engine_config(obs, 0, 0),
        ..DriverConfig::default()
    })
}

/// Measures one `begin`/`finish` pair on `tracer`, averaged over `calls`.
fn span_site_seconds(tracer: &Tracer, calls: u32) -> f64 {
    // lint: allow(wall-clock, benchmark timing is the measurement itself)
    let started = Instant::now();
    for i in 0..calls {
        let span = tracer.begin();
        tracer.finish(span, Phase::Submit, u64::from(i), 0, 0);
    }
    started.elapsed().as_secs_f64() / f64::from(calls)
}

fn obs_overhead(c: &mut Criterion) {
    let trace = generate(&scenario(), SEED);

    // --- Run 1: tracing off (the production default) ---
    let off = driver(ObsConfig::disabled()).run(&trace);

    // --- Run 2: tracing on, same trace, spans kept for the projection ---
    let mut engine = Engine::new(engine_config(ObsConfig::enabled(), 0, 0));
    let on = driver(ObsConfig::disabled()).run_on(&mut engine, &trace);
    let spans_recorded = engine.tracer().recorded();

    // --- Gate 1: tracing never changes what is served ---
    assert_eq!(
        off.config_digest, on.config_digest,
        "tracing must not change the served configurations"
    );
    assert_eq!(
        off.engine.solves(),
        on.engine.solves(),
        "tracing must add zero solver work"
    );
    assert!(
        spans_recorded > 0,
        "the enabled run must actually record spans"
    );

    // --- Gate 2: the disabled path projects to < 1% of wall time ---
    let disabled_tracer = Tracer::new(ObsConfig::disabled());
    let per_call = span_site_seconds(&disabled_tracer, 1_000_000);
    let projected = per_call * spans_recorded as f64;
    let budget = off.wall_seconds * 0.01;
    println!("{:<22} {:>14} {:>14}", "run", "wall (s)", "spans");
    println!("{:<22} {:>14.4} {:>14}", "tracing off", off.wall_seconds, 0);
    println!(
        "{:<22} {:>14.4} {:>14}",
        "tracing on", on.wall_seconds, spans_recorded
    );
    println!(
        "disabled span site ≈ {:.2} ns/call; {} sites project to {:.3} µs \
         ({:.4}% of the untraced run)",
        per_call * 1e9,
        spans_recorded,
        projected * 1e6,
        100.0 * projected / off.wall_seconds.max(1e-12),
    );
    assert!(
        projected < budget,
        "disabled-path overhead projects to {projected:.6}s, over the 1% budget \
         ({budget:.6}s) for this run"
    );

    // --- Run 3: telemetry sampling at the default capacity, same trace ---
    let default_capacity = EngineConfig::default().telemetry_capacity;
    let mut sampled_engine = Engine::new(engine_config(ObsConfig::disabled(), default_capacity, 0));
    let sampled = driver(ObsConfig::disabled()).run_on(&mut sampled_engine, &trace);
    let samples = sampled_engine.telemetry();

    // --- Gate 3: sampling is read-side and projects to < 2% of wall time ---
    assert_eq!(
        off.config_digest, sampled.config_digest,
        "telemetry sampling must not change the served configurations"
    );
    assert_eq!(
        off.engine.solves(),
        sampled.engine.solves(),
        "telemetry sampling must add zero solver work"
    );
    assert!(
        !samples.is_empty(),
        "the sampled run must actually push telemetry samples"
    );
    assert!(
        samples.windows(2).all(|pair| pair[0].tick < pair[1].tick),
        "the ring's tick axis must be strictly increasing"
    );
    // One sample costs one `Engine::telemetry_sample` call, the code the
    // sampler runs (the ring push is a memcpy); measure it on the engine the
    // run just filled, so the per-sample price reflects a
    // realistically-populated session store.
    let per_sample = {
        let calls = 1_000u32;
        // lint: allow(wall-clock, benchmark timing is the measurement itself)
        let started = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(sampled_engine.telemetry_sample());
        }
        started.elapsed().as_secs_f64() / f64::from(calls)
    };
    let sampler_projected = per_sample * samples.len() as f64;
    let sampler_budget = off.wall_seconds * 0.02;
    println!(
        "telemetry sample ≈ {:.2} µs/sample; {} samples project to {:.3} µs \
         ({:.4}% of the sampling-off run)",
        per_sample * 1e6,
        samples.len(),
        sampler_projected * 1e6,
        100.0 * sampler_projected / off.wall_seconds.max(1e-12),
    );
    assert!(
        sampler_projected < sampler_budget,
        "telemetry sampling projects to {sampler_projected:.6}s, over the 2% budget \
         ({sampler_budget:.6}s) for this run"
    );

    // --- Run 4: the solve ledger at the default capacity, same trace ---
    let default_profile = EngineConfig::default().profile_capacity;
    let mut profiled_engine = Engine::new(engine_config(ObsConfig::disabled(), 0, default_profile));
    let profiled = driver(ObsConfig::disabled()).run_on(&mut profiled_engine, &trace);
    let ledger = profiled_engine.profile();

    // --- Gate 4: profiling is read-side and projects to < 2% of wall time ---
    assert_eq!(
        off.config_digest, profiled.config_digest,
        "the solve ledger must not change the served configurations"
    );
    assert_eq!(
        off.engine.solves(),
        profiled.engine.solves(),
        "the solve ledger must add zero solver work"
    );
    assert!(
        !ledger.entries.is_empty(),
        "the profiled run must actually attribute solves"
    );
    let attributed: u64 = ledger
        .entries
        .iter()
        .map(|entry| entry.warm_solves + entry.cold_solves)
        .sum();
    assert_eq!(
        attributed,
        profiled.engine.solves(),
        "every solve must land in the ledger"
    );
    // One solve costs one ledger fold; measure it on a ledger warmed to the
    // run's real template population so the BTreeMap depth is realistic.
    let per_record = {
        let mut warmed = svgic_engine::SolveLedger::new(default_profile);
        for entry in &ledger.entries {
            warmed.record(entry.template_fingerprint, 1, false, 1);
        }
        let calls = 1_000_000u32;
        // lint: allow(wall-clock, benchmark timing is the measurement itself)
        let started = Instant::now();
        for i in 0..calls {
            let fp = ledger.entries[i as usize % ledger.entries.len()].template_fingerprint;
            warmed.record(fp, u64::from(i), i % 2 == 0, 100);
        }
        std::hint::black_box(&warmed);
        started.elapsed().as_secs_f64() / f64::from(calls)
    };
    let profiler_projected = per_record * profiled.engine.solves() as f64;
    let profiler_budget = off.wall_seconds * 0.02;
    println!(
        "ledger fold ≈ {:.2} ns/solve; {} solves project to {:.3} µs \
         ({:.4}% of the profiler-off run)",
        per_record * 1e9,
        profiled.engine.solves(),
        profiler_projected * 1e6,
        100.0 * profiler_projected / off.wall_seconds.max(1e-12),
    );
    assert!(
        profiler_projected < profiler_budget,
        "ledger folding projects to {profiler_projected:.6}s, over the 2% budget \
         ({profiler_budget:.6}s) for this run"
    );

    // --- Criterion: the smallest units ---
    c.bench_function("span_site_disabled", |b| {
        b.iter(|| {
            let span = disabled_tracer.begin();
            disabled_tracer.finish(span, Phase::Submit, 0, 0, 0);
        })
    });
    let enabled_tracer = Tracer::new(ObsConfig::enabled());
    c.bench_function("span_site_enabled", |b| {
        b.iter(|| {
            let span = enabled_tracer.begin();
            enabled_tracer.finish(span, Phase::Submit, 0, 0, 0);
        })
    });
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
