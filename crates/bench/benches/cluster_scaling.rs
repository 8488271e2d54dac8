//! Cluster scale-out on the `flash-sale` scenario: 1 vs 2 vs 4 nodes, plus
//! the cost of a live migration.
//!
//! Every node runs a **fixed-capacity** engine (1 worker, 4 pinned shards) —
//! the scale-out question is "does adding nodes add capacity", not "does one
//! node parallelize internally" (PR 3's sharding already covers that).
//! Because the fabric is in-process, the nodes of this simulation share one
//! host; the driver therefore accounts a per-node **busy clock**, and
//! aggregate throughput is projected over the critical path
//! (`requests / (max node busy + fabric)`), exactly as independent machines
//! would serve. Wall-clock numbers are reported alongside for honesty.
//!
//! Gates, before any timing:
//!
//! * digest equality across all topologies (the 2- and 4-node runs include a
//!   live mid-run migration + rebalance) — topology must never change what
//!   is served;
//! * identical fleet-wide solve counts — partitioning neither duplicates nor
//!   drops work;
//! * ≥ 2x aggregate throughput at 4 nodes vs 1 at full scale (the smoke run
//!   keeps a softer > 1.2x bar: with only a handful of sessions the hash
//!   ring cannot balance four nodes evenly).
//!
//! The run writes `target/cluster_scaling.json` with per-topology rows and
//! the migration-overhead measurement.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use svgic_bench::bench_scale;
use svgic_cluster::prelude::*;
use svgic_engine::{CreateSession, EngineConfig};
use svgic_experiments::ExperimentScale;
use svgic_workload::prelude::*;

const SEED: u64 = 0xF1A5_4541;

fn scenario() -> (Scenario, bool) {
    let mut scenario = Scenario::flash_sale();
    match bench_scale() {
        ExperimentScale::Smoke => {
            let mut scenario = scenario.smoke();
            scenario.ticks = 10;
            (scenario, true)
        }
        _ => {
            // Scale-out is a law-of-large-numbers story: with only ~30
            // sessions one expensive group dominates a node's busy clock.
            // Stretch the run so the hash ring has enough sessions to
            // balance *cost*, not just counts.
            scenario.ticks = 48;
            (scenario, false)
        }
    }
}

/// Fixed per-node capacity: one worker, pinned shard count (deterministic
/// counters on any machine).
fn node_engine() -> EngineConfig {
    EngineConfig {
        workers: 1,
        shards: 4,
        auto_flush_pending: 0,
        ..EngineConfig::default()
    }
}

fn drive(trace: &Trace, nodes: usize) -> ClusterLoadOutcome {
    // Steady-state fabric posture: a load-aware rebalance every other tick
    // (sessions arrive and leave constantly — one mid-run pass goes stale),
    // plus one guaranteed explicit migration so even a perfectly balanced
    // run exercises live migration before the digest comparison.
    let plan = if nodes > 1 {
        let mut plan = NodePlan::periodic_rebalance(trace.ticks, 2, PolicyKind::QueueDepth);
        plan.actions
            .push((trace.ticks / 2, NodeAction::MigrateLowest));
        plan
    } else {
        NodePlan::none()
    };
    ClusterDriver::new(ClusterDriverConfig {
        nodes,
        engine: node_engine(),
        plan,
        ..ClusterDriverConfig::default()
    })
    .run(trace)
}

/// Mean live-migration round trip (export → import, warm capital included),
/// measured over repeated there-and-back moves of real solved sessions.
fn migration_overhead_seconds(trace: &Trace) -> (f64, usize) {
    let instance = trace.templates[0].build();
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        vnodes: 64,
        engine: node_engine(),
        ..ClusterConfig::default()
    });
    let sessions = 8u64;
    for key in 0..sessions {
        cluster
            .open_session(
                key,
                CreateSession {
                    instance: instance.clone(),
                    initial_present: Vec::new(),
                    seed: SEED ^ key,
                },
            )
            .expect("opens");
    }
    let nodes = cluster.node_ids();
    let rounds = 25usize;
    // lint: allow(wall-clock, benchmark timing is the measurement itself)
    let started = Instant::now();
    for round in 0..rounds {
        let to = nodes[round % 2];
        for key in 0..sessions {
            let _ = cluster.migrate_session(key, to).expect("live session");
        }
    }
    let migrations = cluster.stats().migrations as usize;
    (
        started.elapsed().as_secs_f64() / migrations as f64,
        migrations,
    )
}

fn cluster_scaling(c: &mut Criterion) {
    let (scenario, smoke) = scenario();
    let trace = generate(&scenario, SEED);

    let topologies = [1usize, 2, 4];
    // LP wall times on a shared host are noisy; keep, per topology, the rep
    // with the smallest makespan (min-over-trials — the least-interference
    // estimate of the true critical path). The hard contracts — digest
    // equality, solve-count parity, migrations-present — are asserted on
    // EVERY rep before the min is taken, so a nondeterministic rep can
    // never hide behind a slow makespan.
    let reps = if smoke { 1 } else { 3 };
    let mut expected: Option<(u64, u64)> = None; // (digest, solves)
    let outcomes: Vec<ClusterLoadOutcome> = topologies
        .iter()
        .map(|&nodes| {
            (0..reps)
                .map(|_| {
                    let outcome = drive(&trace, nodes);
                    let (digest, solves) =
                        *expected.get_or_insert((outcome.config_digest, outcome.merged.solves()));
                    assert_eq!(
                        outcome.config_digest, digest,
                        "{nodes}-node rep served different configurations"
                    );
                    assert_eq!(
                        outcome.merged.solves(),
                        solves,
                        "{nodes}-node rep changed the amount of solve work"
                    );
                    if nodes > 1 {
                        assert!(
                            outcome.cluster.migrations > 0,
                            "multi-node runs must include a live migration"
                        );
                    }
                    outcome
                })
                .min_by(|a, b| {
                    a.makespan_seconds()
                        .partial_cmp(&b.makespan_seconds())
                        .expect("finite makespans")
                })
                .expect("at least one rep")
        })
        .collect();
    let baseline = &outcomes[0];

    println!(
        "{:<6} {:>9} {:>12} {:>12} {:>12} {:>10} {:>11}",
        "nodes", "requests", "wall-rps", "agg-rps", "busiest(s)", "speedup", "migrations"
    );
    let base_rps = baseline.aggregate_throughput_rps();
    for (nodes, outcome) in topologies.iter().zip(&outcomes) {
        println!(
            "{:<6} {:>9} {:>12.0} {:>12.0} {:>12.4} {:>9.2}x {:>11}",
            nodes,
            outcome.requests,
            outcome.throughput_rps(),
            outcome.aggregate_throughput_rps(),
            outcome.makespan_seconds(),
            outcome.aggregate_throughput_rps() / base_rps,
            outcome.cluster.migrations,
        );
    }

    let (migration_seconds, migrations) = migration_overhead_seconds(&trace);
    println!(
        "migration overhead: {:.1}µs per live migration (over {} migrations, warm capital carried)",
        migration_seconds * 1e6,
        migrations
    );

    let speedup4 = outcomes[2].aggregate_throughput_rps() / base_rps;
    // The acceptance bar: ≥ 2x aggregate throughput at 4 nodes. At smoke
    // scale a handful of sessions cannot hash-balance four nodes, so CI only
    // sanity-checks that scaling is real.
    let bar = if smoke { 1.2 } else { 2.0 };
    assert!(
        speedup4 >= bar,
        "expected >= {bar}x aggregate throughput at 4 nodes, got {speedup4:.2}x"
    );

    // Record the scaling table for the perf trajectory.
    let mut rows = String::new();
    for (index, (nodes, outcome)) in topologies.iter().zip(&outcomes).enumerate() {
        if index > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"nodes\": {}, \"requests\": {}, \"wall_rps\": {:.1}, \"aggregate_rps\": {:.1}, \
             \"makespan_seconds\": {:.6}, \"speedup_vs_1\": {:.3}, \"migrations\": {}, \
             \"warm_capital_preserved\": {}}}",
            nodes,
            outcome.requests,
            outcome.throughput_rps(),
            outcome.aggregate_throughput_rps(),
            outcome.makespan_seconds(),
            outcome.aggregate_throughput_rps() / base_rps,
            outcome.cluster.migrations,
            outcome.cluster.warm_capital_preserved,
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"svgic-bench-cluster-scaling/v1\",\n  \"scenario\": \"{}\",\n  \
         \"seed\": {},\n  \"smoke\": {},\n  \"per_node_engine\": {{\"workers\": 1, \"shards\": 4}},\n  \
         \"config_digest\": \"0x{:016x}\",\n  \"migration_overhead_us\": {:.2},\n  \
         \"topologies\": [\n{}\n  ]\n}}\n",
        trace.scenario,
        SEED,
        smoke,
        baseline.config_digest,
        migration_seconds * 1e6,
        rows
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/cluster_scaling.json", &json).expect("write scaling json");
    println!("scaling table written to target/cluster_scaling.json");

    let mut group = c.benchmark_group("cluster_scaling");
    group.sample_size(10);
    for nodes in topologies {
        group.bench_function(format!("flash_sale_{nodes}_nodes"), |b| {
            b.iter(|| drive(&trace, nodes).config_digest)
        });
    }
    group.finish();
}

criterion_group!(benches, cluster_scaling);
criterion_main!(benches);
