//! Obs on/off determinism: the hard contract of the `svgic-obs` tentpole.
//!
//! Observability is strictly read-side — spans, histograms and the flight
//! recorder observe the engine but never steer it. The property here drives
//! random session scripts (joins, leaves, catalogue swaps, forced LP
//! re-solves, flushes) through four backends built from the same script:
//!
//! 1. an in-process engine with obs **off**, the telemetry sampler **off**
//!    and the solve-ledger profiler **off** (all capacities 0 — the
//!    baseline),
//! 2. an in-process engine with obs, sampler and profiler **on**,
//! 3. a real `svgic-net` TCP server whose engine has obs, sampler and
//!    profiler **off**,
//! 4. a TCP server with obs, sampler and profiler **on**, scraped by a
//!    span-recording client that also drains the telemetry ring and the
//!    profile ledger over the wire.
//!
//! All four must produce the identical FNV-1a configuration digest and the
//! identical solve count. A divergence means tracing, sampling or
//! profiling changed what was served — the one thing an observability
//! layer must never do. The ledger itself is also cross-checked: its
//! deterministic fields (fingerprints, solve counts, miss causes) must be
//! identical in-process and over the wire.

use proptest::prelude::*;
use proptest::TestRng;
use svgic::core::example::running_example;
use svgic::core::extensions::DynamicEvent;
use svgic::engine::fingerprint::Fnv;
use svgic::engine::prelude::*;
use svgic::engine::{CreateSession, ObsConfig, Tracer};
use svgic::net::{NetClient, NetServer};

/// One scripted operation against one of the two live sessions.
#[derive(Clone, Debug)]
enum Op {
    /// Join the `n`-th currently-absent user (no-op when everyone is in).
    Join(u8),
    /// Leave the `n`-th currently-present user (no-op when empty).
    Leave(u8),
    /// Swap the active catalogue to this item bitmask (widened to the full
    /// catalogue when the mask has fewer than `k = 3` items).
    SetCatalog(u8),
    /// Force a full LP re-solve and digest the served view.
    ForceResolve,
    /// Flush the batch and digest the served view.
    Flush,
}

/// Expands a proptest-drawn `(seed, len)` pair into a random script (the
/// vendored proptest generates primitive ranges only, so structured inputs
/// are derived from a seeded stream — equally random, still reproducible).
fn random_script(seed: u64, len: usize) -> Vec<(bool, Op)> {
    let mut rng = TestRng::new(seed);
    (0..len)
        .map(|_| {
            let which = rng.next_u64().is_multiple_of(2);
            let payload = rng.next_u64();
            let op = match rng.next_u64() % 5 {
                0 => Op::Join((payload % 4) as u8),
                1 => Op::Leave((payload % 4) as u8),
                2 => Op::SetCatalog((payload % 32) as u8),
                3 => Op::ForceResolve,
                _ => Op::Flush,
            };
            (which, op)
        })
        .collect()
}

/// Engine shape shared by every backend: fixed workers/shards so counters
/// are machine-independent, auto-flush off so the script owns the clock.
/// The obs, telemetry-sampler and profiler toggles travel together: the
/// baseline backends run with all three off, the observed backends with
/// all three on.
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

/// Folds a served view into the digest the same way the load driver does:
/// generation, membership, catalogue, per-user configuration, utility.
fn fold_view(digest: &mut Fnv, key: u64, view: &ConfigurationView) {
    digest.write_u64(key);
    digest.write_u64(view.generation);
    digest.write_u64(view.present.len() as u64);
    for &user in &view.present {
        digest.write_u64(user as u64);
    }
    digest.write_u64(view.catalog.len() as u64);
    for &item in &view.catalog {
        digest.write_u64(item as u64);
    }
    for user in 0..view.configuration.num_users() {
        for &item in view.configuration.items_of(user) {
            digest.write_u64(item as u64);
        }
    }
    digest.write_f64(view.utility);
}

/// Replays the script against any transport, maintaining a presence model so
/// every submitted event is valid by construction (the interpretation of an
/// `Op` depends only on the script prefix, never on the backend — so every
/// backend sees the byte-identical request sequence).
fn run_script<B: EngineTransport>(backend: &mut B, script: &[(bool, Op)]) -> (u64, u64) {
    let instance = running_example();
    let mut digest = Fnv::new();
    let mut ids = Vec::new();
    let mut present: Vec<Vec<usize>> = Vec::new();
    for (i, init) in [vec![0usize, 1], vec![1usize, 2]].into_iter().enumerate() {
        let view = backend
            .create_session(CreateSession {
                instance: instance.clone(),
                initial_present: init.clone(),
                seed: 11 + i as u64,
            })
            .expect("session opens");
        ids.push(view.session);
        present.push(init);
    }
    for (which, op) in script {
        let s = *which as usize;
        let id = ids[s];
        match op {
            Op::Join(pick) => {
                let absent: Vec<usize> = (0..4).filter(|u| !present[s].contains(u)).collect();
                if absent.is_empty() {
                    continue;
                }
                let user = absent[*pick as usize % absent.len()];
                backend
                    .submit_event(id, SessionEvent::Membership(DynamicEvent::Join(user)))
                    .expect("join accepted");
                present[s].push(user);
            }
            Op::Leave(pick) => {
                if present[s].is_empty() {
                    continue;
                }
                let user = present[s][*pick as usize % present[s].len()];
                backend
                    .submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(user)))
                    .expect("leave accepted");
                present[s].retain(|&u| u != user);
            }
            Op::SetCatalog(mask) => {
                let mut items: Vec<usize> = (0..5).filter(|i| mask >> i & 1 == 1).collect();
                if items.len() < 3 {
                    items = (0..5).collect();
                }
                backend
                    .submit_event(id, SessionEvent::SetCatalog(items))
                    .expect("catalogue accepted");
            }
            Op::ForceResolve => {
                let view = backend.force_resolve(id).expect("force resolve");
                fold_view(&mut digest, s as u64, &view);
            }
            Op::Flush => {
                backend.flush().expect("flush");
                let view = backend.query_configuration(id).expect("live session");
                fold_view(&mut digest, s as u64, &view);
            }
        }
    }
    backend.flush().expect("flush");
    for (s, id) in ids.iter().enumerate() {
        let view = backend.query_configuration(*id).expect("live session");
        fold_view(&mut digest, s as u64, &view);
        backend.close_session(*id).expect("close");
    }
    let stats = backend.stats().expect("stats");
    (digest.finish(), stats.solves())
}

proptest! {
    // Each case runs four full backends (two of them real TCP servers), so
    // keep the case count modest; the script space is still well covered
    // across runs because proptest varies lengths and op mixes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tracing_never_changes_what_is_served(seed in 0u64..100_000, len in 0usize..24) {
        let script = random_script(seed, len);
        // 1. In-process, obs, sampler and profiler off: the baseline.
        let mut engine_off = Engine::new(engine_config(ObsConfig::disabled(), 0, 0));
        let (digest_off, solves_off) = run_script(&mut engine_off, &script);
        prop_assert_eq!(engine_off.tracer().recorded(), 0);
        prop_assert!(engine_off.telemetry().is_empty(), "capacity 0 disables sampling");
        let profile_off = engine_off.profile();
        prop_assert!(profile_off.entries.is_empty(), "capacity 0 disables the ledger");
        prop_assert_eq!(profile_off.dropped, 0);

        // 2. In-process, obs, sampler and profiler on: same service, plus a
        // span stream, a populated telemetry ring and a solve ledger.
        let mut engine_on = Engine::new(engine_config(ObsConfig::enabled(), 1024, 128));
        let (digest_on, solves_on) = run_script(&mut engine_on, &script);
        prop_assert_eq!(digest_on, digest_off);
        prop_assert_eq!(solves_on, solves_off);
        prop_assert!(
            engine_on.tracer().recorded() > 0,
            "enabled tracer saw {} spans over {} ops",
            engine_on.tracer().recorded(),
            script.len(),
        );
        let ring = engine_on.telemetry();
        prop_assert!(!ring.is_empty(), "every flush sampled the ring");
        prop_assert!(ring.windows(2).all(|w| w[0].tick < w[1].tick));
        let ledger = engine_on.profile();
        if solves_off > 0 {
            prop_assert!(!ledger.entries.is_empty(), "solves must be attributed");
        }
        let attributed: u64 = ledger
            .entries
            .iter()
            .map(|e| e.warm_solves + e.cold_solves)
            .sum();
        prop_assert!(attributed == solves_off, "every solve lands in the ledger");
        for entry in &ledger.entries {
            prop_assert!(
                entry.miss_new + entry.miss_evicted + entry.miss_component_changed
                    == entry.cold_solves,
                "miss causes partition the cold solves"
            );
        }

        // 3. Over one TCP server, obs, sampler and profiler off on the
        // remote engine.
        let server = NetServer::bind("127.0.0.1:0", Engine::new(engine_config(ObsConfig::disabled(), 0, 0)))
            .expect("binds");
        let mut client = NetClient::connect(server.local_addr()).expect("connects");
        let (digest_tcp_off, solves_tcp_off) = run_script(&mut client, &script);
        prop_assert!(
            client.query_telemetry().expect("telemetry frame").is_empty(),
            "a sampler-off server answers QueryTelemetry with an empty ring"
        );
        let remote_profile_off = client.query_profile().expect("profile frame");
        prop_assert!(
            remote_profile_off.entries.is_empty(),
            "a profiler-off server answers QueryProfile with an empty ledger"
        );
        client.shutdown_server().expect("shuts down");
        server.join();
        prop_assert_eq!(digest_tcp_off, digest_off);
        prop_assert_eq!(solves_tcp_off, solves_off);

        // 4. Over one TCP server with obs, sampler and profiler on — a
        // span-recording client that also drains the telemetry ring and
        // the profile ledger over the wire. The remote ring must equal the
        // in-process run's ring in every field but the busy-time imbalance
        // (`without_busy_time` masks that wall-clock field), and the remote
        // ledger's deterministic fields must match the in-process ledger
        // exactly.
        let server = NetServer::bind("127.0.0.1:0", Engine::new(engine_config(ObsConfig::enabled(), 1024, 128)))
            .expect("binds");
        let tracer = Tracer::new(ObsConfig::enabled());
        let mut client = NetClient::connect(server.local_addr())
            .expect("connects")
            .with_tracer(tracer.clone());
        let (digest_tcp_on, solves_tcp_on) = run_script(&mut client, &script);
        let remote_ring = client.query_telemetry().expect("telemetry frame");
        let remote_profile = client.query_profile().expect("profile frame");
        client.shutdown_server().expect("shuts down");
        server.join();
        prop_assert_eq!(remote_profile.entries.len(), ledger.entries.len());
        for (remote, local) in remote_profile.entries.iter().zip(&ledger.entries) {
            prop_assert_eq!(remote.template_fingerprint, local.template_fingerprint);
            prop_assert_eq!(remote.warm_solves, local.warm_solves);
            prop_assert_eq!(remote.cold_solves, local.cold_solves);
            prop_assert_eq!(remote.miss_new, local.miss_new);
            prop_assert_eq!(remote.miss_evicted, local.miss_evicted);
            prop_assert_eq!(remote.miss_component_changed, local.miss_component_changed);
        }
        prop_assert_eq!(digest_tcp_on, digest_off);
        prop_assert_eq!(solves_tcp_on, solves_off);
        prop_assert!(tracer.recorded() > 0, "the client recorded its wire spans");
        prop_assert_eq!(
            remote_ring.iter().map(|s| s.without_busy_time()).collect::<Vec<_>>(),
            ring.iter().map(|s| s.without_busy_time()).collect::<Vec<_>>()
        );
    }
}
