//! The cluster load driver: feeds a trace into a multi-node
//! [`svgic_cluster::Cluster`] and measures it, node churn included.
//!
//! Mirrors [`crate::driver::LoadDriver`] — same traces, same latency
//! classes, same configuration digest — but routes sessions across nodes via
//! the cluster's consistent-hash ring and executes a [`NodePlan`] of fabric
//! events (node kills, joins, rebalances) at tick boundaries.
//!
//! ## Digest semantics
//!
//! Served configurations are independent of topology and *migration*
//! history (see `svgic-cluster`'s crate docs), so a trace driven on 1 node,
//! on 4 nodes, or on 4 nodes with live rebalances all produce the **same
//! digest** as the single-engine [`crate::driver::LoadDriver`] — which is
//! asserted in tests and CI. Node **kills** do change the digest (recovered
//! sessions restart their solve generation with a fresh rounding stream),
//! but remain deterministic run-to-run — and with
//! [`ClusterDriverConfig::replicate`] on, a kill whose lost sessions all
//! promote from current standbys preserves even generations, making a fully
//! warm kill digest-invisible. A [`ChaosPlan`] is digest-neutral by
//! construction (faults delay requests, never drop or reorder them), so a
//! replayed chaos run yields the identical digest, replication on or off,
//! one node or many.
//!
//! ## Timing model
//!
//! The fabric is in-process: nodes that would be separate machines in a real
//! deployment share this process's cores, so wall-clock throughput cannot
//! show scale-out on a small host. The driver therefore keeps **two
//! clocks**: `wall_seconds` (honest end-to-end wall time of the in-process
//! simulation) and a per-node **busy clock** that accumulates each node's
//! own serving time (creates, submits, queries, flushes executed on that
//! node). Nodes are independent — no cross-node communication exists on the
//! serving path — so in a real deployment the run's critical path is the
//! busiest node plus the fabric's control-plane work:
//! `makespan = max(node busy) + fabric`. [`ClusterLoadOutcome`] reports
//! both `throughput_rps` (wall) and `aggregate_throughput_rps`
//! (requests / makespan, the scale-out projection the scaling bench
//! records).

use std::collections::HashMap;
use std::time::Instant;

use svgic_cluster::prelude::*;
use svgic_core::extensions::DynamicEvent;
use svgic_core::SvgicInstance;
use svgic_engine::fingerprint::Fnv;
use svgic_engine::prelude::*;
use svgic_engine::{CreateSession, Health, TelemetrySample};

use crate::driver::{digest_view, DriveMode, LatencyBreakdown, QualityUnderLoad};
use crate::trace::{Trace, TraceEvent};

/// Which rebalance policy a plan step runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Ring-authority placement ([`RingPolicy`]).
    Ring,
    /// Load-aware placement ([`QueueDepthPolicy`], tolerance 1).
    QueueDepth,
}

impl PolicyKind {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Ring => "ring",
            PolicyKind::QueueDepth => "queue-depth",
        }
    }
}

/// One scheduled fabric event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeAction {
    /// Crash the alive node currently holding the most sessions (ties break
    /// toward the lower node id). Refused silently when only one node is
    /// alive.
    KillBusiest,
    /// Spawn a fresh node and add it to the ring (sessions move only when a
    /// later rebalance says so).
    Join,
    /// Run one rebalance pass under the given policy.
    Rebalance(PolicyKind),
    /// Live-migrate the session with the lowest key to the next alive node
    /// (ascending cyclic order). Unlike a rebalance — which is quiet on a
    /// balanced fleet — this guarantees one migration on any multi-node
    /// cluster, which is what the digest-determinism checks exercise.
    MigrateLowest,
}

/// A deterministic schedule of fabric events, executed at tick boundaries
/// (after that tick's flush).
#[derive(Clone, Debug, Default)]
pub struct NodePlan {
    /// `(tick, action)` pairs; executed in order per tick.
    pub actions: Vec<(usize, NodeAction)>,
}

impl NodePlan {
    /// No fabric events.
    pub fn none() -> Self {
        NodePlan::default()
    }

    /// A guaranteed live migration plus one load-aware rebalance at the
    /// run's midpoint — the canonical "mid-run migration" used by the
    /// digest-determinism checks: any multi-node run exercises migration
    /// without changing what is served.
    pub fn mid_run_rebalance(ticks: usize) -> Self {
        NodePlan {
            actions: vec![
                (ticks / 2, NodeAction::MigrateLowest),
                (ticks / 2, NodeAction::Rebalance(PolicyKind::QueueDepth)),
            ],
        }
    }

    /// A load-aware rebalance every `every` ticks — the steady-state fabric
    /// posture: migrations are microseconds and carry the session's warm
    /// factors, so continuously evening out session counts keeps the busiest
    /// node close to the fleet mean, which is what scale-out throughput is
    /// limited by.
    pub fn periodic_rebalance(ticks: usize, every: usize, kind: PolicyKind) -> Self {
        let every = every.max(1);
        NodePlan {
            actions: (0..ticks)
                .step_by(every)
                .skip(1)
                .map(|tick| (tick, NodeAction::Rebalance(kind)))
                .collect(),
        }
    }

    /// The `node-churn` schedule: kill the busiest node a third into the
    /// run, rebalance the survivors, then add a replacement node and hand it
    /// its ring share. Exercises crash recovery, load-aware and
    /// ring-authority rebalancing in one run.
    pub fn node_churn(ticks: usize) -> Self {
        let third = (ticks / 3).max(1);
        NodePlan {
            actions: vec![
                (third, NodeAction::KillBusiest),
                (third, NodeAction::Rebalance(PolicyKind::QueueDepth)),
                (2 * third, NodeAction::Join),
                (2 * third, NodeAction::Rebalance(PolicyKind::Ring)),
            ],
        }
    }

    /// The schedule a trace implies at a given node count: the `node-churn`
    /// scenario gets its kill/join/rebalance schedule, any other multi-node
    /// run gets the canonical mid-run rebalance, single-node runs get
    /// nothing. Derived from the trace header alone so replays reproduce the
    /// identical fabric schedule.
    pub fn for_trace(trace: &Trace, nodes: usize) -> Self {
        if nodes <= 1 {
            NodePlan::none()
        } else if trace.scenario == "node-churn" {
            NodePlan::node_churn(trace.ticks)
        } else {
            NodePlan::mid_run_rebalance(trace.ticks)
        }
    }

    fn actions_at(&self, tick: usize) -> impl Iterator<Item = NodeAction> + '_ {
        self.actions
            .iter()
            .filter(move |(t, _)| *t == tick)
            .map(|&(_, action)| action)
    }
}

/// Cluster-driver configuration.
#[derive(Clone, Debug)]
pub struct ClusterDriverConfig {
    /// Pacing mode (same semantics as the single-engine driver; closed loop
    /// flushes only the submitting session's node).
    pub mode: DriveMode,
    /// Ticks to drive before measurement starts (counters reset at the
    /// boundary, caches and placements stay; the digest always covers the
    /// full run).
    pub warmup_ticks: usize,
    /// Number of nodes the cluster starts with.
    pub nodes: usize,
    /// Virtual nodes per physical node on the routing ring.
    pub vnodes: usize,
    /// Session placement strategy (default: bounded-load consistent hashing
    /// at 1.25x the fleet-mean weighted load).
    pub placement: PlacementMode,
    /// Per-node engine configuration (auto-flush is forced off by the
    /// cluster — it owns the flush clock).
    pub engine: EngineConfig,
    /// Fabric event schedule.
    pub plan: NodePlan,
    /// Warm standby replication (see [`svgic_cluster::ClusterConfig`]):
    /// each tick flush piggybacks standby copies onto ring successors, and
    /// kills fail over warm when the replica is current. Digest-neutral —
    /// replication never touches live sessions.
    pub replicate: bool,
    /// Seeded fault schedule injected at the transport seam (see
    /// [`svgic_cluster::ChaosPlan`]). Every node backend is wrapped in a
    /// [`svgic_cluster::ChaosTransport`] consulting one shared clock, so the
    /// same plan runs identically against in-process engines and TCP
    /// connections. Digest-neutral: faults delay requests, never drop them.
    pub chaos: ChaosPlan,
}

impl Default for ClusterDriverConfig {
    fn default() -> Self {
        ClusterDriverConfig {
            mode: DriveMode::OpenLoop,
            warmup_ticks: 0,
            nodes: 1,
            vnodes: 64,
            placement: PlacementMode::BoundedLoad {
                capacity_factor: 1.25,
            },
            engine: EngineConfig {
                auto_flush_pending: 0,
                ..EngineConfig::default()
            },
            plan: NodePlan::none(),
            replicate: false,
            chaos: ChaosPlan::inactive(),
        }
    }
}

/// One node's ledger in the outcome. Survives the node's death (a killed
/// node keeps its busy time and final counter snapshot).
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// The node.
    pub node: NodeId,
    /// Whether the node was still alive at the end of the run.
    pub alive: bool,
    /// Seconds the node spent serving (its own creates, submits, queries,
    /// closes and flushes).
    pub busy_seconds: f64,
    /// Live sessions at the end of the run (0 for dead nodes).
    pub sessions: u64,
    /// The node engine's counters — final for alive nodes, last-observed
    /// (at the preceding tick boundary) for killed ones.
    pub engine: StatsSnapshot,
    /// The node's per-tick telemetry ring, oldest first (empty for killed
    /// nodes — their ring died with the engine — and for capacity-0 nodes).
    pub telemetry: Vec<TelemetrySample>,
}

impl NodeOutcome {
    /// The node's derived health under the default policy (killed nodes
    /// assess their last-observed counters).
    pub fn health(&self) -> Health {
        self.engine.health()
    }

    /// Total accounted bytes on the node at the end of the run.
    pub fn mem_bytes(&self) -> u64 {
        self.engine.mem_total_bytes()
    }
}

/// Everything one cluster run produced.
#[derive(Clone, Debug)]
pub struct ClusterLoadOutcome {
    /// Pacing mode.
    pub mode: DriveMode,
    /// Nodes the cluster started with.
    pub nodes_initial: usize,
    /// Wall-clock duration of the measured window (in-process, all nodes
    /// serialized onto this host).
    pub wall_seconds: f64,
    /// Control-plane seconds: fabric work not attributable to one node's
    /// serving path (kills + recovery, migrations, rebalance planning).
    pub fabric_seconds: f64,
    /// Engine requests issued in the measured window.
    pub requests: u64,
    /// Trace events consumed (whole run).
    pub trace_events: usize,
    /// Sessions opened (whole run).
    pub sessions: u64,
    /// Per-class latency histograms, merged across nodes.
    pub latency: LatencyBreakdown,
    /// Quality of served configurations sampled at queries.
    pub quality: QualityUnderLoad,
    /// Deterministic digest over every query response (and the final sweep).
    /// Comparable with [`crate::driver::LoadOutcome::config_digest`].
    pub config_digest: u64,
    /// Per-node ledgers, ascending by node id (dead nodes included).
    pub per_node: Vec<NodeOutcome>,
    /// Every alive node's engine counters merged into one fleet snapshot.
    pub merged: StatsSnapshot,
    /// Fabric counters (migrations, warm capital, recoveries, kills).
    pub cluster: ClusterStats,
    /// Requests the chaos plan absorbed (each retried and delivered).
    pub chaos_injected_failures: u64,
    /// Requests the chaos plan delayed.
    pub chaos_injected_delays: u64,
}

impl ClusterLoadOutcome {
    /// Wall-clock request throughput of the in-process simulation.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.requests as f64 / self.wall_seconds
        }
    }

    /// The run's critical path under the deployment model: nodes are
    /// independent machines, so they serve concurrently and the run takes as
    /// long as its busiest node, plus the fabric's control-plane work.
    pub fn makespan_seconds(&self) -> f64 {
        let busiest = self
            .per_node
            .iter()
            .map(|n| n.busy_seconds)
            .fold(0.0, f64::max);
        busiest + self.fabric_seconds
    }

    /// Scale-out throughput projection: requests over the critical path.
    /// Equals `throughput_rps` modulo driver overhead at 1 node; grows with
    /// nodes as long as the hash ring keeps them evenly busy.
    pub fn aggregate_throughput_rps(&self) -> f64 {
        let makespan = self.makespan_seconds();
        if makespan <= 0.0 {
            0.0
        } else {
            self.requests as f64 / makespan
        }
    }
}

/// The trace-driven cluster load driver.
#[derive(Clone, Debug, Default)]
pub struct ClusterDriver {
    config: ClusterDriverConfig,
}

/// Busy-clock ledger per node id, surviving node deaths.
#[derive(Default)]
struct Ledger {
    busy: HashMap<u64, f64>,
    /// Last observed engine snapshot per node (so a killed node's counters
    /// are not lost with its engine).
    last_seen: HashMap<u64, StatsSnapshot>,
    dead: Vec<u64>,
    fabric: f64,
}

impl Ledger {
    fn charge(&mut self, node: NodeId, seconds: f64) {
        *self.busy.entry(node.0).or_default() += seconds;
    }

    fn reset_measured(&mut self) {
        self.busy.clear();
        self.fabric = 0.0;
        // Nodes that died during warmup stay in the report (alive: false),
        // but their counters belong to the excluded window — zero them so
        // the measured report never mixes warmup and measured data.
        for snapshot in self.last_seen.values_mut() {
            *snapshot = StatsSnapshot::default();
        }
    }
}

impl ClusterDriver {
    /// Builds a driver.
    pub fn new(config: ClusterDriverConfig) -> Self {
        ClusterDriver { config }
    }

    /// Drives `trace` through a fresh in-process cluster and measures it.
    ///
    /// Panics on traces that reference unknown session keys or that the
    /// engines reject — like the single-engine driver, a rejection means a
    /// corrupted trace, not an operational error.
    pub fn run(&self, trace: &Trace) -> ClusterLoadOutcome {
        self.run_with(trace, |engine: &EngineConfig| Engine::new(engine.clone()))
    }

    /// Drives `trace` through a cluster whose node backends come from
    /// `spawner` — in-process engines, or `svgic_net::NetClient` connections
    /// to real server processes (`loadgen --connect a:p,b:p`). The spawner
    /// is called once per node, initial fleet and later joins alike.
    ///
    /// Served configurations (the digest) are identical for any backend:
    /// the fabric's placement and migration machinery is
    /// backend-independent, and the wire codec is canonical.
    pub fn run_with<B: EngineTransport + 'static>(
        &self,
        trace: &Trace,
        spawner: impl FnMut(&EngineConfig) -> B + 'static,
    ) -> ClusterLoadOutcome {
        let instances: Vec<SvgicInstance> =
            trace.templates.iter().map(|spec| spec.build()).collect();

        // Every backend — initial fleet and later joins, in-process or TCP —
        // is wrapped in a chaos transport sharing one control; an inactive
        // plan makes the wrapper transparent.
        let chaos = ChaosControl::new(self.config.chaos.clone());
        let mut spawner = spawner;
        let chaos_for_spawner = chaos.clone();
        let mut cluster = Cluster::with_backends(
            ClusterConfig {
                nodes: self.config.nodes.max(1),
                vnodes: self.config.vnodes,
                placement: self.config.placement,
                engine: self.config.engine.clone(),
                replicate: self.config.replicate,
            },
            move |engine: &EngineConfig| chaos_for_spawner.wrap(spawner(engine)),
        );
        // Remote node backends may be long-lived server processes with
        // counters from earlier runs; zero them so this run's report covers
        // exactly this trace (no-op for fresh in-process engines; topology
        // counters survive by design).
        cluster.reset_stats();
        let mut ledger = Ledger::default();
        let mut latency = LatencyBreakdown::default();
        let mut quality = QualityUnderLoad::default();
        let mut digest = Fnv::new();
        let mut requests = 0u64;
        let mut sessions_opened = 0u64;
        let mut open_keys: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let closed_loop = self.config.mode == DriveMode::ClosedLoop;

        // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
        let mut started = Instant::now();
        let mut warming = self.config.warmup_ticks > 0;
        for event in &trace.events {
            match event {
                TraceEvent::Tick(tick) => {
                    chaos.advance_to(*tick);
                    if !closed_loop {
                        // Kill-during-flush: when the chaos plan arms it and
                        // this tick kills, the victim's tick flush is
                        // skipped — it dies holding this tick's pending
                        // events, which recovery must then replay from
                        // shadow intent exactly once (a replica shipped at
                        // an earlier flush is stale by now and must not
                        // promote).
                        let spare = if self.config.chaos.kill_mid_flush
                            && cluster.node_count() > 1
                            && self
                                .config
                                .plan
                                .actions_at(*tick)
                                .any(|action| action == NodeAction::KillBusiest)
                        {
                            cluster
                                .node_sessions()
                                .into_iter()
                                .max_by_key(|&(node, sessions)| {
                                    (sessions, std::cmp::Reverse(node.0))
                                })
                                .map(|(node, _)| node)
                        } else {
                            None
                        };
                        for node in cluster.node_ids() {
                            if Some(node) == spare {
                                continue;
                            }
                            // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                            let t0 = Instant::now();
                            cluster.flush_node(node).expect("alive node flushes");
                            let dt = t0.elapsed();
                            ledger.charge(node, dt.as_secs_f64());
                            latency.flush.record(dt);
                        }
                    }
                    self.run_plan_at(*tick, &mut cluster, &mut ledger);
                    if warming && *tick >= self.config.warmup_ticks {
                        warming = false;
                        cluster.reset_stats();
                        ledger.reset_measured();
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
                    let (node, view) = cluster
                        .open_session(
                            *key,
                            CreateSession {
                                instance: instances[*template].clone(),
                                initial_present: present.clone(),
                                seed: *seed,
                            },
                        )
                        .expect("trace opens a valid session");
                    let dt = t0.elapsed();
                    ledger.charge(node, dt.as_secs_f64());
                    latency.create.record(dt);
                    requests += 1;
                    sessions_opened += 1;
                    open_keys.insert(*key);
                    assert!(
                        view.present.is_empty() || view.configuration.is_valid(view.catalog.len()),
                        "cluster served an invalid initial configuration"
                    );
                }
                TraceEvent::Join { key, user } | TraceEvent::Leave { key, user } => {
                    let membership = match event {
                        TraceEvent::Join { .. } => DynamicEvent::Join(*user),
                        _ => DynamicEvent::Leave(*user),
                    };
                    self.submit(
                        &mut cluster,
                        *key,
                        SessionEvent::Membership(membership),
                        &mut ledger,
                        &mut latency,
                        &mut requests,
                    );
                }
                TraceEvent::Catalog { key, items } => {
                    self.submit(
                        &mut cluster,
                        *key,
                        SessionEvent::SetCatalog(items.clone()),
                        &mut ledger,
                        &mut latency,
                        &mut requests,
                    );
                }
                TraceEvent::Lambda { key, value } => {
                    self.submit(
                        &mut cluster,
                        *key,
                        SessionEvent::RetuneLambda(*value),
                        &mut ledger,
                        &mut latency,
                        &mut requests,
                    );
                }
                TraceEvent::Query { key } => {
                    // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                    let t0 = Instant::now();
                    let (node, view) = cluster.query_configuration(*key).expect("live session");
                    let dt = t0.elapsed();
                    ledger.charge(node, dt.as_secs_f64());
                    latency.query.record(dt);
                    requests += 1;
                    self.observe(*key, &view, &mut digest, &mut quality);
                }
                TraceEvent::Close { key } => {
                    // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
                    let t0 = Instant::now();
                    let (node, _) = cluster.close_session(*key).expect("close succeeds");
                    let dt = t0.elapsed();
                    ledger.charge(node, dt.as_secs_f64());
                    latency.close.record(dt);
                    requests += 1;
                    open_keys.remove(key);
                }
            }
        }

        // Final sweep: flush leftovers and digest every still-open session,
        // mirroring the single-engine driver so digests are comparable.
        for node in cluster.node_ids() {
            // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
            let t0 = Instant::now();
            cluster.flush_node(node).expect("alive node flushes");
            ledger.charge(node, t0.elapsed().as_secs_f64());
        }
        for key in open_keys {
            // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
            let t0 = Instant::now();
            let (node, view) = cluster.query_configuration(key).expect("live session");
            self.observe(key, &view, &mut digest, &mut quality);
            cluster.close_session(key).expect("close succeeds");
            ledger.charge(node, t0.elapsed().as_secs_f64());
            requests += 2;
        }
        let wall_seconds = started.elapsed().as_secs_f64();

        // Fold the fleet's final state into the outcome. Alive nodes report
        // their final counters; killed nodes their last tick-boundary
        // snapshot from the ledger.
        let snapshot = cluster.snapshot();
        let mut per_node: Vec<NodeOutcome> = snapshot
            .nodes
            .iter()
            .map(|node| NodeOutcome {
                node: node.node,
                alive: true,
                busy_seconds: ledger.busy.get(&node.node.0).copied().unwrap_or(0.0),
                sessions: node.sessions,
                engine: node.engine.clone(),
                telemetry: node.telemetry.clone(),
            })
            .collect();
        for &dead in &ledger.dead {
            per_node.push(NodeOutcome {
                node: NodeId(dead),
                alive: false,
                busy_seconds: ledger.busy.get(&dead).copied().unwrap_or(0.0),
                sessions: 0,
                engine: ledger.last_seen.get(&dead).cloned().unwrap_or_default(),
                telemetry: Vec::new(),
            });
        }
        per_node.sort_by_key(|n| n.node.0);

        ClusterLoadOutcome {
            mode: self.config.mode,
            nodes_initial: self.config.nodes.max(1),
            wall_seconds,
            fabric_seconds: ledger.fabric,
            requests,
            trace_events: trace.events.len(),
            sessions: sessions_opened,
            latency,
            quality,
            config_digest: digest.finish(),
            per_node,
            merged: snapshot.merged,
            cluster: snapshot.stats,
            chaos_injected_failures: chaos.injected().failures,
            chaos_injected_delays: chaos.injected().delays,
        }
    }

    /// Executes the plan's fabric events scheduled at `tick`.
    fn run_plan_at<B: EngineTransport>(
        &self,
        tick: usize,
        cluster: &mut Cluster<B>,
        ledger: &mut Ledger,
    ) {
        for action in self.config.plan.actions_at(tick) {
            // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
            let t0 = Instant::now();
            match action {
                NodeAction::KillBusiest => {
                    if cluster.node_count() > 1 {
                        let victim = cluster
                            .node_sessions()
                            .into_iter()
                            .max_by_key(|&(node, sessions)| (sessions, std::cmp::Reverse(node.0)))
                            .map(|(node, _)| node)
                            .expect("at least one node");
                        // Preserve the victim's counters before they die.
                        if let Ok(stats) = cluster.node_stats(victim) {
                            ledger.last_seen.insert(victim.0, stats);
                        }
                        cluster.kill_node(victim).expect("not the last node");
                        ledger.dead.push(victim.0);
                    }
                }
                NodeAction::Join => {
                    cluster.add_node();
                }
                NodeAction::MigrateLowest => {
                    if cluster.node_count() > 1 {
                        if let Some(&key) = cluster.session_keys().first() {
                            let current = cluster.placement_of(key).expect("live session");
                            let ids = cluster.node_ids();
                            let position =
                                ids.iter().position(|&n| n == current).expect("alive node");
                            let to = ids[(position + 1) % ids.len()];
                            cluster
                                .migrate_session(key, to)
                                .expect("live session moves");
                        }
                    }
                }
                NodeAction::Rebalance(kind) => {
                    match kind {
                        PolicyKind::Ring => cluster.rebalance(&RingPolicy),
                        PolicyKind::QueueDepth => {
                            cluster.rebalance(&QueueDepthPolicy { tolerance: 1 })
                        }
                    };
                }
            }
            ledger.fabric += t0.elapsed().as_secs_f64();
        }
    }

    fn submit<B: EngineTransport>(
        &self,
        cluster: &mut Cluster<B>,
        key: u64,
        event: SessionEvent,
        ledger: &mut Ledger,
        latency: &mut LatencyBreakdown,
        requests: &mut u64,
    ) {
        // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
        let t0 = Instant::now();
        let (node, _) = cluster
            .submit_event(key, event)
            .expect("trace event is valid");
        let dt = t0.elapsed();
        ledger.charge(node, dt.as_secs_f64());
        latency.submit.record(dt);
        *requests += 1;
        if self.config.mode == DriveMode::ClosedLoop {
            // lint: allow(wall-clock, client-side latency sample for the load report; responses are digested independently of timing)
            let t0 = Instant::now();
            cluster.flush_node(node).expect("alive node flushes");
            let dt = t0.elapsed();
            ledger.charge(node, dt.as_secs_f64());
            latency.flush.record(dt);
        }
    }

    fn observe(
        &self,
        key: u64,
        view: &svgic_engine::ConfigurationView,
        digest: &mut Fnv,
        quality: &mut QualityUnderLoad,
    ) {
        digest_view(digest, key, view);
        if !view.present.is_empty() {
            assert!(
                view.configuration.is_valid(view.catalog.len()),
                "cluster served an invalid configuration under load"
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
    use crate::driver::{DriverConfig, LoadDriver};
    use crate::scenario::Scenario;
    use crate::synth::generate;

    fn engine_config() -> EngineConfig {
        EngineConfig {
            workers: 2,
            shards: 2,
            auto_flush_pending: 0,
            ..EngineConfig::default()
        }
    }

    fn smoke_trace() -> Trace {
        let mut scenario = Scenario::steady_mall().smoke();
        scenario.ticks = 4;
        generate(&scenario, 17)
    }

    fn cluster_outcome(nodes: usize, plan: NodePlan) -> ClusterLoadOutcome {
        ClusterDriver::new(ClusterDriverConfig {
            nodes,
            engine: engine_config(),
            plan,
            ..ClusterDriverConfig::default()
        })
        .run(&smoke_trace())
    }

    #[test]
    fn one_node_cluster_matches_the_single_engine_driver() {
        let trace = smoke_trace();
        let single = LoadDriver::new(DriverConfig {
            engine: engine_config(),
            ..DriverConfig::default()
        })
        .run(&trace);
        let clustered = cluster_outcome(1, NodePlan::none());
        assert_eq!(
            clustered.config_digest, single.config_digest,
            "a 1-node cluster must serve byte-identically to a bare engine"
        );
        assert_eq!(clustered.requests, single.requests);
        assert_eq!(clustered.sessions, single.sessions);
    }

    #[test]
    fn digest_is_topology_invariant_with_migrations() {
        let one = cluster_outcome(1, NodePlan::none());
        let four = cluster_outcome(4, NodePlan::mid_run_rebalance(4));
        assert_eq!(one.config_digest, four.config_digest);
        assert_eq!(one.requests, four.requests);
        assert!(
            four.cluster.migrations > 0,
            "the mid-run rebalance must actually move sessions"
        );
        assert_eq!(
            four.cluster.warm_capital_preserved, four.cluster.migrations,
            "every solved session migrates warm"
        );
        assert!(four.per_node.len() == 4);
        assert!(four.per_node.iter().all(|n| n.alive));
        // Every alive node sampled its ring at each tick flush: non-empty,
        // ticks strictly monotone, and the mem gauges track live state.
        for node in &four.per_node {
            assert!(!node.telemetry.is_empty(), "node {:?}", node.node);
            assert!(node.telemetry.windows(2).all(|w| w[0].tick < w[1].tick));
            assert_eq!(node.health(), Health::Ok);
        }
        assert!(
            four.per_node
                .iter()
                .any(|n| n.telemetry.iter().any(|s| s.mem_session_bytes > 0)),
            "some node held live sessions when a tick sampled"
        );
        // The fleet view sums the per-node engines.
        let created: u64 = four
            .per_node
            .iter()
            .map(|n| n.engine.sessions_created)
            .sum();
        assert_eq!(four.merged.sessions_created, created);
    }

    #[test]
    fn closed_loop_is_also_topology_invariant() {
        let trace = smoke_trace();
        let run = |nodes: usize| {
            ClusterDriver::new(ClusterDriverConfig {
                nodes,
                mode: DriveMode::ClosedLoop,
                engine: engine_config(),
                plan: NodePlan::none(),
                ..ClusterDriverConfig::default()
            })
            .run(&trace)
        };
        assert_eq!(run(1).config_digest, run(3).config_digest);
    }

    #[test]
    fn node_churn_plan_is_deterministic_and_recovers() {
        let mut scenario = Scenario::node_churn().smoke();
        scenario.ticks = 6;
        let trace = generate(&scenario, 23);
        let run = || {
            ClusterDriver::new(ClusterDriverConfig {
                nodes: 3,
                engine: engine_config(),
                plan: NodePlan::for_trace(&trace, 3),
                ..ClusterDriverConfig::default()
            })
            .run(&trace)
        };
        let a = run();
        let b = run();
        assert_eq!(a.config_digest, b.config_digest, "churn must be replayable");
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.cluster.nodes_killed, 1);
        assert!(a.cluster.sessions_recovered > 0, "{:?}", a.cluster);
        assert!(a.cluster.warm_capital_lost > 0);
        assert!(a.cluster.migrations > 0, "rebalances must move sessions");
        assert_eq!(a.cluster.nodes_added, 3 + 1, "initial fleet + one join");
        // The dead node keeps its ledger entry.
        assert_eq!(a.per_node.len(), 4);
        assert_eq!(a.per_node.iter().filter(|n| !n.alive).count(), 1);
        let dead = a.per_node.iter().find(|n| !n.alive).unwrap();
        assert!(dead.engine.sessions_created > 0, "killed node had served");
    }

    #[test]
    fn chaos_and_replication_are_digest_neutral() {
        let baseline = cluster_outcome(3, NodePlan::mid_run_rebalance(4));
        let chaotic = ClusterDriver::new(ClusterDriverConfig {
            nodes: 3,
            engine: engine_config(),
            plan: NodePlan::mid_run_rebalance(4),
            replicate: true,
            chaos: ChaosPlan::generate(42, 3, 4),
            ..ClusterDriverConfig::default()
        })
        .run(&smoke_trace());
        assert_eq!(
            baseline.config_digest, chaotic.config_digest,
            "faults delay requests, never change what is served"
        );
        assert_eq!(baseline.requests, chaotic.requests);
        assert!(
            chaotic.chaos_injected_failures > 0 || chaotic.chaos_injected_delays > 0,
            "the generated plan must actually inject"
        );
        assert!(chaotic.cluster.replication_bytes > 0);
        assert_eq!(baseline.chaos_injected_failures, 0);
    }

    #[test]
    fn replicated_churn_fails_over_warm_and_kill_mid_flush_stays_conserving() {
        let mut scenario = Scenario::node_churn().smoke();
        scenario.ticks = 6;
        let trace = generate(&scenario, 23);
        let run = |kill_mid_flush: bool| {
            ClusterDriver::new(ClusterDriverConfig {
                nodes: 3,
                engine: engine_config(),
                plan: NodePlan::for_trace(&trace, 3),
                replicate: true,
                chaos: ChaosPlan {
                    seed: 0,
                    faults: Vec::new(),
                    kill_mid_flush,
                },
                ..ClusterDriverConfig::default()
            })
            .run(&trace)
        };
        // Clean kill at the tick boundary: every lost session was flushed
        // and replicated this very tick, so the failover is fully warm.
        let clean = run(false);
        assert_eq!(clean.cluster.nodes_killed, 1);
        assert_eq!(
            clean.cluster.warm_capital_lost, 0,
            "replication must make the boundary kill warm: {:?}",
            clean.cluster
        );
        assert!(clean.cluster.standby_promotions > 0);
        assert_eq!(clean.cluster.failover_warm, 1);
        assert_eq!(
            clean.cluster.failover_warm + clean.cluster.failover_cold,
            clean.cluster.nodes_killed
        );
        // Kill-during-flush: the victim dies holding its tick's pending
        // events. Sessions mutated that tick rebuild cold (their replicas
        // are one generation stale — the promotion gate must hold them
        // back); nothing is lost either way, and the run replays.
        let dirty = run(true);
        assert_eq!(dirty.cluster.nodes_killed, 1);
        assert_eq!(dirty.sessions, clean.sessions);
        assert_eq!(
            dirty.cluster.failover_warm + dirty.cluster.failover_cold,
            dirty.cluster.nodes_killed
        );
        let replay = run(true);
        assert_eq!(dirty.config_digest, replay.config_digest);
        assert_eq!(dirty.cluster, replay.cluster);
    }

    #[test]
    fn warmup_excludes_counters_but_not_the_digest() {
        let trace = smoke_trace();
        let run = |warmup: usize| {
            ClusterDriver::new(ClusterDriverConfig {
                nodes: 2,
                warmup_ticks: warmup,
                engine: engine_config(),
                plan: NodePlan::none(),
                ..ClusterDriverConfig::default()
            })
            .run(&trace)
        };
        let full = run(0);
        let warmed = run(2);
        assert_eq!(full.config_digest, warmed.config_digest);
        assert!(warmed.requests < full.requests);
        assert!(warmed.merged.requests < full.merged.requests);
    }

    #[test]
    fn throughput_projection_uses_the_busiest_node() {
        let outcome = cluster_outcome(2, NodePlan::none());
        assert!(outcome.throughput_rps() > 0.0);
        assert!(outcome.aggregate_throughput_rps() > 0.0);
        let busiest = outcome
            .per_node
            .iter()
            .map(|n| n.busy_seconds)
            .fold(0.0, f64::max);
        assert!(busiest > 0.0);
        assert!(outcome.makespan_seconds() >= busiest);
        // The makespan can only be shorter than the serial wall time.
        assert!(outcome.makespan_seconds() <= outcome.wall_seconds * 1.5);
    }
}
