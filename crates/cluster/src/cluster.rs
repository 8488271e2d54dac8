//! The fabric: nodes, the router, live migration, failure and recovery.
//!
//! A [`Cluster`] owns a set of nodes (each wrapping one
//! [`svgic_engine::Engine`]), a consistent-hash [`HashRing`] for initial
//! placement, and a **placement table** mapping cluster-level session keys to
//! `(node, local id)` — the ring decides where a session *starts*, the table
//! records where it *is* (rebalancing may move it off-ring). All cluster
//! traffic is keyed by the caller's `u64` session key, never by engine-local
//! ids.
//!
//! Three fabric operations beyond plain routing:
//!
//! * **Live migration** ([`Cluster::migrate_session`]) — drain the session
//!   from its node via [`svgic_engine::Engine::export_session`] and hand the
//!   export (pending events, served solution, solve generation, and the warm
//!   capital: last LP factors + fingerprint) to the destination's
//!   `import_session`. Because solve seeds derive from `(seed, generation)`
//!   and factors are byte-identical wherever computed, served configurations
//!   are **independent of topology and migration history**.
//! * **Failure + recovery** ([`Cluster::kill_node`]) — the node's engine is
//!   dropped wholesale (crash semantics: no export happens). The router
//!   rebuilds each lost session on its new ring home from **shadow state**
//!   (the intent the router itself observed: instance, seed, membership,
//!   catalogue, λ). Recovered sessions restart at generation zero with cold
//!   factors — that is the *warm capital lost* a kill costs, counted in
//!   [`ClusterStats`], versus migration which preserves it.
//! * **Rebalancing** ([`Cluster::rebalance`]) — a [`RebalancePolicy`] plans
//!   migrations against per-node loads (live sessions + queue depths from
//!   the engines' per-shard gauges); the cluster executes them.
//!
//! The fabric is deterministic end to end: BTree orderings everywhere, node
//! engines run with auto-flush disabled (the cluster owns the flush clock),
//! and every operation is a pure function of the request sequence.
//!
//! ## Node backends
//!
//! The cluster is generic over its node backend: any
//! [`svgic_engine::transport::EngineTransport`] works. [`Cluster::new`]
//! spawns in-process [`Engine`]s (the default type parameter);
//! [`Cluster::with_backends`] takes a spawner closure, which is how
//! `loadgen --connect host:port,host:port` builds a **multi-process**
//! cluster whose nodes are `svgic_net::NetClient` connections to real
//! server processes. Live migration works identically either way — the
//! export travels through the backend (over the wire, for remote nodes) and
//! is imported on the destination. Because served configurations are
//! topology- and placement-independent, the in-process and multi-process
//! fabrics produce identical configuration digests for the same trace.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use svgic_core::{ItemIdx, SvgicInstance, UserIdx};
use svgic_engine::prelude::*;
use svgic_engine::CreateSession;

use crate::policy::{ClusterView, Migration, NodeLoad, RebalancePolicy, SessionPlacement};
use crate::ring::{HashRing, NodeId};
use crate::stats::{ClusterSnapshot, ClusterStats, NodeSnapshot};

/// How new (and recovered) sessions are placed on nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlacementMode {
    /// Pure consistent hashing: a session lives wherever the ring routes its
    /// key, regardless of load.
    Ring,
    /// Consistent hashing with bounded loads: a session is placed on the
    /// first node clockwise from its ring position whose **weighted load**
    /// (the sum of hosted sessions' calibrated LP-cost proxies — see
    /// `session_weight`) stays within `capacity_factor` times the fleet
    /// mean after admission. Keys whose
    /// home is under capacity route exactly like [`PlacementMode::Ring`];
    /// overloaded homes spill deterministically to the next node. Placement
    /// never changes *what* is served (solves are per-session), only *where*
    /// — so digests are placement-independent.
    BoundedLoad {
        /// Allowed overshoot over the fleet-mean weighted load (≥ 1.0;
        /// values near 1 balance tightly, large values degrade to `Ring`).
        capacity_factor: f64,
    },
}

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Initial node count.
    pub nodes: usize,
    /// Virtual nodes per physical node on the routing ring.
    pub vnodes: usize,
    /// Session placement strategy (default: bounded-load consistent hashing
    /// at 1.25x — ring affinity with a hard cap on birth imbalance).
    pub placement: PlacementMode,
    /// Engine configuration every node runs with. `auto_flush_pending` is
    /// forced to `0`: the cluster owns the flush clock, and per-node
    /// auto-flush thresholds would make served configurations depend on the
    /// topology (each node sees only its own share of the pending total).
    pub engine: EngineConfig,
    /// Warm standby replication (default off). When enabled, every
    /// [`Cluster::flush_node`] piggybacks a standby copy of each session
    /// whose replica is missing or stale onto the session's **ring
    /// successor** (the first other alive node clockwise from its key), and
    /// [`Cluster::kill_node`] fails over *warm* from the replica whenever it
    /// is current — preserving the solve generation and the LP factors a
    /// cold shadow rebuild would lose. Replication never touches live
    /// sessions (snapshots are non-draining, standbys are passive payload),
    /// so served configurations — and therefore config digests — are
    /// identical with replication on or off.
    pub replicate: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 1,
            vnodes: 64,
            placement: PlacementMode::BoundedLoad {
                capacity_factor: 1.25,
            },
            engine: EngineConfig::default(),
            replicate: false,
        }
    }
}

/// Why a cluster request failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// The cluster has no alive nodes.
    NoNodes,
    /// The node id is not alive.
    UnknownNode(NodeId),
    /// No session with this cluster key is live.
    UnknownSession(u64),
    /// A session with this cluster key already exists.
    DuplicateKey(u64),
    /// Refusing to kill the last alive node (its sessions would be
    /// unrecoverable).
    LastNode(NodeId),
    /// The node's engine rejected the request.
    Engine(EngineError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "cluster has no alive nodes"),
            ClusterError::UnknownNode(node) => write!(f, "unknown {node}"),
            ClusterError::UnknownSession(key) => write!(f, "unknown cluster session {key}"),
            ClusterError::DuplicateKey(key) => write!(f, "cluster session {key} already exists"),
            ClusterError::LastNode(node) => {
                write!(f, "refusing to kill {node}: it is the last alive node")
            }
            ClusterError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<EngineError> for ClusterError {
    fn from(e: EngineError) -> Self {
        ClusterError::Engine(e)
    }
}

/// Where a session currently lives, and how much weighted load it carries.
#[derive(Clone, Copy, Debug)]
struct Placement {
    node: u64,
    local: SessionId,
    /// Load weight (the session LP's size — see `session_weight`), used by
    /// bounded-load placement.
    weight: u64,
}

/// The router's own record of a session's intent, kept for crash recovery.
/// Mirrors what the caller asked for (not engine internals): membership
/// events applied eagerly, the last catalogue/λ override, the instance and
/// rounding seed from the open call.
#[derive(Clone, Debug)]
struct Shadow {
    instance: Arc<SvgicInstance>,
    seed: u64,
    present: BTreeSet<UserIdx>,
    catalog: Option<Vec<ItemIdx>>,
    lambda: Option<f64>,
}

/// What a node kill did.
#[derive(Clone, Debug)]
pub struct KillReport {
    /// The killed node.
    pub node: NodeId,
    /// Sessions that lived on it.
    pub sessions_lost: usize,
    /// Where each lost session was rebuilt, ascending by key.
    pub recovered: Vec<(u64, NodeId)>,
}

/// A multi-node serving fabric over engine backends — in-process
/// [`svgic_engine::Engine`]s by default, any
/// [`EngineTransport`] (e.g. `svgic_net::NetClient` connections to real
/// server processes) via [`Cluster::with_backends`].
pub struct Cluster<B = Engine> {
    config: ClusterConfig,
    engines: BTreeMap<u64, B>,
    /// Provisions the backend for each node the cluster adds (initial fleet
    /// and later joins alike).
    spawner: Box<dyn FnMut(&EngineConfig) -> B>,
    ring: HashRing,
    placements: BTreeMap<u64, Placement>,
    shadows: BTreeMap<u64, Shadow>,
    /// Interned shadow instances, fingerprint-keyed: shadows of sessions
    /// stamped from one template share a single resident copy.
    instances: BTreeMap<u64, Arc<SvgicInstance>>,
    /// Weighted load per node (sum of hosted sessions' weights), maintained
    /// incrementally for bounded-load placement.
    node_weight: BTreeMap<u64, u64>,
    /// Per-session mutation generation: bumped on every state-changing
    /// request (open, submit, force-resolve). A standby replica carries the
    /// generation it was snapshotted at; a kill promotes it only when the
    /// generations match — the staleness gate that keeps failover honest.
    mutation_seq: BTreeMap<u64, u64>,
    /// Where each session's standby replica lives: key → (host node,
    /// mutation generation at snapshot time). Only populated when
    /// [`ClusterConfig::replicate`] is on.
    replicas: BTreeMap<u64, (u64, u64)>,
    /// Crashed node backends, reused (pristine — [`EngineTransport::crash`]
    /// wiped them) by the next [`Cluster::add_node`] before the spawner is
    /// consulted. This is what lets kill/join churn run against *remote*
    /// server processes the driver cannot actually fork: a killed
    /// connection's server is wiped and handed back out as the next joiner.
    graveyard: Vec<B>,
    next_node: u64,
    stats: ClusterStats,
}

impl Cluster {
    /// Builds an in-process cluster with `config.nodes` initial nodes (at
    /// least one), each wrapping a fresh [`Engine`].
    pub fn new(config: ClusterConfig) -> Self {
        Cluster::with_backends(config, |engine: &EngineConfig| Engine::new(engine.clone()))
    }
}

impl<B: EngineTransport> Cluster<B> {
    /// Builds a cluster whose node backends come from `spawner` — called
    /// once per node with the configured [`EngineConfig`] (which remote
    /// spawners are free to ignore: a `loadgen serve` process owns its own
    /// engine configuration).
    pub fn with_backends(
        mut config: ClusterConfig,
        spawner: impl FnMut(&EngineConfig) -> B + 'static,
    ) -> Self {
        config.engine.auto_flush_pending = 0;
        let mut cluster = Cluster {
            ring: HashRing::new(config.vnodes),
            config,
            engines: BTreeMap::new(),
            spawner: Box::new(spawner),
            placements: BTreeMap::new(),
            shadows: BTreeMap::new(),
            instances: BTreeMap::new(),
            node_weight: BTreeMap::new(),
            mutation_seq: BTreeMap::new(),
            replicas: BTreeMap::new(),
            graveyard: Vec::new(),
            next_node: 0,
            stats: ClusterStats::default(),
        };
        for _ in 0..cluster.config.nodes.max(1) {
            cluster.add_node();
        }
        cluster
    }

    /// Alive node ids, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.engines.keys().copied().map(NodeId).collect()
    }

    /// Number of alive nodes.
    pub fn node_count(&self) -> usize {
        self.engines.len()
    }

    /// Live sessions across the fleet.
    pub fn session_count(&self) -> usize {
        self.placements.len()
    }

    /// The node a session currently lives on.
    pub fn placement_of(&self, key: u64) -> Option<NodeId> {
        self.placements.get(&key).map(|p| NodeId(p.node))
    }

    /// Every live session's cluster key, ascending.
    pub fn session_keys(&self) -> Vec<u64> {
        self.placements.keys().copied().collect()
    }

    /// Live sessions per alive node, ascending by node id. Cheap (no
    /// counter snapshots, one `Describe` probe per node) — the right call
    /// for hot-path load peeks.
    pub fn node_sessions(&mut self) -> Vec<(NodeId, u64)> {
        self.engines
            .iter_mut()
            .map(|(&id, engine)| {
                let info = engine.describe().expect("node answers Describe");
                (NodeId(id), info.sessions as u64)
            })
            .collect()
    }

    /// Fabric counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Spawns a fresh node and adds it to the ring. Existing sessions stay
    /// where they are — run a [`RebalancePolicy`] to hand the newcomer work.
    /// A crashed backend waiting in the graveyard is reused (it was wiped to
    /// pristine state by the crash) before the spawner is asked for a new
    /// one — in-process and multi-process fleets churn identically.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.next_node;
        self.next_node += 1;
        let backend = match self.graveyard.pop() {
            Some(backend) => backend,
            None => (self.spawner)(&self.config.engine),
        };
        self.engines.insert(id, backend);
        self.ring.add_node(NodeId(id));
        self.node_weight.insert(id, 0);
        self.stats.nodes_added += 1;
        NodeId(id)
    }

    /// Decides where a session of load `weight` is placed, per the
    /// configured [`PlacementMode`]. Deterministic: a pure function of the
    /// ring, the placement mode, and the current weighted loads.
    fn place(&mut self, key: u64, weight: u64) -> Result<NodeId, ClusterError> {
        match self.config.placement {
            PlacementMode::Ring => self.ring.route(key).ok_or(ClusterError::NoNodes),
            PlacementMode::BoundedLoad { capacity_factor } => {
                if self.engines.is_empty() {
                    return Err(ClusterError::NoNodes);
                }
                let total: u64 = self.node_weight.values().sum::<u64>() + weight;
                let mean = total as f64 / self.engines.len() as f64;
                let capacity = (capacity_factor.max(1.0) * mean).ceil() as u64;
                let weights = &self.node_weight;
                let placed = self
                    .ring
                    .route_where(key, &|node| {
                        weights.get(&node.0).copied().unwrap_or(0) + weight <= capacity
                    })
                    .or_else(|| {
                        // No node admits the session (a single group heavier
                        // than the capacity bound): least-loaded wins,
                        // ties toward the lower id.
                        self.node_weight
                            .iter()
                            .min_by_key(|&(&id, &w)| (w, id))
                            .map(|(&id, _)| NodeId(id))
                    })
                    .ok_or(ClusterError::NoNodes)?;
                if Some(placed) != self.ring.route(key) {
                    self.stats.spill_placements += 1;
                }
                Ok(placed)
            }
        }
    }

    fn charge_weight(&mut self, node: u64, weight: i64) {
        let entry = self.node_weight.entry(node).or_insert(0);
        *entry = (*entry as i64 + weight).max(0) as u64;
    }

    fn engine_mut(&mut self, node: NodeId) -> Result<&mut B, ClusterError> {
        self.engines
            .get_mut(&node.0)
            .ok_or(ClusterError::UnknownNode(node))
    }

    /// Shares one `Arc<SvgicInstance>` across every shadow whose instance is
    /// structurally identical (fingerprint-keyed). Sessions stamped from a
    /// shared template pay zero deep copies on the open path and the router
    /// holds one resident instance per *template*, not per session. Entries
    /// are pruned in [`Cluster::release_shadow`] once no shadow uses them.
    fn intern_instance(&mut self, instance: &SvgicInstance) -> Arc<SvgicInstance> {
        let fingerprint = svgic_engine::fingerprint::instance_fingerprint(instance);
        if let Some(interned) = self.instances.get(&fingerprint) {
            return Arc::clone(interned);
        }
        let interned = Arc::new(instance.clone());
        self.instances.insert(fingerprint, Arc::clone(&interned));
        interned
    }

    /// Drops a session's shadow and prunes its interned instance when this
    /// was the last shadow sharing it.
    fn release_shadow(&mut self, key: u64) {
        let Some(shadow) = self.shadows.remove(&key) else {
            return;
        };
        let fingerprint = svgic_engine::fingerprint::instance_fingerprint(&shadow.instance);
        drop(shadow);
        if let Some(interned) = self.instances.get(&fingerprint) {
            // Only the intern map itself still holds it.
            if Arc::strong_count(interned) == 1 {
                self.instances.remove(&fingerprint);
            }
        }
    }

    fn placement(&self, key: u64) -> Result<Placement, ClusterError> {
        self.placements
            .get(&key)
            .copied()
            .ok_or(ClusterError::UnknownSession(key))
    }

    /// Opens a session under the caller's cluster key on its ring home.
    pub fn open_session(
        &mut self,
        key: u64,
        spec: CreateSession,
    ) -> Result<(NodeId, ConfigurationView), ClusterError> {
        if self.placements.contains_key(&key) {
            return Err(ClusterError::DuplicateKey(key));
        }
        let weight = session_weight(&spec.instance);
        let node = self.place(key, weight)?;
        let shadow = Shadow {
            instance: self.intern_instance(&spec.instance),
            seed: spec.seed,
            present: normalized_present(&spec.initial_present, spec.instance.num_users()),
            catalog: None,
            lambda: None,
        };
        let view = self.engine_mut(node)?.create_session(spec)?;
        self.placements.insert(
            key,
            Placement {
                node: node.0,
                local: view.session,
                weight,
            },
        );
        self.charge_weight(node.0, weight as i64);
        self.shadows.insert(key, shadow);
        self.mutation_seq.insert(key, 1);
        Ok((node, view))
    }

    /// Queues an event against a session; returns the serving node and the
    /// session's pending count. The router's shadow state tracks the event so
    /// a later node kill can rebuild the session's intent.
    pub fn submit_event(
        &mut self,
        key: u64,
        event: SessionEvent,
    ) -> Result<(NodeId, usize), ClusterError> {
        let placement = self.placement(key)?;
        let node = NodeId(placement.node);
        let pending = self
            .engine_mut(node)?
            .submit_event(placement.local, event.clone())?;
        // The engine accepted it: fold into the shadow.
        if let Some(shadow) = self.shadows.get_mut(&key) {
            use svgic_core::extensions::DynamicEvent;
            match event {
                SessionEvent::Membership(DynamicEvent::Join(user)) => {
                    shadow.present.insert(user);
                }
                SessionEvent::Membership(DynamicEvent::Leave(user)) => {
                    shadow.present.remove(&user);
                }
                SessionEvent::SetCatalog(mut items) => {
                    items.sort_unstable();
                    items.dedup();
                    shadow.catalog = Some(items);
                }
                SessionEvent::RetuneLambda(lambda) => shadow.lambda = Some(lambda),
            }
        }
        *self.mutation_seq.entry(key).or_insert(0) += 1;
        Ok((node, pending))
    }

    /// Reads the session's served configuration.
    pub fn query_configuration(
        &mut self,
        key: u64,
    ) -> Result<(NodeId, ConfigurationView), ClusterError> {
        let placement = self.placement(key)?;
        let node = NodeId(placement.node);
        let view = self
            .engine_mut(node)?
            .query_configuration(placement.local)?;
        Ok((node, view))
    }

    /// Applies the session's pending events now and forces a full re-solve.
    pub fn force_resolve(&mut self, key: u64) -> Result<(NodeId, ConfigurationView), ClusterError> {
        let placement = self.placement(key)?;
        let node = NodeId(placement.node);
        let view = self.engine_mut(node)?.force_resolve(placement.local)?;
        // The solve advanced the session's generation: any standby replica
        // is stale until the next flush re-replicates.
        *self.mutation_seq.entry(key).or_insert(0) += 1;
        Ok((node, view))
    }

    /// Closes a session; returns its serving node and lifetime event count.
    pub fn close_session(&mut self, key: u64) -> Result<(NodeId, u64), ClusterError> {
        let placement = self.placement(key)?;
        let node = NodeId(placement.node);
        let lifetime = self.engine_mut(node)?.close_session(placement.local)?;
        self.placements.remove(&key);
        self.charge_weight(node.0, -(placement.weight as i64));
        self.release_shadow(key);
        self.mutation_seq.remove(&key);
        self.discard_replica(key)?;
        Ok((node, lifetime))
    }

    /// Drops a session's standby replica (if one exists and its host is
    /// still alive) — take-and-discard, so closed sessions leave no orphaned
    /// payload behind.
    fn discard_replica(&mut self, key: u64) -> Result<(), ClusterError> {
        if let Some((host, _)) = self.replicas.remove(&key) {
            if self.engines.contains_key(&host) {
                let _ = self.engine_mut(NodeId(host))?.take_standby(key)?;
            }
        }
        Ok(())
    }

    /// Flushes one node's pending events, then (with
    /// [`ClusterConfig::replicate`] on) refreshes the standby replicas of
    /// every session it hosts — the flush boundary is exactly when sessions
    /// are quiescent, so a replica snapshotted here is *current* until the
    /// next mutation.
    pub fn flush_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.engine_mut(node)?.flush()?;
        self.replicate_node(node)?;
        Ok(())
    }

    /// Flushes every alive node, in ascending node order (replicating each
    /// node's sessions afterwards when replication is on).
    pub fn flush_all(&mut self) {
        for node in self.node_ids() {
            self.flush_node(node).expect("node flushes");
        }
    }

    /// Refreshes the standby replicas of every session hosted on `node`:
    /// a session is (re-)shipped when its replica is missing, stale (the
    /// mutation generation moved), or mis-hosted (not on the session's
    /// current ring successor — e.g. after the primary migrated onto its
    /// own standby's host). Current replicas cost nothing. No-op when
    /// replication is off or the fleet has a single node.
    fn replicate_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        if !self.config.replicate || self.engines.len() < 2 {
            return Ok(());
        }
        let keys: Vec<u64> = self
            .placements
            .iter()
            .filter(|(_, p)| p.node == node.0)
            .map(|(&key, _)| key)
            .collect();
        for key in keys {
            let seq = self.mutation_seq.get(&key).copied().unwrap_or(0);
            // The ring holds exactly the alive nodes, so the first
            // non-primary node clockwise from the key is the standby home.
            let Some(standby) = self.ring.route_where(key, &|n| n.0 != node.0) else {
                continue;
            };
            if let Some(&(host, replica_seq)) = self.replicas.get(&key) {
                if host == standby.0 && replica_seq == seq && self.engines.contains_key(&host) {
                    continue; // current and correctly hosted
                }
                if host != standby.0 && self.engines.contains_key(&host) {
                    // Mis-hosted: pull the old copy before shipping the new
                    // one (a put under the same key overwrites, so a
                    // same-host stale replica needs no explicit take).
                    let _ = self.engine_mut(NodeId(host))?.take_standby(key)?;
                }
            }
            let local = self.placement(key)?.local;
            let export = self.engine_mut(node)?.snapshot_session(local)?;
            self.stats.replication_bytes += svgic_engine::codec::session_export_bytes(&export);
            self.engine_mut(standby)?.put_standby(key, export)?;
            self.replicas.insert(key, (standby.0, seq));
        }
        Ok(())
    }

    /// Live-migrates a session to `to`, carrying its full state including
    /// warm capital. Returns whether warm capital travelled (`false` also
    /// when the session already lives on `to` — a no-op that counts no
    /// migration).
    pub fn migrate_session(&mut self, key: u64, to: NodeId) -> Result<bool, ClusterError> {
        if !self.engines.contains_key(&to.0) {
            return Err(ClusterError::UnknownNode(to));
        }
        let placement = self.placement(key)?;
        if placement.node == to.0 {
            return Ok(false);
        }
        let export = self
            .engine_mut(NodeId(placement.node))?
            .export_session(placement.local)?;
        let warm = export.has_warm_capital();
        let local = self.engine_mut(to)?.import_session(export)?;
        self.placements.insert(
            key,
            Placement {
                node: to.0,
                local,
                weight: placement.weight,
            },
        );
        self.charge_weight(placement.node, -(placement.weight as i64));
        self.charge_weight(to.0, placement.weight as i64);
        self.stats.migrations += 1;
        if warm {
            self.stats.warm_capital_preserved += 1;
        }
        Ok(warm)
    }

    /// Runs one rebalance pass under `policy`, executing every planned
    /// migration. Returns the executed moves.
    pub fn rebalance(&mut self, policy: &dyn RebalancePolicy) -> Vec<Migration> {
        let moves = {
            let view = ClusterView {
                nodes: self.node_loads(),
                sessions: self
                    .placements
                    .iter()
                    .map(|(&key, placement)| SessionPlacement {
                        key,
                        node: NodeId(placement.node),
                        weight: placement.weight,
                    })
                    .collect(),
                ring: &self.ring,
            };
            policy.plan(&view)
        };
        self.stats.rebalances += 1;
        for migration in &moves {
            self.migrate_session(migration.key, migration.to)
                .expect("policy planned against live view");
        }
        moves
    }

    /// Kills a node crash-style: its engine is wiped wholesale (sessions,
    /// caches, factors, standbys — [`EngineTransport::crash`]), it leaves
    /// the ring, and every lost session is rebuilt on its new ring home.
    ///
    /// With replication on, a lost session whose standby replica is
    /// **current** (same mutation generation, host alive, host not the
    /// victim) is *promoted*: the replica is imported on the target node,
    /// preserving the solve generation and the LP warm capital — the session
    /// serves exactly what it served before the kill, like a migration. A
    /// missing/stale/co-located replica falls back to the cold shadow-state
    /// rebuild (generation restarts, warm capital gone — counted in
    /// [`ClusterStats::warm_capital_lost`]). Each kill is classified whole:
    /// [`ClusterStats::failover_warm`] when *zero* sessions rebuilt cold,
    /// [`ClusterStats::failover_cold`] otherwise, so
    /// `failover_warm + failover_cold == nodes_killed` always holds.
    /// Receiving nodes are flushed so recovered sessions converge before the
    /// next tick.
    pub fn kill_node(&mut self, node: NodeId) -> Result<KillReport, ClusterError> {
        if !self.engines.contains_key(&node.0) {
            return Err(ClusterError::UnknownNode(node));
        }
        if self.engines.len() == 1 {
            return Err(ClusterError::LastNode(node));
        }
        let mut backend = self
            .engines
            .remove(&node.0)
            .expect("presence checked above");
        // Wipe the backend (remote servers forget everything, exactly like a
        // dropped in-process engine) and keep the husk for the next join.
        backend.crash()?;
        self.graveyard.push(backend);
        self.ring.remove_node(node);
        self.node_weight.remove(&node.0);
        self.stats.nodes_killed += 1;
        // Replicas hosted on the victim died with it.
        self.replicas.retain(|_, &mut (host, _)| host != node.0);

        let lost: Vec<u64> = self
            .placements
            .iter()
            .filter(|(_, p)| p.node == node.0)
            .map(|(&key, _)| key)
            .collect();
        let mut recovered = Vec::with_capacity(lost.len());
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        let mut rebuilt_cold = 0u64;
        for &key in &lost {
            let weight = self.placements[&key].weight;
            let target = self.place(key, weight)?;

            // Warm path: promote the standby replica when it is current.
            let replica = self.replicas.get(&key).copied();
            if let Some((host, replica_seq)) = replica {
                let current = replica_seq == self.mutation_seq.get(&key).copied().unwrap_or(0);
                if current && self.engines.contains_key(&host) {
                    if let Some(export) = self.engine_mut(NodeId(host))?.take_standby(key)? {
                        let local = self.engine_mut(target)?.import_session(export)?;
                        self.placements.insert(
                            key,
                            Placement {
                                node: target.0,
                                local,
                                weight,
                            },
                        );
                        self.charge_weight(target.0, weight as i64);
                        touched.insert(target.0);
                        // Consumed: the next flush re-replicates from the
                        // new primary.
                        self.replicas.remove(&key);
                        self.stats.sessions_recovered += 1;
                        self.stats.standby_promotions += 1;
                        recovered.push((key, target));
                        continue;
                    }
                }
                // Stale or unusable: discard so it cannot resurrect a
                // dead generation later (the cold rebuild below restarts
                // the generation, which would otherwise collide with the
                // replica's).
                self.discard_replica(key)?;
            }

            let shadow = self
                .shadows
                .get(&key)
                .expect("placed sessions have shadows");
            let (instance, seed) = (Arc::clone(&shadow.instance), shadow.seed);
            let present: Vec<UserIdx> = shadow.present.iter().copied().collect();
            let dormant = present.is_empty();
            let catalog = shadow.catalog.clone();
            let lambda = shadow.lambda;

            let engine = self.engine_mut(target)?;
            let view = engine.create_session(CreateSession {
                instance: (*instance).clone(),
                // A dormant shadow (everyone left) re-opens with the full
                // group and immediately leaves again below — `create_session`
                // needs at least one shopper to solve for.
                initial_present: if dormant { Vec::new() } else { present },
                seed,
            })?;
            let local = view.session;
            if dormant {
                for user in 0..instance.num_users() {
                    use svgic_core::extensions::DynamicEvent;
                    engine
                        .submit_event(local, SessionEvent::Membership(DynamicEvent::Leave(user)))?;
                }
            }
            if let Some(items) = catalog {
                engine.submit_event(local, SessionEvent::SetCatalog(items))?;
            }
            if let Some(value) = lambda {
                engine.submit_event(local, SessionEvent::RetuneLambda(value))?;
            }
            self.placements.insert(
                key,
                Placement {
                    node: target.0,
                    local,
                    weight,
                },
            );
            self.charge_weight(target.0, weight as i64);
            touched.insert(target.0);
            self.stats.sessions_recovered += 1;
            self.stats.warm_capital_lost += 1;
            rebuilt_cold += 1;
            // The rebuild restarted the session's generation: bump the
            // mutation clock so nothing snapshotted before the kill can
            // ever look current again.
            *self.mutation_seq.entry(key).or_insert(0) += 1;
            recovered.push((key, target));
        }
        if rebuilt_cold == 0 {
            self.stats.failover_warm += 1;
        } else {
            self.stats.failover_cold += 1;
        }
        for target in touched {
            self.engine_mut(NodeId(target))?.flush()?;
        }
        Ok(KillReport {
            node,
            sessions_lost: lost.len(),
            recovered,
        })
    }

    /// Per-node loads (live sessions + queued events), ascending by node id.
    fn node_loads(&mut self) -> Vec<NodeLoad> {
        let node_weight = &self.node_weight;
        self.engines
            .iter_mut()
            .map(|(&id, engine)| {
                let info = engine.describe().expect("node answers Describe");
                NodeLoad {
                    node: NodeId(id),
                    sessions: info.sessions as u64,
                    queue_depth: info.pending_events as u64,
                    weight: node_weight.get(&id).copied().unwrap_or(0),
                }
            })
            .collect()
    }

    /// A full fleet snapshot: per-node engine counters, the merged totals,
    /// and the fabric counters.
    pub fn snapshot(&mut self) -> ClusterSnapshot {
        let nodes: Vec<NodeSnapshot> = self
            .engines
            .iter_mut()
            .map(|(&id, engine)| {
                let info = engine.describe().expect("node answers Describe");
                let snapshot = engine.stats().expect("node answers QueryStats");
                let telemetry = engine
                    .query_telemetry()
                    .expect("node answers QueryTelemetry");
                NodeSnapshot {
                    node: NodeId(id),
                    sessions: info.sessions as u64,
                    queue_depth: info.pending_events as u64,
                    engine: snapshot,
                    telemetry,
                }
            })
            .collect();
        let mut merged: Option<StatsSnapshot> = None;
        for node in &nodes {
            match &mut merged {
                None => merged = Some(node.engine.clone()),
                Some(all) => all.merge(&node.engine),
            }
        }
        ClusterSnapshot {
            merged: merged.unwrap_or_default(),
            nodes,
            stats: self.stats.clone(),
        }
    }

    /// Bytes the router itself holds for crash recovery: the interned
    /// shadow instances (one resident copy per template, however many
    /// sessions share it) plus each session shadow's membership and
    /// catalogue-override state. Computed arithmetically, like the engines'
    /// `mem_*` gauges (see `svgic_engine::mem`).
    pub fn shadow_footprint_bytes(&self) -> u64 {
        let interned: u64 = self
            .instances
            .values()
            .map(|instance| svgic_engine::instance_bytes(instance))
            .sum();
        let shadows: u64 = self
            .shadows
            .values()
            .map(|shadow| {
                let present =
                    shadow.present.len() as u64 * svgic_obs::mem::MAP_ENTRY_OVERHEAD_BYTES;
                let catalog = shadow
                    .catalog
                    .as_ref()
                    .map(|items| svgic_obs::mem::vec_footprint::<ItemIdx>(items.len()))
                    .unwrap_or(0);
                present + catalog
            })
            .sum();
        interned + shadows
    }

    /// A single node's engine snapshot.
    pub fn node_stats(&mut self, node: NodeId) -> Result<StatsSnapshot, ClusterError> {
        self.engines
            .get_mut(&node.0)
            .ok_or(ClusterError::UnknownNode(node))?
            .stats()
            .map_err(ClusterError::Engine)
    }

    /// Resets every node's engine counters and the fabric *traffic*
    /// counters (caches and sessions stay) — the warmup boundary. The
    /// topology counters `nodes_added`/`nodes_killed` are facts about the
    /// fleet's composition, not about measured traffic, and survive the
    /// reset (like the engines' live queue-depth gauges) — as do the
    /// per-kill failover classifications paired with `nodes_killed`
    /// (`failover_warm + failover_cold == nodes_killed` must keep holding
    /// across the boundary).
    pub fn reset_stats(&mut self) {
        for engine in self.engines.values_mut() {
            engine.reset_stats().expect("node resets stats");
        }
        self.stats = ClusterStats {
            nodes_added: self.stats.nodes_added,
            nodes_killed: self.stats.nodes_killed,
            failover_warm: self.stats.failover_warm,
            failover_cold: self.stats.failover_cold,
            ..ClusterStats::default()
        };
    }
}

/// Load weight of a session for bounded-load placement:
/// `m · (n + |E|·(n + |E|))`. The LP's block-coordinate ascent revisits a
/// group's `m`-wide blocks once per coupling-neighbourhood change, so solve
/// time is driven by *pairs of coupled blocks* — roughly `|E|·(n + |E|)` —
/// not by matrix size alone. Calibrated against measured relaxation times
/// across dataset profiles this proxy stays within ~1.7x of true cost,
/// where linear proxies (session counts, `m·(n+|E|)`) are off by 9x.
fn session_weight(instance: &SvgicInstance) -> u64 {
    let n = instance.num_users() as u64;
    let m = instance.num_items() as u64;
    let edges = instance.graph().edges().len() as u64;
    (m * (n + edges * (n + edges))).max(1)
}

fn normalized_present(initial: &[UserIdx], population: usize) -> BTreeSet<UserIdx> {
    if initial.is_empty() {
        (0..population).collect()
    } else {
        initial.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{QueueDepthPolicy, RingPolicy};
    use svgic_core::example::running_example;
    use svgic_core::extensions::DynamicEvent;

    fn config(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            vnodes: 64,
            engine: EngineConfig {
                workers: 2,
                shards: 2,
                ..EngineConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    fn open(cluster: &mut Cluster, key: u64) -> NodeId {
        let (node, view) = cluster
            .open_session(
                key,
                CreateSession {
                    instance: running_example(),
                    initial_present: Vec::new(),
                    seed: 0xBEEF ^ key,
                },
            )
            .expect("opens");
        assert!(view.configuration.is_valid(view.catalog.len()));
        node
    }

    #[test]
    fn routes_sessions_across_nodes_and_serves() {
        let mut cluster = Cluster::new(config(3));
        assert_eq!(cluster.node_count(), 3);
        for key in 0..12 {
            open(&mut cluster, key);
        }
        assert_eq!(cluster.session_count(), 12);
        // Consistent hashing spread the sessions over more than one node.
        let nodes: BTreeSet<NodeId> = (0..12).map(|k| cluster.placement_of(k).unwrap()).collect();
        assert!(nodes.len() > 1, "12 keys all hashed to one node");
        cluster
            .submit_event(3, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        cluster.flush_all();
        let (_, view) = cluster.query_configuration(3).unwrap();
        assert_eq!(view.present, vec![1, 2, 3]);
        let (_, lifetime) = cluster.close_session(3).unwrap();
        assert_eq!(lifetime, 1);
        assert_eq!(cluster.session_count(), 11);
        assert!(matches!(
            cluster.query_configuration(3),
            Err(ClusterError::UnknownSession(3))
        ));
        assert!(matches!(
            cluster.open_session(
                5,
                CreateSession {
                    instance: running_example(),
                    initial_present: Vec::new(),
                    seed: 0,
                }
            ),
            Err(ClusterError::DuplicateKey(5))
        ));
    }

    #[test]
    fn bounded_load_placement_caps_birth_imbalance() {
        // Pick keys that pure ring routing would all stack on one node.
        let mut probe = HashRing::new(64);
        probe.add_node(NodeId(0));
        probe.add_node(NodeId(1));
        let stacked: Vec<u64> = (0..200)
            .filter(|&key| probe.route(key) == Some(NodeId(0)))
            .take(8)
            .collect();
        assert_eq!(stacked.len(), 8);

        // Ring mode: the stack happens.
        let mut ring_cluster = Cluster::new(ClusterConfig {
            placement: PlacementMode::Ring,
            ..config(2)
        });
        for &key in &stacked {
            open(&mut ring_cluster, key);
        }
        assert!(stacked
            .iter()
            .all(|&key| ring_cluster.placement_of(key) == Some(NodeId(0))));
        assert_eq!(ring_cluster.stats().spill_placements, 0);

        // Bounded-load mode: the overloaded home spills clockwise and the
        // split stays within one session of even (identical weights).
        let mut bounded = Cluster::new(ClusterConfig {
            placement: PlacementMode::BoundedLoad {
                capacity_factor: 1.1,
            },
            ..config(2)
        });
        for &key in &stacked {
            open(&mut bounded, key);
        }
        let counts: Vec<usize> = [NodeId(0), NodeId(1)]
            .iter()
            .map(|&node| {
                stacked
                    .iter()
                    .filter(|&&key| bounded.placement_of(key) == Some(node))
                    .count()
            })
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(
            counts[0].abs_diff(counts[1]) <= 1,
            "bounded-load placement must even out a stacked keyspace: {counts:?}"
        );
        assert!(
            bounded.stats().spill_placements > 0,
            "spills must be counted"
        );
    }

    #[test]
    fn migration_moves_state_and_preserves_warm_capital() {
        let mut cluster = Cluster::new(config(2));
        let from = open(&mut cluster, 1);
        let to = cluster.node_ids().into_iter().find(|&n| n != from).unwrap();
        let (_, before) = cluster.query_configuration(1).unwrap();
        let warm = cluster.migrate_session(1, to).unwrap();
        assert!(warm, "solved session carries factors");
        assert_eq!(cluster.placement_of(1), Some(to));
        let (node, after) = cluster.query_configuration(1).unwrap();
        assert_eq!(node, to);
        assert_eq!(after.configuration, before.configuration);
        assert_eq!(after.generation, before.generation);
        assert_eq!(cluster.stats().migrations, 1);
        assert_eq!(cluster.stats().warm_capital_preserved, 1);
        // Moving to the current home is a counted-nowhere no-op.
        assert!(!cluster.migrate_session(1, to).unwrap());
        assert_eq!(cluster.stats().migrations, 1);
    }

    #[test]
    fn rebalance_with_queue_depth_policy_evens_the_fleet() {
        let mut cluster = Cluster::new(config(2));
        // Stack every session on one node by migrating them there first.
        for key in 0..6 {
            open(&mut cluster, key);
        }
        let target = cluster.node_ids()[0];
        for key in 0..6 {
            let _ = cluster.migrate_session(key, target);
        }
        let before = cluster.stats().migrations;
        let moves = cluster.rebalance(&QueueDepthPolicy { tolerance: 1 });
        assert!(!moves.is_empty(), "stacked fleet must rebalance");
        assert_eq!(cluster.stats().migrations, before + moves.len() as u64);
        let sessions: Vec<usize> = cluster
            .node_ids()
            .iter()
            .map(|&n| {
                (0..6)
                    .filter(|&k| cluster.placement_of(k) == Some(n))
                    .count()
            })
            .collect();
        let max = *sessions.iter().max().unwrap() as i64;
        let min = *sessions.iter().min().unwrap() as i64;
        assert!(max - min <= 1, "unbalanced after rebalance: {sessions:?}");
        assert_eq!(cluster.stats().rebalances, 1);
    }

    #[test]
    fn kill_node_recovers_sessions_cold() {
        let mut cluster = Cluster::new(config(3));
        for key in 0..9 {
            open(&mut cluster, key);
        }
        // Mutate one session's catalogue + λ so recovery must restore them.
        cluster
            .submit_event(0, SessionEvent::SetCatalog(vec![0, 1, 2, 3]))
            .unwrap();
        cluster
            .submit_event(0, SessionEvent::RetuneLambda(0.25))
            .unwrap();
        cluster.flush_all();

        let victim = cluster.placement_of(0).unwrap();
        let report = cluster.kill_node(victim).unwrap();
        assert_eq!(report.node, victim);
        assert!(report.sessions_lost >= 1);
        assert_eq!(report.recovered.len(), report.sessions_lost);
        assert_eq!(cluster.node_count(), 2);
        assert!(!cluster.node_ids().contains(&victim));
        assert_eq!(cluster.session_count(), 9, "no session may be lost");
        assert_eq!(
            cluster.stats().sessions_recovered,
            report.sessions_lost as u64
        );
        assert_eq!(
            cluster.stats().warm_capital_lost,
            report.sessions_lost as u64
        );
        // The recovered session serves, with its catalogue/λ intent restored.
        let (node, view) = cluster.query_configuration(0).unwrap();
        assert_ne!(node, victim);
        assert_eq!(view.catalog, vec![0, 1, 2, 3]);
        assert!(view.configuration.is_valid(view.catalog.len()));
        // Killing down to one node is allowed; killing the last is not.
        let next = cluster.node_ids()[0];
        cluster.kill_node(next).unwrap();
        let last = cluster.node_ids()[0];
        assert!(matches!(
            cluster.kill_node(last),
            Err(ClusterError::LastNode(_))
        ));
        assert_eq!(cluster.session_count(), 9);
    }

    #[test]
    fn replicated_kill_fails_over_warm() {
        let mut cluster = Cluster::new(ClusterConfig {
            replicate: true,
            ..config(3)
        });
        for key in 0..6 {
            open(&mut cluster, key);
        }
        // The flush boundary ships every session's standby replica.
        cluster.flush_all();
        assert!(
            cluster.stats().replication_bytes > 0,
            "replication must account shipped bytes"
        );
        let before: BTreeMap<u64, _> = (0..6)
            .map(|key| (key, cluster.query_configuration(key).unwrap().1))
            .collect();

        let victim = cluster.placement_of(0).unwrap();
        let report = cluster.kill_node(victim).unwrap();
        assert!(report.sessions_lost >= 1);
        assert_eq!(cluster.session_count(), 6, "no session may be lost");
        assert_eq!(
            cluster.stats().warm_capital_lost,
            0,
            "current replicas must promote, not rebuild cold"
        );
        assert_eq!(
            cluster.stats().standby_promotions,
            report.sessions_lost as u64
        );
        assert_eq!(cluster.stats().failover_warm, 1);
        assert_eq!(cluster.stats().failover_cold, 0);
        // Promoted sessions serve exactly what they served before the kill:
        // same configuration, same solve generation — a warm kill is
        // digest-invisible, like a migration.
        for key in 0..6 {
            let (node, after) = cluster.query_configuration(key).unwrap();
            assert_ne!(node, victim);
            assert_eq!(after.configuration, before[&key].configuration);
            assert_eq!(after.generation, before[&key].generation);
        }
        // The promoted warm capital is live: the next incremental re-solve
        // on the adopting node starts warm (session-affine factor reuse)
        // even though that node never computed the factors itself.
        let (key, node) = report.recovered[0];
        cluster.reset_stats();
        cluster
            .submit_event(key, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        cluster.flush_node(node).unwrap();
        let stats = cluster.node_stats(node).unwrap();
        assert!(stats.solves() >= 1, "the promoted session re-solved");
        assert!(
            stats.warm_start_rate() > 0.0,
            "promoted session must re-solve warm: {stats}"
        );
    }

    #[test]
    fn stale_replica_rebuilds_cold_and_counts_a_cold_failover() {
        let mut cluster = Cluster::new(ClusterConfig {
            replicate: true,
            ..config(2)
        });
        open(&mut cluster, 11);
        cluster.flush_all();
        // Mutate after the replica shipped: the standby is now one mutation
        // generation behind, and the pending event has not been flushed.
        cluster
            .submit_event(11, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        let victim = cluster.placement_of(11).unwrap();
        let report = cluster.kill_node(victim).unwrap();
        assert_eq!(report.sessions_lost, 1);
        assert_eq!(
            cluster.stats().standby_promotions,
            0,
            "a stale replica must never promote"
        );
        assert_eq!(cluster.stats().warm_capital_lost, 1);
        assert_eq!(cluster.stats().failover_warm, 0);
        assert_eq!(cluster.stats().failover_cold, 1);
        // The cold rebuild replayed the shadow intent exactly once: the
        // unflushed leave is neither dropped nor double-applied.
        let (_, view) = cluster.query_configuration(11).unwrap();
        assert_eq!(view.present, vec![1, 2, 3]);
        assert_eq!(view.staleness, 0, "recovery flush applied the intent");
        // The failover classification is paired with the kill counter and
        // survives a stats reset alongside it.
        cluster.reset_stats();
        assert_eq!(
            cluster.stats().failover_warm + cluster.stats().failover_cold,
            cluster.stats().nodes_killed
        );
        assert_eq!(cluster.stats().warm_capital_lost, 0);
    }

    #[test]
    fn graveyard_reuses_crashed_backends_for_joins() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spawns = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = std::sync::Arc::clone(&spawns);
        let mut cluster = Cluster::with_backends(config(2), move |engine: &EngineConfig| {
            counter.fetch_add(1, Ordering::Relaxed);
            Engine::new(engine.clone())
        });
        assert_eq!(spawns.load(Ordering::Relaxed), 2);
        for key in 0..4 {
            open(&mut cluster, key);
        }
        let victim = cluster.node_ids()[0];
        cluster.kill_node(victim).unwrap();
        // The join reuses the crashed husk instead of spawning: kill/join
        // churn works even when backends are processes we cannot fork.
        let joined = cluster.add_node();
        assert_eq!(
            spawns.load(Ordering::Relaxed),
            2,
            "graveyard must be reused"
        );
        assert_eq!(cluster.node_count(), 2);
        assert_ne!(joined, victim, "a join is a fresh identity");
        // The reused backend is pristine and serves.
        let mut probe = cluster.node_stats(joined).unwrap();
        assert_eq!(probe.requests, 0);
        cluster.migrate_session(0, joined).unwrap();
        let (node, view) = cluster.query_configuration(0).unwrap();
        assert_eq!(node, joined);
        assert!(view.configuration.is_valid(view.catalog.len()));
        probe = cluster.node_stats(joined).unwrap();
        assert!(probe.requests > 0);
    }

    #[test]
    fn kill_recovers_dormant_sessions() {
        let mut cluster = Cluster::new(config(2));
        open(&mut cluster, 4);
        for user in 0..4 {
            cluster
                .submit_event(4, SessionEvent::Membership(DynamicEvent::Leave(user)))
                .unwrap();
        }
        cluster.flush_all();
        let victim = cluster.placement_of(4).unwrap();
        cluster.kill_node(victim).unwrap();
        let (_, view) = cluster.query_configuration(4).unwrap();
        assert!(view.present.is_empty(), "recovered session stays dormant");
        // And it revives like any dormant session.
        cluster
            .submit_event(4, SessionEvent::Membership(DynamicEvent::Join(1)))
            .unwrap();
        cluster.flush_all();
        let (_, view) = cluster.query_configuration(4).unwrap();
        assert_eq!(view.present, vec![1]);
    }

    #[test]
    fn ring_rebalance_after_join_hands_the_newcomer_its_share() {
        let mut cluster = Cluster::new(config(2));
        for key in 0..24 {
            open(&mut cluster, key);
        }
        let newcomer = cluster.add_node();
        let moves = cluster.rebalance(&RingPolicy);
        assert!(
            moves.iter().any(|m| m.to == newcomer),
            "ring policy must route part of the keyspace to the new node"
        );
        // Every moved session now lives on its ring home; untouched sessions
        // did not move (consistent hashing's minimal-disruption property).
        for m in &moves {
            assert_eq!(cluster.placement_of(m.key), Some(m.to));
        }
    }

    #[test]
    fn snapshot_merges_node_counters() {
        let mut cluster = Cluster::new(config(2));
        for key in 0..6 {
            open(&mut cluster, key);
        }
        cluster
            .submit_event(2, SessionEvent::Membership(DynamicEvent::Leave(1)))
            .unwrap();
        let snapshot = cluster.snapshot();
        assert_eq!(snapshot.nodes.len(), 2);
        assert_eq!(snapshot.total_sessions(), 6);
        let created: u64 = snapshot
            .nodes
            .iter()
            .map(|n| n.engine.sessions_created)
            .sum();
        assert_eq!(snapshot.merged.sessions_created, created);
        assert_eq!(created, 6);
        assert_eq!(
            snapshot.merged.total_queue_depth(),
            1,
            "one event pending fleet-wide"
        );
        cluster.reset_stats();
        let snapshot = cluster.snapshot();
        assert_eq!(snapshot.merged.sessions_created, 0);
        // Traffic counters reset; topology counters are fleet facts and
        // survive (a post-warmup report must still know the initial fleet
        // size to tell joins from initial nodes).
        assert_eq!(
            snapshot.stats,
            ClusterStats {
                nodes_added: 2,
                ..ClusterStats::default()
            }
        );
        assert_eq!(
            snapshot.merged.total_queue_depth(),
            1,
            "reset must not consume live pending events"
        );
    }

    #[test]
    fn snapshot_carries_per_node_telemetry_health_and_memory() {
        let mut cluster = Cluster::new(config(2));
        for key in 0..4 {
            open(&mut cluster, key);
        }
        cluster
            .submit_event(1, SessionEvent::Membership(DynamicEvent::Leave(0)))
            .unwrap();
        cluster.flush_all();
        cluster.flush_all();
        let snapshot = cluster.snapshot();
        for node in &snapshot.nodes {
            assert!(
                !node.telemetry.is_empty(),
                "{}: each flush ticks the node's sampler",
                node.node
            );
            let ticks: Vec<u64> = node.telemetry.iter().map(|s| s.tick).collect();
            let mut sorted = ticks.clone();
            sorted.sort_unstable();
            assert_eq!(ticks, sorted, "ticks are monotone");
            assert_eq!(
                node.health(),
                svgic_engine::Health::Ok,
                "an unloaded fleet is healthy"
            );
            assert!(node.mem_bytes() > 0, "hosted sessions are accounted");
        }
        // The router's own recovery state is accounted too.
        assert!(cluster.shadow_footprint_bytes() > 0);
        let before = cluster.shadow_footprint_bytes();
        for key in 0..4 {
            cluster.close_session(key).unwrap();
        }
        assert!(
            cluster.shadow_footprint_bytes() < before,
            "closing sessions releases shadow bytes"
        );
        assert_eq!(cluster.shadow_footprint_bytes(), 0);
    }

    #[test]
    fn shadow_instances_are_interned_per_template() {
        let mut cluster = Cluster::new(config(2));
        for key in 0..5 {
            open(&mut cluster, key); // all from the same running example
        }
        assert_eq!(
            cluster.instances.len(),
            1,
            "identical instances share one resident copy"
        );
        for key in 0..4 {
            cluster.close_session(key).unwrap();
        }
        assert_eq!(cluster.instances.len(), 1, "still one shadow alive");
        cluster.close_session(4).unwrap();
        assert!(
            cluster.instances.is_empty(),
            "last close prunes the interned instance"
        );
    }
}
