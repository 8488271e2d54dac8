//! Typed request/response surface of the engine.
//!
//! Every interaction with [`crate::Engine`] is expressible as an
//! [`EngineRequest`] handled by [`crate::Engine::handle`], which makes the
//! engine trivially embeddable behind any transport (an RPC layer, a command
//! log, a fuzzer). Convenience methods on `Engine` wrap the same paths.

use svgic_core::extensions::DynamicEvent;
use svgic_core::{Configuration, ItemIdx, SvgicInstance, UserIdx};

use crate::session::SessionExport;
use crate::stats::StatsSnapshot;

/// Opaque identifier of a live session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// An event submitted against a live session.
///
/// [`DynamicEvent`] joins/leaves are the paper's §5 dynamic scenario; the two
/// extra variants cover online catalogue churn and re-tuning of the
/// preference/social trade-off `λ` without tearing the session down.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionEvent {
    /// A shopper joins or leaves the group (paper extension F).
    Membership(DynamicEvent),
    /// Replaces the active catalogue with the given subset of the session's
    /// full item universe (original item indices, deduplicated, `≥ k` items).
    SetCatalog(Vec<ItemIdx>),
    /// Re-tunes the preference/social trade-off weight `λ ∈ [0, 1]`.
    RetuneLambda(f64),
}

/// Parameters for opening a session.
#[derive(Clone, Debug)]
pub struct CreateSession {
    /// The group's full instance: every shopper that may ever be present and
    /// the full item universe.
    pub instance: SvgicInstance,
    /// Shoppers present at session start (original user indices). Empty means
    /// "everyone".
    pub initial_present: Vec<UserIdx>,
    /// Base seed for this session's randomized rounding.
    pub seed: u64,
}

/// A request against the engine.
///
/// The first five variants are the per-session data plane. The remaining
/// variants complete the surface so that *everything* a driver or a cluster
/// router does to an engine — flushing the batch clock, reading or resetting
/// counters, draining and adopting sessions for live migration, probing the
/// engine's shape — is expressible as one request, which is what makes the
/// engine servable behind a wire protocol (`svgic-net`) without side
/// channels.
#[derive(Clone, Debug)]
pub enum EngineRequest {
    /// Opens a session and schedules its initial solve (boxed: the payload
    /// carries a whole [`SvgicInstance`], far larger than the other variants).
    CreateSession(Box<CreateSession>),
    /// Appends an event to a session's pending queue.
    SubmitEvent(SessionId, SessionEvent),
    /// Reads the last served configuration (possibly stale).
    QueryConfiguration(SessionId),
    /// Flushes the session's pending events and forces a *full* LP re-solve.
    ForceResolve(SessionId),
    /// Closes a session and drops its state.
    CloseSession(SessionId),
    /// Applies every session's pending events in one batched dispatch
    /// ([`crate::Engine::flush`]). Not counted as a request — the flush
    /// clock belongs to the driver, not to traffic accounting.
    Flush,
    /// Reads a point-in-time snapshot of the engine counters.
    QueryStats,
    /// Resets the engine counters (sessions and caches stay) — the warmup
    /// measurement boundary.
    ResetStats,
    /// Drains a session into its transferable [`SessionExport`] form — the
    /// outbound half of a live migration.
    ExportSession(SessionId),
    /// Adopts an exported session under a fresh local id — the inbound half
    /// of a live migration (boxed: carries a whole instance).
    ImportSession(Box<SessionExport>),
    /// Probes the engine's shape and occupancy ([`EngineInfo`]).
    Describe,
    /// Reads the engine's exported metric series — the same ordered
    /// `(name, value)` list `StatsSnapshot::metrics()` produces locally, so
    /// remote scrapers (`loadgen metrics --connect`) need no snapshot codec
    /// knowledge to plot a node.
    QueryMetrics,
    /// Reads the engine's telemetry ring — the per-tick
    /// [`TelemetrySample`](svgic_obs::TelemetrySample) time series — so
    /// remote nodes' history lands in cluster reports and
    /// `loadgen --trace-out` counter tracks.
    QueryTelemetry,
    /// Reads the engine's profile — the per-template cost-attribution
    /// ledger plus the critical path assembled from the flight recorder
    /// (phase aggregates, top-K-slowest request waterfalls, collapsed-stack
    /// export) — behind `loadgen profile --connect`.
    QueryProfile,
    /// Clones a live session into its transferable [`SessionExport`] form
    /// *without* draining it — the replication half of warm standby: the
    /// session keeps serving while a copy travels to its ring-successor.
    /// Answered with [`EngineResponse::SessionExported`], like the
    /// destructive [`EngineRequest::ExportSession`].
    SnapshotSession(SessionId),
    /// Stores a standby replica under a cluster-assigned key. Replicas are
    /// passive payload — they are not sessions, are never solved, and die
    /// with the node holding them (which is what makes the failure
    /// semantics honest). A later put under the same key overwrites.
    PutStandby(u64, Box<SessionExport>),
    /// Removes and returns the standby replica stored under a key (`None`
    /// when absent). Promotion and discard are the same operation: the
    /// router takes the replica either to import it on a surviving node or
    /// to drop a stale copy.
    TakeStandby(u64),
    /// Simulates a node crash: wipes every session, standby replica, cache
    /// and counter, returning the engine to its freshly-constructed state
    /// (worker pool kept). A remote server that handled `Crash` is
    /// indistinguishable from a newly spawned node, which is what lets the
    /// cluster kill and re-join *processes* it cannot actually fork.
    Crash,
}

/// The engine's shape and current occupancy, as answered to
/// [`EngineRequest::Describe`]. Remote drivers use this where in-process
/// callers would read `Engine::workers()` / `session_count()` directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineInfo {
    /// Workers the engine resolved, the calling thread included (`0`
    /// configs resolve to one per core, so this is never zero).
    pub workers: usize,
    /// Session shards.
    pub shards: usize,
    /// Live sessions right now.
    pub sessions: usize,
    /// Events queued engine-wide awaiting the next flush.
    pub pending_events: usize,
}

/// A view of a session's currently served solution.
#[derive(Clone, Debug)]
pub struct ConfigurationView {
    /// The session.
    pub session: SessionId,
    /// Shoppers the configuration covers, as original user indices;
    /// `configuration` user `i` is `present[i]`.
    pub present: Vec<UserIdx>,
    /// Active catalogue, as original item indices; `configuration` item `c`
    /// is `catalog[c]`.
    pub catalog: Vec<ItemIdx>,
    /// The served SAVG k-configuration (over restricted indices).
    pub configuration: Configuration,
    /// SAVG utility of the served configuration.
    pub utility: f64,
    /// LP upper bound associated with the factors that produced it (for
    /// incremental solves this is the full-population bound, hence loose).
    pub lp_bound: f64,
    /// Number of submitted-but-unapplied events.
    pub staleness: usize,
    /// How many solves this session has gone through.
    pub generation: u64,
}

/// A successful response.
#[derive(Clone, Debug)]
pub enum EngineResponse {
    /// The session was created and initially solved.
    SessionCreated(ConfigurationView),
    /// The event was queued; payload is the session's pending-event count.
    EventAccepted {
        /// The session the event was queued against.
        session: SessionId,
        /// Pending events for that session after queueing.
        pending: usize,
    },
    /// The current (possibly stale) configuration.
    Configuration(ConfigurationView),
    /// The session was re-solved; the view is fresh.
    Resolved(ConfigurationView),
    /// The session was closed.
    SessionClosed {
        /// The closed session.
        session: SessionId,
        /// Events it processed over its lifetime.
        lifetime_events: u64,
    },
    /// The batch flush completed.
    Flushed,
    /// The engine counters (boxed: the snapshot carries per-shard vectors).
    Stats(Box<StatsSnapshot>),
    /// The counters were reset.
    StatsReset,
    /// The drained session state (boxed: carries a whole instance).
    SessionExported(Box<SessionExport>),
    /// The imported session's fresh local id.
    SessionImported(SessionId),
    /// The engine's shape and occupancy.
    Description(EngineInfo),
    /// The engine's exported metric series, in `StatsSnapshot::metrics()`
    /// order.
    Metrics(Vec<(String, f64)>),
    /// The engine's telemetry ring, oldest sample first.
    Telemetry(Vec<svgic_obs::TelemetrySample>),
    /// The engine's profile (boxed: carries ledger entries, waterfalls and
    /// the collapsed-stack text).
    Profile(Box<crate::profile::EngineProfile>),
    /// The standby replica was stored.
    StandbyStored,
    /// The standby replica under the requested key, removed from the store
    /// (`None` when no replica was held; boxed: carries a whole instance).
    StandbyTaken(Option<Box<SessionExport>>),
    /// The engine wiped itself back to its freshly-constructed state.
    Crashed,
}

/// Why a request was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The session id is not live.
    UnknownSession(SessionId),
    /// The event refers to users/items outside the session's universe or
    /// would leave the session unsolvable (e.g. catalogue smaller than `k`).
    InvalidEvent(String),
    /// The `CreateSession` payload is unusable.
    InvalidSession(String),
    /// The request never reached (or never returned from) the engine: an IO
    /// failure, a malformed frame, or a protocol mismatch on a remote
    /// transport. The in-process engine never returns this variant.
    Transport(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownSession(id) => write!(f, "unknown {id}"),
            EngineError::InvalidEvent(msg) => write!(f, "invalid event: {msg}"),
            EngineError::InvalidSession(msg) => write!(f, "invalid session: {msg}"),
            EngineError::Transport(msg) => write!(f, "transport: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}
