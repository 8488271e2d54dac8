//! # svgic-engine — online multi-session serving for SVGIC
//!
//! The batch solvers in `svgic-algorithms` answer one question for one group.
//! This crate turns them into an always-on service core, the setting the
//! paper motivates with social-VR platforms like Timik: many concurrent
//! shopping groups, each a live **session** receiving joins, leaves,
//! catalogue churn and λ re-tunes, each expecting a fresh SAVG
//! k-configuration without paying a full LP per event.
//!
//! Architecture (one module each):
//!
//! * [`api`] — typed request/response surface ([`EngineRequest`] /
//!   [`EngineResponse`]), session events wrapping the paper's
//!   [`svgic_core::extensions::DynamicEvent`] plus catalogue and λ events;
//! * [`session`] — per-session live state: full instance, active catalogue,
//!   present population, pending events, last served solution;
//! * [`scheduler`] — batched event coalescing (join/leave pairs cancel,
//!   superseded catalogue/λ updates fold away);
//! * [`policy`] — the incremental-vs-full re-solve decision
//!   ([`ResolvePolicy`]): cheap re-rounding against full-population factors
//!   (the paper's §5 dynamic mechanism) vs. a tight LP re-solve, driven by
//!   accumulated churn and utility drift;
//! * [`fingerprint`] — structural instance hashing;
//! * [`mem`] — byte-level memory accounting ([`MemoryFootprint`]) for
//!   session state, pending queues, served solutions and shard caches,
//!   feeding the `mem_*` gauges;
//! * [`cache`] — the LRU [`FactorCache`] of LP utility factors, shared
//!   across re-solves *and across sessions* on the same shard;
//! * [`warm`] — component-wise warm-started factor solving: the LP separates
//!   across social-graph components, so re-solves reuse cached factors of
//!   every component a membership delta did not touch (byte-identical to a
//!   cold solve, just cheaper);
//! * [`pool`] — the `std::thread` worker pool with per-thread queues, in
//!   which the calling thread is one of the workers; sessions hash to fixed
//!   shards, each flush runs one pipeline job per busy shard against
//!   shard-owned caches;
//! * [`stats`] — engine counters: requests, cache hit rate, solve latencies,
//!   utility-vs-LP-bound gap;
//! * [`profile`] — the per-template cost-attribution [`SolveLedger`]
//!   (warm/cold solve accounting with miss causes) and the
//!   [`EngineProfile`] served by the `QueryProfile` wire request;
//! * [`transport`] — the [`EngineTransport`] trait the load drivers and the
//!   cluster router program against, implemented by [`Engine`] (a function
//!   call) and by `svgic-net`'s TCP client (a wire round trip);
//! * [`codec`] — the canonical byte codec for [`EngineRequest`] /
//!   [`EngineResponse`] (and everything they carry: instances, exports,
//!   stats snapshots), the payload format of the `svgic-net` wire protocol.
//!
//! Served configurations are deterministic under fixed seeds regardless of
//! worker-thread scheduling: seeds derive from `(session, generation)` and
//! results are applied in session order.
//!
//! ```rust
//! use svgic_engine::prelude::*;
//! use svgic_core::extensions::DynamicEvent;
//!
//! let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
//! let view = engine
//!     .create_session(CreateSession {
//!         instance: svgic_core::example::running_example(),
//!         initial_present: vec![],
//!         seed: 7,
//!     })
//!     .unwrap();
//! let id = view.session;
//! engine.submit_event(id, SessionEvent::Membership(DynamicEvent::Leave(2))).unwrap();
//! engine.flush();
//! let view = engine.query_configuration(id).unwrap();
//! assert!(view.configuration.is_valid(view.catalog.len()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod codec;
pub mod engine;
pub mod fingerprint;
pub mod mem;
pub mod policy;
pub mod pool;
pub mod profile;
pub mod scheduler;
pub mod session;
pub mod stats;
pub mod transport;
pub mod warm;

pub use api::{
    ConfigurationView, CreateSession, EngineError, EngineInfo, EngineRequest, EngineResponse,
    SessionEvent, SessionId,
};
pub use cache::FactorCache;
pub use codec::{decode_request, decode_response, encode_request, encode_response, CodecError};
pub use engine::{Engine, EngineConfig};
pub use mem::{events_bytes, factors_bytes, instance_bytes, session_footprint, SessionFootprint};
pub use policy::{LpStart, PolicyInputs, ResolveDecision, ResolveKind, ResolvePolicy};
pub use profile::{EngineProfile, ProfileEntry, SolveLedger};
pub use session::{Served, SessionExport};
pub use stats::{ShardSnapshot, StatsSnapshot, DEFAULT_SLO};
pub use transport::EngineTransport;
pub use warm::{solve_factors_warm, CacheMode, WarmOutcome};
// Observability types callers meet through `EngineConfig::obs` and
// `Engine::tracer()`, re-exported so embedders need not name `svgic-obs`.
pub use svgic_obs::{
    Health, HealthPolicy, MemoryFootprint, ObsConfig, Phase, PhaseAggregate, RequestWaterfall,
    SloObjective, SpanRecord, TelemetryRing, TelemetrySample, Tracer, WaterfallSpan,
};

/// The most common engine imports in one place.
pub mod prelude {
    pub use crate::api::{
        ConfigurationView, CreateSession, EngineError, EngineInfo, EngineRequest, EngineResponse,
        SessionEvent, SessionId,
    };
    pub use crate::engine::{Engine, EngineConfig};
    pub use crate::policy::{LpStart, ResolveKind, ResolvePolicy};
    pub use crate::profile::{EngineProfile, ProfileEntry};
    pub use crate::stats::StatsSnapshot;
    pub use crate::transport::EngineTransport;
}
