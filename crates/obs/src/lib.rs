//! # svgic-obs — observability primitives for the serving fabric
//!
//! The engine, the cluster fabric and the wire transport all answer *what*
//! happened through counters; this crate answers **where a request spent its
//! time**. It is deliberately zero-dependency (std only) and strictly
//! read-side: nothing here may influence seeds, session ids or served
//! configurations — tracing on vs. off yields byte-identical config digests,
//! a contract the workspace proptests.
//!
//! Four pieces, one module each:
//!
//! * [`phase`] — the static [`Phase`] enum naming every traced pipeline
//!   stage (submit → coalesce → shard dispatch → warm/cold LP → projection →
//!   rounding → serve, plus migration and the wire codec);
//! * [`tracer`] — the [`Tracer`] handle (cheap monotonic-clock spans,
//!   one relaxed atomic load on the disabled path) and the fixed-capacity
//!   lock-sharded [`FlightRecorder`] ring buffer behind it, configured by
//!   [`ObsConfig`] (off by default);
//! * [`histogram`] — the log-bucketed [`LatencyHistogram`] (moved here from
//!   `svgic-workload` so the engine can depend on it) and the compact
//!   mergeable [`HistogramSnapshot`] that engine stats record into and that
//!   crosses the wire;
//! * [`profile`] — critical-path assembly over recorded spans: per-phase
//!   aggregates ([`aggregate_phases`]), top-K-slowest request waterfalls
//!   ([`assemble_waterfalls`]) and the flamegraph-compatible collapsed-stack
//!   export ([`collapsed_stacks`]) behind `loadgen profile`;
//! * [`registry`] — the [`MetricsRegistry`] builder that renders counters,
//!   gauges and histograms into the ordered name/value list served by
//!   `StatsSnapshot::metrics()` and the `QueryMetrics` wire request;
//! * [`chrome`] — the Chrome trace-event JSON exporter
//!   ([`chrome_trace_json`]) behind `loadgen --trace-out`, loadable in
//!   `chrome://tracing` and Perfetto, plus the counter-event variant
//!   ([`chrome_trace_json_with_counters`]) that overlays the telemetry
//!   ring;
//! * [`telemetry`] — the fixed-capacity [`TelemetryRing`] of per-tick
//!   [`TelemetrySample`] rows behind the `time_series` report arrays and
//!   the `QueryTelemetry` wire request;
//! * [`slo`] — latency objectives ([`SloObjective`]), error-budget burn,
//!   and the [`HealthPolicy`] that folds burn + memory pressure into the
//!   per-node [`Health`] state;
//! * [`mem`] — the [`MemoryFootprint`] trait behind the `mem_*` byte
//!   gauges (capacity accounting across sessions, queues and caches).
//!
//! ```rust
//! use svgic_obs::{chrome_trace_json, ObsConfig, Phase, Tracer};
//!
//! let tracer = Tracer::new(ObsConfig::enabled());
//! let t = tracer.begin();
//! // ... the work being traced ...
//! tracer.finish(t, Phase::Round, 7, 1, 0);
//! let spans = tracer.spans();
//! assert_eq!(spans.len(), 1);
//! assert!(chrome_trace_json(&spans).contains("\"Round\""));
//!
//! // Disabled tracers record nothing and never read the clock.
//! let off = Tracer::new(ObsConfig::default());
//! assert!(off.begin().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod histogram;
pub mod mem;
pub mod phase;
pub mod profile;
pub mod registry;
pub mod slo;
pub mod telemetry;
pub mod tracer;

pub use chrome::{chrome_trace_json, chrome_trace_json_with_counters};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use mem::MemoryFootprint;
pub use phase::Phase;
pub use profile::{
    aggregate_phases, assemble_waterfalls, collapsed_stacks, PhaseAggregate, RequestWaterfall,
    WaterfallSpan, WATERFALL_TOP_K,
};
pub use registry::MetricsRegistry;
pub use slo::{Health, HealthPolicy, SloObjective};
pub use telemetry::{TelemetryRing, TelemetrySample};
pub use tracer::{FlightRecorder, ObsConfig, SpanRecord, Tracer};
