//! # svgic-workload — scenario-driven load testing for the serving engine
//!
//! PR 1 turned the paper's batch solvers into an always-on serving engine;
//! this crate generates the *traffic*. It answers three questions the
//! workspace could not before:
//!
//! 1. **What does realistic load look like?** The [`scenario`] module names
//!    five parameterized traffic shapes (steady mall, diurnal cycle, flash
//!    sale, churn-heavy catalogue, megagroup stress) built from arrival
//!    processes ([`arrival`]), heavy-tailed group-size/duration/popularity
//!    distributions ([`distributions`]), and the `svgic-graph`-backed
//!    dataset profiles.
//! 2. **Can a run be reproduced?** Everything a scenario generates
//!    ([`synth`]) is materialized into a compact line-oriented [`trace`]
//!    that records and replays **bit-identically** across machines —
//!    instances are rebuilt from seeds, floats round-trip as IEEE-754 bits.
//! 3. **How does the engine behave under that load?** The [`driver`] feeds a
//!    trace into `svgic-engine` open- or closed-loop, recording per-request
//!    latency into HDR-style log-bucketed histograms ([`LatencyHistogram`]),
//!    sustained throughput, utility-vs-bound quality, and a deterministic
//!    configuration digest; [`report`] serializes it all as machine-readable
//!    JSON for the perf trajectory.
//! 4. **Does it scale out?** The [`cluster_driver`] runs the same traces
//!    against a multi-node `svgic-cluster` fabric (`loadgen --nodes N`),
//!    merging per-node latency histograms and engine snapshots and executing
//!    a [`cluster_driver::NodePlan`] of node kills, joins and rebalances —
//!    the `node-churn` scenario's whole point. Digests stay comparable with
//!    single-engine runs: topology and live migration never change what is
//!    served.
//!
//! 5. **Does the wire change anything?** No — the drivers are generic over
//!    `svgic_engine::transport::EngineTransport`
//!    ([`LoadDriver::run_on`](driver::LoadDriver::run_on),
//!    [`ClusterDriver::run_with`](cluster_driver::ClusterDriver::run_with)),
//!    so the same traces drive `svgic-net` TCP servers — one, or a
//!    multi-process fleet — with **identical configuration digests**;
//!    [`json`] parses the reports back for conformance testing.
//!
//! The `loadgen` binary (this crate's `src/bin/loadgen.rs`) is the CLI over
//! all of it — its whole flag surface is defined once in [`cli`], which
//! generates both the parser and `--help`:
//!
//! ```text
//! cargo run --release --bin loadgen -- --scenario flash-sale --seed 7
//! cargo run --release --bin loadgen -- --replay target/loadgen/flash-sale-seed7.trace
//! cargo run --release --bin loadgen -- serve --port 7741
//! cargo run --release --bin loadgen -- --scenario steady-mall --connect 127.0.0.1:7741
//! ```
//!
//! ## Example
//!
//! ```rust
//! use svgic_workload::prelude::*;
//!
//! let mut scenario = Scenario::steady_mall().smoke(); // tiny for doctests
//! scenario.ticks = 2;
//! let trace = generate(&scenario, 7);
//! assert_eq!(trace.render(), generate(&scenario, 7).render()); // deterministic
//!
//! let outcome = LoadDriver::new(DriverConfig::default()).run(&trace);
//! assert!(outcome.requests > 0);
//! let json = LoadReport::new(&trace, outcome).to_json();
//! assert!(json.contains("throughput_rps"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod cli;
pub mod cluster_driver;
pub mod distributions;
pub mod driver;
pub mod json;
pub mod report;
pub mod scenario;
pub mod synth;
pub mod trace;

pub use arrival::{ArrivalProcess, ArrivalSampler};
pub use cluster_driver::{
    ClusterDriver, ClusterDriverConfig, ClusterLoadOutcome, NodeAction, NodeOutcome, NodePlan,
    PolicyKind,
};
pub use driver::{DriveMode, DriverConfig, LatencyBreakdown, LoadDriver, LoadOutcome};
pub use report::{ClusterReport, LoadReport, CLUSTER_REPORT_SCHEMA, REPORT_SCHEMA};
pub use scenario::{DurationModel, GroupSizeModel, Scenario};
pub use svgic_obs::LatencyHistogram;
pub use synth::generate;
pub use trace::{TemplateSpec, Trace, TraceError, TraceEvent};

/// The most common workload imports in one place.
pub mod prelude {
    pub use crate::arrival::ArrivalProcess;
    pub use crate::cluster_driver::{
        ClusterDriver, ClusterDriverConfig, ClusterLoadOutcome, NodeAction, NodePlan, PolicyKind,
    };
    pub use crate::driver::{DriveMode, DriverConfig, LoadDriver, LoadOutcome};
    pub use crate::report::{ClusterReport, LoadReport};
    pub use crate::scenario::Scenario;
    pub use crate::synth::generate;
    pub use crate::trace::{Trace, TraceEvent};
    pub use crate::LatencyHistogram;
}
