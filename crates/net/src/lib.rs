//! # svgic-net — a real wire protocol for the serving engine
//!
//! Four PRs of serving infrastructure (engine, workload, cluster) ran
//! entirely in-process: the cluster's scale-out numbers were busy-clock
//! *projections*, not measurements over real hosts. This crate closes that
//! gap with a hand-rolled, offline-safe TCP transport:
//!
//! * [`frame`] — the length-prefixed binary frame (magic `SVGN`, version,
//!   kind, request id, payload), with corruption-safe reading: bad magic,
//!   oversized lengths and mid-frame disconnects error cleanly before any
//!   engine state is touched;
//! * [`server`] — a blocking [`std::net::TcpListener`] server fronting one
//!   [`svgic_engine::Engine`] behind a lock: one acceptor, and one thread per
//!   connection that reads a frame, serves it under the engine lock and
//!   writes the response itself — one request in the engine at a time, each
//!   connection's in order (responses are matched to requests by id);
//! * [`client`] — [`NetClient`], which implements the same
//!   [`EngineTransport`](svgic_engine::transport::EngineTransport) trait as
//!   the in-process engine, so the `svgic-workload` load drivers and the
//!   `svgic-cluster` router run **unchanged** over TCP.
//!
//! The payload format is `svgic_engine::codec` — canonical bytes, specified
//! in `docs/FORMATS.md`. Because the engine is deterministic and the codec
//! is canonical, the same trace produces the **identical configuration
//! digest** in-process, over one TCP server, or over N server processes
//! (`loadgen serve` / `loadgen --connect`); CI's `net-smoke` step and
//! `tests/net_service.rs` assert exactly that.
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use svgic_engine::prelude::*;
//! use svgic_net::{NetClient, NetServer};
//!
//! // Server half: an engine behind an ephemeral loopback port.
//! let engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
//! let server = NetServer::bind("127.0.0.1:0", engine)?;
//!
//! // Client half: the same driver-facing trait as the in-process engine.
//! let mut client = NetClient::connect(server.local_addr())?;
//! let view = client.create_session(CreateSession {
//!     instance: svgic_core::example::running_example(),
//!     initial_present: vec![],
//!     seed: 7,
//! })?;
//! assert!(view.configuration.is_valid(view.catalog.len()));
//! client.shutdown_server()?;
//! server.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{NetClient, RetryPolicy};
pub use frame::{Frame, FrameError, FrameKind, MAGIC, MAX_PAYLOAD, VERSION};
pub use server::NetServer;
