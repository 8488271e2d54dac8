//! The blocking TCP server: one engine behind a lock, one acceptor, and one
//! thread per connection.
//!
//! Thread anatomy (all `std::thread`, no async runtime):
//!
//! ```text
//!   acceptor thread (TcpListener::incoming)
//!        │ spawns
//!        ▼
//!   conn A thread ─┐  read frame → decode → lock ┌──────────────────┐
//!   conn B thread ─┼──────────────────────────► │ Mutex<Engine>    │
//!   conn C thread ─┘  ◄── unlock → write frame   │ (handle_traced)  │
//!                                                └──────────────────┘
//! ```
//!
//! Each connection's thread reads a frame, decodes it, locks the engine,
//! calls [`Engine::handle_traced`], unlocks, and writes the response itself.
//! One connection's requests are therefore handled in order, one at a time,
//! and no two requests touch the engine at once: the server adds **no**
//! concurrency semantics the in-process engine did not already have, and
//! the serving path stays the engine's own batched scheduler. Responses
//! carry the request id of the frame that caused them, so a pipelining
//! client can match them.
//!
//! The engine lock is never held across socket I/O, so a client that stops
//! reading stalls only its own thread. A lock poisoned by a panicking
//! handler closes every connection that next reaches for it.
//!
//! Failure containment: a frame that fails to *decode* is answered with an
//! `EngineError::Transport` response (the connection lives on), as is a
//! response too large to frame; a stream whose framing is unrecoverable (bad
//! magic, oversized length, mid-frame death) is dropped without the engine
//! ever seeing a partial request — a malformed client cannot mutate any
//! engine state.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use svgic_engine::codec::{decode_request, encode_response};
use svgic_engine::{Engine, EngineError, EngineResponse, Phase, SpanRecord, Tracer};

use crate::frame::{read_frame, write_frame, Frame, FrameKind, MAX_PAYLOAD};

/// A running server: an [`Engine`] fronted by a TCP listener.
///
/// Construct with [`NetServer::bind`]; the server serves in background
/// threads until a client sends a shutdown frame
/// ([`crate::NetClient::shutdown_server`]), then [`NetServer::join`]
/// returns. Dropping the handle detaches the threads (the process keeps
/// serving), which is what `loadgen serve` relies on after printing the
/// bound address.
pub struct NetServer {
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

/// What every connection thread shares.
struct Shared {
    engine: Mutex<Engine>,
    /// The engine's tracer (Arc-backed), so a wait span can start before
    /// the lock is taken.
    tracer: Tracer,
    /// Set under the engine lock by a shutdown frame; every later request
    /// (and accept) sees it and closes its connection.
    stopping: AtomicBool,
    addr: SocketAddr,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// starts serving `engine` in background threads.
    pub fn bind(addr: impl ToSocketAddrs, engine: Engine) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            tracer: engine.tracer().clone(),
            engine: Mutex::new(engine),
            stopping: AtomicBool::new(false),
            addr,
        });
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || serve_connection(stream, &shared));
            }
        });
        Ok(NetServer { addr, acceptor })
    }

    /// The address the server actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client shuts the server down.
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// One connection: read a frame, serve it under the engine lock, write the
/// response. Runs until the client hangs up, the stream desyncs, a write
/// fails, or the server stops.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // Clean hangup or unrecoverable framing (bad magic, oversized length,
    // mid-frame death) falls out of the `while let`: the connection closes
    // and the engine is never touched by the broken bytes.
    while let Ok(frame) = read_frame(&mut reader) {
        let result = match frame.kind {
            FrameKind::Request => match decode_request(&frame.payload) {
                Ok(request) => {
                    let decoded_at = shared.tracer.begin();
                    // A poisoned lock means a handler panicked, and a set
                    // `stopping` means the server has shut down: either way,
                    // close the connection.
                    let Ok(mut engine) = shared.engine.lock() else {
                        break;
                    };
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    // Decode done → lock acquired: the wait behind other
                    // connections' work.
                    shared.tracer.finish(
                        decoded_at,
                        Phase::WireWait,
                        frame.request_id,
                        0,
                        SpanRecord::NO_SHARD,
                    );
                    // Serve under the frame's request id so the engine's
                    // Serve span (and everything inside it) correlates with
                    // the id the client chose and will see echoed.
                    engine.handle_traced(frame.request_id, request)
                }
                // Structurally sound frame, malformed payload: tell the
                // client and keep serving — the engine never saw it.
                Err(e) => Err(EngineError::Transport(format!("request decode: {e}"))),
            },
            FrameKind::Shutdown => {
                // Set `stopping` under the engine lock, so the shutdown is
                // ordered after any request already in the engine. Then ack
                // it, and poke the acceptor loose from its blocking accept
                // with a throwaway connection.
                let engine = shared.engine.lock();
                shared.stopping.store(true, Ordering::SeqCst);
                drop(engine);
                let _ = write_frame(
                    &mut writer,
                    &Frame {
                        kind: FrameKind::Shutdown,
                        request_id: frame.request_id,
                        payload: Vec::new(),
                    },
                );
                let _ = TcpStream::connect(shared.addr);
                break;
            }
            // A server never receives response frames; the stream is
            // confused — drop it.
            FrameKind::Response => break,
        };
        let response = Frame {
            kind: FrameKind::Response,
            request_id: frame.request_id,
            payload: response_payload(&result),
        };
        if write_frame(&mut writer, &response).is_err() {
            break;
        }
    }
}

/// The response payload for `result`. One too large to frame becomes an
/// [`EngineError::Transport`] response, so the client still gets an answer
/// on a connection that stays in sync.
fn response_payload(result: &Result<EngineResponse, EngineError>) -> Vec<u8> {
    let payload = encode_response(result);
    if payload.len() <= MAX_PAYLOAD as usize {
        return payload;
    }
    encode_response(&Err(EngineError::Transport(format!(
        "response of {} bytes exceeds the {MAX_PAYLOAD}-byte frame cap",
        payload.len()
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_engine::codec::decode_response;

    #[test]
    fn an_oversized_response_becomes_a_transport_error() {
        let huge = Err(EngineError::Transport("x".repeat(MAX_PAYLOAD as usize)));
        let payload = response_payload(&huge);
        assert!(payload.len() < 1024, "{} bytes", payload.len());
        match decode_response(&payload) {
            Ok(Err(EngineError::Transport(message))) => {
                assert!(message.contains("frame cap"), "{message}")
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
    }
}
