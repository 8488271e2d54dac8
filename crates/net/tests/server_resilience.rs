//! Malformed-frame, failure and concurrency handling of the TCP server.
//!
//! The contract under test (ISSUE 5's malformed-frame satellite): truncated
//! frames, bad magic, oversized length prefixes and mid-frame disconnects
//! must error **cleanly** — no panic anywhere, no partial state mutation in
//! the engine — and a malformed connection must never take the server down
//! for well-behaved clients. Neither may a client that stops reading, and
//! requests from concurrent connections must each reach the engine whole.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use svgic_core::example::running_example;
use svgic_core::Configuration;
use svgic_engine::prelude::*;
use svgic_net::frame::{read_frame, write_frame, Frame, FrameKind};
use svgic_net::{NetClient, NetServer, RetryPolicy};

fn test_engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 1,
        shards: 1,
        auto_flush_pending: 0,
        ..EngineConfig::default()
    })
}

fn create_spec(seed: u64) -> CreateSession {
    CreateSession {
        instance: running_example(),
        initial_present: vec![],
        seed,
    }
}

/// A healthy client must keep working after other connections misbehave in
/// every way the frame layer can reject.
#[test]
fn malformed_connections_do_not_poison_the_server() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let addr = server.local_addr();

    // 1. Pure garbage bytes (bad magic): server drops the connection.
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("writes");
        // The server closes; reading yields EOF rather than hanging.
        let result = read_frame(&mut stream);
        assert!(result.is_err(), "garbage must not elicit a frame");
    }

    // 2. Oversized length prefix: rejected before allocation, connection
    //    dropped.
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let mut header = Vec::new();
        header.extend_from_slice(b"SVGN");
        header.push(1); // version
        header.push(1); // request frame
        header.extend_from_slice(&7u64.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        stream.write_all(&header).expect("writes");
        let result = read_frame(&mut stream);
        assert!(result.is_err(), "oversized frame must be dropped");
    }

    // 3. Mid-frame disconnect: write half a header, hang up.
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(b"SVGN\x01").expect("writes");
        drop(stream);
    }

    // 4. Valid frame, garbage payload: answered with a Transport error on
    //    the same connection, which stays usable.
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write_frame(
            &mut stream,
            &Frame {
                kind: FrameKind::Request,
                request_id: 42,
                payload: vec![0xFF, 0x00, 0x13],
            },
        )
        .expect("writes");
        let frame = read_frame(&mut stream).expect("server answers");
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.kind, FrameKind::Response);
        let decoded = svgic_engine::codec::decode_response(&frame.payload).expect("decodes");
        assert!(
            matches!(decoded, Err(EngineError::Transport(_))),
            "expected a transport error, got {decoded:?}"
        );
        // Same connection still serves a valid request.
        write_frame(
            &mut stream,
            &Frame {
                kind: FrameKind::Request,
                request_id: 43,
                payload: svgic_engine::codec::encode_request(&EngineRequest::Describe),
            },
        )
        .expect("writes");
        let frame = read_frame(&mut stream).expect("server answers");
        assert_eq!(frame.request_id, 43);
    }

    // After all that abuse: a fresh well-behaved client works, and the
    // engine saw *zero* sessions from the malformed traffic.
    let mut client = NetClient::connect(addr).expect("connects");
    let info = client.describe().expect("describes");
    assert_eq!(info.sessions, 0, "malformed frames must not mutate state");
    let view = client.create_session(create_spec(5)).expect("creates");
    assert!(view.configuration.is_valid(view.catalog.len()));
    client.close_session(view.session).expect("closes");
    client.shutdown_server().expect("shuts down");
    server.join();
}

/// A semantically hostile `ImportSession` (valid frame, valid structure,
/// invalid session state — e.g. λ = 2.0) is rejected at decode and answered
/// with a Transport error; the server survives and the engine stays empty.
#[test]
fn hostile_import_cannot_kill_the_server() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    // Build a real export, then poison its λ. Encoding doesn't validate
    // (it serializes trusted in-process values); decoding must.
    let view = client.create_session(create_spec(3)).expect("creates");
    let mut export = client.export_session(view.session).expect("exports");
    export.lambda = 2.0;
    let err = client
        .import_session(export)
        .expect_err("poisoned export must be rejected");
    assert!(matches!(err, EngineError::Transport(_)), "{err:?}");
    // The server still serves and no half-imported session exists.
    let info = client.describe().expect("server still serves");
    assert_eq!(info.sessions, 0);
    // A clean export/import still round-trips on the same connection.
    let view = client.create_session(create_spec(4)).expect("creates");
    let export = client.export_session(view.session).expect("exports");
    let id = client.import_session(export).expect("imports");
    client.close_session(id).expect("closes");
    client.shutdown_server().expect("shuts down");
    server.join();
}

/// Engine-level rejections travel the wire as the engine's own error
/// variants, not transport failures.
#[test]
fn engine_errors_roundtrip_over_the_wire() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    assert_eq!(
        client.query_configuration(SessionId(999)).err(),
        Some(EngineError::UnknownSession(SessionId(999)))
    );
    let view = client.create_session(create_spec(1)).expect("creates");
    let err = client
        .submit_event(
            view.session,
            SessionEvent::Membership(svgic_core::extensions::DynamicEvent::Join(10_000)),
        )
        .expect_err("out-of-range user");
    assert!(matches!(err, EngineError::InvalidEvent(_)), "{err:?}");
    client.shutdown_server().expect("shuts down");
    server.join();
}

/// Two pipelined requests on one connection come back in order with their
/// own request ids.
#[test]
fn pipelined_requests_are_matched_by_id() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    for (id, request) in [
        (100, EngineRequest::Describe),
        (200, EngineRequest::QueryStats),
        (300, EngineRequest::Flush),
    ] {
        write_frame(
            &mut stream,
            &Frame {
                kind: FrameKind::Request,
                request_id: id,
                payload: svgic_engine::codec::encode_request(&request),
            },
        )
        .expect("writes");
    }
    let ids: Vec<u64> = (0..3)
        .map(|_| read_frame(&mut stream).expect("answers").request_id)
        .collect();
    assert_eq!(ids, vec![100, 200, 300], "responses arrive in order");
    drop(stream);
    let client = NetClient::connect(server.local_addr()).expect("connects");
    client.shutdown_server().expect("shuts down");
    server.join();
}

/// How a sabotaged connection misbehaves after reading the client's first
/// request frame (which therefore "arrived" but is never forwarded).
#[derive(Clone, Copy)]
enum Sabotage {
    /// Hang up immediately: the client's response read sees EOF.
    Drop,
    /// Go silent: the client's response read must hit its own timeout.
    Hold(Duration),
}

/// A TCP saboteur in front of a real server: the first `sabotaged`
/// connections each have one request frame read and swallowed (the engine
/// behind never sees a byte of them), then misbehave per `mode`; every
/// later connection is forwarded verbatim both ways. Returns the proxy
/// address and the accepted-connection counter. The accept thread is
/// deliberately leaked — it blocks on `accept` and dies with the process.
fn sabotage_proxy(
    upstream: SocketAddr,
    sabotaged: usize,
    mode: Sabotage,
) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("bound");
    let connections = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&connections);
    std::thread::spawn(move || {
        for (index, stream) in listener.incoming().enumerate() {
            let Ok(mut client_side) = stream else { break };
            seen.fetch_add(1, Ordering::SeqCst);
            if index < sabotaged {
                // Sabotage on its own thread, so a held connection never
                // starves the accept loop the retry will arrive on.
                std::thread::spawn(move || {
                    let _ = read_frame(&mut client_side);
                    if let Sabotage::Hold(pause) = mode {
                        std::thread::sleep(pause);
                    }
                    drop(client_side);
                });
                continue;
            }
            let Ok(server_side) = TcpStream::connect(upstream) else {
                break;
            };
            let mut c2s_read = client_side.try_clone().expect("clones");
            let mut c2s_write = server_side.try_clone().expect("clones");
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut c2s_read, &mut c2s_write);
            });
            let mut s2c_read = server_side;
            let mut s2c_write = client_side;
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut s2c_read, &mut s2c_write);
            });
        }
    });
    (addr, connections)
}

/// ISSUE 10's retry satellite, the drop case: the server path swallows the
/// first request frame and hangs up. A fail-fast client surfaces the
/// failure; a retrying client reconnects, resends, and succeeds — and the
/// swallowed attempt mutated **zero** engine state (exactly one session
/// exists afterwards, created by the retry).
#[test]
fn retry_reconnects_and_resends_after_a_dropped_frame() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let (addr, connections) = sabotage_proxy(server.local_addr(), 1, Sabotage::Drop);
    let mut client = NetClient::connect_with_policy(
        addr,
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            request_timeout: None,
        },
    )
    .expect("connects");
    let view = client.create_session(create_spec(21)).expect("retry lands");
    assert!(view.configuration.is_valid(view.catalog.len()));
    let info = client.describe().expect("describes");
    assert_eq!(
        info.sessions, 1,
        "the dropped first attempt must not have mutated the engine"
    );
    assert_eq!(
        connections.load(Ordering::SeqCst),
        2,
        "one sabotaged connection, one successful reconnect"
    );
    client.shutdown_server().expect("shuts down");
    server.join();
}

/// The delay case: the server path reads the request and goes silent. The
/// client's per-request read timeout fires, it reconnects and resends; the
/// engine ends up with exactly the retried state.
#[test]
fn retry_recovers_from_a_silent_server_via_request_timeout() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let (addr, connections) = sabotage_proxy(
        server.local_addr(),
        1,
        Sabotage::Hold(Duration::from_millis(400)),
    );
    let mut client = NetClient::connect_with_policy(
        addr,
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            request_timeout: Some(Duration::from_millis(50)),
        },
    )
    .expect("connects");
    let started = Instant::now();
    let view = client.create_session(create_spec(22)).expect("retry lands");
    assert!(view.configuration.is_valid(view.catalog.len()));
    assert!(
        started.elapsed() >= Duration::from_millis(50),
        "the first attempt must have waited out the request timeout"
    );
    let info = client.describe().expect("describes");
    assert_eq!(info.sessions, 1, "the timed-out attempt mutated nothing");
    assert!(connections.load(Ordering::SeqCst) >= 2);
    client.shutdown_server().expect("shuts down");
    server.join();
}

/// Exhaustion: every connection is dropped after its first frame. The
/// retry budget is spent with exponential backoff between attempts, then
/// the *last* error surfaces as a clean [`EngineError::Transport`] — no
/// panic, no hang — and the attempt count is exactly `1 + max_retries`.
#[test]
fn exhausted_retries_surface_a_clean_transport_error() {
    // No upstream at all: every connection is sabotaged.
    let dead_upstream: SocketAddr = "127.0.0.1:1".parse().expect("parses");
    let (addr, connections) = sabotage_proxy(dead_upstream, usize::MAX, Sabotage::Drop);
    let policy = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_millis(5),
        request_timeout: None,
    };
    assert_eq!(policy.backoff_for(0), Duration::from_millis(5));
    assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
    let mut client = NetClient::connect_with_policy(addr, policy).expect("connects");
    let started = Instant::now();
    let err = client
        .create_session(create_spec(23))
        .expect_err("no attempt can succeed");
    assert!(matches!(err, EngineError::Transport(_)), "{err:?}");
    assert!(
        started.elapsed() >= Duration::from_millis(15),
        "backoffs 5ms + 10ms must have been slept"
    );
    assert_eq!(
        connections.load(Ordering::SeqCst),
        3,
        "initial attempt + exactly max_retries reconnects"
    );
}

/// A client that dies mid-run leaves its sessions behind but the server
/// keeps serving; a new client sees the leftover state via Describe.
#[test]
fn client_death_leaves_server_consistent() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let addr = server.local_addr();
    {
        let mut client = NetClient::connect(addr).expect("connects");
        client.create_session(create_spec(9)).expect("creates");
        // Dropped without close: simulates a crashed driver.
    }
    let mut client = NetClient::connect(addr).expect("connects");
    let info = client.describe().expect("describes");
    assert_eq!(info.sessions, 1, "session survives its client");
    client.shutdown_server().expect("shuts down");
    server.join();
}

/// A client that writes requests but never reads its responses stalls only
/// its own connection: the server blocks writing to it with the engine
/// unlocked, so another client is still served.
#[test]
fn a_client_that_stops_reading_cannot_stall_the_others() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let addr = server.local_addr();
    let stalled = TcpStream::connect(addr).expect("connects");
    stalled
        .set_write_timeout(Some(Duration::from_millis(500)))
        .expect("sets timeout");
    let mut flood = stalled.try_clone().expect("clones");
    let (stall_tx, stall_rx) = mpsc::channel();
    let writer = std::thread::spawn(move || {
        // Describe frames, 256 to a write; their responses are never read.
        let mut batch = Vec::new();
        for request_id in 0..256 {
            write_frame(
                &mut batch,
                &Frame {
                    kind: FrameKind::Request,
                    request_id,
                    payload: svgic_engine::codec::encode_request(&EngineRequest::Describe),
                },
            )
            .expect("in-memory write");
        }
        let mut timed_out = false;
        for _ in 0..(1 << 20) / 256 {
            if let Err(e) = flood.write_all(&batch) {
                timed_out = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
                break;
            }
        }
        let _ = stall_tx.send(timed_out);
    });
    // A write timeout shows the server has stopped reading the flood.
    assert!(
        stall_rx.recv().expect("writer reports"),
        "the server kept reading a client that never reads"
    );
    let mut other = NetClient::connect_with_policy(
        addr,
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            request_timeout: Some(Duration::from_secs(5)),
        },
    )
    .expect("connects");
    let info = other.describe().expect("served despite the stalled client");
    assert_eq!(info.sessions, 0);
    stalled.shutdown(Shutdown::Both).expect("shuts the socket");
    writer.join().expect("writer thread");
    other.shutdown_server().expect("shuts down");
    server.join();
}

/// The parts of a view that do not name the session.
type ViewKey = (Vec<usize>, Vec<usize>, Configuration, u64, u64, usize, u64);

fn view_key(view: ConfigurationView) -> ViewKey {
    (
        view.present,
        view.catalog,
        view.configuration,
        view.utility.to_bits(),
        view.lp_bound.to_bits(),
        view.staleness,
        view.generation,
    )
}

/// A fixed script of submits, forced re-solves and queries on one session
/// of the running example; returns every view it was served.
fn run_script(engine: &mut impl EngineTransport, seed: u64) -> Vec<ViewKey> {
    use svgic_core::extensions::DynamicEvent::{Join, Leave};
    let created = engine
        .create_session(CreateSession {
            initial_present: vec![0, 1],
            ..create_spec(seed)
        })
        .expect("creates");
    let session = created.session;
    let mut views = vec![view_key(created)];
    for round in 0..8 {
        let events = if round % 2 == 0 {
            [Join(2), Join(3)]
        } else {
            [Leave(3), Leave(2)]
        };
        for event in events {
            engine
                .submit_event(session, SessionEvent::Membership(event))
                .expect("submits");
        }
        views.push(view_key(engine.force_resolve(session).expect("resolves")));
        views.push(view_key(
            engine.query_configuration(session).expect("queries"),
        ));
    }
    views
}

/// Four clients drive one server at once, each on its own connection and
/// its own session. Every request reaches the engine whole and alone, and
/// solve seeds derive from (session seed, generation), so each client sees
/// exactly what a fresh in-process engine serves for its script, however
/// the four interleave.
#[test]
fn concurrent_connections_serialise_whole_requests() {
    let server = NetServer::bind("127.0.0.1:0", test_engine()).expect("binds");
    let addr = server.local_addr();
    let start = Arc::new(Barrier::new(4));
    let clients: Vec<_> = (0..4u64)
        .map(|client| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut remote = NetClient::connect(addr).expect("connects");
                start.wait();
                (client, run_script(&mut remote, 100 + client))
            })
        })
        .collect();
    for handle in clients {
        let (client, served) = handle.join().expect("client thread");
        let expected = run_script(&mut test_engine(), 100 + client);
        assert_eq!(served, expected, "client {client} saw another result");
    }
    let mut client = NetClient::connect(addr).expect("connects");
    assert_eq!(client.describe().expect("describes").sessions, 4);
    client.shutdown_server().expect("shuts down");
    server.join();
}
