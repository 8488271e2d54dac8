//! The driver-facing TCP client: an [`EngineTransport`] over one framed
//! connection.
//!
//! [`NetClient`] is deliberately synchronous: each [`EngineTransport`]
//! call writes one request frame and blocks for the response frame with the
//! matching request id. That mirrors the in-process engine's call-and-return
//! semantics exactly, which is what keeps a driver generic over
//! `EngineTransport` byte-identical in its served configurations whether it
//! talks to an [`svgic_engine::Engine`] in this process or a `loadgen serve`
//! process across the network.
//!
//! Transport-level failures (connection death, framing desync, codec
//! rejects) surface as [`svgic_engine::EngineError::Transport`]; engine
//! rejections come back as the engine's own error variants, decoded from the
//! response payload.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use svgic_engine::codec::{decode_response, encode_request};
use svgic_engine::transport::EngineTransport;
use svgic_engine::{EngineError, EngineRequest, EngineResponse};
use svgic_obs::{Phase, SpanRecord, Tracer};

use crate::frame::{read_frame, write_frame, Frame, FrameError, FrameKind};

/// How a [`NetClient`] behaves when a request fails at the transport level
/// (connection death, a read timeout, framing desync).
///
/// With the default policy ([`RetryPolicy::none`]) a failure surfaces
/// immediately as [`EngineError::Transport`] — the pre-existing behaviour.
/// With retries enabled, the client sleeps `base_backoff · 2^attempt`,
/// reconnects to the address it originally dialled, and resends the request;
/// after `max_retries` failed retries the *last* error surfaces. Retrying
/// resends the whole request, so a request that reached the engine before the
/// connection died may execute twice — callers that enable retries accept
/// at-least-once semantics in exchange for surviving flaky networks (the
/// drivers' traffic is replayed deterministically, so CI smoke runs only
/// enable this against servers that fail *before* serving, never after).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (`0` = fail fast).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff · 2^n`.
    pub base_backoff: Duration,
    /// Per-request read timeout on the socket (`None` = block forever). A
    /// request whose response does not arrive in time fails like any other
    /// transport error — and is retried under the same policy.
    pub request_timeout: Option<Duration>,
}

impl RetryPolicy {
    /// Fail-fast: no retries, no timeout (the behaviour of a plain
    /// [`NetClient::connect`]).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            request_timeout: None,
        }
    }

    /// The backoff before retry `attempt` (zero-based): `base_backoff ·
    /// 2^attempt`, saturating.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// A connection to a remote engine served by [`crate::NetServer`].
pub struct NetClient {
    /// Request frames go out here, one `write_all` each.
    stream: TcpStream,
    /// Response frames come in here: a buffered clone of `stream`, so a
    /// frame usually costs one `recv`.
    reader: BufReader<TcpStream>,
    next_id: u64,
    tracer: Tracer,
    /// The address originally dialled — where a retrying client reconnects.
    addr: Option<SocketAddr>,
    policy: RetryPolicy,
}

impl NetClient {
    /// Connects to a serving engine (e.g. `"127.0.0.1:7741"`) with the
    /// fail-fast [`RetryPolicy::none`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        NetClient::connect_with_policy(addr, RetryPolicy::none())
    }

    /// Connects with an explicit retry/timeout policy.
    pub fn connect_with_policy(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> io::Result<NetClient> {
        let (stream, reader) = dial(addr, policy.request_timeout)?;
        let addr = stream.peer_addr().ok();
        Ok(NetClient {
            stream,
            reader,
            next_id: 1,
            tracer: Tracer::default(),
            addr,
            policy,
        })
    }

    /// Dials a fresh connection to the original address, replacing the
    /// (presumed dead) stream and its reader.
    fn reconnect(&mut self) -> Result<(), FrameError> {
        let addr = self
            .addr
            .ok_or_else(|| FrameError::Io("peer address unknown; cannot reconnect".into()))?;
        (self.stream, self.reader) = dial(addr, self.policy.request_timeout)
            .map_err(|e| FrameError::Io(format!("reconnect: {e}")))?;
        Ok(())
    }

    /// One exchange under the retry policy: fail-fast policies call
    /// [`NetClient::exchange`] directly; retrying policies sleep the
    /// exponential backoff, reconnect and resend until a response arrives or
    /// the retry budget is spent (the last error surfaces).
    fn exchange_resilient(
        &mut self,
        kind: FrameKind,
        payload: Vec<u8>,
    ) -> Result<Frame, FrameError> {
        if self.policy.max_retries == 0 {
            return self.exchange(kind, payload);
        }
        let mut last_error = match self.exchange(kind, payload.clone()) {
            Ok(frame) => return Ok(frame),
            Err(error) => error,
        };
        for attempt in 0..self.policy.max_retries {
            std::thread::sleep(self.policy.backoff_for(attempt));
            if let Err(error) = self.reconnect() {
                last_error = error;
                continue;
            }
            match self.exchange(kind, payload.clone()) {
                Ok(frame) => return Ok(frame),
                Err(error) => last_error = error,
            }
        }
        Err(last_error)
    }

    /// Attaches a tracer: each request then records client-side
    /// [`Phase::WireEncode`], [`Phase::Serve`] (the network round trip) and
    /// [`Phase::WireDecode`] spans carrying the frame's request id — the same
    /// id the server's engine stamps on its own spans for that request, so
    /// client and server traces correlate without clock sync.
    pub fn with_tracer(mut self, tracer: Tracer) -> NetClient {
        self.tracer = tracer;
        self
    }

    /// The remote server's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one frame and blocks for the frame echoing its request id.
    fn exchange(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<Frame, FrameError> {
        let request_id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.stream,
            &Frame {
                kind,
                request_id,
                payload,
            },
        )?;
        loop {
            let frame = read_frame(&mut self.reader)?;
            if frame.request_id == request_id {
                return Ok(frame);
            }
            // A frame for another id can only be a stale response from an
            // abandoned exchange on this connection; skip it.
        }
    }

    /// Asks the server to stop serving and waits for the acknowledgement.
    /// Consumes the client — the connection is useless afterwards.
    pub fn shutdown_server(mut self) -> Result<(), FrameError> {
        let ack = self.exchange(FrameKind::Shutdown, Vec::new())?;
        match ack.kind {
            FrameKind::Shutdown => Ok(()),
            other => Err(FrameError::Io(format!(
                "expected shutdown ack, got {other:?} frame"
            ))),
        }
    }
}

/// Connects with no Nagle delay and `request_timeout` on reads; returns the
/// stream (for writes) and a buffered reader over a clone of it.
fn dial(
    addr: impl ToSocketAddrs,
    request_timeout: Option<Duration>,
) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(request_timeout)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

impl EngineTransport for NetClient {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        // The id exchange() will assign to this frame (it allocates
        // sequentially), so the spans below carry it.
        let request_id = self.next_id;
        let t_encode = self.tracer.begin();
        let payload = encode_request(&request);
        self.tracer.finish(
            t_encode,
            Phase::WireEncode,
            request_id,
            0,
            SpanRecord::NO_SHARD,
        );
        let t_serve = self.tracer.begin();
        let frame = self
            .exchange_resilient(FrameKind::Request, payload)
            .map_err(|e| EngineError::Transport(e.to_string()))?;
        self.tracer
            .finish(t_serve, Phase::Serve, request_id, 0, SpanRecord::NO_SHARD);
        if frame.kind != FrameKind::Response {
            return Err(EngineError::Transport(format!(
                "expected response frame, got {:?}",
                frame.kind
            )));
        }
        let t_decode = self.tracer.begin();
        let response = decode_response(&frame.payload)
            .map_err(|e| EngineError::Transport(format!("response decode: {e}")))?;
        self.tracer.finish(
            t_decode,
            Phase::WireDecode,
            request_id,
            0,
            SpanRecord::NO_SHARD,
        );
        response
    }
}
