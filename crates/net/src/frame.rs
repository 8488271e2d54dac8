//! The wire frame: magic, version, kind, request id, length-prefixed
//! payload.
//!
//! Every message on a `svgic-net` connection is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic           b"SVGN"
//! 4       1     version         1
//! 5       1     kind            1 = request, 2 = response, 3 = shutdown
//! 6       8     request id      u64 little-endian, echoed in the response
//! 14      4     payload length  u32 little-endian, ≤ MAX_PAYLOAD
//! 18      n     payload         codec bytes (svgic_engine::codec)
//! ```
//!
//! The request id is assigned by the client and echoed verbatim by the
//! server, which is how responses are matched to requests when a connection
//! pipelines. Payloads of request frames are canonical
//! [`svgic_engine::codec::encode_request`] bytes; response frames carry
//! [`svgic_engine::codec::encode_response`] bytes; shutdown frames carry an
//! empty payload.
//!
//! Reading is **corruption-safe**: a wrong magic, an unsupported version, an
//! unknown kind or an oversized length prefix is rejected *before* any
//! payload allocation, and a connection that dies mid-frame surfaces as
//! [`FrameError::Truncated`] — never a panic, never a partial frame handed
//! upward. A connection closed cleanly *between* frames reads as
//! [`FrameError::Disconnected`], which servers treat as a normal hangup.

use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SVGN";

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Upper bound on a frame payload (64 MiB). Large enough for any realistic
/// `CreateSession`/`ImportSession` instance, small enough that a corrupted
/// or hostile length prefix cannot balloon memory.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Bytes before the payload: magic, version, kind, request id, length.
const HEADER_LEN: usize = 18;

/// What a frame is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an encoded [`svgic_engine::EngineRequest`].
    Request,
    /// Server → client: an encoded `Result<EngineResponse, EngineError>`.
    Response,
    /// Client → server: stop serving (acked with an empty shutdown frame).
    Shutdown,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Shutdown => 3,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, FrameError> {
        match byte {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            3 => Ok(FrameKind::Shutdown),
            other => Err(FrameError::BadKind(other)),
        }
    }
}

/// One framed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// Client-assigned correlation id, echoed by the server.
    pub request_id: u64,
    /// Codec payload.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read or written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Disconnected,
    /// The connection died (or the payload ended) mid-frame.
    Truncated,
    /// The first four bytes were not [`MAGIC`] — the peer is not speaking
    /// this protocol, or the stream lost sync.
    BadMagic([u8; 4]),
    /// The version byte is not one this build speaks.
    BadVersion(u8),
    /// The kind byte has no matching [`FrameKind`].
    BadKind(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// An IO error other than EOF.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Disconnected => write!(f, "peer disconnected"),
            FrameError::Truncated => write!(f, "connection died mid-frame"),
            FrameError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            FrameError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted => {
                FrameError::Truncated
            }
            _ => FrameError::Io(e.to_string()),
        }
    }
}

/// Writes one frame in one `write_all` (so a `TCP_NODELAY` socket does not
/// send the header as a segment of its own) and flushes. A payload over
/// [`MAX_PAYLOAD`], which [`read_frame`] would reject, is refused with
/// [`FrameError::Oversized`] before any byte is written.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), FrameError> {
    let len = frame.payload.len();
    if len > MAX_PAYLOAD as usize {
        return Err(FrameError::Oversized(
            u32::try_from(len).unwrap_or(u32::MAX),
        ));
    }
    let mut bytes = Vec::with_capacity(HEADER_LEN + len);
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(frame.kind.to_byte());
    bytes.extend_from_slice(&frame.request_id.to_le_bytes());
    bytes.extend_from_slice(&(len as u32).to_le_bytes());
    bytes.extend_from_slice(&frame.payload);
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, validating magic, version, kind and payload length
/// before allocating the payload.
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, FrameError> {
    // Read the first byte with a bare `read` so a clean close (0 bytes)
    // is distinguishable from a mid-frame death.
    let mut first = [0u8; 1];
    loop {
        match reader.read(&mut first) {
            Ok(0) => return Err(FrameError::Disconnected),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut rest = [0u8; HEADER_LEN - 1];
    reader.read_exact(&mut rest)?;
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    header[1..].copy_from_slice(&rest);

    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_byte(header[5])?;
    let request_id = u64::from_le_bytes([
        header[6], header[7], header[8], header[9], header[10], header[11], header[12], header[13],
    ]);
    let len = u32::from_le_bytes([header[14], header[15], header[16], header[17]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(Frame {
        kind,
        request_id,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Frame {
        Frame {
            kind: FrameKind::Request,
            request_id: 0x0123_4567_89AB_CDEF,
            payload: vec![7, 7, 7],
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        assert_eq!(buf.len(), 18 + 3);
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(frame, sample());
    }

    #[test]
    fn clean_close_is_disconnected_but_midframe_is_truncated() {
        let empty: &[u8] = &[];
        assert_eq!(
            read_frame(&mut Cursor::new(empty)).err(),
            Some(FrameError::Disconnected)
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        for cut in 1..buf.len() {
            assert_eq!(
                read_frame(&mut Cursor::new(&buf[..cut])).err(),
                Some(FrameError::Truncated),
                "cut at byte {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_and_oversized_lengths_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad_magic)),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert_eq!(
            read_frame(&mut Cursor::new(&bad_version)).err(),
            Some(FrameError::BadVersion(99))
        );

        let mut bad_kind = buf.clone();
        bad_kind[5] = 0;
        assert_eq!(
            read_frame(&mut Cursor::new(&bad_kind)).err(),
            Some(FrameError::BadKind(0))
        );

        let mut oversized = buf.clone();
        oversized[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(&oversized)).err(),
            Some(FrameError::Oversized(u32::MAX))
        );
    }

    #[test]
    fn oversized_payloads_are_refused_before_any_byte_is_written() {
        let frame = Frame {
            payload: vec![0; MAX_PAYLOAD as usize + 1],
            ..sample()
        };
        let mut sink = Vec::new();
        assert_eq!(
            write_frame(&mut sink, &frame).err(),
            Some(FrameError::Oversized(MAX_PAYLOAD + 1))
        );
        assert!(sink.is_empty(), "{} bytes leaked onto the wire", sink.len());
    }
}
