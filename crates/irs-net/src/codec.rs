//! The one framing codec: u32-BE length-prefixed frames, spoken by the
//! reactor and by every blocking peer.
//!
//! Each frame is a u32 big-endian payload length followed by the
//! payload. A declared-length cap rejects absurd lengths *from the
//! prefix alone*, before any payload accumulates, so a corrupt or
//! hostile peer cannot stage a huge allocation. Two halves share that
//! one length/cap check:
//!
//! * **Non-blocking** — [`FrameCodec::encode`] / [`FrameCodec::decode`]
//!   over a reusable [`BytesBuf`], in the shape of the ripple
//!   `MessageCodec` / linera `Codec` exemplars (SNIPPETS.md §2–3). They
//!   tolerate arbitrary split points: `decode` returns `Ok(None)` until
//!   a whole frame is buffered, and `encode` only ever appends — a
//!   partially flushed frame just stays in the buffer. This is what the
//!   readiness-polled reactor speaks, since it must never park a thread.
//! * **Blocking** — [`FrameCodec::write`] / [`FrameCodec::read`] over
//!   any `Write` / `Read` (the mux reader thread, the thread-per-
//!   connection baseline, [`LedgerClient`](crate::LedgerClient), the
//!   chaos proxy): `read` parks until a whole frame arrives and reports
//!   a clean EOF at a frame boundary as [`NetError::Closed`].
//!
//! [`BytesBuf`] is a growable buffer with a consume cursor. Reads
//! append at the tail, the decoder consumes from the head, and the
//! buffer compacts itself so steady-state traffic never reallocates.
//!
//! On top of the framing sits [`answer`], the one rule by which every
//! reactor server turns a request frame into a reply frame: decode,
//! call a [`Service`], encode.

use crate::service::{CallCtx, Service};
use crate::NetError;
use bytes::Bytes;
use irs_core::wire::{Request, Response, Wire, WireError};
use std::io::{Read, Write};

/// A reusable byte buffer: append at the tail, consume from the head.
///
/// Internally a `Vec<u8>` plus a head cursor. Consumed bytes are not
/// moved immediately; the buffer compacts (shifts the live region to
/// the front) when the dead prefix dominates, amortizing the copy. The
/// capacity reached during a burst is kept for the connection's
/// lifetime — the "reusable buffer" half of the codec contract.
#[derive(Default)]
pub struct BytesBuf {
    data: Vec<u8>,
    head: usize,
}

impl BytesBuf {
    /// An empty buffer (no allocation until the first append).
    pub fn new() -> BytesBuf {
        BytesBuf::default()
    }

    /// An empty buffer with `capacity` pre-allocated.
    pub fn with_capacity(capacity: usize) -> BytesBuf {
        BytesBuf {
            data: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Unconsumed bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether everything appended has been consumed.
    pub fn is_empty(&self) -> bool {
        self.head == self.data.len()
    }

    /// The unconsumed region.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Append `bytes` at the tail.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.compact_if_worthwhile();
        self.data.extend_from_slice(bytes);
    }

    /// Consume `n` bytes from the head (they must exist).
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.head += n;
        if self.is_empty() {
            // Cheap full reset: nothing live to shift.
            self.data.clear();
            self.head = 0;
        }
    }

    /// Consume and return `n` bytes from the head as an owned [`Bytes`].
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split past end of buffer");
        let out = Bytes::copy_from_slice(&self.data[self.head..self.head + n]);
        self.advance(n);
        out
    }

    /// Drop everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Shift the live region to the front when the dead prefix is both
    /// sizable and larger than the live region — O(live) copy paid at
    /// most every O(dead) consumed bytes, so appends stay amortized O(1).
    fn compact_if_worthwhile(&mut self) {
        if self.head >= 4096 && self.head > self.len() {
            self.data.copy_within(self.head.., 0);
            let live = self.len();
            self.data.truncate(live);
            self.head = 0;
        }
    }
}

impl std::fmt::Debug for BytesBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BytesBuf")
            .field("len", &self.len())
            .field("capacity", &self.data.capacity())
            .finish()
    }
}

/// Length-prefixed frame encoder/decoder with a declared-length cap.
///
/// Stateless beyond the cap: all buffering lives in the caller's
/// [`BytesBuf`]s or streams, so one codec value serves every connection.
#[derive(Clone, Copy, Debug)]
pub struct FrameCodec {
    cap: u32,
}

impl FrameCodec {
    /// u32-BE length prefix, 4 bytes.
    pub const HEADER: usize = 4;

    /// Largest accepted frame on the *download* direction (client
    /// reading a server's reply): filter snapshots dominate, so allow
    /// 512 MiB.
    pub const MAX_FRAME: u32 = 512 << 20;

    /// Largest accepted frame on the *upload* direction (server reading
    /// a client's request). Requests are tiny — the largest legitimate
    /// one is a `Batch` of 100 000 record ids (~1.4 MiB); nothing a
    /// client sends approaches a filter payload. Servers read with this
    /// cap so a malicious client cannot make every connection allocate
    /// [`FrameCodec::MAX_FRAME`].
    pub const MAX_REQUEST_FRAME: u32 = 2 << 20;

    /// A codec rejecting frames whose declared length exceeds `cap`
    /// (servers pass [`FrameCodec::MAX_REQUEST_FRAME`], clients
    /// [`FrameCodec::MAX_FRAME`]).
    pub const fn new(cap: u32) -> FrameCodec {
        FrameCodec { cap }
    }

    /// The declared-length cap.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// The length prefix for a `len`-byte payload, refused over the cap
    /// — an oversized payload is the sender's bug and must not
    /// desynchronize the stream.
    fn header(&self, len: usize) -> Result<[u8; 4], NetError> {
        if len as u64 > self.cap as u64 {
            return Err(NetError::Frame("payload exceeds frame cap"));
        }
        Ok((len as u32).to_be_bytes())
    }

    /// The payload length a received prefix declares, refused over the
    /// cap before any payload is buffered.
    fn declared(&self, header: [u8; 4]) -> Result<usize, NetError> {
        let len = u32::from_be_bytes(header);
        if len > self.cap {
            return Err(NetError::Frame("declared length exceeds frame cap"));
        }
        Ok(len as usize)
    }

    /// Append one frame (header + payload) to `out`. Fails without
    /// touching `out` if `payload` exceeds the cap.
    pub fn encode(&self, payload: &[u8], out: &mut BytesBuf) -> Result<(), NetError> {
        out.extend_from_slice(&self.header(payload.len())?);
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Try to decode one frame from the head of `buf`.
    ///
    /// `Ok(Some(payload))` consumes the frame; `Ok(None)` means more
    /// bytes are needed (nothing consumed — partial reads at any byte
    /// boundary are fine); `Err` means the stream is poisoned (declared
    /// length over the cap) and the connection must be dropped.
    pub fn decode(&self, buf: &mut BytesBuf) -> Result<Option<Bytes>, NetError> {
        let head = buf.as_slice();
        if head.len() < Self::HEADER {
            return Ok(None);
        }
        let len = self.declared([head[0], head[1], head[2], head[3]])?;
        if head.len() < Self::HEADER + len {
            return Ok(None);
        }
        buf.advance(Self::HEADER);
        Ok(Some(buf.split_to(len)))
    }

    /// Write one frame to a blocking stream and flush it.
    pub fn write<W: Write>(&self, writer: &mut W, payload: &[u8]) -> Result<(), NetError> {
        writer.write_all(&self.header(payload.len())?)?;
        writer.write_all(payload)?;
        writer.flush()?;
        Ok(())
    }

    /// Read one frame from a blocking stream: the prefix, then the
    /// payload straight into its owned buffer. A clean EOF at a frame
    /// boundary is [`NetError::Closed`]; EOF mid-length or mid-frame is
    /// a [`NetError::Frame`] error.
    pub fn read<R: Read>(&self, reader: &mut R) -> Result<Bytes, NetError> {
        let mut header = [0u8; 4];
        let mut filled = 0;
        while filled < header.len() {
            match reader.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Err(NetError::Closed),
                Ok(0) => return Err(NetError::Frame("stream ended mid-length")),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        let mut payload = vec![0u8; self.declared(header)?];
        reader.read_exact(&mut payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                NetError::Frame("stream ended mid-frame")
            } else {
                NetError::Io(e)
            }
        })?;
        Ok(Bytes::from(payload))
    }

    /// Encode `response` to payload bytes. A response the wire format
    /// cannot represent (e.g. an error message longer than its u16
    /// length prefix) is downgraded to a short error reply instead of
    /// tearing down the connection — the peer always gets *an* answer.
    pub fn response_bytes(response: &Response) -> Bytes {
        match response.to_bytes() {
            Ok(b) => b,
            Err(e) => Response::Error {
                code: irs_ledger::codes::BAD_REQUEST,
                message: format!("unencodable response: {e}"),
            }
            .to_bytes()
            .expect("short error response always encodes"),
        }
    }
}

/// Answer one request frame — the one frame-to-answer rule every
/// reactor server runs. The frame decodes (or is refused by
/// [`refusal`]), `service` answers it on behalf of connection `conn`
/// under one wall-clock reading, and the reply is encoded. A failed
/// call keeps the wire honest: shed load stays `Overloaded` so the
/// client backs off by the hint instead of treating a live but
/// protecting server as dead, and every other error is an
/// `UNAVAILABLE` error — never a bogus status.
pub fn answer(service: &dyn Service, frame: Bytes, conn: u64) -> Bytes {
    let response = match Request::from_bytes(frame) {
        Ok(request) => match service.call(request, &CallCtx::wall().with_client(conn)) {
            Ok(response) => response,
            Err(NetError::Overloaded { retry_after_ms }) => Response::Overloaded { retry_after_ms },
            Err(_) => Response::Error {
                code: irs_ledger::codes::UNAVAILABLE,
                message: "upstream unavailable".to_string(),
            },
        },
        Err(e) => refusal(e),
    };
    FrameCodec::response_bytes(&response)
}

/// The answer to a request frame that does not decode — one rule for
/// every server. A well-framed request whose tag this build has never
/// heard of is a *newer peer*, not a protocol violation: it gets a
/// structured `Unsupported { tag }` so the client can degrade
/// per-operation instead of treating the whole connection as poisoned.
/// Anything else undecodable is a `BAD_REQUEST` error.
pub fn refusal(error: WireError) -> Response {
    match error {
        WireError::BadTag(tag) => Response::Unsupported { tag },
        e => Response::Error {
            code: irs_ledger::codes::BAD_REQUEST,
            message: format!("bad request: {e}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const MAX_REQUEST_FRAME: u32 = FrameCodec::MAX_REQUEST_FRAME;

    #[test]
    fn bytes_buf_append_consume_compact() {
        let mut b = BytesBuf::new();
        assert!(b.is_empty());
        b.extend_from_slice(b"hello world");
        assert_eq!(b.len(), 11);
        assert_eq!(b.split_to(6).as_ref(), b"hello ");
        assert_eq!(b.as_slice(), b"world");
        b.advance(5);
        assert!(b.is_empty());
        // Consuming everything resets the cursor without a copy.
        b.extend_from_slice(b"again");
        assert_eq!(b.as_slice(), b"again");

        // Force the compaction path: a large dead prefix must shift the
        // live region forward without corrupting it.
        let mut b = BytesBuf::new();
        b.extend_from_slice(&vec![0xAA; 8192]);
        b.extend_from_slice(b"tail");
        b.advance(8192);
        b.extend_from_slice(b"-more");
        assert_eq!(b.as_slice(), b"tail-more");
    }

    #[test]
    fn roundtrip_across_all_split_points() {
        let codec = FrameCodec::new(MAX_REQUEST_FRAME);
        let mut wire = BytesBuf::new();
        codec.encode(b"alpha", &mut wire).unwrap();
        codec.encode(b"", &mut wire).unwrap();
        codec.encode(&[0x42; 300], &mut wire).unwrap();
        let stream: Vec<u8> = wire.as_slice().to_vec();

        // Feed the stream one byte at a time: every prefix either
        // decodes a completed frame or asks for more — never errors.
        let mut rx = BytesBuf::new();
        let mut frames: Vec<Bytes> = Vec::new();
        for &byte in &stream {
            rx.extend_from_slice(&[byte]);
            while let Some(frame) = codec.decode(&mut rx).unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].as_ref(), b"alpha");
        assert!(frames[1].is_empty());
        assert_eq!(frames[2].len(), 300);
        assert!(rx.is_empty());
    }

    #[test]
    fn oversized_declared_length_poisons() {
        let codec = FrameCodec::new(1024);
        let mut rx = BytesBuf::new();
        rx.extend_from_slice(&2048u32.to_be_bytes());
        assert!(matches!(codec.decode(&mut rx), Err(NetError::Frame(_))));
    }

    #[test]
    fn oversized_payload_refused_at_encode() {
        let codec = FrameCodec::new(8);
        let mut out = BytesBuf::new();
        assert!(codec.encode(&[0u8; 9], &mut out).is_err());
        assert!(out.is_empty(), "failed encode must not emit partial bytes");
        codec.encode(&[0u8; 8], &mut out).unwrap();
        assert_eq!(out.len(), FrameCodec::HEADER + 8);
    }

    #[test]
    fn interoperates_with_blocking_framing() {
        // Both halves speak the same bytes — a blocking client can talk
        // to a reactor server and back.
        let codec = FrameCodec::new(MAX_REQUEST_FRAME);
        let mut blocking = Vec::new();
        codec.write(&mut blocking, b"cross").unwrap();
        let mut rx = BytesBuf::new();
        rx.extend_from_slice(&blocking);
        assert_eq!(codec.decode(&mut rx).unwrap().unwrap().as_ref(), b"cross");

        let mut out = BytesBuf::new();
        codec.encode(b"back", &mut out).unwrap();
        let mut cursor = Cursor::new(out.as_slice().to_vec());
        assert_eq!(codec.read(&mut cursor).unwrap().as_ref(), b"back");
    }

    #[test]
    fn blocking_roundtrip_ends_closed_at_a_frame_boundary() {
        let codec = FrameCodec::new(FrameCodec::MAX_FRAME);
        let mut buf = Vec::new();
        codec.write(&mut buf, b"hello").unwrap();
        codec.write(&mut buf, b"").unwrap();
        codec.write(&mut buf, &[0xffu8; 1000]).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(codec.read(&mut cursor).unwrap().as_ref(), b"hello");
        assert!(codec.read(&mut cursor).unwrap().is_empty());
        assert_eq!(codec.read(&mut cursor).unwrap().len(), 1000);
        assert!(matches!(codec.read(&mut cursor), Err(NetError::Closed)));
    }

    #[test]
    fn blocking_read_detects_truncation() {
        let codec = FrameCodec::new(FrameCodec::MAX_FRAME);
        let mut cursor = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            codec.read(&mut cursor),
            Err(NetError::Frame("stream ended mid-length"))
        ));
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"only5");
        assert!(matches!(
            codec.read(&mut Cursor::new(buf)),
            Err(NetError::Frame("stream ended mid-frame"))
        ));
    }

    /// One rule, every outcome: an answer passes through, shed load
    /// keeps its admission shape, any other failure is `UNAVAILABLE`,
    /// and a frame that does not decode never reaches the service.
    #[test]
    fn answer_maps_every_outcome_to_one_reply() {
        use crate::service::service_fn;
        use irs_core::ids::{LedgerId, RecordId};

        let service = service_fn(|req, ctx| {
            assert_eq!(ctx.client, Some(9), "the connection id rides along");
            match req {
                Request::Ping => Ok(Response::Pong),
                Request::Query { id } if id.serial == 7 => {
                    Err(NetError::Overloaded { retry_after_ms: 7 })
                }
                Request::Query { .. } => Err(NetError::ConnectionLost),
                _ => panic!("only pings and queries are sent"),
            }
        });
        let ask = |frame: Bytes| Response::from_bytes(answer(&service, frame, 9)).unwrap();
        let query = |serial| {
            Request::Query {
                id: RecordId::new(LedgerId(1), serial),
            }
            .to_bytes()
            .unwrap()
        };

        assert_eq!(ask(Request::Ping.to_bytes().unwrap()), Response::Pong);
        assert_eq!(ask(query(7)), Response::Overloaded { retry_after_ms: 7 });
        let Response::Error { code, .. } = ask(query(8)) else {
            panic!("a failed call must answer with an error");
        };
        assert_eq!(code, irs_ledger::codes::UNAVAILABLE);
        // Protocol version 1, then a tag far beyond anything assigned.
        assert_eq!(
            ask(Bytes::from_static(&[1, 0xee])),
            Response::Unsupported { tag: 0xee }
        );
        let Response::Error { code, .. } = ask(Bytes::from_static(b"\xff\xffgarbage")) else {
            panic!("garbage must answer with an error");
        };
        assert_eq!(code, irs_ledger::codes::BAD_REQUEST);
    }

    #[test]
    fn request_cap_rejects_what_the_payload_cap_accepts() {
        // A declared length between the two caps: fine for a client
        // reading a filter, rejected by a server reading a request —
        // before any payload allocation happens.
        let header = (MAX_REQUEST_FRAME + 1).to_be_bytes().to_vec();
        assert!(matches!(
            FrameCodec::new(MAX_REQUEST_FRAME).read(&mut Cursor::new(header.clone())),
            Err(NetError::Frame("declared length exceeds frame cap"))
        ));
        // The same header passes the large cap (then fails on the missing
        // payload, which is the expected path for a truncated stream).
        assert!(matches!(
            FrameCodec::new(FrameCodec::MAX_FRAME).read(&mut Cursor::new(header)),
            Err(NetError::Frame("stream ended mid-frame"))
        ));
        // Request-sized frames fit the request cap.
        let codec = FrameCodec::new(MAX_REQUEST_FRAME);
        let mut buf = Vec::new();
        codec.write(&mut buf, &[0u8; 1024]).unwrap();
        assert_eq!(codec.read(&mut Cursor::new(buf)).unwrap().len(), 1024);
    }
}
