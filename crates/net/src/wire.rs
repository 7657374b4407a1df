//! The wire protocol: length-prefixed, CRC-32-framed request/response
//! messages over the shared [`relser_frame`] codec.
//!
//! Every message is one frame (`len:u32LE | crc:u32LE | payload`) whose
//! payload starts with a tag byte and a little-endian `req_id` the client
//! chooses; responses echo it, which is what makes **pipelining** work —
//! a connection may have many requests in flight and match answers by id,
//! in whatever order the server finishes them.
//!
//! The payloads are fixed-layout little-endian integers (no varints, no
//! strings): a request is at most [`MAX_PAYLOAD`] bytes, so a length
//! prefix beyond that is instantly recognized as stream corruption.
//! Decoding is *total*: any byte slice yields a message or a typed
//! [`WireError`], never a panic — the fuzz suite in `tests/` holds the
//! decoder to that over truncated, bit-flipped, and oversized inputs.

use relser_core::ids::{ObjectId, OpId, TxnId};
use relser_core::op::AccessMode;
use relser_frame::{begin_frame, decode_frame, finish_frame, FrameError};
use relser_protocols::AbortReason;
use std::fmt;

/// Upper bound on a wire payload. The largest real message is 25 bytes
/// (a session `Hello`); anything claiming more is corruption, rejected
/// before any buffering.
pub const MAX_PAYLOAD: u32 = 64;

/// A client-chosen request correlation id, echoed by the response.
pub type ReqId = u64;

/// A client → server message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Start (or restart, after an abort) transaction `txn`.
    /// Acknowledged with [`Response::Granted`] once enqueued — the
    /// admission queue is FIFO, so the begin is applied before any
    /// later command of the same connection.
    Begin {
        /// Correlation id.
        req_id: ReqId,
        /// The transaction to begin.
        txn: TxnId,
    },
    /// Request the read `op` (which must name a read of `object` in the
    /// server's transaction set — the server validates, a mismatch is a
    /// protocol error that closes the connection). The verdict leaves the
    /// server before the write-ahead log's barrier: a
    /// [`Response::Granted`] is not durable. If the server crashes before
    /// the transaction's commit is durable, the grant is rolled back with
    /// it, and the restarted server answers the transaction's next
    /// operation and its commit `Aborted(Retired)`: restart it from
    /// [`Request::Begin`].
    Read {
        /// Correlation id.
        req_id: ReqId,
        /// The operation's identity in the transaction set.
        op: OpId,
        /// The object the client believes the operation reads.
        object: ObjectId,
    },
    /// Request the write `op`; validated like [`Request::Read`], and, like
    /// it, answered before the barrier: a [`Response::Granted`] is not
    /// durable.
    Write {
        /// Correlation id.
        req_id: ReqId,
        /// The operation's identity in the transaction set.
        op: OpId,
        /// The object the client believes the operation writes.
        object: ObjectId,
    },
    /// Commit `txn`. Answered [`Response::Committed`] only after the
    /// commit record is in the write-ahead log (durable under
    /// `FsyncPolicy::Always`) — the fsync is inside the wire-to-wire
    /// latency the client observes.
    Commit {
        /// Correlation id.
        req_id: ReqId,
        /// The committing transaction.
        txn: TxnId,
    },
    /// Client-initiated abort of `txn` (giving up on it). Acknowledged
    /// with [`Response::Granted`] once enqueued.
    Abort {
        /// Correlation id.
        req_id: ReqId,
        /// The transaction to abort.
        txn: TxnId,
    },
    /// Opens (or resumes, after a reconnect) a client session. Answered
    /// [`Response::Welcome`]. A session id binds this connection to the
    /// server's durable retry table: every later `Commit` on the
    /// connection is recorded against it, so a retried commit — same
    /// session, same `req_id`, re-sent over a fresh connection — gets
    /// the **original** verdict back instead of being applied twice.
    Hello {
        /// Correlation id.
        req_id: ReqId,
        /// The client-chosen session id (stable across reconnects).
        session: u64,
        /// The highest `req_id` this client has seen acknowledged; purely
        /// diagnostic today (the retry table is authoritative).
        resume_from: u64,
    },
}

/// A server → client message, correlated to its request by `req_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The request was applied: a begin/abort was enqueued, or an
    /// operation was granted by the scheduler.
    Granted {
        /// Echo of the request's id.
        req_id: ReqId,
    },
    /// The commit is applied — and logged, durably under
    /// `FsyncPolicy::Always`.
    Committed {
        /// Echo of the request's id.
        req_id: ReqId,
    },
    /// The scheduler (or the server's waits-for timeout) aborted the
    /// operation's transaction; the client restarts the incarnation
    /// from its first operation.
    Aborted {
        /// Echo of the request's id.
        req_id: ReqId,
        /// Why the transaction died.
        reason: AbortReason,
    },
    /// The admission queue was full under the shed policy; nothing was
    /// enqueued. The client backs off and retries the same request.
    Shed {
        /// Echo of the request's id.
        req_id: ReqId,
    },
    /// A terminal per-connection error; the server closes this
    /// connection (and only this connection) after sending it.
    Error {
        /// Echo of the request's id (0 when no single request is at
        /// fault, e.g. a corrupt frame).
        req_id: ReqId,
        /// What went wrong.
        code: ErrorCode,
    },
    /// Session accepted ([`Request::Hello`] acknowledged); commits on
    /// this connection are retry-protected from here on.
    Welcome {
        /// Echo of the request's id.
        req_id: ReqId,
    },
    /// The shard serving this request crashed and is being recovered in
    /// place; nothing was enqueued. Retryable: the client backs off and
    /// re-sends (a retried `Commit` keeps its original `req_id`, so the
    /// retry table still deduplicates it). Other shards are unaffected.
    Recovering {
        /// Echo of the request's id.
        req_id: ReqId,
    },
    /// The server is draining for a graceful shutdown: in-flight work is
    /// being answered, the WAL is being synced, no new work is accepted.
    /// Sent with `req_id` 0 as a broadcast, then per refused request.
    Closing {
        /// Echo of the refused request's id (0 for the broadcast).
        req_id: ReqId,
    },
}

/// Why the server is giving up on one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or inconsistent with the server's
    /// transaction set (wrong mode/object for the named operation,
    /// unknown transaction, or a corrupt frame).
    BadRequest = 0,
    /// The admission core never answered a request of this connection
    /// within the reply watchdog; the connection is degraded (its live
    /// transactions aborted) while the rest of the server keeps going.
    ReplyLost = 1,
    /// The server is shutting down (or its admission core fail-stopped).
    Shutdown = 2,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            0 => Some(ErrorCode::BadRequest),
            1 => Some(ErrorCode::ReplyLost),
            2 => Some(ErrorCode::Shutdown),
            _ => None,
        }
    }
}

/// Why a byte stream does not start with a valid message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame layer rejected it; [`FrameError::is_incomplete`]
    /// distinguishes "wait for more bytes" from "the stream is corrupt".
    Frame(FrameError),
    /// A verified frame carried an unknown message tag.
    UnknownTag(u8),
    /// A verified frame's payload does not match its tag's layout.
    Malformed {
        /// The message tag of the malformed payload.
        tag: u8,
        /// The payload length that did not fit the layout.
        len: usize,
    },
}

impl WireError {
    /// Could more input turn this into a valid message? Only a short
    /// frame; everything else is terminal for the connection.
    pub fn is_incomplete(&self) -> bool {
        matches!(self, WireError::Frame(e) if e.is_incomplete())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Malformed { tag, len } => {
                write!(f, "malformed payload for tag {tag}: {len} bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

const REQ_BEGIN: u8 = 1;
const REQ_READ: u8 = 2;
const REQ_WRITE: u8 = 3;
const REQ_COMMIT: u8 = 4;
const REQ_ABORT: u8 = 5;
const REQ_HELLO: u8 = 6;

const RESP_GRANTED: u8 = 1;
const RESP_COMMITTED: u8 = 2;
const RESP_ABORTED: u8 = 3;
const RESP_SHED: u8 = 4;
const RESP_ERROR: u8 = 5;
const RESP_WELCOME: u8 = 6;
const RESP_RECOVERING: u8 = 7;
const RESP_CLOSING: u8 = 8;

fn reason_to_u8(r: &AbortReason) -> u8 {
    match r {
        AbortReason::Deadlock => 0,
        AbortReason::CycleRejected => 1,
        AbortReason::Injected => 2,
        AbortReason::Retired => 3,
    }
}

fn reason_from_u8(b: u8) -> Option<AbortReason> {
    match b {
        0 => Some(AbortReason::Deadlock),
        1 => Some(AbortReason::CycleRejected),
        2 => Some(AbortReason::Injected),
        3 => Some(AbortReason::Retired),
        _ => None,
    }
}

/// Appends `tag | req_id | fields...` framed onto `buf`.
fn put_frame(buf: &mut Vec<u8>, tag: u8, req_id: ReqId, fields: &[u32]) {
    let start = begin_frame(buf);
    buf.push(tag);
    buf.extend_from_slice(&req_id.to_le_bytes());
    for f in fields {
        buf.extend_from_slice(&f.to_le_bytes());
    }
    finish_frame(buf, start, MAX_PAYLOAD).expect("wire payload within bound");
}

fn put_frame_u8(buf: &mut Vec<u8>, tag: u8, req_id: ReqId, byte: u8) {
    let start = begin_frame(buf);
    buf.push(tag);
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.push(byte);
    finish_frame(buf, start, MAX_PAYLOAD).expect("wire payload within bound");
}

fn get_u32(p: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(p[at..at + 4].try_into().unwrap())
}

fn get_req_id(p: &[u8]) -> ReqId {
    ReqId::from_le_bytes(p[1..9].try_into().unwrap())
}

impl Request {
    /// The correlation id this request carries.
    pub fn req_id(&self) -> ReqId {
        match *self {
            Request::Begin { req_id, .. }
            | Request::Read { req_id, .. }
            | Request::Write { req_id, .. }
            | Request::Commit { req_id, .. }
            | Request::Abort { req_id, .. }
            | Request::Hello { req_id, .. } => req_id,
        }
    }

    /// The access mode an operation request claims (`None` for
    /// begin/commit/abort).
    pub fn mode(&self) -> Option<AccessMode> {
        match self {
            Request::Read { .. } => Some(AccessMode::Read),
            Request::Write { .. } => Some(AccessMode::Write),
            _ => None,
        }
    }

    /// Appends this request, framed, onto `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            Request::Begin { req_id, txn } => put_frame(buf, REQ_BEGIN, req_id, &[txn.0]),
            Request::Read { req_id, op, object } => {
                put_frame(buf, REQ_READ, req_id, &[op.txn.0, op.index, object.0])
            }
            Request::Write { req_id, op, object } => {
                put_frame(buf, REQ_WRITE, req_id, &[op.txn.0, op.index, object.0])
            }
            Request::Commit { req_id, txn } => put_frame(buf, REQ_COMMIT, req_id, &[txn.0]),
            Request::Abort { req_id, txn } => put_frame(buf, REQ_ABORT, req_id, &[txn.0]),
            Request::Hello {
                req_id,
                session,
                resume_from,
            } => {
                let start = begin_frame(buf);
                buf.push(REQ_HELLO);
                buf.extend_from_slice(&req_id.to_le_bytes());
                buf.extend_from_slice(&session.to_le_bytes());
                buf.extend_from_slice(&resume_from.to_le_bytes());
                finish_frame(buf, start, MAX_PAYLOAD).expect("wire payload within bound");
            }
        }
    }

    /// Decodes the request at the head of `bytes`; returns it plus the
    /// bytes consumed (the offset of the next frame). Total: any input
    /// yields a request or a typed [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<(Request, usize), WireError> {
        let frame = decode_frame(bytes, MAX_PAYLOAD)?;
        let p = frame.payload;
        let tag = p[0];
        let body = p.len() - 1;
        let malformed = WireError::Malformed { tag, len: body };
        let req = match tag {
            REQ_BEGIN | REQ_COMMIT | REQ_ABORT => {
                if body != 12 {
                    return Err(malformed);
                }
                let req_id = get_req_id(p);
                let txn = TxnId(get_u32(p, 9));
                match tag {
                    REQ_BEGIN => Request::Begin { req_id, txn },
                    REQ_COMMIT => Request::Commit { req_id, txn },
                    _ => Request::Abort { req_id, txn },
                }
            }
            REQ_READ | REQ_WRITE => {
                if body != 20 {
                    return Err(malformed);
                }
                let req_id = get_req_id(p);
                let op = OpId {
                    txn: TxnId(get_u32(p, 9)),
                    index: get_u32(p, 13),
                };
                let object = ObjectId(get_u32(p, 17));
                if tag == REQ_READ {
                    Request::Read { req_id, op, object }
                } else {
                    Request::Write { req_id, op, object }
                }
            }
            REQ_HELLO => {
                if body != 24 {
                    return Err(malformed);
                }
                Request::Hello {
                    req_id: get_req_id(p),
                    session: u64::from_le_bytes(p[9..17].try_into().unwrap()),
                    resume_from: u64::from_le_bytes(p[17..25].try_into().unwrap()),
                }
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        Ok((req, frame.consumed))
    }
}

impl Response {
    /// The correlation id this response echoes.
    pub fn req_id(&self) -> ReqId {
        match self {
            Response::Granted { req_id }
            | Response::Committed { req_id }
            | Response::Aborted { req_id, .. }
            | Response::Shed { req_id }
            | Response::Error { req_id, .. }
            | Response::Welcome { req_id }
            | Response::Recovering { req_id }
            | Response::Closing { req_id } => *req_id,
        }
    }

    /// Appends this response, framed, onto `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Granted { req_id } => put_frame(buf, RESP_GRANTED, *req_id, &[]),
            Response::Committed { req_id } => put_frame(buf, RESP_COMMITTED, *req_id, &[]),
            Response::Aborted { req_id, reason } => {
                put_frame_u8(buf, RESP_ABORTED, *req_id, reason_to_u8(reason))
            }
            Response::Shed { req_id } => put_frame(buf, RESP_SHED, *req_id, &[]),
            Response::Error { req_id, code } => put_frame_u8(buf, RESP_ERROR, *req_id, *code as u8),
            Response::Welcome { req_id } => put_frame(buf, RESP_WELCOME, *req_id, &[]),
            Response::Recovering { req_id } => put_frame(buf, RESP_RECOVERING, *req_id, &[]),
            Response::Closing { req_id } => put_frame(buf, RESP_CLOSING, *req_id, &[]),
        }
    }

    /// Decodes the response at the head of `bytes`; see
    /// [`Request::decode`].
    pub fn decode(bytes: &[u8]) -> Result<(Response, usize), WireError> {
        let frame = decode_frame(bytes, MAX_PAYLOAD)?;
        let p = frame.payload;
        let tag = p[0];
        let body = p.len() - 1;
        let malformed = WireError::Malformed { tag, len: body };
        let resp = match tag {
            RESP_GRANTED | RESP_COMMITTED | RESP_SHED | RESP_WELCOME | RESP_RECOVERING
            | RESP_CLOSING => {
                if body != 8 {
                    return Err(malformed);
                }
                let req_id = get_req_id(p);
                match tag {
                    RESP_GRANTED => Response::Granted { req_id },
                    RESP_COMMITTED => Response::Committed { req_id },
                    RESP_SHED => Response::Shed { req_id },
                    RESP_WELCOME => Response::Welcome { req_id },
                    RESP_RECOVERING => Response::Recovering { req_id },
                    _ => Response::Closing { req_id },
                }
            }
            RESP_ABORTED => {
                if body != 9 {
                    return Err(malformed);
                }
                Response::Aborted {
                    req_id: get_req_id(p),
                    reason: reason_from_u8(p[9]).ok_or(malformed)?,
                }
            }
            RESP_ERROR => {
                if body != 9 {
                    return Err(malformed);
                }
                Response::Error {
                    req_id: get_req_id(p),
                    code: ErrorCode::from_u8(p[9]).ok_or(malformed)?,
                }
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        Ok((resp, frame.consumed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Begin {
                req_id: 7,
                txn: TxnId(3),
            },
            Request::Read {
                req_id: u64::MAX,
                op: OpId {
                    txn: TxnId(1),
                    index: 4,
                },
                object: ObjectId(9),
            },
            Request::Write {
                req_id: 0,
                op: OpId {
                    txn: TxnId(2),
                    index: 0,
                },
                object: ObjectId(u32::MAX),
            },
            Request::Commit {
                req_id: 42,
                txn: TxnId(0),
            },
            Request::Abort {
                req_id: 43,
                txn: TxnId(17),
            },
            Request::Hello {
                req_id: 44,
                session: u64::MAX,
                resume_from: 0x0102_0304_0506_0708,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Granted { req_id: 7 },
            Response::Committed { req_id: 8 },
            Response::Aborted {
                req_id: 9,
                reason: AbortReason::CycleRejected,
            },
            Response::Shed { req_id: 10 },
            Response::Error {
                req_id: 0,
                code: ErrorCode::ReplyLost,
            },
            Response::Welcome { req_id: 11 },
            Response::Recovering { req_id: 12 },
            Response::Closing { req_id: 0 },
        ]
    }

    #[test]
    fn requests_roundtrip_back_to_back() {
        let reqs = sample_requests();
        let mut buf = Vec::new();
        for r in &reqs {
            r.encode_into(&mut buf);
        }
        let mut at = 0;
        let mut got = Vec::new();
        while at < buf.len() {
            let (r, n) = Request::decode(&buf[at..]).unwrap();
            got.push(r);
            at += n;
        }
        assert_eq!(got, reqs);
    }

    #[test]
    fn responses_roundtrip_back_to_back() {
        let resps = sample_responses();
        let mut buf = Vec::new();
        for r in &resps {
            r.encode_into(&mut buf);
        }
        let mut at = 0;
        let mut got = Vec::new();
        while at < buf.len() {
            let (r, n) = Response::decode(&buf[at..]).unwrap();
            got.push(r);
            at += n;
        }
        assert_eq!(got, resps);
        for r in &resps {
            // Abort reasons survive exactly.
            if let Response::Aborted { reason, .. } = r {
                assert_eq!(reason_from_u8(reason_to_u8(reason)), Some(reason.clone()));
            }
        }
    }

    #[test]
    fn truncations_are_incomplete_not_corrupt() {
        let mut buf = Vec::new();
        Request::Write {
            req_id: 5,
            op: OpId {
                txn: TxnId(1),
                index: 2,
            },
            object: ObjectId(3),
        }
        .encode_into(&mut buf);
        for cut in 0..buf.len() {
            let err = Request::decode(&buf[..cut]).unwrap_err();
            assert!(err.is_incomplete(), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_typed() {
        let mut buf = Vec::new();
        Request::Read {
            req_id: 1,
            op: OpId {
                txn: TxnId(0),
                index: 1,
            },
            object: ObjectId(2),
        }
        .encode_into(&mut buf);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                // Never Ok: CRC covers the payload, the length bound
                // covers the header. (A header flip can only yield
                // BadLength or Incomplete; both typed.)
                assert!(Request::decode(&corrupt).is_err(), "flip {byte}:{bit}");
            }
        }
    }

    #[test]
    fn unknown_tag_and_wrong_length_are_terminal() {
        // Valid frame, nonsense tag.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf);
        buf.push(99);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        finish_frame(&mut buf, start, MAX_PAYLOAD).unwrap();
        let err = Request::decode(&buf).unwrap_err();
        assert_eq!(err, WireError::UnknownTag(99));
        assert!(!err.is_incomplete());

        // Valid frame, good tag, short payload.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf);
        buf.push(REQ_READ);
        buf.extend_from_slice(&1u64.to_le_bytes());
        finish_frame(&mut buf, start, MAX_PAYLOAD).unwrap();
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::Malformed { tag: REQ_READ, .. })
        ));

        // Valid frame, aborted response with an impossible reason byte.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf);
        buf.push(RESP_ABORTED);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(250);
        finish_frame(&mut buf, start, MAX_PAYLOAD).unwrap();
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_buffering() {
        let mut bytes = (MAX_PAYLOAD + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 100]);
        let err = Request::decode(&bytes).unwrap_err();
        assert_eq!(
            err,
            WireError::Frame(FrameError::BadLength {
                len: MAX_PAYLOAD + 1
            })
        );
        assert!(!err.is_incomplete(), "oversized length is terminal");
    }
}
