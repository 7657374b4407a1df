//! The log record vocabulary and its on-disk framing.
//!
//! The admission core is the run's serialization point, so the log is
//! simply its state-changing events in core order: `Begin`, `Grant`,
//! `Commit`, `Abort`. Blocked probes change no state and are not logged —
//! replaying the granted stream through a fresh scheduler reproduces the
//! exact scheduler state (see `relser-server`'s recovery manager). A
//! fifth record, [`WalRecord::Checkpoint`], snapshots the core's live
//! state so recovery can seed from it and replay only the suffix, and so
//! older log segments can be deleted (see `crate::segment`).
//!
//! Framing, per record:
//!
//! ```text
//! +------------+-----------+------------------+
//! | len: u32LE | crc: u32LE| payload (len B)  |
//! +------------+-----------+------------------+
//! payload = tag: u8, txn: u32LE [, index: u32LE for Grant]
//!                               [, session/req_id: u64LE ×2
//!                                  for CommitSession]
//! checkpoint payload = tag: u8, shard: u32LE,
//!                      committed count: u32LE, committed txns: u32LE…,
//!                      event count: u32LE,
//!                      events: kind u8, txn u32LE [, index u32LE]…,
//!                      session count: u32LE,
//!                      sessions: session u64LE, req_id u64LE, txn u32LE…
//! ```
//!
//! Tags: 1 `Begin`, 2 `Grant`, 3 `Commit`, 4 `Abort`, 5 `Checkpoint`,
//! 7 `CommitSession`. Tag 6 is retired (it carried a global commit stamp
//! that ordered commits across shards; shards share nothing, so nothing
//! orders them) and is never reused: a log that holds it is refused, not
//! misread.
//!
//! `crc` is the CRC-32 of the payload. A record is accepted only if the
//! whole frame is present, `len` is sane, the checksum matches, and the
//! payload parses — anything else is treated as the torn/corrupt tail of
//! a crashed write and truncated by the scanner ([`crate::scan`]).

use relser_core::ids::{OpId, TxnId};
use relser_frame::{begin_frame, finish_frame};
use std::fmt;

/// File magic: identifies a relser WAL and pins the format version.
pub const MAGIC: &[u8; 8] = b"RSWAL01\n";

/// Upper bound on a sane payload length. Event records are ≤ 21 bytes;
/// checkpoint payloads scale with the number of live (non-retired)
/// transactions, so the bound is generous — but still a bound: a length
/// prefix beyond it means the frame header itself is corrupt, and an
/// encode that would exceed it is a typed error, never a silent `u32`
/// wrap.
pub const MAX_PAYLOAD: u32 = 1 << 16;

/// Bytes of framing per record (length prefix + checksum), from the
/// shared codec.
pub const FRAME_OVERHEAD: usize = relser_frame::FRAME_OVERHEAD;

const TAG_BEGIN: u8 = 1;
const TAG_GRANT: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
// Tag 6 is retired; see the module docs.
const TAG_COMMIT_SESSION: u8 = 7;

const EV_BEGIN: u8 = 1;
const EV_GRANT: u8 = 2;
const EV_COMMIT: u8 = 3;

/// The payload would not fit the frame format. Returned by
/// [`WalRecord::encode_into`] instead of letting the `as u32` length cast
/// wrap silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The encoded payload exceeds [`MAX_PAYLOAD`] bytes.
    PayloadTooLarge {
        /// The payload size that did not fit.
        len: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::PayloadTooLarge { len } => write!(
                f,
                "record payload of {len} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

/// One live-state event inside a [`Checkpoint`]: the condensed,
/// retirement-free replay stream that reconstructs the admission core's
/// scheduler state, in core order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointEvent {
    /// The incarnation started (and had not aborted by checkpoint time).
    Begin(TxnId),
    /// The operation was granted (and its incarnation survived).
    Grant(OpId),
    /// The transaction committed but was not yet retired by the
    /// scheduler, so later admissions may still order against it.
    Commit(TxnId),
}

impl CheckpointEvent {
    fn encoded_len(&self) -> usize {
        match self {
            CheckpointEvent::Grant(_) => 9,
            _ => 5,
        }
    }
}

/// One durable client-session acknowledgment: session `session` was
/// answered `Committed` for request `req_id`, which committed `txn`.
/// Carried by [`WalRecord::CommitSession`] (live appends) and inside
/// [`Checkpoint::sessions`] (so compaction cannot forget an acked
/// commit's reply). Recovery rebuilds the exactly-once retry table from
/// exactly these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionEntry {
    /// The client session id (chosen by the client at `Hello`).
    pub session: u64,
    /// The client's request id for the commit.
    pub req_id: u64,
    /// The transaction the commit acknowledged.
    pub txn: TxnId,
}

/// A snapshot of the admission core's live state, logged as the first
/// record of every segment (and whenever the checkpoint policy fires).
///
/// `committed` is the full commit-order list — bounded by the transaction
/// universe since each [`TxnId`] commits at most once — and `events` is
/// the condensed event stream of the *non-retired* transactions only.
/// Recovery replays `events` through a fresh scheduler, takes `committed`
/// as the acknowledged-commit set, then replays the post-checkpoint
/// suffix; everything before the checkpoint can be deleted. `sessions`
/// carries the client-session retry table forward across rotations the
/// same way `committed` carries the commit set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// The shard core that wrote this checkpoint (0 in the unsharded
    /// service). Recovery uses it to reject a segment stream that was
    /// accidentally fed to the wrong shard's recovery manager.
    pub shard: u32,
    /// Transactions committed so far, in commit order.
    pub committed: Vec<TxnId>,
    /// Condensed live-state events (non-retired transactions), core order.
    pub events: Vec<CheckpointEvent>,
    /// The client-session table at checkpoint time: every acknowledged
    /// `(session, req_id) → txn` commit reply still retained for replay.
    pub sessions: Vec<SessionEntry>,
}

/// One durable event, in admission-core order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction incarnation started.
    Begin(TxnId),
    /// An operation request was granted (the only request outcome that
    /// changes committed state; blocks are not logged, aborts log
    /// [`WalRecord::Abort`]).
    Grant(OpId),
    /// The transaction committed. Under `FsyncPolicy::Always` this record
    /// is durable before the core acknowledges the commit.
    Commit(TxnId),
    /// The transaction (incarnation) aborted — scheduler-initiated,
    /// session timeout, or injected; recovery treats them all alike.
    Abort(TxnId),
    /// [`WalRecord::Commit`] fused with a client-session acknowledgment
    /// in **one** frame: the commit and the fact that session `session`
    /// was answered for request `req_id` become durable atomically. Two
    /// separate records would open a torn window (commit durable, session
    /// entry not) in which a retried commit re-executes — the
    /// exactly-once contract hangs on this frame being indivisible.
    CommitSession {
        /// The committing transaction.
        txn: TxnId,
        /// The client session the commit was acknowledged to.
        session: u64,
        /// The client's request id for the commit.
        req_id: u64,
    },
    /// A live-state snapshot; recovery seeds from the newest one and
    /// replays only the records after it.
    Checkpoint(Checkpoint),
}

impl WalRecord {
    /// The transaction this record is about; `None` for records that span
    /// the whole state (checkpoints).
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::Begin(t) | WalRecord::Commit(t) | WalRecord::Abort(t) => Some(*t),
            WalRecord::CommitSession { txn, .. } => Some(*txn),
            WalRecord::Grant(op) => Some(op.txn),
            WalRecord::Checkpoint(_) => None,
        }
    }

    /// Serialises the payload (tag + fields, no framing) into `buf`.
    fn payload_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Begin(t) => {
                buf.push(TAG_BEGIN);
                buf.extend_from_slice(&t.0.to_le_bytes());
            }
            WalRecord::Grant(op) => {
                buf.push(TAG_GRANT);
                buf.extend_from_slice(&op.txn.0.to_le_bytes());
                buf.extend_from_slice(&op.index.to_le_bytes());
            }
            WalRecord::Commit(t) => {
                buf.push(TAG_COMMIT);
                buf.extend_from_slice(&t.0.to_le_bytes());
            }
            WalRecord::Abort(t) => {
                buf.push(TAG_ABORT);
                buf.extend_from_slice(&t.0.to_le_bytes());
            }
            WalRecord::CommitSession {
                txn,
                session,
                req_id,
            } => {
                buf.push(TAG_COMMIT_SESSION);
                buf.extend_from_slice(&txn.0.to_le_bytes());
                buf.extend_from_slice(&session.to_le_bytes());
                buf.extend_from_slice(&req_id.to_le_bytes());
            }
            WalRecord::Checkpoint(cp) => {
                buf.push(TAG_CHECKPOINT);
                buf.extend_from_slice(&cp.shard.to_le_bytes());
                buf.extend_from_slice(&(cp.committed.len() as u32).to_le_bytes());
                for t in &cp.committed {
                    buf.extend_from_slice(&t.0.to_le_bytes());
                }
                buf.extend_from_slice(&(cp.events.len() as u32).to_le_bytes());
                for ev in &cp.events {
                    match ev {
                        CheckpointEvent::Begin(t) => {
                            buf.push(EV_BEGIN);
                            buf.extend_from_slice(&t.0.to_le_bytes());
                        }
                        CheckpointEvent::Grant(op) => {
                            buf.push(EV_GRANT);
                            buf.extend_from_slice(&op.txn.0.to_le_bytes());
                            buf.extend_from_slice(&op.index.to_le_bytes());
                        }
                        CheckpointEvent::Commit(t) => {
                            buf.push(EV_COMMIT);
                            buf.extend_from_slice(&t.0.to_le_bytes());
                        }
                    }
                }
                buf.extend_from_slice(&(cp.sessions.len() as u32).to_le_bytes());
                for se in &cp.sessions {
                    buf.extend_from_slice(&se.session.to_le_bytes());
                    buf.extend_from_slice(&se.req_id.to_le_bytes());
                    buf.extend_from_slice(&se.txn.0.to_le_bytes());
                }
            }
        }
    }

    /// Appends the full frame (length, checksum, payload) to `buf`. On
    /// [`EncodeError`], `buf` is restored to its original length —
    /// nothing partial is ever left behind for storage to append.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
        let start = begin_frame(buf);
        self.payload_into(buf);
        finish_frame(buf, start, MAX_PAYLOAD)
            .map(|_| ())
            .map_err(|e| EncodeError::PayloadTooLarge { len: e.len })
    }

    /// Parses a checksum-verified payload. `None` on an unknown tag or a
    /// field/length mismatch (corruption that happened to keep a valid
    /// checksum cannot occur; this guards against truncated formats).
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        let u32_at = |b: &[u8], at: usize| -> Option<u32> {
            b.get(at..at + 4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
        };
        match tag {
            TAG_BEGIN if rest.len() == 4 => Some(WalRecord::Begin(TxnId(u32_at(rest, 0)?))),
            TAG_COMMIT if rest.len() == 4 => Some(WalRecord::Commit(TxnId(u32_at(rest, 0)?))),
            TAG_ABORT if rest.len() == 4 => Some(WalRecord::Abort(TxnId(u32_at(rest, 0)?))),
            TAG_GRANT if rest.len() == 8 => Some(WalRecord::Grant(OpId {
                txn: TxnId(u32_at(rest, 0)?),
                index: u32_at(rest, 4)?,
            })),
            TAG_COMMIT_SESSION if rest.len() == 20 => Some(WalRecord::CommitSession {
                txn: TxnId(u32_at(rest, 0)?),
                session: u64::from_le_bytes(rest.get(4..12)?.try_into().unwrap()),
                req_id: u64::from_le_bytes(rest.get(12..20)?.try_into().unwrap()),
            }),
            TAG_CHECKPOINT => Self::decode_checkpoint(rest).map(WalRecord::Checkpoint),
            _ => None,
        }
    }

    /// Strict checkpoint-body parser: every byte must be consumed and
    /// every count must be exactly satisfied, so a truncated or padded
    /// body is rejected rather than silently partially accepted.
    fn decode_checkpoint(mut rest: &[u8]) -> Option<Checkpoint> {
        let take_u32 = |b: &mut &[u8]| -> Option<u32> {
            let head = b.get(..4)?;
            let v = u32::from_le_bytes(head.try_into().unwrap());
            *b = &b[4..];
            Some(v)
        };
        let shard = take_u32(&mut rest)?;
        let n_committed = take_u32(&mut rest)? as usize;
        // Counts are sanity-bounded by what could possibly fit in the
        // remaining bytes, so a corrupt count cannot drive a huge
        // pre-allocation.
        if n_committed > rest.len() / 4 {
            return None;
        }
        let mut committed = Vec::with_capacity(n_committed);
        for _ in 0..n_committed {
            committed.push(TxnId(take_u32(&mut rest)?));
        }
        let n_events = take_u32(&mut rest)? as usize;
        if n_events > rest.len() / 5 {
            return None;
        }
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let (&kind, tail) = rest.split_first()?;
            rest = tail;
            events.push(match kind {
                EV_BEGIN => CheckpointEvent::Begin(TxnId(take_u32(&mut rest)?)),
                EV_COMMIT => CheckpointEvent::Commit(TxnId(take_u32(&mut rest)?)),
                EV_GRANT => CheckpointEvent::Grant(OpId {
                    txn: TxnId(take_u32(&mut rest)?),
                    index: take_u32(&mut rest)?,
                }),
                _ => return None,
            });
        }
        let n_sessions = take_u32(&mut rest)? as usize;
        if n_sessions > rest.len() / 20 {
            return None;
        }
        let take_u64 = |b: &mut &[u8]| -> Option<u64> {
            let head = b.get(..8)?;
            let v = u64::from_le_bytes(head.try_into().unwrap());
            *b = &b[8..];
            Some(v)
        };
        let mut sessions = Vec::with_capacity(n_sessions);
        for _ in 0..n_sessions {
            sessions.push(SessionEntry {
                session: take_u64(&mut rest)?,
                req_id: take_u64(&mut rest)?,
                txn: TxnId(take_u32(&mut rest)?),
            });
        }
        if !rest.is_empty() {
            return None;
        }
        Some(Checkpoint {
            shard,
            committed,
            events,
            sessions,
        })
    }

    /// The encoded frame size of this record, in bytes.
    pub fn frame_len(&self) -> usize {
        FRAME_OVERHEAD
            + match self {
                WalRecord::Grant(_) => 9,
                WalRecord::CommitSession { .. } => 21,
                WalRecord::Checkpoint(cp) => {
                    1 + 4
                        + 4
                        + 4 * cp.committed.len()
                        + 4
                        + cp.events.iter().map(|e| e.encoded_len()).sum::<usize>()
                        + 4
                        + 20 * cp.sessions.len()
                }
                _ => 5,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_frame::crc32;

    fn roundtrip(r: WalRecord) {
        let mut buf = Vec::new();
        r.encode_into(&mut buf).unwrap();
        assert_eq!(buf.len(), r.frame_len());
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let payload = &buf[FRAME_OVERHEAD..FRAME_OVERHEAD + len];
        assert_eq!(crc, crc32(payload));
        assert_eq!(WalRecord::decode_payload(payload), Some(r));
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(WalRecord::Begin(TxnId(0)));
        roundtrip(WalRecord::Grant(OpId::new(TxnId(3), 17)));
        roundtrip(WalRecord::Commit(TxnId(u32::MAX)));
        roundtrip(WalRecord::Abort(TxnId(42)));
        roundtrip(WalRecord::CommitSession {
            txn: TxnId(5),
            session: u64::MAX,
            req_id: 0x1234_5678_9ABC_DEF0,
        });
        roundtrip(WalRecord::Checkpoint(Checkpoint::default()));
        roundtrip(WalRecord::Checkpoint(Checkpoint {
            shard: 3,
            committed: vec![TxnId(2), TxnId(0), TxnId(7)],
            events: vec![
                CheckpointEvent::Begin(TxnId(1)),
                CheckpointEvent::Grant(OpId::new(TxnId(1), 0)),
                CheckpointEvent::Commit(TxnId(1)),
                CheckpointEvent::Begin(TxnId(3)),
            ],
            sessions: vec![
                SessionEntry {
                    session: 11,
                    req_id: 900,
                    txn: TxnId(2),
                },
                SessionEntry {
                    session: u64::MAX,
                    req_id: 1,
                    txn: TxnId(7),
                },
            ],
        }));
    }

    #[test]
    fn oversized_payload_is_a_typed_error_not_a_wrap() {
        // Enough committed entries to push the payload past MAX_PAYLOAD.
        let huge = WalRecord::Checkpoint(Checkpoint {
            shard: 0,
            committed: (0..=(MAX_PAYLOAD / 4)).map(TxnId).collect(),
            events: Vec::new(),
            sessions: Vec::new(),
        });
        let mut buf = vec![0xAB; 3];
        let err = huge.encode_into(&mut buf).unwrap_err();
        assert!(matches!(
            err,
            EncodeError::PayloadTooLarge { len } if len > MAX_PAYLOAD as usize
        ));
        assert_eq!(buf, vec![0xAB; 3], "failed encode leaves no partial frame");
    }

    #[test]
    fn boundary_payload_still_encodes() {
        // The largest payload that fits: tag(1) + shard(4) + committed
        // count(4) + ids + event count(4) + session count(4).
        let ids = (MAX_PAYLOAD as usize - 1 - 4 - 4 - 4 - 4) / 4;
        let rec = WalRecord::Checkpoint(Checkpoint {
            shard: 0,
            committed: (0..ids as u32).map(TxnId).collect(),
            events: Vec::new(),
            sessions: Vec::new(),
        });
        assert_eq!(rec.frame_len(), FRAME_OVERHEAD + 17 + 4 * ids);
        assert!(rec.frame_len() - FRAME_OVERHEAD <= MAX_PAYLOAD as usize);
        let mut buf = Vec::new();
        rec.encode_into(&mut buf).unwrap();
        // One more id crosses the line.
        let rec = WalRecord::Checkpoint(Checkpoint {
            shard: 0,
            committed: (0..ids as u32 + 1).map(TxnId).collect(),
            events: Vec::new(),
            sessions: Vec::new(),
        });
        let mut buf = Vec::new();
        assert!(rec.encode_into(&mut buf).is_err());
    }

    #[test]
    fn bad_payloads_are_rejected() {
        assert_eq!(WalRecord::decode_payload(&[]), None);
        assert_eq!(WalRecord::decode_payload(&[99, 0, 0, 0, 0]), None);
        assert_eq!(
            WalRecord::decode_payload(&[TAG_BEGIN, 0, 0, 0]),
            None,
            "short field"
        );
        assert_eq!(
            WalRecord::decode_payload(&[TAG_BEGIN, 0, 0, 0, 0, 0]),
            None,
            "trailing garbage"
        );
        assert_eq!(WalRecord::decode_payload(&[TAG_GRANT, 1, 0, 0, 0]), None);
        let mut retired = vec![6];
        retired.extend_from_slice(&[0u8; 12]);
        assert_eq!(
            WalRecord::decode_payload(&retired),
            None,
            "tag 6 is retired"
        );
        let mut short = vec![TAG_COMMIT_SESSION];
        short.extend_from_slice(&[0u8; 19]);
        assert_eq!(
            WalRecord::decode_payload(&short),
            None,
            "commit-session truncated mid-field"
        );
    }

    #[test]
    fn corrupt_checkpoint_bodies_are_rejected() {
        let good = WalRecord::Checkpoint(Checkpoint {
            shard: 7,
            committed: vec![TxnId(1)],
            events: vec![CheckpointEvent::Grant(OpId::new(TxnId(0), 2))],
            sessions: vec![SessionEntry {
                session: 3,
                req_id: 12,
                txn: TxnId(1),
            }],
        });
        let mut frame = Vec::new();
        good.encode_into(&mut frame).unwrap();
        let payload = frame[FRAME_OVERHEAD..].to_vec();
        assert!(WalRecord::decode_payload(&payload).is_some());
        // Truncated anywhere inside the body: rejected.
        for cut in 1..payload.len() {
            assert_eq!(
                WalRecord::decode_payload(&payload[..cut]),
                None,
                "cut at {cut}"
            );
        }
        // Trailing garbage: rejected.
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(WalRecord::decode_payload(&padded), None);
        // A count that claims more entries than the bytes could hold:
        // rejected without a giant allocation.
        let mut lying = vec![TAG_CHECKPOINT];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(WalRecord::decode_payload(&lying), None);
        // An unknown event kind: rejected.
        let mut bad_kind = vec![TAG_CHECKPOINT];
        bad_kind.extend_from_slice(&0u32.to_le_bytes()); // shard
        bad_kind.extend_from_slice(&0u32.to_le_bytes()); // committed count
        bad_kind.extend_from_slice(&1u32.to_le_bytes()); // event count
        bad_kind.push(9);
        bad_kind.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(WalRecord::decode_payload(&bad_kind), None);
    }
}
