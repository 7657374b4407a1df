//! # relser-wal — a durable write-ahead commit log
//!
//! The concurrent service (`relser-server`) funnels every state change
//! through a single-writer admission core, which makes durability almost
//! free to specify: the core's state-changing events *in core order* are
//! already the run's serialization point, so logging exactly that stream
//! — begin / grant / commit / abort — is enough to reconstruct the
//! scheduler state and the committed history after a crash.
//!
//! The pieces:
//!
//! * [`record`] — the [`WalRecord`] vocabulary and its length-prefixed,
//!   CRC-32-checksummed frame format;
//! * [`storage`] — the [`Storage`] trait a segment is written through,
//!   plus the real-file backend (the model checker adds a
//!   fault-injecting one);
//! * [`writer`] — the [`FsyncPolicy`] and [`WalStats`] of the segment
//!   writer, which buffers a batch of frames and writes and syncs it
//!   once at the core's queue-batch boundaries (group commit);
//! * [`reader`] — [`scan`]: the torn-write-tolerant scanner that
//!   recovers the longest valid record prefix from arbitrary bytes;
//! * [`commit_log`] — the [`CommitLog`] trait the admission core drives;
//! * [`segment`] — [`SegmentedWal`], its one implementation:
//!   checkpoint-headed segments with rotation and deletion, bounding log
//!   size and recovery time by live state instead of history length. A
//!   log that never rotates ([`CheckpointPolicy::never`]) is its
//!   one-segment row; there is no second log shape.
//!
//! The recovery manager itself lives in `relser-server` (it needs a
//! scheduler to replay into and the RSG oracle to re-certify); this crate
//! stays a pure log so it can be hammered byte-level by the storage
//! fault injector in `relser-check`.
//!
//! ## Durability contract: ack-after-barrier
//!
//! [`CommitLog::append`] only adds a record to the current segment's
//! batch; [`CommitLog::batch_end`] hands the whole batch to [`Storage`]
//! in **one** `append` and — under [`FsyncPolicy::Always`], whenever
//! anything is unsynced — issues **one** [`Storage::sync`]. The contract
//! of `Always` is therefore *no acknowledgment leaves the core before a
//! barrier that covers its record*, not *one barrier per record*: the
//! admission core holds every reply (and every other externally visible
//! acknowledgment) of a drained queue batch until `batch_end` returns,
//! and unwinds them un-acknowledged if it fails. A crash at *any* point
//! loses no acknowledged commit, and a batch of b commands costs one
//! write and one barrier instead of b of each. `Never` (tests and the
//! benchmark's append probe) goes through the same hold-then-release loop
//! with no barrier but the clean close's; the scanner's
//! truncate-at-first-damage rule keeps the recovered prefix consistent in
//! every case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit_log;
pub mod crc32;
pub mod reader;
pub mod record;
pub mod segment;
pub mod storage;
pub mod writer;

pub use commit_log::CommitLog;
pub use crc32::crc32;
pub use reader::{scan, ScanResult, Truncation};
pub use record::{
    Checkpoint, CheckpointEvent, EncodeError, SessionEntry, WalRecord, FRAME_OVERHEAD, MAGIC,
    MAX_PAYLOAD,
};
pub use segment::{
    CheckpointPolicy, DirSegmentStore, MemSegmentStore, MemSegmentsHandle, ReadableSegmentStore,
    SegmentStats, SegmentStore, SegmentedWal,
};
pub use storage::{FileStorage, Storage};
pub use writer::{FsyncPolicy, WalStats};
