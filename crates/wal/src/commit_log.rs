//! The [`CommitLog`] abstraction: what the admission core needs from a
//! durable log. Its one implementation is [`crate::SegmentedWal`]; the
//! trait keeps the segment format out of the core.
//!
//! The core drives the log with exactly four verbs — append a record
//! (buffered, WAL-before-ack), end a batch (one write + the policy's
//! barrier; acknowledgments are released only after it), close cleanly,
//! read counters — plus the checkpoint protocol: the *log* decides when a
//! checkpoint is due (`checkpoint_due`), the *core* supplies the state
//! snapshot (`install_checkpoint`), because only the core knows its live
//! state and only the log knows its segment sizes. A log that never
//! checkpoints is one under [`crate::CheckpointPolicy::never`].

use crate::record::{Checkpoint, WalRecord};
use crate::writer::WalStats;
use std::io;

/// A durable commit log, from the admission core's point of view.
pub trait CommitLog: Send {
    /// Adds one record to the current batch. The record is **not**
    /// durable — not even written — when this returns, under any policy:
    /// the caller must hold the acknowledgment it stands for until
    /// [`CommitLog::batch_end`] has returned `Ok`. Any error means the
    /// caller must fail-stop.
    fn append(&mut self, rec: &WalRecord) -> io::Result<()>;

    /// Ends the batch: one storage write of everything appended since the
    /// last call, then the policy's durability barrier (under
    /// [`crate::FsyncPolicy::Always`]: one barrier whenever anything is unsynced,
    /// so on `Ok` every appended record is durable and its acknowledgment
    /// may be released). Called once per drained queue batch; an empty
    /// batch costs nothing.
    /// Any error means the batch may not be durable: fail-stop without
    /// acknowledging it.
    fn batch_end(&mut self) -> io::Result<()>;

    /// Clean shutdown: a final durability barrier.
    fn close(&mut self) -> io::Result<()>;

    /// Append-side counters so far, across all segments.
    fn stats(&self) -> WalStats;

    /// Drains the wall-clock duration (ns) of every durability barrier
    /// since the last call — the fsync stage of the per-stage latency
    /// report.
    fn take_sync_ns(&mut self) -> Vec<u64>;

    /// Is a checkpoint due under the log's policy?
    fn checkpoint_due(&self) -> bool;

    /// Installs a checkpoint snapshot (rotating / compacting as the
    /// implementation sees fit). `Ok(true)` means the log rotated onto
    /// it, `Ok(false)` that it skipped the snapshot.
    fn install_checkpoint(&mut self, cp: Checkpoint) -> io::Result<bool>;

    /// The checkpoint the current segment opened with: the live state a
    /// resumed log was opened on, or the newest snapshot installed. A
    /// core starting on the log seeds its committed set and checkpoint
    /// events from it, so the first checkpoint it cuts still covers
    /// what the log already holds.
    fn head(&self) -> &Checkpoint;
}
