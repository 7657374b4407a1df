//! The [`CommitLog`] abstraction: what the admission core needs from a
//! durable log, whether it is a single append-only file
//! ([`crate::WalWriter`]) or a checkpointed, segment-compacting one
//! ([`crate::SegmentedWal`]).
//!
//! The core drives the log with exactly four verbs — append a record
//! (buffered, WAL-before-ack), end a batch (one write + the policy's
//! barrier; acknowledgments are released only after it), close cleanly,
//! read counters — plus the checkpoint protocol: the *log* decides when a checkpoint is due
//! (`checkpoint_due`), the *core* supplies the state snapshot
//! (`install_checkpoint`), because only the core knows its live state and
//! only the log knows its segment sizes.

use crate::record::{Checkpoint, WalRecord};
use crate::writer::{WalStats, WalWriter};
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

    /// Append-side counters so far (across all segments, if any).
    fn stats(&self) -> WalStats;

    /// Drains the wall-clock duration (ns) of every durability barrier
    /// since the last call — the fsync stage of the per-stage latency
    /// report. Logs that do not track barrier timings return empty.
    fn take_sync_ns(&mut self) -> Vec<u64> {
        Vec::new()
    }

    /// Does this log use checkpoints at all? When `false` (the plain
    /// single-file writer), the core skips live-state tracking entirely.
    fn wants_checkpoints(&self) -> bool {
        false
    }

    /// Is a checkpoint due under the log's policy? Only meaningful when
    /// [`CommitLog::wants_checkpoints`] is `true`.
    fn checkpoint_due(&self) -> bool {
        false
    }

    /// Installs a checkpoint snapshot (rotating / compacting as the
    /// implementation sees fit). The default is a no-op for logs without
    /// checkpoints.
    fn install_checkpoint(&mut self, _cp: Checkpoint) -> io::Result<()> {
        Ok(())
    }
}

impl CommitLog for WalWriter {
    fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        WalWriter::append(self, rec)
    }

    fn batch_end(&mut self) -> io::Result<()> {
        WalWriter::batch_end(self)
    }

    fn close(&mut self) -> io::Result<()> {
        WalWriter::close(self)
    }

    fn stats(&self) -> WalStats {
        WalWriter::stats(self)
    }

    fn take_sync_ns(&mut self) -> Vec<u64> {
        WalWriter::take_sync_ns(self)
    }
}
