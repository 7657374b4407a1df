//! The append side of one segment: [`FsyncPolicy`], [`WalStats`], and
//! the crate-private writer that frames records onto a [`Storage`]
//! backend. [`crate::SegmentedWal`] owns one writer per segment; outside
//! this crate the log is driven through [`crate::CommitLog`] only.
//!
//! The writer's contract is **commit-after-barrier**, not
//! barrier-per-record. `append` only encodes the record into the
//! writer's batch buffer — it touches no storage and makes nothing
//! durable. `batch_end` hands the buffered frames to [`Storage`] in
//! **one** `append` and then issues the policy's durability barrier:
//! under `Always` one [`Storage::sync`] whenever a commit record
//! (`Commit` or `CommitSession`) is unsynced, under `Never` none. The
//! admission core's write step calls [`crate::CommitLog::append`] per
//! state-changing command and [`crate::CommitLog::batch_end`] once per
//! write, holding every commit acknowledgment of the write until
//! `batch_end` returns — classic group commit: a batch of b commands
//! costs one write and at most one barrier instead of b of each. A write
//! is one drained queue batch when the core writes inline, or every batch
//! admitted during the previous barrier when its log-writer thread does
//! (the core hands a slow log's writes over and keeps admitting), so the
//! writer may run on either thread, one call at a time. Begin,
//! grant and abort records need no barrier of their own: nothing
//! uncommitted survives recovery, so they only have to be durable by the
//! time a commit that depends on them is, and a barrier covers a prefix
//! of the log. Under `Always` no commit acknowledgment ever leaves the
//! core before a barrier that covers its record, which is what makes
//! "zero acknowledged commits lost" provable in the crash-point sweep.

use crate::record::{WalRecord, MAGIC};
use crate::storage::Storage;
use std::io;
use std::time::Instant;

/// When the writer issues a durability barrier ([`Storage::sync`]).
/// Every policy is checked at batch boundaries
/// ([`crate::CommitLog::batch_end`]) only — never inside
/// [`crate::CommitLog::append`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// One barrier per batch that logged a commit, issued before any
    /// commit acknowledgment of that batch is released; a batch that
    /// logged no commit is written but not synced, and rides to disk
    /// under the next commit's barrier. No acknowledged commit is ever
    /// lost.
    Always,
    /// Never sync mid-run: only a segment's head checkpoint (at open and
    /// at rotation) and a clean [`crate::CommitLog::close`] sync. A crash
    /// may lose everything since the head checkpoint.
    Never,
}

/// Append-side counters, surfaced through the server metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (head checkpoints included).
    pub records: u64,
    /// Bytes appended (frames + segment headers).
    pub bytes: u64,
    /// Durability barriers issued.
    pub syncs: u64,
    /// [`Storage::append`] calls issued: per segment, one for its header,
    /// one for its head checkpoint and one per non-empty batch.
    pub appends: u64,
}

/// Frames [`WalRecord`]s onto one segment's storage; see the module docs.
pub(crate) struct WalWriter {
    storage: Box<dyn Storage>,
    policy: FsyncPolicy,
    /// The current batch's encoded frames, not yet handed to storage.
    batch: Vec<u8>,
    /// Records appended since the last barrier (buffered or written).
    unsynced: u64,
    /// One of them is a commit (`Commit` or `CommitSession`): the next
    /// `batch_end` under [`FsyncPolicy::Always`] owes a barrier.
    unsynced_commit: bool,
    stats: WalStats,
    sync_ns: Vec<u64>,
    broken: bool,
}

impl WalWriter {
    /// Starts a fresh segment on `storage`: writes the file header (and,
    /// under [`FsyncPolicy::Always`], makes it durable immediately).
    pub fn new(mut storage: Box<dyn Storage>, policy: FsyncPolicy) -> io::Result<WalWriter> {
        storage.append(MAGIC)?;
        let mut w = WalWriter {
            storage,
            policy,
            batch: Vec::with_capacity(4096),
            unsynced: 0,
            unsynced_commit: false,
            stats: WalStats {
                bytes: MAGIC.len() as u64,
                appends: 1,
                ..WalStats::default()
            },
            sync_ns: Vec::new(),
            broken: false,
        };
        if policy == FsyncPolicy::Always {
            w.sync_now()?;
        }
        Ok(w)
    }

    /// Encodes one record into the current batch. Nothing reaches storage
    /// and nothing is durable until the batch ends (`batch_end`, `sync` or
    /// `close`) — under every policy.
    ///
    /// An unencodable record is a logic error upstream, but the log itself
    /// is still intact: nothing was buffered, and the record is refused
    /// without poisoning the writer.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.check_broken()?;
        let before = self.batch.len();
        rec.encode_into(&mut self.batch)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.stats.records += 1;
        self.stats.bytes += (self.batch.len() - before) as u64;
        self.unsynced += 1;
        self.unsynced_commit |=
            matches!(rec, WalRecord::Commit(_) | WalRecord::CommitSession { .. });
        Ok(())
    }

    /// Ends the batch: hands the buffered frames to storage in one
    /// [`Storage::append`], then, under [`FsyncPolicy::Always`], one
    /// barrier if a commit record is unsynced — so on `Ok` every record
    /// appended up to the last commit is durable (a barrier covers a
    /// prefix). A batch that logged no commit is written and not synced;
    /// one that appended nothing costs nothing. The admission core's
    /// write step calls this once per write.
    ///
    /// Any error marks the writer broken: the log tail is in an unknown
    /// state, so the caller must fail-stop (crash the core) and let
    /// recovery truncate at the damage.
    pub fn batch_end(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.policy == FsyncPolicy::Always && self.unsynced_commit {
            self.sync_now()?;
        }
        Ok(())
    }

    /// Ends the batch with a forced durability barrier, regardless of
    /// policy. Segment rotation uses this: a checkpoint must be durable
    /// before the segments it replaces may be deleted.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.unsynced > 0 || self.stats.syncs == 0 {
            self.sync_now()?;
        }
        Ok(())
    }

    /// Clean shutdown: a final forced barrier. (A crash is modelled by
    /// *not* calling this.)
    pub fn close(&mut self) -> io::Result<()> {
        self.sync()
    }

    /// Append-side counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    fn check_broken(&self) -> io::Result<()> {
        if self.broken {
            Err(io::Error::other(
                "write-ahead log is broken (earlier storage error)",
            ))
        } else {
            Ok(())
        }
    }

    /// Hands the buffered batch to storage in one append.
    fn flush(&mut self) -> io::Result<()> {
        self.check_broken()?;
        if self.batch.is_empty() {
            return Ok(());
        }
        let written = self.storage.append(&self.batch);
        self.batch.clear();
        self.stats.appends += 1;
        if written.is_err() {
            self.broken = true;
        }
        written
    }

    fn sync_now(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        if let Err(e) = self.storage.sync() {
            self.broken = true;
            return Err(e);
        }
        self.sync_ns.push(t0.elapsed().as_nanos() as u64);
        self.stats.syncs += 1;
        self.unsynced = 0;
        self.unsynced_commit = false;
        Ok(())
    }

    /// Drains the wall-clock duration (ns) of every durability barrier
    /// issued since the last call. The admission core harvests these into
    /// the per-stage latency report; keeping raw samples (not a
    /// histogram) keeps this crate free of metrics dependencies.
    pub fn take_sync_ns(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.sync_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use relser_core::ids::{OpId, TxnId};

    #[test]
    fn always_policy_pays_one_write_and_one_barrier_per_batch() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let after_header = w.stats();
        assert_eq!((after_header.syncs, after_header.appends), (1, 1));
        // A batch that logs no commit is written once and not synced.
        for t in 0..5 {
            w.append(&WalRecord::Begin(TxnId(t))).unwrap();
        }
        w.batch_end().unwrap();
        let s = w.stats();
        assert_eq!(s.records, 5);
        assert_eq!(s.syncs, after_header.syncs, "no commit, no barrier");
        assert_eq!(s.appends - after_header.appends, 1, "one storage append");
        assert_eq!(s.bytes as usize, handle.bytes().len());
        assert!(handle.synced_bytes().len() < handle.bytes().len());
        // A batch that logs a commit pays one write and one barrier, and
        // the barrier covers the earlier batch too.
        w.append(&WalRecord::Grant(OpId::new(TxnId(0), 0))).unwrap();
        w.append(&WalRecord::Commit(TxnId(0))).unwrap();
        w.batch_end().unwrap();
        let s = w.stats();
        assert_eq!(
            s.syncs - after_header.syncs,
            1,
            "one barrier per commit batch"
        );
        assert_eq!(s.appends - after_header.appends, 2, "one append per batch");
        assert_eq!(
            handle.synced_bytes().len(),
            handle.bytes().len(),
            "everything appended is durable once a commit batch ended"
        );
        assert_eq!(crate::scan(&handle.synced_bytes()).records.len(), 7);
    }

    #[test]
    fn only_a_commit_record_owes_a_barrier() {
        let t = TxnId(3);
        let commit_session = WalRecord::CommitSession {
            txn: t,
            session: 1,
            req_id: 2,
        };
        for (rec, barrier) in [
            (WalRecord::Begin(t), false),
            (WalRecord::Grant(OpId::new(t, 0)), false),
            (WalRecord::Abort(t), false),
            (WalRecord::Commit(t), true),
            (commit_session, true),
        ] {
            let (mem, _handle) = MemStorage::new();
            let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
            w.append(&rec).unwrap();
            w.batch_end().unwrap();
            assert_eq!(w.stats().syncs, 1 + u64::from(barrier), "{rec:?}");
        }
    }

    #[test]
    fn append_alone_reaches_neither_storage_nor_durability() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let header = handle.bytes().len();
        w.append(&WalRecord::Begin(TxnId(0))).unwrap();
        w.append(&WalRecord::Commit(TxnId(0))).unwrap();
        assert_eq!(w.unsynced, 2, "appended records await their barrier");
        assert_eq!(handle.bytes().len(), header, "frames are still buffered");
        assert_eq!(w.stats().syncs, 1, "only the header barrier so far");
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let (mem, _handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let before = w.stats();
        w.batch_end().unwrap();
        w.batch_end().unwrap();
        assert_eq!(w.stats(), before, "no append, no barrier");
    }

    #[test]
    fn close_and_sync_force_a_barrier_under_every_policy() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Never] {
            let (mem, handle) = MemStorage::new();
            let mut w = WalWriter::new(Box::new(mem), policy).unwrap();
            w.append(&WalRecord::Begin(TxnId(0))).unwrap();
            w.sync().unwrap();
            assert_eq!(
                handle.synced_bytes().len(),
                handle.bytes().len(),
                "{policy:?}"
            );
            w.append(&WalRecord::Commit(TxnId(0))).unwrap();
            w.close().unwrap();
            assert_eq!(
                handle.synced_bytes().len(),
                handle.bytes().len(),
                "{policy:?}"
            );
            assert_eq!(crate::scan(&handle.synced_bytes()).records.len(), 2);
        }
    }

    #[test]
    fn never_policy_only_syncs_on_close() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Never).unwrap();
        w.append(&WalRecord::Begin(TxnId(0))).unwrap();
        w.batch_end().unwrap();
        assert_eq!(handle.synced_bytes().len(), 0);
        w.close().unwrap();
        assert_eq!(handle.synced_bytes().len(), handle.bytes().len());
    }

    #[test]
    fn failed_write_poisons_the_writer() {
        struct FailingAppend(u32);
        impl Storage for FailingAppend {
            fn append(&mut self, _: &[u8]) -> io::Result<()> {
                self.0 += 1;
                if self.0 > 1 {
                    return Err(io::Error::other("disk gone"));
                }
                Ok(())
            }
            fn sync(&mut self) -> io::Result<()> {
                Ok(())
            }
            fn len(&self) -> u64 {
                0
            }
        }
        let mut w = WalWriter::new(Box::new(FailingAppend(0)), FsyncPolicy::Always).unwrap();
        w.append(&WalRecord::Begin(TxnId(0))).unwrap();
        assert!(w.batch_end().is_err());
        assert!(w.broken);
        assert!(w.append(&WalRecord::Begin(TxnId(1))).is_err());
        assert!(w.sync().is_err(), "a broken log refuses every later verb");
    }
}
