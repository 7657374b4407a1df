//! The append side: [`WalWriter`] frames records onto a [`Storage`]
//! backend under a configurable [`FsyncPolicy`].
//!
//! The writer's contract is **ack-after-barrier**, not barrier-per-record.
//! [`WalWriter::append`] only encodes the record into the writer's batch
//! buffer — it touches no storage and makes nothing durable.
//! [`WalWriter::batch_end`] hands the buffered frames to [`Storage`] in
//! **one** `append` and then issues the policy's durability barrier: under
//! `Always` one [`Storage::sync`] whenever anything is unsynced, under the
//! deferred policies (`EveryN`, `Interval`) only once their threshold is
//! due, under `Never` none. The admission core calls `append` per
//! state-changing command and `batch_end` once per drained queue batch,
//! holding every acknowledgment of the batch until `batch_end` returns —
//! classic group commit: a batch of b commands costs one write and one
//! barrier instead of b of each, and under `Always` no acknowledgment
//! ever leaves the core before a barrier that covers its record, which is
//! what makes "zero acknowledged commits lost" provable in the
//! crash-point sweep.
//!
//! Callers outside the core that want a record on storage must end the
//! batch themselves: [`WalWriter::batch_end`] (policy barrier),
//! [`WalWriter::sync`] or [`WalWriter::close`] (forced barrier).

use crate::record::{WalRecord, MAGIC};
use crate::storage::Storage;
use std::io;
use std::time::{Duration, Instant};

/// When the writer issues a durability barrier ([`Storage::sync`]).
/// Every policy is checked at batch boundaries ([`WalWriter::batch_end`])
/// only — never inside [`WalWriter::append`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// One barrier per batch that appended anything, issued before any
    /// acknowledgment of that batch is released. No acknowledged work is
    /// ever lost.
    Always,
    /// Sync once at least `n` records have accumulated since the last
    /// barrier.
    EveryN(u64),
    /// Sync when at least this long has passed since the last barrier.
    Interval(Duration),
    /// Never sync mid-run; only a clean [`WalWriter::close`] syncs. A
    /// crash may lose everything since the start of the run.
    Never,
}

/// Append-side counters, surfaced through the server metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended (frames + file header).
    pub bytes: u64,
    /// Durability barriers issued.
    pub syncs: u64,
    /// [`Storage::append`] calls issued (the file header plus one per
    /// non-empty batch).
    pub appends: u64,
}

/// Frames [`WalRecord`]s onto a storage backend; see the module docs.
pub struct WalWriter {
    storage: Box<dyn Storage>,
    policy: FsyncPolicy,
    /// The current batch's encoded frames, not yet handed to storage.
    batch: Vec<u8>,
    /// Records appended since the last barrier (buffered or written).
    unsynced: u64,
    last_sync: Instant,
    stats: WalStats,
    sync_ns: Vec<u64>,
    broken: bool,
}

impl WalWriter {
    /// Starts a fresh log on `storage`: writes the file header (and, under
    /// [`FsyncPolicy::Always`], makes it durable immediately).
    pub fn new(mut storage: Box<dyn Storage>, policy: FsyncPolicy) -> io::Result<WalWriter> {
        storage.append(MAGIC)?;
        let mut w = WalWriter::resume(storage, policy);
        w.stats.bytes = MAGIC.len() as u64;
        w.stats.appends = 1;
        if policy == FsyncPolicy::Always {
            w.sync_now()?;
        }
        Ok(w)
    }

    /// Resumes appending to an existing log whose header is already on
    /// `storage` (the reopen-after-recovery path: the caller truncates the
    /// file to the scanner's `valid_bytes` first, then resumes). Writes
    /// nothing; the byte counter continues from `storage.len()`.
    pub fn resume(storage: Box<dyn Storage>, policy: FsyncPolicy) -> WalWriter {
        let bytes = storage.len();
        WalWriter {
            storage,
            policy,
            batch: Vec::with_capacity(4096),
            unsynced: 0,
            last_sync: Instant::now(),
            stats: WalStats {
                bytes,
                ..WalStats::default()
            },
            sync_ns: Vec::new(),
            broken: false,
        }
    }

    /// The writer's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Encodes one record into the current batch. Nothing reaches storage
    /// and nothing is durable until the batch ends ([`WalWriter::batch_end`],
    /// [`WalWriter::sync`] or [`WalWriter::close`]) — under every policy.
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
        Ok(())
    }

    /// Ends the batch: hands the buffered frames to storage in one
    /// [`Storage::append`], then issues one barrier if the policy says one
    /// is due. A batch that appended nothing (and owes no deferred
    /// barrier) costs nothing. On `Ok` under [`FsyncPolicy::Always`],
    /// every record appended so far is durable.
    ///
    /// The admission core calls this once per drained queue batch *and*
    /// on its idle tick, so an `Interval` policy cannot strand written
    /// records unsynced while the queue sits empty.
    ///
    /// Any error marks the writer broken: the log tail is in an unknown
    /// state, so the caller must fail-stop (crash the core) and let
    /// recovery truncate at the damage.
    pub fn batch_end(&mut self) -> io::Result<()> {
        self.flush()?;
        let due = match self.policy {
            FsyncPolicy::Always => self.unsynced > 0,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Interval(d) => self.unsynced > 0 && self.last_sync.elapsed() >= d,
            FsyncPolicy::Never => false,
        };
        if due {
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

    /// Has a storage error poisoned the writer?
    pub fn is_broken(&self) -> bool {
        self.broken
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
        self.last_sync = Instant::now();
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
    use relser_core::ids::TxnId;

    #[test]
    fn always_policy_pays_one_write_and_one_barrier_per_batch() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let after_header = w.stats();
        assert_eq!((after_header.syncs, after_header.appends), (1, 1));
        for t in 0..5 {
            w.append(&WalRecord::Begin(TxnId(t))).unwrap();
        }
        w.batch_end().unwrap();
        let s = w.stats();
        assert_eq!(s.records, 5);
        assert_eq!(s.syncs - after_header.syncs, 1, "one barrier per batch");
        assert_eq!(s.appends - after_header.appends, 1, "one storage append");
        assert_eq!(s.bytes as usize, handle.bytes().len());
        assert_eq!(
            handle.synced_len(),
            handle.bytes().len(),
            "everything appended is durable once the batch ended"
        );
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
            assert_eq!(handle.synced_len(), handle.bytes().len(), "{policy:?}");
            w.append(&WalRecord::Commit(TxnId(0))).unwrap();
            w.close().unwrap();
            assert_eq!(handle.synced_len(), handle.bytes().len(), "{policy:?}");
            assert_eq!(crate::scan(&handle.synced_bytes()).records.len(), 2);
        }
    }

    #[test]
    fn every_n_defers_to_the_threshold() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::EveryN(3)).unwrap();
        w.append(&WalRecord::Begin(TxnId(0))).unwrap();
        w.append(&WalRecord::Begin(TxnId(1))).unwrap();
        w.batch_end().unwrap();
        assert_eq!(handle.synced_len(), 0, "below threshold: nothing durable");
        w.append(&WalRecord::Begin(TxnId(2))).unwrap();
        assert_eq!(
            handle.synced_len(),
            0,
            "the threshold is checked at batch end"
        );
        w.batch_end().unwrap();
        assert_eq!(handle.synced_len(), handle.bytes().len(), "threshold hit");
    }

    #[test]
    fn never_policy_only_syncs_on_close() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Never).unwrap();
        w.append(&WalRecord::Begin(TxnId(0))).unwrap();
        w.batch_end().unwrap();
        assert_eq!(handle.synced_len(), 0);
        w.close().unwrap();
        assert_eq!(handle.synced_len(), handle.bytes().len());
    }

    #[test]
    fn interval_policy_syncs_on_an_idle_batch_end_once_due() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(
            Box::new(mem),
            FsyncPolicy::Interval(Duration::from_millis(5)),
        )
        .unwrap();
        w.append(&WalRecord::Begin(TxnId(0))).unwrap();
        w.batch_end().unwrap();
        assert_eq!(handle.synced_len(), 0, "written, interval not yet due");
        assert!(handle.bytes().len() > MAGIC.len(), "the batch was written");
        std::thread::sleep(Duration::from_millis(6));
        // No new records — the core's idle tick alone must flush a due
        // interval.
        w.batch_end().unwrap();
        assert_eq!(handle.synced_len(), handle.bytes().len());
    }

    #[test]
    fn resume_continues_an_existing_log_without_a_second_header() {
        let (mem, handle) = MemStorage::new();
        let mut w = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        w.append(&WalRecord::Begin(TxnId(0))).unwrap();
        w.close().unwrap();
        let before = handle.bytes();
        let (mut mem2, handle2) = MemStorage::new();
        mem2.append(&before).unwrap();
        let mut w2 = WalWriter::resume(Box::new(mem2), FsyncPolicy::Always);
        w2.append(&WalRecord::Commit(TxnId(0))).unwrap();
        w2.batch_end().unwrap();
        let bytes = handle2.bytes();
        let scan = crate::scan(&bytes);
        assert_eq!(scan.truncation, None);
        assert_eq!(
            scan.records,
            vec![WalRecord::Begin(TxnId(0)), WalRecord::Commit(TxnId(0))]
        );
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
        assert!(w.is_broken());
        assert!(w.append(&WalRecord::Begin(TxnId(1))).is_err());
        assert!(w.sync().is_err(), "a broken log refuses every later verb");
    }
}
