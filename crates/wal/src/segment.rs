//! Segmented log with checkpoint-gated compaction — the one log shape.
//!
//! A single append-only file grows without bound — recovery time and disk
//! usage scale with *history length*, not live state. [`SegmentedWal`]
//! bounds both: the log is a sequence of numbered segments, **every
//! segment opens with a [`Checkpoint`] record** snapshotting the core's
//! live state at rotation time, and once that checkpoint is durable every
//! older segment is deleted. Recovery therefore reads exactly one
//! segment: seed from its head checkpoint, replay its suffix. A log that
//! never rotates ([`CheckpointPolicy::never`]) is the one-segment row of
//! the same shape: segment 0, headed by an empty checkpoint.
//!
//! The rotation order is what makes crashes safe at every point:
//!
//! 1. end the current segment's batch with a forced sync (its
//!    acknowledged tail is durable);
//! 2. create segment `seq+1` and sync the directory (its entry is now
//!    durable), write header + checkpoint, **force sync**;
//! 3. only now delete segments `< seq+1`, syncing the directory after
//!    each unlink.
//!
//! A crash before step 3 leaves both generations on disk; recovery picks
//! the highest-numbered segment whose head checkpoint scans valid and
//! falls back to the previous one otherwise. A crash after step 3 leaves
//! exactly the new segment, whose checkpoint is durable by step 2.

use crate::commit_log::CommitLog;
use crate::record::{Checkpoint, WalRecord, FRAME_OVERHEAD, MAX_PAYLOAD};
use crate::storage::{FileStorage, MemHandle, MemStorage, Storage};
use crate::writer::{FsyncPolicy, WalStats, WalWriter};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Where segments live: a factory for numbered [`Storage`] backends plus
/// the ability to delete a retired segment.
pub trait SegmentStore: Send {
    /// Creates (or truncates) the storage for segment `seq`.
    fn create(&mut self, seq: u64) -> io::Result<Box<dyn Storage>>;

    /// Deletes segment `seq`. Only called for segments wholly before the
    /// last durable checkpoint.
    fn delete(&mut self, seq: u64) -> io::Result<()>;
}

/// Segments as files `wal-{seq:08}.log` in one directory.
pub struct DirSegmentStore {
    dir: PathBuf,
}

impl DirSegmentStore {
    /// Opens (creating if needed) `dir` as a segment directory.
    pub fn new(dir: &Path) -> io::Result<DirSegmentStore> {
        std::fs::create_dir_all(dir)?;
        Ok(DirSegmentStore {
            dir: dir.to_path_buf(),
        })
    }

    /// Makes the directory's entries durable: a segment created or removed
    /// since the last call survives a crash only after this.
    fn sync_dir(&self) -> io::Result<()> {
        std::fs::File::open(&self.dir)?.sync_all()
    }

    /// The file path of segment `seq` under `dir`.
    pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("wal-{seq:08}.log"))
    }

    /// Lists the segments present in `dir`, ascending by sequence number.
    /// Recovery reads the contents of the last one or two of these.
    pub fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
            else {
                continue;
            };
            if let Ok(seq) = stem.parse::<u64>() {
                found.push((seq, entry.path()));
            }
        }
        found.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(found)
    }
}

impl SegmentStore for DirSegmentStore {
    fn create(&mut self, seq: u64) -> io::Result<Box<dyn Storage>> {
        let storage = FileStorage::create(&Self::segment_path(&self.dir, seq))?;
        self.sync_dir()?;
        Ok(Box::new(storage))
    }

    fn delete(&mut self, seq: u64) -> io::Result<()> {
        std::fs::remove_file(Self::segment_path(&self.dir, seq))?;
        self.sync_dir()
    }
}

#[derive(Default)]
struct MemSegs {
    segs: BTreeMap<u64, MemHandle>,
    deleted: u64,
}

/// In-memory segments for tests and the crash-point sweep, with a shared
/// read handle ([`MemSegmentsHandle`]) that observes retained segments
/// after the store has been moved into the core thread.
pub struct MemSegmentStore {
    inner: Arc<Mutex<MemSegs>>,
}

/// Read side of a [`MemSegmentStore`].
#[derive(Clone)]
pub struct MemSegmentsHandle {
    inner: Arc<Mutex<MemSegs>>,
}

impl MemSegmentStore {
    /// An empty segment store plus its read handle.
    pub fn new() -> (MemSegmentStore, MemSegmentsHandle) {
        let inner = Arc::new(Mutex::new(MemSegs::default()));
        (
            MemSegmentStore {
                inner: Arc::clone(&inner),
            },
            MemSegmentsHandle { inner },
        )
    }
}

impl SegmentStore for MemSegmentStore {
    fn create(&mut self, seq: u64) -> io::Result<Box<dyn Storage>> {
        let (storage, handle) = MemStorage::new();
        self.inner
            .lock()
            .expect("segment lock")
            .segs
            .insert(seq, handle);
        Ok(Box::new(storage))
    }

    fn delete(&mut self, seq: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("segment lock");
        inner.segs.remove(&seq);
        inner.deleted += 1;
        Ok(())
    }
}

impl MemSegmentsHandle {
    /// A fresh write handle over the same shared segment map — used when
    /// a supervised core resumes logging into the store it just
    /// recovered from (the original [`MemSegmentStore`] died with the
    /// crashed core thread).
    pub fn store(&self) -> MemSegmentStore {
        MemSegmentStore {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The retained segments' full contents (durable or not), ascending.
    pub fn segments(&self) -> Vec<(u64, Vec<u8>)> {
        let inner = self.inner.lock().expect("segment lock");
        inner.segs.iter().map(|(&s, h)| (s, h.bytes())).collect()
    }

    /// The retained segments' durable prefixes (what a crash right now
    /// would preserve), ascending.
    pub fn synced_segments(&self) -> Vec<(u64, Vec<u8>)> {
        let inner = self.inner.lock().expect("segment lock");
        inner
            .segs
            .iter()
            .map(|(&s, h)| (s, h.synced_bytes()))
            .collect()
    }

    /// Segments currently retained.
    pub fn segment_count(&self) -> usize {
        self.inner.lock().expect("segment lock").segs.len()
    }

    /// Segments deleted by compaction so far.
    pub fn deleted(&self) -> u64 {
        self.inner.lock().expect("segment lock").deleted
    }

    /// Bytes retained across all segments — the quantity the soak test
    /// asserts is bounded by live state, not history length.
    pub fn retained_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("segment lock");
        inner.segs.values().map(|h| h.bytes().len()).sum()
    }
}

/// When the core should cut a checkpoint and rotate segments. A
/// checkpoint is due once *either* threshold of post-checkpoint suffix
/// has accumulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Rotate after this many records since the last checkpoint.
    pub every_records: u64,
    /// Rotate after this many suffix bytes since the last checkpoint.
    pub every_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_records: 1024,
            every_bytes: 64 * 1024,
        }
    }
}

impl CheckpointPolicy {
    /// Never checkpoint: the log stays one segment, its whole history.
    pub fn never() -> Self {
        CheckpointPolicy {
            every_records: u64::MAX,
            every_bytes: u64::MAX,
        }
    }
}

/// Counters specific to the segmented log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Checkpoints installed (each one is a rotation).
    pub checkpoints: u64,
    /// Segments deleted after their state was covered by a checkpoint.
    pub segments_deleted: u64,
    /// The current (highest) segment sequence number.
    pub current_seq: u64,
}

/// A [`CommitLog`] over numbered segments; see the module docs.
pub struct SegmentedWal {
    store: Box<dyn SegmentStore>,
    writer: WalWriter,
    policy: FsyncPolicy,
    ckpt: CheckpointPolicy,
    seq: u64,
    oldest: u64,
    since_records: u64,
    since_bytes: u64,
    sealed: WalStats,
    /// Barrier timings harvested from sealed segments' writers at
    /// rotation, so [`CommitLog::take_sync_ns`] loses nothing when the
    /// inner writer is replaced.
    sealed_sync_ns: Vec<u64>,
    seg_stats: SegmentStats,
    broken: bool,
}

impl SegmentedWal {
    /// Opens segment 0 with an empty head checkpoint — the invariant that
    /// *every* segment starts with `MAGIC` + a checkpoint record holds
    /// from birth. This is [`SegmentedWal::resume`] with nothing recovered
    /// and nothing to delete.
    pub fn new(
        store: Box<dyn SegmentStore>,
        policy: FsyncPolicy,
        ckpt: CheckpointPolicy,
    ) -> io::Result<SegmentedWal> {
        SegmentedWal::resume(store, policy, ckpt, Checkpoint::default(), 0, &[])
    }

    /// Re-opens the log after in-place recovery: a fresh segment
    /// `next_seq` headed by `head` (the recovered live state), forced
    /// durable, after which every segment listed in `prior` is deleted —
    /// the same durability-before-deletion order as
    /// [`CommitLog::install_checkpoint`], so a crash mid-resume leaves
    /// both generations on disk and recovery prefers the newest segment
    /// whose head checkpoint scans valid.
    pub fn resume(
        mut store: Box<dyn SegmentStore>,
        policy: FsyncPolicy,
        ckpt: CheckpointPolicy,
        head: Checkpoint,
        next_seq: u64,
        prior: &[u64],
    ) -> io::Result<SegmentedWal> {
        let storage = store.create(next_seq)?;
        let mut writer = WalWriter::new(storage, policy)?;
        writer.append(&WalRecord::Checkpoint(head))?;
        writer.sync()?;
        let mut seg_stats = SegmentStats {
            checkpoints: 0,
            segments_deleted: 0,
            current_seq: next_seq,
        };
        for &s in prior {
            if s >= next_seq {
                continue;
            }
            store.delete(s)?;
            seg_stats.segments_deleted += 1;
        }
        Ok(SegmentedWal {
            store,
            writer,
            policy,
            ckpt,
            seq: next_seq,
            oldest: next_seq,
            since_records: 0,
            since_bytes: 0,
            sealed: WalStats::default(),
            sealed_sync_ns: Vec::new(),
            seg_stats,
            broken: false,
        })
    }

    /// Segment-level counters.
    pub fn segment_stats(&self) -> SegmentStats {
        self.seg_stats
    }

    fn check_broken(&self) -> io::Result<()> {
        if self.broken {
            Err(io::Error::other(
                "segmented log is broken (earlier rotation error)",
            ))
        } else {
            Ok(())
        }
    }

    /// Rotates to a fresh segment headed by the checkpoint record `head`,
    /// then deletes every older segment. See the module docs for why this
    /// order is safe at every crash point.
    fn rotate(&mut self, head: &WalRecord) -> io::Result<()> {
        self.check_broken()?;
        // 1. Seal the outgoing segment: its acknowledged tail is durable.
        self.writer.sync()?;
        let new_seq = self.seq + 1;
        // 2. New segment: header + checkpoint, forced durable before any
        //    deletion may happen.
        let result = (|| -> io::Result<WalWriter> {
            let storage = self.store.create(new_seq)?;
            let mut w = WalWriter::new(storage, self.policy)?;
            w.append(head)?;
            w.sync()?;
            Ok(w)
        })();
        let new_writer = match result {
            Ok(w) => w,
            Err(e) => {
                self.broken = true;
                return Err(e);
            }
        };
        let mut old = std::mem::replace(&mut self.writer, new_writer);
        let old_stats = old.stats();
        self.sealed.records += old_stats.records;
        self.sealed.bytes += old_stats.bytes;
        self.sealed.syncs += old_stats.syncs;
        self.sealed.appends += old_stats.appends;
        self.sealed_sync_ns.append(&mut old.take_sync_ns());
        self.seq = new_seq;
        // 3. The checkpoint is durable: everything before it is garbage.
        for s in self.oldest..new_seq {
            if let Err(e) = self.store.delete(s) {
                self.broken = true;
                return Err(e);
            }
            self.seg_stats.segments_deleted += 1;
        }
        self.oldest = new_seq;
        self.since_records = 0;
        self.since_bytes = 0;
        self.seg_stats.checkpoints += 1;
        self.seg_stats.current_seq = new_seq;
        Ok(())
    }
}

impl CommitLog for SegmentedWal {
    fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.check_broken()?;
        self.writer.append(rec)?;
        self.since_records += 1;
        self.since_bytes += rec.frame_len() as u64;
        Ok(())
    }

    fn batch_end(&mut self) -> io::Result<()> {
        self.check_broken()?;
        self.writer.batch_end()
    }

    fn close(&mut self) -> io::Result<()> {
        self.check_broken()?;
        self.writer.close()
    }

    fn stats(&self) -> WalStats {
        let cur = self.writer.stats();
        WalStats {
            records: self.sealed.records + cur.records,
            bytes: self.sealed.bytes + cur.bytes,
            syncs: self.sealed.syncs + cur.syncs,
            appends: self.sealed.appends + cur.appends,
        }
    }

    fn take_sync_ns(&mut self) -> Vec<u64> {
        let mut all = std::mem::take(&mut self.sealed_sync_ns);
        all.append(&mut self.writer.take_sync_ns());
        all
    }

    fn checkpoint_due(&self) -> bool {
        !self.broken
            && (self.since_records >= self.ckpt.every_records
                || self.since_bytes >= self.ckpt.every_bytes)
    }

    fn install_checkpoint(&mut self, cp: Checkpoint) -> io::Result<bool> {
        // A snapshot too large to frame cannot head a segment. Skip the
        // rotation — the log keeps its whole history, which is correct,
        // just not compacted — and restart the cadence so the core does
        // not rebuild the same oversized snapshot after every batch.
        let head = WalRecord::Checkpoint(cp);
        if head.frame_len() - FRAME_OVERHEAD > MAX_PAYLOAD as usize {
            self.since_records = 0;
            self.since_bytes = 0;
            return Ok(false);
        }
        self.rotate(&head).map(|()| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;
    use relser_core::ids::TxnId;

    fn seg(policy: CheckpointPolicy) -> (SegmentedWal, MemSegmentsHandle) {
        let (store, handle) = MemSegmentStore::new();
        let wal = SegmentedWal::new(Box::new(store), FsyncPolicy::Always, policy).unwrap();
        (wal, handle)
    }

    #[test]
    fn every_segment_opens_with_a_checkpoint() {
        let (mut wal, handle) = seg(CheckpointPolicy::never());
        wal.append(&WalRecord::Begin(TxnId(0))).unwrap();
        wal.install_checkpoint(Checkpoint {
            shard: 0,
            committed: vec![],
            events: vec![crate::record::CheckpointEvent::Begin(TxnId(0))],
            sessions: vec![],
        })
        .unwrap();
        for (_, bytes) in handle.segments() {
            let s = scan(&bytes);
            assert_eq!(s.truncation, None);
            assert!(
                matches!(s.records.first(), Some(WalRecord::Checkpoint(_))),
                "segment head must be a checkpoint"
            );
        }
    }

    #[test]
    fn rotation_deletes_older_segments_only_after_the_checkpoint_is_durable() {
        let (mut wal, handle) = seg(CheckpointPolicy::never());
        for t in 0..4 {
            wal.append(&WalRecord::Begin(TxnId(t))).unwrap();
            wal.append(&WalRecord::Commit(TxnId(t))).unwrap();
        }
        assert_eq!(handle.segment_count(), 1);
        wal.install_checkpoint(Checkpoint {
            shard: 0,
            committed: (0..4).map(TxnId).collect(),
            events: vec![],
            sessions: vec![],
        })
        .unwrap();
        assert_eq!(handle.segment_count(), 1, "old segment deleted");
        assert_eq!(handle.deleted(), 1);
        let segs = handle.synced_segments();
        assert_eq!(segs[0].0, 1, "survivor is the new segment");
        let s = scan(&segs[0].1);
        assert_eq!(s.records.len(), 1);
        let WalRecord::Checkpoint(cp) = &s.records[0] else {
            panic!("head record is the checkpoint");
        };
        assert_eq!(cp.committed.len(), 4);
        assert_eq!(
            s.valid_bytes,
            segs[0].1.len(),
            "checkpoint was forced durable at rotation"
        );
    }

    #[test]
    fn checkpoint_due_tracks_the_suffix_not_the_history() {
        let (mut wal, _handle) = seg(CheckpointPolicy {
            every_records: 3,
            every_bytes: u64::MAX,
        });
        assert!(!wal.checkpoint_due());
        for t in 0..3 {
            wal.append(&WalRecord::Begin(TxnId(t))).unwrap();
        }
        assert!(wal.checkpoint_due());
        assert!(wal.install_checkpoint(Checkpoint::default()).unwrap());
        assert!(!wal.checkpoint_due(), "rotation resets the suffix counters");
        assert_eq!(wal.segment_stats().checkpoints, 1);
    }

    #[test]
    fn unframeable_checkpoint_skips_the_rotation_and_restarts_the_cadence() {
        let (mut wal, handle) = seg(CheckpointPolicy {
            every_records: 1,
            every_bytes: u64::MAX,
        });
        wal.append(&WalRecord::Begin(TxnId(0))).unwrap();
        wal.batch_end().unwrap();
        assert!(wal.checkpoint_due());
        let rotated = wal
            .install_checkpoint(Checkpoint {
                committed: (0..=(MAX_PAYLOAD / 4)).map(TxnId).collect(),
                ..Checkpoint::default()
            })
            .unwrap();
        assert!(!rotated, "the skip is reported");
        assert!(!wal.checkpoint_due(), "cadence restarted");
        assert_eq!(wal.segment_stats().checkpoints, 0, "no rotation happened");
        wal.append(&WalRecord::Commit(TxnId(0))).unwrap();
        wal.close().unwrap();
        let segs = handle.synced_segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(
            scan(&segs[0].1).records.len(),
            3,
            "the log kept its history"
        );
    }

    #[test]
    fn retained_bytes_stay_bounded_under_rotation() {
        let (mut wal, handle) = seg(CheckpointPolicy {
            every_records: 8,
            every_bytes: u64::MAX,
        });
        let mut peak = 0usize;
        for round in 0..20u32 {
            for t in 0..8 {
                wal.append(&WalRecord::Begin(TxnId(t))).unwrap();
                wal.append(&WalRecord::Commit(TxnId(t))).unwrap();
            }
            if wal.checkpoint_due() {
                wal.install_checkpoint(Checkpoint::default()).unwrap();
            }
            peak = peak.max(handle.retained_bytes());
            let _ = round;
        }
        assert!(wal.segment_stats().checkpoints >= 10);
        // 16 appended records per round, rotation after ≥ 8: the retained
        // log never holds more than ~2 rounds of suffix + one checkpoint.
        assert!(
            peak < 16 * 13 * 4,
            "retained bytes {peak} grew with history"
        );
        assert!(wal.stats().records > 300, "total history kept flowing");
    }

    #[test]
    fn resume_opens_a_fresh_segment_and_retires_the_old_generation() {
        // First incarnation: two segments' worth of history, then the
        // core "dies" (the wal is simply dropped).
        let (mut wal, handle) = seg(CheckpointPolicy::never());
        wal.append(&WalRecord::Begin(TxnId(0))).unwrap();
        wal.append(&WalRecord::Commit(TxnId(0))).unwrap();
        drop(wal);
        let prior: Vec<u64> = handle.segments().iter().map(|&(s, _)| s).collect();
        assert_eq!(prior, vec![0]);

        // Second incarnation resumes into the same store with a head
        // checkpoint summarizing the recovered state.
        let head = Checkpoint {
            shard: 0,
            committed: vec![TxnId(0)],
            events: vec![],
            sessions: vec![],
        };
        let mut wal = SegmentedWal::resume(
            Box::new(handle.store()),
            FsyncPolicy::Always,
            CheckpointPolicy::never(),
            head,
            1,
            &prior,
        )
        .unwrap();
        wal.append(&WalRecord::Begin(TxnId(1))).unwrap();
        wal.append(&WalRecord::Commit(TxnId(1))).unwrap();
        wal.close().unwrap();

        let segs = handle.synced_segments();
        assert_eq!(segs.len(), 1, "old generation deleted after resume");
        assert_eq!(segs[0].0, 1);
        let s = scan(&segs[0].1);
        assert_eq!(s.truncation, None);
        let WalRecord::Checkpoint(cp) = &s.records[0] else {
            panic!("resumed segment opens with the recovery checkpoint");
        };
        assert_eq!(cp.committed, vec![TxnId(0)]);
        assert_eq!(s.records.len(), 3);
        // A further rotation from the resumed log only touches its own
        // generation (oldest was advanced past the deleted segments).
        wal.install_checkpoint(Checkpoint::default()).unwrap();
        assert_eq!(wal.segment_stats().current_seq, 2);
        assert_eq!(handle.segment_count(), 1);
    }

    #[test]
    fn dir_segment_store_round_trips_and_lists() {
        let dir = std::env::temp_dir().join("relser_wal_segment_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirSegmentStore::new(&dir).unwrap();
        let mut wal = SegmentedWal::new(
            Box::new(store),
            FsyncPolicy::Always,
            CheckpointPolicy::never(),
        )
        .unwrap();
        wal.append(&WalRecord::Begin(TxnId(0))).unwrap();
        wal.install_checkpoint(Checkpoint::default()).unwrap();
        wal.append(&WalRecord::Begin(TxnId(1))).unwrap();
        wal.close().unwrap();
        let listed = DirSegmentStore::list(&dir).unwrap();
        assert_eq!(listed.len(), 1, "segment 0 was deleted at rotation");
        assert_eq!(listed[0].0, 1);
        let bytes = std::fs::read(&listed[0].1).unwrap();
        let s = scan(&bytes);
        assert_eq!(s.truncation, None);
        assert_eq!(s.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
