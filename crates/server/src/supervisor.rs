//! Live shard-core supervision: a crashed shard core recovers **in
//! place**, without a process restart.
//!
//! Each shard core runs inside [`supervise_shard`]'s restart loop, under
//! a panic boundary (`catch_unwind`). When an incarnation dies — a
//! fail-stop WAL error, a planned crash fault, or a real panic — the
//! supervisor:
//!
//! 1. marks the shard **recovering** ([`ShardHealth`]); the front-end
//!    answers requests routed here with a typed retryable verdict while
//!    every other shard keeps serving;
//! 2. fences producers (the queue is closed) and unwinds every command
//!    still in flight so no session hangs on a reply;
//! 3. replays the shard's WAL segment stream through the standard
//!    recovery machinery
//!    ([`crate::recovery::recover_segments_with_certifier`]),
//!    re-certifying the committed history — a fresh scheduler *is* the
//!    recovered one, and the next incarnation's;
//! 4. re-seeds the client-session retry table ([`SessionTable`]) from
//!    the recovered entries, so exactly-once commit retries survive the
//!    crash;
//! 5. reopens the queue and runs the next incarnation on the log that
//!    [`recover_and_resume`] resumed with a head checkpoint covering the
//!    recovered state. Steps 3 and 5 are that one call, the only way any
//!    log is opened, on any [`relser_wal::ReadableSegmentStore`].
//!
//! Crash-orphaned incarnations are dropped by recovery (step 3) and
//! their clients retry from `begin`; durably-committed transactions are
//! seeded into the new incarnation's commit-supremacy set so a late
//! retry or stale abort can never contradict an acknowledged commit.

use crate::core::{
    drain_after_crash, run_core, Command, CoreCfg, CoreOutput, FaultPlan, Progress, ShardCoreCtx,
};
use crate::queue::BoundedQueue;
use crate::recovery::{recover_segments_with_certifier, Certifier, Recovery, RecoveryError};
use relser_core::ids::TxnId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::Scheduler;
use relser_wal::{
    Checkpoint, CheckpointPolicy, FsyncPolicy, ReadableSegmentStore, SegmentedWal, SessionEntry,
};
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// The durable client-session retry table, shared between the shard
/// cores (writers, at commit time) and the wire front-end (readers, on
/// retried commits).
///
/// One entry per session id: the newest acknowledged commit's `req_id`
/// and transaction. The table is volatile; durability comes from the
/// [`relser_wal::WalRecord::CommitSession`] frame every entry rides in
/// and the checkpoint snapshots that carry it across segment rotation —
/// recovery rebuilds the table from those and re-seeds it here.
#[derive(Default)]
pub struct SessionTable {
    inner: Mutex<HashMap<u64, (u64, TxnId)>>,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> SessionTable {
        SessionTable::default()
    }

    /// Records `session`'s newest acknowledged commit. Stale updates
    /// (a smaller `req_id` than already recorded) are ignored — replies
    /// can be re-recorded out of order across a recovery.
    pub fn record(&self, session: u64, req_id: u64, txn: TxnId) {
        let mut inner = self.inner.lock().expect("session lock");
        match inner.get_mut(&session) {
            Some(e) if e.0 > req_id => {}
            Some(e) => *e = (req_id, txn),
            None => {
                inner.insert(session, (req_id, txn));
            }
        }
    }

    /// The newest acknowledged `(req_id, txn)` for `session`, if any.
    pub fn lookup(&self, session: u64) -> Option<(u64, TxnId)> {
        self.inner
            .lock()
            .expect("session lock")
            .get(&session)
            .copied()
    }

    /// A point-in-time copy, for checkpoint snapshots. Sorted by session
    /// id so snapshots are deterministic.
    pub fn snapshot(&self) -> Vec<SessionEntry> {
        let inner = self.inner.lock().expect("session lock");
        let mut out: Vec<SessionEntry> = inner
            .iter()
            .map(|(&session, &(req_id, txn))| SessionEntry {
                session,
                req_id,
                txn,
            })
            .collect();
        out.sort_by_key(|e| e.session);
        out
    }

    /// Re-seeds the table from recovered entries (newest-wins, like
    /// [`SessionTable::record`]).
    pub fn seed(&self, entries: &[SessionEntry]) {
        for e in entries {
            self.record(e.session, e.req_id, e.txn);
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("session lock").len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

const STATUS_LIVE: u8 = 0;
const STATUS_RECOVERING: u8 = 1;
const STATUS_FAILED: u8 = 2;

/// One shard's liveness, shared lock-free with the front-end: reactors
/// consult it to answer requests for a degraded shard with a typed
/// retryable verdict instead of an error.
#[derive(Default)]
pub struct ShardHealth {
    status: AtomicU8,
    restarts: AtomicU64,
    panics: AtomicU64,
}

impl ShardHealth {
    /// A live shard.
    pub fn new() -> ShardHealth {
        ShardHealth::default()
    }

    /// Is the shard serving?
    pub fn is_live(&self) -> bool {
        self.status.load(Ordering::Acquire) == STATUS_LIVE
    }

    /// Is the shard mid-recovery (requests should be answered
    /// `Recovering` and retried)?
    pub fn is_recovering(&self) -> bool {
        self.status.load(Ordering::Acquire) == STATUS_RECOVERING
    }

    /// Has the supervisor given up on this shard (restart budget
    /// exhausted)? Requests fail with a terminal error.
    pub fn is_failed(&self) -> bool {
        self.status.load(Ordering::Acquire) == STATUS_FAILED
    }

    /// Supervisor restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Incarnations that ended in a panic (vs fail-stop crashes).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    fn set(&self, status: u8) {
        self.status.store(status, Ordering::Release);
    }
}

/// Fences a shard whose `store` a previous service life wrote, before
/// any front end serves it: `queue` is closed and `health` reads
/// recovering until [`supervise_shard`] has recovered the store and
/// seeded the retry table, so requests routed here are answered
/// `Recovering` and retried, as during an in-place restart. Unfenced, a
/// retried commit can reach the core before its entry is seeded and
/// miss the exactly-once fast path. An empty store needs no fence; one
/// that cannot be read is fenced, and its supervisor gives up on it.
pub fn fence_resumed_shard(
    store: &impl ReadableSegmentStore,
    queue: &BoundedQueue<Command>,
    health: &ShardHealth,
) {
    if store.read_segments().map_or(true, |segs| !segs.is_empty()) {
        queue.close();
        health.set(STATUS_RECOVERING);
    }
}

/// Everything [`supervise_shard`] needs beyond the core's own arguments.
/// Every incarnation's log syncs under [`FsyncPolicy::Always`].
pub struct SupervisorCfg<'a> {
    /// The transaction universe (recovery replays against it).
    pub txns: &'a TxnSet,
    /// The atomicity spec (recovery re-certifies against it, with
    /// [`Certifier::VClock`]).
    pub spec: &'a AtomicitySpec,
    /// Checkpoint/rotation policy for every incarnation's log.
    pub ckpt: CheckpointPolicy,
    /// Batch size for the core loop.
    pub batch_max: usize,
    /// Record replayable traces.
    pub record_trace: bool,
}

/// The restart budget of every supervised shard: after this many restarts
/// the supervisor gives up ([`SupervisedRun::gave_up`]), marks the shard
/// failed and leaves its queue closed. Guards against a deterministic
/// crash-on-recovery loop.
pub const MAX_RESTARTS: u64 = 8;

/// What a supervised shard's whole lifetime produced.
pub struct SupervisedRun {
    /// The final incarnation's output. If that incarnation panicked, a
    /// synthesized `crashed` output (the WAL, not this struct, is the
    /// authoritative record — merge the segment stream through
    /// [`crate::recovery::recover_sharded_segments_with_certifier`]).
    pub output: CoreOutput,
    /// Restarts performed (0 = the first incarnation ran to completion).
    pub restarts: u64,
    /// Incarnations that ended in a panic.
    pub panics: u64,
    /// The restart budget ran out; the shard was abandoned failed.
    pub gave_up: bool,
}

/// Opens a log, written or empty: the one way to open one. Recovers
/// `store`'s retained segments against `txns` / `spec` (re-certifying
/// the committed history) and resumes the log on a fresh segment
/// (rotating under `ckpt`, syncing under [`FsyncPolicy::Always`]) headed
/// by `shard`'s checkpoint of the recovered state: the committed set and
/// the retry table, and no events, since nothing is live after recovery.
/// Returns that log, whose head ([`relser_wal::CommitLog::head`]) a core
/// on it starts from, the fresh `scheduler` that core must run (recovery
/// calls none of its methods; see [`crate::recovery`], step 3), and the
/// [`Recovery`]. An empty store gets `shard`'s empty checkpoint as
/// segment 0. A store recovery refuses, or one whose head is stamped with
/// another shard's id ([`RecoveryError::ShardMismatch`]), is left
/// untouched: the error is `InvalidData`, carrying the [`RecoveryError`].
pub fn recover_and_resume<'a, S: ReadableSegmentStore + 'static>(
    store: S,
    mut scheduler: Box<dyn Scheduler + Send + 'a>,
    txns: &TxnSet,
    spec: &AtomicitySpec,
    shard: u32,
    ckpt: CheckpointPolicy,
) -> io::Result<(SegmentedWal, Box<dyn Scheduler + Send + 'a>, Recovery)> {
    let segments = store.read_segments()?;
    let refuse = |e: RecoveryError| io::Error::new(io::ErrorKind::InvalidData, e);
    let (_, rec) =
        recover_segments_with_certifier(txns, spec, &mut *scheduler, &segments, Certifier::VClock)
            .map_err(refuse)?;
    // A store headed by another shard's checkpoint was routed here by
    // mistake: resuming it would re-stamp it as `shard`.
    if let Some(found) = rec.shard.filter(|&found| found != shard) {
        return Err(refuse(RecoveryError::ShardMismatch {
            expected: shard,
            found,
        }));
    }
    let head = Checkpoint {
        shard,
        committed: rec.committed.clone(),
        events: Vec::new(),
        sessions: rec.sessions.clone(),
    };
    let prior: Vec<u64> = segments.iter().map(|&(s, _)| s).collect();
    let wal = SegmentedWal::resume(Box::new(store), FsyncPolicy::Always, ckpt, head, &prior)?;
    Ok((wal, scheduler, rec))
}

/// Runs one shard core under the supervisor's restart loop. Returns when
/// an incarnation completes cleanly (the queue was closed by the server
/// and drained), when `stop` was raised before a restart, or when the
/// restart budget is exhausted.
///
/// A non-empty segment store is **resumed**, not truncated: the first
/// incarnation recovers whatever a previous service life durably
/// committed (acknowledged commits survive a whole-service restart, not
/// just a shard-core crash). The caller fences such a shard with
/// [`fence_resumed_shard`] before its front end starts; the supervisor
/// lifts the fence once the retry table is seeded.
///
/// `make_scheduler` must produce a *fresh* scheduler over the same
/// universe each time it is called; recovery certifies the WAL, and the
/// fresh instance becomes the next incarnation's scheduler.
/// `faults` applies to the first incarnation only — a kill-at-k plan
/// kills once, not once per life.
#[allow(clippy::too_many_arguments)]
pub fn supervise_shard<'a, F, S>(
    mut make_scheduler: F,
    queue: &BoundedQueue<Command>,
    progress: &Progress,
    faults: &FaultPlan,
    store: &S,
    health: &ShardHealth,
    sessions: &SessionTable,
    stop: &AtomicBool,
    shard: u32,
    cfg: &SupervisorCfg<'_>,
) -> SupervisedRun
where
    F: FnMut() -> Box<dyn Scheduler + Send + 'a>,
    S: ReadableSegmentStore + Clone + 'static,
{
    let (mut restarts, mut panics) = (0, 0);
    let default_faults = FaultPlan::default();
    // What the last incarnation left (none has run yet).
    let mut output = CoreOutput {
        crashed: true,
        ..CoreOutput::default()
    };
    let (output, gave_up) = loop {
        // Recover the shard's segments (orphans dropped, committed
        // history re-certified); a fresh scheduler is this incarnation's.
        // A recovery refusal is terminal — restarting cannot mend the
        // log — and its reason is the output's.
        let (txns, spec) = (cfg.txns, cfg.spec);
        let opened =
            recover_and_resume(store.clone(), make_scheduler(), txns, spec, shard, cfg.ckpt);
        let (mut wal, scheduler, rec) = match opened {
            Ok(opened) => opened,
            Err(e) => {
                health.set(STATUS_FAILED);
                output.wal_error = Some(e.to_string());
                break (output, true);
            }
        };
        if wal.segment_stats().current_seq > 0 {
            // The store was written (by an earlier life, or before a
            // restart) and is now seeded: readmit traffic fenced on the
            // closed queue; blocked sessions re-check on the bump. A fresh
            // shard was never fenced, and the server may have closed its
            // queue already.
            sessions.seed(&rec.sessions);
            queue.reopen();
            health.set(STATUS_LIVE);
            progress.bump();
        }
        let plan = if restarts == 0 {
            faults
        } else {
            &default_faults
        };
        let ctx = ShardCoreCtx {
            shard,
            sessions: Some(sessions),
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_core(
                scheduler,
                queue,
                progress,
                CoreCfg {
                    batch_max: cfg.batch_max,
                    record_trace: cfg.record_trace,
                },
                plan,
                Some(&mut wal),
                ctx,
            )
        }));
        output = match result {
            Ok(out) => {
                if !out.crashed {
                    // Clean shutdown: the server closed the queue and the
                    // core drained it. Nothing to supervise.
                    break (out, false);
                }
                out
            }
            Err(_) => {
                // A real panic tore through the core loop: its output is
                // lost and the queue may still be open. Fence producers
                // and unwind whatever is enqueued so no session hangs.
                panics += 1;
                health.panics.fetch_add(1, Ordering::Relaxed);
                queue.close();
                drain_after_crash(Vec::new(), queue, cfg.batch_max.max(1));
                progress.bump();
                CoreOutput {
                    crashed: true,
                    ..CoreOutput::default()
                }
            }
        };
        // The incarnation crashed (fail-stop fault, WAL error, or panic).
        health.set(STATUS_RECOVERING);
        if stop.load(Ordering::Acquire) {
            // The server is shutting down anyway; don't resurrect.
            break (output, false);
        }
        if restarts >= MAX_RESTARTS {
            health.set(STATUS_FAILED);
            break (output, true);
        }
        restarts += 1;
        health.restarts.fetch_add(1, Ordering::Relaxed);
    };
    SupervisedRun {
        output,
        restarts,
        panics,
        gave_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_table_keeps_the_newest_req_id() {
        let t = SessionTable::new();
        assert!(t.is_empty());
        t.record(7, 3, TxnId(0));
        t.record(7, 9, TxnId(1));
        t.record(7, 5, TxnId(2)); // stale: ignored
        assert_eq!(t.lookup(7), Some((9, TxnId(1))));
        assert_eq!(t.lookup(8), None);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].session, 7);
        assert_eq!(snap[0].req_id, 9);
    }

    #[test]
    fn session_table_seed_merges_newest_wins() {
        let t = SessionTable::new();
        t.record(1, 4, TxnId(0));
        t.seed(&[
            SessionEntry {
                session: 1,
                req_id: 2,
                txn: TxnId(9),
            },
            SessionEntry {
                session: 2,
                req_id: 8,
                txn: TxnId(3),
            },
        ]);
        assert_eq!(t.lookup(1), Some((4, TxnId(0))), "stale seed ignored");
        assert_eq!(t.lookup(2), Some((8, TxnId(3))));
    }

    #[test]
    fn shard_health_transitions() {
        let h = ShardHealth::new();
        assert!(h.is_live());
        h.set(STATUS_RECOVERING);
        assert!(h.is_recovering());
        assert!(!h.is_live());
        h.set(STATUS_FAILED);
        assert!(h.is_failed());
        h.set(STATUS_LIVE);
        assert!(h.is_live());
        assert_eq!(h.restarts(), 0);
    }
}
