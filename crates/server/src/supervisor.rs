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
//!    re-certifying the committed history —
//!    the recovered scheduler *is* the next incarnation's scheduler;
//! 4. re-seeds the client-session retry table ([`SessionTable`]) from
//!    the recovered entries, so exactly-once commit retries survive the
//!    crash;
//! 5. resumes the segmented log ([`relser_wal::SegmentedWal::resume`])
//!    with a head checkpoint covering the recovered state, reopens the
//!    queue, and runs the next incarnation.
//!
//! Crash-orphaned incarnations are rolled back by recovery (step 3) and
//! their clients retry from `begin`; durably-committed transactions are
//! seeded into the new incarnation's commit-supremacy set so a late
//! retry or stale abort can never contradict an acknowledged commit.

use crate::core::{
    drain_after_crash, event_txn, run_core, Command, CoreCfg, CoreOutput, FaultPlan, Progress,
    ShardCoreCtx, TraceEvent,
};
use crate::queue::BoundedQueue;
use crate::recovery::{recover_segments_with_certifier, Certifier};
use relser_core::ids::TxnId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::{Decision, Scheduler};
use relser_wal::{
    Checkpoint, CheckpointEvent, CheckpointPolicy, FsyncPolicy, MemSegmentsHandle, SegmentedWal,
    SessionEntry,
};
use std::collections::{HashMap, HashSet};
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

/// Everything [`supervise_shard`] needs beyond the core's own arguments.
pub struct SupervisorCfg<'a> {
    /// The transaction universe (recovery replays against it).
    pub txns: &'a TxnSet,
    /// The atomicity spec (recovery re-certifies against it, with
    /// [`Certifier::VClock`]).
    pub spec: &'a AtomicitySpec,
    /// Fsync policy for every incarnation's log.
    pub fsync: FsyncPolicy,
    /// Checkpoint/rotation policy for every incarnation's log.
    pub ckpt: CheckpointPolicy,
    /// Batch size for the core loop.
    pub batch_max: usize,
    /// Record replayable traces.
    pub record_trace: bool,
    /// Give up after this many restarts (the shard is marked failed and
    /// its queue stays closed). Guards against a deterministic
    /// crash-on-recovery loop.
    pub max_restarts: u64,
}

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

/// Replays `store`'s retained segment stream into `scheduler` and
/// resumes the segmented log on top of it: the head checkpoint carries
/// the recovered committed set, the condensed Begin/Grant/Commit events
/// of every committed transaction (so a future recovery rebuilds their
/// complete op sets — sharded merge demotes a committed transaction
/// whose ops went missing), and the rebuilt client-session retry table.
/// Returns the resumed log plus that head: it is exactly the state the
/// next incarnation starts from.
fn recover_and_resume(
    scheduler: &mut dyn Scheduler,
    store: &MemSegmentsHandle,
    shard: u32,
    cfg: &SupervisorCfg<'_>,
) -> Result<(SegmentedWal, Checkpoint), ()> {
    let segments = store.segments();
    let (_, rec) = recover_segments_with_certifier(
        cfg.txns,
        cfg.spec,
        scheduler,
        &segments,
        Certifier::VClock,
    )
    .map_err(|_| ())?;
    // The head must condense the full Begin/Grant/Commit stream of
    // *every* committed transaction — not just the unretired ones.
    // Sharded recovery demotes a committed transaction to `partial`
    // when its complete op set is missing from the shard logs, so
    // pruning retired commits here would turn a resume into
    // acknowledged-commit loss at the final merge.
    // An incarnation the log later aborted is not part of that stream —
    // a transaction that restarted before it committed contributes its
    // committing incarnation only.
    let mut events: Vec<CheckpointEvent> = Vec::new();
    for ev in &rec.trace {
        match ev {
            TraceEvent::Begin(t) => events.push(CheckpointEvent::Begin(*t)),
            TraceEvent::Decision(op, Decision::Granted) => events.push(CheckpointEvent::Grant(*op)),
            TraceEvent::Commit(t) => events.push(CheckpointEvent::Commit(*t)),
            TraceEvent::Abort(t) => events.retain(|e| event_txn(e) != *t),
            _ => {}
        }
    }
    let keep: HashSet<TxnId> = rec.committed.iter().copied().collect();
    events.retain(|e| keep.contains(&event_txn(e)));
    let head = Checkpoint {
        shard,
        committed: rec.committed,
        events,
        sessions: rec.sessions,
    };
    let prior: Vec<u64> = segments.iter().map(|&(s, _)| s).collect();
    let next_seq = prior.iter().copied().max().map_or(0, |s| s + 1);
    let wal = SegmentedWal::resume(
        Box::new(store.store()),
        cfg.fsync,
        cfg.ckpt,
        head.clone(),
        next_seq,
        &prior,
    )
    .map_err(|_| ())?;
    Ok((wal, head))
}

/// Runs one shard core under the supervisor's restart loop. Returns when
/// an incarnation completes cleanly (the queue was closed by the server
/// and drained), when `stop` was raised before a restart, or when the
/// restart budget is exhausted.
///
/// A non-empty segment store is **resumed**, not truncated: the first
/// incarnation recovers whatever a previous service life durably
/// committed (acknowledged commits survive a whole-service restart, not
/// just a shard-core crash).
///
/// `make_scheduler` must produce a *fresh* scheduler over the same
/// universe each time it is called; recovery replays the WAL into it and
/// the replayed instance becomes the next incarnation's scheduler.
/// `faults` applies to the first incarnation only — a kill-at-k plan
/// kills once, not once per life.
#[allow(clippy::too_many_arguments)]
pub fn supervise_shard<'a, F>(
    mut make_scheduler: F,
    queue: &BoundedQueue<Command>,
    progress: &Progress,
    faults: &FaultPlan,
    store: &MemSegmentsHandle,
    health: &ShardHealth,
    sessions: &SessionTable,
    stop: &AtomicBool,
    shard: u32,
    seq: &AtomicU64,
    cfg: &SupervisorCfg<'_>,
) -> SupervisedRun
where
    F: FnMut() -> Box<dyn Scheduler + Send + 'a>,
{
    let mut restarts: u64 = 0;
    let mut panics: u64 = 0;
    let mut scheduler = make_scheduler();
    let mut recovered = Checkpoint::default();
    let mut wal = if store.segments().is_empty() {
        // A fresh log still opens with a checkpoint head, and that head
        // must carry *this* shard's id — sharded recovery refuses a
        // segment stream whose checkpoint is stamped for another shard.
        let head = Checkpoint {
            shard,
            ..Checkpoint::default()
        };
        SegmentedWal::resume(Box::new(store.store()), cfg.fsync, cfg.ckpt, head, 0, &[])
            .expect("in-memory segment store cannot fail to open")
    } else {
        // A previous service life wrote this store: recover it so
        // acknowledged commits (and the retry table) survive a whole-
        // service restart, then resume logging where it left off.
        match recover_and_resume(&mut *scheduler, store, shard, cfg) {
            Ok((w, head)) => {
                sessions.seed(&head.sessions);
                recovered = head;
                w
            }
            Err(()) => {
                health.set(STATUS_FAILED);
                return SupervisedRun {
                    output: CoreOutput {
                        crashed: true,
                        ..CoreOutput::default()
                    },
                    restarts,
                    panics,
                    gave_up: true,
                };
            }
        }
    };
    let default_faults = FaultPlan::default();
    let (output, gave_up) = loop {
        let plan = if restarts == 0 {
            faults
        } else {
            &default_faults
        };
        let ctx = ShardCoreCtx {
            shard,
            seq,
            sessions: Some(sessions),
            recovered_committed: std::mem::take(&mut recovered.committed),
            recovered_events: std::mem::take(&mut recovered.events),
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
                Some(ctx),
            )
        }));
        let output = match result {
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
        if restarts >= cfg.max_restarts {
            health.set(STATUS_FAILED);
            break (output, true);
        }
        // Replay the shard's retained segment stream into a fresh
        // scheduler; the replayed instance (orphans rolled back,
        // committed history re-certified) is the next incarnation's
        // scheduler. A recovery failure is terminal — the log itself is
        // inconsistent, and restarting cannot fix that.
        let mut fresh = make_scheduler();
        recovered = match recover_and_resume(&mut *fresh, store, shard, cfg) {
            Ok((w, head)) => {
                wal = w;
                head
            }
            Err(()) => {
                health.set(STATUS_FAILED);
                break (output, true);
            }
        };
        sessions.seed(&recovered.sessions);
        scheduler = fresh;
        restarts += 1;
        health.restarts.fetch_add(1, Ordering::Relaxed);
        // Ready: readmit traffic. Producers fenced on the closed queue
        // resume; blocked sessions re-check on the progress bump.
        queue.reopen();
        health.set(STATUS_LIVE);
        progress.bump();
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
