//! The commit-after-barrier contract of `FsyncPolicy::Always`, observed
//! from outside the core: a drained batch costs **one** storage append
//! and, when it logged a commit, **one** barrier; nothing a commit
//! acknowledges — its `Reply`, its `SessionTable` entry — is visible
//! before that barrier has returned; and the operation verdicts of a batch
//! are visible before its write and its barrier even begin.
//!
//! Every scenario pre-loads the queue and closes it before the core
//! starts, so the batch boundaries are exact: batch `i` is commands
//! `[i * batch_max, (i + 1) * batch_max)`.

use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{AbortReason, Decision};
use relser_server::core::{self, Command, CoreOutput, Progress, Reply};
use relser_server::recovery::{recover_segments_with_certifier, Certifier};
use relser_server::supervisor::SessionTable;
use relser_server::{recover_and_resume, run_core, BoundedQueue, CoreCfg, FaultPlan, ShardCoreCtx};
use relser_wal::{
    scan, Checkpoint, CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, SegmentStore,
    SegmentedWal, Storage, WalRecord, MAGIC,
};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the recording storage and the reply observer saw, in the order
/// they saw it (one shared list, so the order across both is real).
#[derive(Clone, Debug, PartialEq)]
enum Event {
    Append {
        bytes: usize,
    },
    /// A barrier returned (successfully or not).
    Sync {
        ok: bool,
    },
    /// A commit reply or session entry was visible while the storage call
    /// covering its record was still in flight.
    EarlyAck(String),
    /// An operation verdict was still held while its batch was being
    /// written or synced.
    HeldVerdict(String),
    /// The observer found reply `index` filled.
    Filled {
        index: usize,
    },
}

type Log = Arc<Mutex<Vec<Event>>>;

fn record(log: &Log, event: Event) {
    log.lock().unwrap().push(event);
}

/// Is `reply` filled? Looks without taking the decision.
fn is_filled(reply: &Reply) -> bool {
    reply.wait_filled(Duration::ZERO)
}

/// The acknowledgments the storage watches, each with the batch its
/// command belongs to: inside batch `b`'s `append` and at the very end of
/// its `sync` — the last instant before the barrier returns — no commit
/// ack of batch `b` or later may be visible yet, and every operation
/// verdict of batch `b` or earlier must be.
#[derive(Clone, Default)]
struct Watched {
    commits: Vec<(usize, Reply)>,
    sessions: Vec<(usize, u64)>,
    verdicts: Vec<(usize, Reply)>,
    table: Arc<SessionTable>,
}

impl Watched {
    fn check(&self, log: &Log, batch: usize, during: &str) {
        for (i, (b, reply)) in self.commits.iter().enumerate() {
            if *b >= batch && is_filled(reply) {
                record(log, Event::EarlyAck(format!("commit {i} {during}")));
            }
        }
        for &(_, s) in self.sessions.iter().filter(|s| s.0 >= batch) {
            if self.table.lookup(s).is_some() {
                record(log, Event::EarlyAck(format!("session {s} {during}")));
            }
        }
        for (i, (b, reply)) in self.verdicts.iter().enumerate() {
            if *b <= batch && !is_filled(reply) {
                record(log, Event::HeldVerdict(format!("verdict {i} {during}")));
            }
        }
    }
}

/// An in-memory [`Storage`] that records every call, checks the watched
/// acknowledgments while a call is in flight, and can fail (or tear) the
/// k-th append or fail the k-th sync. It is segment 0 of a log that
/// never rotates ([`OneSegment`]).
struct RecordingStorage {
    log: Log,
    bytes: Arc<Mutex<(Vec<u8>, usize)>>,
    watched: Watched,
    /// Check at the end of `sync` too (only `Always` ties acks to it).
    watch_syncs: bool,
    appends: u64,
    syncs: u64,
    fail_append_at: Option<(u64, usize)>,
    fail_sync_at: Option<u64>,
}

impl Storage for RecordingStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Append 0 is the file header, append 1 the head checkpoint,
        // append b + 2 is batch b's write.
        let n = self.appends;
        if n >= 2 {
            self.watched
                .check(&self.log, n as usize - 2, "during append");
        }
        self.appends += 1;
        record(&self.log, Event::Append { bytes: bytes.len() });
        let mut inner = self.bytes.lock().unwrap();
        if let Some((at, torn)) = self.fail_append_at {
            if at == n {
                inner.0.extend_from_slice(&bytes[..torn.min(bytes.len())]);
                return Err(io::Error::other("injected append failure"));
            }
        }
        inner.0.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let n = self.syncs;
        self.syncs += 1;
        let ok = self.fail_sync_at != Some(n);
        if ok {
            let mut inner = self.bytes.lock().unwrap();
            inner.1 = inner.0.len();
        }
        if self.watch_syncs && self.appends >= 3 {
            // The barrier covers the batch written last.
            let batch = self.appends as usize - 3;
            self.watched
                .check(&self.log, batch, "before the covering sync returned");
        }
        record(&self.log, Event::Sync { ok });
        if ok {
            Ok(())
        } else {
            Err(io::Error::other("injected fsync failure"))
        }
    }

    fn len(&self) -> u64 {
        self.bytes.lock().unwrap().0.len() as u64
    }
}

/// Hands one storage out as segment 0 of a log that never rotates.
struct OneSegment(Option<Box<dyn Storage>>);

impl SegmentStore for OneSegment {
    fn create(&mut self, seq: u64) -> io::Result<Box<dyn Storage>> {
        assert_eq!(seq, 0, "a never-rotating log creates segment 0 only");
        Ok(self.0.take().expect("segment 0 is created once"))
    }

    fn delete(&mut self, seq: u64) -> io::Result<()> {
        unreachable!("a never-rotating log deletes nothing (asked for {seq})")
    }
}

/// A never-rotating log over `store` under `policy`.
fn one_segment_log(store: impl SegmentStore + 'static, policy: FsyncPolicy) -> SegmentedWal {
    SegmentedWal::new(Box::new(store), policy, CheckpointPolicy::never())
        .expect("header and head checkpoint write")
}

/// The head checkpoint frame every log opens with.
fn head_len() -> usize {
    WalRecord::Checkpoint(Checkpoint::default()).frame_len()
}

/// `n` conflict-free two-write transactions, each on its own object.
fn universe(n: usize) -> (TxnSet, AtomicitySpec) {
    let mut txns = TxnSet::new();
    for t in 0..n {
        let name = format!("x{t}");
        txns.add(&[
            (AccessMode::Write, name.as_str()),
            (AccessMode::Write, name.as_str()),
        ])
        .unwrap();
    }
    let spec = AtomicitySpec::absolute(&txns);
    (txns, spec)
}

/// What each reply of a pre-loaded run stands for.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ack {
    Grant(OpId),
    Commit(TxnId),
}

#[derive(Default)]
struct Scenario {
    commands: Vec<Command>,
    /// Per reply: the queue position of its command, its cell, and what
    /// it acknowledges.
    replies: Vec<(usize, Reply, Ack)>,
    /// Per sessionful commit: the queue position of its command and its
    /// session id.
    sessions: Vec<(usize, u64)>,
}

impl Scenario {
    fn begin(&mut self, txn: TxnId) {
        self.commands.push(Command::Begin(txn));
    }

    fn request(&mut self, op: OpId) {
        let reply = Reply::new();
        self.replies
            .push((self.commands.len(), reply.clone(), Ack::Grant(op)));
        self.commands.push(Command::Request {
            op,
            enqueued: Instant::now(),
            reply,
        });
    }

    /// A two-operation commit asking for its verdict, through the session
    /// table when `session` is given.
    fn commit(&mut self, txn: TxnId, session: Option<u64>) {
        let reply = Reply::new();
        self.replies
            .push((self.commands.len(), reply.clone(), Ack::Commit(txn)));
        if let Some(s) = session {
            self.sessions.push((self.commands.len(), s));
        }
        self.commands.push(Command::Commit {
            txn,
            ops: 2,
            ack: Some(core::Ack {
                enqueued: Instant::now(),
                reply,
                session: session.map(|s| (s, 1)),
            }),
        });
    }

    /// The whole life of `txn`: begin, both writes, a sessionful commit
    /// (session id = 100 + txn).
    fn txn(&mut self, txn: TxnId) {
        self.begin(txn);
        for index in 0..2 {
            self.request(OpId { txn, index });
        }
        self.commit(txn, Some(100 + u64::from(txn.0)));
    }

    /// Transactions the scenario touches (the universe it runs on).
    fn txn_count(&self) -> usize {
        let last = self.replies.iter().map(|(_, _, ack)| match ack {
            Ack::Grant(op) => op.txn.0,
            Ack::Commit(t) => t.0,
        });
        last.max().map_or(0, |t| t as usize + 1)
    }
}

/// `begin, w, w, commit` per transaction: four state-changing commands,
/// three of them acknowledged through a `Reply`, the commit also through
/// the session table (session id = 100 + txn).
fn scenario(n: usize) -> Scenario {
    let mut sc = Scenario::default();
    for t in 0..n as u32 {
        sc.txn(TxnId(t));
    }
    sc
}

struct Outcome {
    out: CoreOutput,
    events: Vec<Event>,
    /// Each reply's decision, taken after the run.
    decisions: Vec<Option<Decision>>,
    /// Everything written / the synced prefix.
    bytes: Vec<u8>,
    synced: Vec<u8>,
    table: Arc<SessionTable>,
}

/// Runs one shard core over `sc` pre-loaded into an already-closed queue
/// while an observer thread sweeps the reply cells. The observer looks
/// (without taking) from the highest index down: each kind of reply is
/// released in ascending order, so a cell found filled implies every
/// lower one of its kind is too by the time the sweep reaches it — a
/// sweep that finds `i` but misses some `j < i` of the same kind has seen
/// an out-of-order release, and shows up as a descending `Filled` pair
/// within that kind.
fn run(
    mut sc: Scenario,
    batch_max: usize,
    policy: FsyncPolicy,
    faults: &FaultPlan,
    fail_append_at: Option<(u64, usize)>,
    fail_sync_at: Option<u64>,
) -> (Scenario, Outcome) {
    let (txns, spec) = universe(sc.txn_count());
    let log: Log = Arc::default();
    let table = Arc::new(SessionTable::new());
    let bytes = Arc::new(Mutex::new((Vec::new(), 0)));
    let of_kind = |grant: bool| {
        sc.replies
            .iter()
            .filter(|(_, _, ack)| matches!(ack, Ack::Grant(_)) == grant)
            .map(|(pos, reply, _)| (pos / batch_max, reply.clone()))
            .collect()
    };
    let storage = RecordingStorage {
        log: Arc::clone(&log),
        bytes: Arc::clone(&bytes),
        watched: Watched {
            commits: of_kind(false),
            sessions: sc
                .sessions
                .iter()
                .map(|&(pos, s)| (pos / batch_max, s))
                .collect(),
            verdicts: of_kind(true),
            table: Arc::clone(&table),
        },
        watch_syncs: policy == FsyncPolicy::Always,
        appends: 0,
        syncs: 0,
        fail_append_at,
        fail_sync_at,
    };
    let mut wal = one_segment_log(OneSegment(Some(Box::new(storage))), policy);
    let queue: BoundedQueue<Command> = BoundedQueue::new(sc.commands.len().max(1));
    for cmd in sc.commands.drain(..) {
        assert!(queue.push_wait(cmd).is_ok());
    }
    queue.close();
    let progress = Progress::new();
    let done = AtomicBool::new(false);

    let out = std::thread::scope(|s| {
        let observer = s.spawn(|| {
            let mut seen = vec![false; sc.replies.len()];
            loop {
                let last = done.load(Ordering::Acquire);
                let mut found: Vec<usize> = Vec::new();
                for i in (0..sc.replies.len()).rev() {
                    if !seen[i] && is_filled(&sc.replies[i].1) {
                        seen[i] = true;
                        found.push(i);
                    }
                }
                for index in found.into_iter().rev() {
                    record(&log, Event::Filled { index });
                }
                if last {
                    break;
                }
                std::hint::spin_loop();
            }
        });
        let out = run_core(
            Box::new(RsgSgt::new(&txns, &spec)),
            &queue,
            &progress,
            CoreCfg {
                batch_max,
                record_trace: false,
            },
            faults,
            Some(&mut wal),
            ShardCoreCtx {
                sessions: Some(&table),
                ..ShardCoreCtx::default()
            },
        );
        done.store(true, Ordering::Release);
        observer.join().unwrap();
        out
    });
    let (all, synced) = {
        let inner = bytes.lock().unwrap();
        (inner.0.clone(), inner.0[..inner.1].to_vec())
    };
    let outcome = Outcome {
        out,
        events: log.lock().unwrap().clone(),
        decisions: sc.replies.iter().map(|(_, r, _)| r.try_take()).collect(),
        bytes: all,
        synced,
        table,
    };
    (sc, outcome)
}

/// Every breach of the contract the storage saw.
fn breaches(events: &[Event]) -> Vec<&Event> {
    events
        .iter()
        .filter(|e| matches!(e, Event::EarlyAck(_) | Event::HeldVerdict(_)))
        .collect()
}

/// The reply indices in the order the observer found them filled.
fn filled(events: &[Event]) -> Vec<usize> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Filled { index } => Some(*index),
            _ => None,
        })
        .collect()
}

/// Every reply was filled, and each kind in core order.
fn assert_released_in_core_order_within_each_kind(sc: &Scenario, o: &Outcome) {
    let fills = filled(&o.events);
    assert_eq!(fills.len(), sc.replies.len(), "no reply left hanging");
    for grant in [true, false] {
        let kind: Vec<usize> = fills
            .iter()
            .copied()
            .filter(|&i| matches!(sc.replies[i].2, Ack::Grant(_)) == grant)
            .collect();
        assert!(
            kind.windows(2).all(|w| w[0] < w[1]),
            "replies released out of core order: {kind:?}"
        );
    }
}

/// (a) + (b) + (c): one pre-filled batch of `b` state-changing commands,
/// commits among them, is one append and one barrier; no commit ack
/// precedes the barrier, no operation verdict waits for the write; each
/// kind of reply comes out in core order.
#[test]
fn one_batch_is_one_write_and_one_barrier_and_acks_follow_it() {
    let n = 6; // 24 state-changing commands, one batch
    let (sc, o) = run(
        scenario(n),
        64,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        None,
        None,
    );
    assert!(!o.out.crashed, "wal error: {:?}", o.out.wal_error);
    assert_eq!(o.out.batches, 1, "the whole queue drained as one batch");
    assert_eq!(breaches(&o.events), Vec::<&Event>::new());

    // Header append + header barrier, head checkpoint append + its
    // forced barrier (SegmentedWal::new), then exactly one append carrying
    // all 24 frames and exactly one barrier; the clean close finds
    // nothing unsynced and adds neither.
    let storage_calls: Vec<&Event> = o
        .events
        .iter()
        .filter(|e| matches!(e, Event::Append { .. } | Event::Sync { .. }))
        .collect();
    assert_eq!(storage_calls.len(), 6, "{storage_calls:?}");
    assert_eq!(storage_calls[0], &Event::Append { bytes: MAGIC.len() });
    assert_eq!(storage_calls[1], &Event::Sync { ok: true });
    assert_eq!(storage_calls[2], &Event::Append { bytes: head_len() });
    assert_eq!(storage_calls[3], &Event::Sync { ok: true });
    let batch_bytes = o.bytes.len() - MAGIC.len() - head_len();
    assert_eq!(storage_calls[4], &Event::Append { bytes: batch_bytes });
    assert_eq!(storage_calls[5], &Event::Sync { ok: true });
    assert_eq!(o.out.wal.records, 4 * n as u64 + 1);
    assert_eq!((o.out.wal.appends, o.out.wal.syncs), (3, 3));
    assert_eq!(scan(&o.synced).records.len(), 4 * n + 1);

    // Every commit ack came after the batch's barrier; every reply is
    // granted.
    let barrier = o
        .events
        .iter()
        .rposition(|e| matches!(e, Event::Sync { .. }))
        .unwrap();
    let first_commit_fill = o
        .events
        .iter()
        .position(|e| {
            matches!(e, Event::Filled { index } if matches!(sc.replies[*index].2, Ack::Commit(_)))
        })
        .unwrap();
    assert!(barrier < first_commit_fill, "{:?}", o.events);
    assert_released_in_core_order_within_each_kind(&sc, &o);
    assert!(o.decisions.iter().all(|d| *d == Some(Decision::Granted)));
    for (t, &(_, s)) in sc.sessions.iter().enumerate() {
        assert_eq!(o.table.lookup(s), Some((1, TxnId(t as u32))));
    }
    assert_eq!(o.out.committed.len(), n);
}

/// A batch that logged no commit is written once and not synced; its
/// records ride to disk under the next commit's barrier. At batch_max 3,
/// two transactions are the batches `[B0 w0.0 w0.1] [C0 B1 w1.0]
/// [w1.1 C1]`: three appends, two barriers.
#[test]
fn a_batch_without_a_commit_is_written_and_not_synced() {
    let (sc, o) = run(
        scenario(2),
        3,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        None,
        None,
    );
    assert!(!o.out.crashed, "wal error: {:?}", o.out.wal_error);
    assert_eq!(o.out.batches, 3);
    assert_eq!(breaches(&o.events), Vec::<&Event>::new());
    let storage_calls: Vec<&Event> = o
        .events
        .iter()
        .filter(|e| matches!(e, Event::Append { .. } | Event::Sync { .. }))
        .collect();
    let shape: Vec<&str> = storage_calls
        .iter()
        .map(|e| match e {
            Event::Append { .. } => "append",
            _ => "sync",
        })
        .collect();
    // Header and head checkpoint (each forced durable), then batch 0's
    // write alone, batches 1 and 2 each a write and a barrier.
    let expected = [
        "append", "sync", "append", "sync", "append", "append", "sync", "append", "sync",
    ];
    assert_eq!(shape, expected);
    assert_eq!((o.out.wal.appends, o.out.wal.syncs), (5, 4));
    assert_eq!(o.bytes, o.synced, "the last commit's barrier covers it all");
    assert_released_in_core_order_within_each_kind(&sc, &o);
    assert!(o.decisions.iter().all(|d| *d == Some(Decision::Granted)));
    assert_eq!(o.out.committed, vec![TxnId(0), TxnId(1)]);
}

/// Deferred policies go through the same hold-then-release loop; their
/// barrier is just conditional. `Never`: one append per batch, no barrier
/// until the clean close, every commit reply still released after its
/// batch's write and every operation verdict before it.
#[test]
fn deferred_policy_shares_the_loop_with_a_conditional_barrier() {
    let n = 4;
    let (sc, o) = run(
        scenario(n),
        8,
        FsyncPolicy::Never,
        &FaultPlan::default(),
        None,
        None,
    );
    assert!(!o.out.crashed);
    assert_eq!(o.out.batches, 2, "16 commands at batch_max 8");
    // header + head checkpoint + one per batch; the only barriers are the
    // ones the head checkpoint and close() force.
    assert_eq!((o.out.wal.appends, o.out.wal.syncs), (4, 2));
    assert_eq!(breaches(&o.events), Vec::<&Event>::new());
    assert_released_in_core_order_within_each_kind(&sc, &o);
    assert!(o.decisions.iter().all(|d| *d == Some(Decision::Granted)));
}

/// What the run's client was told, split at the first batch that died.
/// `verdicts_left` says whether that batch's operation verdicts had left
/// before it died: a failed write or barrier comes after them, a planned
/// crash in the middle of the batch before.
fn assert_failed_batch_unacked(
    sc: &Scenario,
    o: &Outcome,
    batch_max: usize,
    dead_batch: usize,
    verdicts_left: bool,
) {
    assert!(o.out.crashed);
    assert_eq!(breaches(&o.events), Vec::<&Event>::new());
    assert_released_in_core_order_within_each_kind(sc, o);
    let mut acked_commits: Vec<TxnId> = Vec::new();
    let mut acked_grants: Vec<OpId> = Vec::new();
    for (index, ((pos, _, ack), decision)) in sc.replies.iter().zip(&o.decisions).enumerate() {
        let batch = pos / batch_max;
        let acked = match ack {
            Ack::Grant(_) => batch < dead_batch || (batch == dead_batch && verdicts_left),
            Ack::Commit(_) => batch < dead_batch,
        };
        if acked {
            assert_eq!(*decision, Some(Decision::Granted), "reply {index}");
            match *ack {
                Ack::Grant(op) => acked_grants.push(op),
                Ack::Commit(t) => acked_commits.push(t),
            }
        } else {
            assert_eq!(
                *decision,
                Some(Decision::Aborted(AbortReason::Injected)),
                "reply {index} of the failed batch (or later) must not be an ack"
            );
        }
    }
    assert!(!acked_commits.is_empty(), "the fault must land mid-run");
    assert!(acked_commits.len() < sc.sessions.len());
    assert_eq!(o.out.committed, acked_commits, "the core reports acks only");
    for (t, &(_, s)) in sc.sessions.iter().enumerate() {
        let acked = acked_commits.contains(&TxnId(t as u32));
        assert_eq!(o.table.lookup(s).is_some(), acked, "session {s}");
    }

    // Recovery of the synced prefix: exactly the acknowledged commits —
    // none the client was never acked, every one it was — and every
    // acknowledged grant of a recovered commit is durable.
    let (txns, spec) = universe(sc.txn_count());
    let mut fresh = RsgSgt::new(&txns, &spec);
    let segments = [(0, o.synced.clone())];
    let (_, rec) =
        recover_segments_with_certifier(&txns, &spec, &mut fresh, &segments, Certifier::VClock)
            .expect("synced prefix recovers");
    assert_eq!(rec.committed, acked_commits);
    let of_recovered = |op: &OpId| rec.committed.contains(&op.txn);
    let durable_grants: Vec<OpId> = scan(&o.synced)
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Grant(op) => Some(*op),
            _ => None,
        })
        .filter(of_recovered)
        .collect();
    acked_grants.retain(of_recovered);
    assert_eq!(durable_grants, acked_grants);
}

/// (d) a failing barrier in the middle of a run.
#[test]
fn failed_barrier_acknowledges_nothing_of_its_batch() {
    // 40 commands, 5 batches, each logging two commits. Syncs 0 and 1 are
    // the header and the head checkpoint; batch i's barrier is sync i + 2.
    let (n, batch_max) = (10, 8);
    let (sc, o) = run(
        scenario(n),
        batch_max,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        None,
        Some(4),
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("fsync"));
    assert!(
        o.bytes.len() > o.synced.len(),
        "the batch was written, not synced"
    );
    assert_failed_batch_unacked(&sc, &o, batch_max, 2, true);
}

/// (d) a failing (torn) append in the middle of a run.
#[test]
fn failed_append_acknowledges_nothing_of_its_batch() {
    let (n, batch_max) = (10, 8);
    // Appends 0 and 1 are the header and the head checkpoint; batch i's
    // write is append i + 2. 30 torn bytes leave whole valid frames of
    // the dead batch on storage, past the synced watermark.
    let (sc, o) = run(
        scenario(n),
        batch_max,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        Some((4, 30)),
        None,
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("append"));
    assert_eq!(o.bytes.len(), o.synced.len() + 30);
    assert_failed_batch_unacked(&sc, &o, batch_max, 2, true);
}

/// A planned crash in the middle of a batch: the commands of that batch
/// applied before the crash point die with it — records appended, batch
/// not yet applied, every ack held is exactly the window the crash cuts.
#[test]
fn planned_crash_mid_batch_unwinds_the_batch_held_acks() {
    let (n, batch_max) = (10, 8);
    let faults = FaultPlan {
        crash_at_command: Some(21), // batch 2 = commands 16..24
        ..FaultPlan::default()
    };
    let (sc, o) = run(
        scenario(n),
        batch_max,
        FsyncPolicy::Always,
        &faults,
        None,
        None,
    );
    assert_eq!(o.out.wal_error, None);
    assert_eq!(o.out.commands, 21);
    assert_eq!(o.bytes, o.synced, "the dead batch never reached storage");
    assert_failed_batch_unacked(&sc, &o, batch_max, 2, false);
}

/// The obligation of releasing grants early: a grant released before a
/// barrier that then fails is lost with the uncommitted prefix, and the
/// client observes that as an abort. At batch_max 3, two transactions are the batches
/// `[B0 w0.0 w0.1] [C0 B1 w1.0] [w1.1 C1]`; batch 0 logs no commit and is
/// not synced, batch 1's barrier fails after `w0.1` and `w1.0` were
/// granted. Reopened on the synced prefix, the resumed core answers each
/// early-granted transaction's next command — T1's next operation, both
/// commits — `Aborted(Retired)`, and a restart from `Begin` commits each
/// exactly once.
#[test]
fn a_lost_uncommitted_prefix_is_an_abort_the_client_observes() {
    let (sc, o) = run(
        scenario(2),
        3,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        None,
        Some(2),
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("fsync"));
    assert_eq!(breaches(&o.events), Vec::<&Event>::new());
    let granted = Some(Decision::Granted);
    let injected = Some(Decision::Aborted(AbortReason::Injected));
    let told: Vec<(Ack, Option<Decision>)> = sc
        .replies
        .iter()
        .map(|(_, _, ack)| *ack)
        .zip(o.decisions.iter().cloned())
        .collect();
    let (t0, t1) = (TxnId(0), TxnId(1));
    let op = |txn, index| Ack::Grant(OpId { txn, index });
    assert_eq!(
        told,
        vec![
            (op(t0, 0), granted.clone()),
            (op(t0, 1), granted.clone()),
            (Ack::Commit(t0), injected.clone()),
            (op(t1, 0), granted),
            (op(t1, 1), injected.clone()),
            (Ack::Commit(t1), injected),
        ],
        "the grants left before the barrier, the commit did not"
    );
    assert!(o.out.committed.is_empty());
    assert!(o.bytes.len() > o.synced.len(), "the grants were not synced");

    // Reopen the synced prefix: nothing committed, nothing live.
    let store = MemSegmentStore::new().1;
    let mut segment = store.clone().create(0).unwrap();
    segment.append(&o.synced).unwrap();
    segment.sync().unwrap();
    let (txns, spec) = universe(2);
    let scheduler = Box::new(RsgSgt::new(&txns, &spec));
    let never = CheckpointPolicy::never();
    let (mut wal, scheduler, rec) =
        recover_and_resume(store.clone(), scheduler, &txns, &spec, 0, never).unwrap();
    assert!(rec.committed.is_empty());

    // The client resumes where its acks left it, then restarts.
    let mut second = Scenario::default();
    second.request(OpId { txn: t1, index: 1 });
    second.commit(t0, None);
    second.commit(t1, None);
    second.txn(t0);
    second.txn(t1);
    let queue: BoundedQueue<Command> = BoundedQueue::new(second.commands.len());
    for cmd in second.commands.drain(..) {
        assert!(queue.push_wait(cmd).is_ok());
    }
    queue.close();
    let table = SessionTable::new();
    let out = run_core(
        scheduler,
        &queue,
        &Progress::new(),
        CoreCfg {
            batch_max: 3,
            record_trace: false,
        },
        &FaultPlan::default(),
        Some(&mut wal),
        ShardCoreCtx {
            sessions: Some(&table),
            ..ShardCoreCtx::default()
        },
    );
    assert!(!out.crashed, "wal error: {:?}", out.wal_error);
    let retired = Some(Decision::Aborted(AbortReason::Retired));
    let decisions: Vec<Option<Decision>> = second.replies.iter().map(|r| r.1.try_take()).collect();
    assert_eq!(decisions[..3], [retired.clone(), retired.clone(), retired]);
    assert!(decisions[3..].iter().all(|d| *d == Some(Decision::Granted)));
    assert_eq!(out.committed, vec![t0, t1]);

    // Each commit is recovered exactly once.
    let (_, rec) = recover_segments_with_certifier(
        &txns,
        &spec,
        &mut RsgSgt::new(&txns, &spec),
        &store.synced_segments(),
        Certifier::VClock,
    )
    .unwrap();
    assert_eq!(rec.committed, vec![t0, t1]);
}

/// The one `Command::Commit` picks its commit record from the session
/// alone — `Commit` without one, `CommitSession` with one, the ack asked
/// for or not — and the log is, byte for byte, the one those records
/// make.
#[test]
fn the_one_commit_command_picks_its_record_from_the_session_alone() {
    let (txns, spec) = universe(4);
    let ack = |session| {
        Some(core::Ack {
            enqueued: Instant::now(),
            reply: Reply::new(),
            session,
        })
    };
    // The ack per transaction, and the record each must produce.
    let commits = [None, ack(None), ack(Some((7, 3))), ack(Some((8, 5)))];
    let mut expected = vec![WalRecord::Checkpoint(Checkpoint::default())];
    let queue: BoundedQueue<Command> = BoundedQueue::new(32);
    for (t, ack) in commits.into_iter().enumerate() {
        let txn = TxnId(t as u32);
        expected.push(WalRecord::Begin(txn));
        assert!(queue.push_wait(Command::Begin(txn)).is_ok());
        for index in 0..2 {
            let op = OpId { txn, index };
            expected.push(WalRecord::Grant(op));
            let (enqueued, reply) = (Instant::now(), Reply::new());
            let request = Command::Request {
                op,
                enqueued,
                reply,
            };
            assert!(queue.push_wait(request).is_ok());
        }
        expected.push(match ack.as_ref().and_then(|a| a.session) {
            None => WalRecord::Commit(txn),
            Some((session, req_id)) => WalRecord::CommitSession {
                txn,
                session,
                req_id,
            },
        });
        let commit = Command::Commit { txn, ops: 2, ack };
        assert!(queue.push_wait(commit).is_ok());
    }
    queue.close();

    let (store, handle) = MemSegmentStore::new();
    let mut wal = one_segment_log(store, FsyncPolicy::Always);
    let out = run_core(
        Box::new(RsgSgt::new(&txns, &spec)),
        &queue,
        &Progress::new(),
        CoreCfg {
            batch_max: 4,
            record_trace: false,
        },
        &FaultPlan::default(),
        Some(&mut wal),
        ShardCoreCtx::default(),
    );
    assert_eq!(out.commits, 4);
    assert_eq!(scan(&handle.segments()[0].1).records, expected);

    let (store, by_hand) = MemSegmentStore::new();
    let mut wal = one_segment_log(store, FsyncPolicy::Always);
    for rec in &expected[1..] {
        wal.append(rec).unwrap();
    }
    wal.close().unwrap();
    assert_eq!(handle.segments(), by_hand.segments(), "byte for byte");
}
