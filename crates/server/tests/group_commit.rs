//! The commit-after-barrier contract of `FsyncPolicy::Always`, observed
//! from outside the core: a write costs **one** storage append and, when
//! it logged a commit, **one** barrier; nothing a commit acknowledges —
//! its `Reply`, its `SessionTable` entry — is visible before a barrier
//! covering its commit record has returned; and every operation verdict
//! of a batch is visible once the batch is applied, before any write of
//! its records even begins.
//!
//! The storage checks both while each of its calls is in flight, by
//! reading the records themselves: "the write that covers batch b" is
//! whichever append carries b's records, so the same check holds for the
//! inline write step (one write per batch) and for the log-writer thread
//! (batches queued behind a barrier share the next write).
//!
//! Most scenarios pre-load the queue and close it before the core
//! starts, so the batch boundaries are exact: batch `i` is commands
//! `[i * batch_max, (i + 1) * batch_max)`. The overlap scenarios run on a
//! storage whose barrier is slower than the core's inline threshold and
//! feed their later commands from inside a barrier, so those commands are
//! admitted while it runs.

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
    /// Commit reply `reply` was filled while no returned barrier covered
    /// its commit record — a breach if the fill was an acknowledgment
    /// (`Granted`), not the unwinding of a fail-stop.
    EarlyCommit {
        reply: usize,
        during: &'static str,
    },
    /// A session entry was visible while no returned barrier covered its
    /// commit record.
    EarlyAck(String),
    /// An operation verdict was still held while its record was being
    /// written or synced.
    HeldVerdict(String),
    /// Sync `sync` fed the queue its next commands and held on until
    /// every operation verdict among them was filled (`admitted`) or
    /// gave up.
    Overlap {
        sync: u64,
        admitted: bool,
    },
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

/// Does `records` hold `txn`'s commit?
fn commits(records: &[WalRecord], txn: TxnId) -> bool {
    records.iter().any(|r| {
        matches!(r, WalRecord::Commit(t) | WalRecord::CommitSession { txn: t, .. } if *t == txn)
    })
}

/// The acknowledgments the storage watches, each with what it stands
/// for. While a storage call is in flight, no commit ack — a reply or a
/// session entry — may be visible unless an earlier call covered its
/// commit record (a barrier under `Always`, a write under `Never`), and
/// every operation verdict whose grant record is already written (or
/// being written) must be.
#[derive(Clone, Default)]
struct Watched {
    /// `(reply index, txn, cell)` per commit reply.
    commits: Vec<(usize, TxnId, Reply)>,
    sessions: Vec<(TxnId, u64)>,
    verdicts: Vec<(OpId, Reply)>,
    table: Arc<SessionTable>,
}

impl Watched {
    fn check(&self, log: &Log, covered: &[WalRecord], written: &[WalRecord], during: &'static str) {
        for (reply, txn, cell) in &self.commits {
            if !commits(covered, *txn) && is_filled(cell) {
                let reply = *reply;
                record(log, Event::EarlyCommit { reply, during });
            }
        }
        for &(txn, s) in &self.sessions {
            if !commits(covered, txn) && self.table.lookup(s).is_some() {
                record(log, Event::EarlyAck(format!("session {s} {during}")));
            }
        }
        for (i, (op, reply)) in self.verdicts.iter().enumerate() {
            if written.contains(&WalRecord::Grant(*op)) && !is_filled(reply) {
                record(log, Event::HeldVerdict(format!("verdict {i} {during}")));
            }
        }
    }
}

/// Commands the storage pushes into the (open) queue from inside sync
/// `at`: admitted while that barrier runs. The sync then waits until
/// every reply in `verdicts` is filled (at most 10 s) before it pushes
/// the next feed due or returns. The last feed closes the queue.
struct Feed {
    at: u64,
    commands: Vec<Command>,
    verdicts: Vec<Reply>,
}

/// What a [`RecordingStorage`] does besides recording.
#[derive(Default)]
struct Knobs {
    /// Fail (or tear, after this many bytes) the k-th append.
    fail_append_at: Option<(u64, usize)>,
    /// Fail the k-th sync.
    fail_sync_at: Option<u64>,
    /// How long every sync takes (slept).
    sync_time: Duration,
    /// Split the scenario's commands: the first stays pre-loaded, the
    /// rest are fed from inside the given syncs — `(sync, first command
    /// fed)`, ascending.
    feeds: Vec<(u64, usize)>,
}

/// A barrier slower than the core's inline threshold (10 µs). The core
/// writes inline until the log has shown three barriers: syncs 0 and 1,
/// the header's and the head checkpoint's, and sync 2, the first commit
/// barrier. All three slow, it hands every later write to its
/// log-writer thread.
const SLOW_SYNC: Duration = Duration::from_millis(1);

/// An in-memory [`Storage`] that records every call, checks the watched
/// acknowledgments while a call is in flight, and can fail (or tear) the
/// k-th append, fail the k-th sync, slow its barriers down and feed the
/// queue from inside them. It is segment 0 of a log that never rotates
/// ([`OneSegment`]).
struct RecordingStorage {
    log: Log,
    bytes: Arc<Mutex<(Vec<u8>, usize)>>,
    watched: Watched,
    /// Check at the end of `sync` too (only `Always` ties acks to it).
    watch_syncs: bool,
    appends: u64,
    syncs: u64,
    knobs: Knobs,
    queue: Arc<BoundedQueue<Command>>,
    feeds: Vec<Feed>,
}

impl RecordingStorage {
    /// The records a commit ack may already stand on — durable ones
    /// under `Always`, written ones otherwise — and the records written
    /// so far plus `more` (the header is the first append, so the bytes
    /// scan).
    fn records(&self, more: &[u8]) -> (Vec<WalRecord>, Vec<WalRecord>) {
        let inner = self.bytes.lock().unwrap();
        let covered_len = if self.watch_syncs {
            inner.1
        } else {
            inner.0.len()
        };
        let covered = scan(&inner.0[..covered_len]).records;
        let written = scan(&[inner.0.as_slice(), more].concat()).records;
        (covered, written)
    }

    /// Pushes each feed due at sync `n` in turn, waiting for its verdicts
    /// before the next.
    fn feed(&mut self, n: u64) {
        while self.feeds.first().is_some_and(|f| f.at == n) {
            let feed = self.feeds.remove(0);
            for cmd in feed.commands {
                assert!(self.queue.push_wait(cmd).is_ok());
            }
            if self.feeds.is_empty() {
                self.queue.close();
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !feed.verdicts.iter().all(is_filled) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(50));
            }
            let admitted = feed.verdicts.iter().all(is_filled);
            record(&self.log, Event::Overlap { sync: n, admitted });
        }
    }
}

impl Storage for RecordingStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let n = self.appends;
        if n >= 1 {
            let (covered, written) = self.records(bytes);
            self.watched
                .check(&self.log, &covered, &written, "during append");
        }
        self.appends += 1;
        record(&self.log, Event::Append { bytes: bytes.len() });
        let mut inner = self.bytes.lock().unwrap();
        if let Some((at, torn)) = self.knobs.fail_append_at {
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
        std::thread::sleep(self.knobs.sync_time);
        self.feed(n);
        if self.watch_syncs && self.appends >= 1 {
            // The last instant before the barrier returns: it covers
            // nothing yet.
            let (covered, written) = self.records(&[]);
            self.watched.check(
                &self.log,
                &covered,
                &written,
                "before the covering sync returned",
            );
        }
        let ok = self.knobs.fail_sync_at != Some(n);
        if ok {
            let mut inner = self.bytes.lock().unwrap();
            inner.1 = inner.0.len();
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
    /// Per sessionful commit: the queue position of its command, its
    /// transaction and its session id.
    sessions: Vec<(usize, TxnId, u64)>,
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
            self.sessions.push((self.commands.len(), txn, s));
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

/// Runs one shard core over `sc` while an observer thread sweeps the
/// reply cells. The commands are pre-loaded into a queue closed before
/// the core starts, except those `knobs.feeds` feeds from inside a
/// barrier. The observer looks (without taking) from the highest index
/// down: each kind of reply is released in ascending order, so a cell
/// found filled implies every lower one of its kind is too by the time
/// the sweep reaches it — a sweep that finds `i` but misses some `j < i`
/// of the same kind has seen an out-of-order release, and shows up as a
/// descending `Filled` pair within that kind.
fn run(
    mut sc: Scenario,
    batch_max: usize,
    policy: FsyncPolicy,
    faults: &FaultPlan,
    knobs: Knobs,
) -> (Scenario, Outcome) {
    let (txns, spec) = universe(sc.txn_count());
    let log: Log = Arc::default();
    let table = Arc::new(SessionTable::new());
    let bytes = Arc::new(Mutex::new((Vec::new(), 0)));
    let queue = Arc::new(BoundedQueue::new(sc.commands.len().max(1)));
    // Split off the fed commands, last feed first.
    let mut feeds: Vec<Feed> = Vec::new();
    for &(at, first) in knobs.feeds.iter().rev() {
        let fed = first..sc.commands.len();
        let verdicts = sc
            .replies
            .iter()
            .filter(|(pos, _, ack)| fed.contains(pos) && matches!(ack, Ack::Grant(_)))
            .map(|(_, reply, _)| reply.clone())
            .collect();
        feeds.insert(
            0,
            Feed {
                at,
                commands: sc.commands.drain(first..).collect(),
                verdicts,
            },
        );
    }
    let watched = Watched {
        commits: sc
            .replies
            .iter()
            .enumerate()
            .filter_map(|(i, (_, reply, ack))| match ack {
                Ack::Commit(t) => Some((i, *t, reply.clone())),
                Ack::Grant(_) => None,
            })
            .collect(),
        sessions: sc.sessions.iter().map(|&(_, t, s)| (t, s)).collect(),
        verdicts: sc
            .replies
            .iter()
            .filter_map(|(_, reply, ack)| match ack {
                Ack::Grant(op) => Some((*op, reply.clone())),
                Ack::Commit(_) => None,
            })
            .collect(),
        table: Arc::clone(&table),
    };
    for cmd in sc.commands.drain(..) {
        assert!(queue.push_wait(cmd).is_ok());
    }
    if feeds.is_empty() {
        queue.close();
    }
    let storage = RecordingStorage {
        log: Arc::clone(&log),
        bytes: Arc::clone(&bytes),
        watched,
        watch_syncs: policy == FsyncPolicy::Always,
        appends: 0,
        syncs: 0,
        knobs,
        queue: Arc::clone(&queue),
        feeds,
    };
    let mut wal = one_segment_log(OneSegment(Some(Box::new(storage))), policy);
    let progress = Progress::new();
    let done = AtomicBool::new(false);

    let out = std::thread::scope(|s| {
        let observer = s.spawn(|| {
            let mut seen = vec![false; sc.replies.len()];
            let deadline = Instant::now() + Duration::from_secs(30);
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
                // A feed that never came leaves the queue open: close it,
                // so the run ends and its assertions say what is missing.
                if Instant::now() > deadline {
                    queue.close();
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
fn breaches(o: &Outcome) -> Vec<&Event> {
    o.events
        .iter()
        .filter(|e| match e {
            Event::EarlyCommit { reply, .. } => o.decisions[*reply] == Some(Decision::Granted),
            Event::EarlyAck(_) | Event::HeldVerdict(_) => true,
            _ => false,
        })
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
        Knobs::default(),
    );
    assert!(!o.out.crashed, "wal error: {:?}", o.out.wal_error);
    assert_eq!(o.out.batches, 1, "the whole queue drained as one batch");
    assert_eq!(breaches(&o), Vec::<&Event>::new());

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
    for &(_, t, s) in &sc.sessions {
        assert_eq!(o.table.lookup(s), Some((1, t)));
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
        Knobs::default(),
    );
    assert!(!o.out.crashed, "wal error: {:?}", o.out.wal_error);
    assert_eq!(o.out.batches, 3);
    assert_eq!(breaches(&o), Vec::<&Event>::new());
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
        Knobs::default(),
    );
    assert!(!o.out.crashed);
    assert_eq!(o.out.batches, 2, "16 commands at batch_max 8");
    // header + head checkpoint + one per batch; the only barriers are the
    // ones the head checkpoint and close() force.
    assert_eq!((o.out.wal.appends, o.out.wal.syncs), (4, 2));
    assert_eq!(breaches(&o), Vec::<&Event>::new());
    assert_released_in_core_order_within_each_kind(&sc, &o);
    assert!(o.decisions.iter().all(|d| *d == Some(Decision::Granted)));
}

/// What a fail-stopped run told its client, against what its log kept,
/// on either write path: every reply was filled, a `Granted` or the
/// unwinding `Aborted(Injected)`; the granted operation verdicts are a
/// prefix of them in core order (the batches the core admitted before
/// it stopped); the acknowledged commits — some, not all — are exactly
/// the commits of the synced prefix, of its recovery, of the core's
/// report and of the retry table; and every acknowledged grant of a
/// recovered commit is durable. Returns the acknowledged commits and
/// grants.
fn assert_acks_are_the_durable_commits(sc: &Scenario, o: &Outcome) -> (Vec<TxnId>, Vec<OpId>) {
    assert!(o.out.crashed);
    assert_eq!(breaches(o), Vec::<&Event>::new());
    assert_released_in_core_order_within_each_kind(sc, o);
    let granted = Some(Decision::Granted);
    let injected = Some(Decision::Aborted(AbortReason::Injected));
    let mut acked_commits: Vec<TxnId> = Vec::new();
    let mut acked_grants: Vec<OpId> = Vec::new();
    let mut grants_stopped = false;
    for (index, ((_, _, ack), decision)) in sc.replies.iter().zip(&o.decisions).enumerate() {
        assert!(
            *decision == granted || *decision == injected,
            "reply {index}: {decision:?}"
        );
        match *ack {
            Ack::Grant(op) if *decision == granted => {
                assert!(!grants_stopped, "grant {index} after an unwound one");
                acked_grants.push(op);
            }
            Ack::Grant(_) => grants_stopped = true,
            Ack::Commit(t) if *decision == granted => acked_commits.push(t),
            Ack::Commit(_) => {}
        }
    }
    assert!(!acked_commits.is_empty(), "the fault must land mid-run");
    assert!(acked_commits.len() < sc.txn_count());
    assert_eq!(o.out.committed, acked_commits, "the core reports acks only");
    for &(_, t, s) in &sc.sessions {
        let acked = acked_commits.contains(&t);
        assert_eq!(o.table.lookup(s).is_some(), acked, "session {s}");
    }
    let synced = scan(&o.synced).records;
    let durable: Vec<TxnId> = (0..sc.txn_count() as u32)
        .map(TxnId)
        .filter(|&t| commits(&synced, t))
        .collect();
    assert_eq!(durable, acked_commits, "acked = durable, both ways");

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
    let durable_grants: Vec<OpId> = synced
        .iter()
        .filter_map(|r| match r {
            WalRecord::Grant(op) => Some(*op),
            _ => None,
        })
        .filter(of_recovered)
        .collect();
    let mut recovered_grants = acked_grants.clone();
    recovered_grants.retain(of_recovered);
    assert_eq!(durable_grants, recovered_grants);
    (acked_commits, acked_grants)
}

/// [`assert_acks_are_the_durable_commits`], split at the first batch
/// that died: every ack before it, none of it or after it. `verdicts_left`
/// says whether that batch's operation verdicts had left before it died:
/// a failed write or barrier comes after them, a planned crash in the
/// middle of the batch before.
fn assert_failed_batch_unacked(
    sc: &Scenario,
    o: &Outcome,
    batch_max: usize,
    dead_batch: usize,
    verdicts_left: bool,
) {
    let (acked_commits, acked_grants) = assert_acks_are_the_durable_commits(sc, o);
    for (index, (pos, _, ack)) in sc.replies.iter().enumerate() {
        let batch = pos / batch_max;
        match *ack {
            Ack::Grant(op) => assert_eq!(
                acked_grants.contains(&op),
                batch < dead_batch || (batch == dead_batch && verdicts_left),
                "reply {index}"
            ),
            Ack::Commit(t) => {
                assert_eq!(
                    acked_commits.contains(&t),
                    batch < dead_batch,
                    "reply {index}"
                )
            }
        }
    }
}

/// Every grant of the first `batches` batches was answered `Granted`:
/// those batches were applied before the failed write, on either path,
/// so their verdicts had left.
fn assert_batches_granted(sc: &Scenario, o: &Outcome, batch_max: usize, batches: usize) {
    for (index, ((pos, _, ack), decision)) in sc.replies.iter().zip(&o.decisions).enumerate() {
        if matches!(ack, Ack::Grant(_)) && pos / batch_max < batches {
            assert_eq!(*decision, Some(Decision::Granted), "reply {index}");
        }
    }
}

/// (d) a failing barrier in the middle of a run. 40 commands, 5 batches,
/// each logging two commits. Syncs 0 and 1 are the header and the head
/// checkpoint's, sync 2 batch 0's barrier — always run inline, the third
/// barrier the core's write-path probe needs — and sync 3 the next
/// write's: batch 1's inline, or batches queued behind sync 2 sharing
/// one write on the log-writer thread if all three probe barriers came
/// in slow. On both paths the acks are exactly batch 0's commits, and
/// every verdict of batches 0 and 1 had left.
#[test]
fn failed_barrier_acknowledges_nothing_of_its_batch() {
    let (n, batch_max) = (10, 8);
    let (sc, o) = run(
        scenario(n),
        batch_max,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        Knobs {
            fail_sync_at: Some(3),
            ..Knobs::default()
        },
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("fsync"));
    assert!(
        o.bytes.len() > o.synced.len(),
        "the batch was written, not synced"
    );
    let (acked, _) = assert_acks_are_the_durable_commits(&sc, &o);
    assert_eq!(acked, [TxnId(0), TxnId(1)]);
    assert_batches_granted(&sc, &o, batch_max, 2);
}

/// (d) a failing (torn) append in the middle of a run: appends 0 and 1
/// are the header and the head checkpoint, append 2 batch 0's write
/// (inline), append 3 the next write (see the barrier test above). 30
/// torn bytes leave whole valid frames of the dead write on storage,
/// past the synced watermark.
#[test]
fn failed_append_acknowledges_nothing_of_its_batch() {
    let (n, batch_max) = (10, 8);
    let (sc, o) = run(
        scenario(n),
        batch_max,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        Knobs {
            fail_append_at: Some((3, 30)),
            ..Knobs::default()
        },
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("append"));
    assert_eq!(o.bytes.len(), o.synced.len() + 30);
    let (acked, _) = assert_acks_are_the_durable_commits(&sc, &o);
    assert_eq!(acked, [TxnId(0), TxnId(1)]);
    assert_batches_granted(&sc, &o, batch_max, 2);
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
        Knobs::default(),
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
        Knobs {
            fail_sync_at: Some(2),
            ..Knobs::default()
        },
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("fsync"));
    assert_eq!(breaches(&o), Vec::<&Event>::new());
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

    // Reopen the synced prefix — nothing committed, nothing live — and
    // resume where the acks left the client, then restart.
    let mut second = Scenario::default();
    second.request(OpId { txn: t1, index: 1 });
    second.commit(t0, None);
    second.commit(t1, None);
    second.txn(t0);
    second.txn(t1);
    let (decisions, committed, recovered) = resume(&o.synced, 2, &[], second);
    let retired = Some(Decision::Aborted(AbortReason::Retired));
    assert_eq!(decisions[..3], [retired.clone(), retired.clone(), retired]);
    assert!(decisions[3..].iter().all(|d| *d == Some(Decision::Granted)));
    assert_eq!(committed, vec![t0, t1]);
    // Each commit is recovered exactly once.
    assert_eq!(recovered, vec![t0, t1]);
}

/// Reopens `synced`, the durable prefix of a crashed run over `n`
/// transactions, with `recover_and_resume`; it must recover exactly
/// `acked`. Then serves `second` (pre-loaded, batch_max 3) on the
/// resumed log. Returns each of `second`'s replies, the commits the
/// second life reports and the commits recovered from its log.
fn resume(
    synced: &[u8],
    n: usize,
    acked: &[TxnId],
    mut second: Scenario,
) -> (Vec<Option<Decision>>, Vec<TxnId>, Vec<TxnId>) {
    let store = MemSegmentStore::new().1;
    let mut segment = store.clone().create(0).unwrap();
    segment.append(synced).unwrap();
    segment.sync().unwrap();
    let (txns, spec) = universe(n);
    let scheduler = Box::new(RsgSgt::new(&txns, &spec));
    let never = CheckpointPolicy::never();
    let (mut wal, scheduler, rec) =
        recover_and_resume(store.clone(), scheduler, &txns, &spec, 0, never).unwrap();
    assert_eq!(rec.committed, acked);

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
    let decisions = second.replies.iter().map(|r| r.1.try_take()).collect();
    let (_, rec) = recover_segments_with_certifier(
        &txns,
        &spec,
        &mut RsgSgt::new(&txns, &spec),
        &store.synced_segments(),
        Certifier::VClock,
    )
    .unwrap();
    (decisions, out.committed, rec.committed)
}

/// The overlap events of a run: `(sync, admitted)`.
fn overlaps(o: &Outcome) -> Vec<(u64, bool)> {
    o.events
        .iter()
        .filter_map(|e| match e {
            Event::Overlap { sync, admitted } => Some((*sync, *admitted)),
            _ => None,
        })
        .collect()
}

/// The log-writer stage: on a barrier slower than the inline threshold,
/// the core admits the next batch while the barrier runs. At batch_max
/// 4, batch t is `T_t`'s whole life. Batch 0 is written inline (sync 2,
/// the first barrier, finds it slow); batch 1 is handed to the writer,
/// whose sync 3 feeds batch 2 into the queue and holds on until its
/// grants are filled — admitted and released while sync 3 is in
/// progress — and only batch 1's commit ack waits for sync 3. Batch 2 is
/// the writer's next write.
#[test]
fn a_batch_is_admitted_while_the_previous_barrier_runs() {
    let (sc, o) = run(
        scenario(3),
        4,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        Knobs {
            sync_time: SLOW_SYNC,
            feeds: vec![(3, 8)],
            ..Knobs::default()
        },
    );
    assert!(!o.out.crashed, "wal error: {:?}", o.out.wal_error);
    assert_eq!(overlaps(&o), [(3, true)], "{:?}", o.events);
    assert_eq!(breaches(&o), Vec::<&Event>::new());
    assert_released_in_core_order_within_each_kind(&sc, &o);
    assert!(o.decisions.iter().all(|d| *d == Some(Decision::Granted)));
    assert_eq!(o.out.committed, [TxnId(0), TxnId(1), TxnId(2)]);
    // Header, head checkpoint, then one write and one barrier per batch,
    // the last two on the writer.
    assert_eq!((o.out.wal.appends, o.out.wal.syncs), (5, 5));
    assert_eq!((o.out.writes, o.out.staged_writes), (3, 2));
    assert_eq!(o.bytes, o.synced);
}

/// A failed barrier on the writer thread unwinds its own write's commit
/// acks and those of every batch admitted behind it. At batch_max 4, T0
/// commits inline (sync 2); T1's write is the writer's, and its sync 3
/// feeds T2 and then T3, holding on until each one's grants are filled,
/// then fails. None of T1..T3's commits is acked, though all their
/// grants were; the core reports T0 alone. Reopened on the synced
/// prefix, the resumed core recovers T0 alone and answers each
/// overlapped transaction's resent operation and commit
/// `Aborted(Retired)`; restarted from `Begin`, each commits exactly once.
#[test]
fn a_failed_barrier_unwinds_every_batch_admitted_behind_it() {
    let (sc, o) = run(
        scenario(4),
        4,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        Knobs {
            fail_sync_at: Some(3),
            sync_time: SLOW_SYNC,
            feeds: vec![(3, 8), (3, 12)],
            ..Knobs::default()
        },
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("fsync"));
    assert_eq!(overlaps(&o), [(3, true), (3, true)], "{:?}", o.events);
    let (acked, granted) = assert_acks_are_the_durable_commits(&sc, &o);
    assert_eq!(acked, [TxnId(0)]);
    assert_eq!(granted.len(), 8, "every grant of T0..T3 left");
    assert_eq!((o.out.writes, o.out.staged_writes), (2, 1));

    let overlapped = [TxnId(1), TxnId(2), TxnId(3)];
    let mut second = Scenario::default();
    for &t in &overlapped {
        second.request(OpId { txn: t, index: 1 });
        second.commit(t, None);
    }
    for &t in &overlapped {
        second.txn(t);
    }
    let (decisions, committed, recovered) = resume(&o.synced, 4, &acked, second);
    let retired = Some(Decision::Aborted(AbortReason::Retired));
    assert!(
        decisions[..6].iter().all(|d| *d == retired),
        "{decisions:?}"
    );
    assert!(decisions[6..].iter().all(|d| *d == Some(Decision::Granted)));
    let all = [TxnId(0), TxnId(1), TxnId(2), TxnId(3)];
    assert_eq!(
        committed, all,
        "the second life reports the first's commit too"
    );
    assert_eq!(recovered, all);
}

/// A sessionful commit resent while its original's barrier is in flight
/// is answered with the original verdict and re-applies nothing — but
/// only once a barrier covering the original's record has returned. At
/// batch_max 4, T0 commits inline (sync 2); T1's sessionful commit is
/// the writer's sync 3, which feeds the resent commit of T1 and T2's
/// life: the duplicate is admitted during sync 3, and the recorder's
/// check at the end of sync 3 finds its reply and its session entry
/// still held.
#[test]
fn a_resent_commit_is_not_acked_before_its_originals_barrier() {
    let mut sc = scenario(2);
    let fed = sc.commands.len();
    sc.commit(TxnId(1), Some(101));
    sc.txn(TxnId(2));
    let (sc, o) = run(
        sc,
        4,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        Knobs {
            sync_time: SLOW_SYNC,
            feeds: vec![(3, fed)],
            ..Knobs::default()
        },
    );
    assert!(!o.out.crashed, "wal error: {:?}", o.out.wal_error);
    assert_eq!(overlaps(&o), [(3, true)], "{:?}", o.events);
    assert_eq!(breaches(&o), Vec::<&Event>::new());
    assert_released_in_core_order_within_each_kind(&sc, &o);
    assert!(o.decisions.iter().all(|d| *d == Some(Decision::Granted)));
    assert_eq!(o.out.duplicate_commit_acks, 1);
    assert!(o.out.staged_writes >= 2, "T1's write and the fed ones");
    assert_eq!(o.out.committed, [TxnId(0), TxnId(1), TxnId(2)]);
    assert_eq!(o.table.lookup(101), Some((1, TxnId(1))));
    let commit_records = scan(&o.synced)
        .records
        .iter()
        .filter(|r| commits(std::slice::from_ref(r), TxnId(1)))
        .count();
    assert_eq!(commit_records, 1, "the resent commit logs nothing");
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
