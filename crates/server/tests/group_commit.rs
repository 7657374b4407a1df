//! The ack-after-barrier contract of `FsyncPolicy::Always`, observed from
//! outside the core: a drained batch costs **one** storage append and
//! **one** barrier, and nothing the batch acknowledges — a `Reply`, a
//! `SessionTable` entry — is visible before that barrier has returned.
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
use relser_server::recovery::recover;
use relser_server::supervisor::SessionTable;
use relser_server::{run_core, BoundedQueue, CoreCfg, FaultPlan, ShardCoreCtx};
use relser_wal::{scan, FsyncPolicy, Storage, WalRecord, WalWriter, MAGIC};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
    /// A reply cell or session entry was visible while the storage call
    /// covering its record was still in flight.
    EarlyAck(String),
    /// The observer found reply `index` filled.
    Filled {
        index: usize,
        decision: Decision,
    },
}

type Log = Arc<Mutex<Vec<Event>>>;

fn record(log: &Log, event: Event) {
    log.lock().unwrap().push(event);
}

/// The acknowledgments the storage watches, each with the batch its
/// record belongs to: inside batch `b`'s `append` and at the very end of
/// its `sync` — the last instant before the barrier returns — no ack of
/// batch `b` or later may be visible yet.
#[derive(Clone, Default)]
struct Watched {
    replies: Vec<(usize, Reply)>,
    sessions: Vec<(usize, u64)>,
    table: Arc<SessionTable>,
}

impl Watched {
    fn check(&self, log: &Log, batch: usize, during: &str) {
        for (i, (_, reply)) in self
            .replies
            .iter()
            .enumerate()
            .filter(|(_, r)| r.0 >= batch)
        {
            if let Some(d) = reply.try_take() {
                record(log, Event::EarlyAck(format!("reply {i} = {d:?} {during}")));
            }
        }
        for &(_, s) in self.sessions.iter().filter(|s| s.0 >= batch) {
            if self.table.lookup(s).is_some() {
                record(log, Event::EarlyAck(format!("session {s} {during}")));
            }
        }
    }
}

/// An in-memory [`Storage`] that records every call, checks the watched
/// acknowledgments while a call is in flight, and can fail (or tear) the
/// k-th append or fail the k-th sync.
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
        // Append 0 is the file header, append b + 1 is batch b's write.
        let n = self.appends;
        self.watched
            .check(&self.log, (n as usize).saturating_sub(1), "during append");
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
        if self.watch_syncs {
            // The barrier covers the batch written last.
            let batch = (self.appends as usize).saturating_sub(2);
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

struct Scenario {
    commands: Vec<Command>,
    replies: Vec<Reply>,
    acks: Vec<Ack>,
    sessions: Vec<u64>,
}

/// `begin, w, w, commit` per transaction: four state-changing commands,
/// three of them acknowledged through a `Reply`, the commit also through
/// the session table (session id = 100 + txn).
fn scenario(n: usize) -> Scenario {
    let mut sc = Scenario {
        commands: Vec::new(),
        replies: Vec::new(),
        acks: Vec::new(),
        sessions: Vec::new(),
    };
    for t in 0..n as u32 {
        let txn = TxnId(t);
        sc.commands.push(Command::Begin(txn));
        for index in 0..2 {
            let reply = Reply::new();
            let op = OpId { txn, index };
            sc.commands.push(Command::Request {
                op,
                enqueued: Instant::now(),
                reply: reply.clone(),
            });
            sc.replies.push(reply);
            sc.acks.push(Ack::Grant(op));
        }
        let reply = Reply::new();
        let session = 100 + t as u64;
        sc.commands.push(Command::Commit {
            txn,
            ops: 2,
            ack: Some(core::Ack {
                enqueued: Instant::now(),
                reply: reply.clone(),
                session: Some((session, 1)),
            }),
        });
        sc.replies.push(reply);
        sc.acks.push(Ack::Commit(txn));
        sc.sessions.push(session);
    }
    sc
}

/// Position in the queue of the command reply `r` answers (per
/// transaction: one unanswered `Begin`, then three answered commands).
fn command_of_reply(r: usize) -> usize {
    r / 3 * 4 + r % 3 + 1
}

struct Outcome {
    out: CoreOutput,
    events: Vec<Event>,
    /// Everything written / the synced prefix.
    bytes: Vec<u8>,
    synced: Vec<u8>,
    table: Arc<SessionTable>,
}

/// Runs one shard core over the pre-loaded, already-closed queue while an
/// observer thread sweeps the reply cells. The observer sweeps from the
/// highest index down: replies are released in ascending order, so a cell
/// found filled implies every lower one is too by the time the sweep
/// reaches it — a sweep that takes `i` but misses some `j < i` has seen an
/// out-of-order release, and shows up as a descending `Filled` pair.
fn run(
    n: usize,
    batch_max: usize,
    policy: FsyncPolicy,
    faults: &FaultPlan,
    fail_append_at: Option<(u64, usize)>,
    fail_sync_at: Option<u64>,
) -> (Scenario, Outcome) {
    let (txns, spec) = universe(n);
    let mut sc = scenario(n);
    let log: Log = Arc::default();
    let table = Arc::new(SessionTable::new());
    let bytes = Arc::new(Mutex::new((Vec::new(), 0)));
    let storage = RecordingStorage {
        log: Arc::clone(&log),
        bytes: Arc::clone(&bytes),
        watched: Watched {
            replies: sc
                .replies
                .iter()
                .enumerate()
                .map(|(r, reply)| (command_of_reply(r) / batch_max, reply.clone()))
                .collect(),
            sessions: sc
                .sessions
                .iter()
                .enumerate()
                .map(|(t, &s)| ((4 * t + 3) / batch_max, s))
                .collect(),
            table: Arc::clone(&table),
        },
        watch_syncs: policy == FsyncPolicy::Always,
        appends: 0,
        syncs: 0,
        fail_append_at,
        fail_sync_at,
    };
    let mut wal = WalWriter::new(Box::new(storage), policy).expect("header write");
    let queue: BoundedQueue<Command> = BoundedQueue::new(sc.commands.len().max(1));
    for cmd in sc.commands.drain(..) {
        assert!(queue.push_wait(cmd).is_ok());
    }
    queue.close();
    let progress = Progress::new();
    let done = AtomicBool::new(false);

    let out = std::thread::scope(|s| {
        let observer = s.spawn(|| {
            let mut taken = vec![false; sc.replies.len()];
            loop {
                let last = done.load(Ordering::Acquire);
                let mut found: Vec<(usize, Decision)> = Vec::new();
                for i in (0..sc.replies.len()).rev() {
                    if !taken[i] {
                        if let Some(d) = sc.replies[i].try_take() {
                            taken[i] = true;
                            found.push((i, d));
                        }
                    }
                }
                for (index, decision) in found.into_iter().rev() {
                    record(&log, Event::Filled { index, decision });
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
        bytes: all,
        synced,
        table,
    };
    (sc, outcome)
}

fn early_acks(events: &[Event]) -> Vec<&Event> {
    events
        .iter()
        .filter(|e| matches!(e, Event::EarlyAck(_)))
        .collect()
}

fn filled(events: &[Event]) -> Vec<(usize, Decision)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Filled { index, decision } => Some((*index, decision.clone())),
            _ => None,
        })
        .collect()
}

/// (a) + (b) + (c): one pre-filled batch of `b` state-changing commands is
/// one append and one barrier; no acknowledgment precedes the barrier;
/// the replies come out in core order.
#[test]
fn one_batch_is_one_write_and_one_barrier_and_acks_follow_it() {
    let n = 6; // 24 state-changing commands, one batch
    let (sc, o) = run(
        n,
        64,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        None,
        None,
    );
    assert!(!o.out.crashed, "wal error: {:?}", o.out.wal_error);
    assert_eq!(o.out.batches, 1, "the whole queue drained as one batch");
    assert_eq!(early_acks(&o.events), Vec::<&Event>::new());

    // Header append + header barrier (WalWriter::new), then exactly one
    // append carrying all 24 frames and exactly one barrier; the clean
    // close finds nothing unsynced and adds neither.
    let storage_calls: Vec<&Event> = o
        .events
        .iter()
        .filter(|e| matches!(e, Event::Append { .. } | Event::Sync { .. }))
        .collect();
    assert_eq!(storage_calls.len(), 4, "{storage_calls:?}");
    assert_eq!(storage_calls[0], &Event::Append { bytes: MAGIC.len() });
    assert_eq!(storage_calls[1], &Event::Sync { ok: true });
    assert!(
        matches!(storage_calls[2], Event::Append { bytes } if *bytes == o.bytes.len() - MAGIC.len())
    );
    assert_eq!(storage_calls[3], &Event::Sync { ok: true });
    assert_eq!(o.out.wal.records, 4 * n as u64);
    assert_eq!((o.out.wal.appends, o.out.wal.syncs), (2, 2));
    assert_eq!(scan(&o.synced).records.len(), 4 * n);

    // Every ack came after the batch's barrier, in core order, granted.
    let barrier = o
        .events
        .iter()
        .rposition(|e| matches!(e, Event::Sync { .. }))
        .unwrap();
    let first_fill = o
        .events
        .iter()
        .position(|e| matches!(e, Event::Filled { .. }))
        .unwrap();
    assert!(barrier < first_fill, "{:?}", o.events);
    let fills = filled(&o.events);
    assert_eq!(fills.len(), sc.replies.len());
    for (k, (index, decision)) in fills.iter().enumerate() {
        assert_eq!(*index, k, "replies released out of core order: {fills:?}");
        assert_eq!(*decision, Decision::Granted);
    }
    for (t, &s) in sc.sessions.iter().enumerate() {
        assert_eq!(o.table.lookup(s), Some((1, TxnId(t as u32))));
    }
    assert_eq!(o.out.committed.len(), n);
}

/// Deferred policies go through the same hold-then-release loop; their
/// barrier is just conditional. `Never`: one append per batch, no barrier
/// until the clean close, every reply still released after its batch.
#[test]
fn deferred_policy_shares_the_loop_with_a_conditional_barrier() {
    let n = 4;
    let (sc, o) = run(n, 8, FsyncPolicy::Never, &FaultPlan::default(), None, None);
    assert!(!o.out.crashed);
    assert_eq!(o.out.batches, 2, "16 commands at batch_max 8");
    // header + one per batch; the only barrier is the one close() forces.
    assert_eq!((o.out.wal.appends, o.out.wal.syncs), (3, 1));
    let fills = filled(&o.events);
    assert_eq!(fills.len(), sc.replies.len());
    assert!(fills.iter().all(|(_, d)| *d == Decision::Granted));
    assert!(fills.windows(2).all(|w| w[0].0 < w[1].0), "{fills:?}");
}

/// What the run's client was told, split at the first batch that died.
fn assert_failed_batch_unacked(sc: &Scenario, o: &Outcome, batch_max: usize, dead_batch: usize) {
    assert!(o.out.crashed);
    assert_eq!(early_acks(&o.events), Vec::<&Event>::new());
    let fills = filled(&o.events);
    assert_eq!(fills.len(), sc.replies.len(), "no reply left hanging");
    let mut acked_commits: Vec<TxnId> = Vec::new();
    let mut acked_grants: Vec<OpId> = Vec::new();
    for (index, decision) in &fills {
        if command_of_reply(*index) / batch_max < dead_batch {
            assert_eq!(
                *decision,
                Decision::Granted,
                "reply {index} of a durable batch"
            );
            match sc.acks[*index] {
                Ack::Grant(op) => acked_grants.push(op),
                Ack::Commit(t) => acked_commits.push(t),
            }
        } else {
            assert_eq!(
                *decision,
                Decision::Aborted(AbortReason::Injected),
                "reply {index} of the failed batch (or later) must not be an ack"
            );
        }
    }
    assert!(!acked_commits.is_empty(), "the fault must land mid-run");
    assert!(acked_commits.len() < sc.sessions.len());
    assert_eq!(o.out.committed, acked_commits, "the core reports acks only");
    for (t, &s) in sc.sessions.iter().enumerate() {
        let acked = acked_commits.contains(&TxnId(t as u32));
        assert_eq!(o.table.lookup(s).is_some(), acked, "session {s}");
    }

    // Recovery of the synced prefix: exactly the acknowledged commits —
    // none the client was never acked, every one it was — and every
    // acknowledged grant.
    let (txns, spec) = universe(sc.sessions.len());
    let mut fresh = RsgSgt::new(&txns, &spec);
    let rec = recover(&txns, &spec, &mut fresh, &o.synced).expect("synced prefix recovers");
    assert_eq!(rec.committed, acked_commits);
    let durable_grants: Vec<OpId> = scan(&o.synced)
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Grant(op) => Some(*op),
            _ => None,
        })
        .collect();
    assert_eq!(durable_grants, acked_grants);
}

/// (d) a failing barrier in the middle of a run.
#[test]
fn failed_barrier_acknowledges_nothing_of_its_batch() {
    let (n, batch_max) = (10, 8); // 40 commands, 5 batches
                                  // Sync 0 is the header; batch i's barrier is sync i + 1.
    let (sc, o) = run(
        n,
        batch_max,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        None,
        Some(3),
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("fsync"));
    assert!(
        o.bytes.len() > o.synced.len(),
        "the batch was written, not synced"
    );
    assert_failed_batch_unacked(&sc, &o, batch_max, 2);
}

/// (d) a failing (torn) append in the middle of a run.
#[test]
fn failed_append_acknowledges_nothing_of_its_batch() {
    let (n, batch_max) = (10, 8);
    // Append 0 is the header; batch i's write is append i + 1. 30 torn
    // bytes leave whole valid frames of the dead batch on storage, past
    // the synced watermark.
    let (sc, o) = run(
        n,
        batch_max,
        FsyncPolicy::Always,
        &FaultPlan::default(),
        Some((3, 30)),
        None,
    );
    assert!(o.out.wal_error.as_deref().unwrap().contains("append"));
    assert_eq!(o.bytes.len(), o.synced.len() + 30);
    assert_failed_batch_unacked(&sc, &o, batch_max, 2);
}

/// A planned crash in the middle of a batch: the commands of that batch
/// applied before the crash point die with it — records appended, barrier
/// pending, acks held is exactly the window the crash cuts.
#[test]
fn planned_crash_mid_batch_unwinds_the_batch_held_acks() {
    let (n, batch_max) = (10, 8);
    let faults = FaultPlan {
        crash_at_command: Some(21), // batch 2 = commands 16..24
        ..FaultPlan::default()
    };
    let (sc, o) = run(n, batch_max, FsyncPolicy::Always, &faults, None, None);
    assert_eq!(o.out.wal_error, None);
    assert_eq!(o.out.commands, 21);
    assert_eq!(o.bytes, o.synced, "the dead batch never reached storage");
    assert_failed_batch_unacked(&sc, &o, batch_max, 2);
}

/// The one `Command::Commit` picks its commit record from the session
/// alone — `Commit` without one, `CommitSession` with one, the ack asked
/// for or not — and the log is, byte for byte, the one those records
/// make.
#[test]
fn the_one_commit_command_picks_its_record_from_the_session_alone() {
    use relser_wal::MemStorage;

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
    let mut expected = Vec::new();
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

    let (mem, handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
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
    assert_eq!(scan(&handle.bytes()).records, expected);

    let (mem, by_hand) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
    for rec in &expected {
        wal.append(rec).unwrap();
    }
    wal.close().unwrap();
    assert_eq!(handle.bytes(), by_hand.bytes(), "byte for byte");
}
