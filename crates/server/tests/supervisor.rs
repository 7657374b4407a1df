//! The supervisor's panic branch and its restart budget, driven through
//! `supervise_shard` directly: no socket, one sequential client, a
//! scheduler that panics when asked for one planted operation.
//!
//! The planted operation is never granted, so no record of it reaches the
//! log and recovery never replays it: each restart rebuilds the shard
//! from its log, rolls the panicking transaction's incarnation back, and
//! the client runs it again from its begin. Whatever happens to the
//! shard, every commit the client was acknowledged is in the recovered
//! log.

use relser_core::ids::{OpId, TxnId};
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Decision, Scheduler};
use relser_server::core::{Ack, Command, Reply};
use relser_server::recovery::{recover_segments_with_certifier, Certifier};
use relser_server::{
    fence_resumed_shard, recover_and_resume, supervise_shard, BoundedQueue, FaultPlan, Progress,
    RecoveryError, SessionTable, ShardHealth, SupervisedRun, SupervisorCfg, MAX_RESTARTS,
};
use relser_wal::{
    CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, MemSegmentsHandle, SegmentedWal,
    WalRecord,
};
use relser_workload::random::{random_spec, shard_local_txns, RandomConfig};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;

/// RSG-SGT that panics when asked for `op`, as long as `left` (shared by
/// every incarnation the supervisor makes) is not used up.
struct PanicsOn<'a> {
    inner: RsgSgt,
    op: OpId,
    left: &'a AtomicU32,
}

impl Scheduler for PanicsOn<'_> {
    fn name(&self) -> &'static str {
        "PanicsOn"
    }

    fn begin(&mut self, txn: TxnId) {
        self.inner.begin(txn);
    }

    fn request(&mut self, op: OpId) -> Decision {
        let planted = op == self.op
            && self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
        if planted {
            panic!("planted scheduler panic on {op:?}");
        }
        self.inner.request(op)
    }

    fn commit(&mut self, txn: TxnId) {
        self.inner.commit(txn);
    }

    fn abort(&mut self, txn: TxnId) {
        self.inner.abort(txn);
    }

    fn retired(&self, txn: TxnId) -> bool {
        self.inner.retired(txn)
    }
}

fn universe() -> (TxnSet, AtomicitySpec) {
    let cfg = RandomConfig {
        txns: 16,
        ops_per_txn: (2, 4),
        objects: 8,
        theta: 0.6,
        write_ratio: 0.5,
    };
    let txns = shard_local_txns(&cfg, &ShardMap::new(SHARDS), 0x5EED);
    let spec = random_spec(&txns, 0.4, 0x5EED);
    (txns, spec)
}

/// The transactions `shard` owns, in id order.
fn owned(txns: &TxnSet, shard: u32) -> Vec<TxnId> {
    let map = ShardMap::new(SHARDS);
    txns.txn_ids()
        .filter(|&t| map.owner_of_txn(txns, t) == Some(shard))
        .collect()
}

/// Sends `cmd` and waits for its verdict. `None`: the verdict never comes
/// (the queue is closed, or the core panicked and dropped the cell).
fn call(
    queue: &BoundedQueue<Command>,
    health: &ShardHealth,
    cmd: impl FnOnce(Reply) -> Command,
) -> Option<Decision> {
    let reply = Reply::new();
    let panics = health.panics();
    queue.push_wait(cmd(reply.clone())).ok()?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while !reply.wait_filled(Duration::from_millis(1)) {
        if health.panics() != panics || health.is_failed() {
            return None;
        }
        assert!(Instant::now() < deadline, "no verdict and no panic");
    }
    reply.try_take()
}

/// Runs `txn` on its shard until its commit is acknowledged, restarting
/// it from its begin whenever an incarnation is lost. `false`: the
/// supervisor abandoned the shard first.
fn commit(txns: &TxnSet, queue: &BoundedQueue<Command>, health: &ShardHealth, txn: TxnId) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    'incarnation: loop {
        assert!(Instant::now() < deadline, "{txn:?} never committed");
        if health.is_failed() {
            return false;
        }
        if !health.is_live() || queue.push_wait(Command::Begin(txn)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        for op in txns.txn(txn).op_ids() {
            let request = |reply| Command::Request {
                op,
                enqueued: Instant::now(),
                reply,
            };
            if call(queue, health, request) != Some(Decision::Granted) {
                continue 'incarnation;
            }
        }
        let commit = |reply| Command::Commit {
            txn,
            ops: txns.txn(txn).len() as u32,
            ack: Some(Ack {
                enqueued: Instant::now(),
                reply,
                session: None,
            }),
        };
        if call(queue, health, commit) == Some(Decision::Granted) {
            return true;
        }
    }
}

/// Two supervised shards; shard 0's scheduler panics on the second
/// operation of its first multi-operation transaction, `panics` times in
/// all. One client commits shard 0's transactions, then shard 1's, each
/// in id order, leaving a shard once it is abandoned. Returns each shard's
/// run, acknowledged commits and recovered commits.
fn run(panics: u32) -> Vec<(SupervisedRun, Vec<TxnId>, Vec<TxnId>)> {
    let (txns, spec) = universe();
    let victim = owned(&txns, 0)
        .into_iter()
        .find(|&t| txns.txn(t).len() >= 2)
        .expect("shard 0 owns a multi-operation transaction");
    let planted = OpId {
        txn: victim,
        index: 1,
    };
    let left = AtomicU32::new(panics);
    let cfg = SupervisorCfg {
        txns: &txns,
        spec: &spec,
        ckpt: CheckpointPolicy::default(),
        batch_max: 8,
        record_trace: false,
    };
    let queues: Vec<BoundedQueue<Command>> = (0..SHARDS).map(|_| BoundedQueue::new(64)).collect();
    let progresses: Vec<Progress> = (0..SHARDS).map(|_| Progress::new()).collect();
    let healths: Vec<ShardHealth> = (0..SHARDS).map(|_| ShardHealth::new()).collect();
    let stores: Vec<MemSegmentsHandle> = (0..SHARDS).map(|_| MemSegmentStore::new().1).collect();
    let (sessions, stop, faults) = (
        SessionTable::new(),
        AtomicBool::new(false),
        FaultPlan::default(),
    );

    let (runs, acked) = std::thread::scope(|s| {
        let supervisors: Vec<_> = (0..SHARDS as usize)
            .map(|shard| {
                let (queue, progress, health, store) = (
                    &queues[shard],
                    &progresses[shard],
                    &healths[shard],
                    &stores[shard],
                );
                let (txns, spec, left, cfg) = (&txns, &spec, &left, &cfg);
                let (sessions, stop, faults) = (&sessions, &stop, &faults);
                s.spawn(move || {
                    let make = || {
                        Box::new(PanicsOn {
                            inner: RsgSgt::new(txns, spec),
                            op: planted,
                            left,
                        }) as Box<dyn Scheduler + Send>
                    };
                    supervise_shard(
                        make,
                        queue,
                        progress,
                        faults,
                        store,
                        health,
                        sessions,
                        stop,
                        shard as u32,
                        cfg,
                    )
                })
            })
            .collect();
        let acked: Vec<Vec<TxnId>> = (0..SHARDS)
            .map(|shard| {
                let (queue, health) = (&queues[shard as usize], &healths[shard as usize]);
                owned(&txns, shard)
                    .into_iter()
                    .take_while(|&t| commit(&txns, queue, health, t))
                    .collect()
            })
            .collect();
        // A supervisor mid-recovery reopens its queue: keep closing until
        // every shard loop has exited.
        stop.store(true, Ordering::Release);
        while !supervisors.iter().all(|h| h.is_finished()) {
            queues.iter().for_each(BoundedQueue::close);
            std::thread::sleep(Duration::from_millis(1));
        }
        let runs: Vec<SupervisedRun> = supervisors.into_iter().map(|h| h.join().unwrap()).collect();
        (runs, acked)
    });

    runs.into_iter()
        .zip(acked)
        .zip(&stores)
        .map(|((run, acked), store)| {
            let mut fresh = RsgSgt::new(&txns, &spec);
            let (_, rec) = recover_segments_with_certifier(
                &txns,
                &spec,
                &mut fresh,
                &store.segments(),
                Certifier::VClock,
            )
            .expect("the shard's log recovers");
            (run, acked, rec.committed)
        })
        .collect()
}

fn assert_acked_recovered(shard: usize, acked: &[TxnId], recovered: &[TxnId]) {
    for t in acked {
        assert!(
            recovered.contains(t),
            "shard {shard}: acked commit {t:?} is recovered"
        );
    }
}

/// A scheduler that panics once: the shard restarts in place, the
/// transaction it panicked in runs again and commits, and so does every
/// other one.
#[test]
fn a_panicking_shard_core_restarts_in_place_and_keeps_every_ack() {
    let (txns, _) = universe();
    let shards = run(1);
    let (run, acked, recovered) = &shards[0];
    assert_eq!((run.restarts, run.panics, run.gave_up), (1, 1, false));
    assert_eq!(
        acked,
        &owned(&txns, 0),
        "every transaction of shard 0 committed"
    );
    for (shard, (run, acked, recovered)) in shards.iter().enumerate() {
        assert_acked_recovered(shard, acked, recovered);
        assert!(!run.gave_up);
    }
    assert_eq!(recovered.len(), acked.len());
}

/// A scheduler that panics on the same operation every time: the shard is
/// restarted `MAX_RESTARTS` times, then abandoned; the other shard
/// finishes, and neither loses an acknowledged commit.
#[test]
fn a_shard_that_keeps_panicking_is_abandoned_after_its_budget() {
    let (txns, _) = universe();
    let shards = run(u32::MAX);
    let (run, _, _) = &shards[0];
    assert!(run.gave_up, "shard 0 is abandoned");
    assert_eq!(run.restarts, MAX_RESTARTS);
    assert_eq!(run.panics, MAX_RESTARTS + 1);
    let failed = shards.iter().filter(|(run, _, _)| run.gave_up).count();
    assert_eq!(failed, 1, "only the panicking shard fails");
    let (other, acked, _) = &shards[1];
    assert_eq!((other.restarts, other.panics), (0, 0));
    assert_eq!(acked, &owned(&txns, 1), "the other shard finishes");
    for (shard, (_, acked, recovered)) in shards.iter().enumerate() {
        assert_acked_recovered(shard, acked, recovered);
    }
}

/// A store recovery refuses — its segment begins a transaction outside
/// the universe — is fenced, never served, and given up on before a
/// first incarnation runs, with the refusal's reason as the output's
/// `wal_error`.
#[test]
fn a_foreign_store_is_given_up_on_with_the_reason_recovery_refused_it() {
    let (txns, spec) = universe();
    let (store, handle) = MemSegmentStore::new();
    let never = CheckpointPolicy::never();
    let mut wal = SegmentedWal::new(Box::new(store), FsyncPolicy::Always, never).unwrap();
    let foreign = WalRecord::Begin(TxnId(99));
    wal.append(&foreign).unwrap();
    wal.close().unwrap();
    drop(wal);
    let cfg = SupervisorCfg {
        txns: &txns,
        spec: &spec,
        ckpt: never,
        batch_max: 8,
        record_trace: false,
    };
    let (queue, health) = (BoundedQueue::new(8), ShardHealth::new());
    fence_resumed_shard(&handle, &queue, &health);
    assert!(health.is_recovering(), "a written store is fenced");
    let run = supervise_shard(
        || Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + Send>,
        &queue,
        &Progress::new(),
        &FaultPlan::default(),
        &handle,
        &health,
        &SessionTable::new(),
        &AtomicBool::new(false),
        0,
        &cfg,
    );
    assert!(run.gave_up && health.is_failed());
    assert_eq!((run.restarts, run.panics), (0, 0));
    let reason = run.output.wal_error.expect("the refusal is reported");
    assert!(reason.contains(&format!("{foreign:?}")), "{reason}");
}

/// A written store opened as another shard's is refused with
/// `ShardMismatch` and left as it was, rather than resumed and re-stamped
/// with the wrong shard id (which sharded recovery would only answer
/// later, with `NotOwner`, after new commits were acknowledged on it).
#[test]
fn a_store_of_another_shard_is_refused_and_left_untouched() {
    let (txns, spec) = universe();
    let never = CheckpointPolicy::never();
    let handle = MemSegmentStore::new().1;
    let fresh = Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + Send>;
    let (mut wal, _, _) = recover_and_resume(handle.clone(), fresh, &txns, &spec, 1, never)
        .expect("an empty store opens as shard 1");
    let t = owned(&txns, 1)[0];
    wal.append(&WalRecord::Begin(t)).unwrap();
    for j in 0..txns.txn(t).len() as u32 {
        wal.append(&WalRecord::Grant(OpId::new(t, j))).unwrap();
    }
    wal.append(&WalRecord::Commit(t)).unwrap();
    wal.close().unwrap();
    drop(wal);
    let written = handle.segments();

    let fresh = Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + Send>;
    let refused = match recover_and_resume(handle.clone(), fresh, &txns, &spec, 0, never) {
        Ok(_) => panic!("shard 1's store opened as shard 0"),
        Err(e) => e,
    };
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
    let reason = refused
        .get_ref()
        .and_then(|e| e.downcast_ref::<RecoveryError>())
        .expect("the payload is the RecoveryError");
    assert_eq!(
        reason,
        &RecoveryError::ShardMismatch {
            expected: 0,
            found: 1
        }
    );
    assert_eq!(handle.segments(), written, "the refused store is untouched");

    // Its own shard still opens it, with the commit.
    let fresh = Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + Send>;
    let (_, _, rec) = recover_and_resume(handle, fresh, &txns, &spec, 1, never).unwrap();
    assert_eq!(rec.committed, [t]);
}
