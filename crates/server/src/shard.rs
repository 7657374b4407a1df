//! Sharded admission: N single-writer cores behind one object-space router.
//!
//! The single-core service serializes *every* admission decision through
//! one thread; at some throughput that thread is the wall. This module
//! partitions the object space over N shard cores — each owns its shard's
//! scheduler, progress epoch, and (optionally) WAL segment stream — and
//! puts a [`ShardMap`]-driven router in front. The one correctness story
//! is unchanged: whatever the shards interleave, the committed history,
//! merged whole, must pass the offline Theorem 1 oracle.
//!
//! ## Routing
//!
//! A transaction whose objects all hash to one shard runs the ordinary
//! session protocol entirely against that shard's queue — no coordination,
//! no extra messages; this is the common case sharding exists to scale.
//!
//! A **cross-shard** transaction runs a lightweight two-phase admit:
//!
//! 1. **Admit.** The router takes a *shard-set lease* on every owning
//!    shard (all-or-wait, so overlapping cross-shard transactions never
//!    interleave their admit→commit windows), then fans
//!    [`Command::Admit`] out to the owners in ascending shard order. Each
//!    admit carries an [`ArcExchange`] snapshot of every shard's commit
//!    epoch — the cross-shard D-arc summary each core folds into its
//!    clock. Any shard's reject aborts the whole admit: the router sends
//!    [`Command::Rollback`] to the shards that already granted, in LIFO
//!    order, releases the lease, and retries with backoff.
//! 2. **Commit.** After every operation is granted (each routed to its
//!    owning shard), the router draws one global commit stamp and sends
//!    [`Command::CommitAt`] to every owner. A transaction *counts as
//!    committed only if every owning shard applied its `CommitAt`* — the
//!    same all-owners rule
//!    [`crate::recovery::recover_sharded_segments_with_certifier`] applies
//!    to the per-shard WAL streams after a crash.
//!
//! ## Why the lease makes per-shard admission sound
//!
//! Conflicts are per-object, and an object lives on exactly one shard, so
//! every conflict arc of the merged history is visible to some shard.
//! Each shard's scheduler holds the full static transaction set and spec
//! (the whole I-skeleton), so any cycle whose conflict anchors all live
//! on one shard is caught locally. A cycle spanning shards must hop
//! between them through cross-shard transactions with pairwise-overlapping
//! shard sets — exactly the pairs the lease serializes: their
//! admit→commit windows are disjoint, every conflict chain between them
//! follows history order, so the hop chain would need the windows to
//! precede each other cyclically. Contradiction. The offline oracle
//! re-certifies every committed multi-shard history whole regardless —
//! the stress tests and sharded recovery both insist on it — so the lease
//! argument is enforced, not assumed.
//!
//! ## Determinism
//!
//! Each core's trace is still a total order of *its* decisions, so
//! [`replay_sharded`] re-runs every shard single-threaded and checks each
//! against its trace. Across shards, every grant draws a ticket from one
//! global sequencer ([`CoreOutput::seq_log`]), which merges the per-shard
//! logs onto a single timeline consistent with program order and every
//! core's queue order; cross-shard admits are recorded in fan-out order
//! as [`AdmitRecord`]s while the lease is held.

use crate::core::{
    run_core, Command, CoreOutput, FaultPlan, Progress, Reply, ShardCoreCtx, TraceEvent,
};
use crate::metrics::ServerMetrics;
use crate::queue::{BoundedQueue, PushError};
use crate::server::{replay, ReplayMismatch, RunOutcome, ServerConfig, ServerError};
use crate::session::{restart_backoff, run_session, OverloadPolicy, SessionError, SessionStats};
use relser_core::ids::{OpId, TxnId};
use relser_core::schedule::Schedule;
use relser_core::shard::{ArcExchange, ShardMap};
use relser_core::txn::TxnSet;
use relser_protocols::{Decision, Scheduler};
use relser_simdb::metrics::DecisionLatency;
use relser_wal::CommitLog;
use relser_workload::stream::RequestStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shard-set leases: strict two-phase locking at shard granularity for
/// cross-shard transactions only. `acquire` takes every requested shard
/// atomically or waits — no incremental hold-and-wait, so lease waiters
/// cannot deadlock each other.
struct LeaseTable {
    held: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl LeaseTable {
    fn new(shards: usize) -> Self {
        LeaseTable {
            held: Mutex::new(vec![false; shards]),
            cv: Condvar::new(),
        }
    }

    /// Blocks until every shard in `shards` is free, then takes them all.
    fn acquire(&self, shards: &[u32]) {
        let mut held = self.held.lock().expect("lease lock");
        loop {
            if shards.iter().all(|&s| !held[s as usize]) {
                for &s in shards {
                    held[s as usize] = true;
                }
                return;
            }
            // Timed wait as a lost-wakeup backstop: release paths always
            // notify, but a bounded re-check keeps a bug from hanging a run.
            let (guard, _) = self
                .cv
                .wait_timeout(held, Duration::from_millis(10))
                .expect("lease lock");
            held = guard;
        }
    }

    fn release(&self, shards: &[u32]) {
        let mut held = self.held.lock().expect("lease lock");
        for &s in shards {
            held[s as usize] = false;
        }
        drop(held);
        self.cv.notify_all();
    }
}

/// One cross-shard admit as the router issued it, recorded while the
/// shard-set lease was held — so the order of these records *is* the
/// serialization order of overlapping cross-shard transactions.
#[derive(Clone, Debug)]
pub struct AdmitRecord {
    /// The admitted transaction.
    pub txn: TxnId,
    /// Its owning shards, ascending (the fan-out order).
    pub shards: Vec<u32>,
    /// The commit-epoch snapshot piggybacked on the admit messages (the
    /// cross-shard D-arc summary each owner folded into its clock).
    pub epochs: Vec<u64>,
    /// Whether every owner granted (false = some shard rejected and the
    /// grants were rolled back LIFO).
    pub granted: bool,
}

/// The full observable result of a sharded run — returned even when the
/// run crashed or failed, so harnesses can check the committed prefix
/// against the offline oracles.
#[derive(Debug)]
pub struct ShardedReport {
    /// How the run ended (a crash on *any* shard reports `Crashed`).
    pub outcome: RunOutcome,
    /// Transactions committed on **all** their owning shards, in global
    /// commit-stamp order. A transaction a crash caught between
    /// `CommitAt`s (durable on some owners, not all) is excluded — the
    /// same all-owners rule recovery applies.
    pub committed: Vec<TxnId>,
    /// All shards' granted operations merged onto the global grant
    /// sequencer timeline (live/committed incarnations only).
    pub log: Vec<OpId>,
    /// [`ShardedReport::log`] filtered to [`ShardedReport::committed`]:
    /// the merged committed history to hand the offline oracle.
    pub history: Vec<OpId>,
    /// Each shard core's raw output (per-shard log, trace, counters).
    pub shards: Vec<CoreOutput>,
    /// Aggregate metrics across all shard cores (see
    /// [`ServerMetrics::merge`]); `decision` is rebuilt exactly from the
    /// concatenated per-shard samples.
    pub metrics: ServerMetrics,
    /// Requests shed per shard queue (aggregate is in `metrics.sheds`).
    pub shard_sheds: Vec<u64>,
    /// Cross-shard admits in lease order.
    pub admits: Vec<AdmitRecord>,
    /// The object-space partition the run used.
    pub map: ShardMap,
}

/// A completed sharded run: every transaction committed and the merged
/// history validated as a [`Schedule`].
#[derive(Debug)]
pub struct ShardedRun {
    /// The merged committed history, in global grant order.
    pub history: Schedule,
    /// The full report (per-shard traces, metrics, admit records).
    pub report: ShardedReport,
}

impl ShardedReport {
    /// The completed run — every transaction committed, the merged
    /// history validated as a [`Schedule`] — or the error that says why
    /// there is none.
    pub fn into_run(self, txns: &TxnSet) -> Result<ShardedRun, ServerError> {
        self.outcome.completed()?;
        let history = Schedule::new(txns, self.history.clone())
            .map_err(|e| ServerError::InvalidHistory(e.to_string()))?;
        Ok(ShardedRun {
            history,
            report: self,
        })
    }
}

/// Serves every transaction in `stream` over `schedulers.len()` shard
/// cores — the in-process front-end of the sharded service. One scheduler
/// per shard; each must be built over the full transaction set and spec
/// (a shard sees only its shard's operations, but needs the whole
/// I-skeleton to judge them). Reports even a partial run;
/// [`ShardedReport::into_run`] turns a completed one into its validated
/// merged history.
///
/// `faults` is either empty (no faults) or one plan per shard; `wals` is
/// either empty (non-durable) or one log per shard. Shard `i`'s WAL
/// stream carries shard id `i` in its checkpoints, and
/// [`crate::recovery::recover_sharded_segments_with_certifier`] rebuilds
/// the merged committed history from exactly these streams after a crash.
pub fn serve_sharded<'a>(
    txns: &TxnSet,
    stream: &RequestStream,
    schedulers: Vec<Box<dyn Scheduler + Send + 'a>>,
    cfg: &ServerConfig,
    faults: &[FaultPlan],
    wals: Vec<&mut dyn CommitLog>,
) -> ShardedReport {
    let shards = schedulers.len();
    assert!(shards >= 1, "need at least one shard");
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(
        faults.is_empty() || faults.len() == shards,
        "fault plans must be absent or one per shard"
    );
    assert!(
        wals.is_empty() || wals.len() == shards,
        "commit logs must be absent or one per shard"
    );
    let map = ShardMap::new(shards as u32);
    let queues: Vec<BoundedQueue<Command>> = (0..shards)
        .map(|_| BoundedQueue::new(cfg.queue_capacity))
        .collect();
    let progresses: Vec<Progress> = (0..shards).map(|_| Progress::new()).collect();
    let epochs: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let shard_sheds: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let seq = AtomicU64::new(0);
    let stamps = AtomicU64::new(0);
    let leases = LeaseTable::new(shards);
    let admits: Mutex<Vec<AdmitRecord>> = Mutex::new(Vec::new());
    let default_fault = FaultPlan::default();
    let t0 = Instant::now();

    let (outputs, sessions): (Vec<CoreOutput>, Vec<(SessionStats, Option<SessionError>)>) =
        std::thread::scope(|s| {
            let queues = &queues;
            let progresses = &progresses;
            let epochs = &epochs;
            let seq = &seq;
            let mut cores = Vec::with_capacity(shards);
            let mut wal_iter = wals.into_iter();
            for (shard_id, scheduler) in schedulers.into_iter().enumerate() {
                let fault = if faults.is_empty() {
                    &default_fault
                } else {
                    &faults[shard_id]
                };
                let wal = wal_iter.next();
                cores.push(s.spawn(move || {
                    run_core(
                        scheduler,
                        &queues[shard_id],
                        &progresses[shard_id],
                        cfg.core(),
                        fault,
                        wal,
                        Some(ShardCoreCtx {
                            shard: shard_id as u32,
                            seq,
                            epochs,
                            sessions: None,
                            recovered_committed: Vec::new(),
                            recovered_events: Vec::new(),
                        }),
                    )
                }));
            }
            let mut workers = Vec::with_capacity(cfg.workers);
            for _ in 0..cfg.workers {
                let router = RouterCtx {
                    map,
                    txns,
                    cfg,
                    queues,
                    progresses,
                    epochs,
                    stamps: &stamps,
                    leases: &leases,
                    admits: &admits,
                    shard_sheds: &shard_sheds,
                };
                workers.push(s.spawn(move || {
                    run_session(
                        stream,
                        |txn, stats| run_txn_sharded(&router, txn, stats),
                        || queues.iter().for_each(BoundedQueue::close),
                    )
                }));
            }
            let sessions: Vec<(SessionStats, Option<SessionError>)> = workers
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect();
            queues.iter().for_each(BoundedQueue::close);
            let outputs: Vec<CoreOutput> = cores
                .into_iter()
                .map(|h| h.join().expect("shard core panicked"))
                .collect();
            (outputs, sessions)
        });
    let elapsed = t0.elapsed();

    let outcome = RunOutcome::of(outputs.iter().any(|o| o.crashed), &sessions);

    // Committed = the all-owners rule over the live `CommitAt` applications,
    // ordered by global commit stamp.
    let mut acked: Vec<Vec<u32>> = vec![Vec::new(); txns.len()];
    let mut stamp_of: Vec<Option<u64>> = vec![None; txns.len()];
    for (shard_id, out) in outputs.iter().enumerate() {
        for &(t, stamp) in &out.commit_stamps {
            acked[t.index()].push(shard_id as u32);
            stamp_of[t.index()] = Some(stamp);
        }
    }
    let mut committed: Vec<TxnId> = txns
        .txn_ids()
        .filter(|t| {
            !acked[t.index()].is_empty()
                && map
                    .shards_of_txn(txns, *t)
                    .iter()
                    .all(|s| acked[t.index()].contains(s))
        })
        .collect();
    committed.sort_by_key(|t| stamp_of[t.index()].expect("committed txn has a stamp"));

    // Merge every shard's grants onto the global sequencer timeline.
    let mut seq_entries: Vec<(u64, OpId)> = outputs
        .iter()
        .flat_map(|o| o.seq_log.iter().copied())
        .collect();
    seq_entries.sort_by_key(|&(ticket, _)| ticket);
    let log: Vec<OpId> = seq_entries.into_iter().map(|(_, op)| op).collect();
    let mut is_committed = vec![false; txns.len()];
    for t in &committed {
        is_committed[t.index()] = true;
    }
    let history: Vec<OpId> = log
        .iter()
        .copied()
        .filter(|o| is_committed[o.txn.index()])
        .collect();

    // Aggregate metrics: merge the per-shard views, then rebuild the
    // decision summary exactly from the concatenated samples (merge alone
    // is conservative on p95) and fold in the session-side counters.
    let mut metrics = outputs
        .iter()
        .enumerate()
        .map(|(shard_id, out)| ServerMetrics {
            sheds: shard_sheds[shard_id].load(Ordering::Relaxed),
            ..ServerMetrics::from_core(out, queues[shard_id].stats(), elapsed)
        })
        .reduce(|mut agg, m| {
            agg.merge(&m);
            agg
        })
        .expect("at least one shard")
        .with_sessions(&sessions);
    metrics.workers = cfg.workers;
    let decision_samples: Vec<u64> = outputs
        .iter()
        .flat_map(|o| o.decision_ns.iter().copied())
        .collect();
    metrics.decision = DecisionLatency::from_samples(&decision_samples);
    // `commits` counted one per (shard, CommitAt); report whole transactions.
    metrics.commits = committed.len() as u64;
    metrics.committed_ops = history.len() as u64;

    ShardedReport {
        outcome,
        committed,
        log,
        history,
        shards: outputs,
        metrics,
        shard_sheds: shard_sheds.into_iter().map(|s| s.into_inner()).collect(),
        admits: admits.into_inner().expect("admit log lock"),
        map,
    }
}

/// Everything one router session needs, shared across all workers.
struct RouterCtx<'a> {
    map: ShardMap,
    txns: &'a TxnSet,
    cfg: &'a ServerConfig,
    queues: &'a [BoundedQueue<Command>],
    progresses: &'a [Progress],
    epochs: &'a [AtomicU64],
    stamps: &'a AtomicU64,
    leases: &'a LeaseTable,
    admits: &'a Mutex<Vec<AdmitRecord>>,
    shard_sheds: &'a [AtomicU64],
}

/// How one cross-shard incarnation ended (lease released either way).
enum Incarnation {
    Committed,
    Retry,
    TimeoutRetry,
}

impl RouterCtx<'_> {
    fn send(&self, shard: u32, cmd: Command) -> Result<(), SessionError> {
        self.queues[shard as usize]
            .push_wait(cmd)
            .map_err(|_| SessionError::Shutdown)
    }

    /// Enqueues an operation request on its owning shard under the
    /// configured overload policy, counting sheds per shard.
    fn send_request(
        &self,
        shard: u32,
        op: OpId,
        reply: Reply,
        stats: &mut SessionStats,
    ) -> Result<(), SessionError> {
        let mut cmd = Command::Request {
            op,
            enqueued: Instant::now(),
            reply,
        };
        loop {
            match self.cfg.policy {
                OverloadPolicy::Wait => return self.send(shard, cmd),
                OverloadPolicy::Shed => match self.queues[shard as usize].try_push(cmd) {
                    Ok(()) => return Ok(()),
                    Err(PushError::Closed(_)) => return Err(SessionError::Shutdown),
                    Err(PushError::Full(back)) => {
                        stats.sheds += 1;
                        self.shard_sheds[shard as usize].fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(self.cfg.retry_slice);
                        cmd = match back {
                            Command::Request { op, reply, .. } => Command::Request {
                                op,
                                enqueued: Instant::now(),
                                reply,
                            },
                            other => other,
                        };
                    }
                },
            }
        }
    }

    fn do_op_work(&self) {
        if self.cfg.op_work_ns == 0 {
            return;
        }
        std::thread::sleep(Duration::from_nanos(self.cfg.op_work_ns));
    }

    /// The current cross-shard D-arc summary, addressed to `dest`.
    fn snapshot_exchange(&self, dest: u32) -> ArcExchange {
        let mut ex = ArcExchange::new(dest, self.epochs.len() as u32);
        for (i, e) in self.epochs.iter().enumerate() {
            ex.epochs[i] = e.load(Ordering::SeqCst);
        }
        ex
    }

    /// Best-effort LIFO rollback on shards that already granted an admit
    /// or still hold a begun incarnation. Send failures are swallowed: a
    /// closed queue means that core crashed or the run is unwinding, and
    /// recovery's all-owners rule makes the half-admitted state harmless.
    fn rollback_lifo(&self, txn: TxnId, shards: &[u32]) {
        for &s in shards.iter().rev() {
            let _ = self.send(s, Command::Rollback(txn));
        }
    }
}

/// Runs one transaction to commit through the shard router (restarting
/// across aborts and rejected admits).
fn run_txn_sharded(
    ctx: &RouterCtx<'_>,
    txn: TxnId,
    stats: &mut SessionStats,
) -> Result<(), SessionError> {
    let owners = ctx.map.shards_of_txn(ctx.txns, txn);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        stats.max_txn_attempts = stats.max_txn_attempts.max(attempts);
        if attempts > ctx.cfg.max_attempts {
            return Err(SessionError::Livelock(txn));
        }
        if attempts > 1 {
            stats.restarts += 1;
            let pause = restart_backoff(
                ctx.cfg.restart_backoff,
                ctx.cfg.restart_backoff_max,
                ctx.cfg.backoff_seed,
                txn,
                attempts,
            );
            if !pause.is_zero() {
                stats.backoff_ns += pause.as_nanos() as u64;
                std::thread::sleep(pause);
            }
        }
        let outcome = if owners.len() == 1 {
            single_shard_incarnation(ctx, txn, owners[0], stats)
        } else {
            // Strict 2PL at shard granularity: hold the whole shard set
            // from before the first admit until after the last CommitAt
            // (or the rollback), so overlapping cross-shard transactions
            // never interleave.
            ctx.leases.acquire(&owners);
            let outcome = multi_shard_incarnation(ctx, txn, &owners, stats);
            ctx.leases.release(&owners);
            outcome
        };
        match outcome? {
            Incarnation::Committed => {
                stats.commits += 1;
                return Ok(());
            }
            Incarnation::Retry => {}
            Incarnation::TimeoutRetry => {
                stats.timeout_aborts += 1;
            }
        }
    }
}

/// One incarnation of a single-shard transaction: the ordinary session
/// protocol against one shard's queue, with the commit drawn from the
/// global stamp counter so it lands on the merged commit order.
fn single_shard_incarnation(
    ctx: &RouterCtx<'_>,
    txn: TxnId,
    shard: u32,
    stats: &mut SessionStats,
) -> Result<Incarnation, SessionError> {
    ctx.send(shard, Command::Begin(txn))?;
    match run_ops(ctx, txn, &[shard], stats)? {
        OpsOutcome::Done => {}
        OpsOutcome::Aborted => return Ok(Incarnation::Retry),
        OpsOutcome::TimedOut => return Ok(Incarnation::TimeoutRetry),
    }
    let stamp = ctx.stamps.fetch_add(1, Ordering::SeqCst);
    ctx.send(shard, Command::CommitAt { txn, stamp })?;
    Ok(Incarnation::Committed)
}

/// One incarnation of a cross-shard transaction. The caller holds the
/// shard-set lease for the whole call.
fn multi_shard_incarnation(
    ctx: &RouterCtx<'_>,
    txn: TxnId,
    owners: &[u32],
    stats: &mut SessionStats,
) -> Result<Incarnation, SessionError> {
    // Phase 1: fan the admit out in ascending shard order, each message
    // carrying the epoch snapshot (the D-arc summary).
    let epochs_snapshot = ctx.snapshot_exchange(0).epochs;
    let mut granted: Vec<u32> = Vec::new();
    let mut rejected = false;
    for &s in owners {
        let reply = Reply::new();
        let mut exchange = ArcExchange::new(s, ctx.epochs.len() as u32);
        exchange.epochs.copy_from_slice(&epochs_snapshot);
        let cmd = Command::Admit {
            txn,
            exchange,
            reply: reply.clone(),
        };
        if let Err(e) = ctx.send(s, cmd) {
            ctx.rollback_lifo(txn, &granted);
            return Err(e);
        }
        match reply.wait_for(ctx.cfg.reply_timeout) {
            Ok(Decision::Granted) => granted.push(s),
            Ok(_) => {
                rejected = true;
                break;
            }
            Err(_) => {
                ctx.rollback_lifo(txn, &granted);
                return Err(SessionError::ReplyLost(txn));
            }
        }
    }
    ctx.admits
        .lock()
        .expect("admit log lock")
        .push(AdmitRecord {
            txn,
            shards: owners.to_vec(),
            epochs: epochs_snapshot,
            granted: !rejected,
        });
    if rejected {
        ctx.rollback_lifo(txn, &granted);
        return Ok(Incarnation::Retry);
    }

    // Phase 2: every operation in program order, each routed to its shard.
    match run_ops(ctx, txn, owners, stats)? {
        OpsOutcome::Done => {}
        OpsOutcome::Aborted => return Ok(Incarnation::Retry),
        OpsOutcome::TimedOut => return Ok(Incarnation::TimeoutRetry),
    }

    // Commit everywhere under one global stamp. Fire-and-forget like the
    // single-core protocol: per-queue FIFO guarantees each owner applies
    // this CommitAt before anything a later lease holder enqueues.
    let stamp = ctx.stamps.fetch_add(1, Ordering::SeqCst);
    for &s in owners {
        ctx.send(s, Command::CommitAt { txn, stamp })?;
    }
    Ok(Incarnation::Committed)
}

enum OpsOutcome {
    Done,
    /// Some shard aborted the transaction; the *other* owners were rolled
    /// back LIFO and the incarnation must restart.
    Aborted,
    /// The session timed itself out while blocked; every owner was
    /// cleaned up and the incarnation must restart.
    TimedOut,
}

/// Submits every operation of `txn` in program order, each to its owning
/// shard, with the single-core block/retry and waits-for-timeout
/// discipline applied per shard.
fn run_ops(
    ctx: &RouterCtx<'_>,
    txn: TxnId,
    owners: &[u32],
    stats: &mut SessionStats,
) -> Result<OpsOutcome, SessionError> {
    let n_ops = ctx.txns.txn(txn).len();
    for index in 0..n_ops {
        let op = OpId {
            txn,
            index: index as u32,
        };
        let shard = ctx
            .map
            .shard_of_op(ctx.txns, op)
            .expect("op of a parsed txn");
        let progress = &ctx.progresses[shard as usize];
        let mut waited_on: Vec<TxnId> = Vec::new();
        let mut blocked_since = Instant::now();
        let mut ever_blocked = false;
        loop {
            let reply = Reply::new();
            let seen = progress.current();
            ctx.send_request(shard, op, reply.clone(), stats)?;
            let decision = reply
                .wait_for(ctx.cfg.reply_timeout)
                .map_err(|_| SessionError::ReplyLost(txn))?;
            match decision {
                Decision::Granted => {
                    ctx.do_op_work();
                    stats.ops_executed += 1;
                    break;
                }
                Decision::Aborted(_) => {
                    // This shard already applied the abort; unwind the
                    // other owners LIFO before restarting.
                    let others: Vec<u32> = owners.iter().copied().filter(|&s| s != shard).collect();
                    ctx.rollback_lifo(txn, &others);
                    return Ok(OpsOutcome::Aborted);
                }
                Decision::Blocked { mut on } => {
                    on.sort_unstable();
                    on.dedup();
                    let now = Instant::now();
                    if !ever_blocked || on != waited_on {
                        ever_blocked = true;
                        waited_on = on;
                        blocked_since = now;
                    } else if now.duration_since(blocked_since) >= ctx.cfg.block_timeout {
                        // Stuck behind the same transactions too long:
                        // abort on the blocking shard (counted there as a
                        // timeout abort), roll the rest back, restart.
                        ctx.send(shard, Command::Abort(txn))?;
                        let others: Vec<u32> =
                            owners.iter().copied().filter(|&s| s != shard).collect();
                        ctx.rollback_lifo(txn, &others);
                        return Ok(OpsOutcome::TimedOut);
                    }
                    // Targeted wait: only changes to the transactions in
                    // this shard's waits-for answer wake us.
                    progress.wait_on(seen, &waited_on, ctx.cfg.retry_slice);
                }
            }
        }
    }
    Ok(OpsOutcome::Done)
}

/// Replays each shard's recorded trace against a fresh scheduler on one
/// thread (see [`replay`]), returning every shard's replayed grant log.
/// Sharded runs stay deterministic per shard: each core's trace is a
/// total order of that core's decisions.
pub fn replay_sharded(
    schedulers: Vec<Box<dyn Scheduler + '_>>,
    traces: &[Vec<TraceEvent>],
) -> Result<Vec<Vec<OpId>>, ReplayMismatch> {
    assert_eq!(schedulers.len(), traces.len(), "one scheduler per trace");
    schedulers
        .into_iter()
        .zip(traces)
        .map(|(mut scheduler, trace)| replay(&mut *scheduler, trace))
        .collect()
}
