//! Sharded admission: N single-writer cores that share nothing, behind
//! one object-space router.
//!
//! The single-core service serializes *every* admission decision through
//! one thread; at some throughput that thread is the wall. This module
//! partitions the object space over N shard cores — each owns its shard's
//! scheduler, progress epoch, and (optionally) WAL segment stream — and
//! routes by [`ShardMap`]: the router is the session itself
//! ([`crate::session`]), which sends a transaction's begin, operations and
//! commit to the one core that owns it. One shard is the unsharded
//! service: [`serve_sharded`] over one scheduler is its only in-process
//! entry point.
//!
//! ## The rule: one owner per transaction
//!
//! A transaction is admissible iff every object it touches hashes to the
//! same shard ([`ShardMap::owner_of_txn`]). One whose objects span shards
//! is **refused**: [`serve_sharded`] checks the whole stream before it
//! starts a thread and fails the run with
//! [`ServerError::CrossShard`], nothing enqueued, nothing logged; the TCP
//! front-end answers such a request `BadRequest`; sharded recovery refuses
//! a log in which a shard committed a transaction it does not own
//! ([`crate::RecoveryError::NotOwner`]).
//!
//! ## Why that is sound, for every scheduler
//!
//! Theorem 1 certifies a history by one `RSG(S)`. Conflicts are
//! per-object and an object lives on exactly one shard, so with
//! single-owner transactions two transactions of different shards share
//! no object: no conflict, hence no D-arc, hence no F- or B-arc joins
//! them, and I-arcs stay inside a transaction. The RSG of the merged
//! history is therefore the **disjoint union** of the per-shard RSGs —
//! acyclic iff each shard's is — and each shard's scheduler certifies its
//! own, seeing every operation of every transaction it owns.
//!
//! ## Why cross-shard transactions are refused, not coordinated
//!
//! Per-shard serialization-graph testing does not compose. Four
//! transactions over two shards (`a, b` on one, `c, f` on the other;
//! `X1 = r[a] w[c]`, `L = w[a] r[b]`, `S = r[c] w[f]`, `X2 = r[f] w[b]`)
//! can run so that the two cross-shard ones never overlap, every request
//! is granted by its shard's `RsgSgt`, one shard sees only
//! `L → X1, X2 → L` and the other only `X1 → S → X2` — and the merged
//! history is the cycle `L → X1 → S → X2 → L`. The single-shard `S` and
//! `L` carry the order from one shard to the other, so no protocol that
//! coordinates only the cross-shard transactions (leases, two-phase
//! admit) closes it; that takes a global serialization graph, which this
//! service does not have. `crates/server/tests/shard.rs` pins the history.
//! Every merged history is still re-certified whole: by the
//! vector-clock certifier in sharded recovery (once, on the merge, which
//! by the disjoint union covers every shard), and by the offline
//! `Rsg::build` in the tests.
//!
//! ## Determinism and the merge rule
//!
//! Each core's trace is a total order of *its* decisions, so
//! [`replay_sharded`] re-runs every shard single-threaded and checks each
//! against its trace. Across shards there is no order to record: the
//! cores share no counter, and no RSG arc joins two shards, so any
//! interleaving of their histories is conflict-equivalent to any other.
//! A merged result therefore lists the shards **in shard order, each in
//! its own core order** — one rule, `merge_shards` below, which both
//! [`serve_sharded`]'s report and sharded recovery
//! ([`crate::recovery::recover_sharded_segments_with_certifier`]) call.

use crate::core::{run_core, Command, CoreOutput, FaultPlan, Progress, ShardCoreCtx, TraceEvent};
use crate::metrics::ServerMetrics;
use crate::queue::BoundedQueue;
use crate::route::Route;
use crate::server::{replay, ReplayMismatch, RunOutcome, ServerConfig, ServerError};
use crate::session::{run_session, Session, SessionError, SessionStats};
use relser_core::ids::{OpId, TxnId};
use relser_core::schedule::Schedule;
use relser_core::shard::ShardMap;
use relser_core::txn::TxnSet;
use relser_protocols::Scheduler;
use relser_simdb::metrics::DecisionLatency;
use relser_wal::CommitLog;
use relser_workload::stream::RequestStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The full observable result of a sharded run — returned even when the
/// run crashed or failed, so harnesses can check the committed prefix
/// against the offline oracles.
#[derive(Debug)]
pub struct ShardedReport {
    /// How the run ended (a crash on *any* shard reports `Crashed`).
    pub outcome: RunOutcome,
    /// Transactions whose owning shard acknowledged their commit, shard
    /// after shard, each shard's in its commit order.
    pub committed: Vec<TxnId>,
    /// All shards' granted operations (live/committed incarnations
    /// only), shard after shard, each shard's in its grant order.
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
    /// The object-space partition the run used.
    pub map: ShardMap,
}

/// A completed sharded run: every transaction committed and the merged
/// history validated as a [`Schedule`].
#[derive(Debug)]
pub struct ShardedRun {
    /// The merged committed history, shard after shard.
    pub history: Schedule,
    /// The full report (per-shard traces, metrics).
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

/// Serves every transaction in `stream` to commit — the in-process
/// front-end, over `schedulers.len()` shard cores (one scheduler is the
/// unsharded service: its N = 1 row). One scheduler per shard, each built
/// over the full transaction set and spec (ids are global; a shard only
/// ever hears about the transactions it owns).
///
/// `cfg.workers` session threads claim arrivals from the stream and run
/// the one session discipline ([`crate::session`]), routing each
/// transaction to the core that owns it; each core thread owns its
/// scheduler and applies commands in queue order ([`run_core`]). The
/// whole stream is checked against the one ownership function first: a
/// transaction spanning shards fails the run with
/// [`RunOutcome::Failed`]`(`[`ServerError::CrossShard`]`)` before a thread
/// starts or a command is enqueued. The function returns when every
/// transaction has committed (or the first session gives up, which closes
/// the queues and unwinds the rest) and reports even a partial run, so
/// harnesses can check the committed prefix against the offline oracles:
/// whatever `faults` injects, the committed history must still be
/// relatively serializable. [`ShardedReport::into_run`] turns a completed
/// run into its validated merged history.
///
/// `faults` is either empty (no faults) or one plan per shard; `wals` is
/// either empty (non-durable) or one log per shard, and shard `i`'s log
/// carries shard id `i` in its checkpoints. Every state-changing
/// admission decision is appended to its shard's log **before** it is
/// acknowledged, so after a crash — modelled by dropping the log without
/// a clean close — recovery rebuilds exactly what the cores acknowledged:
/// [`crate::recovery::recover_segments_with_certifier`] from one log,
/// [`crate::recovery::recover_sharded_segments_with_certifier`] from the
/// per-shard streams. A storage error mid-run fail-stops that core (see
/// [`CoreOutput::wal_error`]). Each log ([`relser_wal::SegmentedWal`])
/// gets its core's live state at a batch boundary whenever it reports a
/// checkpoint due, and rotates, keeping retained bytes bounded by live
/// state; under [`relser_wal::CheckpointPolicy::never`] it stays one
/// segment. The caller keeps ownership of the logs and can inspect their
/// counters after the run.
pub fn serve_sharded<'a>(
    txns: &TxnSet,
    stream: &RequestStream,
    schedulers: Vec<Box<dyn Scheduler + Send + 'a>>,
    cfg: &ServerConfig,
    faults: &[FaultPlan],
    wals: Vec<&mut dyn CommitLog>,
) -> ShardedReport {
    let cores = schedulers.len();
    assert!(cores >= 1, "need at least one shard");
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(
        faults.is_empty() || faults.len() == cores,
        "fault plans must be absent or one per shard"
    );
    assert!(
        wals.is_empty() || wals.len() == cores,
        "commit logs must be absent or one per shard"
    );
    let map = ShardMap::new(cores as u32);
    if let Some(&txn) = stream
        .order()
        .iter()
        .find(|&&t| map.owner_of_txn(txns, t).is_none())
    {
        return ShardedReport {
            outcome: RunOutcome::Failed(ServerError::CrossShard(txn)),
            committed: Vec::new(),
            log: Vec::new(),
            history: Vec::new(),
            shards: (0..cores).map(|_| CoreOutput::default()).collect(),
            metrics: ServerMetrics::default(),
            shard_sheds: vec![0; cores],
            map,
        };
    }
    let queues: Vec<BoundedQueue<Command>> = (0..cores)
        .map(|_| BoundedQueue::new(cfg.queue_capacity))
        .collect();
    let progresses: Vec<Progress> = (0..cores).map(|_| Progress::new()).collect();
    let sheds: Vec<AtomicU64> = (0..cores).map(|_| AtomicU64::new(0)).collect();
    let default_fault = FaultPlan::default();
    let session = Session {
        route: Route {
            txns,
            map,
            queues: &queues,
            progresses: &progresses,
            healths: None,
        },
        cfg,
        sheds: &sheds,
    };
    let t0 = Instant::now();

    let (outputs, sessions): (Vec<CoreOutput>, Vec<(SessionStats, Option<SessionError>)>) =
        std::thread::scope(|s| {
            let (queues, progresses) = (&queues, &progresses);
            let session = &session;
            let mut wals = wals.into_iter();
            let core_threads: Vec<_> = schedulers
                .into_iter()
                .enumerate()
                .map(|(shard, scheduler)| {
                    let fault = faults.get(shard).unwrap_or(&default_fault);
                    let wal = wals.next();
                    let ctx = ShardCoreCtx {
                        shard: shard as u32,
                        ..ShardCoreCtx::default()
                    };
                    s.spawn(move || {
                        run_core(
                            scheduler,
                            &queues[shard],
                            &progresses[shard],
                            cfg.core(),
                            fault,
                            wal,
                            ctx,
                        )
                    })
                })
                .collect();
            let workers: Vec<_> = (0..cfg.workers)
                .map(|_| {
                    s.spawn(move || {
                        run_session(
                            stream,
                            |txn, stats| session.run_txn(txn, stats),
                            || queues.iter().for_each(BoundedQueue::close),
                        )
                    })
                })
                .collect();
            let sessions = workers
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect();
            queues.iter().for_each(BoundedQueue::close);
            let outputs = core_threads
                .into_iter()
                .map(|h| h.join().expect("admission core panicked"))
                .collect();
            (outputs, sessions)
        });
    let elapsed = t0.elapsed();

    // Merge the per-core views, then rebuild the decision summary exactly
    // from the concatenated samples (merge alone is conservative on p95)
    // and fold in the session-side counters.
    let mut metrics = outputs
        .iter()
        .enumerate()
        .map(|(shard, out)| ServerMetrics {
            sheds: sheds[shard].load(Ordering::Relaxed),
            ..ServerMetrics::from_core(out, queues[shard].stats(), elapsed)
        })
        .reduce(|mut agg, m| {
            agg.merge(&m);
            agg
        })
        .expect("at least one core")
        .with_sessions(&sessions);
    metrics.workers = cfg.workers;
    let decision_samples: Vec<u64> = outputs
        .iter()
        .flat_map(|o| o.decision_ns.iter().copied())
        .collect();
    metrics.decision = DecisionLatency::from_samples(&decision_samples);

    let merged = merge_shards(txns, outputs.iter().map(|o| (&o.committed[..], &o.log[..])));
    metrics.committed_ops = merged.history.len() as u64;

    ShardedReport {
        outcome: RunOutcome::of(outputs.iter().any(|o| o.crashed), &sessions),
        committed: merged.committed,
        log: merged.log,
        history: merged.history,
        shards: outputs,
        metrics,
        shard_sheds: sheds.into_iter().map(AtomicU64::into_inner).collect(),
        map,
    }
}

/// Per-shard results merged by [`merge_shards`].
pub(crate) struct Merged {
    /// Every shard's committed transactions, shard after shard.
    pub(crate) committed: Vec<TxnId>,
    /// Every shard's grant log, shard after shard.
    pub(crate) log: Vec<OpId>,
    /// [`Merged::log`] filtered to [`Merged::committed`]: the merged
    /// committed history.
    pub(crate) history: Vec<OpId>,
}

/// The one merge rule of the sharded service: `shards` yields each
/// shard's `(committed, grant log)` in shard order, and the merge lists
/// them shard after shard, each in its own core order. No stamp or
/// sequence number is needed, because nothing orders two shards: every
/// transaction has one owner, so no RSG arc crosses shards and the
/// concatenation is conflict-equivalent to any interleaving the cores
/// actually ran.
pub(crate) fn merge_shards<'a>(
    txns: &TxnSet,
    shards: impl IntoIterator<Item = (&'a [TxnId], &'a [OpId])>,
) -> Merged {
    let (mut committed, mut log) = (Vec::new(), Vec::new());
    for (c, l) in shards {
        committed.extend_from_slice(c);
        log.extend_from_slice(l);
    }
    let mut in_committed = vec![false; txns.len()];
    for t in &committed {
        in_committed[t.index()] = true;
    }
    let history = log
        .iter()
        .copied()
        .filter(|o| in_committed[o.txn.index()])
        .collect();
    Merged {
        committed,
        log,
        history,
    }
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
