//! Run orchestration: wire schedulers, command queues, admission core
//! threads, and N session threads together (`run_front_end`, shared by
//! [`serve`] and [`crate::serve_sharded`]); return the committed history
//! plus metrics (and optionally a deterministic-replay trace).

use crate::core::{
    run_core, Command, CoreCfg, CoreOutput, FaultPlan, Progress, ShardCoreCtx, TraceEvent,
};
use crate::flight::Timeouts;
use crate::metrics::ServerMetrics;
use crate::queue::BoundedQueue;
use crate::route::Route;
use crate::session::{run_session, OverloadPolicy, Session, SessionError, SessionStats};
use relser_core::ids::{OpId, TxnId};
use relser_core::schedule::Schedule;
use relser_core::shard::ShardMap;
use relser_core::txn::TxnSet;
use relser_protocols::{Decision, Scheduler};
use relser_simdb::metrics::DecisionLatency;
use relser_wal::CommitLog;
use relser_workload::stream::RequestStream;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Tunables for one [`serve`] run.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Session (client worker) threads.
    pub workers: usize,
    /// Command queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Max commands the core drains per queue lock acquisition.
    pub batch_max: usize,
    /// What sessions do when the queue is full.
    pub policy: OverloadPolicy,
    /// Self-abort after being blocked on an unchanged waits-for set
    /// this long (deadlock resolution for blocking schedulers).
    pub block_timeout: Duration,
    /// One epoch-wait slice while blocked (upper bound).
    pub retry_slice: Duration,
    /// Base backoff before restarting an aborted incarnation; doubles
    /// per consecutive restart (capped at `restart_backoff_max`, with
    /// deterministic seeded jitter — see [`crate::session::restart_backoff`]).
    pub restart_backoff: Duration,
    /// Cap on the exponential restart backoff.
    pub restart_backoff_max: Duration,
    /// Seed for the deterministic restart-backoff jitter.
    pub backoff_seed: u64,
    /// Per-request reply watchdog: a session that hears nothing from the
    /// admission core for this long gives up with a typed
    /// [`SessionError::ReplyLost`] (degrading itself, not the service).
    pub reply_timeout: Duration,
    /// Simulated record-access latency per granted operation, in
    /// nanoseconds — slept, not spun, so it models I/O-bound work that
    /// sessions overlap (the thing the concurrent service parallelizes).
    pub op_work_ns: u64,
    /// Livelock guard: give up after this many incarnations of one txn.
    pub max_attempts: u32,
    /// Record a [`TraceEvent`] log for deterministic replay.
    pub record_trace: bool,
}

impl ServerConfig {
    /// The admission core's share of this config.
    pub(crate) fn core(&self) -> CoreCfg {
        CoreCfg {
            batch_max: self.batch_max,
            record_trace: self.record_trace,
        }
    }

    /// The per-operation timeouts of this config.
    pub(crate) fn timeouts(&self) -> Timeouts {
        Timeouts {
            block_timeout: self.block_timeout,
            retry_slice: self.retry_slice,
            reply_timeout: self.reply_timeout,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_capacity: 1024,
            batch_max: 64,
            policy: OverloadPolicy::Wait,
            block_timeout: Duration::from_millis(100),
            retry_slice: Duration::from_millis(1),
            restart_backoff: Duration::from_micros(200),
            restart_backoff_max: Duration::from_millis(20),
            backoff_seed: 0xB0FF,
            reply_timeout: Duration::from_secs(60),
            op_work_ns: 0,
            max_attempts: 10_000,
            record_trace: false,
        }
    }
}

/// Why a run failed as a whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// A transaction exceeded its incarnation budget.
    Livelock(TxnId),
    /// The service shut down before all transactions committed
    /// (another session failed, closing the queue).
    Shutdown,
    /// A session's reply watchdog fired: the admission core stopped
    /// answering, so that session's transaction was lost. Other sessions
    /// keep running — this error names the degraded transaction.
    ReplyLost(TxnId),
    /// The stream holds a transaction whose objects span shards. A
    /// transaction is owned by exactly one shard core; the run is refused
    /// whole, before any thread starts or any command is enqueued (see
    /// [`crate::shard`]).
    CrossShard(TxnId),
    /// The committed log is not a valid schedule — a service bug, never
    /// expected; carried instead of panicking so tests report it nicely.
    InvalidHistory(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Livelock(t) => write!(f, "transaction {t:?} exceeded its attempt budget"),
            ServerError::Shutdown => write!(f, "service shut down before completion"),
            ServerError::ReplyLost(t) => {
                write!(f, "lost the reply for {t:?} (admission core unresponsive)")
            }
            ServerError::CrossShard(t) => {
                write!(f, "transaction {t:?} spans shards; cross-shard is refused")
            }
            ServerError::InvalidHistory(m) => write!(f, "committed log is not a schedule: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A completed run: the committed history (every transaction committed
/// exactly once), the metrics, and — when requested — the replay trace.
#[derive(Debug)]
pub struct ServerRun {
    /// The committed history in grant order. Re-validate it offline with
    /// `Rsg::build(txns, &history, spec).is_acyclic()`.
    pub history: Schedule,
    /// Aggregated service metrics.
    pub metrics: ServerMetrics,
    /// Core-order event trace (empty unless `record_trace` was set).
    pub trace: Vec<TraceEvent>,
}

/// How a [`serve`] run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every transaction committed.
    Completed,
    /// The fault plan crashed the admission core; the committed prefix is
    /// in [`ServeReport::committed`] / [`ServeReport::log`].
    Crashed,
    /// A session gave up (livelock budget, or shutdown collateral).
    Failed(ServerError),
}

/// The full observable result of a (possibly fault-injected) run —
/// returned even when the run did not complete, so harnesses can check
/// the committed prefix against the offline oracles.
#[derive(Debug)]
pub struct ServeReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Transactions committed, in commit order.
    pub committed: Vec<TxnId>,
    /// Granted operations of live/committed incarnations, grant order.
    /// Filter to `committed` for the committed history of a partial run.
    pub log: Vec<OpId>,
    /// Core-order event trace (empty unless `record_trace` was set).
    pub trace: Vec<TraceEvent>,
    /// Aggregated service metrics.
    pub metrics: ServerMetrics,
    /// Injected (fault-plan) aborts the core applied.
    pub injected_aborts: u64,
    /// Checkpoints the core cut into the commit log (zero without a
    /// checkpointing log).
    pub checkpoints: u64,
}

impl RunOutcome {
    /// Surfaces the most informative failure of a run: a core crash
    /// explains every downstream shutdown; a livelock names its culprit.
    pub(crate) fn of(crashed: bool, sessions: &[(SessionStats, Option<SessionError>)]) -> Self {
        if crashed {
            return RunOutcome::Crashed;
        }
        let mut outcome = RunOutcome::Completed;
        for (_, err) in sessions {
            match err {
                Some(SessionError::Livelock(t)) => {
                    return RunOutcome::Failed(ServerError::Livelock(*t));
                }
                Some(SessionError::ReplyLost(t)) if outcome == RunOutcome::Completed => {
                    outcome = RunOutcome::Failed(ServerError::ReplyLost(*t));
                }
                Some(SessionError::Shutdown) if outcome == RunOutcome::Completed => {
                    outcome = RunOutcome::Failed(ServerError::Shutdown);
                }
                _ => {}
            }
        }
        outcome
    }

    /// `Ok` for a completed run, else the error that names why not (a
    /// crashed core is a [`ServerError::Shutdown`]).
    pub(crate) fn completed(&self) -> Result<(), ServerError> {
        match self {
            RunOutcome::Completed => Ok(()),
            RunOutcome::Crashed => Err(ServerError::Shutdown),
            RunOutcome::Failed(e) => Err(e.clone()),
        }
    }
}

impl ServeReport {
    /// The completed run — every transaction committed, the log validated
    /// as a [`Schedule`] — or the error that says why there is none.
    pub fn into_run(self, txns: &TxnSet) -> Result<ServerRun, ServerError> {
        self.outcome.completed()?;
        let history = Schedule::new(txns, self.log)
            .map_err(|e| ServerError::InvalidHistory(e.to_string()))?;
        Ok(ServerRun {
            history,
            metrics: self.metrics,
            trace: self.trace,
        })
    }
}

/// What one in-process run leaves behind, before [`serve`] or
/// [`crate::serve_sharded`] cuts its report shape from it.
pub(crate) struct FrontEndRun {
    pub(crate) outcome: RunOutcome,
    /// One per core, in shard order.
    pub(crate) outputs: Vec<CoreOutput>,
    /// The cores' metrics merged, session counters folded in. What only
    /// the report shape knows is left for the caller: `committed_ops`,
    /// and a sharded run's whole-transaction `commits`.
    pub(crate) metrics: ServerMetrics,
    /// Requests shed per core queue.
    pub(crate) sheds: Vec<u64>,
    pub(crate) map: ShardMap,
}

/// The scaffolding both in-process front-ends share: one queue, progress
/// epoch and core thread per scheduler, `cfg.workers` session threads
/// running the one session discipline ([`Session::run_txn`]) over all of
/// them; join the sessions, close the queues, join the cores.
///
/// `faults` and `wals` are empty or one per core. `sharded` says which
/// core the schedulers run under — shard cores ([`ShardCoreCtx`]: the
/// shard id in each checkpoint) or the plain core — and is the only thing
/// the two front-ends tell this function apart by. Both write the same
/// commit records.
///
/// The whole stream is checked against the one ownership function first:
/// a transaction spanning cores fails the run with
/// [`ServerError::CrossShard`] before a thread starts or a command is
/// enqueued.
pub(crate) fn run_front_end<'a>(
    txns: &TxnSet,
    stream: &RequestStream,
    schedulers: Vec<Box<dyn Scheduler + Send + 'a>>,
    cfg: &ServerConfig,
    faults: &[FaultPlan],
    wals: Vec<&mut dyn CommitLog>,
    sharded: bool,
) -> FrontEndRun {
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
        return FrontEndRun {
            outcome: RunOutcome::Failed(ServerError::CrossShard(txn)),
            outputs: (0..cores).map(|_| CoreOutput::default()).collect(),
            metrics: ServerMetrics::default(),
            sheds: vec![0; cores],
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
                    let ctx = sharded.then(|| ShardCoreCtx {
                        shard: shard as u32,
                        sessions: None,
                        recovered_committed: Vec::new(),
                        recovered_events: Vec::new(),
                    });
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

    FrontEndRun {
        outcome: RunOutcome::of(outputs.iter().any(|o| o.crashed), &sessions),
        outputs,
        metrics,
        sheds: sheds.into_iter().map(AtomicU64::into_inner).collect(),
        map,
    }
}

/// Serves every transaction in `stream` to commit — the in-process
/// front-end over one admission core.
///
/// `cfg.workers` session threads claim arrivals from the stream and run
/// the session discipline of [`crate::session`] over the one queue; one
/// admission core thread owns the scheduler and applies commands in queue
/// order ([`run_core`]). The function returns when every transaction has
/// committed (or the first session gives up, which closes the queue and
/// unwinds the rest), and reports even a partial run, so harnesses can
/// check the committed prefix against the offline oracles: whatever
/// `faults` injects, the committed transactions' history must still be
/// relatively serializable.
/// [`ServeReport::into_run`] turns a completed run into its validated
/// history.
///
/// With a commit log, every state-changing admission decision is appended
/// to `wal` **before** it is acknowledged, so after any crash
/// [`crate::recovery::recover`] rebuilds exactly the state the core had
/// acknowledged (and, under [`relser_wal::FsyncPolicy::Always`], no
/// acknowledged commit is ever lost). A crash is modelled by dropping the
/// log without a clean close; a storage error mid-run fail-stops the core
/// (see [`ServeReport::metrics`]'s `wal_error`). A checkpointing log such
/// as [`relser_wal::SegmentedWal`] gets the core's live state at a batch
/// boundary whenever it reports a checkpoint due, and rotates — keeping
/// retained bytes (and recovery time) bounded by live state instead of
/// history length. The caller keeps ownership of the log and can inspect
/// its counters after the run.
pub fn serve(
    txns: &TxnSet,
    stream: &RequestStream,
    scheduler: Box<dyn Scheduler + Send + '_>,
    cfg: &ServerConfig,
    faults: &FaultPlan,
    wal: Option<&mut dyn CommitLog>,
) -> ServeReport {
    let mut run = run_front_end(
        txns,
        stream,
        vec![scheduler],
        cfg,
        std::slice::from_ref(faults),
        wal.into_iter().collect(),
        false,
    );
    let core_out = run.outputs.pop().expect("one core");
    ServeReport {
        outcome: run.outcome,
        metrics: ServerMetrics {
            committed_ops: core_out.committed_ops(),
            ..run.metrics
        },
        committed: core_out.committed,
        log: core_out.log,
        trace: core_out.trace,
        injected_aborts: core_out.injected_aborts,
        checkpoints: core_out.checkpoints,
    }
}

/// A replay diverged from its trace: the scheduler answered differently
/// than it did during the recorded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Index of the diverging event in the trace.
    pub at: usize,
    /// The decision the trace recorded.
    pub expected: Decision,
    /// The decision the fresh scheduler produced.
    pub got: Decision,
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged at event {}: recorded {:?}, got {:?}",
            self.at, self.expected, self.got
        )
    }
}

impl std::error::Error for ReplayMismatch {}

/// Deterministic replay: feeds a recorded trace through a **fresh**
/// scheduler on a single thread, checking that every decision comes out
/// exactly as recorded. Because the single-writer core applied commands
/// sequentially, the trace fully determines scheduler state — so replay
/// succeeding means the concurrent run is reproducible (and debuggable)
/// offline. Returns the reconstructed committed log.
pub fn replay(
    scheduler: &mut dyn Scheduler,
    trace: &[TraceEvent],
) -> Result<Vec<OpId>, ReplayMismatch> {
    let mut log: Vec<OpId> = Vec::new();
    for (at, event) in trace.iter().enumerate() {
        match event {
            TraceEvent::Begin(txn) => scheduler.begin(*txn),
            TraceEvent::Decision(op, expected) => {
                let got = scheduler.request(*op);
                if got != *expected {
                    return Err(ReplayMismatch {
                        at,
                        expected: expected.clone(),
                        got,
                    });
                }
                match got {
                    Decision::Granted => log.push(*op),
                    Decision::Blocked { .. } => {}
                    Decision::Aborted(_) => {
                        // Mirror the core: the abort was applied with the
                        // decision, atomically.
                        scheduler.abort(op.txn);
                        log.retain(|o| o.txn != op.txn);
                    }
                }
            }
            TraceEvent::Commit(txn) => scheduler.commit(*txn),
            TraceEvent::Abort(txn) => {
                scheduler.abort(*txn);
                log.retain(|o| o.txn != *txn);
            }
            // Never constructed (see the variant's docs); named only
            // because the match is exhaustive.
            TraceEvent::Admit { .. } => {}
        }
    }
    Ok(log)
}
