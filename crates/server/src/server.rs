//! Run orchestration: wire a scheduler, a command queue, an admission
//! core thread, and N session threads together; return the committed
//! history plus metrics (and optionally a deterministic-replay trace).

use crate::core::{run_core, Command, CoreCfg, CoreOutput, FaultPlan, Progress, TraceEvent};
use crate::metrics::ServerMetrics;
use crate::queue::BoundedQueue;
use crate::session::{
    run_session, run_txn, OverloadPolicy, SessionCtx, SessionError, SessionStats,
};
use relser_core::ids::{OpId, TxnId};
use relser_core::schedule::Schedule;
use relser_core::txn::TxnSet;
use relser_protocols::{Decision, Scheduler};
use relser_wal::CommitLog;
use relser_workload::stream::RequestStream;
use std::fmt;
use std::sync::atomic::AtomicU64;
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
    /// Seed for the arrival order: what callers hand
    /// [`RequestStream::shuffled`] to build the stream they serve.
    pub seed: u64,
}

impl ServerConfig {
    /// The admission core's share of this config.
    pub(crate) fn core(&self) -> CoreCfg {
        CoreCfg {
            batch_max: self.batch_max,
            record_trace: self.record_trace,
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
            seed: 0,
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

/// Serves every transaction in `stream` to commit — the in-process
/// front-end over one admission core.
///
/// `cfg.workers` session threads claim arrivals from the stream and run
/// the client protocol ([`run_txn`]); one admission core thread owns the
/// scheduler and applies commands in queue order ([`run_core`]). The
/// function returns when every transaction has committed (or the first
/// session gives up, which closes the queue and unwinds the rest), and
/// reports even a partial run, so harnesses can check the committed
/// prefix against the offline oracles: whatever `faults` injects, the
/// committed transactions' history must still be relatively serializable.
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
    assert!(cfg.workers >= 1, "need at least one worker");
    let queue: BoundedQueue<Command> = BoundedQueue::new(cfg.queue_capacity);
    let progress = Progress::new();
    let sheds = AtomicU64::new(0);
    let t0 = Instant::now();

    let (core_out, sessions): (CoreOutput, Vec<(SessionStats, Option<SessionError>)>) =
        std::thread::scope(|s| {
            let queue = &queue;
            let progress = &progress;
            let sheds = &sheds;
            let core = s
                .spawn(move || run_core(scheduler, queue, progress, cfg.core(), faults, wal, None));
            let mut workers = Vec::with_capacity(cfg.workers);
            for _ in 0..cfg.workers {
                workers.push(s.spawn(move || {
                    let ctx = SessionCtx {
                        queue,
                        progress,
                        txns,
                        policy: cfg.policy,
                        block_timeout: cfg.block_timeout,
                        retry_slice: cfg.retry_slice,
                        restart_backoff: cfg.restart_backoff,
                        restart_backoff_max: cfg.restart_backoff_max,
                        backoff_seed: cfg.backoff_seed,
                        reply_timeout: cfg.reply_timeout,
                        op_work_ns: cfg.op_work_ns,
                        max_attempts: cfg.max_attempts,
                        sheds,
                    };
                    run_session(
                        stream,
                        |txn, stats| run_txn(&ctx, txn, stats),
                        || queue.close(),
                    )
                }));
            }
            let sessions: Vec<(SessionStats, Option<SessionError>)> = workers
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect();
            queue.close();
            let core_out = core.join().expect("admission core panicked");
            (core_out, sessions)
        });
    let elapsed = t0.elapsed();

    let metrics = ServerMetrics {
        workers: cfg.workers,
        sheds: sheds.into_inner(),
        committed_ops: core_out.committed_ops(),
        ..ServerMetrics::from_core(&core_out, queue.stats(), elapsed)
    }
    .with_sessions(&sessions);

    ServeReport {
        outcome: RunOutcome::of(core_out.crashed, &sessions),
        committed: core_out.committed,
        log: core_out.log,
        trace: core_out.trace,
        metrics,
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
            TraceEvent::Admit { txn, granted } => {
                // A granted cross-shard admit applied `begin` on this
                // shard; a rejected one changed nothing (the reject
                // happened before the scheduler was consulted).
                if *granted {
                    scheduler.begin(*txn);
                }
            }
        }
    }
    Ok(log)
}
