//! What an in-process run is configured with and how it ends
//! ([`ServerConfig`], [`RunOutcome`], [`ServerError`]), and [`replay`],
//! which re-executes one core's recorded trace deterministically on one
//! thread. The run itself is [`crate::serve_sharded`], over one scheduler
//! or N.

use crate::core::{CoreCfg, TraceEvent};
use crate::flight::Timeouts;
use crate::session::{OverloadPolicy, SessionError, SessionStats};
use relser_core::ids::{OpId, TxnId};
use relser_protocols::{Decision, Scheduler};
use std::fmt;
use std::time::Duration;

/// Tunables for one [`crate::serve_sharded`] run.
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
    /// Per-request reply watchdog: a session that hears nothing from the
    /// admission core for this long gives up with a typed
    /// [`SessionError::ReplyLost`] (degrading itself, not the service).
    pub reply_timeout: Duration,
    /// Simulated record-access latency per granted operation, in
    /// nanoseconds — slept, not spun, so it models I/O-bound work that
    /// sessions overlap (the thing the concurrent service parallelizes).
    pub op_work_ns: u64,
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
            reply_timeout: Duration::from_secs(60),
            op_work_ns: 0,
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

/// How a [`crate::serve_sharded`] run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every transaction committed.
    Completed,
    /// The fault plan (or a broken log) crashed an admission core; the
    /// committed prefix is in [`crate::ShardedReport::committed`] /
    /// [`crate::ShardedReport::history`].
    Crashed,
    /// A session gave up (livelock budget, or shutdown collateral).
    Failed(ServerError),
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
