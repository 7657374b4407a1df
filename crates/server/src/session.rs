//! Client sessions: the worker-thread side of the service protocol.
//!
//! A session runs one transaction at a time through the full driver
//! discipline the rest of the repo assumes: `begin`, then every operation
//! in **program order**, then `commit` — restarting the whole incarnation
//! from its first operation whenever the scheduler aborts it. Sessions
//! never touch the scheduler; they only enqueue [`Command`]s and wait on
//! [`Reply`] cells, so any number of them can run concurrently against
//! the single-writer core.
//!
//! Two liveness mechanisms live here:
//!
//! * **Block/retry with progress epochs.** A `Blocked` decision does not
//!   park the session on a lock queue (the scheduler has none the session
//!   can see); instead the session sleeps until the core's progress epoch
//!   advances — i.e. until *some* grant, commit, or abort changed the
//!   state — then re-submits the same operation.
//! * **Waits-for-based timeout.** The session tracks *which* transactions
//!   it has been waiting on (the `on` set of the `Blocked` decision). The
//!   abort timer starts only when that set stabilizes and resets whenever
//!   it changes, so a transaction making slow-but-real progress behind a
//!   busy peer is not shot down; one stuck behind the *same* peers for a
//!   full `block_timeout` aborts itself and restarts. This is deadlock
//!   resolution for blocking schedulers (2PL) that the RSG protocols
//!   never need (they abort instead of blocking).

use crate::core::{Command, Progress, Reply};
use crate::queue::{BoundedQueue, PushError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relser_core::ids::{OpId, TxnId};
use relser_core::txn::TxnSet;
use relser_protocols::Decision;
use relser_workload::stream::RequestStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What a worker does when the command queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block until the queue has room (backpressure; nothing is lost).
    Wait,
    /// Shed the request: back off and retry later, counting the shed.
    /// Only operation requests are ever shed — `begin`/`commit`/`abort`
    /// always wait, because dropping one would corrupt the protocol.
    Shed,
}

/// Why a session gave up.
///
/// `Shutdown` and `Livelock` shut the whole run down (the queue closes
/// and the other sessions unwind); `ReplyLost` degrades **only this
/// session** — its transaction is lost, but the queue stays open and the
/// other sessions keep committing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The command queue closed underneath the session (another worker
    /// failed, or the server is shutting down).
    Shutdown,
    /// A transaction exceeded the per-transaction attempt budget.
    Livelock(TxnId),
    /// The admission core never answered a request for this transaction
    /// within the reply watchdog (see [`crate::core::ReplyLost`]).
    ReplyLost(TxnId),
}

/// Per-session counters, merged into [`crate::ServerMetrics`] at the end.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Transactions this session committed.
    pub commits: u64,
    /// Incarnations restarted after a scheduler-initiated abort.
    pub restarts: u64,
    /// Incarnations this session aborted itself (waits-for timeout).
    pub timeout_aborts: u64,
    /// Requests shed by the overload policy (then retried).
    pub sheds: u64,
    /// Granted operations executed (simulated work performed).
    pub ops_executed: u64,
    /// Total wall-clock time slept in restart backoff, in nanoseconds.
    pub backoff_ns: u64,
    /// Largest incarnation count any single transaction needed.
    pub max_txn_attempts: u32,
}

/// Everything a session needs, shared across all workers of one run.
pub struct SessionCtx<'a> {
    /// The command queue into the admission core.
    pub queue: &'a BoundedQueue<Command>,
    /// The core's progress epoch (block/retry wakeups).
    pub progress: &'a Progress,
    /// The transaction set (program order source).
    pub txns: &'a TxnSet,
    /// Overload policy for operation requests.
    pub policy: OverloadPolicy,
    /// Abort after waiting on an unchanged waits-for set this long.
    pub block_timeout: Duration,
    /// Upper bound on one epoch-wait slice while blocked.
    pub retry_slice: Duration,
    /// Base sleep before re-beginning an aborted incarnation; doubles per
    /// consecutive restart up to [`SessionCtx::restart_backoff_max`].
    pub restart_backoff: Duration,
    /// Cap on the exponential restart backoff.
    pub restart_backoff_max: Duration,
    /// Seed for the deterministic backoff jitter (combined with the
    /// transaction id and attempt number, so each restart of each
    /// transaction gets its own reproducible jitter draw).
    pub backoff_seed: u64,
    /// Give up on an unanswered reply after this long (the core died).
    pub reply_timeout: Duration,
    /// Simulated record-access latency per granted operation (slept,
    /// not spun — see [`SessionCtx::do_op_work`]).
    pub op_work_ns: u64,
    /// Give up on a transaction after this many incarnations.
    pub max_attempts: u32,
    /// Shared shed counter (all sessions of the run).
    pub sheds: &'a AtomicU64,
}

impl SessionCtx<'_> {
    /// Enqueues a command that must not be lost (begin/commit/abort —
    /// and requests under the `Wait` policy).
    fn send(&self, cmd: Command) -> Result<(), SessionError> {
        self.queue
            .push_wait(cmd)
            .map_err(|_| SessionError::Shutdown)
    }

    /// Enqueues an operation request under the configured policy.
    fn send_request(
        &self,
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
            match self.policy {
                OverloadPolicy::Wait => return self.send(cmd),
                OverloadPolicy::Shed => match self.queue.try_push(cmd) {
                    Ok(()) => return Ok(()),
                    Err(PushError::Closed(_)) => return Err(SessionError::Shutdown),
                    Err(PushError::Full(back)) => {
                        stats.sheds += 1;
                        self.sheds.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(self.retry_slice);
                        // Refresh the enqueue timestamp: the shed-and-retry
                        // delay is client-side, not admission latency.
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

    /// Simulates executing the granted operation: sleeps for
    /// `op_work_ns`, modelling I/O-bound record access. Sleeping (not
    /// spinning) is what makes the work overlappable across sessions —
    /// like real record I/O, it occupies the session but not a CPU, so
    /// the service parallelizes it even on a single hardware thread.
    fn do_op_work(&self) {
        if self.op_work_ns == 0 {
            return;
        }
        std::thread::sleep(Duration::from_nanos(self.op_work_ns));
    }
}

/// The backoff before restart number `attempt` (≥ 2) of `txn`: capped
/// exponential with deterministic seeded jitter.
///
/// The exponential part doubles the base per consecutive restart (PR 3's
/// Figure 1 exploration showed restart *storms* — every aborted
/// incarnation retrying immediately — are the schedule-space blowup);
/// the jitter draws uniformly from `[d/2, d]` so colliding transactions
/// decorrelate instead of re-colliding in lockstep. The draw is a pure
/// function of `(seed, txn, attempt)`, so a run with a fixed config is
/// as reproducible as the arrival order allows.
pub fn restart_backoff(
    base: Duration,
    max: Duration,
    seed: u64,
    txn: TxnId,
    attempt: u32,
) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let doublings = attempt.saturating_sub(2).min(32);
    let uncapped = base.saturating_mul(1u32 << doublings.min(31));
    let ceiling = uncapped.min(max.max(base));
    let mut rng = StdRng::seed_from_u64(seed ^ (txn.0 as u64).rotate_left(32) ^ attempt as u64);
    let ns = ceiling.as_nanos().min(u128::from(u64::MAX)) as u64;
    Duration::from_nanos(rng.random_range(ns / 2..=ns))
}

/// One session thread's life: claims arrivals from `stream` and runs each
/// to commit through `run_one` until the stream is dry or a transaction
/// fails. A lost reply degrades only this session — its transaction is
/// gone, but the queues stay open so the other sessions keep committing.
/// Livelock and shutdown are run-wide: `close_queues` wakes every blocked
/// session and the core(s) so the run unwinds instead of hanging.
pub(crate) fn run_session(
    stream: &RequestStream,
    mut run_one: impl FnMut(TxnId, &mut SessionStats) -> Result<(), SessionError>,
    close_queues: impl FnOnce(),
) -> (SessionStats, Option<SessionError>) {
    let mut stats = SessionStats::default();
    let mut failure = None;
    while let Some(txn) = stream.next() {
        if let Err(e) = run_one(txn, &mut stats) {
            failure = Some(e);
            break;
        }
    }
    if !matches!(failure, Some(SessionError::ReplyLost(_)) | None) {
        close_queues();
    }
    (stats, failure)
}

/// Runs one transaction to commit (restarting across aborts).
pub fn run_txn(
    ctx: &SessionCtx<'_>,
    txn: TxnId,
    stats: &mut SessionStats,
) -> Result<(), SessionError> {
    let n_ops = ctx.txns.txn(txn).len();
    let mut attempts = 0u32;
    'incarnation: loop {
        attempts += 1;
        stats.max_txn_attempts = stats.max_txn_attempts.max(attempts);
        if attempts > ctx.max_attempts {
            return Err(SessionError::Livelock(txn));
        }
        if attempts > 1 {
            stats.restarts += 1;
            let pause = restart_backoff(
                ctx.restart_backoff,
                ctx.restart_backoff_max,
                ctx.backoff_seed,
                txn,
                attempts,
            );
            if !pause.is_zero() {
                stats.backoff_ns += pause.as_nanos() as u64;
                std::thread::sleep(pause);
            }
        }
        ctx.send(Command::Begin(txn))?;
        for index in 0..n_ops {
            let op = OpId {
                txn,
                index: index as u32,
            };
            // Waits-for timeout state for this operation.
            let mut waited_on: Vec<TxnId> = Vec::new();
            let mut blocked_since = Instant::now();
            let mut ever_blocked = false;
            loop {
                let reply = Reply::new();
                let seen = ctx.progress.current();
                ctx.send_request(op, reply.clone(), stats)?;
                let decision = reply
                    .wait_for(ctx.reply_timeout)
                    .map_err(|_| SessionError::ReplyLost(txn))?;
                match decision {
                    Decision::Granted => {
                        ctx.do_op_work();
                        stats.ops_executed += 1;
                        break; // next operation in program order
                    }
                    Decision::Aborted(_) => {
                        // The core already applied the abort; restart the
                        // incarnation from its first operation.
                        continue 'incarnation;
                    }
                    Decision::Blocked { mut on } => {
                        on.sort_unstable();
                        on.dedup();
                        let now = Instant::now();
                        if !ever_blocked || on != waited_on {
                            // First block, or the waits-for set moved:
                            // (re)start the timeout clock.
                            ever_blocked = true;
                            waited_on = on;
                            blocked_since = now;
                        } else if now.duration_since(blocked_since) >= ctx.block_timeout {
                            // Stuck behind the same transactions too long:
                            // abort ourselves and restart.
                            ctx.send(Command::Abort(txn))?;
                            stats.timeout_aborts += 1;
                            continue 'incarnation;
                        }
                        // Sleep until a transaction we wait on changes
                        // (or a slice elapses), then re-submit the same
                        // operation. Unrelated commits no longer wake us.
                        ctx.progress.wait_on(seen, &waited_on, ctx.retry_slice);
                    }
                }
            }
        }
        ctx.send(Command::Commit(txn))?;
        stats.commits += 1;
        return Ok(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_jittered() {
        let base = Duration::from_micros(100);
        let max = Duration::from_millis(10);
        let a = restart_backoff(base, max, 7, TxnId(3), 2);
        let b = restart_backoff(base, max, 7, TxnId(3), 2);
        assert_eq!(a, b, "same (seed, txn, attempt) -> same jitter");
        assert_ne!(
            restart_backoff(base, max, 7, TxnId(3), 2),
            restart_backoff(base, max, 7, TxnId(4), 2),
            "different transactions decorrelate"
        );
        // Attempt 2 draws from [base/2, base].
        assert!(a >= base / 2 && a <= base, "{a:?}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_micros(100);
        let max = Duration::from_micros(350);
        for attempt in 2..40 {
            let d = restart_backoff(base, max, 1, TxnId(0), attempt);
            let ceiling = base.saturating_mul(1 << (attempt - 2).min(31)).min(max);
            assert!(d <= ceiling, "attempt {attempt}: {d:?} > {ceiling:?}");
            assert!(
                d >= ceiling / 2,
                "attempt {attempt}: {d:?} < {:?}",
                ceiling / 2
            );
        }
        // Far into the schedule the cap rules.
        let capped = restart_backoff(base, max, 1, TxnId(0), 30);
        assert!(capped <= max);
        // Zero base means no backoff at all (and no jitter draw).
        assert_eq!(
            restart_backoff(Duration::ZERO, max, 1, TxnId(0), 9),
            Duration::ZERO
        );
    }

    #[test]
    fn lost_reply_degrades_the_session_not_the_queue() {
        // A queue with no admission core behind it: the request is
        // enqueued but its reply is never filled, so the session's reply
        // watchdog must fire and surface a typed per-session error.
        let txns = TxnSet::parse(&["r1[x]"]).unwrap();
        let queue: BoundedQueue<Command> = BoundedQueue::new(8);
        let progress = Progress::new();
        let sheds = AtomicU64::new(0);
        let ctx = SessionCtx {
            queue: &queue,
            progress: &progress,
            txns: &txns,
            policy: OverloadPolicy::Wait,
            block_timeout: Duration::from_millis(50),
            retry_slice: Duration::from_millis(1),
            restart_backoff: Duration::ZERO,
            restart_backoff_max: Duration::ZERO,
            backoff_seed: 0,
            reply_timeout: Duration::from_millis(15),
            op_work_ns: 0,
            max_attempts: 10,
            sheds: &sheds,
        };
        let mut stats = SessionStats::default();
        let err = run_txn(&ctx, TxnId(0), &mut stats).unwrap_err();
        assert_eq!(err, SessionError::ReplyLost(TxnId(0)));
        // The failure is the session's own: the queue is still open for
        // everyone else.
        assert!(queue.push_wait(Command::Begin(TxnId(0))).is_ok());
    }
}
