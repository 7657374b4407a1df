//! Client sessions: the worker-thread side of the service protocol.
//!
//! There is **one** session discipline, and every in-process front-end
//! runs it: `Session::run_txn` drives one transaction at a time through
//! `begin`, then every operation in **program order**, then `commit` —
//! restarting the whole incarnation from its first operation whenever a
//! scheduler aborts it. Sessions never touch a scheduler; they only
//! enqueue [`Command`]s and wait for verdicts, so any number of them can
//! run concurrently against single-writer cores.
//!
//! There is also **one per-operation state machine**, and it is not
//! here: what happens between an operation's submit and its verdict —
//! resubmit on `Blocked` when the owning core's progress epoch moves,
//! self-abort on an unchanged waits-for set, give up on a silent core —
//! is [`crate::flight::Flight`], the same value the TCP reactors drive.
//! The session is its *thread* driver: it polls the flight and, in
//! between, parks on the flight's reply cell or on the progress epoch
//! until the flight's deadline.
//!
//! A session is *routed* ([`Route`]): a transaction has exactly one
//! owning core, and its begin, every operation and its commit go to that
//! core's queue — the cores share nothing ([`crate::shard`] says why, and
//! why a transaction spanning shards is refused before any session
//! starts). [`crate::serve`] is the N = 1 row of that table and
//! [`crate::serve_sharded`] the N-shard row; what differs between the rows
//! is data, not code.

use crate::core::{Command, Reply};
use crate::flight::{Flight, Push, Step, Work};
use crate::queue::{BoundedQueue, PushError};
use crate::route::Route;
use crate::server::ServerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relser_core::ids::{OpId, TxnId};
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
    /// within the reply watchdog ([`crate::Step::ReplyLost`]).
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

/// Everything a session needs, shared across all workers of one run: the
/// back-end ([`Route`]), the config, and one shed counter per admission
/// core. [`crate::serve`] hands in one-element slices,
/// [`crate::serve_sharded`] one element per shard.
pub(crate) struct Session<'a> {
    pub(crate) route: Route<'a>,
    pub(crate) cfg: &'a ServerConfig,
    pub(crate) sheds: &'a [AtomicU64],
}

/// How one incarnation ended (its owner is clean either way).
enum Incarnation {
    Committed,
    /// The core aborted it.
    Aborted,
    /// The session aborted it: blocked on an unchanged waits-for set for
    /// a full `block_timeout`.
    TimedOut,
}

impl Session<'_> {
    /// Enqueues a command that must not be lost (begin/commit/abort).
    fn send(&self, shard: u32, cmd: Command) -> Result<(), SessionError> {
        self.route.queues[shard as usize]
            .push_wait(cmd)
            .map_err(|_| SessionError::Shutdown)
    }

    /// Submits an operation request to its owning core under the
    /// configured overload policy — `Wait` blocks for room, `Shed` backs
    /// off and tries again.
    fn submit(
        &self,
        shard: u32,
        op: OpId,
        stats: &mut SessionStats,
    ) -> Result<Flight, SessionError> {
        let push: Push = match self.cfg.policy {
            OverloadPolicy::Wait => BoundedQueue::push_wait,
            OverloadPolicy::Shed => BoundedQueue::try_push,
        };
        loop {
            // Every try stamps its own enqueue time: the shed-and-retry
            // delay is client-side, not admission latency.
            let (reply, now) = (Reply::new(), Instant::now());
            match Flight::submit(&self.route, shard, Work::Op(op), reply, now, push) {
                Ok(flight) => return Ok(flight),
                Err(PushError::Closed(_)) => return Err(SessionError::Shutdown),
                Err(PushError::Full(_)) => self.back_off(shard, stats),
            }
        }
    }

    /// A request found core `shard`'s queue full and could not wait for
    /// room: back off a slice (a shed, under that policy).
    fn back_off(&self, shard: u32, stats: &mut SessionStats) {
        if self.cfg.policy == OverloadPolicy::Shed {
            stats.sheds += 1;
            self.sheds[shard as usize].fetch_add(1, Ordering::Relaxed);
        }
        std::thread::sleep(self.cfg.retry_slice);
    }

    /// Runs one transaction to commit, restarting across aborts and
    /// waits-for timeouts.
    pub(crate) fn run_txn(&self, txn: TxnId, stats: &mut SessionStats) -> Result<(), SessionError> {
        let Route { map, txns, .. } = self.route;
        let owner = map
            .owner_of_txn(txns, txn)
            .expect("cross-shard transactions are refused before any session starts");
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            stats.max_txn_attempts = stats.max_txn_attempts.max(attempts);
            if attempts > self.cfg.max_attempts {
                return Err(SessionError::Livelock(txn));
            }
            if attempts > 1 {
                stats.restarts += 1;
                let pause = restart_backoff(
                    self.cfg.restart_backoff,
                    self.cfg.restart_backoff_max,
                    self.cfg.backoff_seed,
                    txn,
                    attempts,
                );
                if !pause.is_zero() {
                    stats.backoff_ns += pause.as_nanos() as u64;
                    std::thread::sleep(pause);
                }
            }
            match self.incarnation(txn, owner, stats)? {
                Incarnation::Committed => {
                    stats.commits += 1;
                    return Ok(());
                }
                Incarnation::Aborted => {}
                Incarnation::TimedOut => stats.timeout_aborts += 1,
            }
        }
    }

    /// One incarnation, all of it on the owning core `shard`: begin,
    /// every operation in program order, one commit.
    fn incarnation(
        &self,
        txn: TxnId,
        shard: u32,
        stats: &mut SessionStats,
    ) -> Result<Incarnation, SessionError> {
        self.send(shard, Command::Begin(txn))?;
        let timeouts = self.cfg.timeouts();
        for index in 0..self.route.txns.txn(txn).len() {
            let op = OpId {
                txn,
                index: index as u32,
            };
            let mut flight = self.submit(shard, op, stats)?;
            // Drive the flight to its verdict, parked between polls on
            // whatever it is waiting for.
            loop {
                let now = Instant::now();
                match flight.poll(&self.route, &timeouts, now) {
                    Step::Granted => break, // next operation in program order
                    // The core already applied the abort: restart from
                    // the first operation.
                    Step::Aborted(_) => return Ok(Incarnation::Aborted),
                    Step::TimedOut => {
                        // Stuck behind the same transactions too long:
                        // abort and restart.
                        self.send(shard, Command::Abort(txn))?;
                        return Ok(Incarnation::TimedOut);
                    }
                    Step::ReplyLost => return Err(SessionError::ReplyLost(txn)),
                    Step::Closed => return Err(SessionError::Shutdown),
                    Step::InFlight => {}
                }
                // (No deadline = timeouts too long to represent: look
                // again a slice later.)
                let wait = flight
                    .deadline(&timeouts)
                    .map_or(self.cfg.retry_slice, |at| at.saturating_duration_since(now));
                match flight.parked_at() {
                    None => {
                        flight.reply().wait_filled(wait);
                    }
                    // The resubmit found the queue full (see
                    // `Flight::deadline`).
                    Some(_) if wait.is_zero() => self.back_off(shard, stats),
                    // Until the owning core changes something — any bump
                    // wakes every parked session — or the deadline.
                    Some(seen) => {
                        self.route.progresses[shard as usize].wait_past(seen, wait);
                    }
                }
            }
            // Simulated record access: slept, not spun, so it occupies
            // the session but not a CPU and overlaps across sessions like
            // real I/O.
            if self.cfg.op_work_ns > 0 {
                std::thread::sleep(Duration::from_nanos(self.cfg.op_work_ns));
            }
            stats.ops_executed += 1;
        }
        // Fire-and-forget: nobody waits for the verdict, and per-queue
        // FIFO puts the commit ahead of anything this session sends next.
        let ops = self.route.txns.txn(txn).len() as u32;
        self.send(
            shard,
            Command::Commit {
                txn,
                ops,
                ack: None,
            },
        )?;
        Ok(Incarnation::Committed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Progress;
    use relser_core::shard::ShardMap;
    use relser_core::txn::TxnSet;

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
        let cfg = ServerConfig {
            reply_timeout: Duration::from_millis(15),
            ..ServerConfig::default()
        };
        let queue: BoundedQueue<Command> = BoundedQueue::new(8);
        let session = Session {
            route: Route {
                txns: &txns,
                map: ShardMap::new(1),
                queues: std::slice::from_ref(&queue),
                progresses: &[Progress::new()],
                healths: None,
            },
            cfg: &cfg,
            sheds: &[AtomicU64::new(0)],
        };
        let mut stats = SessionStats::default();
        let err = session.run_txn(TxnId(0), &mut stats).unwrap_err();
        assert_eq!(err, SessionError::ReplyLost(TxnId(0)));
        // The failure is the session's own: the queue is still open for
        // everyone else.
        assert!(queue.push_wait(Command::Begin(TxnId(0))).is_ok());
    }
}
