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
//! A session is *routed* ([`Route`]): each operation goes to the core
//! that owns its object. [`crate::serve`] is the N = 1 row of that table —
//! one queue, every transaction single-owner, so the lease and two-phase
//! admit below never run — and [`crate::serve_sharded`] the N-shard row;
//! what differs between the rows is data, not code.
//!
//! A **cross-shard** transaction (several owners) takes a shard-set lease
//! and fans a two-phase admit out before its first operation; the
//! protocol and why it is sound are in [`crate::shard`].

use crate::core::{Command, Reply};
use crate::flight::{Flight, Push, Step, Work};
use crate::queue::{BoundedQueue, PushError};
use crate::route::Route;
use crate::server::ServerConfig;
use crate::shard::{AdmitRecord, LeaseTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relser_core::ids::{OpId, TxnId};
use relser_core::shard::ArcExchange;
use relser_protocols::Decision;
use relser_workload::stream::RequestStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
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

/// Everything a session needs, shared across all workers of one run: the
/// back-end ([`Route`]), the config, and one shed counter / commit epoch
/// per admission core. [`crate::serve`] hands in one-element slices,
/// [`crate::serve_sharded`] one element per shard.
pub(crate) struct Session<'a> {
    pub(crate) route: Route<'a>,
    pub(crate) cfg: &'a ServerConfig,
    pub(crate) sheds: &'a [AtomicU64],
    pub(crate) epochs: &'a [AtomicU64],
    pub(crate) leases: &'a LeaseTable,
    pub(crate) admits: &'a Mutex<Vec<AdmitRecord>>,
}

/// How one incarnation ended (leases released, owners clean either way).
enum Incarnation {
    Committed,
    /// A core aborted it, or an owner rejected its admit.
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

    /// Best-effort LIFO rollback on shards that already granted an admit
    /// or still hold a begun incarnation. Send failures are swallowed: a
    /// closed queue means that core crashed or the run is unwinding, and
    /// recovery's all-owners rule makes the half-admitted state harmless.
    fn rollback_lifo(&self, txn: TxnId, shards: impl DoubleEndedIterator<Item = u32>) {
        for s in shards.rev() {
            let _ = self.send(s, Command::Rollback(txn));
        }
    }

    /// Runs one transaction to commit, restarting across aborts, rejected
    /// admits and waits-for timeouts.
    pub(crate) fn run_txn(&self, txn: TxnId, stats: &mut SessionStats) -> Result<(), SessionError> {
        let owners = self.route.owners(txn);
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
            // Strict 2PL at shard granularity for cross-shard transactions
            // only: hold the whole shard set from before the first admit
            // until after the last commit (or the rollback), so
            // overlapping cross-shard transactions never interleave.
            let cross_shard = owners.len() > 1;
            if cross_shard {
                self.leases.acquire(&owners);
            }
            let outcome = self.incarnation(txn, &owners, stats);
            if cross_shard {
                self.leases.release(&owners);
            }
            match outcome? {
                Incarnation::Committed => {
                    stats.commits += 1;
                    return Ok(());
                }
                Incarnation::Aborted => {}
                Incarnation::TimedOut => stats.timeout_aborts += 1,
            }
        }
    }

    /// One incarnation: begin (on the one owner) or two-phase admit (on
    /// several), every operation in program order on its owning core, then
    /// the commit on every owner.
    fn incarnation(
        &self,
        txn: TxnId,
        owners: &[u32],
        stats: &mut SessionStats,
    ) -> Result<Incarnation, SessionError> {
        if let [owner] = owners {
            self.send(*owner, Command::Begin(txn))?;
        } else if !self.admit(txn, owners)? {
            return Ok(Incarnation::Aborted);
        }
        let timeouts = self.cfg.timeouts();
        for index in 0..self.route.txns.txn(txn).len() {
            let op = OpId {
                txn,
                index: index as u32,
            };
            let shard = self.route.core_of(op);
            let others = owners.iter().copied().filter(|&s| s != shard);
            let mut flight = self.submit(shard, op, stats)?;
            // Drive the flight to its verdict, parked between polls on
            // whatever it is waiting for.
            loop {
                let now = Instant::now();
                match flight.poll(&self.route, &timeouts, now) {
                    Step::Granted => break, // next operation in program order
                    Step::Aborted(_) => {
                        // This core already applied the abort; unwind the
                        // other owners before restarting from the first
                        // operation.
                        self.rollback_lifo(txn, others);
                        return Ok(Incarnation::Aborted);
                    }
                    Step::TimedOut => {
                        // Stuck behind the same transactions too long:
                        // abort on the blocking core, roll the rest back,
                        // restart.
                        self.send(shard, Command::Abort(txn))?;
                        self.rollback_lifo(txn, others);
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
        // Fire-and-forget: per-queue FIFO guarantees each owner applies the
        // commit before anything a later lease holder enqueues. One stamp
        // on every owner: the commit lands once on the merged commit order.
        let stamp = self.route.next_stamp();
        for &s in owners {
            let ack = None; // nobody waits for the verdict
            self.send(s, Command::Commit { txn, stamp, ack })?;
        }
        Ok(Incarnation::Committed)
    }

    /// Phase one of a cross-shard incarnation (the caller holds the
    /// shard-set lease): fans [`Command::Admit`] out in ascending shard
    /// order, each message carrying the commit-epoch snapshot (the D-arc
    /// summary). `false` when an owner rejected; the owners that had
    /// already granted are rolled back.
    fn admit(&self, txn: TxnId, owners: &[u32]) -> Result<bool, SessionError> {
        let snapshot: Vec<u64> = self
            .epochs
            .iter()
            .map(|e| e.load(Ordering::SeqCst))
            .collect();
        let mut granted: Vec<u32> = Vec::new();
        let mut rejected = false;
        for &s in owners {
            let reply = Reply::new();
            let mut exchange = ArcExchange::new(s, self.epochs.len() as u32);
            exchange.epochs.copy_from_slice(&snapshot);
            let cmd = Command::Admit {
                txn,
                exchange,
                reply: reply.clone(),
            };
            if let Err(e) = self.send(s, cmd) {
                self.rollback_lifo(txn, granted.iter().copied());
                return Err(e);
            }
            match reply.wait_for(self.cfg.reply_timeout) {
                Ok(Decision::Granted) => granted.push(s),
                Ok(_) => {
                    rejected = true;
                    break;
                }
                Err(_) => {
                    self.rollback_lifo(txn, granted.iter().copied());
                    return Err(SessionError::ReplyLost(txn));
                }
            }
        }
        self.admits
            .lock()
            .expect("admit log lock")
            .push(AdmitRecord {
                txn,
                shards: owners.to_vec(),
                epochs: snapshot,
                granted: !rejected,
            });
        if rejected {
            self.rollback_lifo(txn, granted.iter().copied());
        }
        Ok(!rejected)
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
                stamps: None,
                healths: None,
            },
            cfg: &cfg,
            sheds: &[AtomicU64::new(0)],
            epochs: &[AtomicU64::new(0)],
            leases: &LeaseTable::new(1),
            admits: &Mutex::new(Vec::new()),
        };
        let mut stats = SessionStats::default();
        let err = session.run_txn(TxnId(0), &mut stats).unwrap_err();
        assert_eq!(err, SessionError::ReplyLost(TxnId(0)));
        // The failure is the session's own: the queue is still open for
        // everyone else.
        assert!(queue.push_wait(Command::Begin(TxnId(0))).is_ok());
    }
}
