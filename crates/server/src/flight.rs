//! The per-operation state machine: everything between "command
//! submitted" and "verdict delivered", written once.
//!
//! A [`Flight`] is one command whose verdict somebody waits for — an
//! operation request or an acknowledged commit. It owns the [`Reply`]
//! cell and the waits-for state, and is *driven*: it never sleeps, never
//! reads a clock and knows nothing of threads or sockets. Its driver calls
//! [`Flight::poll`] with the current time whenever something may have
//! happened, and waits in between — on the reply cell while the command is
//! at the core, on the owning core's progress epoch while the flight is
//! parked — no longer than [`Flight::deadline`]. The session threads
//! ([`crate::session`]) and the reactors of `relser-net` are the two
//! drivers.
//!
//! Two liveness mechanisms live here, both for blocking schedulers (2PL,
//! altruistic locking); the RSG protocols abort instead of blocking and
//! never reach them:
//!
//! * **Park and resubmit.** A `Blocked` decision parks the flight (the
//!   scheduler has no lock queue a client could wait in). It is
//!   resubmitted once the owning core's progress epoch has passed the
//!   value read before the last submit — a grant, commit or abort changed
//!   something — or a `retry_slice` has run out; a full queue leaves it
//!   parked for the next poll.
//! * **The waits-for timeout.** The flight remembers *which* transactions
//!   it was blocked on. The clock starts with the first `Blocked`, restarts
//!   whenever a later one names a different set — slow but real progress
//!   behind a busy peer is not shot down — and fires, while the flight is
//!   parked, once `block_timeout` has passed on an unchanged set: the
//!   driver aborts the transaction (deadlock resolution) and its client
//!   restarts it.
//!
//! The third timeout is the reply watchdog: a command the core never
//! answers within `reply_timeout` is [`Step::ReplyLost`], which costs its
//! submitter alone.

use crate::core::{Ack, Command, Reply};
use crate::queue::{BoundedQueue, PushError};
use crate::route::Route;
use relser_core::ids::{OpId, TxnId};
use relser_protocols::{AbortReason, Decision};
use std::time::{Duration, Instant};

/// The three timeouts of a flight, cut from a front-end's config.
#[derive(Clone, Copy, Debug)]
pub struct Timeouts {
    /// Blocked on an unchanged waits-for set this long: [`Step::TimedOut`].
    pub block_timeout: Duration,
    /// Resubmit a parked flight at least this often.
    pub retry_slice: Duration,
    /// The core silent on a submitted command this long:
    /// [`Step::ReplyLost`].
    pub reply_timeout: Duration,
}

/// What a flight carries to the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// An operation request ([`Command::Request`]).
    Op(OpId),
    /// An acknowledged commit ([`Command::Commit`] with an [`Ack`]), with
    /// the `(session, req_id)` of an exactly-once one.
    Commit(TxnId, Option<(u64, u64)>),
}

impl Work {
    /// The transaction the work belongs to.
    pub fn txn(&self) -> TxnId {
        match *self {
            Work::Op(op) => op.txn,
            Work::Commit(txn, _) => txn,
        }
    }
}

/// What one [`Flight::poll`] found. Everything but `InFlight` ends the
/// flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Nothing to deliver yet: the command is at the core, or the flight
    /// is parked behind its waits-for set.
    InFlight,
    /// The core granted the operation / committed the transaction.
    Granted,
    /// The core aborted the transaction (and already applied the abort).
    Aborted(AbortReason),
    /// Parked on an unchanged waits-for set for `block_timeout`: the
    /// driver aborts the transaction ([`Command::Abort`]).
    TimedOut,
    /// No answer within `reply_timeout` of the last submit.
    ReplyLost,
    /// The resubmit of a parked flight found the owning core's queue
    /// closed; nothing was enqueued.
    Closed,
}

/// How a submit enqueues: [`BoundedQueue::try_push`], or — a thread that
/// may block for room — [`BoundedQueue::push_wait`].
pub type Push = fn(&BoundedQueue<Command>, Command) -> Result<(), PushError<Command>>;

/// One submitted command and what became of it; see the module docs.
pub struct Flight {
    work: Work,
    /// The core the command went to (resubmits go back there).
    shard: u32,
    /// The cell of the current command instance; a reactor's carries its
    /// doorbell, and so does every cell a resubmit replaces it with.
    reply: Reply,
    /// When the current command instance was enqueued.
    submitted: Instant,
    /// The core's progress epoch read just before that.
    seen: u64,
    /// Answered `Blocked`, not resubmitted yet.
    parked: bool,
    /// The waits-for set of the latest `Blocked`, sorted and deduplicated,
    /// and when a `Blocked` first named it.
    on: Vec<TxnId>,
    blocked_since: Option<Instant>,
    resubmits: u64,
}

impl Flight {
    /// Enqueues `work` on core `shard` with `push`, to be answered through
    /// the empty cell `reply` ([`Reply::new`] for a thread,
    /// [`Reply::with_doorbell`] for a reactor), and returns the flight
    /// that waits for the verdict; the refused command comes back when
    /// the queue is full or closed.
    pub fn submit(
        route: &Route<'_>,
        shard: u32,
        work: Work,
        reply: Reply,
        now: Instant,
        push: Push,
    ) -> Result<Flight, PushError<Command>> {
        let seen = enqueue(route, shard, work, &reply, now, push)?;
        Ok(Flight {
            work,
            shard,
            reply,
            submitted: now,
            seen,
            parked: false,
            on: Vec::new(),
            blocked_since: None,
            resubmits: 0,
        })
    }

    /// Advances the flight to `now`: takes the reply if the core has
    /// answered, parks on `Blocked`, and while parked fires the waits-for
    /// timeout or resubmits (never blocking: a full queue leaves the
    /// flight parked).
    pub fn poll(&mut self, route: &Route<'_>, t: &Timeouts, now: Instant) -> Step {
        if !self.parked {
            match self.reply.try_take() {
                None if now.saturating_duration_since(self.submitted) >= t.reply_timeout => {
                    return Step::ReplyLost
                }
                None => return Step::InFlight,
                Some(Decision::Granted) => return Step::Granted,
                Some(Decision::Aborted(reason)) => return Step::Aborted(reason),
                Some(Decision::Blocked { mut on }) => {
                    on.sort_unstable();
                    on.dedup();
                    if self.blocked_since.is_none() || on != self.on {
                        // First block, or the waits-for set moved:
                        // (re)start the timeout clock.
                        (self.on, self.blocked_since) = (on, Some(now));
                    }
                    self.parked = true;
                }
            }
        }
        let since = self.blocked_since.expect("parked by a Blocked");
        if now.saturating_duration_since(since) >= t.block_timeout {
            return Step::TimedOut;
        }
        let epoch = route.progresses[self.shard as usize].current();
        if epoch > self.seen || now.saturating_duration_since(self.submitted) >= t.retry_slice {
            let reply = self.reply.fresh();
            let push = BoundedQueue::try_push;
            match enqueue(route, self.shard, self.work, &reply, now, push) {
                Ok(seen) => {
                    (self.reply, self.submitted, self.seen) = (reply, now, seen);
                    self.parked = false;
                    self.resubmits += 1;
                }
                // This epoch has been acted on as far as it can be: the
                // next try waits for a later one, or for the slice.
                Err(PushError::Full(_)) => self.seen = epoch,
                Err(PushError::Closed(_)) => return Step::Closed,
            }
        }
        Step::InFlight
    }

    /// The earliest instant a poll can find something no reply and no
    /// epoch bump announces: the reply watchdog while the command is at
    /// the core; the waits-for timeout or the end of the retry slice while
    /// parked. `None`: never. A deadline not after the `now` of a poll
    /// that returned [`Step::InFlight`] is a resubmit that found the
    /// queue full — the driver tries again a tick of its own later.
    pub fn deadline(&self, t: &Timeouts) -> Option<Instant> {
        if !self.parked {
            return self.submitted.checked_add(t.reply_timeout);
        }
        let timeout = self.blocked_since?.checked_add(t.block_timeout);
        let slice = self.submitted.checked_add(t.retry_slice);
        [timeout, slice].into_iter().flatten().min()
    }

    /// What the flight carries.
    pub fn work(&self) -> Work {
        self.work
    }

    /// The core it went to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The transactions the latest `Blocked` named (sorted, deduplicated;
    /// empty before the first).
    pub fn interest(&self) -> &[TxnId] {
        &self.on
    }

    /// While parked: the progress epoch a bump must pass to make the
    /// resubmit due (what a thread driver waits on). `None` while the
    /// command is at the core — the driver waits on [`Flight::reply`].
    pub fn parked_at(&self) -> Option<u64> {
        self.parked.then_some(self.seen)
    }

    /// The reply cell of the current command instance.
    pub fn reply(&self) -> &Reply {
        &self.reply
    }

    /// Successful resubmits so far.
    pub fn resubmits(&self) -> u64 {
        self.resubmits
    }
}

/// Enqueues an instance of `work` answered through `reply`; returns the
/// core's progress epoch as read just before.
fn enqueue(
    route: &Route<'_>,
    shard: u32,
    work: Work,
    reply: &Reply,
    now: Instant,
    push: Push,
) -> Result<u64, PushError<Command>> {
    let seen = route.progresses[shard as usize].current();
    let (enqueued, reply) = (now, reply.clone());
    let cmd = match work {
        Work::Op(op) => Command::Request {
            op,
            enqueued,
            reply,
        },
        Work::Commit(txn, session) => Command::Commit {
            txn,
            ops: route.txns.txn(txn).len() as u32,
            ack: Some(Ack {
                enqueued,
                reply,
                session,
            }),
        },
    };
    push(&route.queues[shard as usize], cmd)?;
    Ok(seen)
}
