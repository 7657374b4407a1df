//! Step tests of the per-operation state machine (`relser_server::Flight`)
//! with no thread, no socket and no clock: the test plays the admission
//! core by hand — it pops the submitted command off the queue and fills
//! its reply — and every `poll` gets its `now` injected, so each timeout
//! is pinned to the nanosecond.

use relser_core::ids::{OpId, TxnId};
use relser_core::shard::ShardMap;
use relser_core::txn::TxnSet;
use relser_protocols::{AbortReason, Decision};
use relser_server::core::{Command, Progress, Reply};
use relser_server::{BoundedQueue, Flight, Route, Step, Timeouts, Work};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

const NS: Duration = Duration::from_nanos(1);
/// Timeouts whose retry slice never runs out inside a test: only an
/// epoch bump resubmits.
const T: Timeouts = Timeouts {
    block_timeout: Duration::from_millis(100),
    retry_slice: Duration::from_secs(3600),
    reply_timeout: Duration::from_secs(5),
};
/// The same with a slice shorter than the waits-for timeout.
const SLICED: Timeouts = Timeouts {
    retry_slice: Duration::from_millis(10),
    ..T
};
const OP: OpId = OpId {
    txn: TxnId(0),
    index: 0,
};

/// One core's worth of back-end with nobody behind the queue.
struct Rig {
    txns: TxnSet,
    queue: BoundedQueue<Command>,
    progress: Progress,
    stamps: AtomicU64,
}

impl Rig {
    fn new(capacity: usize) -> Rig {
        Rig {
            txns: TxnSet::parse(&["w1[x]", "w2[x]", "w3[x]"]).unwrap(),
            queue: BoundedQueue::new(capacity),
            progress: Progress::new(),
            stamps: AtomicU64::new(7),
        }
    }

    fn route(&self) -> Route<'_> {
        Route {
            txns: &self.txns,
            map: ShardMap::new(1),
            queues: std::slice::from_ref(&self.queue),
            progresses: std::slice::from_ref(&self.progress),
            stamps: Some(&self.stamps),
            healths: None,
        }
    }

    fn submit(&self, work: Work, now: Instant) -> Flight {
        let push = BoundedQueue::try_push;
        Flight::submit(&self.route(), 0, work, Reply::new(), now, push)
            .unwrap_or_else(|_| panic!("the queue has room"))
    }

    /// Everything enqueued so far, taken off the queue: closed, a closed
    /// queue's `pop_batch` delivers what is pending without waiting, then
    /// reopened for the next submit.
    fn drain(&self) -> Vec<Command> {
        let mut out = Vec::new();
        self.queue.close();
        while self.queue.pop_batch(usize::MAX, &mut out) {}
        self.queue.reopen();
        out
    }

    /// Plays the core: exactly one `Request` for `OP` is enqueued; takes
    /// it and returns its reply cell.
    fn take_request(&self) -> Reply {
        let mut cmds = self.drain();
        assert_eq!(cmds.len(), 1, "exactly one command enqueued");
        match cmds.pop() {
            Some(Command::Request { op, reply, .. }) if op == OP => reply,
            _ => panic!("expected the request for {OP:?}"),
        }
    }

    fn poll(&self, flight: &mut Flight, now: Instant) -> Step {
        flight.poll(&self.route(), &T, now)
    }

    fn poll_sliced(&self, flight: &mut Flight, now: Instant) -> Step {
        flight.poll(&self.route(), &SLICED, now)
    }
}

fn blocked(on: &[u32]) -> Decision {
    Decision::Blocked {
        on: on.iter().map(|&t| TxnId(t)).collect(),
    }
}

/// Submits `OP` at `t0`, answers it `Blocked { on }` and polls at `at`:
/// the flight comes back parked with its clock started at `at`.
fn parked_flight(rig: &Rig, t0: Instant, on: &[u32], at: Instant) -> Flight {
    let mut flight = rig.submit(Work::Op(OP), t0);
    rig.take_request().fill(blocked(on));
    assert_eq!(rig.poll(&mut flight, at), Step::InFlight);
    assert!(flight.parked_at().is_some());
    flight
}

#[test]
fn the_verdict_of_the_core_is_the_verdict_of_the_flight() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let mut flight = rig.submit(Work::Op(OP), t0);
    assert_eq!(
        rig.poll(&mut flight, t0),
        Step::InFlight,
        "not answered yet"
    );
    assert_eq!(flight.parked_at(), None);
    assert_eq!(flight.deadline(&T), Some(t0 + T.reply_timeout));
    rig.take_request().fill(Decision::Granted);
    assert_eq!(rig.poll(&mut flight, t0 + NS), Step::Granted);

    let mut flight = rig.submit(Work::Op(OP), t0);
    rig.take_request()
        .fill(Decision::Aborted(AbortReason::CycleRejected));
    assert_eq!(
        rig.poll(&mut flight, t0 + NS),
        Step::Aborted(AbortReason::CycleRejected)
    );
}

/// An acknowledged commit goes out as the one `Command::Commit`, stamped
/// from the route's counter, carrying its session entry and a reply.
#[test]
fn a_commit_flight_asks_for_its_ack() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let work = Work::Commit(TxnId(1), Some((9, 3)));
    let mut flight = rig.submit(work, t0);
    assert_eq!((flight.work(), flight.work().txn()), (work, TxnId(1)));
    let mut cmds = rig.drain();
    let Some(Command::Commit {
        txn,
        ops,
        stamp,
        ack,
    }) = cmds.pop()
    else {
        panic!("expected a commit");
    };
    let ack = ack.expect("an ack is asked for");
    assert_eq!(
        (txn, stamp, ack.session, ack.enqueued),
        (TxnId(1), Some(7), Some((9, 3)), t0)
    );
    assert_eq!(
        ops,
        rig.txns.txn(txn).len() as u32,
        "the length rides along"
    );
    ack.reply.fill(Decision::Granted);
    assert_eq!(rig.poll(&mut flight, t0 + NS), Step::Granted);
}

#[test]
fn blocked_twice_on_the_same_set_times_out_exactly_at_the_deadline() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let since = t0 + Duration::from_millis(1);
    // The set arrives unsorted with a duplicate; the flight normalises it.
    let mut flight = parked_flight(&rig, t0, &[2, 1, 2], since);
    assert_eq!(flight.interest(), [TxnId(1), TxnId(2)]);
    assert_eq!(flight.deadline(&T), Some(since + T.block_timeout));
    assert_eq!(flight.deadline(&SLICED), Some(t0 + SLICED.retry_slice));

    // The epoch moves: resubmitted, and blocked again on the same set.
    rig.progress.bump();
    assert_eq!(
        rig.poll(&mut flight, t0 + Duration::from_millis(2)),
        Step::InFlight
    );
    rig.take_request().fill(blocked(&[1, 2]));
    assert_eq!(
        rig.poll(&mut flight, t0 + Duration::from_millis(3)),
        Step::InFlight
    );
    assert_eq!(flight.resubmits(), 1);

    // The clock kept running from the first `Blocked`: the timeout is due
    // at `since + block_timeout`, to the nanosecond.
    let due = since + T.block_timeout;
    assert_eq!(flight.deadline(&T), Some(due));
    assert_eq!(rig.poll(&mut flight, due - NS), Step::InFlight);
    assert_eq!(rig.poll(&mut flight, due), Step::TimedOut);
    assert!(rig.drain().is_empty(), "timing out submits nothing");
}

#[test]
fn a_changed_waits_for_set_restarts_the_clock() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let first = t0 + Duration::from_millis(1);
    let mut flight = parked_flight(&rig, t0, &[1], first);

    rig.progress.bump();
    assert_eq!(
        rig.poll(&mut flight, t0 + Duration::from_millis(2)),
        Step::InFlight
    );
    rig.take_request().fill(blocked(&[2]));
    let second = t0 + Duration::from_millis(50);
    assert_eq!(rig.poll(&mut flight, second), Step::InFlight);
    assert_eq!(flight.interest(), [TxnId(2)]);

    // Past the first set's deadline, not yet at the second's.
    assert_eq!(
        rig.poll(&mut flight, first + T.block_timeout),
        Step::InFlight
    );
    let due = second + T.block_timeout;
    assert_eq!(flight.deadline(&T), Some(due));
    assert_eq!(rig.poll(&mut flight, due - NS), Step::InFlight);
    assert_eq!(rig.poll(&mut flight, due), Step::TimedOut);
}

#[test]
fn an_epoch_past_seen_means_exactly_one_resubmit() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let mut flight = parked_flight(&rig, t0, &[1], t0 + NS);
    let seen = flight.parked_at().unwrap();

    // Parked, epoch unmoved, slice not over: nothing is enqueued.
    assert_eq!(rig.poll(&mut flight, t0 + NS * 2), Step::InFlight);
    assert!(rig.drain().is_empty());

    rig.progress.bump();
    assert!(rig.progress.current() > seen);
    assert_eq!(rig.poll(&mut flight, t0 + NS * 3), Step::InFlight);
    assert_eq!(flight.parked_at(), None, "at the core again");
    // Further polls find it in flight and do not submit it again.
    assert_eq!(rig.poll(&mut flight, t0 + NS * 4), Step::InFlight);
    let reply = rig.take_request();
    assert_eq!(flight.resubmits(), 1);
    assert_eq!(
        flight.deadline(&T),
        Some(t0 + NS * 3 + T.reply_timeout),
        "the reply watchdog runs from the resubmit"
    );
    reply.fill(Decision::Granted);
    assert_eq!(rig.poll(&mut flight, t0 + NS * 5), Step::Granted);
}

#[test]
fn a_slice_running_out_means_one_resubmit_without_any_epoch_move() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let mut flight = parked_flight(&rig, t0, &[1], t0 + NS);

    let slice_end = t0 + SLICED.retry_slice;
    assert_eq!(rig.poll_sliced(&mut flight, slice_end - NS), Step::InFlight);
    assert!(rig.drain().is_empty(), "the slice runs from the submit");
    assert_eq!(rig.poll_sliced(&mut flight, slice_end), Step::InFlight);
    assert_eq!(rig.poll_sliced(&mut flight, slice_end + NS), Step::InFlight);
    rig.take_request();
    assert_eq!(flight.resubmits(), 1);
}

#[test]
fn a_full_queue_leaves_the_flight_parked_and_enqueues_nothing() {
    let rig = Rig::new(1);
    let t0 = Instant::now();
    let mut flight = parked_flight(&rig, t0, &[1], t0 + NS);
    // Somebody else's command fills the queue, then the epoch moves.
    assert!(rig.queue.try_push(Command::Begin(TxnId(2))).is_ok());
    rig.progress.bump();

    assert_eq!(rig.poll_sliced(&mut flight, t0 + NS * 2), Step::InFlight);
    assert_eq!(
        flight.parked_at(),
        Some(rig.progress.current()),
        "still parked; this epoch is spent"
    );
    // Once the slice is over, every poll tries — and the deadline, not
    // after `now`, tells the driver to come back a tick later.
    let late = t0 + SLICED.retry_slice;
    assert_eq!(rig.poll_sliced(&mut flight, late), Step::InFlight);
    assert!(flight.deadline(&SLICED).unwrap() <= late);
    let left = rig.drain();
    assert!(
        matches!(left[..], [Command::Begin(TxnId(2))]),
        "no request was enqueued, let alone two"
    );
    assert_eq!(flight.resubmits(), 0);

    // Room again: the next poll gets through.
    assert_eq!(rig.poll_sliced(&mut flight, late + NS), Step::InFlight);
    rig.take_request().fill(Decision::Granted);
    assert_eq!(rig.poll_sliced(&mut flight, late + NS * 2), Step::Granted);
}

#[test]
fn a_closed_queue_ends_a_parked_flight() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let mut flight = parked_flight(&rig, t0, &[1], t0 + NS);
    rig.queue.close();
    rig.progress.bump();
    assert_eq!(rig.poll(&mut flight, t0 + NS * 2), Step::Closed);
}

#[test]
fn a_silent_core_loses_the_reply_at_the_watchdog_not_before() {
    let rig = Rig::new(8);
    let t0 = Instant::now();
    let mut flight = rig.submit(Work::Op(OP), t0);
    assert_eq!(
        rig.poll(&mut flight, t0 + T.reply_timeout - NS),
        Step::InFlight
    );
    assert_eq!(rig.poll(&mut flight, t0 + T.reply_timeout), Step::ReplyLost);
    assert_eq!(rig.drain().len(), 1, "submitted once, never again");
}
