//! Per-connection state machine: decode buffer, pipelined in-flight
//! request table, write buffer, and the degrade/close discipline.
//!
//! What happens to one command between its submit and its verdict —
//! resubmit on `Blocked`, the waits-for timeout, the reply watchdog — is
//! not written here: each in-flight request holds a [`Flight`], the
//! state machine of `relser_server::flight`, and the connection is its
//! *reactor* driver ([`Flight::poll`] on every pass, [`Flight::deadline`]
//! for the reactor's wait). Which core a command goes to is the server's
//! [`Route`], the same value the in-process sessions route by.
//!
//! A connection fails alone. Every terminal condition — corrupt frame,
//! malformed request, lost reply, socket error — marks *this* connection
//! closing: its live transactions are aborted through the normal command
//! queue (so the scheduler, WAL, and offline oracle all see ordinary
//! aborts) and the socket is shut down, while every other connection
//! keeps committing. The server never dies because one client is broken.
//!
//! Backpressure is two-layered, mapping the admission queue's
//! [`OverloadPolicy`] onto the socket:
//!
//! * **Wait**: a full command queue defers the command into a per-
//!   connection FIFO and *pauses reads* — the kernel receive buffer and
//!   then the client's TCP window fill, which is exactly the waiting the
//!   in-process session does on [`BoundedQueue::push_wait`], stretched
//!   over the wire.
//! * **Shed**: operation requests get an explicit [`Response::Shed`] and
//!   nothing is enqueued; the client backs off and retries.
//!   Begin/commit/abort are never shed (dropping one would corrupt the
//!   protocol) — they defer as under Wait.

use crate::metrics::NetMetrics;
use crate::wire::{ErrorCode, ReqId, Request, Response};
use relser_core::ids::{OpId, TxnId};
use relser_poll::{Doorbell, PollFd, POLLIN, POLLOUT};
use relser_protocols::AbortReason;
use relser_server::core::{Command, Reply};
use relser_server::queue::{BoundedQueue, PushError};
use relser_server::supervisor::SessionTable;
use relser_server::{Flight, OverloadPolicy, Route, Step, Timeouts, Work};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a connection needs from the server, shared by all
/// connections of one run.
pub(crate) struct ReactorCtx<'a> {
    /// One doorbell per reactor thread (index = reactor), each attached
    /// to every core's progress epoch.
    pub bells: Vec<Arc<Doorbell>>,
    /// The admission cores: [`crate::serve_net`] hands in the N = 1 row,
    /// the supervised service one element per shard core. A transaction
    /// is owned by exactly one of them; one spanning shards is answered
    /// `BadRequest`.
    pub route: Route<'a>,
    /// The durable client-session retry table (only a supervised core
    /// ever writes it; empty otherwise).
    pub sessions: &'a SessionTable,
    /// What to do with operation requests when the queue is full.
    pub policy: OverloadPolicy,
    /// Cap on in-flight (submitted, unanswered) commands per connection;
    /// reads pause at the cap, so a pipelining client is throttled by
    /// TCP backpressure rather than unbounded server memory.
    pub max_inflight: usize,
    /// The waits-for timeout, retry slice and reply watchdog of every
    /// in-flight command ([`Flight`]).
    pub timeouts: Timeouts,
}

/// What a decoded request asks of the core.
#[derive(Clone, Copy)]
enum ActionKind {
    Begin,
    Op(OpId),
    Commit,
    Abort,
    /// Degrade-path abort of a live transaction (EOF, lost reply, bad
    /// frame, waits-for timeout): no response, but the abort must still
    /// reach the core.
    Cleanup,
}

/// A decoded request waiting for room in the command queue of the core
/// owning `txn`.
struct Action {
    kind: ActionKind,
    req_id: ReqId,
    txn: TxnId,
    /// Wire-to-wire start: when the request's bytes were read.
    t0: Instant,
}

/// One in-flight command: the request it answers and the [`Flight`] —
/// the per-operation state machine the in-process sessions drive too —
/// that waits for its verdict.
struct InFlight {
    req_id: ReqId,
    t0: Instant,
    flight: Flight,
}

/// A response encoded into the write buffer, waiting to hit the socket;
/// `end` is the absolute output-stream offset its last byte occupies.
struct RespMark {
    end: u64,
    /// When the decision was taken (reply-stage start).
    ready: Instant,
    /// Wire-to-wire start, when this response completes a request.
    t0: Option<Instant>,
}

/// Soft cap on buffered unparsed input; reads pause beyond it.
const RBUF_MAX: usize = 1 << 20;

pub(crate) struct Conn {
    stream: TcpStream,
    /// The owning reactor's doorbell: every reply cell this connection
    /// submits carries it, so the core's batch release wakes the reactor.
    bell: Arc<Doorbell>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf`.
    wpos: usize,
    /// Total bytes ever encoded / ever written to the socket.
    enc_total: u64,
    sent_total: u64,
    resp_marks: VecDeque<RespMark>,
    flights: Vec<InFlight>,
    deferred: VecDeque<Action>,
    /// Transactions begun on this connection and not yet finished.
    live: Vec<TxnId>,
    /// The session id a [`Request::Hello`] bound to this connection;
    /// relaxes the live-transaction validation (a resumed session may
    /// legitimately commit a transaction it began on a dead connection)
    /// and records every commit in the retry table.
    session: Option<u64>,
    /// Timestamp of the latest socket read (wire-to-wire start for the
    /// requests it delivered).
    last_read: Instant,
    /// The peer closed (or the socket failed); stop reading.
    eof: bool,
    /// Terminal: drain cleanup aborts, flush, then close.
    closing: bool,
    /// The command queue is closed (server shutting down / core dead).
    queue_closed: bool,
    /// Fully shut down; the reactor drops the connection.
    pub(crate) closed: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, bell: Arc<Doorbell>) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            bell,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            enc_total: 0,
            sent_total: 0,
            resp_marks: VecDeque::new(),
            flights: Vec::new(),
            deferred: VecDeque::new(),
            live: Vec::new(),
            session: None,
            last_read: Instant::now(),
            eof: false,
            closing: false,
            queue_closed: false,
            closed: false,
        })
    }

    /// Reads pause under backpressure — at the in-flight cap, behind
    /// deferred commands, or with a big unparsed backlog — and for good
    /// once the peer is gone or the connection is closing. The kernel
    /// buffer then the client's TCP window absorb the rest.
    fn reads_paused(&self, ctx: &ReactorCtx<'_>) -> bool {
        self.eof
            || self.closing
            || self.flights.len() >= ctx.max_inflight
            || !self.deferred.is_empty()
            || self.rbuf.len() >= RBUF_MAX
    }

    /// This connection's entry in the reactor's wait set: readable unless
    /// its reads are paused (a level-triggered wait on a socket nobody
    /// will read would return at once, forever), writable only while
    /// output is waiting for room. `None` when neither — whatever the
    /// connection waits for then arrives by doorbell or by deadline.
    pub(crate) fn poll_fd(&self, ctx: &ReactorCtx<'_>) -> Option<PollFd> {
        let mut events = 0;
        if !self.reads_paused(ctx) {
            events |= POLLIN;
        }
        if self.wpos < self.wbuf.len() {
            events |= POLLOUT;
        }
        (events != 0).then(|| PollFd::new(self.stream.as_raw_fd(), events))
    }

    /// The earliest instant this connection needs a pass that no socket
    /// event and no doorbell will announce: a watchdog or a retry slice
    /// running out, or — one `quantum` from `now` — another try at a
    /// command queue that was full. `None`: nothing is timed.
    pub(crate) fn deadline(
        &self,
        ctx: &ReactorCtx<'_>,
        quantum: Duration,
        now: Instant,
    ) -> Option<Instant> {
        let retry_tick = now.checked_add(quantum);
        let mut first: Option<Instant> = None;
        let mut at = |t: Option<Instant>| first = [first, t].into_iter().flatten().min();
        if !self.deferred.is_empty() {
            at(retry_tick);
        }
        if self.closing {
            return first; // in-flight replies are abandoned at the close
        }
        for f in &self.flights {
            // A deadline already past is a resubmit that found the queue
            // full: try again a quantum later.
            let due = f.flight.deadline(&ctx.timeouts);
            at(due.and_then(|d| if d <= now { retry_tick } else { Some(d) }));
        }
        first
    }

    /// One reactor pass over this connection. Returns `true` if any
    /// progress was made (the reactor passes again before it waits).
    pub(crate) fn tick(&mut self, ctx: &ReactorCtx<'_>, m: &mut NetMetrics) -> bool {
        if self.closed {
            return false;
        }
        let mut busy = false;
        if !self.reads_paused(ctx) {
            busy |= self.read_some();
        }
        busy |= self.parse_requests(ctx, m);
        busy |= self.drain_deferred(ctx, m);
        busy |= self.poll_flights(ctx, m);
        busy |= self.flush(m);
        if self.eof && !self.closing {
            // Clean disconnect: abort whatever the client left live.
            self.degrade(m);
        }
        if self.closing && self.deferred.is_empty() && (self.wpos == self.wbuf.len() || self.eof) {
            let _ = self.stream.shutdown(Shutdown::Both);
            self.flights.clear();
            self.closed = true;
            busy = true;
        }
        busy
    }

    /// The server is shutting down gracefully: broadcast a typed
    /// [`Response::Closing`] notice, abort anything still live through
    /// the queue (the drain), and close once the farewell is flushed.
    pub(crate) fn begin_shutdown(&mut self, m: &mut NetMetrics) {
        if !self.closing {
            m.closing_replies += 1;
            self.respond(Response::Closing { req_id: 0 }, None, m);
            self.degrade(m);
        }
    }

    /// Starts the degrade path: every live transaction gets a cleanup
    /// abort through the queue, then the connection closes. Only this
    /// connection is affected.
    fn degrade(&mut self, _m: &mut NetMetrics) {
        self.closing = true;
        if !self.queue_closed {
            for txn in std::mem::take(&mut self.live) {
                self.deferred.push_back(Action::cleanup(txn));
            }
        } else {
            self.deferred.clear();
            self.live.clear();
        }
    }

    /// Terminal protocol error: best-effort error response, then degrade.
    fn fail(&mut self, req_id: ReqId, code: ErrorCode, m: &mut NetMetrics) {
        self.respond(Response::Error { req_id, code }, None, m);
        match code {
            ErrorCode::BadRequest => m.bad_frame_closes += 1,
            ErrorCode::ReplyLost => m.reply_lost_closes += 1,
            ErrorCode::Shutdown => {}
        }
        self.degrade(m);
    }

    fn read_some(&mut self) -> bool {
        let mut tmp = [0u8; 8192];
        let mut got = false;
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    if !got {
                        self.last_read = Instant::now();
                        got = true;
                    }
                    self.rbuf.extend_from_slice(&tmp[..n]);
                    if n < tmp.len() || self.rbuf.len() >= RBUF_MAX {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    break;
                }
            }
        }
        got
    }

    /// Decodes and dispatches every complete frame in the read buffer.
    fn parse_requests(&mut self, ctx: &ReactorCtx<'_>, m: &mut NetMetrics) -> bool {
        let mut at = 0;
        let mut busy = false;
        while !self.closing && at < self.rbuf.len() {
            let t_decode = Instant::now();
            match Request::decode(&self.rbuf[at..]) {
                Ok((req, n)) => {
                    at += n;
                    m.decode
                        .record(t_decode.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    m.requests += 1;
                    busy = true;
                    self.handle_request(req, ctx, m);
                }
                Err(e) if e.is_incomplete() => break,
                Err(_) => {
                    // Corrupt stream: there is no trustworthy next-frame
                    // boundary, so resynchronization is impossible — the
                    // connection (and only the connection) dies.
                    self.fail(0, ErrorCode::BadRequest, m);
                    busy = true;
                }
            }
        }
        if at > 0 {
            self.rbuf.drain(..at);
        }
        busy
    }

    /// Validates a request against the transaction set and turns it into
    /// an action. Anything inconsistent is a protocol error: this server
    /// only admits operations that exist in its workload, so a buggy
    /// client cannot corrupt the scheduler.
    fn handle_request(&mut self, req: Request, ctx: &ReactorCtx<'_>, m: &mut NetMetrics) {
        let t0 = self.last_read;
        let req_id = req.req_id();
        // A sessionful connection may be a resumed one: its transactions
        // began on a connection that died, so "live on this connection"
        // is too strict — existence in the universe is the contract, and
        // the core's commit-supremacy rules answer retries of retired or
        // committed incarnations with their typed verdicts.
        let resumed = self.session.is_some();
        let begun = |conn: &Conn, txn| {
            conn.live.contains(&txn) || (resumed && ctx.route.txns.get(txn).is_some())
        };
        let (kind, txn, valid) = match req {
            Request::Hello { session, .. } => {
                self.session = Some(session);
                m.hellos += 1;
                self.respond(Response::Welcome { req_id }, Some(t0), m);
                return;
            }
            Request::Begin { txn, .. } => {
                let fresh = ctx.route.txns.get(txn).is_some() && !self.live.contains(&txn);
                (ActionKind::Begin, txn, fresh)
            }
            Request::Read { op, object, .. } | Request::Write { op, object, .. } => {
                let known = match ctx.route.txns.op(op) {
                    Ok(real) => real.mode == req.mode().unwrap() && real.object == object,
                    Err(_) => false,
                };
                let valid = known && (resumed || self.live.contains(&op.txn));
                (ActionKind::Op(op), op.txn, valid)
            }
            Request::Commit { txn, .. } => {
                // Exactly-once fast path: a retried commit whose original
                // ack is in the session table gets the original verdict
                // back without touching the admission core at all.
                if self.session.and_then(|s| ctx.sessions.lookup(s)) == Some((req_id, txn)) {
                    m.dup_commit_fast += 1;
                    self.live.retain(|&t| t != txn);
                    self.respond(Response::Committed { req_id }, Some(t0), m);
                    return;
                }
                (ActionKind::Commit, txn, begun(self, txn))
            }
            Request::Abort { txn, .. } => (ActionKind::Abort, txn, begun(self, txn)),
        };
        if !valid {
            return self.fail(req_id, ErrorCode::BadRequest, m);
        }
        let action = Action {
            kind,
            req_id,
            txn,
            t0,
        };
        // Per-connection FIFO: nothing may overtake an already-deferred
        // command, or program order could invert inside the queue.
        if self.deferred.is_empty() {
            if let Some(back) = self.try_action(action, ctx, m) {
                self.deferred.push_back(back);
                m.deferrals += 1;
            }
        } else {
            self.deferred.push_back(action);
        }
    }

    /// Retries deferred commands in FIFO order; stops at the first that
    /// still finds the queue full.
    fn drain_deferred(&mut self, ctx: &ReactorCtx<'_>, m: &mut NetMetrics) -> bool {
        let mut busy = false;
        while let Some(action) = self.deferred.pop_front() {
            match self.try_action(action, ctx, m) {
                None => busy = true,
                Some(back) => {
                    self.deferred.push_front(back);
                    break;
                }
            }
        }
        busy
    }

    /// Attempts to enqueue one action's command on the core owning its
    /// transaction. Returns the action back when the queue is full and
    /// the action must wait (backpressure).
    fn try_action(
        &mut self,
        a: Action,
        ctx: &ReactorCtx<'_>,
        m: &mut NetMetrics,
    ) -> Option<Action> {
        if self.queue_closed {
            return None; // shutting down; drop silently
        }
        // A transaction spanning shards has no owner: refused.
        let Some(shard) = ctx.route.map.owner_of_txn(ctx.route.txns, a.txn) else {
            self.fail(a.req_id, ErrorCode::BadRequest, m);
            return None;
        };
        let queue = &ctx.route.queues[shard as usize];
        let submit = |work| {
            let reply = Reply::with_doorbell(Arc::clone(&self.bell));
            let push = BoundedQueue::try_push;
            Flight::submit(&ctx.route, shard, work, reply, Instant::now(), push)
        };
        let pushed = match a.kind {
            ActionKind::Begin => queue.try_push(Command::Begin(a.txn)).map(|()| None),
            ActionKind::Abort | ActionKind::Cleanup => {
                queue.try_push(Command::Abort(a.txn)).map(|()| None)
            }
            ActionKind::Op(op) => submit(Work::Op(op)).map(Some),
            // The `(session, req_id)` pair the commit is recorded under in
            // the retry table (`None` on a sessionless connection).
            ActionKind::Commit => {
                submit(Work::Commit(a.txn, self.session.map(|s| (s, a.req_id)))).map(Some)
            }
        };
        match (pushed, a.kind) {
            (Ok(Some(flight)), _) => self.flights.push(InFlight {
                req_id: a.req_id,
                t0: a.t0,
                flight,
            }),
            // FIFO queue order applies a begin or an abort before any
            // later command of this connection, so the ack can ride on
            // the enqueue itself.
            (Ok(None), ActionKind::Begin) => {
                self.live.push(a.txn);
                self.respond(Response::Granted { req_id: a.req_id }, Some(a.t0), m);
            }
            (Ok(None), ActionKind::Abort) => {
                self.live.retain(|&t| t != a.txn);
                self.respond(Response::Granted { req_id: a.req_id }, Some(a.t0), m);
            }
            (Ok(None), _) => {}
            (Err(PushError::Full(_)), ActionKind::Op(_)) if ctx.policy == OverloadPolicy::Shed => {
                m.sheds += 1;
                self.respond(Response::Shed { req_id: a.req_id }, Some(a.t0), m);
            }
            (Err(PushError::Full(_)), _) => return Some(a),
            // A cleanup for a shard mid-recovery has nothing to clean up:
            // recovery itself rolls the orphan back.
            (Err(PushError::Closed(_)), ActionKind::Cleanup) => {
                if !ctx.route.recovering(shard) {
                    self.queue_closed = true;
                    self.deferred.clear();
                }
            }
            (Err(PushError::Closed(_)), _) => self.on_closed(shard, a.req_id, ctx, m),
        }
        None
    }

    fn shutdown_error(&mut self, req_id: ReqId, m: &mut NetMetrics) {
        self.queue_closed = true;
        m.closing_replies += 1;
        self.respond(Response::Closing { req_id }, None, m);
        self.degrade(m);
    }

    /// A shard queue refused a push because it is closed. Under
    /// supervision that is a *transient* condition (the supervisor is
    /// recovering the shard core in place): answer the typed retryable
    /// [`Response::Recovering`] and drop the action — the client backs
    /// off and re-sends, and a retried commit keeps its `req_id` so the
    /// retry table still deduplicates it. Without supervision (or once
    /// the restart budget is exhausted) a closed queue is terminal.
    fn on_closed(&mut self, shard: u32, req_id: ReqId, ctx: &ReactorCtx<'_>, m: &mut NetMetrics) {
        if ctx.route.recovering(shard) {
            m.recovering_replies += 1;
            self.respond(Response::Recovering { req_id }, None, m);
        } else {
            self.shutdown_error(req_id, m);
        }
    }

    /// Polls every in-flight command ([`Flight::poll`] runs the
    /// blocked-retry protocol and the watchdogs) and answers the ones
    /// that reached a verdict.
    fn poll_flights(&mut self, ctx: &ReactorCtx<'_>, m: &mut NetMetrics) -> bool {
        let mut busy = false;
        let mut i = 0;
        while i < self.flights.len() && !self.closing {
            let step = self.flights[i]
                .flight
                .poll(&ctx.route, &ctx.timeouts, Instant::now());
            if step == Step::InFlight {
                i += 1;
                continue;
            }
            let InFlight { req_id, t0, flight } = self.flights.remove(i);
            let (work, txn) = (flight.work(), flight.work().txn());
            m.retries += flight.resubmits();
            busy = true;
            // The transaction is over once it committed or aborted; a lost
            // reply or a closed queue leaves it live for the cleanup.
            let over = match step {
                Step::InFlight => unreachable!("left in the table above"),
                Step::Granted => {
                    let committed = matches!(work, Work::Commit(..));
                    let resp = match committed {
                        false => Response::Granted { req_id },
                        true => Response::Committed { req_id },
                    };
                    self.respond(resp, Some(t0), m);
                    committed
                }
                Step::Aborted(reason) => {
                    self.respond(Response::Aborted { req_id, reason }, Some(t0), m);
                    true
                }
                Step::TimedOut => {
                    self.deferred.push_back(Action::cleanup(txn));
                    m.timeout_aborts += 1;
                    let reason = AbortReason::Deadlock;
                    self.respond(Response::Aborted { req_id, reason }, None, m);
                    true
                }
                // The core went silent on this request: degrade this
                // connection, leave the rest of the server alone.
                Step::ReplyLost => {
                    self.fail(req_id, ErrorCode::ReplyLost, m);
                    false
                }
                Step::Closed => {
                    self.on_closed(flight.shard(), req_id, ctx, m);
                    false
                }
            };
            if over {
                self.live.retain(|&t| t != txn);
            }
        }
        busy
    }

    /// Encodes a response into the write buffer and marks its completion
    /// offset for the reply/wire stage histograms.
    fn respond(&mut self, resp: Response, t0: Option<Instant>, m: &mut NetMetrics) {
        let ready = Instant::now();
        let before = self.wbuf.len();
        resp.encode_into(&mut self.wbuf);
        self.enc_total += (self.wbuf.len() - before) as u64;
        self.resp_marks.push_back(RespMark {
            end: self.enc_total,
            ready,
            t0,
        });
        m.responses += 1;
    }

    /// Writes as much of the buffered output as the socket accepts and
    /// records the reply/wire stage latency of every response whose last
    /// byte left. Once the peer is gone the rest never leaves: those
    /// responses are counted undelivered, not timed.
    fn flush(&mut self, m: &mut NetMetrics) -> bool {
        let mut busy = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.sent_total += n as u64;
                    busy = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        let now = Instant::now();
        while let Some(mark) = self.resp_marks.front() {
            if mark.end > self.sent_total {
                break;
            }
            m.reply
                .record(now.duration_since(mark.ready).as_nanos() as u64);
            if let Some(t0) = mark.t0 {
                m.wire.record(now.duration_since(t0).as_nanos() as u64);
            }
            self.resp_marks.pop_front();
        }
        if self.eof {
            m.undelivered_responses += self.resp_marks.len() as u64;
            self.resp_marks.clear();
        }
        busy
    }
}

impl Action {
    /// The abort a live transaction is owed when its connection (or its
    /// blocked operation) gives up; answers nobody.
    fn cleanup(txn: TxnId) -> Action {
        Action {
            kind: ActionKind::Cleanup,
            req_id: 0,
            txn,
            t0: Instant::now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected pair over loopback: the server side as a [`Conn`].
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let bell = Arc::new(Doorbell::new().unwrap());
        (Conn::new(server, bell).unwrap(), client)
    }

    /// Responses whose bytes never left — the socket died before the
    /// flush — are counted undelivered and add no sample to the `reply`
    /// and `wire` stages; the ones that did leave are timed as ever.
    #[test]
    fn responses_to_a_dead_peer_are_counted_not_timed() {
        let mut m = NetMetrics::default();
        let (mut conn, client) = pair();
        conn.respond(
            Response::Granted { req_id: 1 },
            Some(Instant::now()),
            &mut m,
        );
        assert!(conn.flush(&mut m));
        assert_eq!((m.reply.count(), m.wire.count()), (1, 1), "delivered");

        // The peer closes with the first response unread (a reset), and
        // our write half is shut for good measure: every later write fails.
        drop(client);
        let _ = conn.stream.shutdown(Shutdown::Write);
        for req_id in 2..5 {
            conn.respond(Response::Granted { req_id }, Some(Instant::now()), &mut m);
        }
        conn.flush(&mut m);
        assert!(conn.eof, "the write failed: the peer is gone");
        assert_eq!(
            (m.reply.count(), m.wire.count()),
            (1, 1),
            "no latency recorded for responses nobody received"
        );
        assert_eq!(m.undelivered_responses, 3);
        assert!(conn.resp_marks.is_empty());
    }
}
