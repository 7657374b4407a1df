//! Per-connection state machine: decode buffer, pipelined in-flight
//! request table, write buffer, and the degrade/close discipline.
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
use relser_core::shard::ShardMap;
use relser_core::txn::TxnSet;
use relser_poll::{Doorbell, PollFd, POLLIN, POLLOUT};
use relser_protocols::{AbortReason, Decision};
use relser_server::core::{Command, Progress, Reply};
use relser_server::queue::{BoundedQueue, PushError};
use relser_server::supervisor::{SessionTable, ShardHealth};
use relser_server::OverloadPolicy;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sharded, supervised back-end: one queue and one health slot per
/// shard core, plus the object→shard map the reactor routes with and the
/// global commit-stamp counter. Only single-shard transactions are
/// admitted over the wire — the router's two-phase cross-shard admit
/// stays an in-process protocol.
pub(crate) struct ShardRoute<'a> {
    /// One command queue per shard core.
    pub queues: &'a [BoundedQueue<Command>],
    /// One liveness slot per shard core (supervised restarts flip it).
    pub healths: &'a [ShardHealth],
    /// The object→shard partition.
    pub map: ShardMap,
    /// The global commit-stamp counter; one draw per commit merges the
    /// per-shard commit orders into a single timeline.
    pub seq: &'a AtomicU64,
}

/// Everything a connection needs from the server, shared by all
/// connections of one run.
pub(crate) struct ReactorCtx<'a> {
    /// One doorbell per reactor thread (index = reactor), each attached
    /// to `progress`.
    pub bells: Vec<Arc<Doorbell>>,
    /// The command queue into the single-writer admission core (shard 0's
    /// queue when `route` is set — use [`ReactorCtx::queue_of`]).
    pub queue: &'a BoundedQueue<Command>,
    /// The core's progress epoch (blocked-operation retry wakeups).
    pub progress: &'a Progress,
    /// The transaction set requests are validated against.
    pub txns: &'a TxnSet,
    /// What to do with operation requests when the queue is full.
    pub policy: OverloadPolicy,
    /// Cap on in-flight (submitted, unanswered) commands per connection;
    /// reads pause at the cap, so a pipelining client is throttled by
    /// TCP backpressure rather than unbounded server memory.
    pub max_inflight: usize,
    /// Abort a transaction blocked on an unchanged waits-for set this long.
    pub block_timeout: Duration,
    /// Re-submit a blocked operation at least this often even without a
    /// progress epoch advance.
    pub retry_slice: Duration,
    /// Close the connection if the core never answers within this.
    pub reply_timeout: Duration,
    /// Sharded supervised service only; `None` = one unsharded core.
    pub route: Option<ShardRoute<'a>>,
    /// The durable client-session retry table (supervised service only).
    pub sessions: Option<&'a SessionTable>,
}

impl<'a> ReactorCtx<'a> {
    /// The queue commands for `shard` go to.
    fn queue_of(&self, shard: u32) -> &'a BoundedQueue<Command> {
        match &self.route {
            Some(r) => &r.queues[shard as usize],
            None => self.queue,
        }
    }

    /// The shard's health slot, when supervised.
    fn health_of(&self, shard: u32) -> Option<&'a ShardHealth> {
        self.route.as_ref().map(|r| &r.healths[shard as usize])
    }
}

/// A decoded request waiting for room in the command queue. `shard` is
/// the owning shard core (always 0 for an unsharded service).
enum Action {
    Begin {
        req_id: ReqId,
        txn: TxnId,
        shard: u32,
        t0: Instant,
    },
    Op {
        req_id: ReqId,
        op: OpId,
        shard: u32,
        t0: Instant,
    },
    Commit {
        req_id: ReqId,
        txn: TxnId,
        shard: u32,
        t0: Instant,
    },
    Abort {
        req_id: ReqId,
        txn: TxnId,
        shard: u32,
        t0: Instant,
    },
    /// Degrade-path abort of a live transaction (EOF, lost reply, bad
    /// frame): no response, but the abort must still reach the core.
    /// The owning shard is resolved at submit time.
    Cleanup { txn: TxnId },
}

/// What a submitted command is waiting for.
enum PendingKind {
    Op(OpId),
    Commit(TxnId),
}

/// One in-flight command: its reply cell plus the blocked-retry state
/// mirroring the in-process session discipline.
struct Pending {
    req_id: ReqId,
    kind: PendingKind,
    /// The shard core the command went to (resubmits go back there).
    shard: u32,
    reply: Reply,
    /// Wire-to-wire start: when the request's bytes were read.
    t0: Instant,
    /// When the current command instance was enqueued (reply watchdog).
    submitted: Instant,
    /// Progress epoch observed just before the submit (blocked retry).
    seen: u64,
    /// Blocked and waiting for the epoch to pass `seen` before resubmit.
    resubmit: bool,
    /// Waits-for timeout state (ops only).
    ever_blocked: bool,
    waited_on: Vec<TxnId>,
    blocked_since: Instant,
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
    pending: Vec<Pending>,
    deferred: VecDeque<Action>,
    /// Transactions begun on this connection and not yet finished.
    live: Vec<TxnId>,
    /// The session id a [`Request::Hello`] bound to this connection;
    /// relaxes the live-transaction validation (a resumed session may
    /// legitimately commit a transaction it began on a dead connection)
    /// and stamps every commit into the retry table.
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
            pending: Vec::new(),
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
            || self.pending.len() >= ctx.max_inflight
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
        for p in &self.pending {
            if p.resubmit {
                at(p.blocked_since.checked_add(ctx.block_timeout));
                if !self.queue_closed {
                    // A slice that already ran out means the resubmit
                    // found the queue full: try again a quantum later.
                    at(p.submitted.checked_add(ctx.retry_slice).max(retry_tick));
                }
            } else {
                at(p.submitted.checked_add(ctx.reply_timeout));
            }
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
        busy |= self.poll_pending(ctx, m);
        busy |= self.flush(m);
        if self.eof && !self.closing {
            // Clean disconnect: abort whatever the client left live.
            self.degrade(m);
        }
        if self.closing && self.deferred.is_empty() && (self.wpos == self.wbuf.len() || self.eof) {
            let _ = self.stream.shutdown(Shutdown::Both);
            self.pending.clear();
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
                self.deferred.push_back(Action::Cleanup { txn });
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
        let action = match req {
            Request::Hello { session, .. } => {
                self.session = Some(session);
                m.hellos += 1;
                self.respond(Response::Welcome { req_id }, Some(t0), m);
                return;
            }
            Request::Begin { txn, .. } => {
                if ctx.txns.get(txn).is_none() || self.live.contains(&txn) {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                }
                let Some(shard) = self.shard_of(ctx, txn) else {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                };
                Action::Begin {
                    req_id,
                    txn,
                    shard,
                    t0,
                }
            }
            Request::Read { op, object, .. } | Request::Write { op, object, .. } => {
                let known = match ctx.txns.op(op) {
                    Ok(real) => real.mode == req.mode().unwrap() && real.object == object,
                    Err(_) => false,
                };
                if !known || !(resumed || self.live.contains(&op.txn)) {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                }
                let Some(shard) = self.shard_of(ctx, op.txn) else {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                };
                Action::Op {
                    req_id,
                    op,
                    shard,
                    t0,
                }
            }
            Request::Commit { txn, .. } => {
                // Exactly-once fast path: a retried commit whose original
                // ack is in the session table gets the original verdict
                // back without touching the admission core at all.
                if let (Some(table), Some(sess)) = (ctx.sessions, self.session) {
                    if let Some((acked, acked_txn)) = table.lookup(sess) {
                        if req_id == acked && txn == acked_txn {
                            m.dup_commit_fast += 1;
                            self.live.retain(|&t| t != txn);
                            self.respond(Response::Committed { req_id }, Some(t0), m);
                            return;
                        }
                    }
                }
                let known = self.live.contains(&txn) || (resumed && ctx.txns.get(txn).is_some());
                if !known {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                }
                let Some(shard) = self.shard_of(ctx, txn) else {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                };
                Action::Commit {
                    req_id,
                    txn,
                    shard,
                    t0,
                }
            }
            Request::Abort { txn, .. } => {
                let known = self.live.contains(&txn) || (resumed && ctx.txns.get(txn).is_some());
                if !known {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                }
                let Some(shard) = self.shard_of(ctx, txn) else {
                    return self.fail(req_id, ErrorCode::BadRequest, m);
                };
                Action::Abort {
                    req_id,
                    txn,
                    shard,
                    t0,
                }
            }
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

    /// Attempts to enqueue one action's command. Returns the action back
    /// when the queue is full and the action must wait (backpressure).
    fn try_action(
        &mut self,
        action: Action,
        ctx: &ReactorCtx<'_>,
        m: &mut NetMetrics,
    ) -> Option<Action> {
        if self.queue_closed {
            return None; // shutting down; drop silently
        }
        match action {
            Action::Begin {
                req_id,
                txn,
                shard,
                t0,
            } => {
                match ctx.queue_of(shard).try_push(Command::Begin(txn)) {
                    Ok(()) => {
                        // FIFO queue order applies the begin before any
                        // later command of this connection, so the ack
                        // can ride on the enqueue itself.
                        self.live.push(txn);
                        self.respond(Response::Granted { req_id }, Some(t0), m);
                        None
                    }
                    Err(PushError::Full(_)) => Some(Action::Begin {
                        req_id,
                        txn,
                        shard,
                        t0,
                    }),
                    Err(PushError::Closed(_)) => {
                        self.on_closed(shard, req_id, ctx, m);
                        None
                    }
                }
            }
            Action::Op {
                req_id,
                op,
                shard,
                t0,
            } => {
                let reply = Reply::with_doorbell(Arc::clone(&self.bell));
                let seen = ctx.progress.current();
                let now = Instant::now();
                let cmd = Command::Request {
                    op,
                    enqueued: now,
                    reply: reply.clone(),
                };
                match ctx.queue_of(shard).try_push(cmd) {
                    Ok(()) => {
                        self.pending.push(Pending {
                            req_id,
                            kind: PendingKind::Op(op),
                            shard,
                            reply,
                            t0,
                            submitted: now,
                            seen,
                            resubmit: false,
                            ever_blocked: false,
                            waited_on: Vec::new(),
                            blocked_since: now,
                        });
                        None
                    }
                    Err(PushError::Full(_)) => match ctx.policy {
                        OverloadPolicy::Shed => {
                            m.sheds += 1;
                            self.respond(Response::Shed { req_id }, Some(t0), m);
                            None
                        }
                        OverloadPolicy::Wait => Some(Action::Op {
                            req_id,
                            op,
                            shard,
                            t0,
                        }),
                    },
                    Err(PushError::Closed(_)) => {
                        self.on_closed(shard, req_id, ctx, m);
                        None
                    }
                }
            }
            Action::Commit {
                req_id,
                txn,
                shard,
                t0,
            } => {
                let reply = Reply::with_doorbell(Arc::clone(&self.bell));
                let now = Instant::now();
                let cmd = Command::CommitAck {
                    txn,
                    enqueued: now,
                    reply: reply.clone(),
                    stamp: self.commit_stamp(ctx),
                    session: self.session_entry(req_id),
                };
                match ctx.queue_of(shard).try_push(cmd) {
                    Ok(()) => {
                        self.pending.push(Pending {
                            req_id,
                            kind: PendingKind::Commit(txn),
                            shard,
                            reply,
                            t0,
                            submitted: now,
                            seen: 0,
                            resubmit: false,
                            ever_blocked: false,
                            waited_on: Vec::new(),
                            blocked_since: now,
                        });
                        None
                    }
                    Err(PushError::Full(_)) => Some(Action::Commit {
                        req_id,
                        txn,
                        shard,
                        t0,
                    }),
                    Err(PushError::Closed(_)) => {
                        self.on_closed(shard, req_id, ctx, m);
                        None
                    }
                }
            }
            Action::Abort {
                req_id,
                txn,
                shard,
                t0,
            } => match ctx.queue_of(shard).try_push(Command::Abort(txn)) {
                Ok(()) => {
                    self.live.retain(|&t| t != txn);
                    self.respond(Response::Granted { req_id }, Some(t0), m);
                    None
                }
                Err(PushError::Full(_)) => Some(Action::Abort {
                    req_id,
                    txn,
                    shard,
                    t0,
                }),
                Err(PushError::Closed(_)) => {
                    self.on_closed(shard, req_id, ctx, m);
                    None
                }
            },
            Action::Cleanup { txn } => {
                let shard = self.shard_of(ctx, txn).unwrap_or(0);
                match ctx.queue_of(shard).try_push(Command::Abort(txn)) {
                    Ok(()) => None,
                    Err(PushError::Full(_)) => Some(Action::Cleanup { txn }),
                    Err(PushError::Closed(_)) => {
                        match ctx.health_of(shard) {
                            Some(h) if !h.is_failed() => {
                                // Shard mid-recovery: the orphan will be
                                // rolled back by recovery itself; nothing
                                // to clean up.
                            }
                            _ => {
                                self.queue_closed = true;
                                self.deferred.clear();
                            }
                        }
                        None
                    }
                }
            }
        }
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
        match ctx.health_of(shard) {
            Some(h) if !h.is_failed() => {
                m.recovering_replies += 1;
                self.respond(Response::Recovering { req_id }, None, m);
            }
            _ => self.shutdown_error(req_id, m),
        }
    }

    /// The global commit stamp a sharded commit carries (`None` for an
    /// unsharded core, which orders commits by its own queue order).
    fn commit_stamp(&self, ctx: &ReactorCtx<'_>) -> Option<u64> {
        ctx.route
            .as_ref()
            .map(|r| r.seq.fetch_add(1, Ordering::SeqCst))
    }

    /// The `(session, req_id)` pair a commit is recorded under in the
    /// retry table (`None` on a sessionless connection).
    fn session_entry(&self, req_id: ReqId) -> Option<(u64, u64)> {
        self.session.map(|s| (s, req_id))
    }

    /// The shard core owning `txn`, or `None` for a cross-shard
    /// transaction — those are not admissible over the wire.
    fn shard_of(&self, ctx: &ReactorCtx<'_>, txn: TxnId) -> Option<u32> {
        let Some(r) = &ctx.route else { return Some(0) };
        match r.map.shards_of_txn(ctx.txns, txn).as_slice() {
            &[s] => Some(s),
            // Zero ops shares a fate with cross-shard: nothing to route by.
            _ => None,
        }
    }

    /// Polls every in-flight reply cell; applies decisions, runs the
    /// blocked-retry protocol and both watchdogs.
    fn poll_pending(&mut self, ctx: &ReactorCtx<'_>, m: &mut NetMetrics) -> bool {
        let mut busy = false;
        let mut i = 0;
        while i < self.pending.len() {
            if self.closing {
                break;
            }
            let now = Instant::now();
            let p = &mut self.pending[i];
            if p.resubmit {
                // Blocked: waiting for the core to make progress. Same
                // discipline as the in-process session — waits-for
                // timeout on an unchanged set, otherwise retry once the
                // epoch moves (or a retry slice elapses).
                if p.ever_blocked && now.duration_since(p.blocked_since) >= ctx.block_timeout {
                    let (req_id, txn) = (p.req_id, txn_of(&p.kind));
                    self.pending.remove(i);
                    self.live.retain(|&t| t != txn);
                    self.deferred.push_back(Action::Cleanup { txn });
                    m.timeout_aborts += 1;
                    self.respond(
                        Response::Aborted {
                            req_id,
                            reason: AbortReason::Deadlock,
                        },
                        None,
                        m,
                    );
                    busy = true;
                    continue;
                }
                let moved = ctx.progress.current() > p.seen
                    || now.duration_since(p.submitted) >= ctx.retry_slice;
                if moved && !self.queue_closed {
                    let op = match p.kind {
                        PendingKind::Op(op) => op,
                        PendingKind::Commit(_) => unreachable!("commits never block"),
                    };
                    let reply = Reply::with_doorbell(Arc::clone(&self.bell));
                    let seen = ctx.progress.current();
                    let cmd = Command::Request {
                        op,
                        enqueued: now,
                        reply: reply.clone(),
                    };
                    if ctx.queue_of(p.shard).try_push(cmd).is_ok() {
                        p.reply = reply;
                        p.submitted = now;
                        p.seen = seen;
                        p.resubmit = false;
                        m.retries += 1;
                        busy = true;
                    }
                    // Full or closed: stay in resubmit state, retry next
                    // tick (closed resolves via the watchdog below).
                }
                i += 1;
                continue;
            }
            match p.reply.try_take() {
                None => {
                    if now.duration_since(p.submitted) >= ctx.reply_timeout {
                        // The core went silent on this request: degrade
                        // this connection, leave the rest of the server
                        // alone.
                        let req_id = p.req_id;
                        self.fail(req_id, ErrorCode::ReplyLost, m);
                        busy = true;
                        break;
                    }
                    i += 1;
                }
                Some(Decision::Granted) => {
                    let (req_id, t0) = (p.req_id, p.t0);
                    let resp = match p.kind {
                        PendingKind::Op(_) => Response::Granted { req_id },
                        PendingKind::Commit(txn) => {
                            self.live.retain(|&t| t != txn);
                            Response::Committed { req_id }
                        }
                    };
                    self.pending.remove(i);
                    self.respond(resp, Some(t0), m);
                    busy = true;
                }
                Some(Decision::Aborted(reason)) => {
                    let (req_id, t0, txn) = (p.req_id, p.t0, txn_of(&p.kind));
                    self.pending.remove(i);
                    self.live.retain(|&t| t != txn);
                    self.respond(Response::Aborted { req_id, reason }, Some(t0), m);
                    busy = true;
                }
                Some(Decision::Blocked { mut on }) => {
                    on.sort_unstable();
                    on.dedup();
                    if !p.ever_blocked || on != p.waited_on {
                        p.ever_blocked = true;
                        p.waited_on = on;
                        p.blocked_since = now;
                    }
                    p.resubmit = true;
                    busy = true;
                    i += 1;
                }
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

fn txn_of(kind: &PendingKind) -> TxnId {
    match kind {
        PendingKind::Op(op) => op.txn,
        PendingKind::Commit(txn) => *txn,
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
