//! The benchmark's own closed-loop wire client.
//!
//! `net::drive` records no latencies, so the benchmark speaks the wire
//! protocol itself: at most two connections, one thread each, K
//! transaction streams pipelined per connection. A stream sends its next
//! request only after the previous reply (closed loop), restarts its
//! transaction from `Begin` on `Aborted` and re-sends on `Shed`, with
//! the same backoff (`base × attempts`, capped) and attempt budget as
//! the shipped driver, so abort dynamics match it. Every request is
//! timestamped at send and at receipt and the raw samples are kept:
//! p50/p99 are exact order statistics, not histogram buckets.
//!
//! Waiting: with replies outstanding and no stream backing off the
//! thread blocks in `read` and wakes on arrival. While some stream backs
//! off *and* replies are outstanding it polls a nonblocking socket
//! between ~65 µs sleeps — `SO_RCVTIMEO` rounds to scheduler ticks (a
//! 100 µs timeout measured 8 ms here), which would turn a 200 µs backoff
//! into 8 ms. Replies that arrive during such a poll are seen up to one
//! sleep late; that is the only place the client adds latency of its own.

use crate::sut::{Input, OpId, ReqId, Request, RequestStream, Response, TxnId};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How many connections and streams load one server.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub connections: usize,
    pub streams: usize,
}

/// Restart/shed protocol constants — `net::LoadConfig`'s defaults.
const BACKOFF: Duration = Duration::from_micros(200);
const BACKOFF_MAX: Duration = Duration::from_millis(20);
const MAX_ATTEMPTS: u32 = 10_000;
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Streams are addressed by the low bits of the request id.
const SLOT_BITS: u32 = 6;

/// What a request was and how it ended, for the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    Begin,
    Read,
    Write,
    Commit,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Granted,
    Committed,
    Aborted,
    Shed,
}

/// One request as the client saw it (nanoseconds since the run's epoch).
#[derive(Clone, Copy, Debug)]
pub struct ReqSpan {
    pub txn: TxnId,
    pub kind: ReqKind,
    pub outcome: Outcome,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One transaction, first `Begin` to `Committed`, restarts included.
#[derive(Clone, Copy, Debug)]
pub struct TxnSpan {
    pub txn: TxnId,
    pub attempts: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything the client observed in one round, summed over connections.
#[derive(Default, Debug)]
pub struct Drive {
    /// `Read`/`Write` sent → `Granted`/`Aborted` received.
    pub op_ns: Vec<u64>,
    /// `Commit` sent → `Committed` received.
    pub commit_ns: Vec<u64>,
    /// First `Begin` → `Committed`, restarts and backoff included.
    pub txn_ns: Vec<u64>,
    /// Transactions acknowledged `Committed`.
    pub acked: Vec<TxnId>,
    /// Incarnations begun (first attempts plus restarts).
    pub incarnations: u64,
    pub sheds: u64,
    /// Backoff the protocol scheduled, restarts and sheds together.
    pub backoff_ns: u64,
    /// Transactions lost with their connection or abandoned at the
    /// attempt budget.
    pub lost: Vec<TxnId>,
    pub dead_connections: u64,
    /// First request sent → last commit acknowledged.
    pub drive_ns: u64,
    pub req_spans: Vec<ReqSpan>,
    pub txn_spans: Vec<TxnSpan>,
}

struct Conn {
    out: Drive,
    first_send: Option<Instant>,
    last_ack: Option<Instant>,
}

#[derive(Clone, Copy)]
enum Phase {
    Begin,
    Op(u32),
    Commit,
    Done,
}

struct Slot {
    txn: TxnId,
    n_ops: u32,
    phase: Phase,
    attempts: u32,
    /// The request in flight: id, kind, send time.
    waiting: Option<(ReqId, ReqKind, Instant)>,
    ready_at: Instant,
    /// When this transaction's first `Begin` went out.
    started: Option<Instant>,
}

/// Drives every transaction of `input` to commit against `addr`.
/// `epoch` is the zero of span timestamps; spans are kept only when
/// `spans` is set.
pub fn drive(addr: SocketAddr, input: &Input, shape: Shape, spans: bool, epoch: Instant) -> Drive {
    assert!(
        (1..=2).contains(&shape.connections),
        "one or two connections"
    );
    assert!((1..=1 << SLOT_BITS).contains(&shape.streams));
    let arrivals = input.arrivals();
    let conns: Vec<Conn> = if shape.connections == 1 {
        vec![run_connection(
            addr,
            input,
            &arrivals,
            shape.streams,
            spans,
            epoch,
        )]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..shape.connections)
                .map(|_| {
                    let arrivals = &arrivals;
                    s.spawn(move || {
                        run_connection(addr, input, arrivals, shape.streams, spans, epoch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let first = conns.iter().filter_map(|c| c.first_send).min();
    let last = conns.iter().filter_map(|c| c.last_ack).max();
    let mut total = Drive::default();
    if let (Some(first), Some(last)) = (first, last) {
        total.drive_ns = last.saturating_duration_since(first).as_nanos() as u64;
    }
    for c in conns {
        let d = c.out;
        total.op_ns.extend(d.op_ns);
        total.commit_ns.extend(d.commit_ns);
        total.txn_ns.extend(d.txn_ns);
        total.acked.extend(d.acked);
        total.incarnations += d.incarnations;
        total.sheds += d.sheds;
        total.backoff_ns += d.backoff_ns;
        total.lost.extend(d.lost);
        total.dead_connections += d.dead_connections;
        total.req_spans.extend(d.req_spans);
        total.txn_spans.extend(d.txn_spans);
    }
    total
}

fn new_slot(input: &Input, txn: TxnId, now: Instant) -> Slot {
    Slot {
        txn,
        n_ops: input.txn_len(txn),
        phase: Phase::Begin,
        attempts: 1,
        waiting: None,
        ready_at: now,
        started: None,
    }
}

fn backoff(attempts: u32) -> Duration {
    BACKOFF.saturating_mul(attempts.min(64)).min(BACKOFF_MAX)
}

fn run_connection(
    addr: SocketAddr,
    input: &Input,
    arrivals: &RequestStream,
    streams: usize,
    spans: bool,
    epoch: Instant,
) -> Conn {
    let mut conn = Conn {
        out: Drive::default(),
        first_send: None,
        last_ack: None,
    };
    let mut slots: Vec<Slot> = Vec::with_capacity(streams);
    let now = Instant::now();
    for _ in 0..streams {
        match arrivals.next() {
            Some(txn) => {
                slots.push(new_slot(input, txn, now));
                conn.out.incarnations += 1;
            }
            None => break,
        }
    }
    let Ok(mut sock) = TcpStream::connect(addr) else {
        return die(conn, &slots);
    };
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(REPLY_TIMEOUT));
    let mut nonblocking = false;

    let mut next_seq: u64 = 1;
    let mut out: Vec<u8> = Vec::with_capacity(64 * streams);
    let mut rbuf: Vec<u8> = Vec::with_capacity(4096);
    let mut tmp = [0u8; 4096];
    let mut last_response = Instant::now();

    loop {
        if slots.iter().all(|s| matches!(s.phase, Phase::Done)) {
            return conn;
        }

        // Send every stream that is ready.
        out.clear();
        let now = Instant::now();
        let mut next_ready: Option<Instant> = None;
        for (i, slot) in slots.iter_mut().enumerate() {
            if matches!(slot.phase, Phase::Done) || slot.waiting.is_some() {
                continue;
            }
            if slot.ready_at > now {
                next_ready = Some(next_ready.map_or(slot.ready_at, |t| t.min(slot.ready_at)));
                continue;
            }
            let req_id: ReqId = (next_seq << SLOT_BITS) | i as u64;
            next_seq += 1;
            let (req, kind) = match slot.phase {
                Phase::Begin => {
                    slot.started.get_or_insert(now);
                    (
                        Request::Begin {
                            req_id,
                            txn: slot.txn,
                        },
                        ReqKind::Begin,
                    )
                }
                Phase::Op(index) => {
                    let req = input.op_request(
                        req_id,
                        OpId {
                            txn: slot.txn,
                            index,
                        },
                    );
                    let kind = match req {
                        Request::Read { .. } => ReqKind::Read,
                        _ => ReqKind::Write,
                    };
                    (req, kind)
                }
                Phase::Commit => (
                    Request::Commit {
                        req_id,
                        txn: slot.txn,
                    },
                    ReqKind::Commit,
                ),
                Phase::Done => unreachable!("done slots are skipped"),
            };
            req.encode_into(&mut out);
            slot.waiting = Some((req_id, kind, now));
        }
        if !out.is_empty() {
            if sock.write_all(&out).is_err() {
                return die(conn, &slots);
            }
            conn.first_send.get_or_insert(now);
            last_response = now;
        }

        let in_flight = slots.iter().any(|s| s.waiting.is_some());
        if !in_flight {
            // Every unfinished stream is backing off: nothing to read.
            let wake = next_ready.expect("an unfinished idle stream has a wake time");
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            continue;
        }

        // Wait for replies; poll only while a backoff must also expire.
        let want_nonblocking = next_ready.is_some();
        if want_nonblocking != nonblocking {
            if sock.set_nonblocking(want_nonblocking).is_err() {
                return die(conn, &slots);
            }
            nonblocking = want_nonblocking;
        }
        let got = loop {
            match sock.read(&mut tmp) {
                Ok(0) => return die(conn, &slots),
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    let now = Instant::now();
                    if now.saturating_duration_since(last_response) >= REPLY_TIMEOUT {
                        return die(conn, &slots);
                    }
                    match next_ready {
                        Some(wake) if now >= wake => break 0,
                        Some(_) => std::thread::sleep(Duration::from_micros(1)),
                        None => {}
                    }
                }
                Err(_) => return die(conn, &slots),
            }
        };
        if got == 0 {
            continue;
        }
        rbuf.extend_from_slice(&tmp[..got]);
        let received = Instant::now();
        last_response = received;
        let mut at = 0;
        while at < rbuf.len() {
            match Response::decode(&rbuf[at..]) {
                Ok((resp, n)) => {
                    at += n;
                    if dispatch(
                        resp, received, input, arrivals, &mut slots, &mut conn, spans, epoch,
                    )
                    .is_err()
                    {
                        return die(conn, &slots);
                    }
                }
                Err(e) if e.is_incomplete() => break,
                Err(_) => return die(conn, &slots),
            }
        }
        rbuf.drain(..at);
    }
}

/// The connection is gone: every unfinished stream's transaction is lost.
fn die(mut conn: Conn, slots: &[Slot]) -> Conn {
    conn.out.dead_connections += 1;
    conn.out.lost.extend(
        slots
            .iter()
            .filter(|s| !matches!(s.phase, Phase::Done))
            .map(|s| s.txn),
    );
    conn
}

/// Applies one response to its stream; `Err` abandons the connection
/// (server error, shutdown notice, or a reply that matches no request).
#[allow(clippy::too_many_arguments)]
fn dispatch(
    resp: Response,
    received: Instant,
    input: &Input,
    arrivals: &RequestStream,
    slots: &mut [Slot],
    conn: &mut Conn,
    spans: bool,
    epoch: Instant,
) -> Result<(), ()> {
    let outcome = match resp {
        Response::Granted { .. } => Outcome::Granted,
        Response::Committed { .. } => Outcome::Committed,
        Response::Aborted { .. } => Outcome::Aborted,
        Response::Shed { .. } | Response::Recovering { .. } => Outcome::Shed,
        Response::Error { .. } | Response::Closing { .. } | Response::Welcome { .. } => {
            return Err(())
        }
    };
    let req_id = resp.req_id();
    let slot = slots
        .get_mut((req_id & ((1 << SLOT_BITS) - 1)) as usize)
        .ok_or(())?;
    let (_, kind, sent) = slot.waiting.take().filter(|w| w.0 == req_id).ok_or(())?;
    let out = &mut conn.out;
    let took = received.saturating_duration_since(sent).as_nanos() as u64;
    let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    if spans {
        out.req_spans.push(ReqSpan {
            txn: slot.txn,
            kind,
            outcome,
            start_ns: since(sent),
            end_ns: since(received),
        });
    }
    let is_op = matches!(kind, ReqKind::Read | ReqKind::Write);
    match outcome {
        Outcome::Granted => {
            if is_op {
                out.op_ns.push(took);
            }
            slot.phase = match slot.phase {
                Phase::Begin if slot.n_ops == 0 => Phase::Commit,
                Phase::Begin => Phase::Op(0),
                Phase::Op(i) if i + 1 < slot.n_ops => Phase::Op(i + 1),
                Phase::Op(_) => Phase::Commit,
                Phase::Commit | Phase::Done => return Err(()),
            };
        }
        Outcome::Committed => {
            if kind != ReqKind::Commit {
                return Err(());
            }
            let started = slot.started.expect("a committed transaction began");
            out.commit_ns.push(took);
            out.txn_ns
                .push(received.saturating_duration_since(started).as_nanos() as u64);
            out.acked.push(slot.txn);
            conn.last_ack = Some(received);
            if spans {
                out.txn_spans.push(TxnSpan {
                    txn: slot.txn,
                    attempts: slot.attempts,
                    start_ns: since(started),
                    end_ns: since(received),
                });
            }
            refill(input, arrivals, slot, received, out);
        }
        Outcome::Aborted => {
            if is_op {
                out.op_ns.push(took);
            }
            slot.attempts += 1;
            if slot.attempts > MAX_ATTEMPTS {
                out.lost.push(slot.txn);
                refill(input, arrivals, slot, received, out);
            } else {
                out.incarnations += 1;
                slot.phase = Phase::Begin;
                let wait = backoff(slot.attempts);
                out.backoff_ns += wait.as_nanos() as u64;
                slot.ready_at = received + wait;
            }
        }
        Outcome::Shed => {
            out.sheds += 1;
            let wait = backoff(slot.attempts);
            out.backoff_ns += wait.as_nanos() as u64;
            slot.ready_at = received + wait;
        }
    }
    Ok(())
}

/// Points the stream at the next arrival, or finishes it.
fn refill(input: &Input, arrivals: &RequestStream, slot: &mut Slot, now: Instant, out: &mut Drive) {
    match arrivals.next() {
        Some(txn) => {
            *slot = new_slot(input, txn, now);
            out.incarnations += 1;
        }
        None => slot.phase = Phase::Done,
    }
}
