//! The loopback client: N real TCP connections, each a session
//! pipelining K concurrent transaction streams against
//! [`serve_net`](crate::serve_net) or
//! [`serve_net_supervised_in`](crate::serve_net_supervised_in).
//!
//! Each connection runs `streams` independent transaction state machines
//! over one socket. Program order holds *within* a stream (the next
//! operation is sent only after the previous one is granted), while the
//! streams interleave freely — so a connection keeps up to `streams`
//! requests in flight, correlated by request id. That is the pipelining
//! the wire protocol exists for: decisions come back in whatever order
//! the core produces them.
//!
//! [`drive_resilient`] is the one client, and it speaks the full client
//! protocol the in-process sessions do: restart an incarnation on
//! `Aborted` (with capped seeded-jitter backoff), retry the same
//! operation on `Shed` or `Recovering`. A dead socket, a server `Error`
//! or a request past its deadline costs a reconnect: the connection
//! re-opens its session (`Hello`), retries any in-flight commit under
//! its pinned request id and restarts everything else — up to
//! [`ResilientConfig::max_reconnects`] consecutive failures, after which
//! the loss is *this connection's only*: its unfinished transactions are
//! recorded as lost while the other connections keep going. With
//! `max_reconnects: 0` a lost connection is final. A
//! [`ChaosPlan`](crate::ChaosPlan) injects client-side wire faults;
//! [`ChaosPlan::quiet`](crate::ChaosPlan::quiet) injects none.

use crate::wire::{ReqId, Request, Response};
use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::txn::TxnSet;
use relser_server::restart_backoff;
use relser_workload::stream::RequestStream;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a transaction stream sends next.
#[derive(Clone, Copy)]
enum Phase {
    Begin,
    Op(u32),
    Commit,
    /// The arrival stream is exhausted; this slot is finished.
    Done,
}

/// Tunables for one [`drive_resilient`] run.
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// TCP connections (one thread, one session each).
    pub connections: usize,
    /// Concurrent transaction streams pipelined per connection.
    pub streams: usize,
    /// Per-request deadline: a request unanswered this long means the
    /// reply was lost with the connection — reconnect and resume the
    /// session instead of waiting forever.
    pub deadline: Duration,
    /// Base of the capped seeded-jitter backoff (restarts, sheds,
    /// recovering retries, reconnects) — see
    /// [`relser_server::restart_backoff`].
    pub backoff: Duration,
    /// Cap on the backoff.
    pub backoff_max: Duration,
    /// Seed of the backoff jitter and of derived session ids.
    pub seed: u64,
    /// Give up on a transaction after this many incarnations.
    pub max_attempts: u32,
    /// Give up on a connection after this many *consecutive* failed
    /// reconnect attempts (its unfinished transactions are lost). The
    /// first connect is not a reconnect, so `0` means a lost connection
    /// is final.
    pub max_reconnects: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            connections: 4,
            streams: 4,
            deadline: Duration::from_secs(2),
            backoff: Duration::from_micros(200),
            backoff_max: Duration::from_millis(20),
            seed: 0x5E55_10F1,
            max_attempts: 10_000,
            max_reconnects: 64,
        }
    }
}

/// What the driver observed, summed over connections.
#[derive(Clone, Debug, Default)]
pub struct ResilientStats {
    /// Every commit acknowledgment received, `(txn, req_id)` in ack
    /// order. The chaos sweep's ground truth: each acked transaction
    /// must appear in the recovered committed history exactly once.
    pub committed: Vec<(TxnId, ReqId)>,
    /// Incarnations restarted after an `Aborted` response.
    pub restarts: u64,
    /// `Shed` responses (each retried).
    pub sheds: u64,
    /// `Recovering` responses (shard core mid-restart; each retried).
    pub recoverings: u64,
    /// Successful reconnect-with-session-resume handshakes.
    pub reconnects: u64,
    /// Commits re-sent under their original request id (the
    /// exactly-once path).
    pub commit_retries: u64,
    /// Client-side wire faults injected by the chaos plan.
    pub wire_faults: u64,
    /// Request deadlines that triggered a reconnect.
    pub deadline_kicks: u64,
    /// Transactions abandoned (attempt budget, or lost with a
    /// connection that exhausted its reconnect budget).
    pub lost: Vec<TxnId>,
    /// Connections given up on (`max_reconnects` exhausted).
    pub dead_connections: u64,
}

impl ResilientStats {
    fn absorb(&mut self, other: ResilientStats) {
        self.committed.extend(other.committed);
        self.restarts += other.restarts;
        self.sheds += other.sheds;
        self.recoverings += other.recoverings;
        self.reconnects += other.reconnects;
        self.commit_retries += other.commit_retries;
        self.wire_faults += other.wire_faults;
        self.deadline_kicks += other.deadline_kicks;
        self.lost.extend(other.lost);
        self.dead_connections += other.dead_connections;
    }
}

/// One transaction stream's state machine.
struct Slot {
    txn: TxnId,
    n_ops: u32,
    phase: Phase,
    attempts: u32,
    /// The in-flight request, if any: `(req_id, sent_at)`.
    waiting: Option<(ReqId, Instant)>,
    /// The request id this incarnation's commit is pinned to. Assigned
    /// at the first commit send and reused by every retry until the
    /// verdict arrives — the invariant the server's retry table
    /// deduplicates by.
    commit_req: Option<ReqId>,
    /// Do not send before this (backoff).
    ready_at: Instant,
}

impl Slot {
    fn new(txns: &TxnSet, txn: TxnId) -> Slot {
        Slot {
            txn,
            n_ops: txns.txn(txn).len() as u32,
            phase: Phase::Begin,
            attempts: 1,
            waiting: None,
            commit_req: None,
            ready_at: Instant::now(),
        }
    }

    fn done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    fn refill(&mut self, txns: &TxnSet, stream: &RequestStream) {
        match stream.next() {
            Some(txn) => *self = Slot::new(txns, txn),
            None => self.phase = Phase::Done,
        }
    }
}

/// Drives every transaction in `stream` to commit over
/// `cfg.connections` sessionful sockets, surviving connection resets,
/// torn writes, stalled sockets, lost replies, and supervised shard-core
/// restarts. `chaos` injects client-side wire faults (pass
/// [`ChaosPlan::quiet`](crate::ChaosPlan::quiet) for none).
///
/// The exactly-once discipline: each connection opens a session
/// (`Hello`) and pins every incarnation's commit to one request id;
/// whatever happens to the socket, the commit is retried under that id
/// until a verdict arrives, and the server's durable session table
/// guarantees the verdict is the original one.
pub fn drive_resilient(
    addr: SocketAddr,
    txns: &TxnSet,
    stream: &RequestStream,
    cfg: &ResilientConfig,
    chaos: &crate::ChaosPlan,
) -> ResilientStats {
    assert!(cfg.connections >= 1 && cfg.streams >= 1);
    let total = Mutex::new(ResilientStats::default());
    // Every connection's first transactions are claimed before any
    // connection runs: however late a thread starts, it has its share of
    // the arrival order and opens its socket.
    let shares: Vec<Vec<Slot>> = (0..cfg.connections)
        .map(|_| {
            (0..cfg.streams)
                .map_while(|_| stream.next())
                .map(|txn| Slot::new(txns, txn))
                .collect()
        })
        .collect();
    std::thread::scope(|s| {
        for (conn_id, slots) in (0u64..).zip(shares) {
            let total = &total;
            s.spawn(move || {
                let stats = run_resilient(addr, txns, stream, cfg, chaos, conn_id, slots);
                total.lock().expect("stats lock").absorb(stats);
            });
        }
    });
    total.into_inner().expect("stats lock")
}

/// The socket half of one resilient connection: stream + read buffer +
/// the hello handshake state.
struct Wire {
    sock: TcpStream,
    rbuf: Vec<u8>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Option<Wire> {
        let sock = TcpStream::connect(addr).ok()?;
        let _ = sock.set_nodelay(true);
        let _ = sock.set_read_timeout(Some(Duration::from_micros(500)));
        Some(Wire {
            sock,
            rbuf: Vec::new(),
        })
    }
}

fn run_resilient(
    addr: SocketAddr,
    txns: &TxnSet,
    stream: &RequestStream,
    cfg: &ResilientConfig,
    chaos: &crate::ChaosPlan,
    conn_id: u64,
    mut slots: Vec<Slot>,
) -> ResilientStats {
    let mut stats = ResilientStats::default();
    let session = cfg.seed.rotate_left(24) ^ (conn_id + 1);
    let mut dice = chaos.dice(conn_id);

    let mut next_req: ReqId = 1;
    let mut by_req: HashMap<ReqId, usize> = HashMap::new();
    let mut hello_req: Option<ReqId> = None;
    let mut last_acked: u64 = 0;
    let mut out: Vec<u8> = Vec::new();
    let mut wire: Option<Wire> = None;
    let mut reconnects_in_a_row: u32 = 0;
    let mut connected_before = false;

    loop {
        if slots.iter().all(|s| s.done()) {
            return stats;
        }

        // (Re)connect and resume the session.
        let w = match wire.as_mut() {
            Some(w) => w,
            None => {
                // The first connect is not a reconnect: it is neither
                // counted as one nor charged to the budget.
                let reconnect = connected_before;
                connected_before = true;
                if reconnect {
                    if reconnects_in_a_row >= cfg.max_reconnects {
                        stats.dead_connections += 1;
                        stats
                            .lost
                            .extend(slots.iter().filter(|s| !s.done()).map(|s| s.txn));
                        return stats;
                    }
                    if reconnects_in_a_row > 0 {
                        std::thread::sleep(restart_backoff(
                            cfg.backoff,
                            cfg.backoff_max,
                            cfg.seed ^ 0xC0AC,
                            TxnId(conn_id as u32),
                            reconnects_in_a_row + 1,
                        ));
                    }
                    reconnects_in_a_row += 1;
                }
                let Some(mut fresh) = Wire::connect(addr) else {
                    continue;
                };
                // Resume the session: Hello first, pipelined ahead of
                // everything else (the reactor applies it in order, so
                // all later commits on this connection are protected).
                by_req.clear();
                let req_id = next_req;
                next_req += 1;
                hello_req = Some(req_id);
                out.clear();
                Request::Hello {
                    req_id,
                    session,
                    resume_from: last_acked,
                }
                .encode_into(&mut out);
                if fresh.sock.write_all(&out).is_err() {
                    continue;
                }
                // Roll every slot back to a resumable point: an
                // in-flight commit is retried under its pinned id; any
                // other in-flight state restarts the incarnation (the
                // server aborts orphans of the dead connection, and the
                // core's commit supremacy protects anything acked).
                for slot in slots.iter_mut() {
                    if slot.done() {
                        continue;
                    }
                    slot.waiting = None;
                    // A pinned commit resumes as a commit retry; any
                    // other incarnation restarts from the top (the dead
                    // connection's orphans are aborted server-side).
                    slot.phase = if slot.commit_req.is_some() {
                        Phase::Commit
                    } else {
                        Phase::Begin
                    };
                    slot.ready_at = Instant::now();
                }
                stats.reconnects += u64::from(reconnect);
                wire = Some(fresh);
                wire.as_mut().expect("just set")
            }
        };

        // Send every stream that is ready.
        out.clear();
        let now = Instant::now();
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.done() || slot.waiting.is_some() || now < slot.ready_at {
                continue;
            }
            let req_id = match slot.phase {
                // The commit id is pinned across retries: exactly-once
                // hangs on the server seeing the same (session, req_id).
                Phase::Commit => match slot.commit_req {
                    Some(id) => {
                        stats.commit_retries += 1;
                        id
                    }
                    None => {
                        let id = next_req;
                        next_req += 1;
                        slot.commit_req = Some(id);
                        id
                    }
                },
                _ => {
                    let id = next_req;
                    next_req += 1;
                    id
                }
            };
            let req = match slot.phase {
                Phase::Begin => Request::Begin {
                    req_id,
                    txn: slot.txn,
                },
                Phase::Op(index) => {
                    let op = OpId {
                        txn: slot.txn,
                        index,
                    };
                    let operation = txns.op(op).expect("client knows the workload");
                    match operation.mode {
                        AccessMode::Read => Request::Read {
                            req_id,
                            op,
                            object: operation.object,
                        },
                        AccessMode::Write => Request::Write {
                            req_id,
                            op,
                            object: operation.object,
                        },
                    }
                }
                Phase::Commit => Request::Commit {
                    req_id,
                    txn: slot.txn,
                },
                Phase::Done => unreachable!(),
            };
            req.encode_into(&mut out);
            slot.waiting = Some((req_id, now));
            by_req.insert(req_id, i);
        }

        // Chaos gate: the bytes may be delivered, torn, stalled, or the
        // socket reset outright.
        if !out.is_empty() {
            match dice.roll() {
                crate::WireFault::None => {
                    if w.sock.write_all(&out).is_err() {
                        wire = None;
                        continue;
                    }
                }
                crate::WireFault::Reset => {
                    stats.wire_faults += 1;
                    let _ = w.sock.shutdown(Shutdown::Both);
                    wire = None;
                    continue;
                }
                crate::WireFault::TornWrite => {
                    stats.wire_faults += 1;
                    if out.len() >= 2 {
                        let cut = dice.tear_at(out.len());
                        let _ = w.sock.write_all(&out[..cut]);
                    }
                    let _ = w.sock.shutdown(Shutdown::Both);
                    wire = None;
                    continue;
                }
                crate::WireFault::Stall => {
                    stats.wire_faults += 1;
                    if w.sock.write_all(&out[..1]).is_err() {
                        wire = None;
                        continue;
                    }
                    std::thread::sleep(chaos.stall);
                    if w.sock.write_all(&out[1..]).is_err() {
                        wire = None;
                        continue;
                    }
                }
            }
        }

        // Read and dispatch whatever responses arrived.
        let mut tmp = [0u8; 4096];
        match w.sock.read(&mut tmp) {
            Ok(0) => {
                wire = None;
                continue;
            }
            Ok(n) => w.rbuf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                wire = None;
                continue;
            }
        }
        let mut at = 0;
        let mut drop_conn = false;
        while at < w.rbuf.len() {
            match Response::decode(&w.rbuf[at..]) {
                Ok((resp, n)) => {
                    at += n;
                    if resilient_dispatch(
                        resp,
                        txns,
                        stream,
                        cfg,
                        &mut slots,
                        &mut by_req,
                        &mut hello_req,
                        &mut last_acked,
                        &mut reconnects_in_a_row,
                        &mut stats,
                    )
                    .is_err()
                    {
                        drop_conn = true;
                        break;
                    }
                }
                Err(e) if e.is_incomplete() => break,
                Err(_) => {
                    drop_conn = true;
                    break;
                }
            }
        }
        if at > 0 {
            w.rbuf.drain(..at);
        }
        if drop_conn {
            let _ = w.sock.shutdown(Shutdown::Both);
            wire = None;
            continue;
        }

        // Deadline watchdog: an unanswered request means its reply died
        // with the reply-drop fault (or the socket wedged). Reconnect
        // and resume rather than waiting forever.
        let now = Instant::now();
        let overdue = slots.iter().any(|s| {
            s.waiting
                .is_some_and(|(_, sent)| now.duration_since(sent) >= cfg.deadline)
        });
        if overdue {
            stats.deadline_kicks += 1;
            let _ = w.sock.shutdown(Shutdown::Both);
            wire = None;
            continue;
        }
    }
}

/// Applies one response under the resilient protocol. `Err(())` forces
/// a reconnect (never a give-up: the session resumes).
#[allow(clippy::too_many_arguments)]
fn resilient_dispatch(
    resp: Response,
    txns: &TxnSet,
    stream: &RequestStream,
    cfg: &ResilientConfig,
    slots: &mut [Slot],
    by_req: &mut HashMap<ReqId, usize>,
    hello_req: &mut Option<ReqId>,
    last_acked: &mut u64,
    reconnects_in_a_row: &mut u32,
    stats: &mut ResilientStats,
) -> Result<(), ()> {
    match resp {
        Response::Closing { .. } | Response::Error { .. } => return Err(()),
        Response::Welcome { req_id } => {
            if *hello_req == Some(req_id) {
                *hello_req = None;
                // The session is live again; the connection is healthy.
                *reconnects_in_a_row = 0;
            }
            return Ok(());
        }
        _ => {}
    }
    let req_id = resp.req_id();
    let Some(i) = by_req.remove(&req_id) else {
        // A reply from before the last reconnect; stale, ignore.
        return Ok(());
    };
    let slot = &mut slots[i];
    if slot.waiting.map(|(id, _)| id) != Some(req_id) {
        return Ok(());
    }
    slot.waiting = None;
    *reconnects_in_a_row = 0;
    match resp {
        Response::Granted { .. } => {
            slot.phase = match slot.phase {
                Phase::Begin if slot.n_ops == 0 => Phase::Commit,
                Phase::Begin => Phase::Op(0),
                Phase::Op(i) if i + 1 < slot.n_ops => Phase::Op(i + 1),
                Phase::Op(_) => Phase::Commit,
                Phase::Commit | Phase::Done => return Err(()),
            };
        }
        Response::Committed { .. } => {
            *last_acked = (*last_acked).max(req_id);
            stats.committed.push((slot.txn, req_id));
            slot.refill(txns, stream);
        }
        Response::Aborted { .. } => {
            // The incarnation is dead server-side (scheduler abort,
            // waits-for timeout, crash rollback, or a retired retry);
            // restart from the top with a fresh commit id.
            slot.attempts += 1;
            slot.commit_req = None;
            if slot.attempts > cfg.max_attempts {
                stats.lost.push(slot.txn);
                slot.refill(txns, stream);
            } else {
                stats.restarts += 1;
                slot.phase = Phase::Begin;
                slot.ready_at = Instant::now()
                    + restart_backoff(
                        cfg.backoff,
                        cfg.backoff_max,
                        cfg.seed,
                        slot.txn,
                        slot.attempts,
                    );
            }
        }
        Response::Shed { .. } => {
            stats.sheds += 1;
            slot.ready_at = Instant::now()
                + restart_backoff(
                    cfg.backoff,
                    cfg.backoff_max,
                    cfg.seed ^ 0x5ED,
                    slot.txn,
                    slot.attempts + 1,
                );
        }
        Response::Recovering { .. } => {
            // The shard core is being restarted in place. Nothing was
            // enqueued; back off and re-send the same phase (a commit
            // keeps its pinned id — that is the exactly-once retry).
            stats.recoverings += 1;
            slot.ready_at = Instant::now()
                + restart_backoff(
                    cfg.backoff,
                    cfg.backoff_max,
                    cfg.seed ^ 0x4EC0,
                    slot.txn,
                    slot.attempts + 1,
                );
        }
        Response::Welcome { .. } | Response::Error { .. } | Response::Closing { .. } => {
            unreachable!("handled above")
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve_net, ChaosPlan, NetConfig};
    use relser_protocols::rsg_sgt::RsgSgt;
    use relser_server::core::FaultPlan;
    use relser_workload::banking::{banking, BankingConfig};

    /// The first connect is not charged to the reconnect budget: with no
    /// budget at all a healthy run still opens its sockets and commits
    /// everything, and reports no reconnect.
    #[test]
    fn first_connect_is_not_a_reconnect() {
        let sc = banking(&BankingConfig::default(), 3);
        let stream = RequestStream::shuffled(&sc.txns, 5);
        let cfg = ResilientConfig {
            connections: 2,
            streams: 2,
            max_reconnects: 0,
            ..ResilientConfig::default()
        };
        let (_, stats) = serve_net(
            &sc.txns,
            Box::new(RsgSgt::new(&sc.txns, &sc.spec)),
            &NetConfig::default(),
            &FaultPlan::default(),
            None,
            |addr| drive_resilient(addr, &sc.txns, &stream, &cfg, &ChaosPlan::quiet()),
        )
        .expect("serve_net");
        assert_eq!(
            stats.committed.len(),
            sc.txns.len(),
            "lost {:?}",
            stats.lost
        );
        assert_eq!(stats.reconnects, 0);
        assert_eq!(stats.dead_connections, 0);
    }
}
