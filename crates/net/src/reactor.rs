//! The readiness loop: one reactor thread multiplexes many nonblocking
//! connections and blocks in `poll(2)` whenever none of them has work.
//!
//! A reactor alternates *passes* and *waits*. A pass adopts newly
//! accepted sockets and lets every connection read/parse/submit/take
//! replies/flush ([`Conn::tick`]); passes repeat while any connection
//! made progress. When a pass finds nothing to do the reactor waits
//! ([`relser_poll::wait`]) on
//!
//! * each connection's socket — readable unless its reads are paused
//!   (in-flight cap, deferred commands, backlog: a level-triggered wait
//!   on a socket nobody will read would spin), writable only while output
//!   is waiting for room, a hang-up counting as readable so the next
//!   `read` reports the EOF ([`Conn::poll_fd`]);
//! * its **doorbell**, rung by everything that makes work for it from
//!   inside the process: the admission core after the last reply of a
//!   released (or unwound) batch and with every progress-epoch bump, the
//!   acceptor after handing it a socket, the server after raising `stop`;
//! * the nearest real deadline of any connection ([`Conn::deadline`]):
//!   the reply watchdog, the waits-for timeout, the retry slice of a
//!   blocked operation, or one `poll_quantum` while a command waits for
//!   room in a full queue — the only tick left. With no deadline the
//!   wait is indefinite: an idle server makes no wake-ups at all.
//!
//! No doorbell wakeup is lost to the window between "found nothing" and
//! "asleep": after an idle pass the reactor *arms* the doorbell, passes
//! once more as the re-check, and only waits if that pass was idle too
//! (`relser_poll`'s crate docs give the argument; its `tests/doorbell.rs`
//! races it). Until it has armed, a ring costs the ringer one atomic swap
//! and no syscall, so a busy reactor never taxes the core.
//!
//! The acceptor thread blocks in `accept()` and hands sockets round-robin
//! to the reactors, so N reactor threads scale the front-end the same way
//! N session threads scale the in-process service.

use crate::conn::{Conn, ReactorCtx};
use crate::metrics::NetMetrics;
use relser_poll::{wait, Doorbell, PollFd};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accepts connections until `stop`, distributing them round-robin over
/// the reactors (a channel to hand the socket over, the reactor's
/// doorbell to announce it). Blocks in `accept()`: whoever raises `stop`
/// wakes it with a throwaway connection. Returns the number accepted.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    reactors: Vec<(Sender<TcpStream>, Arc<Doorbell>)>,
    stop: &AtomicBool,
    quantum: Duration,
) -> u64 {
    let mut next = 0usize;
    let mut accepted = 0u64;
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::Acquire) {
            return accepted;
        }
        match conn {
            Ok((stream, _)) => {
                let (tx, bell) = &reactors[next % reactors.len()];
                // A send can only fail if the reactor died; the stream
                // is dropped (connection refused at the protocol level).
                let _ = tx.send(stream);
                bell.ring();
                next += 1;
                accepted += 1;
            }
            // Out of descriptors, or the peer already reset: nothing to
            // wait *for*, so back off one quantum before accepting again.
            Err(_) => {
                let _ = wait(&mut [], Some(quantum));
            }
        }
    }
}

/// Runs one reactor until the server stops and its connections drain.
pub(crate) fn run_reactor(
    ctx: &ReactorCtx<'_>,
    incoming: Receiver<TcpStream>,
    bell: &Arc<Doorbell>,
    stop: &AtomicBool,
    quantum: Duration,
) -> NetMetrics {
    let mut conns: Vec<Conn> = Vec::new();
    let mut m = NetMetrics::default();
    let mut set: Vec<PollFd> = Vec::new();
    let mut acceptor_gone = false;
    // The doorbell was armed after the last idle pass; one more idle pass
    // (the re-check) and the reactor may sleep.
    let mut armed = false;
    loop {
        let mut busy = false;
        loop {
            match incoming.try_recv() {
                Ok(stream) => {
                    if let Ok(conn) = Conn::new(stream, Arc::clone(bell)) {
                        conns.push(conn);
                        m.connections += 1;
                        busy = true;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    acceptor_gone = true;
                    break;
                }
            }
        }
        let stopping = stop.load(Ordering::Acquire);
        for conn in conns.iter_mut() {
            if stopping {
                // The load driver has returned; anything still open was
                // abandoned — abort its live transactions and close.
                conn.begin_shutdown(&mut m);
            }
            busy |= conn.tick(ctx, &mut m);
        }
        conns.retain(|c| !c.closed);
        if stopping && acceptor_gone && conns.is_empty() {
            break;
        }
        if busy {
            continue;
        }
        if !armed {
            bell.arm();
            armed = true;
            continue;
        }
        park(&conns, ctx, bell, &mut set, quantum, &mut m);
        armed = false;
    }
    m
}

/// Blocks until a socket of `conns` is ready, the doorbell is rung, or
/// the nearest deadline of any connection passes.
fn park(
    conns: &[Conn],
    ctx: &ReactorCtx<'_>,
    bell: &Doorbell,
    set: &mut Vec<PollFd>,
    quantum: Duration,
    m: &mut NetMetrics,
) {
    let now = Instant::now();
    set.clear();
    set.push(bell.poll_fd());
    set.extend(conns.iter().filter_map(|c| c.poll_fd(ctx)));
    let timeout = conns
        .iter()
        .filter_map(|c| c.deadline(ctx, quantum, now))
        .min()
        .map(|at| at.saturating_duration_since(now));
    m.reactor_waits += 1;
    wait(set, timeout).expect("poll(2) over the reactor's own open descriptors");
    bell.disarm();
    if set[0].readable() {
        m.doorbell_wakes += 1;
        bell.drain();
    }
}
