//! # relser-poll — block until a socket or a doorbell is ready
//!
//! The TCP front-end's reactor (`relser-net`) multiplexes many
//! nonblocking sockets on one thread and is also woken from *inside* the
//! process: by the admission core when it has filled replies, by the
//! acceptor when it hands over a socket, by the server when it stops. A
//! `std`-only build has no way to wait for "any of these sockets OR that
//! in-process event", so this crate supplies the two missing pieces:
//!
//! * [`wait`] — `poll(2)` behind a safe signature. It is the one foreign
//!   call of the workspace and holds its one `unsafe` block; it links
//!   against the libc `std` already links, so the build stays hermetic.
//!   The crate is a dependency-free leaf so that every other crate keeps
//!   `#![forbid(unsafe_code)]`.
//! * [`Doorbell`] — an in-process wakeup a [`wait`] can include in its
//!   set: a nonblocking socketpair plus an `armed` flag, so ringing a
//!   waiter that is not parked costs one atomic swap and no syscall.
//!
//! ## The doorbell handshake
//!
//! The waiter runs **arm → re-check its work → wait → disarm and
//! drain**; a ringer
//! **publishes its work, then rings**. [`Doorbell::ring`] writes a byte
//! iff its `swap(false)` found the flag armed. Every access to the flag
//! is a `SeqCst` read-modify-write, so the accesses form one chain in
//! which each reads the value the previous one wrote and synchronizes
//! with it. Take a ring and the arm of the round in which the waiter goes
//! to sleep:
//!
//! * the ring's swap comes first in the chain — then the work published
//!   before it happens-before the arm, and the waiter's re-check (which
//!   follows the arm) sees it and does not sleep;
//! * the arm comes first — then the ring's swap reads `true` (or a
//!   concurrent ringer's did, which then wrote the byte), a byte is
//!   written, and the level-triggered wait returns.
//!
//! Either way no wakeup is lost; a stale byte can only cause one
//! spurious pass. `tests/doorbell.rs` races the two sides 200 000 times
//! against a fallback timeout that must never fire.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Readiness to read (or a pending accept / EOF).
pub const POLLIN: i16 = 0x001;
/// Room to write.
pub const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// One entry of a [`wait`] set: a descriptor, the events asked for, and
/// (after the wait) the events that are ready. Layout-compatible with C's
/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` ([`POLLIN`] and/or [`POLLOUT`]). The
    /// descriptor is only borrowed by number: one that was closed
    /// meanwhile is reported readable, not dereferenced.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The last [`wait`] found this descriptor readable. A hang-up or a
    /// socket error counts: the `read` that follows reports the EOF or
    /// the error.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Blocks until a descriptor of `fds` is ready, or `timeout` elapses
/// (`None` = indefinitely); returns how many entries have events. An
/// empty set with a timeout is a plain timed wait. Sub-millisecond
/// timeouts round **up** to `poll`'s millisecond granularity — rounding
/// down would turn the approach of a deadline into a busy loop.
/// `EINTR` is retried against the original deadline.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let ms: c_int = match deadline {
            None => -1,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                left.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
            }
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // structs whose layout is C's `struct pollfd` (int, short, short),
        // and the count passed is its length, so the kernel reads and
        // writes `revents` only inside the slice; `poll` keeps no pointer
        // past the call.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// An in-process wakeup for a thread parked in [`wait`]; see the crate
/// docs for the handshake and why it loses no wakeup.
#[derive(Debug)]
pub struct Doorbell {
    rx: UnixStream,
    tx: UnixStream,
    armed: AtomicBool,
}

impl Doorbell {
    /// A disarmed doorbell over a fresh nonblocking socketpair.
    pub fn new() -> io::Result<Doorbell> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Doorbell {
            rx,
            tx,
            armed: AtomicBool::new(false),
        })
    }

    /// Waiter: announce the intent to sleep. Re-check for work *after*
    /// this, and only then [`wait`].
    pub fn arm(&self) {
        self.armed.swap(true, Ordering::SeqCst);
    }

    /// Ringer: wake the waiter if it is (about to be) parked. Call after
    /// publishing the work. Costs one atomic swap when the waiter is not
    /// armed, one `write` of a byte when it is.
    pub fn ring(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            // A full buffer means bytes are already waiting to wake the
            // waiter; any other failure has no one to report to.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The entry that makes a [`wait`] return when the doorbell is rung.
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Waiter: back from [`wait`], whatever woke it — until the next
    /// [`Doorbell::arm`] a ring is a no-op again.
    pub fn disarm(&self) {
        self.armed.swap(false, Ordering::SeqCst);
    }

    /// Waiter: swallow the bytes rung so far (call when the
    /// [`Doorbell::poll_fd`] entry came back readable); returns how many
    /// there were.
    pub fn drain(&self) -> usize {
        let mut buf = [0u8; 64];
        let mut total = 0;
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n < buf.len() => return total + n,
                Ok(n) => total += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return total,
            }
        }
    }
}
