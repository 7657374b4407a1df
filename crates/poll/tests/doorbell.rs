//! The doorbell handshake under contention, and `wait`'s readiness
//! reports.

use relser_poll::{wait, Doorbell, PollFd, POLLIN};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// 200 000 rounds of "publish one unit of work, ring" against "arm,
/// re-check, wait". The ringer waits for each unit to be consumed before
/// publishing the next, so the waiter goes to sleep (or is about to) in
/// most rounds and the ring races the arm/re-check/wait window every
/// time. A lost wakeup would leave the waiter in `wait` until the 2 s
/// fallback — which must never fire.
#[test]
fn no_wakeup_is_lost_between_arm_and_wait() {
    const ROUNDS: u64 = 200_000;
    let bell = Doorbell::new().unwrap();
    let published = AtomicU64::new(0);
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=ROUNDS {
                published.store(round, Ordering::Release);
                bell.ring();
                while consumed.load(Ordering::Acquire) < round {
                    std::hint::spin_loop();
                }
            }
        });
        let mut seen = 0;
        while seen < ROUNDS {
            bell.arm();
            let now = published.load(Ordering::Acquire);
            if now > seen {
                seen = now;
                consumed.store(seen, Ordering::Release);
                continue;
            }
            let mut set = [bell.poll_fd()];
            let ready = wait(&mut set, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(ready, 1, "lost wakeup: the fallback fired at {seen}");
            assert!(set[0].readable());
            bell.disarm();
            assert!(bell.drain() >= 1);
        }
    });
}

#[test]
fn ring_writes_a_byte_only_while_armed() {
    let bell = Doorbell::new().unwrap();
    bell.ring();
    bell.ring();
    assert_eq!(bell.drain(), 0, "unarmed: no syscall, no byte");
    let mut set = [bell.poll_fd()];
    assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 0);

    bell.arm();
    bell.ring();
    bell.ring();
    assert_eq!(wait(&mut set, None).unwrap(), 1);
    assert!(set[0].readable());
    assert_eq!(bell.drain(), 1, "the first ring disarmed the bell");

    bell.arm();
    bell.disarm();
    bell.ring();
    assert_eq!(bell.drain(), 0);
}

#[test]
fn closed_peer_reports_readable() {
    let (ours, theirs) = UnixStream::pair().unwrap();
    let mut set = [PollFd::new(ours.as_raw_fd(), POLLIN)];
    assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 0);
    assert!(!set[0].readable());
    drop(theirs);
    assert_eq!(wait(&mut set, None).unwrap(), 1);
    assert!(set[0].readable(), "hang-up counts: read() reports the EOF");
}

#[test]
fn sub_millisecond_timeouts_round_up() {
    let t0 = Instant::now();
    assert_eq!(wait(&mut [], Some(Duration::from_micros(100))).unwrap(), 0);
    assert!(t0.elapsed() >= Duration::from_micros(100));
}
