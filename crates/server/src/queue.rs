//! A bounded multi-producer single-consumer command queue with
//! backpressure, built on `Mutex` + `Condvar` (the build environment has
//! no crates.io, so no `crossbeam`).
//!
//! Producers either **wait** for room ([`BoundedQueue::push_wait`], the
//! backpressure path) or **shed** ([`BoundedQueue::try_push`], the
//! overload path — the caller gets the item back and decides what to do).
//! The single consumer drains up to a whole batch per lock acquisition
//! ([`BoundedQueue::pop_batch`]), which amortizes lock and wake traffic
//! on the hot path. A drain wakes blocked producers **proportionally to
//! the capacity it freed** (`min(drained, blocked)` targeted wakes, not
//! a broadcast): waking every producer for a one-item drain just stampedes
//! them into a full queue, and the losers go straight back to sleep —
//! wasted wakeups the queue counts and exposes via
//! [`QueueStats::spurious_producer_wakeups`]. Closing the queue wakes
//! everyone: pending items are still delivered, further pushes fail with
//! [`PushError::Closed`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How a [`BoundedQueue::pop_batch_timeout`] wait ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopWait {
    /// At least one item was moved into `out`.
    Batch,
    /// The timeout elapsed with the queue empty and open — the consumer's
    /// chance to do idle housekeeping (the durable core's fsync tick).
    Idle,
    /// The queue is closed and drained; the consumer should stop.
    Closed,
}

/// Why a push did not enqueue; the item is handed back in both cases.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (only returned by [`BoundedQueue::try_push`]).
    Full(T),
    /// The queue has been closed; no further items are accepted.
    Closed(T),
}

/// Depth statistics observed at push time, plus producer wake accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Largest depth ever observed (immediately after a push).
    pub max_depth: usize,
    /// Mean depth over all pushes.
    pub mean_depth: f64,
    /// Times a backpressured producer was woken from its wait.
    pub producer_wakeups: u64,
    /// Wakeups after which the producer found the queue still full and
    /// had to sleep again — the thundering-herd waste a broadcast wake
    /// produces. With proportional wakes this stays near zero (bounded
    /// by push races, not by the number of blocked producers).
    pub spurious_producer_wakeups: u64,
}

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
    max_depth: usize,
    depth_sum: u64,
    pushes: u64,
    /// Producers currently blocked in [`BoundedQueue::push_wait`].
    blocked_producers: usize,
    producer_wakeups: u64,
    spurious_producer_wakeups: u64,
}

/// The bounded MPSC queue; see the module docs.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            capacity,
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
                max_depth: 0,
                depth_sum: 0,
                pushes: 0,
                blocked_producers: 0,
                producer_wakeups: 0,
                spurious_producer_wakeups: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn record_push<U>(state: &mut State<U>) {
        let depth = state.buf.len();
        state.max_depth = state.max_depth.max(depth);
        state.depth_sum += depth as u64;
        state.pushes += 1;
    }

    /// Enqueues `item`, blocking while the queue is full (backpressure).
    /// Fails only when the queue is closed.
    pub fn push_wait(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        let mut woken = false;
        loop {
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.buf.len() < self.capacity {
                state.buf.push_back(item);
                Self::record_push(&mut state);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            if woken {
                // Woken into a still-full queue: the wake was wasted.
                state.spurious_producer_wakeups += 1;
            }
            state.blocked_producers += 1;
            state = self.not_full.wait(state).expect("queue lock");
            state.blocked_producers -= 1;
            state.producer_wakeups += 1;
            woken = true;
        }
    }

    /// Enqueues `item` only if there is room right now (shed policy).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.buf.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.buf.push_back(item);
        Self::record_push(&mut state);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Moves up to `max` items into `out`, then wakes exactly as many
    /// blocked producers as can use the slots that opened up — not the
    /// whole herd.
    fn drain(&self, mut state: MutexGuard<'_, State<T>>, max: usize, out: &mut Vec<T>) {
        let take = state.buf.len().min(max);
        out.extend(state.buf.drain(..take));
        let wake = take.min(state.blocked_producers);
        drop(state);
        for _ in 0..wake {
            self.not_full.notify_one();
        }
    }

    /// Blocks until at least one item is available (or the queue is closed
    /// and drained), then moves up to `max` items into `out`. Returns
    /// `false` when the queue is closed and empty — the consumer's
    /// shutdown signal.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        debug_assert!(max >= 1);
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if !state.buf.is_empty() {
                self.drain(state, max, out);
                return true;
            }
            if state.closed {
                return false;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// [`BoundedQueue::pop_batch`] with a bounded wait: returns
    /// [`PopWait::Idle`] if `timeout` elapses with nothing enqueued, so
    /// the consumer can run periodic housekeeping (e.g. a deferred-fsync
    /// tick) instead of blocking forever on an idle queue.
    pub fn pop_batch_timeout(&self, max: usize, out: &mut Vec<T>, timeout: Duration) -> PopWait {
        debug_assert!(max >= 1);
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if !state.buf.is_empty() {
                self.drain(state, max, out);
                return PopWait::Batch;
            }
            if state.closed {
                return PopWait::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return PopWait::Idle;
            }
            let (g, _) = self
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("queue lock");
            state = g;
        }
    }

    /// Closes the queue: wakes all blocked producers and the consumer.
    /// Items already enqueued are still delivered by `pop_batch`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Reopens a closed queue for a new consumer incarnation. The
    /// supervisor closes the queue to fence producers while a crashed
    /// shard core recovers, drains what was in flight, and reopens once
    /// the recovered core is ready to consume again. Depth statistics
    /// carry across incarnations.
    pub fn reopen(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = false;
        drop(state);
        self.not_full.notify_all();
    }

    /// Depth statistics observed so far.
    pub fn stats(&self) -> QueueStats {
        let state = self.state.lock().expect("queue lock");
        QueueStats {
            max_depth: state.max_depth,
            mean_depth: if state.pushes == 0 {
                0.0
            } else {
                state.depth_sum as f64 / state.pushes as f64
            },
            producer_wakeups: state.producer_wakeups,
            spurious_producer_wakeups: state.spurious_producer_wakeups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        for i in 0..4 {
            q.push_wait(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(16, &mut out));
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_push_sheds_when_full() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(PushError::Full(2))));
        let mut out = Vec::new();
        q.pop_batch(1, &mut out);
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_rejects_pushes_but_delivers_backlog() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push_wait(7).unwrap();
        q.close();
        assert!(matches!(q.push_wait(8), Err(PushError::Closed(8))));
        let mut out = Vec::new();
        assert!(q.pop_batch(4, &mut out));
        assert_eq!(out, vec![7]);
        out.clear();
        assert!(!q.pop_batch(4, &mut out), "closed and drained");
    }

    #[test]
    fn backpressure_blocks_until_consumer_drains() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.push_wait(0).unwrap();
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || qp.push_wait(1).is_ok());
        // Give the producer time to block on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        q.pop_batch(1, &mut out);
        assert!(producer.join().unwrap(), "producer unblocked by the drain");
        out.clear();
        q.pop_batch(1, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn batch_drain_takes_at_most_max() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8);
        for i in 0..6 {
            q.push_wait(i).unwrap();
        }
        let mut out = Vec::new();
        q.pop_batch(4, &mut out);
        assert_eq!(out.len(), 4);
        out.clear();
        q.pop_batch(4, &mut out);
        assert_eq!(out, vec![4, 5]);
    }

    #[test]
    fn pop_batch_timeout_distinguishes_idle_from_closed() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let mut out = Vec::new();
        assert_eq!(
            q.pop_batch_timeout(4, &mut out, Duration::from_millis(1)),
            PopWait::Idle
        );
        q.push_wait(9).unwrap();
        assert_eq!(
            q.pop_batch_timeout(4, &mut out, Duration::from_millis(1)),
            PopWait::Batch
        );
        assert_eq!(out, vec![9]);
        out.clear();
        q.close();
        assert_eq!(
            q.pop_batch_timeout(4, &mut out, Duration::from_millis(1)),
            PopWait::Closed
        );
    }

    #[test]
    fn reopen_revives_a_closed_queue() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push_wait(1).unwrap();
        q.close();
        assert!(matches!(q.push_wait(2), Err(PushError::Closed(2))));
        let mut out = Vec::new();
        assert!(q.pop_batch(4, &mut out));
        assert!(!q.pop_batch(4, &mut out), "drained and closed");
        q.reopen();
        q.push_wait(3).unwrap();
        out.clear();
        assert!(q.pop_batch(4, &mut out));
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn stats_track_depth() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push_wait(0).unwrap();
        q.push_wait(1).unwrap();
        let s = q.stats();
        assert_eq!(s.max_depth, 2);
        assert!(s.mean_depth > 0.0);
    }

    #[test]
    fn concurrent_producers_deliver_everything() {
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(3));
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    q.push_wait(p * 1000 + i).unwrap();
                }
            }));
        }
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut batch = Vec::new();
            while qc.pop_batch(8, &mut batch) {
                got.append(&mut batch);
            }
            got
        });
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got.len(), 200);
        got.dedup();
        assert_eq!(got.len(), 200, "no duplicates");
    }
}
