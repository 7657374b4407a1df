//! Open-system request stream adapter: turns a closed [`TxnSet`] into a
//! concurrent arrival stream that any number of worker threads can drain.
//!
//! The simulator and driver are closed systems — they own the whole
//! transaction set and pick the next requester themselves. A *server*
//! instead sees transactions arrive from outside and hands each to
//! whichever worker is free. [`RequestStream`] models that boundary: it
//! fixes a seeded arrival order over the transaction ids up front
//! (reproducible run-to-run) and lets workers claim the next arrival with
//! one atomic fetch — no locks, no coordination beyond the counter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relser_core::ids::TxnId;
use relser_core::txn::TxnSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A seeded arrival order over a transaction set, drained concurrently.
///
/// ```
/// use relser_core::txn::TxnSet;
/// use relser_workload::stream::RequestStream;
/// let txns = TxnSet::parse(&["r1[x]", "r2[y]", "r3[z]"]).unwrap();
/// let stream = RequestStream::shuffled(&txns, 7);
/// let mut seen: Vec<_> = std::iter::from_fn(|| stream.next()).collect();
/// seen.sort();
/// assert_eq!(seen.len(), 3);
/// assert!(stream.next().is_none());
/// ```
#[derive(Debug)]
pub struct RequestStream {
    order: Vec<TxnId>,
    cursor: AtomicUsize,
}

impl RequestStream {
    /// Arrival order = a seeded uniform shuffle of the transaction ids
    /// (Fisher–Yates). Two streams with the same seed over the same set
    /// produce the same arrival order.
    pub fn shuffled(txns: &TxnSet, seed: u64) -> Self {
        let mut order: Vec<TxnId> = txns.txn_ids().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        RequestStream {
            order,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Arrival order = transaction-id order (deterministic, unshuffled).
    pub fn in_order(txns: &TxnSet) -> Self {
        RequestStream {
            order: txns.txn_ids().collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// The arrivals of this stream's order not in `done`, in order, as a
    /// fresh stream: what is left to serve after a life that committed
    /// `done`.
    pub fn without(&self, done: &[TxnId]) -> Self {
        RequestStream {
            order: self
                .order
                .iter()
                .filter(|t| !done.contains(t))
                .copied()
                .collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Claims the next arrival, or `None` when the stream is drained.
    /// Safe to call from any number of threads; each id is handed out
    /// exactly once.
    pub fn next(&self) -> Option<TxnId> {
        let k = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.order.get(k).copied()
    }

    /// Total arrivals in the stream.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Is the stream empty (zero transactions)?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Arrivals not yet claimed.
    pub fn remaining(&self) -> usize {
        self.order
            .len()
            .saturating_sub(self.cursor.load(Ordering::Relaxed))
    }

    /// The full arrival order (for replay / inspection).
    pub fn order(&self) -> &[TxnId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn txns(n: usize) -> TxnSet {
        let sources: Vec<String> = (0..n).map(|i| format!("r{}[x{}]", i + 1, i)).collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        TxnSet::parse(&refs).unwrap()
    }

    #[test]
    fn same_seed_same_order() {
        let t = txns(20);
        let a = RequestStream::shuffled(&t, 9);
        let b = RequestStream::shuffled(&t, 9);
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let t = txns(20);
        let orders: HashSet<Vec<TxnId>> = (0..5)
            .map(|s| RequestStream::shuffled(&t, s).order().to_vec())
            .collect();
        assert!(orders.len() > 1);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let t = txns(50);
        let s = RequestStream::shuffled(&t, 3);
        let mut ids: Vec<TxnId> = s.order().to_vec();
        ids.sort();
        assert_eq!(ids, t.txn_ids().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_drain_hands_each_id_out_once() {
        let t = txns(64);
        let s = Arc::new(RequestStream::shuffled(&t, 1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(id) = s.next() {
                    got.push(id);
                }
                got
            }));
        }
        let mut all: Vec<TxnId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        assert_eq!(all, t.txn_ids().collect::<Vec<_>>());
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn in_order_stream_preserves_ids() {
        let t = txns(5);
        let s = RequestStream::in_order(&t);
        assert_eq!(s.len(), 5);
        assert_eq!(s.next(), Some(TxnId(0)));
        assert_eq!(s.next(), Some(TxnId(1)));
        assert_eq!(s.remaining(), 3);
    }
}
