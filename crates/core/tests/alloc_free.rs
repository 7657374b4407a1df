//! Counting-allocator proof that the steady-state admit/rollback path of
//! [`IncrementalRsg`], and commits that retire transactions, perform
//! **zero** heap allocations.
//!
//! The engine is warmed up through several admit-everything /
//! abort-everything rounds so every reusable buffer (scratch closure
//! bitset, arc merge buffer, recycled ancestor rows, recycled journals,
//! dag edge storage and DFS scratch, access rows) reaches its steady
//! capacity; allocation counting is then enabled and further rounds —
//! including full rollback-with-replay — must allocate nothing. A second
//! engine then commits transactions for good: each commit retires, and an
//! abort unpins a committed transaction so its sweep retires it too. The
//! retirement worklist is reused across sweeps, so counted commits
//! allocate nothing either.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a sibling test allocating concurrently would
//! produce false positives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::IncrementalRsg;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One round: admit every operation serially (a serial schedule is always
/// admissible), then abort every transaction in `order` and check the
/// prefix is empty. Oldest first, the first abort rolls the whole prefix
/// back and replays the survivors, exercising the rollback and replay
/// paths as hard as the admit path; newest first, each abort pops only
/// its own admissions, so a round over a large set stays one pass.
fn round(engine: &mut IncrementalRsg, txns: &TxnSet, order: impl Iterator<Item = u32>) {
    for t in txns.txns() {
        for j in 0..t.len() as u32 {
            let r = engine.try_admit(OpId::new(t.id(), j));
            assert!(r.is_ok());
        }
    }
    for t in order {
        engine.abort(TxnId(t));
    }
    assert!(engine.admitted().is_empty());
}

/// One pair of single-record read-modify-write transactions `a`, `b` on
/// `x`: `b` commits while `a`'s read pins it, `a` aborts (its sweep
/// retires the replayed `b`), restarts and commits (and retires).
fn pinned_pair(engine: &mut IncrementalRsg, a: u32) {
    let (a, b) = (TxnId(a), TxnId(a + 1));
    for op in [OpId::new(a, 0), OpId::new(b, 0), OpId::new(b, 1)] {
        assert!(engine.try_admit(op).is_ok());
    }
    engine.commit(b);
    assert!(!engine.is_retired(b), "a's read pins b");
    engine.abort(a);
    assert!(engine.is_retired(b), "the abort's sweep retires b");
    for op in [OpId::new(a, 0), OpId::new(a, 1)] {
        assert!(engine.try_admit(op).is_ok());
    }
    engine.commit(a);
    assert!(engine.is_retired(a));
}

#[test]
fn steady_state_admit_rollback_and_retiring_commit_allocate_nothing() {
    let txns = TxnSet::parse(&[
        "r1[x] w1[x] w1[z] r1[y]",
        "r2[y] w2[y] r2[x]",
        "w3[x] w3[y] w3[z]",
        "r4[z] w4[z] r4[x] w4[y]",
    ])
    .unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let mut engine = IncrementalRsg::new(&txns, &spec);

    // Warm-up: grow every buffer to its steady capacity.
    let n = txns.len() as u32;
    for _ in 0..4 {
        round(&mut engine, &txns, 0..n);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..8 {
        round(&mut engine, &txns, 0..n);
    }
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state admit/rollback performed {allocs} heap allocations"
    );

    // Retiring commits. Commits are final, so warm-up and the counted
    // phase use disjoint pairs of one transaction set. One admit-all /
    // abort-all round (newest first) first grows the prefix, journal
    // pool, access row and every node's adjacency past what the pairs
    // need. The counted pairs retire 992 of the 1 024 operations, and
    // retirement's pruning must stay allocation-free all the way.
    const PAIRS: u32 = 256;
    const WARM_PAIRS: u32 = 8;
    let programs: Vec<String> = (1..=2 * PAIRS)
        .map(|i| format!("r{i}[x] w{i}[x]"))
        .collect();
    let programs: Vec<&str> = programs.iter().map(String::as_str).collect();
    let txns = TxnSet::parse(&programs).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let mut engine = IncrementalRsg::new(&txns, &spec);
    round(&mut engine, &txns, (0..2 * PAIRS).rev());
    for pair in 0..WARM_PAIRS {
        pinned_pair(&mut engine, 2 * pair);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for pair in WARM_PAIRS..PAIRS {
        pinned_pair(&mut engine, 2 * pair);
    }
    COUNTING.store(false, Ordering::SeqCst);

    assert_eq!(engine.retired_count(), txns.len());
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state retiring commits performed {allocs} heap allocations"
    );
}
