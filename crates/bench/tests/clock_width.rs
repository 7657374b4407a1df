//! A deterministic guard on the recovery certifier's clocks, with no
//! timing in it.
//!
//! `VClockCertifier` keeps one sparse dependency clock per transaction
//! and two per object; an operation's work is the width of the clock it
//! builds. On the benchmark's read-modify-write sets (1 024 transactions,
//! seeds 1–3) every dependency runs through one object's conflict chain,
//! so no clock is wider than 64 entries, serial or interleaved. On those
//! histories and on the committed histories of the 16 long-lived sets
//! (`relser_bench::streams`, under both specs), the skeleton the
//! certifier builds must stay the one the dense-clock certifier built:
//! `cross_arcs` and `edges` are pinned to its figures.

use relser_bench::streams::{long_lived_sets, rmw_set};
use relser_core::ids::OpId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock::{CertifierStats, VClockCertifier};
use relser_workload::random_schedule;

/// Certifies `feed` and returns the pass accounting; `acyclic` is the
/// expected verdict where it is known.
fn certify(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    feed: &[OpId],
    acyclic: Option<bool>,
) -> CertifierStats {
    let mut c = VClockCertifier::new(txns, spec);
    for &op in feed {
        c.observe(op).expect("the feed is in program order");
    }
    let verdict = c.seal();
    if let Some(acyclic) = acyclic {
        assert_eq!(verdict.is_acyclic(), acyclic);
    }
    *verdict.stats()
}

/// The rmw set of `seed`: its serial feed (every transaction whole, in id
/// order) and a uniformly random interleaving.
fn rmw_feeds(seed: u64) -> (TxnSet, AtomicitySpec, [Vec<OpId>; 2]) {
    let (txns, spec) = rmw_set(1024, seed);
    let serial = txns
        .txn_ids()
        .flat_map(|t| (0..txns.txn(t).len() as u32).map(move |j| OpId::new(t, j)))
        .collect();
    let shuffled = random_schedule(&txns, seed).ops().to_vec();
    (txns, spec, [serial, shuffled])
}

/// `(cross_arcs, edges)` of each long-lived set's committed history.
fn long_lived_skeletons(relative: bool) -> Vec<(usize, usize)> {
    long_lived_sets(relative)
        .iter()
        .map(|set| {
            let history = set.committed_history();
            let stats = certify(&set.txns, &set.spec, &history, Some(true));
            (stats.cross_arcs, stats.edges)
        })
        .collect()
}

/// `(cross_arcs, edges)` of the dense-clock certifier on each rmw seed's
/// serial and interleaved feed.
const RMW_SKELETONS: [[(usize, usize); 2]; 3] = [
    [(332, 1356), (896, 1920)],
    [(339, 1363), (861, 1885)],
    [(360, 1384), (947, 1971)],
];

/// The same on the committed histories of the long-lived pool, set by
/// set, under the relative and under the absolute spec.
const RELATIVE_SKELETONS: [(usize, usize); 16] = [
    (8726, 9686),
    (7397, 8357),
    (7683, 8643),
    (7328, 8288),
    (10055, 11015),
    (10245, 11205),
    (9621, 10581),
    (9902, 10862),
    (8306, 9266),
    (10278, 11238),
    (8714, 9674),
    (8161, 9121),
    (9334, 10294),
    (10121, 11081),
    (7744, 8704),
    (10027, 10987),
];
const ABSOLUTE_SKELETONS: [(usize, usize); 16] = [
    (9885, 10845),
    (8435, 9395),
    (9041, 10001),
    (8605, 9565),
    (11300, 12260),
    (11374, 12334),
    (10964, 11924),
    (11271, 12231),
    (9428, 10388),
    (10548, 11508),
    (9748, 10708),
    (9558, 10518),
    (10564, 11524),
    (11534, 12494),
    (9124, 10084),
    (11181, 12141),
];

#[test]
fn rmw_clocks_stay_narrow_and_build_the_pinned_skeleton() {
    for (seed, pinned) in (1..=3).zip(RMW_SKELETONS) {
        let (txns, spec, feeds) = rmw_feeds(seed);
        for ((feed, label), pinned) in feeds.iter().zip(["serial", "shuffled"]).zip(pinned) {
            // A serial feed is relatively serial; an interleaving may not be.
            let stats = certify(&txns, &spec, feed, (label == "serial").then_some(true));
            assert!(
                stats.widest <= 64,
                "seed {seed} {label}: widest clock {}",
                stats.widest
            );
            assert_eq!(
                (stats.cross_arcs, stats.edges),
                pinned,
                "seed {seed} {label}"
            );
        }
    }
}

#[test]
fn long_lived_histories_build_the_pinned_skeleton() {
    assert_eq!(long_lived_skeletons(true), RELATIVE_SKELETONS);
    assert_eq!(long_lived_skeletons(false), ABSOLUTE_SKELETONS);
}
