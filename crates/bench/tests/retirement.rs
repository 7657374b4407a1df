//! A deterministic guard on retirement, with no timing in it.
//!
//! The benchmark's sixteen long-lived sets (`relser_bench::streams`) run
//! to commit on six closed-loop streams through [`RsgSgt`]. When the last
//! transaction has committed none is live, so every one of the 256 must
//! be retired: after each commit and abort the engine retires every
//! committed transaction that no live transaction reaches. A rule that
//! asks for no *direct* in-arc from an unretired transaction instead
//! keeps committed transactions that pin each other at the transaction
//! level while the operation-level skeleton stays acyclic; under the
//! relative spec it ends these loops with 91 to 256 retired.

use relser_bench::streams::long_lived_sets;
use relser_protocols::rsg_sgt::RsgSgt;

/// Runs every set of the pool and checks that all its transactions retired.
fn assert_every_transaction_retires(relative: bool) {
    for set in long_lived_sets(relative) {
        let mut scheduler = RsgSgt::new(&set.txns, &set.spec);
        set.run(&mut scheduler);
        assert_eq!(
            scheduler.engine().retired_count(),
            set.txns.len(),
            "set {} (relative spec: {relative})",
            set.seed
        );
    }
}

#[test]
fn every_transaction_retires_under_the_relative_spec() {
    assert_every_transaction_retires(true);
}

#[test]
fn every_transaction_retires_under_the_absolute_spec() {
    assert_every_transaction_retires(false);
}
