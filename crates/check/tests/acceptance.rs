//! The ISSUE-level acceptance suite: exhaustive exploration of the
//! paper's Figure 1 and Figure 4 universes is divergence-free for all
//! five production protocols; a bounded exploration of a 3-transaction
//! banking workload is divergence-free; and the planted protocol bug is
//! caught end to end and shrunk to a ≤ 6-operation counterexample.

use relser_check::{fault_sweep, shrink, ExploreConfig, FaultSweepConfig, Mode, ScheduleExplorer};
use relser_core::paper::{Figure1, Figure4};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::SchedulerKind;
use relser_workload::banking::{banking, BankingConfig};

fn explore_all(txns: &TxnSet, spec: &AtomicitySpec, mode: Mode, max_incarnations: u32) {
    for kind in SchedulerKind::all() {
        let cfg = ExploreConfig {
            mode,
            max_incarnations,
            ..ExploreConfig::default()
        };
        let report = ScheduleExplorer::new(txns, spec, kind, cfg).explore();
        assert!(
            report.clean(),
            "{kind} diverged on {} paths: {:?}",
            report.stats.paths,
            report.divergences
        );
        assert!(!report.stats.budget_hit, "{kind} hit the path budget");
        assert!(report.stats.paths > 0, "{kind} explored nothing");
    }
}

#[test]
fn figure1_exhaustive_is_clean_for_all_five_protocols() {
    // Figure 1 is the largest paper universe (10 operations over 3
    // transactions). One incarnation per transaction: every interleaving
    // of first attempts is covered, aborted transactions stop instead of
    // retrying — the restart suffixes are what make the lock-based trees
    // explode past any budget without adding new committed prefixes.
    let fig = Figure1::new();
    explore_all(&fig.txns, &fig.spec, Mode::PrunedDfs, 1);
}

#[test]
fn figure4_exhaustive_is_clean_for_all_five_protocols() {
    let fig = Figure4::new();
    explore_all(&fig.txns, &fig.spec, Mode::PrunedDfs, 2);
}

#[test]
fn figure4_unpruned_exhaustive_is_clean_for_rsg_sgt() {
    // One protocol fully unpruned as a soundness spot-check of the
    // sleep-set results above.
    let fig = Figure4::new();
    explore_all(&fig.txns, &fig.spec, Mode::Exhaustive, 2);
}

#[test]
fn figure1_shadow_oracle_agrees_with_the_incremental_engine() {
    // Lockstep decision equivalence: the O(P²) rebuild oracle must answer
    // exactly like the incremental engine on every explored prefix.
    let fig = Figure1::new();
    let cfg = ExploreConfig {
        mode: Mode::PrunedDfs,
        shadow: true,
        ..ExploreConfig::default()
    };
    let report = ScheduleExplorer::new(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, cfg).explore();
    assert!(report.clean(), "{:?}", report.divergences);
}

#[test]
fn banking_bounded_exploration_is_clean() {
    // A 3-transaction banking workload (2 customers + 1 credit audit):
    // bounded random walks over every protocol.
    let scenario = banking(
        &BankingConfig {
            families: 1,
            accounts_per_family: 2,
            customers_per_family: 2,
            transfers_per_customer: 1,
            credit_audits: true,
            bank_audit: false,
        },
        42,
    );
    assert_eq!(scenario.txns.len(), 3);
    for kind in SchedulerKind::all() {
        let cfg = ExploreConfig {
            mode: Mode::RandomWalks {
                walks: 300,
                seed: 7,
            },
            ..ExploreConfig::default()
        };
        let report = ScheduleExplorer::new(&scenario.txns, &scenario.spec, kind, cfg).explore();
        assert!(report.clean(), "{kind}: {:?}", report.divergences);
        assert_eq!(report.stats.paths, 300);
    }
}

#[test]
fn planted_bug_caught_and_shrunk_within_budget() {
    // End to end: explore the planted engine, observe the divergence,
    // shrink it. Acceptance budget: ≤ 6 operations.
    let (txns, spec) = relser_protocols::planted::refutation_universe();
    let report = ScheduleExplorer::new(
        &txns,
        &spec,
        SchedulerKind::PlantedSwappedRsg,
        ExploreConfig::default(),
    )
    .explore();
    assert!(
        report.stats.divergences > 0,
        "the checker must catch the planted bug"
    );
    let cex = shrink(
        &txns,
        &spec,
        SchedulerKind::PlantedSwappedRsg,
        &ExploreConfig::default(),
    )
    .expect("shrinkable");
    assert!(cex.total_ops() <= 6, "shrunk to {} ops", cex.total_ops());
}

#[test]
fn figure4_fault_sweep_is_clean() {
    let fig = Figure4::new();
    let cfg = FaultSweepConfig {
        seeds: vec![3],
        inject_aborts: vec![2],
        crash_at: vec![4],
        ..FaultSweepConfig::default()
    };
    let report = fault_sweep(&fig.txns, &fig.spec, &cfg);
    assert!(report.clean(), "{:?}", report.divergences);
}
