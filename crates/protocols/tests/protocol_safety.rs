//! Protocol safety: every committed history a scheduler produces must lie
//! in its claimed class, verified with the offline Definition-level
//! checkers from `relser-core` on random and scenario workloads.
//!
//! This is the load-bearing test file of the protocols crate: it ties the
//! online schedulers back to the paper's theory.

use proptest::prelude::*;
use relser_protocols::altruistic::AltruisticLocking;
use relser_protocols::compat::CompatSet2Pl;
use relser_protocols::driver::{run, RunConfig};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::sgt::ConflictSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_protocols::unit_locking::UnitLocking;
use relser_protocols::Scheduler;

use relser_core::classes::is_relatively_serializable;
use relser_core::sg::is_conflict_serializable;
use relser_core::spec::AtomicitySpec;
use relser_core::spec_builders::compatibility_sets;
use relser_core::txn::TxnSet;
use relser_workload::{random_spec, random_txns, RandomConfig};

fn workload(seed: u64) -> TxnSet {
    let cfg = RandomConfig {
        txns: 5,
        ops_per_txn: (2, 4),
        objects: 4,
        theta: 0.6,
        write_ratio: 0.5,
    };
    random_txns(&cfg, seed)
}

fn drive(txns: &TxnSet, scheduler: &mut dyn Scheduler, seed: u64) -> relser_core::Schedule {
    let cfg = RunConfig {
        seed,
        max_steps: 2_000_000,
    };
    run(txns, scheduler, &cfg)
        .unwrap_or_else(|e| panic!("{} livelocked: {e}", scheduler.name()))
        .history
}

proptest! {
    // Default case count (256, or $PROPTEST_CASES) — these drivers are
    // fast and the safety properties deserve the coverage: they caught
    // three real protocol soundness bugs during development.
    #![proptest_config(ProptestConfig::default())]

    /// Strict 2PL histories are conflict serializable.
    #[test]
    fn two_pl_histories_are_csr(wl_seed in 0u64..1000, run_seed in 0u64..1000) {
        let txns = workload(wl_seed);
        let h = drive(&txns, &mut TwoPhaseLocking::new(&txns), run_seed);
        prop_assert!(is_conflict_serializable(&txns, &h), "{}", h.display(&txns));
    }

    /// Conflict-SGT histories are conflict serializable.
    #[test]
    fn sgt_histories_are_csr(wl_seed in 0u64..1000, run_seed in 0u64..1000) {
        let txns = workload(wl_seed);
        let h = drive(&txns, &mut ConflictSgt::new(&txns), run_seed);
        prop_assert!(is_conflict_serializable(&txns, &h), "{}", h.display(&txns));
    }

    /// Altruistic-locking histories are conflict serializable even with
    /// donations and wakes in play.
    #[test]
    fn altruistic_histories_are_csr(wl_seed in 0u64..1000, run_seed in 0u64..1000) {
        let txns = workload(wl_seed);
        let h = drive(&txns, &mut AltruisticLocking::new(&txns), run_seed);
        prop_assert!(is_conflict_serializable(&txns, &h), "{}", h.display(&txns));
    }

    /// The spec-aware altruistic variant is still conflict serializable
    /// (it donates strictly later than the classic variant), hence also
    /// relatively serializable under its spec.
    #[test]
    fn spec_altruistic_histories_are_csr(
        wl_seed in 0u64..1000, spec_seed in 0u64..1000, run_seed in 0u64..1000
    ) {
        let txns = workload(wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let h = drive(&txns, &mut AltruisticLocking::with_spec(&txns, &spec), run_seed);
        prop_assert!(is_conflict_serializable(&txns, &h), "{}", h.display(&txns));
        prop_assert!(is_relatively_serializable(&txns, &h, &spec));
    }

    /// RSG-SGT histories are relatively serializable under the spec the
    /// scheduler was configured with (the paper's protocol claim).
    #[test]
    fn rsg_sgt_histories_are_relatively_serializable(
        wl_seed in 0u64..1000, spec_seed in 0u64..1000, run_seed in 0u64..1000
    ) {
        let txns = workload(wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let h = drive(&txns, &mut RsgSgt::new(&txns, &spec), run_seed);
        prop_assert!(
            is_relatively_serializable(&txns, &h, &spec),
            "{}", h.display(&txns)
        );
    }

    /// Compatibility-set 2PL histories are relatively serializable under
    /// the corresponding compatibility-set specification.
    #[test]
    fn compat_2pl_histories_are_relatively_serializable(
        wl_seed in 0u64..1000, run_seed in 0u64..1000, split in 1usize..4
    ) {
        let txns = workload(wl_seed);
        let groups: Vec<usize> = (0..txns.len()).map(|t| t % split.max(1)).collect();
        let spec = compatibility_sets(&txns, &groups).unwrap();
        let h = drive(&txns, &mut CompatSet2Pl::new(&txns, &groups), run_seed);
        prop_assert!(
            is_relatively_serializable(&txns, &h, &spec),
            "groups {groups:?}: {}", h.display(&txns)
        );
    }

    /// Unit-locking histories are relatively serializable under the
    /// driving specification.
    #[test]
    fn unit_locking_histories_are_relatively_serializable(
        wl_seed in 0u64..1000, spec_seed in 0u64..1000, run_seed in 0u64..1000
    ) {
        let txns = workload(wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let h = drive(&txns, &mut UnitLocking::new(&txns, &spec), run_seed);
        prop_assert!(
            is_relatively_serializable(&txns, &h, &spec),
            "{}", h.display(&txns)
        );
    }

    /// Under the absolute spec, RSG-SGT accepts exactly like conflict
    /// serializability demands — its histories are CSR.
    #[test]
    fn rsg_sgt_under_absolute_spec_matches_csr(
        wl_seed in 0u64..1000, run_seed in 0u64..1000
    ) {
        let txns = workload(wl_seed);
        let spec = AtomicitySpec::absolute(&txns);
        let h = drive(&txns, &mut RsgSgt::new(&txns, &spec), run_seed);
        prop_assert!(is_conflict_serializable(&txns, &h), "{}", h.display(&txns));
    }
}

/// Scenario smoke tests: the three motivating workloads all complete
/// under the spec-aware protocols and verify offline.
#[test]
fn scenario_workloads_complete_and_verify() {
    // Banking.
    let sc = relser_workload::banking::banking(&Default::default(), 7);
    for seed in [1u64, 2, 3] {
        let h = drive(&sc.txns, &mut RsgSgt::new(&sc.txns, &sc.spec), seed);
        assert!(is_relatively_serializable(&sc.txns, &h, &sc.spec));
        let h2 = drive(&sc.txns, &mut UnitLocking::new(&sc.txns, &sc.spec), seed);
        assert!(is_relatively_serializable(&sc.txns, &h2, &sc.spec));
    }
    // CAD.
    let sc = relser_workload::cad::cad(&Default::default(), 8);
    for seed in [1u64, 2] {
        let h = drive(&sc.txns, &mut RsgSgt::new(&sc.txns, &sc.spec), seed);
        assert!(is_relatively_serializable(&sc.txns, &h, &sc.spec));
    }
    // Long-lived.
    let sc = relser_workload::longlived::long_lived(&Default::default(), 9);
    for seed in [1u64, 2] {
        let h = drive(&sc.txns, &mut UnitLocking::new(&sc.txns, &sc.spec), seed);
        assert!(is_relatively_serializable(&sc.txns, &h, &sc.spec));
        let h2 = drive(&sc.txns, &mut AltruisticLocking::new(&sc.txns), seed);
        assert!(is_conflict_serializable(&sc.txns, &h2));
    }
}

/// The concurrency claim, measured: on a long-lived workload the
/// spec-aware protocols block less than strict 2PL for the same seeds.
#[test]
fn spec_aware_protocols_block_less_on_long_lived_workloads() {
    let sc = relser_workload::longlived::long_lived(&Default::default(), 11);
    let mut blocked_2pl = 0u64;
    let mut blocked_unit = 0u64;
    for seed in 0..20u64 {
        let cfg = RunConfig {
            seed,
            max_steps: 2_000_000,
        };
        blocked_2pl += run(&sc.txns, &mut TwoPhaseLocking::new(&sc.txns), &cfg)
            .unwrap()
            .blocked;
        blocked_unit += run(&sc.txns, &mut UnitLocking::new(&sc.txns, &sc.spec), &cfg)
            .unwrap()
            .blocked;
    }
    assert!(
        blocked_unit < blocked_2pl,
        "unit locking blocked {blocked_unit} vs 2PL {blocked_2pl}"
    );
}
