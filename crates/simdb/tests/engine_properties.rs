//! Property tests for the discrete-event engine: determinism, metric
//! sanity, and safety of committed histories across protocols, arrival
//! patterns, and fault injection.

use proptest::prelude::*;
use relser_core::classes::is_relatively_serializable;
use relser_core::sg::is_conflict_serializable;
use relser_core::spec::AtomicitySpec;
use relser_protocols::altruistic::AltruisticLocking;
use relser_protocols::chaos::ChaosScheduler;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::sgt::ConflictSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_protocols::unit_locking::UnitLocking;
use relser_protocols::Scheduler;
use relser_simdb::{simulate, ArrivalPattern, SimConfig};
use relser_workload::{random_spec, random_txns, RandomConfig};

fn workload(seed: u64) -> relser_core::TxnSet {
    random_txns(
        &RandomConfig {
            txns: 4,
            ops_per_txn: (2, 4),
            objects: 4,
            theta: 0.4,
            write_ratio: 0.5,
        },
        seed,
    )
}

fn arrival(kind: u8) -> ArrivalPattern {
    match kind % 3 {
        0 => ArrivalPattern::AllAtZero,
        1 => ArrivalPattern::EvenlySpaced { gap: 20 },
        _ => ArrivalPattern::Poisson { mean_gap: 25 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical config ⇒ identical report, for every protocol and
    /// arrival pattern.
    #[test]
    fn simulation_is_deterministic(
        wl in 0u64..500, seed in 0u64..500, kind in any::<u8>(), proto in 0u8..4
    ) {
        let txns = workload(wl);
        let spec = random_spec(&txns, 0.4, wl);
        let cfg = SimConfig { seed, arrival: arrival(kind), ..Default::default() };
        let mk = |p: u8| -> Box<dyn Scheduler> {
            match p {
                0 => Box::new(TwoPhaseLocking::new(&txns)),
                1 => Box::new(ConflictSgt::new(&txns)),
                2 => Box::new(RsgSgt::new(&txns, &spec)),
                _ => Box::new(UnitLocking::new(&txns, &spec)),
            }
        };
        let a = simulate(&txns, mk(proto).as_mut(), &cfg).unwrap();
        let b = simulate(&txns, mk(proto).as_mut(), &cfg).unwrap();
        prop_assert_eq!(a.history, b.history);
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.final_store, b.final_store);
    }

    /// Metric invariants: commits equal the transaction count, makespan
    /// positive, p95 ≥ mean is not guaranteed but p95 ≤ makespan is, and
    /// mean concurrency never exceeds the transaction count.
    #[test]
    fn metrics_are_sane(wl in 0u64..500, seed in 0u64..500, kind in any::<u8>()) {
        let txns = workload(wl);
        let cfg = SimConfig { seed, arrival: arrival(kind), ..Default::default() };
        let r = simulate(&txns, &mut TwoPhaseLocking::new(&txns), &cfg).unwrap();
        prop_assert_eq!(r.metrics.commits as usize, txns.len());
        prop_assert!(r.metrics.makespan >= 1);
        prop_assert!(r.metrics.p95_latency as u64 <= r.metrics.makespan);
        prop_assert!(r.metrics.mean_concurrency <= txns.len() as f64 + 1e-9);
        prop_assert!(r.metrics.mean_latency >= 0.0);
        prop_assert_eq!(r.history.len(), txns.total_ops());
    }

    /// Safety under fault injection: chaos-wrapped protocols still commit
    /// only verifiable histories.
    #[test]
    fn chaos_preserves_safety(
        wl in 0u64..300, seed in 0u64..300, prob in 0.05f64..0.4
    ) {
        let txns = workload(wl);
        let spec = random_spec(&txns, 0.5, wl ^ 0x5a);
        let cfg = SimConfig { seed, max_events: 4_000_000, ..Default::default() };

        let mut a = ChaosScheduler::new(RsgSgt::new(&txns, &spec), prob, seed);
        let ra = simulate(&txns, &mut a, &cfg).unwrap();
        prop_assert!(is_relatively_serializable(&txns, &ra.history, &spec));

        let mut c = ChaosScheduler::new(AltruisticLocking::new(&txns), prob, seed ^ 1);
        let rc = simulate(&txns, &mut c, &cfg).unwrap();
        prop_assert!(is_conflict_serializable(&txns, &rc.history));
    }

    /// Spec monotonicity end-to-end: a history committed by RSG-SGT under
    /// some spec also verifies under any looser spec.
    #[test]
    fn committed_histories_verify_under_looser_specs(
        wl in 0u64..300, seed in 0u64..300
    ) {
        let txns = workload(wl);
        let spec = random_spec(&txns, 0.3, wl);
        let cfg = SimConfig { seed, ..Default::default() };
        let r = simulate(&txns, &mut RsgSgt::new(&txns, &spec), &cfg).unwrap();
        prop_assert!(is_relatively_serializable(&txns, &r.history, &spec));
        let free = AtomicitySpec::free(&txns);
        prop_assert!(is_relatively_serializable(&txns, &r.history, &free));
    }

    /// Store execution is a function of the history alone: two protocols
    /// producing conflict-equivalent histories agree on the final state.
    #[test]
    fn final_state_depends_only_on_conflict_class(
        wl in 0u64..300, seed in 0u64..300
    ) {
        let txns = workload(wl);
        let cfg = SimConfig { seed, ..Default::default() };
        let a = simulate(&txns, &mut TwoPhaseLocking::new(&txns), &cfg).unwrap();
        let b = simulate(&txns, &mut ConflictSgt::new(&txns), &cfg).unwrap();
        if a.history.conflict_equivalent(&b.history, &txns) {
            prop_assert_eq!(a.final_store, b.final_store);
        }
    }
}
