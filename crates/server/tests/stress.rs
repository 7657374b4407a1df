//! Concurrency stress tests: the service's headline invariant is that
//! every committed history, under any thread interleaving, re-validates
//! offline — `Rsg::build(&txns, &history, &spec).is_acyclic()` — and
//! preserves every session's program order.
//!
//! The workload is the paper's banking scenario scaled to 68 transactions
//! (4 families × 16 customers + 4 credit audits), served by 8 worker
//! threads, across several arrival-order seeds. Interleavings differ
//! run-to-run (threads race on the queue); the invariant may not.

use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_protocols::Scheduler;
use relser_server::{
    replay, serve, FaultPlan, OverloadPolicy, ServerConfig, ServerError, ServerRun,
};
use relser_workload::banking::{banking, BankingConfig, BankingScenario};
use relser_workload::stream::RequestStream;
use std::time::Duration;

const WORKERS: usize = 8;

/// The plain service — no faults, no commit log — over the arrival order
/// seeded by `seed`, run to completion.
fn serve_to_completion(
    txns: &TxnSet,
    scheduler: Box<dyn Scheduler + Send + '_>,
    cfg: &ServerConfig,
    seed: u64,
) -> Result<ServerRun, ServerError> {
    let stream = RequestStream::shuffled(txns, seed);
    serve(txns, &stream, scheduler, cfg, &FaultPlan::default(), None).into_run(txns)
}

/// 4 families × 16 customers + 4 credit audits = 68 transactions ≥ 64.
fn big_banking(seed: u64) -> BankingScenario {
    banking(
        &BankingConfig {
            families: 4,
            accounts_per_family: 4,
            customers_per_family: 16,
            transfers_per_customer: 1,
            credit_audits: true,
            bank_audit: false,
        },
        seed,
    )
}

fn assert_program_order(txns: &TxnSet, history: &Schedule) {
    for t in txns.txn_ids() {
        for index in 1..txns.txn(t).len() as u32 {
            let prev = relser_core::ids::OpId {
                txn: t,
                index: index - 1,
            };
            let this = relser_core::ids::OpId { txn: t, index };
            assert!(
                history.position(prev) < history.position(this),
                "program order of {t} violated at op {index}"
            );
        }
    }
}

fn assert_run_valid(scenario: &BankingScenario, run: &ServerRun, spec: &AtomicitySpec) {
    assert_eq!(
        run.metrics.commits,
        scenario.txns.len() as u64,
        "every transaction committed exactly once"
    );
    assert_eq!(run.metrics.committed_ops, scenario.txns.total_ops() as u64);
    assert_program_order(&scenario.txns, &run.history);
    let rsg = Rsg::build(&scenario.txns, &run.history, spec);
    assert!(
        rsg.is_acyclic(),
        "committed history must be relatively serializable (RSG acyclic)"
    );
}

#[test]
fn rsg_sgt_stress_histories_are_relatively_serializable() {
    for seed in [1u64, 2, 3] {
        let scenario = big_banking(seed);
        let scheduler = RsgSgt::new(&scenario.txns, &scenario.spec);
        let cfg = ServerConfig {
            workers: WORKERS,
            record_trace: true,
            ..ServerConfig::default()
        };
        let run = serve_to_completion(&scenario.txns, Box::new(scheduler), &cfg, seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_run_valid(&scenario, &run, &scenario.spec);

        // Deterministic replay: the recorded trace, fed through a fresh
        // scheduler on one thread, reproduces every decision and the
        // exact committed history.
        let mut fresh = RsgSgt::new(&scenario.txns, &scenario.spec);
        let log = replay(&mut fresh, &run.trace).unwrap_or_else(|m| panic!("seed {seed}: {m}"));
        let replayed = Schedule::new(&scenario.txns, log).expect("replayed log is a schedule");
        assert_eq!(replayed, run.history, "replay reproduces the history");
    }
}

#[test]
fn two_pl_stress_commits_conflict_serializable_histories() {
    // Strict 2PL exercises the blocking path (RSG-SGT never blocks) and
    // the waits-for timeout machinery. Its histories are conflict
    // serializable, i.e. RSG-acyclic under the absolute specification
    // (Lemma 1).
    for seed in [4u64, 5] {
        let scenario = big_banking(seed);
        let absolute = AtomicitySpec::absolute(&scenario.txns);
        let scheduler = TwoPhaseLocking::new(&scenario.txns);
        let cfg = ServerConfig {
            workers: WORKERS,
            block_timeout: Duration::from_millis(50),
            retry_slice: Duration::from_micros(500),
            ..ServerConfig::default()
        };
        let run = serve_to_completion(&scenario.txns, Box::new(scheduler), &cfg, seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_run_valid(&scenario, &run, &absolute);
    }
}

#[test]
fn shed_policy_with_tiny_queue_completes() {
    // A 2-slot queue under 8 producers forces constant overload; the
    // shed policy must still drive every transaction to commit, and the
    // invariant must still hold.
    let scenario = big_banking(6);
    let scheduler = RsgSgt::new(&scenario.txns, &scenario.spec);
    let cfg = ServerConfig {
        workers: WORKERS,
        queue_capacity: 2,
        batch_max: 2,
        policy: OverloadPolicy::Shed,
        retry_slice: Duration::from_micros(200),
        ..ServerConfig::default()
    };
    let run = serve_to_completion(&scenario.txns, Box::new(scheduler), &cfg, 6)
        .expect("shed run completes");
    assert_run_valid(&scenario, &run, &scenario.spec);
}

#[test]
fn backpressure_policy_with_tiny_queue_completes() {
    // Same overload, opposite policy: producers block on the full queue
    // instead of shedding. No request is ever dropped, so sheds stay 0.
    let scenario = big_banking(7);
    let scheduler = RsgSgt::new(&scenario.txns, &scenario.spec);
    let cfg = ServerConfig {
        workers: WORKERS,
        queue_capacity: 2,
        batch_max: 2,
        policy: OverloadPolicy::Wait,
        ..ServerConfig::default()
    };
    let run = serve_to_completion(&scenario.txns, Box::new(scheduler), &cfg, 7)
        .expect("wait run completes");
    assert_eq!(run.metrics.sheds, 0);
    assert_run_valid(&scenario, &run, &scenario.spec);
}

#[test]
fn single_worker_degenerates_to_serial_service() {
    // One worker = no concurrency: nothing ever blocks or aborts under
    // RSG-SGT, and the history is simply the arrival order interleaved
    // per-transaction serially.
    let scenario = big_banking(8);
    let scheduler = RsgSgt::new(&scenario.txns, &scenario.spec);
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let run = serve_to_completion(&scenario.txns, Box::new(scheduler), &cfg, 8)
        .expect("serial service run");
    assert_eq!(run.metrics.aborts, 0, "serial service never conflicts");
    assert_eq!(run.metrics.blocked, 0);
    assert_run_valid(&scenario, &run, &scenario.spec);
}
