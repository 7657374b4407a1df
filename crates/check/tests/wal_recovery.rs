//! Recovery × oracle cross-validation (no features required).
//!
//! Durable server runs — clean, and crashed mid-run by the admission
//! core's deterministic fault plan — write their WAL to plain
//! `MemStorage`; recovery rebuilds the state from the bytes, and the
//! recovered `(committed, log, trace)` triple is pushed through the full
//! offline oracle suite exactly like a live execution would be. Theorem 1
//! acyclicity, lattice containments, conflict-serializability claims, and
//! deterministic trace replay must all hold for what recovery blesses —
//! for every production scheduler.

use relser_check::{check_execution, ExecutionRecord};
use relser_core::incremental::CompactionPolicy;
use relser_core::paper::{Figure1, Figure2};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{AbortReason, Decision, Scheduler, SchedulerKind};
use relser_server::recovery::{recover, recover_segments_with_certifier, Certifier};
use relser_server::{serve_sharded, FaultPlan, RunOutcome, ServerConfig};
use relser_wal::{
    CheckpointPolicy, FsyncPolicy, MemHandle, MemSegmentStore, MemStorage, SegmentedWal, WalWriter,
};
use relser_workload::stream::RequestStream;

/// One durable run; returns the committed set the server reported and
/// the log bytes it wrote.
fn durable_run(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    seed: u64,
    faults: &FaultPlan,
) -> (RunOutcome, Vec<relser_core::ids::TxnId>, MemHandle) {
    let (mem, handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
    let cfg = ServerConfig {
        workers: 3,
        record_trace: true,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(txns, seed);
    let report = serve_sharded(
        txns,
        &stream,
        vec![kind.make(txns, spec)],
        &cfg,
        std::slice::from_ref(faults),
        vec![&mut wal],
    );
    (report.outcome, report.committed, handle)
}

/// Recovers `handle`'s bytes and runs the oracle suite over the result.
fn recover_and_check(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    handle: &MemHandle,
) -> ExecutionRecord {
    let mut fresh = kind.make(txns, spec);
    let rec = recover(txns, spec, &mut *fresh, &handle.bytes()).expect("recovery succeeds");
    let exec = ExecutionRecord {
        path: Vec::new(),
        committed: rec.committed,
        log: rec.log,
        trace: rec.trace,
        shadow_mismatch: None,
    };
    let divergences = check_execution(txns, spec, kind, &exec);
    assert!(
        divergences.is_empty(),
        "{kind:?}: recovered state diverges: {divergences:?}"
    );
    exec
}

#[test]
fn clean_durable_runs_recover_oracle_clean_for_every_scheduler() {
    let fig = Figure1::new();
    for kind in SchedulerKind::all() {
        for seed in [1u64, 2, 3] {
            let (outcome, committed, handle) =
                durable_run(&fig.txns, &fig.spec, kind, seed, &FaultPlan::default());
            assert_eq!(outcome, RunOutcome::Completed, "{kind:?} seed {seed}");
            let exec = recover_and_check(&fig.txns, &fig.spec, kind, &handle);
            assert_eq!(exec.committed, committed, "{kind:?} seed {seed}");
        }
    }
}

#[test]
fn crashed_durable_runs_lose_no_acknowledged_commit() {
    let fig = Figure2::new();
    for kind in SchedulerKind::all() {
        for crash_at in [0u64, 3, 7, 12] {
            let faults = FaultPlan {
                crash_at_command: Some(crash_at),
                ..FaultPlan::default()
            };
            let (outcome, committed, handle) = durable_run(&fig.txns, &fig.spec, kind, 1, &faults);
            if outcome == RunOutcome::Completed {
                // The run finished before reaching the crash command.
                continue;
            }
            let exec = recover_and_check(&fig.txns, &fig.spec, kind, &handle);
            // Under FsyncPolicy::Always every acknowledged commit is in
            // the durable prefix: the crashed run's committed set must
            // come back exactly.
            assert_eq!(
                exec.committed, committed,
                "{kind:?} crash@{crash_at}: acknowledged commits lost or forged"
            );
        }
    }
}

#[test]
fn checkpointed_runs_recover_from_the_suffix_not_the_history() {
    let fig = Figure1::new();
    for seed in [1u64, 2, 3] {
        let (store, handle) = MemSegmentStore::new();
        let mut wal = SegmentedWal::new(
            Box::new(store),
            FsyncPolicy::Always,
            CheckpointPolicy {
                every_records: 3,
                every_bytes: u64::MAX,
            },
        )
        .unwrap();
        let cfg = ServerConfig {
            workers: 3,
            record_trace: true,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&fig.txns, seed);
        let report = serve_sharded(
            &fig.txns,
            &stream,
            vec![SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec)],
            &cfg,
            &[],
            vec![&mut wal],
        );
        assert_eq!(report.outcome, RunOutcome::Completed, "seed {seed}");
        assert!(
            report.shards[0].checkpoints >= 1,
            "cadence 3 must checkpoint"
        );

        let segments = handle.synced_segments();
        let mut fresh = SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec);
        let (seq, rec) = recover_segments_with_certifier(
            &fig.txns,
            &fig.spec,
            &mut *fresh,
            &segments,
            Certifier::VClock,
        )
        .expect("recovers");
        assert_eq!(seq, segments.last().unwrap().0, "newest segment chosen");
        // Seeding happened: the suffix replayed is strictly shorter than
        // the scanned record count (the head checkpoint covers the rest).
        assert!(rec.replayed < rec.records, "recovery did not seed");
        // The whole point of checkpointing: the replayed suffix is
        // bounded by the checkpoint cadence, not by history length.
        assert!(
            rec.replayed <= 3 + 1,
            "replayed {} records, cadence is 3",
            rec.replayed
        );
        assert_eq!(
            rec.committed, report.committed,
            "no acknowledged commit lost"
        );
        // Oracle suite over the certified subset (complete op sets).
        let exec = ExecutionRecord {
            path: Vec::new(),
            committed: rec.certified.clone(),
            log: rec.log.clone(),
            trace: rec.trace.clone(),
            shadow_mismatch: None,
        };
        let divergences = check_execution(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, &exec);
        assert!(divergences.is_empty(), "seed {seed}: {divergences:?}");
    }
}

#[test]
fn late_requests_for_retired_transactions_degrade_to_typed_aborts() {
    // Satellite regression: an arc endpoint on a retired (reclaimed)
    // node must surface as `Aborted(Retired)` through the protocol
    // layer, not as an arena panic. Aggressive compaction makes every
    // retirement reclaim immediately, so the first committed txn's ops
    // are gone from the arena by the time the late request arrives.
    let fig = Figure1::new();
    let mut s = RsgSgt::with_policy(&fig.txns, &fig.spec, CompactionPolicy::aggressive());
    let t0 = fig.txns.txn_ids().next().unwrap();
    s.begin(t0);
    for op in fig.txns.txn(t0).op_ids() {
        assert_eq!(s.request(op), Decision::Granted);
    }
    s.commit(t0);
    assert!(s.retired(t0), "no predecessors: retired at commit");
    let late = fig.txns.txn(t0).op_ids().next().unwrap();
    assert_eq!(
        s.request(late),
        Decision::Aborted(AbortReason::Retired),
        "late request touching a retired node is a typed abort"
    );
    // The scheduler (and so the admission core) survives and keeps
    // serving live transactions.
    let t1 = fig.txns.txn_ids().nth(1).unwrap();
    s.begin(t1);
    let first = fig.txns.txn(t1).op_ids().next().unwrap();
    assert_eq!(s.request(first), Decision::Granted);
}

#[test]
fn injected_abort_runs_recover_oracle_clean() {
    let fig = Figure1::new();
    for k in [1u64, 3, 6] {
        let faults = FaultPlan {
            abort_requests: vec![k],
            ..FaultPlan::default()
        };
        let (outcome, committed, handle) =
            durable_run(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, 2, &faults);
        assert_eq!(outcome, RunOutcome::Completed, "abort@{k}");
        let exec = recover_and_check(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, &handle);
        assert_eq!(exec.committed, committed, "abort@{k}");
    }
}
