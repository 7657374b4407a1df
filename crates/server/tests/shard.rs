//! Sharded-service stress tests: the headline invariant is unchanged —
//! whatever N shard cores interleave, the committed multi-shard history,
//! merged whole, must pass the offline Theorem 1 oracle
//! (`Rsg::build(&txns, &history, &spec).is_acyclic()`) — plus the
//! two-phase-admit invariant: a crash or reject between shard grants
//! never lets a half-admitted transaction survive, live or recovered.

use proptest::prelude::*;
use relser_core::ids::{OpId, TxnId};
use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Scheduler;
use relser_server::{
    recover_sharded_segments_with_certifier, replay, replay_sharded, serve, serve_sharded,
    Certifier, FaultPlan, RunOutcome, ServerConfig, ShardedRecovery, ShardedReport, ShardedRun,
};
use relser_wal::{scan, CommitLog, FsyncPolicy, MemStorage, WalRecord, WalWriter};
use relser_workload::banking::{banking, BankingConfig, BankingScenario};
use relser_workload::random::{random_spec, random_txns, RandomConfig};
use relser_workload::stream::RequestStream;

/// The plain sharded service — no faults, no commit logs — over the
/// arrival order seeded by `seed`, run to completion.
fn serve_to_completion(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    shards: usize,
    cfg: &ServerConfig,
    seed: u64,
) -> ShardedRun {
    let stream = RequestStream::shuffled(txns, seed);
    serve_sharded(
        txns,
        &stream,
        schedulers(txns, spec, shards),
        cfg,
        &[],
        Vec::new(),
    )
    .into_run(txns)
    .expect("sharded run completes")
}

/// Sharded recovery of flat per-shard logs, each a one-segment stream.
fn recover_flat(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    logs: Vec<Vec<u8>>,
) -> Result<ShardedRecovery, relser_server::RecoveryError> {
    let streams: Vec<Vec<(u64, Vec<u8>)>> = logs.into_iter().map(|b| vec![(0, b)]).collect();
    recover_sharded_segments_with_certifier(
        txns,
        spec,
        |_| Box::new(RsgSgt::new(txns, spec)) as Box<dyn Scheduler + '_>,
        &streams,
        Certifier::VClock,
    )
}

fn schedulers<'a>(
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    shards: usize,
) -> Vec<Box<dyn Scheduler + Send + 'a>> {
    (0..shards)
        .map(|_| Box::new(RsgSgt::new(txns, spec)) as Box<dyn Scheduler + Send + 'a>)
        .collect()
}

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

fn assert_program_order(txns: &TxnSet, history: &[OpId]) {
    let pos = |op: OpId| {
        history
            .iter()
            .position(|&o| o == op)
            .unwrap_or_else(|| panic!("{op:?} missing from history"))
    };
    for t in txns.txn_ids() {
        let committed_here = history.iter().any(|o| o.txn == t);
        if !committed_here {
            continue;
        }
        for index in 1..txns.txn(t).len() as u32 {
            let prev = OpId {
                txn: t,
                index: index - 1,
            };
            let this = OpId { txn: t, index };
            assert!(pos(prev) < pos(this), "program order of {t} violated");
        }
    }
}

/// The merged committed history of a partial (crashed / faulted) run must
/// re-certify whole: project the transaction set onto the committed
/// subset and hand the history to the Theorem 1 oracle.
fn assert_partial_history_certifies(txns: &TxnSet, spec: &AtomicitySpec, report: &ShardedReport) {
    assert_program_order(txns, &report.history);
    if report.committed.is_empty() {
        return;
    }
    let projection = relser_core::project::Projection::subset(txns, spec, &report.committed)
        .expect("committed subset projects");
    let schedule = projection
        .schedule(&report.history)
        .expect("merged committed history is a schedule of the projection");
    let rsg = Rsg::build(&projection.txns, &schedule, &projection.spec);
    assert!(
        rsg.is_acyclic(),
        "merged committed history must be relatively serializable"
    );
}

fn assert_complete_run_valid(txns: &TxnSet, spec: &AtomicitySpec, run: &ShardedRun) {
    assert_eq!(
        run.report.committed.len(),
        txns.len(),
        "every transaction committed"
    );
    assert_eq!(run.history.ops().len(), txns.total_ops());
    assert_program_order(txns, run.history.ops());
    let rsg = Rsg::build(txns, &run.history, spec);
    assert!(
        rsg.is_acyclic(),
        "merged history must be relatively serializable (RSG acyclic)"
    );
}

#[test]
fn sharded_banking_histories_are_relatively_serializable() {
    for shards in [2usize, 4] {
        for seed in [1u64, 2, 3] {
            let scenario = big_banking(seed);
            let cfg = ServerConfig {
                workers: 8,
                record_trace: true,
                ..ServerConfig::default()
            };
            let run = serve_to_completion(&scenario.txns, &scenario.spec, shards, &cfg, seed);
            assert_complete_run_valid(&scenario.txns, &scenario.spec, &run);

            // Determinism per shard: each core's trace replays exactly.
            let traces: Vec<_> = run.report.shards.iter().map(|o| o.trace.clone()).collect();
            let replayed = replay_sharded(
                (0..shards)
                    .map(|_| {
                        Box::new(RsgSgt::new(&scenario.txns, &scenario.spec))
                            as Box<dyn Scheduler + '_>
                    })
                    .collect(),
                &traces,
            )
            .expect("per-shard traces replay without divergence");
            for (s, log) in replayed.iter().enumerate() {
                assert_eq!(log, &run.report.shards[s].log, "shard {s} replay log");
            }
        }
    }
}

#[test]
fn sharded_random_zipf_histories_are_relatively_serializable() {
    let cfg_wl = RandomConfig {
        txns: 24,
        ops_per_txn: (1, 5),
        objects: 8,
        theta: 0.6,
        write_ratio: 0.5,
    };
    for shards in [2usize, 4] {
        for seed in [11u64, 12, 13] {
            let txns = random_txns(&cfg_wl, seed);
            let spec = random_spec(&txns, 0.4, seed ^ 0x5eed);
            let cfg = ServerConfig {
                workers: 6,
                ..ServerConfig::default()
            };
            let run = serve_to_completion(&txns, &spec, shards, &cfg, seed);
            assert_complete_run_valid(&txns, &spec, &run);
        }
    }
}

/// `serve` is the N = 1 row of the one session discipline: the same
/// universe and arrival order through `serve` and through `serve_sharded`
/// over one scheduler commit the same transactions, both replay and
/// certify clean — and the only thing that tells the two logs apart is
/// the commit record (stamp-less `Commit` from the plain core, `CommitAt`
/// from a shard core).
#[test]
fn serve_and_one_shard_serve_sharded_differ_only_in_the_commit_record() {
    let scenario = big_banking(3);
    let (txns, spec) = (&scenario.txns, &scenario.spec);
    let cfg = ServerConfig {
        workers: 8,
        record_trace: true,
        ..ServerConfig::default()
    };
    let durable = || {
        let (mem, handle) = MemStorage::new();
        let wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        (wal, handle)
    };

    let (mut flat_wal, flat_log) = durable();
    let flat = serve(
        txns,
        &RequestStream::shuffled(txns, 3),
        Box::new(RsgSgt::new(txns, spec)),
        &cfg,
        &FaultPlan::default(),
        Some(&mut flat_wal),
    );
    let (mut shard_wal, shard_log) = durable();
    let sharded = serve_sharded(
        txns,
        &RequestStream::shuffled(txns, 3),
        schedulers(txns, spec, 1),
        &cfg,
        &[],
        vec![&mut shard_wal as &mut dyn CommitLog],
    );
    assert_eq!(flat.outcome, RunOutcome::Completed);
    assert_eq!(sharded.outcome, RunOutcome::Completed);
    assert!(
        sharded.admits.is_empty(),
        "one shard: nothing is cross-shard"
    );

    let sorted = |mut v: Vec<TxnId>| {
        v.sort_unstable();
        v
    };
    assert_eq!(
        sorted(flat.committed.clone()),
        sorted(sharded.committed.clone()),
        "same committed transaction set"
    );

    let replayed = replay(&mut RsgSgt::new(txns, spec), &flat.trace).expect("serve replays");
    assert_eq!(replayed, flat.log);
    let replayed = replay_sharded(
        vec![Box::new(RsgSgt::new(txns, spec))],
        &[sharded.shards[0].trace.clone()],
    )
    .expect("serve_sharded replays");
    assert_eq!(replayed[0], sharded.shards[0].log);

    for history in [flat.log.clone(), sharded.history.clone()] {
        let schedule = Schedule::new(txns, history).expect("committed history is a schedule");
        assert!(vclock::certify(txns, &schedule, spec).is_acyclic());
    }

    // (stamp-less commits, stamped commits) in a log.
    let commit_records = |bytes: Vec<u8>| {
        let records = scan(&bytes).records;
        let plain = records.iter().filter(|r| matches!(r, WalRecord::Commit(_)));
        let stamped = records
            .iter()
            .filter(|r| matches!(r, WalRecord::CommitAt { .. }));
        (plain.count(), stamped.count())
    };
    assert_eq!(commit_records(flat_log.bytes()), (txns.len(), 0));
    assert_eq!(commit_records(shard_log.bytes()), (0, txns.len()));
}

#[test]
fn rejected_admits_roll_back_lifo_and_the_run_still_completes() {
    let scenario = big_banking(5);
    let shards = 4usize;
    // Reject the first few cross-shard admits on every shard: the router
    // must roll the already-granted shards back and retry.
    let faults: Vec<FaultPlan> = (0..shards)
        .map(|_| FaultPlan {
            reject_admits: vec![0, 1],
            ..FaultPlan::default()
        })
        .collect();
    let cfg = ServerConfig {
        workers: 8,
        record_trace: true,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(&scenario.txns, 5);
    let report = serve_sharded(
        &scenario.txns,
        &stream,
        schedulers(&scenario.txns, &scenario.spec, shards),
        &cfg,
        &faults,
        Vec::new(),
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.committed.len(), scenario.txns.len());
    assert!(
        report.admits.iter().any(|a| !a.granted),
        "some cross-shard admit was rejected"
    );
    assert!(
        report.shards.iter().map(|o| o.rollbacks).sum::<u64>() > 0,
        "rejected admits rolled granted shards back"
    );
    assert_partial_history_certifies(&scenario.txns, &scenario.spec, &report);
}

#[test]
fn crash_on_one_shard_leaves_a_certifiable_all_owners_prefix() {
    let scenario = big_banking(7);
    let shards = 4usize;
    for crash_at in [5u64, 20, 60] {
        let mut faults = vec![FaultPlan::default(); shards];
        faults[0].crash_at_command = Some(crash_at);
        let cfg = ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&scenario.txns, 7);
        let report = serve_sharded(
            &scenario.txns,
            &stream,
            schedulers(&scenario.txns, &scenario.spec, shards),
            &cfg,
            &faults,
            Vec::new(),
        );
        assert_eq!(report.outcome, RunOutcome::Crashed, "crash_at={crash_at}");
        // The all-owners rule: every reported commit is complete.
        for &t in &report.committed {
            assert_eq!(
                report.history.iter().filter(|o| o.txn == t).count(),
                scenario.txns.txn(t).len(),
                "committed {t} has its full op set (crash_at={crash_at})"
            );
        }
        assert_partial_history_certifies(&scenario.txns, &scenario.spec, &report);
    }
}

#[test]
fn durable_sharded_run_recovers_to_the_same_committed_state() {
    let scenario = big_banking(9);
    let shards = 4usize;
    let cfg = ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(&scenario.txns, 9);
    let mut handles = Vec::new();
    let mut wals: Vec<WalWriter> = (0..shards)
        .map(|_| {
            let (mem, handle) = MemStorage::new();
            handles.push(handle);
            WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap()
        })
        .collect();
    let report = serve_sharded(
        &scenario.txns,
        &stream,
        schedulers(&scenario.txns, &scenario.spec, shards),
        &cfg,
        &[],
        wals.iter_mut()
            .map(|w| w as &mut dyn CommitLog)
            .collect::<Vec<_>>(),
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    let logs: Vec<Vec<u8>> = handles.iter().map(|h| h.bytes()).collect();
    let rec =
        recover_flat(&scenario.txns, &scenario.spec, logs).expect("clean sharded logs recover");
    assert!(rec.partial.is_empty(), "clean run has no partial commits");
    assert_eq!(rec.committed, report.committed, "same commits, same order");
    let mut recovered = rec.history.clone();
    let mut live = report.history.clone();
    recovered.sort();
    live.sort();
    assert_eq!(recovered, live, "same committed operation set");
}

proptest! {
    /// Satellite invariant: a crash or reject anywhere in the two-phase
    /// admit/commit window never lets a half-admitted transaction survive
    /// recovery. We run a durable sharded service with a random crash
    /// point on a random shard plus random admit rejects, then cut every
    /// shard's log at a random byte (modelling shards crashing at
    /// different instants — in particular between one shard's `CommitAt`
    /// and another's) and recover. Whatever the cuts: recovery succeeds,
    /// the committed and partial sets are disjoint, every committed
    /// transaction's op set is complete in the merged history, no partial
    /// transaction contributes an op to it, and the history re-certified
    /// against the Theorem 1 oracle (sharded recovery fails otherwise).
    #[test]
    fn crash_or_reject_between_shard_grants_always_rolls_back_cleanly(
        wl_seed in 0u64..50_000,
        spec_seed in 0u64..50_000,
        arrival_seed in 0u64..50_000,
        shards in 2usize..5,
        crash_shard in 0usize..4,
        crash_at in 0u64..60,
        reject in 0u8..2,
        cut_seeds in proptest::collection::vec(0u64..1_000_000, 4),
    ) {
        let cfg_wl = RandomConfig {
            txns: 5,
            ops_per_txn: (1, 4),
            objects: 3,
            theta: 0.6,
            write_ratio: 0.5,
        };
        let txns = random_txns(&cfg_wl, wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let cfg = ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        };
        let mut faults = vec![FaultPlan::default(); shards];
        faults[crash_shard % shards].crash_at_command = Some(crash_at);
        if reject == 1 {
            faults[(crash_shard + 1) % shards].reject_admits = vec![0];
        }
        let stream = RequestStream::shuffled(&txns, arrival_seed);
        let mut handles = Vec::new();
        let mut wals: Vec<WalWriter> = (0..shards)
            .map(|_| {
                let (mem, handle) = MemStorage::new();
                handles.push(handle);
                WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap()
            })
            .collect();
        let report = serve_sharded(&txns, &stream, schedulers(&txns, &spec, shards), &cfg, &faults, wals.iter_mut().map(|w| w as &mut dyn CommitLog).collect::<Vec<_>>());
        // The run may complete (crash index past the command count) or
        // crash; either way the live report obeys the all-owners rule.
        for &t in &report.committed {
            prop_assert_eq!(
                report.history.iter().filter(|o| o.txn == t).count(),
                txns.txn(t).len(),
                "live committed {} incomplete", t
            );
        }

        // Cut each shard's log at an arbitrary byte and recover.
        let logs: Vec<Vec<u8>> = handles
            .iter()
            .enumerate()
            .map(|(s, h)| {
                let bytes = h.bytes();
                let cut = (cut_seeds[s % cut_seeds.len()] as usize) % (bytes.len() + 1);
                bytes[..cut].to_vec()
            })
            .collect();
        let rec = recover_flat(&txns, &spec, logs)
            .expect("byte cuts never make sharded recovery fail");

        for t in &rec.partial {
            prop_assert!(
                !rec.committed.contains(t),
                "{} both partial and committed", t
            );
            prop_assert!(
                !rec.history.iter().any(|o| o.txn == *t),
                "partial {} leaked into the committed history", t
            );
        }
        for &t in &rec.committed {
            prop_assert_eq!(
                rec.history.iter().filter(|o| o.txn == t).count(),
                txns.txn(t).len(),
                "recovered committed {} incomplete", t
            );
        }
    }
}
