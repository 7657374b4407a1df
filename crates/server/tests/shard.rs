//! Sharded-service stress tests: the headline invariant is unchanged —
//! whatever N shard cores interleave, the committed multi-shard history,
//! merged whole, must pass the offline Theorem 1 oracle
//! (`Rsg::build(&txns, &history, &spec).is_acyclic()`). It holds by
//! construction because a transaction is owned by exactly one shard: the
//! merged RSG is a disjoint union of per-shard RSGs. The first two tests
//! pin why transactions spanning shards are refused rather than
//! coordinated (per-shard SGT does not compose) and that they are; the
//! rest run shard-local universes through crashes, byte cuts and recovery.

use proptest::prelude::*;
use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode::{Read, Write};
use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_protocols::{Decision, Scheduler};
use relser_server::{
    recover_and_resume, recover_sharded_segments_with_certifier, replay, replay_sharded,
    serve_sharded, Certifier, FaultPlan, RecoveryError, RunOutcome, ServerConfig, ServerError,
    ShardedRecovery, ShardedReport, ShardedRun,
};
use relser_wal::{
    scan, CheckpointPolicy, CommitLog, MemSegmentStore, MemSegmentsHandle, SegmentedWal, WalRecord,
    MAGIC,
};
use relser_workload::banking::{banking, BankingConfig};
use relser_workload::random::{random_spec, shard_local_txns, RandomConfig};
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

/// Sharded recovery of one segment per shard.
fn recover_shard_logs(
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

/// One never-rotating log per shard, opened on an empty in-memory store
/// (its head stamped with the shard's id), with the scheduler it pairs
/// with and its read handle.
fn open_shards<'a>(
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    shards: usize,
) -> (
    Vec<SegmentedWal>,
    Vec<Box<dyn Scheduler + Send + 'a>>,
    Vec<MemSegmentsHandle>,
) {
    let mut opened = (Vec::new(), Vec::new(), Vec::new());
    for shard in 0..shards as u32 {
        let handle = MemSegmentStore::new().1;
        let fresh = Box::new(RsgSgt::new(txns, spec));
        let ckpt = CheckpointPolicy::never();
        let (wal, scheduler, _) =
            recover_and_resume(handle.clone(), fresh, txns, spec, shard, ckpt)
                .expect("an empty in-memory store opens");
        opened.0.push(wal);
        opened.1.push(scheduler);
        opened.2.push(handle);
    }
    opened
}

/// Each shard's one segment.
fn shard_logs(handles: &[MemSegmentsHandle]) -> Vec<Vec<u8>> {
    handles.iter().map(|h| h.segments().remove(0).1).collect()
}

fn as_commit_logs(wals: &mut [SegmentedWal]) -> Vec<&mut dyn CommitLog> {
    wals.iter_mut().map(|w| w as &mut dyn CommitLog).collect()
}

/// A contended shard-local universe the size of the banking stress set:
/// 68 multi-object transactions over 16 Zipf-skewed objects, every one
/// owned by a single shard of an N-way partition, under a random relative
/// spec.
fn local_universe(shards: usize, seed: u64) -> (TxnSet, AtomicitySpec) {
    let cfg = RandomConfig {
        txns: 68,
        ops_per_txn: (2, 5),
        objects: 16,
        theta: 0.6,
        write_ratio: 0.5,
    };
    let txns = shard_local_txns(&cfg, &ShardMap::new(shards as u32), seed);
    let spec = random_spec(&txns, 0.4, seed ^ 0x5eed);
    (txns, spec)
}

/// The four transactions that show per-shard SGT does not compose, over
/// two shards: objects `a, b` on one shard, `c, f` on the other (placed by
/// `ShardMap::new(2)`, asserted, not left to interning luck), absolute
/// spec. In id order: `X1 = r[a] w[c]`, `L = w[a] r[b]`, `S = r[c] w[f]`,
/// `X2 = r[f] w[b]` — `X1`, `X2` span the shards, `L`, `S` do not.
fn counter_example() -> (TxnSet, AtomicitySpec, [TxnId; 4]) {
    let map = ShardMap::new(2);
    let mut txns = TxnSet::new();
    let names: Vec<String> = (0..8).map(|i| format!("o{i}")).collect();
    let mut pools: [Vec<&str>; 2] = [Vec::new(), Vec::new()];
    for name in &names {
        pools[map.shard_of(txns.intern_object(name)) as usize].push(name);
    }
    let (a, b, c, f) = (pools[0][0], pools[0][1], pools[1][0], pools[1][1]);
    let x1 = txns.add(&[(Read, a), (Write, c)]).unwrap();
    let l = txns.add(&[(Write, a), (Read, b)]).unwrap();
    let s = txns.add(&[(Read, c), (Write, f)]).unwrap();
    let x2 = txns.add(&[(Read, f), (Write, b)]).unwrap();
    let owners: Vec<Option<u32>> = [x1, l, s, x2]
        .iter()
        .map(|&t| map.owner_of_txn(&txns, t))
        .collect();
    assert_eq!(owners, [None, Some(0), Some(1), None], "the placement");
    let spec = AtomicitySpec::absolute(&txns);
    (txns, spec, [x1, l, s, x2])
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

/// The proof obligation behind the refusal, thread-free: the execution
/// `w_L[a] · r_X1[a] w_X1[c] c(X1) · r_S[c] w_S[f] c(S) · r_X2[f] w_X2[b]
/// c(X2) · r_L[b] c(L)` keeps the two cross-shard transactions apart in
/// time (X1 commits before X2 begins — any lease on them is honoured),
/// shows shard A only `L → X1, X2 → L` and shard B only `X1 → S → X2`, has
/// every request granted by its shard's `RsgSgt` — and merges to the cycle
/// `L → X1 → S → X2 → L`. The single-shard `S` and `L` carry the order
/// across, so coordinating only the cross-shard transactions cannot close
/// it. Strict 2PL does compose: shard A's lock table blocks `r_X1[a]`.
#[test]
fn per_shard_sgt_does_not_compose_across_shards() {
    let (txns, spec, [x1, l, s, x2]) = counter_example();
    let map = ShardMap::new(2);
    let op = |txn, index| OpId { txn, index };
    // (transaction, the operations it runs next, commits afterwards).
    let execution = [
        (l, vec![op(l, 0)], false),
        (x1, vec![op(x1, 0), op(x1, 1)], true),
        (s, vec![op(s, 0), op(s, 1)], true),
        (x2, vec![op(x2, 0), op(x2, 1)], true),
        (l, vec![op(l, 1)], true),
    ];
    // Each shard's scheduler runs over its view of the universe: every
    // transaction's operations on the shard's objects, in program order,
    // so each shard sees whole transactions. `local[sh][t]` is `t`'s id
    // in shard `sh`'s view, if it has operations there.
    let mut views = [TxnSet::new(), TxnSet::new()];
    let mut local: [Vec<Option<TxnId>>; 2] = [Vec::new(), Vec::new()];
    for t in txns.txn_ids() {
        for sh in 0..2 {
            let on: Vec<_> = txns
                .txn(t)
                .ops()
                .iter()
                .filter(|o| map.shard_of(o.object) == sh as u32)
                .map(|o| (o.mode, txns.objects().name(o.object)))
                .collect();
            local[sh].push((!on.is_empty()).then(|| views[sh].add(&on).unwrap()));
        }
    }
    // An operation's shard and its id in that shard's view.
    let on_shard = |o: OpId| {
        let sh = map.shard_of_op(&txns, o).unwrap() as usize;
        let before = txns.txn(o.txn).ops()[..o.index as usize]
            .iter()
            .filter(|p| map.shard_of(p.object) == sh as u32)
            .count();
        (
            sh,
            OpId::new(local[sh][o.txn.index()].unwrap(), before as u32),
        )
    };
    let mut sgt = views
        .each_ref()
        .map(|v| RsgSgt::new(v, &AtomicitySpec::absolute(v)));
    let mut merged: Vec<OpId> = Vec::new();
    for (txn, ops, commits) in &execution {
        let seen_on: Vec<(usize, TxnId)> = (0..2)
            .filter_map(|sh| Some((sh, local[sh][txn.index()]?)))
            .collect();
        if ops[0].index == 0 {
            seen_on.iter().for_each(|&(sh, t)| sgt[sh].begin(t));
        }
        for &o in ops {
            let (shard, seen) = on_shard(o);
            assert_eq!(
                sgt[shard].request(seen),
                Decision::Granted,
                "{} on shard {shard}",
                txns.display_op(o)
            );
            merged.push(o);
        }
        if *commits {
            seen_on.iter().for_each(|&(sh, t)| sgt[sh].commit(t));
        }
    }
    assert_eq!(merged.len(), 8, "all eight requests were granted");

    // Each shard's own view certifies; the merged history does not.
    for (shard, sgt) in sgt.iter().enumerate() {
        assert_eq!(sgt.admitted().len(), 4, "shard {shard} granted half");
    }
    let history = Schedule::new(&txns, merged).expect("a complete schedule");
    assert!(!Rsg::build(&txns, &history, &spec).is_acyclic());
    assert!(!vclock::certify(&txns, &history, &spec).is_acyclic());

    // Strict 2PL on shard A stops the execution at its second step.
    let mut two_pl = TwoPhaseLocking::new(&txns);
    two_pl.begin(l);
    assert_eq!(two_pl.request(op(l, 0)), Decision::Granted);
    two_pl.begin(x1);
    assert_eq!(
        two_pl.request(op(x1, 0)),
        Decision::Blocked { on: vec![l] },
        "r_X1[a] waits for L"
    );
}

/// The refusal itself: over two shards the universe above is turned away
/// whole — nothing enqueued, nothing committed, no WAL record — and names
/// a transaction that spans the shards; over one shard everything is
/// single-owner and the same universe completes.
#[test]
fn cross_shard_transactions_are_refused_before_anything_is_enqueued() {
    let (txns, spec, [x1, _, _, x2]) = counter_example();
    let cfg = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let (mut wals, scheds, handles) = open_shards(&txns, &spec, 2);
    let report = serve_sharded(
        &txns,
        &RequestStream::in_order(&txns),
        scheds,
        &cfg,
        &[],
        as_commit_logs(&mut wals),
    );
    let RunOutcome::Failed(ServerError::CrossShard(refused)) = report.outcome else {
        panic!("expected a CrossShard refusal, got {:?}", report.outcome);
    };
    assert!(
        refused == x1 || refused == x2,
        "{refused:?} spans the shards"
    );
    assert_eq!(report.committed, vec![]);
    assert_eq!(report.log, vec![]);
    assert_eq!(report.shards.len(), 2);
    assert!(report.shards.iter().all(|o| o.commands == 0));
    for log in shard_logs(&handles) {
        let records = scan(&log).records;
        assert!(
            matches!(records[..], [WalRecord::Checkpoint(_)]),
            "no WAL record past the head: {records:?}"
        );
    }

    let run = serve_to_completion(&txns, &spec, 1, &cfg, 1);
    assert_complete_run_valid(&txns, &spec, &run);
}

/// A log is outside input, so sharded recovery checks ownership too: a
/// shard's log that commits a transaction the shard does not wholly own —
/// another shard's, or one spanning shards — is refused with a typed
/// error, not certified shard by shard.
#[test]
fn recovery_refuses_a_commit_the_shard_does_not_own() {
    let (txns, spec, [x1, l, _, _]) = counter_example();
    let log_committing = |t: TxnId| {
        let mut bytes = MAGIC.to_vec();
        let mut records = vec![WalRecord::Begin(t)];
        records.extend(txns.txn(t).op_ids().map(WalRecord::Grant));
        records.push(WalRecord::Commit(t));
        for r in records {
            r.encode_into(&mut bytes).unwrap();
        }
        bytes
    };
    // L is owned by shard 0; X1 by nobody.
    for (t, on_shard) in [(l, 1u32), (x1, 0), (x1, 1)] {
        let mut logs = vec![MAGIC.to_vec(), MAGIC.to_vec()];
        logs[on_shard as usize] = log_committing(t);
        assert_eq!(
            recover_shard_logs(&txns, &spec, logs),
            Err(RecoveryError::NotOwner {
                shard: on_shard,
                txn: t
            })
        );
    }
    let rec = recover_shard_logs(&txns, &spec, vec![log_committing(l), MAGIC.to_vec()]).unwrap();
    assert_eq!(rec.committed, vec![l], "the owner's own commit recovers");
}

#[test]
fn sharded_histories_certify_merged_and_replay_per_shard() {
    for shards in [2usize, 4] {
        for seed in [1u64, 2, 3] {
            let (txns, spec) = local_universe(shards, seed);
            let cfg = ServerConfig {
                workers: 8,
                record_trace: true,
                ..ServerConfig::default()
            };
            let run = serve_to_completion(&txns, &spec, shards, &cfg, seed);
            assert_complete_run_valid(&txns, &spec, &run);

            // Determinism per shard: each core's trace replays exactly.
            let traces: Vec<_> = run.report.shards.iter().map(|o| o.trace.clone()).collect();
            let replayed = replay_sharded(
                (0..shards)
                    .map(|_| Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + '_>)
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
            let txns = shard_local_txns(&cfg_wl, &ShardMap::new(shards as u32), seed);
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

/// One shard is the unsharded service: `serve_sharded` over one scheduler
/// owns every transaction (banking's multi-account transfers too),
/// commits them all, replays and certifies clean, and writes one plain
/// `Commit` record per transaction and no other commit kind: a shard core
/// stamps nothing.
#[test]
fn one_shard_serve_sharded_replays_certifies_and_writes_plain_commit_records() {
    let scenario = banking(
        &BankingConfig {
            families: 4,
            accounts_per_family: 4,
            customers_per_family: 16,
            transfers_per_customer: 1,
            credit_audits: true,
            bank_audit: false,
        },
        3,
    );
    let (txns, spec) = (&scenario.txns, &scenario.spec);
    let cfg = ServerConfig {
        workers: 8,
        record_trace: true,
        ..ServerConfig::default()
    };
    let (mut wals, scheds, handles) = open_shards(txns, spec, 1);
    let report = serve_sharded(
        txns,
        &RequestStream::shuffled(txns, 3),
        scheds,
        &cfg,
        &[],
        as_commit_logs(&mut wals),
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    let mut committed = report.committed.clone();
    committed.sort_unstable();
    assert_eq!(committed, txns.txn_ids().collect::<Vec<_>>());

    let replayed = replay(&mut RsgSgt::new(txns, spec), &report.shards[0].trace)
        .expect("the one shard replays");
    assert_eq!(replayed, report.shards[0].log);
    let schedule =
        Schedule::new(txns, report.history.clone()).expect("committed history is a schedule");
    assert!(vclock::certify(txns, &schedule, spec).is_acyclic());

    let records = scan(&shard_logs(&handles)[0]).records;
    let plain = records
        .iter()
        .filter(|r| matches!(r, WalRecord::Commit(_)))
        .count();
    let sessionful = records
        .iter()
        .filter(|r| matches!(r, WalRecord::CommitSession { .. }))
        .count();
    assert_eq!((plain, sessionful), (txns.len(), 0));
}

#[test]
fn crash_on_one_shard_leaves_a_certifiable_prefix_and_the_others_finish() {
    let shards = 4usize;
    let (txns, spec) = local_universe(shards, 7);
    let map = ShardMap::new(shards as u32);
    for crash_at in [5u64, 20, 60] {
        let mut faults = vec![FaultPlan::default(); shards];
        faults[0].crash_at_command = Some(crash_at);
        let cfg = ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, 7);
        let report = serve_sharded(
            &txns,
            &stream,
            schedulers(&txns, &spec, shards),
            &cfg,
            &faults,
            Vec::new(),
        );
        assert_eq!(report.outcome, RunOutcome::Crashed, "crash_at={crash_at}");
        // Every reported commit is complete, and it is its owner's.
        for &t in &report.committed {
            assert_eq!(
                report.history.iter().filter(|o| o.txn == t).count(),
                txns.txn(t).len(),
                "committed {t} has its full op set (crash_at={crash_at})"
            );
            let owner = map.owner_of_txn(&txns, t).unwrap() as usize;
            assert!(report.shards[owner].committed.contains(&t));
        }
        assert_partial_history_certifies(&txns, &spec, &report);
    }
}

#[test]
fn durable_sharded_run_recovers_to_the_same_committed_state() {
    let shards = 4usize;
    let (txns, spec) = local_universe(shards, 9);
    let cfg = ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(&txns, 9);
    let (mut wals, scheds, handles) = open_shards(&txns, &spec, shards);
    let report = serve_sharded(&txns, &stream, scheds, &cfg, &[], as_commit_logs(&mut wals));
    assert_eq!(report.outcome, RunOutcome::Completed);
    let rec =
        recover_shard_logs(&txns, &spec, shard_logs(&handles)).expect("clean sharded logs recover");
    assert_eq!(rec.certified, rec.committed, "empty heads: all certified");
    assert_eq!(rec.committed, report.committed, "same commits, same order");
    let mut recovered = rec.history.clone();
    let mut live = report.history.clone();
    recovered.sort();
    live.sort();
    assert_eq!(recovered, live, "same committed operation set");
}

proptest! {
    /// Shards share nothing, so a crash is one shard's business. We run a
    /// durable sharded service over a shard-local universe with a random
    /// crash point on a random shard, then cut every shard's log at a
    /// random byte (modelling shards crashing at different instants) and
    /// recover. Whatever the cuts: recovery succeeds, every commit is
    /// certified, every committed transaction's op set is complete in
    /// the merged history and present in no log but its owner's, and the
    /// history re-certified against the Theorem 1 oracle (sharded
    /// recovery fails otherwise).
    #[test]
    fn a_crash_and_any_log_cuts_recover_complete_single_owner_commits(
        wl_seed in 0u64..50_000,
        spec_seed in 0u64..50_000,
        arrival_seed in 0u64..50_000,
        shards in 2usize..5,
        crash_shard in 0usize..4,
        crash_at in 0u64..60,
        cut_seeds in proptest::collection::vec(0u64..1_000_000, 4),
    ) {
        let cfg_wl = RandomConfig {
            txns: 8,
            ops_per_txn: (1, 4),
            objects: 6,
            theta: 0.6,
            write_ratio: 0.5,
        };
        let map = ShardMap::new(shards as u32);
        let txns = shard_local_txns(&cfg_wl, &map, wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let cfg = ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        };
        let mut faults = vec![FaultPlan::default(); shards];
        faults[crash_shard % shards].crash_at_command = Some(crash_at);
        let stream = RequestStream::shuffled(&txns, arrival_seed);
        let (mut wals, scheds, handles) = open_shards(&txns, &spec, shards);
        let report = serve_sharded(&txns, &stream, scheds, &cfg, &faults, as_commit_logs(&mut wals));
        // The run may complete (crash index past the command count) or
        // crash; either way every live commit is complete.
        for &t in &report.committed {
            prop_assert_eq!(
                report.history.iter().filter(|o| o.txn == t).count(),
                txns.txn(t).len(),
                "live committed {} incomplete", t
            );
        }

        // Cut each shard's log at an arbitrary byte and recover.
        let logs: Vec<Vec<u8>> = shard_logs(&handles)
            .into_iter()
            .enumerate()
            .map(|(s, bytes)| {
                let cut = (cut_seeds[s % cut_seeds.len()] as usize) % (bytes.len() + 1);
                bytes[..cut].to_vec()
            })
            .collect();
        let rec = recover_shard_logs(&txns, &spec, logs)
            .expect("byte cuts never make sharded recovery fail");

        prop_assert_eq!(
            &rec.certified, &rec.committed,
            "empty heads: a byte cut leaves every commit certified"
        );
        for &t in &rec.committed {
            prop_assert_eq!(
                rec.history.iter().filter(|o| o.txn == t).count(),
                txns.txn(t).len(),
                "recovered committed {} incomplete", t
            );
            let owner = map.owner_of_txn(&txns, t).expect("single owner");
            for (s, shard) in rec.shards.iter().enumerate() {
                prop_assert_eq!(
                    shard.log.iter().any(|o| o.txn == t),
                    s as u32 == owner,
                    "{} in shard {}'s log, owner {}", t, s, owner
                );
            }
        }
    }
}
