//! Property tests for crash recovery, randomized with the in-tree
//! `proptest` stand-in.
//!
//! The durability contract, stated pointwise: for a random workload and
//! **every** crash record-index `k`, recovering the log's first `k`
//! records must equal a fresh replay of the acknowledged prefix —
//! the same committed set, the same granted-op log, and a trace that
//! reproduces that log through the deterministic replay machinery.
//! The committed/log expectations are recomputed here by a *pure fold*
//! over the record prefix (no scheduler involved), so the recovery
//! manager is checked against an independent second implementation of
//! the log semantics.

use proptest::prelude::*;
use relser_core::ids::{OpId, TxnId};
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Scheduler;
use relser_server::core::{Command, Reply};
use relser_server::recovery::{
    recover_segments_with_certifier, recover_sharded_segments_with_certifier, Certifier, Recovery,
    RecoveryError, ShardedRecovery,
};
use relser_server::{
    replay, run_core, serve_sharded, BoundedQueue, CoreCfg, FaultPlan, Progress, RunOutcome,
    ServerConfig, ShardCoreCtx,
};
use relser_wal::{
    scan, Checkpoint, CheckpointEvent, CheckpointPolicy, FsyncPolicy, MemSegmentStore,
    MemSegmentsHandle, SegmentedWal, WalRecord, MAGIC,
};
use relser_workload::stream::RequestStream;
use relser_workload::{random_spec, random_txns, RandomConfig};
use std::time::Instant;

fn universe(wl_seed: u64, spec_seed: u64) -> (TxnSet, AtomicitySpec) {
    let cfg = RandomConfig {
        txns: 4,
        ops_per_txn: (1, 4),
        objects: 3,
        theta: 0.6,
        write_ratio: 0.5,
    };
    let txns = random_txns(&cfg, wl_seed);
    let spec = random_spec(&txns, 0.5, spec_seed);
    (txns, spec)
}

/// The committed prefix a fold over the first records says recovery
/// should produce: the core's log semantics (push on grant, purge on
/// abort, collect on commit) re-implemented without any scheduler.
fn fold_prefix(records: &[WalRecord]) -> (Vec<TxnId>, Vec<OpId>) {
    let mut committed: Vec<TxnId> = Vec::new();
    let mut log: Vec<OpId> = Vec::new();
    for r in records {
        match *r {
            WalRecord::Begin(_) => {}
            WalRecord::Grant(op) => log.push(op),
            WalRecord::Commit(t) | WalRecord::CommitSession { txn: t, .. } => committed.push(t),
            WalRecord::Abort(t) => log.retain(|o| o.txn != t),
            // A never-rotating log's one checkpoint is its empty head.
            WalRecord::Checkpoint(ref cp) => assert_eq!(*cp, Checkpoint::default()),
        }
    }
    (committed, log)
}

/// A never-rotating log and its read handle.
fn one_segment_log() -> (SegmentedWal, MemSegmentsHandle) {
    let (store, handle) = MemSegmentStore::new();
    let wal = SegmentedWal::new(
        Box::new(store),
        FsyncPolicy::Always,
        CheckpointPolicy::never(),
    )
    .unwrap();
    (wal, handle)
}

/// Recovers raw bytes as the one-segment stream `[(0, bytes)]`.
fn recover_bytes(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    scheduler: &mut dyn Scheduler,
    bytes: &[u8],
) -> Result<Recovery, RecoveryError> {
    let segments = [(0, bytes.to_vec())];
    recover_segments_with_certifier(txns, spec, scheduler, &segments, Certifier::VClock)
        .map(|(_, rec)| rec)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// For every crash index k, recovering `log[..k]` equals the fresh
    /// replay of the committed prefix: state and trace agree with the
    /// pure fold and with deterministic replay.
    #[test]
    fn recovery_matches_the_committed_prefix_at_every_crash_index(
        wl_seed in 0u64..50_000,
        spec_seed in 0u64..50_000,
        arrival_seed in 0u64..50_000,
        workers in 1usize..4,
    ) {
        let (txns, spec) = universe(wl_seed, spec_seed);
        let (mut wal, handle) = one_segment_log();
        let cfg = ServerConfig {
            workers,
            record_trace: true,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, arrival_seed);
        let scheduler = RsgSgt::new(&txns, &spec);
        let report = serve_sharded(&txns, &stream, vec![Box::new(scheduler)], &cfg, &[], vec![&mut wal]);
        prop_assert_eq!(&report.outcome, &RunOutcome::Completed);

        let bytes = handle.segments().remove(0).1;
        let full = scan(&bytes);
        prop_assert!(full.truncation.is_none());

        for k in 0..=full.records.len() {
            let cut = full.boundaries[k];
            let mut fresh = RsgSgt::new(&txns, &spec);
            let rec = recover_bytes(&txns, &spec, &mut fresh, &bytes[..cut])
                .expect("every record prefix recovers");
            prop_assert_eq!(rec.records, k, "crash index {}", k);

            // State equality against the pure fold.
            let (want_committed, want_log) = fold_prefix(&full.records[..k]);
            prop_assert_eq!(&rec.committed, &want_committed, "crash index {}", k);
            prop_assert_eq!(&rec.log, &want_log, "crash index {}", k);
            let want_history: Vec<OpId> = want_log
                .iter()
                .copied()
                .filter(|o| want_committed.contains(&o.txn))
                .collect();
            prop_assert_eq!(&rec.history, &want_history, "crash index {}", k);

            // Trace equivalence: the recovered TraceEvent stream, pushed
            // through the deterministic replay machinery on yet another
            // fresh scheduler, reproduces the recovered log exactly.
            let mut replayer = RsgSgt::new(&txns, &spec);
            let replayed = replay(&mut replayer, &rec.trace)
                .expect("recovered trace replays without divergence");
            prop_assert_eq!(&replayed, &rec.log, "crash index {}", k);
        }

        // The full log recovers the full run.
        let mut fresh = RsgSgt::new(&txns, &spec);
        let rec = recover_bytes(&txns, &spec, &mut fresh, &bytes).unwrap();
        prop_assert_eq!(&rec.committed, &report.committed);
        prop_assert_eq!(&rec.log, &report.log);
        prop_assert!(rec.live_aborted.is_empty());
    }

    /// Cutting at arbitrary *byte* offsets (not just boundaries) always
    /// recovers, and the committed count is monotone in the cut.
    #[test]
    fn recovery_is_total_and_monotone_over_byte_cuts(
        wl_seed in 0u64..50_000,
        arrival_seed in 0u64..50_000,
    ) {
        let (txns, spec) = universe(wl_seed, wl_seed ^ 0x5eed);
        let (mut wal, handle) = one_segment_log();
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, arrival_seed);
        let scheduler = RsgSgt::new(&txns, &spec);
        let report = serve_sharded(&txns, &stream, vec![Box::new(scheduler)], &cfg, &[], vec![&mut wal]);
        prop_assert_eq!(&report.outcome, &RunOutcome::Completed);

        let bytes = handle.segments().remove(0).1;
        let mut prev = 0usize;
        for cut in 0..=bytes.len() {
            let mut fresh = RsgSgt::new(&txns, &spec);
            let rec = recover_bytes(&txns, &spec, &mut fresh, &bytes[..cut])
                .expect("byte cuts never make recovery fail");
            prop_assert!(rec.committed.len() >= prev, "cut {}", cut);
            prev = rec.committed.len();
        }
        prop_assert_eq!(prev, report.committed.len());
    }
}

/// On an abort-heavy log, replay (which drops aborted incarnations in one
/// pass at the end) leaves the `committed`, `log` and `history` of
/// purging the log at every abort, as [`fold_prefix`] does.
#[test]
fn an_abort_heavy_log_recovers_as_the_purging_fold() {
    // Disjoint objects: every interleaving certifies.
    let programs = [
        "w1[a] w1[b] w1[c]",
        "w2[d] w2[e]",
        "w3[f] w3[g] w3[h]",
        "w4[i]",
    ];
    let txns = TxnSet::parse(&programs).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut records = Vec::new();
    let mut cursor: Vec<Option<u32>> = vec![None; txns.len()];
    let mut done = vec![false; txns.len()];
    let mut aborts = 0;
    while done.contains(&false) {
        let t = TxnId((next() % txns.len() as u64) as u32);
        if done[t.index()] {
            continue;
        }
        let len = txns.txn(t).len() as u32;
        let slot = &mut cursor[t.index()];
        records.push(match *slot {
            None => {
                *slot = Some(0);
                WalRecord::Begin(t)
            }
            Some(i) if i < len && next() % 3 != 0 => {
                *slot = Some(i + 1);
                WalRecord::Grant(OpId::new(t, i))
            }
            Some(i) if i == len && next() % 64 == 0 => {
                done[t.index()] = true;
                WalRecord::Commit(t)
            }
            Some(_) => {
                *slot = None;
                aborts += 1;
                WalRecord::Abort(t)
            }
        });
    }
    assert!(aborts > 500, "abort-heavy: {aborts} aborts");
    let mut fresh = RsgSgt::new(&txns, &spec);
    let rec = recover_bytes(&txns, &spec, &mut fresh, &encode(&records)).unwrap();
    let (committed, log) = fold_prefix(&records);
    let history: Vec<OpId> = log
        .iter()
        .copied()
        .filter(|o| committed.contains(&o.txn))
        .collect();
    assert_eq!(rec.committed, committed);
    assert_eq!(rec.log, log);
    assert_eq!(rec.history, history);
}

/// `T1 = r1[x] w1[x]`, `T2 = r2[x] w2[x]` under the absolute spec, plus
/// one single-write transaction per object `y3..y10`, so that at two
/// shards some of them live on the shard that does not own `x`.
fn lost_update_universe() -> (TxnSet, AtomicitySpec) {
    let mut sources = vec!["r1[x] w1[x]".to_string(), "r2[x] w2[x]".to_string()];
    sources.extend((3..=10).map(|k| format!("w{k}[y{k}]")));
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    let txns = TxnSet::parse(&sources).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    (txns, spec)
}

fn encode(records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for r in records {
        r.encode_into(&mut bytes).unwrap();
    }
    bytes
}

/// The lost update `r1[x] r2[x] w1[x] w2[x]`, both committed when
/// `commit_t2`; otherwise `T2` is still live at the crash.
fn lost_update_log(commit_t2: bool) -> Vec<WalRecord> {
    let (t1, t2) = (TxnId(0), TxnId(1));
    let mut log = vec![
        WalRecord::Begin(t1),
        WalRecord::Begin(t2),
        WalRecord::Grant(OpId::new(t1, 0)),
        WalRecord::Grant(OpId::new(t2, 0)),
        WalRecord::Grant(OpId::new(t1, 1)),
        WalRecord::Grant(OpId::new(t2, 1)),
        WalRecord::Commit(t1),
    ];
    if commit_t2 {
        log.push(WalRecord::Commit(t2));
    }
    log
}

/// Sharded recovery of `records` on the owner of `x` (so of `T1`), every
/// other transaction that shard owns left out, and every transaction
/// another shard owns committed cleanly there. A checkpoint in `records`
/// is stamped with the owner's shard id.
fn recover_sharded(shards: u32, records: &[WalRecord]) -> Result<ShardedRecovery, RecoveryError> {
    let (txns, spec) = lost_update_universe();
    let map = ShardMap::new(shards);
    let home = map.owner_of_txn(&txns, TxnId(0)).unwrap();
    let streams: Vec<Vec<(u64, Vec<u8>)>> = (0..shards)
        .map(|s| {
            let records = if s == home {
                let mut records = records.to_vec();
                for r in &mut records {
                    if let WalRecord::Checkpoint(cp) = r {
                        cp.shard = home;
                    }
                }
                records
            } else {
                txns.txn_ids()
                    .filter(|&t| map.owner_of_txn(&txns, t) == Some(s))
                    .flat_map(|t| {
                        [
                            WalRecord::Begin(t),
                            WalRecord::Grant(OpId::new(t, 0)),
                            WalRecord::Commit(t),
                        ]
                    })
                    .collect()
            };
            vec![(0, encode(&records))]
        })
        .collect();
    if shards > 1 {
        assert!(
            streams.iter().all(|s| s[0].1.len() > MAGIC.len()),
            "every shard's log holds commits"
        );
    }
    recover_sharded_segments_with_certifier(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &streams,
        Certifier::VClock,
    )
}

/// One log's recovery of `records`, as the one-segment stream.
fn recover_one_log(records: &[WalRecord]) -> Result<Recovery, RecoveryError> {
    let (txns, spec) = lost_update_universe();
    recover_bytes(
        &txns,
        &spec,
        &mut RsgSgt::new(&txns, &spec),
        &encode(records),
    )
}

/// One entry point's committed and certified transactions, or its refusal.
type Answer = Result<(Vec<TxnId>, Vec<TxnId>), RecoveryError>;

/// Every entry point on one log, named: one log's recovery, then sharded
/// recovery at one and two shards.
fn recover_every_way(records: &[WalRecord]) -> Vec<(&'static str, Answer)> {
    let one = recover_one_log(records).map(|r| (r.committed, r.certified));
    let sharded = |n| recover_sharded(n, records).map(|r| (r.committed, r.certified));
    vec![
        ("recover_segments", one),
        ("sharded, 1 shard", sharded(1)),
        ("sharded, 2 shards", sharded(2)),
    ]
}

/// Step 4 refuses a committed history whose RSG has a cycle, whichever
/// entry point recovers it.
#[test]
fn every_recovery_refuses_a_committed_lost_update() {
    for (entry, got) in recover_every_way(&lost_update_log(true)) {
        assert_eq!(
            got,
            Err(RecoveryError::NotRelativelySerializable),
            "{entry}"
        );
    }
}

/// The same log with the cycle-closing transaction uncommitted recovers:
/// `T2` is rolled back, and the history left is `T1` alone.
#[test]
fn an_uncommitted_cycle_closer_is_rolled_back_not_refused() {
    let rec = recover_one_log(&lost_update_log(false)).unwrap();
    assert_eq!(rec.committed, vec![TxnId(0)]);
    assert_eq!(rec.live_aborted, vec![TxnId(1)]);
    for shards in [1, 2] {
        let rec = recover_sharded(shards, &lost_update_log(false)).unwrap();
        assert!(rec.committed.contains(&TxnId(0)), "{shards} shard(s)");
        assert!(!rec.committed.contains(&TxnId(1)), "{shards} shard(s)");
        assert!(
            rec.shards.iter().any(|s| s.live_aborted == vec![TxnId(1)]),
            "{shards} shard(s)"
        );
    }
}

fn checkpoint(committed: Vec<TxnId>, events: Vec<CheckpointEvent>) -> WalRecord {
    WalRecord::Checkpoint(Checkpoint {
        committed,
        events,
        ..Checkpoint::default()
    })
}

/// A forged log gets one answer from every entry point: a record the
/// core would not have logged in its transaction's state is refused as a
/// `ForeignRecord`, at that record. `T1 = r1[x] w1[x]` has two
/// operations. Flat recovery used to return an incomplete commit as
/// committed (sharded recovery as `partial`), a double commit twice, a
/// commit then an abort as committed with its operations purged, and a
/// commit then a begin as both committed and rolled back.
#[test]
fn every_recovery_refuses_a_record_the_core_never_logs() {
    use CheckpointEvent as E;
    use WalRecord::{Abort, Begin, Commit, Grant};
    let t1 = TxnId(0);
    let whole = [
        Begin(t1),
        Grant(OpId::new(t1, 0)),
        Grant(OpId::new(t1, 1)),
        Commit(t1),
    ];
    let after_whole = |r: WalRecord| [&whole[..], &[r]].concat();
    let shapes = [
        (
            "an incomplete commit",
            vec![Begin(t1), Grant(OpId::new(t1, 0)), Commit(t1)],
        ),
        ("a double commit", after_whole(Commit(t1))),
        ("a commit, then an abort", after_whole(Abort(t1))),
        ("a commit, then a begin", after_whole(Begin(t1))),
        (
            "a checkpoint listing a transaction it leaves live",
            vec![checkpoint(
                vec![t1],
                vec![E::Begin(t1), E::Grant(OpId::new(t1, 0))],
            )],
        ),
        (
            "a checkpoint committing a transaction it does not list",
            vec![checkpoint(
                vec![],
                vec![
                    E::Begin(t1),
                    E::Grant(OpId::new(t1, 0)),
                    E::Grant(OpId::new(t1, 1)),
                    E::Commit(t1),
                ],
            )],
        ),
        (
            "a checkpoint listing a transaction twice",
            vec![checkpoint(vec![t1, t1], vec![])],
        ),
    ];
    for (shape, records) in shapes {
        let at = records.len() - 1;
        let want = RecoveryError::ForeignRecord {
            at,
            record: records[at].clone(),
        };
        for (entry, got) in recover_every_way(&records) {
            let got = got.map_err(|mut e| {
                assert!(e.to_string().contains("state"), "names the cause: {e}");
                // `recover_sharded` stamped the checkpoint with its shard.
                if let RecoveryError::ForeignRecord {
                    record: WalRecord::Checkpoint(cp),
                    ..
                } = &mut e
                {
                    cp.shard = 0;
                }
                e
            });
            assert_eq!(got, Err(want.clone()), "{shape}, {entry}");
        }
    }
}

/// The positive side of the rule: a head checkpoint that lists `T1` with
/// no events vouches for it. `T1` is committed, and not certified, on
/// every entry point.
#[test]
fn a_checkpoint_vouches_for_a_commit_whose_events_it_dropped() {
    let t1 = TxnId(0);
    for (entry, got) in recover_every_way(&[checkpoint(vec![t1], vec![])]) {
        let (committed, certified) = got.unwrap_or_else(|e| panic!("{entry}: {e}"));
        assert!(committed.contains(&t1), "{entry}: committed");
        assert!(!certified.contains(&t1), "{entry}: vouched, not certified");
    }
}

/// What a checkpoint keeps: the events of every transaction that can
/// still close a cycle, and nothing else. `L = r1[x] w1[z]` reads `x`
/// and stays live; `T2 = w2[x]` then writes `x` and commits, pinned by
/// the arc `L → T2`; `T3 = w3[q]` commits with no arc into it and
/// retires. The core checkpoints after every command, so the newest head
/// carries `L` and `T2` and lists `T3` only. Recovery certifies `T2`,
/// vouches for `T3` and rolls `L` back.
#[test]
fn a_checkpoint_keeps_what_a_live_transaction_pins_and_drops_what_retired() {
    let txns = TxnSet::parse(&["r1[x] w1[z]", "w2[x]", "w3[q]"]).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let (l, t2, t3) = (TxnId(0), TxnId(1), TxnId(2));
    let request = |txn, index| Command::Request {
        op: OpId::new(txn, index),
        enqueued: Instant::now(),
        reply: Reply::new(),
    };
    let commit = |txn| Command::Commit {
        txn,
        ops: 1,
        ack: None,
    };
    let queue: BoundedQueue<Command> = BoundedQueue::new(16);
    let commands = [
        Command::Begin(l),
        request(l, 0),
        Command::Begin(t2),
        request(t2, 0),
        commit(t2),
        Command::Begin(t3),
        request(t3, 0),
        commit(t3),
    ];
    for cmd in commands {
        assert!(queue.push_wait(cmd).is_ok());
    }
    queue.close();
    let (store, handle) = MemSegmentStore::new();
    let every_command = CheckpointPolicy {
        every_records: 1,
        every_bytes: u64::MAX,
    };
    let mut wal = SegmentedWal::new(Box::new(store), FsyncPolicy::Always, every_command).unwrap();
    let out = run_core(
        Box::new(RsgSgt::new(&txns, &spec)),
        &queue,
        &Progress::new(),
        CoreCfg {
            batch_max: 1,
            record_trace: false,
        },
        &FaultPlan::default(),
        Some(&mut wal),
        ShardCoreCtx::default(),
    );
    assert_eq!(out.committed, vec![t2, t3]);
    assert_eq!(out.checkpoints, 8, "one rotation per command");

    let segments = handle.synced_segments();
    let head = scan(&segments.last().unwrap().1).records.into_iter().next();
    let Some(WalRecord::Checkpoint(cp)) = head else {
        panic!("the newest segment opens with its head checkpoint");
    };
    assert_eq!(cp.committed, vec![t2, t3]);
    let mut kept: Vec<TxnId> = cp
        .events
        .iter()
        .map(|e| match *e {
            CheckpointEvent::Begin(t) | CheckpointEvent::Commit(t) => t,
            CheckpointEvent::Grant(op) => op.txn,
        })
        .collect();
    kept.dedup();
    assert_eq!(
        kept,
        vec![l, t2],
        "the pinned commit stays, the retired one goes"
    );

    let mut fresh = RsgSgt::new(&txns, &spec);
    let (_, rec) =
        recover_segments_with_certifier(&txns, &spec, &mut fresh, &segments, Certifier::VClock)
            .unwrap();
    assert_eq!(rec.committed, vec![t2, t3]);
    assert_eq!(rec.certified, vec![t2]);
    assert_eq!(rec.history, vec![OpId::new(t2, 0)]);
    assert_eq!(rec.live_aborted, vec![l]);
}
