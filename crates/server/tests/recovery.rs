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
use relser_protocols::{Decision, Scheduler};
use relser_server::recovery::{
    recover, recover_segments_with_certifier, recover_sharded_segments_with_certifier, Certifier,
    Recovery, RecoveryError, ShardedRecovery,
};
use relser_server::{replay, serve, FaultPlan, RunOutcome, ServerConfig};
use relser_wal::{scan, FsyncPolicy, MemStorage, WalRecord, WalWriter, MAGIC};
use relser_workload::stream::RequestStream;
use relser_workload::{random_spec, random_txns, RandomConfig};

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
            // A `WalWriter` never checkpoints.
            WalRecord::Checkpoint(_) => unreachable!("unsegmented log"),
        }
    }
    (committed, log)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// For every crash index k, `recover(log[..k])` equals the fresh
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
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let cfg = ServerConfig {
            workers,
            record_trace: true,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, arrival_seed);
        let scheduler = RsgSgt::new(&txns, &spec);
        let report = serve(&txns, &stream, Box::new(scheduler), &cfg, &FaultPlan::default(), Some(&mut wal));
        prop_assert_eq!(&report.outcome, &RunOutcome::Completed);

        let bytes = handle.bytes();
        let full = scan(&bytes);
        prop_assert!(full.truncation.is_none());

        for k in 0..=full.records.len() {
            let cut = full.boundaries[k];
            let mut fresh = RsgSgt::new(&txns, &spec);
            let rec = recover(&txns, &spec, &mut fresh, &bytes[..cut])
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
        let rec = recover(&txns, &spec, &mut fresh, &bytes).unwrap();
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
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, arrival_seed);
        let scheduler = RsgSgt::new(&txns, &spec);
        let report = serve(&txns, &stream, Box::new(scheduler), &cfg, &FaultPlan::default(), Some(&mut wal));
        prop_assert_eq!(&report.outcome, &RunOutcome::Completed);

        let bytes = handle.bytes();
        let mut prev = 0usize;
        for cut in 0..=bytes.len() {
            let mut fresh = RsgSgt::new(&txns, &spec);
            let rec = recover(&txns, &spec, &mut fresh, &bytes[..cut])
                .expect("byte cuts never make recovery fail");
            prop_assert!(rec.committed.len() >= prev, "cut {}", cut);
            prev = rec.committed.len();
        }
        prop_assert_eq!(prev, report.committed.len());
    }
}

/// Grants every request. Replay then never diverges, so a forged log
/// reaches step 4; RSG-SGT would refuse the cycle-closing grant first.
struct GrantAll;

impl Scheduler for GrantAll {
    fn name(&self) -> &'static str {
        "grant-all"
    }
    fn begin(&mut self, _: TxnId) {}
    fn request(&mut self, _: OpId) -> Decision {
        Decision::Granted
    }
    fn commit(&mut self, _: TxnId) {}
    fn abort(&mut self, _: TxnId) {}
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

/// Sharded recovery of the lost-update log on `x`'s owner, every other
/// transaction that shard owns left out, and every transaction another
/// shard owns committed cleanly there.
fn recover_sharded_lost_update(
    shards: u32,
    commit_t2: bool,
) -> Result<ShardedRecovery, RecoveryError> {
    let (txns, spec) = lost_update_universe();
    let map = ShardMap::new(shards);
    let home = map.owner_of_txn(&txns, TxnId(0)).unwrap();
    let streams: Vec<Vec<(u64, Vec<u8>)>> = (0..shards)
        .map(|s| {
            let records = if s == home {
                lost_update_log(commit_t2)
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
        |_| Box::new(GrantAll),
        &streams,
        Certifier::VClock,
    )
}

/// The log-shaped entry points, one after the other, on one log.
fn recover_both_ways(records: &[WalRecord]) -> [Result<Recovery, RecoveryError>; 2] {
    let (txns, spec) = lost_update_universe();
    let bytes = encode(records);
    let flat = recover(&txns, &spec, &mut GrantAll, &bytes);
    let segmented = recover_segments_with_certifier(
        &txns,
        &spec,
        &mut GrantAll,
        &[(0, bytes)],
        Certifier::VClock,
    )
    .map(|(_, rec)| rec);
    [flat, segmented]
}

/// Step 4 refuses a committed history whose RSG has a cycle, whichever
/// entry point recovers it.
#[test]
fn every_recovery_refuses_a_committed_lost_update() {
    for got in recover_both_ways(&lost_update_log(true)) {
        assert_eq!(got, Err(RecoveryError::NotRelativelySerializable));
    }
    for shards in [1, 2] {
        assert_eq!(
            recover_sharded_lost_update(shards, true),
            Err(RecoveryError::NotRelativelySerializable),
            "{shards} shard(s)"
        );
    }
}

/// The same log with the cycle-closing transaction uncommitted recovers:
/// `T2` is rolled back, and the history left is `T1` alone.
#[test]
fn an_uncommitted_cycle_closer_is_rolled_back_not_refused() {
    for got in recover_both_ways(&lost_update_log(false)) {
        let rec = got.unwrap();
        assert_eq!(rec.committed, vec![TxnId(0)]);
        assert_eq!(rec.live_aborted, vec![TxnId(1)]);
    }
    for shards in [1, 2] {
        let rec = recover_sharded_lost_update(shards, false).unwrap();
        assert!(rec.committed.contains(&TxnId(0)), "{shards} shard(s)");
        assert!(!rec.committed.contains(&TxnId(1)), "{shards} shard(s)");
        assert!(
            rec.shards.iter().any(|s| s.live_aborted == vec![TxnId(1)]),
            "{shards} shard(s)"
        );
    }
}
