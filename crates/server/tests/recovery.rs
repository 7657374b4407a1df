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
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_server::recovery::recover;
use relser_server::{replay, serve, FaultPlan, RunOutcome, ServerConfig};
use relser_wal::{scan, FsyncPolicy, MemStorage, WalRecord, WalWriter};
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
