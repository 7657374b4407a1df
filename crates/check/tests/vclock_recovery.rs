//! Recovery re-certification regression (ISSUE satellite 3).
//!
//! `server::recovery` step 4 now re-certifies the committed history with
//! the linear-time vector-clock certifier by default, keeping the
//! Theorem 1 `Rsg::build` path selectable via
//! [`Certifier::Theorem1Rsg`]. The certifier choice must be an
//! *invisible implementation detail*: at every byte-level crash point,
//! under every single-bit log corruption, across segment rotation, and
//! across sharded logs cut at independent instants, the two paths must
//! return **identical** results — the same `Recovery` struct field by
//! field (`Recovery` derives `Eq` for exactly this), or the same typed
//! error.

use relser_core::paper::{Figure1, Figure2};
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Scheduler, SchedulerKind};
use relser_server::recovery::{
    recover, recover_segments_with_certifier, recover_sharded_segments_with_certifier, Certifier,
    Recovery, RecoveryError,
};
use relser_server::{serve, serve_sharded, FaultPlan, RunOutcome, ServerConfig};
use relser_wal::{
    CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, MemStorage, SegmentedWal, WalWriter,
};
use relser_workload::stream::RequestStream;
use relser_workload::{random_spec, shard_local_txns, RandomConfig};

/// Recovers `bytes` once per certifier (fresh scheduler each) and
/// returns both results for comparison.
fn recover_both(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    bytes: &[u8],
) -> (
    Result<Recovery, RecoveryError>,
    Result<Recovery, RecoveryError>,
) {
    let mut a = RsgSgt::new(txns, spec);
    let mut b = RsgSgt::new(txns, spec);
    (
        recover(txns, spec, &mut a, bytes, Certifier::VClock),
        recover(txns, spec, &mut b, bytes, Certifier::Theorem1Rsg),
    )
}

/// One clean-or-crashed durable run's WAL bytes.
fn wal_bytes(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    seed: u64,
    faults: &FaultPlan,
) -> Vec<u8> {
    let (mem, handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
    let cfg = ServerConfig {
        workers: 3,
        record_trace: true,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(txns, seed);
    serve(
        txns,
        &stream,
        kind.make(txns, spec),
        &cfg,
        faults,
        Some(&mut wal),
    );
    handle.bytes()
}

/// Every byte-level crash point of clean and crashed runs: identical
/// recoveries under both certifiers, and the vclock path actually
/// recertifies non-trivial histories (some cut recovers ≥ 1 commit).
#[test]
fn certifier_choice_is_invisible_at_every_crash_point() {
    let fig = Figure1::new();
    let mut nontrivial = 0u64;
    for (seed, crash) in [(1u64, None), (2, None), (1, Some(7u64)), (2, Some(12))] {
        let faults = FaultPlan {
            crash_at_command: crash,
            ..FaultPlan::default()
        };
        let bytes = wal_bytes(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, seed, &faults);
        assert!(!bytes.is_empty());
        for cut in 0..=bytes.len() {
            let (vc, thm) = recover_both(&fig.txns, &fig.spec, &bytes[..cut]);
            assert_eq!(vc, thm, "seed {seed} crash {crash:?} cut {cut}");
            if vc.as_ref().is_ok_and(|r| !r.certified.is_empty()) {
                nontrivial += 1;
            }
        }
    }
    assert!(
        nontrivial > 0,
        "sweep never recertified a committed history"
    );
}

/// Every single-bit corruption of a full log (both a low and a high bit
/// per byte): the scan/recovery outcome — usually a CRC-truncated
/// prefix — is identical under both certifiers.
#[test]
fn certifier_choice_is_invisible_under_bit_flips() {
    let fig = Figure2::new();
    let bytes = wal_bytes(
        &fig.txns,
        &fig.spec,
        SchedulerKind::RsgSgt,
        3,
        &FaultPlan::default(),
    );
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut flipped = bytes.clone();
            flipped[i] ^= mask;
            let (vc, thm) = recover_both(&fig.txns, &fig.spec, &flipped);
            assert_eq!(vc, thm, "bit flip at byte {i} mask {mask:#x}");
        }
    }
}

/// Segment-rotated logs (checkpoint seeding + suffix replay): the chosen
/// segment and the full `Recovery` agree across certifiers.
#[test]
fn certifier_choice_is_invisible_across_segment_rotation() {
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
        let report = serve(
            &fig.txns,
            &stream,
            SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec),
            &cfg,
            &FaultPlan::default(),
            Some(&mut wal),
        );
        assert_eq!(report.outcome, RunOutcome::Completed, "seed {seed}");
        let segments = handle.synced_segments();
        let mut a = RsgSgt::new(&fig.txns, &fig.spec);
        let mut b = RsgSgt::new(&fig.txns, &fig.spec);
        let vc = recover_segments_with_certifier(
            &fig.txns,
            &fig.spec,
            &mut a,
            &segments,
            Certifier::VClock,
        );
        let thm = recover_segments_with_certifier(
            &fig.txns,
            &fig.spec,
            &mut b,
            &segments,
            Certifier::Theorem1Rsg,
        );
        assert_eq!(vc, thm, "seed {seed}");
        let (_, rec) = vc.expect("clean segmented log recovers");
        assert!(rec.replayed < rec.records, "seed {seed}: seeding happened");
    }
}

/// Sharded logs of a shard-local universe cut at independent byte offsets
/// (shards crash at different instants): the merged recovery is identical
/// under both certifiers.
#[test]
fn certifier_choice_is_invisible_for_sharded_recovery() {
    let cfg_wl = RandomConfig {
        txns: 8,
        ops_per_txn: (1, 4),
        objects: 6,
        theta: 0.6,
        write_ratio: 0.5,
    };
    let shards = 3usize;
    let txns = shard_local_txns(&cfg_wl, &ShardMap::new(shards as u32), 41);
    let spec = random_spec(&txns, 0.5, 42);
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let mut handles = Vec::new();
    let mut wals: Vec<WalWriter> = (0..shards)
        .map(|_| {
            let (mem, handle) = MemStorage::new();
            handles.push(handle);
            WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap()
        })
        .collect();
    let stream = RequestStream::shuffled(&txns, 7);
    let schedulers: Vec<Box<dyn Scheduler + Send + '_>> = (0..shards)
        .map(|_| Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + Send + '_>)
        .collect();
    let report = serve_sharded(
        &txns,
        &stream,
        schedulers,
        &cfg,
        &[],
        wals.iter_mut()
            .map(|w| w as &mut dyn CommitLog)
            .collect::<Vec<_>>(),
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    let full: Vec<Vec<u8>> = handles.iter().map(|h| h.bytes()).collect();

    // Full logs plus a grid of independent per-shard cuts.
    let mut cut_grid: Vec<Vec<usize>> = vec![full.iter().map(Vec::len).collect()];
    for seed in [3usize, 11, 29, 57, 91] {
        cut_grid.push(
            full.iter()
                .enumerate()
                .map(|(s, b)| (seed * (s + 13) * 7919) % (b.len() + 1))
                .collect(),
        );
    }
    let mut committed_seen = false;
    for cuts in &cut_grid {
        // Each flat shard log is a one-segment stream.
        let logs: Vec<Vec<(u64, Vec<u8>)>> = full
            .iter()
            .zip(cuts)
            .map(|(b, &c)| vec![(0, b[..c].to_vec())])
            .collect();
        let vc = recover_sharded_segments_with_certifier(
            &txns,
            &spec,
            |_| Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + '_>,
            &logs,
            Certifier::VClock,
        );
        let thm = recover_sharded_segments_with_certifier(
            &txns,
            &spec,
            |_| Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + '_>,
            &logs,
            Certifier::Theorem1Rsg,
        );
        assert_eq!(vc, thm, "cuts {cuts:?}");
        if let Ok(rec) = vc {
            committed_seen |= !rec.committed.is_empty();
        }
    }
    assert!(committed_seen, "no cut recovered any commit");
}
