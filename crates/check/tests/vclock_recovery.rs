//! Recovery re-certification: the Theorem 1 cross-check, in test code.
//!
//! `server::recovery` step 4 re-certifies the committed history with the
//! linear-time vector-clock certifier, and with nothing else. This suite
//! keeps the explicit Theorem 1 test beside it: at every byte-level crash
//! point, under every single-bit log corruption, across segment rotation,
//! and across sharded logs cut at independent instants, every recovery
//! must hand back a `history` that `Rsg::build` finds acyclic over
//! `Projection::subset(certified)`. No recovery in these sweeps fails —
//! none did while the two certifiers ran side by side either (a single
//! bit flip never survives the CRC, so it truncates) — so an error here
//! is a regression whatever its type.

use relser_core::ids::{OpId, TxnId};
use relser_core::paper::{Figure1, Figure2};
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Scheduler, SchedulerKind};
use relser_server::recovery::{
    recover_segments_with_certifier, recover_sharded_segments_with_certifier, Certifier,
};
use relser_server::{recover_and_resume, serve_sharded, FaultPlan, RunOutcome, ServerConfig};
use relser_wal::{CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, SegmentedWal};
use relser_workload::stream::RequestStream;
use relser_workload::{random_spec, shard_local_txns, RandomConfig};

/// The Theorem 1 cross-check of one recovered history: `Rsg::build` over
/// the projection onto `certified` finds it acyclic.
fn assert_rsg_acyclic(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    certified: &[TxnId],
    history: &[OpId],
    case: &str,
) {
    if certified.is_empty() {
        assert!(history.is_empty(), "{case}: history without commits");
        return;
    }
    let p = Projection::subset(txns, spec, certified).expect("certified projection");
    let s = p.schedule(history).expect("history is a schedule");
    assert!(
        Rsg::build(&p.txns, &s, &p.spec).is_acyclic(),
        "{case}: recovery certified a history whose RSG has a cycle"
    );
}

/// Recovers one segment's bytes into a fresh scheduler and cross-checks
/// the result; returns whether it certified a non-empty history.
fn recover_and_check(txns: &TxnSet, spec: &AtomicitySpec, bytes: &[u8], case: &str) -> bool {
    let mut fresh = RsgSgt::new(txns, spec);
    let segments = [(0, bytes.to_vec())];
    let (_, rec) =
        recover_segments_with_certifier(txns, spec, &mut fresh, &segments, Certifier::VClock)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
    assert_rsg_acyclic(txns, spec, &rec.certified, &rec.history, case);
    !rec.certified.is_empty()
}

/// One clean-or-crashed durable run's WAL bytes: the one segment of a
/// log that never rotates.
fn wal_bytes(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    seed: u64,
    faults: &FaultPlan,
) -> Vec<u8> {
    let (store, handle) = MemSegmentStore::new();
    let ckpt = CheckpointPolicy::never();
    let mut wal = SegmentedWal::new(Box::new(store), FsyncPolicy::Always, ckpt).unwrap();
    let cfg = ServerConfig {
        workers: 3,
        record_trace: true,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(txns, seed);
    serve_sharded(
        txns,
        &stream,
        vec![kind.make(txns, spec)],
        &cfg,
        std::slice::from_ref(faults),
        vec![&mut wal],
    );
    handle.segments().remove(0).1
}

/// Every byte-level crash point of clean and crashed runs recovers a
/// history `Rsg::build` accepts; some cut recovers ≥ 1 commit, so the
/// check is not vacuous.
#[test]
fn every_crash_point_recovers_a_history_rsg_accepts() {
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
            let case = format!("seed {seed} crash {crash:?} cut {cut}");
            let certified = recover_and_check(&fig.txns, &fig.spec, &bytes[..cut], &case);
            nontrivial += u64::from(certified);
        }
    }
    assert!(
        nontrivial > 0,
        "sweep never recertified a committed history"
    );
}

/// Every single-bit corruption of a full log (both a low and a high bit
/// per byte) recovers a CRC-truncated prefix whose history `Rsg::build`
/// accepts.
#[test]
fn bit_flips_recover_a_history_rsg_accepts() {
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
            let case = format!("bit flip at byte {i} mask {mask:#x}");
            recover_and_check(&fig.txns, &fig.spec, &flipped, &case);
        }
    }
}

/// Segment-rotated logs (checkpoint seeding + suffix replay): the chosen
/// segment recovers a history `Rsg::build` accepts.
#[test]
fn segment_rotation_recovers_a_history_rsg_accepts() {
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
        let segments = handle.synced_segments();
        let mut fresh = RsgSgt::new(&fig.txns, &fig.spec);
        let (_, rec) = recover_segments_with_certifier(
            &fig.txns,
            &fig.spec,
            &mut fresh,
            &segments,
            Certifier::VClock,
        )
        .expect("clean segmented log recovers");
        assert!(rec.replayed < rec.records, "seed {seed}: seeding happened");
        let case = format!("seed {seed}");
        assert_rsg_acyclic(&fig.txns, &fig.spec, &rec.certified, &rec.history, &case);
    }
}

/// Sharded logs of a shard-local universe cut at independent byte offsets
/// (shards crash at different instants): every merged recovery succeeds
/// and its merged history passes `Rsg::build` whole.
#[test]
fn sharded_cuts_recover_a_merged_history_rsg_accepts() {
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
    let stream = RequestStream::shuffled(&txns, 7);
    let (mut wals, mut schedulers, mut handles) = (Vec::new(), Vec::new(), Vec::new());
    for shard in 0..shards as u32 {
        let handle = MemSegmentStore::new().1;
        let fresh = Box::new(RsgSgt::new(&txns, &spec));
        let ckpt = CheckpointPolicy::never();
        let (wal, scheduler, _) =
            recover_and_resume(handle.clone(), fresh, &txns, &spec, shard, ckpt).unwrap();
        wals.push(wal);
        schedulers.push(scheduler);
        handles.push(handle);
    }
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
    let full: Vec<Vec<u8>> = handles.iter().map(|h| h.segments().remove(0).1).collect();

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
        // Each shard's log is one segment.
        let logs: Vec<Vec<(u64, Vec<u8>)>> = full
            .iter()
            .zip(cuts)
            .map(|(b, &c)| vec![(0, b[..c].to_vec())])
            .collect();
        let rec = recover_sharded_segments_with_certifier(
            &txns,
            &spec,
            |_| Box::new(RsgSgt::new(&txns, &spec)) as Box<dyn Scheduler + '_>,
            &logs,
            Certifier::VClock,
        )
        .unwrap_or_else(|e| panic!("cuts {cuts:?}: {e}"));
        let case = format!("cuts {cuts:?}");
        assert_rsg_acyclic(&txns, &spec, &rec.committed, &rec.history, &case);
        committed_seen |= !rec.committed.is_empty();
    }
    assert!(committed_seen, "no cut recovered any commit");
}
