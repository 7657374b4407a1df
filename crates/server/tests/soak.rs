//! Bounded-memory soak: a long run must not let the durable log grow
//! with history length. The log is reclaimed by checkpoint/segment
//! rotation — the bytes retained on "disk" are bounded by the checkpoint
//! cadence plus live state, not by the number of records ever appended;
//! and recovery replays only the post-checkpoint suffix. (The
//! scheduler's side needs no soak: its engine is sized by the closed
//! universe at construction and never grows past it.)

use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::SchedulerKind;
use relser_server::recovery::{recover_segments_with_certifier, Certifier};
use relser_server::{serve_sharded, RunOutcome, ServerConfig};
use relser_wal::{CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, SegmentedWal};
use relser_workload::stream::RequestStream;
use relser_workload::{random_spec, random_txns, RandomConfig};

/// Concurrent durable soak through the full server: the segmented log
/// must rotate repeatedly, retain bytes bounded by the cadence (not by
/// everything ever appended), and recover by replaying only the
/// post-checkpoint suffix.
#[test]
fn wal_bytes_stay_bounded_and_recovery_replays_only_the_suffix() {
    let cfg = RandomConfig {
        txns: 24,
        ops_per_txn: (2, 4),
        objects: 6,
        theta: 0.4,
        write_ratio: 0.4,
    };
    let txns = random_txns(&cfg, 21);
    let spec = random_spec(&txns, 0.5, 22);

    let every_records = 16u64;
    let (store, handle) = MemSegmentStore::new();
    let mut wal = SegmentedWal::new(
        Box::new(store),
        FsyncPolicy::Always,
        CheckpointPolicy {
            every_records,
            every_bytes: u64::MAX,
        },
    )
    .unwrap();
    let server_cfg = ServerConfig {
        workers: 4,
        record_trace: true,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(&txns, 23);
    let scheduler = RsgSgt::new(&txns, &spec);
    let report = serve_sharded(
        &txns,
        &stream,
        vec![Box::new(scheduler)],
        &server_cfg,
        &[],
        vec![&mut wal],
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert!(
        report.shards[0].checkpoints >= 2,
        "soak must rotate repeatedly: {} checkpoints",
        report.shards[0].checkpoints
    );

    let appended = wal.stats().bytes;
    let retained = handle.retained_bytes() as u64;
    assert!(
        handle.deleted() >= 2,
        "rotation must delete covered segments: {} deleted",
        handle.deleted()
    );
    assert!(
        retained < appended / 2,
        "retained {retained} bytes of {appended} appended — log not reclaimed"
    );

    // Recovery seeds from the newest checkpoint and replays only the
    // records cut after it — bounded by the cadence, not the history.
    let segments = handle.synced_segments();
    let mut fresh = SchedulerKind::RsgSgt.make(&txns, &spec);
    let (_, rec) =
        recover_segments_with_certifier(&txns, &spec, &mut *fresh, &segments, Certifier::VClock)
            .expect("recovers");
    assert!(
        rec.replayed < rec.records,
        "recovery must seed from a checkpoint, not replay the history"
    );
    assert!(
        (rec.replayed as u64) <= every_records + 1,
        "replayed {} records, cadence {every_records}",
        rec.replayed
    );
    assert_eq!(
        rec.committed, report.committed,
        "no acknowledged commit lost"
    );
}
