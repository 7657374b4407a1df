//! Bounded-memory soak: a long run must not let *either* side of the
//! state grow with history length.
//!
//! * The scheduler's RSG arena is reclaimed by compaction — after many
//!   transactions retire, the arena holds live nodes only, not every
//!   node ever admitted.
//! * The durable log is reclaimed by checkpoint/segment rotation — the
//!   bytes retained on "disk" are bounded by the checkpoint cadence plus
//!   live state, not by the number of records ever appended; and
//!   recovery replays only the post-checkpoint suffix.

use relser_core::incremental::CompactionPolicy;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Decision, Scheduler, SchedulerKind};
use relser_server::recovery::{recover_segments_with_certifier, Certifier};
use relser_server::{serve_sharded, RunOutcome, ServerConfig};
use relser_wal::{CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, SegmentedWal};
use relser_workload::stream::RequestStream;
use relser_workload::{random_spec, random_txns, RandomConfig};

/// Serial soak through the scheduler alone: every committed transaction
/// retires immediately (no live predecessors), so aggressive compaction
/// must keep the arena at live size — a handful of nodes — while the
/// history grows to hundreds of operations.
#[test]
fn arena_stays_bounded_by_live_state_under_compaction() {
    let cfg = RandomConfig {
        txns: 120,
        ops_per_txn: (2, 5),
        objects: 8,
        theta: 0.4,
        write_ratio: 0.4,
    };
    let txns = random_txns(&cfg, 11);
    let spec = random_spec(&txns, 0.5, 12);
    let total_ops: usize = txns.txn_ids().map(|t| txns.txn(t).len()).sum();
    assert!(total_ops > 200, "soak must be long: {total_ops} ops");

    // The arena starts holding the whole universe's I-skeleton; what a
    // bounded-memory soak must show is that it *shrinks* as transactions
    // retire — monotonically down to the live window — rather than
    // keeping every node ever admitted.
    let mut s = RsgSgt::with_policy(&txns, &spec, CompactionPolicy::aggressive());
    let mut prev_nodes = s.engine().dag_node_count();
    assert_eq!(prev_nodes, total_ops, "fresh arena holds the I-skeleton");
    for t in txns.txn_ids() {
        s.begin(t);
        for op in txns.txn(t).op_ids() {
            assert_eq!(s.request(op), Decision::Granted, "serial is always RSR");
        }
        s.commit(t);
        let nodes = s.engine().dag_node_count();
        assert!(
            nodes <= prev_nodes,
            "arena grew across retirement: {prev_nodes} -> {nodes}"
        );
        prev_nodes = nodes;
    }
    assert!(
        s.engine().compactions() >= 2,
        "aggressive policy must compact repeatedly: {}",
        s.engine().compactions()
    );
    // Serial execution retires everything: the final arena is the live
    // window (empty, modulo the last not-yet-compacted sweep) — far
    // below the full history.
    let max_txn_ops = txns.txn_ids().map(|t| txns.txn(t).len()).max().unwrap();
    let live_bound = 2 * (max_txn_ops + 1) + 2;
    assert!(
        s.engine().dag_node_count() <= live_bound,
        "final arena {} exceeds live bound {live_bound} (history {total_ops})",
        s.engine().dag_node_count()
    );
}

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
    let scheduler = RsgSgt::with_policy(&txns, &spec, CompactionPolicy::aggressive());
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
