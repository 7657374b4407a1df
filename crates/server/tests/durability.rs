//! End-to-end durability on a real segment directory: a service logs to
//! [`DirSegmentStore`] files, a crash leaves a torn frame on the newest
//! segment, recovery reads the directory back, and a second service life
//! resumes on the same directory. A resumed log never appends to an old
//! file: it opens a fresh segment and deletes the old ones, so the torn
//! bytes are removed, not buried mid-log.

use relser_core::ids::TxnId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Decision;
use relser_server::recovery::{recover_segments_with_certifier, Certifier, Recovery};
use relser_server::{serve_sharded, RunOutcome, ServerConfig, ShardedReport, TraceEvent};
use relser_wal::{
    Checkpoint, CheckpointEvent, CheckpointPolicy, CommitLog, DirSegmentStore, FsyncPolicy,
    SegmentedWal,
};
use relser_workload::stream::RequestStream;
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;

const SOURCES: [&str; 8] = [
    "r1[x] w1[y]",
    "r2[y] w2[z]",
    "w3[x] r3[z]",
    "r4[z] w4[x]",
    "w5[y] r5[x]",
    "r6[x] w6[z]",
    "r7[y] w7[y]",
    "w8[z] r8[y]",
];

/// One service life over `scheduler` serving `stream`, logging to `wal`.
fn serve(
    txns: &TxnSet,
    stream: &RequestStream,
    scheduler: RsgSgt,
    wal: &mut SegmentedWal,
) -> ShardedReport {
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let report = serve_sharded(
        txns,
        stream,
        vec![Box::new(scheduler)],
        &cfg,
        &[],
        vec![wal as &mut dyn CommitLog],
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    report
}

/// Reads the directory's segments back and recovers them.
fn recover_dir(txns: &TxnSet, spec: &AtomicitySpec, dir: &Path) -> (Vec<u64>, Recovery, RsgSgt) {
    let listed = DirSegmentStore::list(dir).unwrap();
    let segments: Vec<(u64, Vec<u8>)> = listed
        .iter()
        .map(|(seq, path)| (*seq, std::fs::read(path).unwrap()))
        .collect();
    let mut fresh = RsgSgt::new(txns, spec);
    let (_, rec) =
        recover_segments_with_certifier(txns, spec, &mut fresh, &segments, Certifier::VClock)
            .expect("the directory recovers");
    let seqs = listed.iter().map(|&(seq, _)| seq).collect();
    (seqs, rec, fresh)
}

/// The head a resumed log opens with: the recovered committed list and
/// the Begin/Grant/Commit events of the commits the log replayed (an
/// aborted incarnation contributes nothing).
fn head_of(rec: &Recovery) -> Checkpoint {
    let committed: HashSet<TxnId> = rec.committed.iter().copied().collect();
    let mut events = Vec::new();
    for ev in &rec.trace {
        match *ev {
            TraceEvent::Begin(t) => events.push(CheckpointEvent::Begin(t)),
            TraceEvent::Decision(op, Decision::Granted) => events.push(CheckpointEvent::Grant(op)),
            TraceEvent::Commit(t) => events.push(CheckpointEvent::Commit(t)),
            TraceEvent::Abort(t) => events.retain(|e| match e {
                CheckpointEvent::Begin(u) | CheckpointEvent::Commit(u) => *u != t,
                CheckpointEvent::Grant(op) => op.txn != t,
            }),
            _ => {}
        }
    }
    events.retain(|e| match e {
        CheckpointEvent::Begin(t) | CheckpointEvent::Commit(t) => committed.contains(t),
        CheckpointEvent::Grant(op) => committed.contains(&op.txn),
    });
    Checkpoint {
        shard: 0,
        committed: rec.committed.clone(),
        events,
        sessions: rec.sessions.clone(),
    }
}

/// Two service lives on one directory with a torn frame between them:
/// every commit of both lives recovers exactly once, the torn segment is
/// deleted by the resume, and a life under a small checkpoint policy
/// leaves only its newest segment on disk.
#[test]
fn a_segment_directory_survives_a_torn_tail_and_a_second_life() {
    let txns = TxnSet::parse(&SOURCES).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let dir = std::env::temp_dir().join(format!("relser-segdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Life 1 serves the first half of the universe and rotates often.
    let first_half = TxnSet::parse(&SOURCES[..4]).unwrap();
    let mut wal = SegmentedWal::new(
        Box::new(DirSegmentStore::new(&dir).unwrap()),
        FsyncPolicy::Always,
        CheckpointPolicy {
            every_records: 4,
            every_bytes: u64::MAX,
        },
    )
    .unwrap();
    let life1 = serve(
        &txns,
        &RequestStream::in_order(&first_half),
        RsgSgt::new(&txns, &spec),
        &mut wal,
    );
    assert_eq!(life1.committed.len(), 4);
    let checkpoints = life1.shards[0].checkpoints;
    assert!(checkpoints >= 1, "a cadence of 4 records must rotate");
    drop(wal);
    let listed = DirSegmentStore::list(&dir).unwrap();
    assert_eq!(
        listed.iter().map(|&(seq, _)| seq).collect::<Vec<_>>(),
        vec![checkpoints],
        "only the newest segment is left on disk"
    );

    // The crash leaves a torn half-frame on the newest segment.
    let torn = &listed[0].1;
    let mut f = std::fs::OpenOptions::new().append(true).open(torn).unwrap();
    f.write_all(&[0x17, 0x00, 0x00, 0x00, 0xAB]).unwrap();
    f.sync_data().unwrap();
    drop(f);

    let (prior, rec, scheduler) = recover_dir(&txns, &spec, &dir);
    assert!(rec.truncation.is_some(), "the torn tail must be detected");
    assert_eq!(rec.committed, life1.committed);

    // Life 2 resumes on the same directory and serves the second half.
    let next_seq = prior.last().unwrap() + 1;
    let mut wal = SegmentedWal::resume(
        Box::new(DirSegmentStore::new(&dir).unwrap()),
        FsyncPolicy::Always,
        CheckpointPolicy::never(),
        head_of(&rec),
        next_seq,
        &prior,
    )
    .unwrap();
    assert!(!torn.exists(), "the resume deleted the torn segment");
    let stream = RequestStream::in_order(&txns);
    for _ in 0..first_half.len() {
        stream.next();
    }
    let life2 = serve(&txns, &stream, scheduler, &mut wal);
    assert_eq!(life2.committed.len(), 4);
    drop(wal);

    let (seqs, rec, _) = recover_dir(&txns, &spec, &dir);
    assert_eq!(seqs, vec![next_seq]);
    assert_eq!(rec.truncation, None);
    let mut both = life1.committed.clone();
    both.extend(&life2.committed);
    assert_eq!(rec.committed, both, "each commit of both lives, once");

    std::fs::remove_dir_all(&dir).ok();
}
