//! End-to-end durability on a real segment directory, through both
//! entry points that take a caller-owned log (`serve_sharded` and
//! `serve_net`): a service logs to [`DirSegmentStore`] files, a crash
//! leaves a torn frame on the newest segment, recovery reads the
//! directory back, and a second service life resumes on the same
//! directory. A resumed log never appends to an old file: it opens a
//! fresh segment and deletes the old ones, so the torn bytes are removed,
//! not buried mid-log. Both lives rotate every four records, so the
//! second life's checkpoints must carry the first life's commits: its
//! core seeds itself from the resumed log's head.

use relser_core::ids::TxnId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_net::{drive_resilient, serve_net, ChaosPlan, NetConfig, ResilientConfig};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Decision;
use relser_server::recovery::{recover_segments_with_certifier, Certifier, Recovery};
use relser_server::{serve_sharded, FaultPlan, RunOutcome, ServerConfig, TraceEvent};
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

/// A checkpoint every four records: both lives rotate.
const EVERY_FOUR: CheckpointPolicy = CheckpointPolicy {
    every_records: 4,
    every_bytes: u64::MAX,
};

/// One service life over `scheduler` serving `stream`, logging to `wal`;
/// returns the commits its core reports in core order: those the log
/// opened with, then its own.
type Life = fn(&TxnSet, &RequestStream, RsgSgt, &mut SegmentedWal) -> Vec<TxnId>;

fn life_on_serve_sharded(
    txns: &TxnSet,
    stream: &RequestStream,
    scheduler: RsgSgt,
    wal: &mut SegmentedWal,
) -> Vec<TxnId> {
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
    report.committed
}

fn life_on_serve_net(
    txns: &TxnSet,
    stream: &RequestStream,
    scheduler: RsgSgt,
    wal: &mut SegmentedWal,
) -> Vec<TxnId> {
    let (report, stats) = serve_net(
        txns,
        Box::new(scheduler),
        &NetConfig::default(),
        &FaultPlan::default(),
        Some(wal),
        |addr| {
            drive_resilient(
                addr,
                txns,
                stream,
                &ResilientConfig::default(),
                &ChaosPlan::quiet(),
            )
        },
    )
    .expect("serve_net");
    for (t, _) in &stats.committed {
        assert!(report.committed.contains(t), "acked {t:?} is reported");
    }
    report.committed
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

/// Two service lives of `life` on one directory with a torn frame
/// between them: every commit of both lives recovers exactly once, the
/// torn segment is deleted by the resume, and each life leaves only its
/// newest segment on disk.
fn two_lives_on_one_directory(life: Life, name: &str) {
    let txns = TxnSet::parse(&SOURCES).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let dir = std::env::temp_dir().join(format!("relser-segdir-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Life 1 serves the first half of the universe.
    let first_half = TxnSet::parse(&SOURCES[..4]).unwrap();
    let mut wal = SegmentedWal::new(
        Box::new(DirSegmentStore::new(&dir).unwrap()),
        FsyncPolicy::Always,
        EVERY_FOUR,
    )
    .unwrap();
    let life1 = life(
        &txns,
        &RequestStream::in_order(&first_half),
        RsgSgt::new(&txns, &spec),
        &mut wal,
    );
    assert_eq!(life1.len(), 4);
    let checkpoints = wal.segment_stats().checkpoints;
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
    assert_eq!(rec.committed, life1);

    // Life 2 resumes on the same directory, serves the second half and
    // rotates too: its checkpoints must still carry life 1's commits.
    let next_seq = prior.last().unwrap() + 1;
    let mut wal = SegmentedWal::resume(
        Box::new(DirSegmentStore::new(&dir).unwrap()),
        FsyncPolicy::Always,
        EVERY_FOUR,
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
    let reported = life(&txns, &stream, scheduler, &mut wal);
    let mut both = life1;
    both.extend_from_slice(&reported[reported.len() - 4..]);
    let stats = wal.segment_stats();
    assert!(stats.checkpoints >= 1, "life 2 must rotate");
    drop(wal);

    let (seqs, rec, _) = recover_dir(&txns, &spec, &dir);
    assert_eq!(seqs, vec![stats.current_seq]);
    assert_eq!(rec.truncation, None);
    assert_eq!(rec.committed, both, "each commit of both lives, once");
    assert_eq!(
        reported, both,
        "the core reports the log's commits, then its own"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_segment_directory_survives_a_torn_tail_and_a_second_life_on_serve_sharded() {
    two_lives_on_one_directory(life_on_serve_sharded, "sharded");
}

#[test]
fn a_segment_directory_survives_a_torn_tail_and_a_second_life_on_serve_net() {
    two_lives_on_one_directory(life_on_serve_net, "net");
}
