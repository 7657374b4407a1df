//! End-to-end durability on a real segment directory, through the
//! entry points that take a caller-owned log (`serve_sharded` and
//! `serve_net`, each on a log `recover_and_resume` opened) and the
//! supervised one that opens its store itself (`serve_net_supervised_in`):
//! a service logs to [`DirSegmentStore`] files, a crash leaves a torn
//! frame on the newest segment, recovery reads the directory back, and a
//! second service life opens the same directory. A resumed log never
//! appends to an old file: it opens a fresh segment and deletes the old
//! ones, so the torn bytes are removed, not buried mid-log. Both lives
//! rotate every four records, so the second life's checkpoints must
//! carry the first life's commits: its core seeds itself from the
//! resumed log's head.

use relser_core::ids::TxnId;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_net::{
    drive_resilient, serve_net, serve_net_supervised_in, ChaosPlan, NetConfig, ResilientConfig,
    ResilientStats, SuperviseNetConfig,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Scheduler;
use relser_server::recovery::{recover_segments_with_certifier, Certifier, Recovery};
use relser_server::{recover_and_resume, serve_sharded, FaultPlan, RunOutcome, ServerConfig};
use relser_wal::{CheckpointPolicy, DirSegmentStore, ReadableSegmentStore, SegmentedWal};
use relser_workload::stream::RequestStream;
use std::io::Write;
use std::net::SocketAddr;
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

/// One service life on the segment directory `dir` serving `stream`,
/// rotating every four records; returns the commits its core reports in
/// core order (those the log opened with, then its own) and the
/// checkpoints it cut.
type Life = fn(&TxnSet, &AtomicitySpec, &RequestStream, &Path) -> (Vec<TxnId>, u64);

/// Opens `dir` as shard 0's log, written or empty, with the scheduler
/// its recovery replayed.
fn open_dir<'a>(
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    dir: &Path,
) -> (SegmentedWal, Box<dyn Scheduler + Send + 'a>) {
    let store = DirSegmentStore::new(dir).unwrap();
    let fresh = Box::new(RsgSgt::new(txns, spec));
    let (wal, scheduler, _) =
        recover_and_resume(store, fresh, txns, spec, 0, EVERY_FOUR).expect("the directory opens");
    (wal, scheduler)
}

/// Every commit the client was acknowledged is one its server reports.
fn assert_acked_reported(stats: &ResilientStats, reported: &[TxnId]) {
    for (t, _) in &stats.committed {
        assert!(reported.contains(t), "acked {t:?} is reported");
    }
}

fn drive(addr: SocketAddr, txns: &TxnSet, stream: &RequestStream) -> ResilientStats {
    let cfg = ResilientConfig::default();
    drive_resilient(addr, txns, stream, &cfg, &ChaosPlan::quiet())
}

fn life_on_serve_sharded(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    stream: &RequestStream,
    dir: &Path,
) -> (Vec<TxnId>, u64) {
    let (mut wal, scheduler) = open_dir(txns, spec, dir);
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let report = serve_sharded(txns, stream, vec![scheduler], &cfg, &[], vec![&mut wal]);
    assert_eq!(report.outcome, RunOutcome::Completed);
    (report.committed, wal.segment_stats().checkpoints)
}

fn life_on_serve_net(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    stream: &RequestStream,
    dir: &Path,
) -> (Vec<TxnId>, u64) {
    let (mut wal, scheduler) = open_dir(txns, spec, dir);
    let (report, stats) = serve_net(
        txns,
        scheduler,
        &NetConfig::default(),
        &FaultPlan::default(),
        Some(&mut wal),
        |addr| drive(addr, txns, stream),
    )
    .expect("serve_net");
    assert_acked_reported(&stats, &report.committed);
    (report.committed, wal.segment_stats().checkpoints)
}

/// The supervised entry opens the directory itself, in its supervisor.
fn life_on_serve_net_supervised(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    stream: &RequestStream,
    dir: &Path,
) -> (Vec<TxnId>, u64) {
    let sup = SuperviseNetConfig {
        shards: 1,
        ckpt: EVERY_FOUR,
    };
    let (report, stats) = serve_net_supervised_in(
        txns,
        spec,
        |_| Box::new(RsgSgt::new(txns, spec)) as Box<dyn Scheduler + Send>,
        &NetConfig::default(),
        &sup,
        &[],
        &[DirSegmentStore::new(dir).unwrap()],
        |addr| drive(addr, txns, stream),
    )
    .expect("serve_net_supervised_in");
    let [run] = &report.runs[..] else {
        panic!("one shard, one run");
    };
    assert_eq!((run.restarts, run.gave_up), (0, false));
    assert_acked_reported(&stats, &run.output.committed);
    (run.output.committed.clone(), run.output.checkpoints)
}

/// Reads the directory's segments back and recovers them.
fn recover_dir(txns: &TxnSet, spec: &AtomicitySpec, dir: &Path) -> Recovery {
    let segments = DirSegmentStore::new(dir).unwrap().read_segments().unwrap();
    let mut fresh = RsgSgt::new(txns, spec);
    let (_, rec) =
        recover_segments_with_certifier(txns, spec, &mut fresh, &segments, Certifier::VClock)
            .expect("the directory recovers");
    rec
}

/// Two service lives of `life` on one directory with a torn frame
/// between them: every commit of both lives recovers exactly once, the
/// torn segment is deleted when life 2 opens the directory, and each
/// life leaves only its newest segment on disk.
fn two_lives_on_one_directory(life: Life, name: &str) {
    let txns = TxnSet::parse(&SOURCES).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let dir = std::env::temp_dir().join(format!("relser-segdir-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Life 1 serves the first half of the universe.
    let first_half = TxnSet::parse(&SOURCES[..4]).unwrap();
    let (life1, checkpoints) = life(&txns, &spec, &RequestStream::in_order(&first_half), &dir);
    assert_eq!(life1.len(), 4);
    assert!(checkpoints >= 1, "a cadence of 4 records must rotate");
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

    let rec = recover_dir(&txns, &spec, &dir);
    assert!(rec.truncation.is_some(), "the torn tail must be detected");
    assert_eq!(rec.committed, life1);

    // Life 2 opens the same directory, serves the second half and
    // rotates too: its checkpoints must still carry life 1's commits.
    let stream = RequestStream::in_order(&txns);
    for _ in 0..first_half.len() {
        stream.next();
    }
    let (reported, checkpoints) = life(&txns, &spec, &stream, &dir);
    assert!(
        !torn.exists(),
        "opening the directory deleted the torn segment"
    );
    assert!(checkpoints >= 1, "life 2 must rotate");
    let mut both = life1;
    both.extend_from_slice(&reported[reported.len() - 4..]);
    assert_eq!(DirSegmentStore::list(&dir).unwrap().len(), 1);

    let rec = recover_dir(&txns, &spec, &dir);
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

#[test]
fn a_segment_directory_survives_a_torn_tail_and_a_second_life_on_serve_net_supervised_in() {
    two_lives_on_one_directory(life_on_serve_net_supervised, "supervised");
}
