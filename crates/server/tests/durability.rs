//! End-to-end durability regression for the crash-adjacent path the
//! unit tests cannot cover alone: the **reopen-after-recovery path** —
//! resuming a file-backed log whose tail was torn must truncate at the
//! scanner's `valid_bytes` *before* appending, or the torn bytes corrupt
//! the first new record.

use relser_core::ids::TxnId;
use relser_core::paper::Figure1;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_server::recovery::recover;
use relser_server::ServerConfig;
use relser_wal::{scan, FileStorage, FsyncPolicy, WalRecord, WalWriter};
use relser_workload::stream::RequestStream;

/// Satellite regression: reopening a torn log must truncate the file at
/// recovery's `valid_bytes` before resuming appends. Without the
/// truncation, the torn tail sits between the old records and the first
/// new one, and everything appended after the reopen is unreadable.
#[test]
fn reopen_truncates_the_torn_tail_before_resuming() {
    let fig = Figure1::new();
    let dir = std::env::temp_dir().join(format!("relser-reopen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");

    // Epoch 1: a durable run against the file.
    let storage = FileStorage::create(&path).unwrap();
    let mut wal = WalWriter::new(Box::new(storage), FsyncPolicy::Always).unwrap();
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(&fig.txns, 5);
    let scheduler = RsgSgt::new(&fig.txns, &fig.spec);
    let report = relser_server::serve_sharded(
        &fig.txns,
        &stream,
        vec![Box::new(scheduler)],
        &cfg,
        &[],
        vec![&mut wal],
    );
    assert!(!report.committed.is_empty());

    // The crash leaves a torn half-record on the tail.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&[0x17, 0x00, 0x00, 0x00, 0xAB]).unwrap();
    f.sync_data().unwrap();
    drop(f);

    // Recovery finds the valid prefix; the reopen path truncates there.
    let bytes = std::fs::read(&path).unwrap();
    let mut fresh = RsgSgt::new(&fig.txns, &fig.spec);
    let rec = recover(&fig.txns, &fig.spec, &mut fresh, &bytes).expect("recovers");
    assert!(rec.truncation.is_some(), "the torn tail must be detected");
    assert_eq!(rec.committed, report.committed);

    // Epoch 2: resume appending after the truncation.
    let storage = FileStorage::reopen(&path, rec.valid_bytes as u64).unwrap();
    let mut wal = WalWriter::resume(Box::new(storage), FsyncPolicy::Always);
    wal.append(&WalRecord::Begin(TxnId(1))).unwrap();
    wal.append(&WalRecord::Abort(TxnId(1))).unwrap();
    // Outside the core the caller ends the batch: one write, one barrier.
    wal.batch_end().unwrap();

    // Every record — old and new — must scan back cleanly.
    let reread = std::fs::read(&path).unwrap();
    let scanned = scan(&reread);
    assert!(
        scanned.truncation.is_none(),
        "torn tail survived the reopen: {:?}",
        scanned.truncation
    );
    assert_eq!(scanned.records.len(), rec.records + 2);
    assert_eq!(
        scanned.records.last(),
        Some(&WalRecord::Abort(TxnId(1))),
        "appends after reopen are readable"
    );

    std::fs::remove_dir_all(&dir).ok();
}
