//! Durability end to end: the concurrent service writes its commit log
//! to a real file, the process "crashes" (the log is cut mid-record, the
//! way a torn write leaves it), and recovery rebuilds the scheduler from
//! the surviving bytes — truncating the torn tail, replaying the
//! acknowledged prefix, and re-certifying the committed history against
//! the paper's Theorem 1 oracle before accepting it.
//!
//! ```text
//! cargo run --release --example wal_demo            # full demo
//! cargo run --release --example wal_demo -- --smoke # fast CI variant
//! ```

use relative_serializability::protocols::rsg_sgt::RsgSgt;
use relative_serializability::server::recovery::recover;
use relative_serializability::server::{serve, FaultPlan, RunOutcome, ServerConfig};
use relative_serializability::wal::{scan, FileStorage, FsyncPolicy, WalWriter};
use relative_serializability::workload::banking::{banking, BankingConfig};
use relative_serializability::workload::stream::RequestStream;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let cfg = BankingConfig {
        families: 2,
        accounts_per_family: 4,
        customers_per_family: if smoke { 3 } else { 8 },
        transfers_per_customer: 2,
        credit_audits: true,
        bank_audit: false,
    };
    let sc = banking(&cfg, 11);
    println!(
        "banking workload: {} transactions, {} operations",
        sc.txns.len(),
        sc.txns.total_ops()
    );

    // Phase 1: a durable run against a real file: one write and one fsync
    // per drained batch, every ack released only after its batch's fsync.
    let path = std::env::temp_dir().join(format!("relser_wal_demo_{}.wal", std::process::id()));
    let storage = FileStorage::create(&path).expect("create log file");
    let mut wal = WalWriter::new(Box::new(storage), FsyncPolicy::Always).expect("write log header");
    let server_cfg = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(&sc.txns, 7);
    let scheduler = RsgSgt::new(&sc.txns, &sc.spec);
    let report = serve(
        &sc.txns,
        &stream,
        Box::new(scheduler),
        &server_cfg,
        &FaultPlan::default(),
        Some(&mut wal),
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    println!(
        "durable run: {} commits, wal: {} records / {} bytes / {} writes / {} fsyncs -> {}",
        report.committed.len(),
        report.metrics.wal.records,
        report.metrics.wal.bytes,
        report.metrics.wal.appends,
        report.metrics.wal.syncs,
        path.display()
    );

    // Phase 2: the "crash". Chop the log mid-record — the torn tail a
    // power loss leaves when a frame was half-written.
    let mut bytes = std::fs::read(&path).expect("read log back");
    let full = scan(&bytes);
    assert!(full.truncation.is_none(), "clean run wrote a clean log");
    let keep_records = full.records.len() * 3 / 4;
    let torn_len = full.boundaries[keep_records] + 3; // 3 bytes of a torn frame
    bytes.truncate(torn_len.min(bytes.len()));
    println!(
        "\ncrash: log cut to {} bytes ({} of {} records + a torn frame)",
        bytes.len(),
        keep_records,
        full.records.len()
    );

    // Phase 3: recovery. Scan truncates at the damage, replay rebuilds a
    // fresh scheduler, and the committed history is re-certified
    // (Rsg::build(..).is_acyclic()) before the state is accepted.
    let mut fresh = RsgSgt::new(&sc.txns, &sc.spec);
    let rec = recover(&sc.txns, &sc.spec, &mut fresh, &bytes).expect("recovery succeeds");
    println!(
        "recovery: {} records replayed ({} valid bytes, truncated: {}), \
         {} committed, {} live incarnations rolled back",
        rec.records,
        rec.valid_bytes,
        rec.truncation
            .map(|t| format!("{t:?}"))
            .unwrap_or_else(|| "no".into()),
        rec.committed.len(),
        rec.live_aborted.len()
    );

    // Every commit recovery reports was acknowledged by the crashed run,
    // in the same order — the durable prefix never forges state.
    assert!(
        rec.committed
            .iter()
            .zip(&report.committed)
            .all(|(a, b)| a == b),
        "recovered commits must be a prefix of the run's commit order"
    );
    println!(
        "\ncheck: recovered committed set is a {}-of-{} prefix of the run's \
         acknowledged commits, re-certified relatively serializable",
        rec.committed.len(),
        report.committed.len()
    );

    std::fs::remove_file(&path).ok();
}
