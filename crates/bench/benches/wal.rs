//! Write-ahead log costs: service throughput under each fsync policy,
//! and recovery time as the log grows.
//!
//! Run with `cargo bench -p relser-bench --bench wal`. Two questions:
//!
//! * what does durability cost the service? — the banking workload runs
//!   through `serve` once per [`FsyncPolicy`] (plus a no-WAL
//!   baseline), all on in-memory storage so the numbers isolate the
//!   framing/checksum/barrier work from disk variance; next to each
//!   overhead ratio the barriers and storage writes per record one run
//!   issued (group commit: one of each per drained batch under `Always`);
//! * what does a crash cost at restart? — serial logs of increasing
//!   record counts are recovered (scan + replay + Theorem 1
//!   re-certification) to show recovery stays linear-ish in log length;
//! * what does checkpointing buy at restart? — the same histories logged
//!   through a checkpointing [`SegmentedWal`] recover by seeding from
//!   the newest checkpoint and replaying only the suffix, so recovery
//!   time is bounded by the checkpoint cadence instead of growing with
//!   history length.
//!
//! Measurements plus provenance meta go to `BENCH_wal.json`.

use relser_bench::harness::{git_commit, BenchmarkId, Harness};
use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgt;
use relser_server::recovery::{recover, recover_segments_with_certifier, Certifier};
use relser_server::{serve, FaultPlan, RunOutcome, ServeReport, ServerConfig};
use relser_wal::{
    Checkpoint, CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, MemStorage,
    SegmentedWal, WalRecord, WalWriter,
};
use relser_workload::banking::{banking, BankingConfig, BankingScenario};
use relser_workload::stream::RequestStream;
use std::hint::black_box;

const WORKLOAD: BankingConfig = BankingConfig {
    families: 2,
    accounts_per_family: 4,
    customers_per_family: 8,
    transfers_per_customer: 2,
    credit_audits: true,
    bank_audit: false,
};
const WORKLOAD_SEED: u64 = 11;
const ARRIVAL_SEED: u64 = 7;
const WORKERS: usize = 4;
/// Transactions per synthetic recovery log (6 records each).
const RECOVERY_TXNS: [usize; 3] = [8, 32, 128];
const OPS_PER_TXN: usize = 4;

fn server_cfg() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

const POLICIES: [(&str, FsyncPolicy); 4] = [
    ("always", FsyncPolicy::Always),
    ("every8", FsyncPolicy::EveryN(8)),
    ("every64", FsyncPolicy::EveryN(64)),
    ("never", FsyncPolicy::Never),
];

/// One durable run of the banking workload under `policy`.
fn durable_run(sc: &BankingScenario, cfg: &ServerConfig, policy: FsyncPolicy) -> ServeReport {
    let (mem, _handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), policy).unwrap();
    let stream = RequestStream::shuffled(&sc.txns, ARRIVAL_SEED);
    let scheduler = RsgSgt::new(&sc.txns, &sc.spec);
    let report = serve(
        &sc.txns,
        &stream,
        Box::new(scheduler),
        cfg,
        &FaultPlan::default(),
        Some(&mut wal),
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    report
}

/// Throughput per fsync policy, with a no-WAL baseline.
fn bench_policies(h: &mut Harness, sc: &BankingScenario) {
    let cfg = server_cfg();
    let mut group = h.group("wal_throughput");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("policy", "none"), &(), |b, _| {
        b.iter(|| {
            let stream = RequestStream::shuffled(&sc.txns, ARRIVAL_SEED);
            let scheduler = RsgSgt::new(&sc.txns, &sc.spec);
            let report = serve(
                &sc.txns,
                &stream,
                Box::new(scheduler),
                &cfg,
                &FaultPlan::default(),
                None,
            );
            assert_eq!(report.outcome, RunOutcome::Completed);
            black_box(report.committed.len())
        })
    });

    for (name, policy) in POLICIES {
        group.bench_with_input(BenchmarkId::new("policy", name), &(), |b, _| {
            b.iter(|| black_box(durable_run(sc, &cfg, policy).metrics.wal.syncs))
        });
    }
    group.finish();
}

/// A conflict-free universe of `n` transactions (each on its own object)
/// and the byte log of committing all of them serially — recovery input
/// whose length scales exactly with `n`.
fn serial_log(n: usize) -> (TxnSet, AtomicitySpec, Vec<u8>) {
    let mut txns = TxnSet::new();
    for t in 0..n {
        let name = format!("x{t}");
        let ops: Vec<(AccessMode, &str)> = (0..OPS_PER_TXN)
            .map(|_| (AccessMode::Write, name.as_str()))
            .collect();
        txns.add(&ops).unwrap();
    }
    let spec = AtomicitySpec::absolute(&txns);
    let (mem, handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Never).unwrap();
    for t in 0..n {
        let txn = TxnId(t as u32);
        wal.append(&WalRecord::Begin(txn)).unwrap();
        for i in 0..OPS_PER_TXN {
            wal.append(&WalRecord::Grant(OpId::new(txn, i as u32)))
                .unwrap();
        }
        wal.append(&WalRecord::Commit(txn)).unwrap();
    }
    wal.close().unwrap();
    (txns, spec, handle.bytes())
}

/// Checkpoint cadence for the segmented recovery logs.
const CHECKPOINT_EVERY: u64 = 32;

/// The same serial history as [`serial_log`], logged through a
/// checkpointing [`SegmentedWal`]: a checkpoint is cut (and older
/// segments deleted) every [`CHECKPOINT_EVERY`] records, exactly as the
/// admission core would at a batch boundary. In this conflict-free
/// serial universe every covered transaction is retired, so the
/// checkpoints carry the committed list and an empty live-event stream.
fn serial_segmented_log(n: usize) -> (TxnSet, AtomicitySpec, Vec<(u64, Vec<u8>)>) {
    let mut txns = TxnSet::new();
    for t in 0..n {
        let name = format!("x{t}");
        let ops: Vec<(AccessMode, &str)> = (0..OPS_PER_TXN)
            .map(|_| (AccessMode::Write, name.as_str()))
            .collect();
        txns.add(&ops).unwrap();
    }
    let spec = AtomicitySpec::absolute(&txns);
    let (store, handle) = MemSegmentStore::new();
    let mut wal = SegmentedWal::new(
        Box::new(store),
        FsyncPolicy::Never,
        CheckpointPolicy {
            every_records: CHECKPOINT_EVERY,
            every_bytes: u64::MAX,
        },
    )
    .unwrap();
    let mut committed: Vec<TxnId> = Vec::new();
    for t in 0..n {
        let txn = TxnId(t as u32);
        wal.append(&WalRecord::Begin(txn)).unwrap();
        for i in 0..OPS_PER_TXN {
            wal.append(&WalRecord::Grant(OpId::new(txn, i as u32)))
                .unwrap();
        }
        wal.append(&WalRecord::Commit(txn)).unwrap();
        committed.push(txn);
        if wal.checkpoint_due() {
            wal.install_checkpoint(Checkpoint {
                shard: 0,
                committed: committed.clone(),
                events: Vec::new(),
                sessions: Vec::new(),
            })
            .unwrap();
        }
    }
    wal.close().unwrap();
    (txns, spec, handle.segments())
}

/// Recovery time (scan + replay + re-certify) vs log length.
fn bench_recovery(h: &mut Harness) {
    let inputs: Vec<(usize, TxnSet, AtomicitySpec, Vec<u8>)> = RECOVERY_TXNS
        .iter()
        .map(|&n| {
            let (txns, spec, bytes) = serial_log(n);
            (n * (OPS_PER_TXN + 2), txns, spec, bytes)
        })
        .collect();
    let mut group = h.group("wal_recovery");
    group.sample_size(10);
    for (records, txns, spec, bytes) in &inputs {
        group.bench_with_input(BenchmarkId::new("records", records), records, |b, _| {
            b.iter(|| {
                let mut fresh = RsgSgt::new(txns, spec);
                let rec = recover(txns, spec, &mut fresh, bytes, Certifier::VClock).unwrap();
                assert_eq!(rec.records, *records);
                black_box(rec.committed.len())
            })
        });
    }
    group.finish();
}

/// Fixed transaction count of the certifier-comparison logs.
const CERTIFIER_K: usize = 8;
/// Ops-per-transaction grid of the certifier-comparison logs (total op
/// count grows 16× while the transaction count stays fixed).
const CERTIFIER_OPS: [usize; 3] = [8, 32, 128];

/// A *contended* serial log with a fixed transaction count: `k`
/// transactions of `m` writes each, round-robin over four shared
/// objects, committed back to back. Unlike [`serial_log`], conflicts are
/// dense here, so step 4's re-certification does real dependency work —
/// the cost the vector-clock certifier is meant to collapse.
fn contended_serial_log(k: usize, m: usize) -> (TxnSet, AtomicitySpec, Vec<u8>) {
    let mut txns = TxnSet::new();
    let names: Vec<String> = (0..4).map(|o| format!("x{o}")).collect();
    for t in 0..k {
        let ops: Vec<(AccessMode, &str)> = (0..m)
            .map(|i| (AccessMode::Write, names[(t + i) % names.len()].as_str()))
            .collect();
        txns.add(&ops).unwrap();
    }
    let spec = AtomicitySpec::absolute(&txns);
    let (mem, handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Never).unwrap();
    for t in 0..k {
        let txn = TxnId(t as u32);
        wal.append(&WalRecord::Begin(txn)).unwrap();
        for i in 0..m {
            wal.append(&WalRecord::Grant(OpId::new(txn, i as u32)))
                .unwrap();
        }
        wal.append(&WalRecord::Commit(txn)).unwrap();
    }
    wal.close().unwrap();
    (txns, spec, handle.bytes())
}

/// Old vs new recovery: identical contended logs recovered through the
/// Theorem 1 `Rsg::build` re-certifier (the pre-vclock path, kept
/// selectable) and through the default vector-clock certifier. Both rows
/// land in `BENCH_wal.json`; with the transaction count fixed, the
/// vclock path's growth in history length must not exceed the old
/// path's (it replaces the superlinear depends-on closure with one
/// O(n·K) pass — scan and scheduler replay cost is shared).
fn bench_recovery_certifiers(h: &mut Harness) {
    let inputs: Vec<(usize, TxnSet, AtomicitySpec, Vec<u8>)> = CERTIFIER_OPS
        .iter()
        .map(|&m| {
            let (txns, spec, bytes) = contended_serial_log(CERTIFIER_K, m);
            (CERTIFIER_K * m, txns, spec, bytes)
        })
        .collect();
    let mut group = h.group("wal_recovery_certifier");
    group.sample_size(10);
    for (ops, txns, spec, bytes) in &inputs {
        for (name, certifier) in [
            ("vclock", Certifier::VClock),
            ("theorem1_rsg", Certifier::Theorem1Rsg),
        ] {
            group.bench_with_input(BenchmarkId::new(name, ops), ops, |b, _| {
                b.iter(|| {
                    let mut fresh = RsgSgt::new(txns, spec);
                    let rec = recover(txns, spec, &mut fresh, bytes, certifier).unwrap();
                    assert_eq!(rec.committed.len(), CERTIFIER_K);
                    black_box(rec.history.len())
                })
            });
        }
    }
    group.finish();
    h.set_meta(
        "recovery_certifier_logs",
        format!(
            "contended serial, {CERTIFIER_K} txns, ops/txn={CERTIFIER_OPS:?}, 4 shared objects"
        ),
    );
    h.set_meta(
        "recovery_certifier_regime",
        "fixed transaction count: vclock re-certification is one O(n*K) pass, \
         Theorem1Rsg pays the depends-on closure",
    );
}

/// Recovery time vs history length when the log checkpoints: seeding
/// from the newest checkpoint replaces replaying the whole history, so
/// the cost should flatten once histories exceed the cadence.
type SegmentedInput = (usize, TxnSet, AtomicitySpec, Vec<(u64, Vec<u8>)>);

fn bench_recovery_checkpointed(h: &mut Harness) {
    let inputs: Vec<SegmentedInput> = RECOVERY_TXNS
        .iter()
        .map(|&n| {
            let (txns, spec, segments) = serial_segmented_log(n);
            (n * (OPS_PER_TXN + 2), txns, spec, segments)
        })
        .collect();
    let mut group = h.group("wal_recovery_checkpointed");
    group.sample_size(10);
    for (records, txns, spec, segments) in &inputs {
        group.bench_with_input(
            BenchmarkId::new("ckpt_records", records),
            records,
            |b, _| {
                b.iter(|| {
                    let mut fresh = RsgSgt::new(txns, spec);
                    let (_, rec) = recover_segments_with_certifier(
                        txns,
                        spec,
                        &mut fresh,
                        segments,
                        Certifier::VClock,
                    )
                    .unwrap();
                    assert!(rec.replayed as u64 <= CHECKPOINT_EVERY + OPS_PER_TXN as u64 + 2);
                    black_box(rec.committed.len())
                })
            },
        );
    }
    group.finish();
}

fn main() {
    let sc = banking(&WORKLOAD, WORKLOAD_SEED);

    let mut h = Harness::new("wal");
    h.set_meta("git_commit", git_commit());
    h.set_meta("workload", "banking");
    h.set_meta("txns", sc.txns.len());
    h.set_meta("total_ops", sc.txns.total_ops());
    h.set_meta("workload_seed", WORKLOAD_SEED);
    h.set_meta("arrival_seed", ARRIVAL_SEED);
    h.set_meta("workers", WORKERS);
    h.set_meta("scheduler", "RSG-SGT");
    h.set_meta(
        "storage",
        "MemStorage (in-memory; isolates framing/barrier cost)",
    );
    h.set_meta(
        "recovery_logs",
        format!("serial, {OPS_PER_TXN} ops/txn, txns={RECOVERY_TXNS:?}"),
    );

    h.set_meta("checkpoint_every_records", CHECKPOINT_EVERY);

    bench_policies(&mut h, &sc);
    bench_recovery(&mut h);
    bench_recovery_certifiers(&mut h);
    bench_recovery_checkpointed(&mut h);

    let median = |id: &str| {
        h.measurements()
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.median_ns)
            .expect("measurement present")
    };
    let none = median("policy/none");
    let always = median("policy/always");
    let never = median("policy/never");
    let recovery: Vec<(usize, f64, f64)> = RECOVERY_TXNS
        .iter()
        .map(|&n| {
            let records = n * (OPS_PER_TXN + 2);
            (
                records,
                median(&format!("records/{records}")),
                median(&format!("ckpt_records/{records}")),
            )
        })
        .collect();
    h.set_meta("always_overhead_vs_none", format!("{:.3}", always / none));
    h.set_meta("never_overhead_vs_none", format!("{:.3}", never / none));
    // Where the overhead comes from: barriers and storage writes per
    // record, and achieved batching, from one untimed run per policy.
    for (name, policy) in POLICIES {
        let m = durable_run(&sc, &server_cfg(), policy).metrics;
        let records = m.wal.records as f64;
        h.set_meta(
            &format!("{name}_syncs_per_record"),
            format!("{:.3}", m.wal.syncs as f64 / records),
        );
        h.set_meta(
            &format!("{name}_storage_appends_per_record"),
            format!("{:.3}", m.wal.appends as f64 / records),
        );
        h.set_meta(
            &format!("{name}_commands_per_batch"),
            format!("{:.2}", m.commands as f64 / m.batches as f64),
        );
    }
    for (records, ns, ckpt_ns) in recovery {
        h.set_meta(
            &format!("recovery_ns_per_record_{records}"),
            format!("{:.0}", ns / records as f64),
        );
        h.set_meta(
            &format!("recovery_ckpt_ns_{records}"),
            format!("{ckpt_ns:.0}"),
        );
        h.set_meta(
            &format!("recovery_ckpt_speedup_{records}"),
            format!("{:.2}", ns / ckpt_ns),
        );
    }
    println!(
        "durability overhead vs no WAL: always {:.2}x, never {:.2}x",
        always / none,
        never / none
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal.json");
    if let Err(e) = h.write_json(out) {
        eprintln!("could not write {out}: {e}");
    }
}
