//! Wire-to-wire throughput and latency of the TCP front-end: the
//! loopback load driver pipelines the banking and Zipf workloads over
//! real sockets into the admission core, sweeping connection counts.
//!
//! Run with `cargo bench -p relser-bench --bench net`. Two kinds of
//! numbers go to `BENCH_net.json`:
//!
//! * **throughput** — median wall clock of a full drive (connect,
//!   pipeline, commit everything) per workload and connection count,
//!   with the interquartile range of its `SAMPLES` samples beside it;
//! * **per-stage latency** — from one representative durable run per
//!   workload (WAL under `FsyncPolicy::Always`, so the fsync sits inside
//!   the commit path), the p50/p99/p999 of every accounted stage:
//!   decode, queue wait, admit, WAL fsync, reply serialization, and the
//!   wire-to-wire round trip.

use relser_bench::harness::{git_commit, Harness};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_net::{
    drive_resilient, serve_net, serve_net_supervised_in, ChaosPlan, NetConfig, NetReport,
    ResilientConfig, ResilientStats, SuperviseNetConfig, SupervisedNetReport,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_server::core::FaultPlan;
use relser_wal::{CheckpointPolicy, FsyncPolicy, MemSegmentStore, MemSegmentsHandle, SegmentedWal};
use relser_workload::banking::{banking, BankingConfig};
use relser_workload::random::random_spec;
use relser_workload::stream::RequestStream;
use std::hint::black_box;
use std::time::Duration;

/// 81 transactions / 660 operations of structured contention (family
/// transfers vs credit/bank audits).
const WORKLOAD: BankingConfig = BankingConfig {
    families: 16,
    accounts_per_family: 4,
    customers_per_family: 4,
    transfers_per_customer: 2,
    credit_audits: true,
    bank_audit: true,
};
const WORKLOAD_SEED: u64 = 11;
const ARRIVAL_SEED: u64 = 7;
const CONNECTIONS: [usize; 3] = [8, 32, 64];
const STREAMS: usize = 4;
/// Timed samples per row: enough for a median and quartiles that a
/// before/after comparison (ROADMAP item 9(a)) can be read against.
const SAMPLES: usize = 10;

/// Zipf-sampled single-record read-modify-write transactions — the
/// low-contention admission-path traffic.
const ZIPF_TXNS: usize = 384;
const ZIPF_OBJECTS: usize = 2048;
const ZIPF_THETA: f64 = 0.4;
const ZIPF_BREAKPOINT_PROB: f64 = 0.4;

fn zipf_rmw_txns(seed: u64) -> TxnSet {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use relser_core::op::AccessMode;
    use relser_workload::zipf::Zipf;

    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(ZIPF_OBJECTS, ZIPF_THETA);
    let names: Vec<String> = (0..ZIPF_OBJECTS).map(|i| format!("r{i}")).collect();
    let mut set = TxnSet::new();
    for _ in 0..ZIPF_TXNS {
        let record = names[zipf.sample(&mut rng)].as_str();
        set.add(&[(AccessMode::Read, record), (AccessMode::Write, record)])
            .expect("non-empty transaction");
    }
    set
}

/// One full drive: serve on loopback, pipeline every transaction to
/// commit over `connections` sockets, tear the server down.
fn run_once(txns: &TxnSet, spec: &AtomicitySpec, connections: usize, durable: bool) -> NetReport {
    let scheduler = Box::new(RsgSgt::new(txns, spec));
    let stream = RequestStream::shuffled(txns, ARRIVAL_SEED);
    let cfg = NetConfig {
        reactors: 4,
        ..NetConfig::default()
    };
    let load = ResilientConfig {
        connections,
        streams: STREAMS,
        ..ResilientConfig::default()
    };
    let run = |wal: Option<&mut dyn relser_wal::CommitLog>| {
        serve_net(txns, scheduler, &cfg, &FaultPlan::default(), wal, |addr| {
            drive_resilient(addr, txns, &stream, &load, &ChaosPlan::quiet())
        })
        .expect("serve_net")
    };
    let (report, stats) = if durable {
        let (store, _handle) = MemSegmentStore::new();
        let ckpt = CheckpointPolicy::never();
        let mut wal =
            SegmentedWal::new(Box::new(store), FsyncPolicy::Always, ckpt).expect("in-memory wal");
        run(Some(&mut wal))
    } else {
        run(None)
    };
    assert_eq!(
        stats.committed.len(),
        txns.len(),
        "benchmarked runs must commit everything"
    );
    report
}

/// One supervised two-shard run driven by the resilient client: serve,
/// commit everything (retrying through whatever `faults` inject), tear
/// down, and recover the authoritative committed history from the WAL
/// segment streams.
fn run_supervised(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    faults: &[FaultPlan],
    cfg: &NetConfig,
) -> (SupervisedNetReport, ResilientStats) {
    let stream = RequestStream::shuffled(txns, ARRIVAL_SEED);
    let sup = SuperviseNetConfig::default();
    let rcfg = ResilientConfig {
        connections: 8,
        streams: STREAMS,
        ..ResilientConfig::default()
    };
    let stores: Vec<MemSegmentsHandle> =
        (0..sup.shards).map(|_| MemSegmentStore::new().1).collect();
    let (report, stats) = serve_net_supervised_in(
        txns,
        spec,
        |_| Box::new(RsgSgt::new(txns, spec)),
        cfg,
        &sup,
        faults,
        &stores,
        |addr| drive_resilient(addr, txns, &stream, &rcfg, &ChaosPlan::quiet()),
    )
    .expect("serve_net_supervised_in");
    assert_eq!(
        stats.committed.len(),
        txns.len(),
        "benchmarked runs must commit everything"
    );
    (report, stats)
}

/// Degraded-shard throughput and retry-path latency: a healthy
/// supervised baseline, the same run with shard 0 killed at command 40
/// (recovered in place while shard 1 keeps serving), and a run whose
/// dropped replies force the exactly-once retry path through session
/// resume. Medians land in `BENCH_net.json` next to the healthy
/// wire numbers.
fn bench_supervised(h: &mut Harness, txns: &TxnSet, spec: &AtomicitySpec) {
    let cfg = NetConfig {
        reactors: 4,
        ..NetConfig::default()
    };
    // Dropped replies resolve at the reply watchdog; keep it tight so
    // the retry-path number measures the retry, not a 5s default wait.
    let retry_cfg = NetConfig {
        reactors: 4,
        reply_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let kill = vec![
        FaultPlan {
            crash_at_command: Some(40),
            ..FaultPlan::default()
        },
        FaultPlan::default(),
    ];
    let drops = vec![
        FaultPlan {
            drop_replies: vec![10, 40],
            ..FaultPlan::default()
        },
        FaultPlan {
            drop_replies: vec![25],
            ..FaultPlan::default()
        },
    ];

    let mut group = h.group("supervised_net");
    group.sample_size(SAMPLES);
    group.bench_function("shards/healthy", |b| {
        b.iter(|| black_box(run_supervised(txns, spec, &[], &cfg).1.committed.len()))
    });
    group.bench_function("shards/degraded", |b| {
        b.iter(|| black_box(run_supervised(txns, spec, &kill, &cfg).1.committed.len()))
    });
    group.bench_function("shards/retry_path", |b| {
        b.iter(|| {
            black_box(
                run_supervised(txns, spec, &drops, &retry_cfg)
                    .1
                    .committed
                    .len(),
            )
        })
    });

    // One representative run per mode for the robustness counters.
    let (degraded, dstats) = run_supervised(txns, spec, &kill, &cfg);
    h.set_meta(
        "degraded_supervisor_restarts",
        degraded.report.metrics.supervisor_restarts,
    );
    h.set_meta(
        "degraded_recovering_replies",
        degraded.report.net.recovering_replies,
    );
    h.set_meta("degraded_client_reconnects", dstats.reconnects);
    let (_, rstats) = run_supervised(txns, spec, &drops, &retry_cfg);
    h.set_meta("retry_path_commit_retries", rstats.commit_retries);
    h.set_meta("retry_path_client_reconnects", rstats.reconnects);
}

fn bench_workload(h: &mut Harness, name: &str, txns: &TxnSet, spec: &AtomicitySpec) {
    let mut group = h.group(name);
    group.sample_size(SAMPLES);
    for &connections in &CONNECTIONS {
        group.bench_function(format!("connections/{connections}"), |b| {
            b.iter(|| black_box(run_once(txns, spec, connections, false).committed))
        });
    }
}

/// One representative durable run: every stage's p50/p99/p999 into the
/// JSON meta (`<workload>_<stage>_{p50,p99,p999}_ns`) and onto stdout as
/// the table the README quotes.
fn capture_stages(h: &mut Harness, name: &str, txns: &TxnSet, spec: &AtomicitySpec) {
    let report = run_once(txns, spec, 32, true);
    println!(
        "{name}: 32 connections x {STREAMS} streams, durable commits, \
         {} requests wire-to-wire",
        report.net.requests
    );
    println!("stage             p50          p99         p999    samples");
    for (stage, hist) in report.stages() {
        println!(
            "{stage:<10} {:>10} ns {:>10} ns {:>10} ns {:>10}",
            hist.p50_ns(),
            hist.p99_ns(),
            hist.p999_ns(),
            hist.count()
        );
        h.set_meta(format!("{name}_{stage}_p50_ns").as_str(), hist.p50_ns());
        h.set_meta(format!("{name}_{stage}_p99_ns").as_str(), hist.p99_ns());
        h.set_meta(format!("{name}_{stage}_p999_ns").as_str(), hist.p999_ns());
    }
    println!();
}

fn main() {
    let sc = banking(&WORKLOAD, WORKLOAD_SEED);
    let zipf_txns = zipf_rmw_txns(WORKLOAD_SEED);
    let zipf_spec = random_spec(&zipf_txns, ZIPF_BREAKPOINT_PROB, WORKLOAD_SEED);

    let mut h = Harness::new("net");
    h.set_meta("git_commit", git_commit());
    h.set_meta("txns", sc.txns.len());
    h.set_meta("total_ops", sc.txns.total_ops());
    h.set_meta(
        "banking_config",
        format!(
            "families={} accounts_per_family={} customers_per_family={} \
             transfers_per_customer={} credit_audits={} bank_audit={}",
            WORKLOAD.families,
            WORKLOAD.accounts_per_family,
            WORKLOAD.customers_per_family,
            WORKLOAD.transfers_per_customer,
            WORKLOAD.credit_audits,
            WORKLOAD.bank_audit
        ),
    );
    h.set_meta("zipf_txns", zipf_txns.len());
    h.set_meta(
        "zipf_config",
        format!(
            "single-record RMW, txns={ZIPF_TXNS} objects={ZIPF_OBJECTS} theta={ZIPF_THETA} \
             breakpoint_prob={ZIPF_BREAKPOINT_PROB}"
        ),
    );
    h.set_meta("workload_seed", WORKLOAD_SEED);
    h.set_meta("arrival_seed", ARRIVAL_SEED);
    h.set_meta("streams_per_connection", STREAMS);
    h.set_meta("scheduler", "RSG-SGT");
    h.set_meta(
        "stage_capture",
        "32 connections, durable WAL (fsync always), stages: decode/queue/admit/fsync/reply/wire",
    );

    bench_workload(&mut h, "banking_net", &sc.txns, &sc.spec);
    bench_workload(&mut h, "zipf_net", &zipf_txns, &zipf_spec);
    bench_supervised(&mut h, &zipf_txns, &zipf_spec);

    capture_stages(&mut h, "banking", &sc.txns, &sc.spec);
    capture_stages(&mut h, "zipf", &zipf_txns, &zipf_spec);

    // Headline throughputs from the medians.
    let median = |group: &str, id: &str| {
        h.measurements()
            .iter()
            .find(|m| m.group == group && m.id == id)
            .map(|m| m.median_ns)
            .expect("measurement present")
    };
    let banking_ops = sc.txns.total_ops() as f64;
    let zipf_ops = zipf_txns.total_ops() as f64;
    let throughputs: Vec<(usize, f64, f64)> = CONNECTIONS
        .iter()
        .map(|&c| {
            let b = banking_ops * 1e9 / median("banking_net", &format!("connections/{c}"));
            let z = zipf_ops * 1e9 / median("zipf_net", &format!("connections/{c}"));
            (c, b, z)
        })
        .collect();
    let supervised: Vec<(&str, f64)> = ["healthy", "degraded", "retry_path"]
        .iter()
        .map(|&mode| {
            (
                mode,
                zipf_ops * 1e9 / median("supervised_net", &format!("shards/{mode}")),
            )
        })
        .collect();
    for (c, b, z) in throughputs {
        h.set_meta(
            format!("banking_conns{c}_ops_per_sec").as_str(),
            format!("{b:.0}"),
        );
        h.set_meta(
            format!("zipf_conns{c}_ops_per_sec").as_str(),
            format!("{z:.0}"),
        );
        println!("connections={c}: banking {b:.0} ops/s, zipf {z:.0} ops/s");
    }

    // Headline robustness numbers: throughput with a shard recovering
    // mid-run, and the cost of the dropped-reply retry path, both
    // relative to the healthy supervised baseline.
    for (mode, ops) in supervised {
        h.set_meta(
            format!("supervised_{mode}_ops_per_sec").as_str(),
            format!("{ops:.0}"),
        );
        println!("supervised {mode}: {ops:.0} ops/s");
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    if let Err(e) = h.write_json(out) {
        eprintln!("could not write {out}: {e}");
    }
}
