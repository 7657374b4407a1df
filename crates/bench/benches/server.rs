//! Server throughput: the concurrent transaction service vs the
//! single-thread driver-style baseline, on the banking workload.
//!
//! Run with `cargo bench -p relser-bench --bench server`. Each granted
//! operation carries 500 µs of simulated record-access latency (slept,
//! like real record I/O) — the work the service overlaps across sessions
//! while the single-writer admission core keeps its ~µs decisions off
//! the critical path. The measurements (plus provenance meta: git
//! commit, workload parameters, and the achieved 8-worker speedup) go to
//! `BENCH_server.json`.

use relser_bench::harness::{git_commit, BenchmarkId, Harness};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_server::{run_baseline, serve, FaultPlan, ServerConfig};
use relser_workload::banking::{banking, BankingConfig, BankingScenario};
use relser_workload::stream::RequestStream;
use std::hint::black_box;

/// 68 transactions / 528 operations: big enough that per-run thread
/// setup is noise, small enough that the whole sweep (baseline + four
/// worker counts, 5 samples each) finishes in a few seconds.
const WORKLOAD: BankingConfig = BankingConfig {
    families: 4,
    accounts_per_family: 4,
    customers_per_family: 16,
    transfers_per_customer: 2,
    credit_audits: true,
    bank_audit: false,
};
const WORKLOAD_SEED: u64 = 11;
const ARRIVAL_SEED: u64 = 7;
const OP_WORK_NS: u64 = 500_000;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_service(h: &mut Harness, sc: &BankingScenario) {
    let ops = sc.txns.total_ops();
    let mut group = h.group("banking_service");
    group.sample_size(5);

    group.bench_with_input(BenchmarkId::new("baseline", ops), &ops, |b, _| {
        b.iter(|| {
            let mut scheduler = RsgSgt::new(&sc.txns, &sc.spec);
            let stream = RequestStream::shuffled(&sc.txns, ARRIVAL_SEED);
            black_box(run_baseline(&sc.txns, &mut scheduler, &stream, OP_WORK_NS).history)
        })
    });

    for &workers in &WORKER_COUNTS {
        let cfg = ServerConfig {
            workers,
            op_work_ns: OP_WORK_NS,
            ..ServerConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| {
                let scheduler = RsgSgt::new(&sc.txns, &sc.spec);
                let stream = RequestStream::shuffled(&sc.txns, ARRIVAL_SEED);
                let faults = FaultPlan::default();
                black_box(
                    serve(&sc.txns, &stream, Box::new(scheduler), &cfg, &faults, None)
                        .into_run(&sc.txns)
                        .expect("serve completes")
                        .history,
                )
            })
        });
    }
    group.finish();
}

fn main() {
    let sc = banking(&WORKLOAD, WORKLOAD_SEED);
    let ops = sc.txns.total_ops();

    let mut h = Harness::new("server");
    h.set_meta("git_commit", git_commit());
    h.set_meta("workload", "banking");
    h.set_meta("txns", sc.txns.len());
    h.set_meta("total_ops", ops);
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
    h.set_meta("workload_seed", WORKLOAD_SEED);
    h.set_meta("arrival_seed", ARRIVAL_SEED);
    h.set_meta("op_work_ns", OP_WORK_NS);
    h.set_meta("scheduler", "RSG-SGT");

    bench_service(&mut h, &sc);

    // Pre-hot-path-PR baseline, recorded on this machine immediately
    // before the first optimization landed (see EXPERIMENTS.md "Hot-path
    // pathologies"). Kept as static meta so the committed JSON carries
    // the before beside the after.
    h.set_meta("hotpath_before_e11_rsg_sgt_ns_per_decision", 1_864u64);

    // The last head-to-head of the two queue implementations, on this
    // machine (8 producers x 25,000 items, capacity 1024, batches of 64).
    // The ring lost and was deleted with the bench group that measured
    // it (DESIGN.md §17); the rows stay as static meta so the committed
    // JSON keeps the evidence for that decision.
    h.set_meta("queue_condvar_ns_per_item", "244");
    h.set_meta("queue_ring_ns_per_item", "305");
    h.set_meta("queue_ring_speedup_vs_condvar", "0.80");

    // Derive throughputs and the headline speedup from the medians.
    let median = |id: &str| {
        h.measurements()
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.median_ns)
            .expect("measurement present")
    };
    let base = median(&format!("baseline/{ops}"));
    let w8 = median("workers/8");
    let ops_per_sec = |ns: f64| ops as f64 * 1e9 / ns;
    h.set_meta("baseline_ops_per_sec", format!("{:.0}", ops_per_sec(base)));
    h.set_meta("workers8_ops_per_sec", format!("{:.0}", ops_per_sec(w8)));
    h.set_meta("speedup_8_workers", format!("{:.2}", base / w8));
    println!(
        "baseline {:.0} ops/s, 8 workers {:.0} ops/s -> speedup {:.2}x",
        ops_per_sec(base),
        ops_per_sec(w8),
        base / w8
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    if let Err(e) = h.write_json(out) {
        eprintln!("could not write {out}: {e}");
    }
}
