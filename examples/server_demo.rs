//! The concurrent transaction service, end to end: 8 worker-thread
//! sessions drive the banking scenario through the single-writer
//! admission core running the paper's RSG-SGT scheduler, then the
//! committed history is re-validated offline (RSG acyclicity) and the
//! recorded trace is replayed deterministically on one thread.
//!
//! With `--shards N` (N > 1) the same sessions, through the same entry
//! point (`serve_sharded`, whose one-shard row is the default run), route
//! a shard-local universe over N shard cores that share nothing: every
//! transaction is owned by one shard (one spanning shards would be
//! refused), and the merged history gets the same offline certification
//! plus a per-shard deterministic replay.
//!
//! ```text
//! cargo run --release --example server_demo                        # full demo
//! cargo run --release --example server_demo -- --smoke             # fast CI variant
//! cargo run --release --example server_demo -- --shards 4 --smoke  # sharded cores
//! ```

use relative_serializability::core::rsg::Rsg;
use relative_serializability::core::shard::ShardMap;
use relative_serializability::core::spec::AtomicitySpec;
use relative_serializability::core::txn::TxnSet;
use relative_serializability::protocols::rsg_sgt::RsgSgt;
use relative_serializability::protocols::Scheduler;
use relative_serializability::server::{replay_sharded, serve_sharded, ServerConfig};
use relative_serializability::workload::banking::{banking, BankingConfig};
use relative_serializability::workload::random::{random_spec, shard_local_txns, RandomConfig};
use relative_serializability::workload::stream::RequestStream;

fn shard_schedulers<'a>(
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    shards: usize,
) -> Vec<Box<dyn Scheduler + Send + 'a>> {
    (0..shards)
        .map(|_| Box::new(RsgSgt::new(txns, spec)) as Box<dyn Scheduler + Send + 'a>)
        .collect()
}

/// SIGINT/SIGTERM → a flag polled at phase boundaries: the demo never
/// dies mid-phase, so a finished phase's committed history is always
/// validated and reported before exit.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::Release);
    }

    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(2, on_signal); // SIGINT
            signal(15, on_signal); // SIGTERM
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}

    pub fn stopped() -> bool {
        STOP.load(Ordering::Acquire)
    }
}

fn main() {
    sig::install();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--shards takes a number"))
        .unwrap_or(1);

    let (workload, txns, spec) = if shards > 1 {
        // Banking transfers span accounts, hence shards. A sharded service
        // runs transactions owned by one shard each: 68 (smoke: 20)
        // multi-object ones, Zipf-skewed inside each shard's pool.
        let cfg = RandomConfig {
            txns: if smoke { 20 } else { 68 },
            ops_per_txn: (2, 6),
            objects: 8 * shards,
            theta: 0.6,
            write_ratio: 0.5,
        };
        let txns = shard_local_txns(&cfg, &ShardMap::new(shards as u32), 11);
        let spec = random_spec(&txns, 0.4, 11);
        ("shard-local", txns, spec)
    } else {
        // 4 families x 16 customers + 4 credit audits = 68 transactions.
        let cfg = BankingConfig {
            families: 4,
            accounts_per_family: 4,
            customers_per_family: if smoke { 4 } else { 16 },
            transfers_per_customer: 2,
            credit_audits: true,
            bank_audit: false,
        };
        let sc = banking(&cfg, 11);
        ("banking", sc.txns, sc.spec)
    };
    // Per-op simulated record-access latency: slept, so sessions overlap
    // it — the concurrency the service exists to exploit. The smoke
    // variant drops it to keep CI in the sub-second range.
    let op_work_ns: u64 = if smoke { 20_000 } else { 500_000 };
    println!(
        "{workload} workload: {} transactions, {} operations, {}us simulated record access\n",
        txns.len(),
        txns.total_ops(),
        op_work_ns / 1000,
    );

    // The service: 8 sessions, bounded queue, single-writer core.
    let server_cfg = ServerConfig {
        workers: 8,
        op_work_ns,
        record_trace: true,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(&txns, 7);

    serve_demo(&txns, &spec, &stream, &server_cfg, shards);
}

/// N shard cores behind the router (one is the unsharded service),
/// offline certification of the merged history, per-shard deterministic
/// replay.
fn serve_demo(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    stream: &RequestStream,
    server_cfg: &ServerConfig,
    shards: usize,
) {
    let schedulers = shard_schedulers(txns, spec, shards);
    let run = serve_sharded(txns, stream, schedulers, server_cfg, &[], Vec::new())
        .into_run(txns)
        .expect("all transactions commit");
    let m = &run.report.metrics;
    println!(
        "service  ({} sessions x {shards} shard cores): {:.1?}, {:.0} ops/s\n",
        server_cfg.workers,
        m.elapsed,
        m.ops_per_sec(),
    );
    println!("{m}");
    let owned: Vec<usize> = run
        .report
        .shards
        .iter()
        .map(|s| s.committed.len())
        .collect();
    println!(
        "\nrouting: every transaction ran on the one shard that owns it — {owned:?} per shard"
    );

    // Offline re-validation: whatever interleaving the threads produced,
    // the merged history, certified whole, must be relatively
    // serializable.
    let rsg = Rsg::build(txns, &run.history, spec);
    assert!(rsg.is_acyclic(), "merged history failed the RSG test");
    println!("offline check: merged RSG acyclic -> history is relatively serializable");

    if sig::stopped() {
        println!("\ninterrupted after the service phase: history validated, exiting cleanly");
        return;
    }

    // Deterministic replay, shard by shard: each core's trace reproduces
    // that core's grant log on one thread.
    let traces: Vec<_> = run.report.shards.iter().map(|s| s.trace.clone()).collect();
    let logs = replay_sharded(
        (0..shards)
            .map(|_| Box::new(RsgSgt::new(txns, spec)) as Box<dyn Scheduler + '_>)
            .collect(),
        &traces,
    )
    .expect("per-shard replay agrees with the recorded decisions");
    for (s, (log, out)) in logs.iter().zip(&run.report.shards).enumerate() {
        assert_eq!(log, &out.log, "shard {s} replay diverged");
    }
    println!(
        "replay: {} trace events across {shards} shards reproduce every shard's grant log",
        traces.iter().map(Vec::len).sum::<usize>()
    );
}
