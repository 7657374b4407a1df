//! The TCP front-end, end to end: the banking workload driven over real
//! loopback sockets — N connections of the one client
//! (`drive_resilient`, no wire faults), each pipelining several
//! transaction streams — into the single-writer admission core running
//! the paper's RSG-SGT scheduler, with a durable WAL (`FsyncPolicy::
//! Always`) inside the commit path. Every request is timed wire-to-wire,
//! broken into per-stage histograms (decode → queue wait → admit →
//! WAL fsync → reply serialization → wire round trip), and the committed
//! history is re-certified offline by RSG acyclicity.
//!
//! SIGINT/SIGTERM shut the service down **gracefully**: in-flight
//! commands drain through the queue, the WAL is already fsynced inside
//! the commit path, every still-open connection receives a typed
//! `Closing` farewell, and whatever committed before the interrupt is
//! re-certified on the way out — no acknowledged commit is lost.
//!
//! ```text
//! cargo run --release --example net_demo             # full demo
//! cargo run --release --example net_demo -- --smoke  # fast CI variant
//! ```

use relative_serializability::core::project::Projection;
use relative_serializability::core::rsg::Rsg;
use relative_serializability::net::{
    drive_resilient, serve_net, ChaosPlan, NetConfig, ResilientConfig, ResilientStats,
};
use relative_serializability::protocols::rsg_sgt::RsgSgt;
use relative_serializability::server::{recover_segments_with_certifier, Certifier, FaultPlan};
use relative_serializability::wal::{CheckpointPolicy, FsyncPolicy, MemSegmentStore, SegmentedWal};
use relative_serializability::workload::banking::{banking, BankingConfig};
use relative_serializability::workload::stream::RequestStream;
use std::time::Duration;

/// SIGINT/SIGTERM → a flag the serving loop polls. No dependency, no
/// async-signal hazard: the handler only stores an atomic.
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
    let smoke = std::env::args().any(|a| a == "--smoke");

    let cfg = BankingConfig {
        families: if smoke { 8 } else { 32 },
        accounts_per_family: 4,
        customers_per_family: if smoke { 2 } else { 4 },
        transfers_per_customer: 2,
        credit_audits: true,
        bank_audit: true,
    };
    // Leaked so the client threads are `'static` and the serving loop can
    // return early on a signal without waiting for them (a demo binary —
    // the process exits right after).
    let sc = &*Box::leak(Box::new(banking(&cfg, 11)));
    let connections = if smoke { 8 } else { 32 };
    let streams = 4;
    println!(
        "banking workload: {} transactions, {} operations\n\
         front-end: {connections} TCP connections x {streams} pipelined streams, durable WAL (fsync always)\n",
        sc.txns.len(),
        sc.txns.total_ops(),
    );

    let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
    let stream = &*Box::leak(Box::new(RequestStream::shuffled(&sc.txns, 7)));
    let (store, handle) = MemSegmentStore::new();
    let ckpt = CheckpointPolicy::never();
    let mut wal =
        SegmentedWal::new(Box::new(store), FsyncPolicy::Always, ckpt).expect("in-memory wal");
    let net_cfg = NetConfig {
        reactors: if smoke { 2 } else { 4 },
        ..NetConfig::default()
    };
    // No reconnect budget: the server's `Closing` farewell is final, so
    // an interrupt ends the client with the server instead of leaving it
    // redialling a closed port.
    let load = &*Box::leak(Box::new(ResilientConfig {
        connections,
        streams,
        max_reconnects: 0,
        ..ResilientConfig::default()
    }));

    let (report, client) = serve_net(
        &sc.txns,
        scheduler,
        &net_cfg,
        &FaultPlan::default(),
        Some(&mut wal),
        |addr| {
            println!("serving on {addr}  (Ctrl-C drains, fsyncs, and answers Closing)\n");
            let driver = std::thread::spawn(move || {
                drive_resilient(addr, &sc.txns, stream, load, &ChaosPlan::quiet())
            });
            while !driver.is_finished() && !sig::stopped() {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Returning begins the graceful shutdown: the reactors send a
            // typed `Closing` to every still-open connection, the queue
            // drains, and the WAL (fsync-always) already holds every
            // acknowledged commit. The driver is joined afterwards.
            driver
        },
    )
    .expect("serve_net");
    let interrupted = sig::stopped();
    let stats: ResilientStats = client.join().expect("client driver panicked");

    if interrupted {
        println!(
            "interrupted: drained the queue, answered Closing on {} connections, \
             {} commits acknowledged (all durable)\n",
            report.net.closing_replies,
            stats.committed.len()
        );
    } else {
        assert_eq!(
            stats.committed.len(),
            sc.txns.len(),
            "every transaction commits"
        );
        assert_eq!(stats.dead_connections, 0, "no connection degraded");
    }
    println!(
        "client: {} committed, {} restarts, {} sheds over {} connections",
        stats.committed.len(),
        stats.restarts,
        stats.sheds,
        connections
    );
    println!(
        "server: {:.1?} wall clock, {} commands in {} batches\n",
        report.metrics.elapsed, report.metrics.commands, report.metrics.batches
    );
    println!("{report}");

    // Offline re-certification: whatever interleaving the sockets
    // produced — and wherever the interrupt landed — the committed
    // history must be relatively serializable.
    let p = Projection::subset(&sc.txns, &sc.spec, &report.committed).expect("projection");
    let history = p.schedule(&report.log).expect("granted log is a schedule");
    assert!(
        Rsg::build(&p.txns, &history, &p.spec).is_acyclic(),
        "committed history failed the RSG test"
    );
    println!("\noffline check: RSG acyclic -> wire-driven history is relatively serializable");

    // The recovery that pairs with `serve_net`'s log: it rebuilds exactly
    // the acknowledged commits from the synced segment.
    let mut fresh = RsgSgt::new(&sc.txns, &sc.spec);
    let (_, rec) = recover_segments_with_certifier(
        &sc.txns,
        &sc.spec,
        &mut fresh,
        &handle.synced_segments(),
        Certifier::VClock,
    )
    .expect("the log recovers");
    assert_eq!(rec.committed, report.committed, "recovered == acknowledged");
    println!(
        "recovery: {} records replayed -> the same {} commits, re-certified",
        rec.records,
        rec.committed.len()
    );
}
