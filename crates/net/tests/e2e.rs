//! End-to-end tests over real sockets: the banking workload driven
//! through the TCP front-end, pipelined across ≥64 concurrent
//! connections, with every committed history re-certified by the offline
//! RSG oracle — plus the degrade-don't-die contracts (shed, corrupt
//! frames, lost replies) exercised wire-to-wire.
//!
//! Every test here ends the same way: take the server's granted-op log,
//! rebuild the schedule, and assert
//! `Rsg::build(&txns, &history, &spec).is_acyclic()` — the network layer
//! must never be able to commit a history the paper's oracle rejects.

use relser_core::ids::TxnId;
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_net::wire::{ErrorCode, Response};
use relser_net::{
    drive_resilient, serve_net, ChaosPlan, NetConfig, NetReport, ResilientConfig, ResilientStats,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_server::core::FaultPlan;
use relser_server::OverloadPolicy;
use relser_wal::{FsyncPolicy, MemStorage, WalWriter};
use relser_workload::banking::{banking, BankingConfig, BankingScenario};
use relser_workload::stream::RequestStream;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A banking universe big enough to keep 64 connections busy at once.
fn big_banking(seed: u64) -> BankingScenario {
    banking(
        &BankingConfig {
            families: 64,
            accounts_per_family: 3,
            customers_per_family: 3,
            transfers_per_customer: 2,
            credit_audits: true,
            bank_audit: true,
        },
        seed,
    )
}

/// Offline re-certification: project the universe onto the committed
/// transactions (runs with degraded connections commit a strict subset),
/// interpret the granted log as a schedule of that sub-universe, and
/// demand its RSG be acyclic under the projected specification.
fn recertify(txns: &TxnSet, spec: &AtomicitySpec, report: &NetReport) {
    for op in &report.log {
        assert!(
            report.committed.contains(&op.txn),
            "history holds ops of committed transactions only"
        );
    }
    let p = Projection::subset(txns, spec, &report.committed).expect("committed projection");
    let history = p
        .schedule(&report.log)
        .expect("granted log is a schedule of the committed sub-universe");
    let rsg = Rsg::build(&p.txns, &history, &p.spec);
    assert!(
        rsg.is_acyclic(),
        "committed history must be relatively serializable (RSG acyclic)"
    );
}

/// The one client as these contracts need it: no wire faults, and no
/// reconnect budget — a lost connection is final, so a connection the
/// server degrades shows up as `dead_connections`, its in-flight
/// transactions as `lost`. The deadline is wide enough that only the
/// server's own watchdog ever closes a connection.
fn final_loss(connections: usize, streams: usize) -> ResilientConfig {
    ResilientConfig {
        connections,
        streams,
        deadline: Duration::from_secs(30),
        max_reconnects: 0,
        ..ResilientConfig::default()
    }
}

/// Every transaction the client says committed, the server committed —
/// and vice versa.
fn reconcile(report: &NetReport, stats: &ResilientStats, total: usize) {
    assert_eq!(stats.committed.len(), report.committed.len());
    for (txn, _) in &stats.committed {
        assert!(report.committed.contains(txn), "acked {txn:?} is committed");
    }
    assert_eq!(
        stats.committed.len() + stats.lost.len(),
        total,
        "every transaction settled: committed or accounted lost"
    );
    for txn in &stats.lost {
        assert!(
            !report.committed.contains(txn),
            "a lost transaction must not appear committed ({txn:?})"
        );
    }
}

/// The acceptance test: banking over real TCP, 64 concurrent
/// connections, 4 transaction streams pipelined per connection, every
/// commit acknowledged wire-to-wire and the full history re-certified.
#[test]
fn banking_over_64_pipelined_connections_is_recertified() {
    let sc = big_banking(11);
    let total = sc.txns.len();
    let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
    let stream = RequestStream::shuffled(&sc.txns, 7);
    let cfg = NetConfig {
        reactors: 4,
        ..NetConfig::default()
    };
    let load = final_loss(64, 4);
    let (report, stats) = serve_net(
        &sc.txns,
        scheduler,
        &cfg,
        &FaultPlan::default(),
        None,
        |addr| drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet()),
    )
    .expect("serve_net");

    assert_eq!(stats.dead_connections, 0, "no connection may die");
    assert_eq!(stats.committed.len(), total, "every transaction commits");
    assert!(stats.lost.is_empty());
    assert_eq!(report.net.connections, 64);
    reconcile(&report, &stats, total);
    recertify(&sc.txns, &sc.spec, &report);

    // Wire-to-wire accounting: every stage of every request was timed.
    let committed_ops = sc.txns.total_ops() as u64;
    assert!(report.net.decode.count() > 0, "decode stage timed");
    assert!(report.admit.count() >= committed_ops, "admit stage timed");
    assert!(report.net.reply.count() > 0, "reply stage timed");
    assert!(report.net.wire.count() > 0, "wire-to-wire timed");
    assert!(report.metrics.queue_wait.count() > 0, "queue wait timed");
}

/// Same drive with a real (in-memory) WAL under `FsyncPolicy::Always`:
/// the fsync sits inside the wire-to-wire commit path and is timed as
/// its own stage.
#[test]
fn durable_commits_time_the_fsync_stage() {
    let sc = banking(&BankingConfig::default(), 3);
    let total = sc.txns.len();
    let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
    let stream = RequestStream::shuffled(&sc.txns, 5);
    let (mem, _handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).expect("wal");
    let load = final_loss(4, 2);
    let (report, stats) = serve_net(
        &sc.txns,
        scheduler,
        &NetConfig::default(),
        &FaultPlan::default(),
        Some(&mut wal),
        |addr| drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet()),
    )
    .expect("serve_net");

    assert_eq!(stats.committed.len(), total);
    assert!(
        report.metrics.wal_sync.count() > 0,
        "fsyncs inside the commit path must be timed"
    );
    recertify(&sc.txns, &sc.spec, &report);
}

/// Under `OverloadPolicy::Shed` with a starved queue, overload surfaces
/// as explicit wire-level `Shed` responses — and since the client
/// retries them, the run still commits everything and re-certifies.
#[test]
fn shed_policy_answers_shed_on_the_wire() {
    let sc = big_banking(17);
    let total = sc.txns.len();
    let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
    let stream = RequestStream::shuffled(&sc.txns, 23);
    // A one-slot queue under 128 pipelined streams starves deferred
    // begins/commits for a long time by design; a generous reply
    // watchdog keeps the server from culling alive-but-starved
    // connections on slow (debug, loaded) machines — this test measures
    // shed semantics, not watchdog tuning.
    let cfg = NetConfig {
        reactors: 2,
        queue_capacity: 1,
        batch_max: 1,
        policy: OverloadPolicy::Shed,
        ..NetConfig::default()
    }
    .with_reply_timeout(Duration::from_secs(60));
    let load = ResilientConfig {
        deadline: Duration::from_secs(120),
        ..final_loss(16, 8)
    };
    let (report, stats) = serve_net(
        &sc.txns,
        scheduler,
        &cfg,
        &FaultPlan::default(),
        None,
        |addr| drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet()),
    )
    .expect("serve_net");

    assert_eq!(
        stats.dead_connections, 0,
        "no connection may die under pure shed backpressure: {stats:?}"
    );
    assert_eq!(
        stats.committed.len(),
        total,
        "sheds are retried, not lost: {stats:?}"
    );
    assert_eq!(
        stats.sheds, report.net.sheds,
        "client and server agree on sheds"
    );
    assert!(
        report.net.sheds > 0,
        "a one-slot queue under 128 pipelined streams must shed"
    );
    recertify(&sc.txns, &sc.spec, &report);
}

/// Strict 2PL over the wire: operations block server-side (the reactor
/// resubmits them on progress, never exposing `Blocked` to the client)
/// and deadlocks resolve as wire-level `Aborted` responses the client
/// restarts from. Conflict-serializable ⇒ RSG-acyclic under the
/// absolute specification (Lemma 1).
#[test]
fn two_pl_blocks_and_restarts_over_the_wire() {
    let sc = banking(&BankingConfig::default(), 29);
    let total = sc.txns.len();
    let absolute = AtomicitySpec::absolute(&sc.txns);
    let scheduler = Box::new(TwoPhaseLocking::new(&sc.txns));
    let stream = RequestStream::shuffled(&sc.txns, 31);
    let cfg = NetConfig {
        block_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    };
    let load = final_loss(4, 2);
    let (report, stats) = serve_net(
        &sc.txns,
        scheduler,
        &cfg,
        &FaultPlan::default(),
        None,
        |addr| drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet()),
    )
    .expect("serve_net");

    assert_eq!(stats.committed.len(), total, "restarts retry to commit");
    recertify(&sc.txns, &absolute, &report);
}

/// A client that speaks garbage is answered `Error(BadRequest)` and
/// disconnected — while well-behaved connections on the same server
/// keep committing, and the history still re-certifies.
#[test]
fn corrupt_frames_close_one_connection_not_the_server() {
    let sc = banking(&BankingConfig::default(), 41);
    let total = sc.txns.len();
    let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
    let stream = RequestStream::shuffled(&sc.txns, 43);
    let load = final_loss(4, 2);
    let (report, (stats, vandal_reply)) = serve_net(
        &sc.txns,
        scheduler,
        &NetConfig::default(),
        &FaultPlan::default(),
        None,
        |addr| {
            // The vandal: a valid length prefix with a corrupt body.
            let mut vandal = TcpStream::connect(addr).expect("connect");
            let mut garbage = 12u32.to_le_bytes().to_vec();
            garbage.extend_from_slice(&[0xde; 16]);
            vandal.write_all(&garbage).expect("write garbage");
            // Honest load on other connections, concurrently.
            let stats = drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet());
            // The vandal got a typed error, then EOF — nothing else.
            let mut buf = Vec::new();
            vandal.read_to_end(&mut buf).expect("read to eof");
            (stats, buf)
        },
    )
    .expect("serve_net");

    let (resp, n) = Response::decode(&vandal_reply).expect("typed error before close");
    assert_eq!(n, vandal_reply.len(), "error is the last thing sent");
    assert!(
        matches!(
            resp,
            Response::Error {
                req_id: 0,
                code: ErrorCode::BadRequest
            }
        ),
        "got {resp:?}"
    );
    assert_eq!(report.net.bad_frame_closes, 1);
    assert_eq!(stats.dead_connections, 0, "honest connections unharmed");
    assert_eq!(stats.committed.len(), total);
    recertify(&sc.txns, &sc.spec, &report);
}

/// An injected reply loss (the core silently drops one request's reply
/// cell) degrades exactly the connection that owned the request: the
/// server's watchdog answers `Error(ReplyLost)` and closes it, its
/// in-flight transactions are aborted and accounted lost by the client,
/// and everything else commits and re-certifies.
#[test]
fn lost_reply_degrades_only_its_connection() {
    let sc = big_banking(53);
    let total = sc.txns.len();
    let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
    let stream = RequestStream::shuffled(&sc.txns, 59);
    let faults = FaultPlan {
        drop_replies: vec![40],
        ..FaultPlan::default()
    };
    let cfg = NetConfig {
        // Short enough to fire inside the test's lifetime, long enough
        // that a scheduling stall on a loaded test machine cannot trip
        // the watchdog on an innocent connection.
        reply_timeout: Duration::from_secs(2),
        ..NetConfig::default()
    };
    let load = final_loss(8, 4);
    let (report, stats) = serve_net(&sc.txns, scheduler, &cfg, &faults, None, |addr| {
        drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet())
    })
    .expect("serve_net");

    assert_eq!(report.net.reply_lost_closes, 1, "exactly one victim");
    assert_eq!(stats.dead_connections, 1);
    assert!(
        !stats.lost.is_empty() && stats.lost.len() <= load.streams,
        "the victim loses at most its in-flight streams, lost {}",
        stats.lost.len()
    );
    assert!(
        stats.committed.len() >= total - load.streams,
        "everyone else keeps committing"
    );
    reconcile(&report, &stats, total);
    recertify(&sc.txns, &sc.spec, &report);
}

/// Pipelining is real: with one connection and K streams, responses for
/// different streams interleave (the server answers out of lockstep),
/// yet program order holds per stream and the history re-certifies.
#[test]
fn single_connection_pipelines_multiple_streams() {
    let sc = banking(&BankingConfig::default(), 61);
    let total = sc.txns.len();
    let scheduler = Box::new(RsgSgt::new(&sc.txns, &sc.spec));
    let stream = RequestStream::in_order(&sc.txns);
    let load = final_loss(1, 4);
    let (report, stats) = serve_net(
        &sc.txns,
        scheduler,
        &NetConfig::default(),
        &FaultPlan::default(),
        None,
        |addr| drive_resilient(addr, &sc.txns, &stream, &load, &ChaosPlan::quiet()),
    )
    .expect("serve_net");

    assert_eq!(stats.committed.len(), total);
    assert_eq!(report.net.connections, 1);
    // Program order per transaction, straight from the granted log.
    let mut last: std::collections::HashMap<TxnId, u32> = std::collections::HashMap::new();
    for op in &report.log {
        if let Some(prev) = last.insert(op.txn, op.index) {
            assert!(op.index > prev, "program order within a stream");
        }
    }
    recertify(&sc.txns, &sc.spec, &report);
}
