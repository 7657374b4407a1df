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

use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_net::wire::{ErrorCode, Request, Response};
use relser_net::{
    drive_resilient, serve_net, ChaosPlan, NetConfig, NetReport, ResilientConfig, ResilientStats,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_server::core::FaultPlan;
use relser_server::OverloadPolicy;
use relser_wal::{CheckpointPolicy, FsyncPolicy, MemSegmentStore, SegmentedWal};
use relser_workload::banking::{banking, BankingConfig, BankingScenario};
use relser_workload::stream::RequestStream;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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
    let (store, _handle) = MemSegmentStore::new();
    let ckpt = CheckpointPolicy::never();
    let mut wal = SegmentedWal::new(Box::new(store), FsyncPolicy::Always, ckpt).expect("wal");
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
        reply_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    };
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

/// A bare wire client for the readiness contracts below: requests go out
/// one frame at a time, responses come back as they are.
struct RawClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    next_id: u64,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        RawClient {
            stream,
            rbuf: Vec::new(),
            next_id: 0,
        }
    }

    /// Sends what `make(req_id)` builds.
    fn send(&mut self, make: impl FnOnce(u64) -> Request) {
        self.next_id += 1;
        let mut frame = Vec::new();
        make(self.next_id).encode_into(&mut frame);
        self.stream.write_all(&frame).expect("send");
    }

    /// The next response, or `None` once the server closed the connection.
    fn recv(&mut self) -> Option<Response> {
        loop {
            if let Ok((resp, n)) = Response::decode(&self.rbuf) {
                self.rbuf.drain(..n);
                return Some(resp);
            }
            let mut tmp = [0u8; 256];
            match self.stream.read(&mut tmp).expect("recv") {
                0 => return None,
                n => self.rbuf.extend_from_slice(&tmp[..n]),
            }
        }
    }

    fn call(&mut self, make: impl FnOnce(u64) -> Request) -> Response {
        self.send(make);
        self.recv().expect("a response, not EOF")
    }
}

/// The request for operation `index` of `txn` (mode and object from
/// `txns`), once given its id.
fn op_request(txns: &TxnSet, txn: TxnId, index: u32) -> impl FnOnce(u64) -> Request {
    let op = OpId { txn, index };
    let real = txns.op(op).expect("op of the set");
    move |req_id| match real.mode {
        AccessMode::Read => Request::Read {
            req_id,
            op,
            object: real.object,
        },
        AccessMode::Write => Request::Write {
            req_id,
            op,
            object: real.object,
        },
    }
}

/// [`RawClient::call`], with the round trip's duration pushed to `rtts`.
fn timed_call(
    client: &mut RawClient,
    rtts: &mut Vec<Duration>,
    make: impl FnOnce(u64) -> Request,
) -> Response {
    let t0 = Instant::now();
    let resp = client.call(make);
    rtts.push(t0.elapsed());
    resp
}

/// The reactor waits for readiness; it does not sleep a quantum and look.
/// A ticking reactor pays about two quanta per one-in-flight round trip
/// (one before it reads the request, one before it notices the reply),
/// whatever the quantum is. Here the quantum is raised to 10 ms — so that
/// no scheduling noise of a shared runner can be mistaken for it — and
/// the median of 2 000 strictly one-in-flight round trips (500
/// conflict-free transactions: begin, read, write, commit) stays below
/// one quantum, because nothing on the path waits for it any more.
#[test]
fn one_in_flight_round_trips_beat_the_poll_quantum() {
    let mut txns = TxnSet::new();
    for i in 0..500 {
        let record = format!("r{i}");
        txns.add(&[(AccessMode::Read, &record), (AccessMode::Write, &record)])
            .expect("transaction");
    }
    let spec = AtomicitySpec::absolute(&txns);
    let cfg = NetConfig {
        reactors: 1,
        poll_quantum: Duration::from_millis(10),
        ..NetConfig::default()
    };
    let (report, mut rtts) = serve_net(
        &txns,
        Box::new(RsgSgt::new(&txns, &spec)),
        &cfg,
        &FaultPlan::default(),
        None,
        |addr| {
            let mut client = RawClient::connect(addr);
            let mut rtts = Vec::with_capacity(4 * txns.len());
            for txn in txns.txn_ids() {
                let begin = |req_id| Request::Begin { req_id, txn };
                let resp = timed_call(&mut client, &mut rtts, begin);
                assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
                for index in 0..2 {
                    let resp = timed_call(&mut client, &mut rtts, op_request(&txns, txn, index));
                    assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
                }
                let commit = |req_id| Request::Commit { req_id, txn };
                let resp = timed_call(&mut client, &mut rtts, commit);
                assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
            }
            rtts
        },
    )
    .expect("serve_net");

    assert_eq!(report.committed.len(), txns.len());
    rtts.sort_unstable();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < cfg.poll_quantum,
        "median round trip {median:?} over {} samples is not below poll_quantum {:?}",
        rtts.len(),
        cfg.poll_quantum
    );
}

/// An idle server is asleep: one open connection and 300 ms without
/// traffic cost the reactor its start-up wait, the wait after it adopted
/// the connection, and nothing else until the server stops.
#[test]
fn an_idle_server_does_not_wake_up() {
    let sc = banking(&BankingConfig::default(), 67);
    let (report, ()) = serve_net(
        &sc.txns,
        Box::new(RsgSgt::new(&sc.txns, &sc.spec)),
        &NetConfig {
            reactors: 1,
            ..NetConfig::default()
        },
        &FaultPlan::default(),
        None,
        |addr| {
            let _idle = RawClient::connect(addr);
            std::thread::sleep(Duration::from_millis(300));
        },
    )
    .expect("serve_net");

    assert_eq!(report.net.connections, 1);
    assert!(
        report.net.reactor_waits <= 3,
        "an idle reactor must block, not tick: {} waits",
        report.net.reactor_waits
    );
    assert!(report.net.doorbell_wakes <= report.net.reactor_waits);
}

/// A connection paused at `max_inflight` leaves its socket out of the
/// wait set: with the core silent on its one in-flight request (injected
/// reply loss) and unread bytes sitting in the socket, the reactor sleeps
/// until the reply watchdog is due instead of spinning on a level-
/// triggered "readable" it is not going to read.
#[test]
fn a_paused_connection_with_unread_bytes_does_not_spin_the_reactor() {
    let sc = banking(&BankingConfig::default(), 71);
    let cfg = NetConfig {
        max_inflight: 1,
        reply_timeout: Duration::from_millis(300),
        reactors: 1,
        ..NetConfig::default()
    };
    let faults = FaultPlan {
        drop_replies: vec![0],
        ..FaultPlan::default()
    };
    let mut ids = sc.txns.txn_ids();
    let (first, second) = (ids.next().unwrap(), ids.next().unwrap());
    let (report, (answer, then)) = serve_net(
        &sc.txns,
        Box::new(RsgSgt::new(&sc.txns, &sc.spec)),
        &cfg,
        &faults,
        None,
        |addr| {
            let mut client = RawClient::connect(addr);
            let resp = client.call(|req_id| Request::Begin { req_id, txn: first });
            assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
            // The request whose reply the core drops: in flight for good.
            client.send(op_request(&sc.txns, first, 0));
            // Let the reactor read and submit it, so that what follows
            // arrives at a paused socket and stays in it.
            std::thread::sleep(Duration::from_millis(50));
            client.send(|req_id| Request::Begin {
                req_id,
                txn: second,
            });
            (client.recv(), client.recv())
        },
    )
    .expect("serve_net");

    assert!(
        matches!(
            answer,
            Some(Response::Error {
                code: ErrorCode::ReplyLost,
                ..
            })
        ),
        "the watchdog still fires with the reactor parked: {answer:?}"
    );
    assert_eq!(then, None, "then the connection closes");
    assert_eq!(report.net.reply_lost_closes, 1);
    assert!(
        report.net.reactor_waits <= 16,
        "{} waits in a 300 ms stall: the reactor spun on the paused socket",
        report.net.reactor_waits
    );
}

/// A blocked operation is resubmitted on the wake-up of the progress bump
/// that unblocks it — not when its retry slice runs out. Strict 2PL: T1's
/// write waits for T0's lock; T0's commit bumps the epoch, which rings
/// the reactor holding T1's request. The retry slice is 10 s, so a grant
/// that only came with the slice would take that long.
#[test]
fn a_blocked_operation_is_resubmitted_on_the_bump_not_the_retry_slice() {
    let txns = TxnSet::parse(&["w1[x]", "w2[x]"]).expect("two conflicting writers");
    let (holder, waiter) = (TxnId(0), TxnId(1));
    let cfg = NetConfig {
        retry_slice: Duration::from_secs(10),
        block_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };
    let (report, unblocked_after) = serve_net(
        &txns,
        Box::new(TwoPhaseLocking::new(&txns)),
        &cfg,
        &FaultPlan::default(),
        None,
        |addr| {
            let (mut a, mut b) = (RawClient::connect(addr), RawClient::connect(addr));
            for (client, txn) in [(&mut a, holder), (&mut b, waiter)] {
                let resp = client.call(|req_id| Request::Begin { req_id, txn });
                assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
            }
            a.send(op_request(&txns, holder, 0));
            let resp = a.recv().expect("grant");
            assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
            // Blocks server-side: no response crosses the wire. Give the
            // core time to decide it and the reactor to go back to sleep.
            b.send(op_request(&txns, waiter, 0));
            std::thread::sleep(Duration::from_millis(200));
            let t0 = Instant::now();
            let resp = a.call(|req_id| Request::Commit {
                req_id,
                txn: holder,
            });
            assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
            let resp = b.recv().expect("grant after the holder committed");
            let unblocked_after = t0.elapsed();
            assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
            let resp = b.call(|req_id| Request::Commit {
                req_id,
                txn: waiter,
            });
            assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
            unblocked_after
        },
    )
    .expect("serve_net");

    assert_eq!(report.committed, vec![holder, waiter]);
    assert!(report.net.retries >= 1, "the waiter did block");
    assert!(
        unblocked_after < Duration::from_secs(2),
        "unblocked after {unblocked_after:?}: that is the retry slice, not the bump"
    );
}
