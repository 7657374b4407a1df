//! Four front-ends, one verdict: the same shard-local universe (every
//! transaction owned by one shard of the two-way partition) served
//! durably through each entry point of the service — `serve_sharded` over
//! one scheduler and over two, `serve_net`, `serve_net_supervised_in` —
//! and each log recovered by the recovery function that pairs with its
//! shape. Whatever
//! the front-end, every transaction commits exactly once, recovery
//! rebuilds exactly the committed set the live run acknowledged, and the
//! recovered history is relatively serializable (`vclock::certify`).
//!
//! The universe runs twice: under RSG-SGT, which never answers `Blocked`,
//! and under strict 2PL, the one scheduler here that does — so every
//! front-end also drives blocked → parked → resubmitted through the one
//! per-operation state machine (`relser_server::Flight`) on its way to
//! the same verdict.
//!
//! Both TCP entry points also write the same commit record — a
//! sessionless client's commit is a plain `Commit` on either, because
//! nothing orders one shard's commits against another's — and answer a
//! retried sessionful commit the same way: from the retry table their
//! cores write, without reaching a core again.

use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::schedule::Schedule;
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_net::wire::{Request, Response};
use relser_net::{
    drive_resilient, serve_net, serve_net_supervised_in, ChaosPlan, NetConfig, ResilientConfig,
    SuperviseNetConfig,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_protocols::Scheduler;
use relser_server::{
    recover_and_resume, recover_segments_with_certifier, recover_sharded_segments_with_certifier,
    serve_sharded, Certifier, FaultPlan, RunOutcome, ServerConfig,
};
use relser_wal::{
    scan, CheckpointPolicy, CommitLog, MemSegmentStore, MemSegmentsHandle, SegmentedWal, WalRecord,
};
use relser_workload::random::{random_spec, shard_local_txns, RandomConfig};
use relser_workload::stream::RequestStream;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const ARRIVAL_SEED: u64 = 7;

/// `scheduler` and a never-rotating log opened on an empty in-memory
/// store as `shard`'s (its head stamped with the id), with the log's read
/// handle: what the unsupervised front-ends here serve on.
fn open_log<'a>(
    (txns, spec): (&TxnSet, &AtomicitySpec),
    scheduler: Box<dyn Scheduler + Send + 'a>,
    shard: u32,
) -> (
    SegmentedWal,
    Box<dyn Scheduler + Send + 'a>,
    MemSegmentsHandle,
) {
    let handle = MemSegmentStore::new().1;
    let ckpt = CheckpointPolicy::never();
    let (wal, scheduler, _) =
        recover_and_resume(handle.clone(), scheduler, txns, spec, shard, ckpt)
            .expect("an empty in-memory store opens");
    (wal, scheduler, handle)
}

/// The verdict every front-end is held to: `recovered` is every
/// transaction exactly once and equals the live run's committed set, and
/// `history` is a schedule of the whole universe that certifies.
fn assert_verdict(
    front_end: &str,
    (txns, spec): (&TxnSet, &AtomicitySpec),
    mut live: Vec<TxnId>,
    mut recovered: Vec<TxnId>,
    history: Vec<OpId>,
) {
    recovered.sort_unstable();
    let all: Vec<TxnId> = txns.txn_ids().collect();
    assert_eq!(
        recovered, all,
        "{front_end}: every transaction recovered committed, exactly once"
    );
    live.sort_unstable();
    assert_eq!(live, recovered, "{front_end}: recovered == live committed");
    let schedule = Schedule::new(txns, history)
        .unwrap_or_else(|e| panic!("{front_end}: recovered history is not a schedule: {e}"));
    assert!(
        vclock::certify(txns, &schedule, spec).is_acyclic(),
        "{front_end}: recovered history is relatively serializable"
    );
}

/// Few, Zipf-hot objects per shard, so multi-object transactions run
/// into each other's locks on every shard and through every front-end.
fn universe() -> (TxnSet, AtomicitySpec) {
    let universe = RandomConfig {
        txns: 48,
        ops_per_txn: (2, 5),
        objects: 8,
        theta: 0.8,
        write_ratio: 0.5,
    };
    let txns = shard_local_txns(&universe, &ShardMap::new(2), 42);
    let spec = random_spec(&txns, 0.4, 42);
    (txns, spec)
}

#[test]
fn four_front_ends_one_verdict() {
    let (txns, spec) = universe();
    let sc = (&txns, &spec);
    four_front_ends(sc, &|| Box::new(RsgSgt::new(&txns, &spec)), false);
    // Conflict-serializable histories are relatively serializable under
    // every spec, so 2PL is held to the same certificate.
    four_front_ends(sc, &|| Box::new(TwoPhaseLocking::new(&txns)), true);
}

/// Serves `sc` through each of the four entry points on schedulers made
/// by `fresh`. `blocking`: the scheduler answers `Blocked` under
/// contention, and every front-end must have seen it do so.
fn four_front_ends<'a>(
    sc: (&TxnSet, &AtomicitySpec),
    fresh: &(dyn Fn() -> Box<dyn Scheduler + Send + 'a> + Sync),
    blocking: bool,
) {
    let (txns, spec) = sc;
    let stream = || RequestStream::shuffled(txns, ARRIVAL_SEED);
    let assert_blocked = |front_end: &str, blocked: u64| {
        assert!(
            !blocking || blocked >= 1,
            "{front_end}: no operation ever blocked, parked and was resubmitted"
        );
    };
    // Both TCP front-ends are driven by the one client.
    let drive = |addr, stream: &RequestStream| {
        drive_resilient(
            addr,
            txns,
            stream,
            &ResilientConfig::default(),
            &ChaosPlan::quiet(),
        )
    };
    let cfg = ServerConfig {
        workers: 8,
        // Granted operations take a while, so locks are held across
        // other sessions' requests.
        op_work_ns: 200_000,
        ..ServerConfig::default()
    };

    // `serve_sharded` (N = 1) over one log, recovered by
    // `recover_segments_with_certifier`.
    {
        let (mut wal, scheduler, handle) = open_log(sc, fresh(), 0);
        let report = serve_sharded(txns, &stream(), vec![scheduler], &cfg, &[], vec![&mut wal]);
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_blocked("serve_sharded (N = 1)", report.metrics.blocked);
        let (_, rec) = recover_segments_with_certifier(
            txns,
            spec,
            &mut *fresh(),
            &handle.synced_segments(),
            Certifier::VClock,
        )
        .expect("the log recovers");
        assert_verdict(
            "serve_sharded (N = 1)",
            sc,
            report.committed,
            rec.committed,
            rec.history,
        );
    }

    // `serve_sharded` (N = 2) over one log per shard, recovered by
    // `recover_sharded_segments_with_certifier`.
    {
        let [(mut w0, s0, h0), (mut w1, s1, h1)] = [0, 1].map(|shard| open_log(sc, fresh(), shard));
        let report = serve_sharded(
            txns,
            &stream(),
            vec![s0, s1],
            &cfg,
            &[],
            vec![&mut w0 as &mut dyn CommitLog, &mut w1],
        );
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_blocked("serve_sharded (N = 2)", report.metrics.blocked);
        let streams = [h0.synced_segments(), h1.synced_segments()];
        let rec = recover_sharded_segments_with_certifier(
            txns,
            spec,
            |_| fresh() as Box<dyn Scheduler + '_>,
            &streams,
            Certifier::VClock,
        )
        .expect("per-shard logs recover");
        assert_eq!(rec.certified, rec.committed, "empty heads: all certified");
        assert_verdict(
            "serve_sharded (N = 2)",
            sc,
            report.committed,
            rec.committed,
            rec.history,
        );
    }

    // `serve_net` over one log (never compacted, so the whole history
    // comes back), recovered by `recover_segments_with_certifier`.
    {
        let (mut wal, scheduler, handle) = open_log(sc, fresh(), 0);
        let (report, stats) = serve_net(
            txns,
            scheduler,
            &NetConfig::default(),
            &FaultPlan::default(),
            Some(&mut wal),
            |addr| drive(addr, &stream()),
        )
        .expect("serve_net");
        assert_eq!(stats.committed.len(), txns.len());
        assert_blocked("serve_net", report.metrics.blocked);
        let (_, rec) = recover_segments_with_certifier(
            txns,
            spec,
            &mut *fresh(),
            &handle.synced_segments(),
            Certifier::VClock,
        )
        .expect("segmented log recovers");
        assert_verdict(
            "serve_net",
            sc,
            report.committed,
            rec.committed,
            rec.history,
        );
    }

    // `serve_net_supervised_in` (N = 1) over its segment store, recovered
    // by `recover_sharded_segments_with_certifier`. Live committed is
    // what the client was acknowledged.
    {
        let sup = SuperviseNetConfig {
            shards: 1,
            ..SuperviseNetConfig::default()
        };
        let stores = [MemSegmentStore::new().1];
        let (report, stats) = serve_net_supervised_in(
            txns,
            spec,
            |_| fresh(),
            &NetConfig::default(),
            &sup,
            &[],
            &stores,
            |addr| drive(addr, &stream()),
        )
        .expect("serve_net_supervised_in");
        assert_blocked("serve_net_supervised_in", report.report.metrics.blocked);
        let acked: Vec<TxnId> = stats.committed.iter().map(|&(t, _)| t).collect();
        let rec = recover_sharded_segments_with_certifier(
            txns,
            spec,
            |_| fresh() as Box<dyn Scheduler + '_>,
            &[stores[0].synced_segments()],
            Certifier::VClock,
        )
        .expect("segment stream recovers");
        assert_eq!(rec.certified, rec.committed, "empty heads: all certified");
        assert_verdict(
            "serve_net_supervised_in",
            sc,
            acked,
            rec.committed,
            rec.history,
        );
    }
}

/// A blocking connection to `addr`: send one request, read its response.
fn connect(addr: SocketAddr) -> impl FnMut(Request) -> Response {
    let mut sock = TcpStream::connect(addr).expect("connect");
    // A missing reply fails the test instead of hanging it.
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    move |req: Request| {
        let mut out = Vec::new();
        req.encode_into(&mut out);
        sock.write_all(&out).expect("request write");
        let mut buf = Vec::new();
        let mut tmp = [0u8; 256];
        loop {
            if let Ok((resp, _)) = Response::decode(&buf) {
                return resp;
            }
            let n = sock.read(&mut tmp).expect("response read");
            assert!(n > 0, "the server closed the connection");
            buf.extend_from_slice(&tmp[..n]);
        }
    }
}

/// Runs `txn` from its begin through every operation in program order,
/// each granted, on `call`'s connection; request ids come from `next`.
fn run_txn(
    call: &mut impl FnMut(Request) -> Response,
    next: &mut impl FnMut() -> u64,
    txns: &TxnSet,
    txn: TxnId,
) {
    let resp = call(Request::Begin {
        req_id: next(),
        txn,
    });
    assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
    for op in txns.txn(txn).op_ids() {
        let (req_id, object) = (next(), txns.op(op).unwrap().object);
        let resp = call(match txns.op(op).unwrap().mode {
            AccessMode::Read => Request::Read { req_id, op, object },
            AccessMode::Write => Request::Write { req_id, op, object },
        });
        assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
    }
}

/// One sessionless client (no `Hello`) runs every transaction serially —
/// begin, operations in program order, commit — on one blocking socket.
fn run_serially(addr: SocketAddr, txns: &TxnSet) {
    let mut call = connect(addr);
    let mut req_id = 0;
    let mut next = || {
        req_id += 1;
        req_id
    };
    for txn in txns.txn_ids() {
        run_txn(&mut call, &mut next, txns, txn);
        let resp = call(Request::Commit {
            req_id: next(),
            txn,
        });
        assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
    }
}

/// One session (`Hello`) runs `txn` and commits it, then sends the same
/// `Commit` again, as a client does that never saw the first answer:
/// both are answered `Committed`.
fn commit_twice(addr: SocketAddr, txns: &TxnSet, txn: TxnId) {
    let mut call = connect(addr);
    let mut req_id = 0;
    let mut next = || {
        req_id += 1;
        req_id
    };
    let resp = call(Request::Hello {
        req_id: next(),
        session: 7,
        resume_from: 0,
    });
    assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    run_txn(&mut call, &mut next, txns, txn);
    let commit = Request::Commit {
        req_id: next(),
        txn,
    };
    for _ in 0..2 {
        let resp = call(commit);
        assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
    }
}

/// A retried sessionful commit is answered from the retry table on both
/// TCP entry points, without reaching the core: `serve_net`'s core writes
/// the table its reactors read, as every supervised shard core does. The
/// core sees the begin, the operations and one commit, nothing more.
#[test]
fn a_retried_commit_takes_the_fast_path_on_both_tcp_entry_points() {
    let (txns, spec) = universe();
    let txn = TxnId(0);
    let commands = txns.txn(txn).len() as u64 + 2;

    let (report, ()) = serve_net(
        &txns,
        Box::new(RsgSgt::new(&txns, &spec)),
        &NetConfig::default(),
        &FaultPlan::default(),
        None,
        |addr| commit_twice(addr, &txns, txn),
    )
    .expect("serve_net");
    assert_eq!(
        (report.net.dup_commit_fast, report.metrics.commands),
        (1, commands),
        "serve_net"
    );

    let sup = SuperviseNetConfig {
        shards: 1,
        ..SuperviseNetConfig::default()
    };
    let stores = [MemSegmentStore::new().1];
    let (report, ()) = serve_net_supervised_in(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &NetConfig::default(),
        &sup,
        &[],
        &stores,
        |addr| commit_twice(addr, &txns, txn),
    )
    .expect("serve_net_supervised_in");
    assert_eq!(
        (
            report.report.net.dup_commit_fast,
            report.report.metrics.commands
        ),
        (1, commands),
        "serve_net_supervised_in"
    );
}

/// `(plain Commit records, every other kind of commit record)` in a log.
fn commit_kinds(records: &[WalRecord]) -> (usize, usize) {
    let mut kinds = (0, 0);
    for record in records {
        match record {
            WalRecord::Commit(_) => kinds.0 += 1,
            WalRecord::Begin(_)
            | WalRecord::Grant(_)
            | WalRecord::Abort(_)
            | WalRecord::Checkpoint(_) => {}
            _ => kinds.1 += 1,
        }
    }
    kinds
}

/// A sessionless commit is a plain `Commit` record whichever TCP entry
/// point serves it: `serve_net`'s core and a one-shard
/// `serve_net_supervised_in`'s core write the same record, and no other
/// commit kind.
#[test]
fn sessionless_commits_are_plain_commit_records_on_both_tcp_entry_points() {
    let (txns, spec) = universe();
    let cfg = NetConfig::default();

    let fresh = Box::new(RsgSgt::new(&txns, &spec));
    let (mut wal, scheduler, handle) = open_log((&txns, &spec), fresh, 0);
    let (report, ()) = serve_net(
        &txns,
        scheduler,
        &cfg,
        &FaultPlan::default(),
        Some(&mut wal),
        |addr| run_serially(addr, &txns),
    )
    .expect("serve_net");
    assert_eq!(report.committed.len(), txns.len());
    let plain = scan(&handle.segments()[0].1).records;
    assert_eq!(commit_kinds(&plain), (txns.len(), 0), "serve_net");

    // Never compacted, so every commit record stays in the store.
    let sup = SuperviseNetConfig {
        shards: 1,
        ckpt: CheckpointPolicy::never(),
    };
    let stores = [MemSegmentStore::new().1];
    let (report, ()) = serve_net_supervised_in(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &cfg,
        &sup,
        &[],
        &stores,
        |addr| run_serially(addr, &txns),
    )
    .expect("serve_net_supervised_in");
    assert_eq!(report.recovery.committed.len(), txns.len());
    let sharded: Vec<WalRecord> = stores[0]
        .segments()
        .iter()
        .flat_map(|(_, bytes)| scan(bytes).records)
        .collect();
    assert_eq!(
        commit_kinds(&sharded),
        (txns.len(), 0),
        "serve_net_supervised_in"
    );
}
