//! Robustness end-to-end tests: shard-core supervision, exactly-once
//! client retries, graceful shutdown, whole-service restart, and the
//! seeded network chaos sweep — all over real loopback sockets.
//!
//! The contract every test closes on: **zero acked-commit loss, zero
//! duplicate commits**, and a merged committed history the offline
//! Theorem 1 test re-certifies (`Rsg::build(..).is_acyclic()` on the
//! committed projection) — the cross-check of the vector-clock certifier
//! recovery ran on the same history.

use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_net::wire::{Request, Response};
use relser_net::{
    drive_resilient, serve_net_supervised_in, ChaosPlan, NetConfig, ResilientConfig,
    ResilientStats, SuperviseNetConfig, SupervisedNetReport,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::AbortReason;
use relser_server::core::FaultPlan;
use relser_server::recovery::ShardedRecovery;
use relser_wal::{scan, CheckpointPolicy, MemSegmentStore, MemSegmentsHandle, WalRecord};
use relser_workload::random::{shard_local_txns, RandomConfig};
use relser_workload::stream::RequestStream;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A shard-local universe with real conflicts: `n_txns` multi-object,
/// multi-operation transactions contend, Zipf-skewed, on `n_objects`
/// objects, each owned by exactly one shard of the two-way partition (and
/// so of the one-way partition too) — all of them admissible over the
/// wire, and both shards own work.
fn local_universe(n_txns: usize, n_objects: usize) -> (TxnSet, AtomicitySpec) {
    let cfg = RandomConfig {
        txns: n_txns,
        ops_per_txn: (1, 4),
        objects: n_objects,
        theta: 0.6,
        write_ratio: 0.5,
    };
    let map = ShardMap::new(2);
    let txns = shard_local_txns(&cfg, &map, 0x5AD);
    for shard in 0..2 {
        let owns = |t| map.owner_of_txn(&txns, t) == Some(shard);
        assert!(txns.txn_ids().any(owns), "shard {shard} owns work");
    }
    let spec = AtomicitySpec::absolute(&txns);
    (txns, spec)
}

fn stores_for(shards: usize) -> Vec<MemSegmentsHandle> {
    (0..shards).map(|_| MemSegmentStore::new().1).collect()
}

/// The acked-exactly-once contract plus offline re-certification:
/// every commit the client saw acked is in the recovered committed set,
/// no transaction was acked twice, and the merged history passes the
/// paper's oracle on the committed projection.
fn audit(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    report: &SupervisedNetReport,
    stats: &ResilientStats,
) {
    let mut acked: Vec<TxnId> = stats.committed.iter().map(|&(t, _)| t).collect();
    let n = acked.len();
    acked.sort_unstable();
    acked.dedup();
    assert_eq!(acked.len(), n, "no transaction is acked committed twice");
    for txn in &acked {
        assert!(
            report.recovery.committed.contains(txn),
            "acked commit {txn:?} must survive in the recovered history"
        );
    }
    let mut recovered = report.recovery.committed.clone();
    let total = recovered.len();
    recovered.sort_unstable();
    recovered.dedup();
    assert_eq!(recovered.len(), total, "no duplicate commits in recovery");

    let p =
        Projection::subset(txns, spec, &report.recovery.certified).expect("certified projection");
    let history = p
        .schedule(&report.recovery.history)
        .expect("merged history is a schedule of the certified sub-universe");
    assert!(
        Rsg::build(&p.txns, &history, &p.spec).is_acyclic(),
        "merged committed history must re-certify (RSG acyclic)"
    );
}

/// Kill shard 0's core mid-run: the supervisor must recover it in place
/// (restarts ≥ 1), the other shard must keep committing throughout, and
/// the client — quiet wire, retries only — must land every transaction
/// with no acked loss and no duplicates.
#[test]
fn shard_core_crash_recovers_in_place_without_losing_acks() {
    let (txns, spec) = local_universe(120, 8);
    let total = txns.len();
    let stream = RequestStream::shuffled(&txns, 3);
    let cfg = NetConfig::default();
    let sup = SuperviseNetConfig::default();
    let stores = stores_for(sup.shards);
    let faults = vec![
        FaultPlan {
            crash_at_command: Some(60),
            ..FaultPlan::default()
        },
        FaultPlan::default(),
    ];
    let rcfg = ResilientConfig::default();
    let (report, stats) = serve_net_supervised_in(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &cfg,
        &sup,
        &faults,
        &stores,
        |addr| drive_resilient(addr, &txns, &stream, &rcfg, &ChaosPlan::quiet()),
    )
    .expect("serve_net_supervised_in");

    assert!(stats.lost.is_empty(), "nothing lost: {:?}", stats.lost);
    assert_eq!(stats.committed.len(), total, "every transaction committed");
    assert!(
        report.runs[0].restarts >= 1,
        "shard 0 crashed and was restarted in place"
    );
    assert!(!report.runs[0].gave_up && !report.runs[1].gave_up);
    assert!(
        !report.recovery.shards[1].committed.is_empty(),
        "the non-degraded shard kept committing"
    );
    assert!(
        report.report.metrics.supervisor_restarts >= 1,
        "supervisor restarts surface in the merged metrics"
    );
    audit(&txns, &spec, &report, &stats);
}

/// Regression (acked-commit loss at the final merge): under
/// `CheckpointPolicy::default()` a live shard core's checkpoint prunes
/// the events of retired committed transactions, and sharded recovery
/// once demoted every such commit to `partial` — 0 of 1 024 acknowledged
/// commits came back. Recovery now counts a commit the newest checkpoint
/// lists as committed, on the checkpoint's word: with enough transactions
/// for several rotations, every acked commit is in the recovered
/// committed set — on one shard, on two, and on two when a core crashes
/// after its first rotation and the resumed incarnation rotates again.
#[test]
fn checkpoint_rotation_keeps_every_acked_commit_through_the_final_merge() {
    let (txns, spec) = local_universe(1_100, 64);
    let stream_seed = 5;
    for (shards, crash_at) in [(1, None), (2, None), (2, Some(1_500))] {
        let stream = RequestStream::shuffled(&txns, stream_seed);
        let cfg = NetConfig::default();
        let sup = SuperviseNetConfig {
            shards,
            ..SuperviseNetConfig::default()
        };
        assert_eq!(sup.ckpt, relser_wal::CheckpointPolicy::default());
        let stores = stores_for(shards);
        let mut faults = vec![FaultPlan::default(); shards];
        faults[0].crash_at_command = crash_at;
        let (report, stats) = serve_net_supervised_in(
            &txns,
            &spec,
            |_| Box::new(RsgSgt::new(&txns, &spec)),
            &cfg,
            &sup,
            &faults,
            &stores,
            |addr| {
                drive_resilient(
                    addr,
                    &txns,
                    &stream,
                    &ResilientConfig::default(),
                    &ChaosPlan::quiet(),
                )
            },
        )
        .expect("serve_net_supervised_in");
        let case = format!("shards={shards} crash_at={crash_at:?}");

        assert!(stats.lost.is_empty(), "{case}: lost {:?}", stats.lost);
        assert_eq!(stats.committed.len(), txns.len(), "{case}");
        assert_eq!(
            report.runs[0].restarts,
            u64::from(crash_at.is_some()),
            "{case}"
        );
        let checkpoints: u64 = report.runs.iter().map(|r| r.output.checkpoints).sum();
        let deleted: u64 = stores.iter().map(|s| s.deleted()).sum();
        assert!(checkpoints >= 1, "{case}: the log must rotate");
        assert!(deleted >= checkpoints, "{case}: rotation deletes segments");
        let certified_ops: usize = report
            .recovery
            .certified
            .iter()
            .map(|&t| txns.txn(t).len())
            .sum();
        assert_eq!(
            report.recovery.history.len(),
            certified_ops,
            "{case}: certified commits are whole"
        );
        for (txn, _) in &stats.committed {
            assert!(
                report.recovery.committed.contains(txn),
                "{case}: acked commit {txn:?} lost at the final merge"
            );
        }
        assert_eq!(report.recovery.committed.len(), txns.len(), "{case}");
    }
}

/// A shard's log stays bounded: a shard core's checkpoint and a resumed
/// log's head drop the events of retired commits, as a flat core's
/// checkpoint does. One shard, 1 024 eight-operation transactions, the
/// default policy, with and without a crash after the first rotation,
/// then a whole-service restart with no traffic: every acked commit comes
/// back, every head checkpoint in the store stays under 8 KiB, the final
/// recovery replays at most two checkpoint intervals, and the resumed head
/// of the quiescent log holds the committed list and no events. A shard
/// core that kept every commit's events filled the 64 KiB frame at 740
/// commits and stopped rotating.
#[test]
fn a_shard_log_stays_bounded_under_the_default_policy() {
    let wl = RandomConfig {
        txns: 1_024,
        ops_per_txn: (8, 8),
        objects: 64,
        theta: 0.6,
        write_ratio: 0.5,
    };
    let txns = shard_local_txns(&wl, &ShardMap::new(1), 0xB0B);
    let spec = AtomicitySpec::absolute(&txns);
    let policy = CheckpointPolicy::default();
    let sup = SuperviseNetConfig {
        shards: 1,
        ..SuperviseNetConfig::default()
    };
    assert_eq!(sup.ckpt, policy);
    let bounded = |case: &str, store: &MemSegmentsHandle, rec: &ShardedRecovery| {
        for (seq, bytes) in store.segments() {
            let head = scan(&bytes).records.into_iter().next();
            assert!(
                matches!(head, Some(WalRecord::Checkpoint(_))),
                "{case}: {seq}"
            );
            let len = head.map_or(0, |h| h.frame_len());
            assert!(len <= 8 * 1024, "{case}: segment {seq}'s head is {len} B");
        }
        let records = rec.shards[0].records;
        assert!(
            records as u64 <= 2 * policy.every_records,
            "{case}: the final recovery replayed {records} records"
        );
    };
    for crash_at in [None, Some(2_000)] {
        let stream = RequestStream::shuffled(&txns, 7);
        let stores = stores_for(1);
        let faults = [FaultPlan {
            crash_at_command: crash_at,
            ..FaultPlan::default()
        }];
        let (report, stats) = serve_net_supervised_in(
            &txns,
            &spec,
            |_| Box::new(RsgSgt::new(&txns, &spec)),
            &NetConfig::default(),
            &sup,
            &faults,
            &stores,
            |addr| {
                drive_resilient(
                    addr,
                    &txns,
                    &stream,
                    &ResilientConfig::default(),
                    &ChaosPlan::quiet(),
                )
            },
        )
        .expect("serve_net_supervised_in");
        let case = format!("crash_at={crash_at:?}");

        assert!(stats.lost.is_empty(), "{case}: lost {:?}", stats.lost);
        assert_eq!(stats.committed.len(), txns.len(), "{case}");
        assert_eq!(
            report.runs[0].restarts,
            u64::from(crash_at.is_some()),
            "{case}"
        );
        for (txn, _) in &stats.committed {
            assert!(
                report.recovery.committed.contains(txn),
                "{case}: acked commit {txn:?} lost at the final merge"
            );
        }
        assert!(stores[0].deleted() >= 2, "{case}: the log rotated");
        if crash_at.is_none() {
            let rotations = report.runs[0].output.checkpoints;
            assert_eq!(
                rotations,
                stores[0].deleted(),
                "{case}: each rotation counted"
            );
        }
        bounded(&case, &stores[0], &report.recovery);

        // A whole-service restart with no traffic: the resumed head is
        // the store's newest checkpoint, and every commit has retired.
        let (again, ()) = serve_net_supervised_in(
            &txns,
            &spec,
            |_| Box::new(RsgSgt::new(&txns, &spec)),
            &NetConfig::default(),
            &sup,
            &[],
            &stores,
            |_| (),
        )
        .expect("restart");
        let case = format!("{case}, restarted");
        assert_eq!(
            again.recovery.committed, report.recovery.committed,
            "{case}"
        );
        assert_eq!(again.recovery.shards[0].seeded_events, 0, "{case}");
        bounded(&case, &stores[0], &again.recovery);
    }
}

/// One request/response exchange on a blocking socket (no pipelining).
fn call(sock: &mut TcpStream, req: Request) -> Response {
    let mut out = Vec::new();
    req.encode_into(&mut out);
    sock.write_all(&out).expect("request write");
    read_response(sock).expect("a response before EOF")
}

/// [`call`], re-sent while the shard answers `Recovering`, as
/// `drive_resilient` does: a resumed store is fenced until its retry
/// table is seeded.
fn call_until_served(sock: &mut TcpStream, req: Request) -> Response {
    loop {
        match call(sock, req) {
            Response::Recovering { .. } => std::thread::sleep(Duration::from_millis(1)),
            resp => return resp,
        }
    }
}

fn read_response(sock: &mut TcpStream) -> Option<Response> {
    let mut buf = Vec::new();
    let mut tmp = [0u8; 256];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((resp, _)) = Response::decode(&buf) {
            return Some(resp);
        }
        if Instant::now() >= deadline {
            return None;
        }
        match sock.read(&mut tmp) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// The wire request for operation `op` of the universe.
fn op_request(txns: &TxnSet, req_id: u64, op: OpId) -> Request {
    let access = txns.op(op).unwrap();
    let object = access.object;
    match access.mode {
        AccessMode::Read => Request::Read { req_id, op, object },
        AccessMode::Write => Request::Write { req_id, op, object },
    }
}

/// Regression (acknowledged commits lost at the final merge): the core
/// grants operations only in program order and commits only complete
/// transactions. A client that sends `op 1` before `op 0`, or commits
/// after one of two operations, used to be answered `Committed` for a
/// transaction whose log held a hole — and the final merge then demoted
/// the acknowledged commit to `partial`. Both are refused with
/// `Aborted(Retired)` before the scheduler or the log sees them.
#[test]
fn out_of_order_and_incomplete_transactions_never_commit() {
    let (txns, spec) = local_universe(8, 4);
    let mut multi = txns.txn_ids().filter(|&t| txns.txn(t).len() >= 2);
    let (skips, stops) = (multi.next().unwrap(), multi.next().unwrap());
    let (report, replies) = serve_net_supervised_in(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &NetConfig::default(),
        &SuperviseNetConfig::default(),
        &[],
        &stores_for(2),
        |addr| {
            let mut sock = TcpStream::connect(addr).expect("connect");
            sock.set_read_timeout(Some(Duration::from_millis(2)))
                .unwrap();
            let session = 0x0DD;
            let hello = Request::Hello {
                req_id: 1,
                session,
                resume_from: 0,
            };
            assert!(matches!(call(&mut sock, hello), Response::Welcome { .. }));
            let begin = |req_id, txn| Request::Begin { req_id, txn };
            let commit = |req_id, txn| Request::Commit { req_id, txn };
            [
                (skips, begin(2, skips)),
                (skips, op_request(&txns, 3, OpId::new(skips, 1))),
                (skips, op_request(&txns, 4, OpId::new(skips, 0))),
                (skips, commit(5, skips)),
                (stops, begin(6, stops)),
                (stops, op_request(&txns, 7, OpId::new(stops, 0))),
                (stops, commit(8, stops)),
            ]
            .map(|(txn, req)| (txn, call(&mut sock, req)))
        },
    )
    .expect("serve_net_supervised_in");

    for (at, (txn, resp)) in replies.iter().enumerate() {
        if matches!(resp, Response::Committed { .. }) {
            assert!(
                report.recovery.committed.contains(txn),
                "request {at}: acked commit {txn:?} lost at the final merge"
            );
        }
    }
    assert_eq!(report.recovery.certified, report.recovery.committed);
    for at in [1, 3, 6] {
        assert!(
            matches!(
                replies[at].1,
                Response::Aborted {
                    reason: AbortReason::Retired,
                    ..
                }
            ),
            "request {at} is refused: {:?}",
            replies[at].1
        );
    }
    assert!(report.recovery.committed.is_empty());
}

/// Graceful shutdown and whole-service restart:
///
/// * life 1 commits `T0` on a session, leaves `T1` live, and stays
///   connected through the shutdown — the server must answer with a
///   typed `Closing` farewell, and the acked commit must be durable;
/// * life 2 (same segment stores) resumes the session and **retries the
///   same commit under its original request id** — the durable retry
///   table must answer `Committed` again (exactly-once across restart),
///   and the unfinished `T1` must not have committed. The resumed shards
///   answer `Recovering` until their table is seeded, so the retry is
///   re-sent until it is served, and then always from the table.
#[test]
fn graceful_shutdown_then_restart_keeps_acked_commits_exactly_once() {
    let (txns, spec) = local_universe(8, 4);
    let cfg = NetConfig::default();
    let sup = SuperviseNetConfig::default();
    let stores = stores_for(sup.shards);
    let session = 0xCAFE;
    // Life 1's requests: hello 1, begin 2, T0's operations from 3 on,
    // then the commit.
    let t0 = TxnId(0);
    let commit_req = 3 + txns.txn(t0).len() as u64;

    let (report1, mut sock) = serve_net_supervised_in(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &cfg,
        &sup,
        &[],
        &stores,
        |addr| {
            let mut sock = TcpStream::connect(addr).expect("connect");
            sock.set_read_timeout(Some(Duration::from_millis(2)))
                .unwrap();
            let hello = call(
                &mut sock,
                Request::Hello {
                    req_id: 1,
                    session,
                    resume_from: 0,
                },
            );
            assert!(matches!(hello, Response::Welcome { req_id: 1 }));
            assert!(matches!(
                call(&mut sock, Request::Begin { req_id: 2, txn: t0 }),
                Response::Granted { req_id: 2 }
            ));
            for (req_id, op) in (3..).zip(txns.txn(t0).op_ids()) {
                let granted = call(&mut sock, op_request(&txns, req_id, op));
                assert!(
                    matches!(granted, Response::Granted { req_id: id } if id == req_id),
                    "{granted:?}"
                );
            }
            let commit = Request::Commit {
                req_id: commit_req,
                txn: t0,
            };
            assert!(matches!(
                call(&mut sock, commit),
                Response::Committed { req_id } if req_id == commit_req
            ));
            // Leave T1 live across the shutdown.
            let begin = Request::Begin {
                req_id: commit_req + 1,
                txn: TxnId(1),
            };
            assert!(matches!(
                call(&mut sock, begin),
                Response::Granted { req_id } if req_id == commit_req + 1
            ));
            sock // keep the socket open through the shutdown
        },
    )
    .expect("life 1");

    // The shutdown farewell: a typed Closing frame, not a silent close.
    let farewell = read_response(&mut sock);
    assert!(
        matches!(farewell, Some(Response::Closing { .. })),
        "graceful shutdown announces itself: {farewell:?}"
    );
    assert!(report1.report.net.closing_replies >= 1);
    assert!(report1.recovery.committed.contains(&TxnId(0)));
    assert!(
        !report1.recovery.committed.contains(&TxnId(1)),
        "the unfinished transaction was drained as an abort"
    );

    // Life 2: same stores — the service restarts from its logs.
    let (report2, ()) = serve_net_supervised_in(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &cfg,
        &sup,
        &[],
        &stores,
        |addr| {
            let mut sock = TcpStream::connect(addr).expect("reconnect");
            sock.set_read_timeout(Some(Duration::from_millis(2)))
                .unwrap();
            let hello = call(
                &mut sock,
                Request::Hello {
                    req_id: commit_req + 2,
                    session,
                    resume_from: commit_req,
                },
            );
            assert!(matches!(hello, Response::Welcome { .. }));
            // The original verdict, again, under the original req_id —
            // from the seeded table, never from the core.
            let retry = call_until_served(
                &mut sock,
                Request::Commit {
                    req_id: commit_req,
                    txn: TxnId(0),
                },
            );
            assert!(
                matches!(retry, Response::Committed { req_id } if req_id == commit_req),
                "a retried commit gets its original verdict across a \
                 whole-service restart: {retry:?}"
            );
        },
    )
    .expect("life 2");

    assert!(
        report2.report.net.dup_commit_fast >= 1,
        "the retry was answered from the durable session table"
    );
    let n = report2
        .recovery
        .committed
        .iter()
        .filter(|&&t| t == TxnId(0))
        .count();
    assert_eq!(n, 1, "acked commit survives the restart exactly once");
}

/// The chaos sweep: seeded client-side wire faults (resets, torn
/// writes, slowloris stalls), server-side dropped replies, and a shard
/// core killed mid-run — all at once. The run must terminate with every
/// transaction committed exactly once, every acked commit durable, and
/// the merged history re-certified by `Rsg::build` as well as by
/// recovery's vector-clock certifier.
#[test]
fn chaos_sweep_commits_exactly_once_under_wire_and_core_faults() {
    let (txns, spec) = local_universe(160, 10);
    let total = txns.len();
    let stream = RequestStream::shuffled(&txns, 13);
    // A tight watchdog so lost replies resolve fast.
    let cfg = NetConfig {
        reply_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let sup = SuperviseNetConfig::default();
    let stores = stores_for(sup.shards);
    let faults = vec![
        FaultPlan {
            crash_at_command: Some(45),
            ..FaultPlan::default()
        },
        FaultPlan {
            drop_replies: vec![10, 30],
            ..FaultPlan::default()
        },
    ];
    let chaos = ChaosPlan::stormy(0xC4A05);
    let rcfg = ResilientConfig {
        connections: 6,
        streams: 4,
        deadline: Duration::from_millis(800),
        ..ResilientConfig::default()
    };
    let (report, stats) = serve_net_supervised_in(
        &txns,
        &spec,
        |_| Box::new(RsgSgt::new(&txns, &spec)),
        &cfg,
        &sup,
        &faults,
        &stores,
        |addr| drive_resilient(addr, &txns, &stream, &rcfg, &chaos),
    )
    .expect("chaos run");

    assert!(stats.wire_faults > 0, "the storm actually fired");
    assert!(
        stats.reconnects > 0,
        "faults forced reconnect-with-session-resume"
    );
    assert!(stats.lost.is_empty(), "nothing lost: {:?}", stats.lost);
    assert_eq!(
        stats.committed.len(),
        total,
        "every transaction committed exactly once despite the chaos"
    );
    assert!(
        report.runs[0].restarts >= 1,
        "the killed shard core was recovered in place"
    );
    audit(&txns, &spec, &report, &stats);
}

/// Satellite: the watchdog/deadline knobs exist and have sane defaults.
#[test]
fn timeout_defaults() {
    let d = NetConfig::default();
    assert_eq!(d.reply_timeout, Duration::from_secs(5));
    assert_eq!(d.block_timeout, Duration::from_millis(100));

    let r = ResilientConfig::default();
    assert_eq!(r.deadline, Duration::from_secs(2));
    assert!(r.backoff < r.backoff_max);
    assert!(r.connections >= 1 && r.streams >= 1);
    assert!(r.max_reconnects >= 1);
}
