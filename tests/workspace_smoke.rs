//! Workspace smoke: a bare `cargo test` at the repo root used to compile
//! only the facade crate, so a broken re-export (or a crate whose public
//! entry point rotted) could slip through tier-1. This suite drives one
//! public entry point of *every* crate the facade re-exports — digraph,
//! frame, core (including the vector-clock certifier), classes,
//! protocols, workload, simdb, server (including recovery), wal, net,
//! check — plus the `relser` CLI dispatch, all through the
//! `relative_serializability::` facade paths, so the root test target
//! exercises the whole dependency cone.
//!
//! Each test is a minimal end-to-end pass, not a re-run of the crates'
//! own suites: those stay with their crates (and `cargo test
//! --workspace` in CI runs them all).

use relative_serializability::check::{ExploreConfig, Mode, ScheduleExplorer};
use relative_serializability::classes::lattice::count_classes;
use relative_serializability::classes::relatively_consistent::is_relatively_consistent;
use relative_serializability::core::classes::classify;
use relative_serializability::core::paper::{Figure1, Figure2};
use relative_serializability::core::rsg::Rsg;
use relative_serializability::core::sg::is_conflict_serializable;
use relative_serializability::core::vclock;
use relative_serializability::digraph::{cycle, topo, DiGraph};
use relative_serializability::frame::{decode_frame, encode_frame};
use relative_serializability::net::{Request, Response};
use relative_serializability::prelude::*;
use relative_serializability::protocols::driver::{run, RunConfig};
use relative_serializability::protocols::SchedulerKind;
use relative_serializability::server::recovery::{recover, Certifier};
use relative_serializability::server::{serve, FaultPlan, ServerConfig};
use relative_serializability::simdb::{execute, simulate, SimConfig};
use relative_serializability::wal::{scan, FsyncPolicy, MemStorage, WalRecord, WalWriter};
use relative_serializability::workload::banking::{banking, BankingConfig};
use relative_serializability::workload::stream::RequestStream;
use relative_serializability::workload::{random_schedule, random_spec, random_txns, RandomConfig};

/// `digraph`: build, cycle-check, topologically sort.
#[test]
fn digraph_sorts_and_detects_cycles() {
    let mut g: DiGraph<&str, ()> = DiGraph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    g.add_edge(a, b, ());
    g.add_edge(b, c, ());
    assert!(cycle::find_cycle(&g).is_none());
    assert_eq!(topo::topological_sort(&g).expect("acyclic"), vec![a, b, c]);
    g.add_edge(c, a, ());
    assert!(cycle::find_cycle(&g).is_some());
}

/// `frame`: the shared CRC codec round-trips and rejects corruption.
#[test]
fn frame_codec_round_trips() {
    let mut buf = Vec::new();
    let n = encode_frame(&mut buf, b"relative serializability", 1024).expect("fits");
    let frame = decode_frame(&buf, 1024).expect("valid");
    assert_eq!(frame.payload, b"relative serializability");
    assert_eq!(frame.consumed, n);
    buf[n - 1] ^= 0x40;
    assert!(decode_frame(&buf, 1024).is_err(), "corruption caught");
}

/// `core`: Figure 1 classification, the Theorem 1 RSG, and the one-pass
/// vector-clock certifier all agree through the facade.
#[test]
fn core_classifies_and_certifies_figure1() {
    let fig = Figure1::new();
    let s = fig.s_ra();
    let report = classify(&fig.txns, &s, &fig.spec);
    assert!(report.relatively_serializable);
    assert!(!is_conflict_serializable(&fig.txns, &s));
    let rsg = Rsg::build(&fig.txns, &s, &fig.spec);
    assert!(rsg.is_acyclic());
    let verdict = vclock::certify(&fig.txns, &s, &fig.spec);
    assert!(verdict.is_acyclic());
    assert!(verdict.witness().is_none());
}

/// `classes`: the exponential checkers and the lattice counter run on a
/// small universe.
#[test]
fn classes_lattice_counts_figure2() {
    let fig = Figure2::new();
    let (counts, _witnesses) = count_classes(&fig.txns, &fig.spec);
    assert_eq!(counts.total, 30, "Figure 2 universe size");
    assert!(is_relatively_consistent(&fig.txns, &fig.s_1(), &fig.spec));
}

/// `protocols`: every production scheduler drives Figure 2 to completion
/// and its history certifies.
#[test]
fn protocols_drive_figure2_to_certified_commits() {
    let fig = Figure2::new();
    for kind in SchedulerKind::all() {
        let mut sched = kind.make(&fig.txns, &fig.spec);
        let r = run(&fig.txns, sched.as_mut(), &RunConfig::default())
            .unwrap_or_else(|e| panic!("{kind}: {e:?}"));
        assert_eq!(r.history.len(), fig.txns.total_ops(), "{kind}");
        assert!(
            vclock::certify(&fig.txns, &r.history, &fig.spec).is_acyclic(),
            "{kind}"
        );
    }
}

/// `workload`: scenario and random generators produce universes the
/// certifier accepts or rejects coherently with the oracle.
#[test]
fn workload_generators_feed_the_certifier() {
    let sc = banking(&BankingConfig::default(), 8);
    assert!(sc.txns.len() > 1);
    let cfg = RandomConfig {
        txns: 4,
        ops_per_txn: (1, 4),
        objects: 3,
        theta: 0.5,
        write_ratio: 0.5,
    };
    let txns = random_txns(&cfg, 11);
    let spec = random_spec(&txns, 0.5, 12);
    let s = random_schedule(&txns, 13);
    assert_eq!(
        vclock::certify(&txns, &s, &spec).is_acyclic(),
        Rsg::build(&txns, &s, &spec).is_acyclic()
    );
}

/// `simdb`: the discrete-event engine produces a certified history whose
/// Theorem 1 witness is observationally equivalent.
#[test]
fn simdb_simulates_banking() {
    let sc = banking(&BankingConfig::default(), 21);
    let cfg = SimConfig {
        seed: 3,
        ..Default::default()
    };
    let mut sched = SchedulerKind::RsgSgt.make(&sc.txns, &sc.spec);
    let r = simulate(&sc.txns, sched.as_mut(), &cfg).expect("completes");
    let rsg = Rsg::build(&sc.txns, &r.history, &sc.spec);
    let witness = rsg.witness(&sc.txns).expect("acyclic");
    assert_eq!(execute(&sc.txns, &witness).values(), r.final_store.values());
}

/// `server`: the concurrent service commits everything and the trace
/// certifies.
#[test]
fn server_serves_figure2() {
    let fig = Figure2::new();
    let cfg = ServerConfig {
        workers: 2,
        record_trace: true,
        ..ServerConfig::default()
    };
    let sched = SchedulerKind::RsgSgt.make(&fig.txns, &fig.spec);
    let stream = RequestStream::shuffled(&fig.txns, 5);
    let run = serve(&fig.txns, &stream, sched, &cfg, &FaultPlan::default(), None)
        .into_run(&fig.txns)
        .expect("serves");
    assert_eq!(run.history.len(), fig.txns.total_ops());
    assert!(
        vclock::certify(&fig.txns, &run.history, &fig.spec).is_acyclic(),
        "served history certifies"
    );
}

/// `wal` + `server::recovery`: a hand-written serial log scans back and
/// recovers (step 4 with the vector-clock certifier).
#[test]
fn wal_log_scans_and_recovers() {
    let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
    let spec = AtomicitySpec::absolute(&txns);
    let (mem, handle) = MemStorage::new();
    let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
    for t in 0..2u32 {
        wal.append(&WalRecord::Begin(TxnId(t))).unwrap();
        for i in 0..2u32 {
            wal.append(&WalRecord::Grant(OpId {
                txn: TxnId(t),
                index: i,
            }))
            .unwrap();
        }
        wal.append(&WalRecord::Commit(TxnId(t))).unwrap();
    }
    wal.batch_end().unwrap();
    let bytes = handle.bytes();
    let scanned = scan(&bytes);
    assert_eq!(scanned.records.len(), 8, "2 x (begin + 2 grants + commit)");
    assert!(scanned.truncation.is_none());
    let mut sched = SchedulerKind::RsgSgt.make(&txns, &spec);
    let rec = recover(&txns, &spec, sched.as_mut(), &bytes, Certifier::VClock).expect("recovers");
    assert_eq!(rec.committed, vec![TxnId(0), TxnId(1)]);
    assert_eq!(rec.certified, rec.committed, "no checkpoint: all re-proved");
}

/// `net`: the wire codec round-trips requests and responses.
#[test]
fn net_wire_round_trips() {
    let mut buf = Vec::new();
    let reqs = [
        Request::Begin {
            req_id: 7,
            txn: TxnId(1),
        },
        Request::Read {
            req_id: 8,
            op: OpId {
                txn: TxnId(1),
                index: 0,
            },
            object: ObjectId(2),
        },
        Request::Commit {
            req_id: 9,
            txn: TxnId(1),
        },
    ];
    for r in &reqs {
        r.encode_into(&mut buf);
    }
    let mut at = 0;
    for want in &reqs {
        let (got, n) = Request::decode(&buf[at..]).expect("valid frame");
        assert_eq!(&got, want);
        at += n;
    }
    assert_eq!(at, buf.len());
    let mut rbuf = Vec::new();
    Response::Committed { req_id: 9 }.encode_into(&mut rbuf);
    let (resp, _) = Response::decode(&rbuf).expect("valid frame");
    assert_eq!(resp, Response::Committed { req_id: 9 });
}

/// `check`: a pruned exploration of Figure 2 under RSG-SGT is clean.
#[test]
fn check_explorer_is_clean_on_figure2() {
    let fig = Figure2::new();
    let cfg = ExploreConfig {
        mode: Mode::PrunedDfs,
        max_incarnations: 2,
        ..ExploreConfig::default()
    };
    let report = ScheduleExplorer::new(&fig.txns, &fig.spec, SchedulerKind::RsgSgt, cfg).explore();
    assert!(report.clean(), "{:?}", report.divergences);
    assert!(report.stats.paths > 0);
}

/// `cli`: the dispatcher parses a universe document and the `audit`
/// command certifies it.
#[test]
fn cli_audits_a_document() {
    let doc = "\
txn r1[x] w1[y]
txn r2[y] w2[x]
schedule ok: r1[x] w1[y] r2[y] w2[x]
";
    let args: Vec<String> = vec!["audit".into(), "mem".into()];
    let out = relative_serializability::cli::dispatch(&args, |_| Ok(doc.to_string()))
        .expect("audit succeeds");
    assert!(out.contains("relatively serializable"), "{out}");
    assert!(out.contains("certifier and oracle agree"), "{out}");
}
