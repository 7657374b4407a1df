//! Four front-ends, one verdict: the same shard-local universe (every
//! transaction owned by one shard of the two-way partition) served
//! durably through each entry point of the service — `serve`,
//! `serve_sharded`, `serve_net`, `serve_net_supervised_in` — and each log
//! recovered by the recovery function that pairs with its shape. Whatever
//! the front-end, every transaction commits exactly once, recovery
//! rebuilds exactly the committed set the live run acknowledged, and the
//! recovered history is relatively serializable (`vclock::certify`).
//!
//! The universe runs twice: under RSG-SGT, which never answers `Blocked`,
//! and under strict 2PL, the one scheduler here that does — so every
//! front-end also drives blocked → parked → resubmitted through the one
//! per-operation state machine (`relser_server::Flight`) on its way to
//! the same verdict.

use relser_core::ids::{OpId, TxnId};
use relser_core::schedule::Schedule;
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_net::{
    drive_resilient, serve_net, serve_net_supervised_in, ChaosPlan, NetConfig, ResilientConfig,
    SuperviseNetConfig,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::two_pl::TwoPhaseLocking;
use relser_protocols::Scheduler;
use relser_server::{
    recover, recover_segments_with_certifier, recover_sharded_segments_with_certifier, serve,
    serve_sharded, Certifier, FaultPlan, RunOutcome, ServerConfig,
};
use relser_wal::{
    CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, MemStorage, SegmentedWal, WalWriter,
};
use relser_workload::random::{random_spec, shard_local_txns, RandomConfig};
use relser_workload::stream::RequestStream;

const ARRIVAL_SEED: u64 = 7;

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

#[test]
fn four_front_ends_one_verdict() {
    // Few, Zipf-hot objects per shard, so multi-object transactions run
    // into each other's locks on every shard and through every front-end.
    let universe = RandomConfig {
        txns: 48,
        ops_per_txn: (2, 5),
        objects: 8,
        theta: 0.8,
        write_ratio: 0.5,
    };
    let txns = shard_local_txns(&universe, &ShardMap::new(2), 42);
    let spec = random_spec(&txns, 0.4, 42);
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

    // `serve` over a flat log, recovered by `recover`.
    {
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let report = serve(
            txns,
            &stream(),
            fresh(),
            &cfg,
            &FaultPlan::default(),
            Some(&mut wal),
        );
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_blocked("serve", report.metrics.blocked);
        let rec = recover(
            txns,
            spec,
            &mut *fresh(),
            &handle.synced_bytes(),
            Certifier::VClock,
        )
        .expect("flat log recovers");
        assert_verdict("serve", sc, report.committed, rec.committed, rec.history);
    }

    // `serve_sharded` (N = 2) over one flat log per shard, recovered by
    // `recover_sharded_segments_with_certifier` (one-segment streams).
    {
        let (mut wals, handles): (Vec<WalWriter>, Vec<_>) = (0..2)
            .map(|_| {
                let (mem, handle) = MemStorage::new();
                let wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
                (wal, handle)
            })
            .unzip();
        let schedulers = (0..2).map(|_| fresh()).collect();
        let report = serve_sharded(
            txns,
            &stream(),
            schedulers,
            &cfg,
            &[],
            wals.iter_mut().map(|w| w as &mut dyn CommitLog).collect(),
        );
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_blocked("serve_sharded", report.metrics.blocked);
        let streams: Vec<Vec<(u64, Vec<u8>)>> = handles
            .iter()
            .map(|h| vec![(0, h.synced_bytes())])
            .collect();
        let rec = recover_sharded_segments_with_certifier(
            txns,
            spec,
            |_| fresh() as Box<dyn Scheduler + '_>,
            &streams,
            Certifier::VClock,
        )
        .expect("per-shard logs recover");
        assert!(rec.partial.is_empty());
        assert_verdict(
            "serve_sharded",
            sc,
            report.committed,
            rec.committed,
            rec.history,
        );
    }

    // `serve_net` over a segmented log (never compacted, so the whole
    // history comes back), recovered by `recover_segments_with_certifier`.
    {
        let (store, handle) = MemSegmentStore::new();
        let mut wal = SegmentedWal::new(
            Box::new(store),
            FsyncPolicy::Always,
            CheckpointPolicy::never(),
        )
        .unwrap();
        let (report, stats) = serve_net(
            txns,
            fresh(),
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
        assert!(rec.partial.is_empty());
        assert_verdict(
            "serve_net_supervised_in",
            sc,
            acked,
            rec.committed,
            rec.history,
        );
    }
}
