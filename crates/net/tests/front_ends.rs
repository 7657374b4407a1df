//! Four front-ends, one verdict: the same banking universe served
//! durably through each entry point of the service — `serve`,
//! `serve_sharded`, `serve_net`, `serve_net_supervised_in` — and each log
//! recovered by the recovery function that pairs with its shape. Whatever
//! the front-end, every transaction commits exactly once, recovery
//! rebuilds exactly the committed set the live run acknowledged, and the
//! recovered history is relatively serializable (`vclock::certify`).

use relser_core::ids::{OpId, TxnId};
use relser_core::schedule::Schedule;
use relser_core::vclock;
use relser_net::{
    drive_resilient, serve_net, serve_net_supervised_in, ChaosPlan, NetConfig, ResilientConfig,
    SuperviseNetConfig,
};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Scheduler;
use relser_server::{
    recover, recover_segments_with_certifier, recover_sharded_segments_with_certifier, serve,
    serve_sharded, Certifier, FaultPlan, RunOutcome, ServerConfig,
};
use relser_wal::{
    CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, MemStorage, SegmentedWal, WalWriter,
};
use relser_workload::banking::{banking, BankingConfig, BankingScenario};
use relser_workload::stream::RequestStream;

const ARRIVAL_SEED: u64 = 7;

/// The verdict every front-end is held to: `recovered` is every
/// transaction exactly once and equals the live run's committed set, and
/// `history` is a schedule of the whole universe that certifies.
fn assert_verdict(
    front_end: &str,
    sc: &BankingScenario,
    mut live: Vec<TxnId>,
    mut recovered: Vec<TxnId>,
    history: Vec<OpId>,
) {
    recovered.sort_unstable();
    let all: Vec<TxnId> = sc.txns.txn_ids().collect();
    assert_eq!(
        recovered, all,
        "{front_end}: every transaction recovered committed, exactly once"
    );
    live.sort_unstable();
    assert_eq!(live, recovered, "{front_end}: recovered == live committed");
    let schedule = Schedule::new(&sc.txns, history)
        .unwrap_or_else(|e| panic!("{front_end}: recovered history is not a schedule: {e}"));
    assert!(
        vclock::certify(&sc.txns, &schedule, &sc.spec).is_acyclic(),
        "{front_end}: recovered history is relatively serializable"
    );
}

#[test]
fn four_front_ends_one_verdict() {
    let sc = banking(&BankingConfig::default(), 42);
    let (txns, spec) = (&sc.txns, &sc.spec);
    let fresh = || RsgSgt::new(txns, spec);
    let stream = || RequestStream::shuffled(txns, ARRIVAL_SEED);
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
        workers: 4,
        ..ServerConfig::default()
    };

    // `serve` over a flat log, recovered by `recover`.
    {
        let (mem, handle) = MemStorage::new();
        let mut wal = WalWriter::new(Box::new(mem), FsyncPolicy::Always).unwrap();
        let report = serve(
            txns,
            &stream(),
            Box::new(fresh()),
            &cfg,
            &FaultPlan::default(),
            Some(&mut wal),
        );
        assert_eq!(report.outcome, RunOutcome::Completed);
        let rec = recover(
            txns,
            spec,
            &mut fresh(),
            &handle.synced_bytes(),
            Certifier::VClock,
        )
        .expect("flat log recovers");
        assert_verdict("serve", &sc, report.committed, rec.committed, rec.history);
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
        let schedulers = (0..2)
            .map(|_| Box::new(fresh()) as Box<dyn Scheduler + Send + '_>)
            .collect();
        let report = serve_sharded(
            txns,
            &stream(),
            schedulers,
            &cfg,
            &[],
            wals.iter_mut().map(|w| w as &mut dyn CommitLog).collect(),
        );
        assert_eq!(report.outcome, RunOutcome::Completed);
        let streams: Vec<Vec<(u64, Vec<u8>)>> = handles
            .iter()
            .map(|h| vec![(0, h.synced_bytes())])
            .collect();
        let rec = recover_sharded_segments_with_certifier(
            txns,
            spec,
            |_| Box::new(fresh()) as Box<dyn Scheduler + '_>,
            &streams,
            Certifier::VClock,
        )
        .expect("per-shard logs recover");
        assert!(rec.partial.is_empty());
        assert_verdict(
            "serve_sharded",
            &sc,
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
            Box::new(fresh()),
            &NetConfig::default(),
            &FaultPlan::default(),
            Some(&mut wal),
            |addr| drive(addr, &stream()),
        )
        .expect("serve_net");
        assert_eq!(stats.committed.len(), txns.len());
        let (_, rec) = recover_segments_with_certifier(
            txns,
            spec,
            &mut fresh(),
            &handle.synced_segments(),
            Certifier::VClock,
        )
        .expect("segmented log recovers");
        assert_verdict(
            "serve_net",
            &sc,
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
        let (_, stats) = serve_net_supervised_in(
            txns,
            spec,
            |_| Box::new(fresh()) as Box<dyn Scheduler + Send>,
            &NetConfig::default(),
            &sup,
            &[],
            &stores,
            |addr| drive(addr, &stream()),
        )
        .expect("serve_net_supervised_in");
        let acked: Vec<TxnId> = stats.committed.iter().map(|&(t, _)| t).collect();
        let rec = recover_sharded_segments_with_certifier(
            txns,
            spec,
            |_| Box::new(fresh()) as Box<dyn Scheduler + '_>,
            &[stores[0].synced_segments()],
            Certifier::VClock,
        )
        .expect("segment stream recovers");
        assert!(rec.partial.is_empty());
        assert_verdict(
            "serve_net_supervised_in",
            &sc,
            acked,
            rec.committed,
            rec.history,
        );
    }
}
