//! The system under test. Every call into the program lives in this
//! file, so a later change to the program's surface (ROADMAP item 2
//! collapses the `serve_*` matrix) edits one file of the benchmark and
//! leaves its workloads, client, metrics and gates alone.
//!
//! Two server shapes are driven, both with 1 reactor, 1 shard core and
//! `RsgSgt`, every other tunable at its default:
//!
//! * [`Device::Mem`] — `serve_net_supervised_in` over a
//!   `MemSegmentStore` (the supervised-shard-over-`CommitLog` shape the
//!   roadmap keeps);
//! * [`Device::Modelled`] — `serve_net` over a `SegmentedWal` on the
//!   benchmark's own [`ModelDisk`](crate::disk::ModelDisk), because the
//!   supervised entry point cannot take a caller-owned store.
//!
//! Both log under `FsyncPolicy::Always` with **checkpoints off**
//! ([`CHECKPOINTS`]). With the default policy a live core's checkpoint
//! drops the operations of retired commits, and
//! `recover_sharded_segments_with_certifier`'s completeness rule then
//! demotes every such commit to `partial`: on `pingpong` 0 of 1 024
//! acknowledged commits came back. That is a defect of the program — a
//! benchmark may neither paper over it nor fail on it forever — so until
//! it is fixed every round keeps its whole log, and `recover_ms` is the
//! cost of replaying a whole round. The unsharded recovery behind
//! `durable` keeps retired commits, but runs the same policy so that
//! `durable` differs from `saturate` in the device and nothing else.

use crate::disk::ModelDisk;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relser_core::op::AccessMode;
use relser_core::project::Projection;
use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_net::{serve_net, serve_net_supervised_in, NetConfig, SuperviseNetConfig};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Decision, Scheduler};
use relser_server::core::FaultPlan;
use relser_server::queue::BoundedQueue;
use relser_server::recovery::{
    recover_segments_with_certifier, recover_sharded_segments_with_certifier,
};
use relser_server::{Certifier, TraceEvent};
use relser_wal::{
    scan, CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentStore, MemSegmentsHandle,
    SegmentedWal, WalRecord,
};
use relser_workload::longlived::{long_lived, LongLivedConfig};
use relser_workload::random::random_spec;
use relser_workload::zipf::Zipf;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub use relser_core::ids::{OpId, TxnId};
pub use relser_net::wire::{ReqId, Request, Response};
pub use relser_net::{NetMetrics, NetReport};
pub use relser_wal::{FileStorage, SegmentStore, Storage};
pub use relser_workload::stream::RequestStream;

/// The reactor's idle sleep at its default — the quantity `pingpong`'s
/// `op_p50_us` is read against (ROADMAP item 1).
pub fn poll_quantum() -> Duration {
    NetConfig::default().poll_quantum
}

/// One generated transaction set with its atomicity spec and the seed of
/// its arrival order. The program only ever sees this.
pub struct Input {
    pub txns: TxnSet,
    pub spec: AtomicitySpec,
    pub arrival_seed: u64,
    /// Time spent generating the transaction set (and, for the
    /// long-lived generator, the relative spec it builds alongside).
    pub gen_ns: u64,
    /// Time spent in the separately callable spec constructor
    /// (`random_spec` / `AtomicitySpec::absolute`); 0 where the spec
    /// came bundled with the set.
    pub spec_ns: u64,
}

impl Input {
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }

    pub fn total_ops(&self) -> usize {
        self.txns.total_ops()
    }

    pub fn txn_len(&self, t: TxnId) -> u32 {
        self.txns.txn(t).len() as u32
    }

    /// A fresh arrival stream: `RequestStream::shuffled` with the set's
    /// derived seed, so every round of a set sees the same order.
    pub fn arrivals(&self) -> RequestStream {
        RequestStream::shuffled(&self.txns, self.arrival_seed)
    }

    /// The wire request for operation `op` of this set.
    pub fn op_request(&self, req_id: ReqId, op: OpId) -> Request {
        let operation = self.txns.op(op).expect("op of the generated set");
        match operation.mode {
            AccessMode::Read => Request::Read {
                req_id,
                op,
                object: operation.object,
            },
            AccessMode::Write => Request::Write {
                req_id,
                op,
                object: operation.object,
            },
        }
    }
}

pub const RMW_TXNS: usize = 1024;
pub const RMW_OBJECTS: usize = 2048;
pub const RMW_THETA: f64 = 0.4;
pub const RMW_BREAKPOINT_PROB: f64 = 0.4;

/// 1 024 single-record read-modify-write transactions (`R x; W x`),
/// Zipf θ = 0.4 over 2 048 objects, `random_spec` p = 0.4.
pub fn gen_rmw(set_seed: u64) -> Input {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(set_seed);
    let zipf = Zipf::new(RMW_OBJECTS, RMW_THETA);
    let names: Vec<String> = (0..RMW_OBJECTS).map(|i| format!("r{i}")).collect();
    let mut txns = TxnSet::new();
    for _ in 0..RMW_TXNS {
        let record = names[zipf.sample(&mut rng)].as_str();
        txns.add(&[(AccessMode::Read, record), (AccessMode::Write, record)])
            .expect("non-empty transaction");
    }
    let gen_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let spec = random_spec(&txns, RMW_BREAKPOINT_PROB, set_seed);
    let spec_ns = t1.elapsed().as_nanos() as u64;
    Input {
        txns,
        spec,
        arrival_seed: set_seed,
        gen_ns,
        spec_ns,
    }
}

pub const LONG_CFG: LongLivedConfig = LongLivedConfig {
    long_txns: 16,
    steps: 8,
    long_writes: true,
    short_txns: 240,
    short_objects: 2,
    objects: 192,
    theta: 0.5,
};

/// `workload::longlived`: 16 long transactions × 8 read-write steps plus
/// 240 short ones over 192 objects, θ = 0.5. `relative` keeps the
/// generator's spec (a breakpoint after every long step); otherwise the
/// *same* set runs under `AtomicitySpec::absolute` (Lemma 1's case).
pub fn gen_longlived(set_seed: u64, relative: bool) -> Input {
    let t0 = Instant::now();
    let sc = long_lived(&LONG_CFG, set_seed);
    let gen_ns = t0.elapsed().as_nanos() as u64;
    let (spec, spec_ns) = if relative {
        (sc.spec, 0)
    } else {
        let t1 = Instant::now();
        let spec = AtomicitySpec::absolute(&sc.txns);
        (spec, t1.elapsed().as_nanos() as u64)
    };
    Input {
        txns: sc.txns,
        spec,
        arrival_seed: set_seed,
        gen_ns,
        spec_ns,
    }
}

/// The checkpoint policy of every round's log; see the module docs.
pub const CHECKPOINTS: CheckpointPolicy = CheckpointPolicy {
    every_records: u64::MAX,
    every_bytes: u64::MAX,
};

/// Where the commit log lives for one round.
pub enum Device {
    /// `MemSegmentStore` behind the supervised entry point.
    Mem,
    /// The benchmark's modelled disk behind `serve_net`.
    Modelled(ModelDisk),
}

/// What is left of a round's log once the server has stopped.
pub enum Store {
    Mem(MemSegmentsHandle),
    Modelled(ModelDisk),
}

/// What one serve call reported, in one shape for both server shapes.
pub struct RoundReport {
    /// Wall clock of the whole serve call (start, drive, stop; the
    /// supervised shape also merges its WAL before returning).
    pub serve_ns: u64,
    /// Stage histograms, reactor and core counters.
    pub net: NetReport,
    /// Median `Scheduler::request` time: exact where the serve call
    /// returns the raw samples (supervised), else the log2 bucket.
    pub admit_p50_ns: u64,
    /// Exact duration of every WAL durability barrier.
    pub wal_sync_ns: Vec<u64>,
    /// The core-order event trace (empty unless requested).
    pub trace: Vec<TraceEvent>,
    pub checkpoints: u64,
    pub segments_deleted: u64,
    pub supervisor_restarts: u64,
}

fn net_config(record_trace: bool) -> NetConfig {
    NetConfig {
        reactors: 1,
        record_trace,
        ..NetConfig::default()
    }
}

/// Starts a fresh server on `input`, runs `client` against its loopback
/// address, stops the server and returns its report, the log it left
/// behind, and the client's result.
pub fn serve_round<R>(
    input: &Input,
    device: Device,
    record_trace: bool,
    client: impl FnOnce(SocketAddr) -> R,
) -> io::Result<(RoundReport, Store, R)> {
    let cfg = net_config(record_trace);
    let t0 = Instant::now();
    match device {
        Device::Mem => {
            let sup = SuperviseNetConfig {
                shards: 1,
                ckpt: CHECKPOINTS,
                ..SuperviseNetConfig::default()
            };
            let stores = [MemSegmentStore::new().1];
            let (rep, out) = serve_net_supervised_in(
                &input.txns,
                &input.spec,
                |_| Box::new(RsgSgt::new(&input.txns, &input.spec)) as Box<dyn Scheduler + Send>,
                &cfg,
                &sup,
                &[],
                &stores,
                client,
            )?;
            let serve_ns = t0.elapsed().as_nanos() as u64;
            let [store] = stores;
            let mut run = rep.runs.into_iter().next().expect("one shard");
            Ok((
                RoundReport {
                    serve_ns,
                    net: rep.report,
                    admit_p50_ns: crate::stats::median(&mut run.output.decision_ns),
                    wal_sync_ns: run.output.wal_sync_ns,
                    trace: run.output.trace,
                    checkpoints: run.output.checkpoints,
                    segments_deleted: store.deleted(),
                    supervisor_restarts: run.restarts,
                },
                Store::Mem(store),
                out,
            ))
        }
        Device::Modelled(disk) => {
            let mut wal =
                SegmentedWal::new(Box::new(disk.clone()), FsyncPolicy::Always, CHECKPOINTS)?;
            let (mut net, out) = serve_net(
                &input.txns,
                Box::new(RsgSgt::new(&input.txns, &input.spec)),
                &cfg,
                &FaultPlan::default(),
                Some(&mut wal),
                client,
            )?;
            let serve_ns = t0.elapsed().as_nanos() as u64;
            let seg = wal.segment_stats();
            drop(wal);
            let trace = std::mem::take(&mut net.trace);
            Ok((
                RoundReport {
                    serve_ns,
                    admit_p50_ns: net.admit.p50_ns(),
                    net,
                    wal_sync_ns: disk.take_sync_ns(),
                    trace,
                    checkpoints: seg.checkpoints,
                    segments_deleted: seg.segments_deleted,
                    supervisor_restarts: 0,
                },
                Store::Modelled(disk),
                out,
            ))
        }
    }
}

/// Median nanoseconds of each wire-to-wire stage of one round, in
/// pipeline order, and of the whole (`wire`: request bytes read →
/// response bytes written). `admit` and `fsync` are exact medians, the
/// others the upper bounds of log2 histogram buckets.
pub struct StageP50 {
    pub decode: u64,
    pub queue: u64,
    pub admit: u64,
    pub fsync: u64,
    pub reply: u64,
    pub wire: u64,
}

impl RoundReport {
    pub fn stage_p50(&self) -> StageP50 {
        StageP50 {
            decode: self.net.net.decode.p50_ns(),
            queue: self.net.metrics.queue_wait.p50_ns(),
            admit: self.admit_p50_ns,
            fsync: crate::stats::median(&mut self.wal_sync_ns.clone()),
            reply: self.net.net.reply.p50_ns(),
            wire: self.net.net.wire.p50_ns(),
        }
    }
}

/// What recovery rebuilt from a round's durable bytes.
pub struct Recovered {
    /// The recovery call alone (the store is cut back to its synced
    /// watermark before the clock starts).
    pub recover_ns: u64,
    pub committed: Vec<TxnId>,
    pub history: Vec<OpId>,
    /// WAL records replayed.
    pub records: usize,
    /// The durable segment bytes recovery read, for the WAL probes.
    pub segments: Vec<(u64, Vec<u8>)>,
}

/// Discards everything the device never acknowledged as synced, then
/// recovers: `recover_sharded_segments_with_certifier` for the
/// supervised shape, `recover_segments_with_certifier` for the other,
/// both re-certifying the committed history with the vector-clock
/// certifier. `Err` is a history that failed certification (or a log
/// recovery refused).
pub fn recover_round(input: &Input, store: &Store) -> Result<Recovered, String> {
    let fresh = || RsgSgt::new(&input.txns, &input.spec);
    match store {
        Store::Mem(handle) => {
            let streams = [handle.synced_segments()];
            let t0 = Instant::now();
            let rec = recover_sharded_segments_with_certifier(
                &input.txns,
                &input.spec,
                |_| Box::new(fresh()) as Box<dyn Scheduler>,
                &streams,
                Certifier::VClock,
            )
            .map_err(|e| e.to_string())?;
            let recover_ns = t0.elapsed().as_nanos() as u64;
            let [segments] = streams;
            Ok(Recovered {
                recover_ns,
                committed: rec.committed,
                history: rec.history,
                records: rec.shards.iter().map(|s| s.records).sum(),
                segments,
            })
        }
        Store::Modelled(disk) => {
            let segments = disk.crash_and_read().map_err(|e| e.to_string())?;
            let mut scheduler = fresh();
            let t0 = Instant::now();
            let (_, rec) = recover_segments_with_certifier(
                &input.txns,
                &input.spec,
                &mut scheduler,
                &segments,
                Certifier::VClock,
            )
            .map_err(|e| e.to_string())?;
            let recover_ns = t0.elapsed().as_nanos() as u64;
            Ok(Recovered {
                recover_ns,
                committed: rec.committed,
                history: rec.history,
                records: rec.records,
                segments,
            })
        }
    }
}

/// The certified history as a schedule: over the whole set when every
/// transaction is in it (the supervised shape keeps its whole log),
/// else over the projection onto the transactions it still holds (a
/// checkpointed log has compacted the retired ones away).
fn history_schedule(
    input: &Input,
    history: &[OpId],
) -> Result<(Option<Projection>, Schedule), String> {
    let mut present = vec![false; input.txn_count()];
    for op in history {
        present[op.txn.index()] = true;
    }
    if present.iter().all(|&p| p) {
        let schedule = Schedule::new(&input.txns, history.to_vec()).map_err(|e| e.to_string())?;
        return Ok((None, schedule));
    }
    let keep: Vec<TxnId> = input
        .txns
        .txn_ids()
        .filter(|t| present[t.index()])
        .collect();
    let projection =
        Projection::subset(&input.txns, &input.spec, &keep).map_err(|e| e.to_string())?;
    let schedule = projection.schedule(history).map_err(|e| e.to_string())?;
    Ok((Some(projection), schedule))
}

/// Both Theorem 1 verdicts on one recovered history, each timed alone.
pub struct Verdicts {
    /// `vclock::certify(..).is_acyclic()`.
    pub vclock: bool,
    pub vclock_ns: u64,
    /// The offline oracle, `Rsg::build(..).is_acyclic()`.
    pub rsg: bool,
    pub rsg_ns: u64,
    /// Operations certified.
    pub ops: usize,
}

/// Certifies `history` with the vector-clock certifier and, when
/// `with_rsg` is set, cross-checks the verdict against the offline RSG.
/// `Err` when the history is not a schedule at all.
pub fn certify(input: &Input, history: &[OpId], with_rsg: bool) -> Result<Verdicts, String> {
    let (projection, schedule) = history_schedule(input, history)?;
    let (txns, spec) = match &projection {
        Some(p) => (&p.txns, &p.spec),
        None => (&input.txns, &input.spec),
    };
    let t0 = Instant::now();
    let vclock = vclock::certify(txns, &schedule, spec).is_acyclic();
    let vclock_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let rsg = if with_rsg {
        Rsg::build(txns, &schedule, spec).is_acyclic()
    } else {
        vclock
    };
    let rsg_ns = t1.elapsed().as_nanos() as u64;
    Ok(Verdicts {
        vclock,
        vclock_ns,
        rsg,
        rsg_ns,
        ops: schedule.len(),
    })
}

/// Scheduler time of one round, replayed from outside.
#[derive(Default, Clone, Copy)]
pub struct Replay {
    pub request_ns: u64,
    pub requests: u64,
    pub commit_ns: u64,
    pub commits: u64,
    pub abort_ns: u64,
    pub aborts: u64,
    /// Replayed decisions that differed from the recorded ones (must
    /// stay 0: the scheduler is deterministic in core order).
    pub divergences: u64,
}

/// A fresh `RsgSgt` replays the round's recorded core trace on one
/// thread through the `Scheduler` trait, each call timed on its own.
pub fn replay_scheduler(input: &Input, trace: &[TraceEvent]) -> Replay {
    let mut s = RsgSgt::new(&input.txns, &input.spec);
    let mut r = Replay::default();
    for ev in trace {
        match ev {
            TraceEvent::Begin(t) => s.begin(*t),
            TraceEvent::Decision(op, recorded) => {
                let t0 = Instant::now();
                let got = s.request(*op);
                r.request_ns += t0.elapsed().as_nanos() as u64;
                r.requests += 1;
                if got != *recorded {
                    r.divergences += 1;
                }
                // The core applies the abort a refusal implies.
                if matches!(got, Decision::Aborted(_)) {
                    let t0 = Instant::now();
                    s.abort(op.txn);
                    r.abort_ns += t0.elapsed().as_nanos() as u64;
                    r.aborts += 1;
                }
            }
            TraceEvent::Commit(t) => {
                let t0 = Instant::now();
                s.commit(*t);
                r.commit_ns += t0.elapsed().as_nanos() as u64;
                r.commits += 1;
            }
            TraceEvent::Abort(t) => {
                let t0 = Instant::now();
                s.abort(*t);
                r.abort_ns += t0.elapsed().as_nanos() as u64;
                r.aborts += 1;
            }
            TraceEvent::Admit { .. } => {}
        }
    }
    r
}

/// Every request a clean (abort-free) drive of `input` would send, in
/// arrival order — the wire and frame probes' messages.
pub fn clean_requests(input: &Input) -> Vec<Request> {
    let mut out = Vec::with_capacity(input.total_ops() + 2 * input.txn_count());
    let mut req_id: ReqId = 1;
    let mut next = || {
        let id = req_id;
        req_id += 1;
        id
    };
    for &txn in input.arrivals().order() {
        out.push(Request::Begin {
            req_id: next(),
            txn,
        });
        for index in 0..input.txn_len(txn) {
            out.push(input.op_request(next(), OpId { txn, index }));
        }
        out.push(Request::Commit {
            req_id: next(),
            txn,
        });
    }
    out
}

/// `(encode ns, decode ns)` per message through `net::wire`.
pub fn probe_wire(requests: &[Request]) -> (f64, f64) {
    let mut buf = Vec::with_capacity(requests.len() * 40);
    let t0 = Instant::now();
    for r in requests {
        black_box(r).encode_into(&mut buf);
    }
    let enc = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let mut at = 0;
    let mut decoded = 0usize;
    while at < buf.len() {
        let (req, n) = Request::decode(black_box(&buf[at..])).expect("own encoding decodes");
        black_box(req);
        at += n;
        decoded += 1;
    }
    let dec = t1.elapsed().as_nanos() as f64;
    assert_eq!(decoded, requests.len());
    let n = requests.len().max(1) as f64;
    (enc / n, dec / n)
}

/// `(encode ns, decode ns)` per frame through `relser_frame`, CRC-32
/// included, over payloads of the wire's own sizes.
pub fn probe_frame(requests: &[Request]) -> (f64, f64) {
    use relser_frame::{decode_frame, encode_frame, FRAME_OVERHEAD};
    let max = relser_net::wire::MAX_PAYLOAD;
    let mut wire = Vec::new();
    let payloads: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            wire.clear();
            r.encode_into(&mut wire);
            wire[FRAME_OVERHEAD..].to_vec()
        })
        .collect();
    let mut buf = Vec::with_capacity(requests.len() * 40);
    let t0 = Instant::now();
    for p in &payloads {
        encode_frame(&mut buf, black_box(p), max).expect("wire payload fits");
    }
    let enc = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let mut at = 0;
    while at < buf.len() {
        let frame = decode_frame(black_box(&buf[at..]), max).expect("own frame decodes");
        black_box(frame.payload);
        at += frame.consumed;
    }
    let dec = t1.elapsed().as_nanos() as f64;
    let n = payloads.len().max(1) as f64;
    (enc / n, dec / n)
}

/// Nanoseconds per item through `BoundedQueue` at the servers' own
/// capacity and batch size: one producer thread `push_wait`s `items`
/// values, this thread `pop_batch`es them.
pub fn probe_queue(items: usize) -> f64 {
    let NetConfig {
        queue_capacity,
        batch_max,
        ..
    } = NetConfig::default();
    let queue: BoundedQueue<u64> = BoundedQueue::new(queue_capacity);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let q = &queue;
        s.spawn(move || {
            for i in 0..items as u64 {
                if q.push_wait(i).is_err() {
                    break;
                }
            }
            q.close();
        });
        let mut batch = Vec::with_capacity(batch_max);
        let mut seen = 0usize;
        while queue.pop_batch(batch_max, &mut batch) {
            seen += batch.len();
            black_box(&batch);
            batch.clear();
        }
        assert_eq!(seen, items, "queue delivered every item");
    });
    t0.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// `(append ns per record, scan ns per record, records)`: the round's
/// own WAL records re-appended to a `SegmentedWal` on `MemSegmentStore`
/// under `FsyncPolicy::Never`, and its durable bytes re-scanned.
pub fn probe_wal(segments: &[(u64, Vec<u8>)]) -> io::Result<(f64, f64, usize)> {
    let t0 = Instant::now();
    let mut records: Vec<WalRecord> = Vec::new();
    for (_, bytes) in segments {
        records.extend(scan(black_box(bytes)).records);
    }
    let scan_ns = t0.elapsed().as_nanos() as f64;
    let (store, _handle) = MemSegmentStore::new();
    let mut wal = SegmentedWal::new(
        Box::new(store),
        FsyncPolicy::Never,
        CheckpointPolicy::never(),
    )?;
    let t1 = Instant::now();
    for rec in &records {
        wal.append(black_box(rec))?;
    }
    wal.batch_end()?;
    let append_ns = t1.elapsed().as_nanos() as f64;
    let n = records.len().max(1) as f64;
    Ok((append_ns / n, scan_ns / n, records.len()))
}
