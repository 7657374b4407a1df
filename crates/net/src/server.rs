//! Server orchestration: listener + acceptor + reactors + the
//! single-writer admission core, wired under one `thread::scope`.

use crate::conn::ReactorCtx;
use crate::metrics::{NetMetrics, NetReport};
use crate::reactor::{accept_loop, run_reactor};
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_poll::Doorbell;
use relser_protocols::Scheduler;
use relser_server::core::{run_core, Command, CoreCfg, FaultPlan, Progress};
use relser_server::metrics::histogram_of;
use relser_server::queue::BoundedQueue;
use relser_server::recovery::{recover_sharded_segments_with_certifier, ShardedRecovery};
use relser_server::supervisor::{
    supervise_shard, SessionTable, ShardHealth, SupervisedRun, SupervisorCfg,
};
use relser_server::{Certifier, OverloadPolicy, Route, ServerMetrics, Timeouts};
use relser_wal::{CheckpointPolicy, CommitLog, FsyncPolicy, MemSegmentsHandle};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Tunables for one [`serve_net`] run.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Reactor threads multiplexing the connections.
    pub reactors: usize,
    /// Command queue capacity (the admission backpressure threshold).
    pub queue_capacity: usize,
    /// Max commands the core drains per queue lock acquisition.
    pub batch_max: usize,
    /// What happens to operation requests when the queue is full:
    /// `Wait` defers them (pausing the connection's reads — TCP
    /// backpressure), `Shed` answers [`crate::wire::Response::Shed`].
    pub policy: OverloadPolicy,
    /// Per-connection cap on in-flight commands (pipelining depth the
    /// server is willing to buffer before pausing reads).
    pub max_inflight: usize,
    /// Abort a transaction blocked on an unchanged waits-for set this
    /// long (deadlock resolution). This and the next two are the
    /// [`Timeouts`] of every in-flight command — the same rule, from the
    /// same code, as the in-process sessions'.
    pub block_timeout: Duration,
    /// Re-submit a blocked operation at least this often.
    pub retry_slice: Duration,
    /// Close a connection whose request the core never answers within
    /// this (the degrade-don't-die path).
    pub reply_timeout: Duration,
    /// The reactor's retry tick while a command it could not enqueue
    /// waits for room in a full queue (and the acceptor's back-off after
    /// a failed `accept`). Nothing else is timed by it: the reactor
    /// blocks in `poll(2)` on its sockets, its doorbell and its real
    /// deadlines, and an idle server does not tick at all. `poll(2)`
    /// counts in milliseconds, so a shorter quantum waits one.
    pub poll_quantum: Duration,
    /// Record a replayable core trace.
    pub record_trace: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            reactors: 2,
            queue_capacity: 1024,
            batch_max: 64,
            policy: OverloadPolicy::Wait,
            max_inflight: 32,
            block_timeout: Duration::from_millis(100),
            retry_slice: Duration::from_millis(1),
            reply_timeout: Duration::from_secs(5),
            poll_quantum: Duration::from_micros(100),
            record_trace: false,
        }
    }
}

impl NetConfig {
    /// Sets the reactor's reply watchdog: how long the core may stay
    /// silent on a submitted request before the connection is degraded
    /// with [`crate::wire::ErrorCode::ReplyLost`].
    pub fn with_reply_timeout(mut self, t: Duration) -> NetConfig {
        self.reply_timeout = t;
        self
    }

    /// Sets the waits-for block timeout (deadlock resolution).
    pub fn with_block_timeout(mut self, t: Duration) -> NetConfig {
        self.block_timeout = t;
        self
    }

    /// Sets the full-queue retry tick (see [`NetConfig::poll_quantum`]).
    pub fn with_poll_quantum(mut self, t: Duration) -> NetConfig {
        self.poll_quantum = t;
        self
    }

    /// Sets the reactor thread count.
    pub fn with_reactors(mut self, n: usize) -> NetConfig {
        self.reactors = n;
        self
    }
}

/// The loopback listener both entry points bind: `127.0.0.1:0`,
/// blocking (the acceptor sleeps in `accept()`).
fn bind_loopback() -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

impl NetConfig {
    /// The reactors' view of this config over the back-end `route`;
    /// `sessions` is written by supervised cores only. Makes one doorbell
    /// per reactor and attaches each to every core's progress epoch, so
    /// every bump rings them.
    fn reactor_ctx<'a>(
        &self,
        route: Route<'a>,
        sessions: &'a SessionTable,
    ) -> io::Result<ReactorCtx<'a>> {
        let bells = (0..self.reactors)
            .map(|_| Doorbell::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        for progress in route.progresses {
            for bell in &bells {
                progress.attach(Arc::clone(bell));
            }
        }
        Ok(ReactorCtx {
            bells,
            route,
            sessions,
            policy: self.policy,
            max_inflight: self.max_inflight,
            timeouts: Timeouts {
                block_timeout: self.block_timeout,
                retry_slice: self.retry_slice,
                reply_timeout: self.reply_timeout,
            },
        })
    }

    fn core(&self) -> CoreCfg {
        CoreCfg {
            batch_max: self.batch_max,
            record_trace: self.record_trace,
        }
    }
}

/// The TCP front-end's life inside the server's `thread::scope`, after
/// the core(s) are spawned: starts `cfg.reactors` reactor threads and the
/// acceptor, runs `client` against the bound address on the current
/// thread, and — when it returns — raises `stop`, wakes and joins the
/// acceptor, rings every reactor and merges their metrics as they drain
/// and close every connection (aborting whatever the client left live).
/// The caller then closes its queue(s) and joins its core(s).
fn run_front_end<'scope, R>(
    s: &'scope Scope<'scope, '_>,
    cfg: &'scope NetConfig,
    listener: &'scope TcpListener,
    addr: SocketAddr,
    ctx: &'scope ReactorCtx<'scope>,
    stop: &'scope AtomicBool,
    client: impl FnOnce(SocketAddr) -> R,
) -> (NetMetrics, R) {
    let mut handoffs = Vec::with_capacity(cfg.reactors);
    let mut reactors = Vec::with_capacity(cfg.reactors);
    for bell in &ctx.bells {
        let (tx, rx) = mpsc::channel();
        handoffs.push((tx, Arc::clone(bell)));
        reactors.push(s.spawn(move || run_reactor(ctx, rx, bell, stop, cfg.poll_quantum)));
    }
    let acceptor = s.spawn(move || accept_loop(listener, handoffs, stop, cfg.poll_quantum));

    let client_out = client(addr);

    stop.store(true, Ordering::Release);
    // The acceptor sleeps in `accept()`: a throwaway connection makes it
    // look at `stop` (one that connected is enough — it is accepted sooner
    // or later). The acceptor's exit drops the hand-off channels, which is
    // what lets a reactor finish, so the reactors are rung only after it.
    while !acceptor.is_finished() && TcpStream::connect(addr).is_err() {
        std::thread::yield_now();
    }
    acceptor.join().expect("acceptor thread panicked");
    for bell in &ctx.bells {
        bell.ring();
    }
    let mut net = NetMetrics::default();
    for r in reactors {
        net.merge(&r.join().expect("reactor thread panicked"));
    }
    (net, client_out)
}

/// Serves the transaction set over real TCP on a loopback address, on
/// one unsupervised admission core.
///
/// Binds `127.0.0.1:0`, spawns the admission core, `cfg.reactors`
/// reactor threads and an acceptor, then calls `client` with the bound
/// address on the current thread — the closure drives load (connect,
/// pipeline requests, commit transactions) and its return ends the run:
/// the acceptor stops, the reactors drain and close every connection
/// (aborting whatever the client left live), the queue closes, and the
/// core exits. Returns the combined [`NetReport`] plus the closure's
/// own result. A log written through `wal` is recovered with
/// [`relser_server::recover`] (flat) or
/// [`relser_server::recover_segments_with_certifier`] (segmented).
///
/// The scheduler may borrow `txns` (e.g. `RsgSgt::new(&txns, &spec)`),
/// which is why the server runs under `thread::scope` behind a closure
/// instead of owning `'static` threads.
pub fn serve_net<R>(
    txns: &TxnSet,
    scheduler: Box<dyn Scheduler + Send + '_>,
    cfg: &NetConfig,
    faults: &FaultPlan,
    wal: Option<&mut dyn CommitLog>,
    client: impl FnOnce(SocketAddr) -> R,
) -> io::Result<(NetReport, R)> {
    assert!(cfg.reactors >= 1, "need at least one reactor");
    let (listener, addr) = bind_loopback()?;
    // The N = 1 row: one plain core, stamp-less commits, no supervisor.
    let queue: BoundedQueue<Command> = BoundedQueue::new(cfg.queue_capacity);
    let progress = Progress::new();
    let sessions = SessionTable::new();
    let stop = AtomicBool::new(false);
    let route = Route {
        txns,
        map: ShardMap::new(1),
        queues: std::slice::from_ref(&queue),
        progresses: std::slice::from_ref(&progress),
        stamps: None,
        healths: None,
    };
    let ctx = cfg.reactor_ctx(route, &sessions)?;
    let t0 = Instant::now();

    let (core_out, net, client_out) = std::thread::scope(|s| {
        let (queue, progress) = (&queue, &progress);
        let core =
            s.spawn(move || run_core(scheduler, queue, progress, cfg.core(), faults, wal, None));
        let (net, client_out) = run_front_end(s, cfg, &listener, addr, &ctx, &stop, client);
        queue.close();
        let core_out = core.join().expect("admission core panicked");
        (core_out, net, client_out)
    });
    let elapsed = t0.elapsed();

    let metrics = ServerMetrics {
        workers: net.connections as usize,
        sheds: net.sheds,
        committed_ops: core_out.committed_ops(),
        ..ServerMetrics::from_core(&core_out, queue.stats(), elapsed)
    };
    let admit = histogram_of(&core_out.decision_ns);

    Ok((
        NetReport {
            committed: core_out.committed,
            log: core_out.log,
            trace: core_out.trace,
            crashed: core_out.crashed,
            metrics,
            net,
            admit,
        },
        client_out,
    ))
}

/// Supervision tunables for one [`serve_net_supervised_in`] run.
#[derive(Clone, Debug)]
pub struct SuperviseNetConfig {
    /// Shard cores (the object space is partitioned across them).
    pub shards: usize,
    /// Fsync policy of every shard core's segmented log.
    pub fsync: FsyncPolicy,
    /// Checkpoint/rotation policy of every shard core's log.
    pub ckpt: CheckpointPolicy,
    /// Per-shard supervisor restart budget.
    pub max_restarts: u64,
}

impl Default for SuperviseNetConfig {
    fn default() -> Self {
        SuperviseNetConfig {
            shards: 2,
            fsync: FsyncPolicy::Always,
            ckpt: CheckpointPolicy::default(),
            max_restarts: 8,
        }
    }
}

/// What one supervised sharded run produced. The WAL segment streams are
/// the source of truth: `recovery` is their offline merge through
/// [`recover_sharded_segments_with_certifier`] (certified with
/// [`Certifier::VClock`]) — the committed set and history it reports are
/// what a post-crash service would serve, which is exactly the set
/// acknowledged commits must be a subset of.
pub struct SupervisedNetReport {
    /// The offline merge of every shard's retained segment stream.
    pub recovery: ShardedRecovery,
    /// Per-shard supervisor outcomes (index = shard id).
    pub runs: Vec<SupervisedRun>,
    /// The merged core metrics (supervisor counters included), the merged
    /// reactor metrics and the per-stage latency report.
    pub report: NetReport,
}

/// [`serve_net`] with the supervised sharded back-end: `sup.shards`
/// shard cores, each under [`supervise_shard`]'s panic/fail-stop
/// boundary, a durable client-session retry table for exactly-once
/// commit retries, and per-shard segmented WALs — one caller-owned
/// segment store per shard — recovered **in place** when a core dies:
/// the process, the listener, and every other shard keep serving.
/// Non-empty stores are recovered and resumed, so a second call with the
/// same stores models a whole-service restart: every commit the first
/// life acknowledged is served (and re-certified) by the second. For a
/// fresh service pass fresh stores (`MemSegmentStore::new().1` each).
///
/// `make_scheduler(shard)` must return a fresh scheduler each call (the
/// supervisor also calls it on every restart). `faults` is one
/// [`FaultPlan`] per shard (empty = no faults anywhere), applied to each
/// shard's *first* incarnation only.
///
/// A transaction is owned by exactly one shard; one whose objects span
/// shards is answered `BadRequest` (see `relser_server::shard`).
#[allow(clippy::too_many_arguments)]
pub fn serve_net_supervised_in<'e, R>(
    txns: &'e TxnSet,
    spec: &'e AtomicitySpec,
    make_scheduler: impl Fn(u32) -> Box<dyn Scheduler + Send + 'e> + Sync,
    cfg: &NetConfig,
    sup: &SuperviseNetConfig,
    faults: &[FaultPlan],
    stores: &[MemSegmentsHandle],
    client: impl FnOnce(SocketAddr) -> R,
) -> io::Result<(SupervisedNetReport, R)> {
    assert!(cfg.reactors >= 1, "need at least one reactor");
    assert!(sup.shards >= 1, "need at least one shard");
    assert!(
        faults.is_empty() || faults.len() == sup.shards,
        "fault plans must be absent or one per shard"
    );
    assert!(stores.len() == sup.shards, "one segment store per shard");
    let shards = sup.shards;
    let (listener, addr) = bind_loopback()?;

    let queues: Vec<BoundedQueue<Command>> = (0..shards)
        .map(|_| BoundedQueue::new(cfg.queue_capacity))
        .collect();
    let healths: Vec<ShardHealth> = (0..shards).map(|_| ShardHealth::new()).collect();
    let sessions = SessionTable::new();
    let progresses: Vec<Progress> = (0..shards).map(|_| Progress::new()).collect();
    let stop = AtomicBool::new(false);
    // One counter draws both the grant tickets and the commit stamps.
    let seq = AtomicU64::new(0);
    let default_faults = FaultPlan::default();

    let route = Route {
        txns,
        map: ShardMap::new(shards as u32),
        queues: &queues,
        progresses: &progresses,
        stamps: Some(&seq),
        healths: Some(&healths),
    };
    let ctx = cfg.reactor_ctx(route, &sessions)?;
    let sup_cfg = SupervisorCfg {
        txns,
        spec,
        fsync: sup.fsync,
        ckpt: sup.ckpt,
        batch_max: cfg.batch_max,
        record_trace: cfg.record_trace,
        max_restarts: sup.max_restarts,
    };
    let t0 = Instant::now();

    let (runs, net, client_out) = std::thread::scope(|s| {
        let make_scheduler = &make_scheduler;
        let (sup_cfg, stop, sessions, seq) = (&sup_cfg, &stop, &sessions, &seq);
        let mut cores = Vec::with_capacity(shards);
        for shard in 0..shards {
            let queue = &queues[shard];
            let progress = &progresses[shard];
            let health = &healths[shard];
            let store = &stores[shard];
            let plan = faults.get(shard).unwrap_or(&default_faults);
            cores.push(s.spawn(move || {
                supervise_shard(
                    || make_scheduler(shard as u32),
                    queue,
                    progress,
                    plan,
                    store,
                    health,
                    sessions,
                    stop,
                    shard as u32,
                    seq,
                    sup_cfg,
                )
            }));
        }
        let (net, client_out) = run_front_end(s, cfg, &listener, addr, &ctx, stop, client);
        // A supervisor mid-recovery reopens its queue after we close it,
        // so keep fencing until every shard loop has actually exited.
        loop {
            for q in &queues {
                q.close();
            }
            if cores.iter().all(|c| c.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let runs: Vec<SupervisedRun> = cores
            .into_iter()
            .map(|c| c.join().expect("supervisor thread panicked"))
            .collect();
        (runs, net, client_out)
    });
    let elapsed = t0.elapsed();

    // The WAL is the source of truth: merge every shard's retained
    // segment stream offline, rolling back crash orphans and
    // re-certifying the merged history.
    let segment_streams: Vec<Vec<(u64, Vec<u8>)>> = stores.iter().map(|h| h.segments()).collect();
    let recovery = recover_sharded_segments_with_certifier(
        txns,
        spec,
        |shard| make_scheduler(shard),
        &segment_streams,
        Certifier::VClock,
    )
    .map_err(|e| io::Error::other(format!("final WAL merge failed: {e}")))?;

    let mut metrics = runs
        .iter()
        .zip(&queues)
        .map(|(run, queue)| ServerMetrics {
            supervisor_restarts: run.restarts,
            supervisor_panics: run.panics,
            failed_shards: run.gave_up as u64,
            ..ServerMetrics::from_core(&run.output, queue.stats(), elapsed)
        })
        .reduce(|mut agg, m| {
            agg.merge(&m);
            agg
        })
        .expect("at least one shard");
    metrics.workers = net.connections as usize;
    metrics.sheds = net.sheds;
    // Whole-service truth from the offline merge, not the final
    // incarnations (whose in-memory view a crash may have eaten).
    metrics.commits = recovery.committed.len() as u64;
    metrics.committed_ops = recovery.history.len() as u64;
    metrics.elapsed = elapsed;

    let report = NetReport {
        committed: recovery.committed.clone(),
        log: recovery.history.clone(),
        trace: Vec::new(),
        crashed: runs.iter().any(|r| r.gave_up),
        admit: metrics.admission.clone(),
        metrics,
        net,
    };

    Ok((
        SupervisedNetReport {
            recovery,
            runs,
            report,
        },
        client_out,
    ))
}
