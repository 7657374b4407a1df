//! # relser-server — a concurrent transaction service over the RSG core
//!
//! Everything below `crates/server` in this workspace is single-threaded:
//! the driver and simulator own the whole transaction set and call the
//! scheduler inline. This crate turns the same
//! [`Scheduler`](relser_protocols::Scheduler) machinery —
//! including the incremental RSG-SGT engine — into a **service**: N
//! client worker threads open sessions and submit read/write/commit/abort
//! requests concurrently, while a *single-writer admission core* owns the
//! scheduler and drains a bounded command queue in batches.
//!
//! The architecture, bottom to top:
//!
//! * [`queue`] — bounded MPSC command queue with backpressure
//!   ([`OverloadPolicy::Wait`]) or load-shedding ([`OverloadPolicy::Shed`])
//!   and batch draining on the consumer side;
//! * [`core`] — [`run_core`], the one admission loop: applies commands
//!   in queue order (the run's serialization point), answers requests
//!   through one-shot [`core::Reply`] cells, bumps a [`core::Progress`]
//!   epoch after every state change, optionally records a [`TraceEvent`]
//!   log, optionally appends every state change to a commit log
//!   (`relser_wal::CommitLog`) before acknowledging it, and always runs
//!   as one shard of N ([`ShardCoreCtx`]; unsharded is shard 0 of 1);
//! * [`route`] — [`Route`], the back-end described once for both
//!   front-ends: which core owns a transaction, which queue reaches it,
//!   what a commit to it carries (unsharded = its N = 1 row);
//! * [`flight`] — [`Flight`], the one per-operation state machine: from
//!   "command submitted" to "verdict delivered" — resubmit on `Blocked`
//!   when the progress epoch moves, waits-for-based abort timeout, reply
//!   watchdog — driven with an injected `now` by the session threads
//!   here and by the reactors of `relser-net`;
//! * [`session`] — the client protocol, written once: begin, program-order
//!   requests (each one a [`Flight`] the session parks on) and commit, all
//!   routed to the one core owning the transaction, restart-on-abort with
//!   backoff — exactly mirroring the single-threaded driver discipline;
//! * [`shard`] — [`serve_sharded`], the one in-process front-end: that
//!   session over N shard cores that share nothing, not even an order (a
//!   transaction is owned by exactly one shard; one spanning shards is
//!   refused). One scheduler is the unsharded service, its N = 1 row. It
//!   returns a [`ShardedReport`], partial runs included, whose
//!   [`ShardedReport::into_run`] is the merged committed history as a
//!   validated [`Schedule`](relser_core::schedule::Schedule) plus
//!   [`ServerMetrics`];
//! * [`server`] — the run's [`ServerConfig`] and [`RunOutcome`], and
//!   [`replay`], which re-executes a recorded core trace
//!   deterministically on one thread;
//! * [`supervisor`] — [`supervise_shard`], the restart loop the TCP
//!   front-end (`relser-net`) runs each shard core under;
//! * [`recovery`] — two recoveries, each rebuilding the committed state
//!   from the log's longest valid prefix and re-certifying the committed
//!   history before accepting it (a fresh scheduler is the recovered
//!   one): [`recover_segments_with_certifier`]
//!   (one log) and [`recover_sharded_segments_with_certifier`] (N
//!   per-shard logs). Every log is a `relser_wal::SegmentedWal`; one
//!   that never rotated is a single segment.
//!
//! ## The headline invariant
//!
//! Whatever interleaving the threads produce, the committed history must
//! be *relatively serializable*: re-validating it offline with
//! `Rsg::build(&txns, &run.history, &spec).is_acyclic()` must succeed.
//! The stress tests in `tests/stress.rs` check exactly that, across
//! schedulers, seeds, and thread counts.
//!
//! ```
//! use relser_core::rsg::Rsg;
//! use relser_protocols::rsg_sgt::RsgSgt;
//! use relser_server::{serve_sharded, ServerConfig};
//! use relser_workload::banking::{banking, BankingConfig};
//! use relser_workload::stream::RequestStream;
//!
//! let scenario = banking(&BankingConfig::default(), 42);
//! let scheduler = RsgSgt::new(&scenario.txns, &scenario.spec);
//! let cfg = ServerConfig { workers: 4, ..ServerConfig::default() };
//! let stream = RequestStream::shuffled(&scenario.txns, 7);
//! // One shard, no faults, no commit log: the in-memory service.
//! let report = serve_sharded(
//!     &scenario.txns,
//!     &stream,
//!     vec![Box::new(scheduler)],
//!     &cfg,
//!     &[],
//!     Vec::new(),
//! );
//! let run = report.into_run(&scenario.txns).unwrap();
//! let rsg = Rsg::build(&scenario.txns, &run.history, &scenario.spec);
//! assert!(rsg.is_acyclic(), "committed history is relatively serializable");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod flight;
pub mod metrics;
pub mod queue;
pub mod recovery;
pub mod route;
pub mod server;
pub mod session;
pub mod shard;
pub mod supervisor;

pub use core::{run_core, CoreCfg, FaultPlan, Progress, ShardCoreCtx, TraceEvent};
pub use flight::{Flight, Step, Timeouts, Work};
pub use metrics::ServerMetrics;
pub use queue::{BoundedQueue, PushError, QueueStats};
pub use recovery::{
    recover_segments_with_certifier, recover_sharded_segments_with_certifier, Certifier, Recovery,
    RecoveryError, ShardedRecovery,
};
pub use route::Route;
pub use server::{replay, ReplayMismatch, RunOutcome, ServerConfig, ServerError};
pub use session::{restart_backoff, OverloadPolicy, SessionError, SessionStats};
pub use shard::{replay_sharded, serve_sharded, ShardedReport, ShardedRun};
pub use supervisor::{
    fence_resumed_shard, recover_and_resume, supervise_shard, SessionTable, ShardHealth,
    SupervisedRun, SupervisorCfg, MAX_RESTARTS,
};
