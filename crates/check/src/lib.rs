//! # relser-check — deterministic schedule-space model checking
//!
//! The protocols in this workspace are *online* deciders; the theory
//! behind them (Theorem 1: RSG acyclicity ⟺ relative serializability) is
//! an *offline* test. This crate closes the loop between the two: it
//! enumerates the interleaving space of small workloads, drives any
//! [`Scheduler`](relser_protocols::Scheduler) through each interleaving,
//! and cross-checks every resulting execution against independent
//! offline oracles. When the oracles disagree with the protocol, a
//! minimizing reporter shrinks the failing universe to a smallest
//! counterexample and pretty-prints its RSG with the offending cycle.
//!
//! The pieces:
//!
//! * [`explore`] — the [`ScheduleExplorer`]: exhaustive DFS for tiny
//!   universes, sleep-set (DPOR-lite) pruned DFS, and seeded random
//!   walks, all deterministic and replayable from a choice sequence;
//! * [`oracle`] — the cross-validation suite: Theorem 1 RSG acyclicity,
//!   Figure 5 lattice containments, conflict-serializability claims,
//!   lockstep shadow schedulers, and exact trace replay;
//! * [`mod@shrink`] — greedy delta-debugging of a failing universe plus the
//!   human-readable counterexample report;
//! * [`faults`] — fault-injection sweeps against the real server
//!   (`relser-server`): injected aborts, admission-core crashes, queue
//!   shedding, and block-timeout storms, each run validated end to end;
//! * [`preload`] — re-drives a recorded run from a pre-loaded queue in
//!   exact multi-command batches, so the storage and shard sweeps cut
//!   the group-commit window (records appended, barrier pending, acks
//!   held) that live one-command-at-a-time sessions never open;
//! * [`shard_faults`] — crash-at-k sweeps over the sharded service, whose
//!   shards share nothing: live core crashes on a durable N-shard run of
//!   a shard-local universe, full-log and skewed-cut recoveries, every
//!   shard keeping the commits it acknowledged whatever the others lost,
//!   and the Theorem 1 oracle re-run whole over every merged committed
//!   history;
//! * `storage_faults` (feature `fault-fs`) — storage fault injection
//!   against the durable server: a fault-injecting WAL backend plus the
//!   crash-point sweep that cuts, flips, and live-fails the commit log at
//!   every offset and demands oracle-clean recovery with zero
//!   acknowledged-commit loss.
//!
//! The headline guarantee the test-suite pins down: exhaustive
//! exploration of the paper's Figure 1 and Figure 4 universes reports
//! **zero** oracle divergences for all five production protocols, while
//! a deliberately planted protocol bug (the RSG-SGT engine fed a
//! *transposed* `Atomicity` relation, behind the `planted-bug` feature
//! of `relser-protocols`) is caught and shrunk to a 4-operation
//! counterexample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod faults;
pub mod oracle;
pub mod preload;
pub mod shard_faults;
pub mod shrink;
#[cfg(feature = "fault-fs")]
pub mod storage_faults;

pub use explore::{ExploreConfig, ExploreReport, ExploreStats, Mode, ScheduleExplorer};
pub use faults::{fault_sweep, FaultSweepConfig, FaultSweepReport};
pub use oracle::{check_execution, Divergence, DivergenceKind, ExecutionRecord};
pub use relser_core::project::Projection;
pub use shard_faults::{shard_crash_sweep, ShardSweepConfig, ShardSweepReport};
pub use shrink::{shrink, shrink_universe, Counterexample};
#[cfg(feature = "fault-fs")]
pub use storage_faults::{
    checkpoint_crash_sweep, crash_point_sweep, CheckpointSweepConfig, CrashSweepConfig,
    CrashSweepReport, FaultFs, FaultFsConfig, FaultFsHandle,
};
