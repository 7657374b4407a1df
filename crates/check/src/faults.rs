//! Fault-injection sweeps against the real concurrent server.
//!
//! The explorer checks protocols under a virtual clock; this module
//! checks the *service* (`relser-server`) under deterministic faults:
//!
//! * **injected aborts** — the admission core aborts the transaction
//!   behind the k-th request before consulting the scheduler
//!   ([`FaultPlan::abort_requests`]), exercising restart paths;
//! * **crash-at-command-k** — the core stops mid-run
//!   ([`FaultPlan::crash_at_command`]), drains the queue with shutdown
//!   replies, and leaves a committed *prefix*;
//! * **load shedding** — a capacity-1 queue under [`OverloadPolicy::Shed`]
//!   drops commands at peak, exercising session retry;
//! * **block-timeout storms** — a near-zero block timeout makes blocking
//!   protocols self-abort aggressively (deadlock-resolution pressure).
//!
//! Every run — completed, crashed, or failed — is converted into an
//! [`ExecutionRecord`] and pushed through the full offline oracle suite:
//! the committed transactions (even of a crashed prefix) must form a
//! relatively serializable history, and the recorded trace must replay
//! exactly on a fresh scheduler. The headline convergence claim: **no
//! fault can make a committed history violate Theorem 1**.

use crate::oracle::{check_execution, Divergence, ExecutionRecord};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::SchedulerKind;
use relser_server::{serve_sharded, FaultPlan, OverloadPolicy, RunOutcome, ServerConfig};
use relser_workload::stream::RequestStream;
use std::time::Duration;

/// The sweep grid. Every listed fault is run for every `kind` × `seed`
/// combination, each as its own server run.
#[derive(Clone, Debug)]
pub struct FaultSweepConfig {
    /// Protocols to sweep.
    pub kinds: Vec<SchedulerKind>,
    /// Arrival-order seeds.
    pub seeds: Vec<u64>,
    /// Request ordinals to abort by injection (one run per entry).
    pub inject_aborts: Vec<u64>,
    /// Command ordinals to crash the core at (one run per entry).
    pub crash_at: Vec<u64>,
    /// Also run with a capacity-1 queue under [`OverloadPolicy::Shed`].
    pub shed_capacity_one: bool,
    /// Also run blocking protocols with a near-zero block timeout.
    pub tiny_block_timeout: bool,
    /// Session worker threads per run.
    pub workers: usize,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        FaultSweepConfig {
            kinds: SchedulerKind::all().to_vec(),
            seeds: vec![1, 2],
            inject_aborts: vec![1, 3, 6],
            crash_at: vec![0, 3, 7, 12],
            shed_capacity_one: true,
            tiny_block_timeout: true,
            workers: 3,
        }
    }
}

/// What a sweep observed.
#[derive(Debug, Default)]
pub struct FaultSweepReport {
    /// Total server runs.
    pub runs: u64,
    /// Runs that ended in [`RunOutcome::Crashed`].
    pub crashed: u64,
    /// Runs that ended in [`RunOutcome::Failed`] (livelock / shutdown
    /// collateral — legitimate under aggressive faults).
    pub failed: u64,
    /// Total fault-plan aborts the cores applied.
    pub injected_aborts: u64,
    /// Total transactions committed across all runs.
    pub committed_txns: u64,
    /// Total oracle divergences (all counted, storage capped).
    pub divergence_count: u64,
    /// The first divergences found.
    pub divergences: Vec<Divergence>,
}

impl FaultSweepReport {
    /// Did every run's committed history satisfy every oracle?
    pub fn clean(&self) -> bool {
        self.divergence_count == 0
    }
}

/// Runs the full sweep grid over one universe.
pub fn fault_sweep(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    cfg: &FaultSweepConfig,
) -> FaultSweepReport {
    let mut report = FaultSweepReport::default();
    for &kind in &cfg.kinds {
        for &seed in &cfg.seeds {
            let mut grid: Vec<(ServerConfig, FaultPlan)> = Vec::new();
            let base = ServerConfig {
                workers: cfg.workers,
                record_trace: true,
                ..ServerConfig::default()
            };
            // Faultless baseline: the service itself must converge.
            grid.push((base.clone(), FaultPlan::default()));
            for &k in &cfg.inject_aborts {
                grid.push((
                    base.clone(),
                    FaultPlan {
                        abort_requests: vec![k],
                        ..FaultPlan::default()
                    },
                ));
            }
            for &c in &cfg.crash_at {
                grid.push((
                    base.clone(),
                    FaultPlan {
                        crash_at_command: Some(c),
                        ..FaultPlan::default()
                    },
                ));
            }
            if cfg.shed_capacity_one {
                grid.push((
                    ServerConfig {
                        queue_capacity: 1,
                        batch_max: 1,
                        policy: OverloadPolicy::Shed,
                        ..base.clone()
                    },
                    FaultPlan::default(),
                ));
            }
            if cfg.tiny_block_timeout {
                grid.push((
                    ServerConfig {
                        block_timeout: Duration::from_micros(10),
                        retry_slice: Duration::from_micros(10),
                        ..base.clone()
                    },
                    FaultPlan::default(),
                ));
            }
            for (server_cfg, faults) in grid {
                run_one(txns, spec, kind, &server_cfg, seed, &faults, &mut report);
            }
        }
    }
    report
}

/// One server run, oracle-checked into the report.
fn run_one(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    kind: SchedulerKind,
    server_cfg: &ServerConfig,
    seed: u64,
    faults: &FaultPlan,
    report: &mut FaultSweepReport,
) {
    let stream = RequestStream::shuffled(txns, seed);
    let mut run = serve_sharded(
        txns,
        &stream,
        vec![kind.make(txns, spec)],
        server_cfg,
        std::slice::from_ref(faults),
        Vec::new(),
    );
    let core = run.shards.pop().expect("one core");
    report.runs += 1;
    match run.outcome {
        RunOutcome::Completed => {}
        RunOutcome::Crashed => report.crashed += 1,
        RunOutcome::Failed(_) => report.failed += 1,
    }
    report.injected_aborts += core.injected_aborts;
    report.committed_txns += run.committed.len() as u64;
    let exec = ExecutionRecord {
        path: Vec::new(),
        committed: run.committed,
        log: run.log,
        trace: core.trace,
        shadow_mismatch: None,
    };
    let found = check_execution(txns, spec, kind, &exec);
    report.divergence_count += found.len() as u64;
    for d in found {
        if report.divergences.len() < crate::explore::MAX_STORED_DIVERGENCES {
            report.divergences.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_core::paper::Figure1;

    fn quick() -> FaultSweepConfig {
        FaultSweepConfig {
            seeds: vec![1],
            inject_aborts: vec![2],
            crash_at: vec![0, 5],
            ..FaultSweepConfig::default()
        }
    }

    #[test]
    fn figure1_sweep_converges_under_all_faults() {
        let fig = Figure1::new();
        let report = fault_sweep(&fig.txns, &fig.spec, &quick());
        assert!(report.clean(), "{:?}", report.divergences);
        assert!(report.runs > 0);
    }

    #[test]
    fn crash_runs_commit_a_valid_prefix() {
        let fig = Figure1::new();
        let cfg = FaultSweepConfig {
            kinds: vec![SchedulerKind::RsgSgt],
            seeds: vec![1, 2],
            inject_aborts: vec![],
            crash_at: vec![0, 2, 4, 6, 8, 10],
            shed_capacity_one: false,
            tiny_block_timeout: false,
            workers: 3,
        };
        let report = fault_sweep(&fig.txns, &fig.spec, &cfg);
        assert!(report.clean(), "{:?}", report.divergences);
        assert!(report.crashed > 0, "the crash grid must actually crash");
        // crash-at-0 commits nothing; later crashes commit a prefix.
        assert!(report.committed_txns < report.runs * fig.txns.len() as u64);
    }

    #[test]
    fn injected_aborts_are_applied_and_survivable() {
        let fig = Figure1::new();
        let cfg = FaultSweepConfig {
            kinds: vec![SchedulerKind::TwoPl, SchedulerKind::RsgSgt],
            seeds: vec![1],
            inject_aborts: vec![1, 2, 4],
            crash_at: vec![],
            shed_capacity_one: false,
            tiny_block_timeout: false,
            workers: 2,
        };
        let report = fault_sweep(&fig.txns, &fig.spec, &cfg);
        assert!(report.clean(), "{:?}", report.divergences);
        assert!(report.injected_aborts > 0, "injections must land");
    }
}
