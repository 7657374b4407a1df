//! Aggregated service metrics for one [`crate::serve_sharded`] run.

use crate::core::CoreOutput;
use crate::queue::QueueStats;
use crate::session::{SessionError, SessionStats};
use relser_simdb::metrics::{DecisionLatency, LatencyHistogram};
use relser_wal::WalStats;
use std::fmt;
use std::time::Duration;

/// Everything measured during one server run: throughput, queue
/// behaviour, admission latency, and abort/shed accounting.
#[derive(Clone, Debug, Default)]
pub struct ServerMetrics {
    /// Worker (session) threads.
    pub workers: usize,
    /// Transactions committed.
    pub commits: u64,
    /// Scheduler-initiated aborts (each restarted the incarnation).
    pub aborts: u64,
    /// Every [`Command::Abort`](crate::core::Command::Abort) the cores
    /// applied: the waits-for timeouts of blocked operations, and — over
    /// TCP — clients' own `Abort` requests and the cleanup of whatever a
    /// closing connection left live. (The timeout-only figure of a TCP
    /// run is `NetMetrics::timeout_aborts`.)
    pub timeout_aborts: u64,
    /// Requests shed by the overload policy (each retried later).
    pub sheds: u64,
    /// Operation requests answered (grants + blocks + aborts).
    pub requests: u64,
    /// Requests granted.
    pub grants: u64,
    /// Requests answered `Blocked`.
    pub blocked: u64,
    /// Total commands the core processed.
    pub commands: u64,
    /// Queue batches the core drained.
    pub batches: u64,
    /// Largest batch drained at once.
    pub max_batch: usize,
    /// Queue depth statistics (at push time).
    pub queue: QueueStats,
    /// Pure `Scheduler::request` decision cost (host ns).
    pub decision: DecisionLatency,
    /// Admission latency: enqueue → decision (queue wait + decision).
    pub admission: LatencyHistogram,
    /// Pure queue-wait latency: enqueue → dequeue, before the scheduler
    /// is consulted (one sample per request and per acked commit).
    pub queue_wait: LatencyHistogram,
    /// WAL durability-barrier (fsync) latency, one sample per barrier
    /// (empty for non-durable runs).
    pub wal_sync: LatencyHistogram,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Operations in the committed history.
    pub committed_ops: u64,
    /// Total time sessions slept in restart backoff, in nanoseconds
    /// (summed across workers — see [`crate::session::restart_backoff`]).
    pub backoff_ns: u64,
    /// Largest incarnation count any single transaction needed.
    pub max_txn_attempts: u32,
    /// Write-ahead log counters (all zero for non-durable runs).
    pub wal: WalStats,
    /// Storage error that fail-stopped the admission core, if any.
    pub wal_error: Option<String>,
    /// Supervisor restarts of crashed shard cores (live in-place
    /// recoveries, summed across shards; zero for unsupervised runs).
    pub supervisor_restarts: u64,
    /// Shard-core incarnations that ended in a panic (vs fail-stop).
    pub supervisor_panics: u64,
    /// Shards abandoned after the supervisor's restart budget ran out.
    pub failed_shards: u64,
}

impl ServerMetrics {
    /// The metrics one core's output determines: its counters, its
    /// queue's statistics, its latency samples folded into summaries, and
    /// its WAL counters. What the front-end alone knows (`workers`,
    /// `sheds`, `committed_ops`, backoff, supervision) is left at its
    /// default for the caller to fill in.
    pub fn from_core(out: &CoreOutput, queue: QueueStats, elapsed: Duration) -> ServerMetrics {
        ServerMetrics {
            commits: out.commits,
            aborts: out.aborts,
            timeout_aborts: out.timeout_aborts,
            requests: out.grants + out.blocked + out.aborts,
            grants: out.grants,
            blocked: out.blocked,
            commands: out.commands,
            batches: out.batches,
            max_batch: out.max_batch,
            queue,
            decision: DecisionLatency::from_samples(&out.decision_ns),
            admission: out.admission.clone(),
            queue_wait: out.queue_wait.clone(),
            wal_sync: histogram_of(&out.wal_sync_ns),
            elapsed,
            wal: out.wal,
            wal_error: out.wal_error.clone(),
            ..ServerMetrics::default()
        }
    }

    /// Folds in the session threads' restart accounting: backoff slept
    /// (summed) and the largest incarnation count any transaction needed.
    pub(crate) fn with_sessions(
        mut self,
        sessions: &[(SessionStats, Option<SessionError>)],
    ) -> ServerMetrics {
        self.backoff_ns = sessions.iter().map(|(s, _)| s.backoff_ns).sum();
        self.max_txn_attempts = sessions
            .iter()
            .map(|(s, _)| s.max_txn_attempts)
            .max()
            .unwrap_or(0);
        self
    }

    /// Committed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.committed_ops, self.elapsed)
    }

    /// Committed transactions per wall-clock second.
    pub fn txns_per_sec(&self) -> f64 {
        per_sec(self.commits, self.elapsed)
    }

    /// Mean commands per drained batch (hot-path batching factor).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.commands as f64 / self.batches as f64
        }
    }

    /// Merges another (shard) core's metrics into this one, producing the
    /// aggregate report of a sharded run. Counters sum; maxima take the
    /// max; the queue's mean depth averages weighted by commands; the
    /// decision summary merges conservatively (see
    /// [`DecisionLatency::merge`]) and the admission histogram merges
    /// exactly. `workers` is shared session threads, not summed — the
    /// caller sets it once. `elapsed` takes the max: shards run
    /// concurrently inside one wall-clock window.
    pub fn merge(&mut self, other: &ServerMetrics) {
        let total_cmds = self.commands + other.commands;
        self.queue.mean_depth = if total_cmds == 0 {
            0.0
        } else {
            (self.queue.mean_depth * self.commands as f64
                + other.queue.mean_depth * other.commands as f64)
                / total_cmds as f64
        };
        self.queue.max_depth = self.queue.max_depth.max(other.queue.max_depth);
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.timeout_aborts += other.timeout_aborts;
        self.sheds += other.sheds;
        self.requests += other.requests;
        self.grants += other.grants;
        self.blocked += other.blocked;
        self.commands = total_cmds;
        self.batches += other.batches;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.decision.merge(&other.decision);
        self.admission.merge(&other.admission);
        self.queue_wait.merge(&other.queue_wait);
        self.wal_sync.merge(&other.wal_sync);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.committed_ops += other.committed_ops;
        self.backoff_ns += other.backoff_ns;
        self.max_txn_attempts = self.max_txn_attempts.max(other.max_txn_attempts);
        self.wal.records += other.wal.records;
        self.wal.bytes += other.wal.bytes;
        self.wal.syncs += other.wal.syncs;
        if self.wal_error.is_none() {
            self.wal_error = other.wal_error.clone();
        }
        self.supervisor_restarts += other.supervisor_restarts;
        self.supervisor_panics += other.supervisor_panics;
        self.failed_shards += other.failed_shards;
    }
}

/// Folds raw latency samples into a histogram (the WAL and the core keep
/// raw ns so they stay free of metrics dependencies).
pub fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &ns in samples {
        h.record(ns);
    }
    h
}

fn per_sec(n: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        n as f64 / secs
    }
}

impl fmt::Display for ServerMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workers={} commits={} ops={} elapsed={:.1?}",
            self.workers, self.commits, self.committed_ops, self.elapsed
        )?;
        writeln!(
            f,
            "throughput: {:.0} ops/s, {:.0} txns/s",
            self.ops_per_sec(),
            self.txns_per_sec()
        )?;
        writeln!(
            f,
            "admission: requests={} grants={} blocked={} aborts={} timeout_aborts={} sheds={}",
            self.requests, self.grants, self.blocked, self.aborts, self.timeout_aborts, self.sheds
        )?;
        writeln!(
            f,
            "restarts: backoff={:.1?} max_txn_attempts={}",
            Duration::from_nanos(self.backoff_ns),
            self.max_txn_attempts
        )?;
        if self.wal.records > 0 || self.wal_error.is_some() {
            writeln!(
                f,
                "wal: records={} bytes={} syncs={}{}",
                self.wal.records,
                self.wal.bytes,
                self.wal.syncs,
                match &self.wal_error {
                    Some(e) => format!(" error={e}"),
                    None => String::new(),
                }
            )?;
        }
        if self.supervisor_restarts > 0 || self.supervisor_panics > 0 || self.failed_shards > 0 {
            writeln!(
                f,
                "supervision: restarts={} panics={} failed_shards={}",
                self.supervisor_restarts, self.supervisor_panics, self.failed_shards
            )?;
        }
        writeln!(
            f,
            "queue: max_depth={} mean_depth={:.2} batches={} mean_batch={:.2} max_batch={}",
            self.queue.max_depth,
            self.queue.mean_depth,
            self.batches,
            self.mean_batch(),
            self.max_batch
        )?;
        writeln!(
            f,
            "decision: mean={:.0}ns p95={}ns max={}ns (n={})",
            self.decision.mean_ns,
            self.decision.p95_ns,
            self.decision.max_ns,
            self.decision.decisions
        )?;
        writeln!(f, "admission latency: {}", self.admission)?;
        write!(f, "queue wait: {}", self.queue_wait)?;
        if self.wal_sync.count() > 0 {
            write!(f, "\nwal fsync: {}", self.wal_sync)?;
        }
        Ok(())
    }
}
