//! Metric definitions and the accumulators that fill them.
//!
//! End-to-end metrics come only from untraced rounds. Timings are exact
//! order statistics of the client's raw samples, taken *per round*; a
//! run reports, for every set of its pool, that set's best round, and
//! then the mean over the sets. Interference on the shared sandbox only
//! ever slows a round, so a set's best round is the closest observable
//! to the undisturbed machine (the rule `bench_gate` already uses),
//! while the mean over sets keeps every generated input in the figure.
//! Measured against the plain median over rounds this halved the
//! run-to-run spread on the long-lived pair and on `recover_ms`.
//! Counts are summed per set and averaged over the sets, so that on a
//! deterministic workload they repeat exactly however many rounds a run
//! fitted in.

use crate::probes::Probes;
use crate::round::Round;
use crate::stats::{mean_f64, median, median_f64, quantile, ratio};
use crate::sut::Input;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric; `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen (per-layer metrics have none).
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The nine end-to-end metrics, reported per workload. `BENCHMARK.json`
/// lists exactly these (a test holds the two together).
pub const END_TO_END: [Def; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("txn_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("commit_p50_us", "us", Lower, 0.25),
    e2e("txn_p50_ms", "ms", Lower, 0.25),
    e2e("attempts_per_commit", "ratio", Lower, 0.05),
    e2e("recover_ms", "ms", Lower, 0.25),
    e2e("wal_bytes_per_commit", "B", Lower, 0.05),
    e2e("acked_durable_frac", "ratio", Higher, 0.01),
];

/// Per-layer metrics (layer = module), from the traced rounds.
pub const PER_LAYER: [Def; 48] = [
    layer("client.op_p99_us", "us", Lower),
    layer("client.commit_p99_us", "us", Lower),
    layer("client.txn_p99_ms", "ms", Lower),
    layer("client.backoff_ms_per_commit", "ms", Lower),
    layer("client.sheds_per_commit", "ratio", Lower),
    layer("client.samples", "count", Higher),
    layer("net.wire_p50_us", "us", Lower),
    layer("net.outside_us", "us", Lower),
    layer("net.decode_p50_ns", "ns", Lower),
    layer("net.reply_p50_ns", "ns", Lower),
    layer("net.unattributed_us", "us", Lower),
    layer("net.retries_per_commit", "ratio", Lower),
    layer("net.deferrals_per_commit", "ratio", Lower),
    layer("net.timeout_aborts", "count", Lower),
    layer("net.wire.encode_ns", "ns", Lower),
    layer("net.wire.decode_ns", "ns", Lower),
    layer("frame.encode_ns", "ns", Lower),
    layer("frame.decode_ns", "ns", Lower),
    layer("server.queue.wait_p50_us", "us", Lower),
    layer("server.queue.mean_batch", "count", Higher),
    layer("server.queue.max_batch", "count", Higher),
    layer("server.queue.blocked_pushes", "count", Lower),
    layer("server.queue.transfer_ns", "ns", Lower),
    layer("server.core.commands_per_commit", "ratio", Lower),
    layer("server.core.decision_mean_ns", "ns", Lower),
    layer("server.core.decision_p99_ns", "ns", Lower),
    layer("server.core.decision_share", "ratio", Lower),
    layer("protocols.rsg_sgt.request_ns", "ns", Lower),
    layer("protocols.rsg_sgt.commit_ns", "ns", Lower),
    layer("protocols.rsg_sgt.abort_ns", "ns", Lower),
    layer("protocols.rsg_sgt.replay_share", "ratio", Lower),
    layer("core.vclock.certify_ns_per_op", "ns", Lower),
    layer("core.rsg.build_ms", "ms", Lower),
    layer("wal.syncs_per_commit", "ratio", Lower),
    layer("wal.records_per_commit", "ratio", Lower),
    layer("wal.sync_p50_us", "us", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.segments_deleted", "count", Higher),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.scan_ns", "ns", Lower),
    layer("server.recovery.ns_per_record", "ns", Lower),
    layer("server.recovery.records", "count", Lower),
    layer("server.supervisor.restarts", "count", Lower),
    layer("workload.gen_ms", "ms", Lower),
    layer("workload.spec_ms", "ms", Lower),
    layer("workload.txns", "count", Higher),
    layer("workload.ops", "count", Higher),
    layer("bench.trace_overhead_frac", "ratio", Lower),
];

/// A measured metric.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub def: &'static Def,
    pub value: f64,
    /// Samples (timings) or events (counts) behind the value.
    pub samples: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Throughput of one round as the client saw it.
pub fn round_txn_per_s(round: &Round) -> f64 {
    ratio(
        round.drive.acked.len() as f64,
        round.drive.drive_ns as f64 / 1e9,
    )
}

/// What the untraced rounds of one set measured.
#[derive(Default, Clone)]
struct SetRounds {
    txn_per_s: Vec<f64>,
    op_p50_us: Vec<f64>,
    commit_p50_us: Vec<f64>,
    txn_p50_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    incarnations: u64,
    commits: u64,
    wal_bytes: u64,
}

fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// Accumulates the end-to-end metrics over a run's untraced rounds.
pub struct EndToEnd {
    per_set: Vec<SetRounds>,
    acked: u64,
    acked_durable: u64,
    op_samples: u64,
    commit_samples: u64,
    txn_samples: u64,
}

impl EndToEnd {
    pub fn new(pool: usize) -> EndToEnd {
        EndToEnd {
            per_set: vec![SetRounds::default(); pool],
            acked: 0,
            acked_durable: 0,
            op_samples: 0,
            commit_samples: 0,
            txn_samples: 0,
        }
    }

    pub fn rounds(&self) -> u64 {
        self.per_set.iter().map(|s| s.txn_per_s.len() as u64).sum()
    }

    /// Folds in one untraced round of set `set` (reorders its samples).
    pub fn add(&mut self, set: usize, round: &mut Round) {
        let throughput = round_txn_per_s(round);
        let d = &mut round.drive;
        self.op_samples += d.op_ns.len() as u64;
        self.commit_samples += d.commit_ns.len() as u64;
        self.txn_samples += d.txn_ns.len() as u64;
        self.acked += d.acked.len() as u64;
        self.acked_durable += round.acked_durable;
        let s = &mut self.per_set[set];
        s.txn_per_s.push(throughput);
        s.op_p50_us.push(us(median(&mut d.op_ns)));
        s.commit_p50_us.push(us(median(&mut d.commit_ns)));
        s.txn_p50_ms.push(ms(median(&mut d.txn_ns)));
        if let Some(rec) = &round.recovered {
            s.recover_ms.push(ms(rec.recover_ns));
        }
        s.incarnations += d.incarnations;
        s.commits += d.acked.len() as u64;
        s.wal_bytes += round.report.net.metrics.wal.bytes;
    }

    /// The nine metrics, in [`END_TO_END`] order.
    pub fn values(&self, setup_s: f64) -> Vec<Measured> {
        let visited: Vec<&SetRounds> = self.per_set.iter().filter(|s| s.commits > 0).collect();
        let over_sets = |f: &dyn Fn(&SetRounds) -> f64| {
            mean_f64(&visited.iter().map(|s| f(s)).collect::<Vec<f64>>())
        };
        let recoveries = visited.iter().map(|s| s.recover_ms.len() as u64).sum();
        let rounds = self.rounds();
        let values = [
            (setup_s, crate::run::SETUPS as u64),
            (over_sets(&|s| highest(&s.txn_per_s)), rounds),
            (over_sets(&|s| lowest(&s.op_p50_us)), self.op_samples),
            (
                over_sets(&|s| lowest(&s.commit_p50_us)),
                self.commit_samples,
            ),
            (over_sets(&|s| lowest(&s.txn_p50_ms)), self.txn_samples),
            (
                over_sets(&|s| s.incarnations as f64 / s.commits as f64),
                self.acked,
            ),
            (over_sets(&|s| lowest(&s.recover_ms)), recoveries),
            (
                over_sets(&|s| s.wal_bytes as f64 / s.commits as f64),
                self.acked,
            ),
            (
                ratio(self.acked_durable as f64, self.acked as f64),
                self.acked,
            ),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(def, (value, samples))| Measured {
                def,
                value,
                samples,
            })
            .collect()
    }
}

/// Accumulates the per-layer metrics over a run's traced rounds.
#[derive(Default)]
pub struct Layers {
    // client: samples pooled over the traced rounds.
    op_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    txn_ns: Vec<u64>,
    backoff_ns: u64,
    sheds: u64,
    commits: u64,
    drive_ns: u64,
    // net and queue: per-round medians of the serve call's stages.
    wire_p50_us: Vec<f64>,
    outside_us: Vec<f64>,
    decode_p50_ns: Vec<f64>,
    reply_p50_ns: Vec<f64>,
    unattributed_us: Vec<f64>,
    queue_wait_p50_us: Vec<f64>,
    retries: u64,
    deferrals: u64,
    timeout_aborts: u64,
    // core
    commands: u64,
    batches: u64,
    max_batch: u64,
    blocked_pushes: u64,
    decision_ns: u64,
    decisions: u64,
    decision_p99_ns: Vec<f64>,
    // wal
    wal_syncs: u64,
    wal_records: u64,
    wal_sync_ns: Vec<u64>,
    checkpoints: u64,
    segments_deleted: u64,
    // recovery, certification, supervision
    recover_ns: u64,
    recover_records: u64,
    vclock_ns: u64,
    vclock_ops: u64,
    rsg_build_ms: Vec<f64>,
    supervisor_restarts: u64,
    // probes
    wire_encode_ns: Vec<f64>,
    wire_decode_ns: Vec<f64>,
    frame_encode_ns: Vec<f64>,
    frame_decode_ns: Vec<f64>,
    queue_transfer_ns: Vec<f64>,
    replay: crate::sut::Replay,
    wal_append_ns: Vec<f64>,
    wal_scan_ns: Vec<f64>,
    // tracing overhead: throughput of traced vs untraced rounds.
    traced_txn_per_s: Vec<f64>,
    untraced_txn_per_s: Vec<f64>,
}

impl Layers {
    /// Notes the throughput of an untraced round, the base of
    /// `bench.trace_overhead_frac`.
    pub fn add_untraced(&mut self, round: &Round) {
        self.untraced_txn_per_s.push(round_txn_per_s(round));
    }

    /// The offline oracle's build time, from a cross-checked round.
    pub fn add_rsg_build(&mut self, round: &Round) {
        if let Some(v) = &round.verdicts {
            self.rsg_build_ms.push(ms(v.rsg_ns));
        }
    }

    pub fn traced_rounds(&self) -> u64 {
        self.traced_txn_per_s.len() as u64
    }

    /// Folds in one traced round and its probes.
    pub fn add(&mut self, round: &mut Round, probes: &Probes) {
        self.traced_txn_per_s.push(round_txn_per_s(round));
        let d = &mut round.drive;
        let op_p50 = median(&mut d.op_ns);
        self.op_ns.append(&mut d.op_ns);
        self.commit_ns.append(&mut d.commit_ns);
        self.txn_ns.append(&mut d.txn_ns);
        self.backoff_ns += d.backoff_ns;
        self.sheds += d.sheds;
        self.commits += d.acked.len() as u64;
        self.drive_ns += d.drive_ns;

        let report = &round.report;
        let s = report.stage_p50();
        let staged = s.decode + s.queue + s.admit + s.fsync + s.reply;
        self.wire_p50_us.push(us(s.wire));
        self.outside_us.push(us(op_p50) - us(s.wire));
        self.decode_p50_ns.push(s.decode as f64);
        self.reply_p50_ns.push(s.reply as f64);
        self.unattributed_us.push(us(s.wire) - us(staged));
        self.queue_wait_p50_us.push(us(s.queue));
        let net = &report.net.net;
        self.retries += net.retries;
        self.deferrals += net.deferrals;
        self.timeout_aborts += net.timeout_aborts;

        let m = &report.net.metrics;
        self.commands += m.commands;
        self.batches += m.batches;
        self.max_batch = self.max_batch.max(m.max_batch as u64);
        self.blocked_pushes += m.queue.producer_wakeups;
        self.decision_ns += m.decision.total_ns;
        self.decisions += m.decision.decisions;
        self.decision_p99_ns.push(m.decision.p99_ns as f64);

        self.wal_syncs += m.wal.syncs;
        self.wal_records += m.wal.records;
        self.wal_sync_ns.extend_from_slice(&report.wal_sync_ns);
        self.checkpoints += report.checkpoints;
        self.segments_deleted += report.segments_deleted;
        self.supervisor_restarts += report.supervisor_restarts;

        if let Some(rec) = &round.recovered {
            self.recover_ns += rec.recover_ns;
            self.recover_records += rec.records as u64;
        }
        if let Some(v) = &round.verdicts {
            self.vclock_ns += v.vclock_ns;
            self.vclock_ops += v.ops as u64;
        }

        self.wire_encode_ns.push(probes.wire_encode_ns);
        self.wire_decode_ns.push(probes.wire_decode_ns);
        self.frame_encode_ns.push(probes.frame_encode_ns);
        self.frame_decode_ns.push(probes.frame_decode_ns);
        self.queue_transfer_ns.push(probes.queue_transfer_ns);
        let r = &probes.replay;
        self.replay.request_ns += r.request_ns;
        self.replay.requests += r.requests;
        self.replay.commit_ns += r.commit_ns;
        self.replay.commits += r.commits;
        self.replay.abort_ns += r.abort_ns;
        self.replay.aborts += r.aborts;
        self.replay.divergences += r.divergences;
        self.wal_append_ns.push(probes.wal_append_ns);
        self.wal_scan_ns.push(probes.wal_scan_ns);
    }

    /// Replayed scheduler decisions that differed from the recorded
    /// ones; anything but 0 means the replay probe timed another run.
    pub fn replay_divergences(&self) -> u64 {
        self.replay.divergences
    }

    /// Exact p50 and p99 of every modelled-disk barrier seen, in ns.
    pub fn wal_sync_p50_p99(&self) -> (u64, u64) {
        let mut v = self.wal_sync_ns.clone();
        (median(&mut v), quantile(&mut v, 0.99))
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn values(&mut self, pool: &[Input]) -> Vec<Measured> {
        let commits = self.commits as f64;
        let rounds = self.traced_rounds();
        let samples = (self.op_ns.len() + self.commit_ns.len() + self.txn_ns.len()) as u64;
        let r = self.replay;
        let replay_ns = (r.request_ns + r.commit_ns + r.abort_ns) as f64;
        let traced = median_f64(&self.traced_txn_per_s);
        let untraced = median_f64(&self.untraced_txn_per_s);
        let overhead = if untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        };
        let sets = pool.len() as f64;
        let values = [
            (us(quantile(&mut self.op_ns, 0.99)), self.op_ns.len() as u64),
            (
                us(quantile(&mut self.commit_ns, 0.99)),
                self.commit_ns.len() as u64,
            ),
            (
                ms(quantile(&mut self.txn_ns, 0.99)),
                self.txn_ns.len() as u64,
            ),
            (ratio(ms(self.backoff_ns), commits), self.commits),
            (ratio(self.sheds as f64, commits), self.sheds),
            (samples as f64, samples),
            (median_f64(&self.wire_p50_us), rounds),
            (median_f64(&self.outside_us), rounds),
            (median_f64(&self.decode_p50_ns), rounds),
            (median_f64(&self.reply_p50_ns), rounds),
            (median_f64(&self.unattributed_us), rounds),
            (ratio(self.retries as f64, commits), self.retries),
            (ratio(self.deferrals as f64, commits), self.deferrals),
            (self.timeout_aborts as f64, self.timeout_aborts),
            (median_f64(&self.wire_encode_ns), rounds),
            (median_f64(&self.wire_decode_ns), rounds),
            (median_f64(&self.frame_encode_ns), rounds),
            (median_f64(&self.frame_decode_ns), rounds),
            (median_f64(&self.queue_wait_p50_us), rounds),
            (
                ratio(self.commands as f64, self.batches as f64),
                self.batches,
            ),
            (self.max_batch as f64, self.batches),
            (self.blocked_pushes as f64, self.blocked_pushes),
            (median_f64(&self.queue_transfer_ns), rounds),
            (ratio(self.commands as f64, commits), self.commands),
            (
                ratio(self.decision_ns as f64, self.decisions as f64),
                self.decisions,
            ),
            (median_f64(&self.decision_p99_ns), rounds),
            (
                ratio(self.decision_ns as f64, self.drive_ns as f64),
                self.decisions,
            ),
            (ratio(r.request_ns as f64, r.requests as f64), r.requests),
            (ratio(r.commit_ns as f64, r.commits as f64), r.commits),
            (ratio(r.abort_ns as f64, r.aborts as f64), r.aborts),
            (
                ratio(replay_ns, self.drive_ns as f64),
                r.requests + r.commits + r.aborts,
            ),
            (
                ratio(self.vclock_ns as f64, self.vclock_ops as f64),
                self.vclock_ops,
            ),
            (
                median_f64(&self.rsg_build_ms),
                self.rsg_build_ms.len() as u64,
            ),
            (ratio(self.wal_syncs as f64, commits), self.wal_syncs),
            (ratio(self.wal_records as f64, commits), self.wal_records),
            (
                us(median(&mut self.wal_sync_ns)),
                self.wal_sync_ns.len() as u64,
            ),
            (self.checkpoints as f64, self.checkpoints),
            (self.segments_deleted as f64, self.segments_deleted),
            (median_f64(&self.wal_append_ns), rounds),
            (median_f64(&self.wal_scan_ns), rounds),
            (
                ratio(self.recover_ns as f64, self.recover_records as f64),
                self.recover_records,
            ),
            (ratio(self.recover_records as f64, rounds as f64), rounds),
            (self.supervisor_restarts as f64, self.supervisor_restarts),
            (
                ratio(pool.iter().map(|i| ms(i.gen_ns)).sum(), sets),
                pool.len() as u64,
            ),
            (
                ratio(pool.iter().map(|i| ms(i.spec_ns)).sum(), sets),
                pool.len() as u64,
            ),
            (
                ratio(pool.iter().map(|i| i.txn_count() as f64).sum(), sets),
                pool.len() as u64,
            ),
            (
                ratio(pool.iter().map(|i| i.total_ops() as f64).sum(), sets),
                pool.len() as u64,
            ),
            (overhead, self.untraced_txn_per_s.len() as u64),
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(def, (value, samples))| Measured {
                def,
                value,
                samples,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }
}
