//! The bench regression gate: shared pieces behind `bench_gate`, the
//! binary CI runs to catch hot-path regressions before they merge.
//!
//! The gate re-measures the `shards{N}_ns_per_decision` rows — the
//! admission core's per-decision latency on the Zipf single-record RMW
//! workload, the exact measurement `cargo bench -p relser-bench --bench
//! server` commits to `BENCH_server.json` — and fails if a fresh
//! best-of-N run lands more than the tolerance above the committed
//! number. The workload builder lives here (not in the bench file) so
//! the gate and the bench can never drift apart on what they measure.
//!
//! Two design choices keep the gate honest on shared CI runners:
//!
//! * **Best-of-N, not mean-of-N.** Scheduler-induced noise on a busy
//!   runner only ever inflates a run; the minimum across runs is the
//!   closest observable to the machine's true cost. A regression has to
//!   survive every run to trip the gate.
//! * **A generous default tolerance (20%).** The gate exists to catch
//!   the accidental O(P²) re-introduction or a lock dragged back onto
//!   the admit path — integer-factor regressions — not 5% jitter.
//!   Override with `BENCH_GATE_TOLERANCE_PCT` when the runner class
//!   changes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use relser_core::op::AccessMode;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgtOracle;
use relser_protocols::Scheduler;
use relser_server::{serve_sharded, RunOutcome, ServerConfig};
use relser_workload::random::random_spec;
use relser_workload::stream::RequestStream;
use relser_workload::zipf::Zipf;

/// Zipf workload shape shared by the server bench and the gate. These
/// mirror the committed `zipf_config` meta row; changing them without
/// re-running the bench invalidates the committed baselines, so they
/// live in exactly one place.
pub const ZIPF_TXNS: usize = 384;
/// Number of distinct records the Zipf sampler draws from.
pub const ZIPF_OBJECTS: usize = 2048;
/// Zipf skew parameter (mild: conflicts are rare, admission dominates).
pub const ZIPF_THETA: f64 = 0.4;
/// Probability that a unit boundary (breakpoint) is opened between two
/// consecutive operations when the random atomicity spec is drawn.
pub const ZIPF_BREAKPOINT_PROB: f64 = 0.4;
/// Shard counts the bench sweeps and the gate re-checks.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Session workers feeding the shard cores.
pub const SHARD_WORKERS: usize = 16;

/// Zipf-sampled single-record read-modify-write transactions — each
/// transaction touches one record, so admission cost (not conflict
/// resolution) dominates, which is what the ns/decision rows measure.
pub fn zipf_rmw_txns(seed: u64) -> TxnSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(ZIPF_OBJECTS, ZIPF_THETA);
    let names: Vec<String> = (0..ZIPF_OBJECTS).map(|i| format!("r{i}")).collect();
    let mut set = TxnSet::new();
    for _ in 0..ZIPF_TXNS {
        let record = names[zipf.sample(&mut rng)].as_str();
        set.add(&[(AccessMode::Read, record), (AccessMode::Write, record)])
            .expect("non-empty transaction");
    }
    set
}

/// The random atomicity spec paired with [`zipf_rmw_txns`] — same seed
/// derivation as the bench, so the gate certifies the same schedules.
pub fn zipf_spec(txns: &TxnSet, seed: u64) -> AtomicitySpec {
    random_spec(txns, ZIPF_BREAKPOINT_PROB, seed)
}

/// One rebuild-formulation scheduler per shard core, as in the bench.
pub fn shard_schedulers<'a>(
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    shards: usize,
) -> Vec<Box<dyn Scheduler + Send + 'a>> {
    (0..shards)
        .map(|_| Box::new(RsgSgtOracle::new(txns, spec)) as Box<dyn Scheduler + Send + 'a>)
        .collect()
}

/// One sharded serve of the Zipf workload; returns the mean ns/decision
/// pooled across every shard core — the number committed as
/// `shards{N}_ns_per_decision`.
pub fn shards_ns_per_decision(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    shards: usize,
    arrival_seed: u64,
) -> f64 {
    let cfg = ServerConfig {
        workers: SHARD_WORKERS,
        op_work_ns: 0,
        seed: arrival_seed,
        ..ServerConfig::default()
    };
    let stream = RequestStream::shuffled(txns, cfg.seed);
    let schedulers = shard_schedulers(txns, spec, shards);
    let report = serve_sharded(txns, &stream, schedulers, &cfg, &[], Vec::new());
    assert_eq!(
        report.outcome,
        RunOutcome::Completed,
        "sharded serve completes"
    );
    report.metrics.decision.mean_ns
}

/// Reads one `"key": "value"` meta row out of a harness-written JSON
/// file (see `Harness::write_json` — flat string-valued meta object).
/// A hand-rolled scan, not a JSON parser: the file is produced by our
/// own harness, and the gate must not grow a serde dependency.
pub fn read_meta_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    rest[..end].parse().ok()
}

/// Outcome of one gated row, ready for printing and for the pass/fail
/// decision.
#[derive(Debug)]
pub struct GateRow {
    /// Meta key in `BENCH_server.json` (e.g. `shards1_ns_per_decision`).
    pub key: String,
    /// Committed baseline, ns.
    pub committed: f64,
    /// Fresh best-of-N measurement, ns.
    pub measured: f64,
}

impl GateRow {
    /// measured / committed — above 1.0 means slower than the baseline.
    pub fn ratio(&self) -> f64 {
        self.measured / self.committed
    }

    /// Does this row regress past the tolerance? `tolerance_pct = 20.0`
    /// means "fail if more than 20% slower than committed".
    pub fn regressed(&self, tolerance_pct: f64) -> bool {
        self.ratio() > 1.0 + tolerance_pct / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_rows_parse_out_of_harness_json() {
        let json = r#"{
  "bench": "server",
  "meta": {
    "shards1_ns_per_decision": "94802",
    "shards4_decision_p99_ns": "43233",
    "speedup_8_workers": "6.53"
  }
}"#;
        assert_eq!(
            read_meta_f64(json, "shards1_ns_per_decision"),
            Some(94802.0)
        );
        assert_eq!(read_meta_f64(json, "speedup_8_workers"), Some(6.53));
        assert_eq!(read_meta_f64(json, "absent_key"), None);
    }

    #[test]
    fn gate_trips_only_past_tolerance() {
        let row = |measured: f64| GateRow {
            key: "k".into(),
            committed: 100.0,
            measured,
        };
        assert!(!row(100.0).regressed(20.0));
        assert!(!row(119.0).regressed(20.0));
        assert!(row(121.0).regressed(20.0));
        // Improvements never trip the gate.
        assert!(!row(40.0).regressed(20.0));
    }

    #[test]
    fn gate_workload_is_deterministic_per_seed() {
        let a = zipf_rmw_txns(11);
        let b = zipf_rmw_txns(11);
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.len(), ZIPF_TXNS);
    }

    #[test]
    fn gate_measurement_runs_end_to_end() {
        // Smoke: one single-shard serve of the real workload produces a
        // positive mean. Keeps the gate's measurement path covered by
        // `cargo test` even though CI runs the binary separately.
        let txns = zipf_rmw_txns(11);
        let spec = zipf_spec(&txns, 11);
        let ns = shards_ns_per_decision(&txns, &spec, 1, 7);
        assert!(ns > 0.0);
    }
}
