//! The Zipf shard-scaling workload of `cargo bench -p relser-bench
//! --bench server`: the universe, its random atomicity spec, the shard
//! counts and the per-shard schedulers behind the committed
//! `shards{N}_ns_per_decision` rows of `BENCH_server.json`. The shape
//! constants mirror that file's `zipf_config` meta row; changing them
//! without re-running the bench invalidates the committed rows, so they
//! live in exactly one place.

use rand::rngs::StdRng;
use rand::SeedableRng;
use relser_core::op::AccessMode;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::rsg_sgt::RsgSgtOracle;
use relser_protocols::Scheduler;
use relser_workload::random::random_spec;
use relser_workload::zipf::Zipf;

/// Transactions in the Zipf universe.
pub const ZIPF_TXNS: usize = 384;
/// Number of distinct records the Zipf sampler draws from.
pub const ZIPF_OBJECTS: usize = 2048;
/// Zipf skew parameter (mild: conflicts are rare, admission dominates).
pub const ZIPF_THETA: f64 = 0.4;
/// Probability that a unit boundary (breakpoint) is opened between two
/// consecutive operations when the random atomicity spec is drawn.
pub const ZIPF_BREAKPOINT_PROB: f64 = 0.4;
/// Shard counts the bench sweeps.
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

/// The random atomicity spec paired with [`zipf_rmw_txns`].
pub fn zipf_spec(txns: &TxnSet, seed: u64) -> AtomicitySpec {
    random_spec(txns, ZIPF_BREAKPOINT_PROB, seed)
}

/// One rebuild-formulation scheduler per shard core.
pub fn shard_schedulers<'a>(
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    shards: usize,
) -> Vec<Box<dyn Scheduler + Send + 'a>> {
    (0..shards)
        .map(|_| Box::new(RsgSgtOracle::new(txns, spec)) as Box<dyn Scheduler + Send + 'a>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_server::{serve_sharded, RunOutcome, ServerConfig};
    use relser_workload::stream::RequestStream;

    #[test]
    fn zipf_workload_is_deterministic_per_seed() {
        let a = zipf_rmw_txns(11);
        let b = zipf_rmw_txns(11);
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.len(), ZIPF_TXNS);
    }

    #[test]
    fn zipf_workload_serves_end_to_end() {
        // Smoke: one single-shard serve of the real workload completes
        // and yields the ns/decision the bench records. Keeps the bench's
        // measurement path covered by `cargo test`.
        let txns = zipf_rmw_txns(11);
        let spec = zipf_spec(&txns, 11);
        let cfg = ServerConfig {
            workers: SHARD_WORKERS,
            ..ServerConfig::default()
        };
        let stream = RequestStream::shuffled(&txns, 7);
        let schedulers = shard_schedulers(&txns, &spec, 1);
        let report = serve_sharded(&txns, &stream, schedulers, &cfg, &[], Vec::new());
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert!(report.metrics.decision.mean_ns > 0.0);
    }
}
