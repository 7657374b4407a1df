//! Seeded random universes: transaction sets, specifications, schedules.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::schedule::Schedule;
use relser_core::shard::ShardMap;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

/// Parameters of a random universe.
#[derive(Clone, Debug)]
pub struct RandomConfig {
    /// Number of transactions.
    pub txns: usize,
    /// Operations per transaction, inclusive range.
    pub ops_per_txn: (usize, usize),
    /// Number of distinct objects.
    pub objects: usize,
    /// Zipf skew of object popularity (0 = uniform).
    pub theta: f64,
    /// Probability an operation is a write.
    pub write_ratio: f64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            txns: 4,
            ops_per_txn: (2, 5),
            objects: 6,
            theta: 0.0,
            write_ratio: 0.5,
        }
    }
}

/// Generates a random transaction set.
pub fn random_txns(cfg: &RandomConfig, seed: u64) -> TxnSet {
    assert!(cfg.txns > 0 && cfg.objects > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(cfg.objects, cfg.theta);
    let names = object_names(cfg);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut set = TxnSet::new();
    for _ in 0..cfg.txns {
        let ops = random_ops(cfg, &mut rng, &names, &zipf);
        set.add(&ops).expect("non-empty random transaction");
    }
    set
}

/// Generates a random **shard-local** transaction set: every transaction
/// is owned by exactly one shard of `map` ([`ShardMap::owner_of_txn`]) —
/// the only kind a sharded service admits. The `cfg.objects` objects are
/// interned up front, so each one's shard is known before any transaction
/// is written; a transaction then picks its owner first (uniformly among
/// the shards that own an object) and draws every object, Zipf-skewed,
/// from that shard's pool. Multi-object and multi-operation as `cfg`
/// says; the contention is inside each shard.
pub fn shard_local_txns(cfg: &RandomConfig, map: &ShardMap, seed: u64) -> TxnSet {
    assert!(cfg.txns > 0 && cfg.objects > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let names = object_names(cfg);
    let mut set = TxnSet::new();
    let mut pools: Vec<Vec<&str>> = vec![Vec::new(); map.shards() as usize];
    for name in &names {
        pools[map.shard_of(set.intern_object(name)) as usize].push(name);
    }
    let pools: Vec<(Vec<&str>, Zipf)> = pools
        .into_iter()
        .filter(|pool| !pool.is_empty())
        .map(|pool| {
            let zipf = Zipf::new(pool.len(), cfg.theta);
            (pool, zipf)
        })
        .collect();
    for _ in 0..cfg.txns {
        let (pool, zipf) = &pools[rng.random_range(0..pools.len())];
        let ops = random_ops(cfg, &mut rng, pool, zipf);
        set.add(&ops).expect("non-empty random transaction");
    }
    set
}

fn object_names(cfg: &RandomConfig) -> Vec<String> {
    (0..cfg.objects).map(|i| format!("o{i}")).collect()
}

/// One transaction's operations: a length in `cfg.ops_per_txn`, then per
/// operation a mode and a Zipf-ranked object of `names`.
fn random_ops<'n>(
    cfg: &RandomConfig,
    rng: &mut StdRng,
    names: &[&'n str],
    zipf: &Zipf,
) -> Vec<(AccessMode, &'n str)> {
    assert!(cfg.ops_per_txn.0 >= 1 && cfg.ops_per_txn.0 <= cfg.ops_per_txn.1);
    let len = rng.random_range(cfg.ops_per_txn.0..=cfg.ops_per_txn.1);
    (0..len)
        .map(|_| {
            let mode = if rng.random_bool(cfg.write_ratio) {
                AccessMode::Write
            } else {
                AccessMode::Read
            };
            (mode, names[zipf.sample(rng)])
        })
        .collect()
}

/// Generates a random relative atomicity specification: each ordered pair
/// gets each possible breakpoint independently with probability
/// `breakpoint_prob` (0.0 reproduces the absolute spec, 1.0 the free one).
pub fn random_spec(txns: &TxnSet, breakpoint_prob: f64, seed: u64) -> AtomicitySpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut spec = AtomicitySpec::absolute(txns);
    for i in txns.txn_ids() {
        for j in txns.txn_ids() {
            if i == j {
                continue;
            }
            let len = txns.txn(i).len() as u32;
            let breaks: Vec<u32> = (1..len)
                .filter(|_| rng.random_bool(breakpoint_prob))
                .collect();
            spec.set_breakpoints(i, j, &breaks)
                .expect("valid breakpoints");
        }
    }
    spec
}

/// Generates a uniformly random schedule (interleaving) over `txns`.
pub fn random_schedule(txns: &TxnSet, seed: u64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining: Vec<u32> = txns.txns().iter().map(|t| t.len() as u32).collect();
    let mut cursor: Vec<u32> = vec![0; txns.len()];
    let mut left: u32 = remaining.iter().sum();
    let mut order = Vec::with_capacity(left as usize);
    while left > 0 {
        // Pick a transaction weighted by remaining operations: this yields
        // the uniform distribution over interleavings.
        let mut pick = rng.random_range(0..left);
        let mut t = 0usize;
        loop {
            if pick < remaining[t] {
                break;
            }
            pick -= remaining[t];
            t += 1;
        }
        order.push(OpId::new(TxnId(t as u32), cursor[t]));
        cursor[t] += 1;
        remaining[t] -= 1;
        left -= 1;
    }
    Schedule::new(txns, order).expect("constructed schedule is valid")
}

/// Produces a conflict-equivalent variant of `s` by a random walk of
/// adjacent swaps of non-conflicting, different-transaction neighbors.
pub fn conflict_equivalent_shuffle(
    txns: &TxnSet,
    s: &Schedule,
    swaps: usize,
    seed: u64,
) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = s.ops().to_vec();
    let n = ops.len();
    if n >= 2 {
        for _ in 0..swaps {
            let i = rng.random_range(0..n - 1);
            let (a, b) = (ops[i], ops[i + 1]);
            if a.txn == b.txn {
                continue;
            }
            let oa = txns.op(a).expect("valid");
            let ob = txns.op(b).expect("valid");
            if !oa.conflicts_with(ob) {
                ops.swap(i, i + 1);
            }
        }
    }
    Schedule::new(txns, ops).expect("swaps preserve validity")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = RandomConfig::default();
        let a = random_txns(&cfg, 7);
        let b = random_txns(&cfg, 7);
        assert_eq!(a, b);
        let c = random_txns(&cfg, 8);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn txn_sizes_respect_config() {
        let cfg = RandomConfig {
            txns: 10,
            ops_per_txn: (3, 3),
            objects: 2,
            ..Default::default()
        };
        let t = random_txns(&cfg, 1);
        assert_eq!(t.len(), 10);
        assert!(t.txns().iter().all(|x| x.len() == 3));
        assert!(t.objects().len() <= 2);
    }

    #[test]
    fn shard_local_txns_have_one_owner_and_cover_the_shards() {
        let cfg = RandomConfig {
            txns: 40,
            ops_per_txn: (2, 5),
            objects: 16,
            theta: 0.6,
            ..Default::default()
        };
        for shards in [1u32, 2, 4] {
            let map = ShardMap::new(shards);
            let t = shard_local_txns(&cfg, &map, 3);
            assert_eq!(t, shard_local_txns(&cfg, &map, 3), "deterministic per seed");
            assert_eq!(t.len(), 40);
            let owners: std::collections::HashSet<u32> = t
                .txn_ids()
                .map(|id| map.owner_of_txn(&t, id).expect("exactly one owner"))
                .collect();
            assert_eq!(owners.len(), shards as usize, "every shard owns work");
            let multi_object = t.txns().iter().any(|x| {
                let first = x.ops()[0].object;
                x.ops().iter().any(|o| o.object != first)
            });
            assert!(multi_object, "not a single-object universe");
        }
    }

    #[test]
    fn spec_probability_extremes() {
        let cfg = RandomConfig::default();
        let t = random_txns(&cfg, 2);
        assert!(random_spec(&t, 0.0, 3).is_absolute());
        let free = random_spec(&t, 1.0, 3);
        assert_eq!(free, AtomicitySpec::free(&t));
    }

    #[test]
    fn random_schedules_are_valid_and_deterministic() {
        let cfg = RandomConfig::default();
        let t = random_txns(&cfg, 5);
        let s1 = random_schedule(&t, 11);
        let s2 = random_schedule(&t, 11);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), t.total_ops());
    }

    #[test]
    fn random_schedules_vary_with_seed() {
        let cfg = RandomConfig {
            txns: 4,
            ops_per_txn: (4, 4),
            ..Default::default()
        };
        let t = random_txns(&cfg, 5);
        let distinct: std::collections::HashSet<Vec<OpId>> = (0..20)
            .map(|seed| random_schedule(&t, seed).ops().to_vec())
            .collect();
        assert!(
            distinct.len() > 10,
            "only {} distinct schedules",
            distinct.len()
        );
    }

    #[test]
    fn shuffle_preserves_conflict_equivalence() {
        let cfg = RandomConfig::default();
        let t = random_txns(&cfg, 9);
        let s = random_schedule(&t, 10);
        for seed in 0..10 {
            let v = conflict_equivalent_shuffle(&t, &s, 50, seed);
            assert!(v.conflict_equivalent(&s, &t), "seed {seed}");
        }
    }

    #[test]
    fn shuffle_actually_moves_independent_ops() {
        let t = TxnSet::parse(&["r1[x] r1[x]", "r2[y] r2[y]"]).unwrap();
        let s = t.parse_schedule("r1[x] r1[x] r2[y] r2[y]").unwrap();
        let moved =
            (0..20).any(|seed| conflict_equivalent_shuffle(&t, &s, 30, seed).ops() != s.ops());
        assert!(moved);
    }
}
