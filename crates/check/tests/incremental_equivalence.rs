//! Satellite property suite for the incremental RSG maintenance engine:
//! on ≥ 1,000 randomized workloads, the incremental [`RsgSgt`] makes
//! **byte-identical** per-request decisions to the retained full-rebuild
//! [`RsgSgtOracle`] — through grants, rejections, aborts, restarts,
//! commits, **and arena compactions interleaved at pseudo-random points**
//! — and every committed history passes the offline
//! `Rsg::build(..).is_acyclic()` checker (Theorem 1). A second property
//! pins retirement: after every commit and abort, the engine's worklist
//! sweep has retired exactly the transactions a full-scan fixpoint over
//! the admitted prefix retires. A third pair runs both formulations end
//! to end through the protocols crate's driver: the oracle's histories
//! are relatively serializable, and both commit the same history. Every
//! rejection the lockstep meets names a genuine RSG cycle of the extended
//! prefix, hop by hop.

use proptest::prelude::*;
use relser_check::RsgSgtOracle;
use relser_core::classes::is_relatively_serializable;
use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::{AdmitError, IncrementalRsg};
use relser_core::op::{AccessMode, Operation};
use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::driver::{run, RunConfig};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Decision, Scheduler};
use relser_workload::{random_spec, random_txns, RandomConfig};

/// The RSG of an executed prefix, built by [`Rsg::build`] on a complete
/// schedule: each operation the prefix has not executed becomes a read of
/// an object of its own, run after the prefix in program order. Such an
/// operation conflicts with nothing, so it depends only on its own
/// transaction and induces no cross arc, while the I-chains, the units
/// and every arc the prefix induces stay the original universe's.
fn prefix_rsg(txns: &TxnSet, spec: &AtomicitySpec, prefix: &[OpId]) -> Rsg {
    let mut executed = vec![0u32; txns.len()];
    for op in prefix {
        executed[op.txn.index()] = op.index + 1;
    }
    let mut sub = TxnSet::new();
    for t in txns.txns() {
        let ops: Vec<(AccessMode, String)> = t
            .ops()
            .iter()
            .enumerate()
            .map(|(j, o)| {
                if (j as u32) < executed[t.id().index()] {
                    (o.mode, txns.objects().name(o.object).to_string())
                } else {
                    (
                        AccessMode::Read,
                        format!("unexecuted.{}.{j}", t.id().index()),
                    )
                }
            })
            .collect();
        let pairs: Vec<(AccessMode, &str)> = ops.iter().map(|(m, n)| (*m, n.as_str())).collect();
        sub.add(&pairs).expect("same program lengths");
    }
    let mut sub_spec = AtomicitySpec::absolute(&sub);
    for i in txns.txn_ids() {
        for j in txns.txn_ids().filter(|&j| j != i) {
            sub_spec
                .set_breakpoints(i, j, spec.breakpoints(i, j))
                .expect("same program lengths");
        }
    }
    let mut order = prefix.to_vec();
    for t in txns.txns() {
        let id = t.id();
        order.extend((executed[id.index()]..t.len() as u32).map(|j| OpId::new(id, j)));
    }
    let schedule = Schedule::new(&sub, order).expect("prefix, then the rest in program order");
    Rsg::build(&sub, &schedule, &sub_spec)
}

/// Re-proposes the refused `op` on a copy of `engine` and checks the
/// rejection: the closing arc and every hop of its cycle are arcs of the
/// RSG of `admitted + op`, the closing arc with at least its kinds.
fn assert_rejection_is_an_rsg_cycle(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    engine: &IncrementalRsg,
    op: OpId,
) {
    let rej = match engine.clone().try_admit(op) {
        Err(AdmitError::Cycle(rej)) => rej,
        other => panic!("{op:?} was refused, a copy answers {other:?}"),
    };
    let mut prefix = engine.admitted().to_vec();
    prefix.push(op);
    let rsg = prefix_rsg(txns, spec, &prefix);
    let (from, to, kinds) = rej.arc;
    assert_eq!(
        (rej.cycle.first(), rej.cycle.last()),
        (Some(&to), Some(&from))
    );
    let closing = rsg.arc_between(from, to);
    assert!(
        closing.is_some_and(|k| k.contains(kinds)),
        "closing arc {from:?} -> {to:?} ({kinds}) vs RSG {closing:?}"
    );
    for hop in rej.cycle.windows(2) {
        assert!(
            rsg.arc_between(hop[0], hop[1]).is_some(),
            "hop {:?} -> {:?} is no RSG arc of the extended prefix",
            hop[0],
            hop[1]
        );
    }
}

proptest! {
    // The ISSUE acceptance bar: ≥ 1,000 randomized workloads.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Lockstep feed: both formulations see the same pseudo-random
    /// request stream (restarting aborted transactions from scratch) and
    /// must agree on every single decision and on the admitted prefix
    /// after every step.
    #[test]
    fn decisions_are_byte_identical_and_histories_verify(
        wl_seed in 0u64..100_000,
        spec_seed in 0u64..100_000,
        feed_seed in 0u64..100_000,
        n_txns in 2usize..6,
        objects in 2usize..5,
        write_pct in 0u32..=100,
        // Force a compaction roughly every `compact_every` steps (0 off);
        // the oracle has no arena, so decisions must stay identical.
        compact_every in 0usize..6,
    ) {
        let cfg = RandomConfig {
            txns: n_txns,
            ops_per_txn: (1, 4),
            objects,
            theta: 0.5,
            write_ratio: write_pct as f64 / 100.0,
        };
        let txns = random_txns(&cfg, wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);

        let mut oracle = RsgSgtOracle::new(&txns, &spec);
        let mut inc = RsgSgt::new(&txns, &spec);
        let n = txns.len();
        let mut cursor = vec![0u32; n];
        let mut done = vec![false; n];
        for t in 0..n as u32 {
            oracle.begin(TxnId(t));
            inc.begin(TxnId(t));
        }
        let mut state = feed_seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut steps = 0;
        while done.iter().any(|d| !d) && steps < 2000 {
            steps += 1;
            if compact_every > 0 && steps % compact_every == 0 {
                inc.force_compact();
            }
            let mut t = (next() as usize) % n;
            while done[t] {
                t = (t + 1) % n;
            }
            let op = OpId::new(TxnId(t as u32), cursor[t]);
            let a = oracle.request(op);
            let b = inc.request(op);
            prop_assert_eq!(&a, &b, "decision divergence at {:?}", op);
            match a {
                Decision::Granted => {
                    cursor[t] += 1;
                    if cursor[t] as usize == txns.txn(TxnId(t as u32)).len() {
                        oracle.commit(TxnId(t as u32));
                        inc.commit(TxnId(t as u32));
                        done[t] = true;
                    }
                }
                Decision::Aborted(_) => {
                    assert_rejection_is_an_rsg_cycle(&txns, &spec, inc.engine(), op);
                    oracle.abort(TxnId(t as u32));
                    inc.abort(TxnId(t as u32));
                    cursor[t] = 0;
                    oracle.begin(TxnId(t as u32));
                    inc.begin(TxnId(t as u32));
                }
                Decision::Blocked { .. } => unreachable!("RSG-SGT never blocks"),
            }
            prop_assert_eq!(oracle.admitted(), inc.admitted(), "prefix divergence");
        }
        prop_assert!(done.iter().all(|d| *d), "lockstep feed livelocked");

        // The committed history satisfies Theorem 1 offline.
        let history = Schedule::new(&txns, inc.admitted().to_vec())
            .expect("committed prefix is a complete schedule");
        prop_assert!(
            Rsg::build(&txns, &history, &spec).is_acyclic(),
            "history not relatively serializable: {}",
            history.display(&txns)
        );
    }
}

/// The full-scan retirement fixpoint, recomputed from the admitted prefix
/// alone — the reference the engine's worklist sweep must reproduce.
///
/// Every D/F/B arc a depends-on pair `(u, o)` induces runs from a node of
/// `txn(u)` into a node of `txn(o)`, so a committed transaction is pinned
/// exactly while one of its admitted operations depends on an admitted
/// operation of another unretired transaction. Each pass scans all n
/// transactions; passes repeat until nothing more retires.
fn reference_retire(txns: &TxnSet, admitted: &[OpId], committed: &[bool], retired: &mut [bool]) {
    assert!(admitted.len() <= 64, "reference keeps ancestors in a u64");
    let ops: Vec<Operation> = admitted.iter().map(|&o| txns.op(o).unwrap()).collect();
    let mut ancestors = vec![0u64; admitted.len()];
    for p in 0..admitted.len() {
        for q in 0..p {
            if admitted[q].txn == admitted[p].txn || ops[q].conflicts_with(ops[p]) {
                ancestors[p] |= ancestors[q] | 1 << q;
            }
        }
    }
    loop {
        let mut changed = false;
        for t in 0..txns.len() {
            if !committed[t] || retired[t] {
                continue;
            }
            let pinned = (0..admitted.len())
                .filter(|&p| admitted[p].txn.index() == t)
                .any(|p| {
                    (0..admitted.len()).any(|q| {
                        let s = admitted[q].txn.index();
                        ancestors[p] >> q & 1 == 1 && s != t && !retired[s]
                    })
                });
            if !pinned {
                retired[t] = true;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Retirement equivalence: through grants, rejections, voluntary and
    /// forced aborts, restarts, commits and forced compactions, the
    /// engine's worklist sweep retires exactly the transactions the
    /// full-scan fixpoint retires, after every commit and every abort,
    /// and the admitted prefix stays the oracle's.
    #[test]
    fn worklist_retirement_matches_the_full_scan_fixpoint(
        wl_seed in 0u64..100_000,
        spec_seed in 0u64..100_000,
        feed_seed in 0u64..100_000,
        n_txns in 2usize..9,
        objects in 1usize..5,
        write_pct in 0u32..=100,
        compact_every in 0usize..6,
    ) {
        let cfg = RandomConfig {
            txns: n_txns,
            ops_per_txn: (1, 6),
            objects,
            theta: 0.5,
            write_ratio: write_pct as f64 / 100.0,
        };
        let txns = random_txns(&cfg, wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);

        let mut oracle = RsgSgtOracle::new(&txns, &spec);
        let mut inc = RsgSgt::new(&txns, &spec);
        let n = txns.len();
        let mut cursor = vec![0u32; n];
        let mut committed = vec![false; n];
        let mut retired = vec![false; n];
        for t in 0..n as u32 {
            oracle.begin(TxnId(t));
            inc.begin(TxnId(t));
        }
        let mut state = feed_seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut steps = 0;
        while committed.iter().any(|c| !c) && steps < 2000 {
            steps += 1;
            if compact_every > 0 && steps % compact_every == 0 {
                inc.force_compact();
            }
            let mut t = (next() as usize) % n;
            while committed[t] {
                t = (t + 1) % n;
            }
            let id = TxnId(t as u32);
            // One step in eight aborts a started transaction voluntarily.
            let voluntary = cursor[t] > 0 && next() % 8 == 0;
            let decision = if voluntary {
                None
            } else {
                let op = OpId::new(id, cursor[t]);
                let a = oracle.request(op);
                prop_assert_eq!(&a, &inc.request(op), "decision divergence at {:?}", op);
                Some(a)
            };
            match decision {
                Some(Decision::Granted) => {
                    cursor[t] += 1;
                    if cursor[t] as usize != txns.txn(id).len() {
                        continue;
                    }
                    oracle.commit(id);
                    inc.commit(id);
                    committed[t] = true;
                }
                None | Some(Decision::Aborted(_)) => {
                    if decision.is_some() {
                        let op = OpId::new(id, cursor[t]);
                        assert_rejection_is_an_rsg_cycle(&txns, &spec, inc.engine(), op);
                    }
                    oracle.abort(id);
                    inc.abort(id);
                    cursor[t] = 0;
                    oracle.begin(id);
                    inc.begin(id);
                }
                Some(Decision::Blocked { .. }) => unreachable!("RSG-SGT never blocks"),
            }
            prop_assert_eq!(oracle.admitted(), inc.admitted(), "prefix divergence");
            reference_retire(&txns, inc.admitted(), &committed, &mut retired);
            for (t, &r) in retired.iter().enumerate() {
                prop_assert_eq!(
                    inc.engine().is_retired(TxnId(t as u32)),
                    r,
                    "retirement of T{} diverges after step {}",
                    t,
                    steps
                );
            }
        }
        prop_assert!(committed.iter().all(|c| *c), "lockstep feed livelocked");
    }
}

/// Runs `scheduler` to completion over `txns` with the protocols crate's
/// seeded driver and returns the committed history.
fn drive(txns: &TxnSet, scheduler: &mut dyn Scheduler, seed: u64) -> Schedule {
    let cfg = RunConfig {
        seed,
        max_steps: 2_000_000,
    };
    run(txns, scheduler, &cfg)
        .unwrap_or_else(|e| panic!("{} livelocked: {e}", scheduler.name()))
        .history
}

fn workload(seed: u64) -> TxnSet {
    let cfg = RandomConfig {
        txns: 5,
        ops_per_txn: (2, 4),
        objects: 4,
        theta: 0.6,
        write_ratio: 0.5,
    };
    random_txns(&cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The full-rebuild oracle is itself safe: it is the reference the
    /// incremental engine is compared against.
    #[test]
    fn rsg_sgt_oracle_histories_are_relatively_serializable(
        wl_seed in 0u64..1000, spec_seed in 0u64..1000, run_seed in 0u64..1000
    ) {
        let txns = workload(wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let h = drive(&txns, &mut RsgSgtOracle::new(&txns, &spec), run_seed);
        prop_assert!(
            is_relatively_serializable(&txns, &h, &spec),
            "{}", h.display(&txns)
        );
    }

    /// Incremental and rebuild formulations produce the *same committed
    /// history* under the same driver seed (decision-for-decision
    /// equivalence, end to end).
    #[test]
    fn rsg_sgt_formulations_agree_end_to_end(
        wl_seed in 0u64..1000, spec_seed in 0u64..1000, run_seed in 0u64..1000
    ) {
        let txns = workload(wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let a = drive(&txns, &mut RsgSgt::new(&txns, &spec), run_seed);
        let b = drive(&txns, &mut RsgSgtOracle::new(&txns, &spec), run_seed);
        prop_assert_eq!(a.ops(), b.ops());
    }
}
