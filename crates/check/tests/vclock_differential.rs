//! The vector-clock certifier differential suite (ISSUE satellite 1).
//!
//! `relser_core::vclock` reimplements the Theorem 1 decision procedure as
//! a one-pass, O(n·K) algorithm that never materializes the RSG. Two
//! independent implementations of the same predicate are only as good as
//! the harness that compares them, so this suite drives the certifier
//! against **both** retained engines on ≥ 1,000 generated histories:
//!
//! * [`Rsg::build`] — the offline Definition 3 graph (ground truth);
//! * [`RsgSgt`]/[`RsgSgtOracle`] — the online incremental engine and its
//!   full-rebuild oracle, in lockstep, with a fresh certifier re-deciding
//!   every single grant/reject;
//! * sub-universe feeds — the operations of a random transaction subset,
//!   fed to a certifier over the *whole* universe (as recovery feeds a
//!   committed history), decide as [`Rsg::build`] over
//!   [`Projection::subset`] does, witness hops included;
//! * gapped feeds — object-projected histories where transactions show
//!   leading or internal index gaps, which the certifier refuses index by
//!   index (program order is checked where outside input enters, so no
//!   kernel admits a gap);
//! * all five production protocols through the [`ScheduleExplorer`],
//!   whose oracle suite now cross-checks the certifier on every
//!   committed history (`DivergenceKind::CertifierMismatch`).
//!
//! On any disagreement the failure is delta-debugged with
//! [`relser_check::shrink_universe`] down to a minimal universe before
//! reporting — and the minimizer itself is exercised on a *genuine*
//! disagreement (relatively-serializable-but-not-conflict-serializable,
//! the paper's founding example) so the mismatch path is tested even
//! though the two certification backends never actually diverge.

use proptest::prelude::*;
use relser_check::RsgSgtOracle;
use relser_check::{shrink_universe, ExploreConfig, Mode, Projection, ScheduleExplorer};
use relser_core::error::Error;
use relser_core::ids::{OpId, TxnId};
use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock::{self, CycleWitness, VClockCertifier};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::{Decision, Scheduler, SchedulerKind};
use relser_workload::{random_schedule, random_spec, random_txns, RandomConfig};

/// Every hop of a violation witness must be a genuine arc of the
/// explicit RSG, carrying (at least) the kinds the certifier claims.
fn assert_witness_replays(txns: &TxnSet, s: &Schedule, spec: &AtomicitySpec, w: &CycleWitness) {
    assert!(w.ops.len() >= 2, "RSG cycles have no self-loops");
    assert_eq!(w.ops.len(), w.kinds.len());
    let rsg = Rsg::build(txns, s, spec);
    for (k, &from) in w.ops.iter().enumerate() {
        let to = w.ops[(k + 1) % w.ops.len()];
        let kinds = rsg
            .arc_between(from, to)
            .unwrap_or_else(|| panic!("witness hop {from:?} -> {to:?} missing from RSG"));
        assert!(
            kinds.contains(w.kinds[k]),
            "hop {from:?} -> {to:?}: RSG has {kinds}, witness claims {}",
            w.kinds[k]
        );
    }
}

/// Delta-debugs a certifier disagreement on `history` down to a minimal
/// sub-universe and renders it (programs, atomicity rows, projected
/// schedule) — the report attached to a differential failure.
fn minimize_disagreement(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    history: &[OpId],
    disagree: impl Fn(&Projection, &Schedule) -> bool,
) -> String {
    let Some(p) = shrink_universe(txns, spec, |p| {
        p.schedule(history).is_ok_and(|s| disagree(p, &s))
    }) else {
        return "disagreement did not reproduce on the full universe".into();
    };
    let s = p.schedule(history).expect("kept universe projects");
    let mut out = format!(
        "minimal disagreeing universe ({} ops):\n",
        p.txns.total_ops()
    );
    for t in p.txns.txn_ids() {
        let ops: Vec<String> = (0..p.txns.txn(t).len() as u32)
            .map(|i| p.txns.display_op(OpId::new(t, i)))
            .collect();
        out.push_str(&format!(
            "  T{} (originally T{}): {}\n",
            t.0 + 1,
            p.kept()[t.index()].0 + 1,
            ops.join(" ")
        ));
    }
    for i in p.txns.txn_ids() {
        for j in p.txns.txn_ids() {
            if i != j {
                out.push_str(&format!("  {}\n", p.spec.display_pair(&p.txns, i, j)));
            }
        }
    }
    out.push_str(&format!("  schedule: {}\n", s.display(&p.txns)));
    out
}

/// `true` iff the one-pass certifier and the explicit RSG disagree.
fn backends_disagree(p: &Projection, s: &Schedule) -> bool {
    vclock::certify(&p.txns, s, &p.spec).is_acyclic()
        != Rsg::build(&p.txns, s, &p.spec).is_acyclic()
}

proptest! {
    // The ISSUE acceptance bar: ≥ 1,000 generated histories.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Random universes, random specs, random valid interleavings: the
    /// certifier's verdict equals `Rsg::build(..).is_acyclic()`, and on
    /// violation the witness replays hop-by-hop in the explicit graph.
    /// On mismatch, the failing universe is delta-debugged first.
    #[test]
    fn verdicts_match_the_offline_rsg(
        wl_seed in 0u64..100_000,
        spec_seed in 0u64..100_000,
        sched_seed in 0u64..100_000,
        n_txns in 2usize..6,
        objects in 2usize..5,
        write_pct in 0u32..=100,
        breakpoints in 0u32..=100,
    ) {
        let cfg = RandomConfig {
            txns: n_txns,
            ops_per_txn: (1, 5),
            objects,
            theta: 0.5,
            write_ratio: write_pct as f64 / 100.0,
        };
        let txns = random_txns(&cfg, wl_seed);
        let spec = random_spec(&txns, breakpoints as f64 / 100.0, spec_seed);
        let s = random_schedule(&txns, sched_seed);

        let verdict = vclock::certify(&txns, &s, &spec);
        let oracle = Rsg::build(&txns, &s, &spec).is_acyclic();
        prop_assert_eq!(
            verdict.is_acyclic(),
            oracle,
            "vclock says {} but Rsg says {} on `{}`\n{}",
            if verdict.is_acyclic() { "accept" } else { "reject" },
            if oracle { "accept" } else { "reject" },
            s.display(&txns),
            minimize_disagreement(&txns, &spec, s.ops(), backends_disagree)
        );
        if let Some(w) = verdict.witness() {
            assert_witness_replays(&txns, &s, &spec, w);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Three-way lockstep: the incremental engine, its full-rebuild
    /// oracle, and a fresh vector-clock certifier re-deciding every
    /// grant/reject.
    #[test]
    fn lockstep_decisions_match_a_fresh_certifier(
        wl_seed in 0u64..100_000,
        spec_seed in 0u64..100_000,
        feed_seed in 0u64..100_000,
        n_txns in 2usize..5,
        objects in 2usize..4,
    ) {
        let cfg = RandomConfig {
            txns: n_txns,
            ops_per_txn: (1, 4),
            objects,
            theta: 0.5,
            write_ratio: 0.5,
        };
        let txns = random_txns(&cfg, wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);

        // Re-certify an op list from scratch with the one-pass algorithm.
        let sealed_verdict = |ops: &[OpId]| {
            let mut c = VClockCertifier::new(&txns, &spec);
            for &op in ops {
                c.observe(op).expect("engine-admitted feeds are in program order");
            }
            c.seal().is_acyclic()
        };

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
            let mut t = (next() as usize) % n;
            while done[t] {
                t = (t + 1) % n;
            }
            let op = OpId::new(TxnId(t as u32), cursor[t]);
            let a = oracle.request(op);
            let b = inc.request(op);
            prop_assert_eq!(&a, &b, "engine divergence at {:?}", op);
            match a {
                Decision::Granted => {
                    // The certifier must accept exactly what the engine
                    // just admitted (the op is the admitted suffix).
                    prop_assert!(
                        sealed_verdict(inc.admitted()),
                        "engine granted {:?} but certifier rejects the prefix",
                        op
                    );
                    cursor[t] += 1;
                    if cursor[t] as usize == txns.txn(TxnId(t as u32)).len() {
                        oracle.commit(TxnId(t as u32));
                        inc.commit(TxnId(t as u32));
                        done[t] = true;
                    }
                }
                Decision::Aborted(_) => {
                    // Rejection means prefix+op is cyclic; the certifier
                    // must reject the same extension. Snapshot the prefix
                    // before the engines drop the aborted incarnation.
                    let mut extended = inc.admitted().to_vec();
                    extended.retain(|o| o.txn != op.txn || o.index < op.index);
                    extended.push(op);
                    prop_assert!(
                        !sealed_verdict(&extended),
                        "engine rejected {:?} but certifier accepts the extension",
                        op
                    );
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
    }

    /// Gapped feeds are refused: on an object-projected schedule, where
    /// transactions show leading and internal index gaps, `observe`
    /// accepts exactly the operations that are the next of their
    /// transaction and answers every skipped index with
    /// `ProgramOrderViolated`, leaving the certifier unchanged.
    #[test]
    fn gapped_feeds_are_refused_index_by_index(
        wl_seed in 0u64..100_000,
        spec_seed in 0u64..100_000,
        sched_seed in 0u64..100_000,
        n_txns in 2usize..5,
        objects in 2usize..5,
        keep_mask in 1u32..31,
    ) {
        let cfg = RandomConfig {
            txns: n_txns,
            ops_per_txn: (1, 4),
            objects,
            theta: 0.5,
            write_ratio: 0.5,
        };
        let txns = random_txns(&cfg, wl_seed);
        let spec = random_spec(&txns, 0.5, spec_seed);
        let s = random_schedule(&txns, sched_seed);
        let mut c = VClockCertifier::new(&txns, &spec);
        let mut next = vec![0u32; txns.len()];
        for &op in s.ops() {
            if keep_mask & (1 << (txns.op(op).unwrap().object.0 as usize % 5)) == 0 {
                continue;
            }
            let in_order = op.index == next[op.txn.index()];
            match c.observe(op) {
                Ok(()) => {
                    prop_assert!(in_order, "{:?} skips an index but was observed", op);
                    next[op.txn.index()] += 1;
                }
                Err(e) => {
                    prop_assert!(!in_order, "{:?} is next but was refused: {}", op, e);
                    prop_assert!(matches!(e, Error::ProgramOrderViolated { .. }));
                }
            }
        }
        prop_assert_eq!(c.observed() as u32, next.iter().sum::<u32>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Certifying on the universe equals certifying the projection: the
    /// operations of a random transaction subset, in schedule order, fed
    /// to `VClockCertifier::new` over the whole universe, get the verdict
    /// of `Rsg::build` over `Projection::subset`, and every witness hop,
    /// mapped into the projection, is an arc of that RSG with the kinds
    /// claimed.
    #[test]
    fn certifying_on_the_universe_equals_certifying_the_projection(
        wl_seed in 0u64..100_000,
        spec_seed in 0u64..100_000,
        sched_seed in 0u64..100_000,
        n_txns in 2usize..7,
        objects in 2usize..5,
        keep_mask in 1u32..64,
        breakpoints in 0u32..=100,
    ) {
        let cfg = RandomConfig {
            txns: n_txns,
            ops_per_txn: (1, 4),
            objects,
            theta: 0.5,
            write_ratio: 0.5,
        };
        let txns = random_txns(&cfg, wl_seed);
        let spec = random_spec(&txns, breakpoints as f64 / 100.0, spec_seed);
        let s = random_schedule(&txns, sched_seed);
        let mut keep: Vec<TxnId> = txns
            .txn_ids()
            .filter(|t| keep_mask & (1 << t.index()) != 0)
            .collect();
        if keep.is_empty() {
            keep.push(TxnId(0));
        }
        let feed: Vec<OpId> = s.ops().iter().copied().filter(|o| keep.contains(&o.txn)).collect();

        let mut c = VClockCertifier::new(&txns, &spec);
        for &op in &feed {
            c.observe(op).expect("a subset of a schedule is in program order");
        }
        let verdict = c.seal();
        let p = Projection::subset(&txns, &spec, &keep).expect("a subset projects");
        let projected = p.schedule(&feed).expect("complete transactions form a schedule");
        let rsg = Rsg::build(&p.txns, &projected, &p.spec);
        prop_assert_eq!(
            verdict.is_acyclic(),
            rsg.is_acyclic(),
            "universe feed `{}` of {:?}",
            projected.display(&p.txns),
            keep
        );
        if let Some(w) = verdict.witness() {
            for (k, &from) in w.ops.iter().enumerate() {
                let to = w.ops[(k + 1) % w.ops.len()];
                let (a, b) = (p.from_original(from), p.from_original(to));
                prop_assert!(a.is_some() && b.is_some(), "hop {:?} -> {:?} leaves the subset", from, to);
                let kinds = rsg.arc_between(a.unwrap(), b.unwrap());
                prop_assert!(
                    kinds.is_some_and(|kinds| kinds.contains(w.kinds[k])),
                    "hop {:?} -> {:?} ({}) is not an arc of the projection's RSG",
                    from,
                    to,
                    w.kinds[k]
                );
            }
        }
    }
}

/// All five production protocols, random-walk explored: the oracle suite
/// (which now triple-checks every committed history through the
/// vector-clock certifier) must come back clean for every one of them.
#[test]
fn explorer_random_walks_are_clean_for_all_five_protocols() {
    for wl_seed in [7u64, 1994] {
        let cfg = RandomConfig {
            txns: 3,
            ops_per_txn: (2, 4),
            objects: 3,
            theta: 0.5,
            write_ratio: 0.5,
        };
        let txns = random_txns(&cfg, wl_seed);
        let spec = random_spec(&txns, 0.5, wl_seed ^ 0xA5A5);
        for kind in SchedulerKind::all() {
            let report = ScheduleExplorer::new(
                &txns,
                &spec,
                kind,
                ExploreConfig {
                    mode: Mode::RandomWalks {
                        walks: 40,
                        seed: 0xC10C4,
                    },
                    ..ExploreConfig::default()
                },
            )
            .explore();
            assert!(
                report.clean(),
                "{} diverged on seed {wl_seed}: {:?}",
                kind.name(),
                report
                    .divergences
                    .iter()
                    .map(|d| (d.kind, d.detail.clone()))
                    .collect::<Vec<_>>()
            );
        }
    }
}

/// The delta-debugger must actually minimize when handed a genuine
/// disagreement. The two real backends never disagree, so stand in a
/// deliberately different predicate: conflict serializability. The
/// paper's Figure 1 history `S_ra` is relatively serializable but not
/// conflict serializable — exactly a "mismatch" between the certifier
/// and a wrong reference — and the minimizer must shrink the Figure 1
/// universe to a strictly smaller core that still disagrees.
#[test]
fn mismatch_path_minimizes_a_genuine_disagreement() {
    use relser_core::paper::Figure1;
    use relser_core::sg::is_conflict_serializable;

    let fig = Figure1::new();
    let s = fig.s_ra();
    let disagree = |p: &Projection, s: &Schedule| {
        vclock::certify(&p.txns, s, &p.spec).is_acyclic() && !is_conflict_serializable(&p.txns, s)
    };
    assert!(
        disagree(
            &Projection::subset(
                &fig.txns,
                &fig.spec,
                &fig.txns.txn_ids().collect::<Vec<_>>()
            )
            .unwrap(),
            &s
        ),
        "S_ra must be relatively serializable but not conflict serializable"
    );

    let report = minimize_disagreement(&fig.txns, &fig.spec, s.ops(), disagree);
    assert!(report.contains("minimal disagreeing universe"), "{report}");
    // The minimal core is strictly smaller than the full 10-op universe
    // and still a multi-transaction disagreement.
    let shrunk = shrink_universe(&fig.txns, &fig.spec, |p| {
        p.schedule(s.ops()).is_ok_and(|ps| disagree(p, &ps))
    })
    .expect("disagreement reproduces");
    assert!(
        shrunk.txns.total_ops() < fig.txns.total_ops(),
        "minimizer failed to shrink: {} ops",
        shrunk.txns.total_ops()
    );
    assert!(shrunk.txns.len() >= 2, "SG cycles need two transactions");
}
