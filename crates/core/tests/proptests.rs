//! Property-based verification of the paper's lemmas and Theorem 1 on
//! random universes (transactions, specifications, schedules).

use proptest::prelude::*;
use relser_core::classes::{classify, is_relatively_serial};
use relser_core::depends::DependsOn;
use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::{AdmitError, IncrementalRsg};
use relser_core::op::AccessMode;
use relser_core::rsg::Rsg;
use relser_core::schedule::Schedule;
use relser_core::sg::is_conflict_serializable;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

const OBJECTS: [&str; 4] = ["x", "y", "z", "t"];

/// A random universe: transactions + spec + schedule, all derived from
/// plain data so proptest can shrink them.
#[derive(Debug, Clone)]
struct Universe {
    txns: TxnSet,
    spec: AtomicitySpec,
    schedule: Schedule,
}

/// Strategy for the raw data of a universe.
fn arb_universe(free_breakpoints: bool) -> impl Strategy<Value = Universe> {
    // Per transaction: 1..=4 ops, each (mode, object index).
    let txn = proptest::collection::vec((any::<bool>(), 0usize..OBJECTS.len()), 1..=4);
    let txns = proptest::collection::vec(txn, 2..=4);
    (txns, any::<u64>(), any::<u64>()).prop_map(move |(txn_data, spec_seed, sched_seed)| {
        let mut set = TxnSet::new();
        for ops in &txn_data {
            let pairs: Vec<(AccessMode, &str)> = ops
                .iter()
                .map(|&(w, o)| {
                    (
                        if w {
                            AccessMode::Write
                        } else {
                            AccessMode::Read
                        },
                        OBJECTS[o],
                    )
                })
                .collect();
            set.add(&pairs).unwrap();
        }
        let spec = if free_breakpoints {
            random_spec(&set, spec_seed)
        } else {
            AtomicitySpec::absolute(&set)
        };
        let schedule = random_schedule(&set, sched_seed);
        Universe {
            txns: set,
            spec,
            schedule,
        }
    })
}

/// Deterministic xorshift for repairable sub-choices.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_spec(txns: &TxnSet, mut seed: u64) -> AtomicitySpec {
    seed |= 1;
    let mut spec = AtomicitySpec::absolute(txns);
    for i in txns.txn_ids() {
        for j in txns.txn_ids() {
            if i == j {
                continue;
            }
            let len = txns.txn(i).len() as u32;
            let breaks: Vec<u32> = (1..len)
                .filter(|_| next(&mut seed).is_multiple_of(2))
                .collect();
            spec.set_breakpoints(i, j, &breaks).unwrap();
        }
    }
    spec
}

fn random_schedule(txns: &TxnSet, mut seed: u64) -> Schedule {
    seed |= 1;
    let mut remaining: Vec<u32> = txns.txns().iter().map(|t| t.len() as u32).collect();
    let mut cursor: Vec<u32> = vec![0; txns.len()];
    let mut order = Vec::with_capacity(txns.total_ops());
    let mut left = txns.total_ops();
    while left > 0 {
        // Pick a transaction with remaining ops, repaired deterministically.
        let mut t = (next(&mut seed) as usize) % txns.len();
        while remaining[t] == 0 {
            t = (t + 1) % txns.len();
        }
        order.push(relser_core::ids::OpId::new(TxnId(t as u32), cursor[t]));
        cursor[t] += 1;
        remaining[t] -= 1;
        left -= 1;
    }
    Schedule::new(txns, order).expect("constructed schedule is valid")
}

/// A conflict-equivalent variant of `s`: a walk of adjacent swaps of
/// non-conflicting, different-transaction neighbors.
fn conflict_equivalent_variant(txns: &TxnSet, s: &Schedule, mut seed: u64) -> Schedule {
    seed |= 1;
    let mut ops = s.ops().to_vec();
    let n = ops.len();
    if n >= 2 {
        for _ in 0..4 * n {
            let i = (next(&mut seed) as usize) % (n - 1);
            let (a, b) = (ops[i], ops[i + 1]);
            if a.txn == b.txn {
                continue;
            }
            let oa = txns.op(a).unwrap();
            let ob = txns.op(b).unwrap();
            if !oa.conflicts_with(ob) {
                ops.swap(i, i + 1);
            }
        }
    }
    Schedule::new(txns, ops).expect("swaps preserve validity")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Figure 5 containments: serial ⇒ relatively atomic ⇒ relatively
    /// serial ⇒ relatively serializable, under arbitrary specs.
    #[test]
    fn containments_hold(u in arb_universe(true)) {
        let report = classify(&u.txns, &u.schedule, &u.spec);
        prop_assert!(report.containments_hold(), "{report:?}");
    }

    /// Lemma 2: a relatively serial schedule has an acyclic RSG.
    #[test]
    fn lemma2_relatively_serial_implies_acyclic_rsg(u in arb_universe(true)) {
        if is_relatively_serial(&u.txns, &u.schedule, &u.spec) {
            prop_assert!(Rsg::build(&u.txns, &u.schedule, &u.spec).is_acyclic());
        }
    }

    /// Theorem 1 (sufficiency, constructively): if the RSG is acyclic, the
    /// extracted witness is a relatively serial schedule conflict-equivalent
    /// to the original.
    #[test]
    fn theorem1_witness_is_relatively_serial_and_equivalent(u in arb_universe(true)) {
        let rsg = Rsg::build(&u.txns, &u.schedule, &u.spec);
        if let Some(w) = rsg.witness(&u.txns) {
            prop_assert!(w.conflict_equivalent(&u.schedule, &u.txns));
            prop_assert!(is_relatively_serial(&u.txns, &w, &u.spec),
                "witness {} of {} is not relatively serial",
                w.display(&u.txns), u.schedule.display(&u.txns));
        }
    }

    /// Theorem 1 (invariance): conflict-equivalent schedules have the same
    /// RSG verdict.
    #[test]
    fn theorem1_verdict_invariant_under_conflict_equivalence(
        u in arb_universe(true), seed in any::<u64>()
    ) {
        let v = conflict_equivalent_variant(&u.txns, &u.schedule, seed);
        prop_assert!(v.conflict_equivalent(&u.schedule, &u.txns));
        let a = Rsg::build(&u.txns, &u.schedule, &u.spec).is_acyclic();
        let b = Rsg::build(&u.txns, &v, &u.spec).is_acyclic();
        prop_assert_eq!(a, b);
    }

    /// Lemma 1 corollary: under absolute atomicity, relatively serializable
    /// ⇔ conflict serializable.
    #[test]
    fn lemma1_absolute_atomicity_matches_conflict_serializability(
        u in arb_universe(false)
    ) {
        let rsr = Rsg::build(&u.txns, &u.schedule, &u.spec).is_acyclic();
        let csr = is_conflict_serializable(&u.txns, &u.schedule);
        prop_assert_eq!(rsr, csr, "schedule {}", u.schedule.display(&u.txns));
    }

    /// Widening the spec (adding breakpoints) never shrinks the accepted
    /// class: if a schedule is relatively serializable under the absolute
    /// spec it stays so under any spec.
    #[test]
    fn looser_specs_accept_more(u in arb_universe(true)) {
        let absolute = AtomicitySpec::absolute(&u.txns);
        if Rsg::build(&u.txns, &u.schedule, &absolute).is_acyclic() {
            prop_assert!(Rsg::build(&u.txns, &u.schedule, &u.spec).is_acyclic());
        }
    }

    /// The free spec accepts every schedule.
    #[test]
    fn free_spec_accepts_every_schedule(u in arb_universe(true)) {
        let free = AtomicitySpec::free(&u.txns);
        prop_assert!(Rsg::build(&u.txns, &u.schedule, &free).is_acyclic());
        prop_assert!(is_relatively_serial(&u.txns, &u.schedule, &free));
    }

    /// The transitive depends-on relation contains the direct one.
    #[test]
    fn transitive_contains_direct(u in arb_universe(true)) {
        let trans = DependsOn::compute(&u.txns, &u.schedule);
        let direct = DependsOn::direct(&u.txns, &u.schedule);
        let n = u.schedule.len();
        for p in 0..n {
            for q in 0..n {
                if direct.depends_by_pos(q, p) {
                    prop_assert!(trans.depends_by_pos(q, p));
                }
            }
        }
    }

    /// Serial schedules are in every class regardless of spec.
    #[test]
    fn serial_schedules_in_every_class(u in arb_universe(true), perm_seed in any::<u64>()) {
        let mut order: Vec<TxnId> = u.txns.txn_ids().collect();
        // Deterministic shuffle.
        let mut seed = perm_seed | 1;
        for i in (1..order.len()).rev() {
            let j = (next(&mut seed) as usize) % (i + 1);
            order.swap(i, j);
        }
        let s = u.txns.serial_schedule(&order).unwrap();
        let r = classify(&u.txns, &s, &u.spec);
        prop_assert!(r.serial && r.relatively_atomic && r.relatively_serial
            && r.conflict_serializable && r.relatively_serializable);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The document format round-trips arbitrary universes exactly.
    #[test]
    fn format_round_trips(u in arb_universe(true), name in "[a-z]{1,8}") {
        let doc = relser_core::format::Document {
            txns: u.txns.clone(),
            spec: u.spec.clone(),
            schedules: vec![(name, u.schedule.clone())],
        };
        let rendered = relser_core::format::render(&doc);
        let parsed = relser_core::format::parse(&rendered).unwrap();
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(relser_core::format::render(&parsed), rendered);
    }

    /// Inference always makes its examples relatively atomic, and the
    /// result is minimal: every inferred breakpoint is forced by some
    /// example.
    #[test]
    fn inference_is_sound_and_minimal(u in arb_universe(false), extra in any::<u64>()) {
        let examples = vec![u.schedule.clone(), random_schedule(&u.txns, extra)];
        let spec = relser_core::infer::infer_spec(&u.txns, &examples).unwrap();
        for s in &examples {
            prop_assert!(relser_core::classes::is_relatively_atomic(&u.txns, s, &spec));
        }
        for i in u.txns.txn_ids() {
            for j in u.txns.txn_ids() {
                if i == j { continue; }
                let breaks = spec.breakpoints(i, j).to_vec();
                for drop in &breaks {
                    let mut weakened = spec.clone();
                    let remaining: Vec<u32> =
                        breaks.iter().copied().filter(|b| b != drop).collect();
                    weakened.set_breakpoints(i, j, &remaining).unwrap();
                    prop_assert!(
                        examples.iter().any(|s| !relser_core::classes::is_relatively_atomic(
                            &u.txns, s, &weakened
                        )),
                        "breakpoint {} of Atomicity({},{}) not forced", drop, i, j
                    );
                }
            }
        }
    }

    /// The explanation report never disagrees with `classify`.
    #[test]
    fn explanations_are_consistent_with_classify(u in arb_universe(true)) {
        let text = relser_core::explain::explain(&u.txns, &u.schedule, &u.spec);
        let report = classify(&u.txns, &u.schedule, &u.spec);
        prop_assert_eq!(
            text.contains("relatively serializable (Thm. 1): yes"),
            report.relatively_serializable
        );
        prop_assert_eq!(
            text.contains("relatively atomic (Def. 1): yes"),
            report.relatively_atomic
        );
        prop_assert_eq!(
            text.contains("conflict serializable: yes"),
            report.conflict_serializable
        );
    }
}

/// Feeds `schedule` to the incremental engine and checks the clock
/// skeleton it builds against the offline RSG: every delta arc is an RSG
/// arc carrying at least the delta's kinds (skeleton ⊆ RSG), and, when
/// the engine admits the whole schedule, every RSG arc is a path of the
/// static I-chains plus the deltas (RSG ⊆ closure(skeleton)). The engine
/// admits the whole schedule iff its RSG is acyclic.
fn assert_skeleton_sandwich(txns: &TxnSet, schedule: &Schedule, spec: &AtomicitySpec) {
    let rsg = Rsg::build(txns, schedule, spec);
    let mut engine = IncrementalRsg::new(txns, spec);
    let mut skeleton: Vec<(OpId, OpId)> = Vec::new();
    for t in txns.txns() {
        for j in 1..t.len() as u32 {
            skeleton.push((OpId::new(t.id(), j - 1), OpId::new(t.id(), j)));
        }
    }
    for &op in schedule.ops() {
        let delta = engine.propose(op);
        match engine.try_admit(op) {
            Ok(summary) => assert_eq!(summary.arcs, delta.arcs.len()),
            Err(AdmitError::Cycle(_)) => {
                assert!(!rsg.is_acyclic(), "engine refused an acyclic schedule");
                return;
            }
            Err(e) => panic!("in-order feed: {e:?}"),
        }
        for (a, b, kinds) in delta.arcs {
            let rsg_kinds = rsg
                .arc_between(a, b)
                .unwrap_or_else(|| panic!("skeleton arc {a:?} -> {b:?} is no RSG arc"));
            assert!(
                rsg_kinds.contains(kinds),
                "{a:?} -> {b:?}: {kinds} vs {rsg_kinds}"
            );
            skeleton.push((a, b));
        }
    }
    assert!(rsg.is_acyclic(), "engine admitted a cyclic schedule");
    let reaches = |from: OpId, to: OpId| {
        let (mut seen, mut stack) = (vec![from], vec![from]);
        while let Some(v) = stack.pop() {
            for &(a, b) in &skeleton {
                if a == v && !seen.contains(&b) {
                    seen.push(b);
                    stack.push(b);
                }
            }
        }
        seen.contains(&to)
    };
    for (a, b, _) in rsg.arcs() {
        assert!(
            reaches(a, b),
            "RSG arc {a:?} -> {b:?} outside closure(skeleton)"
        );
    }
}

/// The sandwich skeleton ⊆ RSG ⊆ closure(skeleton) on the paper's
/// Figure 1 schedules.
#[test]
fn skeleton_is_sandwiched_on_figure1_schedules() {
    let fig = relser_core::paper::Figure1::new();
    for schedule in [fig.s_ra(), fig.s_rs(), fig.s_2()] {
        assert_skeleton_sandwich(&fig.txns, &schedule, &fig.spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same sandwich on random universes; a cyclic schedule is
    /// refused, and the arcs admitted before the refusal are RSG arcs.
    #[test]
    fn skeleton_is_sandwiched_on_random_universes(u in arb_universe(true)) {
        assert_skeleton_sandwich(&u.txns, &u.schedule, &u.spec);
    }
}

/// A regression-style deterministic test: looser specs accept a strict
/// superset on the Figure 1 universe (sanity anchor for the proptest
/// above).
#[test]
fn figure1_spec_accepts_more_than_absolute() {
    let fig = relser_core::paper::Figure1::new();
    let sra = fig.s_ra();
    let absolute = AtomicitySpec::absolute(&fig.txns);
    assert!(!Rsg::build(&fig.txns, &sra, &absolute).is_acyclic());
    assert!(Rsg::build(&fig.txns, &sra, &fig.spec).is_acyclic());
}
