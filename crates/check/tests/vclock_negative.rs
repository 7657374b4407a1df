//! Negative-path tests for the vector-clock certifier (ISSUE satellite
//! 2): the certifier must *reject* exactly what the paper rejects, with
//! cycle witnesses that replay hop-by-hop in the explicit Theorem 1 RSG.
//!
//! Three sources of known-bad (and known-good) histories:
//!
//! * the planted-bug `SwappedSpecRsgSgt` refutation history — the
//!   schedule the deliberately broken engine wrongly commits;
//! * the paper's own Figures 1–4, whose schedules have verdicts stated
//!   in the text;
//! * exhaustive enumeration of the Figure 1 and Figure 2 universes,
//!   where the certifier's accept set must coincide **schedule by
//!   schedule** with the class lattice's `relatively_serializable` bit.
//!
//! Every one of those histories, and the differential suite's generated
//! shapes (whole schedules and sub-universe feeds), is also re-sealed
//! against a reference built in this file: dense clocks, the
//! moved-maximum arcs, and a general `DiGraph` searched by `find_cycle`
//! with each node's I-arc first and then its cross arcs in ascending
//! target order. The certifier's flat-row search must return the same
//! witness, op for op and kind for kind, and the same pass accounting.

use relser_check::{DivergenceKind, ExploreConfig, ScheduleExplorer};
use relser_classes::enumerate::for_each_schedule;
use relser_core::classes::classify;
use relser_core::ids::{OpId, TxnId};
use relser_core::paper::{Figure1, Figure2, Figure3, Figure4};
use relser_core::rsg::{ArcKinds, Rsg};
use relser_core::schedule::Schedule;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock::{self, CertifierStats, CycleWitness, VClockCertifier};
use relser_digraph::{cycle, DiGraph, NodeIdx};
use relser_protocols::SchedulerKind;
use relser_workload::{random_schedule, random_spec, random_txns, RandomConfig};
use std::collections::BTreeMap;

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

/// Certify, assert the expected verdict, and replay the witness when the
/// verdict is a violation.
fn expect_verdict(txns: &TxnSet, s: &Schedule, spec: &AtomicitySpec, accept: bool) {
    let verdict = vclock::certify(txns, s, spec);
    assert_eq!(
        verdict.is_acyclic(),
        accept,
        "wrong verdict on `{}`",
        s.display(txns)
    );
    assert_eq!(
        Rsg::build(txns, s, spec).is_acyclic(),
        accept,
        "test expectation disagrees with Theorem 1 on `{}`",
        s.display(txns)
    );
    if let Some(w) = verdict.witness() {
        assert_witness_replays(txns, s, spec, w);
    }
}

/// The history the swapped-spec engine wrongly commits is rejected by
/// the certifier, with a witness that replays in the true RSG.
#[test]
fn planted_refutation_history_is_rejected_with_witness() {
    let (txns, spec) = relser_protocols::planted::refutation_universe();
    let s = relser_protocols::planted::refutation_schedule(&txns);
    let verdict = vclock::certify(&txns, &s, &spec);
    let w = verdict
        .witness()
        .expect("the refutation history must be a violation");
    assert_witness_replays(&txns, &s, &spec, w);
    // The rendered witness names concrete operations, not indices.
    let rendered = w.render(&txns);
    assert!(rendered.contains("-["), "{rendered}");
}

/// Exhaustively exploring the planted engine flags the Theorem 1
/// violation — and the two certification backends never disagree while
/// doing so (no `CertifierMismatch` even on buggy-protocol executions).
#[test]
fn planted_engine_exploration_flags_cycles_never_certifier_mismatches() {
    let (txns, spec) = relser_protocols::planted::refutation_universe();
    let report = ScheduleExplorer::new(
        &txns,
        &spec,
        SchedulerKind::PlantedSwappedRsg,
        ExploreConfig::default(),
    )
    .explore();
    assert!(
        report
            .divergences
            .iter()
            .any(|d| d.kind == DivergenceKind::CyclicRsg),
        "the planted bug must surface as a Theorem 1 violation"
    );
    assert!(
        !report
            .divergences
            .iter()
            .any(|d| d.kind == DivergenceKind::CertifierMismatch),
        "vclock and Rsg must agree on every committed history"
    );
}

/// Figure 1: `S_ra`, `S_rs`, and `S_2` are all relatively serializable;
/// the interleaving that splits T3's `w3[x] w3[y]` unit around T1's read
/// is not.
#[test]
fn figure1_schedules_certify_as_the_paper_states() {
    let fig = Figure1::new();
    expect_verdict(&fig.txns, &fig.s_ra(), &fig.spec, true);
    expect_verdict(&fig.txns, &fig.s_rs(), &fig.spec, true);
    expect_verdict(&fig.txns, &fig.s_2(), &fig.spec, true);
    let bad = fig
        .txns
        .parse_schedule("r2[y] w2[y] w3[x] r1[x] w1[x] w1[z] r2[x] w3[y] r1[y] w3[z]")
        .unwrap();
    expect_verdict(&fig.txns, &bad, &fig.spec, false);
}

/// Figures 2–4: Figure 2's `S_1` (not relatively *serial*, but — the
/// RSG has no cycle — still relatively serializable), the 12-arc
/// accepted schedule of Figure 3, and the relatively serial schedule of
/// Figure 4.
#[test]
fn figure234_schedules_certify_as_the_paper_states() {
    let fig2 = Figure2::new();
    expect_verdict(&fig2.txns, &fig2.s_1(), &fig2.spec, true);
    let fig3 = Figure3::new();
    expect_verdict(&fig3.txns, &fig3.s_2(), &fig3.spec, true);
    let fig4 = Figure4::new();
    expect_verdict(&fig4.txns, &fig4.s(), &fig4.spec, true);
}

/// Exhaustive lattice agreement: over **every** schedule of a universe,
/// the certifier's accept set coincides with the class lattice's
/// `relatively_serializable` bit — the exact violation set predicted by
/// the paper's Figure 5, not one schedule more or less.
fn assert_lattice_agreement(txns: &TxnSet, spec: &AtomicitySpec) -> (u64, u64) {
    let (mut accepts, mut violations) = (0u64, 0u64);
    for_each_schedule(txns, |s| {
        let verdict = vclock::certify(txns, s, spec);
        let report = classify(txns, s, spec);
        assert_eq!(
            verdict.is_acyclic(),
            report.relatively_serializable,
            "lattice disagreement on `{}`",
            s.display(txns)
        );
        if let Some(w) = verdict.witness() {
            assert_witness_replays(txns, s, spec, w);
            violations += 1;
        } else {
            accepts += 1;
        }
        true
    });
    (accepts, violations)
}

#[test]
fn figure1_universe_exhaustive_lattice_agreement() {
    let fig = Figure1::new();
    let (accepts, violations) = assert_lattice_agreement(&fig.txns, &fig.spec);
    // 10!/(4!·3!·3!) = 4200 interleavings, with both verdicts populated.
    assert_eq!(accepts + violations, 4200);
    assert!(accepts > 0 && violations > 0);
}

#[test]
fn figure2_universe_exhaustive_lattice_agreement() {
    let fig = Figure2::new();
    let (accepts, violations) = assert_lattice_agreement(&fig.txns, &fig.spec);
    // 5!/(2!·1!·2!) = 30 interleavings — every single one relatively
    // serializable (Figure 2's spec tolerates all of them; its point is
    // about relative *seriality*, not serializability).
    assert_eq!((accepts, violations), (30, 0));
}

#[test]
fn figure4_universe_exhaustive_lattice_agreement() {
    let fig = Figure4::new();
    let (accepts, violations) = assert_lattice_agreement(&fig.txns, &fig.spec);
    // 8!/(2!)⁴ = 2520 interleavings, with both verdicts populated.
    assert_eq!(accepts + violations, 2520);
    assert!(accepts > 0 && violations > 0);
}

/// The certifier's seal, rebuilt the way it was before the skeleton was
/// laid out flat: dense K-wide clocks give each operation's moved maxima,
/// their F/B pairs are merged by `(from, to)`, and a `DiGraph` gets every
/// node, then every I-arc, then the cross arcs in `(from, to)` order
/// before `find_cycle` searches it. Returns the witness (if any) and the
/// pass accounting.
fn reference_seal(
    txns: &TxnSet,
    spec: &AtomicitySpec,
    feed: &[OpId],
) -> (Option<CycleWitness>, CertifierStats) {
    let k = txns.len();
    let objects = txns.objects().len();
    let mut txn_clock = vec![vec![0u32; k]; k];
    let mut write_clock = vec![vec![0u32; k]; objects];
    let mut read_clock = vec![vec![0u32; k]; objects];
    let mut cross: BTreeMap<(OpId, OpId), ArcKinds> = BTreeMap::new();
    let mut widest = 0;
    for &op in feed {
        let (t, o) = (
            op.txn.index(),
            txns.op(op).expect("the feed is in the universe"),
        );
        let x = o.object.index();
        let mut d: Vec<u32> = (0..k)
            .map(|i| {
                let reads = if o.is_write() { read_clock[x][i] } else { 0 };
                txn_clock[t][i].max(write_clock[x][i]).max(reads)
            })
            .collect();
        for i in (0..k).filter(|&i| d[i] > txn_clock[t][i]) {
            let max = OpId::new(TxnId(i as u32), d[i] - 1);
            let pb = spec.pull_backward(op, max.txn);
            let pf = spec.push_forward(max, op.txn);
            let direct =
                |kinds: ArcKinds, is_d: bool| if is_d { kinds | ArcKinds::D } else { kinds };
            *cross.entry((max, pb)).or_default() |= direct(ArcKinds::B, pb == op);
            *cross.entry((pf, op)).or_default() |= direct(ArcKinds::F, pf == max);
        }
        d[t] = op.index + 1;
        widest = widest.max(d.iter().filter(|&&c| c > 0).count());
        if o.is_write() {
            write_clock[x].clone_from(&d);
            read_clock[x].fill(0);
        } else {
            for (r, c) in read_clock[x].iter_mut().zip(&d) {
                *r = (*r).max(*c);
            }
        }
        txn_clock[t] = d;
    }

    let mut g: DiGraph<OpId, ArcKinds> = DiGraph::new();
    let mut node: BTreeMap<OpId, NodeIdx> = BTreeMap::new();
    for op in txns.all_op_ids() {
        node.insert(op, g.add_node(op));
    }
    for t in txns.txns() {
        for j in 1..t.len() as u32 {
            let (a, b) = (OpId::new(t.id(), j - 1), OpId::new(t.id(), j));
            g.add_edge(node[&a], node[&b], ArcKinds::I);
        }
    }
    for (&(from, to), &kinds) in &cross {
        g.add_edge(node[&from], node[&to], kinds);
    }
    let stats = CertifierStats {
        ops: feed.len(),
        width: k,
        cross_arcs: cross.len(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        widest,
    };
    let witness = cycle::find_cycle(&g).map(|c| CycleWitness {
        ops: c.iter().map(|&v| *g.node_weight(v)).collect(),
        kinds: (0..c.len())
            .map(|i| {
                let e = g
                    .find_edge(c[i], c[(i + 1) % c.len()])
                    .expect("a cycle hop is an edge");
                *g.edge_weight(e)
            })
            .collect(),
    });
    (witness, stats)
}

/// Seals `feed` with the certifier and with [`reference_seal`] and
/// asserts the same witness and the same accounting; returns whether the
/// feed was rejected.
fn assert_same_seal(txns: &TxnSet, spec: &AtomicitySpec, feed: &[OpId]) -> bool {
    let mut c = VClockCertifier::new(txns, spec);
    for &op in feed {
        c.observe(op).expect("the feed is in program order");
    }
    let verdict = c.seal();
    let (witness, stats) = reference_seal(txns, spec, feed);
    assert_eq!(verdict.witness(), witness.as_ref(), "witness of {feed:?}");
    assert_eq!(verdict.stats(), &stats, "accounting of {feed:?}");
    witness.is_some()
}

/// The planted bug's history, the paper's figures (their stated
/// schedules and every schedule of the Figure 1 and Figure 4 universes)
/// and the differential suite's generated shapes, whole and as
/// sub-universe feeds, seal to the reference's witness and accounting.
#[test]
fn sealed_witnesses_match_the_digraph_reference() {
    let mut rejected = 0usize;
    let (txns, spec) = relser_protocols::planted::refutation_universe();
    let s = relser_protocols::planted::refutation_schedule(&txns);
    assert!(assert_same_seal(&txns, &spec, s.ops()));

    let fig1 = Figure1::new();
    let fig4 = Figure4::new();
    for (txns, spec) in [(&fig1.txns, &fig1.spec), (&fig4.txns, &fig4.spec)] {
        for_each_schedule(txns, |s| {
            rejected += usize::from(assert_same_seal(txns, spec, s.ops()));
            true
        });
    }
    let fig2 = Figure2::new();
    let fig3 = Figure3::new();
    assert!(!assert_same_seal(&fig2.txns, &fig2.spec, fig2.s_1().ops()));
    assert!(!assert_same_seal(&fig3.txns, &fig3.spec, fig3.s_2().ops()));

    for seed in 0..400u64 {
        let cfg = RandomConfig {
            txns: 2 + seed as usize % 5,
            ops_per_txn: (1, 5),
            objects: 2 + seed as usize % 3,
            theta: 0.5,
            write_ratio: (seed % 11) as f64 / 10.0,
        };
        let txns = random_txns(&cfg, seed);
        let spec = random_spec(&txns, (seed % 5) as f64 / 4.0, seed + 1);
        let s = random_schedule(&txns, seed + 2);
        rejected += usize::from(assert_same_seal(&txns, &spec, s.ops()));
        // Every other transaction, as recovery feeds a committed subset.
        let feed: Vec<OpId> = s
            .ops()
            .iter()
            .copied()
            .filter(|o| o.txn.0 % 2 == 0)
            .collect();
        rejected += usize::from(assert_same_seal(&txns, &spec, &feed));
    }
    assert!(rejected > 1000, "{rejected} rejections re-sealed");
}
