//! Linear-time vector-clock certifier for relative serializability.
//!
//! Theorem 1 decides relative serializability by acyclicity of the RSG
//! (Definition 3), and the offline [`Rsg`](crate::rsg::Rsg) builder pays for
//! it twice: the depends-on relation is a full transitive closure
//! (O(n²/w) bitset words) and the D-arc family alone is O(n²) arcs. In the
//! style of Mathur–Viswanathan ("Atomicity Checking in Linear Time using
//! Vector Clocks") and RegionTrack, this module carries the same
//! reachability information in **per-transaction vector clocks** and decides
//! the same predicate in a single forward pass, O(K) work per operation for
//! K transactions — the Biswas–Enea regime where checking is linear in
//! history length once the number of transactions is a parameter, not part
//! of the input growth.
//!
//! ## Clock layout
//!
//! For an executed operation `o`, define its *dependency clock* `D(o)` as a
//! vector with one entry per transaction: `D(o)[i]` is the number of leading
//! operations of `T_i` that `o` depends on (§2's depends-on relation), i.e.
//! one plus the largest program index `a` such that `o_{i,a}` depends-into
//! `o`, or `0` when no operation of `T_i` does. Per-transaction *maxima*
//! lose nothing because depends-on is downward closed along each program
//! order: if `o_{i,a}` reaches `o` then so does every earlier `o_{i,a'}`
//! (via the same-transaction direct dependency `o_{i,a'} → o_{i,a}`).
//!
//! `D(o)` is computable forward, without ever revisiting an earlier
//! operation, from three running summaries:
//!
//! * `txn_clock[t]` — `D(p) ⊔ {p}` for `p` the latest observed operation of
//!   `T_t` (covers program-order predecessors and their closures);
//! * `write_clock[x]` — `D(w) ⊔ {w}` for `w` the latest write of object `x`
//!   (covers **all** earlier writes and pre-`w` reads of `x`: each of them
//!   depends-into `w` through the per-object conflict chain);
//! * `read_clock[x]` — the join of `D(r) ⊔ {r}` over the reads of `x` since
//!   the latest write (only the next write of `x` depends on those).
//!
//! Then `D(o) = txn_clock[t] ⊔ write_clock[x] ⊔ (read_clock[x] if o writes)`
//! where `⊔` is the element-wise max, and the summaries are updated with
//! `D(o) ⊔ {o}` afterwards. Every step is O(K).
//!
//! ## Why one linear pass suffices
//!
//! The RSG itself is *not* forward-constructible op by op — an F-arc's
//! source (`PushForward`) may be an operation that has not executed yet.
//! But the full RSG is closure-equivalent to a sparse **clock skeleton**
//! with O(nK) arcs, all of them genuine RSG arcs:
//!
//! * the static I-chains `o_{t,j} → o_{t,j+1}` over *all* program
//!   operations (exactly the static skeleton `IncrementalRsg` holds);
//! * per executed `o = o_{t,j}` and per transaction `i ≠ t` with
//!   `D(o)[i] = a+1 > 0`, only the **maximal** dependency `o_{i,a}`
//!   contributes arcs: the F-arc `PushForward(o_{i,a}, T_t) → o` and the
//!   B-arc `o_{i,a} → PullBackward(o, T_i)`.
//!
//! Dropped arcs are recovered by the skeleton's closure: for a non-maximal
//! dependency `o_{i,e}` (`e < a`), its F-arc source
//! `PushForward(o_{i,e}, T_t)` ends at or before `PushForward(o_{i,a}, T_t)`
//! in `T_i`'s program order (`PushForward` is monotone in the operation
//! index), so the I-chain reaches the retained F-arc; its B-arc shares the
//! retained B-arc's target, and the I-chain from `o_{i,e}` to `o_{i,a}`
//! reaches the retained source. The D-arc `o_{i,a} → o` itself is implied by
//! the retained B-arc followed by the I-chain from `PullBackward(o, T_i)` to
//! `o`. Hence *skeleton ⊆ RSG ⊆ closure(skeleton)*: the two graphs have the
//! same transitive closure, so the skeleton is acyclic iff the RSG is —
//! and because every skeleton arc is a genuine RSG arc, any skeleton cycle
//! is verbatim an RSG cycle.
//!
//! ## Witness extraction
//!
//! On violation the certifier returns the skeleton cycle as a
//! [`CycleWitness`]: the operation sequence plus the arc kinds of each hop
//! (`I`, or `F`/`B` merged with `D` when the hop coincides with the direct
//! dependency arc). Since skeleton arcs are RSG arcs with those exact
//! kinds, the witness replays under
//! [`Rsg::arc_between`](crate::rsg::Rsg::arc_between) — the negative-path tests assert this.
//!
//! Partial histories are supported the way `IncrementalRsg` supports them:
//! operations may be observed for only a prefix of each transaction, and
//! even with gaps (a shard observing its own objects only); the verdict
//! then matches the incremental engine's graph over the same feed.

use crate::error::{Error, Result};
use crate::ids::{OpId, TxnId};
use crate::rsg::ArcKinds;
use crate::schedule::Schedule;
use crate::spec::AtomicitySpec;
use crate::txn::TxnSet;
use relser_digraph::{cycle, DiGraph, NodeIdx};
use std::collections::HashMap;

/// A dependency clock: one entry per transaction, `clock[i]` = number of
/// leading operations of `T_i` in the summarized closure (0 = none).
type Clock = Vec<u32>;

/// Element-wise max join.
fn join(dst: &mut [u32], src: &[u32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        if s > *d {
            *d = s;
        }
    }
}

/// Size/cost accounting for one certification pass, reported with either
/// verdict. `cross_arcs` is the number of materialized skeleton arcs beyond
/// the static I-chains — bounded by `2 · ops · (width - 1)`, the linearity
/// claim the bench suite asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CertifierStats {
    /// Operations observed.
    pub ops: usize,
    /// Clock width = number of transactions in the universe.
    pub width: usize,
    /// Merged cross-transaction skeleton arcs (F/B, with coinciding D).
    pub cross_arcs: usize,
    /// Skeleton nodes (all static operations of the universe).
    pub nodes: usize,
    /// Skeleton edges including the static I-chains.
    pub edges: usize,
}

/// A concrete RSG cycle extracted from the clock skeleton: `ops[k]` reaches
/// `ops[k+1]` (cyclically) by an arc whose kinds include `kinds[k]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleWitness {
    /// The operations in cycle order.
    pub ops: Vec<OpId>,
    /// Arc kinds of each hop; `kinds[k]` labels `ops[k] → ops[k+1 mod len]`.
    pub kinds: Vec<ArcKinds>,
}

impl CycleWitness {
    /// Paper-style rendering, e.g.
    /// `r2[x] -[B]-> w1[x] -[I]-> w1[y] -[D,B]-> (r2[x])`.
    pub fn render(&self, txns: &TxnSet) -> String {
        let mut out = String::new();
        for (op, kinds) in self.ops.iter().zip(&self.kinds) {
            out.push_str(&txns.display_op(*op));
            out.push_str(&format!(" -[{kinds}]-> "));
        }
        out.push_str(&format!("({})", txns.display_op(self.ops[0])));
        out
    }
}

/// The certifier's answer for one history.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The history is relatively serializable (skeleton acyclic).
    RelativelySerializable(CertifierStats),
    /// The history is not relatively serializable; `witness` is a genuine
    /// RSG cycle.
    Violation {
        /// A concrete RSG cycle proving the violation.
        witness: CycleWitness,
        /// Pass accounting.
        stats: CertifierStats,
    },
}

impl Verdict {
    /// Mirrors [`Rsg::is_acyclic`](crate::rsg::Rsg::is_acyclic): `true` iff
    /// the history was accepted.
    pub fn is_acyclic(&self) -> bool {
        matches!(self, Verdict::RelativelySerializable(_))
    }

    /// Pass accounting, regardless of outcome.
    pub fn stats(&self) -> &CertifierStats {
        match self {
            Verdict::RelativelySerializable(s) => s,
            Verdict::Violation { stats, .. } => stats,
        }
    }

    /// The cycle witness when the history was rejected.
    pub fn witness(&self) -> Option<&CycleWitness> {
        match self {
            Verdict::RelativelySerializable(_) => None,
            Verdict::Violation { witness, .. } => Some(witness),
        }
    }
}

/// One-pass vector-clock certifier (see module docs for the algorithm).
///
/// Feed operations in execution order via [`observe`](Self::observe), then
/// [`seal`](Self::seal) for the verdict; [`certify`] wraps both for complete
/// schedules.
///
/// ```
/// use relser_core::prelude::*;
/// use relser_core::vclock;
/// let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
/// let spec = AtomicitySpec::absolute(&txns);
/// let lost_update = txns.parse_schedule("r1[x] r2[x] w1[x] w2[x]").unwrap();
/// let verdict = vclock::certify(&txns, &lost_update, &spec);
/// assert!(!verdict.is_acyclic());
/// let witness = verdict.witness().unwrap();
/// // The witness is a genuine RSG cycle.
/// let rsg = Rsg::build(&txns, &lost_update, &spec);
/// for (k, &from) in witness.ops.iter().enumerate() {
///     let to = witness.ops[(k + 1) % witness.ops.len()];
///     assert!(rsg.arc_between(from, to).unwrap().contains(witness.kinds[k]));
/// }
/// ```
pub struct VClockCertifier<'a> {
    txns: &'a TxnSet,
    spec: &'a AtomicitySpec,
    /// Global node id of `o_{t,0}` in the static skeleton.
    offsets: Vec<u32>,
    total_static: usize,
    /// Last observed program index per transaction (`None` = none yet);
    /// indices must strictly increase, gaps allowed.
    last_seen: Vec<Option<u32>>,
    txn_clock: Vec<Clock>,
    write_clock: Vec<Clock>,
    read_clock: Vec<Clock>,
    /// Cross-transaction skeleton arcs keyed by global ids, kinds merged.
    arcs: HashMap<(u32, u32), ArcKinds>,
    observed: usize,
    scratch: Clock,
}

impl<'a> VClockCertifier<'a> {
    /// A certifier over the universe `(txns, spec)` with empty clocks.
    pub fn new(txns: &'a TxnSet, spec: &'a AtomicitySpec) -> Self {
        let k = txns.len();
        debug_assert_eq!(k, spec.txn_count(), "spec must cover the universe");
        let mut offsets = Vec::with_capacity(k);
        let mut total = 0u32;
        for t in txns.txns() {
            offsets.push(total);
            total += t.len() as u32;
        }
        let objects = txns.objects().len();
        VClockCertifier {
            txns,
            spec,
            offsets,
            total_static: total as usize,
            last_seen: vec![None; k],
            txn_clock: vec![vec![0; k]; k],
            write_clock: vec![vec![0; k]; objects],
            read_clock: vec![vec![0; k]; objects],
            arcs: HashMap::new(),
            observed: 0,
            scratch: vec![0; k],
        }
    }

    fn gid(&self, op: OpId) -> u32 {
        self.offsets[op.txn.index()] + op.index
    }

    fn add_arc(&mut self, from: u32, to: u32, kinds: ArcKinds) {
        debug_assert_ne!(from, to, "skeleton arcs never self-loop");
        *self.arcs.entry((from, to)).or_insert_with(ArcKinds::empty) |= kinds;
    }

    /// Observes the next executed operation. Errors if `op` does not exist
    /// in the universe or does not extend `op.txn`'s observed program order
    /// (indices must strictly increase; gaps are allowed, matching
    /// `IncrementalRsg`'s gap admission on sharded projections).
    pub fn observe(&mut self, op: OpId) -> Result<()> {
        let operation = self.txns.op(op)?;
        let t = op.txn.index();
        if let Some(last) = self.last_seen[t] {
            if op.index <= last {
                return Err(Error::ProgramOrderViolated { txn: op.txn, op });
            }
        }

        // D(op) = txn_clock[t] ⊔ write_clock[x] ⊔ (read_clock[x] if write).
        let x = operation.object.index();
        self.scratch.copy_from_slice(&self.txn_clock[t]);
        join(&mut self.scratch, &self.write_clock[x]);
        if operation.is_write() {
            join(&mut self.scratch, &self.read_clock[x]);
        }

        // Skeleton arcs from the per-transaction maximal dependencies.
        let to = self.gid(op);
        for i in 0..self.scratch.len() {
            if i == t || self.scratch[i] == 0 {
                continue;
            }
            let src = OpId::new(TxnId(i as u32), self.scratch[i] - 1);
            // F-arc: PushForward(src, T_t) → op; it is also the D-arc when
            // the unit end *is* the maximal dependency itself.
            let pf = self.spec.push_forward(src, op.txn);
            let mut kinds = ArcKinds::F;
            if pf.index == src.index {
                kinds |= ArcKinds::D;
            }
            let from = self.gid(pf);
            self.add_arc(from, to, kinds);
            // B-arc: src → PullBackward(op, T_i); also the D-arc when the
            // unit of `op` starts at `op`.
            let pb = self.spec.pull_backward(op, src.txn);
            let mut kinds = ArcKinds::B;
            if pb.index == op.index {
                kinds |= ArcKinds::D;
            }
            let (from, to_b) = (self.gid(src), self.gid(pb));
            self.add_arc(from, to_b, kinds);
        }

        // Fold the operation itself in and refresh the summaries.
        self.scratch[t] = self.scratch[t].max(op.index + 1);
        if operation.is_write() {
            self.write_clock[x].copy_from_slice(&self.scratch);
            self.read_clock[x].fill(0);
        } else {
            join(&mut self.read_clock[x], &self.scratch);
        }
        self.txn_clock[t].copy_from_slice(&self.scratch);
        self.last_seen[t] = Some(op.index);
        self.observed += 1;
        Ok(())
    }

    /// Number of operations observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Builds the clock skeleton (static I-chains + collected cross arcs)
    /// and decides Theorem 1's criterion over the observed history.
    pub fn seal(self) -> Verdict {
        let mut g: DiGraph<OpId, ArcKinds> =
            DiGraph::with_capacity(self.total_static, self.total_static + self.arcs.len());
        for t in self.txns.txns() {
            for j in 0..t.len() as u32 {
                g.add_node(OpId::new(t.id(), j));
            }
        }
        for t in self.txns.txns() {
            let base = self.offsets[t.id().index()];
            for j in 1..t.len() as u32 {
                g.add_edge(NodeIdx(base + j - 1), NodeIdx(base + j), ArcKinds::I);
            }
        }
        // Deterministic edge order for reproducible witnesses.
        let mut sorted: Vec<((u32, u32), ArcKinds)> = self.arcs.into_iter().collect();
        sorted.sort_by_key(|&(k, _)| k);
        for ((a, b), kinds) in sorted {
            g.add_edge(NodeIdx(a), NodeIdx(b), kinds);
        }

        let stats = CertifierStats {
            ops: self.observed,
            width: self.txn_clock.len(),
            cross_arcs: g.edge_count() - (self.total_static - self.txns.len()),
            nodes: g.node_count(),
            edges: g.edge_count(),
        };
        match cycle::find_cycle(&g) {
            None => Verdict::RelativelySerializable(stats),
            Some(c) => {
                let ops: Vec<OpId> = c.iter().map(|&v| *g.node_weight(v)).collect();
                let kinds: Vec<ArcKinds> = (0..c.len())
                    .map(|k| {
                        let e = g
                            .find_edge(c[k], c[(k + 1) % c.len()])
                            .expect("witness hops are skeleton edges");
                        *g.edge_weight(e)
                    })
                    .collect();
                Verdict::Violation {
                    witness: CycleWitness { ops, kinds },
                    stats,
                }
            }
        }
    }
}

/// Certifies a complete schedule in one linear pass — the drop-in
/// replacement for `Rsg::build(..).is_acyclic()`.
pub fn certify(txns: &TxnSet, schedule: &Schedule, spec: &AtomicitySpec) -> Verdict {
    let mut c = VClockCertifier::new(txns, spec);
    for &op in schedule.ops() {
        c.observe(op)
            .expect("a validated Schedule satisfies program order");
    }
    c.seal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{AdmitError, IncrementalRsg};
    use crate::paper::{Figure1, Figure2, Figure3, Figure4};
    use crate::rsg::Rsg;

    /// Witness hops must be genuine RSG arcs with the reported kinds and
    /// close a cycle.
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

    /// Certify and cross-check the verdict against the offline oracle.
    fn agree(txns: &TxnSet, s: &Schedule, spec: &AtomicitySpec) -> bool {
        let oracle = Rsg::build(txns, s, spec).is_acyclic();
        let verdict = certify(txns, s, spec);
        assert_eq!(
            verdict.is_acyclic(),
            oracle,
            "vclock disagrees with Rsg on {}",
            s.display(txns)
        );
        if let Some(w) = verdict.witness() {
            assert_witness_replays(txns, s, spec, w);
        }
        oracle
    }

    #[test]
    fn figure1_schedules_match_the_paper() {
        let fig = Figure1::new();
        assert!(agree(&fig.txns, &fig.s_ra(), &fig.spec));
        assert!(agree(&fig.txns, &fig.s_rs(), &fig.spec));
        assert!(agree(&fig.txns, &fig.s_2(), &fig.spec));
    }

    #[test]
    fn figure1_non_serializable_schedule_rejected_with_replayable_witness() {
        // The B-arc ablation witness from rsg.rs: not relatively
        // serializable under the full Definition 3.
        let fig = Figure1::new();
        let s = fig
            .txns
            .parse_schedule("r2[y] w2[y] w3[x] r1[x] w1[x] w1[z] r2[x] w3[y] r1[y] w3[z]")
            .unwrap();
        assert!(!agree(&fig.txns, &s, &fig.spec));
    }

    #[test]
    fn figure2_transitive_dependency_is_carried_by_the_clocks() {
        // r1[z] depends on w2[y] only through T3, so the clocks must
        // carry the transitive closure, not just direct conflicts. S_1
        // is not relatively *serial*, yet its RSG is acyclic — both
        // backends accept, and they must accept for the same reason.
        let fig = Figure2::new();
        assert!(agree(&fig.txns, &fig.s_1(), &fig.spec));
    }

    #[test]
    fn figure3_and_figure4_verdicts_match_oracle() {
        let fig3 = Figure3::new();
        assert!(agree(&fig3.txns, &fig3.s_2(), &fig3.spec));
        let fig4 = Figure4::new();
        assert!(agree(&fig4.txns, &fig4.s(), &fig4.spec));
    }

    #[test]
    fn absolute_spec_reduces_to_conflict_serializability() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let bad = txns.parse_schedule("r1[x] r2[x] w1[x] w2[x]").unwrap();
        assert!(!agree(&txns, &bad, &spec));
        let good = txns.parse_schedule("r1[x] w1[x] r2[x] w2[x]").unwrap();
        assert!(agree(&txns, &good, &spec));
    }

    #[test]
    fn free_spec_accepts_everything() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::free(&txns);
        let s = txns.parse_schedule("r1[x] r2[x] w1[x] w2[x]").unwrap();
        assert!(agree(&txns, &s, &spec));
    }

    /// Exhaustive agreement with the offline oracle over every interleaving
    /// of a universe, under several specs.
    fn exhaustive_agreement(specs: &[AtomicitySpec], txns: &TxnSet) {
        fn rec(
            txns: &TxnSet,
            specs: &[AtomicitySpec],
            next: &mut Vec<u32>,
            prefix: &mut Vec<OpId>,
            count: &mut usize,
        ) {
            if prefix.len() == txns.total_ops() {
                let s = Schedule::new(txns, prefix.clone()).unwrap();
                for spec in specs {
                    agree(txns, &s, spec);
                }
                *count += 1;
                return;
            }
            for t in txns.txn_ids() {
                if next[t.index()] < txns.txn(t).len() as u32 {
                    let op = OpId::new(t, next[t.index()]);
                    next[t.index()] += 1;
                    prefix.push(op);
                    rec(txns, specs, next, prefix, count);
                    prefix.pop();
                    next[t.index()] -= 1;
                }
            }
        }
        let mut next = vec![0u32; txns.len()];
        let mut count = 0;
        rec(txns, specs, &mut next, &mut Vec::new(), &mut count);
        assert!(count > 1, "enumeration must cover multiple interleavings");
    }

    #[test]
    fn exhaustive_small_universe_all_specs() {
        let txns = TxnSet::parse(&["r1[x] w1[x] w1[y]", "w2[y] r2[x]", "w3[x]"]).unwrap();
        let mut split = AtomicitySpec::absolute(&txns);
        split
            .set_units_str(&txns, 0, 1, "r1[x] w1[x] | w1[y]")
            .unwrap();
        split.set_units_str(&txns, 1, 0, "w2[y] | r2[x]").unwrap();
        split
            .set_units_str(&txns, 0, 2, "r1[x] | w1[x] w1[y]")
            .unwrap();
        let specs = [
            AtomicitySpec::absolute(&txns),
            AtomicitySpec::free(&txns),
            split,
        ];
        exhaustive_agreement(&specs, &txns);
    }

    #[test]
    fn exhaustive_figure2_universe() {
        let fig = Figure2::new();
        exhaustive_agreement(std::slice::from_ref(&fig.spec), &fig.txns);
    }

    /// Streaming prefixes agree with the incremental engine: after any
    /// admissible feed (including rejections), certifier and engine return
    /// the same accept/reject answer for the next operation.
    #[test]
    fn prefix_verdicts_match_incremental_engine() {
        let fig = Figure1::new();
        let feeds = [
            "r2[y] w2[y] w3[x] r1[x] w1[x] w1[z] r2[x] w3[y] r1[y] w3[z]",
            "r1[x] r2[y] w2[y] w1[x] w3[x] r2[x] w1[z] w3[y] r1[y] w3[z]",
            "w3[x] w3[y] r2[y] w2[y] r1[x] w1[x] r2[x] w3[z] w1[z] r1[y]",
        ];
        for feed in feeds {
            let s = fig.txns.parse_schedule(feed).unwrap();
            let mut engine = IncrementalRsg::new(&fig.txns, &fig.spec);
            let mut admitted: Vec<OpId> = Vec::new();
            for &op in s.ops() {
                let engine_ok = match engine.try_admit(op) {
                    Ok(_) => true,
                    Err(AdmitError::Cycle(_)) => false,
                    Err(AdmitError::Retired(_)) => unreachable!("nothing retires here"),
                };
                // Replay the same feed (prefix + op) through a fresh
                // certifier.
                let mut c = VClockCertifier::new(&fig.txns, &fig.spec);
                for &p in &admitted {
                    c.observe(p).unwrap();
                }
                c.observe(op).unwrap();
                assert_eq!(
                    c.seal().is_acyclic(),
                    engine_ok,
                    "prefix {admitted:?} + {op:?} in {feed}"
                );
                if engine_ok {
                    admitted.push(op);
                }
            }
        }
    }

    /// Gap feeds (a shard's projection of the history) agree with the
    /// engine's gap admission.
    #[test]
    fn gap_feeds_match_incremental_engine() {
        let fig = Figure1::new();
        let s = fig.s_ra();
        // Keep only operations on x and z — T1 sees indices 0,1,2 (gap
        // before r1[y] is fine, it is simply never observed), T2 sees only
        // index 2 (gap at the start), T3 sees 0 and 2 (internal gap).
        let keep: Vec<OpId> = s
            .ops()
            .iter()
            .copied()
            .filter(|&op| {
                let obj = fig.txns.op(op).unwrap().object;
                let name = fig.txns.objects().name(obj);
                name == "x" || name == "z"
            })
            .collect();
        let mut engine = IncrementalRsg::new(&fig.txns, &fig.spec);
        let mut c = VClockCertifier::new(&fig.txns, &fig.spec);
        for &op in &keep {
            engine.try_admit(op).expect("S_ra projection is admissible");
            c.observe(op).unwrap();
        }
        assert!(c.seal().is_acyclic());

        // Out-of-order within a transaction is rejected even across gaps.
        let mut c = VClockCertifier::new(&fig.txns, &fig.spec);
        c.observe(OpId::new(TxnId(0), 2)).unwrap();
        let err = c.observe(OpId::new(TxnId(0), 0)).unwrap_err();
        assert!(matches!(err, Error::ProgramOrderViolated { .. }));
        // Re-observing the same operation is also a program-order error.
        let mut c = VClockCertifier::new(&fig.txns, &fig.spec);
        c.observe(OpId::new(TxnId(0), 0)).unwrap();
        assert!(c.observe(OpId::new(TxnId(0), 0)).is_err());
    }

    #[test]
    fn unknown_operations_are_rejected() {
        let txns = TxnSet::parse(&["r1[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut c = VClockCertifier::new(&txns, &spec);
        assert!(c.observe(OpId::new(TxnId(5), 0)).is_err());
        assert!(c.observe(OpId::new(TxnId(0), 9)).is_err());
        assert_eq!(c.observed(), 0);
    }

    #[test]
    fn stats_are_linear_in_history_length() {
        // cross_arcs ≤ 2 · ops · (width - 1): the linearity invariant the
        // bench suite measures in wall-clock terms.
        let fig = Figure1::new();
        let s = fig.s_ra();
        let verdict = certify(&fig.txns, &s, &fig.spec);
        let stats = verdict.stats();
        assert_eq!(stats.ops, 10);
        assert_eq!(stats.width, 3);
        assert_eq!(stats.nodes, 10);
        assert!(stats.cross_arcs <= 2 * stats.ops * (stats.width - 1));
        assert_eq!(stats.edges, stats.cross_arcs + 7);
    }

    #[test]
    fn witness_renders_in_paper_notation() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let bad = txns.parse_schedule("r1[x] r2[x] w1[x] w2[x]").unwrap();
        let verdict = certify(&txns, &bad, &spec);
        let rendered = verdict.witness().unwrap().render(&txns);
        assert!(rendered.contains("-["), "{rendered}");
        assert!(rendered.contains("]->"), "{rendered}");
        assert!(rendered.starts_with('r') || rendered.starts_with('w'));
    }

    #[test]
    fn empty_history_is_accepted() {
        let fig = Figure1::new();
        let c = VClockCertifier::new(&fig.txns, &fig.spec);
        let verdict = c.seal();
        assert!(verdict.is_acyclic());
        assert_eq!(verdict.stats().ops, 0);
    }
}
