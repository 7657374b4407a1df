//! **RSG-SGT** — the scheduler the paper proposes in §3: *"The relative
//! serialization graph … can be used as the basis for a concurrency
//! control protocol similar to serialization graph testing."*
//!
//! ## Architecture: incremental maintenance
//!
//! [`RsgSgt`] is a thin [`Scheduler`] adapter over
//! [`relser_core::incremental::IncrementalRsg`], which maintains the
//! relative serialization graph of the executed prefix *incrementally*:
//!
//! * Nodes for **all** operations and the I-arc skeleton are installed up
//!   front from the static transaction programs, so push-forward /
//!   pull-backward targets exist before they execute — exactly the graph
//!   the offline Theorem 1 checker builds.
//! * Granting one operation appends exactly the new D/F/B arcs it induces
//!   (an [`relser_core::incremental::RsgDelta`]), derived from per-source
//!   depends-on bitsets. Appending an operation never changes the
//!   dependencies of already-granted operations, so arc insertion is
//!   monotone and nothing is ever recomputed — the per-request cost is
//!   proportional to the operation's dependency set plus one bounded
//!   cycle search, not O(P²) like a rebuild.
//! * The delta is applied as one **atomic batch**
//!   ([`relser_digraph::IncrementalDag::try_add_batch`]): a request is
//!   granted iff the batch keeps the graph acyclic; a rejected batch
//!   leaves graph and engine bit-for-bit unchanged.
//!
//! ## Rollback discipline
//!
//! Rejection means **abort**, never blocking: RSG arcs only disappear by
//! aborting their transaction, so a cycle can never resolve by waiting —
//! the classic SGT abort discipline. Every grant's batch journal is kept;
//! an abort undoes journals newest-first down to the aborted
//! transaction's first grant, then replays the surviving suffix (replay
//! cannot fail — it re-creates a subgraph of the previously acyclic
//! graph). Committed transactions are *retired* once no arc from a live
//! transaction points into them; retired nodes are masked out of every
//! cycle search, so long-finished transactions stop costing anything.
//!
//! Because every granted prefix has an acyclic RSG, the final committed
//! history's RSG is acyclic, i.e. **every history this scheduler produces
//! is relatively serializable** (the property tests verify this against
//! the offline checkers).
//!
//! ## The rebuild oracle
//!
//! [`RsgSgtOracle`] (feature `oracle`, enabled by default) retains the
//! original formulation — rebuild the RSG of `prefix + requested op` from
//! scratch per request — whose correctness argument is one sentence long.
//! The equivalence property test in `tests/protocol_safety.rs` drives
//! both through identical randomized request sequences (including aborts
//! and restarts) and asserts byte-identical decisions; ablation A3 and
//! the `incremental` bench measure the speedup.

use crate::{AbortReason, Decision, Scheduler};
use relser_core::ids::{OpId, TxnId};
use relser_core::incremental::{AdmitError, CompactionPolicy, IncrementalRsg};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

/// The paper's RSG-based serialization-graph-testing scheduler, on the
/// incremental maintenance engine (see the module docs).
pub struct RsgSgt {
    engine: IncrementalRsg,
}

impl RsgSgt {
    /// Creates a scheduler over a fixed transaction set and specification,
    /// with the engine's default [`CompactionPolicy`].
    ///
    /// Construction is O(operations), not O(n²) in the transaction count:
    /// the scheduler shares `spec`'s breakpoint matrix rather than copying
    /// it, so building one per shard, restart or recovery is cheap.
    pub fn new(txns: &TxnSet, spec: &AtomicitySpec) -> Self {
        RsgSgt {
            engine: IncrementalRsg::new(txns, spec),
        }
    }

    /// Creates a scheduler with an explicit arena [`CompactionPolicy`].
    pub fn with_policy(txns: &TxnSet, spec: &AtomicitySpec, policy: CompactionPolicy) -> Self {
        RsgSgt {
            engine: IncrementalRsg::with_policy(txns, spec, policy),
        }
    }

    /// The granted prefix (for inspection / tests).
    pub fn admitted(&self) -> &[OpId] {
        self.engine.admitted()
    }

    /// The underlying incremental engine (for inspection / experiments).
    pub fn engine(&self) -> &IncrementalRsg {
        &self.engine
    }

    /// Forces an arena compaction now, regardless of policy (tests use
    /// this to interleave compactions at arbitrary points).
    pub fn force_compact(&mut self) {
        self.engine.force_compact();
    }
}

impl Scheduler for RsgSgt {
    fn name(&self) -> &'static str {
        "RSG-SGT"
    }

    fn begin(&mut self, _txn: TxnId) {}

    fn request(&mut self, op: OpId) -> Decision {
        match self.engine.try_admit(op) {
            Ok(_) => Decision::Granted,
            Err(AdmitError::Cycle(_)) => Decision::Aborted(AbortReason::CycleRejected),
            Err(AdmitError::Retired(_)) => Decision::Aborted(AbortReason::Retired),
        }
    }

    fn commit(&mut self, txn: TxnId) {
        self.engine.commit(txn);
    }

    fn abort(&mut self, txn: TxnId) {
        self.engine.abort(txn);
    }

    fn retired(&self, txn: TxnId) -> bool {
        self.engine.is_retired(txn)
    }
}

/// The original full-rebuild formulation, kept as a differential oracle:
/// per request it recomputes the depends-on closure of the whole prefix
/// and rebuilds the RSG from scratch — O(P²), obviously correct, and the
/// reference the incremental [`RsgSgt`] is tested against.
///
/// The rebuild itself runs on reusable scratch: per-position closure
/// [`BitSet`](relser_digraph::bitset::BitSet) rows instead of `HashSet`s, a packed sorted edge list
/// instead of a hash-set edge collection, and a CSR Kahn topological
/// check instead of a per-call graph rebuild. The *decisions* are
/// identical — only the constants changed.
#[cfg(feature = "oracle")]
pub struct RsgSgtOracle {
    txns: TxnSet,
    spec: AtomicitySpec,
    /// Granted operations of live or committed incarnations, grant order.
    admitted: Vec<OpId>,
    /// Global node index base per transaction.
    offset: Vec<u32>,
    total_ops: u32,
    /// The static I-arc skeleton as packed `(from << 32) | to` keys,
    /// computed once.
    static_edges: Vec<u64>,
    scratch: OracleScratch,
}

/// Reusable rebuild buffers; everything is cleared and refilled per
/// request, so after warm-up a decision allocates nothing.
#[cfg(feature = "oracle")]
#[derive(Default)]
struct OracleScratch {
    /// The prefix with each op resolved, by position.
    resolved: Vec<(OpId, relser_core::op::Operation)>,
    /// `closure[i]` = positions transitively depended on *by* position
    /// `i`'s successors — the depends-on closure row, capacity
    /// `total_ops` bits each.
    closure: Vec<relser_digraph::bitset::BitSet>,
    /// RSG edges as packed `(from << 32) | to` keys; sorted + deduped,
    /// then reused in place as the CSR adjacency.
    edges: Vec<u64>,
    /// Kahn in-degrees per global node.
    indeg: Vec<u32>,
    /// Already-processed (later) positions per transaction — the
    /// reverse closure pass visits each candidate dependency pair via
    /// these buckets instead of scanning all O(p²) pairs.
    by_txn: Vec<Vec<u32>>,
    /// Already-processed (later) positions per object, same role.
    by_object: Vec<Vec<u32>>,
    /// CSR row starts into `edges`, length `total_ops + 1`.
    row_start: Vec<u32>,
    /// Kahn worklist.
    ready: Vec<u32>,
}

#[cfg(feature = "oracle")]
impl RsgSgtOracle {
    /// Creates a scheduler over a fixed transaction set and specification.
    pub fn new(txns: &TxnSet, spec: &AtomicitySpec) -> Self {
        let mut offset = Vec::with_capacity(txns.len());
        let mut acc = 0u32;
        for t in txns.txns() {
            offset.push(acc);
            acc += t.len() as u32;
        }
        let mut static_edges = Vec::new();
        for t in txns.txns() {
            let base = offset[t.id().index()];
            for j in 0..t.len() as u32 - 1 {
                static_edges.push((u64::from(base + j) << 32) | u64::from(base + j + 1));
            }
        }
        RsgSgtOracle {
            txns: txns.clone(),
            spec: spec.clone(),
            admitted: Vec::new(),
            offset,
            total_ops: acc,
            static_edges,
            scratch: OracleScratch::default(),
        }
    }

    /// Is the RSG of the current `admitted` prefix (as an executed
    /// prefix, with full program structure) acyclic?
    ///
    /// Same graph as the original formulation — depends-on closure of the
    /// prefix, then I/D/F/B arcs over all operations — computed on the
    /// reusable scratch and checked with Kahn's algorithm.
    fn prefix_rsg_acyclic(&mut self) -> bool {
        use relser_digraph::bitset::BitSet;

        let seq = &self.admitted;
        let p = seq.len();
        let s = &mut self.scratch;
        s.resolved.clear();
        for &o in seq {
            s.resolved.push((o, self.txns.op(o).expect("known op")));
        }

        // Depends-on closure by position, in one reverse pass: direct
        // dependencies (same txn or conflict, earlier → later) point
        // forward, so closure[i] = ⋃ {j} ∪ closure[j] over direct
        // successors j — each row a word-level bitset union.
        //
        // Candidate successors are found through per-transaction and
        // per-object buckets of the positions already processed (all
        // j > i, since the pass runs in reverse): a direct dependency
        // is same-txn (the txn bucket, exactly) or a conflict (the
        // object bucket, filtered by at-least-one-write). The same
        // dependency set as the all-pairs scan — a position in both
        // buckets is just unioned twice, which is idempotent — without
        // the O(p²) visits to non-matching pairs; the quadratic cost
        // that remains is the word-level row unions themselves.
        let cap = self.total_ops as usize;
        while s.closure.len() < p {
            s.closure.push(BitSet::with_capacity(cap));
        }
        s.by_txn.resize(self.txns.len(), Vec::new());
        s.by_object.resize(self.txns.objects().len(), Vec::new());
        for b in s.by_txn.iter_mut() {
            b.clear();
        }
        for b in s.by_object.iter_mut() {
            b.clear();
        }
        for i in (0..p).rev() {
            let (lo, hi) = s.closure.split_at_mut(i + 1);
            let row = &mut lo[i];
            row.clear();
            let (a_id, a) = s.resolved[i];
            for &j in &s.by_txn[a_id.txn.index()] {
                row.union_with(&hi[j as usize - i - 1]);
                row.insert(j as usize);
            }
            for &j in &s.by_object[a.object.index()] {
                let (_, b) = s.resolved[j as usize];
                if a.is_write() || b.is_write() {
                    row.union_with(&hi[j as usize - i - 1]);
                    row.insert(j as usize);
                }
            }
            s.by_txn[a_id.txn.index()].push(i as u32);
            s.by_object[a.object.index()].push(i as u32);
        }

        // The graph over ALL operations: static I-arcs plus D/F/B arcs
        // from the prefix dependencies, deduped by sort.
        s.edges.clear();
        s.edges.extend_from_slice(&self.static_edges);
        for i in 0..p {
            let (src, _) = s.resolved[i];
            let src_n = self.offset[src.txn.index()] + src.index;
            for j in s.closure[i].iter() {
                let (dst, _) = s.resolved[j];
                if src.txn == dst.txn {
                    continue;
                }
                let dst_n = self.offset[dst.txn.index()] + dst.index;
                s.edges.push((u64::from(src_n) << 32) | u64::from(dst_n));
                let pf = self.spec.push_forward(src, dst.txn);
                let pf_n = self.offset[pf.txn.index()] + pf.index;
                s.edges.push((u64::from(pf_n) << 32) | u64::from(dst_n));
                let pb = self.spec.pull_backward(dst, src.txn);
                let pb_n = self.offset[pb.txn.index()] + pb.index;
                s.edges.push((u64::from(src_n) << 32) | u64::from(pb_n));
            }
        }
        s.edges.sort_unstable();
        s.edges.dedup();

        // Kahn's algorithm over the CSR view of the sorted edge list.
        // Self-loops (possible when a push-forward image coincides with
        // the target) leave their node permanently in-degree > 0, exactly
        // as the old DiGraph-based check treated them: cyclic.
        let n = cap;
        s.indeg.clear();
        s.indeg.resize(n, 0);
        s.row_start.clear();
        s.row_start.resize(n + 1, 0);
        for &e in s.edges.iter() {
            s.row_start[(e >> 32) as usize + 1] += 1;
            s.indeg[e as u32 as usize] += 1;
        }
        for v in 0..n {
            s.row_start[v + 1] += s.row_start[v];
        }
        s.ready.clear();
        for v in 0..n {
            if s.indeg[v] == 0 {
                s.ready.push(v as u32);
            }
        }
        let mut ordered = 0usize;
        while let Some(v) = s.ready.pop() {
            ordered += 1;
            let (start, end) = (
                s.row_start[v as usize] as usize,
                s.row_start[v as usize + 1] as usize,
            );
            for &e in &s.edges[start..end] {
                let to = e as u32 as usize;
                s.indeg[to] -= 1;
                if s.indeg[to] == 0 {
                    s.ready.push(to as u32);
                }
            }
        }
        ordered == n
    }

    /// The granted prefix (for inspection / tests).
    pub fn admitted(&self) -> &[OpId] {
        &self.admitted
    }
}

#[cfg(feature = "oracle")]
impl Scheduler for RsgSgtOracle {
    fn name(&self) -> &'static str {
        "RSG-SGT-rebuild"
    }

    fn begin(&mut self, _txn: TxnId) {}

    fn request(&mut self, op: OpId) -> Decision {
        self.admitted.push(op);
        if self.prefix_rsg_acyclic() {
            Decision::Granted
        } else {
            self.admitted.pop();
            Decision::Aborted(AbortReason::CycleRejected)
        }
    }

    fn commit(&mut self, _txn: TxnId) {}

    fn abort(&mut self, txn: TxnId) {
        self.admitted.retain(|o| o.txn != txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relser_core::paper::Figure1;

    fn op(t: u32, j: u32) -> OpId {
        OpId::new(TxnId(t), j)
    }

    /// Feed a full schedule through the scheduler; return granted count
    /// before first rejection (or total if all granted).
    fn feed<S: Scheduler>(s: &mut S, n_txns: usize, schedule: &[OpId]) -> usize {
        for t in 0..n_txns as u32 {
            s.begin(TxnId(t));
        }
        for (i, &o) in schedule.iter().enumerate() {
            match s.request(o) {
                Decision::Granted => {}
                _ => return i,
            }
        }
        schedule.len()
    }

    #[test]
    fn admits_the_papers_relatively_atomic_schedule() {
        let fig = Figure1::new();
        let mut s = RsgSgt::new(&fig.txns, &fig.spec);
        let sra = fig.s_ra();
        assert_eq!(
            feed(&mut s, fig.txns.len(), sra.ops()),
            sra.len(),
            "S_ra fully admitted"
        );
    }

    #[test]
    fn admits_relatively_serializable_but_non_serial_interleavings() {
        let fig = Figure1::new();
        let mut s = RsgSgt::new(&fig.txns, &fig.spec);
        let s2 = fig.s_2();
        assert_eq!(
            feed(&mut s, fig.txns.len(), s2.ops()),
            s2.len(),
            "S_2 fully admitted"
        );
    }

    #[test]
    fn rejects_non_relatively_serializable_interleavings() {
        // Lost update under absolute atomicity.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut s = RsgSgt::new(&txns, &spec);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        assert_eq!(s.request(op(0, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(0, 1)), Decision::Granted);
        assert_eq!(
            s.request(op(1, 1)),
            Decision::Aborted(AbortReason::CycleRejected)
        );
    }

    #[test]
    fn abort_rolls_back_admitted_prefix() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut s = RsgSgt::new(&txns, &spec);
        s.begin(TxnId(0));
        s.begin(TxnId(1));
        s.request(op(0, 0));
        s.request(op(1, 0));
        s.request(op(0, 1));
        assert!(matches!(s.request(op(1, 1)), Decision::Aborted(_)));
        s.abort(TxnId(1));
        assert_eq!(s.admitted().len(), 2);
        s.commit(TxnId(0));
        // Restart of T2 succeeds.
        s.begin(TxnId(1));
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 1)), Decision::Granted);
    }

    #[test]
    fn looser_specs_admit_what_absolute_rejects() {
        // Same interleaving; free spec admits, absolute rejects.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let order = [op(0, 0), op(1, 0), op(0, 1), op(1, 1)];
        let mut tight = RsgSgt::new(&txns, &AtomicitySpec::absolute(&txns));
        assert_eq!(feed(&mut tight, txns.len(), &order), 3);
        let mut loose = RsgSgt::new(&txns, &AtomicitySpec::free(&txns));
        assert_eq!(feed(&mut loose, txns.len(), &order), 4);
    }

    #[test]
    fn commit_retires_finished_transactions() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut s = RsgSgt::new(&txns, &spec);
        s.begin(TxnId(0));
        assert_eq!(s.request(op(0, 0)), Decision::Granted);
        assert_eq!(s.request(op(0, 1)), Decision::Granted);
        s.commit(TxnId(0));
        assert!(s.engine().is_retired(TxnId(0)));
        // T2 still runs to completion against the retired history.
        s.begin(TxnId(1));
        assert_eq!(s.request(op(1, 0)), Decision::Granted);
        assert_eq!(s.request(op(1, 1)), Decision::Granted);
        s.commit(TxnId(1));
        assert_eq!(s.engine().retired_count(), 2);
    }

    /// The incremental and rebuild formulations make identical decisions
    /// on identical request sequences, including across aborts/restarts.
    #[cfg(feature = "oracle")]
    #[test]
    fn incremental_matches_rebuild_on_random_feeds() {
        let fig = Figure1::new();
        for seed in 0..30u64 {
            let mut rebuild = RsgSgtOracle::new(&fig.txns, &fig.spec);
            let mut inc = RsgSgt::new(&fig.txns, &fig.spec);
            // Deterministic pseudo-random feed with restart handling.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let n = fig.txns.len();
            let mut cursor = vec![0u32; n];
            let mut done = vec![false; n];
            for t in 0..n as u32 {
                rebuild.begin(TxnId(t));
                inc.begin(TxnId(t));
            }
            let mut steps = 0;
            while done.iter().any(|d| !d) && steps < 500 {
                steps += 1;
                let mut t = (next() as usize) % n;
                while done[t] {
                    t = (t + 1) % n;
                }
                let op = OpId::new(TxnId(t as u32), cursor[t]);
                let a = rebuild.request(op);
                let b = inc.request(op);
                assert_eq!(a, b, "divergence at {op:?} (seed {seed})");
                match a {
                    Decision::Granted => {
                        cursor[t] += 1;
                        if cursor[t] as usize == fig.txns.txn(TxnId(t as u32)).len() {
                            rebuild.commit(TxnId(t as u32));
                            inc.commit(TxnId(t as u32));
                            done[t] = true;
                        }
                    }
                    Decision::Aborted(_) => {
                        rebuild.abort(TxnId(t as u32));
                        inc.abort(TxnId(t as u32));
                        cursor[t] = 0;
                        rebuild.begin(TxnId(t as u32));
                        inc.begin(TxnId(t as u32));
                    }
                    Decision::Blocked { .. } => unreachable!("RSG-SGT never blocks"),
                }
                assert_eq!(rebuild.admitted(), inc.admitted());
            }
            assert!(done.iter().all(|d| *d), "feed completed (seed {seed})");
        }
    }

    #[test]
    fn granted_prefix_always_has_acyclic_rsg() {
        // After any sequence of grants, the offline RSG of the admitted
        // prefix extended to a full schedule (when complete) is acyclic.
        let fig = Figure1::new();
        let mut s = RsgSgt::new(&fig.txns, &fig.spec);
        let full = fig.s_2();
        assert_eq!(feed(&mut s, fig.txns.len(), full.ops()), full.len());
        let final_schedule =
            relser_core::schedule::Schedule::new(&fig.txns, s.admitted().to_vec()).unwrap();
        assert!(relser_core::rsg::Rsg::build(&fig.txns, &final_schedule, &fig.spec).is_acyclic());
    }
}
