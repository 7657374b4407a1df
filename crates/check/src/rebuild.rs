//! The full-rebuild RSG-SGT: a differential oracle for the incremental
//! engine, kept in test and dev code.
//!
//! [`RsgSgtOracle`] retains the original formulation of the paper's §3
//! scheduler — rebuild the RSG of `prefix + requested op` from scratch per
//! request — whose correctness argument is one sentence long. No
//! deployment runs it: the service admits through
//! [`RsgSgt`](relser_protocols::rsg_sgt::RsgSgt) and re-certifies at
//! recovery with `relser_core::vclock`. It exists to be compared against:
//! the lockstep suite `tests/incremental_equivalence.rs` and the
//! explorer's `shadow` mode drive both through identical request
//! sequences, aborts and restarts included, and assert identical
//! decisions; ablation A3 and the `incremental` bench measure the
//! speedup.

use relser_core::ids::{OpId, TxnId};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_protocols::{AbortReason, Decision, Scheduler};

/// The original full-rebuild formulation, kept as a differential oracle:
/// per request it recomputes the depends-on closure of the whole prefix
/// and rebuilds the RSG from scratch — O(P²), obviously correct, and the
/// reference the incremental
/// [`RsgSgt`](relser_protocols::rsg_sgt::RsgSgt) is tested against.
///
/// The rebuild itself runs on reusable scratch: per-position closure
/// [`BitSet`](relser_digraph::bitset::BitSet) rows instead of `HashSet`s, a packed sorted edge list
/// instead of a hash-set edge collection, and a CSR Kahn topological
/// check instead of a per-call graph rebuild. The *decisions* are
/// identical — only the constants changed.
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
