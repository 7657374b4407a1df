//! Incremental RSG maintenance — the engine behind the online RSG-SGT
//! scheduler.
//!
//! The offline builder ([`crate::rsg::Rsg`]) recomputes the depends-on
//! closure and every arc family from scratch; doing that per scheduler
//! request costs O(P²) in the executed prefix length P. This module
//! maintains a graph with the same cycles *incrementally*: admitting one
//! operation produces the few new arcs it induces (an [`RsgDelta`]) from
//! the operation's depends-on set, with no recomputation of the closure.
//!
//! ## Why the skeleton suffices
//!
//! Theorem 1 asks only whether the RSG is acyclic, so the engine keeps the
//! vector-clock certifier's *clock skeleton* ([`crate::vclock`]) rather
//! than the whole Definition 3 family: the static I-chains plus, per
//! admitted operation and per other transaction whose maximal dependency
//! moved past the program-order predecessor's, one F-arc and one B-arc.
//! Why that loses no cycle is argued once, in that module's "Why one
//! linear pass suffices" and "Only a moved maximum needs arcs": skeleton ⊆
//! RSG ⊆ closure(skeleton), so the skeleton is acyclic iff the RSG is, and
//! a cycle found in it is an RSG cycle hop by hop. One function,
//! `vclock::skeleton_pair`, writes the pair for both.
//!
//! The depends-on relation (§2) is the transitive closure of program
//! order and conflicts, both of which point from earlier to later
//! schedule positions. Appending an operation `o` therefore never
//! changes the ancestor set of an already-admitted operation:
//!
//! ```text
//! ancestors(o) = ⋃ { ancestors(p) ∪ {p} : p direct predecessor of o }
//! ```
//!
//! where the direct predecessors are `o`'s program-order predecessor and
//! every earlier admitted conflicting access to `o`'s object. The engine
//! stores `ancestors` as one [`BitSet`] per admitted operation (indexed
//! by *global operation id*), so the union is a word-parallel O(P/64)
//! sweep. Global ids are contiguous per transaction, so the walk over the
//! union meets each ancestor transaction as one ascending run whose last
//! member is `o`'s maximal dependency on it. That maximum moved iff the
//! predecessor's row lacks it; a first operation has no predecessor, so
//! every maximum of it moved. A delta is two arcs per moved maximum (one
//! where they coincide), not three per ancestor operation.
//!
//! Nodes for **all** operations (and the I-arc skeleton) are installed up
//! front from the static transaction programs — push-forward/pull-backward
//! targets must exist as nodes before they execute, exactly as in the
//! offline graph.
//!
//! ## Rollback and retirement
//!
//! All engine state is append-only per admission, so each admission is
//! journalled: the graph arcs via [`relser_digraph::BatchUndo`] and the
//! ancestor/access tables by position. An abort undoes journals
//! newest-first down to the aborted transaction's first admission and
//! replays the surviving suffix. Replay need not re-create old arcs: once
//! the aborted operations leave a survivor's ancestors, its maximum on
//! some transaction may drop, and the pair of the lower maximum is new.
//! It still cannot close a cycle. Every replayed arc is an RSG arc of the
//! surviving prefix; that RSG is a subgraph of the old prefix's (fewer
//! operations, fewer depends-on pairs), which lies in the closure of the
//! old, acyclic skeleton. So replay is trusted to skip the cycle search.
//!
//! Committed transactions are *retired* once every arc into them
//! originates from retired nodes (or their own): retired nodes are masked
//! out of cycle searches, so long-finished transactions stop costing
//! anything. Retirement is sound because an admission only ever targets
//! the requester's own nodes — a committed transaction never gains new
//! incoming arcs — so no future cycle can enter the retired region.
//!
//! The skeleton pins exactly what the full RSG pins. `pinned` asks for a
//! *direct* in-arc from another unretired transaction `T_i`. In the RSG,
//! `t` has one iff some operation of `t` depends on an operation of
//! `T_i`. In the skeleton too: the first operation of `t` that depends on
//! `T_i` follows a predecessor that does not, so its maximum on `T_i`
//! moved, and its B-arc runs from `T_i` into `t`. Every skeleton arc into
//! `t` comes from such an ancestor transaction, so retirement, and with
//! it every later decision, is the one the full family would give.
//!
//! The retirement sweep works on what changed, not on all n
//! transactions. A committed transaction's in-arcs are the arcs its own
//! admissions added, so it can only become retirable when it commits,
//! when the source of one of its in-arcs retires, or when an abort
//! rebuilds its admissions without the aborted transaction's. Those are
//! exactly the transactions queued on a reusable worklist: `commit(t)`
//! queues `t`, retiring `t` queues the committed owners of `t`'s
//! successor nodes, and an abort queues the committed survivors it
//! replayed. The retirement rule is monotone in the retired set, so
//! popping candidates until the list is empty reaches the same fixpoint
//! as rescanning every transaction until nothing changes.
//!
//! A retired-prefix *floor* bounds the scans over grant history: every
//! admission below it belongs to a retired transaction, and it advances
//! after each sweep. An aborted or retiring transaction was live, so its
//! admissions lie at or above the floor; the abort's search for the
//! rollback point, retirement's journal blanking and compaction's journal
//! remap all start there. Abort replay re-enters a retired survivor's
//! operations with blank journals without recomputing their (empty)
//! deltas.
//!
//! ## Reclamation and compaction
//!
//! Masking alone leaves memory O(total history): retired nodes keep their
//! arcs, journals, ancestor bitsets and access-list entries. Retirement
//! therefore *prunes* — the retired transaction's journals are blanked,
//! its ancestor sets dropped, and its access-list entries removed. This
//! is decision-neutral: a retired transaction's ancestors are themselves
//! retired (every in-arc comes from a retired node, by the retirement
//! rule), so any arc a pruned entry could have contributed would have had
//! a retired endpoint and been masked from every cycle search anyway.
//! When the retired fraction of the arena crosses the
//! [`CompactionPolicy`] threshold, the arena itself is rebuilt
//! ([`IncrementalDag::compact`]) with an old→new index remap, dropping
//! retired nodes and their arcs and translating the outstanding live
//! journals — so arena size tracks the live window, not total history.

use crate::ids::{OpId, TxnId};
use crate::rsg::ArcKinds;
use crate::spec::AtomicitySpec;
use crate::txn::TxnSet;
use crate::vclock::skeleton_pair;
use relser_digraph::bitset::BitSet;
use relser_digraph::incremental::ArcRejection;
use relser_digraph::{BatchUndo, IncrementalDag, NodeIdx};

/// The clock-skeleton arcs one admitted operation adds (module docs).
///
/// I-arcs are static (installed with the node skeleton at construction),
/// so a delta carries only the F/B pairs of the operation's moved
/// maxima, each also labelled D where it is the direct dependency arc.
/// Every arc is an RSG arc of the admitted prefix. Arcs are merged per
/// ordered endpoint pair and sorted for determinism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsgDelta {
    /// The operation whose admission induces these arcs.
    pub op: OpId,
    /// New or label-widened arcs, `(from, to, kinds)`, deterministic order.
    pub arcs: Vec<(OpId, OpId, ArcKinds)>,
    /// Depends-on ancestors of `op` (global operation ids).
    ancestors: BitSet,
}

impl RsgDelta {
    /// Number of operations `op` depends on.
    pub fn depends_on_count(&self) -> usize {
        self.ancestors.len()
    }
}

/// Allocation-free summary of a successful admission.
///
/// [`IncrementalRsg::try_admit`] returns this `Copy` digest instead of the
/// full [`RsgDelta`] so the steady grant path materializes nothing; callers
/// that need the arc list (tests, explainers) call
/// [`IncrementalRsg::propose`] *before* admitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmitSummary {
    /// The admitted operation.
    pub op: OpId,
    /// Number of skeleton arcs the admission handed to the graph (after
    /// per-pair merging).
    pub arcs: usize,
    /// Number of operations `op` depends on.
    pub depends_on: usize,
}

/// Why an admission was refused: one of the delta's arcs would have
/// closed a cycle (Theorem 1 violated by the extended prefix). Every hop
/// of `cycle` and the closing `arc` are RSG arcs of the extended prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// The refused operation.
    pub op: OpId,
    /// The offending arc `(from, to, kinds)` from the delta.
    pub arc: (OpId, OpId, ArcKinds),
    /// Pre-existing path `to ~> from` (inclusive) the arc would close.
    pub cycle: Vec<OpId>,
}

/// Why [`IncrementalRsg::try_admit`] refused an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Admission would close a cycle in the RSG.
    Cycle(Rejection),
    /// The operation belongs to an already-retired (committed and swept)
    /// transaction — a late-arriving request after the transaction's
    /// information was reclaimed. The engine is unchanged; the caller
    /// should fail that request, not the scheduler.
    Retired(TxnId),
    /// The operation's program-order predecessor is not admitted (engine unchanged).
    ProgramOrder(OpId),
}

/// When [`IncrementalRsg`] rebuilds its arena to drop retired state.
///
/// Compaction runs after a retirement sweep once **both** bounds hold:
/// at least `min_retired_ops` operation nodes are retired, and they make
/// up more than `retired_fraction_pct` percent of the arena. The first
/// bound stops tiny universes from compacting constantly; the second
/// keeps the amortized cost O(1) per retired node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Minimum retired operation nodes before compaction is considered.
    pub min_retired_ops: usize,
    /// Retired percentage of the arena (0–100) that triggers compaction.
    pub retired_fraction_pct: u8,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_retired_ops: 256,
            retired_fraction_pct: 50,
        }
    }
}

impl CompactionPolicy {
    /// Never compact automatically (callers may still
    /// [`IncrementalRsg::force_compact`]).
    pub fn never() -> Self {
        CompactionPolicy {
            min_retired_ops: usize::MAX,
            retired_fraction_pct: 100,
        }
    }

    /// Compact as soon as anything at all is retired — used by tests to
    /// exercise the remap machinery on every sweep.
    pub fn aggressive() -> Self {
        CompactionPolicy {
            min_retired_ops: 1,
            retired_fraction_pct: 0,
        }
    }
}

/// Incrementally maintained relative serialization graph over the full
/// (static) operation set, supporting admission, rollback, and
/// retirement. See the module docs for the invariants.
#[derive(Clone, Debug)]
pub struct IncrementalRsg {
    txns: TxnSet,
    spec: AtomicitySpec,
    /// Global node index base per transaction.
    offset: Vec<u32>,
    /// Owning transaction per global operation id.
    owner: Vec<TxnId>,
    total: u32,
    dag: IncrementalDag<ArcKinds>,
    /// Arena node per global operation id; `None` once the operation's
    /// transaction retired and a compaction dropped the node.
    nodes: Vec<Option<NodeIdx>>,
    /// Global operation id per arena node (the inverse of `nodes`),
    /// rebuilt at each compaction.
    node_global: Vec<u32>,
    /// Granted operations in grant order.
    admitted: Vec<OpId>,
    /// One graph journal per admission, parallel to `admitted`. Journals
    /// of retired transactions are blanked (their arcs are masked, so
    /// undoing them is decision-neutral either way).
    journals: Vec<BatchUndo<ArcKinds>>,
    /// `ancestors[g]` = depends-on set of admitted operation `g`;
    /// dropped back to `None` (row recycled) when the owner retires.
    ancestors: Vec<Option<BitSet>>,
    /// Admitted accesses per object id: (global id, is_write), grant
    /// order. Rows are grown lazily to the highest object id actually
    /// touched (an untouched row is an empty `Vec`, no heap behind it),
    /// so a sparse workload over a huge object space pays for the objects
    /// it touches rather than `O(objects)` setup per engine — while the
    /// hot path keeps plain `O(1)` slice indexing instead of hashing.
    /// Entries of retired transactions are pruned; emptied rows keep
    /// their capacity.
    accesses: Vec<Vec<(u32, bool)>>,
    committed: Vec<bool>,
    retired: Vec<bool>,
    /// Retirement candidates of the running sweep: committed, unretired
    /// transactions whose in-arcs may have lost their last live source.
    /// Drained by every sweep and reused, so it never reallocates in
    /// steady state.
    worklist: Vec<u32>,
    /// `queued[t]` ⟺ `t` is on `worklist` (no duplicate candidates).
    queued: Vec<bool>,
    /// Retired-prefix floor: every admission below `admitted[floor]`
    /// belongs to a retired transaction, so scans for a live
    /// transaction's admissions start here.
    floor: usize,
    /// Running count of retired transactions (O(1) `retired_count`).
    retired_txns: usize,
    /// Running count of retired operation nodes still in the arena.
    retired_ops: usize,
    policy: CompactionPolicy,
    compactions: u64,
    /// Reusable per-admission working memory; see [`Scratch`].
    scratch: Scratch,
    /// Recycled ancestor rows (uniform capacity `total`): rows released by
    /// rollback and retirement are reused by later admissions, so the
    /// steady path never allocates a closure bitset.
    row_pool: Vec<BitSet>,
    /// Recycled admission journals, same discipline as `row_pool`.
    journal_pool: Vec<BatchUndo<ArcKinds>>,
}

/// Reusable buffers for the admit/rollback hot path. Every admission
/// clears and refills these in place; after warm-up their capacities
/// stabilize and the steady path performs zero heap allocations.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Depends-on closure of the operation being proposed.
    ancestors: BitSet,
    /// The delta being built: `((from << 32) | to, kinds)`, ascending
    /// and key-coalesced.
    merged: Vec<(u64, ArcKinds)>,
    /// Node-index batch handed to the dag.
    batch: Vec<(NodeIdx, NodeIdx, ArcKinds)>,
    /// Abort replay suffix.
    suffix: Vec<OpId>,
}

impl IncrementalRsg {
    /// Creates the engine with the default [`CompactionPolicy`]; nodes and
    /// the I-arc skeleton are installed up front from the transaction
    /// programs.
    ///
    /// Construction is O(operations), not O(n²) in the transaction count:
    /// the engine shares `spec`'s breakpoint matrix (an O(1)
    /// [`AtomicitySpec`] clone) instead of copying it.
    pub fn new(txns: &TxnSet, spec: &AtomicitySpec) -> Self {
        Self::with_policy(txns, spec, CompactionPolicy::default())
    }

    /// Creates the engine with an explicit [`CompactionPolicy`]; same cost
    /// as [`IncrementalRsg::new`].
    pub fn with_policy(txns: &TxnSet, spec: &AtomicitySpec, policy: CompactionPolicy) -> Self {
        let mut offset = Vec::with_capacity(txns.len());
        let mut owner = Vec::with_capacity(txns.total_ops());
        let mut acc = 0u32;
        for t in txns.txns() {
            offset.push(acc);
            acc += t.len() as u32;
            owner.extend(std::iter::repeat_n(t.id(), t.len()));
        }
        let mut dag: IncrementalDag<ArcKinds> = IncrementalDag::new();
        let nodes: Vec<Option<NodeIdx>> = (0..acc).map(|_| Some(dag.add_node())).collect();
        for t in txns.txns() {
            let base = offset[t.id().index()];
            for j in 1..t.len() as u32 {
                let r = dag.try_add_labeled_edge(
                    nodes[(base + j - 1) as usize].unwrap(),
                    nodes[(base + j) as usize].unwrap(),
                    ArcKinds::I,
                );
                debug_assert!(matches!(r, relser_digraph::AddEdge::Added));
            }
        }
        IncrementalRsg {
            txns: txns.clone(),
            spec: spec.clone(),
            offset,
            owner,
            total: acc,
            dag,
            nodes,
            node_global: (0..acc).collect(),
            admitted: Vec::new(),
            journals: Vec::new(),
            ancestors: vec![None; acc as usize],
            accesses: Vec::new(),
            committed: vec![false; txns.len()],
            retired: vec![false; txns.len()],
            worklist: Vec::new(),
            queued: vec![false; txns.len()],
            floor: 0,
            retired_txns: 0,
            retired_ops: 0,
            policy,
            compactions: 0,
            scratch: Scratch {
                ancestors: BitSet::with_capacity(acc as usize),
                ..Scratch::default()
            },
            row_pool: Vec::new(),
            journal_pool: Vec::new(),
        }
    }

    /// Total operations (= graph nodes), admitted or not.
    pub fn total_ops(&self) -> u32 {
        self.total
    }

    /// The granted prefix, in grant order.
    pub fn admitted(&self) -> &[OpId] {
        &self.admitted
    }

    /// Has `txn` been committed (via [`IncrementalRsg::commit`])?
    pub fn is_committed(&self, txn: TxnId) -> bool {
        self.committed[txn.index()]
    }

    /// Has `txn` been retired (masked out of cycle searches)?
    pub fn is_retired(&self, txn: TxnId) -> bool {
        self.retired[txn.index()]
    }

    /// Number of retired transactions. O(1) — a running counter.
    pub fn retired_count(&self) -> usize {
        self.retired_txns
    }

    /// Number of merged arcs currently in the graph (including the static
    /// I-skeleton and any not-yet-compacted arcs of retired transactions).
    pub fn arc_count(&self) -> usize {
        self.dag.graph().edge_count()
    }

    /// Nodes currently in the arena (live plus retired-but-uncompacted).
    /// After a soak this is bounded by the live window, not total history.
    pub fn dag_node_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Number of arena compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    #[inline]
    fn global(&self, op: OpId) -> u32 {
        self.offset[op.txn.index()] + op.index
    }

    #[inline]
    fn op_of(&self, g: u32) -> OpId {
        let t = self.owner[g as usize];
        OpId::new(t, g - self.offset[t.index()])
    }

    /// Computes the delta `op`'s admission would apply, without applying
    /// it. Arcs whose endpoints lie in retired transactions are omitted:
    /// retired nodes are invisible to cycle searches, so such arcs are
    /// decision-neutral (they can only occur when replaying a committed
    /// transaction's own operations after an unrelated abort, or when an
    /// ancestor has retired).
    pub fn propose(&self, op: OpId) -> RsgDelta {
        let mut ancestors = BitSet::with_capacity(self.total as usize);
        let mut merged = Vec::new();
        self.propose_into(op, &mut ancestors, &mut merged);
        RsgDelta {
            op,
            arcs: merged
                .iter()
                .map(|&(key, k)| (self.op_of((key >> 32) as u32), self.op_of(key as u32), k))
                .collect(),
            ancestors,
        }
    }

    /// [`IncrementalRsg::propose`] into caller-owned buffers — the
    /// allocation-free core the admit path runs on. `ancestors` must have
    /// capacity `total`; both buffers are cleared and refilled. `merged`
    /// ends sorted by packed `(from << 32) | to` key with per-pair kinds
    /// coalesced — the same deterministic arc order `propose` publishes.
    fn propose_into(&self, op: OpId, ancestors: &mut BitSet, merged: &mut Vec<(u64, ArcKinds)>) {
        let g = self.global(op);
        let operation = self.txns.op(op).expect("operation belongs to the set");

        // Direct predecessors: program order + earlier conflicting
        // accesses; ancestors = union of their closures plus themselves.
        // Operations are admitted in program order (`try_admit` refuses
        // one whose predecessor is not admitted), so the program-order
        // predecessor is `g - 1`.
        ancestors.clear();
        let base = self.offset[op.txn.index()];
        let mut prev_row = None;
        if g > base {
            prev_row = self.ancestors[g as usize - 1].as_ref();
            if let Some(prev_anc) = prev_row {
                ancestors.union_with(prev_anc);
            }
            ancestors.insert(g as usize - 1);
        }
        if let Some(accesses) = self.accesses.get(operation.object.index()) {
            for &(u, was_write) in accesses {
                if was_write || operation.is_write() {
                    if let Some(u_anc) = &self.ancestors[u as usize] {
                        ancestors.union_with(u_anc);
                    }
                    ancestors.insert(u as usize);
                }
            }
        }

        // The skeleton pair of each moved maximum: a run's last member is
        // the maximum, and it moved iff the predecessor's row lacks it.
        // Runs ascend by transaction and each pair is B-then-F in key
        // order, so `merged` comes out sorted; the only equal keys are a
        // pair that coincides, merged in place.
        //
        // Arcs with a retired endpoint are omitted: every pair has one
        // endpoint in `op.txn` and the other in the run's transaction, so
        // a retired proposer emits nothing (the abort-replay case), and a
        // retired ancestor transaction's run is skipped.
        merged.clear();
        if self.retired[op.txn.index()] {
            return;
        }
        let mut walk = ancestors.iter().peekable();
        while let Some(u) = walk.next() {
            let ut = self.owner[u];
            if walk.peek().is_some_and(|&v| self.owner[v] == ut)
                || ut == op.txn
                || self.retired[ut.index()]
                || prev_row.is_some_and(|row| row.contains(u))
            {
                continue;
            }
            for (from, to, kinds) in skeleton_pair(&self.spec, self.op_of(u as u32), op) {
                let key = (u64::from(self.global(from)) << 32) | u64::from(self.global(to));
                match merged.last_mut() {
                    Some(last) if last.0 == key => last.1 |= kinds,
                    _ => merged.push((key, kinds)),
                }
            }
        }
    }

    /// Attempts to admit `op`: applies its delta atomically. On success a
    /// `Copy` [`AdmitSummary`] is returned and the admission is
    /// journalled; on failure graph and engine state are **unchanged**
    /// and the error names the offending arc and cycle, the retired
    /// transaction of a late request, or an out-of-order operation.
    ///
    /// The steady grant path is allocation-free: the delta is computed in
    /// reusable scratch, the ancestor row comes from a recycled pool, and
    /// the journal reuses a released journal's buffer.
    pub fn try_admit(&mut self, op: OpId) -> Result<AdmitSummary, AdmitError> {
        if self.retired[op.txn.index()] {
            return Err(AdmitError::Retired(op.txn));
        }
        if op.index > 0 && self.ancestors[self.global(op) as usize - 1].is_none() {
            return Err(AdmitError::ProgramOrder(op));
        }
        self.admit_inner(op, false)
    }

    /// Admission without the retired-transaction gate: abort-replay uses
    /// this to re-admit a retired survivor's own operations (their deltas
    /// are empty, so replay stays exact). `trusted` marks a replay of
    /// arcs that are a subset of a previously acyclic graph, letting the
    /// dag skip the cycle sweep (debug builds still verify it).
    fn admit_inner(&mut self, op: OpId, trusted: bool) -> Result<AdmitSummary, AdmitError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let res = self.admit_with(op, &mut scratch, trusted);
        self.scratch = scratch;
        res
    }

    fn admit_with(
        &mut self,
        op: OpId,
        s: &mut Scratch,
        trusted: bool,
    ) -> Result<AdmitSummary, AdmitError> {
        self.propose_into(op, &mut s.ancestors, &mut s.merged);
        s.batch.clear();
        for &(key, k) in s.merged.iter() {
            let (a, b) = ((key >> 32) as usize, key as u32 as usize);
            s.batch.push((
                self.nodes[a].expect("delta endpoints belong to uncompacted transactions"),
                self.nodes[b].expect("delta endpoints belong to uncompacted transactions"),
                k,
            ));
        }
        let mut undo = self.journal_pool.pop().unwrap_or_default();
        let applied = if trusted {
            self.dag.add_batch_trusted_into(&s.batch, &mut undo)
        } else {
            self.dag.try_add_batch_into(&s.batch, &mut undo)
        };
        match applied {
            Ok(()) => {
                if !self.retired[op.txn.index()] {
                    let g = self.global(op);
                    let operation = self.txns.op(op).expect("operation belongs to the set");
                    let mut row = self
                        .row_pool
                        .pop()
                        .unwrap_or_else(|| BitSet::with_capacity(self.total as usize));
                    row.copy_from(&s.ancestors);
                    self.ancestors[g as usize] = Some(row);
                    let obj = operation.object.index();
                    if obj >= self.accesses.len() {
                        self.accesses.resize_with(obj + 1, Vec::new);
                    }
                    self.accesses[obj].push((g, operation.is_write()));
                }
                self.admitted.push(op);
                self.journals.push(undo);
                Ok(AdmitSummary {
                    op,
                    arcs: s.merged.len(),
                    depends_on: s.ancestors.len(),
                })
            }
            Err(rej) => {
                self.journal_pool.push(undo); // rolled back: empty, reusable
                let (key, k) = s.merged[rej.arc];
                let arc = (self.op_of((key >> 32) as u32), self.op_of(key as u32), k);
                match rej.cause {
                    ArcRejection::WouldCycle(path) => {
                        let cycle = path
                            .iter()
                            .map(|v| self.op_of(self.node_global[v.index()]))
                            .collect::<Vec<OpId>>();
                        Err(AdmitError::Cycle(Rejection { op, arc, cycle }))
                    }
                    // `propose` filters arcs whose endpoints lie in retired
                    // transactions, so the dag can only see a retired endpoint
                    // if the owner retired between propose and apply — which
                    // cannot happen single-threaded. Surface it typed anyway.
                    ArcRejection::RetiredEndpoint(v) => Err(AdmitError::Retired(
                        self.owner[self.node_global[v.index()] as usize],
                    )),
                }
            }
        }
    }

    /// Undoes the newest admission (graph arcs and tables). For retired
    /// operations the tables were already pruned at retirement, so only
    /// the (blanked) journal is popped.
    fn pop_admission(&mut self) {
        let op = self.admitted.pop().expect("admission to pop");
        let mut undo = self.journals.pop().expect("journal parallel to admitted");
        self.dag.undo_batch_into(&mut undo);
        self.journal_pool.push(undo);
        if self.retired[op.txn.index()] {
            return;
        }
        let g = self.global(op);
        if let Some(row) = self.ancestors[g as usize].take() {
            self.row_pool.push(row);
        }
        let operation = self.txns.op(op).expect("operation belongs to the set");
        let popped = self.accesses[operation.object.index()].pop();
        debug_assert_eq!(popped, Some((g, operation.is_write())));
    }

    /// Aborts `txn`: rolls the engine back to `txn`'s first admission and
    /// replays the surviving operations in their original grant order.
    /// Replay cannot fail — the replayed graph is a subgraph of the
    /// previously acyclic graph.
    pub fn abort(&mut self, txn: TxnId) {
        // A live transaction's admissions all lie at or above the floor.
        let start = if self.retired[txn.index()] {
            0
        } else {
            self.floor
        };
        let Some(k) = self.admitted[start..].iter().position(|o| o.txn == txn) else {
            return; // nothing of txn was admitted
        };
        let k = start + k;
        self.floor = self.floor.min(k);
        let mut suffix = std::mem::take(&mut self.scratch.suffix);
        suffix.clear();
        suffix.extend_from_slice(&self.admitted[k..]);
        while self.admitted.len() > k {
            self.pop_admission();
        }
        self.enqueue(txn.index());
        for &op in &suffix {
            if op.txn == txn {
                continue;
            }
            if self.retired[op.txn.index()] {
                // Every D/F/B arc has an endpoint in the requester's
                // transaction, so a retired survivor's delta is empty:
                // it re-enters the prefix with a blank journal.
                let blank = self.journal_pool.pop().unwrap_or_default();
                self.admitted.push(op);
                self.journals.push(blank);
                continue;
            }
            self.admit_inner(op, true)
                .expect("replaying a subgraph of an acyclic graph cannot cycle");
            // Its in-arcs were rebuilt without the aborted transaction.
            self.enqueue(op.txn.index());
        }
        suffix.clear();
        self.scratch.suffix = suffix;
        self.sweep_retirement();
    }

    /// Marks `txn` committed and retires every transaction whose
    /// information can no longer participate in a cycle.
    pub fn commit(&mut self, txn: TxnId) {
        self.committed[txn.index()] = true;
        self.enqueue(txn.index());
        self.sweep_retirement();
    }

    /// Queues `t` as a retirement candidate if it is committed, unretired
    /// and not queued already.
    fn enqueue(&mut self, t: usize) {
        if self.committed[t] && !self.retired[t] && !self.queued[t] {
            self.queued[t] = true;
            self.worklist.push(t as u32);
        }
    }

    /// Retires queued candidates whose every incoming arc originates from
    /// retired nodes or their own. Retiring one transaction may unblock
    /// the committed owners of its successors, which are queued in turn;
    /// the sweep ends at the same fixpoint a scan of all transactions
    /// would reach (see the module docs). Then advances the retired-prefix
    /// floor and compacts the arena if the policy says so.
    fn sweep_retirement(&mut self) {
        while let Some(t) = self.worklist.pop() {
            let t = t as usize;
            self.queued[t] = false;
            if self.retired[t] || self.pinned(t) {
                continue;
            }
            self.retire_txn(t);
            let base = self.offset[t];
            for g in base..base + self.txns.txns()[t].len() as u32 {
                let node = self.nodes[g as usize].expect("retired this sweep: uncompacted");
                for s in self.dag.graph().successors(node) {
                    let st = self.owner[self.node_global[s.index()] as usize].index();
                    if self.committed[st] && !self.retired[st] && !self.queued[st] {
                        self.queued[st] = true;
                        self.worklist.push(st as u32);
                    }
                }
            }
        }
        while self
            .admitted
            .get(self.floor)
            .is_some_and(|op| self.retired[op.txn.index()])
        {
            self.floor += 1;
        }
        self.maybe_compact();
    }

    /// Does an arc from another unretired transaction point into `t`?
    fn pinned(&self, t: usize) -> bool {
        let base = self.offset[t];
        (base..base + self.txns.txns()[t].len() as u32).any(|g| {
            let node = self.nodes[g as usize].expect("unretired txn is uncompacted");
            self.dag.graph().predecessors(node).any(|p| {
                let src = self.owner[self.node_global[p.index()] as usize].index();
                src != t && !self.retired[src]
            })
        })
    }

    /// Masks `t`'s nodes and reclaims its per-operation state; see the
    /// module docs for why the pruning is decision-neutral.
    fn retire_txn(&mut self, t: usize) {
        let base = self.offset[t];
        let len = self.txns.txns()[t].len() as u32;
        for g in base..base + len {
            self.dag
                .retire_node(self.nodes[g as usize].expect("retiring an uncompacted txn"));
            if let Some(row) = self.ancestors[g as usize].take() {
                self.row_pool.push(row);
            }
        }
        for op in self.txns.txns()[t].ops() {
            if let Some(accesses) = self.accesses.get_mut(op.object.index()) {
                accesses.retain(|&(u, _)| !(base..base + len).contains(&u));
            }
        }
        // `t` was live until now, so its admissions lie at or above the floor.
        for i in self.floor..self.admitted.len() {
            if self.admitted[i].txn.index() == t {
                self.journals[i].clear();
            }
        }
        self.retired[t] = true;
        self.retired_txns += 1;
        self.retired_ops += len as usize;
    }

    /// Compacts when the policy's thresholds are met.
    fn maybe_compact(&mut self) {
        let arena = self.dag.node_count();
        if arena == 0 || self.retired_ops < self.policy.min_retired_ops {
            return;
        }
        if self.retired_ops * 100 > self.policy.retired_fraction_pct as usize * arena {
            self.force_compact();
        }
    }

    /// Rebuilds the arena dropping retired nodes and their arcs,
    /// remapping the node tables and outstanding journals. Decisions are
    /// bit-for-bit unchanged: retired nodes were already masked from
    /// every cycle search, so the compacted arena answers every
    /// reachability query identically.
    pub fn force_compact(&mut self) {
        let map = self.dag.compact();
        for slot in self.nodes.iter_mut() {
            *slot = slot.and_then(|n| map.node(n));
        }
        let mut node_global = vec![0u32; self.dag.node_count()];
        for (g, slot) in self.nodes.iter().enumerate() {
            if let Some(n) = slot {
                node_global[n.index()] = g as u32;
            }
        }
        self.node_global = node_global;
        // Journals below the floor belong to retired transactions and
        // were blanked at retirement: nothing in them to translate.
        for j in self.journals[self.floor..].iter_mut() {
            let old = std::mem::take(j);
            *j = map.remap_undo(old);
        }
        self.retired_ops = 0;
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsg::Rsg;
    use crate::schedule::Schedule;

    fn op(t: u32, j: u32) -> OpId {
        OpId::new(TxnId(t), j)
    }

    #[test]
    fn rejects_lost_update_and_reports_cycle() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        engine.try_admit(op(0, 0)).unwrap();
        engine.try_admit(op(1, 0)).unwrap();
        engine.try_admit(op(0, 1)).unwrap();
        let rej = match engine.try_admit(op(1, 1)) {
            Err(AdmitError::Cycle(r)) => r,
            other => panic!("expected cycle rejection, got {other:?}"),
        };
        assert_eq!(rej.op, op(1, 1));
        // w2[x]'s maximum on T1 is w1[x]; its B-arc w1[x] -> r2[x] closes
        // r2[x] -B-> r1[x] -I-> w1[x], an RSG cycle hop by hop.
        assert_eq!(rej.arc, (op(0, 1), op(1, 0), ArcKinds::B));
        assert_eq!(rej.cycle, vec![op(1, 0), op(0, 0), op(0, 1)]);
        // Rejection leaves the engine unchanged.
        assert_eq!(engine.admitted().len(), 3);
    }

    #[test]
    fn abort_restores_the_surviving_prefix_exactly() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]", "r3[y] w3[x]"]).unwrap();
        let spec = AtomicitySpec::free(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        for o in [op(0, 0), op(1, 0), op(2, 0), op(0, 1), op(1, 1)] {
            engine.try_admit(o).unwrap();
        }
        engine.abort(TxnId(1));

        // Reference: a fresh engine fed only the survivors.
        let mut fresh = IncrementalRsg::new(&txns, &spec);
        for o in [op(0, 0), op(2, 0), op(0, 1)] {
            fresh.try_admit(o).unwrap();
        }
        assert_eq!(engine.admitted(), fresh.admitted());
        assert_eq!(engine.arc_count(), fresh.arc_count());
        let edges = |e: &IncrementalRsg| -> Vec<(u32, u32)> {
            let mut v: Vec<(u32, u32)> = e
                .dag
                .graph()
                .edge_refs()
                .map(|r| (r.from.0, r.to.0))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(edges(&engine), edges(&fresh));
    }

    #[test]
    fn abort_of_unadmitted_txn_is_a_noop() {
        let txns = TxnSet::parse(&["r1[x]", "r2[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        engine.try_admit(op(0, 0)).unwrap();
        engine.abort(TxnId(1));
        assert_eq!(engine.admitted(), &[op(0, 0)]);
    }

    #[test]
    fn commit_retires_transactions_and_keeps_decisions_sound() {
        // T1 runs alone and commits: retirable immediately. T2 and T3 then
        // conflict with T1's history; their arcs from T1 are masked but the
        // schedule they produce must still be relatively serializable.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]", "w3[x]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        engine.try_admit(op(0, 0)).unwrap();
        engine.try_admit(op(0, 1)).unwrap();
        engine.commit(TxnId(0));
        assert!(engine.is_retired(TxnId(0)), "no outside arcs point at T1");

        engine.try_admit(op(1, 0)).unwrap();
        engine.try_admit(op(1, 1)).unwrap();
        engine.commit(TxnId(1));
        engine.try_admit(op(2, 0)).unwrap();
        engine.commit(TxnId(2));
        assert_eq!(engine.retired_count(), 3);

        let s = Schedule::new(&txns, engine.admitted().to_vec()).unwrap();
        assert!(Rsg::build(&txns, &s, &spec).is_acyclic());
    }

    #[test]
    fn retirement_blocked_by_live_in_arc_until_source_retires() {
        // Interleave so T2 depends on T1 *and* T1 on T2's first op:
        // r2[x] r1[x] w1[x] ... under free spec both admit; T1 commits
        // first but has an in-arc from the still-live T2.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[y]"]).unwrap();
        let spec = AtomicitySpec::free(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        engine.try_admit(op(1, 0)).unwrap();
        engine.try_admit(op(0, 0)).unwrap();
        engine.try_admit(op(0, 1)).unwrap();
        engine.commit(TxnId(0));
        assert!(
            !engine.is_retired(TxnId(0)),
            "live T2's r2[x] -> w1[x] D-arc pins T1"
        );
        engine.try_admit(op(1, 1)).unwrap();
        engine.commit(TxnId(1));
        assert!(engine.is_retired(TxnId(0)), "fixpoint retires both");
        assert!(engine.is_retired(TxnId(1)));
    }

    #[test]
    fn retirement_chain_unwinds_in_one_sweep() {
        // T3 depends on S's w2[b] and S on R's r1[a]: T is pinned by S,
        // S by the live R. Committing R retires R, which queues S, whose
        // retirement queues T — all three in R's commit.
        let txns = TxnSet::parse(&["r1[a] w1[c]", "w2[a] w2[b]", "w3[b]"]).unwrap();
        let spec = AtomicitySpec::free(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        for o in [op(0, 0), op(1, 0), op(1, 1), op(2, 0)] {
            engine.try_admit(o).unwrap();
        }
        engine.commit(TxnId(2));
        engine.commit(TxnId(1));
        assert_eq!(engine.retired_count(), 0, "T pinned by S, S by live R");
        engine.try_admit(op(0, 1)).unwrap();
        engine.commit(TxnId(0));
        assert_eq!(engine.retired_count(), 3, "one sweep retires the chain");
        assert_eq!(engine.floor, engine.admitted().len());
    }

    #[test]
    fn abort_unpins_committed_survivors() {
        // S commits pinned by the live R's r1[a]; aborting R removes the
        // arc, so S retires in the abort's sweep.
        let txns = TxnSet::parse(&["r1[a] w1[c]", "w2[a]"]).unwrap();
        let spec = AtomicitySpec::free(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        engine.try_admit(op(0, 0)).unwrap();
        engine.try_admit(op(1, 0)).unwrap();
        engine.commit(TxnId(1));
        assert!(!engine.is_retired(TxnId(1)));
        engine.abort(TxnId(0));
        assert!(engine.is_retired(TxnId(1)));
        assert_eq!(engine.admitted(), &[op(1, 0)]);
        assert_eq!(engine.floor, 1);
    }

    #[test]
    fn replay_after_abort_handles_retired_survivors() {
        // T1 commits and retires; T2 aborts afterwards; the replay must
        // re-admit T1's (retired) operations without panicking.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[x]"]).unwrap();
        let spec = AtomicitySpec::free(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        engine.try_admit(op(1, 0)).unwrap();
        engine.try_admit(op(0, 0)).unwrap();
        engine.try_admit(op(0, 1)).unwrap();
        engine.commit(TxnId(0));
        engine.abort(TxnId(1));
        assert_eq!(engine.admitted(), &[op(0, 0), op(0, 1)]);
        // T2 restarts and completes.
        engine.try_admit(op(1, 0)).unwrap();
        engine.try_admit(op(1, 1)).unwrap();
        engine.commit(TxnId(1));
        assert_eq!(engine.retired_count(), 2);
    }

    #[test]
    fn late_request_for_retired_txn_is_a_typed_error() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[y]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        engine.try_admit(op(0, 0)).unwrap();
        engine.commit(TxnId(0));
        assert!(engine.is_retired(TxnId(0)));
        // A straggler request for the retired T1 must not panic and must
        // not disturb the engine.
        let before = engine.admitted().len();
        assert_eq!(
            engine.try_admit(op(0, 1)),
            Err(AdmitError::Retired(TxnId(0)))
        );
        assert_eq!(engine.admitted().len(), before);
        // Live transactions are unaffected.
        engine.try_admit(op(1, 0)).unwrap();
    }

    #[test]
    fn an_operation_before_its_predecessor_is_a_typed_error() {
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[y]"]).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut engine = IncrementalRsg::new(&txns, &spec);
        let refused = engine.try_admit(op(0, 1));
        assert_eq!(refused, Err(AdmitError::ProgramOrder(op(0, 1))));
        assert!(engine.admitted().is_empty());
        engine.try_admit(op(0, 0)).unwrap();
        engine.try_admit(op(0, 1)).unwrap();
        assert_eq!(engine.admitted(), &[op(0, 0), op(0, 1)]);
    }

    #[test]
    fn compaction_shrinks_arena_and_preserves_decisions() {
        // Sequential committed transactions retire immediately; under the
        // aggressive policy every sweep compacts. A lockstep engine that
        // never compacts must make identical decisions throughout.
        let programs = ["r1[x] w1[x]", "r2[x] w2[x]", "r3[x] w3[x]", "r4[x] w4[x]"];
        let txns = TxnSet::parse(&programs).unwrap();
        let spec = AtomicitySpec::absolute(&txns);
        let mut compacting =
            IncrementalRsg::with_policy(&txns, &spec, CompactionPolicy::aggressive());
        let mut plain = IncrementalRsg::with_policy(&txns, &spec, CompactionPolicy::never());
        for t in 0..4u32 {
            for j in 0..2u32 {
                let a = compacting.try_admit(op(t, j));
                let b = plain.try_admit(op(t, j));
                assert_eq!(a.is_ok(), b.is_ok(), "op {t}:{j}");
            }
            compacting.commit(TxnId(t));
            plain.commit(TxnId(t));
            assert_eq!(compacting.admitted(), plain.admitted());
        }
        assert!(compacting.compactions() >= 2, "policy forced compactions");
        assert_eq!(compacting.retired_count(), 4);
        assert_eq!(
            compacting.dag_node_count(),
            0,
            "everything retired: arena fully reclaimed"
        );
        assert_eq!(plain.dag_node_count(), 8, "masking alone keeps all nodes");
    }

    #[test]
    fn abort_replay_is_exact_across_a_compaction() {
        // T1 commits, retires, and is compacted away; T2 and T3 interleave
        // and T2 aborts. The rollback walks journals that were written
        // before the compaction — they must have been remapped.
        let txns = TxnSet::parse(&["r1[x] w1[x]", "r2[x] w2[y]", "r3[y] w3[x]"]).unwrap();
        let spec = AtomicitySpec::free(&txns);
        let mut engine = IncrementalRsg::with_policy(&txns, &spec, CompactionPolicy::aggressive());
        engine.try_admit(op(0, 0)).unwrap();
        engine.try_admit(op(0, 1)).unwrap();
        engine.commit(TxnId(0));
        assert!(engine.compactions() >= 1, "T1 compacted away");
        engine.try_admit(op(1, 0)).unwrap();
        engine.try_admit(op(2, 0)).unwrap();
        engine.try_admit(op(1, 1)).unwrap();
        engine.try_admit(op(2, 1)).unwrap();
        engine.abort(TxnId(1));

        // Reference: fresh engine fed the survivors only.
        let mut fresh = IncrementalRsg::with_policy(&txns, &spec, CompactionPolicy::never());
        fresh.try_admit(op(0, 0)).unwrap();
        fresh.try_admit(op(0, 1)).unwrap();
        fresh.commit(TxnId(0));
        fresh.try_admit(op(2, 0)).unwrap();
        fresh.try_admit(op(2, 1)).unwrap();
        assert_eq!(engine.admitted(), fresh.admitted());
        // And both accept T2's restart identically.
        engine.try_admit(op(1, 0)).unwrap();
        fresh.try_admit(op(1, 0)).unwrap();
        engine.try_admit(op(1, 1)).unwrap();
        fresh.try_admit(op(1, 1)).unwrap();
        engine.commit(TxnId(1));
        engine.commit(TxnId(2));
        assert_eq!(engine.retired_count(), 3);
        assert_eq!(engine.dag_node_count(), 0);
    }
}
