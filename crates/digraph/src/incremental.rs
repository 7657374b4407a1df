//! Incrementally maintained acyclic directed graph.
//!
//! The paper closes §3 with: *"This graph can be used as the basis for a
//! concurrency control protocol similar to serialization graph testing."*
//! The SGT and RSG-SGT schedulers in `relser-protocols` do exactly that:
//! every granted operation adds arcs, and an arc may only be added if the
//! graph stays acyclic. [`IncrementalDag`] supports:
//!
//! * `try_add_edge` — insert an edge, *rejecting* it (leaving the graph
//!   unchanged) if it would create a cycle;
//! * **edge labels** — each edge carries an [`EdgeLabel`] (RSG-SGT stores
//!   the I/D/F/B arc-kind set); re-adding an existing edge merges labels
//!   instead of creating a parallel edge;
//! * `try_add_batch_into` — insert a group of labelled edges atomically:
//!   either all go in (journalled into a caller-owned [`BatchUndo`]) or
//!   none do. RSG-SGT uses one batch per granted operation, and replays
//!   journals backwards via [`IncrementalDag::undo_batch_into`] when a
//!   transaction aborts;
//! * `retire_node` — mask a node (a committed transaction whose
//!   information is no longer needed) so its edges stop participating in
//!   searches. A node keeps its index for the graph's whole life.
//!
//! The cycle check is a bounded DFS from the edge's head towards its tail,
//! restricted to live nodes — the standard "naive" incremental algorithm,
//! which is the right trade-off at scheduler scale (tens to thousands of
//! live nodes) and is what classic SGT implementations use \[Cas81\].

use crate::{DiGraph, NodeIdx};

/// A mergeable edge annotation.
///
/// [`IncrementalDag`] keeps at most one edge per ordered node pair; when
/// the same pair is added again the labels are merged (for RSG arc kinds
/// this is a bitwise union). `Default` is the "plain edge" label used by
/// the unlabelled [`IncrementalDag::try_add_edge`].
pub trait EdgeLabel: Clone + Default + PartialEq + std::fmt::Debug {
    /// Merges `other` into `self` (set union for arc-kind labels).
    fn merge(&mut self, other: &Self);
}

impl EdgeLabel for () {
    fn merge(&mut self, _other: &Self) {}
}

/// An acyclic directed graph that stays acyclic by construction.
#[derive(Clone, Debug, Default)]
pub struct IncrementalDag<L: EdgeLabel = ()> {
    g: DiGraph<(), L>,
    live: Vec<bool>,
    /// Epoch-stamped DFS scratch for the per-arc cycle check: `dfs_seen[v]
    /// == dfs_epoch` means "visited this search". Bumping the epoch resets
    /// the whole array in O(1), so the steady-state check allocates
    /// nothing (the vectors grow once to the arena size and stay).
    dfs_seen: Vec<u64>,
    dfs_epoch: u64,
    /// DFS predecessor per node, valid only where `dfs_seen` is current;
    /// used to reconstruct the witness path on the (cold) rejection path.
    dfs_parent: Vec<u32>,
    dfs_stack: Vec<u32>,
    /// Distinct batch-arc heads already swept this batch (scratch for
    /// [`IncrementalDag::try_add_batch_into`]).
    head_scratch: Vec<u32>,
}

/// Result of attempting to add an edge to an [`IncrementalDag`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddEdge {
    /// Edge inserted; acyclicity preserved.
    Added,
    /// Edge already present; graph unchanged apart from a label merge.
    Duplicate,
    /// Insertion would have closed a cycle; graph unchanged. Contains the
    /// pre-existing path `to ~> from` (inclusive of both endpoints) that the
    /// new edge would have closed into a cycle.
    WouldCycle(Vec<NodeIdx>),
    /// One endpoint is retired; graph unchanged. Retired nodes must not
    /// gain edges — the caller decides whether that is a protocol error
    /// (late-arriving operation) or a scheduler bug.
    RetiredEndpoint(NodeIdx),
}

/// Journal of one applied [`IncrementalDag::try_add_batch_into`], consumed
/// by [`IncrementalDag::undo_batch_into`] to reverse it exactly.
///
/// Journals from successive batches must be undone in reverse application
/// order (the newest batch first), as RSG-SGT does when rolling a
/// transaction abort back to its admission point.
#[derive(Clone, Debug, Default)]
pub struct BatchUndo<L> {
    ops: Vec<UndoOp<L>>,
}

impl<L> BatchUndo<L> {
    /// Did the batch change the graph at all?
    pub fn is_noop(&self) -> bool {
        self.ops.is_empty()
    }

    /// Blanks the journal in place, keeping its allocation for reuse.
    ///
    /// Used when the journalled changes are known to be decision-neutral
    /// (the owning transaction retired) and by the recycling pool feeding
    /// [`IncrementalDag::try_add_batch_into`].
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

#[derive(Clone, Debug)]
enum UndoOp<L> {
    /// The batch inserted a brand-new edge `from -> to`.
    Inserted(NodeIdx, NodeIdx),
    /// The batch merged into an existing edge; `L` is the prior label.
    Relabeled(NodeIdx, NodeIdx, L),
}

/// Why one arc of a batch (or single insert) was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArcRejection {
    /// The pre-existing live path `to ~> from` the arc would have closed
    /// into a cycle (inclusive of both endpoints).
    WouldCycle(Vec<NodeIdx>),
    /// The named endpoint is retired and must not gain edges.
    RetiredEndpoint(NodeIdx),
}

/// Rejection report of a failed [`IncrementalDag::try_add_batch_into`]:
/// the graph has been restored to its pre-batch state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRejected {
    /// Index (into the submitted arc slice) of the offending arc.
    pub arc: usize,
    /// Why that arc was refused.
    pub cause: ArcRejection,
}

impl<L: EdgeLabel> IncrementalDag<L> {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fresh live node.
    pub fn add_node(&mut self) -> NodeIdx {
        self.live.push(true);
        self.g.add_node(())
    }

    /// Is `v` still live?
    pub fn is_live(&self, v: NodeIdx) -> bool {
        self.live[v.index()]
    }

    /// Retires a node: it no longer participates in cycle checks and paths
    /// through it are ignored. Retiring an already-retired node is a no-op.
    ///
    /// Retirement corresponds to forgetting a committed transaction in SGT
    /// once no live transaction can form a cycle through it.
    pub fn retire_node(&mut self, v: NodeIdx) {
        self.live[v.index()] = false;
    }

    /// Does a *live-node* edge `from -> to` exist?
    pub fn has_edge(&self, from: NodeIdx, to: NodeIdx) -> bool {
        self.live[from.index()] && self.live[to.index()] && self.g.has_edge(from, to)
    }

    /// Attempts to insert `from -> to` with the default label, keeping the
    /// graph acyclic.
    ///
    /// A self-loop is always rejected as [`AddEdge::WouldCycle`]. Edges
    /// touching retired nodes are rejected as [`AddEdge::RetiredEndpoint`]:
    /// retired nodes must not gain edges, but a late-arriving operation
    /// for a just-retired transaction is a protocol-level condition, not a
    /// reason to unwind the scheduler.
    pub fn try_add_edge(&mut self, from: NodeIdx, to: NodeIdx) -> AddEdge {
        self.try_add_labeled_edge(from, to, L::default())
    }

    /// Attempts to insert `from -> to` carrying `label`, keeping the graph
    /// acyclic. If the edge already exists the labels are merged and
    /// [`AddEdge::Duplicate`] is returned; a retired endpoint yields
    /// [`AddEdge::RetiredEndpoint`] with the graph unchanged.
    pub fn try_add_labeled_edge(&mut self, from: NodeIdx, to: NodeIdx, label: L) -> AddEdge {
        let mut undo = BatchUndo { ops: Vec::new() };
        match self.apply_arc(from, to, &label, &mut undo) {
            Err(ArcRejection::WouldCycle(path)) => AddEdge::WouldCycle(path),
            Err(ArcRejection::RetiredEndpoint(v)) => AddEdge::RetiredEndpoint(v),
            Ok(()) => match undo.ops.first() {
                Some(UndoOp::Inserted(..)) => AddEdge::Added,
                _ => AddEdge::Duplicate,
            },
        }
    }

    /// Attempts to insert all of `arcs` as one atomic group, journalling
    /// into a caller-owned (typically recycled) `undo`, so the steady
    /// admission path performs no journal allocation.
    ///
    /// `undo` must be empty on entry. On success every arc is in the graph
    /// (new edges inserted, existing edges label-merged) and `undo` holds
    /// the journal that reverses exactly this batch. On failure the graph
    /// is **unchanged**, `undo` is left empty with its capacity intact, and
    /// the rejection identifies the offending arc plus the cause (the
    /// cycle-closing path, or the retired endpoint).
    ///
    /// The accepting path checks the whole batch with **one reachability
    /// sweep per distinct arc head** rather than one DFS per arc. This is
    /// sound because batch acceptance is order-independent: applying the
    /// arcs one by one succeeds (in any order) iff the graph plus the
    /// whole arc set is acyclic, and any cycle in that union must contain
    /// a newly inserted arc `a -> h` — i.e. `h` reaches `a` in the union.
    /// Rejection blame and the witness path *are* order-sensitive, so on
    /// failure the batch is rolled back and replayed through the original
    /// sequential per-arc algorithm, reproducing the exact error the old
    /// implementation returned.
    pub fn try_add_batch_into(
        &mut self,
        arcs: &[(NodeIdx, NodeIdx, L)],
        undo: &mut BatchUndo<L>,
    ) -> Result<(), BatchRejected> {
        assert!(undo.is_noop(), "recycled journal must be empty");
        // Phase 1: apply every arc without cycle checks. Static failures
        // (self-loop, retired endpoint) divert to the cold path, which
        // re-derives the order-correct blame.
        for (from, to, label) in arcs.iter() {
            if !self.live[from.index()]
                || !self.live[to.index()]
                || from == to
                || self
                    .merge_or_insert_unchecked(*from, *to, label, undo)
                    .is_err()
            {
                self.undo_batch_into(undo);
                return self.try_add_batch_sequential(arcs, undo);
            }
        }
        // Phase 2: one full reachability sweep per distinct head of the
        // *inserted* arcs (merged-into-existing arcs cannot be part of a
        // new cycle — the graph containing them was already acyclic).
        if !self.inserted_heads_acyclic(undo) {
            self.undo_batch_into(undo);
            return self.try_add_batch_sequential(arcs, undo);
        }
        Ok(())
    }

    /// Does the graph stay acyclic with the journalled insertions in
    /// place? One reachability sweep per distinct inserted-arc head `h`:
    /// a cycle exists iff some inserted arc `a -> h` has `a` reachable
    /// from `h`.
    fn inserted_heads_acyclic(&mut self, undo: &BatchUndo<L>) -> bool {
        let mut checked = std::mem::take(&mut self.head_scratch);
        checked.clear();
        let mut acyclic = true;
        'heads: for op in undo.ops.iter() {
            let UndoOp::Inserted(_, to) = op else {
                continue;
            };
            let h = to.index() as u32;
            if checked.contains(&h) {
                continue;
            }
            checked.push(h);
            Self::scratch_mark_reachable(
                &self.g,
                &self.live,
                &mut self.dfs_seen,
                &mut self.dfs_epoch,
                &mut self.dfs_parent,
                &mut self.dfs_stack,
                *to,
            );
            for other in undo.ops.iter() {
                let UndoOp::Inserted(from, to2) = other else {
                    continue;
                };
                if *to2 == *to && self.dfs_seen[from.index()] == self.dfs_epoch {
                    acyclic = false;
                    break 'heads;
                }
            }
        }
        self.head_scratch = checked;
        acyclic
    }

    /// Applies a batch **without** the acyclicity sweep, for callers that
    /// can prove the result stays acyclic — RSG-SGT's abort replay
    /// re-admits a subset of arcs that were all present in the previously
    /// acyclic graph. Static failures (self-loop, retired endpoint)
    /// divert to the sequential path exactly like
    /// [`IncrementalDag::try_add_batch_into`]. Debug builds re-verify the
    /// caller's proof by running the sweep anyway and panicking if it
    /// finds a cycle.
    pub fn add_batch_trusted_into(
        &mut self,
        arcs: &[(NodeIdx, NodeIdx, L)],
        undo: &mut BatchUndo<L>,
    ) -> Result<(), BatchRejected> {
        assert!(undo.is_noop(), "recycled journal must be empty");
        for (from, to, label) in arcs.iter() {
            if !self.live[from.index()]
                || !self.live[to.index()]
                || from == to
                || self
                    .merge_or_insert_unchecked(*from, *to, label, undo)
                    .is_err()
            {
                self.undo_batch_into(undo);
                return self.try_add_batch_sequential(arcs, undo);
            }
        }
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.inserted_heads_acyclic(undo),
                "trusted batch closed a cycle"
            );
        }
        Ok(())
    }

    /// The original per-arc batch application: cycle-checks each arc
    /// against the partially applied prefix, so the first failing arc and
    /// its witness path are exactly the ones the sequential algorithm
    /// blames. Used as the cold path after the batched acyclicity sweep
    /// detects (or statically anticipates) a failure.
    fn try_add_batch_sequential(
        &mut self,
        arcs: &[(NodeIdx, NodeIdx, L)],
        undo: &mut BatchUndo<L>,
    ) -> Result<(), BatchRejected> {
        debug_assert!(undo.is_noop(), "sequential redo starts from a clean slate");
        for (i, (from, to, label)) in arcs.iter().enumerate() {
            if let Err(cause) = self.apply_arc(*from, *to, label, undo) {
                self.undo_batch_into(undo);
                return Err(BatchRejected { arc: i, cause });
            }
        }
        Ok(())
    }

    /// Inserts or label-merges `from -> to` with **no** cycle check,
    /// journalling the change; callers must establish acyclicity
    /// afterwards (or roll back). `Err(())` signals a retired endpoint
    /// raced in (defensive; phase 1 pre-checks liveness).
    #[allow(clippy::result_unit_err)]
    fn merge_or_insert_unchecked(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        label: &L,
        undo: &mut BatchUndo<L>,
    ) -> Result<(), ()> {
        if let Some(e) = self.g.find_edge(from, to) {
            let prev = self.g.edge_weight(e).clone();
            let mut merged = prev.clone();
            merged.merge(label);
            if merged != prev {
                *self.g.edge_weight_mut(e) = merged;
                undo.ops.push(UndoOp::Relabeled(from, to, prev));
            }
            return Ok(());
        }
        self.g.add_edge(from, to, label.clone());
        undo.ops.push(UndoOp::Inserted(from, to));
        Ok(())
    }

    /// Reverses one applied batch, draining its journal in place: on
    /// return `undo` is empty but keeps its allocation, ready to be
    /// recycled through [`IncrementalDag::try_add_batch_into`]. Journals
    /// must be undone newest-first across batches; liveness is *not*
    /// required (a batch may be undone after one of its endpoints
    /// retired).
    pub fn undo_batch_into(&mut self, undo: &mut BatchUndo<L>) {
        while let Some(op) = undo.ops.pop() {
            match op {
                UndoOp::Inserted(from, to) => {
                    let e = self
                        .g
                        .find_edge(from, to)
                        .expect("undo journal names a missing edge");
                    self.g.remove_edge(e);
                }
                UndoOp::Relabeled(from, to, prev) => {
                    let e = self
                        .g
                        .find_edge(from, to)
                        .expect("undo journal names a missing edge");
                    *self.g.edge_weight_mut(e) = prev;
                }
            }
        }
    }

    /// Inserts or label-merges one arc, journalling the change; `Err`
    /// names the rejection cause and leaves graph and journal untouched.
    fn apply_arc(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        label: &L,
        undo: &mut BatchUndo<L>,
    ) -> Result<(), ArcRejection> {
        if !self.live[from.index()] {
            return Err(ArcRejection::RetiredEndpoint(from));
        }
        if !self.live[to.index()] {
            return Err(ArcRejection::RetiredEndpoint(to));
        }
        if from == to {
            return Err(ArcRejection::WouldCycle(vec![from]));
        }
        if let Some(e) = self.g.find_edge(from, to) {
            let prev = self.g.edge_weight(e).clone();
            let mut merged = prev.clone();
            merged.merge(label);
            if merged != prev {
                *self.g.edge_weight_mut(e) = merged;
                undo.ops.push(UndoOp::Relabeled(from, to, prev));
            }
            return Ok(());
        }
        // A cycle would arise iff `from` is reachable from `to` via live
        // nodes. The sweep runs on epoch-stamped scratch so the steady
        // (accepting) path allocates nothing; the witness path is only
        // materialized on the cold rejection path. (The sweep marks the
        // full reachable set rather than early-exiting at `from`: on
        // acceptance — the hot case — the full set is traversed either
        // way, and the DFS parent tree it leaves behind is identical to
        // the early-exit variant's for every node it visited.)
        Self::scratch_mark_reachable(
            &self.g,
            &self.live,
            &mut self.dfs_seen,
            &mut self.dfs_epoch,
            &mut self.dfs_parent,
            &mut self.dfs_stack,
            to,
        );
        if self.dfs_seen[from.index()] == self.dfs_epoch {
            let mut path = vec![from];
            let mut cur = from.index();
            while cur != to.index() {
                cur = self.dfs_parent[cur] as usize;
                path.push(NodeIdx::from(cur));
            }
            path.reverse();
            return Err(ArcRejection::WouldCycle(path));
        }
        self.g.add_edge(from, to, label.clone());
        undo.ops.push(UndoOp::Inserted(from, to));
        Ok(())
    }

    /// Marks every live node reachable from `from` (including `from`
    /// itself) with a fresh `dfs_epoch`, leaving `dfs_parent` holding a
    /// valid predecessor chain back to `from` for every marked node —
    /// callers test membership as `dfs_seen[v] == dfs_epoch` and can
    /// reconstruct witness paths from the parent chain.
    ///
    /// An associated fn over disjoint field borrows so callers holding
    /// `&self.g` elsewhere still type-check.
    fn scratch_mark_reachable(
        g: &DiGraph<(), L>,
        live: &[bool],
        seen: &mut Vec<u64>,
        epoch: &mut u64,
        parent: &mut Vec<u32>,
        stack: &mut Vec<u32>,
        from: NodeIdx,
    ) {
        let n = g.node_count();
        if seen.len() < n {
            seen.resize(n, 0);
            parent.resize(n, 0);
        }
        *epoch += 1;
        let e = *epoch;
        if !live[from.index()] {
            return;
        }
        seen[from.index()] = e;
        stack.clear();
        stack.push(from.index() as u32);
        while let Some(v) = stack.pop() {
            for s in g.successors(NodeIdx::from(v as usize)) {
                let si = s.index();
                if !live[si] || seen[si] == e {
                    continue;
                }
                seen[si] = e;
                parent[si] = v;
                stack.push(si as u32);
            }
        }
    }

    /// Read-only view of the underlying graph (includes retired nodes and
    /// their edges; callers must filter by liveness).
    pub fn graph(&self) -> &DiGraph<(), L> {
        &self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny bitmask label standing in for RSG arc kinds.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct Mask(u8);

    impl EdgeLabel for Mask {
        fn merge(&mut self, other: &Self) {
            self.0 |= other.0;
        }
    }

    /// The label of edge `from -> to`, live or retired, if present.
    fn label<L: EdgeLabel>(d: &IncrementalDag<L>, from: NodeIdx, to: NodeIdx) -> Option<&L> {
        let g = d.graph();
        g.find_edge(from, to).map(|e| g.edge_weight(e))
    }

    #[test]
    fn accepts_dag_edges() {
        let mut d = IncrementalDag::<()>::new();
        let a = d.add_node();
        let b = d.add_node();
        let c = d.add_node();
        assert_eq!(d.try_add_edge(a, b), AddEdge::Added);
        assert_eq!(d.try_add_edge(b, c), AddEdge::Added);
        assert_eq!(d.try_add_edge(a, c), AddEdge::Added);
        assert!(d.has_edge(a, b));
    }

    #[test]
    fn rejects_cycle_with_witness_path() {
        let mut d = IncrementalDag::<()>::new();
        let a = d.add_node();
        let b = d.add_node();
        let c = d.add_node();
        d.try_add_edge(a, b);
        d.try_add_edge(b, c);
        match d.try_add_edge(c, a) {
            AddEdge::WouldCycle(path) => assert_eq!(path, vec![a, b, c]),
            other => panic!("expected rejection, got {other:?}"),
        }
        // Graph unchanged.
        assert!(!d.has_edge(c, a));
    }

    #[test]
    fn rejects_self_loop() {
        let mut d = IncrementalDag::<()>::new();
        let a = d.add_node();
        assert_eq!(d.try_add_edge(a, a), AddEdge::WouldCycle(vec![a]));
    }

    #[test]
    fn duplicate_edge_reported() {
        let mut d = IncrementalDag::<()>::new();
        let a = d.add_node();
        let b = d.add_node();
        assert_eq!(d.try_add_edge(a, b), AddEdge::Added);
        assert_eq!(d.try_add_edge(a, b), AddEdge::Duplicate);
    }

    #[test]
    fn labels_merge_on_duplicate_insert() {
        let mut d = IncrementalDag::<Mask>::new();
        let a = d.add_node();
        let b = d.add_node();
        assert_eq!(d.try_add_labeled_edge(a, b, Mask(0b01)), AddEdge::Added);
        assert_eq!(d.try_add_labeled_edge(a, b, Mask(0b10)), AddEdge::Duplicate);
        assert_eq!(label(&d, a, b), Some(&Mask(0b11)));
        // No parallel edge was created.
        assert_eq!(d.graph().edge_count(), 1);
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let mut d = IncrementalDag::<Mask>::new();
        let a = d.add_node();
        let b = d.add_node();
        let c = d.add_node();
        d.try_add_labeled_edge(a, b, Mask(1));
        // Batch: one fresh arc, one label merge, then a cycle-closer. All
        // three must be rolled back.
        let mut undo = BatchUndo::default();
        let rejected = d
            .try_add_batch_into(
                &[
                    (b, c, Mask(1)),
                    (a, b, Mask(2)),
                    (c, a, Mask(1)), // closes c -> a -> b -> c? no: a~>c exists after (b,c): a->b->c
                ],
                &mut undo,
            )
            .unwrap_err();
        assert!(undo.is_noop(), "a rolled-back batch leaves no journal");
        assert_eq!(rejected.arc, 2);
        assert_eq!(rejected.cause, ArcRejection::WouldCycle(vec![a, b, c]));
        assert!(!d.has_edge(b, c), "fresh arc rolled back");
        assert_eq!(label(&d, a, b), Some(&Mask(1)), "label merge rolled back");
        assert_eq!(d.graph().edge_count(), 1);
    }

    #[test]
    fn batch_success_returns_reversing_journal() {
        let mut d = IncrementalDag::<Mask>::new();
        let a = d.add_node();
        let b = d.add_node();
        let c = d.add_node();
        d.try_add_labeled_edge(a, b, Mask(1));
        let mut undo = BatchUndo::default();
        d.try_add_batch_into(
            &[(b, c, Mask(4)), (a, b, Mask(2)), (a, c, Mask(1))],
            &mut undo,
        )
        .unwrap();
        assert!(!undo.is_noop());
        assert_eq!(d.graph().edge_count(), 3);
        assert_eq!(label(&d, a, b), Some(&Mask(3)));
        d.undo_batch_into(&mut undo);
        assert!(undo.is_noop(), "the journal is drained");
        assert_eq!(d.graph().edge_count(), 1);
        assert_eq!(label(&d, a, b), Some(&Mask(1)));
        assert!(!d.has_edge(b, c) && !d.has_edge(a, c));
    }

    #[test]
    fn noop_batch_merge_of_subset_label() {
        let mut d = IncrementalDag::<Mask>::new();
        let a = d.add_node();
        let b = d.add_node();
        d.try_add_labeled_edge(a, b, Mask(3));
        // Re-adding a subset label changes nothing and journals nothing.
        let mut undo = BatchUndo::default();
        d.try_add_batch_into(&[(a, b, Mask(1))], &mut undo).unwrap();
        assert!(undo.is_noop());
        assert_eq!(label(&d, a, b), Some(&Mask(3)));
    }

    #[test]
    fn undo_works_after_endpoint_retires() {
        let mut d = IncrementalDag::<Mask>::new();
        let a = d.add_node();
        let b = d.add_node();
        let mut undo = BatchUndo::default();
        d.try_add_batch_into(&[(a, b, Mask(1))], &mut undo).unwrap();
        d.retire_node(a);
        d.undo_batch_into(&mut undo);
        assert_eq!(d.graph().edge_count(), 0);
    }

    #[test]
    fn stacked_batches_undo_in_reverse_order() {
        let mut d = IncrementalDag::<Mask>::new();
        let a = d.add_node();
        let b = d.add_node();
        let c = d.add_node();
        let (mut u1, mut u2) = (BatchUndo::default(), BatchUndo::default());
        d.try_add_batch_into(&[(a, b, Mask(1))], &mut u1).unwrap();
        d.try_add_batch_into(&[(a, b, Mask(2)), (b, c, Mask(1))], &mut u2)
            .unwrap();
        d.undo_batch_into(&mut u2);
        assert_eq!(label(&d, a, b), Some(&Mask(1)));
        assert!(!d.has_edge(b, c));
        d.undo_batch_into(&mut u1);
        assert_eq!(d.graph().edge_count(), 0);
    }

    #[test]
    fn retiring_a_node_unblocks_edges() {
        // a -> b -> c; retire b; now c -> a is fine because the only path
        // a ~> c ran through b.
        let mut d = IncrementalDag::<()>::new();
        let a = d.add_node();
        let b = d.add_node();
        let c = d.add_node();
        d.try_add_edge(a, b);
        d.try_add_edge(b, c);
        assert!(matches!(d.try_add_edge(c, a), AddEdge::WouldCycle(_)));
        d.retire_node(b);
        assert_eq!(d.try_add_edge(c, a), AddEdge::Added);
    }

    #[test]
    fn edges_to_retired_nodes_are_rejected_typed() {
        let mut d = IncrementalDag::<()>::new();
        let a = d.add_node();
        let b = d.add_node();
        d.retire_node(b);
        assert_eq!(d.try_add_edge(a, b), AddEdge::RetiredEndpoint(b));
        d.retire_node(a);
        assert_eq!(d.try_add_edge(a, b), AddEdge::RetiredEndpoint(a));
        assert_eq!(d.graph().edge_count(), 0, "graph unchanged");
    }

    #[test]
    fn batch_with_retired_endpoint_rolls_back_typed() {
        let mut d = IncrementalDag::<Mask>::new();
        let a = d.add_node();
        let b = d.add_node();
        let c = d.add_node();
        d.retire_node(c);
        let mut undo = BatchUndo::default();
        let rejected = d
            .try_add_batch_into(&[(a, b, Mask(1)), (b, c, Mask(1))], &mut undo)
            .unwrap_err();
        assert!(undo.is_noop(), "a rolled-back batch leaves no journal");
        assert_eq!(rejected.arc, 1);
        assert_eq!(rejected.cause, ArcRejection::RetiredEndpoint(c));
        assert!(!d.has_edge(a, b), "earlier arcs rolled back");
    }

    #[test]
    fn retirement_masks_only_its_node_and_is_idempotent() {
        let mut d = IncrementalDag::<()>::new();
        let a = d.add_node();
        let b = d.add_node();
        assert!(d.is_live(a) && d.is_live(b));
        d.retire_node(a);
        assert!(!d.is_live(a));
        assert!(d.is_live(b));
        d.retire_node(a); // idempotent
        assert!(!d.is_live(a));
        assert!(d.is_live(b));
        assert_eq!(d.graph().node_count(), 2, "a retired node keeps its index");
    }

    #[test]
    fn stress_never_cyclic() {
        // Insert pseudo-random edges; verify the final accepted edge set is
        // acyclic via the offline detector.
        let mut state: u64 = 7;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 30usize;
        let mut d = IncrementalDag::<()>::new();
        let nodes: Vec<NodeIdx> = (0..n).map(|_| d.add_node()).collect();
        let mut accepted = Vec::new();
        for _ in 0..400 {
            let a = nodes[(next() % n as u64) as usize];
            let b = nodes[(next() % n as u64) as usize];
            if d.try_add_edge(a, b) == AddEdge::Added {
                accepted.push((a.0, b.0));
            }
        }
        let g = DiGraph::<(), ()>::from_edges(n, &accepted);
        assert!(crate::cycle::is_acyclic(&g));
        assert!(accepted.len() > n, "stress test should accept many edges");
    }

    #[test]
    fn stress_batches_with_undo_match_offline_checker() {
        // Random batches, occasionally undone, always acyclic.
        let mut state: u64 = 99;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 20usize;
        let mut d = IncrementalDag::<Mask>::new();
        let nodes: Vec<NodeIdx> = (0..n).map(|_| d.add_node()).collect();
        let mut journals: Vec<BatchUndo<Mask>> = Vec::new();
        for round in 0..200 {
            let arcs: Vec<(NodeIdx, NodeIdx, Mask)> = (0..(next() % 4 + 1))
                .map(|_| {
                    (
                        nodes[(next() % n as u64) as usize],
                        nodes[(next() % n as u64) as usize],
                        Mask(1 << (next() % 4)),
                    )
                })
                .collect();
            let mut undo = BatchUndo::default();
            if d.try_add_batch_into(&arcs, &mut undo).is_ok() {
                journals.push(undo);
            }
            if round % 7 == 0 {
                if let Some(mut undo) = journals.pop() {
                    d.undo_batch_into(&mut undo);
                }
            }
            let edges: Vec<(u32, u32)> =
                d.graph().edge_refs().map(|e| (e.from.0, e.to.0)).collect();
            assert!(crate::cycle::is_acyclic(&DiGraph::<(), ()>::from_edges(
                n, &edges
            )));
        }
    }
}
