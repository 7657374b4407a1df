//! The core adjacency-list directed multigraph.

use std::fmt;

/// Index of a node in a [`DiGraph`].
///
/// Node indices are dense, start at zero, and are stable: nodes are never
/// removed from a `DiGraph` (the schedulers that need retirement use
/// [`crate::IncrementalDag`], which masks retired nodes instead).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index as a `usize`, for indexing into caller-side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeIdx {
    fn from(i: usize) -> Self {
        NodeIdx(u32::try_from(i).expect("node index overflows u32"))
    }
}

/// Index of an edge in a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeIdx(pub u32);

impl EdgeIdx {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Edge<E> {
    from: NodeIdx,
    to: NodeIdx,
    weight: E,
}

/// A borrowed view of one edge: `(index, source, target, &weight)`.
#[derive(Debug)]
pub struct EdgeRef<'g, E> {
    /// The edge's index.
    pub idx: EdgeIdx,
    /// Source node.
    pub from: NodeIdx,
    /// Target node.
    pub to: NodeIdx,
    /// Borrowed edge weight.
    pub weight: &'g E,
}

/// A directed multigraph stored as adjacency lists.
///
/// * Nodes carry a weight `N`; edges carry a weight `E`.
/// * Parallel edges and self-loops are permitted (a self-loop is a cycle).
/// * Both forward and reverse adjacency are maintained so predecessor
///   queries are O(out-degree-equivalent) rather than O(|E|).
#[derive(Clone, Debug, Default)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// `succ[v]` lists the outgoing edges of `v` as `(target, edge)`,
    /// the target cached inline so traversals and endpoint probes touch
    /// only the adjacency row instead of chasing into `edges`.
    succ: Vec<Vec<(NodeIdx, EdgeIdx)>>,
    /// `pred[v]` lists the incoming edges of `v` as `(source, edge)`.
    pred: Vec<Vec<(NodeIdx, EdgeIdx)>>,
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            succ: Vec::new(),
            pred: Vec::new(),
        }
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            succ: Vec::with_capacity(nodes),
            pred: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (parallel edges counted individually).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node and returns its index.
    pub fn add_node(&mut self, weight: N) -> NodeIdx {
        let idx = NodeIdx::from(self.nodes.len());
        self.nodes.push(weight);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        idx
    }

    /// Adds a directed edge `from -> to` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, from: NodeIdx, to: NodeIdx, weight: E) -> EdgeIdx {
        assert!(from.index() < self.nodes.len(), "edge source out of bounds");
        assert!(to.index() < self.nodes.len(), "edge target out of bounds");
        let idx = EdgeIdx(u32::try_from(self.edges.len()).expect("edge index overflows u32"));
        self.edges.push(Edge { from, to, weight });
        self.succ[from.index()].push((to, idx));
        self.pred[to.index()].push((from, idx));
        idx
    }

    /// Removes edge `e`, returning its endpoints and weight.
    ///
    /// Uses swap-removal: the edge that previously had the highest index
    /// takes over index `e`, so any held [`EdgeIdx`] equal to the old
    /// highest index is invalidated. Callers that need stable handles
    /// should re-address edges by endpoints via [`DiGraph::find_edge`].
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    pub fn remove_edge(&mut self, e: EdgeIdx) -> (NodeIdx, NodeIdx, E) {
        let (from, to) = self.edge_endpoints(e);
        Self::detach(&mut self.succ[from.index()], e);
        Self::detach(&mut self.pred[to.index()], e);
        let removed = self.edges.swap_remove(e.index());
        if e.index() < self.edges.len() {
            // The former last edge moved into slot `e`; re-point its
            // adjacency entries.
            let old = EdgeIdx(u32::try_from(self.edges.len()).expect("edge index overflows u32"));
            let (mfrom, mto) = (self.edges[e.index()].from, self.edges[e.index()].to);
            Self::repoint(&mut self.succ[mfrom.index()], old, e);
            Self::repoint(&mut self.pred[mto.index()], old, e);
        }
        (removed.from, removed.to, removed.weight)
    }

    fn detach(list: &mut Vec<(NodeIdx, EdgeIdx)>, e: EdgeIdx) {
        let pos = list
            .iter()
            .position(|&(_, x)| x == e)
            .expect("edge missing from adjacency list");
        list.swap_remove(pos);
    }

    fn repoint(list: &mut [(NodeIdx, EdgeIdx)], old: EdgeIdx, new: EdgeIdx) {
        let pos = list
            .iter()
            .position(|&(_, x)| x == old)
            .expect("moved edge missing from adjacency list");
        list[pos].1 = new;
    }

    /// Returns an edge `from -> to`, if any.
    ///
    /// Scans whichever adjacency side is shorter. If parallel `from -> to`
    /// edges exist, which of them is returned is unspecified (the two
    /// adjacency sides may order them differently after removals).
    pub fn find_edge(&self, from: NodeIdx, to: NodeIdx) -> Option<EdgeIdx> {
        let fwd = &self.succ[from.index()];
        let rev = &self.pred[to.index()];
        if fwd.len() <= rev.len() {
            fwd.iter().find(|&&(t, _)| t == to).map(|&(_, e)| e)
        } else {
            rev.iter().find(|&&(s, _)| s == from).map(|&(_, e)| e)
        }
    }

    /// Returns `true` if at least one edge `from -> to` exists.
    pub fn has_edge(&self, from: NodeIdx, to: NodeIdx) -> bool {
        self.find_edge(from, to).is_some()
    }

    /// Borrowed node weight.
    pub fn node_weight(&self, v: NodeIdx) -> &N {
        &self.nodes[v.index()]
    }

    /// Mutable node weight.
    pub fn node_weight_mut(&mut self, v: NodeIdx) -> &mut N {
        &mut self.nodes[v.index()]
    }

    /// Borrowed edge weight.
    pub fn edge_weight(&self, e: EdgeIdx) -> &E {
        &self.edges[e.index()].weight
    }

    /// Mutable edge weight.
    pub fn edge_weight_mut(&mut self, e: EdgeIdx) -> &mut E {
        &mut self.edges[e.index()].weight
    }

    /// Endpoints `(from, to)` of an edge.
    pub fn edge_endpoints(&self, e: EdgeIdx) -> (NodeIdx, NodeIdx) {
        let edge = &self.edges[e.index()];
        (edge.from, edge.to)
    }

    /// Iterates over all node indices.
    pub fn node_indices(&self) -> impl ExactSizeIterator<Item = NodeIdx> + '_ {
        (0..self.nodes.len()).map(NodeIdx::from)
    }

    /// Iterates over all edges.
    pub fn edge_refs(&self) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| EdgeRef {
            idx: EdgeIdx(i as u32),
            from: e.from,
            to: e.to,
            weight: &e.weight,
        })
    }

    /// Successor nodes of `v` (one entry per outgoing edge, so parallel
    /// edges yield repeats).
    pub fn successors(&self, v: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.succ[v.index()].iter().map(|&(t, _)| t)
    }

    /// The outgoing adjacency row of `v` as `(target, edge)` pairs, in
    /// insertion order: what [`DiGraph::successors`] iterates, as a slice
    /// a traversal can index from its stack frame.
    pub(crate) fn out_row(&self, v: NodeIdx) -> &[(NodeIdx, EdgeIdx)] {
        &self.succ[v.index()]
    }

    /// Predecessor nodes of `v` (one entry per incoming edge).
    pub fn predecessors(&self, v: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.pred[v.index()].iter().map(|&(s, _)| s)
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: NodeIdx) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.succ[v.index()].iter().map(move |&(_, e)| {
            let edge = &self.edges[e.index()];
            EdgeRef {
                idx: e,
                from: edge.from,
                to: edge.to,
                weight: &edge.weight,
            }
        })
    }

    /// Incoming edges of `v`.
    pub fn in_edges(&self, v: NodeIdx) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.pred[v.index()].iter().map(move |&(_, e)| {
            let edge = &self.edges[e.index()];
            EdgeRef {
                idx: e,
                from: edge.from,
                to: edge.to,
                weight: &edge.weight,
            }
        })
    }

    /// Out-degree of `v` (parallel edges counted individually).
    pub fn out_degree(&self, v: NodeIdx) -> usize {
        self.succ[v.index()].len()
    }

    /// In-degree of `v` (parallel edges counted individually).
    pub fn in_degree(&self, v: NodeIdx) -> usize {
        self.pred[v.index()].len()
    }

    /// Builds a graph directly from a node count and an edge list with unit
    /// weights; convenient in tests.
    pub fn from_edges(nodes: usize, edges: &[(u32, u32)]) -> DiGraph<(), ()> {
        let mut g = DiGraph::with_capacity(nodes, edges.len());
        for _ in 0..nodes {
            g.add_node(());
        }
        for &(a, b) in edges {
            g.add_edge(NodeIdx(a), NodeIdx(b), ());
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g: DiGraph<&str, u32> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, 7);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(*g.node_weight(a), "a");
        assert_eq!(*g.edge_weight(e), 7);
        assert_eq!(g.edge_endpoints(e), (a, b));
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
    }

    #[test]
    fn parallel_edges_are_kept() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(b), 2);
        let weights: Vec<u32> = g.out_edges(a).map(|e| *e.weight).collect();
        assert_eq!(weights, vec![1, 2]);
    }

    #[test]
    fn self_loop() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn successors_and_predecessors() {
        let g = DiGraph::<(), ()>::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let succ0: Vec<_> = g.successors(NodeIdx(0)).collect();
        assert_eq!(succ0, vec![NodeIdx(1), NodeIdx(2)]);
        let pred3: Vec<_> = g.predecessors(NodeIdx(3)).collect();
        assert_eq!(pred3, vec![NodeIdx(1), NodeIdx(2)]);
    }

    #[test]
    fn node_weight_mut() {
        let mut g: DiGraph<u32, ()> = DiGraph::new();
        let a = g.add_node(1);
        *g.node_weight_mut(a) += 41;
        assert_eq!(*g.node_weight(a), 42);
    }

    #[test]
    fn edge_weight_mut() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let e = g.add_edge(a, a, 5);
        *g.edge_weight_mut(e) = 6;
        assert_eq!(*g.edge_weight(e), 6);
    }

    #[test]
    fn edge_refs_enumerates_all() {
        let g = DiGraph::<(), ()>::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let refs: Vec<(NodeIdx, NodeIdx)> = g.edge_refs().map(|e| (e.from, e.to)).collect();
        assert_eq!(
            refs,
            vec![
                (NodeIdx(0), NodeIdx(1)),
                (NodeIdx(1), NodeIdx(2)),
                (NodeIdx(2), NodeIdx(0))
            ]
        );
    }

    #[test]
    fn remove_edge_swaps_and_repoints() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let e1 = g.add_edge(a, b, 1);
        g.add_edge(b, c, 2);
        g.add_edge(a, c, 3);
        assert_eq!(g.remove_edge(e1), (a, b, 1));
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(a, b));
        // The former last edge (a -> c) moved into slot 0 and must still be
        // addressable through adjacency.
        let e = g.find_edge(a, c).unwrap();
        assert_eq!(*g.edge_weight(e), 3);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(c), 2);
        // Removing the true last edge exercises the no-swap path.
        let e = g.find_edge(b, c).unwrap();
        assert_eq!(g.remove_edge(e), (b, c, 2));
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, c));
    }

    #[test]
    fn remove_parallel_edge_leaves_sibling() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.remove_edge(e1);
        assert_eq!(g.edge_count(), 1);
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(*g.edge_weight(e), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_to_missing_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeIdx(9), ());
    }

    #[test]
    fn find_edge_first_match() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.find_edge(a, b), Some(e1));
        assert_eq!(g.find_edge(b, a), None);
    }
}
