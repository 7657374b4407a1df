//! Cycle detection with witness extraction.
//!
//! Theorem 1 of the paper makes acyclicity of the RSG the exact criterion
//! for relative serializability, so "is there a cycle, and if so which one"
//! is the central query of the whole workspace. [`find_cycle`] returns the
//! actual node sequence so `relser-core` can explain *why* a schedule was
//! rejected in terms of operations and arc kinds.

use crate::{DiGraph, NodeIdx};

/// Three-color DFS state.
#[derive(Clone, Copy, PartialEq)]
enum Color {
    White,
    Gray,
    Black,
}

/// Returns some directed cycle as a node sequence `v0, v1, …, vk` where each
/// consecutive pair is an edge and `vk -> v0` closes the cycle; `None` if
/// the graph is acyclic.
///
/// Self-loops yield a single-node cycle. Detection is deterministic:
/// the DFS scans roots and adjacency lists in index order.
pub fn find_cycle<N, E>(g: &DiGraph<N, E>) -> Option<Vec<NodeIdx>> {
    let n = g.node_count();
    let mut color = vec![Color::White; n];
    // parent[v] = node from which v was discovered (for path reconstruction)
    let mut parent: Vec<Option<NodeIdx>> = vec![None; n];
    let mut stack: Vec<(NodeIdx, usize)> = Vec::new();

    for root in g.node_indices() {
        if color[root.index()] != Color::White {
            continue;
        }
        color[root.index()] = Color::Gray;
        stack.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = stack.last_mut() {
            let succs = g.out_row(v);
            if *pos < succs.len() {
                let s = succs[*pos].0;
                *pos += 1;
                match color[s.index()] {
                    Color::White => {
                        color[s.index()] = Color::Gray;
                        parent[s.index()] = Some(v);
                        stack.push((s, 0));
                    }
                    Color::Gray => {
                        // Found a back edge v -> s: the cycle is s ~> v -> s.
                        let mut cycle = vec![v];
                        let mut cur = v;
                        while cur != s {
                            cur = parent[cur.index()].expect("gray node has parent on path");
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[v.index()] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

/// Returns `true` if the graph contains no directed cycle.
pub fn is_acyclic<N, E>(g: &DiGraph<N, E>) -> bool {
    find_cycle(g).is_none()
}

/// Checks that `cycle` really is a directed cycle of `g`; used by tests and
/// by `relser-core` to validate explanations before surfacing them.
pub fn is_valid_cycle<N, E>(g: &DiGraph<N, E>, cycle: &[NodeIdx]) -> bool {
    if cycle.is_empty() {
        return false;
    }
    let closing = (cycle[cycle.len() - 1], cycle[0]);
    cycle
        .windows(2)
        .map(|w| (w[0], w[1]))
        .chain(std::iter::once(closing))
        .all(|(a, b)| g.has_edge(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_has_no_cycle() {
        let g = DiGraph::<(), ()>::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(is_acyclic(&g));
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn triangle_cycle_found_and_valid() {
        let g = DiGraph::<(), ()>::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let c = find_cycle(&g).expect("cycle exists");
        assert_eq!(c.len(), 3);
        assert!(is_valid_cycle(&g, &c));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        let c = find_cycle(&g).unwrap();
        assert_eq!(c, vec![a]);
        assert!(is_valid_cycle(&g, &c));
    }

    #[test]
    fn two_node_cycle() {
        let g = DiGraph::<(), ()>::from_edges(2, &[(0, 1), (1, 0)]);
        let c = find_cycle(&g).unwrap();
        assert_eq!(c.len(), 2);
        assert!(is_valid_cycle(&g, &c));
    }

    #[test]
    fn cycle_in_second_component() {
        let g = DiGraph::<(), ()>::from_edges(5, &[(0, 1), (2, 3), (3, 4), (4, 2)]);
        let c = find_cycle(&g).unwrap();
        assert!(is_valid_cycle(&g, &c));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn diamond_plus_back_edge() {
        // Back edge 3 -> 0 creates cycles; returned witness must be valid.
        let g = DiGraph::<(), ()>::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
        let c = find_cycle(&g).unwrap();
        assert!(is_valid_cycle(&g, &c));
    }

    #[test]
    fn empty_and_singleton_graphs_acyclic() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(is_acyclic(&g));
        let mut g2: DiGraph<(), ()> = DiGraph::new();
        g2.add_node(());
        assert!(is_acyclic(&g2));
    }

    #[test]
    fn is_valid_cycle_rejects_non_cycles() {
        let g = DiGraph::<(), ()>::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!is_valid_cycle(&g, &[NodeIdx(0), NodeIdx(1), NodeIdx(2)]));
        assert!(!is_valid_cycle(&g, &[]));
    }

    #[test]
    fn parallel_edges_do_not_confuse_detection() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        assert!(is_acyclic(&g));
        g.add_edge(b, a, ());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn long_chain_with_final_back_edge() {
        let n = 10_000u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let g = DiGraph::<(), ()>::from_edges(n as usize, &edges);
        let c = find_cycle(&g).unwrap();
        assert_eq!(c.len(), n as usize);
        assert!(is_valid_cycle(&g, &c));
    }
}
