//! Directed-graph algorithms substrate for the relative-serializability
//! workspace.
//!
//! The PODS'94 paper this workspace reproduces ("Relative Serializability",
//! Agrawal, Bruno, El Abbadi, Krishnaswamy) reduces the recognition of
//! relatively serializable schedules to an **acyclicity test** on a directed
//! graph over operations (the *relative serialization graph*, RSG).
//! Classical conflict serializability likewise reduces to acyclicity of the
//! serialization graph over transactions. This crate provides the graph
//! machinery both tests need, plus the pieces required by the online
//! serialization-graph-testing (SGT) schedulers in `relser-protocols`:
//!
//! * [`DiGraph`]: a compact adjacency-list directed multigraph with
//!   parametric node and edge weights and stable `u32` node indices.
//! * [`visit`]: iterative depth-first / breadth-first traversals and
//!   post-order computation (no recursion, safe for deep graphs).
//! * [`cycle`]: cycle detection with *witness extraction* — callers get the
//!   actual cycle, which the core crate turns into human-readable
//!   explanations of why a schedule is not relatively serializable.
//! * [`topo`]: Kahn topological sort, including a deterministic variant
//!   tie-broken by a caller-supplied priority. The core crate uses the
//!   priority form to extract, from an acyclic RSG, the *equivalent
//!   relatively serial schedule* promised by Theorem 1 of the paper.
//! * [`scc`]: Tarjan strongly-connected components (iterative).
//! * [`reach`]: reachability queries and full transitive closure over
//!   per-node bitsets; the core crate computes the paper's *depends-on*
//!   relation (transitive closure of direct dependencies) this way.
//! * [`incremental`]: an incrementally maintained acyclic graph supporting
//!   edge insertion with cycle rejection and node retirement, used by the
//!   SGT and RSG-SGT schedulers.
//! * [`dot`]: Graphviz export for debugging and documentation.
//!
//! The crate is dependency-free and deliberately implements only what the
//! workspace needs, with exhaustive unit and property tests.
//!
//! # Example
//!
//! ```
//! use relser_digraph::{DiGraph, topo, cycle};
//!
//! let mut g: DiGraph<&str, ()> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, ());
//! g.add_edge(b, c, ());
//! assert!(cycle::find_cycle(&g).is_none());
//! let order = topo::topological_sort(&g).expect("acyclic");
//! assert_eq!(order, vec![a, b, c]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;

pub mod bitset;
pub mod cycle;
pub mod dot;
pub mod incremental;
pub mod reach;
pub mod scc;
pub mod topo;
pub mod visit;

pub use graph::{DiGraph, EdgeIdx, EdgeRef, NodeIdx};
pub use incremental::{AddEdge, ArcRejection, BatchRejected, BatchUndo, EdgeLabel, IncrementalDag};
