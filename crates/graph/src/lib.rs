//! `umpa-graph` — flat CSR graph structures and traversals.
//!
//! Everything in the paper is graph-shaped: the MPI task graph `Gt`
//! (directed, edge weights = communication volumes), the network topology
//! graph `Gm` (undirected, edge weights = link bandwidths) and the coarse
//! task graph produced by the partitioning phase. This crate provides:
//!
//! * [`Graph`] — an immutable CSR adjacency structure with `f64` vertex
//!   and edge weights, built through [`GraphBuilder`] (which merges
//!   duplicate edges and can symmetrize);
//! * [`TaskGraph`] — the paper's `Gt`: a directed message graph plus its
//!   symmetrized view (the WH metric is undirected, Section III-A) and
//!   cached send/receive volumes (for the `t_MSRV` seed rule);
//! * [`Bfs`] — a multi-source, level-tracking BFS with an `O(1)`-reset
//!   workspace, reused across the thousands of traversals the mapping
//!   algorithms run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod csr;
pub mod taskgraph;

pub use bfs::{Bfs, BfsEvent};
pub use csr::{Graph, GraphBuilder};
pub use taskgraph::{TaskGraph, TaskGraphScratch};

/// Commonly used items.
pub mod prelude {
    pub use crate::bfs::{Bfs, BfsEvent};
    pub use crate::csr::{Graph, GraphBuilder};
    pub use crate::taskgraph::{TaskGraph, TaskGraphScratch};
}
