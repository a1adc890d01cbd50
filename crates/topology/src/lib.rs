//! `umpa-topology` — the network topology substrate.
//!
//! The paper targets NERSC's Hopper: a Cray XE6 whose Gemini routers
//! form a 3-D torus with wraparound, two compute nodes per router,
//! static shortest-path (dimension-ordered) routing and per-dimension
//! link bandwidths. This crate models that machine — and interconnect
//! topologies in general — behind a pluggable backend:
//!
//! * [`topology`] — the [`Topology`] backend abstraction: router
//!   counts, distances, static routes emitted as directed channel ids,
//!   the canonical link-id space each backend owns, and the one
//!   channel encoding ([`Topology::channel`]);
//! * [`Torus`] — torus/mesh geometry: router coordinates, O(1) hop
//!   distances, neighbor enumeration (the "hop count between two
//!   arbitrary nodes can be found in O(1)" property Algorithm 1's
//!   complexity relies on);
//! * [`fat_tree`] — 3-level k-ary fat-tree (Clos) with up*/down*
//!   routing, for cloud-style clusters;
//! * [`dragonfly`] — dragonfly groups with minimal local–global–local
//!   routing, for Aries/Slingshot-style supercomputers;
//! * [`routing`] — the torus dimension-ordered walk the torus backend
//!   emits its channel ids from;
//! * [`oracle`] — the dense terminal-router hop table ([`DistanceOracle`])
//!   behind `Machine::hops`/`Machine::dist_row`: one bounds-checked row
//!   index per distance instead of enum dispatch plus per-dimension
//!   arithmetic, with an analytic fallback above a size threshold;
//! * [`route_cache`] — the oracle's routing sibling ([`RouteCache`])
//!   behind `Machine::route_cache()`: static routes served as cached
//!   channel-id slices from lazily-built per-source rows, same
//!   threshold-plus-fallback shape;
//! * [`Machine`] — the full machine: topology + nodes-per-router +
//!   bandwidths + latencies + the router graph in CSR form for BFS;
//! * [`ordering`] — linear node orderings (lexicographic / serpentine
//!   space-filling curve) standing in for Cray's placement curve;
//! * [`alloc`] — a fragmented-allocation generator reproducing the
//!   paper's *sparse* (non-contiguous) node allocations;
//! * [`churn`] — the [`ChurnEvent`] fault model (node failures,
//!   allocation shrink/growth, link degradation) behind the
//!   incremental-remap lifecycle, with failure-masked rebuilds of the
//!   oracle/route-cache products (`Machine::degrade_link`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod churn;
pub mod dragonfly;
pub mod fat_tree;
mod fault;
pub mod machine;
pub mod oracle;
pub mod ordering;
pub mod route_cache;
pub mod routing;
pub mod topology;
pub mod torus;

pub use alloc::{AllocSpec, Allocation};
pub use churn::ChurnEvent;
pub use dragonfly::{Dragonfly, DragonflyConfig};
pub use fat_tree::{FatTree, FatTreeConfig};
pub use machine::{
    FaultSnapshot, Machine, MachineConfig, MachineParams, DEFAULT_ORACLE_MAX_ROUTERS,
    DEFAULT_ROUTE_CACHE_MAX_ROUTERS,
};
pub use oracle::DistanceOracle;
pub use ordering::NodeOrdering;
pub use route_cache::{RouteCache, RouteRowView};
pub use topology::{Topology, TorusNet};
pub use torus::Torus;

/// Commonly used items.
pub mod prelude {
    pub use crate::alloc::{AllocSpec, Allocation};
    pub use crate::churn::ChurnEvent;
    pub use crate::dragonfly::{Dragonfly, DragonflyConfig};
    pub use crate::fat_tree::{FatTree, FatTreeConfig};
    pub use crate::machine::{FaultSnapshot, Machine, MachineConfig, MachineParams};
    pub use crate::oracle::DistanceOracle;
    pub use crate::ordering::NodeOrdering;
    pub use crate::route_cache::RouteCache;
    pub use crate::topology::{Topology, TorusNet};
    pub use crate::torus::Torus;
}
