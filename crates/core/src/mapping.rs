//! Mapping representation and validation.
//!
//! A mapping `Γ : Vt → Va` is stored as `Vec<u32>`: `mapping[t]` is the
//! machine node id hosting task `t`. Validation checks the two
//! feasibility conditions of the problem statement: every task sits on
//! an *allocated* node, and no node's processor capacity is exceeded by
//! the total weight of its tasks.

use umpa_graph::TaskGraph;
use umpa_topology::Allocation;

// Re-exported from `eps` where all engine tolerances now live; kept
// here because `fits` is its natural companion and downstream code
// imports it from `mapping`.
pub use crate::eps::CAPACITY_EPS;

/// Whether a task of `weight` fits in `free` remaining capacity, under
/// the engine-wide [`CAPACITY_EPS`] tolerance. For swap feasibility
/// pass `free + departing_weight`.
#[inline]
pub fn fits(free: f64, weight: f64) -> bool {
    free + CAPACITY_EPS >= weight
}

/// Why a mapping is infeasible.
#[derive(Clone, Debug, PartialEq)]
pub enum MappingError {
    /// The mapping vector length differs from the task count.
    LengthMismatch {
        /// Entries in the mapping vector.
        got: usize,
        /// Tasks in the task graph.
        expected: usize,
    },
    /// A task was placed on a node outside the allocation.
    UnallocatedNode {
        /// Offending task.
        task: u32,
        /// The node it was placed on.
        node: u32,
    },
    /// A node's capacity is exceeded.
    OverCapacity {
        /// The overloaded node.
        node: u32,
        /// Total task weight placed there.
        load: f64,
        /// Its processor capacity.
        capacity: f64,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::LengthMismatch { got, expected } => {
                write!(f, "mapping has {got} entries for {expected} tasks")
            }
            MappingError::UnallocatedNode { task, node } => {
                write!(f, "task {task} mapped to unallocated node {node}")
            }
            MappingError::OverCapacity {
                node,
                load,
                capacity,
            } => write!(
                f,
                "node {node} holds task weight {load} over capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// Checks that `mapping` is a feasible `Γ` for `tg` on `alloc`.
pub fn validate_mapping(
    tg: &TaskGraph,
    alloc: &Allocation,
    mapping: &[u32],
) -> Result<(), MappingError> {
    if mapping.len() != tg.num_tasks() {
        return Err(MappingError::LengthMismatch {
            got: mapping.len(),
            expected: tg.num_tasks(),
        });
    }
    let mut load = vec![0.0f64; alloc.num_nodes()];
    for (t, &node) in mapping.iter().enumerate() {
        match alloc.slot_of(node) {
            Some(slot) => load[slot as usize] += tg.task_weight(t as u32),
            None => {
                return Err(MappingError::UnallocatedNode {
                    task: t as u32,
                    node,
                })
            }
        }
    }
    for (slot, &slot_load) in load.iter().enumerate() {
        let cap = f64::from(alloc.procs(slot));
        if !fits(cap, slot_load) {
            return Err(MappingError::OverCapacity {
                node: alloc.node(slot),
                load: slot_load,
                capacity: cap,
            });
        }
    }
    Ok(())
}

/// The one check a job must pass before it is mapped onto `alloc`:
/// the allocation holds a node, every task weight and every message
/// volume is finite and non-negative, and the total weight fits the
/// allocation's processors under the tolerance greedy's own
/// precondition uses ([`fits`]). The error names the reason. The
/// service runs it on every install and map request before anything
/// is journaled or mapped, and recovery replay runs it on every
/// install frame.
pub fn check_job(tg: &TaskGraph, alloc: &Allocation) -> Result<(), &'static str> {
    if alloc.num_nodes() == 0 {
        return Err("allocation holds no node");
    }
    let weights = (0..tg.num_tasks() as u32).map(|t| tg.task_weight(t));
    if weights.clone().any(|w| !(w >= 0.0 && w.is_finite())) {
        return Err("task weight is NaN, infinite or negative");
    }
    if tg.messages().any(|(_, _, c)| !(c >= 0.0 && c.is_finite())) {
        return Err("message volume is NaN, infinite or negative");
    }
    // Summed exactly as greedy sums it.
    let total_weight: f64 = weights.sum();
    if !fits(f64::from(alloc.total_procs()), total_weight) {
        return Err("total task weight exceeds the allocation's processors");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use umpa_topology::{AllocSpec, Allocation, MachineConfig};

    fn setup() -> (umpa_topology::Machine, Allocation, TaskGraph) {
        let m = MachineConfig::small(&[4, 4], 1, 2).build();
        let alloc = Allocation::generate(&m, &AllocSpec::contiguous(4));
        let tg = TaskGraph::from_messages(4, [(0, 1, 1.0), (2, 3, 1.0)], None);
        (m, alloc, tg)
    }

    #[test]
    fn job_check_refuses_empty_allocations_bad_weights_and_oversized_jobs() {
        let (m, alloc, tg) = setup();
        assert_eq!(check_job(&tg, &alloc), Ok(()));
        let empty = Allocation::from_nodes(&m, Vec::new(), 2);
        assert_eq!(check_job(&tg, &empty), Err("allocation holds no node"));
        for w in [f64::NAN, f64::INFINITY, -1.0] {
            let bad = TaskGraph::from_messages(4, [(0, 1, 1.0)], Some(vec![1.0, w, 1.0, 1.0]));
            assert_eq!(
                check_job(&bad, &alloc),
                Err("task weight is NaN, infinite or negative"),
                "weight {w}"
            );
            let bad = TaskGraph::from_messages(4, [(0, 1, 1.0), (2, 3, w)], None);
            assert_eq!(
                check_job(&bad, &alloc),
                Err("message volume is NaN, infinite or negative"),
                "volume {w}"
            );
        }
        // 4 nodes × 2 procs: 8 unit tasks fit, 9 do not.
        let ring = |n: u32| {
            TaskGraph::from_messages(n as usize, (0..n).map(|i| (i, (i + 1) % n, 1.0)), None)
        };
        assert_eq!(check_job(&ring(8), &alloc), Ok(()));
        assert_eq!(
            check_job(&ring(9), &alloc),
            Err("total task weight exceeds the allocation's processors")
        );
    }

    #[test]
    fn valid_mapping_passes() {
        let (_, alloc, tg) = setup();
        let mapping: Vec<u32> = (0..4).map(|t| alloc.node(t)).collect();
        assert_eq!(validate_mapping(&tg, &alloc, &mapping), Ok(()));
    }

    #[test]
    fn two_tasks_fit_a_two_proc_node() {
        let (_, alloc, tg) = setup();
        let mapping = vec![alloc.node(0), alloc.node(0), alloc.node(1), alloc.node(1)];
        assert_eq!(validate_mapping(&tg, &alloc, &mapping), Ok(()));
    }

    #[test]
    fn over_capacity_is_reported() {
        let (_, alloc, tg) = setup();
        let mapping = vec![alloc.node(0); 4];
        assert!(matches!(
            validate_mapping(&tg, &alloc, &mapping),
            Err(MappingError::OverCapacity { .. })
        ));
    }

    #[test]
    fn unallocated_node_is_reported() {
        let (m, alloc, tg) = setup();
        let outside = (0..m.num_nodes() as u32)
            .find(|&n| !alloc.contains(n))
            .unwrap();
        let mapping = vec![alloc.node(0), outside, alloc.node(1), alloc.node(2)];
        assert_eq!(
            validate_mapping(&tg, &alloc, &mapping),
            Err(MappingError::UnallocatedNode {
                task: 1,
                node: outside
            })
        );
    }

    #[test]
    fn mapping_error_composes_as_std_error() {
        // `?` through `Box<dyn Error>`: the conversion only exists
        // because MappingError implements std::error::Error + Display.
        fn check(tg: &TaskGraph, alloc: &Allocation) -> Result<(), Box<dyn std::error::Error>> {
            validate_mapping(tg, alloc, &[0, 1])?;
            Ok(())
        }
        let (_, alloc, tg) = setup();
        let err = check(&tg, &alloc).unwrap_err();
        assert_eq!(err.to_string(), "mapping has 2 entries for 4 tasks");
    }

    #[test]
    fn length_mismatch_is_reported() {
        let (_, alloc, tg) = setup();
        assert!(matches!(
            validate_mapping(&tg, &alloc, &[0, 1]),
            Err(MappingError::LengthMismatch { .. })
        ));
    }
}
