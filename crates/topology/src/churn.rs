//! Machine/allocation churn events — the fault model of the
//! incremental-remap lifecycle.
//!
//! A long-lived mapping service does not see one healthy machine; it
//! sees a stream of *churn*: nodes die, the scheduler shrinks or grows
//! the allocation, links degrade or fail outright. [`ChurnEvent`] is
//! the closed vocabulary of those perturbations. Events are plain data
//! — generators (`umpa-matgen`) produce them, the remap engine
//! (`umpa-core`) applies them via [`ChurnEvent::apply`] and then
//! repairs the mapping locally instead of re-mapping from scratch.

use crate::alloc::Allocation;
use crate::machine::Machine;

/// One machine/allocation perturbation.
///
/// Node events mutate the [`Allocation`] (mappings store node ids, not
/// slots, so they survive the slot renumbering); link events mutate the
/// [`Machine`]'s failure mask and — when a link hard-fails or comes
/// back — invalidate its lazily-built distance oracle and route cache.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnEvent {
    /// A single compute node died and leaves the allocation.
    NodeFailed {
        /// The failed node id.
        node: u32,
    },
    /// The scheduler reclaimed a batch of nodes (allocation shrink).
    NodesRemoved {
        /// The reclaimed node ids.
        nodes: Vec<u32>,
    },
    /// The scheduler granted additional nodes (allocation growth).
    NodesAdded {
        /// The granted node ids.
        nodes: Vec<u32>,
    },
    /// A physical link's health changed: `factor` scales its bandwidth
    /// (`1.0` = fully restored, `0.0` = hard failure — static routes
    /// are recomputed to avoid the link).
    LinkDegraded {
        /// Physical link id (see [`crate::topology`] for the id space).
        link: u32,
        /// Remaining bandwidth fraction in `0.0..=1.0`.
        factor: f64,
    },
}

impl ChurnEvent {
    /// Applies the event to the machine/allocation pair.
    ///
    /// Idempotent and panic-free on stale events: failing a node that
    /// already left the allocation, or re-adding one that is already
    /// present, is a no-op. Added nodes receive the machine's uniform
    /// per-node processor count. Returns the number of allocation
    /// slots that changed (0 for link events).
    pub fn apply(&self, machine: &mut Machine, alloc: &mut Allocation) -> usize {
        match self {
            ChurnEvent::NodeFailed { node } => usize::from(alloc.remove_node(*node)),
            ChurnEvent::NodesRemoved { nodes } => nodes
                .iter()
                .map(|&n| usize::from(alloc.remove_node(n)))
                .sum(),
            ChurnEvent::NodesAdded { nodes } => {
                let procs = machine.procs_per_node();
                nodes
                    .iter()
                    .map(|&n| usize::from(alloc.add_node(n, procs)))
                    .sum()
            }
            ChurnEvent::LinkDegraded { link, factor } => {
                machine.degrade_link(*link, *factor);
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{AllocSpec, Allocation};
    use crate::machine::MachineConfig;

    #[test]
    fn node_events_mutate_the_allocation() {
        let mut m = MachineConfig::small(&[4, 4], 1, 2).build();
        let mut a = Allocation::generate(&m, &AllocSpec::contiguous(4));
        let victim = a.node(1);
        assert_eq!(
            ChurnEvent::NodeFailed { node: victim }.apply(&mut m, &mut a),
            1
        );
        assert!(!a.contains(victim));
        // Stale repeat: no-op.
        assert_eq!(
            ChurnEvent::NodeFailed { node: victim }.apply(&mut m, &mut a),
            0
        );
        assert_eq!(
            ChurnEvent::NodesAdded {
                nodes: vec![victim]
            }
            .apply(&mut m, &mut a),
            1
        );
        assert!(a.contains(victim));
        assert_eq!(a.procs(a.slot_of(victim).unwrap() as usize), 2);
    }

    #[test]
    fn link_events_mutate_the_machine() {
        let mut m = MachineConfig::small(&[4, 4], 1, 2).build();
        let mut a = Allocation::generate(&m, &AllocSpec::contiguous(4));
        let ev = ChurnEvent::LinkDegraded {
            link: 0,
            factor: 0.5,
        };
        assert_eq!(ev.apply(&mut m, &mut a), 0);
        assert!((m.link_factor(0) - 0.5).abs() < 1e-12);
    }
}
