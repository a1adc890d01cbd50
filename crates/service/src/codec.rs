//! The byte codec of the durable state (DESIGN.md §18): one [`Wire`]
//! trait that writes a value and reads it back from the front of a
//! byte slice. Integers are little-endian, an `f64` travels as its raw
//! bits (a decode is bit-identical), an `Option` as a `0`/`1` tag byte,
//! tuples and structs as their fields in order, and lists as a `u32`
//! count (a `u64` for a graph's and a mapping's task-indexed lists)
//! followed by the items.
//!
//! Each record's encoding is written once: a struct lists its fields
//! once, in [`wire_struct!`], which expands both directions; a tagged
//! enum is one impl with `put` and `take` side by side. The codec
//! checks only what decoding needs (enough bytes, known tags, task ids
//! in range); value rules stay with their owners (`check_job`,
//! `Machine::check_link_event`, `FaultSnapshot::is_valid_for`,
//! recovery's snapshot validation).

use std::borrow::Cow;
use std::sync::Arc;

use umpa_core::{ChurnEvent, RemapDrift};
use umpa_graph::TaskGraph;
use umpa_topology::FaultSnapshot;

/// A value with a byte encoding.
pub(crate) trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads a value from the front of `bytes` and advances past it;
    /// `None` when the bytes are too short or malformed.
    fn take(bytes: &mut &[u8]) -> Option<Self>;

    /// The encoding of `self` as a new buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decodes a value spanning all of `bytes` (trailing bytes fail).
    fn from_bytes(mut bytes: &[u8]) -> Option<Self> {
        let value = Self::take(&mut bytes)?;
        bytes.is_empty().then_some(value)
    }
}

/// `N` raw bytes (a file magic).
impl<const N: usize> Wire for [u8; N] {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        let (head, rest) = bytes.split_first_chunk::<N>()?;
        *bytes = rest;
        Some(*head)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                self.to_le_bytes().put(out);
            }

            fn take(bytes: &mut &[u8]) -> Option<Self> {
                Wire::take(bytes).map(<$t>::from_le_bytes)
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        u64::take(bytes).map(f64::from_bits)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => 0u8.put(out),
            Some(v) => {
                1u8.put(out);
                v.put(out);
            }
        }
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        match u8::take(bytes)? {
            0 => Some(None),
            1 => T::take(bytes).map(Some),
            _ => None,
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[allow(non_snake_case)]
            fn put(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $($name.put(out);)+
            }

            fn take(bytes: &mut &[u8]) -> Option<Self> {
                Some(($($name::take(bytes)?,)+))
            }
        }
    };
}

wire_tuple!(A, B);
wire_tuple!(A, B, C);

/// Writes `items` after their count: a `u64` when `WIDE`, else a `u32`.
fn put_list<const WIDE: bool, T: Wire>(items: &[T], out: &mut Vec<u8>) {
    match WIDE {
        true => (items.len() as u64).put(out),
        false => (items.len() as u32).put(out),
    }
    items.iter().for_each(|item| item.put(out));
}

fn take_list<const WIDE: bool, T: Wire>(bytes: &mut &[u8]) -> Option<Vec<T>> {
    let count = match WIDE {
        true => u64::take(bytes)?,
        false => u64::from(u32::take(bytes)?),
    };
    // Reserve no more than the input could hold, so a corrupt count
    // fails on the missing bytes instead of allocating for them.
    let room = bytes.len() / size_of::<T>().max(1);
    let mut items = Vec::with_capacity(usize::try_from(count).ok()?.min(room));
    for _ in 0..count {
        items.push(T::take(bytes)?);
    }
    Some(items)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_list::<false, T>(self, out);
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        take_list::<false, T>(bytes)
    }
}

/// Borrowed when encoding, so writing a record copies nothing.
impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    fn put(&self, out: &mut Vec<u8>) {
        put_list::<false, T>(self, out);
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        take_list::<false, T>(bytes).map(Cow::Owned)
    }
}

/// A task-indexed list (a mapping), counted with a `u64`.
pub(crate) struct PerTask<'a, T: Clone>(pub Cow<'a, [T]>);

impl<T: Wire + Clone> Wire for PerTask<'_, T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_list::<true, T>(&self.0, out);
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        take_list::<true, T>(bytes).map(|v| PerTask(Cow::Owned(v)))
    }
}

/// Implements [`Wire`] for a struct from one list of its fields in
/// wire order: `put` writes them in that order, and `take` reads them
/// into a struct literal, so the compiler refuses a list missing one.
macro_rules! wire_struct {
    ($name:ident $(<$lt:lifetime>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$lt>)? $crate::codec::Wire for $name $(<$lt>)? {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::codec::Wire::put(&self.$field, out);)+
            }

            fn take(bytes: &mut &[u8]) -> Option<Self> {
                Some($name { $($field: $crate::codec::Wire::take(bytes)?),+ })
            }
        }
    };
}

pub(crate) use wire_struct;

wire_struct! { RemapDrift { repairs, displaced_total, wh_delta_total, wh_last } }

const EV_NODE_FAILED: u8 = 0;
const EV_NODES_REMOVED: u8 = 1;
const EV_NODES_ADDED: u8 = 2;
const EV_LINK_DEGRADED: u8 = 3;

impl Wire for ChurnEvent {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ChurnEvent::NodeFailed { node } => (EV_NODE_FAILED, *node).put(out),
            ChurnEvent::NodesRemoved { nodes } => {
                EV_NODES_REMOVED.put(out);
                nodes.put(out);
            }
            ChurnEvent::NodesAdded { nodes } => {
                EV_NODES_ADDED.put(out);
                nodes.put(out);
            }
            ChurnEvent::LinkDegraded { link, factor } => {
                (EV_LINK_DEGRADED, *link, *factor).put(out);
            }
        }
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        match u8::take(bytes)? {
            EV_NODE_FAILED => u32::take(bytes).map(|node| ChurnEvent::NodeFailed { node }),
            EV_NODES_REMOVED => Vec::take(bytes).map(|nodes| ChurnEvent::NodesRemoved { nodes }),
            EV_NODES_ADDED => Vec::take(bytes).map(|nodes| ChurnEvent::NodesAdded { nodes }),
            EV_LINK_DEGRADED => <(u32, f64)>::take(bytes)
                .map(|(link, factor)| ChurnEvent::LinkDegraded { link, factor }),
            _ => None,
        }
    }
}

/// The per-task weights, then the directed messages in CSR iteration
/// order. [`TaskGraph::from_messages`] rebuilds the CSR arrays
/// bit-exactly, since rows are dedup-merged and sorted on build and the
/// written order is already sorted.
impl Wire for Arc<TaskGraph> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.num_tasks() as u64).put(out);
        (0..self.num_tasks() as u32).for_each(|t| self.task_weight(t).put(out));
        (self.num_messages() as u64).put(out);
        self.messages().for_each(|m| m.put(out));
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        let weights: Vec<f64> = take_list::<true, _>(bytes)?;
        let messages: Vec<(u32, u32, f64)> = take_list::<true, _>(bytes)?;
        // Graph construction needs task ids that fit a `u32` and
        // endpoints that name a task.
        let n = weights.len();
        let named = |t: u32| (t as usize) < n;
        let fit =
            u32::try_from(n).is_ok() && messages.iter().all(|&(s, t, _)| named(s) && named(t));
        fit.then(|| Arc::new(TaskGraph::from_messages(n, messages, Some(weights))))
    }
}

/// The degraded links only: `hard_failed` counts their zero factors and
/// is recomputed on decode, so the two cannot disagree.
impl Wire for FaultSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        self.degraded.put(out);
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        let degraded: Vec<(u32, f64)> = Vec::take(bytes)?;
        let hard_failed = degraded.iter().filter(|e| e.1 == 0.0).count();
        Some(FaultSnapshot {
            degraded,
            hard_failed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalRecord;
    use crate::recovery::Snapshot;
    use crate::service::{ResidentJob, SharedState};
    use crate::supervisor::Supervisor;
    use umpa_core::MapperScratch;
    use umpa_topology::{Allocation, MachineConfig};

    /// Encode, decode and encode again give the same bytes.
    fn round_trips<T: Wire>(value: &T) {
        let bytes = value.to_bytes();
        let decoded = T::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.to_bytes(), bytes);
        // A cut anywhere, or a trailing byte, is a decode failure.
        for cut in 0..bytes.len() {
            assert!(T::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut longer = bytes;
        longer.push(0);
        assert!(T::from_bytes(&longer).is_none());
    }

    /// Every record type round-trips, including values the checks
    /// refuse (NaN, negative and 1.0 factors, link `u32::MAX`, empty
    /// node lists, a 0-task graph, negative weights and volumes): the
    /// codec only carries values, and the checks live elsewhere.
    #[test]
    fn every_record_round_trips_including_refused_values() {
        let events = [
            ChurnEvent::NodeFailed { node: u32::MAX },
            ChurnEvent::NodesRemoved { nodes: vec![] },
            ChurnEvent::NodesAdded {
                nodes: vec![3, 1, 3],
            },
            ChurnEvent::LinkDegraded {
                link: u32::MAX,
                factor: f64::NAN,
            },
            ChurnEvent::LinkDegraded {
                link: 0,
                factor: -0.5,
            },
            ChurnEvent::LinkDegraded {
                link: 1,
                factor: 1.0,
            },
        ];
        let empty = Arc::new(TaskGraph::from_messages(0, [], Some(vec![])));
        let odd = Arc::new(TaskGraph::from_messages(
            3,
            [(0, 1, -2.0), (2, 0, f64::NAN), (1, 2, f64::INFINITY)],
            Some(vec![-1.0, f64::INFINITY, 0.5]),
        ));
        for rec in [
            JournalRecord::Install(Arc::clone(&empty)),
            JournalRecord::Install(Arc::clone(&odd)),
            JournalRecord::Churn(Cow::Borrowed(&events)),
            JournalRecord::Churn(Cow::Borrowed(&[])),
            JournalRecord::Polish,
        ] {
            round_trips(&rec);
        }
        round_trips(&FaultSnapshot {
            degraded: vec![(u32::MAX, f64::NAN), (2, -1.0), (1, 1.0), (1, 0.0)],
            hard_failed: 1,
        });

        let machine = MachineConfig::small(&[4, 4], 2, 2).build();
        let mut alloc = Allocation::from_nodes(&machine, vec![5, 0, 9], 2);
        alloc.set_procs(vec![2, 0, u32::MAX]);
        let job = |tasks: &Arc<TaskGraph>, mapping: Vec<u32>| ResidentJob {
            tasks: Arc::clone(tasks),
            mapping,
            drift: RemapDrift {
                repairs: u64::MAX,
                displaced_total: 3,
                wh_delta_total: f64::NAN,
                wh_last: -1.5,
            },
            supervisor: Supervisor::restored(7),
            scratch: MapperScratch::new(),
        };
        for job in [
            None,
            Some(job(&empty, vec![])),
            Some(job(&odd, vec![u32::MAX, 40, 0])),
            // A mapping whose length is not the task count.
            Some(job(&odd, vec![1])),
        ] {
            let st = SharedState {
                machine: machine.clone(),
                alloc: alloc.clone(),
                job,
            };
            round_trips(&Snapshot::of(&st, 42));
        }
    }

    #[test]
    fn fault_snapshot_round_trips_bit_identical_and_rejects_corruption() {
        let mut m = MachineConfig::small(&[4, 4], 2, 2).build();
        m.degrade_link(3, 0.25);
        m.degrade_link(9, 0.0);
        let snap = m.fault_snapshot();

        let bytes = snap.to_bytes();
        let decoded = FaultSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(decoded, snap);
        for (&(la, fa), &(lb, fb)) in decoded.degraded.iter().zip(&snap.degraded) {
            assert_eq!(la, lb);
            assert_eq!(fa.to_bits(), fb.to_bits());
        }

        // Truncation is a decode failure, not a panic. A factor flipped
        // to a NaN pattern decodes, since the codec carries any value,
        // but the machine refuses the snapshot and stays untouched.
        assert!(FaultSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut bad = bytes.clone();
        let factor_at = 4 + 4; // first record's factor bits
        bad[factor_at..factor_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let nan = FaultSnapshot::from_bytes(&bad).expect("decodes");
        let mut fresh = MachineConfig::small(&[4, 4], 2, 2).build();
        assert!(!fresh.apply_fault_snapshot(&nan));
        assert_eq!(fresh.fault_snapshot(), FaultSnapshot::default());
    }
}
