//! Flat slot→item buckets with O(1) move and zero steady-state
//! allocation.
//!
//! The refinement algorithms maintain "which tasks live on each
//! allocation slot" and move tasks between slots thousands of times per
//! run. The obvious `Vec<Vec<u32>>` representation allocates one vector
//! per slot per run and pays O(k) `retain` on every departure. A
//! [`SlotBuckets`] stores the same relation as three flat arrays — an
//! intrusive doubly-linked list per slot over a shared `next`/`prev`
//! pool — so `insert`, `remove` and `move` are O(1), iteration order
//! matches `Vec::push` order (append at tail), and a warm instance is
//! reused across runs without touching the allocator.

/// Sentinel for "no item / no slot".
const NONE: u32 = u32::MAX;

/// Buckets of items `0..num_items` over slots `0..num_slots`.
///
/// Each item lives in at most one bucket. Iteration yields items in
/// insertion (tail-append) order, matching the `Vec<Vec<_>>` semantics
/// the mapping algorithms were written against.
///
/// # Examples
///
/// ```
/// use umpa_ds::SlotBuckets;
/// let mut b = SlotBuckets::new();
/// b.reset(2, 4);
/// b.insert(0, 3);
/// b.insert(0, 1);
/// b.insert(1, 2);
/// assert_eq!(b.iter(0).collect::<Vec<_>>(), vec![3, 1]);
/// b.remove(0, 3);
/// b.insert(1, 3);
/// assert_eq!(b.iter(1).collect::<Vec<_>>(), vec![2, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SlotBuckets {
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Slot currently holding each item (`NONE` = unplaced).
    slot_of: Vec<u32>,
}

impl SlotBuckets {
    /// Creates an empty registry; call [`reset`](Self::reset) to size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all buckets and sizes the registry for `num_slots` slots
    /// and `num_items` items, reusing allocations when large enough.
    /// O(num_slots + num_items), allocation-free once warm.
    pub fn reset(&mut self, num_slots: usize, num_items: usize) {
        self.head.clear();
        self.head.resize(num_slots, NONE);
        self.tail.clear();
        self.tail.resize(num_slots, NONE);
        self.next.clear();
        self.next.resize(num_items, NONE);
        self.prev.clear();
        self.prev.resize(num_items, NONE);
        self.slot_of.clear();
        self.slot_of.resize(num_items, NONE);
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.head.len()
    }

    /// Number of addressable items.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.slot_of.len()
    }

    /// The slot currently holding `item`, if any.
    #[inline]
    pub fn slot_of(&self, item: u32) -> Option<u32> {
        let s = self.slot_of[item as usize];
        (s != NONE).then_some(s)
    }

    /// Appends `item` to `slot`'s bucket. Panics if already placed.
    pub fn insert(&mut self, slot: usize, item: u32) {
        let i = item as usize;
        assert_eq!(
            self.slot_of[i], NONE,
            "SlotBuckets::insert: item {item} already placed"
        );
        self.slot_of[i] = slot as u32;
        self.next[i] = NONE;
        let t = self.tail[slot];
        self.prev[i] = t;
        if t == NONE {
            self.head[slot] = item;
        } else {
            self.next[t as usize] = item;
        }
        self.tail[slot] = item;
    }

    /// Unlinks `item` from `slot`'s bucket in O(1). Panics if `item` is
    /// not in that bucket.
    pub fn remove(&mut self, slot: usize, item: u32) {
        let i = item as usize;
        assert_eq!(
            self.slot_of[i], slot as u32,
            "SlotBuckets::remove: item {item} not on slot {slot}"
        );
        let (p, n) = (self.prev[i], self.next[i]);
        if p == NONE {
            self.head[slot] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail[slot] = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.slot_of[i] = NONE;
        self.next[i] = NONE;
        self.prev[i] = NONE;
    }

    /// Moves `item` from `from` to the tail of `to` in O(1).
    pub fn relocate(&mut self, from: usize, to: usize, item: u32) {
        self.remove(from, item);
        self.insert(to, item);
    }

    /// Items in `slot`, in insertion order.
    pub fn iter(&self, slot: usize) -> SlotIter<'_> {
        SlotIter {
            buckets: self,
            at: self.head[slot],
        }
    }
}

/// Iterator over one bucket's items.
pub struct SlotIter<'a> {
    buckets: &'a SlotBuckets,
    at: u32,
}

impl Iterator for SlotIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.at == NONE {
            return None;
        }
        let item = self.at;
        self.at = self.buckets.next[item as usize];
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_preserves_push_order() {
        let mut b = SlotBuckets::new();
        b.reset(3, 6);
        for item in [5, 0, 3] {
            b.insert(1, item);
        }
        assert_eq!(b.iter(1).collect::<Vec<_>>(), vec![5, 0, 3]);
        assert_eq!(b.iter(0).count(), 0);
    }

    #[test]
    fn remove_head_middle_tail() {
        let mut b = SlotBuckets::new();
        b.reset(1, 5);
        for item in 0..5 {
            b.insert(0, item);
        }
        b.remove(0, 0); // head
        b.remove(0, 2); // middle
        b.remove(0, 4); // tail
        assert_eq!(b.iter(0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.slot_of(0), None);
        assert_eq!(b.slot_of(1), Some(0));
    }

    #[test]
    fn relocate_appends_at_destination_tail() {
        let mut b = SlotBuckets::new();
        b.reset(2, 4);
        b.insert(0, 0);
        b.insert(0, 1);
        b.insert(1, 2);
        b.relocate(0, 1, 0);
        assert_eq!(b.iter(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(b.iter(1).collect::<Vec<_>>(), vec![2, 0]);
    }

    #[test]
    fn reset_reuses_and_resizes() {
        let mut b = SlotBuckets::new();
        b.reset(2, 3);
        b.insert(0, 2);
        b.reset(4, 8);
        assert_eq!(b.num_slots(), 4);
        assert_eq!(b.num_items(), 8);
        assert_eq!(b.slot_of(2), None);
        b.insert(3, 7);
        assert_eq!(b.iter(3).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_insert_panics() {
        let mut b = SlotBuckets::new();
        b.reset(2, 2);
        b.insert(0, 1);
        b.insert(1, 1);
    }

    #[test]
    fn model_check_against_vec_of_vecs() {
        // Deterministic op soup vs the reference representation.
        let (slots, items) = (4usize, 16u32);
        let mut b = SlotBuckets::new();
        b.reset(slots, items as usize);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); slots];
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..2000 {
            let item = (rnd() as u32) % items;
            let to = rnd() % slots;
            match b.slot_of(item) {
                None => {
                    b.insert(to, item);
                    model[to].push(item);
                }
                Some(from) => {
                    b.relocate(from as usize, to, item);
                    model[from as usize].retain(|&x| x != item);
                    model[to].push(item);
                }
            }
            for (s, expected) in model.iter().enumerate() {
                assert_eq!(b.iter(s).collect::<Vec<_>>(), *expected);
            }
        }
    }
}
