//! Epoch-stamped visit markers.
//!
//! The mapping algorithms run thousands of BFS traversals over the same
//! machine graph (one per `GETBESTNODE` call, one per refinement swap
//! probe). Clearing a `visited: Vec<bool>` between traversals would cost
//! `O(|Vm|)` each time and dominate the run. An [`EpochMarker`] instead
//! stamps entries with a generation counter: bumping the generation
//! invalidates every mark in `O(1)`.

/// Reusable `O(1)`-reset visited marker for ids `0..len`.
#[derive(Clone, Debug)]
pub struct EpochMarker {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Default for EpochMarker {
    /// A zero-capacity marker; grow it with
    /// [`ensure_len`](Self::ensure_len).
    fn default() -> Self {
        Self::new(0)
    }
}

impl EpochMarker {
    /// Creates a marker for ids `0..len`, all unmarked.
    pub fn new(len: usize) -> Self {
        Self {
            stamp: vec![0; len],
            epoch: 1,
        }
    }

    /// Number of addressable ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// Whether the marker has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Unmarks everything in `O(1)` (amortized; a wraparound triggers a
    /// full clear once every `u32::MAX` resets).
    pub fn reset(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
    }

    /// Grows the marker to cover ids `0..len` (never shrinks), keeping
    /// current marks. New ids arrive unmarked: stamps start at 0 and the
    /// epoch is always ≥ 1.
    pub fn ensure_len(&mut self, len: usize) {
        if len > self.stamp.len() {
            self.stamp.resize(len, 0);
        }
    }

    /// Test-only override of the internal epoch counter, so the
    /// `u32::MAX` wraparound path is reachable without four billion
    /// `reset` calls. Existing marks at the old epoch are invalidated
    /// unless the new epoch equals it.
    #[cfg(test)]
    fn force_epoch(&mut self, epoch: u32) {
        assert!(epoch >= 1, "epoch 0 would alias freshly zeroed stamps");
        self.epoch = epoch;
    }

    /// Marks `id`; returns whether it was already marked this epoch.
    #[inline]
    pub fn mark(&mut self, id: usize) -> bool {
        let was = self.stamp[id] == self.epoch;
        self.stamp[id] = self.epoch;
        was
    }

    /// Whether `id` is marked in the current epoch.
    #[inline]
    pub fn is_marked(&self, id: usize) -> bool {
        self.stamp[id] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut m = EpochMarker::new(10);
        assert!(!m.mark(3));
        assert!(m.mark(3));
        assert!(m.is_marked(3));
        assert!(!m.is_marked(4));
    }

    #[test]
    fn reset_clears_in_constant_time() {
        let mut m = EpochMarker::new(5);
        m.mark(0);
        m.mark(4);
        m.reset();
        assert!(!m.is_marked(0));
        assert!(!m.is_marked(4));
        assert!(!m.mark(0));
    }

    #[test]
    fn wraparound_triggers_the_full_clear() {
        // Regression for the documented u32::MAX wraparound: `reset`
        // must fall back to a full clear so stale stamps from ancient
        // epochs cannot alias the recycled epoch value 1.
        let mut m = EpochMarker::new(4);
        m.mark(0); // stamp[0] = 1 — the epoch value reused after wrap
        m.force_epoch(u32::MAX);
        m.mark(2); // stamp[2] = u32::MAX
        assert!(m.is_marked(2));
        m.reset(); // checked_add overflows → fill(0), epoch = 1
                   // Nothing marked: neither the pre-wrap stamp at u32::MAX nor
                   // the ancient stamp equal to the recycled epoch 1.
        for id in 0..4 {
            assert!(!m.is_marked(id), "stale stamp aliased id {id} after wrap");
        }
        // The marker remains fully functional post-wrap.
        assert!(!m.mark(0));
        assert!(m.mark(0));
        m.reset();
        assert!(!m.is_marked(0));
    }

    #[test]
    fn ensure_len_grows_without_false_marks() {
        let mut m = EpochMarker::new(2);
        m.mark(1);
        m.ensure_len(6);
        assert_eq!(m.len(), 6);
        assert!(m.is_marked(1));
        for id in 2..6 {
            assert!(!m.is_marked(id));
        }
        m.ensure_len(3); // never shrinks
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn survives_many_resets() {
        let mut m = EpochMarker::new(2);
        for _ in 0..10_000 {
            m.mark(1);
            m.reset();
        }
        assert!(!m.is_marked(1));
    }
}
