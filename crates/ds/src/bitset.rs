//! A fixed-capacity bitset over `usize` indices.
//!
//! Used for allocated-node membership, BFS frontier membership and
//! partition boundary flags where a `Vec<bool>` would waste cache lines.

/// A fixed-capacity bitset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// Creates a bitset for indices `0..len`, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`; returns the previous value.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        let prev = self.words[w] >> b & 1 == 1;
        self.words[w] |= 1 << b;
        prev
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set bit indices of a [`FixedBitSet`].
pub struct Ones<'a> {
    set: &'a FixedBitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut bs = FixedBitSet::new(130);
        assert!(!bs.set(0));
        assert!(!bs.set(63));
        assert!(!bs.set(64));
        assert!(!bs.set(129));
        assert!(bs.set(64));
        assert!(bs.get(129));
        assert!(!bs.get(128));
        assert_eq!(bs.count_ones(), 4);
    }

    #[test]
    fn ones_iterates_ascending_across_words() {
        let mut bs = FixedBitSet::new(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            bs.set(i);
        }
        let got: Vec<usize> = bs.ones().collect();
        assert_eq!(got, vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn clear_resets_all() {
        let mut bs = FixedBitSet::new(70);
        bs.set(1);
        bs.set(69);
        bs.clear();
        assert_eq!(bs.count_ones(), 0);
        assert_eq!(bs.ones().next(), None);
    }

    #[test]
    fn empty_bitset_is_sane() {
        let bs = FixedBitSet::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.ones().count(), 0);
    }
}
