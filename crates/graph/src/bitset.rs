//! A fixed-capacity bit set over dense node ids.
//!
//! Used for visited sets in traversals and crawls, and frontier
//! bookkeeping. A `Vec<bool>` would work but costs 8x the memory.
//! Subgraph membership uses [`crate::NodeSet`]'s span-sized bit set
//! instead, so a small subgraph never pays for all `N` pages.

/// A fixed-capacity set of `usize` indices backed by 64-bit words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0u64; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// The exclusive upper bound on storable indices.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of indices currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no index is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `index`, returning `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "BitSet index {index} out of bounds");
        let (w, b) = (index / 64, index % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `index`, returning `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let (w, b) = (index / 64, index % 64);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= present as usize;
        present
    }

    /// Membership test; out-of-range indices are simply absent.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Removes every element, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Builds a set from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, indices: I) -> Self {
        let mut s = BitSet::new(capacity);
        for i in indices {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        assert!(!s.insert(63), "duplicate insert reports false");
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(199));
        assert!(!s.contains(1));
        assert!(!s.contains(10_000), "out of range is absent, not a panic");
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_ascending() {
        let s = BitSet::from_indices(300, [5usize, 128, 64, 0, 255]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 64, 128, 255]);
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::from_indices(10, 0..10);
        assert_eq!(s.len(), 10);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }
}
