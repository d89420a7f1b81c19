//! An O(1) least-recently-used map.
//!
//! `HashMap` for lookup plus an intrusive doubly-linked list threaded
//! through a slot vector for recency order — no allocation per touch, no
//! linear scans on eviction. One instance backs each shard of
//! [`crate::cache::ShardedCache`].

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded map evicting the least-recently-used entry on overflow.
pub struct Lru<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Lru {
            capacity,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// [`Self::get`] with mutable access to the value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.slots[idx].as_mut().map(|s| &mut s.value)
    }

    /// Inserts (or replaces) `key`, marking it most recently used.
    /// Returns the evicted least-recently-used pair when the insert
    /// pushed the cache over capacity.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].as_mut().expect("live slot").value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.detach(lru);
            let slot = self.slots[lru].take().expect("live tail");
            self.map.remove(&slot.key);
            self.free.push(lru);
            evicted = Some((slot.key, slot.value));
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
            None => {
                self.slots.push(Some(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                }));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        let slot = self.slots[idx].take().expect("live slot");
        self.free.push(idx);
        Some(slot.value)
    }

    /// Iterates entries from most to least recently used (does not touch
    /// recency). The snapshotter uses this to persist the hottest
    /// entries first.
    pub fn iter(&self) -> LruIter<'_, K, V> {
        LruIter {
            lru: self,
            next: self.head,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slots[idx].as_ref().expect("live slot");
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev].as_mut().expect("linked").next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].as_mut().expect("linked").prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let s = self.slots[idx].as_mut().expect("live slot");
        s.prev = NIL;
        s.next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let s = self.slots[idx].as_mut().expect("live slot");
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("linked").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Recency-ordered iterator over an [`Lru`] (most recent first).
pub struct LruIter<'a, K, V> {
    lru: &'a Lru<K, V>,
    next: usize,
}

impl<'a, K, V> Iterator for LruIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == NIL {
            return None;
        }
        let slot = self.lru.slots[self.next].as_ref().expect("linked slot");
        self.next = slot.next;
        Some((&slot.key, &slot.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_walks_most_recent_first() {
        let mut lru = Lru::new(3);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("c", 3);
        lru.get(&"a"); // a becomes MRU
        let order: Vec<&str> = lru.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec!["a", "c", "b"]);
        assert!(Lru::<u32, u32>::new(2).iter().next().is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        assert!(lru.insert("a", 1).is_none());
        assert!(lru.insert("b", 2).is_none());
        // Touch "a" so "b" becomes LRU.
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("c", 3).unwrap();
        assert_eq!(evicted, ("b", 2));
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&"b").is_none());
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
    }

    #[test]
    fn replace_does_not_evict() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert!(lru.insert("a", 10).is_none());
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"a"), Some(&10));
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut lru = Lru::new(3);
        lru.insert(1, "x");
        lru.insert(2, "y");
        assert_eq!(lru.remove(&1), Some("x"));
        assert!(lru.remove(&1).is_none());
        assert_eq!(lru.len(), 1);
        lru.insert(3, "z");
        lru.insert(4, "w");
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&2), Some(&"y"));
    }

    #[test]
    fn capacity_one() {
        let mut lru = Lru::new(1);
        lru.insert(1, 1);
        assert_eq!(lru.insert(2, 2), Some((1, 1)));
        assert_eq!(lru.get(&2), Some(&2));
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        assert!(lru.insert(1, 1).is_none());
    }

    /// Exercise the link maintenance against a naive model.
    #[test]
    fn matches_naive_model() {
        let mut lru = Lru::new(4);
        let mut model: Vec<(u32, u32)> = Vec::new(); // front = most recent
        let mut x = 123456789u64;
        for _ in 0..5000 {
            // Simple LCG so the test is deterministic without rand.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 7) as u32;
            let op = (x >> 60) % 3;
            match op {
                0 => {
                    let got = lru.get(&key).copied();
                    let want = model.iter().position(|&(k, _)| k == key).map(|i| {
                        let pair = model.remove(i);
                        model.insert(0, pair);
                        pair.1
                    });
                    assert_eq!(got, want);
                }
                1 => {
                    let value = (x >> 16) as u32;
                    let evicted = lru.insert(key, value);
                    if let Some(i) = model.iter().position(|&(k, _)| k == key) {
                        model.remove(i);
                        model.insert(0, (key, value));
                        assert!(evicted.is_none());
                    } else {
                        model.insert(0, (key, value));
                        if model.len() > 4 {
                            let lru_pair = model.pop().unwrap();
                            assert_eq!(evicted, Some(lru_pair));
                        } else {
                            assert!(evicted.is_none());
                        }
                    }
                }
                _ => {
                    let got = lru.remove(&key);
                    let want = model
                        .iter()
                        .position(|&(k, _)| k == key)
                        .map(|i| model.remove(i).1);
                    assert_eq!(got, want);
                }
            }
            assert_eq!(lru.len(), model.len());
        }
    }
}
