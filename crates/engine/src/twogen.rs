//! A bounded map with two generations: the one eviction policy of the
//! engine's [`ArtifactCache`](crate::ArtifactCache) and of `textpres
//! serve`'s parse memo.
//!
//! New entries go into the *newer* generation. When it is full, it
//! becomes the *older* one and the previous older generation is handed
//! back to the caller, who drops it after releasing whatever lock guards
//! the map — so the request that trips the bound never frees artifacts
//! while others wait on it. A hit in the older generation moves the entry
//! to the newer one, so an entry that keeps being read survives every
//! turnover, while one left unread for a whole generation is dropped.
//! This is recency without per-entry bookkeeping: no clock, no list, one
//! move per entry per generation.

use std::collections::HashMap;
use std::hash::Hash;

/// A map holding at most `max_entries` entries over two generations of
/// `max_entries / 2` each (`0` = unbounded; a bound of 1 rounds up to 2).
#[derive(Debug)]
pub struct TwoGenMap<K, V> {
    newer: HashMap<K, V>,
    older: HashMap<K, V>,
    /// Entries per generation; `0` = unbounded.
    generation: usize,
}

impl<K: Eq + Hash, V: Clone> TwoGenMap<K, V> {
    /// An empty map holding at most `max_entries` entries (`0` =
    /// unbounded).
    pub fn new(max_entries: usize) -> Self {
        TwoGenMap {
            newer: HashMap::new(),
            older: HashMap::new(),
            generation: if max_entries == 0 {
                0
            } else {
                (max_entries / 2).max(1)
            },
        }
    }

    /// The value for `key` if it is in the newer generation. Needs only a
    /// shared borrow, so it is the hit path under a read lock; a miss here
    /// must retry with [`TwoGenMap::get`], which also looks in the older
    /// generation.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.newer.get(key)
    }

    /// The value for `key`, moving it into the newer generation when it
    /// was found in the older one. The second component is the generation
    /// the move dropped (usually empty): drop it after releasing the lock.
    pub fn get(&mut self, key: &K) -> (Option<V>, HashMap<K, V>) {
        if let Some(v) = self.newer.get(key) {
            return (Some(v.clone()), HashMap::new());
        }
        match self.older.remove_entry(key) {
            Some((k, v)) => {
                let dropped = self.insert(k, v.clone());
                (Some(v), dropped)
            }
            None => (None, HashMap::new()),
        }
    }

    /// Inserts (or replaces) `key` in the newer generation. Returns the
    /// generation this dropped (usually empty): drop it after releasing
    /// the lock.
    #[must_use = "drop the returned generation after releasing the lock"]
    pub fn insert(&mut self, key: K, value: V) -> HashMap<K, V> {
        if let Some(v) = self.newer.get_mut(&key) {
            *v = value;
            return HashMap::new();
        }
        self.older.remove(&key);
        let dropped = if self.generation > 0 && self.newer.len() >= self.generation {
            std::mem::replace(&mut self.older, std::mem::take(&mut self.newer))
        } else {
            HashMap::new()
        };
        self.newer.insert(key, value);
        dropped
    }

    /// Entries held over both generations.
    pub fn len(&self) -> usize {
        self.newer.len() + self.older.len()
    }

    /// Whether both generations are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the map, returning what it held, to be dropped after the
    /// lock is released.
    #[must_use = "drop the returned entries after releasing the lock"]
    pub fn take(&mut self) -> Self {
        let generation = self.generation;
        std::mem::replace(
            self,
            TwoGenMap {
                newer: HashMap::new(),
                older: HashMap::new(),
                generation,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_newer_generation_turns_over() {
        let mut m = TwoGenMap::new(4);
        for k in 0..2 {
            assert!(m.insert(k, k).is_empty());
        }
        // The newer generation (2 entries) is full: it becomes the older.
        assert!(m.insert(2, 2).is_empty());
        assert_eq!(m.len(), 3);
        assert!(m.insert(3, 3).is_empty());
        // Both generations full: the oldest two go, in one piece.
        let dropped = m.insert(4, 4);
        let mut keys: Vec<_> = dropped.into_keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1]);
        assert_eq!(m.len(), 3);
        assert!(m.len() <= 4);
    }

    #[test]
    fn an_older_hit_moves_to_the_newer_generation() {
        let mut m = TwoGenMap::new(4);
        let _ = m.insert(0, 'a');
        let _ = m.insert(1, 'b');
        let _ = m.insert(2, 'c'); // 0 and 1 are now older
        assert_eq!(m.peek(&0), None, "peek sees only the newer generation");
        assert_eq!(m.get(&0).0, Some('a'));
        assert_eq!(m.peek(&0), Some(&'a'));
        // The next turnover drops 1 (never read), not 0.
        let dropped = m.insert(3, 'd');
        assert_eq!(dropped.into_keys().collect::<Vec<_>>(), vec![1]);
        assert_eq!(m.get(&0).0, Some('a'));
        assert_eq!(m.get(&1).0, None);
    }

    #[test]
    fn reinserting_a_key_does_not_grow_the_map() {
        let mut m = TwoGenMap::new(4);
        let _ = m.insert(0, 1);
        let _ = m.insert(1, 1);
        let _ = m.insert(2, 1); // 0 is older
        let _ = m.insert(0, 2); // moves, not duplicates
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&0).0, Some(2));
        let _ = m.insert(0, 3); // replaces in place
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn unbounded_map_never_drops() {
        let mut m = TwoGenMap::new(0);
        for k in 0..1000 {
            assert!(m.insert(k, k).is_empty());
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.take().len(), 1000);
        assert!(m.is_empty());
    }
}
