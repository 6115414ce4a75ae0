//! The predictor's search cache: finished destination searches, keyed
//! by exactly what a search reads, bounded in bytes and evicted by CLOCK.
//!
//! A search depends on the destination cluster, the destination AS (the
//! provider check), the destination prefix only when that prefix has a
//! per-prefix provider refinement, and which graph it ran on. Keying on
//! those lets every prefix homed on one cluster share one entry.
//!
//! Eviction is CLOCK (second chance): a hit sets the entry's reference
//! bit; to make room, the hand sweeps the slots, clearing set bits and
//! evicting the first entry whose bit is already clear. A caller that
//! scans more destinations than fit therefore evicts one entry per miss
//! and never empties the cache, and an entry re-read between sweeps
//! stays resident.

use crate::search::SearchResult;
use crate::tables::IdMap;
use inano_model::{Asn, ClusterId, PrefixId};
use std::sync::Arc;

/// Byte budget of one predictor's search cache. At experiment scale
/// (2,480 nodes per graph, about 10 KB per entry) this is about 3,300
/// searches; every destination of the scenario on both graphs takes
/// 1,780 (2,119 canonical prefixes share 890 keys per graph).
pub const SEARCH_CACHE_BYTES: usize = 32 << 20;

/// What a destination-rooted search reads besides the graph itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SearchKey {
    pub dst_cluster: ClusterId,
    pub dst_as: Asn,
    /// The destination prefix, only when it carries a per-prefix
    /// provider refinement the search consults.
    pub refined_prefix: Option<PrefixId>,
    /// Searched over the relaxed (reversed-link) graph.
    pub relaxed: bool,
}

/// Search-cache counters of one predictor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Searches run (cache misses that completed a search).
    pub searches: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently charged to cached entries.
    pub bytes: u64,
}

impl SearchStats {
    /// Add another predictor's counters (for totals across predictor
    /// generations). `bytes` is a level, not a count, and is kept.
    pub fn fold(&mut self, other: SearchStats) {
        self.searches += other.searches;
        self.hits += other.hits;
        self.evictions += other.evictions;
    }
}

struct Slot {
    key: SearchKey,
    result: Arc<SearchResult>,
    bytes: usize,
    referenced: bool,
}

/// A byte-bounded CLOCK cache of search results.
pub struct SearchCache {
    map: IdMap<SearchKey, usize>,
    slots: Vec<Option<Slot>>,
    /// Indices of emptied slots, reused before the slot vector grows.
    free: Vec<usize>,
    hand: usize,
    budget: usize,
    stats: SearchStats,
}

/// Bytes charged per entry on top of the result's own heap: the
/// result header, the slot and the index entry.
const ENTRY_OVERHEAD: usize = std::mem::size_of::<SearchResult>()
    + std::mem::size_of::<Option<Slot>>()
    + 2 * std::mem::size_of::<(SearchKey, usize)>();

impl SearchCache {
    pub fn new(budget: usize) -> SearchCache {
        SearchCache {
            map: IdMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            budget,
            stats: SearchStats::default(),
        }
    }

    /// Look a search up, marking it recently used.
    pub fn get(&mut self, key: &SearchKey) -> Option<Arc<SearchResult>> {
        let &idx = self.map.get(key)?;
        let slot = self.slots[idx].as_mut().expect("indexed slots are full");
        slot.referenced = true;
        self.stats.hits += 1;
        Some(Arc::clone(&slot.result))
    }

    /// Record a finished search and cache it, evicting as needed.
    /// Returns the cached result: when another caller cached the same
    /// key first, theirs (the two are identical).
    pub fn insert(&mut self, key: SearchKey, result: Arc<SearchResult>) -> Arc<SearchResult> {
        self.stats.searches += 1;
        if let Some(&idx) = self.map.get(&key) {
            let slot = self.slots[idx].as_ref().expect("indexed slots are full");
            return Arc::clone(&slot.result);
        }
        let bytes = result.heap_bytes() + ENTRY_OVERHEAD;
        if bytes > self.budget {
            return result; // could never fit; serve it uncached
        }
        while self.stats.bytes as usize + bytes > self.budget {
            self.evict_one();
        }
        let slot = Slot {
            key,
            result: Arc::clone(&result),
            bytes,
            referenced: false,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(slot);
                idx
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.stats.bytes += bytes as u64;
        result
    }

    /// Advance the hand to the first entry without a second chance and
    /// evict it. Only called while some entry is resident.
    fn evict_one(&mut self) {
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let idx = self.hand;
            self.hand += 1;
            let Some(slot) = self.slots[idx].as_mut() else {
                continue;
            };
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            let slot = self.slots[idx].take().expect("checked above");
            self.map.remove(&slot.key);
            self.free.push(idx);
            self.stats.bytes -= slot.bytes as u64;
            self.stats.evictions += 1;
            return;
        }
    }

    /// Entries currently cached.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn stats(&self) -> SearchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(c: u32) -> SearchKey {
        SearchKey {
            dst_cluster: ClusterId::new(c),
            dst_as: Asn::new(c),
            refined_prefix: None,
            relaxed: false,
        }
    }

    fn entry() -> Arc<SearchResult> {
        Arc::new(SearchResult::unreached(ClusterId::new(0), 100))
    }

    #[test]
    fn evicts_one_entry_per_miss_and_honours_second_chances() {
        let per_entry = entry().heap_bytes() + ENTRY_OVERHEAD;
        let mut cache = SearchCache::new(4 * per_entry);
        for c in 0..4 {
            cache.insert(key(c), entry());
        }
        assert_eq!(cache.len(), 4);
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(4), entry());
        // Key 0 had its second chance; key 1 was the oldest without one.
        assert_eq!(cache.len(), 4);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(0)).is_some());
        let s = cache.stats();
        assert_eq!((s.searches, s.hits, s.evictions), (5, 2, 1));
        assert_eq!(s.bytes as usize, 4 * per_entry);
    }

    #[test]
    fn oversized_results_are_served_but_not_cached() {
        let mut cache = SearchCache::new(16);
        let r = cache.insert(key(1), entry());
        assert!(!r.reached(0));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn a_racing_insert_keeps_the_first_result() {
        let mut cache = SearchCache::new(1 << 20);
        let first = cache.insert(key(1), entry());
        let second = cache.insert(key(1), entry());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }
}
