//! A small set-associative LRU cache simulator.
//!
//! Used twice: (i) the host CPU's L1/L2 hierarchy that prices the sequential
//! baseline's memory accesses, and (ii) the device's texture cache when a
//! model places read-only irregular data in texture memory.

/// One set-associative LRU cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<u64>>, // per-set tag list, most-recent first
    ways: usize,
    line_bytes: u64,
    set_mask: u64,
    set_shift: u32,
    /// Hits observed so far.
    pub hits: u64,
    /// Misses observed so far.
    pub misses: u64,
}

impl Cache {
    /// Build a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines. Capacity is rounded down to a power-of-two set
    /// count (minimum one set).
    pub fn new(capacity_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        let lines = (capacity_bytes / line_bytes).max(1);
        let mut num_sets = (lines / ways).max(1);
        // round down to power of two for cheap indexing
        num_sets = 1 << (63 - (num_sets as u64).leading_zeros());
        Cache {
            sets: vec![Vec::with_capacity(ways as usize); num_sets as usize],
            ways: ways as usize,
            line_bytes: line_bytes as u64,
            set_mask: (num_sets - 1) as u64,
            set_shift: line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Access byte address `addr`; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tags = &mut self.sets[set];
        // A hit on the most-recently-used way leaves the order as it is.
        if tags.first() == Some(&line) {
            self.hits += 1;
            return true;
        }
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            // move to MRU position
            tags[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            if tags.len() == self.ways {
                tags.pop();
            }
            tags.insert(0, line);
            self.misses += 1;
            false
        }
    }

    /// Hit rate over all accesses so far (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drop all contents, keep statistics.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Snapshot the cumulative hit/miss counters as a
    /// [`TraceEvent::CacheCounters`] labelled `cache`.
    ///
    /// [`TraceEvent::CacheCounters`]: crate::trace::TraceEvent::CacheCounters
    pub fn trace_event(&self, cache: &str) -> crate::trace::TraceEvent {
        crate::trace::TraceEvent::CacheCounters { cache: cache.to_string(), hits: self.hits, misses: self.misses }
    }
}

/// Two-level hierarchy with per-level hit costs; returns cycles per access.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // levels + their per-hit costs
pub struct Hierarchy {
    pub l1: Cache,
    pub l2: Cache,
    pub l1_hit_cycles: f64,
    pub l2_hit_cycles: f64,
    pub mem_cycles: f64,
}

impl Hierarchy {
    /// Assemble a hierarchy from its levels and per-level hit costs.
    pub fn new(l1: Cache, l2: Cache, l1_hit_cycles: f64, l2_hit_cycles: f64, mem_cycles: f64) -> Self {
        Hierarchy { l1, l2, l1_hit_cycles, l2_hit_cycles, mem_cycles }
    }

    /// Price one access to byte address `addr`.
    #[inline]
    pub fn access_cycles(&mut self, addr: u64) -> f64 {
        if self.l1.access(addr) {
            self.l1_hit_cycles
        } else if self.l2.access(addr) {
            self.l2_hit_cycles
        } else {
            self.mem_cycles
        }
    }

    /// Empty both levels (e.g. between benchmark runs), keeping statistics.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reuse_hits() {
        let mut c = Cache::new(1024, 4, 64);
        assert!(!c.access(0));
        assert!(c.access(8)); // same line
        assert!(c.access(63));
        assert!(!c.access(64)); // next line
        assert_eq!(c.misses, 2);
        assert_eq!(c.hits, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set of 2 ways: lines A, B fill it; touching A then adding C evicts B.
        let mut c = Cache::new(128, 2, 64);
        assert_eq!(c.sets.len(), 1);
        assert!(!c.access(0)); // A
        assert!(!c.access(64)); // B
        assert!(c.access(0)); // A -> MRU
        assert!(!c.access(128)); // C evicts B
        assert!(c.access(0)); // A still present
        assert!(!c.access(64)); // B gone
    }

    #[test]
    fn capacity_miss_on_large_stream() {
        let mut c = Cache::new(4096, 8, 64);
        // stream 1 MiB twice: second pass still misses (capacity)
        for _ in 0..2 {
            for a in (0..1_048_576u64).step_by(64) {
                c.access(a);
            }
        }
        assert!(c.hit_rate() < 0.01);
    }

    #[test]
    fn small_working_set_hits_on_second_pass() {
        let mut c = Cache::new(32 * 1024, 8, 64);
        for pass in 0..2 {
            let mut hits = 0;
            for a in (0..16_384u64).step_by(64) {
                if c.access(a) {
                    hits += 1;
                }
            }
            if pass == 1 {
                assert_eq!(hits, 256);
            }
        }
    }

    #[test]
    fn hierarchy_prices_levels() {
        let l1 = Cache::new(128, 2, 64);
        let l2 = Cache::new(4096, 8, 64);
        let mut h = Hierarchy::new(l1, l2, 1.0, 8.0, 45.0);
        assert_eq!(h.access_cycles(0), 45.0); // cold
        assert_eq!(h.access_cycles(0), 1.0); // L1 hit
                                             // evict line 0 from tiny L1 by touching two more lines in its set
        h.access_cycles(128);
        h.access_cycles(256);
        assert_eq!(h.access_cycles(0), 8.0); // L1 miss, L2 hit
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = Cache::new(1024, 4, 64);
        c.access(0);
        c.access(0);
        let hits = c.hits;
        c.flush();
        assert_eq!(c.hits, hits);
        assert!(!c.access(0));
    }
}
