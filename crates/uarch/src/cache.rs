//! Set-associative L1 data cache model.
//!
//! The cache tracks *presence* of physical lines (data itself lives in
//! [`crate::mem::PhysMemory`]); hits and misses drive both timing — the
//! channel every attack in this repo reads — and the L1TF leak condition
//! (a transient load through a non-present PTE only observes data whose
//! line is resident in L1).
//!
//! Transient loads fill the cache exactly like committed ones. That fills
//! are not rolled back on squash is *the* microarchitectural side channel
//! behind Spectre and Meltdown, so this is the most load-bearing modelling
//! decision in the crate.

use crate::mem::line_number;

/// A set-associative cache of physical line numbers with LRU replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct L1Cache {
    sets: Vec<Vec<LineEntry>>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
    /// Total hits (diagnostics).
    pub hits: u64,
    /// Total misses (diagnostics).
    pub misses: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct LineEntry {
    line: u64,
    stamp: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was resident.
    Hit,
    /// The line was filled from memory.
    Miss,
}

impl L1Cache {
    /// Creates a cache with `sets` sets (power of two) and `ways` ways.
    ///
    /// The conventional 32 KiB, 8-way L1D is `L1Cache::new(64, 8)`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either argument is zero.
    pub fn new(sets: usize, ways: usize) -> L1Cache {
        assert!(sets.is_power_of_two() && sets > 0 && ways > 0);
        L1Cache {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            set_mask: (sets - 1) as u64,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The standard 32 KiB / 8-way configuration.
    pub fn standard() -> L1Cache {
        L1Cache::new(64, 8)
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Returns whether the line containing physical address `paddr` is
    /// resident, without touching LRU state or statistics.
    pub fn probe(&self, paddr: u64) -> bool {
        let line = line_number(paddr);
        self.sets[self.set_index(line)].iter().any(|e| e.line == line)
    }

    /// Accesses the line containing `paddr`: returns `Hit` or `Miss`, and
    /// in either case leaves the line resident (fills on miss).
    pub fn access(&mut self, paddr: u64) -> CacheOutcome {
        self.access_run(paddr, 1)
    }

    /// Accesses the line containing `paddr` `n` (≥ 1) times in a row,
    /// leaving the stamps and counters that `n` calls to
    /// [`L1Cache::access`] would: the first access hits or fills, the
    /// other `n - 1` hit. Returns the first access's outcome.
    #[inline]
    pub(crate) fn access_run(&mut self, paddr: u64, n: u64) -> CacheOutcome {
        let line = line_number(paddr);
        let idx = self.set_index(line);
        self.stamp += n;
        let stamp = self.stamp;
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.line == line) {
            e.stamp = stamp;
            self.hits += n;
            return CacheOutcome::Hit;
        }
        self.misses += 1;
        self.hits += n - 1;
        if set.len() >= self.ways {
            // Evict LRU.
            if let Some((victim, _)) = set.iter().enumerate().min_by_key(|(_, e)| e.stamp) {
                set.swap_remove(victim);
            }
        }
        set.push(LineEntry { line, stamp });
        CacheOutcome::Miss
    }

    /// Flushes the line containing `paddr` (clflush).
    pub fn flush_line(&mut self, paddr: u64) {
        let line = line_number(paddr);
        let idx = self.set_index(line);
        self.sets[idx].retain(|e| e.line != line);
    }

    /// Flushes the entire cache (the L1TF VM-entry mitigation).
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Number of resident lines (diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = L1Cache::standard();
        assert_eq!(c.access(0x1000), CacheOutcome::Miss);
        assert_eq!(c.access(0x1000), CacheOutcome::Hit);
        assert_eq!(c.access(0x1008), CacheOutcome::Hit, "same line");
        assert_eq!(c.access(0x1040), CacheOutcome::Miss, "next line");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = L1Cache::standard();
        assert!(!c.probe(0x2000));
        c.access(0x2000);
        assert!(c.probe(0x2000));
        assert!(c.probe(0x203f));
        assert!(!c.probe(0x2040));
    }

    #[test]
    fn clflush_evicts_line() {
        let mut c = L1Cache::standard();
        c.access(0x3000);
        c.flush_line(0x3010); // same line, different offset
        assert!(!c.probe(0x3000));
    }

    #[test]
    fn flush_all_empties_cache() {
        let mut c = L1Cache::standard();
        for i in 0..100u64 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() > 0);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2 ways: third distinct line evicts the least recent.
        let mut c = L1Cache::new(1, 2);
        c.access(0); // line 0
        c.access(64); // line 1
        c.access(0); // refresh line 0
        c.access(128); // evicts line 1
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn set_capacity_is_bounded() {
        let mut c = L1Cache::new(4, 2);
        for i in 0..64u64 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() <= 8);
    }
}
