//! A single reconfigurable-cache bank in cache mode: set-associative,
//! word-granular, write-back/write-allocate, true-LRU.

/// Result of probing a cache bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeResult {
    /// The line was present.
    Hit,
    /// The line was absent; `victim_dirty` says whether the filled way
    /// evicted a dirty line that must be written back.
    Miss {
        /// True if a dirty victim line was evicted by the fill.
        victim_dirty: bool,
        /// Line address of the evicted victim, when one existed.
        victim_line: Option<u64>,
    },
}

/// One way, packed to 16 bytes so a 4-way set spans a single host cache
/// line: `meta` holds `lru << 2 | dirty << 1 | valid`, where a larger
/// LRU stamp means more recently used.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    meta: u64,
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;
const LRU_SHIFT: u32 = 2;

impl Way {
    #[inline]
    fn valid(self) -> bool {
        self.meta & VALID != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.meta & DIRTY != 0
    }

    /// Victim priority: invalid ways evict first (key 0), then true LRU.
    #[inline]
    fn victim_key(self) -> u64 {
        if self.valid() {
            (self.meta >> LRU_SHIFT) + 1
        } else {
            0
        }
    }
}

const INVALID: Way = Way { tag: 0, meta: 0 };

/// One cache bank (4 kB, 4-way in the paper configuration).
///
/// The bank operates on *line addresses* (byte address / line size); the
/// memory system performs the interleaving that selects a bank.
#[derive(Debug, Clone)]
pub(crate) struct CacheBank {
    sets: usize,
    ways: usize,
    store: Vec<Way>,
    stamp: u64,
    /// Last missed line, for the next-line stride prefetcher.
    last_miss_line: u64,
}

impl CacheBank {
    /// Creates a bank with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways == 0`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        assert!(ways > 0, "cache needs at least one way");
        CacheBank {
            sets,
            ways,
            store: vec![INVALID; sets * ways],
            stamp: 0,
            last_miss_line: u64::MAX,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Accesses `line`; on a miss the line is filled (write-allocate).
    /// `is_store` marks the line dirty.
    pub fn access(&mut self, line: u64, is_store: bool) -> ProbeResult {
        self.stamp += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        let slots = &mut self.store[base..base + self.ways];
        // Probe.
        for way in slots.iter_mut() {
            if way.valid() && way.tag == line {
                way.meta = (self.stamp << LRU_SHIFT)
                    | (way.meta & DIRTY)
                    | ((is_store as u64) << 1)
                    | VALID;
                return ProbeResult::Hit;
            }
        }
        // Miss: choose victim (invalid first, else LRU; ties keep the
        // first way, matching `min_by_key`).
        let mut victim = 0;
        let mut best = slots[0].victim_key();
        for (i, w) in slots.iter().enumerate().skip(1) {
            let key = w.victim_key();
            if key < best {
                best = key;
                victim = i;
            }
        }
        let old = slots[victim];
        slots[victim] = Way {
            tag: line,
            meta: (self.stamp << LRU_SHIFT) | ((is_store as u64) << 1) | VALID,
        };
        ProbeResult::Miss {
            victim_dirty: old.valid() && old.dirty(),
            victim_line: if old.valid() { Some(old.tag) } else { None },
        }
    }

    /// Installs `line` without counting a demand access (prefetch fill).
    /// Returns the dirty victim line if one was evicted.
    pub fn install(&mut self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        let base = set * self.ways;
        let slots = &mut self.store[base..base + self.ways];
        if slots.iter().any(|w| w.valid() && w.tag == line) {
            return None;
        }
        self.stamp += 1;
        let mut victim = 0;
        let mut best = slots[0].victim_key();
        for (i, w) in slots.iter().enumerate().skip(1) {
            let key = w.victim_key();
            if key < best {
                best = key;
                victim = i;
            }
        }
        let old = slots[victim];
        // Prefetched lines install at LRU-but-valid priority: use current
        // stamp (simplification; thrash-resistance is second-order here).
        slots[victim] = Way {
            tag: line,
            meta: (self.stamp << LRU_SHIFT) | VALID,
        };
        (old.valid() && old.dirty()).then_some(old.tag)
    }

    /// True if `line` is resident (no LRU update).
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.ways;
        self.store[base..base + self.ways]
            .iter()
            .any(|w| w.valid() && w.tag == line)
    }

    /// Detects a sequential stride: true when `line` directly follows
    /// the previously observed line (hits and misses both advance the
    /// detector, like a tagged stride prefetcher). The caller decides
    /// whether to prefetch `line + 1`.
    pub fn stride_detected(&mut self, line: u64) -> bool {
        let hit = self.last_miss_line != u64::MAX && line == self.last_miss_line + 1;
        self.last_miss_line = line;
        hit
    }

    /// Invalidates everything, returning the number of dirty lines that
    /// must be written back (the cost of a cache→SPM reconfiguration).
    pub fn flush(&mut self) -> usize {
        let dirty = self
            .store
            .iter()
            .filter(|w| w.meta & (VALID | DIRTY) == (VALID | DIRTY))
            .count();
        self.store.fill(INVALID);
        self.stamp = 0;
        self.last_miss_line = u64::MAX;
        dirty
    }

    /// True when this bank will time every future access sequence
    /// exactly like `other`: same geometry, same resident lines with
    /// the same dirty bits, the same per-set LRU *ordering*, and the
    /// same stride-detector state. Absolute LRU stamps are excluded —
    /// they grow monotonically across runs while only their relative
    /// order drives victim selection. This is the equivalence behind the
    /// machine's steady-state memo.
    pub fn same_behavior(&self, other: &CacheBank) -> bool {
        if self.sets != other.sets
            || self.ways != other.ways
            || self.last_miss_line != other.last_miss_line
        {
            return false;
        }
        for set in 0..self.sets {
            let base = set * self.ways;
            let a = &self.store[base..base + self.ways];
            let b = &other.store[base..base + self.ways];
            for (x, y) in a.iter().zip(b) {
                if x.valid() != y.valid()
                    || (x.valid() && (x.tag != y.tag || x.dirty() != y.dirty()))
                {
                    return false;
                }
            }
            // Victim selection compares keys pairwise (ties keep the
            // first way), so matching pairwise orderings ⇒ matching
            // victims forever.
            for i in 0..self.ways {
                for j in (i + 1)..self.ways {
                    if a[i].victim_key().cmp(&a[j].victim_key())
                        != b[i].victim_key().cmp(&b[j].victim_key())
                    {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = CacheBank::new(16, 4);
        assert!(matches!(c.access(42, false), ProbeResult::Miss { .. }));
        assert_eq!(c.access(42, false), ProbeResult::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheBank::new(1, 2);
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 0 now MRU
        c.access(2, false); // evicts 1
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = CacheBank::new(1, 1);
        c.access(7, true);
        match c.access(8, false) {
            ProbeResult::Miss {
                victim_dirty,
                victim_line,
            } => {
                assert!(victim_dirty);
                assert_eq!(victim_line, Some(7));
            }
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn sets_isolate_lines() {
        let mut c = CacheBank::new(4, 1);
        c.access(0, false);
        c.access(1, false);
        c.access(2, false);
        c.access(3, false);
        // All in different sets → all resident despite 1 way.
        for l in 0..4 {
            assert!(c.contains(l), "line {l}");
        }
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = CacheBank::new(16, 4);
        c.access(1, true);
        c.access(2, true);
        c.access(3, false);
        assert_eq!(c.flush(), 2);
        assert!(!c.contains(1));
    }

    #[test]
    fn stride_detection() {
        let mut c = CacheBank::new(16, 4);
        assert!(!c.stride_detected(10));
        assert!(c.stride_detected(11));
        assert!(!c.stride_detected(20));
        assert!(c.stride_detected(21));
    }

    #[test]
    fn install_fills_without_a_victim() {
        let mut c = CacheBank::new(16, 4);
        assert_eq!(c.install(5), None);
        assert_eq!(c.access(5, false), ProbeResult::Hit);
    }

    #[test]
    fn install_existing_is_noop() {
        let mut c = CacheBank::new(16, 4);
        c.access(5, true);
        assert_eq!(c.install(5), None);
        // Dirtiness preserved.
        assert_eq!(c.flush(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheBank::new(3, 4);
    }
}
