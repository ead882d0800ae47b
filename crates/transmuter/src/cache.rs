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

    /// True if this way is valid and tagged `line`; both tests always
    /// run (no short circuit), so a probe loop has no data-dependent
    /// branch.
    #[inline]
    fn holds(self, line: u64) -> bool {
        self.valid() & (self.tag == line)
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

/// The way of `slots` holding `line`, if any.
///
/// The scan visits every way and exits early nowhere. A tag is resident
/// at most once per set, so the last match is the only match and equals
/// what an early-exit probe returns. Each step is a compare and a
/// conditional move, so the probe costs no mispredicted branch per way.
#[inline]
fn find(slots: &[Way], line: u64) -> Option<usize> {
    let mut hit = usize::MAX;
    for (i, w) in slots.iter().enumerate() {
        if w.holds(line) {
            hit = i;
        }
    }
    (hit != usize::MAX).then_some(hit)
}

/// The way a fill of `slots` evicts: invalid ways first, then the least
/// recently used; ties keep the first way, matching `min_by_key`.
#[inline]
fn victim(slots: &[Way]) -> usize {
    let mut victim = 0;
    let mut best = slots[0].victim_key();
    for (i, w) in slots.iter().enumerate().skip(1) {
        let key = w.victim_key();
        if key < best {
            best = key;
            victim = i;
        }
    }
    victim
}

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

    /// The ways of `line`'s set.
    #[inline]
    fn set_mut(&mut self, line: u64) -> &mut [Way] {
        let base = self.set_of(line) * self.ways;
        &mut self.store[base..base + self.ways]
    }

    /// Accesses `line`; on a miss the line is filled (write-allocate).
    /// `is_store` marks the line dirty.
    #[inline(always)]
    pub fn access(&mut self, line: u64, is_store: bool) -> ProbeResult {
        self.stamp += 1;
        let stamp = self.stamp;
        let slots = self.set_mut(line);
        if let Some(i) = find(slots, line) {
            let way = &mut slots[i];
            way.meta = (stamp << LRU_SHIFT) | (way.meta & DIRTY) | ((is_store as u64) << 1) | VALID;
            return ProbeResult::Hit;
        }
        let v = victim(slots);
        let old = slots[v];
        slots[v] = Way {
            tag: line,
            meta: (stamp << LRU_SHIFT) | ((is_store as u64) << 1) | VALID,
        };
        ProbeResult::Miss {
            victim_dirty: old.valid() && old.dirty(),
            victim_line: if old.valid() { Some(old.tag) } else { None },
        }
    }

    /// Installs `line` without counting a demand access (prefetch fill).
    /// Returns the dirty victim line if one was evicted.
    #[inline]
    pub fn install(&mut self, line: u64) -> Option<u64> {
        let stamp = self.stamp + 1;
        let slots = self.set_mut(line);
        if find(slots, line).is_some() {
            return None;
        }
        let v = victim(slots);
        let old = slots[v];
        // Prefetched lines install at LRU-but-valid priority: use current
        // stamp (simplification; thrash-resistance is second-order here).
        slots[v] = Way {
            tag: line,
            meta: (stamp << LRU_SHIFT) | VALID,
        };
        self.stamp = stamp;
        (old.valid() && old.dirty()).then_some(old.tag)
    }

    /// True if `line` is resident (no LRU update).
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        let base = self.set_of(line) * self.ways;
        find(&self.store[base..base + self.ways], line).is_some()
    }

    /// Detects a sequential stride: true when `line` directly follows
    /// the previously observed line (hits and misses both advance the
    /// detector, like a tagged stride prefetcher). The caller decides
    /// whether to prefetch `line + 1`.
    #[inline]
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

    /// A naive bank: early-exit probe, first-minimum victim and the same
    /// stamp rules as [`CacheBank`], over `(tag, dirty, lru)` ways.
    struct RefBank {
        sets: usize,
        ways: usize,
        slots: Vec<Option<(u64, bool, u64)>>,
        stamp: u64,
        last: u64,
    }

    impl RefBank {
        fn new(sets: usize, ways: usize) -> Self {
            RefBank {
                sets,
                ways,
                slots: vec![None; sets * ways],
                stamp: 0,
                last: u64::MAX,
            }
        }

        fn set(&mut self, line: u64) -> &mut [Option<(u64, bool, u64)>] {
            let base = (line as usize % self.sets) * self.ways;
            &mut self.slots[base..base + self.ways]
        }

        /// Index of the first way holding `line`, scanning with an early
        /// exit.
        fn find(&mut self, line: u64) -> Option<usize> {
            self.set(line)
                .iter()
                .position(|w| matches!(w, Some((t, _, _)) if *t == line))
        }

        /// First way of minimum victim key: invalid ways first, then LRU.
        fn victim(&mut self, line: u64) -> usize {
            self.set(line)
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.map_or(0, |(_, _, lru)| lru + 1))
                .map(|(i, _)| i)
                .unwrap()
        }

        fn access(&mut self, line: u64, is_store: bool) -> ProbeResult {
            self.stamp += 1;
            let stamp = self.stamp;
            if let Some(i) = self.find(line) {
                let (t, d, _) = self.set(line)[i].unwrap();
                self.set(line)[i] = Some((t, d || is_store, stamp));
                return ProbeResult::Hit;
            }
            let v = self.victim(line);
            let old = self.set(line)[v].replace((line, is_store, stamp));
            ProbeResult::Miss {
                victim_dirty: old.is_some_and(|(_, d, _)| d),
                victim_line: old.map(|(t, _, _)| t),
            }
        }

        fn install(&mut self, line: u64) -> Option<u64> {
            if self.find(line).is_some() {
                return None;
            }
            self.stamp += 1;
            let (v, stamp) = (self.victim(line), self.stamp);
            let old = self.set(line)[v].replace((line, false, stamp));
            old.filter(|&(_, d, _)| d).map(|(t, _, _)| t)
        }

        fn contains(&mut self, line: u64) -> bool {
            self.find(line).is_some()
        }

        fn stride_detected(&mut self, line: u64) -> bool {
            let hit = self.last != u64::MAX && line == self.last + 1;
            self.last = line;
            hit
        }

        fn flush(&mut self) -> usize {
            let dirty = self
                .slots
                .iter()
                .filter(|w| w.is_some_and(|(_, d, _)| d))
                .count();
            self.slots.fill(None);
            self.stamp = 0;
            self.last = u64::MAX;
            dirty
        }

        /// The same state as a [`CacheBank`].
        fn to_bank(&self) -> CacheBank {
            let store = self
                .slots
                .iter()
                .map(|w| match *w {
                    None => INVALID,
                    Some((tag, dirty, lru)) => Way {
                        tag,
                        meta: (lru << LRU_SHIFT) | ((dirty as u64) << 1) | VALID,
                    },
                })
                .collect();
            CacheBank {
                sets: self.sets,
                ways: self.ways,
                store,
                stamp: self.stamp,
                last_miss_line: self.last,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The probe without early exits answers every access, install,
        /// residency test and flush exactly like an early-exit probe,
        /// and leaves the bank in the reference's state, way for way.
        #[test]
        fn probe_matches_early_exit_reference(
            shape in (0usize..4, 0usize..2),
            ops in proptest::collection::vec((0u8..20, 0u64..40), 1..300),
        ) {
            let (ways, sets) = (1 << shape.0, 1 << shape.1);
            let mut bank = CacheBank::new(sets, ways);
            let mut reference = RefBank::new(sets, ways);
            for (step, &(k, line)) in ops.iter().enumerate() {
                match k {
                    0..=9 => proptest::prop_assert_eq!(
                        bank.access(line, k % 2 == 1),
                        reference.access(line, k % 2 == 1),
                        "access at step {}", step
                    ),
                    10..=13 => proptest::prop_assert_eq!(
                        bank.install(line),
                        reference.install(line),
                        "install at step {}", step
                    ),
                    14..=16 => proptest::prop_assert_eq!(
                        bank.contains(line),
                        reference.contains(line),
                        "contains at step {}", step
                    ),
                    17..=18 => proptest::prop_assert_eq!(
                        bank.stride_detected(line),
                        reference.stride_detected(line)
                    ),
                    _ => proptest::prop_assert_eq!(bank.flush(), reference.flush()),
                }
                let expect = reference.to_bank();
                proptest::prop_assert!(bank.same_behavior(&expect), "behaviour at step {}", step);
                proptest::prop_assert!(expect.same_behavior(&bank));
                let state = |b: &CacheBank| -> Vec<(u64, u64)> {
                    b.store.iter().map(|w| (w.tag, w.meta)).collect()
                };
                proptest::prop_assert_eq!(state(&bank), state(&expect), "ways at step {}", step);
                proptest::prop_assert_eq!(bank.stamp, expect.stamp);
            }
        }
    }
}
