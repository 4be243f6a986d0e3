//! Set-associative tag store with LRU state and per-line hint bits.

use crate::CacheGeometry;

/// State of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The line number (byte address / line size) held by this entry.
    pub line: u64,
    /// Whether the entry holds valid data.
    pub valid: bool,
    /// Whether the line has been written since it was filled.
    pub dirty: bool,
    /// The per-line *temporal bit* of §2.2: set when the line is
    /// referenced by a temporal-tagged load/store, reset when the line is
    /// bounced back.
    pub temporal: bool,
    /// Whether the line arrived via a prefetch and has not been demanded
    /// yet (§4.4).
    pub prefetched: bool,
    /// LRU stamp (larger = more recently used).
    pub lru: u64,
}

impl Entry {
    /// An invalid entry.
    pub const INVALID: Entry = Entry {
        line: 0,
        valid: false,
        dirty: false,
        temporal: false,
        prefetched: false,
        lru: 0,
    };
}

impl Default for Entry {
    fn default() -> Self {
        Entry::INVALID
    }
}

/// The tag store of one cache: `sets × ways` entries with LRU tracking.
///
/// ```
/// use sac_simcache::{CacheGeometry, TagArray};
///
/// let mut tags = TagArray::new(CacheGeometry::new(1024, 32, 2));
/// assert!(tags.probe(0).is_none());
/// let way = tags.victim_way(0);
/// tags.fill(0, way, 0, false);
/// assert!(tags.probe(0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    geom: CacheGeometry,
    entries: Vec<Entry>,
    clock: u64,
}

impl TagArray {
    /// Creates an empty (all-invalid) tag array.
    pub fn new(geom: CacheGeometry) -> Self {
        TagArray {
            geom,
            entries: vec![Entry::INVALID; geom.lines() as usize],
            clock: 0,
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = self.geom.set_of_line(line) as usize;
        let ways = self.geom.ways() as usize;
        set * ways..(set + 1) * ways
    }

    /// Looks up a line, updating LRU on hit. Returns the entry's global
    /// index.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<usize> {
        let range = self.set_range(line);
        self.clock += 1;
        let clock = self.clock;
        for i in range {
            let e = &mut self.entries[i];
            if e.valid && e.line == line {
                e.lru = clock;
                return Some(i);
            }
        }
        None
    }

    /// Looks up a line without touching LRU (coherence checks).
    #[inline]
    pub fn peek(&self, line: u64) -> Option<usize> {
        self.set_range(line)
            .find(|&i| self.entries[i].valid && self.entries[i].line == line)
    }

    /// The way index (within the line's set) that plain LRU would replace:
    /// an invalid way if any, otherwise the least recently used.
    #[inline]
    pub fn victim_way(&self, line: u64) -> usize {
        let range = self.set_range(line);
        let base = range.start;
        let mut best = base;
        let mut best_key = (u64::MAX, u64::MAX);
        for i in range {
            let e = &self.entries[i];
            let key = if e.valid { (1, e.lru) } else { (0, 0) };
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best - base
    }

    /// The way index replaced by the *software-controlled* LRU of §3.2
    /// ("Set-Associativity"): non-temporal lines are preferably replaced;
    /// plain LRU among them, falling back to plain LRU when every valid
    /// way is temporal.
    pub fn victim_way_prefer_nontemporal(&self, line: u64) -> usize {
        let range = self.set_range(line);
        let base = range.start;
        let mut best = base;
        // Key: invalid < non-temporal (by LRU) < temporal (by LRU).
        let mut best_key = (u64::MAX, u64::MAX);
        for i in range {
            let e = &self.entries[i];
            let key = if !e.valid {
                (0, 0)
            } else if !e.temporal {
                (1, e.lru)
            } else {
                (2, e.lru)
            };
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best - base
    }

    /// The global index of `way` in the set `line` maps to.
    #[inline]
    pub fn index(&self, line: u64, way: usize) -> usize {
        self.set_range(line).start + way
    }

    /// Reads the entry at `set_of(line)`/`way`.
    pub fn entry(&self, line: u64, way: usize) -> &Entry {
        &self.entries[self.set_range(line).start + way]
    }

    /// Mutable access by global index (as returned by [`TagArray::probe`]).
    ///
    /// For the hint bits only: identity changes (`line`, `valid`) go
    /// through fill/install/take/invalidate.
    #[inline]
    pub fn entry_at_mut(&mut self, index: usize) -> &mut Entry {
        &mut self.entries[index]
    }

    /// Read access by global index.
    #[inline]
    pub fn entry_at(&self, index: usize) -> &Entry {
        &self.entries[index]
    }

    /// Installs `line` at the given way of its set, returning the evicted
    /// entry (valid if real data was displaced).
    #[inline]
    pub fn fill(&mut self, line: u64, way: usize, _addr: u64, dirty: bool) -> Entry {
        self.clock += 1;
        let idx = self.set_range(line).start + way;
        let entry = Entry {
            line,
            valid: true,
            dirty,
            temporal: false,
            prefetched: false,
            lru: self.clock,
        };
        std::mem::replace(&mut self.entries[idx], entry)
    }

    /// Installs a fully-specified entry (used by swaps and bounce-backs),
    /// returning the displaced entry. The LRU stamp is refreshed.
    pub fn install(&mut self, line: u64, way: usize, mut entry: Entry) -> Entry {
        self.clock += 1;
        entry.line = line;
        entry.valid = true;
        entry.lru = self.clock;
        let idx = self.set_range(line).start + way;
        std::mem::replace(&mut self.entries[idx], entry)
    }

    /// Looks for `tag_line` in the set that `slot_line` maps to, without
    /// touching LRU — column-associative caches store a line in its
    /// *rehash* set, so slot and tag differ.
    pub fn peek_as(&self, slot_line: u64, tag_line: u64) -> Option<usize> {
        self.set_range(slot_line)
            .find(|&i| self.entries[i].valid && self.entries[i].line == tag_line)
    }

    /// Removes `tag_line` from the set `slot_line` maps to (see
    /// [`TagArray::peek_as`]).
    pub fn take_as(&mut self, slot_line: u64, tag_line: u64) -> Option<(usize, Entry)> {
        let idx = self.peek_as(slot_line, tag_line)?;
        let way = idx - self.set_range(slot_line).start;
        Some((way, std::mem::take(&mut self.entries[idx])))
    }

    /// Installs an entry tagged `tag_line` into the set `slot_line` maps
    /// to, returning the displaced entry (see [`TagArray::peek_as`]).
    pub fn install_as(
        &mut self,
        slot_line: u64,
        tag_line: u64,
        way: usize,
        mut entry: Entry,
    ) -> Entry {
        self.clock += 1;
        entry.line = tag_line;
        entry.valid = true;
        entry.lru = self.clock;
        let idx = self.set_range(slot_line).start + way;
        std::mem::replace(&mut self.entries[idx], entry)
    }

    /// Removes the entry holding `line`, returning its way index and
    /// contents (used by swaps, which must refill the freed way).
    pub fn take(&mut self, line: u64) -> Option<(usize, Entry)> {
        let idx = self.peek(line)?;
        let way = idx - self.set_range(line).start;
        Some((way, std::mem::take(&mut self.entries[idx])))
    }

    /// Invalidates the entry holding `line`, returning it if it was valid.
    pub fn invalidate(&mut self, line: u64) -> Option<Entry> {
        let idx = self.peek(line)?;
        Some(std::mem::take(&mut self.entries[idx]))
    }

    /// Number of valid entries (test/debug helper).
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Invalidates every entry, returning the dirty lines that were lost
    /// (a context switch or external invalidation must write them back).
    pub fn invalidate_all(&mut self) -> u64 {
        let mut dirty = 0;
        for e in &mut self.entries {
            if e.valid && e.dirty {
                dirty += 1;
            }
            *e = Entry::INVALID;
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom2way() -> CacheGeometry {
        // 4 sets × 2 ways × 32 B.
        CacheGeometry::new(256, 32, 2)
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut t = TagArray::new(geom2way());
        assert!(t.probe(5).is_none());
        let way = t.victim_way(5);
        t.fill(5, way, 0, false);
        assert!(t.probe(5).is_some());
        assert_eq!(t.valid_count(), 1);
    }

    #[test]
    fn lru_replacement_order() {
        let mut t = TagArray::new(geom2way());
        // Lines 0, 4, 8 share set 0 (4 sets).
        t.fill(0, t.victim_way(0), 0, false);
        t.fill(4, t.victim_way(4), 0, false);
        // Touch line 0 so line 4 becomes LRU.
        assert!(t.probe(0).is_some());
        let way = t.victim_way(8);
        assert_eq!(t.entry(8, way).line, 4);
    }

    #[test]
    fn invalid_way_chosen_first() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, t.victim_way(0), 0, false);
        let way = t.victim_way(4);
        assert!(!t.entry(4, way).valid);
    }

    #[test]
    fn prefer_nontemporal_victim() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, 0, 0, false);
        t.fill(4, 1, 0, false);
        // Mark line 0 temporal without refreshing its LRU stamp: line 0 is
        // the LRU line, yet the software-controlled policy must spare it.
        let idx0 = t.peek(0).unwrap();
        t.entry_at_mut(idx0).temporal = true;
        assert_eq!(t.entry(8, t.victim_way(8)).line, 0, "plain LRU evicts 0");
        let way = t.victim_way_prefer_nontemporal(8);
        assert_eq!(t.entry(8, way).line, 4, "non-temporal line preferred");
    }

    #[test]
    fn prefer_nontemporal_falls_back_to_lru() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, 0, 0, false);
        t.fill(4, 1, 0, false);
        for line in [0u64, 4] {
            let idx = t.probe(line).unwrap();
            t.entry_at_mut(idx).temporal = true;
        }
        // All temporal: plain LRU picks line 0 (probed first → older).
        let way = t.victim_way_prefer_nontemporal(8);
        assert_eq!(t.entry(8, way).line, 0);
    }

    #[test]
    fn fill_returns_displaced_entry() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, 0, 0, true);
        let old = t.fill(8, 0, 0, false);
        assert!(old.valid && old.dirty && old.line == 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut t = TagArray::new(geom2way());
        t.fill(3, t.victim_way(3), 0, false);
        assert!(t.invalidate(3).is_some());
        assert!(t.probe(3).is_none());
        assert!(t.invalidate(3).is_none());
    }

    #[test]
    fn install_preserves_flags() {
        let mut t = TagArray::new(geom2way());
        let e = Entry {
            line: 12,
            valid: true,
            dirty: true,
            temporal: true,
            prefetched: true,
            lru: 0,
        };
        t.install(12, 0, e);
        let idx = t.peek(12).unwrap();
        let got = t.entry_at(idx);
        assert!(got.dirty && got.temporal && got.prefetched);
    }
}
