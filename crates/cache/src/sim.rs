//! Set-associative LRU cache and TLB simulators.

use crate::lru::LruSlab;
use crate::replay::{iterate, Replay};
use gcr_exec::BatchSlot;

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// The paper's L1: 32 KB, 32-byte lines, 2-way (both R10K and R12K).
    pub fn l1_mips() -> Self {
        CacheConfig { size: 32 << 10, line: 32, assoc: 2 }
    }

    /// The paper's Origin2000 L2: 4 MB, 128-byte lines, 2-way.
    pub fn l2_origin2000() -> Self {
        CacheConfig { size: 4 << 20, line: 128, assoc: 2 }
    }

    /// The paper's Octane L2: 1 MB, 128-byte lines, 2-way.
    pub fn l2_octane() -> Self {
        CacheConfig { size: 1 << 20, line: 128, assoc: 2 }
    }

    /// Shrinks capacity by `factor` (for scaled-down problem sizes),
    /// keeping line size and associativity.
    pub fn scaled(self, factor: usize) -> Self {
        let size = (self.size / factor.max(1)).max(self.line * self.assoc);
        CacheConfig { size, ..self }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size / self.line / self.assoc).max(1)
    }

    /// [`CacheConfig::sets`] of a geometry the simulators can index:
    /// power-of-two line size and set count, at least one way.
    pub(crate) fn checked_sets(&self) -> usize {
        assert!(self.line.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc >= 1);
        let sets = self.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (size {}/line {}/assoc {})",
            self.size,
            self.line,
            self.assoc
        );
        sets
    }
}

/// An evicted line: `(line base address, dirty)`. `None` when the fill
/// found a free way.
pub type Victim = Option<(u64, bool)>;

/// A set-associative write-back, write-allocate cache with true LRU
/// replacement and dirty-line tracking (for memory-traffic accounting —
/// the paper's subject is bandwidth, i.e. *data transferred*).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// Per set: `(tag, dirty)` ordered most-recently-used first.
    sets: Vec<Vec<(u64, bool)>>,
    /// Hit count.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl Cache {
    /// Builds an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.checked_sets();
        Cache {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            set_mask: sets as u64 - 1,
            sets: vec![Vec::with_capacity(cfg.assoc); sets],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Simulates one read access; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_rw(addr, false)
    }

    /// Simulates one access; stores mark the line dirty. Returns `true` on
    /// hit.
    #[inline]
    pub fn access_rw(&mut self, addr: u64, is_write: bool) -> bool {
        self.access_evict(addr, is_write).0
    }

    /// Simulates one access, additionally reporting the line evicted to
    /// make room (its base address and dirty bit). Multi-level models use
    /// the victim to drive write-back propagation and back-invalidation;
    /// plain callers use [`Cache::access_rw`]. Dirty victims still bump
    /// [`Cache::writebacks`] exactly as before.
    #[inline]
    pub fn access_evict(&mut self, addr: u64, is_write: bool) -> (bool, Victim) {
        let block = addr >> self.line_shift;
        let set_idx = (block & self.set_mask) as usize;
        let set = &mut self.sets[set_idx];
        let tag = block >> self.set_mask.count_ones();
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            // Move to MRU position.
            set[..=pos].rotate_right(1);
            set[0].1 |= is_write;
            self.hits += 1;
            (true, None)
        } else {
            let mut victim = None;
            if set.len() == self.cfg.assoc {
                if let Some((vtag, dirty)) = set.pop() {
                    if dirty {
                        self.writebacks += 1;
                    }
                    victim = Some((
                        ((vtag << self.set_mask.count_ones()) | set_idx as u64) << self.line_shift,
                        dirty,
                    ));
                }
            }
            set.insert(0, (tag, is_write));
            self.misses += 1;
            (false, victim)
        }
    }

    /// True when the line holding `addr` is resident. Does not touch LRU
    /// order or counters.
    pub fn contains(&self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let tag = block >> self.set_mask.count_ones();
        self.sets[(block & self.set_mask) as usize].iter().any(|&(t, _)| t == tag)
    }

    /// Inserts the line holding `addr` at MRU position *without* counting
    /// a demand hit or miss — the primitive behind prefetch fills and
    /// exclusive-hierarchy line movement. A resident line is promoted and
    /// its dirty bit OR-ed. Returns the evicted victim, if any; the caller
    /// decides what traffic the victim represents (nothing is added to
    /// [`Cache::writebacks`]).
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Victim {
        if self.promote(addr, dirty) {
            return None;
        }
        let block = addr >> self.line_shift;
        let set_idx = (block & self.set_mask) as usize;
        let set = &mut self.sets[set_idx];
        let tag = block >> self.set_mask.count_ones();
        let mut victim = None;
        if set.len() == self.cfg.assoc {
            if let Some((vtag, vdirty)) = set.pop() {
                victim = Some((
                    ((vtag << self.set_mask.count_ones()) | set_idx as u64) << self.line_shift,
                    vdirty,
                ));
            }
        }
        set.insert(0, (tag, dirty));
        victim
    }

    /// Promotes the line holding `addr` to MRU position and OR-s `dirty`
    /// into it if resident; returns whether it was. Counts nothing — the
    /// one probe behind a demand hit in the multi-level models and the
    /// resident case of [`Cache::fill`].
    #[inline]
    pub(crate) fn promote(&mut self, addr: u64, dirty: bool) -> bool {
        let block = addr >> self.line_shift;
        let set = &mut self.sets[(block & self.set_mask) as usize];
        let tag = block >> self.set_mask.count_ones();
        match set.iter().position(|&(t, _)| t == tag) {
            Some(pos) => {
                set[..=pos].rotate_right(1);
                set[0].1 |= dirty;
                true
            }
            None => false,
        }
    }

    /// True when no set receives more than `assoc` distinct lines of
    /// iteration `k`. Then iteration `k`, from any state, leaves all of
    /// them resident with every write's dirty bit set, and each later
    /// iteration on the same lines is pure hits that change nothing.
    /// (Conservatively false past 16 distinct lines.)
    pub(crate) fn fits(&self, slots: &[BatchSlot], k: u32) -> bool {
        let mut lines = [0u64; 16];
        let mut n = 0;
        for sl in slots {
            let l = sl.addr_at(k as i64) >> self.line_shift;
            if !lines[..n].contains(&l) {
                if n == lines.len() {
                    return false;
                }
                lines[n] = l;
                n += 1;
            }
        }
        let lines = &lines[..n];
        let in_set = |a: u64| lines.iter().filter(|&&b| (a ^ b) & self.set_mask == 0).count();
        n <= self.cfg.assoc || lines.iter().all(|&a| in_set(a) <= self.cfg.assoc)
    }

    /// Removes the line holding `addr` if resident, returning its dirty
    /// bit. No counters are touched — extraction models exclusive-hierarchy
    /// promotion and back-invalidation, not a demand access.
    pub fn extract(&mut self, addr: u64) -> Option<bool> {
        let block = addr >> self.line_shift;
        let set = &mut self.sets[(block & self.set_mask) as usize];
        let tag = block >> self.set_mask.count_ones();
        let pos = set.iter().position(|&(t, _)| t == tag)?;
        Some(set.remove(pos).1)
    }

    /// Marks the line holding `addr` dirty if resident (LRU order
    /// unchanged). Returns `false` when the line is absent — inclusive
    /// hierarchies use that to detect a write-back that must skip a level.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let set = &mut self.sets[(block & self.set_mask) as usize];
        let tag = block >> self.set_mask.count_ones();
        match set.iter_mut().find(|(t, _)| *t == tag) {
            Some(e) => {
                e.1 = true;
                true
            }
            None => false,
        }
    }

    /// Drops every resident line overlapping `[addr, addr + len)` —
    /// back-invalidation when an enclosing line leaves a lower inclusive
    /// level. Returns how many of the dropped lines were dirty (their
    /// contents fold into the departing lower-level line).
    pub fn invalidate_range(&mut self, addr: u64, len: u64) -> u64 {
        let line = self.cfg.line as u64;
        let first = addr >> self.line_shift;
        let last = (addr + len.max(1) - 1) >> self.line_shift;
        let mut dirty = 0;
        for block in first..=last {
            if let Some(true) = self.extract(block * line) {
                dirty += 1;
            }
        }
        dirty
    }

    /// Bytes transferred from the next level: fills plus write-backs.
    pub fn traffic_bytes(&self) -> u64 {
        (self.misses + self.writebacks) * self.cfg.line as u64
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

/// Rule (b) of [`crate::replay`]: once two iterations have touched the same
/// line sequence, the tags and recency order repeat after every further
/// one, and the dirty bits one iteration later, so from the third
/// iteration of a segment on each repeats its predecessor's counts. When
/// the first iteration's lines [`Cache::fits`], every later one is hits.
impl Replay for Cache {
    const NEED: u32 = 2;

    #[inline(always)]
    fn step(&mut self, addr: u64, is_write: bool) {
        self.access_rw(addr, is_write);
    }

    #[inline(never)]
    fn segment(&mut self, slots: &[BatchSlot], k: u32, r: u32) {
        iterate(self, slots, k..k + 1);
        if self.fits(slots, k) {
            self.hits += r as u64 * slots.len() as u64;
            return;
        }
        iterate(self, slots, k + 1..k + 2);
        let before = (self.hits, self.misses, self.writebacks);
        iterate(self, slots, k + 2..k + 3);
        let more = (r - 2) as u64;
        self.hits += (self.hits - before.0) * more;
        self.misses += (self.misses - before.1) * more;
        self.writebacks += (self.writebacks - before.2) * more;
    }
}

/// A fully associative LRU TLB: one list of an [`LruSlab`], keyed by page
/// number, so a lookup is a head compare or one index probe however deep
/// the page sits (in SP's fused versions the 64-entry TLB's hits sit 7 to
/// 11 entries deep on average, and a scanned vector paid for the depth).
#[derive(Clone, Debug)]
pub struct Tlb {
    lru: LruSlab,
    entries: usize,
    /// Resident pages.
    len: usize,
    page_shift: u32,
    hits: u64,
    misses: u64,
    /// Page size in bytes.
    pub page: usize,
}

impl Tlb {
    /// Builds a TLB with `entries` entries of `page`-byte pages.
    pub fn new(entries: usize, page: usize) -> Self {
        assert!(page.is_power_of_two(), "page size must be a power of two");
        assert!(entries >= 1);
        Tlb {
            lru: LruSlab::new(1),
            entries,
            len: 0,
            page_shift: page.trailing_zeros(),
            hits: 0,
            misses: 0,
            page,
        }
    }

    /// The paper's machines: 64-entry fully associative, 16 KB pages
    /// (IRIX default page size on Origin2000/Octane).
    pub fn mips_r10k() -> Self {
        Tlb::new(64, 16 << 10)
    }

    /// Scaled-down TLB for scaled problem sizes.
    pub fn scaled(entries: usize, page: usize) -> Self {
        Tlb::new(entries, page)
    }

    /// Simulates one access; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if self.lru.head_is(0, page) {
            self.hits += 1;
            return true;
        }
        if let Some(i) = self.lru.lookup(page) {
            self.lru.move_to_front(0, i);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.len < self.entries {
            self.len += 1;
            self.lru.insert_front(0, page, 0);
        } else {
            self.lru.rekey_front(0, self.lru.tail(0), page, 0);
        }
        false
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        *self = Tlb::new(self.entries, self.page);
    }
}

/// Rule (c) of [`crate::replay`] at page granularity: on a page-stable
/// segment every access of the second iteration on has its previous touch
/// of the page inside the previous iteration or earlier in its own, so its
/// LRU depth is a function of the body alone. The list after the second
/// iteration is the list after the first (the pages in last-touch order,
/// then the rest), and with no dirty bits that is the whole state: every
/// further iteration repeats the second one's hits and misses.
impl Replay for Tlb {
    const NEED: u32 = 2;

    #[inline(always)]
    fn step(&mut self, addr: u64, _is_write: bool) {
        self.access(addr);
    }

    #[inline(never)]
    fn segment(&mut self, slots: &[BatchSlot], k: u32, r: u32) {
        iterate(self, slots, k..k + 1);
        let before = (self.hits, self.misses);
        iterate(self, slots, k + 1..k + 2);
        let more = (r - 1) as u64;
        self.hits += (self.hits - before.0) * more;
        self.misses += (self.misses - before.1) * more;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn direct_mapped_conflict() {
        // 2 sets, 1 way, 8-byte lines: addresses 0 and 16 collide.
        let mut c = Cache::new(CacheConfig { size: 16, line: 8, assoc: 1 });
        assert!(!c.access(0));
        assert!(!c.access(16));
        assert!(!c.access(0), "evicted by 16");
        assert!(!c.access(8), "other set cold");
        assert!(c.access(8));
    }

    #[test]
    fn two_way_lru() {
        // 1 set, 2 ways, 8-byte lines.
        let mut c = Cache::new(CacheConfig { size: 16, line: 8, assoc: 2 });
        c.access(0); // [0]
        c.access(8); // [8,0]
        assert!(c.access(0)); // [0,8]
        c.access(16); // evicts 8 -> [16,0]
        assert!(c.access(0));
        assert!(!c.access(8), "8 was LRU-evicted");
    }

    #[test]
    fn spatial_locality_within_line() {
        let mut c = Cache::new(CacheConfig { size: 64, line: 32, assoc: 2 });
        assert!(!c.access(0));
        assert!(c.access(8));
        assert!(c.access(24));
        assert!(!c.access(32));
    }

    #[test]
    fn lru_sweep_thrash() {
        // Sweep of 2x capacity with LRU: every access misses on re-sweep.
        let cfg = CacheConfig { size: 256, line: 8, assoc: 2 };
        let mut c = Cache::new(cfg);
        let lines = (2 * cfg.size / cfg.line) as u64;
        for _ in 0..3 {
            for i in 0..lines {
                c.access(i * 8);
            }
        }
        assert_eq!(c.hits, 0, "LRU provides no reuse under cyclic over-capacity sweep");
    }

    #[test]
    fn fully_assoc_tlb_lru() {
        let mut t = Tlb::new(2, 4096);
        assert!(!t.access(0));
        assert!(!t.access(4096));
        assert!(t.access(100));
        assert!(!t.access(3 * 4096));
        // page 1 (4096..8192) was MRU after access(4096); access(100) made
        // page 0 MRU; access(3*4096) evicted page 1.
        assert!(!t.access(4097 + 4096), "page 1 was the LRU entry page 3 evicted");
        assert_eq!(t.misses(), 4);
    }

    /// The TLB as a scanned vector: pages most recently used first, a hit
    /// rotated to the front, a miss inserted there and the last page
    /// dropped when full. The reference [`Tlb`] is held to.
    struct ScannedTlb {
        entries: usize,
        page: u64,
        pages: Vec<u64>,
        hits: u64,
        misses: u64,
    }

    impl ScannedTlb {
        fn access(&mut self, addr: u64) -> bool {
            let p = addr / self.page;
            match self.pages.iter().position(|&q| q == p) {
                Some(i) => {
                    self.pages[..=i].rotate_right(1);
                    self.hits += 1;
                    true
                }
                None => {
                    if self.pages.len() == self.entries {
                        self.pages.pop();
                    }
                    self.pages.insert(0, p);
                    self.misses += 1;
                    false
                }
            }
        }
    }

    proptest! {
        /// Every lookup's outcome and both counters, on traces over about
        /// twice as many pages as entries (runs of one page and jumps
        /// among the rest), before and after a reset.
        #[test]
        fn tlb_matches_a_scanned_mru_vector(
            entries in prop_oneof![Just(1usize), Just(4), Just(64)],
            page_log in 4u32..15,
            trace in vec((0u64..1 << 20, 1u64..4, 0u64..1 << 14), 1..400),
        ) {
            let page = 1u64 << page_log;
            let mut tlb = Tlb::new(entries, page as usize);
            for round in 0..2 {
                let mut reference =
                    ScannedTlb { entries, page, pages: Vec::new(), hits: 0, misses: 0 };
                for &(pick, run, off) in &trace {
                    let base = pick % (2 * entries as u64 + 2) * page;
                    for i in 0..run {
                        let addr = base + (off + i * 8) % page;
                        prop_assert_eq!(tlb.access(addr), reference.access(addr), "round {}", round);
                    }
                }
                prop_assert_eq!((tlb.hits(), tlb.misses()), (reference.hits, reference.misses));
                tlb.reset();
                prop_assert_eq!((tlb.hits(), tlb.misses()), (0, 0));
            }
        }
    }

    #[test]
    fn scaled_config_keeps_geometry() {
        let c = CacheConfig::l2_origin2000().scaled(64);
        assert_eq!(c.size, (4 << 20) / 64);
        assert_eq!(c.line, 128);
        assert_eq!(c.assoc, 2);
        let _ = Cache::new(c);
    }

    #[test]
    fn writebacks_only_for_dirty_lines() {
        // 1 set, 1 way: every new line evicts the previous one.
        let mut c = Cache::new(CacheConfig { size: 8, line: 8, assoc: 1 });
        c.access_rw(0, false); // clean fill
        c.access_rw(8, false); // evicts clean line: no write-back
        assert_eq!(c.writebacks, 0);
        c.access_rw(16, true); // dirty fill (evicts clean)
        assert_eq!(c.writebacks, 0);
        c.access_rw(24, false); // evicts dirty line
        assert_eq!(c.writebacks, 1);
        assert_eq!(c.traffic_bytes(), (4 + 1) * 8);
    }

    #[test]
    fn dirty_bit_sticks_until_eviction() {
        let mut c = Cache::new(CacheConfig { size: 16, line: 8, assoc: 2 });
        c.access_rw(0, true);
        c.access_rw(0, false); // read does not clean it
        c.access_rw(8, false);
        c.access_rw(16, false); // evicts LRU line 0 (dirty)
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn streaming_write_traffic_doubles() {
        // Write-streaming: every line filled once and written back once.
        let cfg = CacheConfig { size: 64, line: 8, assoc: 2 };
        let mut c = Cache::new(cfg);
        for i in 0..64u64 {
            c.access_rw(i * 8, true);
        }
        assert_eq!(c.misses, 64);
        // All but the 8 resident lines written back so far.
        assert_eq!(c.writebacks, 64 - 8);
    }

    #[test]
    fn access_evict_reports_victim_address() {
        // 2 sets, 1 way, 8-byte lines: 0 and 16 share set 0.
        let mut c = Cache::new(CacheConfig { size: 16, line: 8, assoc: 1 });
        assert_eq!(c.access_evict(0, true), (false, None));
        let (hit, victim) = c.access_evict(16, false);
        assert!(!hit);
        assert_eq!(victim, Some((0, true)), "dirty line 0 evicted by 16");
        assert_eq!(c.writebacks, 1, "access_evict keeps the write-back counter");
    }

    #[test]
    fn fill_is_stat_neutral_and_promotes() {
        let mut c = Cache::new(CacheConfig { size: 16, line: 8, assoc: 2 });
        assert_eq!(c.fill(0, false), None);
        assert_eq!(c.fill(8, false), None);
        assert_eq!(c.fill(0, true), None, "resident: promote + dirty, no victim");
        // 16 evicts the LRU line 8; line 0 stays (it was promoted).
        assert_eq!(c.fill(16, false), Some((8, false)));
        assert!(c.contains(0));
        assert_eq!((c.hits, c.misses, c.writebacks), (0, 0, 0), "fill counts nothing");
        assert_eq!(c.extract(0), Some(true), "dirty bit OR-ed by the resident fill");
        assert_eq!(c.extract(0), None);
    }

    #[test]
    fn invalidate_range_drops_enclosed_lines() {
        let mut c = Cache::new(CacheConfig { size: 64, line: 8, assoc: 8 });
        c.fill(0, true);
        c.fill(8, false);
        c.fill(16, true);
        c.fill(32, true); // outside the invalidated 32-byte enclosing line
        assert_eq!(c.invalidate_range(0, 32), 2, "two dirty lines in [0,32)");
        assert!(!c.contains(0) && !c.contains(8) && !c.contains(16));
        assert!(c.contains(32));
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut c = Cache::new(CacheConfig { size: 16, line: 8, assoc: 2 });
        assert!(!c.mark_dirty(0));
        c.fill(0, false);
        assert!(c.mark_dirty(0));
        assert_eq!(c.extract(0), Some(true));
    }

    #[test]
    fn miss_rate_reported() {
        let mut c = Cache::new(CacheConfig { size: 64, line: 8, assoc: 2 });
        c.access(0);
        c.access(0);
        assert_eq!(c.miss_rate(), 0.5);
        c.reset();
        assert_eq!(c.accesses(), 0);
    }
}
