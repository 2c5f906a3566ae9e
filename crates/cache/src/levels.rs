//! Multi-level inclusive/exclusive cache hierarchies with an optional
//! next-line prefetcher.
//!
//! [`MemoryHierarchy`](crate::MemoryHierarchy) models the paper's two
//! machines as "mostly inclusive": L2 sees L1's demand misses and the two
//! levels never exchange state. [`MultiLevelCache`] is the realistic
//! counterpart — two or three exact [`Cache`] levels coupled by an
//! explicit inclusion policy:
//!
//! * **Inclusive** — upper-level contents are (demand-)subsets of lower
//!   levels. A hit at level *k* fills every level above it; when a lower
//!   level evicts a line, the enclosed lines in the levels above are
//!   back-invalidated, their dirty contents folding into the departing
//!   line. Dirty victims of level *k* are written back into level *k+1*
//!   (marking the enclosing resident line dirty) without disturbing that
//!   level's LRU order — write-backs are traffic, not demand reuse.
//! * **Exclusive** — exactly two levels of equal line size; L2 is a
//!   victim cache. An L2 hit *moves* the line into L1 (extraction, no
//!   copy); every L1 victim moves down into L2; only L2 evictions reach
//!   memory. The effective capacity is the sum of both levels.
//!
//! The **next-line prefetcher** (when enabled) reacts to every L1 demand
//! miss on line `L` by filling line `L+1` into L1 — stat-neutral at L1
//! (no demand hit/miss is counted), issued *after* the demand fill so the
//! prefetched line lands most-recently-used, and fetched straight from
//! memory-side (prefetch probes do not perturb lower-level LRU state).
//! Useless prefetches therefore pollute L1 exactly as a real next-line
//! scheme would, and [`MultiLevelCounts::prefetches`] counts only lines
//! actually brought in (already-resident next lines are free).
//!
//! A level with more than 64 ways per set (in practice an `fa` level of
//! hundreds of lines) keeps each set as an indexed LRU list instead of
//! [`Cache`]'s scanned vector; the choice follows from the geometry alone
//! and the two are interchangeable call for call, which the
//! `wide_level_matches_narrow_cache` test holds them to.
//!
//! All orderings above are fixed and documented because the simulation is
//! golden-tested: the same trace must produce the same counters on every
//! platform and thread count.

use crate::lru::LruSlab;
use crate::replay::{all_hit_segment, replay, segments, Replay, Segment};
use crate::sim::{Cache, CacheConfig, Victim};
use gcr_exec::{AccessEvent, BatchSlot, TraceBatch, TraceSink};

/// Ways per set up to which a level is a [`Cache`]: an MRU-ordered vector
/// that a lookup scans. The hierarchy levels beyond it are `fa` levels of
/// hundreds of ways, where every miss scans the whole set twice and
/// memmoves it once. The threshold is not where the scan stops winning:
/// at 64 ways it already loses on the 64-entry TLB, whose hits sit 7 to
/// 11 entries deep on average in SP's fused versions (9.0 ns an access
/// scanned, 4.5 ns on an [`LruSlab`] list, over the figure-10 streams),
/// which is why [`crate::Tlb`] is a list. The levels this repository
/// measures have at most 8 ways or are `fa` levels of 128 and up, so any
/// threshold between them picks the same representation. DESIGN.md §17
/// ADR 3 has the measurements.
const WIDE_ASSOC: usize = 64;

/// One level of a [`MultiLevelCache`]: the stat-neutral line-movement
/// subset of [`Cache`]'s interface, over either representation.
#[derive(Clone, Debug)]
enum Level {
    Narrow(Cache),
    Wide(WideCache),
}

impl Level {
    fn new(cfg: CacheConfig) -> Self {
        if cfg.assoc > WIDE_ASSOC {
            Level::Wide(WideCache::new(cfg))
        } else {
            Level::Narrow(Cache::new(cfg))
        }
    }

    fn config(&self) -> CacheConfig {
        match self {
            Level::Narrow(c) => c.config(),
            Level::Wide(c) => c.cfg,
        }
    }

    #[inline]
    fn contains(&self, addr: u64) -> bool {
        match self {
            Level::Narrow(c) => c.contains(addr),
            Level::Wide(c) => c.contains(addr),
        }
    }

    #[inline]
    fn promote(&mut self, addr: u64, dirty: bool) -> bool {
        match self {
            Level::Narrow(c) => c.promote(addr, dirty),
            Level::Wide(c) => c.promote(addr, dirty),
        }
    }

    #[inline]
    fn fill(&mut self, addr: u64, dirty: bool) -> Victim {
        match self {
            Level::Narrow(c) => c.fill(addr, dirty),
            Level::Wide(c) => c.fill(addr, dirty),
        }
    }

    #[inline]
    fn extract(&mut self, addr: u64) -> Option<bool> {
        match self {
            Level::Narrow(c) => c.extract(addr),
            Level::Wide(c) => c.extract(addr),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, addr: u64) -> bool {
        match self {
            Level::Narrow(c) => c.mark_dirty(addr),
            Level::Wide(c) => c.mark_dirty(addr),
        }
    }

    #[inline]
    fn invalidate_range(&mut self, addr: u64, len: u64) -> u64 {
        match self {
            Level::Narrow(c) => c.invalidate_range(addr, len),
            Level::Wide(c) => c.invalidate_range(addr, len),
        }
    }
}

/// A set-associative LRU level with sets too wide to scan: the same
/// contents, recency order, victims and dirty bits as a [`Cache`] of the
/// same geometry, each operation a constant number of steps. Every set
/// is one list of a shared [`LruSlab`], keyed by line number (which
/// includes the set index, so keys are unique across sets); a node's tag
/// is its dirty bit.
#[derive(Clone, Debug)]
struct WideCache {
    cfg: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    lru: LruSlab,
    /// Resident lines per set.
    len: Vec<usize>,
}

impl WideCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.checked_sets();
        WideCache {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            set_mask: sets as u64 - 1,
            lru: LruSlab::new(sets),
            len: vec![0; sets],
        }
    }

    /// `(line number, set)` of `addr`; the set doubles as its list.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, u32) {
        let block = addr >> self.line_shift;
        (block, (block & self.set_mask) as u32)
    }

    #[inline]
    fn contains(&self, addr: u64) -> bool {
        let (block, set) = self.locate(addr);
        self.lru.find(set, block).is_some()
    }

    fn promote(&mut self, addr: u64, dirty: bool) -> bool {
        let (block, set) = self.locate(addr);
        match self.lru.find(set, block) {
            Some(i) => {
                self.lru.move_to_front(set, i);
                self.lru.set_tag(i, self.lru.tag(i) | dirty as u32);
                true
            }
            None => false,
        }
    }

    fn fill(&mut self, addr: u64, dirty: bool) -> Victim {
        if self.promote(addr, dirty) {
            return None;
        }
        let (block, set) = self.locate(addr);
        if self.len[set as usize] < self.cfg.assoc {
            self.len[set as usize] += 1;
            self.lru.insert_front(set, block, dirty as u32);
            return None;
        }
        let lru = self.lru.tail(set);
        let victim = (self.lru.key(lru) << self.line_shift, self.lru.tag(lru) != 0);
        self.lru.rekey_front(set, lru, block, dirty as u32);
        Some(victim)
    }

    fn extract(&mut self, addr: u64) -> Option<bool> {
        let (block, set) = self.locate(addr);
        let i = self.lru.find(set, block)?;
        let dirty = self.lru.tag(i) != 0;
        self.lru.remove(i);
        self.len[set as usize] -= 1;
        Some(dirty)
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        let (block, set) = self.locate(addr);
        match self.lru.find(set, block) {
            Some(i) => {
                self.lru.set_tag(i, 1);
                true
            }
            None => false,
        }
    }

    fn invalidate_range(&mut self, addr: u64, len: u64) -> u64 {
        let first = addr >> self.line_shift;
        let last = (addr + len.max(1) - 1) >> self.line_shift;
        (first..=last).filter(|&block| self.extract(block << self.line_shift) == Some(true)).count()
            as u64
    }
}

/// Inclusion policy coupling the levels of a [`MultiLevelCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inclusion {
    /// Upper levels are subsets of lower ones; lower-level evictions
    /// back-invalidate.
    Inclusive,
    /// Two levels of equal line size; the lower level holds only victims
    /// of the upper.
    Exclusive,
}

impl Inclusion {
    /// Stable descriptor name (`policy=` value).
    pub fn name(self) -> &'static str {
        match self {
            Inclusion::Inclusive => "inclusive",
            Inclusion::Exclusive => "exclusive",
        }
    }
}

/// Prefetch policy of a [`MultiLevelCache`]'s first level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Prefetch {
    /// No prefetching.
    #[default]
    None,
    /// On every L1 demand miss for line `L`, fill line `L+1` into L1.
    NextLine,
}

impl Prefetch {
    /// Stable descriptor name (`prefetch=` value).
    pub fn name(self) -> &'static str {
        match self {
            Prefetch::None => "none",
            Prefetch::NextLine => "next-line",
        }
    }
}

/// Demand counters of one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty lines this level pushed down (to the next level or, from the
    /// last level, to memory).
    pub writebacks: u64,
}

/// Totals of a [`MultiLevelCache`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiLevelCounts {
    /// References observed.
    pub refs: u64,
    /// Per-level demand counters, L1 first.
    pub levels: Vec<LevelCounts>,
    /// Lines the prefetcher actually brought into L1.
    pub prefetches: u64,
    /// Last-level lines fetched from memory (demand + prefetch).
    pub memory_fills: u64,
    /// Dirty lines written to memory.
    pub memory_writebacks: u64,
    /// Bytes exchanged with memory: fills plus write-backs, at the last
    /// level's line size (prefetch fills count at L1 line size).
    pub memory_traffic: u64,
}

/// A two- or three-level exact LRU hierarchy under one inclusion policy.
#[derive(Clone, Debug)]
pub struct MultiLevelCache {
    levels: Vec<Level>,
    inclusion: Inclusion,
    prefetch: Prefetch,
    counts: Vec<LevelCounts>,
    refs: u64,
    prefetches: u64,
    memory_fills: u64,
    memory_writebacks: u64,
    prefetch_fill_bytes: u64,
}

impl MultiLevelCache {
    /// Builds the hierarchy. Requirements, enforced here:
    /// 1–3 levels; line sizes non-decreasing from L1 down (a lower-level
    /// line must enclose upper-level lines); exclusive policy only with
    /// exactly two levels of equal line size.
    pub fn new(configs: &[CacheConfig], inclusion: Inclusion, prefetch: Prefetch) -> Self {
        assert!(
            (1..=3).contains(&configs.len()),
            "a hierarchy has 1 to 3 levels, got {}",
            configs.len()
        );
        for w in configs.windows(2) {
            assert!(
                w[1].line >= w[0].line,
                "line sizes must be non-decreasing downward ({} then {})",
                w[0].line,
                w[1].line
            );
        }
        if inclusion == Inclusion::Exclusive {
            assert!(configs.len() == 2, "exclusive hierarchies have exactly two levels");
            assert!(
                configs[0].line == configs[1].line,
                "exclusive levels exchange whole lines and need equal line sizes"
            );
        }
        MultiLevelCache {
            levels: configs.iter().map(|&c| Level::new(c)).collect(),
            inclusion,
            prefetch,
            counts: vec![LevelCounts::default(); configs.len()],
            refs: 0,
            prefetches: 0,
            memory_fills: 0,
            memory_writebacks: 0,
            prefetch_fill_bytes: 0,
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Geometry of level `k` (0 = L1).
    pub fn config(&self, k: usize) -> CacheConfig {
        self.levels[k].config()
    }

    /// The inclusion policy.
    pub fn inclusion(&self) -> Inclusion {
        self.inclusion
    }

    /// The prefetch policy.
    pub fn prefetch(&self) -> Prefetch {
        self.prefetch
    }

    /// Current totals.
    pub fn counts(&self) -> MultiLevelCounts {
        let last_line = self.levels.last().unwrap().config().line as u64;
        MultiLevelCounts {
            refs: self.refs,
            levels: self.counts.clone(),
            prefetches: self.prefetches,
            memory_fills: self.memory_fills,
            memory_writebacks: self.memory_writebacks,
            memory_traffic: (self.memory_fills + self.memory_writebacks) * last_line
                + self.prefetch_fill_bytes,
        }
    }

    /// Simulates one access.
    pub fn access_rw(&mut self, addr: u64, is_write: bool) {
        self.refs += 1;
        match self.inclusion {
            Inclusion::Inclusive => self.access_inclusive(addr, is_write),
            Inclusion::Exclusive => self.access_exclusive(addr, is_write),
        }
    }

    fn access_inclusive(&mut self, addr: u64, is_write: bool) {
        // 1. An L1 hit is one probe: the line is promoted where it is found.
        if self.levels[0].promote(addr, is_write) {
            self.counts[0].hits += 1;
            return;
        }
        // 2. Otherwise find the first lower level that holds the line.
        let n = self.levels.len();
        let hit = (1..n).find(|&k| self.levels[k].contains(addr));
        for k in 0..hit.unwrap_or(n) {
            self.counts[k].misses += 1;
        }
        match hit {
            Some(h) => self.counts[h].hits += 1,
            None => self.memory_fills += 1,
        }
        // 3. Fill every level from the hit (or memory) upward, deepest
        // first so victim cascades complete before the level above fills.
        let deepest = hit.unwrap_or(n - 1);
        for k in (0..=deepest).rev() {
            let victim = self.levels[k].fill(addr, k == 0 && is_write);
            if let Some(v) = victim {
                self.evict_inclusive(k, v);
            }
        }
        self.issue_prefetch(addr);
    }

    /// Handles a line leaving inclusive level `k`: back-invalidate the
    /// levels above (their dirty contents fold into the departing line),
    /// then write the line down one level, or to memory from the last.
    fn evict_inclusive(&mut self, k: usize, (vaddr, vdirty): (u64, bool)) {
        let line = self.levels[k].config().line as u64;
        let mut dirty = vdirty;
        for j in 0..k {
            let dropped = self.levels[j].invalidate_range(vaddr, line);
            self.counts[j].writebacks += dropped;
            dirty |= dropped > 0;
        }
        if !dirty {
            return;
        }
        self.counts[k].writebacks += 1;
        if k + 1 == self.levels.len() || !self.levels[k + 1].mark_dirty(vaddr) {
            // From the last level — or past a lower level that no longer
            // holds the enclosing line (it can evict it within the same
            // access cascade) — the data goes to memory.
            self.memory_writebacks += 1;
        }
    }

    /// Exclusive path: L2 is a victim cache, so every movement is a line
    /// *transfer* — the stat-neutral [`Cache`] primitives model it and the
    /// demand counters are kept here.
    fn access_exclusive(&mut self, addr: u64, is_write: bool) {
        if self.levels[0].promote(addr, is_write) {
            self.counts[0].hits += 1;
            return;
        }
        self.counts[0].misses += 1;
        let from_l2 = self.levels[1].extract(addr);
        let dirty = match from_l2 {
            Some(d) => {
                self.counts[1].hits += 1;
                d | is_write
            }
            None => {
                self.counts[1].misses += 1;
                self.memory_fills += 1;
                is_write
            }
        };
        if let Some(v) = self.levels[0].fill(addr, dirty) {
            self.demote_to_l2(v);
        }
        self.issue_prefetch(addr);
    }

    fn issue_prefetch(&mut self, addr: u64) {
        if self.prefetch != Prefetch::NextLine {
            return;
        }
        let line = self.levels[0].config().line as u64;
        let next = (addr & !(line - 1)) + line;
        if self.levels[0].contains(next) {
            return;
        }
        self.prefetches += 1;
        self.prefetch_fill_bytes += line;
        if let Some(v) = self.levels[0].fill(next, false) {
            match self.inclusion {
                Inclusion::Inclusive => self.evict_inclusive(0, v),
                Inclusion::Exclusive => self.demote_to_l2(v),
            }
        }
    }

    /// Moves an L1 victim into exclusive L2; the L2 victim (if dirty)
    /// continues to memory.
    fn demote_to_l2(&mut self, (vaddr, vdirty): (u64, bool)) {
        if vdirty {
            self.counts[0].writebacks += 1;
        }
        if let Some((_, v2dirty)) = self.levels[1].fill(vaddr, vdirty) {
            if v2dirty {
                self.counts[1].writebacks += 1;
                self.memory_writebacks += 1;
            }
        }
    }
}

/// Rule (a) of [`crate::replay`]: an L1 hit touches no lower level and
/// fires no prefetch, so once an iteration repeats the previous line
/// sequence without an L1 miss the whole hierarchy is at a fixed point and
/// every further iteration of the segment is pure L1 hits.
impl Replay for MultiLevelCache {
    const NEED: u32 = 2;

    #[inline]
    fn step(&mut self, addr: u64, is_write: bool) {
        self.access_rw(addr, is_write);
    }

    #[inline(never)]
    fn segment(&mut self, slots: &[BatchSlot], k: u32, r: u32) {
        all_hit_segment(
            self,
            slots,
            (k, r),
            // Back-invalidation and prefetch can evict a line that fits.
            |_| false,
            |m| m.counts[0].misses,
            |m, n| {
                m.refs += n;
                m.counts[0].hits += n;
            },
        );
    }
}

/// [`TraceSink`] feeding one [`MultiLevelCache`], with a native batch
/// path (iteration-major, matching the per-event stream order exactly).
pub struct MultiLevelSink {
    /// The simulated hierarchy.
    pub model: MultiLevelCache,
    segs: Vec<Segment>,
}

impl MultiLevelSink {
    /// Wraps the given hierarchy.
    pub fn new(model: MultiLevelCache) -> Self {
        MultiLevelSink { model, segs: Vec::new() }
    }
}

impl TraceSink for MultiLevelSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.model.access_rw(ev.addr, ev.is_write);
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        // One hierarchy: iteration-major is the stream order. (A
        // hierarchy's state is order-sensitive, so unlike the fan-out
        // sinks there is no configuration-major freedom here.)
        segments(batch, self.model.config(0).line as u64, MultiLevelCache::NEED, &mut self.segs);
        replay(&mut self.model, batch, &self.segs);
    }
}

/// Many independent [`MultiLevelCache`]s fed by one trace pass — the
/// multi-level analogue of [`crate::AssocSweepSink`].
pub struct MultiLevelSweepSink {
    /// The simulated hierarchies, in registration order.
    pub models: Vec<MultiLevelCache>,
    segs: Vec<Segment>,
}

impl MultiLevelSweepSink {
    /// Wraps the given hierarchies.
    pub fn new(models: Vec<MultiLevelCache>) -> Self {
        MultiLevelSweepSink { models, segs: Vec::new() }
    }

    /// Totals per hierarchy, in registration order.
    pub fn counts(&self) -> Vec<MultiLevelCounts> {
        self.models.iter().map(|m| m.counts()).collect()
    }
}

impl TraceSink for MultiLevelSweepSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        for m in &mut self.models {
            m.access_rw(ev.addr, ev.is_write);
        }
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        // Model-major: each hierarchy is independent. Lines nest, so
        // segments at the narrowest L1 line hold for every model.
        let line = self.models.iter().map(|m| m.config(0).line).min().unwrap_or(1);
        segments(batch, line as u64, MultiLevelCache::NEED, &mut self.segs);
        for m in &mut self.models {
            replay(m, batch, &self.segs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_exec::{ExecEngine, Machine};
    use gcr_ir::ParamBinding;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const SRC: &str = "
program p
param N
array A[N, N], B[N, N], C[N]
for i = 1, N {
  for j = 1, N {
    A[j, i] = f(A[j, i], B[i, j])
  }
  C[i] = g(C[i] + A[1, i])
}
for i = 2, N {
  when [2, N - 1] B[i, i - 1] = h(A[i, i])
}
";

    fn l1() -> CacheConfig {
        CacheConfig { size: 512, line: 32, assoc: 4 }
    }

    fn l2() -> CacheConfig {
        CacheConfig { size: 4096, line: 128, assoc: 8 }
    }

    fn run(sink: &mut impl TraceSink, engine: ExecEngine, n: i64) {
        let prog = gcr_frontend::parse(SRC).unwrap();
        Machine::new(&prog, ParamBinding::new(vec![n])).with_engine(engine).run(sink);
    }

    /// Per-level counters must be conservative: every miss at level k is
    /// an access at level k+1, and refs = L1 hits + L1 misses.
    #[test]
    fn demand_counters_are_conservative() {
        for (inclusion, cfgs) in [
            (Inclusion::Inclusive, vec![l1(), l2()]),
            (
                Inclusion::Inclusive,
                vec![l1(), l2(), CacheConfig { size: 1 << 15, line: 128, assoc: 8 }],
            ),
            (Inclusion::Exclusive, vec![l1(), CacheConfig { size: 4096, line: 32, assoc: 8 }]),
        ] {
            let mut sink =
                MultiLevelSink::new(MultiLevelCache::new(&cfgs, inclusion, Prefetch::None));
            run(&mut sink, ExecEngine::Interp, 16);
            let c = sink.model.counts();
            assert_eq!(c.refs, c.levels[0].hits + c.levels[0].misses, "{inclusion:?}");
            for k in 1..c.levels.len() {
                assert_eq!(
                    c.levels[k - 1].misses,
                    c.levels[k].hits + c.levels[k].misses,
                    "{inclusion:?} level {k}"
                );
            }
            assert_eq!(c.memory_fills, c.levels.last().unwrap().misses, "{inclusion:?}");
            assert!(c.refs > 0);
        }
    }

    /// Batched (VM strip) capture must equal the per-event (interpreter)
    /// reference on every counter, for both policies and with the
    /// prefetcher on.
    #[test]
    fn batched_matches_per_event() {
        for (inclusion, prefetch, cfgs) in [
            (Inclusion::Inclusive, Prefetch::None, vec![l1(), l2()]),
            (Inclusion::Inclusive, Prefetch::NextLine, vec![l1(), l2()]),
            (
                Inclusion::Exclusive,
                Prefetch::NextLine,
                vec![l1(), CacheConfig { size: 4096, line: 32, assoc: 8 }],
            ),
        ] {
            let mut vm = MultiLevelSink::new(MultiLevelCache::new(&cfgs, inclusion, prefetch));
            run(&mut vm, ExecEngine::Vm, 14);
            let mut ev = MultiLevelSink::new(MultiLevelCache::new(&cfgs, inclusion, prefetch));
            run(&mut ev, ExecEngine::Interp, 14);
            assert_eq!(
                vm.model.counts(),
                ev.model.counts(),
                "{inclusion:?}/{prefetch:?}: batch path drifted from per-event"
            );
        }
    }

    /// The fan-out sink must be bit-identical to separate passes.
    #[test]
    fn sweep_fan_out_matches_separate_runs() {
        let models = vec![
            MultiLevelCache::new(&[l1(), l2()], Inclusion::Inclusive, Prefetch::None),
            MultiLevelCache::new(
                &[l1(), CacheConfig { size: 4096, line: 32, assoc: 8 }],
                Inclusion::Exclusive,
                Prefetch::NextLine,
            ),
        ];
        let mut multi = MultiLevelSweepSink::new(models.clone());
        run(&mut multi, ExecEngine::Vm, 12);
        for (i, m) in models.into_iter().enumerate() {
            let mut single = MultiLevelSink::new(m);
            run(&mut single, ExecEngine::Vm, 12);
            assert_eq!(multi.counts()[i], single.model.counts(), "model {i}");
        }
    }

    /// Exclusive L1+L2 of total capacity C behaves like one LRU of nearly
    /// capacity C on a working set that fits: after warm-up, a scan over
    /// L1+L2 lines sees no memory fills, while inclusive caps out at L2.
    #[test]
    fn exclusive_capacity_is_additive() {
        let small = CacheConfig { size: 256, line: 32, assoc: 8 }; // 8 lines, 1 set
        let big = CacheConfig { size: 512, line: 32, assoc: 16 }; // 16 lines, 1 set
        let mut excl = MultiLevelCache::new(&[small, big], Inclusion::Exclusive, Prefetch::None);
        let mut incl = MultiLevelCache::new(&[small, big], Inclusion::Inclusive, Prefetch::None);
        // 20 lines: fits in 8 + 16 = 24 (exclusive), not in 16 (inclusive).
        for _ in 0..6 {
            for i in 0..20u64 {
                excl.access_rw(i * 32, false);
                incl.access_rw(i * 32, false);
            }
        }
        assert_eq!(excl.counts().memory_fills, 20, "cold fills only: the set fits exclusively");
        assert!(
            incl.counts().memory_fills > 20,
            "inclusive capacity is bounded by L2: {:?}",
            incl.counts()
        );
    }

    /// Next-line prefetching turns a forward streaming scan into ~half
    /// the demand misses (every prefetched line is used one access later).
    #[test]
    fn next_line_prefetch_halves_streaming_misses() {
        let cfgs = [l1(), CacheConfig { size: 1 << 14, line: 32, assoc: 8 }];
        let mut plain = MultiLevelCache::new(&cfgs, Inclusion::Inclusive, Prefetch::None);
        let mut pf = MultiLevelCache::new(&cfgs, Inclusion::Inclusive, Prefetch::NextLine);
        for i in 0..256u64 {
            plain.access_rw(i * 32, false);
            pf.access_rw(i * 32, false);
        }
        assert_eq!(plain.counts().levels[0].misses, 256);
        assert_eq!(pf.counts().levels[0].misses, 128, "every other line arrives early");
        assert_eq!(pf.counts().prefetches, 128);
    }

    /// Inclusive back-invalidation: when L2 evicts a line, the copies in
    /// L1 disappear with it.
    #[test]
    fn inclusive_l2_eviction_back_invalidates_l1() {
        // L1: 2 lines of 32B (1 set x 2 ways); L2: 2 lines of 32B.
        let tiny = CacheConfig { size: 64, line: 32, assoc: 2 };
        let mut m = MultiLevelCache::new(&[tiny, tiny], Inclusion::Inclusive, Prefetch::None);
        m.access_rw(0, false); // L1 {0}, L2 {0}
        m.access_rw(32, false); // L1 {32,0}, L2 {32,0}
        m.access_rw(64, false); // L2 evicts 0 -> back-invalidates L1's 0
        m.access_rw(0, false); // must miss everywhere again
        let c = m.counts();
        assert_eq!(c.levels[0].misses, 4, "access to back-invalidated line must miss L1");
        assert_eq!(c.memory_fills, 4);
    }

    /// A dirty line evicted from L1 marks its enclosing L2 line dirty, so
    /// the write-back reaches memory exactly once, when L2 evicts it.
    #[test]
    fn dirty_writeback_propagates_through_l2() {
        let tiny = CacheConfig { size: 32, line: 32, assoc: 1 }; // 1 line
        let l2 = CacheConfig { size: 64, line: 32, assoc: 2 }; // 2 lines
        let mut m = MultiLevelCache::new(&[tiny, l2], Inclusion::Inclusive, Prefetch::None);
        m.access_rw(0, true); // dirty in L1
        m.access_rw(32, false); // L1 evicts dirty 0 -> L2's 0 marked dirty
        let mid = m.counts();
        assert_eq!(mid.levels[0].writebacks, 1);
        assert_eq!(mid.memory_writebacks, 0, "dirty data parked in L2, not yet in memory");
        m.access_rw(64, false); // L2 evicts 0 (dirty) -> memory
        m.access_rw(96, false);
        assert_eq!(m.counts().memory_writebacks, 1);
    }

    #[test]
    fn wide_levels_are_chosen_by_geometry() {
        let fa = |lines: usize| CacheConfig { size: lines * 32, line: 32, assoc: lines };
        assert!(matches!(Level::new(fa(64)), Level::Narrow(_)));
        assert!(matches!(Level::new(fa(65)), Level::Wide(_)));
        assert!(matches!(
            Level::new(CacheConfig { size: 1 << 16, line: 32, assoc: 8 }),
            Level::Narrow(_)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A wide level and a narrow `Cache` of the same geometry, driven
        /// by the same calls, agree on every return value and victim —
        /// from empty, through full sets, down to the final recency order.
        #[test]
        fn wide_level_matches_narrow_cache(
            geometry in prop_oneof![
                (65usize..=1024, Just(1usize)),
                (65usize..=160, prop_oneof![Just(2usize), Just(4usize)]),
            ],
            line in prop_oneof![Just(16u64), Just(64u64)],
            ops in vec((0u8..8, 0u64..1 << 32, 0u64..2, 1u64..6), 200..1500),
        ) {
            let (assoc, sets) = geometry;
            let cfg = CacheConfig { size: assoc * sets * line as usize, line: line as usize, assoc };
            let (mut wide, mut narrow) = (WideCache::new(cfg), Cache::new(cfg));
            // 1.25x the capacity: the warm-up fills every set and evicts.
            let space = (assoc * sets) as u64 * 5 / 4;
            for l in 0..space {
                prop_assert_eq!(wide.fill(l * line, l % 3 == 0), narrow.fill(l * line, l % 3 == 0));
            }
            for &(kind, raw, dirty, span) in &ops {
                // Mid-line addresses: both must reduce them to the line.
                let addr = raw % space * line + raw % line;
                match kind {
                    0..=3 => prop_assert_eq!(wide.fill(addr, dirty == 1), narrow.fill(addr, dirty == 1)),
                    4 => prop_assert_eq!(wide.contains(addr), narrow.contains(addr)),
                    5 => prop_assert_eq!(wide.extract(addr), narrow.extract(addr)),
                    6 => prop_assert_eq!(wide.mark_dirty(addr), narrow.mark_dirty(addr)),
                    _ => prop_assert_eq!(
                        wide.invalidate_range(addr, span * line),
                        narrow.invalidate_range(addr, span * line)
                    ),
                }
            }
            // Flushing with fresh lines reads out each set's whole LRU
            // order and every dirty bit as victims.
            for l in space..space + (assoc * sets) as u64 {
                prop_assert_eq!(wide.fill(l * line, false), narrow.fill(l * line, false));
            }
        }
    }
}
