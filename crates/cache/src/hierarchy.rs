//! Two-level cache hierarchy plus TLB, with a trace-sink adapter.
//!
//! Mirrors how the paper's hardware counters see memory: the TLB observes
//! every reference; L2 observes L1 misses (miss counts, like the R10K/R12K
//! event counters).

use crate::cost::CostModel;
use crate::replay::{all_hit_segment, replay, segments, Replay, Segment};
use crate::sim::{Cache, CacheConfig, Tlb};
use gcr_exec::{AccessEvent, BatchSlot, ExecStats, Machine, Tee, TraceBatch, TraceSink};
use gcr_ir::GcrError;

/// Miss counters of one simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissCounts {
    /// Total memory references observed.
    pub refs: u64,
    /// L1 misses.
    pub l1: u64,
    /// L2 misses (among L1 misses).
    pub l2: u64,
    /// TLB misses.
    pub tlb: u64,
    /// Bytes transferred between L2 and memory (fills + write-backs) — the
    /// paper's "amount of data transferred".
    pub memory_traffic: u64,
}

impl MissCounts {
    /// Counter-wise difference `self − earlier`, for attributing a window
    /// of a run (e.g. one phase) from two cumulative snapshots.
    pub fn since(&self, earlier: &MissCounts) -> MissCounts {
        MissCounts {
            refs: self.refs - earlier.refs,
            l1: self.l1 - earlier.l1,
            l2: self.l2 - earlier.l2,
            tlb: self.tlb - earlier.tlb,
            memory_traffic: self.memory_traffic - earlier.memory_traffic,
        }
    }

    /// Counter-wise accumulation.
    pub fn add(&mut self, other: &MissCounts) {
        self.refs += other.refs;
        self.l1 += other.l1;
        self.l2 += other.l2;
        self.tlb += other.tlb;
        self.memory_traffic += other.memory_traffic;
    }

    /// L1 miss rate over all references.
    pub fn l1_rate(&self) -> f64 {
        ratio(self.l1, self.refs)
    }

    /// L2 miss rate over all references (paper reports global rates).
    pub fn l2_rate(&self) -> f64 {
        ratio(self.l2, self.refs)
    }

    /// TLB miss rate over all references.
    pub fn tlb_rate(&self) -> f64 {
        ratio(self.tlb, self.refs)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// L1 + L2 + TLB.
///
/// The TLB and the L1→L2 pair never exchange state, so a batch replays
/// through each at its own granularity: the TLB per page, the caches per
/// L1 line. The counters are the components' own.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    /// First-level cache.
    pub l1: Cache,
    /// Second-level cache (sees L1 misses only).
    pub l2: Cache,
    /// Translation lookaside buffer (sees every reference).
    pub tlb: Tlb,
}

impl MemoryHierarchy {
    /// Builds a hierarchy.
    pub fn new(l1: CacheConfig, l2: CacheConfig, tlb: Tlb) -> Self {
        MemoryHierarchy { l1: Cache::new(l1), l2: Cache::new(l2), tlb }
    }

    /// The paper's Origin2000 (R12K): 32 KB L1, 4 MB L2, 64-entry TLB.
    pub fn origin2000() -> Self {
        Self::new(CacheConfig::l1_mips(), CacheConfig::l2_origin2000(), Tlb::mips_r10k())
    }

    /// The paper's Octane (R10K): 32 KB L1, 1 MB L2, 64-entry TLB.
    pub fn octane() -> Self {
        Self::new(CacheConfig::l1_mips(), CacheConfig::l2_octane(), Tlb::mips_r10k())
    }

    /// Origin2000 geometry shrunk for scaled problem sizes (line sizes and
    /// associativity preserved). `l1_scale` shrinks L1 and the TLB page —
    /// these track the *linear* problem dimension (how many grid rows fit)
    /// — while `l2_scale` shrinks L2, which tracks the total data
    /// footprint. TLB entry count is kept at 64.
    pub fn origin2000_scaled(l1_scale: usize, l2_scale: usize) -> Self {
        let page = ((16 << 10) / l1_scale.max(1)).next_power_of_two().clamp(256, 16 << 10);
        Self::new(
            CacheConfig::l1_mips().scaled(l1_scale),
            CacheConfig::l2_origin2000().scaled(l2_scale),
            Tlb::scaled(64, page),
        )
    }

    /// Simulates one read reference.
    #[inline]
    pub fn access(&mut self, addr: u64) {
        self.access_rw(addr, false);
    }

    /// Simulates one reference; stores dirty the caches for write-back
    /// traffic accounting.
    #[inline]
    pub fn access_rw(&mut self, addr: u64, is_write: bool) {
        self.tlb.access(addr);
        self.caches().step(addr, is_write);
    }

    /// Miss counters so far: every reference is one TLB lookup.
    pub fn counts(&self) -> MissCounts {
        MissCounts {
            refs: self.tlb.hits() + self.tlb.misses(),
            l1: self.l1.misses,
            l2: self.l2.misses,
            tlb: self.tlb.misses(),
            memory_traffic: self.l2.traffic_bytes(),
        }
    }

    /// Clears all state and counters.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.tlb.reset();
    }

    fn caches(&mut self) -> Caches<'_> {
        Caches { l1: &mut self.l1, l2: &mut self.l2 }
    }

    /// The whole of `batch`, in stream order per component: the TLB over
    /// its page-stable segments, then L1→L2 over its line-stable ones
    /// (`segs` is scratch space for both lists).
    fn record_batch(&mut self, batch: &TraceBatch<'_>, segs: &mut Vec<Segment>) {
        segments(batch, self.tlb.page as u64, Tlb::NEED, segs);
        replay(&mut self.tlb, batch, segs);
        segments(batch, self.l1.config().line as u64, Caches::NEED, segs);
        replay(&mut self.caches(), batch, segs);
    }
}

/// The L1→L2 pair of a [`MemoryHierarchy`]: L2 sees L1 misses only.
struct Caches<'a> {
    l1: &'a mut Cache,
    l2: &'a mut Cache,
}

/// Rule (a) of [`crate::replay`]: L2 sees only L1 misses, so once an
/// iteration repeats the previous line sequence with every L1 lookup a
/// hit, every further iteration of the segment is pure hits.
impl Replay for Caches<'_> {
    const NEED: u32 = 3;

    #[inline(always)]
    fn step(&mut self, addr: u64, is_write: bool) {
        if !self.l1.access_rw(addr, is_write) {
            self.l2.access_rw(addr, is_write);
        }
    }

    #[inline(never)]
    fn segment(&mut self, slots: &[BatchSlot], k: u32, r: u32) {
        all_hit_segment(
            self,
            slots,
            (k, r),
            |c| c.l1.fits(slots, k),
            |c| c.l1.misses,
            |c, n| c.l1.hits += n,
        );
    }
}

/// `TraceSink` adapter: feed a [`MemoryHierarchy`] directly from the
/// interpreter.
pub struct HierarchySink {
    /// The simulated hierarchy.
    pub hierarchy: MemoryHierarchy,
    segs: Vec<Segment>,
}

impl HierarchySink {
    /// Wraps a hierarchy.
    pub fn new(hierarchy: MemoryHierarchy) -> Self {
        HierarchySink { hierarchy, segs: Vec::new() }
    }
}

impl TraceSink for HierarchySink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.hierarchy.access_rw(ev.addr, ev.is_write);
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        // The hierarchy is boundary-blind.
        self.hierarchy.record_batch(batch, &mut self.segs);
    }
}

/// [`HierarchySink`] with per-phase miss attribution: every access is
/// charged to the top-level statement (computation phase) that issued it,
/// using the statement → phase map of
/// [`gcr_ir::Program::phase_of_stmts`]. Totals are identical to an
/// unphased [`HierarchySink`] run — the hierarchy sees the same stream —
/// so the phased sink can replace it wherever a breakdown is wanted.
///
/// ```
/// use gcr_cache::{MemoryHierarchy, PhasedHierarchySink};
/// use gcr_exec::Machine;
/// use gcr_ir::ParamBinding;
/// let prog = gcr_frontend::parse("
/// program demo
/// param N
/// array A[N, N]
/// for i = 1, N { for j = 1, N { A[j, i] = f(A[j, i]) } }
/// for i = 1, N { for j = 1, N { A[j, i] = g(A[j, i]) } }
/// ").unwrap();
/// let mut sink = PhasedHierarchySink::new(
///     MemoryHierarchy::origin2000_scaled(16, 64), &prog);
/// Machine::new(&prog, ParamBinding::new(vec![64])).run(&mut sink);
/// let phases = sink.phases();
/// assert_eq!(phases.len(), 2);
/// assert_eq!(phases[0].0, "0: for i");
/// let total = sink.hierarchy.counts();
/// assert_eq!(phases[0].1.refs + phases[1].1.refs, total.refs);
/// ```
pub struct PhasedHierarchySink {
    /// The simulated hierarchy.
    pub hierarchy: MemoryHierarchy,
    phase_of: Vec<usize>,
    labels: Vec<String>,
    per_phase: Vec<MissCounts>,
    current: Option<usize>,
    mark: MissCounts,
    segs: Vec<Segment>,
}

impl PhasedHierarchySink {
    /// Wraps a hierarchy with the phase structure of `prog`.
    pub fn new(hierarchy: MemoryHierarchy, prog: &gcr_ir::Program) -> Self {
        let labels = prog.phase_labels();
        PhasedHierarchySink {
            hierarchy,
            phase_of: prog.phase_of_stmts(),
            per_phase: vec![MissCounts::default(); labels.len()],
            labels,
            current: None,
            mark: MissCounts::default(),
            segs: Vec::new(),
        }
    }

    fn flush(&mut self) {
        let now = self.hierarchy.counts();
        if let Some(p) = self.current {
            if let Some(c) = self.per_phase.get_mut(p) {
                c.add(&now.since(&self.mark));
            }
        }
        self.mark = now;
    }

    /// Per-phase miss counters measured so far, labelled.
    pub fn phases(&mut self) -> Vec<(String, MissCounts)> {
        self.flush();
        self.labels.iter().cloned().zip(self.per_phase.iter().copied()).collect()
    }
}

impl TraceSink for PhasedHierarchySink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        let phase = self.phase_of.get(ev.stmt.index()).copied().unwrap_or(0);
        if self.current != Some(phase) {
            self.flush();
            self.current = Some(phase);
        }
        self.hierarchy.access_rw(ev.addr, ev.is_write);
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        // Attribution only depends on each event's phase, in stream order,
        // and each slot's phase is loop-invariant. A strip within one phase
        // switches at most once, up front, and then replays like the
        // unphased sink; otherwise the check is a predictable compare per
        // event.
        let phase_of = |sl: &BatchSlot| self.phase_of.get(sl.stmt.index()).copied().unwrap_or(0);
        if let Some(phase) = batch.slots.first().map(phase_of) {
            if batch.slots.iter().all(|sl| phase_of(sl) == phase) {
                if self.current != Some(phase) {
                    self.flush();
                    self.current = Some(phase);
                }
                return self.hierarchy.record_batch(batch, &mut self.segs);
            }
        }
        for k in 0..batch.iters as i64 {
            for sl in batch.slots {
                let phase = self.phase_of.get(sl.stmt.index()).copied().unwrap_or(0);
                if self.current != Some(phase) {
                    self.flush();
                    self.current = Some(phase);
                }
                self.hierarchy.access_rw(sl.addr_at(k), sl.is_write);
            }
        }
    }
}

/// What the paper reads off one execution of one program version
/// (Section 6, Figure 10): the hardware-counter stand-ins and the cycle
/// time. A pure function of program, layout, binding, step count and cache
/// scales, so it is also the record the sweep's measurement cache stores.
#[derive(Clone, Debug, PartialEq)]
pub struct SimRun {
    /// Execution statistics.
    pub stats: ExecStats,
    /// Total miss counters.
    pub misses: MissCounts,
    /// Modeled cycles.
    pub cycles: f64,
    /// Per-phase miss counters.
    pub phases: Vec<(String, MissCounts)>,
}

/// The paper's measurement, the one every front end takes: runs `m` — a
/// fresh [`Machine::capped`] — for `steps` time steps within `fuel`
/// through the Origin2000 hierarchy shrunk by `(l1_scale, l2_scale)`, and
/// prices the counters with the default [`CostModel`]. `extra` rides the
/// same run (an `Option` or a [`Tee`] of sinks; [`gcr_exec::NullSink`] for
/// none), so further measurements of this version cost no second execution.
pub fn simulate<S: TraceSink>(
    m: &mut Machine<'_>,
    (l1_scale, l2_scale): (usize, usize),
    steps: usize,
    fuel: u64,
    extra: &mut S,
) -> Result<SimRun, GcrError> {
    debug_assert_eq!(m.stats(), ExecStats::default(), "the statistics are this run's alone");
    let mut sink = PhasedHierarchySink::new(
        MemoryHierarchy::origin2000_scaled(l1_scale, l2_scale),
        m.program(),
    );
    m.run_steps_guarded(&mut Tee { a: &mut sink, b: extra }, steps, fuel)?;
    let (stats, misses) = (m.stats(), sink.hierarchy.counts());
    let cycles = CostModel::default().cycles(&stats, &misses);
    Ok(SimRun { stats, misses, cycles, phases: sink.phases() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = MemoryHierarchy::new(
            CacheConfig { size: 64, line: 32, assoc: 2 },
            CacheConfig { size: 256, line: 32, assoc: 2 },
            Tlb::new(4, 4096),
        );
        h.access(0); // L1 miss, L2 miss
        h.access(0); // L1 hit
        h.access(8); // L1 hit (same line)
        let c = h.counts();
        assert_eq!(c.refs, 3);
        assert_eq!(c.l1, 1);
        assert_eq!(c.l2, 1);
        assert_eq!(h.l2.accesses(), 1, "L2 only saw the L1 miss");
    }

    #[test]
    fn streaming_misses_at_line_granularity() {
        let mut h = MemoryHierarchy::new(
            CacheConfig { size: 1024, line: 32, assoc: 2 },
            CacheConfig { size: 4096, line: 128, assoc: 2 },
            Tlb::new(4, 4096),
        );
        // Stream 64 KB of doubles: every 4th access misses L1 (32 B lines),
        // and of those every 4th misses L2 (128 B lines).
        let n = 8192u64;
        for i in 0..n {
            h.access(i * 8);
        }
        let c = h.counts();
        assert_eq!(c.l1, n / 4);
        assert_eq!(c.l2, n / 16);
        assert_eq!(c.tlb, n * 8 / 4096);
        assert!((c.l1_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = MemoryHierarchy::origin2000_scaled(16, 64);
        for i in 0..1000u64 {
            h.access(i * 64);
        }
        assert!(h.counts().l1 > 0);
        h.reset();
        assert_eq!(h.counts(), MissCounts::default());
    }

    #[test]
    fn phased_sink_matches_unphased_totals() {
        use gcr_exec::Machine;
        let prog = gcr_frontend::parse(
            "
program p
param N
array A[N], B[N]
for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(A[i], B[i])
}
",
        )
        .unwrap();
        let bind = gcr_ir::ParamBinding::new(vec![512]);
        let mut plain = HierarchySink::new(MemoryHierarchy::origin2000_scaled(16, 64));
        Machine::new(&prog, bind.clone()).run(&mut plain);
        let mut phased =
            PhasedHierarchySink::new(MemoryHierarchy::origin2000_scaled(16, 64), &prog);
        Machine::new(&prog, bind).run(&mut phased);
        let phases = phased.phases();
        assert_eq!(phases.len(), 2);
        let total = phased.hierarchy.counts();
        assert_eq!(total, plain.hierarchy.counts(), "phasing must not perturb the simulation");
        let mut sum = MissCounts::default();
        for (_, c) in &phases {
            sum.add(c);
        }
        assert_eq!(sum, total, "phases partition the totals");
        // The second nest re-reads A and streams B: it must see references.
        assert!(phases[1].1.refs > 0);
    }

    #[test]
    fn presets_build() {
        let o = MemoryHierarchy::origin2000();
        assert_eq!(o.l2.config().size, 4 << 20);
        let c = MemoryHierarchy::octane();
        assert_eq!(c.l2.config().size, 1 << 20);
    }
}
