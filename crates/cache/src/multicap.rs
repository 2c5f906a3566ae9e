//! Single-pass multi-capacity cache simulation.
//!
//! The sweep engine's second redundancy killer: the paper's evaluation is
//! a cross-product over cache configurations, and the naive way to cover
//! it is one interpreter run per configuration — every run re-executing
//! the same program and re-generating the same address trace.
//! [`CapacitySweepSink`] consumes **one** trace pass for *all*
//! fully-associative LRU capacities at once: one LRU list, truncated at
//! the largest capacity, answers the miss count of every capacity
//! simultaneously. On such a cache an access misses iff its reuse distance
//! (in lines) is at least the capacity (Section 2.1 of the paper), and
//! that distance is the line's depth in the list — so only the depth's
//! *class* against the registered capacities is needed, never the distance
//! itself. One boundary marker per capacity keeps that class on every node
//! (see the type's documentation); the counts are bit-identical to
//! simulating each capacity separately, at any capacity, power of two or
//! not, and a test holds them to the per-capacity path they replace.
//! ([`crate::AssocSweepSink`] and [`crate::MultiLevelSweepSink`] are the
//! set-associative and multi-level fan-outs.)

use crate::lru::{LruSlab, NIL};
use crate::replay::{iterate, replay, segments, Replay, Segment};
use gcr_exec::{AccessEvent, BatchSlot, TraceBatch, TraceSink};

/// Exact miss counts of every fully-associative LRU capacity in one trace
/// pass.
///
/// Capacities are in bytes and must be positive multiples of the line
/// size; distances are measured at line granularity, so two addresses in
/// the same line count as one datum (spatial locality is honoured exactly
/// as a real fully-associative cache of that line size would).
///
/// The lines touched so far sit in one LRU list, most recent first, cut
/// off at the largest capacity. A line at depth `d` hits in exactly the
/// capacities above `d`, so with the capacities ascending as `caps`, each
/// node carries its *region* `j` — the number of capacities `≤ d` — and
/// `markers[j]` names the node at depth `caps[j] − 1`, the last one of
/// region `j`. An access to a line in region `r` is a hit for `caps[r..]`
/// and a miss below; moving it to the front pushes every shallower line
/// one deeper, which changes a region only for the `r` lines that sat on
/// a marker: each slides one node toward the front. A line not in the
/// list, never seen or pushed past the largest capacity, misses
/// everywhere and recycles the list's last node. Memory is bounded by the
/// largest capacity, not by the program's footprint.
pub struct CapacitySweepSink {
    lru: LruSlab,
    /// Registered capacities in lines, ascending and deduplicated.
    caps: Vec<u64>,
    /// `markers[j]`: the node at depth `caps[j] − 1`, [`NIL`] while fewer
    /// than `caps[j]` lines are resident.
    markers: Vec<u32>,
    /// `by_class[r]`: accesses that found their line in region `r`; the
    /// last entry counts the accesses that found no line.
    by_class: Vec<u64>,
    /// Resident lines, until the list is full.
    len: u64,
    line: u64,
    refs: u64,
    /// `by_class` before a segment's second iteration.
    before: Vec<u64>,
    segs: Vec<Segment>,
}

/// The sweep's single list in its [`LruSlab`].
const LIST: u32 = 0;

impl CapacitySweepSink {
    /// A sweep over `capacities_bytes` with `line`-byte lines (`line` a
    /// power of two; each capacity a positive multiple of `line`).
    pub fn new(line: u64, capacities_bytes: &[u64]) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let mut caps: Vec<u64> = capacities_bytes
            .iter()
            .map(|&c| {
                assert!(
                    c >= line && c % line == 0,
                    "capacity {c} is not a positive multiple of line {line}"
                );
                c / line
            })
            .collect();
        caps.sort_unstable();
        caps.dedup();
        CapacitySweepSink {
            lru: LruSlab::new(1),
            markers: vec![NIL; caps.len()],
            by_class: vec![0; caps.len() + 1],
            caps,
            len: 0,
            line,
            refs: 0,
            before: Vec::new(),
            segs: Vec::new(),
        }
    }

    /// References observed so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Exact misses of a fully associative LRU cache of `capacity_bytes`
    /// (must be one of the registered capacities): cold misses plus
    /// reuses whose line-granular distance reaches the capacity.
    pub fn misses(&self, capacity_bytes: u64) -> u64 {
        debug_assert!(self.markers_sit_on_their_boundaries());
        let j = self
            .caps
            .binary_search(&(capacity_bytes / self.line))
            .unwrap_or_else(|_| panic!("capacity {capacity_bytes} was not registered"));
        self.by_class[j + 1..].iter().sum()
    }

    /// `(capacity_bytes, misses)` for every registered capacity,
    /// ascending.
    pub fn miss_counts(&self) -> Vec<(u64, u64)> {
        self.caps.iter().map(|&lines| (lines * self.line, self.misses(lines * self.line))).collect()
    }

    /// The batch path, with its segments at a line no larger than the
    /// sweep's (depths ignore instance boundaries and the write flag).
    pub(crate) fn record_segments(&mut self, batch: &TraceBatch<'_>, segs: &[Segment]) {
        self.refs += batch.len() as u64;
        replay(self, batch, segs);
    }

    /// One access to line number `line`.
    #[inline(always)]
    fn touch(&mut self, line: u64) {
        if self.lru.head_is(LIST, line) {
            self.by_class[0] += 1;
            return;
        }
        let shifted = match self.lru.lookup(line) {
            Some(i) => {
                let r = self.lru.tag(i) as usize;
                self.by_class[r] += 1;
                if self.markers[r] == i {
                    // `i` is not the head, so a line precedes it.
                    self.markers[r] = self.lru.prev(i);
                }
                self.lru.set_tag(i, 0);
                self.lru.move_to_front(LIST, i);
                r
            }
            None => {
                // (With no capacity registered there is nothing to keep.)
                let Some(last) = self.caps.len().checked_sub(1) else { return };
                self.by_class[last + 1] += 1;
                let victim = self.markers[last];
                if victim == NIL {
                    self.lru.insert_front(LIST, line, 0);
                    self.len += 1;
                    return self.grow_markers();
                }
                // Full: the deepest line leaves, its node becomes the head,
                // and the largest capacity ends on the new last line.
                self.lru.rekey_front(LIST, victim, line, 0);
                self.markers[last] = self.lru.tail(LIST);
                last
            }
        };
        for j in 0..shifted {
            self.slide(j);
        }
    }

    /// The line on `markers[j]` went one deeper, into region `j + 1`; the
    /// line before it now ends region `j`.
    #[inline]
    fn slide(&mut self, j: usize) {
        let crossed = self.markers[j];
        self.lru.set_tag(crossed, j as u32 + 1);
        self.markers[j] = self.lru.prev(crossed);
    }

    /// After a new line lengthened a list that is not yet full: placed
    /// markers slide, and the capacity the list just reached gets its
    /// marker on the new last line.
    fn grow_markers(&mut self) {
        for j in 0..self.caps.len() {
            if self.markers[j] != NIL {
                self.slide(j);
            } else if self.caps[j] == self.len {
                self.markers[j] = self.lru.tail(LIST);
            }
        }
    }

    /// Walks the list: every node's region is the number of capacities
    /// at or below its depth, every marker is the node at its capacity's
    /// depth − 1, and nothing lies past the largest capacity.
    fn markers_sit_on_their_boundaries(&self) -> bool {
        let (mut i, mut depth) = (self.lru.head(LIST), 0u64);
        let mut seen = vec![NIL; self.caps.len()];
        while i != LIST {
            let region = self.caps.partition_point(|&c| c <= depth);
            if region == self.caps.len() || self.lru.tag(i) as usize != region {
                return false;
            }
            if self.caps[region] == depth + 1 {
                seen[region] = i;
            }
            i = self.lru.next(i);
            depth += 1;
        }
        seen == self.markers
    }
}

impl TraceSink for CapacitySweepSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.refs += 1;
        self.touch(ev.addr >> self.line.trailing_zeros());
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        let mut segs = std::mem::take(&mut self.segs);
        segments(batch, self.line, Self::NEED, &mut segs);
        self.record_segments(batch, &segs);
        self.segs = segs;
    }
}

/// Rule (c) of [`crate::replay`]: after two iterations on the same line
/// sequence the list, its markers and regions are what they were after the
/// first, so every further iteration repeats the second one's classes.
impl Replay for CapacitySweepSink {
    const NEED: u32 = 2;

    #[inline(always)]
    fn step(&mut self, addr: u64, _is_write: bool) {
        self.touch(addr >> self.line.trailing_zeros());
    }

    #[inline(never)]
    fn segment(&mut self, slots: &[BatchSlot], k: u32, r: u32) {
        iterate(self, slots, k..k + 1);
        self.before.clone_from(&self.by_class);
        iterate(self, slots, k + 1..k + 2);
        let more = (r - 1) as u64;
        for (c, &b) in self.by_class.iter_mut().zip(&self.before) {
            *c += (*c - b) * more;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Cache, CacheConfig};
    use gcr_exec::Machine;
    use gcr_ir::ParamBinding;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const SRC: &str = "
program p
param N
array A[N, N], B[N, N]
for i = 1, N {
  for j = 1, N {
    A[j, i] = f(A[j, i], B[i, j])
  }
}
for i = 1, N {
  for j = 1, N {
    B[j, i] = g(A[j, i])
  }
}
";

    /// Byte addresses of one run (for replaying the identical stream
    /// through reference simulators).
    fn trace_of(n: i64) -> Vec<(u64, bool)> {
        struct Cap(Vec<(u64, bool)>);
        impl TraceSink for Cap {
            fn access(&mut self, ev: AccessEvent) {
                self.0.push((ev.addr, ev.is_write));
            }
        }
        let prog = gcr_frontend::parse(SRC).unwrap();
        let mut m = Machine::new(&prog, ParamBinding::new(vec![n]));
        let mut cap = Cap(Vec::new());
        m.run(&mut cap);
        cap.0
    }

    fn slot(addr: u64, stride: i64, is_write: bool) -> gcr_exec::BatchSlot {
        gcr_exec::BatchSlot {
            addr,
            stride,
            array: gcr_ir::ArrayId::from_index(0),
            ref_id: gcr_ir::RefId::from_index(0),
            stmt: gcr_ir::StmtId::from_index(0),
            is_write,
        }
    }

    fn event(addr: u64, is_write: bool) -> AccessEvent {
        slot(addr, 0, is_write).event_at(0)
    }

    #[test]
    fn capacity_sweep_bit_identical_to_per_capacity_lru_simulation() {
        let trace = trace_of(24);
        let line = 32u64;
        // Mix of power-of-two and sub-bin capacities (3 and 25 lines).
        let caps: Vec<u64> = vec![line, 3 * line, 8 * line, 25 * line, 256 * line];
        let mut sweep = CapacitySweepSink::new(line, &caps);
        for &(addr, w) in &trace {
            sweep.access(event(addr, w));
        }
        // Current per-level path: one dedicated pass per capacity through a
        // fully-associative LRU cache simulator.
        for &cap in &caps {
            let assoc = (cap / line) as usize;
            let mut c = Cache::new(CacheConfig { size: cap as usize, line: line as usize, assoc });
            for &(addr, w) in &trace {
                c.access_rw(addr, w);
            }
            assert_eq!(
                sweep.misses(cap),
                c.misses,
                "capacity {} lines must match the dedicated simulation",
                cap / line
            );
        }
        assert_eq!(sweep.refs(), trace.len() as u64);
    }

    #[test]
    fn capacity_sweep_misses_are_monotone() {
        let trace = trace_of(16);
        let line = 32u64;
        let caps: Vec<u64> = (1..=64).map(|k| k * line).collect();
        let mut sweep = CapacitySweepSink::new(line, &caps);
        for &(addr, w) in &trace {
            sweep.access(event(addr, w));
        }
        let counts = sweep.miss_counts();
        for w in counts.windows(2) {
            assert!(w[1].1 <= w[0].1, "bigger LRU cache cannot miss more: {counts:?}");
        }
    }

    /// Strips of a few affine slots with short strides over a small
    /// address range, so lines recur at every depth of the list.
    fn strips() -> impl Strategy<Value = Vec<(Vec<(u64, i64)>, u32)>> {
        vec((vec((4096u64..6144, -40i64..41), 1..4), 1u32..24), 1..12)
    }

    /// Capacity sets in lines, as a caller may hand them over: the
    /// degenerate shapes, then anything — unsorted, repeated, not powers
    /// of two.
    fn capacity_sets() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![Just(vec![1]), Just(vec![1, 2]), Just(vec![7, 7, 7]), vec(1u64..48, 1..6),]
    }

    proptest! {
        /// The marker list against one dedicated narrow `Cache` per
        /// capacity, the per-event path against `record_batch`, and the
        /// list's own invariants after every single access.
        #[test]
        fn marker_list_matches_dedicated_lru_per_capacity(
            strips in strips(),
            cap_lines in capacity_sets(),
            line in prop_oneof![Just(8u64), Just(32u64)],
        ) {
            let caps: Vec<u64> = cap_lines.iter().map(|&c| c * line).collect();
            let mut per_event = CapacitySweepSink::new(line, &caps);
            let mut batched = CapacitySweepSink::new(line, &caps);
            let mut trace = Vec::new();
            for (slots, iters) in &strips {
                let slots: Vec<_> = slots.iter().map(|&(a, s)| slot(a, s, false)).collect();
                batched.record_batch(&gcr_exec::TraceBatch { slots: &slots, ends: &[], iters: *iters });
                for k in 0..*iters as i64 {
                    for sl in &slots {
                        per_event.access(sl.event_at(k));
                        prop_assert!(per_event.markers_sit_on_their_boundaries());
                        trace.push(sl.addr_at(k));
                    }
                }
            }
            prop_assert!(batched.markers_sit_on_their_boundaries());
            prop_assert_eq!(per_event.refs(), trace.len() as u64);
            prop_assert_eq!(batched.refs(), trace.len() as u64);
            prop_assert_eq!(per_event.miss_counts(), batched.miss_counts());
            for &cap in &caps {
                let assoc = (cap / line) as usize;
                let mut c = Cache::new(CacheConfig { size: cap as usize, line: line as usize, assoc });
                for &addr in &trace {
                    c.access(addr);
                }
                prop_assert_eq!(per_event.misses(cap), c.misses, "capacity {} lines", assoc);
            }
        }
    }

    #[test]
    fn memory_is_bounded_by_the_largest_capacity() {
        let (line, largest) = (32u64, 64u64);
        let mut sweep = CapacitySweepSink::new(line, &[4 * line, largest * line, 16 * line]);
        for i in 0..10 * largest {
            sweep.access(event(i * line, false));
        }
        assert_eq!(sweep.misses(largest * line), 10 * largest, "a pure stream never hits");
        assert_eq!(sweep.lru.slab_len() as u64, largest + 1, "one node per line plus the sentinel");
    }

    #[test]
    #[should_panic(expected = "was not registered")]
    fn asking_for_an_unregistered_capacity_is_a_programmer_error() {
        CapacitySweepSink::new(32, &[64, 256]).misses(128);
    }

    #[test]
    fn an_empty_capacity_set_only_counts_references() {
        let mut sweep = CapacitySweepSink::new(32, &[]);
        for a in [0, 32, 0, 4096] {
            sweep.access(event(a, false));
        }
        assert_eq!((sweep.refs(), sweep.miss_counts()), (4, vec![]));
        assert_eq!(sweep.lru.slab_len(), 1, "nothing is kept when nothing can be asked");
    }
}
