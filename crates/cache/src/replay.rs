//! Whole-iteration replay: the one batch expansion of the cache sinks.
//!
//! A [`TraceBatch`] describes a strip as one affine [`BatchSlot`] per event
//! position, so which line each slot touches at iteration `k` is known
//! from the descriptors alone. Where every slot stays on its line for
//! several iterations, the iterations touch the same *line sequence*, and
//! an LRU structure keyed on lines of that size reaches a fixed point
//! after one or two of them: from then on each iteration repeats the
//! previous one's outcome exactly, so its counts can be added without
//! touching the structure. This is the line-granular reasoning of the
//! paper's Section 2.1 applied to a loop body: a repeated body is one
//! reuse, not `r` of them.
//!
//! [`segments`] finds those runs once per batch; [`replay`] walks the
//! batch in stream order, expanding the iterations outside any segment
//! through [`Replay::step`] and handing each segment to
//! [`Replay::segment`], where a sink applies its exact rule (DESIGN.md §17
//! ADR 6 has the proofs):
//!
//! * (a) *all-hit* — the multi-level hierarchy and the legacy one's
//!   L1→L2 pair: once an iteration repeats the previous line sequence
//!   without an L1 miss, every later one is pure hits;
//! * (b) *delta, set-associative* — a [`crate::Cache`]'s tags and
//!   recency order repeat after one iteration and its dirty bits after
//!   two, so the third iteration's counts repeat; and when no set gets
//!   more distinct lines of an iteration than it has ways, every
//!   iteration after the first is pure hits;
//! * (c) *delta, fully associative* — the FA sweep's marker list, and the
//!   legacy hierarchy's [`crate::Tlb`] at page granularity, repeat after
//!   one iteration, so the second iteration's counts repeat.
//!
//! A simulator made of parts that never exchange state replays each part
//! at its own granularity: the legacy hierarchy lists its segments twice
//! per batch, once per TLB page for the TLB and once per L1 line for the
//! L1→L2 pair.
//!
//! A segment a sink cannot use, and every iteration outside one, goes
//! through the plain per-event expansion: the same calls the per-event
//! path makes, in the same order.

use gcr_exec::{BatchSlot, TraceBatch};
use std::ops::Range;

/// `(k, r)`: iterations `k..=k + r` of a strip put every slot on the line
/// it has at iteration `k`.
pub(crate) type Segment = (u32, u32);

/// How many iterations after `k` keep every slot on its iteration-`k`
/// line of `line` bytes (a power of two); `u64::MAX` when no slot moves.
pub(crate) fn stable_run(slots: &[BatchSlot], k: u32, line: u64) -> u64 {
    let mut run = u64::MAX;
    for sl in slots {
        let off = sl.addr_at(k as i64) & (line - 1);
        let left = match sl.stride {
            0 => continue,
            s if s > 0 => (line - 1 - off) / s as u64,
            s => off / s.unsigned_abs(),
        };
        run = run.min(left);
    }
    run
}

/// Lists into `out` the maximal segments of `batch` at `line` bytes that
/// span at least `need + 1` iterations (`r ≥ need`), in stream order.
///
/// A slot whose stride leaves a line within `need` iterations from any
/// offset rules every segment out, so such a batch (a fused strip whose
/// interleaved slots cross lines) costs one pass over its slots. Otherwise
/// the cost does not grow with the strip: every slot's offset in its line
/// repeats after `line / gcd(line, strides)` iterations, and with it the
/// pattern of line crossings, so after the first run one period of runs
/// is computed and tiled over the rest of the strip — or, when no run of
/// the period is long enough, nothing more is listed.
pub(crate) fn segments(batch: &TraceBatch<'_>, line: u64, need: u32, out: &mut Vec<Segment>) {
    out.clear();
    let short =
        |sl: &BatchSlot| sl.stride != 0 && (line - 1) / sl.stride.unsigned_abs() < need as u64;
    if batch.slots.iter().any(short) || batch.iters == 0 {
        return;
    }
    let iters = batch.iters;
    // Clamped before the narrowing: an all-zero-stride batch has no limit
    // of its own.
    let run_at = |k: u32| stable_run(batch.slots, k, line).min((iters - 1 - k) as u64) as u32;
    let mut push = |k: u32, r: u32| {
        if r >= need {
            out.push((k, r));
        }
    };
    let first = run_at(0);
    push(0, first);
    let start = first + 1;
    if start >= iters {
        return;
    }
    // `start` follows a crossing, so some stride is non-zero and the
    // period is at most `line`.
    let period =
        (line / batch.slots.iter().fold(line, |g, sl| gcd(g, sl.stride.unsigned_abs()))) as u32;
    let mut runs = [0u32; 64];
    let (mut n, mut k) = (0, start);
    while k < start.saturating_add(period) && k < iters {
        if n == runs.len() {
            // A period too long to keep: list the strip run by run.
            k = start;
            while k < iters {
                let r = run_at(k);
                push(k, r);
                k += r + 1;
            }
            return;
        }
        runs[n] = run_at(k);
        k += runs[n] + 1;
        n += 1;
    }
    let runs = &runs[..n];
    if runs.iter().all(|&r| r < need) {
        return;
    }
    let mut k = start;
    'tile: loop {
        for &r in runs {
            if k >= iters {
                break 'tile;
            }
            let r = r.min(iters - 1 - k);
            push(k, r);
            k += r + 1;
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A simulator the batch paths drive: one access at a time, or a whole
/// [`Segment`] under the simulator's replay rule.
pub(crate) trait Replay {
    /// The shortest segment (`r`) the rule skips anything in; shorter
    /// ones are simulated event by event.
    const NEED: u32;

    /// One access, exactly as the per-event path simulates it.
    fn step(&mut self, addr: u64, is_write: bool);

    /// Iterations `k..=k + r` of a segment with `r ≥ NEED`.
    fn segment(&mut self, slots: &[BatchSlot], k: u32, r: u32);
}

/// Iterations `ks` of a strip, event by event in stream order: the hot
/// loop, forced inline so each caller gets its own copy.
#[inline(always)]
pub(crate) fn iterate<R: Replay>(sim: &mut R, slots: &[BatchSlot], ks: Range<u32>) {
    for k in ks {
        for sl in slots {
            sim.step(sl.addr_at(k as i64), sl.is_write);
        }
    }
}

/// The whole batch through `sim`: `segs` (from [`segments`] at a line no
/// larger than any `sim` keys on) through [`Replay::segment`], the rest
/// through [`Replay::step`].
pub(crate) fn replay<R: Replay>(sim: &mut R, batch: &TraceBatch<'_>, segs: &[Segment]) {
    let mut next = 0;
    for &(k, r) in segs {
        if r >= R::NEED {
            iterate(sim, batch.slots, next..k);
            sim.segment(batch.slots, k, r);
            next = k + r + 1;
        }
    }
    iterate(sim, batch.slots, next..batch.iters);
}

/// Rule (a) for a simulator whose only non-hit outcome is a miss its
/// `misses` counts: simulates iteration `k`, then — unless `fits` already
/// proves the rest pure hits — iteration `k + 1`; once an iteration of the
/// segment after the first has missed nowhere, `add_hits` receives the
/// event count of the iterations left, otherwise they are simulated.
pub(crate) fn all_hit_segment<R: Replay>(
    sim: &mut R,
    slots: &[BatchSlot],
    (k, r): Segment,
    fits: impl Fn(&R) -> bool,
    misses: impl Fn(&R) -> u64,
    add_hits: impl FnOnce(&mut R, u64),
) {
    let n = slots.len() as u64;
    iterate(sim, slots, k..k + 1);
    if fits(sim) {
        return add_hits(sim, r as u64 * n);
    }
    let before = misses(sim);
    iterate(sim, slots, k + 1..k + 2);
    if misses(sim) == before {
        add_hits(sim, (r - 1) as u64 * n);
    } else {
        iterate(sim, slots, k + 2..k + r + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn slot(addr: u64, stride: i64) -> BatchSlot {
        BatchSlot {
            addr,
            stride,
            array: gcr_ir::ArrayId::from_index(0),
            ref_id: gcr_ir::RefId::from_index(0),
            stmt: gcr_ir::StmtId::from_index(0),
            is_write: false,
        }
    }

    fn segs(slots: &[BatchSlot], iters: u32, line: u64, need: u32) -> Vec<Segment> {
        let mut out = Vec::new();
        segments(&TraceBatch { slots, ends: &[], iters }, line, need, &mut out);
        out
    }

    #[test]
    fn stable_run_counts_iterations_left_on_the_line() {
        // Offset 8 in a 64-byte line: 6 more 8-byte steps up, 1 step down.
        assert_eq!(stable_run(&[slot(1024 + 8, 8)], 0, 64), 6);
        assert_eq!(stable_run(&[slot(1024 + 8, -8)], 0, 64), 1);
        assert_eq!(stable_run(&[slot(1024 + 8, 8)], 2, 64), 4);
        assert_eq!(stable_run(&[slot(1024, 8), slot(2048 + 40, 8)], 0, 64), 2);
        assert_eq!(stable_run(&[slot(1024, 0)], 5, 64), u64::MAX);
        assert_eq!(stable_run(&[slot(1024, 64)], 0, 64), 0);
    }

    #[test]
    fn segments_partition_the_strip_at_line_crossings() {
        // Lines of 32 bytes, stride 8: iterations 0-3, 4-7, 8-9 of 10.
        assert_eq!(segs(&[slot(4096, 8)], 10, 32, 1), [(0, 3), (4, 3), (8, 1)]);
        assert_eq!(segs(&[slot(4096, 8)], 10, 32, 2), [(0, 3), (4, 3)]);
        // Descending from offset 8: iterations 0-1, then 2-5, 6-9.
        assert_eq!(segs(&[slot(4096 + 8, -8)], 10, 32, 3), [(2, 3), (6, 3)]);
    }

    #[test]
    fn an_all_zero_stride_batch_is_one_segment() {
        assert_eq!(segs(&[slot(4096, 0), slot(64, 0)], 7, 64, 2), [(0, 6)]);
        assert_eq!(segs(&[slot(4096, 0)], 1, 64, 0), [(0, 0)]);
        assert_eq!(segs(&[], 3, 64, 2), [(0, 2)]);
        assert!(segs(&[slot(4096, 0)], 0, 64, 0).is_empty());
    }

    #[test]
    fn a_slot_too_fast_for_need_rules_out_every_segment() {
        // 63 / 24 = 2 iterations at most after any start: enough for 2.
        assert_eq!(segs(&[slot(0, 24), slot(4096, 0)], 9, 64, 2), [(0, 2), (3, 2)]);
        assert!(segs(&[slot(0, 24), slot(4096, 0)], 9, 64, 3).is_empty());
        assert_eq!(segs(&[slot(0, -64)], 3, 64, 0), [(0, 0), (1, 0), (2, 0)]);
        assert!(segs(&[slot(0, 8), slot(0, 64)], 9, 64, 1).is_empty());
    }

    /// The maximal runs of equal line sequences, iteration by iteration.
    fn naive(slots: &[BatchSlot], iters: u32, line: u64, need: u32) -> Vec<Segment> {
        let lines = |k: u32| slots.iter().map(|sl| sl.addr_at(k as i64) / line).collect::<Vec<_>>();
        let (mut out, mut k) = (Vec::new(), 0);
        while k < iters {
            let mut r = 0;
            while k + r + 1 < iters && lines(k + r + 1) == lines(k) {
                r += 1;
            }
            out.push((k, r));
            k += r + 1;
        }
        let fast =
            |sl: &BatchSlot| sl.stride != 0 && (line - 1) / sl.stride.unsigned_abs() < need as u64;
        if slots.iter().any(fast) {
            return Vec::new();
        }
        out.retain(|&(_, r)| r >= need);
        out
    }

    proptest! {
        /// The tiled period lists exactly the segments a walk over every
        /// iteration finds, for strides that do and do not divide the line.
        #[test]
        fn tiled_periods_equal_the_iteration_by_iteration_walk(
            raw in vec((0u64..512, -40i64..41), 0..5),
            iters in 0u32..300,
            line in prop_oneof![Just(16u64), Just(64u64), Just(256u64)],
            need in 0u32..4,
        ) {
            let slots: Vec<BatchSlot> = raw.iter().map(|&(a, s)| slot((1 << 16) + a, s)).collect();
            prop_assert_eq!(segs(&slots, iters, line, need), naive(&slots, iters, line, need));
        }
    }
}
