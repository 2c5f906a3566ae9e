//! Every batch-aware sink, fed random strips through `record_batch` and
//! the same events one at a time through `access`, must end with every
//! counter equal: the whole-iteration replay of the batch paths is exact.

use gcr_cache::{
    AssocSweepSink, CacheConfig, CapacitySweepSink, HierarchyRunSink, HierarchySink, HierarchySpec,
    Inclusion, MemoryHierarchy, MultiLevelCache, MultiLevelSink, MultiLevelSweepSink,
    PhasedHierarchySink, Prefetch, Tlb,
};
use gcr_exec::{BatchSlot, TraceBatch, TraceSink};
use gcr_ir::{ArrayId, RefId, StmtId};
use proptest::collection::vec;
use proptest::prelude::*;

/// One strip: its slots and iteration count.
#[derive(Debug)]
struct Strip {
    slots: Vec<BatchSlot>,
    iters: u32,
}

/// Strides a strip meets: none, within a line either way, a line or more.
fn stride() -> impl Strategy<Value = i64> {
    prop_oneof![
        3 => Just(0i64),
        4 => Just(8i64),
        2 => Just(-8i64),
        2 => Just(16i64),
        2 => Just(24i64),
        1 => Just(-24i64),
        1 => Just(64i64),
        1 => Just(-64i64),
        1 => Just(136i64),
    ]
}

/// 1–5 strips of 1–6 slots over a few KiB (any byte alignment, so a
/// line offset can be any value), 1–200 iterations each. A
/// quarter of the strips have only zero strides, half keep every slot in
/// one statement (one phase), the rest spread over four statements.
fn strips() -> impl Strategy<Value = Vec<Strip>> {
    let slot = (0u64..4096, stride(), 0u32..3, 0usize..4);
    vec((vec(slot, 1..7), 1u32..201, 0u32..4), 1..6).prop_map(|raw| {
        raw.into_iter()
            .map(|(slots, iters, mode)| Strip {
                slots: slots
                    .iter()
                    .map(|&(a, s, w, stmt)| BatchSlot {
                        addr: (1 << 20) + a,
                        stride: if mode == 0 { 0 } else { s },
                        array: ArrayId::from_index(0),
                        ref_id: RefId::from_index(0),
                        stmt: StmtId::from_index(if mode == 1 { slots[0].3 } else { stmt }),
                        is_write: w == 0,
                    })
                    .collect(),
                iters,
            })
            .collect()
    })
}

/// 1–3 strips of 5–8 slots half a KiB apart, each on its own page of up
/// to 256 bytes, with strides that keep them there for many iterations:
/// more distinct pages per iteration than a 4-entry TLB holds, so the
/// TLB's replay rule runs on a thrashing TLB.
fn thrashing_strips() -> impl Strategy<Value = Vec<Strip>> {
    let slot = (0u64..512, prop_oneof![Just(0i64), Just(8i64), Just(-8i64), Just(16i64)], 0u32..3);
    vec((vec(slot, 5..9), 1u32..201), 1..4).prop_map(|raw| {
        raw.into_iter()
            .map(|(slots, iters)| Strip {
                slots: slots
                    .iter()
                    .enumerate()
                    .map(|(i, &(a, s, w))| BatchSlot {
                        addr: (1 << 20) + 512 * i as u64 + a,
                        stride: s,
                        array: ArrayId::from_index(0),
                        ref_id: RefId::from_index(0),
                        stmt: StmtId::from_index(0),
                        is_write: w == 0,
                    })
                    .collect(),
                iters,
            })
            .collect()
    })
}

fn line() -> impl Strategy<Value = usize> {
    prop_oneof![Just(16usize), Just(32usize), Just(64usize)]
}

fn cfg(lines: usize, line: usize, assoc: usize) -> CacheConfig {
    CacheConfig { size: lines * line, line, assoc }
}

/// `make()` twice: one fed the strips whole, one event by event.
fn both<S: TraceSink>(strips: &[Strip], make: impl Fn() -> S) -> (S, S) {
    let (mut batched, mut per_event) = (make(), make());
    for s in strips {
        batched.record_batch(&TraceBatch { slots: &s.slots, ends: &[], iters: s.iters });
        for k in 0..s.iters as i64 {
            for sl in &s.slots {
                per_event.access(sl.event_at(k));
            }
        }
    }
    (batched, per_event)
}

fn hierarchy(line: usize, (entries, page): (usize, usize)) -> MemoryHierarchy {
    MemoryHierarchy::new(cfg(8, line, 2), cfg(32, 2 * line, 2), Tlb::new(entries, page))
}

/// Every counter of a legacy hierarchy, its caches' own included.
fn legacy_counts(h: &MemoryHierarchy) -> impl PartialEq + std::fmt::Debug {
    let cache = |c: &gcr_cache::Cache| (c.hits, c.misses, c.writebacks);
    (h.counts(), cache(&h.l1), cache(&h.l2), h.tlb.hits(), h.tlb.misses())
}

const PHASES: &str = "
program p
param N
array A[N]
for i = 1, N { A[i] = f(A[i]) }
for i = 1, N { A[i] = g(A[i]) }
for i = 1, N { A[i] = h(A[i]) }
";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn set_associative_and_fully_associative_sweeps(strips in strips(), line in line()) {
        // The last geometry has twice the line: segments at the
        // narrowest line must hold at every wider one.
        let configs =
            [cfg(4, line, 1), cfg(8, line, 2), cfg(16, line, 4), cfg(64, line, 4), cfg(8, line, 8), cfg(16, 2 * line, 2)];
        let (b, e) = both(&strips, || AssocSweepSink::new(&configs));
        prop_assert_eq!((b.refs(), b.results()), (e.refs(), e.results()));
        let caps = [line as u64, 3 * line as u64, 8 * line as u64, 40 * line as u64];
        let (b, e) = both(&strips, || CapacitySweepSink::new(line as u64, &caps));
        prop_assert_eq!((b.refs(), b.miss_counts()), (e.refs(), e.miss_counts()));
    }

    #[test]
    fn multi_level_models(strips in strips(), line in line()) {
        let shapes = [
            (Inclusion::Inclusive, vec![cfg(8, line, 2), cfg(32, 2 * line, 4)]),
            (Inclusion::Inclusive, vec![cfg(8, line, 2), cfg(32, line, 4), cfg(256, line, 128)]),
            (Inclusion::Inclusive, vec![cfg(128, line, 128)]),
            (Inclusion::Exclusive, vec![cfg(8, line, 2), cfg(32, line, 4)]),
        ];
        let mut all = Vec::new();
        for (inclusion, levels) in &shapes {
            for prefetch in [Prefetch::None, Prefetch::NextLine] {
                let model = MultiLevelCache::new(levels, *inclusion, prefetch);
                let (b, e) = both(&strips, || MultiLevelSink::new(model.clone()));
                prop_assert_eq!(b.model.counts(), e.model.counts(), "{:?} {:?}", inclusion, prefetch);
                all.push(model);
            }
        }
        // Model-major over L1 lines of two sizes.
        all.push(MultiLevelCache::new(&[cfg(8, 2 * line, 2)], Inclusion::Inclusive, Prefetch::None));
        let (b, e) = both(&strips, || MultiLevelSweepSink::new(all.clone()));
        prop_assert_eq!(b.counts(), e.counts());
    }

    #[test]
    fn legacy_hierarchies(
        strips in strips(),
        thrashing in thrashing_strips(),
        line in line(),
    ) {
        // A 16-byte page is narrower than every L1 line but the first; a
        // page of four lines keeps a stride-8 slot on it 8 to 32
        // iterations.
        let strips: Vec<Strip> = strips.into_iter().chain(thrashing).collect();
        let prog = gcr_frontend::parse(PHASES).unwrap();
        for tlb in [(4, 256), (4, 16), (4, 4 * line), (64, 4 * line), (64, 16)] {
            let (b, e) = both(&strips, || HierarchySink::new(hierarchy(line, tlb)));
            prop_assert_eq!(legacy_counts(&b.hierarchy), legacy_counts(&e.hierarchy), "{:?}", tlb);
            let (mut b, mut e) =
                both(&strips, || PhasedHierarchySink::new(hierarchy(line, tlb), &prog));
            prop_assert_eq!(b.phases(), e.phases());
            prop_assert_eq!(legacy_counts(&b.hierarchy), legacy_counts(&e.hierarchy), "{:?}", tlb);
        }
    }

    #[test]
    fn the_descriptor_sink_shares_one_segment_list(strips in strips(), line in line()) {
        let spec = HierarchySpec::parse(&format!("l1={}/{line}/2,l2={}/{line}/fa", 8 * line, 128 * line))
            .unwrap();
        let (b, e) = both(&strips, || HierarchyRunSink::new(&spec));
        prop_assert_eq!(b.finish(), e.finish());
    }
}
