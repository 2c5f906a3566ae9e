//! Microbenchmarks of the single-pass measurement path: the marker-list
//! capacity sweep (one truncated LRU list answering every capacity) versus
//! one dedicated LRU simulation per capacity, trace capture with versus
//! without the up-front capacity reservation from the interpreter's static
//! estimate, the tree-walking interpreter versus the register bytecode VM
//! on the same programs, the dispatch-per-event sink path against the VM's
//! batched-strip `record_batch` path, and the FNV hasher used by the
//! reuse-distance analyzer's maps against the std SipHash it replaced.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gcr_cache::{Cache, CacheConfig, CapacitySweepSink};
use gcr_exec::{AccessEvent, BatchSlot, ExecEngine, Machine, NullSink, TraceBatch, TraceSink};
use gcr_ir::{ArrayId, ParamBinding, RefId, StmtId};
use gcr_reuse::{FnvBuildHasher, ReuseDistanceAnalyzer, TraceCapture};
use std::collections::HashMap;
use std::hint::black_box;

/// Deterministic address stream mixing streaming and far reuse.
fn addr_stream(n: usize) -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 4 != 0 {
                ((i as u64) * 8) % (1 << 18)
            } else {
                (x % (1 << 24)) & !7
            }
        })
        .collect()
}

fn event(addr: u64) -> AccessEvent {
    AccessEvent {
        addr,
        array: ArrayId::from_index(0),
        ref_id: RefId::from_index(0),
        stmt: StmtId::from_index(0),
        is_write: false,
    }
}

/// One `CapacitySweepSink` pass answering eight capacities at once,
/// against eight dedicated fully-associative LRU simulations of the same
/// stream (the largest a 128-way scan per access).
fn bench_capacity_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("capacity_sweep");
    let n = 100_000usize;
    let addrs = addr_stream(n);
    let line = 32u64;
    let caps: Vec<u64> = (0..8).map(|k| line << k).collect();
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(5);
    g.bench_function("single_pass_all_capacities", |b| {
        b.iter(|| {
            let mut sweep = CapacitySweepSink::new(line, &caps);
            for &a in &addrs {
                sweep.access(event(a));
            }
            black_box(sweep.miss_counts().last().map(|&(_, m)| m))
        });
    });
    g.bench_function("one_simulation_per_capacity", |b| {
        b.iter(|| {
            let mut last = 0u64;
            for &cap in &caps {
                let assoc = (cap / line) as usize;
                let mut cache =
                    Cache::new(CacheConfig { size: cap as usize, line: line as usize, assoc });
                for &a in &addrs {
                    cache.access(a);
                }
                last = cache.misses;
            }
            black_box(last)
        });
    });
    g.finish();
}

/// Trace capture with the static-estimate reservation against the old
/// grow-as-you-go path.
fn bench_trace_capture(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_capture");
    let prog = gcr_apps::adi::program();
    let n = 96i64;
    g.sample_size(5);
    g.bench_function("reserved_from_estimate", |b| {
        b.iter(|| {
            let mut m = Machine::new(&prog, ParamBinding::new(vec![n]));
            let est = m.estimate();
            let mut cap = TraceCapture::with_capacity(est.instances, est.accesses);
            m.run(&mut cap);
            black_box(cap.finish().starts.len())
        });
    });
    g.bench_function("unreserved", |b| {
        b.iter(|| {
            let mut m = Machine::new(&prog, ParamBinding::new(vec![n]));
            let mut cap = TraceCapture::new();
            m.run(&mut cap);
            black_box(cap.finish().starts.len())
        });
    });
    g.finish();
}

/// The tree-walking interpreter against the register bytecode VM on the
/// same program, both with the null sink so the engine is all that is
/// timed. The interpreter side also exercises the
/// per-loop-entry `guards` scratch buffer hoisted into `Ctx`.
fn bench_exec_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_engine");
    let prog = gcr_apps::adi::program();
    let n = 96i64;
    g.sample_size(10);
    for engine in [ExecEngine::Interp, ExecEngine::Vm] {
        g.bench_function(engine.name(), |b| {
            b.iter(|| {
                let mut m = Machine::new(&prog, ParamBinding::new(vec![n])).with_engine(engine);
                m.run(&mut NullSink);
                black_box(m.stats().instances)
            });
        });
    }
    g.finish();
}

/// A reduction-heavy workload (`examples/mmul.loop`: triple-nested inner
/// product, one `Read, ReadMul` tape and a sum store per iteration)
/// under full trace capture: the dispatch-per-event interpreter against
/// the VM's batched strips.
fn bench_mmul_capture(c: &mut Criterion) {
    let mut g = c.benchmark_group("mmul_capture");
    let src =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/mmul.loop"))
            .expect("examples/mmul.loop");
    let prog = gcr_frontend::parse(&src).expect("mmul.loop parses");
    let n = 48i64;
    g.sample_size(10);
    for engine in [ExecEngine::Interp, ExecEngine::Vm] {
        g.bench_function(engine.name(), |b| {
            let mut cap = TraceCapture::new();
            b.iter(|| {
                let mut m = Machine::new(&prog, ParamBinding::new(vec![n])).with_engine(engine);
                cap.clear();
                m.run(&mut cap);
                black_box(cap.total_accesses())
            });
        });
    }
    g.finish();
}

/// The sink layer in isolation: one virtual `access` call per event versus
/// one affine `record_batch` call per strip, on the two sinks every sweep
/// stands on (trace capture and the multi-capacity analyzer). The stream
/// is the shape the VM produces — a three-point stencil read plus a write
/// per iteration, addresses affine in the iteration. The capacity sweep
/// consumes both forms to the same final state; trace capture stores the
/// batched form compressed (expansion deferred to materialization), which
/// is exactly the write-traffic gap this group exists to show.
fn bench_sink_batching(c: &mut Criterion) {
    let mut g = c.benchmark_group("sink_batching");
    const SLOTS: usize = 4;
    const STRIP: u32 = 1024;
    let strips = 25usize;
    let n = strips * STRIP as usize * SLOTS;
    let stmt = StmtId::from_index(0);
    let strip_slots: Vec<[BatchSlot; SLOTS]> = (0..strips)
        .map(|s| {
            let lo = (s as u64) * STRIP as u64 * 8;
            let read = |off: i64, r: usize| BatchSlot {
                addr: (lo as i64 + off * 8) as u64 + 8,
                stride: 8,
                array: ArrayId::from_index(0),
                ref_id: RefId::from_index(r),
                stmt,
                is_write: false,
            };
            [
                read(-1, 0),
                read(0, 1),
                read(1, 2),
                BatchSlot {
                    addr: (1u64 << 24) + lo,
                    stride: 8,
                    array: ArrayId::from_index(1),
                    ref_id: RefId::from_index(3),
                    stmt,
                    is_write: true,
                },
            ]
        })
        .collect();
    let ends = [(SLOTS as u32, stmt)];
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.bench_function("trace_capture_per_event", |b| {
        let mut cap = TraceCapture::new();
        b.iter(|| {
            cap.clear();
            for slots in &strip_slots {
                for k in 0..STRIP as i64 {
                    for sl in slots {
                        cap.access(sl.event_at(k));
                    }
                    cap.end_instance(stmt);
                }
            }
            black_box(cap.total_accesses())
        });
    });
    g.bench_function("trace_capture_batched", |b| {
        let mut cap = TraceCapture::new();
        b.iter(|| {
            cap.clear();
            for slots in &strip_slots {
                cap.record_batch(&TraceBatch { slots, ends: &ends, iters: STRIP });
            }
            black_box(cap.total_accesses())
        });
    });
    let line = 32u64;
    let caps: Vec<u64> = (0..8).map(|k| line << k).collect();
    g.bench_function("capacity_sweep_per_event", |b| {
        b.iter(|| {
            let mut sweep = CapacitySweepSink::new(line, &caps);
            for slots in &strip_slots {
                for k in 0..STRIP as i64 {
                    for sl in slots {
                        sweep.access(sl.event_at(k));
                    }
                }
            }
            black_box(sweep.refs())
        });
    });
    g.bench_function("capacity_sweep_batched", |b| {
        b.iter(|| {
            let mut sweep = CapacitySweepSink::new(line, &caps);
            for slots in &strip_slots {
                sweep.record_batch(&TraceBatch { slots, ends: &[], iters: STRIP });
            }
            black_box(sweep.refs())
        });
    });
    g.finish();
}

/// The reuse-distance analyzer on a mixed stream (its `last` map now uses
/// FNV), plus the raw map workload — insert-or-update per access — under
/// FNV and under the std SipHash it replaced, so the hasher swap's delta
/// stays visible without reverting the analyzer.
fn bench_analyzer_hashing(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyzer_hashing");
    let n = 100_000usize;
    let addrs = addr_stream(n);
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.bench_function("distance_analyzer_fnv", |b| {
        b.iter(|| {
            let mut a = ReuseDistanceAnalyzer::new(1);
            for &addr in &addrs {
                black_box(a.access(addr));
            }
            black_box(a.distinct())
        });
    });
    g.bench_function("map_fnv", |b| {
        b.iter(|| {
            let mut m: HashMap<u64, u64, FnvBuildHasher> = HashMap::default();
            for (k, &addr) in addrs.iter().enumerate() {
                m.insert(addr, k as u64);
            }
            black_box(m.len())
        });
    });
    g.bench_function("map_siphash", |b| {
        b.iter(|| {
            let mut m: HashMap<u64, u64> = HashMap::new();
            for (k, &addr) in addrs.iter().enumerate() {
                m.insert(addr, k as u64);
            }
            black_box(m.len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_capacity_sweep,
    bench_trace_capture,
    bench_exec_engines,
    bench_mmul_capture,
    bench_sink_batching,
    bench_analyzer_hashing
);
criterion_main!(benches);
