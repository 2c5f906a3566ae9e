//! Single-pass set-associative capacity sweep.
//!
//! [`CapacitySweepSink`](crate::CapacitySweepSink) answers every *fully
//! associative* LRU capacity from one reuse-distance pass, but the paper's
//! machines were 2-way set-associative — conflict misses exist there that
//! no reuse-distance argument can see. [`AssocSweepSink`] closes that gap:
//! it fans one access stream out to any number of concrete
//! [`Cache`] geometries (ways × sets × line), each simulated exactly, so
//! one trace pass answers the whole associativity cross-product.
//!
//! ## Which monotonicity holds
//!
//! At a **fixed set count**, growing the number of ways can only remove
//! misses: the set mapping is unchanged, each set is an independent
//! fully-associative LRU stack, and a `w`-way stack's contents are always
//! a prefix of the `(w+1)`-way stack's contents (stack inclusion). The
//! `assoc` conformance oracle checks exactly this.
//!
//! At a **fixed capacity** the same claim is *false*: changing the way
//! count changes the set mapping, and a direct-mapped cache can beat full
//! LRU associativity outright (a cyclic sweep over capacity + 1 lines
//! makes full-LRU miss every access while direct mapping confines the
//! conflict to one set — see `fewer_ways_can_win_at_fixed_capacity`
//! below). The one fixed-capacity relation that *is* exact: with
//! `ways = capacity / line` there is a single set, and the cache **is**
//! the fully-associative LRU simulator, byte for byte.

use crate::replay::{replay, segments, Replay, Segment};
use crate::sim::{Cache, CacheConfig};
use gcr_exec::{AccessEvent, TraceBatch, TraceSink};

/// Demand counters of one swept configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AssocResult {
    /// The geometry simulated.
    pub config: CacheConfig,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

/// One access stream fanned out to many exact set-associative LRU caches.
///
/// Unlike the fully-associative sweep, whose one marker list answers
/// every capacity, this costs one simulated cache per configuration; each
/// access is a bounded `assoc`-entry scan per configuration, so a handful
/// of narrow configurations costs a small multiple of the FA pass
/// (`cache.fa_over_assoc` in `benchmark/` records the ratio).
pub struct AssocSweepSink {
    caches: Vec<Cache>,
    refs: u64,
    segs: Vec<Segment>,
}

impl AssocSweepSink {
    /// A sweep over the given geometries (each validated by
    /// [`Cache::new`]).
    pub fn new(configs: &[CacheConfig]) -> Self {
        AssocSweepSink {
            caches: configs.iter().map(|&c| Cache::new(c)).collect(),
            refs: 0,
            segs: Vec::new(),
        }
    }

    /// References observed so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Demand misses of configuration `i`, in registration order.
    pub fn misses(&self, i: usize) -> u64 {
        self.caches[i].misses
    }

    /// The batch path, with its segments at a line no larger than any
    /// configuration's. Configuration-major: the caches are independent,
    /// so each one replays the whole strip in stream order with its tag
    /// arrays hot.
    pub(crate) fn record_segments(&mut self, batch: &TraceBatch<'_>, segs: &[Segment]) {
        self.refs += batch.len() as u64;
        for c in &mut self.caches {
            replay(c, batch, segs);
        }
    }

    /// Counters of every configuration, in registration order.
    pub fn results(&self) -> Vec<AssocResult> {
        self.caches
            .iter()
            .map(|c| AssocResult {
                config: c.config(),
                hits: c.hits,
                misses: c.misses,
                writebacks: c.writebacks,
            })
            .collect()
    }
}

impl TraceSink for AssocSweepSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.refs += 1;
        for c in &mut self.caches {
            c.access_rw(ev.addr, ev.is_write);
        }
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        // Lines nest, so segments at the narrowest line hold at every one.
        let line = self.caches.iter().map(|c| c.config().line).min().unwrap_or(1);
        let mut segs = std::mem::take(&mut self.segs);
        segments(batch, line as u64, Cache::NEED, &mut segs);
        self.record_segments(batch, &segs);
        self.segs = segs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CapacitySweepSink;
    use gcr_exec::{ExecEngine, Machine};
    use gcr_ir::ParamBinding;

    const SRC: &str = "
program p
param N
array A[N, N], B[N, N]
for i = 1, N {
  for j = 1, N {
    A[j, i] = f(A[j, i], B[i, j])
  }
}
for i = 2, N {
  when [2, N - 1] B[i, i] = g(A[i, i - 1])
}
";

    fn run(sink: &mut impl TraceSink, engine: ExecEngine, n: i64) {
        let prog = gcr_frontend::parse(SRC).unwrap();
        let mut m = Machine::new(&prog, ParamBinding::new(vec![n])).with_engine(engine);
        m.run(sink);
    }

    /// The whole point of the sink: its single pass must be bit-identical
    /// to one dedicated cache per configuration.
    #[test]
    fn fan_out_matches_dedicated_caches() {
        let configs = [
            CacheConfig { size: 256, line: 32, assoc: 1 },
            CacheConfig { size: 256, line: 32, assoc: 4 },
            CacheConfig { size: 1024, line: 64, assoc: 2 },
        ];
        let mut sweep = AssocSweepSink::new(&configs);
        run(&mut sweep, ExecEngine::Interp, 16);
        for (i, &cfg) in configs.iter().enumerate() {
            let mut c = Cache::new(cfg);
            struct One<'a>(&'a mut Cache);
            impl TraceSink for One<'_> {
                fn access(&mut self, ev: AccessEvent) {
                    self.0.access_rw(ev.addr, ev.is_write);
                }
            }
            run(&mut One(&mut c), ExecEngine::Interp, 16);
            assert_eq!(
                sweep.results()[i],
                AssocResult {
                    config: cfg,
                    hits: c.hits,
                    misses: c.misses,
                    writebacks: c.writebacks,
                }
            );
        }
    }

    /// Batched (VM strip) capture must equal the per-event (interpreter)
    /// reference on every counter — the `record_batch` fast path can never
    /// drift from the per-event semantics.
    #[test]
    fn batched_matches_per_event() {
        let configs = [
            CacheConfig { size: 128, line: 16, assoc: 2 },
            CacheConfig { size: 512, line: 32, assoc: 4 },
        ];
        let mut batched = AssocSweepSink::new(&configs);
        run(&mut batched, ExecEngine::Vm, 12);
        let mut per_event = AssocSweepSink::new(&configs);
        run(&mut per_event, ExecEngine::Interp, 12);
        assert_eq!(batched.refs(), per_event.refs());
        assert_eq!(batched.results(), per_event.results());
    }

    /// With one set (`ways = capacity / line`) the sink IS the fully
    /// associative simulator and must byte-equal the reuse-distance sweep.
    #[test]
    fn single_set_equals_fully_associative_sweep() {
        let line = 32u64;
        let caps = [2 * line, 7 * line, 40 * line];
        let configs: Vec<CacheConfig> = caps
            .iter()
            .map(|&c| CacheConfig {
                size: c as usize,
                line: line as usize,
                assoc: (c / line) as usize,
            })
            .collect();
        let mut assoc = AssocSweepSink::new(&configs);
        run(&mut assoc, ExecEngine::Vm, 14);
        let mut fa = CapacitySweepSink::new(line, &caps);
        run(&mut fa, ExecEngine::Vm, 14);
        for (i, &cap) in caps.iter().enumerate() {
            assert_eq!(assoc.misses(i), fa.misses(cap), "capacity {} lines", cap / line);
        }
    }

    /// Misses are monotone non-increasing in ways at a fixed *set count*
    /// (per-set LRU stack inclusion).
    #[test]
    fn more_ways_at_fixed_sets_never_miss_more() {
        let (line, sets) = (32usize, 4usize);
        let configs: Vec<CacheConfig> =
            (1..=6).map(|w| CacheConfig { size: sets * w * line, line, assoc: w }).collect();
        let mut sweep = AssocSweepSink::new(&configs);
        run(&mut sweep, ExecEngine::Vm, 18);
        let misses: Vec<u64> = (0..configs.len()).map(|i| sweep.misses(i)).collect();
        for w in misses.windows(2) {
            assert!(w[1] <= w[0], "stack inclusion violated: {misses:?}");
        }
    }

    /// The naive fixed-capacity claim is false: on a cyclic over-capacity
    /// sweep, full LRU associativity misses every access while direct
    /// mapping confines the conflict to one set. This is why the `assoc`
    /// oracle pins the set count, not the capacity (DESIGN.md §16).
    #[test]
    fn fewer_ways_can_win_at_fixed_capacity() {
        let line = 8usize;
        let capacity = 64usize; // 8 lines
        let fa = CacheConfig { size: capacity, line, assoc: 8 }; // 1 set
        let dm = CacheConfig { size: capacity, line, assoc: 1 }; // 8 sets
        let mut sweep = AssocSweepSink::new(&[fa, dm]);
        for _ in 0..4 {
            for i in 0..9u64 {
                // capacity + 1 lines
                sweep.access(AccessEvent {
                    addr: i * line as u64,
                    array: gcr_ir::ArrayId::from_index(0),
                    ref_id: gcr_ir::RefId::from_index(0),
                    stmt: gcr_ir::StmtId::from_index(0),
                    is_write: false,
                });
            }
        }
        let (fa_misses, dm_misses) = (sweep.misses(0), sweep.misses(1));
        assert_eq!(fa_misses, 36, "full LRU misses every access of the cyclic sweep");
        assert!(
            dm_misses < fa_misses,
            "direct-mapped ({dm_misses}) must beat full LRU ({fa_misses}) here"
        );
    }
}
