//! Hierarchy descriptors: the one textual spec shared by `gcrc
//! --hierarchy`, the `gcr-serve` `hierarchy` request header, and the
//! gallery/bench jobs.
//!
//! Grammar (comma-separated `key=value` pairs, any order, `l1` required):
//!
//! ```text
//! l1=SIZE/LINE/ASSOC[,l2=SIZE/LINE/ASSOC[,l3=...]]
//!     [,policy=inclusive|exclusive][,prefetch=none|next-line]
//! ```
//!
//! `SIZE` and `LINE` are bytes with optional `K`/`M` suffixes; `ASSOC` is
//! a way count or `fa` (fully associative, ways = size/line). Example:
//! `l1=8K/32/4,l2=64K/128/fa,prefetch=next-line`. Validation beyond
//! syntax (level count, line nesting, exclusive constraints) is the same
//! as [`MultiLevelCache::new`], reported as errors instead of panics so
//! servers can reject bad descriptors.
//!
//! [`HierarchyRunSink`] is the one sink behind the CLI flag, the serve
//! endpoint and the gallery — the multi-level model, the fully-associative
//! reuse-distance sweep, and a 4-way set-associative sweep at the same
//! capacities — so every report's sweep bins carry both the FA and the
//! set-associative miss columns from a single trace; [`measure_hierarchy`]
//! is that sink plus one capped run.

use crate::levels::{Inclusion, MultiLevelCache, MultiLevelCounts, MultiLevelSink, Prefetch};
use crate::multicap::CapacitySweepSink;
use crate::replay::{replay, segments, Replay, Segment};
use crate::sim::{Cache, CacheConfig};
use crate::AssocSweepSink;
use gcr_exec::{AccessEvent, DataLayout, ExecEngine, Machine, TraceBatch, TraceSink};
use gcr_ir::{GcrError, ParamBinding, Program};

/// A parsed, validated hierarchy descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchySpec {
    /// Level geometries, L1 first (1 to 3 levels).
    pub levels: Vec<CacheConfig>,
    /// Inclusion policy (`policy=`; default inclusive).
    pub inclusion: Inclusion,
    /// Prefetch policy (`prefetch=`; default none).
    pub prefetch: Prefetch,
}

fn parse_bytes(s: &str) -> Result<usize, String> {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&s[..s.len() - 1], 1024),
        Some(b'M') | Some(b'm') => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    let n: usize = num.parse().map_err(|_| format!("bad byte count '{s}'"))?;
    n.checked_mul(mult).ok_or_else(|| format!("byte count '{s}' overflows"))
}

fn format_bytes(n: usize) -> String {
    if n >= 1024 * 1024 && n.is_multiple_of(1024 * 1024) {
        format!("{}M", n / (1024 * 1024))
    } else if n >= 1024 && n.is_multiple_of(1024) {
        format!("{}K", n / 1024)
    } else {
        n.to_string()
    }
}

fn parse_level(s: &str) -> Result<CacheConfig, String> {
    let parts: Vec<&str> = s.split('/').collect();
    if parts.len() != 3 {
        return Err(format!("level '{s}' is not SIZE/LINE/ASSOC"));
    }
    let size = parse_bytes(parts[0])?;
    let line = parse_bytes(parts[1])?;
    if size == 0 || line == 0 {
        return Err(format!("level '{s}' has a zero dimension"));
    }
    if !line.is_power_of_two() {
        return Err(format!("line size {line} is not a power of two"));
    }
    if size % line != 0 {
        return Err(format!("size {size} is not a multiple of line {line}"));
    }
    let assoc = if parts[2].eq_ignore_ascii_case("fa") {
        size / line
    } else {
        parts[2].parse::<usize>().map_err(|_| format!("bad way count '{}'", parts[2]))?
    };
    if assoc == 0 || size % (line * assoc) != 0 {
        return Err(format!("{assoc} ways do not divide {size}/{line} lines"));
    }
    let sets = size / (line * assoc);
    if !sets.is_power_of_two() {
        return Err(format!("level '{s}' has {sets} sets (must be a power of two)"));
    }
    Ok(CacheConfig { size, line, assoc })
}

impl HierarchySpec {
    /// Parses and validates a descriptor string.
    pub fn parse(text: &str) -> Result<HierarchySpec, String> {
        let mut levels: Vec<Option<CacheConfig>> = vec![None, None, None];
        let mut inclusion = Inclusion::Inclusive;
        let mut prefetch = Prefetch::None;
        for field in text.split(',') {
            let field = field.trim();
            let (key, value) =
                field.split_once('=').ok_or_else(|| format!("'{field}' is not key=value"))?;
            match key.trim() {
                "l1" => levels[0] = Some(parse_level(value)?),
                "l2" => levels[1] = Some(parse_level(value)?),
                "l3" => levels[2] = Some(parse_level(value)?),
                "policy" => {
                    inclusion = match value {
                        "inclusive" => Inclusion::Inclusive,
                        "exclusive" => Inclusion::Exclusive,
                        _ => return Err(format!("unknown policy '{value}'")),
                    }
                }
                "prefetch" => {
                    prefetch = match value {
                        "none" => Prefetch::None,
                        "next-line" => Prefetch::NextLine,
                        _ => return Err(format!("unknown prefetch policy '{value}'")),
                    }
                }
                k => return Err(format!("unknown key '{k}'")),
            }
        }
        // Levels must be contiguous from l1.
        let present = levels.iter().take_while(|l| l.is_some()).count();
        if levels.iter().skip(present).any(|l| l.is_some()) {
            return Err("levels must be contiguous from l1".to_string());
        }
        if present == 0 {
            return Err("descriptor needs at least l1=SIZE/LINE/ASSOC".to_string());
        }
        let levels: Vec<CacheConfig> = levels.into_iter().flatten().collect();
        for w in levels.windows(2) {
            if w[1].line < w[0].line {
                return Err(format!(
                    "line sizes must be non-decreasing downward ({} then {})",
                    w[0].line, w[1].line
                ));
            }
        }
        if inclusion == Inclusion::Exclusive {
            if levels.len() != 2 {
                return Err("exclusive hierarchies have exactly two levels".to_string());
            }
            if levels[0].line != levels[1].line {
                return Err("exclusive levels need equal line sizes".to_string());
            }
        }
        Ok(HierarchySpec { levels, inclusion, prefetch })
    }

    /// The canonical descriptor text: `parse(describe()) == self`, and all
    /// defaults are spelled out so reports are self-describing.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (k, c) in self.levels.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let assoc = if c.sets() == 1 { "fa".to_string() } else { c.assoc.to_string() };
            s.push_str(&format!(
                "l{}={}/{}/{}",
                k + 1,
                format_bytes(c.size),
                format_bytes(c.line),
                assoc
            ));
        }
        s.push_str(&format!(",policy={},prefetch={}", self.inclusion.name(), self.prefetch.name()));
        s
    }

    /// Builds the simulator for this descriptor.
    pub fn build(&self) -> MultiLevelCache {
        MultiLevelCache::new(&self.levels, self.inclusion, self.prefetch)
    }

    /// The sweep capacities paired with this hierarchy in reports: powers
    /// of two from 4 L1 lines up to 2x the last level, so the bins bracket
    /// every level. Each is simulated both fully associatively and 4-way
    /// set-associatively (4 ways divide every power-of-two capacity ≥ 4
    /// lines into a power-of-two set count).
    pub fn sweep_capacities(&self) -> Vec<u64> {
        let line = self.levels[0].line as u64;
        let top = (2 * self.levels.last().unwrap().size as u64).next_power_of_two();
        let mut caps = Vec::new();
        let mut c = (4 * line).next_power_of_two();
        while c <= top && caps.len() < 12 {
            caps.push(c);
            c *= 4;
        }
        caps
    }
}

/// One sweep bin of a [`HierarchyRun`]: the same capacity simulated fully
/// associatively (reuse-distance) and 4-way set-associatively (exact).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepBin {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Fully-associative LRU misses at this capacity.
    pub fa_misses: u64,
    /// 4-way set-associative LRU misses at this capacity.
    pub assoc_misses: u64,
}

/// Everything one trace pass measures for a hierarchy descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyRun {
    /// Canonical descriptor ([`HierarchySpec::describe`]).
    pub spec: String,
    /// Level geometries, L1 first (mirrors `counts.levels`).
    pub configs: Vec<CacheConfig>,
    /// L1 line size the sweep bins use, in bytes.
    pub line: u64,
    /// Multi-level totals.
    pub counts: MultiLevelCounts,
    /// FA + 4-way sweep over [`HierarchySpec::sweep_capacities`].
    pub sweep: Vec<SweepBin>,
}

/// A descriptor's whole measurement as one sink — spec in, [`HierarchyRun`]
/// out: the multi-level model, the fully-associative capacity sweep and a
/// 4-way set-associative sweep at the same capacities, all fed from the one
/// trace the sink is handed (alone, or riding another measurement's run
/// through [`gcr_exec::Tee`]).
pub struct HierarchyRunSink {
    spec: HierarchySpec,
    caps: Vec<u64>,
    model: MultiLevelSink,
    fa: CapacitySweepSink,
    sa: AssocSweepSink,
    segs: Vec<Segment>,
}

impl HierarchyRunSink {
    /// The three simulators of `spec`, cold.
    pub fn new(spec: &HierarchySpec) -> Self {
        let caps = spec.sweep_capacities();
        let line = spec.levels[0].line;
        let four_way: Vec<CacheConfig> =
            caps.iter().map(|&c| CacheConfig { size: c as usize, line, assoc: 4 }).collect();
        HierarchyRunSink {
            model: MultiLevelSink::new(spec.build()),
            fa: CapacitySweepSink::new(line as u64, &caps),
            sa: AssocSweepSink::new(&four_way),
            spec: spec.clone(),
            caps,
            segs: Vec::new(),
        }
    }

    /// Everything measured so far.
    pub fn finish(&self) -> HierarchyRun {
        let sweep = self
            .caps
            .iter()
            .enumerate()
            .map(|(i, &c)| SweepBin {
                capacity: c,
                fa_misses: self.fa.misses(c),
                assoc_misses: self.sa.misses(i),
            })
            .collect();
        HierarchyRun {
            spec: self.spec.describe(),
            configs: self.spec.levels.clone(),
            line: self.spec.levels[0].line as u64,
            counts: self.model.model.counts(),
            sweep,
        }
    }
}

// None of the three looks at instance boundaries, so `end_instance` keeps
// its empty default.
impl TraceSink for HierarchyRunSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.model.access(ev);
        self.fa.access(ev);
        self.sa.access(ev);
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        // All three key on L1's line: one segment list serves them all,
        // each skipping the segments too short for its own rule.
        let need = MultiLevelCache::NEED.min(CapacitySweepSink::NEED).min(Cache::NEED);
        segments(batch, self.spec.levels[0].line as u64, need, &mut self.segs);
        replay(&mut self.model.model, batch, &self.segs);
        self.fa.record_segments(batch, &self.segs);
        self.sa.record_segments(batch, &self.segs);
    }
}

/// Runs `prog` once on a byte-capped machine and measures the descriptor:
/// one [`HierarchyRunSink`] over one guarded run.
#[allow(clippy::too_many_arguments)]
pub fn measure_hierarchy(
    prog: &Program,
    binding: ParamBinding,
    layout: DataLayout,
    engine: ExecEngine,
    steps: usize,
    fuel: u64,
    spec: &HierarchySpec,
) -> Result<HierarchyRun, GcrError> {
    let mut sink = HierarchyRunSink::new(spec);
    Machine::capped(prog, binding, layout, engine)?.run_steps_guarded(&mut sink, steps, fuel)?;
    Ok(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_descriptor() {
        let s = HierarchySpec::parse("l1=8K/32/4,l2=64K/128/fa,prefetch=next-line").unwrap();
        assert_eq!(s.levels.len(), 2);
        assert_eq!(s.levels[0], CacheConfig { size: 8192, line: 32, assoc: 4 });
        assert_eq!(s.levels[1], CacheConfig { size: 65536, line: 128, assoc: 512 });
        assert_eq!(s.inclusion, Inclusion::Inclusive);
        assert_eq!(s.prefetch, Prefetch::NextLine);
    }

    #[test]
    fn describe_round_trips() {
        for text in [
            "l1=8K/32/4",
            "l1=512/32/fa,l2=4K/128/2,l3=1M/128/8",
            "l1=8K/32/4,l2=64K/32/fa,policy=exclusive,prefetch=next-line",
        ] {
            let s = HierarchySpec::parse(text).unwrap();
            assert_eq!(HierarchySpec::parse(&s.describe()).unwrap(), s, "{text}");
        }
    }

    #[test]
    fn rejects_bad_descriptors() {
        for bad in [
            "",
            "l2=8K/32/4",                               // no l1
            "l1=8K/32/4,l3=1M/128/8",                   // gap
            "l1=8K/32",                                 // not SIZE/LINE/ASSOC
            "l1=8K/33/4",                               // line not power of two
            "l1=8K/32/3",                               // 3 ways -> non-pow2 sets
            "l1=8K/32/nope",                            // bad way count
            "l1=8K/128/4,l2=64K/32/4",                  // shrinking line
            "l1=8K/32/4,policy=exclusive",              // exclusive needs 2 levels
            "l1=8K/32/4,l2=64K/128/4,policy=exclusive", // exclusive needs equal lines
            "l1=8K/32/4,policy=mostly",                 // unknown policy
            "l1=8K/32/4,turbo=yes",                     // unknown key
        ] {
            assert!(HierarchySpec::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn sweep_capacities_bracket_the_levels() {
        let s = HierarchySpec::parse("l1=8K/32/4,l2=64K/128/fa").unwrap();
        let caps = s.sweep_capacities();
        assert!(caps.first().unwrap() < &(8 * 1024));
        assert!(caps.last().unwrap() >= &(64 * 1024));
        for w in caps.windows(2) {
            assert!(w[1] > w[0]);
        }
        // every capacity works as a 4-way geometry with pow2 sets
        for &c in &caps {
            assert!((c as usize / (32 * 4)).is_power_of_two(), "capacity {c}");
        }
    }

    #[test]
    fn measure_ties_the_three_sinks_together() {
        let prog = gcr_frontend::parse(
            "
program p
param N
array A[N, N], B[N, N]
for i = 1, N {
  for j = 1, N {
    A[j, i] = f(A[j, i], B[i, j])
  }
}
",
        )
        .unwrap();
        let spec = HierarchySpec::parse("l1=512/32/4,l2=4K/128/fa").unwrap();
        let bind = ParamBinding::new(vec![16]);
        let layout = DataLayout::column_major(&prog, &bind, 0);
        let run =
            measure_hierarchy(&prog, bind.clone(), layout, ExecEngine::Vm, 1, u64::MAX, &spec)
                .unwrap();
        assert_eq!(run.spec, "l1=512/32/4,l2=4K/128/fa,policy=inclusive,prefetch=none");
        assert_eq!(run.sweep.len(), spec.sweep_capacities().len());
        assert!(run.counts.refs > 0);
        // The FA column is a lower bound for 4-way at the same capacity
        // is NOT guaranteed in general, but both columns must count the
        // same stream: misses never exceed refs and never undershoot the
        // cold-line floor.
        for b in &run.sweep {
            assert!(b.fa_misses <= run.counts.refs);
            assert!(b.assoc_misses <= run.counts.refs);
            assert!(b.fa_misses > 0 && b.assoc_misses > 0);
        }
        // Bigger FA capacity never misses more.
        for w in run.sweep.windows(2) {
            assert!(w[1].fa_misses <= w[0].fa_misses);
        }
        // The combined sink is the three sinks, each fed alone: from the
        // VM's batches and from the interpreter's single events.
        fn alone<S: TraceSink>(prog: &Program, engine: ExecEngine, mut sink: S) -> S {
            Machine::new(prog, ParamBinding::new(vec![16])).with_engine(engine).run(&mut sink);
            sink
        }
        let caps = spec.sweep_capacities();
        let four_way: Vec<CacheConfig> =
            caps.iter().map(|&c| CacheConfig { size: c as usize, line: 32, assoc: 4 }).collect();
        for engine in [ExecEngine::Vm, ExecEngine::Interp] {
            assert_eq!(alone(&prog, engine, HierarchyRunSink::new(&spec)).finish(), run);
            let model = alone(&prog, engine, MultiLevelSink::new(spec.build()));
            let fa = alone(&prog, engine, CapacitySweepSink::new(32, &caps));
            let sa = alone(&prog, engine, AssocSweepSink::new(&four_way));
            assert_eq!(run.counts, model.model.counts(), "{engine:?}");
            for (i, b) in run.sweep.iter().enumerate() {
                let alone = (caps[i], fa.misses(caps[i]), sa.misses(i));
                assert_eq!((b.capacity, b.fa_misses, b.assoc_misses), alone, "{engine:?}");
            }
        }
    }
}
