//! The parallel sweep engine: every experiment binary is a list of
//! independent (app × strategy) measurement jobs, so the harness runs them
//! on the [`gcr_par`] worker pool and memoizes each measurement under a
//! content key.
//!
//! Two redundancy killers compose here:
//!
//! * **Parallelism** — [`run_jobs`] fans a job list out over
//!   [`gcr_par::scope_map_with`]; results come back in input order, so the
//!   printed tables and the JSON report sets are byte-identical to a
//!   serial run for any thread count (`GCR_THREADS`, `--threads`).
//! * **Memoization** — a [`MeasureCache`] keys each cache simulation by
//!   the *content* of what determines it: the printed optimized program,
//!   the concrete data layout, the parameter binding, the step count and
//!   the hierarchy scales. Strategies that degrade to identical IR (the
//!   fail-safe ladder collapses them), and points shared between `fig10`
//!   and its `--ablation` superset, reuse the measurement instead of
//!   re-simulating. Set `GCR_MEASURE_CACHE=<file>` to persist the cache
//!   across processes (how `reproduce.sh` shares the base `fig10` points
//!   with the ablation pass).
//!
//! Only the expensive part — interpreting the program through the cache
//! hierarchy — is memoized. The per-strategy pass trace, fallback rungs
//! and labels are recomputed on every call, so a report produced from a
//! cache hit differs from a cold one only in pass wall-clocks (which
//! [`gcr_cli::ReportSet::normalized`] strips).

use crate::{Measurement, MEASURE_FUEL};
use gcr_apps::AppSpec;
use gcr_cache::{HierarchyRun, HierarchyRunSink, HierarchySpec, MissCounts, SimRun};
use gcr_cli::report::SimSection;
use gcr_cli::Report;
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::Strategy;
use gcr_core::Tracer;
use gcr_exec::{DataLayout, ExecEngine, ExecStats, Machine, NullSink};
use gcr_ir::{GcrError, ParamBinding};
use std::collections::HashMap;
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Content keys
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a of `bytes`. The standard library's `DefaultHasher` is only
/// promised stable within one compiler release; cache files persisted via
/// `GCR_MEASURE_CACHE` must outlive that, so keys and checksums use the
/// workspace's pinned [`gcr_reuse::FnvHasher`].
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = gcr_reuse::FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// The content key of one measurement: everything the simulated counters
/// depend on. Two strategy requests that optimize to the same program
/// text, layout and binding produce the same address stream, hence the
/// same measurement.
pub fn measurement_key(
    program_text: &str,
    layout: &DataLayout,
    bind: &ParamBinding,
    steps: usize,
    l1_scale: usize,
    l2_scale: usize,
) -> u64 {
    use std::fmt::Write as _;
    let mut key = String::with_capacity(program_text.len() + 256);
    key.push_str(program_text);
    let _ = write!(key, "|bind={bind:?}|steps={steps}|l1={l1_scale}|l2={l2_scale}|layout=");
    let _ = write!(key, "total:{};", layout.total_bytes);
    for a in &layout.arrays {
        let _ = write!(key, "{}/{:?}/{:?};", a.base, a.strides, a.extents);
    }
    fnv1a(key.as_bytes())
}

// ---------------------------------------------------------------------------
// Measurement cache
// ---------------------------------------------------------------------------

/// Header line of the on-disk cache format. `v2` adds a per-entry
/// checksum trailer (`k <fnv64>`), which is what makes torn writes,
/// truncation, and bit flips *detectable* instead of silently poisoning
/// measurements.
const DISK_SCHEMA: &str = "gcr-measure-cache/v2";

/// Default capacity (entries) of the in-memory LRU; override with
/// `GCR_MEASURE_CACHE_CAP`. Entries are a few hundred bytes, so the
/// default bounds the cache at a few MiB while being far above any
/// one sweep's working set.
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// Snapshot of the cache's health counters, surfaced in report JSON
/// (`SweepTiming`) and in the `gcr-serve` `report` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the measurement.
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Corrupt disk entries (or whole quarantined files) detected.
    pub corrupt: u64,
    /// Poisoned-lock recoveries (a panicking request died mid-access).
    pub poisoned: u64,
}

/// One memoized [`SimRun`] — exactly the data that is a pure function of
/// the [`measurement_key`] inputs.
struct Entry {
    run: SimRun,
    /// LRU recency stamp: the global tick at last touch.
    tick: u64,
}

/// A concurrent, crash-safe, content-keyed measurement cache, optionally
/// persisted to a file so separate processes (the base `fig10` run and
/// its `--ablation` superset, or a restarted `gcr-serve` daemon) share
/// points.
///
/// Robustness properties:
///
/// * **Atomic persistence** — [`MeasureCache::save`] writes a temp file
///   and renames it over the target, so a crash mid-flush leaves the old
///   file intact, never a torn one.
/// * **Corruption detection & quarantine** — every on-disk entry carries
///   an FNV-64 checksum. A truncated, bit-flipped or otherwise mangled
///   entry is skipped (and counted) at load; a file with a wrong or
///   missing schema header is renamed to `<path>.quarantined` so the
///   evidence survives. Either way the affected measurements are simply
///   recomputed — corruption costs time, never correctness.
/// * **Bounded memory** — at most `capacity` entries are held; inserting
///   past the bound evicts the least-recently-used entry.
/// * **Panic tolerance** — a thread that dies while holding the map lock
///   poisons it; subsequent accesses recover (the map's invariants hold
///   across unwinds) and count the event instead of cascading the crash.
pub struct MeasureCache {
    map: Mutex<HashMap<u64, Entry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    poisoned: AtomicU64,
    capacity: usize,
    disk: Option<String>,
}

impl Default for MeasureCache {
    fn default() -> MeasureCache {
        MeasureCache {
            map: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            capacity: capacity_from_env(),
            disk: None,
        }
    }
}

fn capacity_from_env() -> usize {
    std::env::var("GCR_MEASURE_CACHE_CAP")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_CAPACITY)
}

impl MeasureCache {
    /// An empty in-memory cache.
    pub fn new() -> MeasureCache {
        MeasureCache::default()
    }

    /// An empty in-memory cache holding at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> MeasureCache {
        MeasureCache { capacity: capacity.max(1), ..MeasureCache::default() }
    }

    /// A cache persisted at `path`: pre-loaded from the file when it
    /// exists (corrupt entries are skipped and counted, mis-versioned
    /// files are quarantined — never fatal), written back by
    /// [`MeasureCache::save`].
    pub fn with_disk(path: impl Into<String>) -> MeasureCache {
        let path = path.into();
        let cache = MeasureCache::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            match parse_disk(&text) {
                DiskParse::Entries { entries, corrupt } => {
                    let mut map = cache.map.lock().unwrap();
                    for (key, run) in entries {
                        let tick = cache.tick.fetch_add(1, Ordering::Relaxed);
                        map.insert(key, Entry { run, tick });
                    }
                    drop(map);
                    cache.corrupt.fetch_add(corrupt, Ordering::Relaxed);
                }
                DiskParse::WrongSchema => {
                    // Not ours (or a pre-checksum version): move the file
                    // aside so the bytes survive for inspection and the
                    // next save starts clean.
                    cache.corrupt.fetch_add(1, Ordering::Relaxed);
                    let quarantine = format!("{path}.quarantined");
                    if std::fs::rename(&path, &quarantine).is_ok() {
                        eprintln!(
                            "gcr-measure-cache: {path} has a foreign or outdated header; \
                             quarantined to {quarantine}"
                        );
                    }
                }
            }
        }
        MeasureCache { disk: Some(path), ..cache }
    }

    /// The cache configured by `GCR_MEASURE_CACHE` (a file path), or a
    /// plain in-memory cache when the variable is unset.
    pub fn from_env() -> MeasureCache {
        match std::env::var("GCR_MEASURE_CACHE") {
            Ok(path) if !path.is_empty() => MeasureCache::with_disk(path),
            _ => MeasureCache::new(),
        }
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        gcr_par::isolate::lock_recover(&self.map, &self.poisoned)
    }

    /// Looks up a key, counting the hit or miss and refreshing the
    /// entry's LRU recency on a hit.
    pub fn lookup(&self, key: u64) -> Option<SimRun> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map();
        let got = map.get_mut(&key).map(|e| {
            e.tick = tick;
            e.run.clone()
        });
        drop(map);
        match got {
            Some(run) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(run)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a measurement under its key, evicting the least-recently
    /// used entries if the capacity bound is exceeded.
    pub fn insert(&self, key: u64, run: SimRun) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map();
        map.insert(key, Entry { run, tick });
        while map.len() > self.capacity {
            // O(n) victim scan; capacities are small enough (≤ tens of
            // thousands) that this stays invisible next to a simulation.
            let Some(victim) = map.iter().min_by_key(|(_, e)| e.tick).map(|(&k, _)| k) else {
                break;
            };
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the measurement.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Corrupt disk entries (or quarantined files) detected so far.
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// All health counters as one snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            corrupt: self.corrupt(),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }

    /// Distinct measurements held.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when no measurement is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the cache back to its configured file (no-op for in-memory
    /// caches). Entries are sorted by key so the file is deterministic,
    /// and the write is atomic: content goes to a sibling temp file which
    /// is renamed over the target, so a crash mid-flush can tear the temp
    /// file but never the cache. Carries the `io_error` and
    /// `torn_cache_write` `GCR_FAULT` injection points.
    pub fn save(&self) -> std::io::Result<()> {
        use gcr_par::fault;
        let Some(path) = &self.disk else { return Ok(()) };
        let map = self.map();
        let mut keys: Vec<&u64> = map.keys().collect();
        keys.sort();
        let mut out = String::new();
        out.push_str(DISK_SCHEMA);
        out.push('\n');
        for k in keys {
            render_entry(&mut out, *k, &map[k].run);
        }
        drop(map);
        fault::maybe_io_error(fault::FaultPoint::IoError, "measure-cache flush")?;
        if fault::fires(fault::FaultPoint::TornCacheWrite) {
            // Chaos hook: behave like the pre-v2 non-atomic writer dying
            // mid-write — half the bytes land in the *final* path. The
            // next load must detect this and self-heal.
            let torn = &out.as_bytes()[..out.len() / 2];
            return std::fs::write(path, torn);
        }
        let tmp = format!("{path}.tmp.{}", std::process::id());
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

fn render_counts(out: &mut String, c: &MissCounts) {
    use std::fmt::Write as _;
    let _ = write!(out, "{} {} {} {} {}", c.refs, c.l1, c.l2, c.tlb, c.memory_traffic);
}

/// Renders one entry block: the `e` line, `p` phase lines, then a `k`
/// checksum line covering the exact bytes of the block above it.
fn render_entry(out: &mut String, key: u64, run: &SimRun) {
    use std::fmt::Write as _;
    let mut block = String::new();
    let _ = write!(
        block,
        "e {key:016x} {:016x} {} {} {} {} ",
        run.cycles.to_bits(),
        run.stats.instances,
        run.stats.flops,
        run.stats.reads,
        run.stats.writes
    );
    render_counts(&mut block, &run.misses);
    let _ = writeln!(block, " {}", run.phases.len());
    for (label, c) in &run.phases {
        block.push_str("p ");
        render_counts(&mut block, c);
        // Label last: it may contain spaces, the counters cannot.
        let _ = writeln!(block, " {label}");
    }
    let _ = writeln!(block, "k {:016x}", fnv1a(block.as_bytes()));
    out.push_str(&block);
}

enum DiskParse {
    /// Parsed (possibly partially): intact entries plus the number of
    /// corrupt blocks that were skipped.
    Entries { entries: Vec<(u64, SimRun)>, corrupt: u64 },
    /// The header is not this format's — quarantine the whole file.
    WrongSchema,
}

/// Parses one entry block starting at `lines[at]` (which begins with
/// `"e "`). Returns the parsed entry and the index one past its checksum
/// line, or `None` if the block is truncated, mangled, or fails its
/// checksum.
fn parse_entry(lines: &[&str], at: usize) -> Option<(u64, SimRun, usize)> {
    let mut f = lines[at].strip_prefix("e ")?.split_ascii_whitespace();
    let key = u64::from_str_radix(f.next()?, 16).ok()?;
    let cycles = f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?);
    let mut n = || f.next()?.parse::<u64>().ok();
    let stats = ExecStats { instances: n()?, flops: n()?, reads: n()?, writes: n()? };
    let mut counts = || -> Option<MissCounts> {
        Some(MissCounts { refs: n()?, l1: n()?, l2: n()?, tlb: n()?, memory_traffic: n()? })
    };
    let misses = counts()?;
    let nphases = n()? as usize;
    let mut phases = Vec::with_capacity(nphases);
    for i in 0..nphases {
        let pline = lines.get(at + 1 + i)?.strip_prefix("p ")?;
        let mut f = pline.splitn(6, ' ');
        let mut n = || f.next()?.parse::<u64>().ok();
        let c = MissCounts { refs: n()?, l1: n()?, l2: n()?, tlb: n()?, memory_traffic: n()? };
        phases.push((f.next()?.to_string(), c));
    }
    let kline = lines.get(at + 1 + nphases)?.strip_prefix("k ")?;
    let want = u64::from_str_radix(kline.trim(), 16).ok()?;
    // Recompute the checksum over the block's exact rendered bytes.
    let mut block = String::new();
    for line in &lines[at..at + 1 + nphases] {
        block.push_str(line);
        block.push('\n');
    }
    if fnv1a(block.as_bytes()) != want {
        return None;
    }
    Some((key, SimRun { stats, misses, cycles, phases }, at + 2 + nphases))
}

fn parse_disk(text: &str) -> DiskParse {
    let lines: Vec<&str> = text.lines().collect();
    if lines.first() != Some(&DISK_SCHEMA) {
        return DiskParse::WrongSchema;
    }
    let mut entries = Vec::new();
    let mut corrupt = 0u64;
    let mut at = 1;
    while at < lines.len() {
        if !lines[at].starts_with("e ") {
            // Stray line (torn phase list, garbage): count once and resync
            // at the next entry head.
            corrupt += 1;
            at += 1;
            while at < lines.len() && !lines[at].starts_with("e ") {
                at += 1;
            }
            continue;
        }
        match parse_entry(&lines, at) {
            Some((key, run, next)) => {
                entries.push((key, run));
                at = next;
            }
            None => {
                corrupt += 1;
                at += 1;
                while at < lines.len() && !lines[at].starts_with("e ") {
                    at += 1;
                }
            }
        }
    }
    DiskParse::Entries { entries, corrupt }
}

// ---------------------------------------------------------------------------
// Cached measurement
// ---------------------------------------------------------------------------

/// Optimizes one app under one strategy (cheap, and the source of the
/// per-strategy pass trace — so it always runs) and measures the result by
/// [`gcr_cache::simulate`], memoized in `cache`: the machine run
/// (expensive) is skipped when an identical program/layout/binding was
/// already measured. The engine is `GCR_EXEC`'s.
pub fn measure_strategy_report_cached(
    cache: &MeasureCache,
    generator: &str,
    app: &AppSpec,
    strategy: Strategy,
    size: i64,
    steps: usize,
) -> Result<(Measurement, Report, Vec<String>), GcrError> {
    let engine = ExecEngine::from_env()?;
    measure_strategy_report_cached_with(cache, generator, app, strategy, size, steps, engine)
}

/// [`measure_strategy_report_cached`] with an explicit execution engine.
/// Both engines produce the identical measurement (the VM is
/// observationally equivalent to the interpreter), so the cache key is
/// engine-agnostic — the engine only changes how long a cold miss takes.
#[allow(clippy::too_many_arguments)]
pub fn measure_strategy_report_cached_with(
    cache: &MeasureCache,
    generator: &str,
    app: &AppSpec,
    strategy: Strategy,
    size: i64,
    steps: usize,
    engine: ExecEngine,
) -> Result<(Measurement, Report, Vec<String>), GcrError> {
    measure_version(cache, generator, app, strategy, size, steps, engine, None)
        .map(|(m, report, diagnostics, _)| (m, report, diagnostics))
}

/// [`measure_strategy_report_cached_with`] and, for `gcr-serve`'s `measure`
/// with a `hierarchy` header, that descriptor measured on the same
/// optimized program. Descriptor measurements are not memoized — the key
/// and the on-disk format know the cache scales only — so the descriptor
/// gets a run of its own whether or not the legacy counters were a hit.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn measure_version(
    cache: &MeasureCache,
    generator: &str,
    app: &AppSpec,
    strategy: Strategy,
    size: i64,
    steps: usize,
    engine: ExecEngine,
    hierarchy: Option<&HierarchySpec>,
) -> Result<(Measurement, Report, Vec<String>, Option<HierarchyRun>), GcrError> {
    let (prog, bind) = (app.build)(size);
    let mut tracer = Tracer::enabled();
    let opt =
        apply_strategy_checked_traced(&prog, strategy, &SafetyOptions::default(), &mut tracer)?;
    let layout = opt.layout(&bind);
    let key = measurement_key(
        &gcr_ir::print::print_program(&opt.program),
        &layout,
        &bind,
        steps,
        app.l1_scale,
        app.l2_scale,
    );
    let run = match cache.lookup(key) {
        Some(run) => run,
        None => {
            // `GCR_FAULT=slow_sim` chaos hook: stall the expensive path a
            // deadline-driven caller actually waits on. Inert unless the
            // environment arms it.
            gcr_par::fault::maybe_sleep(gcr_par::fault::FaultPoint::SlowSim);
            let mut machine = Machine::capped(&opt.program, bind.clone(), layout.clone(), engine)?;
            let scales = (app.l1_scale, app.l2_scale);
            let run =
                gcr_cache::simulate(&mut machine, scales, steps, MEASURE_FUEL, &mut NullSink)?;
            cache.insert(key, run.clone());
            run
        }
    };
    let mut descriptor = hierarchy.map(HierarchyRunSink::new);
    if descriptor.is_some() {
        Machine::capped(&opt.program, bind, layout, engine)?.run_steps_guarded(
            &mut descriptor,
            steps,
            MEASURE_FUEL,
        )?;
    }
    let mut label = strategy.label();
    if opt.robustness.degraded() {
        // The sweep should show what was actually measured.
        label = format!("{} (degraded: {})", opt.robustness.strategy, label);
    }
    let mut report = Report::new(generator, &prog, strategy.label(), &opt, tracer.into_events());
    report.simulation = Some(SimSection {
        size,
        steps,
        cycles: run.cycles,
        flops: run.stats.flops,
        total: run.misses,
        phases: run.phases,
    });
    let measurement =
        Measurement { label, stats: run.stats, misses: run.misses, cycles: run.cycles };
    Ok((measurement, report, opt.robustness.describe(), descriptor.map(|sink| sink.finish())))
}

// ---------------------------------------------------------------------------
// Job fan-out
// ---------------------------------------------------------------------------

/// One independent measurement: an app, a strategy, and the run geometry.
#[derive(Clone, Copy)]
pub struct SweepJob<'a> {
    /// The application under measurement.
    pub app: &'a AppSpec,
    /// The program version.
    pub strategy: Strategy,
    /// Size parameter.
    pub size: i64,
    /// Time steps.
    pub steps: usize,
}

/// What one job produces: the measurement, its report, and any
/// degradation diagnostics — or the error that disqualified it.
pub type JobResult = Result<(Measurement, Report, Vec<String>), GcrError>;

/// Runs a job list on `threads` workers (0 = [`gcr_par::thread_count`],
/// which honours `GCR_THREADS`). Results are returned in input order and
/// each measurement is memoized in `cache`, so output is byte-identical
/// across thread counts and repeat runs. The engine is `GCR_EXEC`'s; an
/// unknown value fails every job with the usage error instead of silently
/// measuring under the default engine.
pub fn run_jobs(
    threads: usize,
    cache: &MeasureCache,
    generator: &str,
    jobs: &[SweepJob<'_>],
) -> Vec<JobResult> {
    match ExecEngine::from_env() {
        Ok(engine) => run_jobs_with(threads, cache, generator, jobs, engine),
        Err(e) => jobs.iter().map(|_| Err(e.clone())).collect(),
    }
}

/// [`run_jobs`] with an explicit execution engine for every job — how a
/// caller compares or pins engines without touching `GCR_EXEC` (env
/// mutation is racy under threads).
pub fn run_jobs_with(
    threads: usize,
    cache: &MeasureCache,
    generator: &str,
    jobs: &[SweepJob<'_>],
    engine: ExecEngine,
) -> Vec<JobResult> {
    let threads = if threads == 0 { gcr_par::thread_count() } else { threads };
    gcr_par::scope_map_with(threads, jobs, |job| {
        measure_strategy_report_cached_with(
            cache,
            generator,
            job.app,
            job.strategy,
            job.size,
            job.steps,
            engine,
        )
    })
}

/// The jobs of one app under the given strategies (the common shape of the
/// experiment binaries' sweeps).
pub fn app_jobs<'a>(
    app: &'a AppSpec,
    strategies: &[Strategy],
    size: i64,
    steps: usize,
) -> Vec<SweepJob<'a>> {
    strategies.iter().map(|&strategy| SweepJob { app, strategy, size, steps }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig10_strategies;

    fn small_jobs(apps: &[AppSpec]) -> (Vec<SweepJob<'_>>, Vec<usize>) {
        let mut jobs = Vec::new();
        let mut per_app = Vec::new();
        for app in apps {
            let added = app_jobs(app, &fig10_strategies(app.name), 12, 1);
            per_app.push(added.len());
            jobs.extend(added);
        }
        (jobs, per_app)
    }

    #[test]
    fn cached_measurement_equals_uncached() {
        let apps = gcr_apps::evaluation_apps();
        let adi = apps.iter().find(|a| a.name == "ADI").unwrap();
        let cache = MeasureCache::new();
        let strategy = Strategy::FusionOnly { levels: 3 };
        let (cold, cold_report, _) =
            measure_strategy_report_cached(&cache, "t", adi, strategy, 16, 2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let (warm, warm_report, _) =
            measure_strategy_report_cached(&cache, "t", adi, strategy, 16, 2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cold.misses, warm.misses);
        assert_eq!(cold.stats, warm.stats);
        assert_eq!(cold.cycles, warm.cycles);
        // The reference is the shared measurement itself, uncached, on the
        // reference interpreter.
        let (prog, bind) = (adi.build)(16);
        let opt =
            gcr_core::checked::apply_strategy_checked(&prog, strategy, &SafetyOptions::default())
                .unwrap();
        let mut machine =
            Machine::capped(&opt.program, bind.clone(), opt.layout(&bind), ExecEngine::Interp)
                .unwrap();
        let scales = (adi.l1_scale, adi.l2_scale);
        let reference =
            gcr_cache::simulate(&mut machine, scales, 2, MEASURE_FUEL, &mut NullSink).unwrap();
        let section = warm_report.simulation.as_ref().expect("measured reports carry the section");
        assert_eq!(
            (warm.stats, warm.misses, warm.cycles, &section.phases),
            (reference.stats, reference.misses, reference.cycles, &reference.phases),
            "memoized measurement must match the direct path"
        );
        assert_eq!(
            cold_report.normalized().to_json(),
            warm_report.normalized().to_json(),
            "hit and miss paths must serialize identically"
        );
    }

    #[test]
    fn parallel_jobs_match_serial_in_order() {
        let apps = gcr_apps::evaluation_apps();
        let (jobs, _) = small_jobs(&apps);
        let serial_cache = MeasureCache::new();
        let serial = run_jobs(1, &serial_cache, "t", &jobs);
        let par_cache = MeasureCache::new();
        let par = run_jobs(4, &par_cache, "t", &jobs);
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.0.label, p.0.label);
            assert_eq!(s.0.misses, p.0.misses);
            assert_eq!(s.0.cycles, p.0.cycles);
        }
    }

    #[test]
    fn engines_produce_identical_sweep_results() {
        let apps = gcr_apps::evaluation_apps();
        let (jobs, _) = small_jobs(&apps);
        let interp_cache = MeasureCache::new();
        let interp = run_jobs_with(2, &interp_cache, "t", &jobs, ExecEngine::Interp);
        let vm_cache = MeasureCache::new();
        let vm = run_jobs_with(2, &vm_cache, "t", &jobs, ExecEngine::Vm);
        assert_eq!(interp.len(), vm.len());
        for (i, c) in interp.iter().zip(&vm) {
            let (i, c) = (i.as_ref().unwrap(), c.as_ref().unwrap());
            assert_eq!(i.0.label, c.0.label);
            assert_eq!(i.0.stats, c.0.stats);
            assert_eq!(i.0.misses, c.0.misses);
            assert_eq!(i.0.cycles.to_bits(), c.0.cycles.to_bits());
            assert_eq!(
                i.1.clone().normalized().to_json(),
                c.1.clone().normalized().to_json(),
                "engine choice must not leak into the report body"
            );
        }
        // Nor into the cache key: the other engine's sweep is all hits.
        let cold = interp_cache.misses();
        run_jobs_with(2, &interp_cache, "t", &jobs, ExecEngine::Vm);
        assert_eq!(interp_cache.misses(), cold, "engine choice must not leak into the cache key");
    }

    #[test]
    fn disk_cache_round_trips() {
        let apps = gcr_apps::evaluation_apps();
        let adi = apps.iter().find(|a| a.name == "ADI").unwrap();
        let dir = std::env::temp_dir().join(format!("gcr-measure-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.txt");
        let path_s = path.to_str().unwrap().to_string();
        let cache = MeasureCache::with_disk(path_s.clone());
        let (m1, _, _) =
            measure_strategy_report_cached(&cache, "t", adi, Strategy::Original, 14, 1).unwrap();
        assert_eq!(cache.misses(), 1);
        cache.save().unwrap();
        // A second process: loads the file, answers without simulating.
        let warm = MeasureCache::with_disk(path_s);
        assert_eq!(warm.len(), 1);
        let (m2, _, _) =
            measure_strategy_report_cached(&warm, "t", adi, Strategy::Original, 14, 1).unwrap();
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        assert_eq!(m1.misses, m2.misses);
        assert_eq!(m1.cycles.to_bits(), m2.cycles.to_bits());
        assert_eq!(m1.stats, m2.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_parse_quarantines_foreign_and_skips_garbage() {
        assert!(matches!(parse_disk("not-a-cache\n"), DiskParse::WrongSchema));
        // The pre-checksum v1 format is treated as foreign: its entries
        // carry no integrity information, so trusting them would defeat
        // the corruption detection the format migration paid for.
        assert!(matches!(parse_disk("gcr-measure-cache/v1\n"), DiskParse::WrongSchema));
        match parse_disk("gcr-measure-cache/v2\ngarbage line\n") {
            DiskParse::Entries { entries, corrupt } => {
                assert!(entries.is_empty());
                assert_eq!(corrupt, 1);
            }
            DiskParse::WrongSchema => panic!("v2 header must parse"),
        }
        match parse_disk("gcr-measure-cache/v2\n") {
            DiskParse::Entries { entries, corrupt } => {
                assert!(entries.is_empty());
                assert_eq!(corrupt, 0);
            }
            DiskParse::WrongSchema => panic!("v2 header must parse"),
        }
    }

    #[test]
    fn entry_round_trips_and_checksum_rejects_flips() {
        let run = SimRun {
            stats: ExecStats { instances: 4, flops: 9, reads: 20, writes: 10 },
            misses: MissCounts { refs: 30, l1: 5, l2: 2, tlb: 1, memory_traffic: 256 },
            cycles: 123.5,
            phases: vec![(
                "phase with spaces".into(),
                MissCounts { refs: 30, l1: 5, l2: 2, tlb: 1, memory_traffic: 256 },
            )],
        };
        let mut text = String::from("gcr-measure-cache/v2\n");
        render_entry(&mut text, 0xabcd, &run);
        match parse_disk(&text) {
            DiskParse::Entries { entries, corrupt } => {
                assert_eq!(corrupt, 0);
                assert_eq!(entries, vec![(0xabcd, run.clone())]);
            }
            DiskParse::WrongSchema => panic!("round trip lost the header"),
        }
        // One flipped digit anywhere in the block must fail the checksum.
        let flipped = text.replacen("20", "21", 1);
        assert_ne!(flipped, text, "test must actually flip a byte");
        match parse_disk(&flipped) {
            DiskParse::Entries { entries, corrupt } => {
                assert!(entries.is_empty(), "corrupt entry must not load");
                assert_eq!(corrupt, 1);
            }
            DiskParse::WrongSchema => panic!("header untouched"),
        }
    }

    #[test]
    fn lru_evicts_oldest_and_hits_refresh() {
        let cache = MeasureCache::with_capacity(2);
        let run = |cycles: f64| SimRun {
            stats: ExecStats::default(),
            misses: MissCounts::default(),
            cycles,
            phases: Vec::new(),
        };
        cache.insert(1, run(1.0));
        cache.insert(2, run(2.0));
        assert!(cache.lookup(1).is_some(), "touch 1 so 2 is the LRU victim");
        cache.insert(3, run(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(1).is_some(), "recently used survives");
        assert!(cache.lookup(3).is_some(), "new entry survives");
        assert!(cache.lookup(2).is_none(), "LRU victim evicted");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.corrupt), (3, 1, 1, 0));
    }

    #[test]
    fn key_distinguishes_every_input() {
        let apps = gcr_apps::evaluation_apps();
        let adi = apps.iter().find(|a| a.name == "ADI").unwrap();
        let (prog, bind) = (adi.build)(16);
        let opt = gcr_core::pipeline::apply_strategy(&prog, Strategy::Original);
        let layout = opt.layout(&bind);
        let text = gcr_ir::print::print_program(&opt.program);
        let base = measurement_key(&text, &layout, &bind, 2, 16, 64);
        assert_ne!(base, measurement_key(&text, &layout, &bind, 3, 16, 64), "steps");
        assert_ne!(base, measurement_key(&text, &layout, &bind, 2, 8, 64), "l1 scale");
        assert_ne!(base, measurement_key(&text, &layout, &bind, 2, 16, 32), "l2 scale");
        let (_, bind2) = (adi.build)(18);
        assert_ne!(base, measurement_key(&text, &layout, &bind2, 2, 16, 64), "binding");
        let mut text2 = text.clone();
        text2.push(' ');
        assert_ne!(base, measurement_key(&text2, &layout, &bind, 2, 16, 64), "program text");
    }
}
