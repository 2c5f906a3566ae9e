//! `BatchLog`: an owned recording of exactly what an engine delivered to
//! its sink — whole batches as batches, single events as single events —
//! so that each sink can be timed alone on the stream it really sees.
//!
//! Replaying a captured flat trace instead would hand every sink a
//! per-event stream and hide the batch paths this benchmark exists to
//! compare (`sim-original` is ≥ 99 % batched, `sim-fused` ≤ 5 %).

use gcr_exec::{AccessEvent, BatchSlot, TraceBatch, TraceSink};
use gcr_ir::StmtId;

enum Record {
    Access(AccessEvent),
    End(StmtId),
    /// A batch: ranges into `BatchLog::slots` and `BatchLog::ends`.
    Batch {
        slots: (u32, u32),
        ends: (u32, u32),
        iters: u32,
    },
}

/// A [`TraceSink`] that stores the delivery stream for later replay.
#[derive(Default)]
pub struct BatchLog {
    records: Vec<Record>,
    slots: Vec<BatchSlot>,
    ends: Vec<(u32, StmtId)>,
    /// Events delivered through `record_batch`.
    pub batched_events: u64,
    /// Events delivered one by one through `access`.
    pub single_events: u64,
    /// `record_batch` calls.
    pub batches: u64,
}

impl BatchLog {
    pub fn new() -> BatchLog {
        BatchLog::default()
    }

    /// All access events, batched or not.
    pub fn events(&self) -> u64 {
        self.batched_events + self.single_events
    }

    /// Delivers the recorded stream to `sink`, call for call.
    pub fn replay<S: TraceSink>(&self, sink: &mut S) {
        for r in &self.records {
            match *r {
                Record::Access(ev) => sink.access(ev),
                Record::End(stmt) => sink.end_instance(stmt),
                Record::Batch { slots, ends, iters } => sink.record_batch(&TraceBatch {
                    slots: &self.slots[slots.0 as usize..slots.1 as usize],
                    ends: &self.ends[ends.0 as usize..ends.1 as usize],
                    iters,
                }),
            }
        }
    }
}

fn index(len: usize) -> u32 {
    u32::try_from(len).expect("batch descriptors stay far below 2^32 per item")
}

impl TraceSink for BatchLog {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.single_events += 1;
        self.records.push(Record::Access(ev));
    }

    #[inline]
    fn end_instance(&mut self, stmt: StmtId) {
        self.records.push(Record::End(stmt));
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        let s0 = index(self.slots.len());
        let e0 = index(self.ends.len());
        self.slots.extend_from_slice(batch.slots);
        self.ends.extend_from_slice(batch.ends);
        self.batches += 1;
        self.batched_events += batch.len() as u64;
        self.records.push(Record::Batch {
            slots: (s0, index(self.slots.len())),
            ends: (e0, index(self.ends.len())),
            iters: batch.iters,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_cache::{
        AssocSweepSink, CacheConfig, CapacitySweepSink, HierarchySpec, MemoryHierarchy,
        MultiLevelSink, PhasedHierarchySink,
    };
    use gcr_exec::{ExecEngine, Machine};
    use gcr_ir::{ParamBinding, Program};

    /// Two unfused sweeps: the VM runs them strip-major, in batches.
    const BATCHED: &str = "
program batched
param N
array A[N, N], B[N, N]
for j = 1, N {
  for i = 1, N {
    A[i, j] = f(B[i, j])
  }
}
for j = 1, N {
  for i = 1, N {
    B[i, j] = g(A[i, j], B[i, j])
  }
}
";

    const SPEC: &str = "l1=1K/32/4,l2=8K/32/fa";
    const N: i64 = 40;

    fn machine(prog: &Program, engine: ExecEngine) -> Machine<'_> {
        Machine::new(prog, ParamBinding::new(vec![N; prog.params.len()])).with_engine(engine)
    }

    /// Feeds each of the four sinks once directly from the machine and
    /// once from a `BatchLog` of the same run; every counter must agree.
    fn replay_equals_direct(prog: &Program, engine: ExecEngine) -> BatchLog {
        let spec = HierarchySpec::parse(SPEC).unwrap();
        let caps = spec.sweep_capacities();
        let sa: Vec<CacheConfig> =
            caps.iter().map(|&c| CacheConfig { size: c as usize, line: 32, assoc: 4 }).collect();
        let mut log = BatchLog::new();
        machine(prog, engine).run_steps(&mut log, 2);

        let mut direct = CapacitySweepSink::new(32, &caps);
        machine(prog, engine).run_steps(&mut direct, 2);
        let mut replayed = CapacitySweepSink::new(32, &caps);
        log.replay(&mut replayed);
        assert_eq!(direct.refs(), replayed.refs());
        assert_eq!(direct.miss_counts(), replayed.miss_counts());
        assert_eq!(direct.refs(), log.events());

        let mut direct = AssocSweepSink::new(&sa);
        machine(prog, engine).run_steps(&mut direct, 2);
        let mut replayed = AssocSweepSink::new(&sa);
        log.replay(&mut replayed);
        assert_eq!(direct.results(), replayed.results());

        let mut direct = MultiLevelSink::new(spec.build());
        machine(prog, engine).run_steps(&mut direct, 2);
        let mut replayed = MultiLevelSink::new(spec.build());
        log.replay(&mut replayed);
        assert_eq!(direct.model.counts(), replayed.model.counts());

        let mut direct = PhasedHierarchySink::new(MemoryHierarchy::origin2000_scaled(8, 8), prog);
        machine(prog, engine).run_steps(&mut direct, 2);
        let mut replayed = PhasedHierarchySink::new(MemoryHierarchy::origin2000_scaled(8, 8), prog);
        log.replay(&mut replayed);
        assert_eq!(direct.hierarchy.counts(), replayed.hierarchy.counts());
        assert_eq!(direct.phases(), replayed.phases());
        log
    }

    #[test]
    fn replay_of_a_batched_program_equals_the_direct_feed() {
        let prog = gcr_frontend::parse(BATCHED).unwrap();
        let log = replay_equals_direct(&prog, ExecEngine::Vm);
        assert!(log.batches > 0, "the VM must batch an unfused sweep");
        assert!(log.batched_events as f64 >= 0.99 * log.events() as f64);
    }

    #[test]
    fn replay_of_a_per_event_program_equals_the_direct_feed() {
        // The interpreter never batches, so the same program gives the
        // per-event stream shape.
        let prog = gcr_frontend::parse(BATCHED).unwrap();
        let log = replay_equals_direct(&prog, ExecEngine::Interp);
        assert_eq!(log.batches, 0);
        assert_eq!(log.single_events, log.events());
    }

    #[test]
    fn replay_of_a_fused_program_equals_the_direct_feed() {
        // Fusion guards make the VM fall back to per-event delivery.
        let prog =
            gcr_frontend::parse(gcr_apps::gallery_kernel("jacobi2d").unwrap().source).unwrap();
        let opt = gcr_core::pipeline::apply_strategy(
            &prog,
            gcr_core::pipeline::Strategy::from_name("fuse+group").unwrap(),
        );
        let log = replay_equals_direct(&opt.program, ExecEngine::Vm);
        assert!(log.single_events > log.batched_events, "fused jacobi2d should run per event");
    }
}
