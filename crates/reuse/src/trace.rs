//! Statement-instance trace capture.
//!
//! The reuse-driven execution study (Section 2.2) operates on the run-time
//! trace of "source-level instructions": one entry per dynamic assignment
//! instance, with the data it reads and writes. [`TraceCapture`] is a
//! [`gcr_exec::TraceSink`] that records the trace in CSR form.
//!
//! Capture has two paths. Per-event calls (`access`/`end_instance`, the
//! interpreter and the VM's exact path) append straight to the flat CSR
//! vectors.
//! Batched calls ([`gcr_exec::TraceSink::record_batch`], the VM's strip
//! engine) append the *compressed affine form* — one [`gcr_exec::BatchSlot`]
//! descriptor per event position instead of one record per event, two
//! orders of magnitude less write traffic on long strips. The flat trace is
//! materialized lazily by [`TraceCapture::trace`]/[`TraceCapture::finish`],
//! which expand the deferred batches in stream order; engines that never
//! batch pay nothing. The materialized stream is byte-identical to what the
//! per-event path records (the conformance engine oracle compares the two
//! engines' streams event for event).

use gcr_exec::{AccessEvent, BatchSlot, TraceSink};
use gcr_ir::{RefId, StmtId};

/// One recorded access: element-granularity address, static reference, and
/// write flag, packed into a single record so capture is one vector push
/// (three parallel vectors cost three capacity checks and three scattered
/// store streams on the multi-million-access traces of Section 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Element-granularity address.
    pub addr: u64,
    /// Static reference id.
    pub ref_id: RefId,
    /// True for the write (the write, if any, is last in its instruction).
    pub is_write: bool,
}

/// A captured instruction trace. Addresses are at element granularity.
#[derive(Clone, Debug, Default)]
pub struct InstrTrace {
    /// Flat access stream; instruction `i` owns `accs[starts[i]..starts[i+1]]`.
    pub accs: Vec<Access>,
    /// CSR offsets, length = instructions + 1.
    pub starts: Vec<u32>,
    /// Static statement id per instruction.
    pub stmts: Vec<StmtId>,
}

impl InstrTrace {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True when no instructions were captured.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Accesses of instruction `i`: `(addr, is_write, ref)` triples.
    pub fn accesses(&self, i: usize) -> impl Iterator<Item = (u64, bool, RefId)> + '_ {
        let r = self.starts[i] as usize..self.starts[i + 1] as usize;
        self.accs[r].iter().map(|a| (a.addr, a.is_write, a.ref_id))
    }

    /// Total number of accesses.
    pub fn total_accesses(&self) -> usize {
        self.accs.len()
    }
}

/// One deferred strip batch: spans into the slot/end pools, the iteration
/// count, and the flat-stream position the batch belongs at (so per-event
/// and batched spans interleave in true stream order when materialized).
#[derive(Clone, Copy, Debug)]
struct Run {
    slots: (u32, u32),
    ends: (u32, u32),
    iters: u32,
    /// Flat accesses recorded before this batch arrived.
    acc_at: u32,
    /// Flat instances recorded before this batch arrived.
    inst_at: u32,
}

/// Sink building an [`InstrTrace`].
#[derive(Debug, Default)]
pub struct TraceCapture {
    /// Flat CSR stream from per-event capture (and, after
    /// [`materialize`](Self::trace), from expanded batches too).
    trace: InstrTrace,
    /// Deferred batches in arrival order.
    runs: Vec<Run>,
    /// Slot pool the runs index into.
    rslots: Vec<BatchSlot>,
    /// Instance-boundary pool the runs index into.
    rends: Vec<(u32, StmtId)>,
}

impl TraceCapture {
    /// New empty capture.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// New capture with room for `instances` instructions and `accesses`
    /// addresses, reserved up front. Use the interpreter's static
    /// [`gcr_exec::ExecEstimate`] so multi-million-access traces are built
    /// without reallocation.
    pub fn with_capacity(instances: u64, accesses: u64) -> Self {
        let (ni, na) = (instances as usize, accesses as usize);
        let mut t = InstrTrace {
            accs: Vec::with_capacity(na),
            starts: Vec::with_capacity(ni + 1),
            stmts: Vec::with_capacity(ni),
        };
        t.starts.push(0);
        TraceCapture { trace: t, runs: Vec::new(), rslots: Vec::new(), rends: Vec::new() }
    }

    /// The captured trace, materializing any deferred batches first.
    pub fn trace(&mut self) -> &InstrTrace {
        self.materialize();
        &self.trace
    }

    /// Finishes and returns the trace, materializing deferred batches.
    pub fn finish(mut self) -> InstrTrace {
        self.materialize();
        self.trace
    }

    /// Total accesses captured so far — flat plus still-compressed — without
    /// forcing materialization.
    pub fn total_accesses(&self) -> usize {
        let batched: usize =
            self.runs.iter().map(|r| (r.slots.1 - r.slots.0) as usize * r.iters as usize).sum();
        self.trace.accs.len() + batched
    }

    /// Empties the capture, keeping the allocated buffers. Benchmarks use
    /// this to time repeated captures without re-paying page faults on
    /// multi-megabyte trace buffers.
    pub fn clear(&mut self) {
        self.trace.accs.clear();
        self.trace.stmts.clear();
        self.trace.starts.clear();
        self.trace.starts.push(0);
        self.runs.clear();
        self.rslots.clear();
        self.rends.clear();
    }

    /// Expands deferred batches into the flat CSR stream, merging them with
    /// the per-event spans at the positions they arrived. No-op when no
    /// batches are pending, so per-event engines never pay for it.
    fn materialize(&mut self) {
        if self.runs.is_empty() {
            return;
        }
        let flat = std::mem::take(&mut self.trace);
        let extra_acc: usize =
            self.runs.iter().map(|r| (r.slots.1 - r.slots.0) as usize * r.iters as usize).sum();
        let extra_inst: usize =
            self.runs.iter().map(|r| (r.ends.1 - r.ends.0) as usize * r.iters as usize).sum();
        let mut t = InstrTrace {
            accs: Vec::with_capacity(flat.accs.len() + extra_acc),
            starts: Vec::with_capacity(flat.stmts.len() + extra_inst + 1),
            stmts: Vec::with_capacity(flat.stmts.len() + extra_inst),
        };
        t.starts.push(0);
        let mut fa = 0usize; // flat accesses copied so far
        let mut fi = 0usize; // flat instances copied so far
        let mut ins = 0u32; // batch-expanded accesses inserted so far
        let mut copy_flat = |t: &mut InstrTrace, acc_to: usize, inst_to: usize, ins: u32| {
            t.accs.extend_from_slice(&flat.accs[fa..acc_to]);
            fa = acc_to;
            while fi < inst_to {
                t.stmts.push(flat.stmts[fi]);
                // Flat offsets count flat accesses only; rebase onto the
                // merged stream by the batch events inserted before here.
                t.starts.push(flat.starts[fi + 1] + ins);
                fi += 1;
            }
        };
        for r in &self.runs {
            copy_flat(&mut t, r.acc_at as usize, r.inst_at as usize, ins);
            let slots = &self.rslots[r.slots.0 as usize..r.slots.1 as usize];
            let ends = &self.rends[r.ends.0 as usize..r.ends.1 as usize];
            let n = slots.len();
            for k in 0..r.iters as i64 {
                for sl in slots {
                    t.accs.push(Access {
                        addr: sl.addr_at(k) >> 3, // element granularity
                        ref_id: sl.ref_id,
                        is_write: sl.is_write,
                    });
                }
                let base = (t.accs.len() - n) as u32;
                for &(end, stmt) in ends {
                    t.stmts.push(stmt);
                    t.starts.push(base + end);
                }
            }
            ins += (n as u32) * r.iters;
        }
        copy_flat(&mut t, flat.accs.len(), flat.stmts.len(), ins);
        self.runs.clear();
        self.rslots.clear();
        self.rends.clear();
        self.trace = t;
    }
}

impl TraceSink for TraceCapture {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.trace.accs.push(Access {
            addr: ev.addr >> 3, // element granularity
            ref_id: ev.ref_id,
            is_write: ev.is_write,
        });
    }

    #[inline]
    fn end_instance(&mut self, stmt: StmtId) {
        self.trace.stmts.push(stmt);
        self.trace.starts.push(self.trace.accs.len() as u32);
    }

    fn record_batch(&mut self, batch: &gcr_exec::TraceBatch<'_>) {
        // Store the batch in compressed affine form: O(slots) descriptor
        // writes instead of O(slots × iters) event records — the whole
        // point of the VM's strip batching. (Eager expansion here was
        // measured at ~4ns/event, which put batched capture's write
        // traffic on par with per-event capture and erased the strip
        // engine's run-time win.) Expansion to the flat CSR stream is
        // deferred to `trace()`/`finish()`.
        let s0 = self.rslots.len() as u32;
        self.rslots.extend_from_slice(batch.slots);
        let e0 = self.rends.len() as u32;
        self.rends.extend_from_slice(batch.ends);
        self.runs.push(Run {
            slots: (s0, self.rslots.len() as u32),
            ends: (e0, self.rends.len() as u32),
            iters: batch.iters,
            acc_at: self.trace.accs.len() as u32,
            inst_at: self.trace.stmts.len() as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_exec::{ExecEngine, Machine};
    use gcr_ir::{Expr, LinExpr, ParamBinding, ProgramBuilder, Subscript};

    #[test]
    fn captures_instances() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let c = b.array("C", &[LinExpr::param(n)]);
        let i = b.var("i");
        let rhs = b.read(a, vec![Subscript::var(i, 0)]);
        let s = b.assign(c, vec![Subscript::var(i, 0)], Expr::Call("f", vec![rhs]));
        let l = b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s]);
        b.push(l);
        let p = b.finish();
        let mut m = Machine::new(&p, ParamBinding::new(vec![4]));
        let mut cap = TraceCapture::new();
        m.run(&mut cap);
        let t = cap.finish();
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_accesses(), 8);
        let acc: Vec<_> = t.accesses(0).collect();
        assert_eq!(acc.len(), 2);
        assert!(!acc[0].1 && acc[1].1, "read then write");
        // A and C are adjacent; A elems 0..4, C elems 4..8
        assert_eq!(acc[0].0, 0);
        assert_eq!(acc[1].0, 4);
    }

    /// The lazily-materialized batched capture must reproduce the
    /// per-event stream exactly, including where batched strips interleave
    /// with guarded (per-event) iterations.
    #[test]
    fn batched_capture_matches_per_event() {
        for prog in [gcr_apps::adi::program(), gcr_apps::sp::program()] {
            let bind = ParamBinding::new(vec![8]);
            let mut vm_cap = TraceCapture::new();
            Machine::new(&prog, bind.clone()).with_engine(ExecEngine::Vm).run(&mut vm_cap);
            let mut ev_cap = TraceCapture::new();
            Machine::new(&prog, bind).with_engine(ExecEngine::Interp).run(&mut ev_cap);
            let (vm, ev) = (vm_cap.finish(), ev_cap.finish());
            assert_eq!(vm.accs, ev.accs, "{}: access streams differ", prog.name);
            assert_eq!(vm.starts, ev.starts, "{}: instance bounds differ", prog.name);
            assert_eq!(vm.stmts, ev.stmts, "{}: statement ids differ", prog.name);
        }
    }
}
