//! Structured per-pass tracing for the optimizer pipeline.
//!
//! Every pass the fail-safe driver runs ([`crate::checked::optimize_checked_traced`])
//! can be recorded as a [`PassEvent`]: which pass ran, whether its
//! checkpoint accepted the result, how long it took, and how it changed the
//! IR (loop / statement / array counts). Together with the fallback rungs
//! of the [`crate::checked::RobustnessReport`], the event stream is the raw
//! material of the `gcrc --trace` output and the JSON reports every
//! experiment binary writes (see `gcr_cli::report`).
//!
//! The API is **zero-cost when disabled**: a [`Tracer::disabled`] tracer
//! never materializes an event, takes no timestamps and counts no IR nodes
//! — every recording site is guarded by [`Tracer::is_enabled`], so the
//! disabled path reduces to one branch on an `Option` discriminant. The
//! checked pipeline's fuel accounting is unaffected either way (tracing
//! runs no extra interpreter work), which `crates/core/tests/trace.rs`
//! pins down.
//!
//! ```
//! use gcr_core::trace::Tracer;
//! let mut t = Tracer::disabled();
//! t.record(|| unreachable!("closure never runs when disabled"));
//! assert!(t.events().is_empty());
//!
//! let mut t = Tracer::enabled();
//! t.record(|| gcr_core::trace::PassEvent::new("fusion@1"));
//! assert_eq!(t.events()[0].pass, "fusion@1");
//! ```

use gcr_ir::Program;

/// IR size snapshot taken before and after each traced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrSize {
    /// Total loops in the program.
    pub loops: usize,
    /// Top-level loop nests.
    pub nests: usize,
    /// Assignment statements.
    pub stmts: usize,
    /// Declared arrays (including scalars).
    pub arrays: usize,
}

impl IrSize {
    /// Measures a program.
    pub fn of(prog: &Program) -> IrSize {
        IrSize {
            loops: prog.count_loops(),
            nests: prog.count_nests(),
            stmts: prog.count_assigns(),
            arrays: prog.arrays.len(),
        }
    }
}

/// One recorded pipeline pass.
#[derive(Clone, Debug, PartialEq)]
pub struct PassEvent {
    /// Pass label (`prelim`, `fusion@1`, `regroup`, `baseline`).
    pub pass: String,
    /// Whether the pass's checkpoint accepted the result. A `false` event
    /// means the program was rolled back to its pre-pass state (the
    /// `after` sizes then equal `before`).
    pub ok: bool,
    /// Wall time of the pass plus its checkpoint, in nanoseconds.
    pub wall_ns: u64,
    /// IR size before the pass.
    pub before: IrSize,
    /// IR size after the pass (post-rollback when `ok` is false).
    pub after: IrSize,
    /// Pass-specific outcome: fused-loop counts, regrouped allocations, or
    /// the checkpoint's rejection cause.
    pub detail: String,
}

impl PassEvent {
    /// A blank event for a pass label (sizes and timing zeroed).
    pub fn new(pass: impl Into<String>) -> PassEvent {
        PassEvent {
            pass: pass.into(),
            ok: true,
            wall_ns: 0,
            before: IrSize::default(),
            after: IrSize::default(),
            detail: String::new(),
        }
    }

    /// One human-readable line, the `gcrc --trace` format.
    pub fn describe(&self) -> String {
        let status = if self.ok { "ok" } else { "FAIL" };
        let mut line = format!(
            "{:<10} {:>6} {:>9.3} ms  loops {}->{} stmts {}->{} arrays {}->{}",
            self.pass,
            status,
            self.wall_ns as f64 / 1e6,
            self.before.loops,
            self.after.loops,
            self.before.stmts,
            self.after.stmts,
            self.before.arrays,
            self.after.arrays,
        );
        if !self.detail.is_empty() {
            line.push_str("  ");
            line.push_str(&self.detail);
        }
        line
    }
}

/// Collector of [`PassEvent`]s.
///
/// `Tracer::disabled()` is the default everywhere; callers that want a
/// trace pass `Tracer::enabled()` into
/// [`crate::checked::optimize_checked_traced`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tracer {
    events: Option<Vec<PassEvent>>,
}

impl Tracer {
    /// A tracer that records nothing and evaluates nothing.
    pub fn disabled() -> Tracer {
        Tracer { events: None }
    }

    /// A tracer that records every pass.
    pub fn enabled() -> Tracer {
        Tracer { events: Some(Vec::new()) }
    }

    /// True when events are being recorded. Recording sites use this to
    /// skip timestamping and IR measurement entirely on the disabled path.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Records one event; the closure only runs when enabled.
    #[inline]
    pub fn record(&mut self, f: impl FnOnce() -> PassEvent) {
        if let Some(events) = &mut self.events {
            events.push(f());
        }
    }

    /// Appends pass-specific detail to the most recent event (no-op when
    /// disabled or empty).
    pub fn annotate_last(&mut self, f: impl FnOnce() -> String) {
        if let Some(ev) = self.events.as_mut().and_then(|v| v.last_mut()) {
            let extra = f();
            if ev.detail.is_empty() {
                ev.detail = extra;
            } else {
                ev.detail.push_str("; ");
                ev.detail.push_str(&extra);
            }
        }
    }

    /// Drops the events recorded after the first `len`.
    pub(crate) fn truncate(&mut self, len: usize) {
        if let Some(events) = &mut self.events {
            events.truncate(len);
        }
    }

    /// The recorded events (empty when disabled).
    pub fn events(&self) -> &[PassEvent] {
        self.events.as_deref().unwrap_or(&[])
    }

    /// Consumes the tracer, returning its events.
    pub fn into_events(self) -> Vec<PassEvent> {
        self.events.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_evaluates() {
        let mut t = Tracer::disabled();
        t.record(|| panic!("must not run"));
        t.annotate_last(|| panic!("must not run"));
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert!(t.into_events().is_empty());
    }

    #[test]
    fn enabled_records_and_annotates() {
        let mut t = Tracer::enabled();
        t.record(|| PassEvent::new("prelim"));
        t.annotate_last(|| "unrolled 2".into());
        t.annotate_last(|| "split 3".into());
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].detail, "unrolled 2; split 3");
        assert!(t.events()[0].describe().contains("prelim"));
    }

    #[test]
    fn describe_marks_failures() {
        let mut ev = PassEvent::new("regroup");
        ev.ok = false;
        ev.detail = "oracle mismatch".into();
        let line = ev.describe();
        assert!(line.contains("FAIL"), "{line}");
        assert!(line.contains("oracle mismatch"), "{line}");
    }
}
