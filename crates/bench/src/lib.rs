#![warn(missing_docs)]

//! `gcr-bench` — experiment harness regenerating every table and figure of
//! the paper's evaluation. Each binary in `src/bin/` reproduces one
//! artifact (see DESIGN.md's per-experiment index); this library holds the
//! shared measurement machinery, and [`sweep`] holds the parallel sweep
//! engine (worker-pool fan-out + content-keyed measurement memoization)
//! those binaries run on.

pub mod gallery;
pub mod sweep;

use gcr_cache::MissCounts;
use gcr_core::pipeline::Strategy;
use gcr_exec::{ExecStats, Machine};
use gcr_ir::ParamBinding;
use gcr_reuse::distance::Histogram;
use gcr_reuse::{InstrTrace, TraceCapture};

/// One measured run of one program version.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Strategy label.
    pub label: String,
    /// Interpreter statistics.
    pub stats: ExecStats,
    /// Miss counters.
    pub misses: MissCounts,
    /// Modeled cycles.
    pub cycles: f64,
}

/// Modeled clock rate for Mf/s reporting: the paper's 300 MHz R12K.
pub const CLOCK_MHZ: f64 = 300.0;

impl Measurement {
    /// Modeled megaflops per second (the paper quotes SP going from 64.5
    /// to 96.2 Mf/s).
    pub fn mflops(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.stats.flops as f64 * CLOCK_MHZ / self.cycles
        }
    }
}

impl Measurement {
    /// Normalizes against a baseline measurement.
    pub fn rel(&self, base: &Measurement) -> [f64; 4] {
        [
            self.cycles / base.cycles.max(1.0),
            ratio(self.misses.l1, base.misses.l1),
            ratio(self.misses.l2, base.misses.l2),
            ratio(self.misses.tlb, base.misses.tlb),
        ]
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a as f64 / b as f64
    }
}

/// Default number of measured time steps.
pub const STEPS: usize = 3;

/// Fuel for guarded measurement runs — generous for the evaluation sizes,
/// finite for runaway programs.
pub const MEASURE_FUEL: u64 = 2_000_000_000;

/// The strategy set of Figure 10 for a given app (SP gets the extra
/// one-level-fusion bar).
pub fn fig10_strategies(app_name: &str) -> Vec<Strategy> {
    let mut v = vec![Strategy::Original];
    if app_name == "SP" {
        v.push(Strategy::FusionOnly { levels: 1 });
    }
    v.push(Strategy::FusionOnly { levels: 3 });
    v.push(Strategy::FusionRegroup { levels: 3, regroup: gcr_core::regroup::RegroupLevel::Multi });
    v
}

/// Captures a one-step instruction trace of a program. Capacity for the
/// whole trace is reserved up front from the interpreter's static
/// estimate, so multi-million-access captures do not reallocate.
pub fn capture_trace(prog: &gcr_ir::Program, bind: ParamBinding) -> InstrTrace {
    let mut m = Machine::new(prog, bind);
    let est = m.estimate();
    let mut cap = TraceCapture::with_capacity(est.instances, est.accesses);
    m.run(&mut cap);
    cap.finish()
}

/// The value following `flag` on this process's command line, parsed as
/// `T` (`None` when the flag is absent) — the experiment binaries' whole
/// option grammar. A value that does not parse, or a flag with nothing
/// after it, prints the complaint and `usage` on stderr and exits 2.
pub fn arg<T: std::str::FromStr>(usage: &str, flag: &str) -> Option<T> {
    let mut after = std::env::args().skip_while(|a| a != flag);
    after.next()?;
    let complaint = match after.next() {
        None => format!("{flag} needs a value"),
        Some(text) => match text.parse() {
            Ok(value) => return Some(value),
            Err(_) => format!("bad {flag} value `{text}`"),
        },
    };
    eprintln!("{complaint}; {usage}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------------
// Text-table helpers
// ---------------------------------------------------------------------------

/// Prints a plain-text table: header row plus data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let s: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        println!("  {}", s.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for r in rows {
        line(r);
    }
}

/// Renders a histogram as a text "plot": one line per log₂ bin, in
/// thousands of references (the paper's Figure 3 axes).
pub fn render_histogram(name: &str, hists: &[(&str, &Histogram)]) {
    print!("{}", histogram_text(name, hists));
}

/// [`render_histogram`] into a string, so parallel sweep workers can
/// build their plots off-thread and the driver can print them in input
/// order.
pub fn histogram_text(name: &str, hists: &[(&str, &Histogram)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n-- {name}: references (thousands) per log2(reuse distance) bin --");
    let maxbin = hists.iter().map(|(_, h)| h.bins.len()).max().unwrap_or(0);
    let _ = write!(out, "{:>6}", "bin");
    for (label, _) in hists {
        let _ = write!(out, "{label:>16}");
    }
    out.push('\n');
    for b in 0..maxbin {
        let _ = write!(out, "{b:>6}");
        for (_, h) in hists {
            let v = h.bins.get(b).copied().unwrap_or(0);
            let _ = write!(out, "{:>16.1}", v as f64 / 1e3);
        }
        out.push('\n');
    }
    let _ = write!(out, "{:>6}", "cold");
    for (_, h) in hists {
        let _ = write!(out, "{:>16.1}", h.cold as f64 / 1e3);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_normalization() {
        let base = Measurement {
            label: "base".into(),
            stats: ExecStats::default(),
            misses: MissCounts { refs: 100, l1: 10, l2: 4, tlb: 2, memory_traffic: 0 },
            cycles: 1000.0,
        };
        let m = Measurement {
            label: "m".into(),
            stats: ExecStats::default(),
            misses: MissCounts { refs: 100, l1: 5, l2: 2, tlb: 2, memory_traffic: 0 },
            cycles: 500.0,
        };
        assert_eq!(m.rel(&base), [0.5, 0.5, 0.5, 1.0]);
    }

    #[test]
    fn measure_runs_end_to_end() {
        let apps = gcr_apps::evaluation_apps();
        let adi = apps.iter().find(|a| a.name == "ADI").unwrap();
        let cache = sweep::MeasureCache::new();
        let measure = |strategy| {
            sweep::measure_strategy_report_cached(&cache, "t", adi, strategy, 24, 1).unwrap().0
        };
        let m = measure(Strategy::Original);
        assert!(m.misses.refs > 0);
        assert!(m.cycles > 0.0);
        let f = measure(Strategy::FusionRegroup {
            levels: 3,
            regroup: gcr_core::regroup::RegroupLevel::Multi,
        });
        assert_eq!(f.stats.accesses(), m.stats.accesses(), "same work, different order");
    }
}
