#![warn(missing_docs)]

//! Symbolic reuse-distance prediction: per-capacity miss counts as
//! closed-form polynomials in the size parameter `N`.
//!
//! The trace simulator (`gcr_cache::CapacitySweepSink`) answers
//! "how many misses does a fully-associative LRU cache of capacity *c*
//! take on this program at size *N*?" exactly — but its cost grows with
//! the trace, so a sweep at N = 10⁹ would need ~10¹⁸ simulated accesses.
//! This crate answers the same question *analytically*: every loop bound,
//! guard range and subscript in canonical `gcr-ir` form is integer-affine
//! in `N`, so once `N` is past a small regime threshold the miss count of
//! every capacity is a *quasi-polynomial* in `N` — one true polynomial of
//! degree at most the maximum loop-nest depth per residue class of
//! `N mod (line/8)`, the period that line-granular footprints (`⌊8N/32⌋`
//! terms and base-address alignment) introduce (see DESIGN.md §14 for the
//! derivation). The [`Analyzer`] recovers those polynomials by probing
//! the simulator at `degree + 3` *small* sizes per residue class —
//! thousands of accesses in total — fitting exact Newton forward
//! differences through the first `degree + 1` samples of each class and
//! validating every class on the two remaining held-out sizes.
//! Evaluating the fitted model at any `N`, including 10⁹, is then a
//! handful of 128-bit multiplications: microseconds, independent of `N`.
//!
//! Construct taxonomy (mirrored in the report `prediction.class` field):
//!
//! * **exact** — guard-free affine programs. Probe-regime counts
//!   interpolate with zero holdout error and predictions byte-match the
//!   simulator (enforced corpus-wide by `gcr-conform`'s `static` oracle).
//! * **bounded** — programs containing guarded statements (`guard`/`outer`
//!   ranges, as fusion and peeling introduce). Counts are still piecewise
//!   affine and in practice interpolate exactly, but the class is tagged
//!   `bounded` and carries a measured [`Model::tolerance`]; consumers
//!   compare within that bound instead of byte equality.
//!
//! Programs with more than one size parameter are rejected with
//! [`StaticError::NotAnalyzable`] (multivariate models are out of scope);
//! callers such as the `gcr-serve` `predict` verb fall back to plain
//! simulation.
//!
//! # Example: predict a sweep at N = 10⁹ in microseconds
//!
//! ```
//! use gcr_static::{Analyzer, SweepSpec};
//!
//! let src = "program axpy\nparam N\narray X[N], Y[N]\n\
//!            for i = 1, N { Y[i] = Y[i] + 2.0 * X[i] }\n";
//! let prog = gcr_frontend::parse(src).unwrap();
//!
//! // Build the model once: probes the simulator at a few tiny sizes.
//! let spec = SweepSpec::new(32, vec![256, 1024], 1);
//! let an = Analyzer::analyze(&prog, spec).unwrap();
//! assert_eq!(an.model().class.name(), "exact");
//!
//! // Evaluate it at any size — no simulation, just polynomial arithmetic.
//! let p = an.predict(1_000_000_000).unwrap();
//! assert_eq!(p.refs, 3_000_000_000); // 2 reads + 1 write per iteration
//! assert_eq!(p.method.name(), "polynomial");
//! // The fitted miss model itself is available in closed form:
//! assert_eq!(an.model().capacities[0].global.degree(), 1); // linear in N
//! ```

use gcr_exec::{AccessEvent, DataLayout, ExecEngine, Machine, TraceSink};
use gcr_ir::{GcrError, ParamBinding, Program};
use gcr_reuse::distance::ReuseDistanceAnalyzer;
use gcr_reuse::CapacityCounter;
use std::fmt;

/// Default interpreter fuel for probe simulations: probes run at sizes
/// near the regime floor, so this is rarely the binding constraint — it
/// exists so a pathological program surfaces `BudgetExceeded` instead of
/// hanging the analyzer.
pub const DEFAULT_PROBE_FUEL: u64 = 200_000_000;

/// Errors from the static analyzer.
#[derive(Clone, Debug, PartialEq)]
pub enum StaticError {
    /// The program is outside the analyzable domain (multiple size
    /// parameters, or miss counts that fail polynomial validation).
    NotAnalyzable {
        /// Human-readable reason.
        reason: String,
    },
    /// A probe simulation failed (fuel, bounds, execution fault...).
    Gcr(GcrError),
}

impl fmt::Display for StaticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticError::NotAnalyzable { reason } => {
                write!(f, "not statically analyzable: {reason}")
            }
            StaticError::Gcr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StaticError {}

impl From<GcrError> for StaticError {
    fn from(e: GcrError) -> Self {
        StaticError::Gcr(e)
    }
}

fn not_analyzable(reason: impl Into<String>) -> StaticError {
    StaticError::NotAnalyzable { reason: reason.into() }
}

/// The capacity sweep a model answers: line size, capacity ladder, and
/// how many times the program body runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// Cache line size in bytes (a power of two).
    pub line: u64,
    /// Cache capacities in bytes, ascending (positive multiples of
    /// `line`, deduplicated).
    pub capacities: Vec<u64>,
    /// Time steps: how many times the program body executes per run.
    pub steps: usize,
}

impl SweepSpec {
    /// A sweep over `capacities` bytes with `line`-byte lines.
    ///
    /// # Panics
    /// Panics if `line` is not a power of two, `capacities` is empty, or
    /// any capacity is not a positive multiple of `line` — the same
    /// contract as `gcr_cache::CapacitySweepSink`.
    pub fn new(line: u64, mut capacities: Vec<u64>, steps: usize) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(!capacities.is_empty(), "capacity sweep must not be empty");
        for &c in &capacities {
            assert!(
                c >= line && c % line == 0,
                "capacity {c} is not a positive multiple of line {line}"
            );
        }
        capacities.sort_unstable();
        capacities.dedup();
        SweepSpec { line, capacities, steps }
    }

    /// The documented default ladder used by `gcrc --static`: 32-byte
    /// lines, capacities 256 B / 1 KB / 4 KB / 16 KB, one time step.
    pub fn standard() -> Self {
        SweepSpec::new(32, vec![256, 1024, 4096, 16384], 1)
    }
}

/// Exactness class of a model (the construct taxonomy of DESIGN.md §14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Guard-free affine program: predictions are bit-identical to the
    /// simulator in the polynomial regime.
    Exact,
    /// Guarded program: predictions are validated within
    /// [`Model::tolerance`] relative error rather than byte equality.
    Bounded,
}

impl Class {
    /// Stable lower-case tag used in reports and oracles.
    pub fn name(self) -> &'static str {
        match self {
            Class::Exact => "exact",
            Class::Bounded => "bounded",
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An integer-valued polynomial over the arithmetic progression
/// `{base, base + stride, base + 2·stride, …}`, stored in Newton
/// forward-difference form: `p(base + k·stride) = Σⱼ Δʲ · C(k, j)`.
///
/// The Newton form is what interpolation through equally spaced integer
/// samples produces *exactly* (the differences are integers), so no
/// rational arithmetic is needed to fit, and [`Poly::eval`] is exact
/// 128-bit integer arithmetic — the sequential `·(k−j+1)/j` binomial
/// update divides evenly at every step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Poly {
    base: i64,
    stride: i64,
    deltas: Vec<i128>,
}

impl Poly {
    /// Fits the unique degree-`samples.len()-1` polynomial through
    /// `p(base + k·stride) = samples[k]` via forward differences.
    fn fit(base: i64, stride: i64, samples: &[u64]) -> Poly {
        debug_assert!(stride >= 1);
        let mut col: Vec<i128> = samples.iter().map(|&v| v as i128).collect();
        let mut deltas = Vec::with_capacity(col.len());
        while !col.is_empty() {
            deltas.push(col[0]);
            for i in 0..col.len() - 1 {
                col[i] = col[i + 1] - col[i];
            }
            col.pop();
        }
        // Trim trailing zero differences so `degree` is meaningful.
        while deltas.len() > 1 && *deltas.last().unwrap() == 0 {
            deltas.pop();
        }
        Poly { base, stride, deltas }
    }

    /// Degree of the polynomial (trailing zero differences trimmed).
    pub fn degree(&self) -> usize {
        self.deltas.len() - 1
    }

    /// Exact evaluation at `n` (must lie on the progression: `n ≥ base`
    /// and `n ≡ base (mod stride)`). Returns `None` off the progression
    /// or if the value does not fit in 128-bit arithmetic (use
    /// [`Poly::eval_f64`] then) or comes out negative (a fit artifact
    /// outside the regime).
    pub fn eval(&self, n: i64) -> Option<u128> {
        let x = (n as i128).checked_sub(self.base as i128)?;
        if x < 0 || x % self.stride as i128 != 0 {
            return None;
        }
        let k = x / self.stride as i128;
        let mut acc: i128 = 0;
        let mut binom: i128 = 1; // C(k, j), exact at every step
        for (j, &d) in self.deltas.iter().enumerate() {
            if j > 0 {
                binom = binom.checked_mul(k - (j as i128) + 1)? / (j as i128);
            }
            acc = acc.checked_add(d.checked_mul(binom)?)?;
        }
        u128::try_from(acc).ok()
    }

    /// Approximate evaluation for display when exact 128-bit evaluation
    /// overflows.
    pub fn eval_f64(&self, n: i64) -> f64 {
        let k = (n as f64 - self.base as f64) / self.stride as f64;
        let mut acc = 0.0;
        let mut binom = 1.0;
        for (j, &d) in self.deltas.iter().enumerate() {
            if j > 0 {
                binom *= (k - j as f64 + 1.0) / j as f64;
            }
            acc += d as f64 * binom;
        }
        acc
    }

    /// Renders the polynomial in monomial form over `var`, with exact
    /// rational coefficients — e.g. `3*N^2 - 2*N` or `(N^2 + N)/2`.
    /// Falls back to the Newton form if the conversion overflows i128.
    pub fn render(&self, var: &str) -> String {
        match self.monomial_coeffs() {
            Some((num, den)) => render_monomials(&num, den, var),
            None => {
                let mut s = String::new();
                for (j, &d) in self.deltas.iter().enumerate() {
                    if j > 0 {
                        s.push_str(" + ");
                    }
                    s.push_str(&format!("{d}*C(({var}-{})/{}, {j})", self.base, self.stride));
                }
                s
            }
        }
    }

    /// Monomial coefficients `(numerators ascending by power, denominator)`
    /// such that `p(n) = Σᵢ numᵢ·nⁱ / den`. `None` on i128 overflow.
    fn monomial_coeffs(&self) -> Option<(Vec<i128>, i128)> {
        let deg = self.degree();
        let fact: i128 = (1..=deg as i128).product::<i128>().max(1); // deg!
                                                                     // Accumulate fact·p as an integer polynomial in k = (n − base)/stride.
        let mut acc = vec![0i128; deg + 1];
        for (j, &d) in self.deltas.iter().enumerate() {
            // fact/j! · k·(k−1)···(k−j+1), coefficients ascending in k.
            let scale = fact / (1..=j as i128).product::<i128>().max(1);
            let mut term = vec![0i128; deg + 1];
            term[0] = scale;
            for t in 0..j as i128 {
                // term *= (k − t)
                let mut next = vec![0i128; deg + 1];
                for (p, &c) in term.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    if p < deg {
                        next[p + 1] = next[p + 1].checked_add(c)?;
                    }
                    next[p] = next[p].checked_add(c.checked_mul(-t)?)?;
                }
                term = next;
            }
            for (p, &c) in term.iter().enumerate() {
                acc[p] = acc[p].checked_add(d.checked_mul(c)?)?;
            }
        }
        // Substitute k = (n − base)/stride: common denominator becomes
        // fact·stride^deg; the k^p term contributes stride^(deg−p)·(n−b)^p.
        let s = self.stride as i128;
        let b = self.base as i128;
        let den = (0..deg).try_fold(fact, |d, _| d.checked_mul(s))?;
        let mut out = vec![0i128; deg + 1];
        for (p, &c0) in acc.iter().enumerate() {
            if c0 == 0 {
                continue;
            }
            let c = (p..deg).try_fold(c0, |c, _| c.checked_mul(s))?;
            // c·(n − b)^p
            let mut binom: i128 = 1;
            let mut pow: i128 = 1; // b^k
            for k in 0..=p {
                // coefficient of n^(p−k): c · C(p,k) · (−b)^k
                let sign = if k % 2 == 0 { 1 } else { -1 };
                let contrib = c.checked_mul(binom)?.checked_mul(pow.checked_mul(sign)?)?;
                out[p - k] = out[p - k].checked_add(contrib)?;
                binom = binom.checked_mul((p - k) as i128)? / (k as i128 + 1);
                pow = pow.checked_mul(b)?;
            }
        }
        // Reduce by the gcd of all numerators and the denominator.
        let mut g = den;
        for &c in &out {
            g = gcd(g, c.abs());
        }
        if g > 1 {
            for c in &mut out {
                *c /= g;
            }
            return Some((out, den / g));
        }
        Some((out, den))
    }
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

fn render_monomials(num: &[i128], den: i128, var: &str) -> String {
    let mut body = String::new();
    for (p, &c) in num.iter().enumerate().rev() {
        if c == 0 {
            continue;
        }
        let mag = c.abs();
        if body.is_empty() {
            if c < 0 {
                body.push('-');
            }
        } else {
            body.push_str(if c < 0 { " - " } else { " + " });
        }
        match p {
            0 => body.push_str(&mag.to_string()),
            _ => {
                if mag != 1 {
                    body.push_str(&format!("{mag}*"));
                }
                body.push_str(var);
                if p > 1 {
                    body.push_str(&format!("^{p}"));
                }
            }
        }
    }
    if body.is_empty() {
        body.push('0');
    }
    if den != 1 {
        format!("({body})/{den}")
    } else {
        body
    }
}

/// A quasi-polynomial: one [`Poly`] per residue class of `N mod period`.
/// The period comes from line granularity — with 8-byte elements and
/// `line`-byte lines, footprints in lines and base-address alignments
/// repeat with period `line/8` in `N`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuasiPoly {
    period: i64,
    /// `branches[r]` answers sizes with `n mod period == r`.
    branches: Vec<Poly>,
}

impl QuasiPoly {
    /// The residue period (1 for a plain polynomial).
    pub fn period(&self) -> i64 {
        self.period
    }

    /// Maximum branch degree.
    pub fn degree(&self) -> usize {
        self.branches.iter().map(Poly::degree).max().unwrap_or(0)
    }

    /// Exact evaluation at any `n` at or above the model's regime floor.
    pub fn eval(&self, n: i64) -> Option<u128> {
        self.branches[(n.rem_euclid(self.period)) as usize].eval(n)
    }

    /// Approximate evaluation (display fallback on 128-bit overflow).
    pub fn eval_f64(&self, n: i64) -> f64 {
        self.branches[(n.rem_euclid(self.period)) as usize].eval_f64(n)
    }

    /// Renders the closed form over `var`. When every residue class fits
    /// the same polynomial the common form is printed once; otherwise one
    /// branch per residue is shown.
    pub fn render(&self, var: &str) -> String {
        let forms: Vec<String> = self.branches.iter().map(|p| p.render(var)).collect();
        if forms.windows(2).all(|w| w[0] == w[1]) {
            return forms.into_iter().next().unwrap_or_else(|| "0".into());
        }
        forms
            .iter()
            .enumerate()
            .map(|(r, f)| format!("{f} [{var}≡{r} mod {}]", self.period))
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Renders the branch that answers size `n`.
    pub fn render_at(&self, var: &str, n: i64) -> String {
        self.branches[(n.rem_euclid(self.period)) as usize].render(var)
    }
}

/// The fitted miss model for one cache capacity.
#[derive(Clone, Debug)]
pub struct CapacityModel {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Total misses (cold + capacity) across all arrays.
    pub global: QuasiPoly,
    /// Misses attributed to each array, indexed by `ArrayId`. Scalars are
    /// never traced, so their model is identically zero; the per-array
    /// models always sum to `global`.
    pub per_array: Vec<QuasiPoly>,
}

/// A complete symbolic reuse model: one quasi-polynomial per
/// (capacity × array) plus reference counts, with its exactness class and
/// validity regime.
#[derive(Clone, Debug)]
pub struct Model {
    /// The sweep this model answers.
    pub spec: SweepSpec,
    /// Exactness class (see [`Class`]).
    pub class: Class,
    /// Maximum relative error observed on the held-out validation sizes:
    /// `0.0` for exact fits; positive only for `bounded` models that
    /// interpolate approximately.
    pub tolerance: f64,
    /// Fitted polynomial degree (≤ the program's maximum nest depth).
    pub degree: usize,
    /// Residue period of the quasi-polynomials (`line/8`, possibly
    /// escalated).
    pub period: i64,
    /// Regime floor: predictions at `N ≥ base` use the polynomials;
    /// smaller sizes are simulated directly (they are cheap by
    /// definition — the probes themselves run there).
    pub base: i64,
    /// Per-capacity miss models, ascending by capacity.
    pub capacities: Vec<CapacityModel>,
    /// Total traced references.
    pub refs: QuasiPoly,
    /// Traced references per array, indexed by `ArrayId`.
    pub refs_per_array: Vec<QuasiPoly>,
    /// Probe simulations spent building (and validating) the model.
    pub probe_sims: u32,
}

/// How a [`Prediction`] was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Quasi-polynomial evaluation in the regime `N ≥ base`.
    Polynomial,
    /// Direct probe simulation for sub-regime sizes (exact by
    /// construction).
    Direct,
}

impl Method {
    /// Stable lower-case tag used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Polynomial => "polynomial",
            Method::Direct => "direct",
        }
    }
}

/// Predicted miss counts for one capacity at a concrete size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityPrediction {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Predicted total misses.
    pub misses: u128,
    /// Predicted misses per array, indexed by `ArrayId`.
    pub per_array: Vec<u128>,
}

/// A concrete evaluation of a [`Model`] at one size.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// The size parameter value.
    pub size: i64,
    /// Time steps (copied from the sweep spec).
    pub steps: usize,
    /// Polynomial evaluation or direct simulation.
    pub method: Method,
    /// Exactness class of the underlying model.
    pub class: Class,
    /// Documented relative-error bound (0 for exact).
    pub tolerance: f64,
    /// Predicted total traced references.
    pub refs: u128,
    /// Per-capacity predictions, ascending by capacity.
    pub capacities: Vec<CapacityPrediction>,
}

/// Everything one probe simulation measures. Field order mirrors the
/// series order used when fitting.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProbeCounts {
    refs: u64,
    refs_per_array: Vec<u64>,
    /// `misses[c]` = total misses at `spec.capacities[c]`.
    misses: Vec<u64>,
    /// `misses_per_array[c][a]`.
    misses_per_array: Vec<Vec<u64>>,
}

/// Trace sink answering exactly what `gcr_cache::CapacitySweepSink`
/// answers for the global counts (here from exact distances: one
/// analyzer, one capacity counter, misses = cold + at-least) while
/// additionally attributing every access to its array — so the per-array
/// models sum to the global one by construction.
struct ProbeSink {
    analyzer: ReuseDistanceAnalyzer,
    counter: CapacityCounter,
    per_array: Vec<(CapacityCounter, u64)>, // (distances, cold) per array
    line: u64,
    refs: u64,
    refs_per_array: Vec<u64>,
    caps: Vec<u64>, // bytes, ascending
}

impl ProbeSink {
    fn new(spec: &SweepSpec, arrays: usize) -> Self {
        let caps_lines: Vec<u64> = spec.capacities.iter().map(|&c| c / spec.line).collect();
        ProbeSink {
            analyzer: ReuseDistanceAnalyzer::new(spec.line),
            counter: CapacityCounter::new(caps_lines.clone()),
            per_array: (0..arrays).map(|_| (CapacityCounter::new(caps_lines.clone()), 0)).collect(),
            line: spec.line,
            refs: 0,
            refs_per_array: vec![0; arrays],
            caps: spec.capacities.clone(),
        }
    }

    fn counts(&self) -> ProbeCounts {
        let mut misses = Vec::with_capacity(self.caps.len());
        let mut misses_per_array = Vec::with_capacity(self.caps.len());
        for &cap in &self.caps {
            let lines = cap / self.line;
            misses.push(self.analyzer.hist.cold + self.counter.at_least(lines));
            misses_per_array.push(
                self.per_array.iter().map(|(cnt, cold)| cold + cnt.at_least(lines)).collect(),
            );
        }
        ProbeCounts {
            refs: self.refs,
            refs_per_array: self.refs_per_array.clone(),
            misses,
            misses_per_array,
        }
    }
}

impl TraceSink for ProbeSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.refs += 1;
        let a = ev.array.index();
        self.refs_per_array[a] += 1;
        match self.analyzer.access(ev.addr) {
            Some(d) => {
                self.counter.record(d);
                self.per_array[a].0.record(d);
            }
            None => self.per_array[a].1 += 1,
        }
    }
}

/// True if any statement carries a guard or outer-iteration condition —
/// the construct boundary between the `exact` and `bounded` classes.
pub fn has_guards(prog: &Program) -> bool {
    let mut guarded = false;
    prog.walk(|gs, _| {
        if gs.guard.is_some() || !gs.outer.is_empty() {
            guarded = true;
        }
    });
    guarded
}

type LayoutFor<'p> = Box<dyn Fn(&ParamBinding) -> DataLayout + 'p>;

/// A fitted symbolic model bound to its program, ready to answer
/// predictions at any size. Build with [`Analyzer::analyze`] (default
/// column-major layout) or [`Analyzer::analyze_with`] (custom layout,
/// engine and fuel — e.g. the regrouped layout of an optimized program).
pub struct Analyzer<'p> {
    prog: &'p Program,
    layout_for: LayoutFor<'p>,
    engine: ExecEngine,
    fuel: u64,
    model: Model,
}

impl<'p> Analyzer<'p> {
    /// Fits a model using the default column-major layout, the default
    /// execution engine and [`DEFAULT_PROBE_FUEL`].
    pub fn analyze(prog: &'p Program, spec: SweepSpec) -> Result<Self, StaticError> {
        let layout = move |b: &ParamBinding| DataLayout::column_major(prog, b, 0);
        Self::analyze_with(prog, spec, ExecEngine::default(), DEFAULT_PROBE_FUEL, layout)
    }

    /// Fits a model with full control over layout, engine and probe fuel.
    /// `layout_for` is consulted once per probe binding — pass the
    /// optimizer's regrouped layout to model the transformed program.
    pub fn analyze_with(
        prog: &'p Program,
        spec: SweepSpec,
        engine: ExecEngine,
        fuel: u64,
        layout_for: impl Fn(&ParamBinding) -> DataLayout + 'p,
    ) -> Result<Self, StaticError> {
        if prog.params.len() > 1 {
            return Err(not_analyzable(format!(
                "{} size parameters (the symbolic model is univariate)",
                prog.params.len()
            )));
        }
        let layout_for: LayoutFor<'p> = Box::new(layout_for);
        let model = fit_model(prog, &spec, engine, fuel, &layout_for)?;
        Ok(Analyzer { prog, layout_for, engine, fuel, model })
    }

    /// The fitted model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Predicts the full sweep at size `n`: polynomial evaluation for
    /// `n ≥ base` (microseconds, independent of `n`), direct probe
    /// simulation below the regime floor (cheap by definition).
    pub fn predict(&self, n: i64) -> Result<Prediction, StaticError> {
        if n < 1 {
            return Err(StaticError::Gcr(GcrError::Usage(format!(
                "prediction size must be positive, got {n}"
            ))));
        }
        let m = &self.model;
        if !self.prog.params.is_empty() && n < m.base {
            let c = probe(self.prog, &m.spec, self.engine, self.fuel, &self.layout_for, n)?;
            return Ok(Prediction {
                size: n,
                steps: m.spec.steps,
                method: Method::Direct,
                class: Class::Exact,
                tolerance: 0.0,
                refs: c.refs as u128,
                capacities: m
                    .spec
                    .capacities
                    .iter()
                    .enumerate()
                    .map(|(ci, &cap)| CapacityPrediction {
                        capacity: cap,
                        misses: c.misses[ci] as u128,
                        per_array: c.misses_per_array[ci].iter().map(|&v| v as u128).collect(),
                    })
                    .collect(),
            });
        }
        let eval = |p: &QuasiPoly| {
            p.eval(n).ok_or_else(|| {
                not_analyzable(format!("prediction at N={n} overflows 128-bit arithmetic"))
            })
        };
        let mut capacities = Vec::with_capacity(m.capacities.len());
        for cm in &m.capacities {
            let per_array =
                cm.per_array.iter().map(&eval).collect::<Result<Vec<_>, StaticError>>()?;
            capacities.push(CapacityPrediction {
                capacity: cm.capacity,
                misses: eval(&cm.global)?,
                per_array,
            });
        }
        Ok(Prediction {
            size: n,
            steps: m.spec.steps,
            method: Method::Polynomial,
            class: m.class,
            tolerance: m.tolerance,
            refs: eval(&m.refs)?,
            capacities,
        })
    }
}

/// Runs one probe simulation of `prog` at size `n` and collects every
/// tracked series.
fn probe(
    prog: &Program,
    spec: &SweepSpec,
    engine: ExecEngine,
    fuel: u64,
    layout_for: &LayoutFor<'_>,
    n: i64,
) -> Result<ProbeCounts, StaticError> {
    let binding = ParamBinding::new(vec![n; prog.params.len()]);
    let layout = layout_for(&binding);
    let mut m = Machine::capped(prog, binding, layout, engine)?;
    let mut sink = ProbeSink::new(spec, prog.arrays.len());
    m.run_steps_guarded(&mut sink, spec.steps, fuel)?;
    Ok(sink.counts())
}

/// Fits quasi-polynomials through per-residue probe samples:
/// `samples[r][k]` measured at `n = base + r + k·period`.
fn build_model(spec: &SweepSpec, base: i64, period: i64, samples: &[Vec<ProbeCounts>]) -> Model {
    let arrays = samples[0][0].refs_per_array.len();
    let quasi = |f: &dyn Fn(&ProbeCounts) -> u64| -> QuasiPoly {
        let branches = samples
            .iter()
            .enumerate()
            .map(|(r, branch)| {
                let vals: Vec<u64> = branch.iter().map(f).collect();
                Poly::fit(base + r as i64, period, &vals)
            })
            .collect();
        QuasiPoly { period, branches }
    };
    let refs = quasi(&|c| c.refs);
    let refs_per_array: Vec<QuasiPoly> =
        (0..arrays).map(|a| quasi(&move |c: &ProbeCounts| c.refs_per_array[a])).collect();
    let capacities: Vec<CapacityModel> = spec
        .capacities
        .iter()
        .enumerate()
        .map(|(ci, &cap)| CapacityModel {
            capacity: cap,
            global: quasi(&move |c: &ProbeCounts| c.misses[ci]),
            per_array: (0..arrays)
                .map(|a| quasi(&move |c: &ProbeCounts| c.misses_per_array[ci][a]))
                .collect(),
        })
        .collect();
    let degree = capacities
        .iter()
        .flat_map(|c| c.per_array.iter().chain(std::iter::once(&c.global)))
        .chain(std::iter::once(&refs))
        .map(QuasiPoly::degree)
        .max()
        .unwrap_or(0);
    Model {
        spec: spec.clone(),
        class: Class::Exact, // caller overwrites
        tolerance: 0.0,
        degree,
        period,
        // Public regime floor: every residue branch starts at or below
        // base + period − 1, so any n ≥ base + period evaluates cleanly.
        base: base + period,
        capacities,
        refs,
        refs_per_array,
        probe_sims: 0,
    }
}

/// Maximum relative error of the model against one measured probe.
fn holdout_err(model: &Model, n: i64, actual: &ProbeCounts) -> f64 {
    let rel = |p: &QuasiPoly, a: u64| -> f64 {
        match p.eval(n) {
            Some(v) => {
                let diff = v.abs_diff(a as u128) as f64;
                diff / (a as f64).max(1.0)
            }
            None => 1.0,
        }
    };
    let mut e = rel(&model.refs, actual.refs);
    for (a, p) in model.refs_per_array.iter().enumerate() {
        e = e.max(rel(p, actual.refs_per_array[a]));
    }
    for (ci, cm) in model.capacities.iter().enumerate() {
        e = e.max(rel(&cm.global, actual.misses[ci]));
        for (a, p) in cm.per_array.iter().enumerate() {
            e = e.max(rel(p, actual.misses_per_array[ci][a]));
        }
    }
    e
}

/// Relative-error ceiling beyond which a guarded program is rejected
/// instead of tagged `bounded`.
const BOUNDED_TOLERANCE_CEILING: f64 = 0.25;

fn fit_model(
    prog: &Program,
    spec: &SweepSpec,
    engine: ExecEngine,
    fuel: u64,
    layout_for: &LayoutFor<'_>,
) -> Result<Model, StaticError> {
    let guarded = has_guards(prog);
    let class = if guarded { Class::Bounded } else { Class::Exact };

    if prog.params.is_empty() {
        // No size parameter: every count is a constant; one probe fits it.
        let c = probe(prog, spec, engine, fuel, layout_for, 0)?;
        let mut model = build_model(spec, 8, 1, &[vec![c]]);
        model.class = class;
        model.probe_sims = 1;
        return Ok(model);
    }

    // Residue period of line-granular counts: with 8-byte elements,
    // footprints in lines and array base alignments repeat with period
    // line/8 in N.
    let mut period = (spec.line / 8).max(1) as i64;
    let deg = prog.max_depth();
    // Regime floor: an N-growing reuse distance gains at least one
    // element — 1/(line/8) lines — per unit of N, so every growing
    // distance class has crossed the largest capacity threshold (in
    // lines) by N ≈ period·c_max, plus a safety margin (DESIGN.md §14).
    let cmax_lines = (spec.capacities.last().unwrap() / spec.line) as i64;
    let floor = |period: i64| (period * (cmax_lines + 2 * deg as i64 + 4)).max(8);
    let mut base = floor(period);
    let mut probe_sims = 0u32;
    let mut last: Option<(Model, f64)> = None;

    for attempt in 0..3 {
        let mut samples: Vec<Vec<ProbeCounts>> = Vec::with_capacity(period as usize);
        for r in 0..period {
            let mut branch = Vec::with_capacity(deg + 1);
            for k in 0..=deg as i64 {
                branch.push(probe(prog, spec, engine, fuel, layout_for, base + r + k * period)?);
                probe_sims += 1;
            }
            samples.push(branch);
        }
        let mut model = build_model(spec, base, period, &samples);
        let mut max_rel = 0.0f64;
        for r in 0..period {
            for h in 1..=2i64 {
                let n = base + r + (deg as i64 + h) * period;
                let actual = probe(prog, spec, engine, fuel, layout_for, n)?;
                probe_sims += 1;
                max_rel = max_rel.max(holdout_err(&model, n, &actual));
            }
        }
        model.class = class;
        model.probe_sims = probe_sims;
        if max_rel == 0.0 {
            return Ok(model);
        }
        model.tolerance = max_rel;
        last = Some((model, max_rel));
        // The regime floor was too low (a distance class had not crossed
        // its threshold yet) or the period too short: escalate and refit.
        if attempt == 1 {
            period *= 2;
        }
        base = (base * 2).max(floor(period));
    }

    let (mut model, tol) = last.expect("at least one fit attempt ran");
    if guarded && tol <= BOUNDED_TOLERANCE_CEILING {
        model.probe_sims = probe_sims;
        Ok(model)
    } else {
        Err(not_analyzable(format!(
            "miss counts fail polynomial holdout validation (relative error {tol:.3})"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        gcr_frontend::parse(src).unwrap()
    }

    const STREAM: &str = "program stream\nparam N\narray X[N], Y[N]\n\
                          for i = 1, N { Y[i] = Y[i] + 2.0 * X[i] }\n";

    const LAPLACE: &str = "program laplace\nparam N\narray A[N, N], B[N, N]\n\
        for i = 2, N - 1 { for j = 2, N - 1 {\
            A[j, i] = 0.25 * (B[j-1, i] + B[j+1, i] + B[j, i-1] + B[j, i+1]) } }\n\
        for i = 2, N - 1 { for j = 2, N - 1 { B[j, i] = f(A[j, i]) } }\n";

    fn simulate(prog: &Program, spec: &SweepSpec, n: i64) -> ProbeCounts {
        let layout: LayoutFor<'_> = Box::new(|b| DataLayout::column_major(prog, b, 0));
        probe(prog, spec, ExecEngine::default(), u64::MAX, &layout, n).unwrap()
    }

    #[test]
    fn poly_fit_and_eval_are_exact() {
        // p(n) = 3n² − 2n + 1 sampled at 10, 11, 12.
        let p = |n: i64| (3 * n * n - 2 * n + 1) as u64;
        let poly = Poly::fit(10, 1, &[p(10), p(11), p(12)]);
        assert_eq!(poly.degree(), 2);
        for n in [10, 13, 100, 1_000_000_000] {
            assert_eq!(poly.eval(n), Some(p(n) as u128));
        }
        assert_eq!(poly.render("N"), "3*N^2 - 2*N + 1");
    }

    #[test]
    fn poly_fit_on_strided_samples() {
        // p(n) = n² + 5 sampled at 8, 12, 16 (stride 4).
        let p = |n: i64| (n * n + 5) as u64;
        let poly = Poly::fit(8, 4, &[p(8), p(12), p(16)]);
        assert_eq!(poly.eval(40), Some(p(40) as u128));
        assert_eq!(poly.eval(41), None, "off the progression");
        assert_eq!(poly.render("N"), "N^2 + 5");
    }

    #[test]
    fn poly_renders_rational_coefficients() {
        // p(n) = n(n−1)/2 — integer-valued with non-integer monomials.
        let tri = |n: i64| (n * (n - 1) / 2) as u64;
        let poly = Poly::fit(4, 1, &[tri(4), tri(5), tri(6)]);
        assert_eq!(poly.render("N"), "(N^2 - N)/2");
        assert_eq!(poly.eval(101), Some(tri(101) as u128));
    }

    #[test]
    fn poly_eval_overflow_is_none_not_wrong() {
        let poly = Poly { base: 0, stride: 1, deltas: vec![i128::MAX / 2, i128::MAX / 2] };
        assert_eq!(poly.eval(1_000_000), None);
        assert!(poly.eval_f64(1_000_000) > 0.0);
    }

    #[test]
    fn stream_kernel_matches_simulation_everywhere() {
        let prog = parse(STREAM);
        let spec = SweepSpec::new(32, vec![256, 1024], 1);
        let an = Analyzer::analyze(&prog, spec.clone()).unwrap();
        assert_eq!(an.model().class, Class::Exact);
        assert_eq!(an.model().tolerance, 0.0);
        for n in [3, 17, 64, 257, 999, 1000, 1001, 1002] {
            let pred = an.predict(n).unwrap();
            let sim = simulate(&prog, &spec, n);
            assert_eq!(pred.refs, sim.refs as u128, "refs at N={n}");
            for (ci, cp) in pred.capacities.iter().enumerate() {
                assert_eq!(
                    cp.misses, sim.misses[ci] as u128,
                    "misses at N={n} cap={}",
                    cp.capacity
                );
                let per: Vec<u128> = sim.misses_per_array[ci].iter().map(|&v| v as u128).collect();
                assert_eq!(cp.per_array, per, "per-array at N={n}");
            }
        }
    }

    #[test]
    fn laplace_matches_simulation_at_independent_sizes() {
        let prog = parse(LAPLACE);
        let spec = SweepSpec::new(32, vec![256, 1024], 2);
        let an = Analyzer::analyze(&prog, spec.clone()).unwrap();
        assert_eq!(an.model().class, Class::Exact);
        let base = an.model().base;
        for n in [base + 31, base + 32, base + 33, 2 * base + 5] {
            let pred = an.predict(n).unwrap();
            assert_eq!(pred.method, Method::Polynomial);
            let sim = simulate(&prog, &spec, n);
            assert_eq!(pred.refs, sim.refs as u128, "refs at N={n}");
            for (ci, cp) in pred.capacities.iter().enumerate() {
                assert_eq!(cp.misses, sim.misses[ci] as u128, "N={n} cap={}", cp.capacity);
            }
        }
    }

    #[test]
    fn per_array_counts_sum_to_global() {
        let prog = parse(LAPLACE);
        let spec = SweepSpec::new(32, vec![256, 1024], 1);
        let an = Analyzer::analyze(&prog, spec).unwrap();
        let pred = an.predict(1_000_000).unwrap();
        for cp in &pred.capacities {
            assert_eq!(cp.per_array.iter().sum::<u128>(), cp.misses);
        }
        let refs: u128 = an.model().refs_per_array.iter().map(|p| p.eval(1_000_000).unwrap()).sum();
        assert_eq!(refs, pred.refs);
    }

    #[test]
    fn small_sizes_use_direct_simulation() {
        let prog = parse(LAPLACE);
        let spec = SweepSpec::new(32, vec![1024], 1);
        let an = Analyzer::analyze(&prog, spec.clone()).unwrap();
        let n = 5;
        assert!(n < an.model().base);
        let pred = an.predict(n).unwrap();
        assert_eq!(pred.method, Method::Direct);
        let sim = simulate(&prog, &spec, n);
        assert_eq!(pred.refs, sim.refs as u128);
        assert_eq!(pred.capacities[0].misses, sim.misses[0] as u128);
    }

    #[test]
    fn multivariate_programs_are_rejected() {
        let prog =
            parse("program mv\nparam N\nparam M\narray A[N]\nfor i = 1, N { A[i] = f(A[i]) }\n");
        let r = Analyzer::analyze(&prog, SweepSpec::standard()).map(|a| a.model().degree);
        match r {
            Err(StaticError::NotAnalyzable { reason }) => {
                assert!(reason.contains("parameters"), "{reason}");
            }
            other => panic!("expected NotAnalyzable, got {other:?}"),
        }
    }

    #[test]
    fn nonpositive_sizes_are_usage_errors() {
        let prog = parse(STREAM);
        let an = Analyzer::analyze(&prog, SweepSpec::new(32, vec![256], 1)).unwrap();
        assert!(matches!(an.predict(0), Err(StaticError::Gcr(GcrError::Usage(_)))));
    }

    #[test]
    fn fuel_exhaustion_surfaces_budget_error() {
        let prog = parse(STREAM);
        let layout = |b: &ParamBinding| DataLayout::column_major(&prog, b, 0);
        let r = Analyzer::analyze_with(
            &prog,
            SweepSpec::new(32, vec![256], 1),
            ExecEngine::default(),
            3,
            layout,
        );
        assert!(matches!(r, Err(StaticError::Gcr(GcrError::BudgetExceeded { .. }))));
    }

    #[test]
    fn zero_param_programs_are_constant() {
        let prog = parse("program fixed\narray A[16]\nfor i = 1, 16 { A[i] = f(A[i]) }\n");
        let spec = SweepSpec::new(32, vec![64], 1);
        let an = Analyzer::analyze(&prog, spec).unwrap();
        assert_eq!(an.model().degree, 0);
        let a = an.predict(10).unwrap();
        let b = an.predict(1_000_000_000).unwrap();
        assert_eq!(a.refs, b.refs);
        assert_eq!(a.capacities[0].misses, b.capacities[0].misses);
    }

    #[test]
    fn guard_detection_drives_class() {
        assert!(!has_guards(&parse(STREAM)));
        // Fusing the chain introduces guarded members.
        let chain = parse(
            "program chain\nparam N\narray A[N], B[N]\n\
             for i = 1, N { A[i] = f(A[i]) }\n\
             for j = 2, N - 1 { B[j] = A[j-1] + A[j+1] }\n",
        );
        let fused = gcr_core::optimize_checked(
            &chain,
            &gcr_core::OptimizeOptions::default(),
            &gcr_core::checked::SafetyOptions::default(),
        )
        .unwrap();
        if has_guards(&fused.program) {
            let an = Analyzer::analyze(&fused.program, SweepSpec::new(32, vec![256], 1)).unwrap();
            assert_eq!(an.model().class, Class::Bounded);
        }
    }
}
