//! Self-describing experiment reports: machine-readable JSON plus
//! human-readable text/Markdown renderings of one optimized-and-measured
//! run.
//!
//! A [`Report`] bundles everything the observability layer produces for
//! one program × strategy pair:
//!
//! * the per-pass [`gcr_core::trace::PassEvent`] stream (what ran, how
//!   long, IR deltas),
//! * the fallback rungs of the [`gcr_core::RobustnessReport`] (what the
//!   fail-safe pipeline gave up, and why),
//! * an optional reuse-distance [`gcr_reuse::ReuseProfile`] (full
//!   histograms per array and per phase, not just hit ratios),
//! * an optional cache [`SimSection`] (total and per-phase miss counters
//!   plus modeled cycles).
//!
//! `gcrc --report <path>` writes one `Report`; the experiment binaries
//! (`fig10`, `table6`, `sp_stats`, `fig3`) write a [`ReportSet`] — the
//! same per-run schema wrapped in a list — into `results/*.json`. The
//! workspace has no serde (offline build), so serialization is a small
//! hand-rolled [`Json`] tree; the schema is versioned by [`SCHEMA`] and
//! golden-tested in `crates/cli/tests/report_schema.rs`. EXPERIMENTS.md
//! documents every field.

use gcr_cache::MissCounts;
use gcr_core::trace::PassEvent;
use gcr_core::{OptimizedProgram, RobustnessReport};
use gcr_ir::Program;
use gcr_reuse::{Histogram, ReuseProfile};
use std::fmt::Write as _;

/// Schema tag of a single report.
pub const SCHEMA: &str = "gcr-report/v1";
/// Schema tag of a report set (the `results/*.json` artifacts).
pub const SET_SCHEMA: &str = "gcr-report-set/v1";

// ---------------------------------------------------------------------------
// Minimal JSON tree (the workspace builds offline, without serde)
// ---------------------------------------------------------------------------

/// A JSON value. Object keys keep insertion order so output is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (counters).
    U(u64),
    /// Signed integer (sizes).
    I(i64),
    /// Finite float (cycles, rates).
    F(f64),
    /// String.
    S(String),
    /// Array.
    A(Vec<Json>),
    /// Object with ordered keys.
    O(Vec<(&'static str, Json)>),
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// Optional string.
    pub fn opt_str(s: &Option<String>) -> Json {
        match s {
            Some(s) => Json::S(s.clone()),
            None => Json::Null,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F(x) => {
                if x.is_finite() {
                    // Shortest round-trippable form; integral floats keep a
                    // ".0" so consumers see a float consistently.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::S(s) => esc(s, out),
            Json::A(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                    item.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::O(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                    esc(k, out);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
        }
    }

    /// Parses JSON text back into a tree — the inverse of [`Json::render`].
    ///
    /// Integers without a sign come back as `U`, negative integers as `I`,
    /// anything with a fraction or exponent as `F`. Object keys are leaked
    /// to `&'static str` to fit the literal-keyed `O` variant: this is for
    /// re-reading the small report files this module writes (so a tool can
    /// merge a section into an existing report), not for arbitrary or
    /// adversarial input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut i = 0usize;
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::O(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect_lit(b: &[u8], i: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at byte {i}", i = *i))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*i], b'"');
    *i += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*i) else { return Err("unterminated string".into()) };
        *i += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*i) else { return Err("unterminated escape".into()) };
                *i += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*i..*i + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        *i += 4;
                        // Surrogate pairs are not produced by `render` (it
                        // only \u-escapes control characters); map lone
                        // surrogates to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape `\\{}`", e as char)),
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence starting at c.
                let start = *i - 1;
                let len = match c {
                    _ if c < 0x80 => 1,
                    _ if c >= 0xf0 => 4,
                    _ if c >= 0xe0 => 3,
                    _ => 2,
                };
                let s = b
                    .get(start..start + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("bad UTF-8 in string")?;
                out.push_str(s);
                *i = start + len;
            }
        }
    }
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *i += 1;
    }
    let s = std::str::from_utf8(&b[start..*i]).map_err(|_| "bad number")?;
    if s.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !s.contains(['.', 'e', 'E']) {
        if let Ok(u) = s.parse::<u64>() {
            return Ok(Json::U(u));
        }
        if let Ok(n) = s.parse::<i64>() {
            return Ok(Json::I(n));
        }
    }
    s.parse::<f64>().map(Json::F).map_err(|_| format!("bad number `{s}`"))
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    let Some(&c) = b.get(*i) else { return Err("unexpected end of input".into()) };
    match c {
        b'n' => expect_lit(b, i, "null", Json::Null),
        b't' => expect_lit(b, i, "true", Json::Bool(true)),
        b'f' => expect_lit(b, i, "false", Json::Bool(false)),
        b'"' => parse_string(b, i).map(Json::S),
        b'[' => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::A(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::A(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {i}", i = *i)),
                }
            }
        }
        b'{' => {
            *i += 1;
            let mut fields: Vec<(&'static str, Json)> = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::O(fields));
            }
            loop {
                skip_ws(b, i);
                if b.get(*i) != Some(&b'"') {
                    return Err(format!("expected a key at byte {i}", i = *i));
                }
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected `:` at byte {i}", i = *i));
                }
                *i += 1;
                let value = parse_value(b, i)?;
                fields.push((Box::leak(key.into_boxed_str()), value));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::O(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {i}", i = *i)),
                }
            }
        }
        _ => parse_number(b, i),
    }
}

// ---------------------------------------------------------------------------
// Report sections
// ---------------------------------------------------------------------------

/// Static shape of the program a report describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramInfo {
    /// Program name.
    pub name: String,
    /// Total loops.
    pub loops: usize,
    /// Top-level nests.
    pub nests: usize,
    /// Assignment statements.
    pub stmts: usize,
    /// Declared arrays (including scalars).
    pub arrays: usize,
}

impl ProgramInfo {
    /// Measures a program.
    pub fn of(prog: &Program) -> ProgramInfo {
        ProgramInfo {
            name: prog.name.clone(),
            loops: prog.count_loops(),
            nests: prog.count_nests(),
            stmts: prog.count_assigns(),
            arrays: prog.arrays.len(),
        }
    }
}

/// One degradation rung, stringified from [`gcr_core::Fallback`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FallbackInfo {
    /// Pass that failed.
    pub pass: String,
    /// Strategy before the rung.
    pub from: String,
    /// Strategy after the rung.
    pub to: String,
    /// Rejection cause.
    pub cause: String,
}

/// Reuse-distance profile section: one measured execution of the delivered
/// program.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileSection {
    /// Size parameter bound to every program parameter.
    pub size: i64,
    /// Time steps executed.
    pub steps: usize,
    /// The measured profile.
    pub profile: ReuseProfile,
}

impl ProfileSection {
    /// Human-readable rendering (the `gcrc --profile` output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "reuse profile at N={} x{} ({}-byte granularity, {} distinct):",
            self.size,
            self.steps,
            self.profile.granularity,
            self.profile.distinct()
        );
        let _ = writeln!(out, "  {:<24} {}", "(all accesses)", hist_line(&self.profile.global));
        for (name, h) in &self.profile.per_array {
            if h.reuses + h.cold > 0 {
                let _ = writeln!(out, "  array {name:<18} {}", hist_line(h));
            }
        }
        for (label, h) in &self.profile.per_phase {
            if h.reuses + h.cold > 0 {
                let _ = writeln!(out, "  phase {label:<18} {}", hist_line(h));
            }
        }
        out
    }
}

/// One capacity row of a static-prediction section.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictionEntry {
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Predicted total misses (cold + capacity) at this capacity.
    pub misses: u128,
    /// Closed form of the miss model in `N` (branch for the predicted
    /// size when the model is quasi-polynomial).
    pub model: String,
    /// Predicted misses per array: `(array name, misses)`.
    pub per_array: Vec<(String, u128)>,
}

/// Static-prediction section: an analytical sweep evaluation from
/// `gcr-static`'s symbolic reuse model — no trace simulation at the
/// predicted size. Counts are `u128` (a 10⁹-size sweep overflows `u64`
/// miss products); JSON emits them as integers when they fit `u64` and
/// as floats beyond that.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictionSection {
    /// Size parameter the sweep was evaluated at.
    pub size: i64,
    /// Time steps the model covers.
    pub steps: usize,
    /// Cache line size in bytes.
    pub line: u64,
    /// `"polynomial"` (regime evaluation) or `"direct"` (sub-regime
    /// probe simulation).
    pub method: String,
    /// Construct class: `"exact"` or `"bounded"`.
    pub class: String,
    /// Documented relative-error bound (0 for exact).
    pub tolerance: f64,
    /// Fitted polynomial degree.
    pub degree: usize,
    /// Residue period of the quasi-polynomial model.
    pub period: i64,
    /// Regime floor: sizes below this were simulated directly.
    pub regime_base: i64,
    /// Probe simulations spent building the model.
    pub probe_sims: u32,
    /// Predicted total traced references.
    pub refs: u128,
    /// Per-capacity predictions, ascending.
    pub capacities: Vec<PredictionEntry>,
}

impl PredictionSection {
    /// Human-readable rendering (the `gcrc --static` output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "prediction at N={} x{} ({} class, {} method, degree {}, {} probes):",
            self.size, self.steps, self.class, self.method, self.degree, self.probe_sims
        );
        let _ = writeln!(out, "  {} refs", self.refs);
        for e in &self.capacities {
            let _ = writeln!(
                out,
                "  capacity {:>8} B: {:>14} misses   misses(N) = {}",
                e.capacity, e.misses, e.model
            );
        }
        out
    }
}

/// Cache-simulation section: totals plus the per-phase breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSection {
    /// Size parameter.
    pub size: i64,
    /// Time steps executed.
    pub steps: usize,
    /// Modeled cycles ([`gcr_cache::CostModel`]).
    pub cycles: f64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Total miss counters.
    pub total: MissCounts,
    /// Per-phase miss counters (label, counts).
    pub phases: Vec<(String, MissCounts)>,
}

/// Realistic-hierarchy section: a `--hierarchy` descriptor measured by
/// [`gcr_cache::measure_hierarchy`] — per-level demand counters plus
/// fully-associative and 4-way set-associative sweep bins, all from one
/// trace pass.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchySection {
    /// Size parameter.
    pub size: i64,
    /// Time steps executed.
    pub steps: usize,
    /// The measured hierarchy.
    pub run: gcr_cache::HierarchyRun,
}

impl HierarchySection {
    /// Plain-text rendering (the `gcrc --hierarchy` console format).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let r = &self.run;
        let _ = writeln!(
            out,
            "hierarchy {} at N={} x{}: {} refs",
            r.spec, self.size, self.steps, r.counts.refs
        );
        for (k, (cfg, c)) in r.configs.iter().zip(&r.counts.levels).enumerate() {
            let _ = writeln!(
                out,
                "  L{} {}B/{}B/{}-way: {} hits, {} misses, {} writebacks",
                k + 1,
                cfg.size,
                cfg.line,
                cfg.assoc,
                c.hits,
                c.misses,
                c.writebacks
            );
        }
        let _ = writeln!(
            out,
            "  memory: {} fills, {} writebacks, {} prefetches, traffic {} B",
            r.counts.memory_fills,
            r.counts.memory_writebacks,
            r.counts.prefetches,
            r.counts.memory_traffic
        );
        let _ = writeln!(out, "  sweep (line {}B): capacity fa-misses 4way-misses", r.line);
        for b in &r.sweep {
            let _ =
                writeln!(out, "  {:>10} {:>10} {:>10}", b.capacity, b.fa_misses, b.assoc_misses);
        }
        out
    }
}

/// One optimized-and-measured run, renderable as JSON, text or Markdown.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Tool that produced the report (`gcrc`, `fig10`, …).
    pub generator: String,
    /// Shape of the *input* program.
    pub program: ProgramInfo,
    /// Shape of the transformed program.
    pub output: ProgramInfo,
    /// Strategy requested.
    pub requested: String,
    /// Strategy actually delivered (differs after fallbacks).
    pub delivered: String,
    /// Checkpoints executed by the fail-safe pipeline.
    pub checks: usize,
    /// Why the semantic oracle was disabled, if it was.
    pub oracle_disabled: Option<String>,
    /// Per-pass trace events (empty when tracing was disabled).
    pub trace: Vec<PassEvent>,
    /// Degradation rungs taken.
    pub fallbacks: Vec<FallbackInfo>,
    /// Reuse-distance profile, when measured.
    pub profile: Option<ProfileSection>,
    /// Cache simulation, when measured.
    pub simulation: Option<SimSection>,
    /// Realistic hierarchy measurement, when requested (`--hierarchy`).
    pub hierarchy: Option<HierarchySection>,
    /// Static sweep prediction, when computed.
    pub prediction: Option<PredictionSection>,
}

fn fallbacks_of(rob: &RobustnessReport) -> Vec<FallbackInfo> {
    rob.fallbacks
        .iter()
        .map(|f| FallbackInfo {
            pass: f.pass.to_string(),
            from: f.from.clone(),
            to: f.to.clone(),
            cause: f.cause.to_string(),
        })
        .collect()
}

impl Report {
    /// Builds a report skeleton from an optimization result; profile and
    /// simulation sections start empty.
    pub fn new(
        generator: impl Into<String>,
        input: &Program,
        requested: impl Into<String>,
        opt: &OptimizedProgram,
        trace: Vec<PassEvent>,
    ) -> Report {
        Report {
            generator: generator.into(),
            program: ProgramInfo::of(input),
            output: ProgramInfo::of(&opt.program),
            requested: requested.into(),
            delivered: opt.robustness.strategy.clone(),
            checks: opt.robustness.checks,
            oracle_disabled: opt.robustness.oracle_disabled.as_ref().map(|e| e.to_string()),
            trace,
            fallbacks: fallbacks_of(&opt.robustness),
            profile: None,
            simulation: None,
            hierarchy: None,
            prediction: None,
        }
    }

    /// Zeroes wall-clock fields so two runs of the same input serialize
    /// identically (golden tests, run diffing).
    pub fn normalized(mut self) -> Report {
        for ev in &mut self.trace {
            ev.wall_ns = 0;
        }
        self
    }

    /// The JSON tree (see EXPERIMENTS.md for the field-by-field schema).
    pub fn to_json_value(&self) -> Json {
        Json::O(vec![
            ("schema", Json::S(SCHEMA.into())),
            ("generator", Json::S(self.generator.clone())),
            ("program", program_json(&self.program)),
            ("output", program_json(&self.output)),
            (
                "strategy",
                Json::O(vec![
                    ("requested", Json::S(self.requested.clone())),
                    ("delivered", Json::S(self.delivered.clone())),
                    ("degraded", Json::Bool(!self.fallbacks.is_empty())),
                    ("checks", Json::U(self.checks as u64)),
                    ("oracle_disabled", Json::opt_str(&self.oracle_disabled)),
                ]),
            ),
            ("trace", Json::A(self.trace.iter().map(pass_json).collect())),
            (
                "fallbacks",
                Json::A(
                    self.fallbacks
                        .iter()
                        .map(|f| {
                            Json::O(vec![
                                ("pass", Json::S(f.pass.clone())),
                                ("from", Json::S(f.from.clone())),
                                ("to", Json::S(f.to.clone())),
                                ("cause", Json::S(f.cause.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("profile", self.profile.as_ref().map_or(Json::Null, profile_json)),
            ("simulation", self.simulation.as_ref().map_or(Json::Null, sim_json)),
            ("hierarchy", self.hierarchy.as_ref().map_or(Json::Null, hierarchy_json)),
            ("prediction", self.prediction.as_ref().map_or(Json::Null, prediction_json)),
        ])
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Human-readable plain text (the `gcrc --trace`/`--profile` format).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "report: {} | {} | {} -> {}{}",
            self.generator,
            self.program.name,
            self.requested,
            self.delivered,
            if self.fallbacks.is_empty() { "" } else { " (degraded)" },
        );
        if !self.trace.is_empty() {
            let _ = writeln!(out, "pass trace ({} checkpoints):", self.checks);
            for ev in &self.trace {
                let _ = writeln!(out, "  {}", ev.describe());
            }
        }
        for f in &self.fallbacks {
            let _ = writeln!(out, "fallback: {} {} -> {} ({})", f.pass, f.from, f.to, f.cause);
        }
        if let Some(p) = &self.profile {
            out.push_str(&p.to_text());
        }
        if let Some(s) = &self.simulation {
            let _ = writeln!(
                out,
                "simulation at N={} x{}: {:.3e} cycles, {}",
                s.size,
                s.steps,
                s.cycles,
                miss_line(&s.total)
            );
            for (label, c) in &s.phases {
                if c.refs > 0 {
                    let _ = writeln!(out, "  phase {label:<18} {}", miss_line(c));
                }
            }
        }
        if let Some(h) = &self.hierarchy {
            out.push_str(&h.to_text());
        }
        if let Some(p) = &self.prediction {
            out.push_str(&p.to_text());
        }
        out
    }

    /// Human-readable Markdown (tables per section).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — `{}`\n", self.program.name, self.generator);
        let _ = writeln!(
            out,
            "strategy `{}` → delivered `{}`; {} checkpoints{}\n",
            self.requested,
            self.delivered,
            self.checks,
            self.oracle_disabled
                .as_ref()
                .map(|c| format!("; oracle disabled: {c}"))
                .unwrap_or_default()
        );
        if !self.trace.is_empty() {
            let _ = writeln!(out, "| pass | ok | ms | loops | stmts | arrays | detail |");
            let _ = writeln!(out, "|------|----|----|-------|-------|--------|--------|");
            for ev in &self.trace {
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.3} | {}→{} | {}→{} | {}→{} | {} |",
                    ev.pass,
                    if ev.ok { "✓" } else { "✗" },
                    ev.wall_ns as f64 / 1e6,
                    ev.before.loops,
                    ev.after.loops,
                    ev.before.stmts,
                    ev.after.stmts,
                    ev.before.arrays,
                    ev.after.arrays,
                    ev.detail,
                );
            }
            let _ = writeln!(out);
        }
        for f in &self.fallbacks {
            let _ =
                writeln!(out, "- **fallback** {}: {} → {} ({})\n", f.pass, f.from, f.to, f.cause);
        }
        if let Some(p) = &self.profile {
            let _ = writeln!(
                out,
                "### Reuse profile (N={}, {} distinct)\n",
                p.size,
                p.profile.distinct()
            );
            let _ = writeln!(out, "| scope | reuses | cold | histogram (log₂ bin: count) |");
            let _ = writeln!(out, "|-------|--------|------|------------------------------|");
            let _ = writeln!(
                out,
                "| all | {} | {} | {} |",
                p.profile.global.reuses,
                p.profile.global.cold,
                hist_points(&p.profile.global)
            );
            for (name, h) in &p.profile.per_array {
                if h.reuses + h.cold > 0 {
                    let _ = writeln!(
                        out,
                        "| array `{name}` | {} | {} | {} |",
                        h.reuses,
                        h.cold,
                        hist_points(h)
                    );
                }
            }
            for (label, h) in &p.profile.per_phase {
                if h.reuses + h.cold > 0 {
                    let _ = writeln!(
                        out,
                        "| phase `{label}` | {} | {} | {} |",
                        h.reuses,
                        h.cold,
                        hist_points(h)
                    );
                }
            }
            let _ = writeln!(out);
        }
        if let Some(s) = &self.simulation {
            let _ = writeln!(out, "### Simulation (N={}, {} steps)\n", s.size, s.steps);
            let _ = writeln!(out, "| scope | refs | L1 | L2 | TLB | traffic B |");
            let _ = writeln!(out, "|-------|------|----|----|-----|-----------|");
            let row = |out: &mut String, label: &str, c: &MissCounts| {
                let _ = writeln!(
                    out,
                    "| {label} | {} | {} | {} | {} | {} |",
                    c.refs, c.l1, c.l2, c.tlb, c.memory_traffic
                );
            };
            row(&mut out, "total", &s.total);
            for (label, c) in &s.phases {
                if c.refs > 0 {
                    row(&mut out, &format!("phase `{label}`"), c);
                }
            }
        }
        if let Some(h) = &self.hierarchy {
            let r = &h.run;
            let _ = writeln!(out, "### Hierarchy `{}` (N={}, {} steps)\n", r.spec, h.size, h.steps);
            let _ =
                writeln!(out, "| level | size B | line B | ways | hits | misses | writebacks |");
            let _ =
                writeln!(out, "|-------|--------|--------|------|------|--------|------------|");
            for (k, (cfg, c)) in r.configs.iter().zip(&r.counts.levels).enumerate() {
                let _ = writeln!(
                    out,
                    "| L{} | {} | {} | {} | {} | {} | {} |",
                    k + 1,
                    cfg.size,
                    cfg.line,
                    cfg.assoc,
                    c.hits,
                    c.misses,
                    c.writebacks
                );
            }
            let _ = writeln!(
                out,
                "\n{} refs; memory: {} fills, {} writebacks, {} prefetches, {} B traffic\n",
                r.counts.refs,
                r.counts.memory_fills,
                r.counts.memory_writebacks,
                r.counts.prefetches,
                r.counts.memory_traffic
            );
            let _ = writeln!(out, "| capacity B | FA misses | 4-way misses |");
            let _ = writeln!(out, "|------------|-----------|--------------|");
            for b in &r.sweep {
                let _ = writeln!(out, "| {} | {} | {} |", b.capacity, b.fa_misses, b.assoc_misses);
            }
            let _ = writeln!(out);
        }
        if let Some(p) = &self.prediction {
            let _ = writeln!(
                out,
                "### Static prediction (N={}, {} steps, {} class, {} method)\n",
                p.size, p.steps, p.class, p.method
            );
            let _ = writeln!(out, "| capacity B | misses | misses(N) |");
            let _ = writeln!(out, "|------------|--------|-----------|");
            for e in &p.capacities {
                let _ = writeln!(out, "| {} | {} | `{}` |", e.capacity, e.misses, e.model);
            }
        }
        out
    }
}

fn hist_line(h: &Histogram) -> String {
    format!("{:>9} reuses {:>7} cold  {}", h.reuses, h.cold, hist_points(h))
}

fn hist_points(h: &Histogram) -> String {
    let pts: Vec<String> = h.points().iter().map(|(b, c)| format!("2^{b}:{c}")).collect();
    if pts.is_empty() {
        "-".into()
    } else {
        pts.join(" ")
    }
}

fn miss_line(c: &MissCounts) -> String {
    format!(
        "{} refs, L1 {} ({:.2}%), L2 {}, TLB {}, traffic {} KB",
        c.refs,
        c.l1,
        100.0 * c.l1_rate(),
        c.l2,
        c.tlb,
        c.memory_traffic / 1024
    )
}

fn program_json(p: &ProgramInfo) -> Json {
    Json::O(vec![
        ("name", Json::S(p.name.clone())),
        ("loops", Json::U(p.loops as u64)),
        ("nests", Json::U(p.nests as u64)),
        ("stmts", Json::U(p.stmts as u64)),
        ("arrays", Json::U(p.arrays as u64)),
    ])
}

fn pass_json(ev: &PassEvent) -> Json {
    let size = |s: &gcr_core::trace::IrSize| {
        Json::O(vec![
            ("loops", Json::U(s.loops as u64)),
            ("nests", Json::U(s.nests as u64)),
            ("stmts", Json::U(s.stmts as u64)),
            ("arrays", Json::U(s.arrays as u64)),
        ])
    };
    Json::O(vec![
        ("pass", Json::S(ev.pass.clone())),
        ("ok", Json::Bool(ev.ok)),
        ("wall_ns", Json::U(ev.wall_ns)),
        ("before", size(&ev.before)),
        ("after", size(&ev.after)),
        ("detail", Json::S(ev.detail.clone())),
    ])
}

fn hist_json(h: &Histogram) -> Json {
    Json::O(vec![
        ("bins", Json::A(h.bins.iter().map(|&c| Json::U(c)).collect())),
        ("cold", Json::U(h.cold)),
        ("reuses", Json::U(h.reuses)),
    ])
}

fn profile_json(p: &ProfileSection) -> Json {
    Json::O(vec![
        ("size", Json::I(p.size)),
        ("steps", Json::U(p.steps as u64)),
        ("granularity_bytes", Json::U(p.profile.granularity)),
        ("distinct", Json::U(p.profile.distinct())),
        ("global", hist_json(&p.profile.global)),
        (
            "per_array",
            Json::A(
                p.profile
                    .per_array
                    .iter()
                    .map(|(name, h)| {
                        Json::O(vec![("name", Json::S(name.clone())), ("histogram", hist_json(h))])
                    })
                    .collect(),
            ),
        ),
        (
            "per_phase",
            Json::A(
                p.profile
                    .per_phase
                    .iter()
                    .map(|(label, h)| {
                        Json::O(vec![
                            ("label", Json::S(label.clone())),
                            ("histogram", hist_json(h)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn miss_json(c: &MissCounts) -> Json {
    Json::O(vec![
        ("refs", Json::U(c.refs)),
        ("l1", Json::U(c.l1)),
        ("l2", Json::U(c.l2)),
        ("tlb", Json::U(c.tlb)),
        ("memory_traffic_bytes", Json::U(c.memory_traffic)),
    ])
}

fn sim_json(s: &SimSection) -> Json {
    Json::O(vec![
        ("size", Json::I(s.size)),
        ("steps", Json::U(s.steps as u64)),
        ("cycles", Json::F(s.cycles)),
        ("flops", Json::U(s.flops)),
        ("total", miss_json(&s.total)),
        (
            "per_phase",
            Json::A(
                s.phases
                    .iter()
                    .map(|(label, c)| {
                        Json::O(vec![("label", Json::S(label.clone())), ("misses", miss_json(c))])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `u128` counts serialize as exact integers while they fit `u64` and as
/// floats beyond that (documented in EXPERIMENTS.md §7).
fn big_json(v: u128) -> Json {
    match u64::try_from(v) {
        Ok(u) => Json::U(u),
        Err(_) => Json::F(v as f64),
    }
}

fn hierarchy_json(h: &HierarchySection) -> Json {
    let r = &h.run;
    Json::O(vec![
        ("size", Json::I(h.size)),
        ("steps", Json::U(h.steps as u64)),
        ("spec", Json::S(r.spec.clone())),
        ("line_bytes", Json::U(r.line)),
        ("refs", Json::U(r.counts.refs)),
        (
            "levels",
            Json::A(
                r.configs
                    .iter()
                    .zip(&r.counts.levels)
                    .map(|(cfg, c)| {
                        Json::O(vec![
                            ("size", Json::U(cfg.size as u64)),
                            ("line", Json::U(cfg.line as u64)),
                            ("assoc", Json::U(cfg.assoc as u64)),
                            ("hits", Json::U(c.hits)),
                            ("misses", Json::U(c.misses)),
                            ("writebacks", Json::U(c.writebacks)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("prefetches", Json::U(r.counts.prefetches)),
        ("memory_fills", Json::U(r.counts.memory_fills)),
        ("memory_writebacks", Json::U(r.counts.memory_writebacks)),
        ("memory_traffic", Json::U(r.counts.memory_traffic)),
        (
            "sweep",
            Json::A(
                r.sweep
                    .iter()
                    .map(|b| {
                        Json::O(vec![
                            ("capacity", Json::U(b.capacity)),
                            ("fa_misses", Json::U(b.fa_misses)),
                            ("assoc_misses", Json::U(b.assoc_misses)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn prediction_json(p: &PredictionSection) -> Json {
    Json::O(vec![
        ("size", Json::I(p.size)),
        ("steps", Json::U(p.steps as u64)),
        ("line_bytes", Json::U(p.line)),
        ("method", Json::S(p.method.clone())),
        ("class", Json::S(p.class.clone())),
        ("tolerance", Json::F(p.tolerance)),
        ("degree", Json::U(p.degree as u64)),
        ("period", Json::I(p.period)),
        ("regime_base", Json::I(p.regime_base)),
        ("probe_sims", Json::U(p.probe_sims as u64)),
        ("refs", big_json(p.refs)),
        (
            "capacities",
            Json::A(
                p.capacities
                    .iter()
                    .map(|e| {
                        Json::O(vec![
                            ("capacity_bytes", Json::U(e.capacity)),
                            ("misses", big_json(e.misses)),
                            ("model", Json::S(e.model.clone())),
                            (
                                "per_array",
                                Json::A(
                                    e.per_array
                                        .iter()
                                        .map(|(name, m)| {
                                            Json::O(vec![
                                                ("name", Json::S(name.clone())),
                                                ("misses", big_json(*m)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Wall-clock accounting of the sweep that produced a [`ReportSet`]: how
/// many worker threads ran it, how long it took, and how often the
/// content-keyed measurement cache short-circuited a run. Timing is
/// machine-dependent by nature, so the section is *optional* and stripped
/// by [`ReportSet::normalized`] — two sweeps of the same inputs compare
/// byte-identical modulo this section.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SweepTiming {
    /// Worker threads used (1 = serial).
    pub threads: usize,
    /// Wall-clock nanoseconds for the whole sweep.
    pub wall_ns: u64,
    /// Measurements answered from the content-keyed cache.
    pub memo_hits: u64,
    /// Measurements actually executed.
    pub memo_misses: u64,
    /// Cache entries evicted by the LRU capacity bound during the sweep.
    pub memo_evictions: u64,
    /// Corrupt disk-cache entries detected (and transparently recomputed)
    /// when the sweep's persistent cache was loaded.
    pub memo_corrupt: u64,
}

impl SweepTiming {
    fn to_json_value(&self) -> Json {
        Json::O(vec![
            ("threads", Json::U(self.threads as u64)),
            ("wall_ns", Json::U(self.wall_ns)),
            ("memo_hits", Json::U(self.memo_hits)),
            ("memo_misses", Json::U(self.memo_misses)),
            ("memo_evictions", Json::U(self.memo_evictions)),
            ("memo_corrupt", Json::U(self.memo_corrupt)),
        ])
    }
}

/// A list of [`Report`]s sharing one generator — the shape of every
/// `results/*.json` artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportSet {
    /// Tool that produced the set.
    pub generator: String,
    /// One-line description of the artifact (which figure/table).
    pub title: String,
    /// The runs.
    pub reports: Vec<Report>,
    /// Sweep wall-clock accounting; the key is absent from the JSON when
    /// unset, so pre-timing artifacts keep their exact bytes.
    pub timing: Option<SweepTiming>,
}

impl ReportSet {
    /// An empty set.
    pub fn new(generator: impl Into<String>, title: impl Into<String>) -> ReportSet {
        ReportSet {
            generator: generator.into(),
            title: title.into(),
            reports: Vec::new(),
            timing: None,
        }
    }

    /// Strips every machine-dependent field — per-pass wall clocks and the
    /// `timing` section — so two sweeps of the same inputs serialize
    /// identically (golden tests, serial-vs-parallel diffing).
    pub fn normalized(mut self) -> ReportSet {
        self.timing = None;
        self.reports = self.reports.into_iter().map(Report::normalized).collect();
        self
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema", Json::S(SET_SCHEMA.into())),
            ("generator", Json::S(self.generator.clone())),
            ("title", Json::S(self.title.clone())),
        ];
        if let Some(t) = &self.timing {
            fields.push(("timing", t.to_json_value()));
        }
        fields.push(("reports", Json::A(self.reports.iter().map(|r| r.to_json_value()).collect())));
        Json::O(fields).render()
    }

    /// Writes the JSON artifact, creating parent directories as needed.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shapes() {
        let v = Json::O(vec![
            ("s", Json::S("a\"b\\c\nd".into())),
            ("e", Json::A(vec![])),
            ("o", Json::O(vec![])),
            ("nan", Json::F(f64::NAN)),
            ("f", Json::F(2.0)),
        ]);
        let s = v.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""), "{s}");
        assert!(s.contains("\"e\": []"), "{s}");
        assert!(s.contains("\"o\": {}"), "{s}");
        assert!(s.contains("\"nan\": null"), "{s}");
        assert!(s.contains("\"f\": 2.0"), "{s}");
    }

    #[test]
    fn json_parse_round_trips() {
        let v = Json::O(vec![
            ("s", Json::S("a\"b\\c\nd — π".into())),
            ("u", Json::U(u64::MAX)),
            ("i", Json::I(-7)),
            ("f", Json::F(2.5)),
            ("fi", Json::F(2.0)),
            ("b", Json::Bool(true)),
            ("n", Json::Null),
            ("a", Json::A(vec![Json::U(1), Json::O(vec![("k", Json::S("v".into()))])])),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("i"), Some(&Json::I(-7)));
        assert_eq!(back.get("missing"), None);
        assert!(Json::parse("{\"k\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("42 junk").is_err());
        assert_eq!(Json::parse(" 42 ").unwrap(), Json::U(42));
    }

    #[test]
    fn report_renders_all_formats() {
        let prog = gcr_frontend::parse(
            "
program demo
param N
array A[N], B[N]
for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(A[i], B[i])
}
",
        )
        .unwrap();
        let mut tracer = gcr_core::Tracer::enabled();
        let opt = gcr_core::apply_strategy_checked_traced(
            &prog,
            gcr_core::pipeline::Strategy::FusionOnly { levels: 3 },
            &gcr_core::SafetyOptions::default(),
            &mut tracer,
        )
        .unwrap();
        let report = Report::new("test", &prog, "fuse3", &opt, tracer.into_events());
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"gcr-report/v1\""), "{json}");
        assert!(json.contains("\"pass\": \"fusion@1\""), "{json}");
        let text = report.to_text();
        assert!(text.contains("pass trace"), "{text}");
        let md = report.to_markdown();
        assert!(md.contains("| pass | ok |"), "{md}");
    }
}
