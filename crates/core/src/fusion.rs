//! Reuse-based loop fusion (Section 2.3, Figure 6 of the paper).
//!
//! The algorithm processes the statement list in order; each statement is
//! greedily fused *upwards* into the closest predecessor that shares data
//! with it (`GreedilyFuse`). `FusibleTest` decides whether two loops can be
//! fused and with what alignment factor, using the pairwise constraints of
//! [`gcr_analysis::align`]; fusion is enabled by three transformations:
//!
//! * **statement embedding** — a non-loop statement is scheduled into one
//!   iteration of the fused loop (a single-iteration guard range, possibly
//!   outside the loop's previous bounds — the hull simply extends);
//! * **loop alignment** — the incoming loop is shifted by the largest of
//!   all per-pair alignment factors (negative shifts allowed), which both
//!   satisfies every dependence and brings reuses closest;
//! * **iteration reordering** — boundary iterations of the incoming loop
//!   whose dependences cannot be satisfied by any constant alignment are
//!   peeled into standalone statements placed after the fused loop (legal
//!   only when the incoming loop has no loop-carried self dependence),
//!   mirroring the paper's "splitting at boundary loop iterations".
//!
//! Fused programs are expressed with per-member **guard ranges** rather than
//! generated code: member statements carry their active iteration range in
//! the fused iteration space, and the interpreter honours the guards.
//!
//! Multi-dimensional loops are fused level by level from the outermost
//! (Section 4.1). Inner loops whose *outer* activity ranges differ (their
//! outer alignments or original bounds were unequal) can still fuse: the
//! merged loop takes the hull of the activity ranges and each member keeps
//! an exact outer-variable guard entry, so which outer iterations execute
//! it never changes.

use gcr_analysis::access::touched_arrays;
use gcr_analysis::align::{has_loop_carried_self_dep, AlignConstraint};
use gcr_analysis::footprint::DimSet;
use gcr_analysis::footprint::{var_ranges, VarRanges};
use gcr_analysis::level::{classify_level_refs, LevelPos, LevelRef};
use gcr_analysis::pairwise_constraint;
use gcr_ir::{subst, ArrayId, GuardedStmt, LinExpr, Loop, Program, Range, Stmt};
use std::collections::BTreeSet;
use std::collections::HashSet;

/// Options controlling fusion.
#[derive(Clone, Copy, Debug)]
pub struct FusionOptions {
    /// How many loop levels to fuse, outermost first (the paper evaluates
    /// 1-level vs 3-level fusion on NAS/SP).
    pub max_levels: usize,
    /// Maximum number of head iterations that may be peeled to enable a
    /// fusion.
    pub peel_limit: i64,
    /// Ablation: when `false`, reuse-driven alignment is disabled — loops
    /// fuse only when alignment factor 0 satisfies every dependence, and 0
    /// is used (mere loop fusion without alignment).
    pub align: bool,
    /// Budget on `GreedilyFuse` worklist steps per fused level: each
    /// level starts a fresh count. When it runs out, that level stops where
    /// it is and the report's `budget_exhausted` flag is set;
    /// `optimize_checked` surfaces this as
    /// [`gcr_ir::GcrError::BudgetExceeded`] and rolls the level back. The
    /// default is far above any real program's needs.
    pub max_steps: usize,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions { max_levels: 4, peel_limit: 8, align: true, max_steps: 100_000 }
    }
}

/// Statistics of one fusion run.
#[derive(Clone, Debug, Default)]
pub struct FusionReport {
    /// Loop fusions performed (pairs merged), per level.
    pub fused: Vec<usize>,
    /// Non-loop statements embedded into loops.
    pub embedded: usize,
    /// Iterations peeled off to enable fusions.
    pub peeled: usize,
    /// Loop counts per level before fusion (level 1 first).
    pub loops_before: Vec<usize>,
    /// Loop counts per level after fusion.
    pub loops_after: Vec<usize>,
    /// Reasons fusion attempts failed (deduplicated).
    pub infusible: Vec<String>,
    /// True when the `max_steps` worklist budget ran out before the
    /// worklist drained; the program is still valid but may be under-fused.
    pub budget_exhausted: bool,
}

impl FusionReport {
    fn note_infusible(&mut self, why: &str) {
        if !self.infusible.iter().any(|w| w == why) {
            self.infusible.push(why.to_string());
        }
    }

    /// Total fusions across levels.
    pub fn total_fused(&self) -> usize {
        self.fused.iter().sum()
    }
}

/// Counts loops at each nesting level (level 1 = outermost).
pub fn loops_per_level(prog: &Program) -> Vec<usize> {
    let mut counts = Vec::new();
    prog.walk(|gs, depth| {
        if matches!(gs.stmt, Stmt::Loop(_)) {
            if counts.len() <= depth {
                counts.resize(depth + 1, 0);
            }
            counts[depth] += 1;
        }
    });
    counts
}

/// Applies reuse-based loop fusion to a whole program, level by level.
///
/// ```
/// let mut prog = gcr_frontend::parse("
/// program demo
/// param N
/// array A[N], B[N]
///
/// for i = 1, N {
///   A[i] = f(A[i])
/// }
/// for i = 3, N {
///   B[i] = g(A[i-2])
/// }
/// ").unwrap();
/// let report = gcr_core::fuse_program(&mut prog, &gcr_core::FusionOptions::default());
/// assert_eq!(report.total_fused(), 1);
/// assert_eq!(prog.count_nests(), 1);
/// // The second loop was aligned by −2 to meet its producer:
/// let text = gcr_ir::print::print_program(&prog);
/// assert!(text.contains("B[i+2] = g(A[i])"), "{text}");
/// ```
pub fn fuse_program(prog: &mut Program, opts: &FusionOptions) -> FusionReport {
    let mut report = FusionReport { loops_before: loops_per_level(prog), ..Default::default() };
    for level in 1..=opts.max_levels {
        let rep = fuse_one_level(prog, opts, level);
        merge_fusion(&mut report, level, rep);
    }
    report
}

/// Folds the report of [`fuse_one_level`] at `level` into the running
/// report of a level-by-level fusion.
pub(crate) fn merge_fusion(total: &mut FusionReport, level: usize, rep: FusionReport) {
    if total.fused.len() < level {
        total.fused.resize(level, 0);
    }
    total.fused[level - 1] += rep.fused.iter().sum::<usize>();
    total.embedded += rep.embedded;
    total.peeled += rep.peeled;
    total.loops_after = rep.loops_after;
    for w in rep.infusible {
        if !total.infusible.contains(&w) {
            total.infusible.push(w);
        }
    }
    total.budget_exhausted |= rep.budget_exhausted;
}

/// Fuses exactly one loop level (1 = outermost), leaving other levels
/// untouched. `optimize_checked` uses this to checkpoint the program after
/// every level and roll back just the level that went wrong.
pub fn fuse_one_level(prog: &mut Program, opts: &FusionOptions, level: usize) -> FusionReport {
    let mut report = FusionReport {
        loops_before: loops_per_level(prog),
        fused: vec![0; level.max(1)],
        ..Default::default()
    };
    let mut fuser = Fuser::new(prog, opts, &mut report, level);
    if level <= 1 {
        let body = std::mem::take(&mut prog.body);
        prog.body = fuser.fuse_level(body);
    } else {
        let mut body = std::mem::take(&mut prog.body);
        fuser.fuse_at_depth(&mut body, 2, level);
        prog.body = body;
    }
    normalize(prog);
    report.loops_after = loops_per_level(prog);
    report
}

struct Fuser<'r> {
    ranges: VarRanges,
    opts: FusionOptions,
    report: &'r mut FusionReport,
    next_ident: u32,
    /// Pairs (outer ident, inner ident) proven infusible.
    memo: HashSet<(u32, u32)>,
    /// Current level (0-based) for per-level statistics.
    level: usize,
    /// Enclosing loop variable and range when fusing an inner level.
    enclosing: Option<(gcr_ir::VarId, Range)>,
    /// Worklist steps consumed (against `opts.max_steps`).
    steps: usize,
}

struct Slot {
    ident: u32,
    gs: Option<GuardedStmt>,
    arrays: BTreeSet<ArrayId>,
    /// [`Fuser::member_refs`] of the slot's loop, kept between
    /// `FusibleTest`s: `GreedilyFuse` is incremental, so a merge classifies
    /// only the members it appends instead of every test re-classifying the
    /// whole growing loop. `None` until first needed, and again after a
    /// change that moves the time range of members already classified.
    refs: Option<Vec<LevelRef>>,
}

impl Slot {
    fn new(ident: u32, gs: GuardedStmt) -> Slot {
        let arrays = touched_arrays(&gs.stmt);
        Slot { ident, gs: Some(gs), arrays, refs: None }
    }

    fn as_loop(&self) -> &Loop {
        self.gs.as_ref().unwrap().stmt.as_loop().unwrap()
    }
}

/// Restricts a member's guard to its loop's range ahead of a hull change
/// (`None` means the whole range). Returns `false` when that moved the
/// member's active range, which any level refs cached for it carry.
fn absorb_range(m: &mut GuardedStmt, range: &Range) -> bool {
    let Some(g) = m.guard.take() else {
        m.guard = Some(range.clone());
        return true;
    };
    let narrowed = intersect(&g, range).expect("comparability checked by the caller");
    let same = narrowed == g;
    m.guard = Some(narrowed);
    same
}

/// Result of `FusibleTest`.
enum Fusible {
    No(&'static str),
    /// Fuse with this alignment after peeling `peel_head` iterations.
    Yes {
        align: i64,
        peel_head: i64,
    },
}

impl<'r> Fuser<'r> {
    /// A fuser for `prog`, counting its fusions under `level` (1 =
    /// outermost).
    fn new(
        prog: &Program,
        opts: &FusionOptions,
        report: &'r mut FusionReport,
        level: usize,
    ) -> Self {
        Fuser {
            ranges: var_ranges(prog),
            opts: *opts,
            report,
            next_ident: 0,
            memo: HashSet::new(),
            level: level.saturating_sub(1),
            enclosing: None,
            steps: 0,
        }
    }

    fn new_ident(&mut self) -> u32 {
        self.next_ident += 1;
        self.next_ident
    }

    /// Descends to loops at exactly `target` depth and fuses their bodies.
    fn fuse_at_depth(&mut self, members: &mut [GuardedStmt], current: usize, target: usize) {
        for gs in members.iter_mut() {
            if let Stmt::Loop(l) = &mut gs.stmt {
                if current == target {
                    self.level = target - 1;
                    let saved = self.enclosing.take();
                    self.enclosing = Some((l.var, l.range()));
                    let body = std::mem::take(&mut l.body);
                    l.body = self.fuse_level(body);
                    self.enclosing = saved;
                } else {
                    self.fuse_at_depth(&mut l.body, current + 1, target);
                }
            }
        }
    }

    /// Fuses one statement list (the body of a loop, or the program's
    /// top-level list).
    fn fuse_level(&mut self, members: Vec<GuardedStmt>) -> Vec<GuardedStmt> {
        let mut slots: Vec<Slot> = Vec::with_capacity(members.len());
        for gs in members {
            let ident = self.new_ident();
            slots.push(Slot::new(ident, gs));
            self.greedily_fuse(&mut slots, ident);
        }
        slots.into_iter().filter_map(|s| s.gs).collect()
    }

    /// The paper's `GreedilyFuse`, driven by a worklist of slot identities.
    fn greedily_fuse(&mut self, slots: &mut Vec<Slot>, start: u32) {
        let mut work = vec![start];
        while let Some(id) = work.pop() {
            if self.steps >= self.opts.max_steps {
                self.report.budget_exhausted = true;
                return;
            }
            self.steps += 1;
            let Some(i) = slots.iter().position(|s| s.ident == id && s.gs.is_some()) else {
                continue;
            };
            // Closest predecessor sharing data.
            let Some(j) = (0..i)
                .rev()
                .find(|&j| slots[j].gs.is_some() && !slots[j].arrays.is_disjoint(&slots[i].arrays))
            else {
                continue;
            };
            let pair = (slots[j].ident, slots[i].ident);
            if self.memo.contains(&pair) {
                continue;
            }
            let gj = slots[j].gs.as_ref().unwrap();
            let gi = slots[i].gs.as_ref().unwrap();
            match (&gj.stmt, &gi.stmt) {
                (Stmt::Loop(_), Stmt::Assign(_)) => {
                    if self.embed(slots, j, i) {
                        self.report.embedded += 1;
                        let jid = slots[j].ident;
                        work.push(jid);
                    } else {
                        self.memo.insert(pair);
                    }
                }
                (Stmt::Loop(_), Stmt::Loop(_)) => match self.fusible_test(slots, j, i) {
                    Fusible::No(why) => {
                        self.report.note_infusible(why);
                        self.memo.insert(pair);
                    }
                    Fusible::Yes { align, peel_head } => {
                        if peel_head > 0 {
                            let peeled = self.peel_head(slots, i, peel_head);
                            self.report.peeled += peel_head as usize;
                            // Retry the shrunk loop, then process the peels.
                            let iid = slots[i].ident;
                            let mut peel_ids = Vec::new();
                            for (off, p) in peeled.into_iter().enumerate() {
                                let ident = self.new_ident();
                                slots.insert(i + 1 + off, Slot::new(ident, p));
                                peel_ids.push(ident);
                            }
                            // LIFO: retry loop first, peels afterwards.
                            for &pid in peel_ids.iter().rev() {
                                work.push(pid);
                            }
                            work.push(iid);
                        } else {
                            self.fuse_loops(slots, j, i, align);
                            let lvl = self.level.min(self.report.fused.len() - 1);
                            self.report.fused[lvl] += 1;
                            let jid = slots[j].ident;
                            work.push(jid);
                        }
                    }
                },
                // A plain statement as the closest data-sharing predecessor
                // is a fusion barrier: hoisting past it is unsafe without
                // further analysis, and embedding it backwards would move it
                // across statements it may share data with.
                (Stmt::Assign(_), _) => {
                    self.memo.insert(pair);
                }
            }
        }
    }

    /// Level refs of the members of loop `l` from position `from` on.
    fn member_refs_from(&self, l: &Loop, from: usize) -> Vec<LevelRef> {
        let range = l.range();
        l.body[from..]
            .iter()
            .flat_map(|m| classify_level_refs(m, l.var, &range, &self.ranges))
            .collect()
    }

    /// Level refs of a member list seen as members of loop `l`.
    fn member_refs(&self, l: &Loop) -> Vec<LevelRef> {
        self.member_refs_from(l, 0)
    }

    /// Fills the ref cache of a loop slot if it is empty.
    fn ensure_refs(&self, slot: &mut Slot) {
        if slot.refs.is_none() {
            slot.refs = Some(self.member_refs(slot.as_loop()));
        }
        self.check_refs(slot);
    }

    /// Self-check of the ref cache in debug and test builds: whatever is
    /// cached must equal a classification from scratch.
    fn check_refs(&self, slot: &Slot) {
        debug_assert!(
            slot.refs.as_ref().is_none_or(|refs| *refs == self.member_refs(slot.as_loop())),
            "stale level-ref cache in slot {}",
            slot.ident
        );
    }

    /// Appends the refs of the members from `first_new` on to a slot's
    /// cache (taken out as `refs` while the loop was edited) and puts it
    /// back; a cache that was empty or invalidated stays empty.
    fn extend_refs(&self, slot: &mut Slot, refs: Option<Vec<LevelRef>>, first_new: usize) {
        slot.refs = refs.map(|mut refs| {
            refs.extend(self.member_refs_from(slot.as_loop(), first_new));
            refs
        });
        self.check_refs(slot);
    }

    /// The paper's `FusibleTest`: can the loop in slot `i` fuse into the
    /// fused loop in slot `j`, and with what alignment?
    fn fusible_test(&mut self, slots: &mut [Slot], j: usize, i: usize) -> Fusible {
        self.ensure_refs(&mut slots[j]);
        self.ensure_refs(&mut slots[i]);
        let (lf, f_refs) = (slots[j].as_loop(), slots[j].refs.as_deref().unwrap());
        let (lg, g_refs) = (slots[i].as_loop(), slots[i].refs.as_deref().unwrap());
        // Under a symbolic lower bound peeling positions can't be compared.
        self.constraints_to_fusible(f_refs, g_refs, lf, lg, lg.lo.as_const())
    }

    fn constraints_to_fusible(
        &mut self,
        f_refs: &[LevelRef],
        g_refs: &[LevelRef],
        lf: &Loop,
        lg: &Loop,
        lo2: Option<i64>,
    ) -> Fusible {
        let mut lower: Option<i64> = None;
        let mut targets: Vec<i64> = Vec::new();
        let mut peel_head: i64 = 0;
        for f in f_refs {
            for g in g_refs {
                match pairwise_constraint(f, g) {
                    AlignConstraint::None => {}
                    AlignConstraint::Lower(k) => lower = Some(lower.map_or(k, |l| l.max(k))),
                    AlignConstraint::ReuseTarget(k) => targets.push(k),
                    AlignConstraint::PeelIteration(pos) => {
                        let Some(lo2) = lo2 else {
                            return Fusible::No("peel needed under a symbolic lower bound");
                        };
                        match pos.as_const() {
                            Some(p) if p < lo2 => {} // iteration doesn't exist
                            Some(p) if p - lo2 < self.opts.peel_limit => {
                                peel_head = peel_head.max(p - lo2 + 1);
                            }
                            _ => return Fusible::No("conflicting iteration too deep to peel"),
                        }
                    }
                    AlignConstraint::Infusible(why) => return Fusible::No(why),
                }
            }
        }
        if peel_head > 0 {
            if has_loop_carried_self_dep(g_refs) {
                return Fusible::No("peel blocked by a loop-carried self dependence");
            }
            if lg.body.iter().any(|m| {
                m.outer.iter().any(|(v, _)| *v == lg.var)
                    || subst::has_outer_entry_for(&m.stmt, lg.var)
            }) {
                return Fusible::No("peel under nested outer guards unsupported");
            }
            // Peeling must leave a non-empty loop.
            let remaining_lo = lg.lo.add_const(peel_head);
            if matches!(
                remaining_lo.cmp_for_large_params(&lg.hi),
                Some(std::cmp::Ordering::Greater) | None
            ) {
                return Fusible::No("peel would consume the whole loop");
            }
            return Fusible::Yes { align: 0, peel_head };
        }
        // "The smallest alignment factor that satisfies data dependence and
        // has the closest reuse": dependence bounds dominate (a flow pair's
        // bound is also its closest-reuse alignment). Pure read-read reuse
        // targets only decide the alignment when there is no dependence at
        // all, and then as the *median* target — taking the maximum would
        // ratchet successive stencil members further and further apart.
        let align = if self.opts.align {
            match lower {
                Some(l) => l,
                None => {
                    if targets.is_empty() {
                        0
                    } else {
                        let mut t = targets.clone();
                        t.sort_unstable();
                        t[t.len() / 2]
                    }
                }
            }
        } else {
            match lower {
                Some(l) if l > 0 => return Fusible::No("alignment disabled and a > 0 required"),
                _ => 0,
            }
        };
        // The fused hull must be expressible.
        let lo = lf.lo.min_large(&lg.lo.add_const(align));
        let hi = lf.hi.max_large(&lg.hi.add_const(align));
        if lo.is_none() || hi.is_none() {
            return Fusible::No("fused bounds are incomparable");
        }
        // Fusion folds each loop's iteration-range constraint into the
        // member guards; a member whose own guard cannot be intersected
        // with its loop's range statically would lose the range constraint
        // and execute iterations the original loop never ran.
        let absorbs = |l: &Loop| {
            let range = l.range();
            l.body.iter().all(|m| m.guard.as_ref().is_none_or(|g| intersect(g, &range).is_some()))
        };
        if !absorbs(lf) || !absorbs(lg) {
            return Fusible::No("member guard incomparable with loop range");
        }
        Fusible::Yes { align, peel_head: 0 }
    }

    /// Peels the first `head` iterations of the loop in slot `i` into
    /// standalone statements (returned in iteration order) and shrinks the
    /// loop. The peeled statements carry the loop slot's own outer guard.
    fn peel_head(&mut self, slots: &mut [Slot], i: usize, head: i64) -> Vec<GuardedStmt> {
        let slot_guard = slots[i].gs.as_ref().unwrap().guard.clone();
        let slot_outer = slots[i].gs.as_ref().unwrap().outer.clone();
        let gs = slots[i].gs.as_mut().unwrap();
        let Stmt::Loop(l) = &mut gs.stmt else { unreachable!() };
        let lo = l.lo.as_const().expect("peel requires a constant lower bound");
        let mut out = Vec::new();
        for x in lo..lo + head {
            let at = LinExpr::konst(x);
            for m in &l.body {
                if let Some(g) = &m.guard {
                    let (glo, ghi) = (g.lo.as_const(), g.hi.as_const());
                    // Skip members provably inactive at iteration x.
                    if matches!(glo, Some(v) if v > x) || matches!(ghi, Some(v) if v < x) {
                        continue;
                    }
                }
                let mut stmt = m.stmt.clone();
                subst::instantiate_var(&mut stmt, l.var, &at);
                // Member outer entries for vars other than l.var survive;
                // (FusibleTest refuses to peel when nested entries mention
                // l.var, so no entry needs resolving here.)
                let mut outer = slot_outer.clone();
                outer.extend(m.outer.iter().filter(|(v, _)| *v != l.var).cloned());
                out.push(GuardedStmt { stmt, guard: slot_guard.clone(), outer });
            }
        }
        l.lo = l.lo.add_const(head);
        // Unguarded members were active over the range just shrunk.
        slots[i].refs = None;
        out
    }

    /// Performs the fusion of slot `i` into slot `j` with alignment `a`.
    /// When the two slots' own guards (activity over *outer* loop
    /// variables) differ, the merged slot takes the hull and each side's
    /// members receive exact outer-guard entries.
    fn fuse_loops(&mut self, slots: &mut [Slot], j: usize, i: usize, a: i64) {
        let gi_wrap = slots[i].gs.take().unwrap();
        let Stmt::Loop(mut lg) = gi_wrap.stmt else { unreachable!() };
        let arrays_i = std::mem::take(&mut slots[i].arrays);
        // The incoming members are classified again below, renamed and
        // shifted into the fused loop's iteration space.
        slots[i].refs = None;
        let mut f_refs = slots[j].refs.take();
        let gj_wrap = slots[j].gs.as_mut().unwrap();
        let (merged_guard, merged_outer, extra_j, extra_i) = merge_slot_meta(
            &self.enclosing,
            (&gj_wrap.guard, &gj_wrap.outer),
            (&gi_wrap.guard, &gi_wrap.outer),
        );
        let Stmt::Loop(lf) = &mut gj_wrap.stmt else { unreachable!() };
        let g_range = lg.range();
        for m in &mut lg.body {
            subst::rename_shift_var(&mut m.stmt, lg.var, lf.var, -a);
            // The member stays restricted to the iterations its original
            // loop ran: its own guard intersected with the loop range.
            let guard = match m.guard.take() {
                Some(g) => intersect(&g, &g_range).expect("checked in FusibleTest"),
                None => g_range.clone(),
            };
            m.guard = Some(guard.shift(a));
            m.outer.extend(extra_i.iter().cloned());
        }
        let f_range = lf.range();
        for m in &mut lf.body {
            if !absorb_range(m, &f_range) {
                f_refs = None;
            }
            m.outer.extend(extra_j.iter().cloned());
        }
        lf.lo = lf.lo.min_large(&lg.lo.add_const(a)).expect("checked in FusibleTest");
        lf.hi = lf.hi.max_large(&lg.hi.add_const(a)).expect("checked in FusibleTest");
        // Update the recorded range of the fused loop's variable so later
        // footprint queries (Span sets for inner vars, etc.) stay accurate.
        self.ranges.insert(lf.var, lf.range());
        let first_new = lf.body.len();
        lf.body.append(&mut lg.body);
        gj_wrap.guard = merged_guard;
        gj_wrap.outer = merged_outer;
        slots[j].arrays.extend(arrays_i);
        self.extend_refs(&mut slots[j], f_refs, first_new);
    }

    /// Embeds the non-loop statement in slot `i` into the loop in slot `j`.
    /// Returns `false` when no legal single-iteration position exists.
    fn embed(&mut self, slots: &mut [Slot], j: usize, i: usize) -> bool {
        self.ensure_refs(&mut slots[j]);
        let (lf, f_refs) = (slots[j].as_loop(), slots[j].refs.as_deref().unwrap());
        // Classify the statement's refs with a throwaway time range.
        let member = GuardedStmt::bare(slots[i].gs.as_ref().unwrap().stmt.clone());
        let s_refs = classify_level_refs(&member, lf.var, &lf.range(), &self.ranges);
        let mut pos: Option<LinExpr> = None;
        for f in f_refs {
            for s in &s_refs {
                if f.access.aref.array != s.access.aref.array {
                    continue;
                }
                if !f.dims_may_overlap(s) {
                    continue;
                }
                let conflict = f.access.kind.conflicts(s.access.kind);
                let bound = match f.pos {
                    LevelPos::Variant { dim, offset: c1 } => match s.dims.get(dim) {
                        Some(DimSet::Point(k)) => Some(k.add_const(-c1)),
                        Some(_) if conflict => return false, // spans the level dim
                        _ => None,
                    },
                    LevelPos::Invariant => {
                        if conflict {
                            Some(f.time.hi.clone())
                        } else {
                            None
                        }
                    }
                };
                if let Some(b) = bound {
                    // Reuse targets and dependences both want `pos ≥ b`.
                    pos = Some(match pos {
                        None => b,
                        Some(p) => match p.max_large(&b) {
                            Some(m) => m,
                            None => return false,
                        },
                    });
                }
            }
        }
        let pos = pos.unwrap_or_else(|| lf.lo.clone());
        // Extend the hull if needed.
        let (Some(new_lo), Some(new_hi)) = (lf.lo.min_large(&pos), lf.hi.max_large(&pos)) else {
            return false;
        };
        // Existing member guards must absorb the (possibly extended) range
        // constraint; incomparable bounds make that inexpressible.
        let range = lf.range();
        if !lf.body.iter().all(|m| m.guard.as_ref().is_none_or(|g| intersect(g, &range).is_some()))
        {
            return false;
        }
        let gi = slots[i].gs.take().unwrap();
        let arrays_i = std::mem::take(&mut slots[i].arrays);
        let mut f_refs = slots[j].refs.take();
        let gj = slots[j].gs.as_mut().unwrap();
        let (merged_guard, merged_outer, extra_j, extra_i) =
            merge_slot_meta(&self.enclosing, (&gj.guard, &gj.outer), (&gi.guard, &gi.outer));
        let Stmt::Loop(lf) = &mut gj.stmt else { unreachable!() };
        let f_range = lf.range();
        for m in &mut lf.body {
            if !absorb_range(m, &f_range) {
                f_refs = None;
            }
            m.outer.extend(extra_j.iter().cloned());
        }
        lf.lo = new_lo;
        lf.hi = new_hi;
        self.ranges.insert(lf.var, lf.range());
        let first_new = lf.body.len();
        lf.body.push(GuardedStmt {
            stmt: gi.stmt,
            guard: Some(Range::single(pos)),
            outer: extra_i,
        });
        gj.guard = merged_guard;
        gj.outer = merged_outer;
        slots[j].arrays.extend(arrays_i);
        self.extend_refs(&mut slots[j], f_refs, first_new);
        true
    }
}

/// Intersection of two activity ranges over the same variable. `None` when
/// the bounds cannot be compared statically (e.g. `7` vs `N - 2`).
fn intersect(a: &Range, b: &Range) -> Option<Range> {
    Some(Range::new(a.lo.max_large(&b.lo)?, a.hi.min_large(&b.hi)?))
}

/// Activity ranges over outer loop variables: `(variable, active range)`.
type OuterGuards = Vec<(gcr_ir::VarId, Range)>;

/// Computes the merged slot guard/outer metadata when combining two slots
/// of the same (inner) level, plus the exact outer-guard entries each
/// side's members must receive to preserve their activity sets.
fn merge_slot_meta(
    enclosing: &Option<(gcr_ir::VarId, Range)>,
    (gj, oj): (&Option<Range>, &OuterGuards),
    (gi, oi): (&Option<Range>, &OuterGuards),
) -> (Option<Range>, OuterGuards, OuterGuards, OuterGuards) {
    let mut extra_j = Vec::new();
    let mut extra_i = Vec::new();
    // Enclosing-variable guard: hull when comparable, else unrestricted;
    // each side whose guard is narrower gets an exact member entry.
    let merged_guard = match (gj, gi) {
        (Some(a), Some(b)) if a == b => Some(a.clone()),
        (Some(a), Some(b)) => match (a.lo.min_large(&b.lo), a.hi.max_large(&b.hi)) {
            (Some(lo), Some(hi)) => Some(Range::new(lo, hi)),
            _ => None,
        },
        _ => None,
    };
    if let Some((var, _)) = enclosing {
        if *gj != merged_guard {
            if let Some(r) = gj {
                extra_j.push((*var, r.clone()));
            }
        }
        if *gi != merged_guard {
            if let Some(r) = gi {
                extra_i.push((*var, r.clone()));
            }
        }
    }
    // Outer entries common to both sides stay on the slot; the rest move to
    // the members (conjunction semantics allow duplicates).
    let common: Vec<(gcr_ir::VarId, Range)> =
        oj.iter().filter(|e| oi.contains(e)).cloned().collect();
    extra_j.extend(oj.iter().filter(|e| !common.contains(e)).cloned());
    extra_i.extend(oi.iter().filter(|e| !common.contains(e)).cloned());
    (merged_guard, common, extra_j, extra_i)
}

/// Cleans up after fusion: guards equal to the enclosing loop's range are
/// dropped (likewise outer entries equal to their loop's full range), and
/// loops with provably empty ranges are removed.
pub fn normalize(prog: &mut Program) {
    let ranges = var_ranges(prog);
    fn clean(members: &mut Vec<GuardedStmt>, range: Option<&Range>, ranges: &VarRanges) {
        members.retain(|gs| match &gs.stmt {
            Stmt::Loop(l) => !l.range().is_empty_large(),
            _ => true,
        });
        for gs in members.iter_mut() {
            if let (Some(g), Some(r)) = (&gs.guard, range) {
                if g == r {
                    gs.guard = None;
                }
            }
            gs.outer.retain(|(v, r)| ranges.get(v) != Some(r));
            if let Stmt::Loop(l) = &mut gs.stmt {
                let r = l.range();
                clean(&mut l.body, Some(&r), ranges);
            }
        }
    }
    clean(&mut prog.body, None, &ranges);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_exec::{Machine, NullSink};
    use gcr_frontend::parse;
    use gcr_ir::ParamBinding;

    fn check_equivalent(src: &str, opts: &FusionOptions, n: i64) -> (Program, FusionReport) {
        let orig = parse(src).unwrap();
        let mut fused = orig.clone();
        let report = fuse_program(&mut fused, opts);
        gcr_ir::validate::validate(&fused).unwrap_or_else(|e| {
            panic!("fused program invalid: {:?}\n{}", e, gcr_ir::print::print_program(&fused))
        });
        let bind = ParamBinding::new(vec![n]);
        let mut m1 = Machine::new(&orig, bind.clone());
        m1.run_steps(&mut NullSink, 2);
        let mut m2 = Machine::new(&fused, bind);
        m2.run_steps(&mut NullSink, 2);
        for ai in 0..orig.arrays.len() {
            let a = gcr_ir::ArrayId::from_index(ai);
            let v1 = m1.read_array(a);
            let v2 = m2.read_array(a);
            assert_eq!(v1.len(), v2.len());
            for (k, (x, y)) in v1.iter().zip(&v2).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "array {} elem {k}: {x} vs {y}\n{}",
                    orig.arrays[ai].name,
                    gcr_ir::print::print_program(&fused)
                );
            }
        }
        (fused, report)
    }

    /// Figure 4(a): fusible via embedding + alignment (+ peeling in the
    /// paper's rendition; guards make the peel implicit here).
    #[test]
    fn fig4a_fuses_into_one_loop() {
        let src = "
program fig4a
param N
array A[N], B[N]

for i = 3, N - 2 {
  A[i] = f(A[i-1])
}
A[1] = A[N]
A[2] = 0.0
for i = 3, N {
  B[i] = g(A[i-2])
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 30);
        assert_eq!(
            fused.count_nests(),
            1,
            "one fused nest:\n{}",
            gcr_ir::print::print_program(&fused)
        );
        assert_eq!(report.total_fused(), 1);
        assert_eq!(report.embedded, 2);
    }

    /// Figure 4(b): the intervening statement reads the last element the
    /// first loop writes — infusible.
    #[test]
    fn fig4b_stays_two_loops() {
        let src = "
program fig4b
param N
array A[N]

for i = 2, N {
  A[i] = f(A[i-1])
}
A[1] = A[N]
for i = 2, N {
  A[i] = f(A[i-1])
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 24);
        assert_eq!(fused.count_nests(), 2, "{}", gcr_ir::print::print_program(&fused));
        assert_eq!(report.total_fused(), 0);
        assert!(!report.infusible.is_empty());
    }

    #[test]
    fn simple_producer_consumer_alignment() {
        // Second loop reads what the first wrote two iterations ago: fuse
        // with alignment −2, giving reuse distance O(1).
        let src = "
program pc
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 3, N {
  B[i] = g(A[i-2])
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 40);
        assert_eq!(fused.count_nests(), 1);
        assert_eq!(report.total_fused(), 1);
        // Find the B statement's guard: alignment −2 puts it at [1, N-2].
        let l = fused.body[0].stmt.as_loop().unwrap();
        let b_member = l
            .body
            .iter()
            .find(|m| matches!(&m.stmt, Stmt::Assign(a) if fused.array(a.lhs.array).name == "B"))
            .unwrap();
        let g = b_member.guard.as_ref().unwrap();
        assert_eq!(g.lo.as_const(), Some(1));
    }

    #[test]
    fn read_read_sharing_fuses_for_reuse() {
        let src = "
program rr
param N
array A[N], B[N], C[N]

for i = 1, N {
  B[i] = f(A[i])
}
for i = 1, N {
  C[i] = g(A[i])
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 16);
        assert_eq!(fused.count_nests(), 1);
        assert_eq!(report.total_fused(), 1);
    }

    #[test]
    fn two_dim_fusion_at_both_levels() {
        let src = "
program twod
param N
array A[N, N], B[N, N]

for i = 2, N - 1 {
  for j = 2, N - 1 {
    A[j, i] = f(A[j, i])
  }
}
for i = 2, N - 1 {
  for j = 2, N - 1 {
    B[j, i] = g(A[j, i], B[j, i])
  }
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 12);
        assert_eq!(fused.count_nests(), 1);
        // After level-1 fusion the two inner loops are siblings; level-2
        // fusion merges them.
        let outer = fused.body[0].stmt.as_loop().unwrap();
        let inner_loops = outer.body.iter().filter(|m| matches!(m.stmt, Stmt::Loop(_))).count();
        assert_eq!(inner_loops, 1, "{}", gcr_ir::print::print_program(&fused));
        assert_eq!(report.total_fused(), 2);
    }

    #[test]
    fn one_level_option_keeps_inner_loops_apart() {
        let src = "
program twod
param N
array A[N, N], B[N, N]

for i = 1, N {
  for j = 1, N {
    A[j, i] = f(A[j, i])
  }
}
for i = 1, N {
  for j = 1, N {
    B[j, i] = g(A[j, i])
  }
}
";
        let opts = FusionOptions { max_levels: 1, ..Default::default() };
        let (fused, _) = check_equivalent(src, &opts, 10);
        assert_eq!(fused.count_nests(), 1);
        let outer = fused.body[0].stmt.as_loop().unwrap();
        let inner_loops = outer.body.iter().filter(|m| matches!(m.stmt, Stmt::Loop(_))).count();
        assert_eq!(inner_loops, 2);
    }

    #[test]
    fn peeling_enables_fusion_past_boundary_statement() {
        // The boundary statement writes A[1]; the second loop reads A[i-1]
        // so only its first iteration (i=2) depends on it. That iteration
        // peels off; the rest fuses.
        let src = "
program peel
param N
array A[N], B[N], C[N]

for i = 1, N {
  A[i] = f(C[i])
}
A[1] = A[N]
for i = 2, N {
  B[i] = g(A[i-1])
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 20);
        // The A[1]=A[N] statement embeds at position N; the B loop's first
        // iteration peels and embeds after it; everything lands in one nest.
        assert_eq!(report.total_fused(), 1, "{}", gcr_ir::print::print_program(&fused));
        assert!(report.peeled >= 1);
    }

    #[test]
    fn zero_align_ablation_blocks_negative_shift() {
        let src = "
program pc
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(A[i])
}
";
        // offset 0 deps: a >= 0 is satisfiable even with align disabled.
        let opts = FusionOptions { align: false, ..Default::default() };
        let (fused, _) = check_equivalent(src, &opts, 10);
        assert_eq!(fused.count_nests(), 1);
    }

    #[test]
    fn scalar_dependence_blocks_fusion() {
        let src = "
program sc
param N
array A[N], B[N]
scalar s

for i = 1, N {
  A[i] = f(A[i])
  s sum= A[i]
}
for i = 1, N {
  B[i] = g(B[i]) + s
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 10);
        assert_eq!(fused.count_nests(), 2, "{}", gcr_ir::print::print_program(&fused));
        assert_eq!(report.total_fused(), 0);
    }

    #[test]
    fn normalize_drops_trivial_guards() {
        let src = "
program nrm
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(A[i])
}
";
        let mut p = parse(src).unwrap();
        fuse_program(&mut p, &FusionOptions::default());
        let l = p.body[0].stmt.as_loop().unwrap();
        assert!(l.body.iter().all(|m| m.guard.is_none()), "{}", gcr_ir::print::print_program(&p));
    }

    /// The paper's worst case: reuse distance after fusion is Θ(k·m) but
    /// constant in N. Build the chain B=A shift, B=B shift ×m, A=B and
    /// verify everything fuses into one loop.
    #[test]
    fn worst_case_chain_still_fuses() {
        let src = "
program chain
param N
array A[N], B[N]

for i = 1, N - 1 {
  B[i] = f(A[i+1])
}
for i = 2, N {
  B[i] = g(B[i-1])
}
for i = 2, N {
  A[i] = h(B[i-1])
}
";
        let (fused, report) = check_equivalent(src, &FusionOptions::default(), 18);
        assert_eq!(fused.count_nests(), 1, "{}", gcr_ir::print::print_program(&fused));
        assert_eq!(report.total_fused(), 2);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use gcr_frontend::parse;

    /// Embedding at a symbolic position extends the fused loop's hull: a
    /// statement reading the last element a loop writes lands at iteration
    /// `N` (after the producer), not outside the loop.
    #[test]
    fn embedding_at_symbolic_position() {
        let src = "
program sym
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(B[i])
}
B[1] = A[N]
";
        let mut p = parse(src).unwrap();
        let rep = fuse_program(&mut p, &FusionOptions::default());
        assert_eq!(rep.embedded, 1, "{rep:?}");
        let l = p.body[0].stmt.as_loop().unwrap();
        // Hull stays [1, N]; the embedded statement sits at [N, N].
        assert_eq!(l.lo.as_const(), Some(1));
        let emb = l
            .body
            .iter()
            .find(|m| matches!(&m.stmt, Stmt::Assign(a) if p.array(a.lhs.array).name == "B"))
            .unwrap();
        let g = emb.guard.as_ref().unwrap();
        assert!(g.lo.as_const().is_none(), "symbolic position: {g:?}");
        assert_eq!(g.lo, g.hi);
    }

    /// The infusible memo prevents repeated FusibleTests but not later
    /// fusions of other pairs.
    #[test]
    fn infusible_pair_does_not_block_others() {
        let src = "
program memo
param N
array A[N], B[N], C[N]

for i = 2, N {
  A[i] = f(A[i-1])
}
A[1] = A[N]
for i = 2, N {
  A[i] = f(A[i-1])
}
for i = 1, N {
  C[i] = g(B[i])
}
for i = 1, N {
  B[i] = h(B[i], C[i])
}
";
        let mut p = parse(src).unwrap();
        let rep = fuse_program(&mut p, &FusionOptions::default());
        // The two A-loops stay apart (Figure 4(b)), the B/C pair fuses.
        assert_eq!(rep.fused[0], 1, "{rep:?}");
        assert_eq!(p.count_nests(), 3);
    }

    /// Disabled alignment refuses fusions that need a positive shift.
    #[test]
    fn no_align_refuses_positive_shift() {
        let src = "
program na
param N
array A[N], B[N]

for i = 1, N - 1 {
  A[i] = f(A[i])
}
for i = 1, N - 1 {
  B[i] = g(A[i+1])
}
";
        let mut p = parse(src).unwrap();
        let opts = FusionOptions { align: false, ..Default::default() };
        let rep = fuse_program(&mut p, &opts);
        assert_eq!(rep.total_fused(), 0, "{rep:?}");
        assert!(rep.infusible.iter().any(|r| r.contains("alignment disabled")), "{rep:?}");
        // With alignment it fuses (shift +1).
        let mut q = parse(src).unwrap();
        let rep2 = fuse_program(&mut q, &FusionOptions::default());
        assert_eq!(rep2.total_fused(), 1);
    }

    /// Infusible reasons surface in the report with stable wording.
    #[test]
    fn infusible_reasons_are_reported() {
        let src = "
program why
param N
array A[N]

for i = 2, N {
  A[i] = f(A[i-1])
}
A[1] = A[N]
for i = 2, N {
  A[i] = f(A[i-1])
}
";
        let mut p = parse(src).unwrap();
        let rep = fuse_program(&mut p, &FusionOptions::default());
        assert!(
            rep.infusible.iter().any(|r| r.contains("loop-carried self dependence")
                || r.contains("serializing")
                || r.contains("depends on a late element")),
            "{:?}",
            rep.infusible
        );
    }
}

/// The per-slot level-ref cache, driven through the fuser's own steps. (In
/// this build every fill and extension is also checked against a
/// classification from scratch, see `Fuser::check_refs`.)
#[cfg(test)]
mod ref_cache_tests {
    use super::*;
    use gcr_frontend::parse;

    /// One slot per top-level statement, as `fuse_level` starts out.
    fn slots_of(prog: &Program) -> Vec<Slot> {
        prog.body.iter().enumerate().map(|(k, gs)| Slot::new(k as u32 + 1, gs.clone())).collect()
    }

    #[test]
    fn cache_survives_a_fusion_with_nonzero_alignment() {
        let prog = parse(
            "
program pc
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 3, N {
  B[i] = g(A[i-2])
}
",
        )
        .unwrap();
        let mut report = FusionReport { fused: vec![0], ..Default::default() };
        let mut fuser = Fuser::new(&prog, &FusionOptions::default(), &mut report, 1);
        let mut slots = slots_of(&prog);
        let align = match fuser.fusible_test(&mut slots, 0, 1) {
            Fusible::Yes { align, peel_head: 0 } => align,
            _ => panic!("the pair fuses without peeling"),
        };
        assert_eq!(align, -2);
        let before = slots[0].refs.clone().expect("filled by FusibleTest");
        assert!(slots[1].refs.is_some());
        fuser.fuse_loops(&mut slots, 0, 1, align);
        // Extended by the two incoming refs, not dropped and refilled.
        let cached = slots[0].refs.as_ref().expect("kept across the merge");
        assert_eq!(cached[..before.len()], before[..]);
        assert_eq!(cached.len(), before.len() + 2);
        assert_eq!(*cached, fuser.member_refs(slots[0].as_loop()));
        // The incoming members were classified after their rename and
        // shift: `B[i+2] = g(A[i])`, active over [1, N-2].
        let b_write = cached.last().unwrap();
        assert_eq!(b_write.pos, LevelPos::Variant { dim: 0, offset: 2 });
        assert_eq!(cached[before.len()].pos, LevelPos::Variant { dim: 0, offset: 0 });
        assert_eq!(b_write.time.lo.as_const(), Some(1));
        assert_eq!(b_write.time.hi, slots[0].as_loop().hi.add_const(-2));
        assert!(slots[1].gs.is_none() && slots[1].refs.is_none());
    }

    #[test]
    fn peel_head_invalidates_the_cache() {
        let prog = parse(
            "
program peel
param N
array A[N], B[N]

for i = 2, N {
  B[i] = g(A[i-1])
}
",
        )
        .unwrap();
        let mut report = FusionReport::default();
        let mut fuser = Fuser::new(&prog, &FusionOptions::default(), &mut report, 1);
        let mut slots = slots_of(&prog);
        fuser.ensure_refs(&mut slots[0]);
        assert_eq!(slots[0].refs.as_ref().unwrap()[0].time.lo.as_const(), Some(2));
        let peeled = fuser.peel_head(&mut slots, 0, 1);
        assert_eq!(peeled.len(), 1);
        // The unguarded member's time was the loop range, which just shrank.
        assert!(slots[0].refs.is_none());
        fuser.ensure_refs(&mut slots[0]);
        assert_eq!(slots[0].refs.as_ref().unwrap()[0].time.lo.as_const(), Some(3));
    }

    #[test]
    fn embed_extends_the_cache_unless_it_moves_the_hull() {
        // Inside the hull: the cache grows by the embedded statement's refs.
        let inside = parse(
            "
program inside
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(B[i])
}
B[1] = A[N]
",
        )
        .unwrap();
        let mut report = FusionReport::default();
        let mut fuser = Fuser::new(&inside, &FusionOptions::default(), &mut report, 1);
        let mut slots = slots_of(&inside);
        fuser.ensure_refs(&mut slots[0]);
        assert!(fuser.embed(&mut slots, 0, 1));
        let cached = slots[0].refs.as_ref().expect("extended in place");
        assert_eq!(cached.len(), 4);
        assert_eq!(*cached, fuser.member_refs(slots[0].as_loop()));
        assert_eq!(cached[3].time, cached[2].time);
        assert_eq!(cached[3].time.lo, cached[3].time.hi, "one iteration: {:?}", cached[3].time);

        // A member guard wider than its loop lets the statement land past
        // the loop's end: the hull grows to [1, N] and the member's guard is
        // cut back to the old range, so what was cached for it is stale and
        // must not be kept.
        let beyond = parse(
            "
program beyond
param N
array A[N], B[N], C[N]

for i = 1, N - 2 {
  when [1, N] A[i] = f(C[i])
}
B[1] = A[N]
",
        )
        .unwrap();
        let mut report = FusionReport::default();
        let mut fuser = Fuser::new(&beyond, &FusionOptions::default(), &mut report, 1);
        let mut slots = slots_of(&beyond);
        fuser.ensure_refs(&mut slots[0]);
        let old_hi = slots[0].as_loop().hi.clone();
        assert_eq!(slots[0].refs.as_ref().unwrap()[0].time.hi, old_hi.add_const(2));
        assert!(fuser.embed(&mut slots, 0, 1));
        assert_eq!(slots[0].as_loop().hi, old_hi.add_const(2), "hull extended");
        assert!(slots[0].refs.is_none(), "stale times dropped with the cache");
        fuser.ensure_refs(&mut slots[0]);
        let refilled = slots[0].refs.as_ref().unwrap();
        assert_eq!(refilled[0].time.hi, old_hi);
        assert_eq!(refilled.last().unwrap().time.lo, old_hi.add_const(2));
    }
}
