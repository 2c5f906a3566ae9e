//! The five workloads: names, reasons, sizes, and the seeded generation of
//! their inputs. The program under test only ever sees what is generated
//! here (LoopLang text, `gcrc` options, sweep jobs, request frames).

use gcr_apps::AppSpec;
use gcr_cli::Options;
use gcr_core::pipeline::Strategy;
use gcr_exec::ExecEngine;
use gcr_par::rng::Rng;

/// Seed of the committed goldens and baselines.
pub const DEFAULT_SEED: u64 = 1;

/// Size jitter: item `i` runs pass `p` at `jittered(base, phase_i + p)`,
/// with `phase_i` drawn from the seed. One cycle of `JITTER` passes thus
/// runs every item equally often at each of its sizes, so the work, the
/// outputs and the peak footprint of a cycle do not depend on the seed;
/// only the order and the pairing of sizes within a pass do.
pub const JITTER: u64 = 8;

/// `base` plus a jitter of 0..7, halved for bases under 64 and quartered
/// under 32: seven more on SP's N = 12 would be a fivefold change of work
/// within one cycle, and the median pass would then depend on how the seed
/// happened to pair the sizes.
pub fn jittered(base: i64, turn: u64) -> i64 {
    let shift = match base {
        64.. => 0,
        32.. => 1,
        _ => 2,
    };
    base + ((turn % JITTER) >> shift) as i64
}

/// The `--hierarchy` descriptor of the simulation workloads.
pub const HIERARCHY: &str = gcr_bench::gallery::GALLERY_HIERARCHY;

/// Engine pinned for every measurement; `interp` is the reference the
/// output checks compare it against.
pub const ENGINE: ExecEngine = ExecEngine::Vm;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OptGallery,
    SimOriginal,
    SimFused,
    SweepFig10,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::OptGallery,
        Workload::SimOriginal,
        Workload::SimFused,
        Workload::SweepFig10,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptGallery => "opt-gallery",
            Workload::SimOriginal => "sim-original",
            Workload::SimFused => "sim-fused",
            Workload::SweepFig10 => "sweep-fig10",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// `check.sh --quick`: sizes ÷ 4 and a single pass.
    pub quick: bool,
}

impl Plan {
    /// Per-workload random stream, so that adding a draw to one workload
    /// does not move another's inputs.
    pub fn rng(&self) -> Rng {
        Rng::for_iteration(self.seed, self.workload as u64)
    }

    pub fn scale(&self, full: i64) -> i64 {
        if self.quick {
            (full / 4).max(8)
        } else {
            full
        }
    }
}

pub fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

// ---------------------------------------------------------------------------
// gcrc workloads
// ---------------------------------------------------------------------------

/// One LoopLang file handed to `gcr_cli::run_source`.
pub struct CliItem {
    pub name: &'static str,
    pub source: String,
    /// `--simulate` base size; `None` for the compile-only workload.
    pub base: Option<i64>,
    pub steps: usize,
    pub phase: u64,
}

impl CliItem {
    pub fn size(&self, pass: u64) -> Option<i64> {
        self.base.map(|b| jittered(b, self.phase + pass))
    }

    /// Identity of one (item, size) operation, the key of its output.
    pub fn key(&self, pass: u64) -> String {
        match self.size(pass) {
            Some(n) => format!("{}@{n}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Base sizes of the simulated items. Cut from the issue's probe sizes
/// (Swim/Tomcatv 129, ADI 193, SP 16, jacobi2d/transpose 300, jacobi3d 40,
/// mmul 64, nbody 400) so that one pass takes about a second and a cycle of
/// eight fits the run; README.md records the timings behind the numbers.
const SIM_APPS: [(&str, i64); 4] = [("Swim", 72), ("Tomcatv", 72), ("ADI", 104), ("SP", 10)];
const SIM_KERNELS: [(&str, i64); 5] =
    [("jacobi2d", 168), ("jacobi3d", 28), ("mmul", 40), ("transpose", 168), ("nbody", 224)];
/// Kernels fusion leaves unchanged (and still batched): only in
/// `sim-original`.
const UNFUSED_KERNELS: [&str; 3] = ["mmul", "transpose", "nbody"];
/// Time steps of the four applications (the gallery kernels bring their
/// own).
const APP_STEPS: usize = 3;

fn app(name: &str) -> AppSpec {
    gcr_apps::evaluation_apps()
        .into_iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("no evaluation app named {name}"))
}

/// The application printed to LoopLang text, the form a user hands `gcrc`.
fn app_source(name: &str) -> String {
    let spec = app(name);
    gcr_ir::print::print_program(&(spec.build)(spec.default_size).0)
}

/// The item list of a `gcrc` workload, in seeded order.
pub fn cli_items(plan: &Plan) -> Vec<CliItem> {
    let mut rng = plan.rng();
    let mut items = Vec::new();
    match plan.workload {
        Workload::OptGallery => {
            for k in gcr_apps::gallery() {
                items.push(CliItem {
                    name: k.name,
                    source: k.source.to_string(),
                    base: None,
                    steps: 1,
                    phase: 0,
                });
            }
            for a in gcr_apps::evaluation_apps() {
                items.push(CliItem {
                    name: a.name,
                    source: app_source(a.name),
                    base: None,
                    steps: 1,
                    phase: 0,
                });
            }
        }
        Workload::SimOriginal | Workload::SimFused => {
            for (name, n) in SIM_APPS {
                items.push(CliItem {
                    name,
                    source: app_source(name),
                    base: Some(plan.scale(n)),
                    steps: APP_STEPS,
                    phase: rng.below(JITTER),
                });
            }
            for (name, n) in SIM_KERNELS {
                if plan.workload == Workload::SimFused && UNFUSED_KERNELS.contains(&name) {
                    continue;
                }
                let k = gcr_apps::gallery_kernel(name)
                    .unwrap_or_else(|| panic!("no gallery kernel named {name}"));
                items.push(CliItem {
                    name: k.name,
                    source: k.source.to_string(),
                    base: Some(plan.scale(n)),
                    steps: k.steps,
                    phase: rng.below(JITTER),
                });
            }
        }
        other => panic!("{} is not a gcrc workload", other.name()),
    }
    shuffle(&mut rng, &mut items);
    items
}

/// Sweeps of the item list in one `opt-gallery` pass.
pub fn gallery_sweeps(plan: &Plan) -> usize {
    if plan.quick {
        1
    } else {
        4
    }
}

fn strategy(name: &str) -> Strategy {
    Strategy::from_name(name).unwrap_or_else(|| panic!("unknown strategy {name}"))
}

/// The `gcrc` command line of a workload, as parsed options.
pub fn cli_options(
    workload: Workload,
    size: Option<i64>,
    steps: usize,
    engine: ExecEngine,
) -> Options {
    let base = Options { input: "<benchmark>".into(), exec: Some(engine), ..Options::default() };
    match workload {
        // --strategy fuse+group --summary --trace --check --stats
        // --footprints --dot (the program is emitted; no simulation)
        Workload::OptGallery => Options {
            strategy: strategy("fuse+group"),
            summary: true,
            trace: true,
            check: true,
            stats: true,
            footprints: true,
            dot: true,
            ..base
        },
        // --strategy S --no-emit --simulate N --steps K --hierarchy H
        // --report - --exec vm
        Workload::SimOriginal | Workload::SimFused => Options {
            strategy: strategy(if workload == Workload::SimOriginal {
                "original"
            } else {
                "fuse+group"
            }),
            emit: false,
            simulate: size,
            steps,
            hierarchy: Some(HIERARCHY.into()),
            report_path: Some("-".into()),
            ..base
        },
        other => panic!("{} is not a gcrc workload", other.name()),
    }
}

// ---------------------------------------------------------------------------
// sweep-fig10
// ---------------------------------------------------------------------------

/// Time steps of every sweep job (the `fig10` default).
pub const SWEEP_STEPS: usize = gcr_bench::STEPS;

/// One application of the figure-10 sweep with its seeded size phase.
pub struct SweepApp {
    pub app: AppSpec,
    pub base: i64,
    pub phase: u64,
}

impl SweepApp {
    pub fn size(&self, pass: u64) -> i64 {
        jittered(self.base, self.phase + pass)
    }
}

/// Base sizes of the sweep: `AppSpec::default_size` (129, 129, 257, 27)
/// times 0.8, for the same reason as the simulated items above.
///
/// The four apps share one phase. A sweep is this workload's one operation,
/// so its latencies are per pass; with a phase per app, how heavy the
/// heaviest pass is would depend on which sizes the seed happened to pair.
/// With one phase the eight passes of a cycle are the same eight sweeps for
/// every seed, which only picks the one to start with.
pub fn sweep_apps(plan: &Plan) -> Vec<SweepApp> {
    let phase = plan.rng().below(JITTER);
    // In figure order, as the `fig10` binary submits them: thirteen unequal
    // jobs on two workers finish 4 % sooner or later depending on their
    // order, and that is the pool's property, not noise a seed should add.
    gcr_apps::evaluation_apps()
        .into_iter()
        .map(|app| SweepApp { base: plan.scale(app.default_size * 8 / 10), phase, app })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workload: Workload, seed: u64) -> Plan {
        Plan { workload, seed, quick: false }
    }

    fn listing(p: &Plan) -> Vec<(String, Option<i64>)> {
        cli_items(p).iter().map(|i| (i.name.to_string(), i.size(0))).collect()
    }

    #[test]
    fn same_seed_gives_the_same_item_list() {
        for w in [Workload::OptGallery, Workload::SimOriginal, Workload::SimFused] {
            assert_eq!(listing(&plan(w, 7)), listing(&plan(w, 7)), "{}", w.name());
        }
        assert_ne!(
            listing(&plan(Workload::SimOriginal, 7)),
            listing(&plan(Workload::SimOriginal, 8))
        );
        let sizes = |seed| -> Vec<(&'static str, i64)> {
            sweep_apps(&plan(Workload::SweepFig10, seed))
                .iter()
                .map(|a| (a.app.name, a.size(0)))
                .collect()
        };
        assert_eq!(sizes(7), sizes(7));
    }

    #[test]
    fn a_cycle_runs_every_item_at_every_size() {
        for seed in [1, 2, 3] {
            for item in cli_items(&plan(Workload::SimFused, seed)) {
                let mut sizes: Vec<i64> = (0..JITTER).map(|p| item.size(p).unwrap()).collect();
                sizes.sort_unstable();
                let mut want: Vec<i64> =
                    (0..JITTER).map(|j| jittered(item.base.unwrap(), j)).collect();
                want.sort_unstable();
                assert_eq!(sizes, want, "{} seed {seed}", item.name);
            }
        }
    }

    #[test]
    fn workload_membership() {
        assert_eq!(cli_items(&plan(Workload::OptGallery, 1)).len(), 20);
        assert_eq!(cli_items(&plan(Workload::SimOriginal, 1)).len(), 9);
        let fused = cli_items(&plan(Workload::SimFused, 1));
        assert_eq!(fused.len(), 6);
        assert!(fused.iter().all(|i| !UNFUSED_KERNELS.contains(&i.name)));
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
