//! `serve-mix` end to end: the daemon user. An in-process
//! `gcr_serve::Server` (default configuration: 2 workers) on a unix socket,
//! one `chaos::Client`, closed loop, `gcr-serve/v1` frame in, frame out.

use crate::cli_run::as_u64;
use crate::e2e::{Recorder, Runner};
use crate::stats::fnv64;
use crate::workload::{shuffle, Plan, HIERARCHY};
use gcr_bench::sweep::MeasureCache;
use gcr_cache::{HierarchySink, MemoryHierarchy};
use gcr_cli::report::Json;
use gcr_core::pipeline::Strategy;
use gcr_exec::{ExecEngine, Machine};
use gcr_par::rng::Rng;
use gcr_serve::chaos::Client;
use gcr_serve::{Request, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per block (one timed pass). The class counts below add up to
/// this; a quarter of the block is heavy (cold, predict, hierarchy), so
/// p99 falls inside real work and not in scheduler jitter.
pub const BLOCK: usize = 400;
const WARM_KEYS: usize = 8;
const WARM_REPEATS: usize = 20; // 160 = 40 %
const OPTIMIZE_REPEATS: usize = 5; // x 16 gallery kernels = 80 = 20 %
const HEALTH: usize = 43; // health + report = 64 = 16 %
const REPORT: usize = 21;
const COLD: usize = 44; // 11 %
const PREDICT_REPEATS: usize = 12; // x 3 bodies = 36 = 9 %
const HIER_REPEATS: usize = 2; // x 8 warm keys = 16 = 4 %

/// Blocks per run. Every block needs fresh cold keys, and the cold pool
/// holds exactly this many blocks' worth.
pub const BLOCKS: u64 = 4;
/// Requests of the warm-up against the throwaway server.
const WARMUP_REQUESTS: usize = 200;

const MEASURE_APPS: [&str; 3] = ["ADI", "Swim", "Tomcatv"];
const COLD_SIZES: std::ops::RangeInclusive<i64> = 24..=200;
const WARM_SIZES: std::ops::RangeInclusive<i64> = 32..=64;

/// The two-loop stream program of `static_bench.rs`.
const STREAM: &str = "
program stream
param N
array A[N], B[N], C[N]

for i = 1, N {
  B[i] = f(A[i])
}
for i = 1, N {
  C[i] = g(B[i], C[i])
}
";

/// The 1-D bodies `predict` is asked about. 2-D bodies are excluded:
/// `gcrc --static` on laplace, mmul and Swim did not finish in 30 s.
pub fn predict_bodies() -> Vec<(&'static str, String)> {
    let kernel = |name: &str| {
        gcr_apps::gallery_kernel(name)
            .unwrap_or_else(|| panic!("no gallery kernel named {name}"))
            .source
            .to_string()
    };
    vec![("relax", kernel("relax")), ("histogram", kernel("histogram")), ("stream", STREAM.into())]
}

/// Request classes, the per-verb rows of the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Health,
    Report,
    Optimize,
    MeasureWarm,
    MeasureCold,
    MeasureHier,
    Predict,
}

pub struct Item {
    pub class: Class,
    pub request: Request,
    /// Identity of the request, the key of its output.
    pub key: String,
}

fn item(class: Class, request: Request) -> Item {
    let headers: Vec<String> = request.headers.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let key =
        format!("{} {} #{:016x}", request.verb, headers.join(" "), fnv64(request.body.as_bytes()));
    Item { class, request, key }
}

fn measure(app: &str, strategy: &str, size: i64) -> Request {
    Request::new("measure")
        .with("app", app)
        .with("strategy", strategy)
        .with("size", size)
        .with("steps", 1)
}

/// Everything the seed decides for one server's lifetime.
pub struct Mix {
    /// `(app, strategy, size)` of the keys warmed during set-up.
    pub warm: Vec<(&'static str, &'static str, i64)>,
    /// The cold pool in groups of [`BLOCKS`] neighbours by size, each group
    /// in seeded order; block `b` takes element `b` of every group.
    cold: Vec<Vec<(&'static str, i64)>>,
    seed: u64,
    quick: bool,
}

/// Sizes of one app's keys: a cold key has `(size + app) % 3 == 0` and a
/// warm one `== 1`, so a warm key is never in the cold pool.
fn residue(app: usize, size: i64) -> i64 {
    (size + app as i64) % 3
}

impl Mix {
    pub fn new(plan: &Plan) -> Mix {
        let mut rng = plan.rng();
        // Warm keys: eight sizes spread over 32..=64, the same for every
        // seed. The hierarchy requests simulate at these sizes and the
        // largest of them sit in the latency tail; drawn by the seed within
        // a stratum of four, they moved `lat_p99_ms` by 7 %.
        let width = (WARM_SIZES.end() - WARM_SIZES.start() + 1) / WARM_KEYS as i64;
        let strategies = ["fuse+group", "original", "fuse"];
        let warm = (0..WARM_KEYS)
            .map(|k| {
                let lo = WARM_SIZES.start() + k as i64 * width;
                let size = (lo..lo + width)
                    .find(|&n| residue(k % 3, n) == 1)
                    .expect("three consecutive sizes hold every residue");
                (MEASURE_APPS[k % 3], strategies[(k / 3) % 3], size)
            })
            .collect();
        // Cold keys: the same pool for every seed, a third of all
        // (app, size) pairs over 24..=200, so that the latency tail is made
        // of the same requests in every run. The seed deals each group of
        // four neighbours out to the four blocks, which keeps the blocks
        // equally heavy.
        let mut pool: Vec<(&'static str, i64)> = COLD_SIZES
            .flat_map(|size| {
                MEASURE_APPS
                    .iter()
                    .enumerate()
                    .filter(move |&(a, _)| residue(a, size) == 0)
                    .map(move |(_, &app)| (app, size))
            })
            .collect();
        let spare = pool.len() - COLD * BLOCKS as usize;
        pool.drain(..spare);
        let cold = pool
            .chunks(BLOCKS as usize)
            .map(|group| {
                let mut group = group.to_vec();
                shuffle(&mut rng, &mut group);
                group
            })
            .collect();
        Mix { warm, cold, seed: plan.seed, quick: plan.quick }
    }

    pub fn warm_requests(&self) -> impl Iterator<Item = Request> + '_ {
        self.warm.iter().map(|&(app, strategy, size)| measure(app, strategy, size))
    }

    /// Block `block` of the mix, in seeded order. Cold keys are fresh in
    /// every block of one server; everything else repeats. A quick run
    /// keeps the first quarter of the shuffled block.
    pub fn block(&self, block: u64) -> Vec<Item> {
        assert!(block < BLOCKS, "only {BLOCKS} blocks of cold keys per server");
        let mut rng = Rng::for_iteration(self.seed, 1000 + block);
        let mut items = Vec::with_capacity(BLOCK);
        for req in self.warm_requests() {
            for _ in 0..WARM_REPEATS {
                items.push(item(Class::MeasureWarm, req.clone()));
            }
            for _ in 0..HIER_REPEATS {
                items.push(item(Class::MeasureHier, req.clone().with("hierarchy", HIERARCHY)));
            }
        }
        for k in gcr_apps::gallery() {
            for _ in 0..OPTIMIZE_REPEATS {
                items.push(item(
                    Class::Optimize,
                    Request::new("optimize").with("strategy", "fuse+group").with_body(k.source),
                ));
            }
        }
        for _ in 0..HEALTH {
            items.push(item(Class::Health, Request::new("health")));
        }
        for _ in 0..REPORT {
            items.push(item(Class::Report, Request::new("report")));
        }
        for group in &self.cold {
            let (app, size) = group[block as usize];
            items.push(item(Class::MeasureCold, measure(app, "fuse+group", size)));
        }
        for (_, body) in predict_bodies() {
            for repeat in 0..PREDICT_REPEATS {
                // The model is fitted per request; evaluation is closed
                // form, so the size asked for does not move the cost.
                let size = 1_000 * 10_i64.pow(repeat as u32 % 4);
                items.push(item(
                    Class::Predict,
                    Request::new("predict").with("size", size).with_body(body.clone()),
                ));
            }
        }
        assert_eq!(items.len(), BLOCK);
        shuffle(&mut rng, &mut items);
        if self.quick {
            items.truncate(BLOCK / 4);
        }
        items
    }
}

// ---------------------------------------------------------------------------
// The in-process server
// ---------------------------------------------------------------------------

static SOCKETS: AtomicU64 = AtomicU64::new(0);

/// A running server with its one client.
pub struct Live {
    pub server: Arc<Server>,
    thread: std::thread::JoinHandle<()>,
    pub client: Client,
}

impl Live {
    pub fn start() -> Live {
        std::fs::create_dir_all("benchmark/out").expect("create benchmark/out");
        // Relative, so that the path stays under the 108 bytes a unix
        // socket address holds wherever the checkout lives.
        let socket = format!(
            "benchmark/out/serve-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        );
        let server = Arc::new(Server::new(ServerConfig::default(), MeasureCache::new()));
        let thread = {
            let (server, socket) = (Arc::clone(&server), socket.clone());
            std::thread::spawn(move || server.serve_unix(&socket).expect("serve on unix socket"))
        };
        let mut client =
            Client::connect_with_retry(&socket, Duration::from_secs(10)).expect("connect");
        client.set_deadline(Duration::from_secs(60)).expect("set read timeout");
        Live { server, thread, client }
    }

    /// One request, the response read in full. A transport error reads as
    /// a failed request.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.client.call(req).map_err(|e| e.to_string())
    }

    pub fn stop(mut self) {
        let _ = self.call(&Request::new("shutdown"));
        drop(self.client);
        self.thread.join().expect("server thread");
        if let Ok(server) = Arc::try_unwrap(self.server) {
            server.finish().expect("drain the pool");
        }
    }
}

/// Health and report bodies carry uptime and live counters; every other
/// body is a pure function of its request.
fn body_is_deterministic(class: Class) -> bool {
    !matches!(class, Class::Health | Class::Report)
}

pub struct ServeRunner {
    mix: Mix,
    live: Option<Live>,
    /// Output hash of each warm `measure`, as seen during set-up.
    warmed: BTreeMap<String, u64>,
    warm_bodies: Vec<String>,
}

impl Runner for ServeRunner {
    const PASSES: u64 = BLOCKS;
    // A second cycle would need cold keys the strata do not hold.
    const MAX_CYCLES: usize = 1;

    fn setup(plan: &Plan) -> ServeRunner {
        let mix = Mix::new(plan);
        // Warm-up against a throwaway server, so that the real one starts
        // with exactly the eight warm keys in its cache.
        let mut throwaway = Live::start();
        for it in mix.block(0).iter().take(WARMUP_REQUESTS) {
            std::hint::black_box(throwaway.call(&it.request).ok());
        }
        throwaway.stop();

        let mut live = Live::start();
        let mut warmed = BTreeMap::new();
        let mut warm_bodies = Vec::new();
        for req in mix.warm_requests() {
            let resp = live.call(&req).expect("pre-warm request");
            assert!(resp.is_ok(), "pre-warm failed: {}", resp.body);
            warmed.insert(item(Class::MeasureWarm, req).key, fnv64(resp.body.as_bytes()));
            warm_bodies.push(resp.body);
        }
        ServeRunner { mix, live: Some(live), warmed, warm_bodies }
    }

    fn pass(&mut self, pass: u64, rec: &mut Recorder) -> f64 {
        let items = self.mix.block(pass);
        let live = self.live.as_mut().expect("server is up");
        let mut responses = Vec::with_capacity(items.len());
        let started = Instant::now();
        for it in &items {
            let t = Instant::now();
            let resp = live.call(&it.request);
            rec.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            responses.push(resp);
        }
        let wall = started.elapsed().as_secs_f64();
        for (it, resp) in items.iter().zip(responses) {
            match resp {
                Ok(resp) if resp.is_ok() => {
                    rec.op(None);
                    if body_is_deterministic(it.class) {
                        rec.output(&it.key, &resp.body);
                    }
                    if let Some(&seen) = self.warmed.get(&it.key) {
                        rec.check(seen == fnv64(resp.body.as_bytes()), || {
                            format!("{}: warm body differs from the one seen in set-up", it.key)
                        });
                    }
                }
                Ok(resp) => rec.op(Some(format!("{}: {}", it.key, resp.body.trim()))),
                Err(e) => rec.op(Some(format!("{}: {e}", it.key))),
            }
        }
        wall
    }

    fn check(&mut self, rec: &mut Recorder) {
        // The daemon's numbers against a plain interpreter run of the same
        // program through the same simulated hierarchy.
        for (&(app, strategy, size), body) in self.mix.warm.iter().zip(&self.warm_bodies) {
            let verdict = reference_counts(app, strategy, size).and_then(|want| {
                let got = Json::parse(body)?;
                let got = ["l1", "l2", "tlb", "memory_traffic"].map(|k| as_u64(got.get(k)));
                if got == want.map(Some) {
                    Ok(())
                } else {
                    Err(format!("daemon {got:?}, interpreter {want:?}"))
                }
            });
            rec.op(verdict.err().map(|why| format!("measure {app}/{strategy}@{size}: {why}")));
        }
        // The daemon's own books must agree with the client's.
        let live = self.live.as_mut().expect("server is up");
        let report =
            live.call(&Request::new("report")).ok().and_then(|r| Json::parse(&r.body).ok());
        let errors = report.as_ref().and_then(|r| match r.get("errors")? {
            Json::O(fields) => {
                Some(fields.iter().map(|(_, v)| as_u64(Some(v)).unwrap_or(0)).sum::<u64>())
            }
            _ => None,
        });
        rec.check(errors == Some(0), || format!("daemon counted errors: {errors:?}"));
    }

    fn describe(&self) -> Json {
        Json::O(vec![
            ("clients", Json::U(1)),
            ("server_workers", Json::U(ServerConfig::default().workers as u64)),
            ("requests_per_block", Json::U(BLOCK as u64)),
            ("warmup_requests", Json::U(WARMUP_REQUESTS as u64)),
            (
                "warm_keys",
                Json::A(
                    self.mix
                        .warm
                        .iter()
                        .map(|(app, strategy, size)| Json::S(format!("{app}/{strategy}@{size}")))
                        .collect(),
                ),
            ),
        ])
    }

    fn teardown(mut self) {
        if let Some(live) = self.live.take() {
            live.stop();
        }
    }
}

/// `[l1, l2, tlb, memory_traffic]` of one `measure` key, from the reference
/// interpreter feeding the plain (unphased) hierarchy sink.
fn reference_counts(app: &str, strategy: &str, size: i64) -> Result<[u64; 4], String> {
    let apps = gcr_apps::evaluation_apps();
    let app = apps.iter().find(|a| a.name == app).ok_or("unknown app")?;
    let strategy = Strategy::from_name(strategy).ok_or("unknown strategy")?;
    let (prog, bind) = (app.build)(size);
    let opt = gcr_core::pipeline::apply_strategy(&prog, strategy);
    let layout = opt.layout(&bind);
    let mut machine =
        Machine::with_layout(&opt.program, bind, layout).with_engine(ExecEngine::Interp);
    let mut sink =
        HierarchySink::new(MemoryHierarchy::origin2000_scaled(app.l1_scale, app.l2_scale));
    machine.run_steps_guarded(&mut sink, 1, gcr_bench::MEASURE_FUEL).map_err(|e| e.to_string())?;
    let c = sink.hierarchy.counts();
    Ok([c.l1, c.l2, c.tlb, c.memory_traffic])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn keys(seed: u64, block: u64) -> Vec<String> {
        let plan = Plan { workload: Workload::ServeMix, seed, quick: false };
        Mix::new(&plan).block(block).into_iter().map(|i| i.key).collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_sequence() {
        assert_eq!(keys(5, 0), keys(5, 0));
        assert_eq!(keys(5, 3), keys(5, 3));
        assert_ne!(keys(5, 0), keys(6, 0));
        assert_ne!(keys(5, 0), keys(5, 1));
    }

    #[test]
    fn cold_keys_never_repeat_on_one_server() {
        let plan = Plan { workload: Workload::ServeMix, seed: 9, quick: false };
        let mix = Mix::new(&plan);
        let mut seen = std::collections::BTreeSet::new();
        for b in 0..BLOCKS {
            for it in mix.block(b).iter().filter(|i| i.class == Class::MeasureCold) {
                assert!(seen.insert(it.key.clone()), "{} drawn twice", it.key);
                let size: i64 = it.request.header("size").unwrap().parse().unwrap();
                assert!(COLD_SIZES.contains(&size));
            }
        }
        assert_eq!(seen.len(), COLD * BLOCKS as usize);
        // ... and never collide with a warm key, whatever its strategy.
        for (app, _, size) in &mix.warm {
            assert!(WARM_SIZES.contains(size));
            let cold = item(Class::MeasureCold, measure(app, "fuse+group", *size)).key;
            assert!(!seen.contains(&cold), "{cold} is warm");
        }
    }

    #[test]
    fn every_seed_runs_the_same_cold_requests() {
        let cold_of = |seed| {
            let plan = Plan { workload: Workload::ServeMix, seed, quick: false };
            let mix = Mix::new(&plan);
            let mut keys: Vec<String> = (0..BLOCKS)
                .flat_map(|b| mix.block(b))
                .filter(|i| i.class == Class::MeasureCold)
                .map(|i| i.key)
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(cold_of(3), cold_of(4));
    }

    #[test]
    fn the_mix_has_its_shares() {
        let block = {
            let plan = Plan { workload: Workload::ServeMix, seed: 1, quick: false };
            Mix::new(&plan).block(0)
        };
        let count = |c: Class| block.iter().filter(|i| i.class == c).count();
        assert_eq!(block.len(), BLOCK);
        assert_eq!(count(Class::MeasureWarm), 160);
        assert_eq!(count(Class::Optimize), 80);
        assert_eq!(count(Class::Health) + count(Class::Report), 64);
        assert_eq!(count(Class::MeasureCold), 44);
        assert_eq!(count(Class::Predict), 36);
        assert_eq!(count(Class::MeasureHier), 16);
    }
}
