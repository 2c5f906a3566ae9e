//! The daemon: request dispatch, admission control, isolation, shutdown.
//!
//! One [`Server`] owns a [`gcr_par::Pool`] (the execution substrate) and a
//! shared [`MeasureCache`] (the crash-safe measurement store). Requests
//! arrive as protocol frames over a transport ([`Server::serve_stdio`] or
//! [`Server::serve_unix`]); each one is parsed, admitted through the
//! bounded queue, and executed on a pool worker while the connection
//! thread waits with a deadline:
//!
//! * queue full → `err overloaded`, shed before any work starts;
//! * deadline or interpreter fuel exhausted → `err timeout` with the
//!   budget in the diagnostic body (the orphaned job finishes on its
//!   worker and is absorbed — its cache insert is kept);
//! * handler panic → `err panic`; the unwind is caught on the worker
//!   ([`gcr_par::isolate::run_isolated`]), the worker survives, and a
//!   poisoned cache lock is recovered on next touch, so one poisoned
//!   request cannot wedge the ones after it.
//!
//! `shutdown` flips the draining flag: new work is refused with
//! `err shutting-down`, transports stop accepting, in-flight connections
//! finish, and [`Server::finish`] joins the pool **before** flushing the
//! measurement cache — orphaned jobs complete first, so their results are
//! persisted too.

use crate::proto::{read_frame, write_frame, ErrCode, FrameIn, ProtoError, Request, Response};
use gcr_bench::sweep::{measure_version, MeasureCache};
use gcr_cli::report::Json;
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::Strategy;
use gcr_ir::GcrError;
use gcr_par::fault::{self, FaultPoint};
use gcr_par::{Pool, PoolFull};
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request-size sanity bounds: the daemon is an optimization service, not
/// a batch simulator, so it refuses geometries that would pin a worker
/// for minutes. Larger experiments belong to the experiment binaries.
pub const MAX_SIZE: i64 = 512;
/// Upper bound on the `steps` header.
pub const MAX_STEPS: usize = 16;
/// Upper bound on the `deadline_ms` header.
pub const MAX_DEADLINE_MS: u64 = 600_000;
/// Upper bound on the `size` header of `predict`. Far beyond [`MAX_SIZE`]
/// because the symbolic model evaluates in microseconds regardless of the
/// size; only its one-time probe fits cost simulation time, and those run
/// at small fixed sizes.
pub const MAX_PREDICT_SIZE: i64 = 1_000_000_000;
/// Capacity ladder `predict` models, matching the `gcrc --static` sweep.
pub const PREDICT_CAPACITIES: [u64; 4] = [256, 1024, 4096, 16384];

/// Tunables fixed at construction.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Pool worker threads.
    pub workers: usize,
    /// Bounded admission-queue depth; the shed threshold.
    pub queue: usize,
    /// Deadline for requests that do not send `deadline_ms`.
    pub default_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { workers: 2, queue: 8, default_deadline_ms: 30_000 }
    }
}

/// A running optimization service (transport-independent).
pub struct Server {
    cfg: ServerConfig,
    pool: Pool,
    cache: Arc<MeasureCache>,
    started: Instant,
    shutting_down: AtomicBool,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: [AtomicU64; ErrCode::ALL.len()],
    dropped_connections: AtomicU64,
}

fn code_index(code: ErrCode) -> usize {
    ErrCode::ALL.iter().position(|&c| c == code).expect("catalogued code")
}

impl Server {
    /// A server over the given cache (usually [`MeasureCache::from_env`],
    /// so `GCR_MEASURE_CACHE` selects the persistent store).
    pub fn new(cfg: ServerConfig, cache: MeasureCache) -> Server {
        Server {
            pool: Pool::new(cfg.workers, cfg.queue),
            cfg,
            cache: Arc::new(cache),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: Default::default(),
            dropped_connections: AtomicU64::new(0),
        }
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// The shared measurement cache.
    pub fn cache(&self) -> &MeasureCache {
        &self.cache
    }

    /// Drains the pool (orphaned jobs finish), then flushes the cache.
    /// The flush order matters: a timed-out measurement that completes
    /// during the drain still lands in the persisted store.
    pub fn finish(self) -> std::io::Result<()> {
        let Server { pool, cache, .. } = self;
        pool.drain();
        cache.save()
    }

    // -- dispatch -----------------------------------------------------------

    /// Handles one raw frame payload and produces the response frame.
    pub fn handle(&self, payload: &[u8]) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let req = match Request::parse(payload) {
            Ok(req) => req,
            Err(ProtoError::WrongVersion(v)) => {
                return self.err(
                    ErrCode::UnsupportedVersion,
                    format!("this server speaks {}, not {v}", crate::proto::PROTO),
                    vec![("supported", Json::S(crate::proto::PROTO.into()))],
                )
            }
            Err(e) => return self.err(ErrCode::BadRequest, e.to_string(), vec![]),
        };
        // Introspection verbs stay available while draining; work does not.
        let draining = self.shutting_down();
        match req.verb.as_str() {
            "health" => self.health(),
            "report" => self.report(),
            "shutdown" => {
                self.shutting_down.store(true, Ordering::Relaxed);
                self.ok_resp(Json::O(vec![("draining", Json::Bool(true))]))
            }
            _ if draining => {
                self.err(ErrCode::ShuttingDown, "server is draining; no new work".into(), vec![])
            }
            "optimize" => self.optimize(&req),
            "measure" => self.measure(&req),
            "predict" => self.predict(&req),
            other => self.err(ErrCode::BadRequest, format!("unknown verb {other:?}"), vec![]),
        }
    }

    fn ok_resp(&self, body: Json) -> Response {
        self.ok.fetch_add(1, Ordering::Relaxed);
        Response { code: None, body: body.render() }
    }

    fn err(&self, code: ErrCode, message: String, extra: Vec<(&'static str, Json)>) -> Response {
        self.errors[code_index(code)].fetch_add(1, Ordering::Relaxed);
        let mut fields =
            vec![("error", Json::S(code.name().into())), ("message", Json::S(message))];
        fields.extend(extra);
        Response { code: Some(code), body: Json::O(fields).render() }
    }

    // -- verbs --------------------------------------------------------------

    fn health(&self) -> Response {
        self.ok_resp(Json::O(vec![
            ("status", Json::S(if self.shutting_down() { "draining" } else { "ok" }.into())),
            ("uptime_ms", Json::U(self.started.elapsed().as_millis() as u64)),
            ("workers", Json::U(self.cfg.workers as u64)),
            ("queue", Json::U(self.cfg.queue as u64)),
        ]))
    }

    fn report(&self) -> Response {
        let cache = self.cache.counters();
        let errors: Vec<(&'static str, Json)> = ErrCode::ALL
            .iter()
            .map(|&c| (c.name(), Json::U(self.errors[code_index(c)].load(Ordering::Relaxed))))
            .collect();
        self.ok_resp(Json::O(vec![
            ("schema", Json::S("gcr-serve-report/v1".into())),
            ("uptime_ms", Json::U(self.started.elapsed().as_millis() as u64)),
            ("requests", Json::U(self.requests.load(Ordering::Relaxed))),
            ("ok", Json::U(self.ok.load(Ordering::Relaxed))),
            ("errors", Json::O(errors)),
            ("isolated_panics", Json::U(self.pool.isolated_panics())),
            ("dropped_connections", Json::U(self.dropped_connections.load(Ordering::Relaxed))),
            ("faults_injected", Json::U(fault::injected_total())),
            (
                "cache",
                Json::O(vec![
                    ("hits", Json::U(cache.hits)),
                    ("misses", Json::U(cache.misses)),
                    ("evictions", Json::U(cache.evictions)),
                    ("corrupt", Json::U(cache.corrupt)),
                    ("poisoned", Json::U(cache.poisoned)),
                ]),
            ),
        ]))
    }

    fn optimize(&self, req: &Request) -> Response {
        let strategy = match self.strategy_of(req) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let deadline = match self.deadline_of(req) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        if req.body.trim().is_empty() {
            return self.err(
                ErrCode::BadRequest,
                "optimize needs the program source as the request body".into(),
                vec![],
            );
        }
        let source = req.body.clone();
        let result = self.run_pooled(deadline, move || -> Result<Json, GcrError> {
            let prog = gcr_frontend::parse(&source)?;
            let mut tracer = gcr_core::Tracer::enabled();
            let opt = apply_strategy_checked_traced(
                &prog,
                strategy,
                &SafetyOptions::default(),
                &mut tracer,
            )?;
            let diagnostics = Json::A(opt.robustness.describe().into_iter().map(Json::S).collect());
            Ok(Json::O(vec![
                ("requested", Json::S(strategy.label())),
                ("delivered", Json::S(opt.robustness.strategy.clone())),
                ("program", Json::S(gcr_ir::print::print_program(&opt.program))),
                ("diagnostics", diagnostics),
            ]))
        });
        match result {
            Ok(Ok(body)) => self.ok_resp(body),
            Ok(Err(e)) => self.pipeline_err(e),
            Err(resp) => resp,
        }
    }

    fn measure(&self, req: &Request) -> Response {
        let Some(app_name) = req.header("app").map(str::to_string) else {
            return self.err(ErrCode::BadRequest, "measure needs an `app` header".into(), vec![]);
        };
        if !gcr_apps::evaluation_apps().iter().any(|a| a.name.eq_ignore_ascii_case(&app_name)) {
            let known: Vec<Json> =
                gcr_apps::evaluation_apps().iter().map(|a| Json::S(a.name.into())).collect();
            return self.err(
                ErrCode::BadRequest,
                format!("unknown app {app_name:?}"),
                vec![("known", Json::A(known))],
            );
        }
        let strategy = match self.strategy_of(req) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let deadline = match self.deadline_of(req) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        let size = match self.header_int(req, "size", 12, 8, MAX_SIZE) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let steps = match self.header_int(req, "steps", 1, 1, MAX_STEPS as i64) {
            Ok(v) => v as usize,
            Err(resp) => return resp,
        };
        let hier = match self.hierarchy_of(req) {
            Ok(h) => h,
            Err(resp) => return resp,
        };
        let cache = Arc::clone(&self.cache);
        let result = self.run_pooled(deadline, move || -> Result<Json, GcrError> {
            let apps = gcr_apps::evaluation_apps();
            let app = apps
                .iter()
                .find(|a| a.name.eq_ignore_ascii_case(&app_name))
                .expect("validated above");
            // One checked optimization serves both the memoized counters
            // and the descriptor's run.
            let (m, _report, diagnostics, run) = measure_version(
                &cache,
                "gcr-serve",
                app,
                strategy,
                size,
                steps,
                gcr_exec::ExecEngine::from_env()?,
                hier.as_ref(),
            )?;
            let mut body = vec![
                ("app", Json::S(app.name.into())),
                ("strategy", Json::S(m.label.clone())),
                ("size", Json::I(size)),
                ("steps", Json::U(steps as u64)),
                ("cycles", Json::F(m.cycles)),
                ("flops", Json::U(m.stats.flops)),
                ("l1", Json::U(m.misses.l1)),
                ("l2", Json::U(m.misses.l2)),
                ("tlb", Json::U(m.misses.tlb)),
                ("memory_traffic", Json::U(m.misses.memory_traffic)),
                ("diagnostics", Json::A(diagnostics.into_iter().map(Json::S).collect())),
            ];
            if let Some(run) = run {
                body.push(("hierarchy", hierarchy_body(&run)));
            }
            Ok(Json::O(body))
        });
        match result {
            Ok(Ok(body)) => self.ok_resp(body),
            Ok(Err(e)) => self.pipeline_err(e),
            Err(resp) => resp,
        }
    }

    /// `predict`: evaluate the analytic reuse model of [`gcr_static`] at
    /// one size. Sizes range up to [`MAX_PREDICT_SIZE`] — three orders of
    /// magnitude past what `measure` will simulate — because evaluation
    /// is closed-form; the worker only spends simulation time on the
    /// model's small fixed-size probe fits. Programs the model cannot
    /// analyze fall back to one direct capacity-sweep simulation when
    /// `fallback=sim` (the default) and the size is within [`MAX_SIZE`];
    /// otherwise the answer is `err not-analyzable`.
    fn predict(&self, req: &Request) -> Response {
        let strategy = match self.strategy_of(req) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let deadline = match self.deadline_of(req) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        if req.body.trim().is_empty() {
            return self.err(
                ErrCode::BadRequest,
                "predict needs the program source as the request body".into(),
                vec![],
            );
        }
        let size = match self.header_int(req, "size", 1_000_000, 8, MAX_PREDICT_SIZE) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let steps = match self.header_int(req, "steps", 1, 1, MAX_STEPS as i64) {
            Ok(v) => v as usize,
            Err(resp) => return resp,
        };
        let fallback = match req.header("fallback").unwrap_or("sim") {
            "sim" => true,
            "none" => false,
            other => {
                return self.err(
                    ErrCode::BadRequest,
                    format!("bad fallback {other:?} (expected `sim` or `none`)"),
                    vec![],
                )
            }
        };
        let hier = match self.hierarchy_of(req) {
            Ok(h) => h,
            Err(resp) => return resp,
        };
        if hier.is_some() && size > MAX_SIZE {
            return self.err(
                ErrCode::BadRequest,
                format!(
                    "hierarchy descriptors are answered by direct simulation, \
                     which is bounded at size {MAX_SIZE} (requested {size})"
                ),
                vec![],
            );
        }
        let source = req.body.clone();
        let result = self.run_pooled(deadline, move || -> Result<Json, gcr_static::StaticError> {
            let prog = gcr_frontend::parse(&source).map_err(GcrError::from)?;
            let mut tracer = gcr_core::Tracer::disabled();
            let opt = apply_strategy_checked_traced(
                &prog,
                strategy,
                &SafetyOptions::default(),
                &mut tracer,
            )?;
            if let Some(hspec) = hier {
                // No symbolic model covers set-associative multi-level
                // hierarchies; the descriptor is answered by one exact
                // simulation at the requested (bounded) size.
                let bind = gcr_ir::ParamBinding::new(vec![size; opt.program.params.len()]);
                let layout = opt.layout(&bind);
                let run = gcr_cache::measure_hierarchy(
                    &opt.program,
                    bind,
                    layout,
                    gcr_exec::ExecEngine::default(),
                    steps,
                    gcr_static::DEFAULT_PROBE_FUEL,
                    &hspec,
                )
                .map_err(gcr_static::StaticError::Gcr)?;
                return Ok(Json::O(vec![
                    ("size", Json::I(size)),
                    ("steps", Json::U(steps as u64)),
                    ("method", Json::S("simulation".into())),
                    ("hierarchy", hierarchy_body(&run)),
                ]));
            }
            let spec = gcr_static::SweepSpec::new(32, PREDICT_CAPACITIES.to_vec(), steps);
            let analysis = gcr_static::Analyzer::analyze_with(
                &opt.program,
                spec,
                gcr_exec::ExecEngine::default(),
                gcr_static::DEFAULT_PROBE_FUEL,
                |b| opt.layout(b),
            )
            .and_then(|a| {
                let p = a.predict(size)?;
                Ok(prediction_body(&opt.program, a.model(), &p))
            });
            match analysis {
                Err(gcr_static::StaticError::NotAnalyzable { reason })
                    if fallback && size <= MAX_SIZE =>
                {
                    // One direct sweep simulation stands in for the
                    // missing model: exact, but only at this size.
                    let bind = gcr_ir::ParamBinding::new(vec![size; opt.program.params.len()]);
                    let layout = opt.layout(&bind);
                    let mut m = gcr_exec::Machine::capped(
                        &opt.program,
                        bind,
                        layout,
                        gcr_exec::ExecEngine::default(),
                    )
                    .map_err(gcr_static::StaticError::Gcr)?;
                    let mut sink = gcr_cache::CapacitySweepSink::new(32, &PREDICT_CAPACITIES);
                    m.run_steps_guarded(&mut sink, steps, gcr_static::DEFAULT_PROBE_FUEL)
                        .map_err(gcr_static::StaticError::Gcr)?;
                    let caps: Vec<Json> = sink
                        .miss_counts()
                        .into_iter()
                        .map(|(cap, misses)| {
                            Json::O(vec![
                                ("capacity_bytes", Json::U(cap)),
                                ("misses", Json::U(misses)),
                            ])
                        })
                        .collect();
                    Ok(Json::O(vec![
                        ("size", Json::I(size)),
                        ("steps", Json::U(steps as u64)),
                        ("line_bytes", Json::U(32)),
                        ("method", Json::S("simulation".into())),
                        ("class", Json::S("exact".into())),
                        ("tolerance", Json::F(0.0)),
                        ("fallback_reason", Json::S(reason)),
                        ("refs", Json::U(sink.refs())),
                        ("capacities", Json::A(caps)),
                    ]))
                }
                other => other,
            }
        });
        match result {
            Ok(Ok(body)) => self.ok_resp(body),
            Ok(Err(gcr_static::StaticError::NotAnalyzable { reason })) => self.err(
                ErrCode::NotAnalyzable,
                reason,
                vec![("size", Json::I(size)), ("max_sim_size", Json::I(MAX_SIZE))],
            ),
            Ok(Err(gcr_static::StaticError::Gcr(e))) => self.pipeline_err(e),
            Err(resp) => resp,
        }
    }

    /// Maps a pipeline error to a response code: fuel exhaustion is the
    /// request blowing its compute budget (`timeout`), a parse error is
    /// the client's fault (`bad-request`), everything else is `internal`.
    fn pipeline_err(&self, e: GcrError) -> Response {
        match e {
            GcrError::BudgetExceeded { resource, limit } => self.err(
                ErrCode::Timeout,
                format!("budget exceeded: {resource} limit {limit}"),
                vec![("budget", Json::S(resource.to_string())), ("limit", Json::U(limit))],
            ),
            GcrError::Parse { .. } | GcrError::Usage(_) => {
                self.err(ErrCode::BadRequest, e.to_string(), vec![])
            }
            e => self.err(ErrCode::Internal, e.to_string(), vec![]),
        }
    }

    // -- execution ----------------------------------------------------------

    /// Submits `job` through the admission queue and waits for its result
    /// up to `deadline`. Every failure mode is already converted to a
    /// counted error response: shed (`overloaded`), expired
    /// (`timeout` + diagnostic), or panicked (`panic`).
    fn run_pooled<T: Send + 'static>(
        &self,
        deadline: Duration,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, Response> {
        let (tx, rx) = channel();
        let started = Instant::now();
        // If the job panics on the worker, `tx` is dropped without a send
        // and the wait below sees `Disconnected` — that is the panic signal.
        self.pool
            .try_submit(move || {
                let _ = tx.send(job());
            })
            .map_err(|PoolFull| {
                self.err(
                    ErrCode::Overloaded,
                    "admission queue full; request shed".into(),
                    vec![("queue", Json::U(self.cfg.queue as u64))],
                )
            })?;
        match rx.recv_timeout(deadline) {
            Ok(v) => Ok(v),
            Err(RecvTimeoutError::Timeout) => Err(self.err(
                ErrCode::Timeout,
                format!("deadline of {} ms expired", deadline.as_millis()),
                vec![
                    ("deadline_ms", Json::U(deadline.as_millis() as u64)),
                    ("elapsed_ms", Json::U(started.elapsed().as_millis() as u64)),
                ],
            )),
            Err(RecvTimeoutError::Disconnected) => Err(self.err(
                ErrCode::Panic,
                "request handler panicked; the panic was isolated".into(),
                vec![],
            )),
        }
    }

    // -- header parsing -----------------------------------------------------

    fn strategy_of(&self, req: &Request) -> Result<Strategy, Response> {
        let name = req.header("strategy").unwrap_or("fuse+group");
        Strategy::from_name(name).ok_or_else(|| {
            self.err(ErrCode::BadRequest, format!("unknown strategy {name:?}"), vec![])
        })
    }

    fn deadline_of(&self, req: &Request) -> Result<Duration, Response> {
        let ms = match req.header("deadline_ms") {
            None => self.cfg.default_deadline_ms,
            Some(v) => v.parse::<u64>().map_err(|_| {
                self.err(ErrCode::BadRequest, format!("bad deadline_ms {v:?}"), vec![])
            })?,
        };
        Ok(Duration::from_millis(ms.clamp(1, MAX_DEADLINE_MS)))
    }

    /// Parses the optional `hierarchy` header into a validated descriptor.
    fn hierarchy_of(&self, req: &Request) -> Result<Option<gcr_cache::HierarchySpec>, Response> {
        match req.header("hierarchy") {
            None => Ok(None),
            Some(desc) => gcr_cache::HierarchySpec::parse(desc).map(Some).map_err(|why| {
                self.err(ErrCode::BadRequest, format!("bad hierarchy descriptor: {why}"), vec![])
            }),
        }
    }

    fn header_int(
        &self,
        req: &Request,
        key: &str,
        default: i64,
        lo: i64,
        hi: i64,
    ) -> Result<i64, Response> {
        let v = match req.header(key) {
            None => return Ok(default),
            Some(v) => v
                .parse::<i64>()
                .map_err(|_| self.err(ErrCode::BadRequest, format!("bad {key} {v:?}"), vec![]))?,
        };
        if !(lo..=hi).contains(&v) {
            return Err(self.err(
                ErrCode::BadRequest,
                format!("{key}={v} outside [{lo}, {hi}]"),
                vec![],
            ));
        }
        Ok(v)
    }

    // -- transports ---------------------------------------------------------

    /// Serves one framed connection until EOF, a torn frame, or shutdown.
    /// Transport errors end the connection, never the server.
    pub fn serve_connection(&self, r: &mut impl Read, w: &mut impl Write) -> std::io::Result<()> {
        loop {
            match read_frame(r) {
                Ok(FrameIn::Frame(payload)) => {
                    let resp = self.handle(&payload);
                    if let Err(e) = self.write_response(w, &resp) {
                        self.dropped_connections.fetch_add(1, Ordering::Relaxed);
                        eprintln!("gcr-serve: connection dropped: {e}");
                        return Ok(());
                    }
                    if self.shutting_down() {
                        return Ok(());
                    }
                }
                Ok(FrameIn::Eof) => return Ok(()),
                Ok(FrameIn::Idle) => {
                    if self.shutting_down() {
                        return Ok(());
                    }
                }
                Err(e) => {
                    // A torn inbound frame desynchronizes the stream; answer
                    // best-effort and drop the connection.
                    let resp = self.err(ErrCode::BadRequest, e.to_string(), vec![]);
                    let _ = self.write_response(w, &resp);
                    self.dropped_connections.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
        }
    }

    /// Writes a response frame. `GCR_FAULT=truncated_frame` chaos hook:
    /// when it fires, half the frame is written and the connection dies —
    /// the client-visible signature of a peer crashing mid-send.
    fn write_response(&self, w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
        let payload = resp.encode();
        if fault::fires(FaultPoint::TruncatedFrame) {
            w.write_all(&(payload.len() as u32).to_le_bytes())?;
            w.write_all(&payload[..payload.len() / 2])?;
            w.flush()?;
            return Err(std::io::Error::other("injected fault: truncated_frame"));
        }
        write_frame(w, &payload)
    }

    /// Serves frames on stdin/stdout — one connection, then drain + flush
    /// via [`Server::finish`] at the call site.
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let mut r = std::io::stdin().lock();
        let mut w = std::io::stdout().lock();
        self.serve_connection(&mut r, &mut w)
    }

    /// Binds a unix socket and serves each connection on its own thread
    /// until a `shutdown` request drains the server. In-flight
    /// connections are joined before this returns.
    pub fn serve_unix(&self, path: &str) -> std::io::Result<()> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            while !self.shutting_down() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // The read timeout turns an idle connection into
                        // periodic `FrameIn::Idle` polls of the drain flag.
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                        scope.spawn(move || {
                            let (mut r, mut w) = (&stream, &stream);
                            let _ = self.serve_connection(&mut r, &mut w);
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        eprintln!("gcr-serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
        });
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

/// Counters can exceed `u64` at predicted sizes (a 2-deep nest at
/// N = 10⁹ touches 10¹⁸ elements); JSON stays exact while the value fits
/// an integer and degrades to a float beyond that.
fn big_json(v: u128) -> Json {
    if v <= u64::MAX as u128 {
        Json::U(v as u64)
    } else {
        Json::F(v as f64)
    }
}

/// The `ok` body of a `predict` answered by the symbolic model. Field
/// names match the `prediction` section of `gcr-report/v1` so clients
/// parse both with one schema.
/// The `hierarchy` object of `measure`/`predict` bodies. Field names
/// match the `hierarchy` section of `gcr-report/v1` so clients read one
/// schema.
fn hierarchy_body(run: &gcr_cache::HierarchyRun) -> Json {
    Json::O(vec![
        ("spec", Json::S(run.spec.clone())),
        ("line_bytes", Json::U(run.line)),
        ("refs", Json::U(run.counts.refs)),
        (
            "levels",
            Json::A(
                run.configs
                    .iter()
                    .zip(&run.counts.levels)
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
        ("prefetches", Json::U(run.counts.prefetches)),
        ("memory_fills", Json::U(run.counts.memory_fills)),
        ("memory_writebacks", Json::U(run.counts.memory_writebacks)),
        ("memory_traffic", Json::U(run.counts.memory_traffic)),
        (
            "sweep",
            Json::A(
                run.sweep
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

fn prediction_body(
    prog: &gcr_ir::Program,
    m: &gcr_static::Model,
    p: &gcr_static::Prediction,
) -> Json {
    let var = prog.params.first().map_or("N", |d| d.name.as_str());
    let caps: Vec<Json> = p
        .capacities
        .iter()
        .enumerate()
        .map(|(ci, cp)| {
            let per_array: Vec<Json> = cp
                .per_array
                .iter()
                .enumerate()
                .map(|(ai, &misses)| {
                    Json::O(vec![
                        ("name", Json::S(prog.arrays[ai].name.clone())),
                        ("misses", big_json(misses)),
                    ])
                })
                .collect();
            Json::O(vec![
                ("capacity_bytes", Json::U(cp.capacity)),
                ("misses", big_json(cp.misses)),
                ("model", Json::S(m.capacities[ci].global.render_at(var, p.size))),
                ("per_array", Json::A(per_array)),
            ])
        })
        .collect();
    Json::O(vec![
        ("size", Json::I(p.size)),
        ("steps", Json::U(p.steps as u64)),
        ("line_bytes", Json::U(m.spec.line)),
        ("method", Json::S(p.method.name().into())),
        ("class", Json::S(p.class.name().into())),
        ("tolerance", Json::F(p.tolerance)),
        ("degree", Json::U(m.degree as u64)),
        ("period", Json::I(m.period)),
        ("regime_base", Json::I(m.base)),
        ("probe_sims", Json::U(m.probe_sims as u64)),
        ("refs", big_json(p.refs)),
        ("capacities", Json::A(caps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerConfig::default(), MeasureCache::new())
    }

    fn handle(s: &Server, req: &Request) -> Response {
        s.handle(&req.encode())
    }

    const DEMO: &str = "
program demo
param N
array A[N], B[N]
for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(A[i], B[i])
}
";

    #[test]
    fn health_report_and_unknown_verbs() {
        let s = server();
        let h = handle(&s, &Request::new("health"));
        assert!(h.is_ok(), "{h:?}");
        assert!(h.body.contains("\"status\": \"ok\""), "{}", h.body);
        let r = handle(&s, &Request::new("report"));
        assert!(r.body.contains("\"schema\": \"gcr-serve-report/v1\""), "{}", r.body);
        let e = handle(&s, &Request::new("frobnicate"));
        assert_eq!(e.code, Some(ErrCode::BadRequest));
        let v = s.handle(b"gcr-serve/v9 health\n\n");
        assert_eq!(v.code, Some(ErrCode::UnsupportedVersion));
    }

    #[test]
    fn optimize_returns_program_and_validates_input() {
        let s = server();
        let ok = handle(&s, &Request::new("optimize").with("strategy", "fuse").with_body(DEMO));
        assert!(ok.is_ok(), "{}", ok.body);
        assert!(ok.body.contains("\"delivered\""), "{}", ok.body);
        assert!(ok.body.contains("program demo"), "{}", ok.body);
        // Determinism: the same request must produce byte-identical output.
        let again = handle(&s, &Request::new("optimize").with("strategy", "fuse").with_body(DEMO));
        assert_eq!(ok, again);

        let bad = handle(&s, &Request::new("optimize").with("strategy", "fuse"));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "empty body");
        let bad = handle(&s, &Request::new("optimize").with("strategy", "wat").with_body(DEMO));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "unknown strategy");
        let bad = handle(&s, &Request::new("optimize").with_body("not a program"));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "parse error: {}", bad.body);
    }

    #[test]
    fn measure_hits_cache_on_repeat() {
        let s = server();
        let req = Request::new("measure")
            .with("app", "ADI")
            .with("strategy", "original")
            .with("size", 10)
            .with("steps", 1);
        let a = handle(&s, &req);
        assert!(a.is_ok(), "{}", a.body);
        assert!(a.body.contains("\"l1\""), "{}", a.body);
        let b = handle(&s, &req);
        assert_eq!(a, b, "measurement must be deterministic");
        let c = s.cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1), "second request must hit the cache");

        let bad = handle(&s, &Request::new("measure").with("app", "nope"));
        assert_eq!(bad.code, Some(ErrCode::BadRequest));
        let bad = handle(&s, &Request::new("measure").with("app", "ADI").with("size", 100_000));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "size bound");
    }

    #[test]
    fn measure_accepts_hierarchy_descriptors() {
        let s = server();
        let req = Request::new("measure")
            .with("app", "ADI")
            .with("strategy", "original")
            .with("size", 10)
            .with("steps", 1)
            .with("hierarchy", "l1=512/32/4,l2=4K/128/fa,prefetch=next-line");
        let a = handle(&s, &req);
        assert!(a.is_ok(), "{}", a.body);
        assert!(a.body.contains("\"hierarchy\""), "{}", a.body);
        assert!(
            a.body.contains(
                "\"spec\": \"l1=512/32/4,l2=4K/128/fa,policy=inclusive,prefetch=next-line\""
            ),
            "{}",
            a.body
        );
        assert!(a.body.contains("\"assoc_misses\""), "{}", a.body);
        let b = handle(&s, &req);
        assert_eq!(a, b, "hierarchy measurement must be deterministic");

        let bad =
            handle(&s, &Request::new("measure").with("app", "ADI").with("hierarchy", "l1=8K/33/4"));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "bad descriptor: {}", bad.body);
    }

    #[test]
    fn predict_with_hierarchy_simulates_within_bounds() {
        let s = server();
        let req = Request::new("predict")
            .with("strategy", "fuse")
            .with("size", 48)
            .with("hierarchy", "l1=512/32/2,l2=4K/32/fa,policy=exclusive")
            .with_body(DEMO);
        let a = handle(&s, &req);
        assert!(a.is_ok(), "{}", a.body);
        assert!(a.body.contains("\"method\": \"simulation\""), "{}", a.body);
        assert!(a.body.contains("\"fa_misses\""), "{}", a.body);

        // Descriptors force simulation, so the predict size bound tightens
        // to the simulation bound.
        let far = handle(
            &s,
            &Request::new("predict")
                .with("size", 1_000_000i64)
                .with("hierarchy", "l1=512/32/2")
                .with_body(DEMO),
        );
        assert_eq!(far.code, Some(ErrCode::BadRequest), "{}", far.body);
    }

    #[test]
    fn predict_answers_at_sizes_simulation_refuses() {
        let s = server();
        // A billion elements: far beyond MAX_SIZE, microseconds for the
        // symbolic model.
        let req = Request::new("predict")
            .with("strategy", "fuse")
            .with("size", 1_000_000_000i64)
            .with_body(DEMO);
        let a = handle(&s, &req);
        assert!(a.is_ok(), "{}", a.body);
        assert!(a.body.contains("\"method\": \"polynomial\""), "{}", a.body);
        assert!(a.body.contains("\"class\": \"exact\""), "{}", a.body);
        assert!(a.body.contains("\"model\""), "{}", a.body);
        // Determinism: probes and fitting are replayable.
        let b = handle(&s, &req);
        assert_eq!(a, b, "prediction must be deterministic");

        let bad = handle(&s, &Request::new("predict").with("strategy", "fuse"));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "empty body");
        let bad =
            handle(&s, &Request::new("predict").with("size", MAX_PREDICT_SIZE + 1).with_body(DEMO));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "size bound");
        let bad = handle(&s, &Request::new("predict").with("fallback", "maybe").with_body(DEMO));
        assert_eq!(bad.code, Some(ErrCode::BadRequest), "bad fallback value");
    }

    #[test]
    fn unanalyzable_predict_falls_back_or_errors() {
        let s = server();
        // Two size parameters defeat the univariate model.
        let multi = "
program multi
param N, M
array A[N], B[M]
for i = 1, N {
  A[i] = f(A[i])
}
for j = 1, M {
  B[j] = g(B[j])
}
";
        // Small size + default fallback: answered by direct simulation.
        let ok = handle(&s, &Request::new("predict").with("size", 64).with_body(multi));
        assert!(ok.is_ok(), "{}", ok.body);
        assert!(ok.body.contains("\"method\": \"simulation\""), "{}", ok.body);
        assert!(ok.body.contains("\"fallback_reason\""), "{}", ok.body);

        // Fallback disabled: structured not-analyzable error.
        let err = handle(
            &s,
            &Request::new("predict").with("size", 64).with("fallback", "none").with_body(multi),
        );
        assert_eq!(err.code, Some(ErrCode::NotAnalyzable), "{}", err.body);
        assert!(err.body.contains("\"error\": \"not-analyzable\""), "{}", err.body);

        // Size beyond the simulation bound: fallback is impossible even
        // when allowed.
        let err = handle(&s, &Request::new("predict").with("size", 1_000_000).with_body(multi));
        assert_eq!(err.code, Some(ErrCode::NotAnalyzable), "{}", err.body);
        assert!(err.body.contains("\"max_sim_size\""), "{}", err.body);
    }

    #[test]
    fn deadline_expiry_is_a_structured_timeout() {
        let s = server();
        let r: Result<(), Response> = s.run_pooled(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(400));
        });
        let resp = r.expect_err("must time out");
        assert_eq!(resp.code, Some(ErrCode::Timeout));
        assert!(resp.body.contains("\"deadline_ms\": 20"), "{}", resp.body);
        assert!(resp.body.contains("\"elapsed_ms\""), "{}", resp.body);
    }

    #[test]
    fn panicking_job_reports_panic_and_server_survives() {
        let s = server();
        let r: Result<(), Response> =
            s.run_pooled(Duration::from_secs(5), || panic!("request dies"));
        assert_eq!(r.expect_err("must fail").code, Some(ErrCode::Panic));
        // The pool worker survived and still serves.
        let ok: Result<u32, Response> = s.run_pooled(Duration::from_secs(5), || 7);
        assert_eq!(ok.unwrap(), 7);
        // The `panic` response races the worker's unwind by design (the
        // sender drop is the signal); only the counter needs a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while s.pool.isolated_panics() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = handle(&s, &Request::new("report"));
        assert!(report.body.contains("\"isolated_panics\": 1"), "{}", report.body);
    }

    #[test]
    fn overload_sheds_with_overloaded_code() {
        let s = Server::new(
            ServerConfig { workers: 1, queue: 1, default_deadline_ms: 1_000 },
            MeasureCache::new(),
        );
        let (gate_tx, gate_rx) = channel::<()>();
        // Pin the single worker, then fill the queue slot.
        s.pool
            .try_submit(move || {
                let _ = gate_rx.recv_timeout(Duration::from_secs(10));
            })
            .unwrap();
        let mut shed = 0;
        for _ in 0..4 {
            let r: Result<(), Response> = s.run_pooled(Duration::from_millis(1), || {});
            if let Err(resp) = r {
                if resp.code == Some(ErrCode::Overloaded) {
                    shed += 1;
                }
            }
        }
        assert!(shed >= 1, "a full queue must shed with `overloaded`");
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn shutdown_drains_and_refuses_new_work() {
        let s = server();
        let resp = handle(&s, &Request::new("shutdown"));
        assert!(resp.is_ok(), "{}", resp.body);
        assert!(s.shutting_down());
        let refused = handle(&s, &Request::new("optimize").with_body(DEMO));
        assert_eq!(refused.code, Some(ErrCode::ShuttingDown));
        // Introspection still answers while draining.
        let h = handle(&s, &Request::new("health"));
        assert!(h.body.contains("\"status\": \"draining\""), "{}", h.body);
        s.finish().unwrap();
    }

    #[test]
    fn connection_loop_speaks_frames_end_to_end() {
        let s = server();
        let mut input = Vec::new();
        write_frame(&mut input, &Request::new("health").encode()).unwrap();
        write_frame(&mut input, &Request::new("measure").with("app", "ADI").encode()).unwrap();
        let mut out = Vec::new();
        s.serve_connection(&mut &input[..], &mut out).unwrap();
        let mut r = &out[..];
        let first = match read_frame(&mut r).unwrap() {
            FrameIn::Frame(p) => Response::parse(&p).unwrap(),
            other => panic!("expected frame, got {other:?}"),
        };
        assert!(first.is_ok());
        let second = match read_frame(&mut r).unwrap() {
            FrameIn::Frame(p) => Response::parse(&p).unwrap(),
            other => panic!("expected frame, got {other:?}"),
        };
        assert!(second.is_ok(), "{}", second.body);
        assert!(matches!(read_frame(&mut r).unwrap(), FrameIn::Eof));
    }
}
