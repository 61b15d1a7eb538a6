#![warn(missing_docs)]
//! # shapex-server
//!
//! The resident validation service behind `shapex serve`: a std-only
//! HTTP/1.1 listener hosting warm [`Engine`](shapex::Engine)s so the
//! expensive state — interned term pools, compiled schemas, lazy DFA
//! tables, the incremental dependency index — survives across requests
//! instead of dying with each CLI invocation.
//!
//! ## Endpoints
//!
//! | method + path          | body             | answer |
//! |------------------------|------------------|--------|
//! | `GET /health`          | —                | `{"status":"ok"}` (or `"draining"`) |
//! | `GET /stats`           | —                | server counters + per-entry engine stats/metrics |
//! | `POST /validate?id=G`  | —                | full-typing report, byte-identical to `validate --report json` |
//! | `POST /map?id=G`       | shape-map text   | per-association report (CLI `--map --report json`) |
//! | `POST /delta?id=G`     | delta-file text  | before/after report (CLI `--delta --report json`) |
//! | `POST /load?id=G`      | JSON `{schema, data, schema_format?}` | registers/replaces entry `G` |
//!
//! `id` defaults to `default`. Report responses carry the CLI-equivalent
//! exit code in an `X-Shapex-Exit` header (0 ok, 2 non-conformant, 3
//! exhausted) so the body can stay byte-identical to CLI output.
//!
//! `schema_format` is `"shex"` (default) or `"shacl"`. A SHACL entry
//! serves `/validate` with the `sh:ValidationReport` document of
//! `validate --shacl --report json`, byte for byte; `/map` and `/delta`
//! answer 422 on it, and unsupported SHACL terms are refused at `/load`
//! (DESIGN.md §5h).
//!
//! ## Robustness model
//!
//! * **Fault isolation** — engine calls run under `catch_unwind`; a panic
//!   quarantines only that entry, which is rebuilt from immutable sources
//!   and differentially checked before re-entering service (see
//!   [`registry`]).
//! * **QoS admission control** — connections are admitted onto a bounded
//!   work-stealing [`Executor`] queue (the same scheduler that runs
//!   intra-request typing epochs, so one pool serves both request-level
//!   and intra-request parallelism); when the queue is full the acceptor
//!   sheds load with `503` + `Retry-After` instead of buffering without
//!   bound. Admitted work outranks unadmitted connections: an engine's
//!   budget-charged epoch tasks run before queued requests, so paid-for
//!   work finishes first. Every engine call runs under the server-level
//!   per-request [`Budget`].
//! * **Keep-alive** — a client sending `Connection: keep-alive` gets up
//!   to [`KEEPALIVE_MAX_REQUESTS`] requests on one connection, bounded by
//!   a short idle timeout; during a drain the current response is
//!   finished with `Connection: close` and the connection ends.
//! * **Graceful drain** — SIGTERM (or [`ServerHandle::shutdown`]) stops
//!   the acceptor, lets the pool finish the queued requests, then joins
//!   it; in-flight requests complete.

pub mod http;
pub mod registry;

use std::io;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::{json, to_string, Value};
use shapex::{Budget, EngineConfig, Executor};

use http::{read_request, respond, respond_error, Request, READ_TIMEOUT};
use registry::Registry;

/// Most requests served on one keep-alive connection before the server
/// forces a close (bounds how long one client can monopolise pool time).
pub const KEEPALIVE_MAX_REQUESTS: usize = 100;
/// How long a keep-alive connection may sit idle between requests.
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(2);

/// Server tuning knobs; every limit is a hard bound.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accept-queue depth; connections beyond it are shed with 503.
    pub queue: usize,
    /// Worker threads per full-typing run (`--jobs`; 1 = the exact
    /// sequential path, which is what the CLI byte-identity smoke pins).
    pub jobs: usize,
    /// Per-request engine budget derived from server-level limits.
    pub budget: Budget,
    /// ShEx open-shape semantics (default: closed, as in the paper).
    pub open: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue: 64,
            jobs: 1,
            budget: Budget::UNLIMITED,
            open: false,
        }
    }
}

impl ServerConfig {
    /// The engine configuration every entry is compiled with: incremental
    /// on (the `/delta` endpoint consumes the dependency index), budget
    /// from the server limits.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            closure: if self.open {
                shapex::Closure::Open
            } else {
                shapex::Closure::Closed
            },
            incremental: true,
            budget: self.budget,
            ..EngineConfig::default()
        }
    }
}

/// Service-level counters surfaced at `/stats`.
#[derive(Default)]
struct ServerStats {
    requests: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A running server: join handles plus the shared shutdown flag.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    executor: Option<Arc<Executor>>,
}

impl ServerHandle {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain and blocks until the pool has finished:
    /// the acceptor stops taking connections, queued requests complete,
    /// threads are joined.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_all();
    }

    /// Blocks until the server drains (e.g. after SIGTERM set the flag).
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(exec) = self.executor.take() {
            // Drains every queued connection before the threads exit; a
            // registry still holding this executor degrades gracefully
            // (engine runs fall back to inline execution).
            exec.shutdown_and_join();
        }
    }
}

/// Starts the server on `config.addr`, returning once the socket is
/// bound and the request executor is up. The registry is shared — load
/// entries before or after starting.
///
/// The [`Executor`] doubles as the typing scheduler: it is installed on
/// the registry, which hands it to every entry's engine, so request
/// handling and intra-request typing epochs share one pool. Pool threads
/// get deep stacks because recursive-schema typing runs on them.
pub fn start(config: ServerConfig, registry: Arc<Registry>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shutdown = shutdown_flag();
    shutdown.store(false, Ordering::SeqCst);
    let stats = Arc::new(ServerStats::default());
    let executor = Arc::new(Executor::new(
        config.workers.max(1),
        Some(512 << 20),
        "shapex-server",
    ));
    registry.set_executor(Arc::clone(&executor));

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        let executor = Arc::clone(&executor);
        let registry = Arc::clone(&registry);
        let config = config.clone();
        std::thread::Builder::new()
            .name("shapex-acceptor".to_string())
            .spawn(move || accept_loop(listener, executor, registry, config, shutdown, stats))
            .expect("spawning acceptor thread")
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        executor: Some(executor),
    })
}

/// The process-wide shutdown flag; shared with the SIGTERM handler, which
/// may only do an atomic store.
fn shutdown_flag() -> Arc<AtomicBool> {
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))))
}

/// Installs a SIGTERM/SIGINT handler that requests a graceful drain.
/// `std` already links libc; declaring `signal` directly avoids a crate
/// dependency the offline build cannot add.
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        // Async-signal-safe: a relaxed atomic store only.
        if let Some(flag) = SIGNAL_FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }
    static SIGNAL_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    let _ = SIGNAL_FLAG.set(shutdown_flag());
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Accepts connections until shutdown. Admission control lives here: the
/// executor's normal-priority queue is capped at `config.queue`, and a
/// refused submission means the connection is answered `503` +
/// `Retry-After` and closed — bounded memory under any load. The stream
/// rides in a shared slot so a refused job can hand it back for the shed
/// response.
fn accept_loop(
    listener: TcpListener,
    executor: Arc<Executor>,
    registry: Arc<Registry>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    let cap = config.queue.max(1);
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let slot = Arc::new(Mutex::new(Some(stream)));
                let job: Box<dyn FnOnce() + Send> = {
                    let slot = Arc::clone(&slot);
                    let registry = Arc::clone(&registry);
                    let stats = Arc::clone(&stats);
                    let config = config.clone();
                    let shutdown = Arc::clone(&shutdown);
                    Box::new(move || {
                        let taken = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
                        if let Some(stream) = taken {
                            handle_connection(stream, &registry, &stats, &config, &shutdown);
                        }
                    })
                };
                if executor.try_submit(false, cap, job).is_err() {
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    let taken = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
                    if let Some(mut stream) = taken {
                        let _ = respond(
                            &mut stream,
                            503,
                            "application/json",
                            &[("Retry-After", "1")],
                            &(to_string(&json!({"error": "server saturated, retry later"}))
                                .expect("JSON")
                                + "\n"),
                            true,
                        );
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One connection: parse, route, respond — repeatedly when the client
/// opted into keep-alive. Exits on close, idle timeout, request cap,
/// protocol error, or drain (the in-flight response is finished with
/// `Connection: close` first).
fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    stats: &ServerStats,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) {
    let mut reader = BufReader::new(stream);
    for served in 0..KEEPALIVE_MAX_REQUESTS {
        let timeout = if served == 0 {
            READ_TIMEOUT
        } else {
            KEEPALIVE_IDLE
        };
        let _ = reader.get_ref().set_read_timeout(Some(timeout));
        let request = match read_request(&mut reader) {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = respond_error(reader.get_mut(), e.status, &e.message);
                return;
            }
            Err(_) => {
                // On the first request the client vanished mid-request;
                // on later ones a clean EOF or idle timeout is the normal
                // end of a keep-alive conversation.
                if served == 0 {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let draining = shutdown.load(Ordering::Relaxed);
        let close = !request.keep_alive || draining || served + 1 == KEEPALIVE_MAX_REQUESTS;
        let _ = route(
            &request,
            reader.get_mut(),
            registry,
            stats,
            config,
            shutdown,
            close,
        );
        if close {
            return;
        }
    }
}

/// Dispatches one request. `close` is what the connection loop decided
/// about persistence; it only shapes the `Connection` response header.
fn route(
    request: &Request,
    stream: &mut TcpStream,
    registry: &Registry,
    stats: &ServerStats,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    close: bool,
) -> io::Result<()> {
    let id = request.query_param("id").unwrap_or("default");
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let status = if shutdown.load(Ordering::Relaxed) {
                "draining"
            } else {
                "ok"
            };
            respond(
                stream,
                200,
                "application/json",
                &[],
                &(to_string(&json!({ "status": status })).expect("JSON") + "\n"),
                close,
            )
        }
        ("GET", "/stats") => {
            let body = serde_json::to_string_pretty(&json!({
                "server": {
                    "requests": stats.requests.load(Ordering::Relaxed),
                    "shed": stats.shed.load(Ordering::Relaxed),
                    "protocol_errors": stats.protocol_errors.load(Ordering::Relaxed),
                    "refused_unhealthy": registry.refused_unhealthy.load(Ordering::Relaxed),
                    "entries": registry
                        .ids()
                        .into_iter()
                        .map(Value::from)
                        .collect::<Vec<Value>>(),
                },
                "graphs": registry.stats(),
            }))
            .expect("stats JSON")
                + "\n";
            respond(stream, 200, "application/json", &[], &body, close)
        }
        ("POST", "/validate") => api_respond(stream, registry.validate(id), close),
        ("POST", "/map") => api_respond(stream, registry.map(id, &request.body), close),
        ("POST", "/delta") => api_respond(stream, registry.delta(id, &request.body), close),
        ("POST", "/load") => {
            let parsed: Result<Value, _> = serde_json::from_str(&request.body);
            let Ok(Value::Object(m)) = parsed else {
                return respond_error(stream, 422, "body must be a JSON object");
            };
            let (Some(schema), Some(data)) = (
                m.get("schema").and_then(Value::as_str),
                m.get("data").and_then(Value::as_str),
            ) else {
                return respond_error(stream, 422, "body needs string fields 'schema' and 'data'");
            };
            // Optional "format": "turtle" (default) or "ntriples"; N-Triples
            // data is parsed in parallel on the entry's jobs workers.
            let format = match m.get("format").and_then(Value::as_str) {
                None => registry::DataFormat::Turtle,
                Some(name) => match registry::DataFormat::from_name(name) {
                    Ok(f) => f,
                    Err(e) => return respond_error(stream, 422, &e),
                },
            };
            // Optional "schema_format": "shex" (default) or "shacl" — the
            // latter treats `schema` as a SHACL Core shapes graph in
            // Turtle, compiled onto the derivative engine. Unsupported
            // SHACL terms fail the load with 422, never validate silently.
            let schema_format = match m.get("schema_format").and_then(Value::as_str) {
                None => registry::SchemaFormat::Shex,
                Some(name) => match registry::SchemaFormat::from_name(name) {
                    Ok(f) => f,
                    Err(e) => return respond_error(stream, 422, &e),
                },
            };
            match registry.load(
                id,
                schema.to_string(),
                schema_format,
                data.to_string(),
                format,
                config.engine_config(),
                config.jobs,
            ) {
                Ok(()) => respond(
                    stream,
                    200,
                    "application/json",
                    &[],
                    &(to_string(&json!({ "loaded": id })).expect("JSON") + "\n"),
                    close,
                ),
                Err(e) => respond_error(stream, 422, &e),
            }
        }
        ("GET" | "POST", _) => respond_error(stream, 404, "no such endpoint"),
        _ => respond_error(stream, 405, "method not allowed"),
    }
}

/// Writes an [`registry::ApiResponse`], carrying the CLI-equivalent exit
/// code in `X-Shapex-Exit` so report bodies stay byte-identical to CLI
/// output.
fn api_respond(
    stream: &mut TcpStream,
    response: registry::ApiResponse,
    close: bool,
) -> io::Result<()> {
    let exit = response.exit.to_string();
    respond(
        stream,
        response.status,
        "application/json",
        &[("X-Shapex-Exit", &exit)],
        &response.body,
        close,
    )
}
