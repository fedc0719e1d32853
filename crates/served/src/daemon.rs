//! `fairschedd`'s serving loop and entry point: a TCP listener handing
//! each connection to its own thread, the route table mapping HTTP
//! requests onto [`Session`] calls through the [`SessionRegistry`], and
//! the command line shared by `fairschedd` and `fairsched serve`
//! ([`ServeArgs`], [`serve`]).
//!
//! Routes (all under `/v1`; every session route also exists under
//! `/v1/sessions/{name}/...`, the unprefixed form aliases the default
//! session):
//!
//! | Method | Path                  | Meaning                                    |
//! |--------|-----------------------|--------------------------------------------|
//! | POST   | `/v1/jobs`            | Submit a job (batched under contention)    |
//! | GET    | `/v1/status`          | Live session status                        |
//! | POST   | `/v1/advance`         | Grant simulated time (manual clocks)       |
//! | POST   | `/v1/tick`            | Advance to the clock target (realtime)     |
//! | GET    | `/v1/trace`           | Stream trace records as JSONL until sealed |
//! | GET    | `/v1/explain/{id}`    | Live wait decomposition for one job        |
//! | GET    | `/v1/profile`         | Where scheduling time has gone so far      |
//! | POST   | `/v1/seal`            | Play out remaining events, final summary   |
//! | POST   | `/v1/shutdown`        | Seal every session and stop the listener   |
//! | GET    | `/v1/fairness`        | Live fairness snapshot (JSON)              |
//! | GET    | `/v1/sessions`        | List sessions with status                  |
//! | POST   | `/v1/sessions`        | Create a named session                     |
//! | GET    | `/v1/sessions/{name}` | One session's status                       |
//! | DELETE | `/v1/sessions/{name}` | Delete a session (and its journal)         |
//! | GET    | `/metrics`            | Prometheus text exposition                 |
//!
//! ## Threading model
//!
//! The accept thread spawns one thread per connection, which reads,
//! routes and answers requests in a blocking loop until the peer closes,
//! asks for `Connection: close`, or errors. An idle keep-alive
//! connection costs a parked thread and no CPU. Two bounds keep overload
//! explicit:
//!
//! * [`DaemonConfig::workers`] permits bound how many requests run a
//!   handler at once; a request read while every permit is held waits
//!   for one.
//! * [`DaemonConfig::max_connections`] caps open connections. A
//!   connection over the cap gets its request read and answered
//!   `503 {"error":"overloaded"}` with `Connection: close` — a typed
//!   answer the client can retry on, never a reset.
//!
//! A `/v1/trace` stream keeps its connection's thread until the session
//! seals. [`Daemon::shutdown`] ends every other connection's reads, lets
//! in-flight responses go out, and joins the threads.
//!
//! The daemon is deterministic where it matters: all scheduling state
//! sits behind each session's mutex, so any interleaving of concurrent
//! requests linearizes into some valid grant/submit order — and the
//! monotonic-submission rule guarantees every such order yields the
//! same schedule as the equivalent batch run.

use crate::api::{ServeError, SessionSpec, StatusResponse};
use crate::clock::ClockMode;
use crate::http::{read_request, write_response, write_stream_header, Request};
use crate::metrics::{route_label, ServiceMetrics};
use crate::registry::SessionRegistry;
use crate::session::{Session, SessionConfig};
use crate::{api, SubmitRequest};
use fairsched_core::json::{parse, Json};
use fairsched_workload::job::JobId;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon runs: the default session's configuration plus the
/// serving and durability knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Configuration for the default session, and the template sessions
    /// created over the API inherit from.
    pub session: SessionConfig,
    /// Requests allowed inside a handler at once; further requests wait
    /// for a permit.
    pub workers: usize,
    /// Open connections served at once; a connection over the cap is
    /// answered `503` and closed.
    pub max_connections: usize,
    /// Where per-session durability journals live; `None` disables
    /// journaling.
    pub journal_dir: Option<PathBuf>,
    /// Rebuild sessions from the journals in `journal_dir` instead of
    /// starting fresh.
    pub recover: bool,
}

impl DaemonConfig {
    /// Serving defaults around a session configuration: 8 handler
    /// permits, 1024 connections, no journaling.
    pub fn new(session: SessionConfig) -> DaemonConfig {
        DaemonConfig {
            session,
            workers: 8,
            max_connections: 1024,
            journal_dir: None,
            recover: false,
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig::new(SessionConfig::default())
    }
}

/// How often the heartbeat ticks realtime sessions.
const HEARTBEAT: Duration = Duration::from_millis(20);

/// How long an over-cap connection gets to send the request it is
/// answered `503` for.
const SHED_READ_TIMEOUT: Duration = Duration::from_secs(1);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A one-way stop flag that threads can wait on.
#[derive(Default)]
struct StopSignal {
    set: Mutex<bool>,
    changed: Condvar,
}

impl StopSignal {
    fn trigger(&self) {
        *lock(&self.set) = true;
        self.changed.notify_all();
    }

    fn is_set(&self) -> bool {
        *lock(&self.set)
    }

    /// Blocks until the flag is set, or `timeout` passes (`None`: no
    /// limit); returns whether it is set.
    fn wait(&self, timeout: Option<Duration>) -> bool {
        let guard = lock(&self.set);
        let guard = match timeout {
            None => self
                .changed
                .wait_while(guard, |set| !*set)
                .unwrap_or_else(|e| e.into_inner()),
            Some(t) => {
                self.changed
                    .wait_timeout_while(guard, t, |set| !*set)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
        };
        *guard
    }
}

/// A counting semaphore over handler slots. It publishes permits held as
/// `served_pool_workers_busy` and requests waiting for one as
/// `served_accept_queue_depth`.
struct Permits {
    /// (held, waiting)
    state: Mutex<(usize, usize)>,
    freed: Condvar,
    limit: usize,
    metrics: Arc<ServiceMetrics>,
}

/// One held handler slot; dropping it frees the slot.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn acquire(&self) -> Permit<'_> {
        let mut state = lock(&self.state);
        if state.0 >= self.limit {
            state.1 += 1;
            self.publish(&state);
            while state.0 >= self.limit {
                state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.1 -= 1;
        }
        state.0 += 1;
        self.publish(&state);
        Permit(self)
    }

    fn publish(&self, &(held, waiting): &(usize, usize)) {
        self.metrics.pool_workers_busy.set_u64(held as u64);
        self.metrics.accept_queue_depth.set_u64(waiting as u64);
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.0 -= 1;
        self.0.publish(&state);
        self.0.freed.notify_one();
    }
}

/// What the accept thread, connection threads and heartbeat share.
struct Shared {
    registry: Arc<SessionRegistry>,
    metrics: Arc<ServiceMetrics>,
    stop: StopSignal,
    permits: Permits,
    max_connections: usize,
    /// Open connections by id: a handle on the socket (so shutdown can
    /// end its reads) and the thread serving it.
    conns: Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>,
}

/// A running daemon: the session registry plus the accept thread's,
/// connection threads' and heartbeat's lifecycle.
pub struct Daemon {
    shared: Arc<Shared>,
    default_session: Arc<Session>,
    addr: SocketAddr,
    /// The accept thread, then the heartbeat if the clock is realtime.
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an OS-assigned free port) and starts
    /// serving with default settings and no journaling.
    pub fn start(addr: &str, cfg: SessionConfig) -> Result<Daemon, ServeError> {
        Daemon::start_with(addr, DaemonConfig::new(cfg))
    }

    /// Binds `addr` and starts the accept thread, plus a heartbeat that
    /// ticks every session when the template clock is realtime (events
    /// only play out when time is granted).
    pub fn start_with(addr: &str, cfg: DaemonConfig) -> Result<Daemon, ServeError> {
        let metrics = Arc::new(ServiceMetrics::new());
        let registry = match (&cfg.journal_dir, cfg.recover) {
            (Some(dir), true) => {
                SessionRegistry::recover(cfg.session.clone(), dir, Arc::clone(&metrics))?
            }
            _ => SessionRegistry::new(
                cfg.session.clone(),
                cfg.journal_dir.clone(),
                Arc::clone(&metrics),
            )?,
        };
        let registry = Arc::new(registry);
        let default_session = registry.default_session();
        let listener = TcpListener::bind(addr)?;
        widen_backlog(&listener, cfg.max_connections)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry,
            stop: StopSignal::default(),
            permits: Permits {
                state: Mutex::new((0, 0)),
                freed: Condvar::new(),
                limit: cfg.workers.max(1),
                metrics: Arc::clone(&metrics),
            },
            metrics,
            max_connections: cfg.max_connections.max(1),
            conns: Mutex::new(HashMap::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let mut threads = vec![std::thread::Builder::new()
            .name("fairschedd-accept".into())
            .spawn(move || {
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    if accept_shared.stop.is_set() {
                        break;
                    }
                    if let Ok(stream) = stream {
                        admit(&accept_shared, id, stream);
                    }
                }
            })?];
        if let ClockMode::Realtime { .. } = cfg.session.clock {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("fairschedd-heartbeat".into())
                    .spawn(move || {
                        while !shared.stop.wait(Some(HEARTBEAT)) {
                            for session in shared.registry.sessions() {
                                // Sealed sessions refuse the tick; nothing
                                // to drive there.
                                let _ = session.tick();
                            }
                        }
                    })?,
            );
        }

        Ok(Daemon {
            shared,
            default_session,
            addr: local,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The default session, for in-process use (tests, `quickserve`).
    pub fn session(&self) -> &Arc<Session> {
        &self.default_session
    }

    /// The session registry behind the daemon.
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.shared.registry
    }

    /// The daemon-wide metrics registry.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.shared.metrics
    }

    /// Graceful drain: stops accepting, ends every open connection's
    /// reads (in-flight responses still go out), and joins the connection
    /// threads and the heartbeat. Trace streams stay detached until their
    /// session seals. Does not seal sessions; callers decide whether to
    /// finish the schedules.
    pub fn shutdown(&mut self) {
        self.shared.stop.trigger();
        if self.threads.is_empty() {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // The accept thread is gone, so no connection joins the map now.
        let open: Vec<_> = lock(&self.shared.conns).drain().map(|(_, c)| c).collect();
        for (stream, _) in &open {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handle) in open {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Re-issues `listen(2)` with room for `max_connections` pending
/// handshakes. std listens with a backlog of 128; when a thousand clients
/// connect at once the queue overflows, and the kernel resets connections
/// the clients already believe are open — submissions lost before the
/// daemon ever sees them.
#[cfg(target_os = "linux")]
fn widen_backlog(listener: &TcpListener, max_connections: usize) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::c_int;
    extern "C" {
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }
    let backlog = c_int::try_from(max_connections).unwrap_or(c_int::MAX);
    // SAFETY: `listen` reads only its two integer arguments, and the
    // descriptor is owned by `listener`, which outlives the call.
    if unsafe { listen(listener.as_raw_fd(), backlog) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn widen_backlog(_: &TcpListener, _: usize) -> std::io::Result<()> {
    Ok(())
}

/// Hands an accepted socket to its own serving thread, or — at the
/// connection cap — to a short-lived thread that answers `503`.
fn admit(shared: &Arc<Shared>, id: u64, stream: TcpStream) {
    // Held across the spawn so the thread cannot deregister before it is
    // registered.
    let mut conns = lock(&shared.conns);
    if conns.len() >= shared.max_connections {
        drop(conns);
        let metrics = Arc::clone(&shared.metrics);
        let _ = std::thread::Builder::new()
            .name("fairschedd-shed".into())
            .spawn(move || shed(stream, &metrics));
        return;
    }
    let Ok(handle) = stream.try_clone() else {
        return;
    };
    let conn_shared = Arc::clone(shared);
    let thread = std::thread::Builder::new()
        .name("fairschedd-conn".into())
        .spawn(move || {
            serve_connection(id, stream, &conn_shared);
            lock(&conn_shared.conns).remove(&id);
        });
    if let Ok(thread) = thread {
        conns.insert(id, (handle, thread));
    }
}

/// Answers an over-cap connection `503 overloaded`. The request is read
/// first: closing a socket with unread bytes resets it, and the client
/// would see `ECONNRESET` instead of this typed answer.
fn shed(mut stream: TcpStream, metrics: &ServiceMetrics) {
    let _ = stream.set_read_timeout(Some(SHED_READ_TIMEOUT));
    if let Ok(reader) = stream.try_clone() {
        let _ = read_request(&mut BufReader::new(reader));
    }
    let _ = write_response(
        &mut stream,
        503,
        "application/json",
        "{\"error\":\"overloaded\",\"detail\":\"connection limit reached\"}",
        true,
    );
    metrics.observe_request("other", 503, 0);
}

/// Serves requests on one connection until the peer closes, asks to
/// close, errors, or upgrades to a trace stream.
fn serve_connection(id: u64, mut stream: TcpStream, shared: &Shared) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    let (registry, metrics) = (&shared.registry, &shared.metrics);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                let err = ServeError::BadRequest {
                    detail: e.to_string(),
                };
                let _ = write_response(
                    &mut stream,
                    err.status(),
                    "application/json",
                    &err.to_json().render(),
                    true,
                );
                return;
            }
        };
        let mut started = Instant::now();
        let label = route_label(&req.path);

        let (status, content_type, body) = match resolve(&req.path, registry) {
            Err(e) => (e.status(), "application/json", e.to_json().render()),
            Ok((session, path)) if req.method == "GET" && path == "/v1/trace" => {
                // The stream lives as long as the session: detach it from
                // shutdown's join. If shutdown already took this
                // connection to join it, do not start a stream it would
                // wait on. Time only the setup.
                lock(&shared.conns).remove(&id);
                if shared.stop.is_set() {
                    return;
                }
                metrics.observe_request(label, 200, elapsed_ns(started));
                return stream_trace(stream, &session);
            }
            Ok((session, path)) => {
                let _permit = shared.permits.acquire();
                // The route histogram times the handler and the write, as
                // before; the wait for a permit shows as
                // `served_accept_queue_depth`.
                started = Instant::now();
                if req.method == "GET" && path == "/metrics" {
                    (
                        200,
                        "text/plain; version=0.0.4",
                        metrics.render(&registry.default_session()),
                    )
                } else {
                    match route(&req, &path, &session, registry, &shared.stop) {
                        Ok(body) => (200, "application/json", body.render()),
                        Err(e) => (e.status(), "application/json", e.to_json().render()),
                    }
                }
            }
        };
        let ok = write_response(&mut stream, status, content_type, &body, req.close).is_ok();
        metrics.observe_request(label, status, elapsed_ns(started));
        if !ok || req.close {
            return;
        }
    }
}

/// The daemon's command line, shared by `fairschedd` and
/// `fairsched serve`: where to listen plus the [`DaemonConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// TCP port on 127.0.0.1 (0 = OS-assigned).
    pub port: u16,
    /// Write the resolved port here, for scripts using port 0.
    pub port_file: Option<PathBuf>,
    /// Everything else the flags set.
    pub daemon: DaemonConfig,
}

/// The flags [`ServeArgs::parse`] accepts.
pub const SERVE_FLAGS: &str = "[--port N] [--port-file PATH] [--policy ID] [--nodes N] \
     [--speedup X | --manual] [--no-trace] [--id-floor N] [--workers N] \
     [--max-connections N] [--journal-dir DIR] [--recover]";

impl ServeArgs {
    /// Parses daemon flags (without the program or subcommand name).
    /// Interactive serving defaults to a realtime clock at speedup 1;
    /// scripts pass `--manual` or a large `--speedup`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<ServeArgs, String> {
        fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} needs a number, got {value:?}"))
        }
        let mut out = ServeArgs {
            port: 0,
            port_file: None,
            daemon: DaemonConfig::new(SessionConfig {
                clock: ClockMode::Realtime { speedup: 1.0 },
                ..SessionConfig::default()
            }),
        };
        let (mut manual, mut speedup) = (false, None);
        let cfg = &mut out.daemon;
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag {
                "--manual" => manual = true,
                "--no-trace" => cfg.session.traced = false,
                "--recover" => cfg.recover = true,
                "--port" => out.port = number(flag, value()?)?,
                "--port-file" => out.port_file = Some(value()?.into()),
                "--policy" => cfg.session.policy = value()?.to_string(),
                "--nodes" => cfg.session.nodes = number(flag, value()?)?,
                "--speedup" => speedup = Some(number::<f64>(flag, value()?)?),
                "--id-floor" => cfg.session.id_floor = number(flag, value()?)?,
                "--workers" => cfg.workers = number(flag, value()?)?,
                "--max-connections" => cfg.max_connections = number(flag, value()?)?,
                "--journal-dir" => cfg.journal_dir = Some(value()?.into()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        match speedup {
            Some(_) if manual => {
                return Err("--manual and --speedup are mutually exclusive".into());
            }
            Some(s) if !(s.is_finite() && s > 0.0) => {
                return Err(format!("--speedup must be a positive number, got {s}"));
            }
            Some(speedup) => cfg.session.clock = ClockMode::Realtime { speedup },
            None if manual => cfg.session.clock = ClockMode::Manual,
            None => {}
        }
        if cfg.workers == 0 || cfg.max_connections == 0 {
            return Err("--workers and --max-connections must be at least 1".into());
        }
        if cfg.recover && cfg.journal_dir.is_none() {
            return Err("--recover needs --journal-dir".into());
        }
        Ok(out)
    }
}

/// Runs the daemon on `127.0.0.1:<port>` until `POST /v1/shutdown`:
/// announces the address on stderr, writes the port file, blocks, then
/// drains and returns the default session's final status.
pub fn serve(args: ServeArgs) -> Result<StatusResponse, ServeError> {
    let mut daemon = Daemon::start_with(&format!("127.0.0.1:{}", args.port), args.daemon)?;
    let addr = daemon.addr();
    eprintln!("fairschedd listening on {addr}");
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| ServeError::Io(format!("cannot write {}: {e}", path.display())))?;
    }
    daemon.shared.stop.wait(None);
    daemon.shutdown();
    Ok(daemon.session().status())
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Maps a request path onto its target session and the session-relative
/// route: `/v1/sessions/{name}/<rest>` addresses the named session's
/// `/v1/<rest>`, everything else the default session. `/v1/sessions`
/// and `/v1/sessions/{name}` themselves pass through (the registry
/// routes handle them against the default session handle).
fn resolve(path: &str, registry: &SessionRegistry) -> Result<(Arc<Session>, String), ServeError> {
    if let Some(rest) = path.strip_prefix("/v1/sessions/") {
        if let Some((name, inner)) = rest.split_once('/') {
            if !inner.is_empty() {
                return Ok((registry.get(name)?, format!("/v1/{inner}")));
            }
        }
    }
    Ok((registry.default_session(), path.to_string()))
}

fn route(
    req: &Request,
    path: &str,
    session: &Arc<Session>,
    registry: &SessionRegistry,
    stop: &StopSignal,
) -> Result<Json, ServeError> {
    match (req.method.as_str(), path) {
        ("POST", "/v1/jobs") => {
            let submit = SubmitRequest::from_json(&parse(&req.body)?)?;
            session.submit_batched(&submit).map(|r| r.to_json())
        }
        ("GET", "/v1/status") => Ok(session.status().to_json()),
        ("POST", "/v1/advance") => {
            let to = parse(&req.body)?
                .get("to")
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: "missing field `to`".into(),
                })?;
            session.advance_to(to).map(|r| r.to_json())
        }
        ("POST", "/v1/tick") => session.tick().map(|r| r.to_json()),
        ("GET", "/v1/sessions") => {
            let rows = registry
                .list()
                .into_iter()
                .map(|(name, status)| {
                    let mut obj = status.to_json();
                    if let Json::Obj(map) = &mut obj {
                        map.insert("name".into(), Json::Str(name));
                    }
                    obj
                })
                .collect();
            Ok(Json::obj([("sessions", Json::Arr(rows))]))
        }
        ("POST", "/v1/sessions") => {
            let spec = SessionSpec::from_json(&parse(&req.body)?)?;
            let session = registry.create(&spec)?;
            let mut obj = session.status().to_json();
            if let Json::Obj(map) = &mut obj {
                map.insert("name".into(), Json::Str(spec.name));
                map.insert("created".into(), Json::Bool(true));
            }
            Ok(obj)
        }
        ("GET", p) if session_name(p).is_some() => {
            let name = session_name(p).expect("guard");
            let session = registry.get(name)?;
            let mut obj = session.status().to_json();
            if let Json::Obj(map) = &mut obj {
                map.insert("name".into(), Json::Str(name.into()));
            }
            Ok(obj)
        }
        ("DELETE", p) if session_name(p).is_some() => {
            let name = session_name(p).expect("guard");
            registry.delete(name)?;
            Ok(Json::obj([("deleted", Json::Str(name.into()))]))
        }
        ("GET", p) if p.starts_with("/v1/explain/") => {
            let id =
                p["/v1/explain/".len()..]
                    .parse::<u32>()
                    .map_err(|_| ServeError::BadRequest {
                        detail: "explain id must be an integer".into(),
                    })?;
            let breakdown = session.explain(JobId(id))?;
            Ok(match breakdown {
                None => Json::obj([("found", Json::Bool(false))]),
                Some(b) => Json::obj([
                    ("found", Json::Bool(true)),
                    ("job", Json::UInt(b.job.0.into())),
                    ("submit", Json::UInt(b.submit)),
                    ("start", Json::UInt(b.start)),
                    ("capacity_wait", Json::UInt(b.capacity_wait)),
                    ("reservation_wait", Json::UInt(b.reservation_wait)),
                ]),
            })
        }
        ("GET", p) if p.starts_with("/v1/jobs/") => {
            let id = p["/v1/jobs/".len()..]
                .parse::<u32>()
                .map_err(|_| ServeError::BadRequest {
                    detail: "job id must be an integer".into(),
                })?;
            Ok(match session.record_of(JobId(id)) {
                None => Json::obj([("found", Json::Bool(false))]),
                Some(r) => {
                    let mut obj = api::record_to_json(&r);
                    if let Json::Obj(map) = &mut obj {
                        map.insert("found".into(), Json::Bool(true));
                    }
                    obj
                }
            })
        }
        ("GET", "/v1/fairness") => {
            let (snap, users) = session.fairness();
            Ok(api::fairness_to_json(&snap, &users))
        }
        ("GET", "/v1/profile") => {
            let report = session.profile();
            Ok(Json::obj([
                ("wall_ns", Json::UInt(report.wall_ns)),
                ("sched_passes", Json::UInt(report.counters.sched_passes)),
                (
                    "backfill_attempts",
                    Json::UInt(report.counters.backfill_attempts),
                ),
                (
                    "backfill_successes",
                    Json::UInt(report.counters.backfill_successes),
                ),
                ("steps", Json::UInt(session.steps())),
                ("text", Json::Str(report.to_string())),
            ]))
        }
        ("POST", "/v1/seal") => session.seal().map(|r| r.to_json()),
        ("POST", "/v1/shutdown") => {
            // Seal every session so trace subscribers see the close; then
            // flag the accept loop down. The response goes out first
            // because the connection already exists.
            let sealed_now = !session.status().sealed;
            registry.seal_all();
            stop.trigger();
            Ok(Json::obj([
                ("stopping", Json::Bool(true)),
                ("sealed_now", Json::Bool(sealed_now)),
            ]))
        }
        (_, p) if p.starts_with("/v1/") => Err(ServeError::BadRequest {
            detail: format!("no route for {} {}", req.method, p),
        }),
        _ => Err(ServeError::BadRequest {
            detail: "unknown path; the API lives under /v1/".into(),
        }),
    }
}

/// The `{name}` of a bare `/v1/sessions/{name}` path (no trailing
/// segment), if this is one.
fn session_name(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/v1/sessions/")?;
    if rest.is_empty() || rest.contains('/') {
        return None;
    }
    Some(rest)
}

/// Streams trace records as JSONL until the session seals (subscribers
/// get a `None` terminator), the session drops this reader for falling
/// behind, or the client goes away. The final line reports how many
/// lines the session had to drop on this subscriber — 0 for a reader
/// that kept up, nonzero when the stream is incomplete.
fn stream_trace(mut stream: TcpStream, session: &Session) {
    let sub = session.subscribe();
    if write_stream_header(&mut stream, "application/jsonl").is_err() {
        return;
    }
    let severed = loop {
        match sub.recv() {
            Ok(Some(mut line)) => {
                line.push('\n');
                if stream.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
            Ok(None) => break false,
            Err(_) => break true,
        }
    };
    let mut close = Json::obj([
        ("trace_end", Json::Bool(true)),
        ("severed", Json::Bool(severed)),
        ("dropped", Json::UInt(sub.dropped())),
    ])
    .render();
    close.push('\n');
    let _ = stream.write_all(close.as_bytes());
    let _ = stream.flush();
}
