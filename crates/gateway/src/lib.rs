//! HTTP/1.1 gateway in front of the daemon: clip in, report out.
//!
//! The paper closes by imagining a service where users "upload a video
//! sequence of a standing long jump" and get their analysis back. The
//! daemon already speaks `slj-wire/1` for that; this crate puts a plain
//! HTTP face on it so anything that can speak `curl` can submit a clip:
//!
//! - `POST /v1/jobs` — body is one line of open-request JSON followed
//!   by the clip as concatenated binary PPM frames (the on-disk clip
//!   format's `frame_*.ppm` bytes laid end to end). The gateway
//!   forwards it as one `OPEN_CLIP`; the daemon decodes and feeds the
//!   frames itself. Replies `202` with a job id. `Expect:
//!   100-continue` is honoured: the refusals the gateway can decide
//!   from the headers arrive before any body byte is sent.
//! - `GET /v1/jobs/{id}` — `202` while running, `200` with the report
//!   JSON (byte-identical to `slj analyze --stream --report`), `502`
//!   when the session failed. `?wait_ms=N` holds a running job's
//!   request until it finishes or `N` ms pass (capped at the read
//!   timeout): one long-poll instead of a polling loop.
//! - `GET /v1/jobs/{id}/events` — the session's health-event JSONL.
//! - `GET /healthz`, `GET /metrics` — liveness and counters.
//! - `POST /v1/drain` — drains gateway and daemon.
//!
//! The robustness posture mirrors the daemon's: every limit is a typed
//! status, not a hang. Admission shed by the daemon maps to `429` with
//! `Retry-After`; draining maps to `503`; malformed or oversized bodies
//! are refused with a `4xx` *before* any wire session is opened; and
//! every connection lives under read/write deadlines so slow or stalled
//! peers are reaped, never accumulated.

pub mod http;

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use slj_daemon::server::ACCEPT_ERROR_BACKOFF;
use slj_daemon::{
    AcceptWake, Addr, Client, ClientError, ClientOptions, Listener, OpenRequest, Stream,
};
use slj_obs::MetricsRegistry;

use http::{read_body, read_head, write_response, HttpError, Limits, Request};

/// Gateway knobs. The defaults are sized for the daemon's own default
/// wire-frame cap: a body that passes the gateway always fits the one
/// `OPEN_CLIP` frame it becomes.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Maximum request body (open-request line + PPM bytes). Must stay
    /// under the daemon's `max_frame` minus the envelope overhead.
    pub max_body: usize,
    /// Maximum request line + header bytes.
    pub max_header: usize,
    /// In-flight (running) job cap; admissions beyond it get `429`.
    pub max_jobs: usize,
    /// Finished jobs retained for `GET` before the oldest are evicted.
    pub max_done: usize,
    /// Concurrent HTTP connections; accepts beyond it get `503`.
    pub max_conns: usize,
    /// Per-connection socket read deadline (slowloris bound); also the
    /// longest a `?wait_ms=` long-poll is held.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline (stalled-reader bound).
    pub write_timeout: Duration,
    /// The `Retry-After` seconds sent with every `429`.
    pub retry_after: u64,
    /// Options for the wire connections the gateway dials.
    pub client: ClientOptions,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            // 4 KiB of slack covers the JSON line + wire envelope.
            max_body: slj_daemon::DEFAULT_MAX_FRAME - 4096,
            max_header: 16 * 1024,
            max_jobs: 16,
            max_done: 256,
            max_conns: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after: 1,
            client: ClientOptions::default(),
        }
    }
}

/// A submitted job's lifecycle.
enum JobState {
    /// The daemon admitted the clip; a worker is waiting on the result.
    Running,
    /// Terminal: the report arrived.
    Done(slj_daemon::RemoteAnalysis),
    /// Terminal: the session failed server-side.
    Failed(String),
}

struct Shared {
    daemon: Addr,
    config: GatewayConfig,
    /// Gateway-initiated or operator-initiated drain: new jobs get 503.
    draining: AtomicBool,
    /// Acceptor stop flag (set by [`GatewayHandle::shutdown`]).
    stop: AtomicBool,
    /// Wakes the acceptor out of its blocking `accept` on shutdown.
    wake: AcceptWake,
    jobs: Mutex<BTreeMap<u64, JobState>>,
    /// Notified when a job turns terminal and on shutdown: long-polls
    /// wait on it.
    job_done: Condvar,
    running: AtomicUsize,
    next_job: AtomicU64,
    conns: AtomicUsize,
    metrics: Mutex<MetricsRegistry>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn inc(&self, name: &'static str) {
        self.metrics.lock().unwrap().inc(name, 1);
    }
}

/// The gateway entry point.
pub struct Gateway;

/// A running gateway. Call [`shutdown`](GatewayHandle::shutdown) to
/// stop accepting and join every thread.
pub struct GatewayHandle {
    /// The address actually bound (OS-assigned ports resolved).
    pub addr: Addr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl GatewayHandle {
    /// Stops admitting new jobs (they get `503`); existing jobs finish
    /// and their reports stay fetchable.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested (by this handle or an HTTP
    /// `POST /v1/drain`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Jobs currently running (admitted, terminal not yet recorded).
    pub fn jobs_running(&self) -> usize {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Stops the acceptor, answers every outstanding long-poll with the
    /// job's current state, joins every job worker, and returns the
    /// final metrics. In-flight HTTP connections get up to one
    /// read+write deadline to finish.
    pub fn shutdown(self) -> MetricsRegistry {
        {
            // Under the jobs lock, so a long-poll between its stop
            // check and its wait cannot miss the notify.
            let _jobs = self.shared.jobs.lock().unwrap();
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.shared.job_done.notify_all();
        self.shared.wake.wake();
        let _ = self.acceptor.join();
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for worker in workers {
            let _ = worker.join();
        }
        let deadline =
            Instant::now() + self.shared.config.read_timeout + self.shared.config.write_timeout;
        while self.shared.conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.metrics.lock().unwrap().clone()
    }
}

impl Gateway {
    /// Binds `listen` and serves HTTP against the daemon at `daemon`.
    /// The daemon is dialed per job, not at startup — a gateway may
    /// outlive daemon restarts.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn start(listen: &Addr, daemon: Addr, config: GatewayConfig) -> io::Result<GatewayHandle> {
        let (listener, addr) = Listener::bind(listen)?;
        let wake = AcceptWake::new(&listener)?;
        let shared = Arc::new(Shared {
            daemon,
            config,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            wake,
            jobs: Mutex::new(BTreeMap::new()),
            job_done: Condvar::new(),
            running: AtomicUsize::new(0),
            next_job: AtomicU64::new(1),
            conns: AtomicUsize::new(0),
            metrics: Mutex::new(MetricsRegistry::default()),
            workers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("slj-gateway-accept".to_owned())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn gateway acceptor")
        };
        Ok(GatewayHandle {
            addr,
            shared,
            acceptor,
        })
    }
}

/// Blocks in `accept`; [`GatewayHandle::shutdown`] raises `stop` and
/// then dials the listener, so the accept that returns sees the flag.
fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = accepted else {
            thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        if shared.conns.fetch_add(1, Ordering::SeqCst) >= shared.config.max_conns {
            // Over the connection cap: answer 503 inline (the acceptor
            // can afford one bounded write) and close.
            shared.inc("gateway_conns_shed");
            let mut stream = stream;
            let _ = Reply::text(503, "gateway connection limit reached\n").send(&mut stream);
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        shared.inc("gateway_conns");
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name("slj-gateway-conn".to_owned())
            .spawn(move || {
                handle_connection(&shared, stream);
                shared.conns.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn gateway connection thread");
    }
    shared.wake.close();
    if let Some(path) = listener.unix_path() {
        let _ = std::fs::remove_file(path);
    }
}

/// A response decided in full before it is written, so no lock is held
/// and no body is read across the socket write.
struct Reply {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Reply {
        Reply {
            status,
            content_type,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    fn text(status: u16, body: impl Into<Vec<u8>>) -> Reply {
        Reply::new(status, "text/plain", body)
    }

    fn json(status: u16, body: impl Into<Vec<u8>>) -> Reply {
        Reply::new(status, "application/json", body)
    }

    fn header(mut self, name: &'static str, value: String) -> Reply {
        self.headers.push((name, value));
        self
    }

    fn send(&self, stream: &mut Stream) -> io::Result<()> {
        write_response(
            stream,
            self.status,
            self.content_type,
            &self.headers,
            &self.body,
        )
    }
}

/// What a request asks for, decided from its line alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Healthz,
    Metrics,
    Submit,
    Drain,
    Job {
        id: u64,
        events: bool,
    },
    /// A known path under the wrong method; carries the `Allow` value.
    WrongMethod(&'static str),
    NotFound,
}

impl Route {
    fn of(method: &str, target: &str) -> Route {
        let path = target.split('?').next().unwrap_or("");
        match (method, path) {
            ("GET", "/healthz") => Route::Healthz,
            ("GET", "/metrics") => Route::Metrics,
            ("POST", "/v1/jobs") => Route::Submit,
            ("POST", "/v1/drain") => Route::Drain,
            (_, "/healthz" | "/metrics") => Route::WrongMethod("GET"),
            (_, "/v1/jobs" | "/v1/drain") => Route::WrongMethod("POST"),
            (method, path) => match parse_job_path(path) {
                Some((id, events)) if method == "GET" => Route::Job { id, events },
                Some(_) => Route::WrongMethod("GET"),
                None => Route::NotFound,
            },
        }
    }
}

/// One request, one response, close. Every path out of here writes a
/// typed status unless the peer is already gone.
///
/// Between the head and the body, every refusal the gateway can decide
/// locally is made: a client holding its body back for `100 Continue`
/// gets the final status instead, with no body byte read. A client
/// sending its body regardless has it read first, so that closing does
/// not reset the connection under the answer.
fn handle_connection(shared: &Arc<Shared>, mut stream: Stream) {
    let limits = Limits {
        max_header: shared.config.max_header,
        max_body: shared.config.max_body,
    };
    let read = read_head(&mut stream, &limits).and_then(|head| {
        let route = Route::of(&head.method, &head.path);
        match refuse_early(shared, route) {
            Some(refusal) if head.awaits_continue() => Ok(Err(refusal)),
            Some(refusal) => read_body(&mut stream, head).map(|_| Err(refusal)),
            None => read_body(&mut stream, head).map(|request| Ok((route, request))),
        }
    });
    let reply = match read {
        Ok(routed) => {
            shared.inc("gateway_reqs");
            match routed {
                Ok((route, request)) => dispatch(shared, route, request),
                Err(refusal) => refusal,
            }
        }
        Err(err) => {
            shared.inc(match err {
                HttpError::Timeout => "gateway_reqs_timeout",
                HttpError::Disconnected => "gateway_reqs_disconnected",
                _ => "gateway_reqs_malformed",
            });
            match err.status() {
                Some((status, why)) => Reply::text(status, format!("{why}\n")),
                None => return stream.shutdown(),
            }
        }
    };
    let _ = reply.send(&mut stream);
    stream.shutdown();
}

/// The refusals that need no body: an unknown route, a wrong method,
/// and a submission the gateway would shed anyway.
fn refuse_early(shared: &Arc<Shared>, route: Route) -> Option<Reply> {
    match route {
        Route::NotFound => Some(Reply::text(404, "no such resource\n")),
        Route::WrongMethod(allow) => {
            Some(Reply::text(405, "method not allowed\n").header("Allow", allow.to_owned()))
        }
        Route::Submit => refuse_admission(shared),
        _ => None,
    }
}

/// `503` while draining, `429` while the job table is full — the
/// admission answers the gateway gives without dialing the daemon.
fn refuse_admission(shared: &Arc<Shared>) -> Option<Reply> {
    if shared.draining.load(Ordering::SeqCst) {
        shared.inc("gateway_jobs_drained");
        return Some(Reply::text(503, "gateway is draining\n"));
    }
    if shared.running.load(Ordering::SeqCst) >= shared.config.max_jobs {
        shared.inc("gateway_jobs_shed");
        return Some(too_many(shared, "job table is full; retry shortly\n"));
    }
    None
}

fn too_many(shared: &Arc<Shared>, body: impl Into<Vec<u8>>) -> Reply {
    Reply::text(429, body).header("Retry-After", shared.config.retry_after.to_string())
}

fn dispatch(shared: &Arc<Shared>, route: Route, request: Request) -> Reply {
    match route {
        Route::Healthz => handle_healthz(shared),
        Route::Metrics => Reply::text(200, shared.metrics.lock().unwrap().render()),
        Route::Submit => handle_submit(shared, request),
        Route::Drain => handle_drain(shared),
        Route::Job { id, events } => handle_job_get(shared, id, events, &request.path),
        // `refuse_early` answered these before the body.
        Route::WrongMethod(_) | Route::NotFound => unreachable!("refused early"),
    }
}

/// `/v1/jobs/{id}` and `/v1/jobs/{id}/events` → `(id, wants_events)`.
fn parse_job_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    match rest.strip_suffix("/events") {
        Some(id) => id.parse().ok().map(|id| (id, true)),
        None => rest.parse().ok().map(|id| (id, false)),
    }
}

/// The `wait_ms` query parameter of a request target (0 when absent).
fn wait_ms(target: &str) -> Result<u64, String> {
    let Some((_, query)) = target.split_once('?') else {
        return Ok(0);
    };
    match query.split('&').find_map(|kv| kv.strip_prefix("wait_ms=")) {
        None => Ok(0),
        Some(v) => v
            .parse()
            .map_err(|_| format!("wait_ms must be a count of milliseconds, not '{v}'\n")),
    }
}

fn handle_healthz(shared: &Arc<Shared>) -> Reply {
    if shared.draining.load(Ordering::SeqCst) {
        Reply::text(503, "draining\n")
    } else {
        Reply::text(200, "ok\n")
    }
}

/// The ingestion path. Refusal order is deliberate: everything the
/// gateway can decide locally (shape, JSON, drain, job cap) is decided
/// *before* a wire connection is dialed, so bad requests never cost the
/// daemon anything.
fn handle_submit(shared: &Arc<Shared>, request: Request) -> Reply {
    // Body shape: one open-request JSON line, then raw PPM bytes.
    let mut body = request.body;
    let Some(newline) = body.iter().position(|&b| b == b'\n') else {
        shared.inc("gateway_jobs_malformed");
        return Reply::text(
            400,
            "body must be one open-request JSON line followed by PPM frames\n",
        );
    };
    let open: OpenRequest = match std::str::from_utf8(&body[..newline])
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
    {
        Ok(open) => open,
        Err(e) => {
            shared.inc("gateway_jobs_malformed");
            return Reply::text(400, format!("open request does not parse: {e}\n"));
        }
    };
    if newline + 1 == body.len() {
        shared.inc("gateway_jobs_malformed");
        return Reply::text(400, "no clip bytes after the open-request line\n");
    }
    // `refuse_early` checked these before the body; the state may have
    // moved while it arrived.
    if let Some(refusal) = refuse_admission(shared) {
        return refusal;
    }
    // Reserve a job slot before dialing; release on any refusal.
    if shared.running.fetch_add(1, Ordering::SeqCst) >= shared.config.max_jobs {
        shared.running.fetch_sub(1, Ordering::SeqCst);
        shared.inc("gateway_jobs_shed");
        return too_many(shared, "job table is full; retry shortly\n");
    }
    // What is left of the body is the clip: no copy.
    body.drain(..=newline);
    let admitted = Client::connect(&shared.daemon, shared.config.client.clone())
        .map_err(|e| {
            (
                502u16,
                format!("daemon unreachable: {e}\n"),
                "gateway_jobs_bad_upstream",
            )
        })
        .and_then(|mut client| {
            client
                .open_clip(&open, body)
                .map(|session| (client, session))
                .map_err(refusal)
        });
    let (client, session) = match admitted {
        Ok(pair) => pair,
        Err((status, body, counter)) => {
            shared.running.fetch_sub(1, Ordering::SeqCst);
            shared.inc(counter);
            if status == 429 {
                return too_many(shared, body);
            }
            return Reply::text(status, body);
        }
    };
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    {
        let mut jobs = shared.jobs.lock().unwrap();
        // Evict the oldest finished jobs past the retention cap.
        while jobs.len() >= shared.config.max_jobs + shared.config.max_done {
            let evict = jobs
                .iter()
                .find(|(_, s)| !matches!(s, JobState::Running))
                .map(|(&id, _)| id);
            match evict {
                Some(old) => {
                    jobs.remove(&old);
                }
                None => break, // everything is running; the cap bounds this
            }
        }
        jobs.insert(id, JobState::Running);
    }
    shared.inc("gateway_jobs_admitted");
    let worker = {
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name(format!("slj-gateway-job-{id}"))
            .spawn(move || job_worker(&shared, id, client, session))
            .expect("spawn gateway job worker")
    };
    shared.workers.lock().unwrap().push(worker);
    Reply::json(202, format!("{{\"job\":{id},\"state\":\"running\"}}\n"))
}

/// Maps a wire-level refusal onto `(status, body, counter)`. The
/// daemon's admission answers become the HTTP backpressure contract:
/// capacity → `429` (with `Retry-After` added by the caller), draining
/// → `503`, an undecodable clip or unparseable request → `400`.
fn refusal(err: ClientError) -> (u16, String, &'static str) {
    match err {
        ClientError::Rejected { reason } => {
            if reason.contains("at capacity") {
                (
                    429,
                    format!("daemon {reason}; retry shortly\n"),
                    "gateway_jobs_shed",
                )
            } else if reason.contains("draining") {
                (503, format!("daemon is {reason}\n"), "gateway_jobs_drained")
            } else {
                // "clip does not decode", "open request does not parse"
                (
                    400,
                    format!("daemon refused the clip: {reason}\n"),
                    "gateway_jobs_malformed",
                )
            }
        }
        other => (
            502,
            format!("daemon error: {other}\n"),
            "gateway_jobs_bad_upstream",
        ),
    }
}

/// Owns the wire connection for one admitted job until its terminal,
/// then wakes the long-polls waiting on it.
fn job_worker(shared: &Arc<Shared>, id: u64, mut client: Client, session: u64) {
    let outcome = client.await_result(session);
    let mut jobs = shared.jobs.lock().unwrap();
    match outcome {
        Ok(analysis) => {
            shared.metrics.lock().unwrap().inc("gateway_jobs_done", 1);
            jobs.insert(id, JobState::Done(analysis));
        }
        Err(e) => {
            shared.metrics.lock().unwrap().inc("gateway_jobs_failed", 1);
            jobs.insert(id, JobState::Failed(e.to_string()));
        }
    }
    drop(jobs);
    shared.job_done.notify_all();
    shared.running.fetch_sub(1, Ordering::SeqCst);
}

/// `GET /v1/jobs/{id}[/events]`, held up to `?wait_ms=` (capped at the
/// read timeout) while the job runs. The reply is built under the
/// `jobs` lock and written after it is released: a stalled reader must
/// not hold up the job workers or other requests.
fn handle_job_get(shared: &Arc<Shared>, id: u64, events: bool, target: &str) -> Reply {
    let wait = match wait_ms(target) {
        Ok(ms) => Duration::from_millis(ms).min(shared.config.read_timeout),
        Err(why) => return Reply::text(400, why),
    };
    let deadline = Instant::now() + wait;
    let mut jobs = shared.jobs.lock().unwrap();
    loop {
        let now = Instant::now();
        match jobs.get(&id) {
            Some(JobState::Running) if now < deadline && !shared.stop.load(Ordering::SeqCst) => {
                jobs = shared
                    .job_done
                    .wait_timeout(jobs, deadline - now)
                    .unwrap()
                    .0;
            }
            None => return Reply::text(404, format!("no job {id}\n")),
            Some(JobState::Running) => {
                return Reply::json(202, format!("{{\"job\":{id},\"state\":\"running\"}}\n"))
            }
            Some(JobState::Failed(error)) => {
                // The vendored serde_json has no json! macro; escape the
                // error by serialising it as a lone string.
                let quoted = serde_json::to_string(error).unwrap_or_else(|_| "\"?\"".to_owned());
                return Reply::json(
                    502,
                    format!("{{\"job\":{id},\"state\":\"failed\",\"error\":{quoted}}}\n"),
                );
            }
            Some(JobState::Done(analysis)) if events => {
                let mut body = analysis.events.join("\n");
                body.push('\n');
                return Reply::new(200, "application/x-ndjson", body);
            }
            // The report bytes verbatim: byte-identical to the daemon's
            // ANALYSIS and to `slj analyze --stream`.
            Some(JobState::Done(analysis)) => {
                return Reply::json(200, analysis.summary_json.clone())
            }
        }
    }
}

/// Drains gateway and daemon: local admissions stop first, then the
/// wire `DRAIN` is forwarded so the daemon refuses everyone else too.
fn handle_drain(shared: &Arc<Shared>) -> Reply {
    shared.draining.store(true, Ordering::SeqCst);
    shared.inc("gateway_drains");
    match Client::connect(&shared.daemon, shared.config.client.clone())
        .and_then(|mut client| client.drain())
    {
        Ok(in_flight) => Reply::json(
            200,
            format!("{{\"state\":\"draining\",\"daemon_in_flight\":{in_flight}}}\n"),
        ),
        Err(e) => Reply::text(
            502,
            format!("gateway draining, but the daemon could not be reached: {e}\n"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_paths_parse() {
        assert_eq!(parse_job_path("/v1/jobs/7"), Some((7, false)));
        assert_eq!(parse_job_path("/v1/jobs/7/events"), Some((7, true)));
        assert_eq!(parse_job_path("/v1/jobs/"), None);
        assert_eq!(parse_job_path("/v1/jobs/x"), None);
        assert_eq!(parse_job_path("/v1/jobs/7/other"), None);
        assert_eq!(parse_job_path("/v2/jobs/7"), None);
    }
}
