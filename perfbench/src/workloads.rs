//! The three workloads: set-up, identity gate, timed loop, and the
//! traced layer stack.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use slj::JumpAnalysis;
use slj_daemon::{Addr, Daemon, DaemonConfig, DaemonHandle};
use slj_ga::tracker::RecoveryAction;
use slj_gateway::{Gateway, GatewayConfig, GatewayHandle};
use slj_runtime::Parallelism;
use slj_serve::{ServeConfig, SessionManager};

use crate::clips::{self, Clip, ClipKind, Quality};
use crate::layers::{self, OfferCounts, Tracer};
use crate::stats;
use crate::trace::{self, Ledger};

/// Concurrent clients (threads, and so connections) of the load
/// generator: the 2-core reference host's `nproc`.
pub const CLIENTS: usize = 2;

/// Open-loop arrival rate of `http-clips`, jobs per second. With the
/// gateway's 1 s `Expect` stall a job holds a client for ~1.15 s, so
/// two clients carry this rate at ~70% occupancy with a flat backlog.
pub const HTTP_RATE: f64 = 1.25;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Largest gap, in percent of the end-to-end median, allowed between
/// the sum of per-layer medians and the end-to-end median of the same
/// traced clips.
pub const ATTRIBUTION_TOLERANCE_PCT: f64 = 25.0;

/// Session-manager fan-out inside the daemon and the manager layer.
const MANAGER_THREADS: usize = 2;

/// Passes of the traced layer stack over its clips; a layer's per-clip
/// time is the median of its passes.
const STACK_REPS: usize = 3;

/// Span id of stack clip `clip` on pass `rep`.
fn stack_id(clip: u64, rep: usize) -> u64 {
    clip + 100 * rep as u64
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `StreamingAnalyzer`, default config at
    /// `Parallelism::Auto`, one closed-loop caller.
    AnalyzeFull,
    /// In-process daemon on a Unix socket, two lockstep `FRAME` clients
    /// in a closed loop, one connection per clip.
    WireFrames,
    /// Gateway on TCP loopback in front of the daemon, fed open-loop at
    /// [`HTTP_RATE`] by a curl-like client.
    HttpClips,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AnalyzeFull,
        Workload::WireFrames,
        Workload::HttpClips,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeFull => "analyze-full",
            Workload::WireFrames => "wire-frames",
            Workload::HttpClips => "http-clips",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn kind(self) -> ClipKind {
        match self {
            Workload::AnalyzeFull => ClipKind::Full,
            Workload::WireFrames | Workload::HttpClips => ClipKind::Compact,
        }
    }

    /// Distinct clips per run (a multiple of 8, so every flaw appears
    /// equally often).
    fn pool_size(self) -> usize {
        match self {
            Workload::AnalyzeFull => 48,
            Workload::WireFrames | Workload::HttpClips => 24,
        }
    }

    /// Clips the traced layer stack takes through every layer.
    fn stack_clips(self) -> usize {
        match self {
            Workload::AnalyzeFull => 4,
            Workload::WireFrames | Workload::HttpClips => 6,
        }
    }

    /// Parallelism of the entry point's analyzer.
    fn parallelism(self) -> Parallelism {
        match self {
            Workload::AnalyzeFull => Parallelism::Auto,
            // Daemon sessions run their analyzer serially.
            Workload::WireFrames | Workload::HttpClips => Parallelism::Serial,
        }
    }
}

/// What one invocation should do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Distinct clips (the workload's default when `None`).
    pub pool: Option<usize>,
    /// Set-ups to take the median of (the default when `None`).
    pub setup_reps: Option<usize>,
}

/// A metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every report matched its reference and every check held.
    pub correct: bool,
    /// Clips attempted (identity gate and measured loop).
    pub attempted: u64,
    /// Clips that failed, were refused, or missed the identity check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (percentiles, counts, checks).
    pub notes: Vec<String>,
}

static CORRUPT_NEXT: AtomicBool = AtomicBool::new(false);

/// Makes the next identity comparison see its report with one byte
/// altered (the self-test's proof that the gate trips).
pub fn corrupt_next_report() {
    CORRUPT_NEXT.store(true, Ordering::SeqCst);
}

/// The identity gate: the report bytes a layer returned must equal the
/// in-process reference byte for byte.
fn identical(expected: &str, got: &str) -> bool {
    if CORRUPT_NEXT.swap(false, Ordering::SeqCst) {
        let mut altered = got.as_bytes().to_vec();
        if let Some(b) = altered.first_mut() {
            *b ^= 0x01;
        }
        return altered == expected.as_bytes();
    }
    expected.as_bytes() == got.as_bytes()
}

/// The in-process daemon and gateway of one run.
struct Services {
    daemon: Option<DaemonHandle>,
    gateway: Option<GatewayHandle>,
    daemon_addr: Addr,
    http_host: String,
}

impl Services {
    fn start(daemon: bool, gateway: bool) -> Result<Services, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let socket = PathBuf::from(format!(
            "out/daemon-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        let mut services = Services {
            daemon: None,
            gateway: None,
            daemon_addr: Addr::Unix(socket),
            http_host: String::new(),
        };
        if !daemon {
            return Ok(services);
        }
        let config = DaemonConfig {
            serve: ServeConfig {
                parallelism: Parallelism::Fixed(MANAGER_THREADS),
                ..ServeConfig::default()
            },
            ..DaemonConfig::default()
        };
        let handle = Daemon::start(&[services.daemon_addr.clone()], config)
            .map_err(|e| format!("daemon start: {e}"))?;
        services.daemon_addr = handle.addrs[0].clone();
        services.daemon = Some(handle);
        if gateway {
            let handle = Gateway::start(
                &Addr::Tcp("127.0.0.1:0".to_owned()),
                services.daemon_addr.clone(),
                GatewayConfig::default(),
            )
            .map_err(|e| format!("gateway start: {e}"))?;
            services.http_host = match &handle.addr {
                Addr::Tcp(host) => host.clone(),
                other => return Err(format!("gateway bound a non-TCP address {other:?}")),
            };
            services.gateway = Some(handle);
        }
        Ok(services)
    }

    /// Stops the gateway, then drains and joins the daemon.
    fn stop(self) {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        if let Some(daemon) = self.daemon {
            daemon.drain();
            daemon.join();
        }
    }
}

/// One clip execution in a loop.
#[derive(Debug, Clone, Default)]
struct Sample {
    latency_ms: f64,
    /// Host-wide CPU ticks stolen by the hypervisor while the clip ran.
    stolen_ticks: u64,
    lateness_ms: f64,
    ok: bool,
    error: Option<String>,
    polls: u64,
    conns: u64,
    refused: u64,
    requests: u64,
}

/// Everything a loop measured.
#[derive(Debug, Default)]
struct LoopStats {
    samples: Vec<Sample>,
    wall_s: f64,
    counts: OfferCounts,
}

impl LoopStats {
    fn ok_latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms)
            .collect()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    fn first_error(&self) -> Option<&str> {
        self.samples.iter().find_map(|s| s.error.as_deref())
    }
}

/// When a loop stops starting clips.
#[derive(Debug, Clone, Copy)]
enum Stop {
    At(Instant),
    Count(usize),
}

impl Stop {
    fn reached(self, i: usize, scheduled: Instant) -> bool {
        match self {
            Stop::At(deadline) => scheduled >= deadline,
            Stop::Count(n) => i >= n,
        }
    }
}

/// Span id of the `i`-th execution of a pool: the clip's id on the
/// first pass over the pool, unique on later passes.
fn request_id(i: usize, clip: &Clip, pool: usize) -> u64 {
    clip.id + 1000 * (i / pool) as u64
}

/// One clip through the workload's entry point: its report and its
/// latency, per the workload's definition (for `http-clips`, from the
/// upload's start).
fn enter(
    workload: Workload,
    services: &Services,
    clip: &Clip,
    tr: Tracer,
    counts: &mut OfferCounts,
) -> Result<(String, f64), String> {
    match workload {
        Workload::AnalyzeFull => layers::streaming(clip, workload.parallelism(), tr, "slj.clip")
            .map(|(a, ms)| (clips::report_bytes(&a), ms)),
        Workload::WireFrames => layers::wire_frames(&services.daemon_addr, clip, tr, counts),
        Workload::HttpClips => {
            let start = Instant::now();
            let job = layers::http_job(&services.http_host, &clip.http_body(), tr);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match job.report {
                Some(report) => Ok((report, ms)),
                None => Err(job.error.unwrap_or_default()),
            }
        }
    }
}

/// [`enter`], with the report checked against the reference.
fn execute(
    workload: Workload,
    services: &Services,
    clip: &Clip,
    expected: &str,
    tr: Tracer,
    counts: &mut OfferCounts,
) -> Sample {
    match enter(workload, services, clip, tr, counts) {
        Ok((report, latency_ms)) => {
            let ok = identical(expected, &report);
            Sample {
                latency_ms,
                ok,
                error: (!ok)
                    .then(|| format!("clip {}: report differs from the reference", clip.id)),
                ..Sample::default()
            }
        }
        Err(e) => Sample {
            error: Some(format!("clip {}: {e}", clip.id)),
            ..Sample::default()
        },
    }
}

fn http_sample(job: layers::HttpJob, latency_ms: f64, lateness_ms: f64, expected: &str) -> Sample {
    let mut sample = Sample {
        latency_ms,
        lateness_ms,
        polls: job.polls,
        conns: job.conns,
        refused: job.refused,
        requests: job.requests,
        ..Sample::default()
    };
    match job.report {
        Some(report) if identical(expected, &report) => sample.ok = true,
        Some(_) => sample.error = Some("HTTP report differs from the reference".to_owned()),
        None => sample.error = job.error,
    }
    sample
}

/// `workers` callers, each sending its next clip as soon as the last
/// one returned.
fn closed_loop(
    workload: Workload,
    services: &Services,
    pool: &[Clip],
    refs: &[String],
    workers: usize,
    stop: Stop,
    ledger: Option<&Ledger>,
) -> LoopStats {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(LoopStats::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut counts = OfferCounts::default();
                let mut samples = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if stop.reached(i, Instant::now()) {
                        break;
                    }
                    let k = i % pool.len();
                    let tr = Tracer::new(ledger, request_id(i, &pool[k], pool.len()));
                    let before = cpu_ticks();
                    let mut sample =
                        execute(workload, services, &pool[k], &refs[k], tr, &mut counts);
                    sample.stolen_ticks = stolen_since(before);
                    samples.push(sample);
                }
                let mut out = out.lock().expect("loop worker panicked");
                out.samples.extend(samples);
                out.counts.offered += counts.offered;
                out.counts.overloaded += counts.overloaded;
            });
        }
    });
    let mut stats = out.into_inner().expect("loop worker panicked");
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// The open-loop HTTP generator: job `i` is due at `start + i / rate`,
/// whichever of `workers` clients is free takes it, and its latency
/// runs from when it was due.
fn open_loop(
    host: &str,
    pool: &[Clip],
    refs: &[String],
    rate: f64,
    workers: usize,
    stop: Stop,
    ledger: Option<&Ledger>,
) -> LoopStats {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(LoopStats::default());
    let bodies: Vec<Vec<u8>> = pool.iter().map(Clip::http_body).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut samples = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    if stop.reached(i, due) {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let before = cpu_ticks();
                    let k = i % pool.len();
                    let tr = Tracer::new(ledger, request_id(i, &pool[k], pool.len()));
                    let job = layers::http_job(host, &bodies[k], tr);
                    let done = Instant::now();
                    let mut sample = http_sample(
                        job,
                        (done - due).as_secs_f64() * 1e3,
                        (sent - due).as_secs_f64() * 1e3,
                        &refs[k],
                    );
                    sample.stolen_ticks = stolen_since(before);
                    samples.push(sample);
                }
                out.lock()
                    .expect("generator worker panicked")
                    .samples
                    .extend(samples);
            });
        }
    });
    let mut stats = out.into_inner().expect("generator worker panicked");
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// The workload's measured loop.
fn measured_loop(
    workload: Workload,
    services: &Services,
    pool: &[Clip],
    refs: &[String],
    seconds: f64,
    ledger: Option<&Ledger>,
) -> LoopStats {
    let stop = Stop::At(Instant::now() + Duration::from_secs_f64(seconds));
    match workload {
        Workload::AnalyzeFull => closed_loop(workload, services, pool, refs, 1, stop, ledger),
        Workload::WireFrames => closed_loop(workload, services, pool, refs, CLIENTS, stop, ledger),
        Workload::HttpClips => open_loop(
            &services.http_host,
            pool,
            refs,
            HTTP_RATE,
            CLIENTS,
            stop,
            ledger,
        ),
    }
}

/// Host-wide CPU ticks from `/proc/stat`: (all, steal).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// Steal ticks since a [`cpu_ticks`] reading (0 when unreadable).
fn stolen_since(before: Option<(u64, u64)>) -> u64 {
    match (before, cpu_ticks()) {
        (Some(a), Some(b)) => b.1.saturating_sub(a.1),
        _ => 0,
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Starts the services the run needs and sends one warm-up clip through
/// the entry point. The warm-up's report bytes are returned for the
/// identity gate, not its timing.
fn start_and_warm(
    opts: &Options,
    pool: &[Clip],
) -> Result<(Services, Result<String, String>), String> {
    let w = opts.workload;
    let services = Services::start(
        opts.trace || w != Workload::AnalyzeFull,
        opts.trace || w == Workload::HttpClips,
    )?;
    let warm = enter(
        opts.workload,
        &services,
        &pool[0],
        Tracer::new(None, 0),
        &mut OfferCounts::default(),
    )
    .map(|(report, _)| report);
    Ok((services, warm))
}

/// Runs the workload and returns its metrics.
///
/// Set-up is clip synthesis, then starting the services and a warm-up
/// clip. The pool is synthesised once (so its memory is allocated once)
/// and the start-and-warm-up step is repeated: each set-up sample is the
/// synthesis time plus one start-and-warm-up, and `setup_s` is their
/// median.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let t = Instant::now();
    let pool = clips::synthesize(
        w.kind(),
        opts.seed,
        opts.pool.unwrap_or(w.pool_size()),
        opts.trace || w == Workload::HttpClips,
        CLIENTS,
    );
    let synthesis_s = t.elapsed().as_secs_f64();
    let reps = if opts.trace {
        1
    } else {
        opts.setup_reps.unwrap_or(SETUP_REPS).max(1)
    };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..reps {
        if let Some((services, _)) = state.take() {
            Services::stop(services);
        }
        let t = Instant::now();
        let started = start_and_warm(opts, &pool)?;
        setup_s.push(synthesis_s + t.elapsed().as_secs_f64());
        state = Some(started);
    }
    let (services, warm) = state.expect("at least one set-up");
    let result = measure(opts, &pool, &services, warm, &setup_s);
    services.stop();
    result
}

fn measure(
    opts: &Options,
    pool: &[Clip],
    services: &Services,
    warm: Result<String, String>,
    setup_s: &[f64],
) -> Result<Outcome, String> {
    let w = opts.workload;
    let mut notes = Vec::new();
    let mut correct = true;
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Identity gate, before any timing: the serial in-process reference
    // of every clip, then every clip through the entry point. For
    // `analyze-full` the entry point is the same `StreamingAnalyzer` at
    // `Parallelism::Auto`; its pass is the measured loop itself, whose
    // every report is held to the serial reference and left out of the
    // timings when it differs.
    let analyses = clips::references(pool, CLIENTS)?;
    let refs: Vec<String> = analyses.iter().map(clips::report_bytes).collect();
    attempted += 1;
    let warm = warm.and_then(|report| {
        if identical(&refs[0], &report) {
            Ok(())
        } else {
            Err("report differs from the reference".to_owned())
        }
    });
    if let Err(e) = warm {
        failed += 1;
        correct = false;
        notes.push(format!("identity gate: warm-up clip 1: {e}"));
    }
    if w != Workload::AnalyzeFull {
        let gate = closed_loop(
            w,
            services,
            pool,
            &refs,
            CLIENTS,
            Stop::Count(pool.len()),
            None,
        );
        attempted += gate.samples.len() as u64;
        failed += gate.failed();
        if gate.failed() > 0 {
            correct = false;
            notes.push(format!(
                "identity gate: {} of {} clips failed (first: {})",
                gate.failed(),
                gate.samples.len(),
                gate.first_error().unwrap_or("?")
            ));
        }
    }
    let quality = clips::quality(pool, &analyses);

    let mut metrics = Vec::new();
    if !opts.trace {
        let cpu_before = cpu_ticks();
        let timed = measured_loop(w, services, pool, &refs, opts.seconds, None);
        if let (Some(a), Some(b)) = (cpu_before, cpu_ticks()) {
            let total = (b.0 - a.0).max(1) as f64;
            notes.push(format!(
                "host: {:.1}% of CPU time was stolen by the hypervisor during the measured loop",
                100.0 * (b.1 - a.1) as f64 / total
            ));
        }
        attempted += timed.samples.len() as u64;
        failed += timed.failed();
        if timed.failed() > 0 {
            correct = false;
            notes.push(format!(
                "measured loop: {} of {} clips failed (first: {})",
                timed.failed(),
                timed.samples.len(),
                timed.first_error().unwrap_or("?")
            ));
        }
        let lat = timed.ok_latencies();
        let tail = stats::tail(&lat).ok_or("the measured loop completed no clip")?;
        let unstolen: Vec<f64> = timed
            .samples
            .iter()
            .filter(|s| s.ok && s.stolen_ticks == 0)
            .map(|s| s.latency_ms)
            .collect();
        notes.push(format!(
            "unstolen: latency p50 {:.3} ms over the {} of {} clips that ran without hypervisor steal",
            stats::median(&unstolen).unwrap_or(f64::NAN),
            unstolen.len(),
            lat.len()
        ));
        notes.push(format!(
            "latency_tail_ms is p{:.1} of {} clips",
            tail.percentile, tail.samples
        ));
        notes.push(format!(
            "distance_err_cm over {} measured clips ({} complete, {} partial; {} unmeasured) of {} clips, {} of them faulted",
            quality.distance_complete + quality.distance_partial,
            quality.distance_complete,
            quality.distance_partial,
            quality.distance_missing,
            pool.len(),
            pool.iter().filter(|c| c.faulty).count()
        ));
        notes.push(format!(
            "verdict_match_frac: {} of {} clips match the true score card on all seven rules",
            quality.cards_matched,
            pool.len()
        ));
        if w == Workload::HttpClips {
            let lateness: Vec<f64> = timed.samples.iter().map(|s| s.lateness_ms).collect();
            notes.push(format!(
                "generator lateness p50 {:.3} ms, max {:.3} ms",
                stats::median(&lateness).unwrap_or(f64::NAN),
                lateness.iter().copied().fold(0.0, f64::max)
            ));
        }
        let completed = lat.len() as f64;
        let push = |m: &mut Vec<Metric>, name, unit, value| m.push(Metric { name, unit, value });
        push(
            &mut metrics,
            "setup_s",
            "s",
            stats::median(setup_s).unwrap_or(f64::NAN),
        );
        push(
            &mut metrics,
            "latency_p50_ms",
            "ms",
            stats::median(&lat).unwrap_or(f64::NAN),
        );
        push(&mut metrics, "latency_tail_ms", "ms", tail.value);
        push(&mut metrics, "clips_per_s", "1/s", completed / timed.wall_s);
        push(
            &mut metrics,
            "success_frac",
            "ratio",
            (attempted - failed) as f64 / attempted as f64,
        );
        push(&mut metrics, "peak_rss_mb", "MiB", peak_rss_mb());
        push_quality(&mut metrics, &quality);
    } else {
        let traced = traced_run(opts, pool, services, &refs, &analyses, &mut notes)?;
        attempted += traced.attempted;
        failed += traced.failed;
        correct &= traced.correct;
        metrics = traced.metrics;
    }
    for m in &metrics {
        if !m.value.is_finite() {
            correct = false;
            notes.push(format!("{} could not be measured", m.name));
        }
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn push_quality(metrics: &mut Vec<Metric>, q: &Quality) {
    metrics.push(Metric {
        name: "pose_rmse_px",
        unit: "px",
        value: q.pose_rmse_px,
    });
    metrics.push(Metric {
        name: "distance_err_cm",
        unit: "cm",
        value: q.distance_err_cm,
    });
    metrics.push(Metric {
        name: "verdict_match_frac",
        unit: "ratio",
        value: q.verdict_match_frac,
    });
}

/// Every check the layer stack makes, and the failed ones.
struct Checks<'a> {
    refs: &'a [String],
    attempted: u64,
    failures: Vec<String>,
}

impl<'a> Checks<'a> {
    fn new(refs: &'a [String]) -> Self {
        Checks {
            refs,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// A layer's report must equal the clip's reference.
    fn report(&mut self, layer: &str, clip: &Clip, got: Result<String, String>) {
        let expected = &self.refs[(clip.id - 1) as usize];
        match got {
            Ok(report) => self.expect(identical(expected, &report), || {
                format!("{layer} clip {}: report differs", clip.id)
            }),
            Err(e) => self.expect(false, || format!("{layer} clip {}: {e}", clip.id)),
        }
    }

    fn expect(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }
}

struct Traced {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The traced run: half the loop untraced, half traced (their p50s give
/// the tracing overhead), then the layer stack on the first clips of the
/// pool, each through every layer in turn, one clip at a time.
fn traced_run(
    opts: &Options,
    pool: &[Clip],
    services: &Services,
    refs: &[String],
    analyses: &[JumpAnalysis],
    notes: &mut Vec<String>,
) -> Result<Traced, String> {
    let w = opts.workload;
    let mut out = Traced {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let loop_ledger = Ledger::default();
    let plain = measured_loop(w, services, pool, refs, opts.seconds / 2.0, None);
    let traced = measured_loop(
        w,
        services,
        pool,
        refs,
        opts.seconds / 2.0,
        Some(&loop_ledger),
    );
    for l in [&plain, &traced] {
        out.attempted += l.samples.len() as u64;
        out.failed += l.failed();
        if let Some(e) = l.first_error() {
            out.correct = false;
            notes.push(format!("measured loop: {e}"));
        }
    }
    let p50_plain = stats::median(&plain.ok_latencies()).unwrap_or(f64::NAN);
    let p50_traced = stats::median(&traced.ok_latencies()).unwrap_or(f64::NAN);

    // The layer stack: every stack clip through every layer, `STACK_REPS`
    // times (a layer's per-clip time is the median of its repetitions),
    // then through the gateway once.
    let ledger = Ledger::default();
    let stack: Vec<&Clip> = pool.iter().take(w.stack_clips()).collect();
    let par = w.parallelism();
    let mut checks = Checks::new(refs);
    let mut ga = (0usize, 0usize, 0u64, 0u64, 0usize); // evals, unique, cand, pruned, recovered
    let mut counts = OfferCounts::default();
    let mut manager = SessionManager::new(ServeConfig {
        parallelism: Parallelism::Fixed(MANAGER_THREADS),
        ..ServeConfig::default()
    });
    for rep in 0..STACK_REPS {
        for clip in &stack {
            let tr = Tracer::new(Some(&ledger), stack_id(clip.id, rep));
            let k = (clip.id - 1) as usize;
            match layers::stages(clip, par, tr) {
                Ok(s) if rep == 0 => {
                    for f in &s.tracking.frames {
                        ga.0 += f.evaluations;
                        ga.1 += f.unique_genomes;
                        ga.2 += f.bb_candidates;
                        ga.3 += f.bb_pruned;
                        ga.4 += usize::from(f.recovery != RecoveryAction::None);
                    }
                    checks.expect(s.score == analyses[k].score, || {
                        format!("stages clip {}: score card differs", clip.id)
                    });
                }
                Ok(_) => {}
                Err(e) => checks.expect(false, || format!("stages clip {}: {e}", clip.id)),
            }
            checks.report(
                "StreamingAnalyzer",
                clip,
                layers::streaming(clip, par, tr, "slj.clip").map(|(a, _)| clips::report_bytes(&a)),
            );
            if par != Parallelism::Serial {
                // Only the whole call is recorded, so the `slj.*` call
                // spans stay those of the entry-point analyzer.
                let start = Instant::now();
                let serial = layers::streaming(clip, Parallelism::Serial, Tracer::new(None, 0), "")
                    .map(|(a, _)| clips::report_bytes(&a));
                tr.record("slj.serial_clip", 0, start, Instant::now());
                checks.report("serial StreamingAnalyzer", clip, serial);
            }
            checks.report(
                "SessionManager",
                clip,
                layers::manager(&mut manager, clip, tr).map(|a| clips::report_bytes(&a)),
            );
            let decoded = tr.span("video.ppm_decode", 0, |_| {
                slj_video::io::frames_from_ppm_stream(&clip.ppm)
            });
            checks.expect(
                decoded.as_deref().ok() == Some(clip.frames.as_slice()),
                || format!("ppm decode clip {}: frames differ", clip.id),
            );
            checks.report(
                "daemon FRAME",
                clip,
                layers::wire_frames(&services.daemon_addr, clip, tr, &mut counts).map(|(r, _)| r),
            );
            checks.report(
                "daemon OPEN_CLIP",
                clip,
                layers::open_clip(&services.daemon_addr, clip, tr).map(|(r, _)| r),
            );
            let health = layers::healthz(&services.http_host, tr);
            checks.expect(health.is_ok(), || format!("healthz: {health:?}"));
        }
    }
    let stack_refs: Vec<String> = stack
        .iter()
        .map(|c| refs[(c.id - 1) as usize].clone())
        .collect();
    let stack_pool: Vec<Clip> = stack.iter().map(|c| (*c).clone()).collect();
    let gateway = open_loop(
        &services.http_host,
        &stack_pool,
        &stack_refs,
        HTTP_RATE,
        CLIENTS,
        Stop::Count(stack.len()),
        Some(&ledger),
    );
    for sample in &gateway.samples {
        checks.expect(sample.ok, || format!("gateway: {:?}", sample.error));
    }
    out.attempted += checks.attempted;
    out.failed += checks.failures.len() as u64;
    if !checks.failures.is_empty() {
        out.correct = false;
        notes.push(format!("layer stack: {}", checks.failures.join("; ")));
    }

    // Per-layer numbers: per clip (median over repetitions), then the
    // median across the stack clips.
    let ids: Vec<u64> = stack.iter().map(|c| c.id).collect();
    let per = |name: &str| -> Vec<f64> {
        let reps: Vec<Vec<f64>> = (0..STACK_REPS)
            .map(|rep| {
                let rep_ids: Vec<u64> = ids.iter().map(|&c| stack_id(c, rep)).collect();
                ledger.per_clip(name, &rep_ids)
            })
            .collect();
        (0..ids.len())
            .map(|i| {
                let v: Vec<f64> = reps.iter().map(|r| r[i]).collect();
                stats::median(&v).unwrap_or(f64::NAN)
            })
            .collect()
    };
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let diff = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<f64>>();
    let bg = per("segment.background");
    let seg = per("segment.frames");
    let track = per("ga.track");
    let score = per("score.score");
    let slj_clip = per("slj.clip");
    let stage_sum: Vec<f64> = (0..ids.len())
        .map(|i| bg[i] + seg[i] + track[i] + score[i])
        .collect();
    let slj_overhead = diff(&slj_clip, &stage_sum);
    let serial = if par == Parallelism::Serial {
        slj_clip.clone()
    } else {
        per("slj.serial_clip")
    };
    let serve_clip = per("serve.clip");
    let serve_overhead = diff(&serve_clip, &serial);
    let wire_clip = per("daemon.wire_clip");
    let daemon_overhead = diff(&wire_clip, &serve_clip);
    let clip_job = per("daemon.clip_job");
    let clip_job_overhead = diff(&clip_job, &serve_clip);
    // The gateway stage ran once per clip.
    let once = |name: &str| ledger.per_clip(name, &ids);
    let http_job = once("gateway.job");
    let gateway_overhead = diff(&http_job, &clip_job);
    let frame_acks = ledger.durations("daemon.frame_ack");
    let ack_tail = stats::tail(&frame_acks);

    // Attribution: the per-layer medians must add up to the end-to-end
    // median of the same clips on each chain of layers.
    let chains = [
        (
            "analyzer",
            med(&slj_clip),
            med(&bg) + med(&seg) + med(&track) + med(&score) + med(&slj_overhead),
        ),
        (
            "wire",
            med(&wire_clip),
            med(&serial) + med(&serve_overhead) + med(&daemon_overhead),
        ),
        (
            "http",
            med(&http_job),
            med(&serial) + med(&serve_overhead) + med(&clip_job_overhead) + med(&gateway_overhead),
        ),
    ];
    let mut gap_pct: f64 = 0.0;
    for (chain, e2e, sum) in chains {
        let gap = 100.0 * (sum - e2e).abs() / e2e;
        notes.push(format!(
            "attribution {chain}: layers sum to {sum:.3} ms vs end-to-end {e2e:.3} ms (gap {gap:.2}%)"
        ));
        gap_pct = gap_pct.max(gap);
    }
    if gap_pct.is_nan() || gap_pct > ATTRIBUTION_TOLERANCE_PCT {
        out.correct = false;
        notes.push(format!(
            "attribution gap {gap_pct:.2}% exceeds the {ATTRIBUTION_TOLERANCE_PCT}% tolerance"
        ));
    }

    let lateness: Vec<f64> = if w == Workload::HttpClips {
        traced.samples.iter().map(|s| s.lateness_ms).collect()
    } else {
        gateway.samples.iter().map(|s| s.lateness_ms).collect()
    };
    let jobs = gateway.samples.len().max(1) as f64;
    let sum = |f: fn(&Sample) -> u64| gateway.samples.iter().map(f).sum::<u64>() as f64;
    let n = ids.len().max(1) as f64;
    let wire_bytes = stack.iter().map(|c| c.frame_wire_bytes()).sum::<usize>() as f64 / n;

    let m = &mut out.metrics;
    let mut push = |name: &'static str, unit: &'static str, value: f64| {
        m.push(Metric { name, unit, value });
    };
    push("segment.background_ms", "ms", med(&bg));
    push("segment.frames_ms", "ms", med(&seg));
    push("ga.track_ms", "ms", med(&track));
    push("ga.evaluations", "count", ga.0 as f64 / n);
    push("ga.unique_frac", "ratio", ga.1 as f64 / ga.0.max(1) as f64);
    push(
        "ga.bb_pruned_frac",
        "ratio",
        ga.3 as f64 / (ga.2 + ga.3).max(1) as f64,
    );
    push("ga.recovered_frames", "count", ga.4 as f64 / n);
    push("score.score_ms", "ms", med(&score));
    push("slj.clip_ms", "ms", med(&slj_clip));
    push("slj.golive_ms", "ms", med(&per("slj.golive")));
    push(
        "slj.push_frame_ms",
        "ms",
        med(&ledger.durations("slj.push_frame")),
    );
    push("slj.finish_ms", "ms", med(&per("slj.finish")));
    push("slj.overhead_ms", "ms", med(&slj_overhead));
    push("serve.clip_ms", "ms", med(&serve_clip));
    push("serve.tick_ms", "ms", med(&ledger.durations("serve.tick")));
    push("serve.overhead_ms", "ms", med(&serve_overhead));
    push(
        "daemon.connect_ms",
        "ms",
        med(&ledger.durations("daemon.connect")),
    );
    push("daemon.frame_ack_p50_ms", "ms", med(&frame_acks));
    push(
        "daemon.frame_ack_tail_ms",
        "ms",
        ack_tail.map_or(f64::NAN, |t| t.value),
    );
    push(
        "daemon.overloaded_frac",
        "ratio",
        counts.overloaded as f64 / counts.offered.max(1) as f64,
    );
    push("daemon.flush_ms", "ms", med(&per("daemon.flush")));
    push("daemon.wire_clip_ms", "ms", med(&wire_clip));
    push("daemon.overhead_ms", "ms", med(&daemon_overhead));
    push("daemon.open_clip_ms", "ms", med(&per("daemon.open_clip")));
    push("daemon.await_ms", "ms", med(&per("daemon.await")));
    push("daemon.clip_job_ms", "ms", med(&clip_job));
    push("video.ppm_decode_ms", "ms", med(&per("video.ppm_decode")));
    push("daemon.wire_bytes", "bytes", wire_bytes);
    push("gateway.healthz_ms", "ms", med(&per("gateway.healthz")));
    push(
        "gateway.continue_wait_ms",
        "ms",
        med(&once("gateway.continue_wait")),
    );
    push("gateway.admit_ms", "ms", med(&once("gateway.admit")));
    push("gateway.report_ms", "ms", med(&once("gateway.report")));
    push("gateway.job_ms", "ms", med(&http_job));
    push("gateway.polls_per_job", "count", sum(|s| s.polls) / jobs);
    push("gateway.conns_per_job", "count", sum(|s| s.conns) / jobs);
    push(
        "gateway.refused_frac",
        "ratio",
        sum(|s| s.refused) / sum(|s| s.requests).max(1.0),
    );
    push("gateway.overhead_ms", "ms", med(&gateway_overhead));
    push("gen.lateness_p50_ms", "ms", med(&lateness));
    push(
        "gen.lateness_tail_ms",
        "ms",
        stats::tail(&lateness).map_or(f64::NAN, |t| t.value),
    );
    push(
        "trace.overhead_pct",
        "%",
        100.0 * (p50_traced - p50_plain) / p50_plain,
    );
    push("trace.attribution_gap_pct", "%", gap_pct);

    if let Some(t) = ack_tail {
        notes.push(format!(
            "daemon.frame_ack_tail_ms is p{:.1} of {} acks",
            t.percentile, t.samples
        ));
    }
    notes.extend(self_time_table(&ledger));
    write_ledger(opts, &ledger, &loop_ledger);
    Ok(out)
}

/// Median self time per span name over the stack's spans, as lines.
fn self_time_table(ledger: &Ledger) -> Vec<String> {
    let spans = ledger.spans();
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let selfs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| trace::self_ns(s, &spans) as f64 / 1e6)
                .collect();
            format!(
                "self time {name}: p50 {:.3} ms over {} spans",
                stats::median(&selfs).unwrap_or(f64::NAN),
                selfs.len()
            )
        })
        .collect()
}

/// Writes both ledgers as JSONL under `out/`.
fn write_ledger(opts: &Options, stack: &Ledger, measured: &Ledger) {
    let dir = PathBuf::from("out");
    let _ = std::fs::create_dir_all(&dir);
    let stem = format!("trace-{}-seed{}", opts.workload.name(), opts.seed);
    for (suffix, ledger) in [("stack", stack), ("loop", measured)] {
        let path = dir.join(format!("{stem}-{suffix}.jsonl"));
        if let Err(e) = std::fs::write(&path, ledger.to_jsonl()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}
