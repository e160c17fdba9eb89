//! One function per layer: each takes a clip through that layer's public
//! functions, checks nothing itself, and (when a ledger is given)
//! records a span around every call it makes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use slj::{FrameHealth, JumpAnalysis, RobustnessPolicy};
use slj_daemon::{Addr, Client, ClientError, ClientOptions};
use slj_ga::tracker::{TemporalTracker, TrackerConfig, TrackingRun};
use slj_imgproc::mask::Mask;
use slj_runtime::Parallelism;
use slj_score::{score_jump, score_jump_masked, ScoreCard};
use slj_segment::background::BackgroundEstimator;
use slj_segment::{PipelineConfig, PreparedBackground, Presmooth, SegmentPipeline};
use slj_serve::{OfferReply, SessionManager};
use slj_video::Video;

use crate::clips::{self, Clip};
use crate::http;
use crate::trace::Ledger;

/// Where a layer function records its spans: an optional ledger plus the clip
/// the spans belong to.
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    ledger: Option<&'a Ledger>,
    clip: u64,
}

impl<'a> Tracer<'a> {
    /// Tracing on (`Some`) or off, for `clip`.
    pub fn new(ledger: Option<&'a Ledger>, clip: u64) -> Self {
        Tracer { ledger, clip }
    }

    /// Runs `f` inside a span when tracing is on.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        match self.ledger {
            Some(ledger) => ledger.span(name, self.clip, parent, f),
            None => f(0),
        }
    }

    /// Records an interval the caller measured, when tracing is on.
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if let Some(ledger) = self.ledger {
            ledger.record(name, self.clip, parent, start, end);
        }
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// `StreamingAnalyzer`: construct, push every frame, finish. Returns
/// the analysis and the latency from the first `push_frame` to the
/// return of `finish`, in ms. `root` names the enclosing span.
pub fn streaming(
    clip: &Clip,
    parallelism: Parallelism,
    tr: Tracer,
    root: &'static str,
) -> Result<(JumpAnalysis, f64), String> {
    let mut analyzer = clip.analyzer(parallelism);
    let start = Instant::now();
    let out = tr.span(root, 0, |parent| {
        let mut live = false;
        for frame in &clip.frames {
            let t = Instant::now();
            let update = analyzer.push_frame(frame).map_err(|e| e.to_string())?;
            let name = if !live && !update.completed.is_empty() {
                live = true;
                "slj.golive"
            } else {
                "slj.push_frame"
            };
            tr.record(name, parent, t, Instant::now());
        }
        tr.span("slj.finish", parent, |_| analyzer.finish())
            .map_err(|e| e.to_string())
    })?;
    Ok((out, ms(start, Instant::now())))
}

/// What the batch-stage calls produced for one clip.
pub struct Stages {
    /// The tracker's per-frame accounting.
    pub tracking: TrackingRun,
    /// The score card computed from the tracked poses.
    pub score: ScoreCard,
}

/// The analyzer's stages called one by one on the whole clip, with the
/// clip's own (streamable) config: background estimation on the warm-up
/// window, segmentation of every frame against it, GA tracking, and
/// scoring. This is `JumpAnalyzer::analyze` split at its layer calls,
/// which the streaming path is byte-identical to.
pub fn stages(clip: &Clip, parallelism: Parallelism, tr: Tracer) -> Result<Stages, String> {
    let config = clip.config(parallelism);
    let segmentation = PipelineConfig {
        parallelism: config.parallelism,
        ..config.segmentation.clone()
    };
    let video = match segmentation.presmooth {
        Presmooth::None => clips::video(clip),
        mode => Video::new(
            clip.frames.iter().map(|f| mode.apply(f)).collect(),
            clip.request.fps,
        ),
    };
    let background = tr
        .span("segment.background", 0, |_| {
            BackgroundEstimator::new(segmentation.background).estimate(&video)
        })
        .map_err(|e| e.to_string())?;
    let segmented = tr
        .span("segment.frames", 0, |_| {
            let prepared = Arc::new(PreparedBackground::new(&background.image));
            SegmentPipeline::new(segmentation.clone()).run_prepared(&video, background, prepared)
        })
        .map_err(|e| e.to_string())?;
    let silhouettes: Vec<Mask> = segmented
        .frames
        .iter()
        .map(|s| s.final_mask.clone())
        .collect();
    let tracker = TrackerConfig {
        parallelism: config.parallelism,
        ..config.tracker
    };
    let tracking = tr
        .span("ga.track", 0, |_| {
            TemporalTracker::new(tracker).track(
                &silhouettes,
                clip.request.first_pose,
                &config.dims,
                &clip.request.camera,
            )
        })
        .map_err(|e| e.to_string())?;
    let mut poses = tracking.to_pose_seq(clip.request.fps);
    if config.smoothing_window > 1 {
        poses = poses.median_smoothed(config.smoothing_window);
    }
    let excluded: Vec<bool> = segmented
        .quality
        .iter()
        .zip(&tracking.frames)
        .enumerate()
        .map(|(k, (q, t))| {
            let health = FrameHealth::with_model(k, q.clone(), t, &config.confidence);
            matches!(config.robustness, RobustnessPolicy::BestEffort { .. }) && health.is_degraded()
        })
        .collect();
    let score = tr
        .span("score.score", 0, |_| match config.robustness {
            RobustnessPolicy::Strict => score_jump(&poses),
            RobustnessPolicy::BestEffort { .. } => score_jump_masked(&poses, &excluded),
        })
        .map_err(|e| e.to_string())?;
    Ok(Stages { tracking, score })
}

/// `SessionManager`: opens a session, offers each frame then ticks
/// (ticking again while the queue sheds), closes, and ticks until the
/// result can be taken. Spans: `serve.clip` (open → result) around
/// `serve.tick` per tick.
pub fn manager(
    manager: &mut SessionManager,
    clip: &Clip,
    tr: Tracer,
) -> Result<JumpAnalysis, String> {
    tr.span("serve.clip", 0, |parent| {
        let tick = |manager: &mut SessionManager| {
            tr.span("serve.tick", parent, |_| manager.tick());
        };
        let id = manager
            .open(clip.request.to_session_config())
            .map_err(|e| e.to_string())?;
        for frame in &clip.frames {
            while let OfferReply::Overloaded { .. } =
                manager.offer(id, frame).map_err(|e| e.to_string())?
            {
                tick(manager);
            }
            tick(manager);
        }
        manager.close(id).map_err(|e| e.to_string())?;
        let result = loop {
            if let Some(result) = manager.take_result(id) {
                break result;
            }
            tick(manager);
        };
        manager.retire(id).map_err(|e| e.to_string())?;
        manager.drain_events();
        result.map_err(|e| e.to_string())
    })
}

/// Offer accounting for the `FRAME` path.
#[derive(Debug, Default, Clone, Copy)]
pub struct OfferCounts {
    /// Frames offered, re-offers included.
    pub offered: u64,
    /// Offers the daemon shed with `Overloaded`.
    pub overloaded: u64,
}

/// Client options for the `FRAME` path: the defaults, except that
/// `send_frame` hands an `Overloaded` ack back instead of re-offering,
/// so [`wire_frames`] re-offers itself — same back-off, same retry bound —
/// and counts the sheds.
fn counting_options() -> ClientOptions {
    ClientOptions {
        max_offer_retries: 0,
        ..ClientOptions::default()
    }
}

/// Daemon `FRAME` mode over one fresh connection, lockstep: connect,
/// open, one acked frame at a time, flush. Returns the report and the
/// latency from `Client::connect` to the return of `flush`, in ms.
pub fn wire_frames(
    addr: &Addr,
    clip: &Clip,
    tr: Tracer,
    counts: &mut OfferCounts,
) -> Result<(String, f64), String> {
    let defaults = ClientOptions::default();
    let start = Instant::now();
    let report = tr.span("daemon.wire_clip", 0, |parent| {
        let mut client = tr
            .span("daemon.connect", parent, |_| {
                Client::connect(addr, counting_options())
            })
            .map_err(|e| e.to_string())?;
        let session = tr
            .span("daemon.open", parent, |_| client.open(&clip.request))
            .map_err(|e| e.to_string())?;
        for frame in &clip.frames {
            tr.span("daemon.frame_ack", parent, |_| {
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    counts.offered += 1;
                    match client.send_frame(session, frame) {
                        Ok(_) => return Ok(()),
                        Err(ClientError::Saturated { .. })
                            if attempts <= defaults.max_offer_retries =>
                        {
                            counts.overloaded += 1;
                            std::thread::sleep(defaults.retry_backoff);
                        }
                        Err(e) => return Err(e.to_string()),
                    }
                }
            })?;
        }
        tr.span("daemon.flush", parent, |_| client.flush(session))
            .map(|a| a.summary_json)
            .map_err(|e| e.to_string())
    })?;
    Ok((report, ms(start, Instant::now())))
}

/// Daemon `OPEN_CLIP` mode over one fresh connection: connect, ship the
/// PPM clip in one message, await the result.
pub fn open_clip(addr: &Addr, clip: &Clip, tr: Tracer) -> Result<(String, f64), String> {
    let ppm = clip.ppm.clone();
    let start = Instant::now();
    let report = tr.span("daemon.clip_job", 0, |parent| {
        let mut client = tr
            .span("daemon.connect", parent, |_| {
                Client::connect(addr, ClientOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let session = tr
            .span("daemon.open_clip", parent, |_| {
                client.open_clip(&clip.request, ppm)
            })
            .map_err(|e| e.to_string())?;
        tr.span("daemon.await", parent, |_| client.await_result(session))
            .map(|a| a.summary_json)
            .map_err(|e| e.to_string())
    })?;
    Ok((report, ms(start, Instant::now())))
}

/// How one HTTP job went.
#[derive(Debug, Clone, Default)]
pub struct HttpJob {
    /// The `200` report body.
    pub report: Option<String>,
    /// Why the job has no report.
    pub error: Option<String>,
    /// `GET` polls answered `202`.
    pub polls: u64,
    /// Connections opened (one per request).
    pub conns: u64,
    /// Responses that refused the job (`429`/`503`).
    pub refused: u64,
    /// Requests sent.
    pub requests: u64,
}

/// A fixed pause between polls; every poll also asks the gateway to
/// hold the request up to this long for the job to finish.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// `?wait_ms=` sent with every poll.
pub const POLL_WAIT_MS: u64 = 1000;

/// Gateway: `POST /v1/jobs` (curl-like upload), then poll
/// `GET /v1/jobs/{id}` until the `200` report. Spans under
/// `gateway.job`: `gateway.continue_wait` (headers sent → `100` or the
/// 1 s give-up), `gateway.admit` (body sent → `202`), `gateway.poll`
/// per `202` poll, `gateway.report` (final `GET` → `200` body).
pub fn http_job(host: &str, body: &[u8], tr: Tracer) -> HttpJob {
    let mut job = HttpJob::default();
    tr.span("gateway.job", 0, |parent| {
        job.requests += 1;
        job.conns += 1;
        let (admit, t) = match http::request(host, "POST", "/v1/jobs", Some(body)) {
            Ok(ok) => ok,
            Err(e) => {
                job.error = Some(format!("POST /v1/jobs: {e}"));
                return;
            }
        };
        tr.record("gateway.continue_wait", parent, t.headers_sent, t.continued);
        tr.record("gateway.admit", parent, t.continued, t.done);
        if matches!(admit.status, 429 | 503) {
            job.refused += 1;
        }
        if admit.status != 202 {
            job.error = Some(format!("POST /v1/jobs answered {}", admit.status));
            return;
        }
        let Some(id) = job_id(&admit.body) else {
            job.error = Some("202 without a job id".to_owned());
            return;
        };
        let path = format!("/v1/jobs/{id}?wait_ms={POLL_WAIT_MS}");
        loop {
            job.requests += 1;
            job.conns += 1;
            let (resp, t) = match http::request(host, "GET", &path, None) {
                Ok(ok) => ok,
                Err(e) => {
                    job.error = Some(format!("GET {path}: {e}"));
                    return;
                }
            };
            match resp.status {
                202 => {
                    tr.record("gateway.poll", parent, t.connected, t.done);
                    job.polls += 1;
                    std::thread::sleep(POLL_INTERVAL);
                }
                200 => {
                    tr.record("gateway.report", parent, t.connected, t.done);
                    job.report = Some(String::from_utf8_lossy(&resp.body).into_owned());
                    return;
                }
                status => {
                    if matches!(status, 429 | 503) {
                        job.refused += 1;
                    }
                    job.error = Some(format!("GET {path} answered {status}"));
                    return;
                }
            }
        }
    });
    job
}

/// `GET /healthz` on a fresh connection.
pub fn healthz(host: &str, tr: Tracer) -> Result<(), String> {
    let resp = tr
        .span("gateway.healthz", 0, |_| {
            http::request(host, "GET", "/healthz", None)
        })
        .map_err(|e| e.to_string())?;
    match resp.0.status {
        200 => Ok(()),
        status => Err(format!("/healthz answered {status}")),
    }
}

/// The job id out of a `{"job":N,...}` admission body.
fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"job\":")? + 6..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn job_id_parses_the_admission_body() {
        assert_eq!(
            super::job_id(b"{\"job\":17,\"state\":\"running\"}\n"),
            Some(17)
        );
        assert_eq!(super::job_id(b"{\"state\":\"running\"}"), None);
    }
}
