//! Seeded clip pools, the in-process reference report of each clip,
//! and report quality against the synthesiser's ground truth.

use slj::{measure_jump, AnalyzerConfig, JumpAnalysis, StreamingAnalyzer};
use slj_daemon::OpenRequest;
use slj_eval::metrics::frame_pose_error;
use slj_motion::{JumpConfig, JumpFlaw, PoseSeq};
use slj_runtime::Parallelism;
use slj_score::score_jump;
use slj_video::{Camera, FaultConfig, FaultInjector, Frame, SceneConfig, SyntheticJump, Video};

/// Degraded-frame budget every clip is analysed under (best-effort):
/// the whole clip, so the in-process analyzer never refuses a clip the
/// daemon's circuit breaker (12 degraded frames) would still serve.
pub const MAX_DEGRADED: usize = 20;

/// One in `FAULT_EVERY` clips of a faulted pool carries seeded faults.
pub const FAULT_EVERY: usize = 4;

/// The kind of clip a workload feeds the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipKind {
    /// 320×240×20 default scene (sensor noise, clutter, shadow), the
    /// default (non-fast) analyzer, 14-frame warm-up; one in
    /// [`FAULT_EVERY`] clips carries seeded faults.
    Full,
    /// 160×120×20 clean scene, the fast analyzer, 8-frame warm-up —
    /// the request shape of CI's daemon and gateway smokes.
    Compact,
}

/// A synthesised clip with everything needed to submit it anywhere and
/// to judge the report that comes back.
#[derive(Debug, Clone)]
pub struct Clip {
    /// Stable id within the pool (1-based, so 0 can mean "no clip").
    pub id: u64,
    /// The frames as recorded (faults applied).
    pub frames: Vec<Frame>,
    /// The clip as concatenated binary PPM frames (`OPEN_CLIP` and HTTP
    /// body payload); empty unless requested at synthesis.
    pub ppm: Vec<u8>,
    /// The open request a remote client sends for this clip. Its
    /// session config is the analyzer config of every layer.
    pub request: OpenRequest,
    /// Ground-truth poses, one per frame.
    pub truth: PoseSeq,
    /// Whether seeded faults were injected.
    pub faulty: bool,
}

impl Clip {
    /// The analyzer config every layer runs for this clip, at the given
    /// parallelism (results are identical at any parallelism).
    pub fn config(&self, parallelism: Parallelism) -> AnalyzerConfig {
        let mut config = self.request.to_session_config().analyzer;
        config.parallelism = parallelism;
        config
    }

    /// A streaming analyzer for this clip, before any frame is pushed.
    pub fn analyzer(&self, parallelism: Parallelism) -> StreamingAnalyzer {
        StreamingAnalyzer::new(
            self.config(parallelism),
            &self.request.camera,
            self.request.first_pose,
            self.request.fps,
        )
        .expect("the benchmark's analyzer configs are streamable")
    }

    /// Bytes a `FRAME`-mode client ships for this clip: every frame's
    /// RGB payload plus the open-request JSON.
    pub fn frame_wire_bytes(&self) -> usize {
        let rgb: usize = self
            .frames
            .iter()
            .map(|f| {
                let (w, h) = f.dims();
                w * h * 3
            })
            .sum();
        rgb + serde_json::to_string(&self.request)
            .expect("open request serialises")
            .len()
    }

    /// The HTTP body the gateway takes: the open request as one JSON
    /// line, then the PPM frames.
    pub fn http_body(&self) -> Vec<u8> {
        let mut body = serde_json::to_string(&self.request)
            .expect("open request serialises")
            .into_bytes();
        body.push(b'\n');
        body.extend_from_slice(&self.ppm);
        body
    }
}

/// SplitMix64: a tiny seeded stream for clip parameters.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs `f` on every index in `0..count` over `threads` scoped threads
/// and returns the results in index order.
fn par_map<T: Send>(count: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, count.max(1));
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (t, chunk) in slots.chunks_mut(count.div_ceil(threads).max(1)).enumerate() {
            let f = &f;
            let base = t * count.div_ceil(threads).max(1);
            scope.spawn(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + j));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index mapped"))
        .collect()
}

/// Synthesises a pool of `count` clips from `seed`, on `threads`
/// threads (the pool is the same at any thread count).
///
/// The mix is stratified so that every seed draws the same kinds of
/// clip: clip `i` performs flaw `i mod 8` (0 = a textbook jump, 1–7 =
/// one of the seven faults the rules test; see below for the one
/// exception on compact clips), the jump distance is drawn inside the
/// `i / 8`-th equal slice of 0.95–1.25 m, and in a [`ClipKind::Full`]
/// pool one clip in [`FAULT_EVERY`] carries recorder faults, rotating
/// over the flaws. The seed draws the distances, the scene's noise and
/// clutter, and the fault streams.
pub fn synthesize(
    kind: ClipKind,
    seed: u64,
    count: usize,
    with_ppm: bool,
    threads: usize,
) -> Vec<Clip> {
    let blocks = count.div_ceil(8).max(1) as f64;
    par_map(count, threads, |i| {
        let mut mix = Mix(seed ^ 0x51F1_0000 ^ ((kind as u64) << 32) ^ ((i as u64) << 40));
        let distance = 0.95 + 0.30 * ((i / 8) as f64 + mix.unit()) / blocks;
        let render_seed = mix.next();
        let fault_seed = mix.next();
        let flaws = match (kind, i % 8) {
            (_, 0) => Vec::new(),
            // On compact clips the fast analyzer degrades 11–12 of 20
            // frames of a shallow crouch, and the daemon's circuit
            // breaker quarantines the session: a refusal the in-process
            // analyzer does not make. Those clips would fail on every
            // seed, so the compact mix doubles the textbook jump instead.
            (ClipKind::Compact, 1) => Vec::new(),
            (_, k) => vec![JumpFlaw::ALL[k - 1]],
        };
        let jump = JumpConfig {
            jump_distance: distance,
            flaws,
            ..JumpConfig::default()
        };
        let scene = match kind {
            ClipKind::Full => SceneConfig::default(),
            ClipKind::Compact => SceneConfig {
                camera: Camera::compact(),
                ..SceneConfig::clean()
            },
        };
        let synthetic = SyntheticJump::generate(&scene, &jump, render_seed);
        let faulty = kind == ClipKind::Full && (i + i / 8) % FAULT_EVERY == FAULT_EVERY - 1;
        let video = if faulty {
            // Faults that keep one frame per true pose (no drops or
            // duplicates), so ground truth stays frame-aligned.
            let faults = FaultConfig {
                seed: fault_seed,
                flicker: 0.06,
                jitter_px: 1,
                occlusion_bars: 1,
                ..FaultConfig::default()
            };
            FaultInjector::new(faults).inject(&synthetic.video).0
        } else {
            synthetic.video
        };
        let (warmup, fast) = match kind {
            ClipKind::Full => (slj::DEFAULT_WARMUP_FRAMES, false),
            ClipKind::Compact => (8, true),
        };
        let request = OpenRequest {
            camera: scene.camera,
            dims: jump.dims.clone(),
            first_pose: synthetic.poses.poses()[0],
            fps: video.fps(),
            warmup,
            fast,
            max_degraded: Some(MAX_DEGRADED),
            want_trace: false,
        };
        let ppm = if with_ppm {
            slj_video::io::ppm_stream(&video)
        } else {
            Vec::new()
        };
        Clip {
            id: i as u64 + 1,
            frames: video.into_frames(),
            ppm,
            request,
            truth: synthetic.poses,
            faulty,
        }
    })
}

/// The report bytes every layer must return for a clip: the
/// pretty-printed summary, exactly as `slj analyze --stream --report`
/// and the daemon write it.
pub fn report_bytes(analysis: &JumpAnalysis) -> String {
    serde_json::to_string_pretty(&analysis.summary()).expect("summary serialises")
}

/// The in-process reference: a serial [`StreamingAnalyzer`] run.
pub fn reference(clip: &Clip) -> Result<JumpAnalysis, slj::AnalyzeError> {
    let mut analyzer = clip.analyzer(Parallelism::Serial);
    for frame in &clip.frames {
        analyzer.push_frame(frame)?;
    }
    analyzer.finish()
}

/// [`reference`] for every clip of a pool, on `threads` threads.
pub fn references(pool: &[Clip], threads: usize) -> Result<Vec<JumpAnalysis>, String> {
    par_map(pool.len(), threads, |i| {
        reference(&pool[i]).map_err(|e| format!("reference analysis of clip {}: {e}", pool[i].id))
    })
    .into_iter()
    .collect()
}

/// The clip as a `Video` (for the batch-stage layer calls).
pub fn video(clip: &Clip) -> Video {
    Video::new(clip.frames.clone(), clip.request.fps)
}

/// Report quality over a pool, against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean over clips of the per-frame 16-endpoint RMSE, pixels.
    pub pose_rmse_px: f64,
    /// |measured − true| jump distance over every clip with a
    /// measurement, complete or partial, in centimetres: the mean after
    /// dropping the largest and the smallest [`DISTANCE_TRIM`] of the
    /// errors. A partial measurement is a lower bound, so the per-clip
    /// error is heavy-tailed, and the untrimmed mean of a 32-clip pool
    /// moves by a sixth from seed to seed.
    pub distance_err_cm: f64,
    /// Measured clips whose takeoff and landing were both observed.
    pub distance_complete: usize,
    /// Measured clips with an unobserved contact (a lower bound).
    pub distance_partial: usize,
    /// Clips with no measurement at all (not in the mean).
    pub distance_missing: usize,
    /// Share of R1–R7 verdicts, over all clips, that equal the verdict
    /// of scoring the true poses.
    pub verdict_match_frac: f64,
    /// Clips whose seven verdicts all equal the true ones.
    pub cards_matched: usize,
}

/// Share of distance errors trimmed from each end before averaging.
pub const DISTANCE_TRIM: f64 = 0.10;

/// Mean of `values` without the `trim` share at each end.
fn trimmed_mean(values: &[f64], trim: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim).floor() as usize;
    crate::stats::mean(&v[cut..v.len() - cut])
}

/// Scores the analyses of `clips` (index-aligned) against truth.
pub fn quality(clips: &[Clip], analyses: &[JumpAnalysis]) -> Quality {
    let mut rmse = Vec::new();
    let mut distance = Vec::new();
    let (mut complete, mut missing, mut verdicts, mut matched, mut cards) = (0, 0, 0, 0, 0);
    for (clip, analysis) in clips.iter().zip(analyses) {
        let dims = &clip.request.dims;
        let px_per_m = clip.request.camera.pixels_per_meter;
        let per_frame: Vec<f64> = analysis
            .poses
            .poses()
            .iter()
            .zip(clip.truth.poses())
            .enumerate()
            .map(|(k, (est, tru))| frame_pose_error(k, est, tru, dims).endpoint_rmse_m * px_per_m)
            .collect();
        rmse.push(per_frame.iter().sum::<f64>() / per_frame.len().max(1) as f64);

        let truth = measure_jump(&clip.truth, dims).expect("every synthetic clip holds a jump");
        match analysis.measurement {
            Some(m) => {
                distance.push((m.distance_m - truth.distance_m).abs() * 100.0);
                complete += usize::from(m.takeoff_observed && m.landing_observed);
            }
            None => missing += 1,
        }

        let true_card = score_jump(&clip.truth).expect("true poses score");
        let agree = analysis
            .score
            .results()
            .iter()
            .zip(true_card.results())
            .filter(|(a, b)| a.verdict == b.verdict)
            .count();
        verdicts += true_card.results().len();
        matched += agree;
        cards += usize::from(agree == true_card.results().len());
    }
    Quality {
        pose_rmse_px: crate::stats::mean(&rmse).unwrap_or(f64::NAN),
        distance_err_cm: trimmed_mean(&distance, DISTANCE_TRIM).unwrap_or(f64::NAN),
        distance_complete: complete,
        distance_partial: distance.len() - complete,
        distance_missing: missing,
        verdict_match_frac: matched as f64 / verdicts.max(1) as f64,
        cards_matched: cards,
    }
}
