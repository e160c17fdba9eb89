//! The composed five-step pipeline.
//!
//! [`SegmentPipeline::run`] estimates the background once, then processes
//! every frame through subtraction → noise filter → spot removal → hole
//! fill → shadow removal, keeping every intermediate mask (the paper's
//! Figure 2 panels (a)–(d) and Figure 3) in a [`FrameStages`] so
//! experiments can measure each stage's contribution.

use crate::background::{BackgroundConfig, BackgroundEstimator, EstimatedBackground};
use crate::cleanup::{HoleFillMode, NoiseFilterConfig, SpotRemoverConfig};
use crate::error::SegmentError;
use crate::foreground::ForegroundConfig;
use crate::ghosts::{GhostConfig, GhostVerdict};
use crate::quality::{self, FrameQuality, QualityConfig};
use crate::segmenter::{FrameSegmenter, PreparedBackground};
use crate::shadow::ShadowParams;
use serde::{Deserialize, Serialize};
use slj_imgproc::mask::Mask;
use slj_runtime::Parallelism;
use slj_video::{Frame, Video};
use std::sync::Arc;

/// Optional spatial smoothing applied to every frame before Step 1
/// (extension): knocks down per-pixel sensor noise ahead of the
/// subtraction threshold. Worth enabling only under *heavy* noise —
/// smoothing also smears a false-positive halo around the body
/// boundary, which outweighs the speckle suppression when the sensor is
/// reasonably clean (measured in `pipeline::tests`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Presmooth {
    /// No smoothing (the paper's pipeline).
    #[default]
    None,
    /// Box blur with the given radius (window `2r+1`).
    Box {
        /// Blur radius in pixels.
        radius: usize,
    },
    /// 3×3 per-channel median filter.
    Median,
}

impl Presmooth {
    /// Applies the smoothing to one frame (`None` returns a plain
    /// clone). Public because a streaming caller smooths frames one at
    /// a time as they arrive, where the batch pipeline smooths the clip
    /// up front.
    pub fn apply(&self, frame: &slj_video::Frame) -> slj_video::Frame {
        match self {
            Presmooth::None => frame.clone(),
            Presmooth::Box { radius } => slj_imgproc::filter::box_blur(frame, *radius),
            Presmooth::Median => slj_imgproc::filter::median_filter(frame),
        }
    }

    /// As [`Presmooth::apply`], writing into a reused output frame.
    /// Value-identical; with `None` (the default) and a warmed `out`
    /// this performs no heap allocation, which keeps the streaming
    /// per-frame path alloc-free.
    pub fn apply_into(&self, frame: &slj_video::Frame, out: &mut slj_video::Frame) {
        match self {
            Presmooth::None => out.copy_from(frame),
            smoothing => *out = smoothing.apply(frame),
        }
    }
}

/// Configuration of the full pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Step 0 (extension): per-frame spatial smoothing.
    pub presmooth: Presmooth,
    /// Step 1: background estimation.
    pub background: BackgroundConfig,
    /// Step 2: subtraction threshold.
    pub foreground: ForegroundConfig,
    /// Step 3a: neighbour-vote noise filter.
    pub noise: NoiseFilterConfig,
    /// Step 3b: small-spot removal.
    pub spots: SpotRemoverConfig,
    /// Step 3c (extension, after ref. \[3\]): motion-based ghost
    /// suppression; `None` disables the stage.
    pub ghosts: Option<GhostConfig>,
    /// Step 4: hole filling.
    pub holes: HoleFillMode,
    /// Step 5: HSV shadow removal; `None` disables the step.
    pub shadow: Option<ShadowParams>,
    /// Step 6 (extension): per-frame silhouette health thresholds.
    pub quality: QualityConfig,
    /// Worker threads for the per-frame stages (subtraction → cleanup →
    /// shadow). The background estimate is shared and ghost detection
    /// compares against the previous *input* frame, so frames are
    /// independent once Step 1 has run — the fan-out is exact, not
    /// approximate, and output order is frame order regardless of
    /// thread count.
    pub parallelism: Parallelism,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            presmooth: Presmooth::None,
            background: BackgroundConfig::default(),
            foreground: ForegroundConfig::default(),
            noise: NoiseFilterConfig::default(),
            spots: SpotRemoverConfig::default(),
            ghosts: None,
            holes: HoleFillMode::FloodFill,
            shadow: Some(ShadowParams::default()),
            quality: QualityConfig::default(),
            parallelism: Parallelism::Serial,
        }
    }
}

impl PipelineConfig {
    /// The pipeline exactly as the paper describes it: last-stable
    /// background, the local hole-fill rule, shadow removal on, no
    /// ghost suppression.
    pub fn paper() -> Self {
        PipelineConfig {
            background: BackgroundConfig::paper(),
            holes: HoleFillMode::PaperRule { max_iters: 8 },
            ..PipelineConfig::default()
        }
    }

    /// The most robust configuration: median background *and* ghost
    /// suppression (belt and braces against background-model errors),
    /// flood-fill holes, shadow removal.
    pub fn robust() -> Self {
        PipelineConfig {
            ghosts: Some(GhostConfig::default()),
            ..PipelineConfig::default()
        }
    }
}

/// Every intermediate of one frame's segmentation, named after the
/// paper's Figure 2/3 panels.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameStages {
    /// Fig. 2(a): raw background subtraction.
    pub raw: Mask,
    /// Fig. 2(b): after the 8-neighbour noise filter.
    pub denoised: Mask,
    /// Fig. 2(c): after small-spot removal.
    pub despotted: Mask,
    /// After ghost suppression (equals `despotted` when the stage is
    /// disabled or on the first frame).
    pub deghosted: Mask,
    /// Per-component ghost verdicts (empty when the stage is disabled).
    pub ghost_verdicts: Vec<GhostVerdict>,
    /// Fig. 2(d): after hole filling.
    pub filled: Mask,
    /// Fig. 3: the pixels classified as shadow (blank when Step 5 is
    /// disabled).
    pub shadow: Mask,
    /// The final silhouette: `filled` minus `shadow`.
    pub final_mask: Mask,
}

impl FrameStages {
    /// An all-empty stage set (0×0 masks), the starting point for
    /// [`FrameSegmenter::segment_into`]. Reusing one instance across
    /// frames lets every stage write into already-sized buffers, which
    /// is what makes steady-state segmentation allocation-free.
    pub fn empty() -> Self {
        FrameStages {
            raw: Mask::new(0, 0),
            denoised: Mask::new(0, 0),
            despotted: Mask::new(0, 0),
            deghosted: Mask::new(0, 0),
            ghost_verdicts: Vec::new(),
            filled: Mask::new(0, 0),
            shadow: Mask::new(0, 0),
            final_mask: Mask::new(0, 0),
        }
    }

    /// The frame's segmentation span: the pixel population after every
    /// stage, read straight from the stage masks. A pure function of
    /// the masks, so the observation is identical at every
    /// `Parallelism` setting by construction.
    pub fn observe(&self) -> slj_obs::SegmentObs {
        slj_obs::SegmentObs {
            raw_px: self.raw.count() as u64,
            denoised_px: self.denoised.count() as u64,
            despotted_px: self.despotted.count() as u64,
            deghosted_px: self.deghosted.count() as u64,
            ghost_components: self.ghost_verdicts.len() as u64,
            ghosts_removed: self.ghost_verdicts.iter().filter(|v| v.is_ghost).count() as u64,
            filled_px: self.filled.count() as u64,
            shadow_px: self.shadow.count() as u64,
            final_px: self.final_mask.count() as u64,
        }
    }
}

/// The output of the pipeline over a clip.
#[derive(Debug, Clone)]
pub struct SegmentationResult {
    /// The Step-1 background estimate.
    pub background: EstimatedBackground,
    /// Per-frame intermediates, in frame order.
    pub frames: Vec<FrameStages>,
    /// Per-frame health of the final masks, in frame order.
    pub quality: Vec<FrameQuality>,
}

impl SegmentationResult {
    /// Frames whose final mask failed at least one health check.
    pub fn unhealthy_frames(&self) -> Vec<usize> {
        self.quality
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_healthy())
            .map(|(k, _)| k)
            .collect()
    }
}

/// The composed segmentation pipeline.
#[derive(Debug, Clone, Default)]
pub struct SegmentPipeline {
    config: PipelineConfig,
}

impl SegmentPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        SegmentPipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs all five steps over a clip.
    ///
    /// When [`PipelineConfig::parallelism`] resolves to more than one
    /// thread, the per-frame stages fan out over scoped threads in
    /// contiguous frame chunks ([`slj_runtime::for_each_chunk`]).
    /// Frame k only ever reads the shared background estimate and input
    /// frames k and k−1, so the parallel result is bit-identical to the
    /// serial one (tested).
    ///
    /// # Errors
    ///
    /// Returns [`SegmentError::TooFewFrames`] for clips with fewer than
    /// two frames (background estimation needs a frame pair).
    pub fn run(&self, video: &Video) -> Result<SegmentationResult, SegmentError> {
        // Step 0 (optional): smooth every frame before anything else.
        // `Presmooth::None` (the default) borrows the input untouched.
        let smoothed;
        let video = match self.config.presmooth {
            Presmooth::None => video,
            mode => {
                smoothed = Video::new(video.iter().map(|f| mode.apply(f)).collect(), video.fps());
                &smoothed
            }
        };
        let background = BackgroundEstimator::new(self.config.background).estimate(video)?;
        let prepared = Arc::new(PreparedBackground::new(&background.image));
        self.run_prepared(video, background, prepared)
    }

    /// Runs the per-frame stages (Steps 2–5) over a clip whose Step-1
    /// background has already been estimated and prepared.
    ///
    /// This is the entry point for callers that amortise the background
    /// work across several runs of the same scene — the perf bench and
    /// repeated re-analysis share one [`EstimatedBackground`] and one
    /// HSV-converted [`PreparedBackground`] per configuration instead
    /// of re-deriving both on every run. `video` must already be
    /// presmoothed according to [`PipelineConfig::presmooth`] ([`run`]
    /// takes care of that; with the default `Presmooth::None` the raw
    /// clip is correct as-is).
    ///
    /// [`run`]: SegmentPipeline::run
    ///
    /// # Errors
    ///
    /// Propagates [`SegmentError`] from the per-frame stages; the
    /// too-few-frames validation lives in background estimation, so
    /// this entry point accepts any clip the caller has a background
    /// for.
    pub fn run_prepared(
        &self,
        video: &Video,
        background: EstimatedBackground,
        prepared: Arc<PreparedBackground>,
    ) -> Result<SegmentationResult, SegmentError> {
        let inputs = video.frames();
        // Each chunk of frames gets a private `FrameSegmenter` (its
        // scratch arena is reused for every frame of the chunk); the
        // shared prepared background is read-only. Write targets are
        // disjoint and results land in frame order, so only throughput
        // depends on the thread count.
        let mut slots: Vec<Option<Result<FrameStages, SegmentError>>> = Vec::new();
        slots.resize_with(inputs.len(), || None);
        let config = &self.config;
        slj_runtime::for_each_chunk(config.parallelism.threads(), &mut slots, |offset, out| {
            let mut segmenter = FrameSegmenter::new(config, Arc::clone(&prepared));
            for (i, slot) in out.iter_mut().enumerate() {
                let k = offset + i;
                *slot = Some(segmenter.segment(&inputs[k], previous_input(inputs, k)));
            }
        });
        let frames = slots
            .into_iter()
            .map(|s| s.expect("every frame processed"))
            .collect::<Result<Vec<_>, _>>()?;

        let final_masks: Vec<_> = frames.iter().map(|s| &s.final_mask).collect();
        let quality = quality::assess_masks(&final_masks, &self.config.quality);
        Ok(SegmentationResult {
            background,
            frames,
            quality,
        })
    }
}

/// The previous *input* frame — what ghost detection compares motion
/// against. Depending only on the immutable input (never on the
/// previous frame's output) is what makes frames independent.
fn previous_input(inputs: &[Frame], k: usize) -> Option<&Frame> {
    k.checked_sub(1).map(|p| &inputs[p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_motion::JumpConfig;
    use slj_video::{SceneConfig, SyntheticJump};

    fn short_jump(scene: &SceneConfig, seed: u64) -> SyntheticJump {
        // A smaller scene keeps debug-build tests fast.
        let jump = JumpConfig {
            frames: 12,
            ..JumpConfig::default()
        };
        SyntheticJump::generate(scene, &jump, seed)
    }

    #[test]
    fn clean_scene_segments_nearly_perfectly() {
        let j = short_jump(&SceneConfig::clean(), 1);
        let result = SegmentPipeline::default().run(&j.video).unwrap();
        // Skip the first and last frames (background estimation edge
        // effects live there).
        for k in 2..j.len() - 2 {
            let m = result.frames[k]
                .final_mask
                .metrics_against(&j.silhouettes[k])
                .unwrap();
            assert!(m.iou() > 0.85, "frame {k}: {m}");
        }
    }

    #[test]
    fn noisy_scene_stages_monotonically_improve() {
        let j = short_jump(&SceneConfig::default(), 2);
        let result = SegmentPipeline::default().run(&j.video).unwrap();
        let k = j.len() / 2;
        let gt = &j.silhouettes[k];
        let s = &result.frames[k];
        let raw = s.raw.metrics_against(gt).unwrap();
        let denoised = s.denoised.metrics_against(gt).unwrap();
        let despotted = s.despotted.metrics_against(gt).unwrap();
        let final_m = s.final_mask.metrics_against(gt).unwrap();
        // Each repair stage should not hurt, and the final mask must be
        // clearly better than the raw subtraction.
        assert!(denoised.precision() >= raw.precision(), "noise filter");
        assert!(
            despotted.precision() >= denoised.precision(),
            "spot removal"
        );
        assert!(final_m.iou() > raw.iou(), "pipeline must improve IoU");
        assert!(final_m.iou() > 0.6, "final IoU {}", final_m.iou());
    }

    #[test]
    fn shadow_step_removes_shadow_pixels() {
        let j = short_jump(&SceneConfig::default(), 3);
        let with = SegmentPipeline::default().run(&j.video).unwrap();
        let without = SegmentPipeline::new(PipelineConfig {
            shadow: None,
            ..PipelineConfig::default()
        })
        .run(&j.video)
        .unwrap();
        let k = j.len() / 2;
        let gt = &j.silhouettes[k];
        let iou_with = with.frames[k].final_mask.iou(gt).unwrap();
        let iou_without = without.frames[k].final_mask.iou(gt).unwrap();
        assert!(
            iou_with > iou_without,
            "shadow removal should help: {iou_with} vs {iou_without}"
        );
        assert!(!with.frames[k].shadow.is_blank());
        assert!(without.frames[k].shadow.is_blank());
    }

    #[test]
    fn paper_config_also_works() {
        let j = short_jump(&SceneConfig::default(), 4);
        let result = SegmentPipeline::new(PipelineConfig::paper())
            .run(&j.video)
            .unwrap();
        let k = j.len() / 2;
        let iou = result.frames[k].final_mask.iou(&j.silhouettes[k]).unwrap();
        assert!(iou > 0.5, "paper pipeline IoU {iou}");
    }

    #[test]
    fn too_short_clip_errors() {
        let j = SyntheticJump::generate(
            &SceneConfig::clean(),
            &JumpConfig {
                frames: 2,
                ..JumpConfig::default()
            },
            5,
        );
        let one = slj_video::Video::new(vec![j.video.frames()[0].clone()], 10.0);
        assert!(matches!(
            SegmentPipeline::default().run(&one),
            Err(SegmentError::TooFewFrames { .. })
        ));
    }

    #[test]
    fn ghost_suppression_rescues_last_stable_background() {
        // The last-stable background burns the landed jumper in, which
        // haunts every frame as a static blob; ghost suppression removes
        // exactly that blob.
        use crate::background::{BackgroundConfig, UpdateMode};
        let j = short_jump(&SceneConfig::default(), 7);
        let base = PipelineConfig {
            background: BackgroundConfig {
                mode: UpdateMode::LastStable,
                ..BackgroundConfig::default()
            },
            ..PipelineConfig::default()
        };
        let with_ghosts = PipelineConfig {
            ghosts: Some(crate::ghosts::GhostConfig {
                motion_threshold: 40,
                min_moving_fraction: 0.04,
            }),
            ..base.clone()
        };
        let plain = SegmentPipeline::new(base).run(&j.video).unwrap();
        let ghosted = SegmentPipeline::new(with_ghosts).run(&j.video).unwrap();
        // Compare mid-clip precision (edges are weak for both).
        let k = j.len() / 2;
        let gt = &j.silhouettes[k];
        let p_plain = plain.frames[k].final_mask.metrics_against(gt).unwrap();
        let p_ghost = ghosted.frames[k].final_mask.metrics_against(gt).unwrap();
        assert!(
            p_ghost.precision() > p_plain.precision() + 0.1,
            "ghost suppression should remove the burnt-in blob: {} vs {}",
            p_ghost,
            p_plain
        );
        // And some component was actually classified as a ghost.
        assert!(ghosted.frames[k].ghost_verdicts.iter().any(|v| v.is_ghost));
    }

    #[test]
    fn presmoothing_rescues_heavy_noise() {
        // Under moderate noise, smoothing is a net negative (it smears a
        // false-positive halo around the body boundary); its value is
        // under *heavy* sensor noise, where speckle floods the raw mask.
        let mut scene = SceneConfig::default();
        scene.noise.pixel_jitter = 16; // L1 diffs up to 96 > threshold 60
        let j = short_jump(&scene, 9);
        let plain = SegmentPipeline::new(PipelineConfig::default())
            .run(&j.video)
            .unwrap();
        let smoothed = SegmentPipeline::new(PipelineConfig {
            presmooth: Presmooth::Box { radius: 1 },
            ..PipelineConfig::default()
        })
        .run(&j.video)
        .unwrap();
        let k = j.len() / 2;
        let gt = &j.silhouettes[k];
        let a = plain.frames[k].raw.metrics_against(gt).unwrap();
        let b = smoothed.frames[k].raw.metrics_against(gt).unwrap();
        assert!(
            b.precision() > a.precision() + 0.05,
            "smoothing should kill speckle: {} vs {}",
            b,
            a
        );
        // Median mode also runs end to end.
        let med = SegmentPipeline::new(PipelineConfig {
            presmooth: Presmooth::Median,
            ..PipelineConfig::default()
        })
        .run(&j.video)
        .unwrap();
        assert!(med.frames[k].final_mask.iou(gt).unwrap() > 0.5);
    }

    #[test]
    fn robust_config_enables_ghosts() {
        assert!(PipelineConfig::robust().ghosts.is_some());
        assert!(PipelineConfig::default().ghosts.is_none());
        assert!(PipelineConfig::paper().ghosts.is_none());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        // Ghost suppression on: it is the only stage with a cross-frame
        // input, so it is the one a botched parallelisation would break.
        let j = short_jump(&SceneConfig::default(), 11);
        let base = PipelineConfig::robust();
        let serial = SegmentPipeline::new(base.clone()).run(&j.video).unwrap();
        for parallelism in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Fixed(64),
        ] {
            let parallel = SegmentPipeline::new(PipelineConfig {
                parallelism,
                ..base.clone()
            })
            .run(&j.video)
            .unwrap();
            assert_eq!(
                parallel.frames, serial.frames,
                "parallelism = {parallelism}"
            );
            assert_eq!(
                parallel.quality, serial.quality,
                "parallelism = {parallelism}"
            );
            assert_eq!(
                parallel.background.image.as_slice(),
                serial.background.image.as_slice()
            );
        }
    }

    #[test]
    fn result_has_one_stage_set_per_frame() {
        let j = short_jump(&SceneConfig::clean(), 6);
        let result = SegmentPipeline::default().run(&j.video).unwrap();
        assert_eq!(result.frames.len(), j.len());
        assert_eq!(result.quality.len(), j.len());
        for s in &result.frames {
            assert_eq!(s.raw.dims(), j.video.dims());
            assert_eq!(s.final_mask.dims(), j.video.dims());
        }
    }

    #[test]
    fn normal_scenes_produce_healthy_quality() {
        // The health thresholds must not cry wolf: both the clean and
        // the paper-noise scenes should pass nearly every frame.
        for (scene, seed) in [(SceneConfig::clean(), 6), (SceneConfig::default(), 8)] {
            let j = short_jump(&scene, seed);
            let result = SegmentPipeline::default().run(&j.video).unwrap();
            let unhealthy = result.unhealthy_frames();
            assert!(
                unhealthy.len() <= 1,
                "scene seed {seed}: unhealthy frames {unhealthy:?}"
            );
        }
    }

    #[test]
    fn occluded_clip_is_flagged_unhealthy() {
        use slj_video::faults::{FaultConfig, FaultInjector};
        let j = short_jump(&SceneConfig::default(), 10);
        let cfg = FaultConfig {
            seed: 4,
            occlusion_bars: 6,
            ..FaultConfig::default()
        };
        let (faulty, _) = FaultInjector::new(cfg).inject(&j.video);
        let result = SegmentPipeline::default().run(&faulty).unwrap();
        // Static bars sit in the estimated background, so their harm is
        // where they cross the jumper: silhouettes get sliced apart.
        assert!(
            result.unhealthy_frames().len() >= 3,
            "six occlusion bars should shred several frames, got {:?}",
            result.unhealthy_frames()
        );
    }
}
