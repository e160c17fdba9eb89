//! GA-based 2-D articulated pose estimation from silhouettes.
//!
//! This is the paper's Section 3 — its primary contribution. A pose is
//! the chromosome `(x0, y0, ρ0..ρ7)`; Eq. 3 scores how well the stick
//! model explains a silhouette; a genetic algorithm with elitism, the
//! paper's grouped multi-crossover and per-group mutation searches for
//! the best pose; and — the delta over Shoji et al. \[5\] — each frame's
//! initial population is **seeded from the previous frame's estimate**,
//! which collapses convergence from ~200 generations to a handful.
//!
//! * [`engine`] — a generic minimising GA with elitism, rank selection
//!   and optional scoped-thread parallel fitness evaluation.
//! * [`fitness`] — Eq. 3: `F_S = (Σ_p min_l d(p, S_l)/t_l) / N`.
//! * [`pose_problem`] — the chromosome encoding, grouped crossover,
//!   mutation, validity constraint and initial-population strategies.
//! * [`tracker`] — frame-to-frame tracking with temporal seeding.
//! * [`baseline`] — the non-temporal single-frame GA of \[5\], plus
//!   random-search and hill-climbing comparison baselines.
//! * [`particle`] — a Condensation-style particle-filter tracker over
//!   the same Eq. 3 cost, for like-for-like method comparison.
//!
//! # Example
//!
//! ```
//! use slj_ga::tracker::{TrackerConfig, TemporalTracker};
//! use slj_video::{SceneConfig, SyntheticJump};
//! use slj_motion::JumpConfig;
//!
//! let jump_cfg = JumpConfig { frames: 4, ..JumpConfig::default() };
//! let jump = SyntheticJump::generate(&SceneConfig::clean(), &jump_cfg, 9);
//! let tracker = TemporalTracker::new(TrackerConfig::fast());
//! // Track frames 1.. from the (ground-truth) first-frame pose, using
//! // the true silhouettes.
//! let result = tracker
//!     .track(&jump.silhouettes, jump.poses.poses()[0], &jump.jump.dims, &jump.scene.camera)
//!     .unwrap();
//! assert_eq!(result.frames.len(), 4);
//! ```

pub mod baseline;
pub mod engine;
pub mod error;
pub mod fitness;
pub mod particle;
pub mod pose_problem;
pub mod tracker;

pub use engine::{evolve, GaConfig, GaRun, Problem};
pub use error::GaError;
pub use fitness::{BatchScratch, PruneStats, SilhouetteFitness};
pub use particle::{ParticleFilter, ParticleFilterConfig, ParticleRun};
pub use pose_problem::{InitStrategy, PoseProblem, PoseProblemConfig, ProblemScratch};
pub use tracker::{
    RecoveryAction, RecoveryPolicy, TemporalTracker, TrackResult, TrackScratch, TrackerConfig,
    TrackerStream,
};
