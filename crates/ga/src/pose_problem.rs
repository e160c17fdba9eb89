//! The pose-estimation GA problem: chromosome, crossover groups,
//! mutation, validity and initial-population strategies.
//!
//! The chromosome is the paper's `(x0, y0, ρ0, …, ρ7)` — represented
//! directly as a [`Pose`]. The two initialisation strategies are the
//! crux of the reproduction:
//!
//! * [`InitStrategy::FullRange`] — Shoji et al. \[5\]: the centre anywhere
//!   over the silhouette, every angle uniform in `[0°, 360°)`. Needs
//!   ~200 generations.
//! * [`InitStrategy::Temporal`] — the paper's contribution: the centre
//!   near the silhouette's geometric centre (`(x_c ± Δx, y_c ± Δy)`),
//!   each angle within `ρ_{l,k−1} ± Δρ_l` of the previous frame, with
//!   `Δρ_l` "determined by the nature of connected joints" (here: from
//!   the measured per-stick angular velocity of a real jump).

use crate::engine::Problem;
use crate::error::GaError;
use crate::fitness::{BatchScratch, SilhouetteFitness};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use slj_imgproc::geometry::Point2;
use slj_imgproc::mask::Mask;
use slj_imgproc::moments;
use slj_motion::model::{GENE_COUNT, GENE_GROUPS, STICK_COUNT};
use slj_motion::{Angle, BodyDims, Pose};
use slj_video::Camera;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Per-stick half-range Δρ (degrees) for temporal initialisation,
/// paper order ρ0..ρ7. Derived from the maximum frame-to-frame angular
/// velocity of the synthesised jump at 10 fps (trunk ~20°/frame, arms up
/// to ~80°/frame during the swing), with ~25% headroom.
pub const DEFAULT_DELTA_ANGLES: [f64; STICK_COUNT] =
    [30.0, 20.0, 100.0, 45.0, 20.0, 85.0, 75.0, 35.0];

/// How the initial population is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitStrategy {
    /// Uniform over the silhouette bounding box and all angles — the
    /// non-temporal baseline of \[5\].
    FullRange,
    /// Seeded from the previous frame's pose (the paper's method).
    ///
    /// A constant-velocity extrapolation seed was evaluated during
    /// development and *rejected*: at ~10 fps jump speeds the velocity
    /// estimate is noisy enough that motion-predicted seeds compound
    /// drift (see EXPERIMENTS.md, Fig. 7 notes).
    Temporal {
        /// The previous frame's estimated pose.
        previous: Pose,
        /// Half-width Δx = Δy of the centre rectangle around the
        /// silhouette centroid, metres.
        delta_center: f64,
        /// Per-stick half-range Δρ_l, degrees.
        delta_angles: [f64; STICK_COUNT],
    },
}

/// Genetic-operator parameters (the paper's Section 3 values as
/// defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoseProblemConfig {
    /// Per-group crossover probability ("we can set the crossover rate
    /// to 0.2").
    pub crossover_rate: f64,
    /// Per-group mutation probability ("mutation can be applied to each
    /// group with a probability 0.01").
    pub mutation_rate: f64,
    /// Mutation jitter half-range for angle genes, degrees.
    pub mutation_angle_step: f64,
    /// Mutation jitter half-range for centre genes, metres.
    pub mutation_center_step: f64,
    /// Eq. 3 subsampling stride (1 = every silhouette pixel).
    pub stride: usize,
    /// Fraction of per-stick axis samples that must fall inside the
    /// silhouette for a chromosome to be valid.
    pub validity_fraction: f64,
    /// Number of axis samples per stick for the validity test.
    pub validity_samples: usize,
}

impl Default for PoseProblemConfig {
    fn default() -> Self {
        PoseProblemConfig {
            crossover_rate: 0.2,
            mutation_rate: 0.01,
            mutation_angle_step: 20.0,
            mutation_center_step: 0.06,
            stride: 2,
            validity_fraction: 0.65,
            validity_samples: 5,
        }
    }
}

/// A concurrent fitness memo keyed on the exact bit pattern of the
/// chromosome's genes. Purely an evaluation cache: since Eq. 3 is a
/// pure function of the genes, a hit returns exactly what recomputation
/// would, on any thread, in any order — parallelism and memoisation
/// both preserve bit-identical GA trajectories. The elitist GA
/// re-scores every surviving elite each generation, and low
/// crossover/mutation rates make many offspring verbatim copies of a
/// parent, so the memo answers those without re-walking the
/// silhouette.
#[derive(Default)]
pub struct FitnessMemo {
    map: Mutex<HashMap<[u64; GENE_COUNT], f64, BuildChromoHasher>>,
    validity: Mutex<HashMap<[u64; GENE_COUNT], bool, BuildChromoHasher>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Multiply-xor hasher for chromosome keys (12 `u64` gene-bit words).
/// The default SipHash is keyed against adversarial collisions, which a
/// memo over trusted keys does not need; this folds each word in a few
/// cycles instead. Deterministic, and the maps are only ever probed
/// (`get`/`insert`/`len`), so the table order can never leak into
/// results.
#[derive(Clone, Copy, Default)]
struct ChromoHasher(u64);

impl std::hash::Hasher for ChromoHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        // fxhash-style fold: rotate, mix, multiply by an odd constant
        // derived from pi. Good avalanche for full-width float bits.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type BuildChromoHasher = std::hash::BuildHasherDefault<ChromoHasher>;

impl FitnessMemo {
    fn key(genome: &Pose) -> [u64; GENE_COUNT] {
        genome.to_genes().map(f64::to_bits)
    }

    fn get(&self, key: &[u64; GENE_COUNT]) -> Option<f64> {
        let found = self.map.lock().expect("memo poisoned").get(key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: [u64; GENE_COUNT], fitness: f64) {
        self.map.lock().expect("memo poisoned").insert(key, fitness);
    }

    fn get_validity(&self, key: &[u64; GENE_COUNT]) -> Option<bool> {
        self.validity
            .lock()
            .expect("memo poisoned")
            .get(key)
            .copied()
    }

    fn insert_validity(&self, key: [u64; GENE_COUNT], valid: bool) {
        self.validity
            .lock()
            .expect("memo poisoned")
            .insert(key, valid);
    }

    /// `(hits, misses)` so far — perf diagnostics only.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct chromosomes cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memo poisoned").len()
    }

    /// Empties both memo tables — keeping their (large) hash-table
    /// storage — and zeroes the hit/miss counters. Called when a memo
    /// is recycled for a different silhouette: stale values can never
    /// leak because every key is gone.
    pub fn clear(&self) {
        self.map.lock().expect("memo poisoned").clear();
        self.validity.lock().expect("memo poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Whether the memo has cached anything yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for FitnessMemo {
    fn clone(&self) -> Self {
        FitnessMemo {
            map: Mutex::new(self.map.lock().expect("memo poisoned").clone()),
            validity: Mutex::new(self.validity.lock().expect("memo poisoned").clone()),
            hits: AtomicUsize::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicUsize::new(self.misses.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for FitnessMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("FitnessMemo")
            .field("entries", &self.len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

/// Per-call scratch for the batched evaluation path: the memo-miss
/// work list, the deduplicated poses, their values, and the evaluator's
/// own [`BatchScratch`]. Pooled on the problem so steady-state batch
/// evaluation performs no heap allocation (`tests/zero_alloc.rs`).
#[derive(Debug, Default)]
struct EvalScratch {
    /// `(chromosome bits, genome index)` for every genome the memo did
    /// not already answer. Sorted to group exact duplicates.
    pending: Vec<([u64; GENE_COUNT], u32)>,
    /// First occurrence of each distinct pending chromosome.
    poses: Vec<Pose>,
    /// One fitness value per entry of `poses`.
    values: Vec<f64>,
    /// Stick-set and prune-hint storage for the lane kernel.
    fit: BatchScratch,
}

/// A lock-guarded stack of [`EvalScratch`] buffers: each concurrent
/// batch evaluation pops one (or starts fresh) and pushes it back
/// warmed. Purely a cache — cloning a problem starts an empty pool.
#[derive(Debug, Default)]
struct ScratchPool(Mutex<Vec<EvalScratch>>);

impl ScratchPool {
    fn take(&self) -> EvalScratch {
        self.0
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, scratch: EvalScratch) {
        self.0.lock().expect("scratch pool poisoned").push(scratch);
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

/// A problem's recyclable heavy state: the fitness/validity memo maps
/// (hash tables that grow to thousands of entries over a GA run) and
/// the batched-evaluation scratch pool. Reclaim it from a finished
/// problem with [`PoseProblem::reclaim`] and thread it into the next
/// frame's problem with [`PoseProblem::with_fitness_scratch`]; the memo
/// is cleared (not dropped) on adoption, so steady-state tracking
/// re-uses the table storage without any cross-silhouette leakage.
#[derive(Debug, Default)]
pub struct ProblemScratch {
    memo: FitnessMemo,
    pool: ScratchPool,
}

/// The pose-estimation problem for one silhouette.
#[derive(Debug, Clone)]
pub struct PoseProblem {
    /// Shared Eq. 3 evaluator. `Arc` so the tracker's recovery ladder
    /// can rebuild the problem with a different init strategy without
    /// re-deriving the silhouette's point list and distance field.
    fitness: Arc<SilhouetteFitness>,
    /// Per-stick thickness in pixels, paper order.
    thickness_px: [f64; STICK_COUNT],
    dims: BodyDims,
    camera: Camera,
    init: InitStrategy,
    config: PoseProblemConfig,
    memo: FitnessMemo,
    /// Pooled scratch for batched lane evaluation — a pure cache, so
    /// clones start with a fresh (empty) pool.
    scratch: ScratchPool,
    /// Silhouette centroid in world coordinates.
    centroid_world: Point2,
    /// Silhouette bounding box in world coordinates
    /// `(x_min, y_min, x_max, y_max)`.
    bbox_world: (f64, f64, f64, f64),
}

impl PoseProblem {
    /// Prepares the problem for a silhouette.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] for a blank mask and
    /// [`GaError::BadConfig`] for out-of-range operator parameters.
    pub fn new(
        silhouette: &Mask,
        dims: &BodyDims,
        camera: &Camera,
        init: InitStrategy,
        config: PoseProblemConfig,
    ) -> Result<Self, GaError> {
        let fitness = Arc::new(SilhouetteFitness::new(
            silhouette,
            dims,
            camera,
            config.stride,
        )?);
        PoseProblem::with_fitness(silhouette, fitness, dims, camera, init, config)
    }

    /// Like [`PoseProblem::new`] but reusing an already-prepared
    /// evaluator for the same silhouette. This is the amortised path:
    /// the tracker's recovery ladder tries up to three init strategies
    /// per frame, and the Eq. 3 point list / distance field are
    /// identical across all of them.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] for a blank mask and
    /// [`GaError::BadConfig`] for out-of-range operator parameters.
    pub fn with_fitness(
        silhouette: &Mask,
        fitness: Arc<SilhouetteFitness>,
        dims: &BodyDims,
        camera: &Camera,
        init: InitStrategy,
        config: PoseProblemConfig,
    ) -> Result<Self, GaError> {
        Self::with_fitness_scratch(
            silhouette,
            fitness,
            dims,
            camera,
            init,
            config,
            ProblemScratch::default(),
        )
    }

    /// Like [`PoseProblem::with_fitness`] but adopting recycled memo
    /// tables and scratch buffers from a previous problem (see
    /// [`ProblemScratch`]). The memo is cleared on entry, so results
    /// are identical to a fresh problem; only allocations differ.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] for a blank mask and
    /// [`GaError::BadConfig`] for out-of-range operator parameters.
    pub fn with_fitness_scratch(
        silhouette: &Mask,
        fitness: Arc<SilhouetteFitness>,
        dims: &BodyDims,
        camera: &Camera,
        init: InitStrategy,
        config: PoseProblemConfig,
        scratch: ProblemScratch,
    ) -> Result<Self, GaError> {
        if !(0.0..=1.0).contains(&config.crossover_rate) {
            return Err(GaError::BadConfig {
                what: "crossover_rate must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&config.mutation_rate) {
            return Err(GaError::BadConfig {
                what: "mutation_rate must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&config.validity_fraction) {
            return Err(GaError::BadConfig {
                what: "validity_fraction must be in [0, 1]",
            });
        }
        if config.validity_samples == 0 {
            return Err(GaError::BadConfig {
                what: "validity_samples must be positive",
            });
        }
        let centroid_px = moments::centroid(silhouette).ok_or(GaError::EmptySilhouette)?;
        let bb = moments::bounding_box(silhouette).ok_or(GaError::EmptySilhouette)?;
        let tl = camera.image_to_world(Point2::new(bb.x_min as f64, bb.y_max as f64));
        let br = camera.image_to_world(Point2::new(bb.x_max as f64, bb.y_min as f64));
        let mut thickness_px = [0.0; STICK_COUNT];
        for s in slj_motion::model::ALL_STICKS {
            thickness_px[s.index()] = camera.length_to_pixels(dims.thickness(s)).max(1.0);
        }
        scratch.memo.clear();
        Ok(PoseProblem {
            fitness,
            thickness_px,
            dims: dims.clone(),
            camera: *camera,
            init,
            config,
            memo: scratch.memo,
            scratch: scratch.pool,
            centroid_world: camera.image_to_world(centroid_px),
            bbox_world: (tl.x, tl.y, br.x, br.y),
        })
    }

    /// Dismantles the problem into its recyclable heavy state for the
    /// next frame's [`PoseProblem::with_fitness_scratch`]. Read any
    /// memo statistics you need (e.g. `memo().len()`) *before* calling
    /// this.
    pub fn reclaim(self) -> ProblemScratch {
        ProblemScratch {
            memo: self.memo,
            pool: self.scratch,
        }
    }

    /// The silhouette centroid, world metres.
    pub fn centroid(&self) -> Point2 {
        self.centroid_world
    }

    /// The prepared Eq. 3 evaluator.
    pub fn fitness_fn(&self) -> &SilhouetteFitness {
        &self.fitness
    }

    /// A shareable handle to the Eq. 3 evaluator, for building further
    /// problems over the same silhouette without re-preparation.
    pub fn shared_fitness(&self) -> Arc<SilhouetteFitness> {
        Arc::clone(&self.fitness)
    }

    /// The fitness memo (hit/miss diagnostics).
    pub fn memo(&self) -> &FitnessMemo {
        &self.memo
    }

    /// The operator configuration.
    pub fn config(&self) -> &PoseProblemConfig {
        &self.config
    }

    /// Fraction of axis samples of `pose`'s sticks that lie inside (or
    /// within one stick-thickness of) the silhouette.
    ///
    /// Uses the evaluator's chamfer distance field: an axis sample
    /// counts as "inside" when it lies within the stick's own thickness
    /// of a silhouette pixel — tolerant of the mask erosion and holes a
    /// real pipeline produces.
    pub fn inside_fraction(&self, pose: &Pose) -> f64 {
        let segs = pose.segments(&self.dims);
        let n = self.config.validity_samples;
        let df = self.fitness.distance_field();
        let mut inside = 0usize;
        let mut total = 0usize;
        for (stick, seg) in segs.iter() {
            let s_px = self.camera.segment_to_image(seg);
            let tol = self.thickness_px[stick.index()];
            for p in s_px.sample_iter(n) {
                total += 1;
                let (x, y) = (p.x.round(), p.y.round());
                if x >= 0.0
                    && y >= 0.0
                    && (x as usize) < df.width()
                    && (y as usize) < df.height()
                    && df.distance(x as usize, y as usize) <= tol
                {
                    inside += 1;
                }
            }
        }
        inside as f64 / total.max(1) as f64
    }
}

impl Problem for PoseProblem {
    type Genome = Pose;

    /// Memo first, then the pruned lane kernel
    /// ([`SilhouetteFitness::evaluate_lanes`]).
    fn fitness(&self, genome: &Pose) -> f64 {
        let key = FitnessMemo::key(genome);
        if let Some(cached) = self.memo.get(&key) {
            return cached;
        }
        let value = self.fitness.evaluate_lanes(genome, &self.dims);
        self.memo.insert(key, value);
        value
    }

    /// Batched evaluation: memo lookups first, then the distinct
    /// missing chromosomes are projected and walked against the
    /// prepared frame in one chunk-outer pass. Each distinct chromosome
    /// is evaluated and memoised exactly once however often it repeats
    /// in the batch, so `memo.len()` — the observability layer's
    /// `unique_genomes` — counts distinct chromosomes, as per-genome
    /// `fitness` calls would. Values are bit-identical to the unpruned
    /// reference scan at any batch split (property-tested).
    fn fitness_batch(&self, genomes: &[Pose], out: &mut [f64]) {
        let mut scratch = self.scratch.take();
        scratch.pending.clear();
        for (i, genome) in genomes.iter().enumerate() {
            let key = FitnessMemo::key(genome);
            if let Some(cached) = self.memo.get(&key) {
                out[i] = cached;
                continue;
            }
            scratch.pending.push((key, i as u32));
        }
        if scratch.pending.is_empty() {
            self.scratch.put(scratch);
            return;
        }
        // Group exact duplicates; ties keep the lowest genome index
        // first, so `poses` holds each distinct chromosome's first
        // occurrence (any occurrence has identical bits anyway).
        scratch.pending.sort_unstable();
        scratch.poses.clear();
        let mut previous: Option<&[u64; GENE_COUNT]> = None;
        for (key, idx) in &scratch.pending {
            if previous != Some(key) {
                scratch.poses.push(genomes[*idx as usize]);
                previous = Some(key);
            }
        }
        scratch.values.clear();
        scratch.values.resize(scratch.poses.len(), 0.0);
        self.fitness.evaluate_batch(
            &scratch.poses,
            &self.dims,
            &mut scratch.values,
            &mut scratch.fit,
        );
        // Scatter each group's value to every duplicate and memoise the
        // chromosome once.
        let mut unique = 0usize;
        let mut start = 0usize;
        while start < scratch.pending.len() {
            let key = scratch.pending[start].0;
            let value = scratch.values[unique];
            let mut end = start;
            while end < scratch.pending.len() && scratch.pending[end].0 == key {
                out[scratch.pending[end].1 as usize] = value;
                end += 1;
            }
            self.memo.insert(key, value);
            unique += 1;
            start = end;
        }
        self.scratch.put(scratch);
    }

    fn random_genome(&self, rng: &mut StdRng) -> Pose {
        match &self.init {
            InitStrategy::FullRange => {
                let (x0, y0, x1, y1) = self.bbox_world;
                let center = Point2::new(
                    if x1 > x0 { rng.gen_range(x0..=x1) } else { x0 },
                    if y1 > y0 { rng.gen_range(y0..=y1) } else { y0 },
                );
                let mut angles = [Angle::UP; STICK_COUNT];
                for a in angles.iter_mut() {
                    *a = Angle::from_degrees(rng.gen_range(0.0..360.0));
                }
                Pose::new(center, angles)
            }
            InitStrategy::Temporal {
                previous,
                delta_center,
                delta_angles,
            } => {
                let dc = *delta_center;
                let base = previous;
                // The paper samples the centre around the silhouette's
                // geometric centre; when segmentation leaves ghost blobs
                // the centroid can sit in empty space, so half the
                // population is anchored on the base pose's centre
                // instead — whichever anchor matches the real body wins
                // through fitness.
                let anchor = if rng.gen_bool(0.5) {
                    self.centroid_world
                } else {
                    base.center
                };
                let center = Point2::new(
                    anchor.x + rng.gen_range(-dc..=dc),
                    anchor.y + rng.gen_range(-dc..=dc),
                );
                let mut angles = base.angles;
                for (l, a) in angles.iter_mut().enumerate() {
                    let d = delta_angles[l];
                    *a = *a + rng.gen_range(-d..=d);
                }
                Pose::new(center, angles)
            }
        }
    }

    fn crossover(&self, a: &Pose, b: &Pose, rng: &mut StdRng) -> (Pose, Pose) {
        let mut g1 = a.to_genes();
        let mut g2 = b.to_genes();
        for group in GENE_GROUPS {
            if rng.gen_bool(self.config.crossover_rate) {
                for &i in group {
                    g1.swap_with_slice_at(&mut g2, i);
                }
            }
        }
        (
            Pose::from_genes(&g1).expect("gene swap preserves validity"),
            Pose::from_genes(&g2).expect("gene swap preserves validity"),
        )
    }

    fn mutate(&self, genome: &mut Pose, rng: &mut StdRng) {
        let mut genes = genome.to_genes();
        for group in GENE_GROUPS {
            if rng.gen_bool(self.config.mutation_rate) {
                for &i in group {
                    if i < 2 {
                        let s = self.config.mutation_center_step;
                        genes[i] += rng.gen_range(-s..=s);
                    } else {
                        let s = self.config.mutation_angle_step;
                        genes[i] += rng.gen_range(-s..=s);
                    }
                }
            }
        }
        *genome = Pose::from_genes(&genes).expect("mutation keeps genes finite");
    }

    fn is_valid(&self, genome: &Pose) -> bool {
        // Offspring of a converged population repeat chromosomes
        // bit-for-bit (typically >70% of validity checks in a tracking
        // run), so the boolean is memoised alongside the fitness value.
        let key = FitnessMemo::key(genome);
        if let Some(cached) = self.memo.get_validity(&key) {
            return cached;
        }
        let valid = self.inside_fraction(genome) >= self.config.validity_fraction;
        self.memo.insert_validity(key, valid);
        valid
    }

    fn seeds(&self) -> Vec<Pose> {
        match &self.init {
            InitStrategy::FullRange => Vec::new(),
            InitStrategy::Temporal { previous, .. } => {
                // The previous pose itself, and the previous pose
                // recentred on the silhouette's geometric centre (the
                // paper's explicit first move).
                vec![*previous, previous.with_center(self.centroid_world)]
            }
        }
    }
}

/// Helper: swap a single index between two gene arrays. Extension trait
/// keeps the call site readable inside `crossover`.
trait SwapAt {
    fn swap_with_slice_at(&mut self, other: &mut Self, index: usize);
}

impl SwapAt for [f64; GENE_COUNT] {
    fn swap_with_slice_at(&mut self, other: &mut Self, index: usize) {
        std::mem::swap(&mut self[index], &mut other[index]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use slj_video::render::render_silhouette;

    fn setup() -> (Mask, BodyDims, Camera, Pose) {
        let dims = BodyDims::default();
        let camera = Camera::default();
        let mut pose = Pose::standing(&dims);
        pose.center.x = 0.6;
        let sil = render_silhouette(&pose, &dims, &camera);
        (sil, dims, camera, pose)
    }

    fn temporal(previous: Pose) -> InitStrategy {
        InitStrategy::Temporal {
            previous,
            delta_center: 0.1,
            delta_angles: DEFAULT_DELTA_ANGLES,
        }
    }

    #[test]
    fn true_pose_is_valid() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(p.is_valid(&pose));
        assert!(p.inside_fraction(&pose) > 0.95);
    }

    #[test]
    fn displaced_pose_is_invalid() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut far = pose;
        far.center.x += 0.8;
        assert!(!p.is_valid(&far));
        assert!(p.inside_fraction(&far) < 0.3);
    }

    #[test]
    fn centroid_is_near_trunk_center() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(p.centroid().distance(pose.center) < 0.25);
    }

    #[test]
    fn temporal_samples_stay_in_deltas() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let g = p.random_genome(&mut rng);
            // Centre is within the delta box of one of the two anchors
            // (silhouette centroid or previous centre).
            let near = |a: slj_imgproc::geometry::Point2| {
                (g.center.x - a.x).abs() <= 0.1 + 1e-9 && (g.center.y - a.y).abs() <= 0.1 + 1e-9
            };
            assert!(near(p.centroid()) || near(pose.center));
            for (l, ((ga, pa), limit)) in g
                .angles
                .iter()
                .zip(&pose.angles)
                .zip(DEFAULT_DELTA_ANGLES)
                .enumerate()
            {
                let d = ga.distance(*pa);
                assert!(d <= limit + 1e-9, "stick {l} moved {d}° (limit {limit})");
            }
        }
    }

    #[test]
    fn full_range_samples_cover_bbox() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut spread_x = (f64::INFINITY, f64::NEG_INFINITY);
        for _ in 0..200 {
            let g = p.random_genome(&mut rng);
            spread_x.0 = spread_x.0.min(g.center.x);
            spread_x.1 = spread_x.1.max(g.center.x);
        }
        // The standing silhouette bbox is narrow; samples span it.
        assert!(spread_x.1 - spread_x.0 > 0.1);
        let _ = pose;
    }

    #[test]
    fn crossover_swaps_whole_groups() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            crossover_rate: 1.0, // always swap every group
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let a = pose;
        let mut b = pose;
        b.center.x += 0.05;
        for l in 0..STICK_COUNT {
            b.angles[l] = b.angles[l] + 10.0;
        }
        let mut rng = StdRng::seed_from_u64(3);
        let (c1, c2) = p.crossover(&a, &b, &mut rng);
        // With rate 1 every group swaps: children are the parents
        // exchanged.
        assert_eq!(c1.to_genes(), b.to_genes());
        assert_eq!(c2.to_genes(), a.to_genes());
    }

    #[test]
    fn crossover_rate_zero_is_identity() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            crossover_rate: 0.0,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let mut b = pose;
        b.center.y += 0.1;
        let mut rng = StdRng::seed_from_u64(4);
        let (c1, c2) = p.crossover(&pose, &b, &mut rng);
        assert_eq!(c1.to_genes(), pose.to_genes());
        assert_eq!(c2.to_genes(), b.to_genes());
    }

    #[test]
    fn crossover_preserves_gene_multiset_per_group() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut b = pose;
        b.center.x += 0.07;
        for l in 0..STICK_COUNT {
            b.angles[l] = b.angles[l] + (l as f64 + 1.0) * 7.0;
        }
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let (c1, c2) = p.crossover(&pose, &b, &mut rng);
            let (g1, g2) = (c1.to_genes(), c2.to_genes());
            let (pa, pb) = (pose.to_genes(), b.to_genes());
            for group in GENE_GROUPS {
                // Each group in the children comes wholesale from one
                // parent.
                let from_a1 = group.iter().all(|&i| g1[i] == pa[i]);
                let from_b1 = group.iter().all(|&i| g1[i] == pb[i]);
                assert!(from_a1 || from_b1, "group {group:?} mixed in child 1");
                let from_a2 = group.iter().all(|&i| g2[i] == pa[i]);
                let from_b2 = group.iter().all(|&i| g2[i] == pb[i]);
                assert!(from_a2 || from_b2, "group {group:?} mixed in child 2");
                // And the two children together hold both parents' genes.
                assert!(
                    (from_a1 && from_b2) || (from_b1 && from_a2),
                    "group {group:?} lost"
                );
            }
        }
    }

    #[test]
    fn mutation_rate_zero_is_identity() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            mutation_rate: 0.0,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let mut g = pose;
        let mut rng = StdRng::seed_from_u64(6);
        p.mutate(&mut g, &mut rng);
        assert_eq!(g.to_genes(), pose.to_genes());
    }

    #[test]
    fn mutation_jitter_is_bounded() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            mutation_rate: 1.0,
            mutation_angle_step: 5.0,
            mutation_center_step: 0.02,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut g = pose;
            p.mutate(&mut g, &mut rng);
            assert!((g.center.x - pose.center.x).abs() <= 0.02 + 1e-9);
            let e = g.error_against(&pose);
            assert!(e.max_angle_error() <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn seeds_include_previous_pose() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let seeds = p.seeds();
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0].to_genes(), pose.to_genes());
        assert!(seeds[1].center.distance(p.centroid()) < 1e-9);
        // Full-range has no seeds.
        let p2 = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(p2.seeds().is_empty());
    }

    #[test]
    fn bad_configs_rejected() {
        let (sil, dims, camera, pose) = setup();
        for cfg in [
            PoseProblemConfig {
                crossover_rate: 1.5,
                ..PoseProblemConfig::default()
            },
            PoseProblemConfig {
                mutation_rate: -0.1,
                ..PoseProblemConfig::default()
            },
            PoseProblemConfig {
                validity_fraction: 2.0,
                ..PoseProblemConfig::default()
            },
            PoseProblemConfig {
                validity_samples: 0,
                ..PoseProblemConfig::default()
            },
        ] {
            assert!(matches!(
                PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg),
                Err(GaError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn memo_caches_exact_values() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let fresh = p.fitness_fn().evaluate(&pose, &dims);
        let first = p.fitness(&pose);
        let second = p.fitness(&pose);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        let (hits, misses) = p.memo().stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(p.memo().len(), 1);
    }

    #[test]
    fn memo_distinguishes_mutated_chromosomes() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            mutation_rate: 1.0,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let before = p.fitness(&pose);
        let mut mutated = pose;
        let mut rng = StdRng::seed_from_u64(11);
        p.mutate(&mut mutated, &mut rng);
        assert_ne!(mutated.to_genes(), pose.to_genes());
        // The mutated chromosome is a distinct key: its cached value is
        // exactly a fresh evaluation, not the parent's stale one.
        let after = p.fitness(&mutated);
        assert_eq!(after, p.fitness_fn().evaluate(&mutated, &dims));
        assert_eq!(p.fitness(&pose), before);
        assert_eq!(p.memo().len(), 2);
    }

    #[test]
    fn with_fitness_reuses_prepared_evaluator() {
        let (sil, dims, camera, pose) = setup();
        let base = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let rebuilt = PoseProblem::with_fitness(
            &sil,
            base.shared_fitness(),
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(Arc::ptr_eq(
            &base.shared_fitness(),
            &rebuilt.shared_fitness()
        ));
        assert_eq!(base.fitness(&pose), rebuilt.fitness(&pose));
        // The rebuilt problem still validates its own config.
        assert!(matches!(
            PoseProblem::with_fitness(
                &sil,
                base.shared_fitness(),
                &dims,
                &camera,
                InitStrategy::FullRange,
                PoseProblemConfig {
                    validity_samples: 0,
                    ..PoseProblemConfig::default()
                },
            ),
            Err(GaError::BadConfig { .. })
        ));
    }

    #[test]
    fn blank_silhouette_rejected() {
        let (_, dims, camera, pose) = setup();
        let blank = Mask::new(camera.width, camera.height);
        assert!(matches!(
            PoseProblem::new(
                &blank,
                &dims,
                &camera,
                temporal(pose),
                PoseProblemConfig::default()
            ),
            Err(GaError::EmptySilhouette)
        ));
    }
}
