//! Property-based tests for the GA crate: engine invariants under
//! arbitrary valid configurations, operator laws of the pose problem,
//! and fitness-function envelope properties.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slj_ga::engine::{evolve, GaConfig, Problem};
use slj_ga::fitness::SilhouetteFitness;
use slj_ga::pose_problem::{InitStrategy, PoseProblem, PoseProblemConfig, DEFAULT_DELTA_ANGLES};
use slj_motion::{BodyDims, Pose};
use slj_video::render::render_silhouette;
use slj_video::Camera;

/// A cheap convex toy problem for engine-law testing.
struct Sphere;

impl Problem for Sphere {
    type Genome = [f64; 4];
    fn fitness(&self, g: &[f64; 4]) -> f64 {
        g.iter().map(|v| v * v).sum()
    }
    fn random_genome(&self, rng: &mut StdRng) -> [f64; 4] {
        [(); 4].map(|_| rng.gen_range(-5.0..5.0))
    }
    fn crossover(&self, a: &[f64; 4], b: &[f64; 4], rng: &mut StdRng) -> ([f64; 4], [f64; 4]) {
        let mut c1 = *a;
        let mut c2 = *b;
        for i in 0..4 {
            if rng.gen_bool(0.5) {
                std::mem::swap(&mut c1[i], &mut c2[i]);
            }
        }
        (c1, c2)
    }
    fn mutate(&self, g: &mut [f64; 4], rng: &mut StdRng) {
        for v in g.iter_mut() {
            if rng.gen_bool(0.3) {
                *v += rng.gen_range(-0.3..0.3);
            }
        }
    }
}

/// Shared fixture: a standing silhouette at the compact resolution.
fn fixture() -> (slj_imgproc::mask::Mask, BodyDims, Camera, Pose) {
    let dims = BodyDims::default();
    let camera = Camera::compact();
    let mut pose = Pose::standing(&dims);
    pose.center.x = 0.6;
    let sil = render_silhouette(&pose, &dims, &camera);
    (sil, dims, camera, pose)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ---------- engine ----------

    #[test]
    fn engine_invariants_hold_for_any_valid_config(
        pop in 2usize..40,
        elite in 0.0f64..1.0,
        gens in 1usize..25,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let config = GaConfig {
            population_size: pop,
            elite_fraction: elite,
            max_generations: gens,
            patience: None,
            target_fitness: None,
            validity_retries: 10,
            threads,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let run = evolve(&Sphere, &config, &mut rng).unwrap();
        // History is monotone non-increasing, one entry per generation
        // plus the initial population.
        prop_assert_eq!(run.history.len(), run.generations_run + 1);
        for w in run.history.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
        prop_assert_eq!(*run.history.last().unwrap(), run.best_fitness);
        prop_assert!(run.generation_of_best <= run.generations_run);
        prop_assert_eq!(run.history[run.generation_of_best], run.best_fitness);
        prop_assert!(run.evaluations >= pop);
        // Helper metrics are consistent.
        prop_assert!(run.generations_to_near_best(0.1) <= run.generations_run);
        if let Some(g) = run.generations_to_fitness(run.best_fitness) {
            prop_assert_eq!(g, run.generation_of_best);
        }
    }

    #[test]
    fn engine_is_deterministic_in_the_seed(seed in any::<u64>()) {
        let config = GaConfig {
            population_size: 12,
            max_generations: 8,
            patience: None,
            ..GaConfig::default()
        };
        let a = evolve(&Sphere, &config, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = evolve(&Sphere, &config, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(a.best, b.best);
        prop_assert_eq!(a.history, b.history);
    }

    // ---------- pose operators ----------

    #[test]
    fn temporal_samples_are_valid_chromosomes(seed in any::<u64>()) {
        let (sil, dims, camera, pose) = fixture();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::Temporal {
                previous: pose,
                delta_center: 0.08,
                delta_angles: DEFAULT_DELTA_ANGLES,
            },
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let g = p.random_genome(&mut rng);
            // All genes finite, angles normalised (via Pose invariants).
            for v in g.to_genes() {
                prop_assert!(v.is_finite());
            }
            // Fitness is finite and non-negative for any sample.
            let f = p.fitness(&g);
            prop_assert!(f.is_finite() && f >= 0.0);
        }
    }

    #[test]
    fn crossover_children_keep_genes_from_parents(seed in any::<u64>()) {
        let (sil, dims, camera, _pose) = fixture();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = p.random_genome(&mut rng);
        let b = p.random_genome(&mut rng);
        let (c1, c2) = p.crossover(&a, &b, &mut rng);
        let (ga, gb) = (a.to_genes(), b.to_genes());
        let (g1, g2) = (c1.to_genes(), c2.to_genes());
        for i in 0..ga.len() {
            // Every child gene comes from one parent, and the pair is
            // conserved.
            prop_assert!(
                (g1[i] == ga[i] && g2[i] == gb[i]) || (g1[i] == gb[i] && g2[i] == ga[i]),
                "gene {i} invented a value"
            );
        }
    }

    // ---------- fitness ----------

    #[test]
    fn fitness_is_translation_sensitive(dx in 0.05f64..0.5) {
        let (sil, dims, camera, pose) = fixture();
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 2).unwrap();
        let base = fit.evaluate(&pose, &dims);
        let mut moved = pose;
        moved.center.x += dx;
        prop_assert!(fit.evaluate(&moved, &dims) > base, "shift {dx} undetected");
    }

    #[test]
    fn eq3_is_bounded_below_by_zero_and_scales(stride in 1usize..8) {
        let (sil, dims, camera, pose) = fixture();
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, stride).unwrap();
        let f = fit.evaluate_eq3(&pose, &dims);
        prop_assert!(f >= 0.0 && f.is_finite());
        prop_assert!(fit.sample_count() >= fit.total_points() / stride);
    }

    #[test]
    fn aabb_pruned_eq3_is_bit_identical_to_exhaustive(
        dx in -0.4f64..0.4,
        dy in -0.3f64..0.3,
        spin_seed in any::<u64>(),
        stride in 1usize..6,
    ) {
        // The branch-and-bound over the 8 sticks is an *exact*
        // optimisation: for any pose — centred, displaced, or scrambled
        // beyond anything the GA would sample — the pruned evaluation
        // must equal the exhaustive one to the last bit.
        let (sil, dims, camera, pose) = fixture();
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, stride).unwrap();
        let mut g = pose;
        g.center.x += dx;
        g.center.y += dy;
        let mut spin_rng = StdRng::seed_from_u64(spin_seed);
        for l in 0..g.angles.len() {
            g.angles[l] = g.angles[l] + spin_rng.gen_range(-170.0..170.0);
        }
        prop_assert_eq!(fit.evaluate_eq3(&g, &dims), fit.evaluate_eq3_unpruned(&g, &dims));
        prop_assert_eq!(fit.evaluate(&g, &dims), fit.evaluate_unpruned(&g, &dims));
    }

    #[test]
    fn memo_is_never_stale_under_mutation(seed in any::<u64>()) {
        // Mutating a chromosome changes its gene bits, so the memo must
        // treat it as a fresh key: the cached value for the parent stays
        // the parent's, and the mutant's value equals an uncached
        // evaluation. (A stale memo would poison the GA silently — the
        // engine calls `fitness` on every offspring.)
        let (sil, dims, camera, pose) = fixture();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::Temporal {
                previous: pose,
                delta_center: 0.08,
                delta_angles: DEFAULT_DELTA_ANGLES,
            },
            PoseProblemConfig {
                mutation_rate: 1.0,
                ..PoseProblemConfig::default()
            },
        )
        .unwrap();
        let reference = SilhouetteFitness::new(&sil, &dims, &camera, p.config().stride).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genome = p.random_genome(&mut rng);
        let mut parent_values = Vec::new();
        for _ in 0..6 {
            let value = p.fitness(&genome);
            prop_assert_eq!(value, reference.evaluate(&genome, &dims));
            // Re-query every chromosome seen so far: cached values must
            // still match a fresh evaluation of *those* genes.
            parent_values.push((genome, value));
            for (g, v) in &parent_values {
                prop_assert_eq!(p.fitness(g), *v);
            }
            p.mutate(&mut genome, &mut rng);
        }
    }

    // ---------- lane kernel / batched evaluation ----------

    #[test]
    fn lane_kernel_is_bit_identical_to_unpruned_reference(
        seed in any::<u64>(),
        stride in 1usize..7,
        height in 1.1f64..1.9,
        weight_pick in 0usize..3,
    ) {
        // Random dims + silhouette + stride (stride varies the tail:
        // point counts that are not a multiple of the lane width) and
        // all three outside-weight regimes, including the pure Eq. 3
        // term with the penalty disabled.
        let dims = BodyDims::for_height(height);
        let camera = Camera::compact();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sil_pose = Pose::standing(&dims);
        sil_pose.center.x = rng.gen_range(0.3..1.0);
        let sil = render_silhouette(&sil_pose, &dims, &camera);
        prop_assume!(sil.count() > 0);
        let weight = [0.0, 1.0, 0.35][weight_pick];
        let fitness =
            SilhouetteFitness::with_outside_weight(&sil, &dims, &camera, stride, weight).unwrap();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        let poses: Vec<Pose> = (0..9).map(|_| p.random_genome(&mut rng)).collect();
        let mut batch = vec![0.0f64; poses.len()];
        let mut scratch = slj_ga::fitness::BatchScratch::default();
        fitness.evaluate_batch(&poses, &dims, &mut batch, &mut scratch);
        for (pose, &batched) in poses.iter().zip(&batch) {
            let reference = fitness.evaluate_unpruned(pose, &dims);
            prop_assert_eq!(fitness.evaluate_lanes(pose, &dims).to_bits(), reference.to_bits());
            prop_assert_eq!(fitness.evaluate(pose, &dims).to_bits(), reference.to_bits());
            // The shared prune-hint walk across genomes never changes
            // the returned fitness.
            prop_assert_eq!(batched.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn batched_problem_fitness_matches_scalar_kernel(
        seed in any::<u64>(),
        split in 1usize..11,
    ) {
        // `PoseProblem::fitness_batch` must agree bitwise with the
        // unpruned scalar reference scan, regardless of memo hits,
        // in-batch duplicates, or how the population is split into
        // batches (thread-chunk independence).
        let (sil, dims, camera, _pose) = fixture();
        let problem = || {
            PoseProblem::new(
                &sil, &dims, &camera, InitStrategy::FullRange, PoseProblemConfig::default(),
            )
            .unwrap()
        };
        let whole_problem = problem();
        let split_problem = problem();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genomes: Vec<Pose> = (0..10).map(|_| whole_problem.random_genome(&mut rng)).collect();
        genomes.push(genomes[3]);
        genomes.push(genomes[3]);
        let mut whole = vec![0.0f64; genomes.len()];
        whole_problem.fitness_batch(&genomes, &mut whole);
        // A repeat of the same batch is answered from the memo.
        let mut repeat = vec![0.0f64; genomes.len()];
        whole_problem.fitness_batch(&genomes, &mut repeat);
        let mut chunked = vec![0.0f64; genomes.len()];
        for (gs, out) in genomes.chunks(split).zip(chunked.chunks_mut(split)) {
            split_problem.fitness_batch(gs, out);
        }
        let reference = whole_problem.fitness_fn();
        for (i, genome) in genomes.iter().enumerate() {
            let expected = reference.evaluate_unpruned(genome, &dims).to_bits();
            prop_assert_eq!(whole[i].to_bits(), expected);
            prop_assert_eq!(repeat[i].to_bits(), expected);
            prop_assert_eq!(chunked[i].to_bits(), expected);
        }
    }
}
