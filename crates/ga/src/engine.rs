//! A generic minimising genetic algorithm with elitism.
//!
//! The paper's evolution strategy: *"the elitism is used. Meaning, in
//! each generation, only the fittest chromosomes can be left and they
//! have a higher probability to be picked for generating the next
//! generation. Crossover and mutation are applied to two selected
//! chromosomes to generate new chromosomes."*
//!
//! The engine owns population management, rank-biased parent selection,
//! elitism, validity retries and termination; the [`Problem`] owns the
//! domain: genome sampling, crossover, mutation and validity. Fitness is
//! **minimised** (Eq. 3's `F_S` is a cost: "the smaller the FS is, the
//! better the stick model fits the silhouette").
//!
//! Fitness evaluation can optionally fan out over scoped threads
//! ([`slj_runtime::for_each_chunk`]); evaluation is pure, so
//! parallelism never changes results —
//! all stochastic choices draw from the caller's seeded RNG on one
//! thread.

use crate::error::GaError;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A GA problem definition: the engine is generic over this.
pub trait Problem: Sync {
    /// The chromosome type.
    type Genome: Clone + Send + Sync;

    /// Cost of a genome; **lower is better**. Must be finite for valid
    /// genomes.
    fn fitness(&self, genome: &Self::Genome) -> f64;

    /// Evaluates a slice of genomes into `out` (same length). The
    /// default delegates to [`Problem::fitness`] one genome at a time;
    /// implementations may override it to amortise shared work across
    /// the batch (deduplication, shared frame walks), but **must**
    /// write exactly the value `fitness` would return for each genome —
    /// the engine calls this per worker chunk, so any batch-shape
    /// dependence would break thread-count determinism.
    fn fitness_batch(&self, genomes: &[Self::Genome], out: &mut [f64]) {
        for (genome, slot) in genomes.iter().zip(out.iter_mut()) {
            *slot = self.fitness(genome);
        }
    }

    /// Samples a fresh genome from the problem's initial distribution.
    fn random_genome(&self, rng: &mut StdRng) -> Self::Genome;

    /// Produces two children from two parents.
    fn crossover(
        &self,
        a: &Self::Genome,
        b: &Self::Genome,
        rng: &mut StdRng,
    ) -> (Self::Genome, Self::Genome);

    /// Mutates a genome in place.
    fn mutate(&self, genome: &mut Self::Genome, rng: &mut StdRng);

    /// Whether a genome satisfies the problem's hard constraints
    /// (the paper removes chromosomes "not in the boundary of the
    /// silhouette"). Default: everything is valid.
    fn is_valid(&self, _genome: &Self::Genome) -> bool {
        true
    }

    /// Genomes that must be injected into the initial population (the
    /// tracker injects the previous frame's best). Default: none.
    fn seeds(&self) -> Vec<Self::Genome> {
        Vec::new()
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Number of chromosomes per generation.
    pub population_size: usize,
    /// Fraction of the population carried over unchanged (elitism).
    pub elite_fraction: f64,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// Stop early after this many generations without improvement.
    pub patience: Option<usize>,
    /// Stop early once best fitness is at or below this value.
    pub target_fitness: Option<f64>,
    /// Attempts per slot when sampling valid genomes (initialisation and
    /// offspring repair).
    pub validity_retries: usize,
    /// Evaluate fitness on this many scoped threads (1 = serial).
    pub threads: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population_size: 100,
            elite_fraction: 0.10,
            max_generations: 60,
            patience: Some(15),
            target_fitness: None,
            validity_retries: 30,
            threads: 1,
        }
    }
}

impl GaConfig {
    fn validate(&self) -> Result<(), GaError> {
        if self.population_size < 2 {
            return Err(GaError::BadConfig {
                what: "population_size must be at least 2",
            });
        }
        if !(0.0..=1.0).contains(&self.elite_fraction) {
            return Err(GaError::BadConfig {
                what: "elite_fraction must be in [0, 1]",
            });
        }
        if self.max_generations == 0 {
            return Err(GaError::BadConfig {
                what: "max_generations must be positive",
            });
        }
        if self.threads == 0 {
            return Err(GaError::BadConfig {
                what: "threads must be positive",
            });
        }
        Ok(())
    }

    fn elite_count(&self) -> usize {
        ((self.population_size as f64 * self.elite_fraction).round() as usize)
            .clamp(1, self.population_size)
    }
}

/// The outcome of one GA run.
#[derive(Debug, Clone)]
pub struct GaRun<G> {
    /// The fittest genome found.
    pub best: G,
    /// Its fitness (cost).
    pub best_fitness: f64,
    /// Best fitness after each generation (index 0 = after
    /// initialisation).
    pub history: Vec<f64>,
    /// The generation at which the final best first appeared
    /// (0 = already in the initial population — the paper's Fig. 7
    /// reports "generated at the second generation").
    pub generation_of_best: usize,
    /// Generations actually run (≤ `max_generations`).
    pub generations_run: usize,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
}

impl<G> GaRun<G> {
    /// The first generation whose best fitness was within
    /// `(1 + tolerance)` of the final best (0 = already in the initial
    /// population). One quantification of "how fast did the GA reach a
    /// good model"; see also [`GaRun::generations_to_fitness`], which
    /// measures against an absolute quality bar — the metric behind the
    /// paper's "the shown best estimated model was generated at the
    /// second generation".
    pub fn generations_to_near_best(&self, tolerance: f64) -> usize {
        let target = self.best_fitness * (1.0 + tolerance.max(0.0));
        self.history
            .iter()
            .position(|&f| f <= target)
            .unwrap_or(self.history.len().saturating_sub(1))
    }

    /// The first generation whose best fitness was at or below an
    /// absolute threshold, or `None` if the run never got there.
    /// Experiments use the ground-truth pose's own fitness (plus slack)
    /// as the threshold: "when did the GA have a model as good as the
    /// truth?"
    pub fn generations_to_fitness(&self, threshold: f64) -> Option<usize> {
        self.history.iter().position(|&f| f <= threshold)
    }
}

struct Individual<G> {
    genome: G,
    fitness: f64,
}

/// A worker thread only pays for its spawn/join overhead when it gets
/// at least this many genomes; smaller batches evaluate serially.
/// (This threshold used to be an inline `2 * threads` comparison that
/// silently dropped small batches to serial — now it is named, and the
/// spawned thread count is additionally capped at the batch size so a
/// `threads > population` configuration can never spawn idle workers.)
pub const MIN_GENOMES_PER_THREAD: usize = 2;

/// Evaluates fitness for a batch, optionally in parallel.
///
/// Evaluation is pure, so the parallel path is bit-identical to the
/// serial one (asserted by `parallel_matches_serial` and the boundary
/// tests below).
fn evaluate_batch<P: Problem>(
    problem: &P,
    genomes: Vec<P::Genome>,
    threads: usize,
) -> Vec<Individual<P::Genome>> {
    let n = genomes.len();
    let threads = if n < MIN_GENOMES_PER_THREAD * threads.min(n) {
        1
    } else {
        threads
    };
    let mut fitnesses = vec![0.0f64; n];
    slj_runtime::for_each_chunk(threads, &mut fitnesses, |offset, fs| {
        problem.fitness_batch(&genomes[offset..offset + fs.len()], fs);
    });
    genomes
        .into_iter()
        .zip(fitnesses)
        .map(|(genome, fitness)| Individual { genome, fitness })
        .collect()
}

/// Rank-biased parent index: squaring the uniform variate biases the
/// draw toward rank 0 (the fittest) while leaving everyone reachable.
fn pick_rank_biased(rng: &mut StdRng, len: usize) -> usize {
    let u: f64 = rng.gen();
    ((u * u * len as f64) as usize).min(len - 1)
}

/// Runs the GA to completion.
///
/// # Errors
///
/// * [`GaError::BadConfig`] for out-of-range configuration.
/// * [`GaError::InitFailed`] when no valid initial population can be
///   sampled within the retry budget.
pub fn evolve<P: Problem>(
    problem: &P,
    config: &GaConfig,
    rng: &mut StdRng,
) -> Result<GaRun<P::Genome>, GaError> {
    config.validate()?;
    let pop_size = config.population_size;

    // ---- Initial population: injected seeds + valid random samples.
    let mut genomes: Vec<P::Genome> = Vec::with_capacity(pop_size);
    for seed in problem.seeds() {
        if genomes.len() < pop_size {
            genomes.push(seed);
        }
    }
    let mut attempts = 0usize;
    let budget = config.validity_retries.max(1) * pop_size;
    while genomes.len() < pop_size {
        if attempts >= budget {
            return Err(GaError::InitFailed { attempts });
        }
        attempts += 1;
        let g = problem.random_genome(rng);
        if problem.is_valid(&g) {
            genomes.push(g);
        }
    }

    let mut evaluations = genomes.len();
    let mut population = evaluate_batch(problem, genomes, config.threads);
    population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

    let mut best = population[0].genome.clone();
    let mut best_fitness = population[0].fitness;
    let mut generation_of_best = 0usize;
    let mut history = vec![best_fitness];
    let mut stale = 0usize;
    let mut generations_run = 0usize;

    for generation in 1..=config.max_generations {
        if let Some(target) = config.target_fitness {
            if best_fitness <= target {
                break;
            }
        }
        if let Some(p) = config.patience {
            if stale >= p {
                break;
            }
        }
        generations_run = generation;

        // ---- Elites survive unchanged.
        let elite_count = config.elite_count();
        let mut next_genomes: Vec<P::Genome> = population[..elite_count]
            .iter()
            .map(|i| i.genome.clone())
            .collect();

        // ---- Offspring from rank-biased parents.
        while next_genomes.len() < pop_size {
            let pa = pick_rank_biased(rng, population.len());
            let pb = pick_rank_biased(rng, population.len());
            let (mut c1, mut c2) =
                problem.crossover(&population[pa].genome, &population[pb].genome, rng);
            problem.mutate(&mut c1, rng);
            problem.mutate(&mut c2, rng);
            for child in [c1, c2] {
                if next_genomes.len() >= pop_size {
                    break;
                }
                if problem.is_valid(&child) {
                    next_genomes.push(child);
                } else {
                    // Repair budget: resample fresh valid genomes, else
                    // fall back to the parent.
                    let mut placed = false;
                    for _ in 0..config.validity_retries {
                        let g = problem.random_genome(rng);
                        if problem.is_valid(&g) {
                            next_genomes.push(g);
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        next_genomes.push(population[pa].genome.clone());
                    }
                }
            }
        }

        evaluations += next_genomes.len();
        population = evaluate_batch(problem, next_genomes, config.threads);
        population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

        if population[0].fitness < best_fitness {
            best_fitness = population[0].fitness;
            best = population[0].genome.clone();
            generation_of_best = generation;
            stale = 0;
        } else {
            stale += 1;
        }
        history.push(best_fitness);
    }

    Ok(GaRun {
        best,
        best_fitness,
        history,
        generation_of_best,
        generations_run,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A toy problem: minimise the squared distance of a 3-vector to a
    /// target, searching in [-10, 10]^3.
    struct Sphere {
        target: [f64; 3],
    }

    impl Problem for Sphere {
        type Genome = [f64; 3];

        fn fitness(&self, g: &[f64; 3]) -> f64 {
            g.iter()
                .zip(self.target.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }

        fn random_genome(&self, rng: &mut StdRng) -> [f64; 3] {
            [(); 3].map(|_| rng.gen_range(-10.0..10.0))
        }

        fn crossover(&self, a: &[f64; 3], b: &[f64; 3], rng: &mut StdRng) -> ([f64; 3], [f64; 3]) {
            let mut c1 = *a;
            let mut c2 = *b;
            for i in 0..3 {
                if rng.gen_bool(0.5) {
                    std::mem::swap(&mut c1[i], &mut c2[i]);
                }
            }
            (c1, c2)
        }

        fn mutate(&self, g: &mut [f64; 3], rng: &mut StdRng) {
            for v in g.iter_mut() {
                if rng.gen_bool(0.2) {
                    *v += rng.gen_range(-0.5..0.5);
                }
            }
        }
    }

    /// A problem whose validity constraint rejects half the space.
    struct ConstrainedSphere(Sphere);

    impl Problem for ConstrainedSphere {
        type Genome = [f64; 3];
        fn fitness(&self, g: &[f64; 3]) -> f64 {
            self.0.fitness(g)
        }
        fn random_genome(&self, rng: &mut StdRng) -> [f64; 3] {
            self.0.random_genome(rng)
        }
        fn crossover(&self, a: &[f64; 3], b: &[f64; 3], rng: &mut StdRng) -> ([f64; 3], [f64; 3]) {
            self.0.crossover(a, b, rng)
        }
        fn mutate(&self, g: &mut [f64; 3], rng: &mut StdRng) {
            self.0.mutate(g, rng)
        }
        fn is_valid(&self, g: &[f64; 3]) -> bool {
            g[0] >= 0.0
        }
    }

    /// Validity that rejects everything — initialisation must fail.
    struct Impossible(Sphere);

    impl Problem for Impossible {
        type Genome = [f64; 3];
        fn fitness(&self, g: &[f64; 3]) -> f64 {
            self.0.fitness(g)
        }
        fn random_genome(&self, rng: &mut StdRng) -> [f64; 3] {
            self.0.random_genome(rng)
        }
        fn crossover(&self, a: &[f64; 3], b: &[f64; 3], rng: &mut StdRng) -> ([f64; 3], [f64; 3]) {
            self.0.crossover(a, b, rng)
        }
        fn mutate(&self, g: &mut [f64; 3], rng: &mut StdRng) {
            self.0.mutate(g, rng)
        }
        fn is_valid(&self, _: &[f64; 3]) -> bool {
            false
        }
    }

    fn cfg() -> GaConfig {
        GaConfig {
            population_size: 60,
            max_generations: 80,
            patience: None,
            ..GaConfig::default()
        }
    }

    #[test]
    fn converges_on_sphere() {
        let problem = Sphere {
            target: [3.0, -2.0, 7.5],
        };
        let mut rng = StdRng::seed_from_u64(1);
        let run = evolve(&problem, &cfg(), &mut rng).unwrap();
        assert!(run.best_fitness < 0.5, "fitness {}", run.best_fitness);
        for (g, t) in run.best.iter().zip(problem.target.iter()) {
            assert!((g - t).abs() < 0.7, "{g} vs {t}");
        }
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let problem = Sphere {
            target: [1.0, 2.0, 3.0],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let run = evolve(&problem, &cfg(), &mut rng).unwrap();
        for w in run.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert_eq!(run.history.len(), run.generations_run + 1);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let problem = Sphere {
            target: [0.0, 0.0, 0.0],
        };
        let a = evolve(&problem, &cfg(), &mut StdRng::seed_from_u64(7)).unwrap();
        let b = evolve(&problem, &cfg(), &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_matches_serial() {
        let problem = Sphere {
            target: [4.0, 4.0, 4.0],
        };
        let serial = evolve(&problem, &cfg(), &mut StdRng::seed_from_u64(3)).unwrap();
        let par_cfg = GaConfig {
            threads: 4,
            ..cfg()
        };
        let parallel = evolve(&problem, &par_cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(serial.best, parallel.best);
        assert_eq!(serial.history, parallel.history);
    }

    #[test]
    fn thread_counts_at_and_beyond_population_match_serial() {
        // Boundary cases of the batch threshold: as many threads as
        // genomes, and far more threads than genomes. Both must produce
        // exactly the serial result (and not panic spawning idle
        // workers).
        let problem = Sphere {
            target: [2.0, -1.0, 0.5],
        };
        let small = GaConfig {
            population_size: 8,
            max_generations: 12,
            patience: None,
            ..GaConfig::default()
        };
        let serial = evolve(&problem, &small, &mut StdRng::seed_from_u64(21)).unwrap();
        for threads in [8, 9, 64] {
            let cfg = GaConfig { threads, ..small };
            let run = evolve(&problem, &cfg, &mut StdRng::seed_from_u64(21)).unwrap();
            assert_eq!(serial.best, run.best, "threads = {threads}");
            assert_eq!(serial.history, run.history, "threads = {threads}");
        }
    }

    #[test]
    fn batch_threshold_boundary_matches_serial() {
        // population == MIN_GENOMES_PER_THREAD * threads sits exactly on
        // the parallel side of the threshold; one genome fewer falls to
        // serial. Both sides must agree with the single-thread run.
        let problem = Sphere {
            target: [0.5, 0.5, 0.5],
        };
        let threads = 3;
        for population_size in [
            MIN_GENOMES_PER_THREAD * threads,
            MIN_GENOMES_PER_THREAD * threads - 1,
        ] {
            let base = GaConfig {
                population_size,
                max_generations: 10,
                patience: None,
                ..GaConfig::default()
            };
            let serial = evolve(&problem, &base, &mut StdRng::seed_from_u64(22)).unwrap();
            let cfg = GaConfig { threads, ..base };
            let run = evolve(&problem, &cfg, &mut StdRng::seed_from_u64(22)).unwrap();
            assert_eq!(serial.best, run.best, "population = {population_size}");
            assert_eq!(
                serial.history, run.history,
                "population = {population_size}"
            );
        }
    }

    #[test]
    fn validity_constraint_is_respected() {
        let problem = ConstrainedSphere(Sphere {
            // Target in the *invalid* half: best valid answer has
            // x = 0.
            target: [-5.0, 1.0, 1.0],
        });
        let mut rng = StdRng::seed_from_u64(4);
        let run = evolve(&problem, &cfg(), &mut rng).unwrap();
        assert!(run.best[0] >= 0.0, "invalid best {:?}", run.best);
        assert!(run.best[0] < 1.0, "should press against the boundary");
    }

    #[test]
    fn impossible_constraints_fail_init() {
        let problem = Impossible(Sphere { target: [0.0; 3] });
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            evolve(&problem, &cfg(), &mut rng),
            Err(GaError::InitFailed { .. })
        ));
    }

    #[test]
    fn target_fitness_stops_early() {
        let problem = Sphere {
            target: [0.0, 0.0, 0.0],
        };
        let config = GaConfig {
            target_fitness: Some(10.0),
            ..cfg()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let run = evolve(&problem, &config, &mut rng).unwrap();
        assert!(run.generations_run < 80);
        assert!(run.best_fitness <= 10.0 || run.generations_run == 0);
    }

    #[test]
    fn patience_stops_stagnation() {
        let problem = Sphere {
            target: [0.0, 0.0, 0.0],
        };
        let config = GaConfig {
            patience: Some(3),
            max_generations: 1000,
            ..cfg()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let run = evolve(&problem, &config, &mut rng).unwrap();
        assert!(run.generations_run < 1000);
    }

    #[test]
    fn seeds_are_injected_and_win_if_best() {
        struct Seeded(Sphere);
        impl Problem for Seeded {
            type Genome = [f64; 3];
            fn fitness(&self, g: &[f64; 3]) -> f64 {
                self.0.fitness(g)
            }
            fn random_genome(&self, rng: &mut StdRng) -> [f64; 3] {
                self.0.random_genome(rng)
            }
            fn crossover(
                &self,
                a: &[f64; 3],
                b: &[f64; 3],
                rng: &mut StdRng,
            ) -> ([f64; 3], [f64; 3]) {
                self.0.crossover(a, b, rng)
            }
            fn mutate(&self, g: &mut [f64; 3], rng: &mut StdRng) {
                self.0.mutate(g, rng)
            }
            fn seeds(&self) -> Vec<[f64; 3]> {
                vec![self.0.target] // the exact optimum
            }
        }
        let problem = Seeded(Sphere {
            target: [2.0, -3.0, 1.0],
        });
        let config = GaConfig {
            max_generations: 3,
            ..cfg()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let run = evolve(&problem, &config, &mut rng).unwrap();
        assert_eq!(run.best_fitness, 0.0);
        assert_eq!(run.generation_of_best, 0);
    }

    #[test]
    fn bad_configs_rejected() {
        let problem = Sphere { target: [0.0; 3] };
        let mut rng = StdRng::seed_from_u64(9);
        for bad in [
            GaConfig {
                population_size: 1,
                ..cfg()
            },
            GaConfig {
                elite_fraction: 1.5,
                ..cfg()
            },
            GaConfig {
                max_generations: 0,
                ..cfg()
            },
            GaConfig {
                threads: 0,
                ..cfg()
            },
        ] {
            assert!(matches!(
                evolve(&problem, &bad, &mut rng),
                Err(GaError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn generation_of_best_is_consistent_with_history() {
        let problem = Sphere {
            target: [1.0, 1.0, 1.0],
        };
        let mut rng = StdRng::seed_from_u64(10);
        let run = evolve(&problem, &cfg(), &mut rng).unwrap();
        // History at generation_of_best equals the final best fitness.
        assert_eq!(run.history[run.generation_of_best], run.best_fitness);
        if run.generation_of_best > 0 {
            assert!(run.history[run.generation_of_best - 1] > run.best_fitness);
        }
    }

    #[test]
    fn rank_bias_prefers_low_indices() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[pick_rank_biased(&mut rng, 10)] += 1;
        }
        assert!(counts[0] > counts[9] * 2, "counts {counts:?}");
        assert!(counts[9] > 0, "everyone must stay reachable");
    }

    #[test]
    fn evaluations_are_counted() {
        let problem = Sphere { target: [0.0; 3] };
        let config = GaConfig {
            population_size: 10,
            max_generations: 5,
            patience: None,
            ..GaConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let run = evolve(&problem, &config, &mut rng).unwrap();
        assert_eq!(run.evaluations, 10 * (run.generations_run + 1));
    }
}
