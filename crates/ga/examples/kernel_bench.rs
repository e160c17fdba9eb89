//! Quick microbenchmark: the Eq. 3 scans of `SilhouetteFitness` raced
//! head to head (unpruned reference, pruned scalar, lane kernel single
//! and batched), then the production tracker on a synthetic jump.
//!
//! ```sh
//! cargo run --release -p slj-ga --example kernel_bench
//! TRACK_ONLY=1 TRACK_ITERS=8 cargo run --release -p slj-ga --example kernel_bench
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use slj_ga::engine::Problem;
use slj_ga::fitness::{BatchScratch, SilhouetteFitness};
use slj_ga::pose_problem::{InitStrategy, PoseProblem, PoseProblemConfig};
use slj_motion::{BodyDims, Pose};
use slj_video::render::render_silhouette;
use slj_video::Camera;
use std::time::Instant;

fn main() {
    let track_only = std::env::var_os("TRACK_ONLY").is_some();
    let dims = BodyDims::default();
    let camera = Camera::default();
    let mut pose = Pose::standing(&dims);
    pose.center.x = 0.6;
    let sil = render_silhouette(&pose, &dims, &camera);
    let fit = SilhouetteFitness::new(&sil, &dims, &camera, 2).unwrap();
    println!(
        "silhouette: {} fg px, {} sampled points",
        sil.count(),
        fit.sample_count()
    );
    let problem = PoseProblem::new(
        &sil,
        &dims,
        &camera,
        InitStrategy::Temporal {
            previous: pose,
            delta_center: 0.08,
            delta_angles: slj_ga::pose_problem::DEFAULT_DELTA_ANGLES,
        },
        PoseProblemConfig::default(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let poses: Vec<Pose> = (0..64).map(|_| problem.random_genome(&mut rng)).collect();

    // Interleaved rounds with min-aggregation: host load shifts hit all
    // contestants roughly equally, and the per-round minimum is robust
    // to transient stalls.
    let rounds = if track_only { 0 } else { 10 };
    let reps_per_round = 20;
    // unpruned, scalar pruned, lanes single, lanes batch
    let mut best = [f64::INFINITY; 4];
    let mut acc = [0.0f64; 4];
    let mut out = vec![0.0f64; poses.len()];
    let mut scratch = BatchScratch::default();
    for _ in 0..rounds {
        let single: [fn(&SilhouetteFitness, &Pose, &BodyDims) -> f64; 3] = [
            SilhouetteFitness::evaluate_unpruned,
            SilhouetteFitness::evaluate,
            SilhouetteFitness::evaluate_lanes,
        ];
        for (i, evaluate) in single.into_iter().enumerate() {
            let t = Instant::now();
            for _ in 0..reps_per_round {
                for p in &poses {
                    acc[i] += evaluate(&fit, p, &dims);
                }
            }
            best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        for _ in 0..reps_per_round {
            fit.evaluate_batch(&poses, &dims, &mut out, &mut scratch);
            for &v in &out {
                acc[3] += v;
            }
        }
        best[3] = best[3].min(t.elapsed().as_secs_f64() * 1e3);
    }
    if !track_only {
        assert_eq!(acc[0], acc[1], "pruned != unpruned");
        assert_eq!(acc[0], acc[2], "lanes != unpruned");
        assert_eq!(acc[0], acc[3], "batch != unpruned");
        let [unpruned_ms, scalar_ms, lanes_ms, batch_ms] = best;
        println!(
            "unpruned:       {unpruned_ms:8.1} ms/round  (acc {:.3})",
            acc[0]
        );
        println!("scalar pruned:  {scalar_ms:8.1} ms/round");
        println!("lanes single:   {lanes_ms:8.1} ms/round");
        println!("lanes batch:    {batch_ms:8.1} ms/round");
        println!(
            "speedup vs unpruned: pruned {:.2}x, single {:.2}x, batch {:.2}x",
            unpruned_ms / scalar_ms,
            unpruned_ms / lanes_ms,
            unpruned_ms / batch_ms
        );
    }
    let reps = if track_only { 0 } else { 200 };

    let t = Instant::now();
    let mut valid = 0usize;
    for _ in 0..reps {
        for p in &poses {
            valid += problem.is_valid(p) as usize;
        }
    }
    let valid_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "is_valid:       {valid_ms:8.1} ms  ({valid} valid, {:.2} us/call)",
        valid_ms * 1e3 / (reps * poses.len()) as f64
    );

    let t = Instant::now();
    let mut n = 0usize;
    for _ in 0..reps {
        for p in &poses {
            n += problem.random_genome(&mut rng).center.x.is_finite() as usize;
            std::hint::black_box(p);
        }
    }
    println!(
        "random_genome:  {:8.1} ms  ({n} finite)",
        t.elapsed().as_secs_f64() * 1e3
    );

    let mut out = vec![0.0f64; poses.len()];
    problem.fitness_batch(&poses, &mut out); // warm the memo
    let t = Instant::now();
    for _ in 0..reps {
        problem.fitness_batch(&poses, &mut out);
    }
    let hit_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "memo all-hit:   {hit_ms:8.1} ms  ({:.1} ns/lookup)",
        hit_ms * 1e6 / (reps * poses.len()) as f64
    );

    let t = Instant::now();
    for _ in 0..20 {
        std::hint::black_box(SilhouetteFitness::new(&sil, &dims, &camera, 2).unwrap());
    }
    println!(
        "fitness setup:  {:8.1} ms (20 frames incl. distance field)",
        t.elapsed().as_secs_f64() * 1e3
    );

    // A realistic tracking workload: the synthetic jump's true
    // silhouettes, temporal GA per frame.
    use slj_ga::{TemporalTracker, TrackerConfig};
    use slj_motion::JumpConfig;
    use slj_video::{SceneConfig, SyntheticJump};
    let scene = SceneConfig::default();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 5);
    let silhouettes: Vec<_> = jump
        .poses
        .poses()
        .iter()
        .map(|p| render_silhouette(p, &dims, &scene.camera))
        .collect();
    let first = jump.poses.poses()[0];
    if track_only {
        let tracker = TemporalTracker::new(TrackerConfig::default());
        let t = Instant::now();
        let iters: usize = std::env::var("TRACK_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        for _ in 0..iters {
            std::hint::black_box(
                tracker
                    .track(&silhouettes, first, &dims, &scene.camera)
                    .unwrap(),
            );
        }
        println!("track x{iters}: {:8.1} ms", t.elapsed().as_secs_f64() * 1e3);
        return;
    }
    for (label, cheap_valid) in [("default ", false), ("cheapval", true)] {
        let mut cfg = TrackerConfig::default();
        if cheap_valid {
            cfg.problem.validity_samples = 1;
        }
        let tracker = TemporalTracker::new(cfg);
        let t = Instant::now();
        let run = tracker
            .track(&silhouettes, first, &dims, &scene.camera)
            .unwrap();
        println!(
            "track {label}: {:8.1} ms, {} eval slots",
            t.elapsed().as_secs_f64() * 1e3,
            run.total_evaluations()
        );
    }
}
