//! Perf — the cross-session serve throughput benchmark behind
//! `BENCH_serve.json`.
//!
//! Measures `slj-serve`'s session fan-out: how many frames per second
//! the supervised manager sustains as the session count grows. The
//! sweep runs {1, 4, 16, 64} concurrent sessions under three
//! parallelism policies (`Serial`, `Fixed(4)`, `Auto`); parallel ticks
//! run on the manager's persistent worker pool. The settled race of
//! that pool against per-tick thread spawning is recorded in
//! EXPERIMENTS.md, "Settled switches".
//!
//! Each cell drives every session through the standard synthetic clip
//! at supervision cadence — the manager ticks [`TICKS_PER_OFFER`]
//! times per offered frame, the way a deadline-checking supervisor
//! outpaces its producers — then closes, drains and retires every
//! session. Reported per cell: frames/sec over the whole lifecycle,
//! p50/p99 per-tick step latency during the streaming phase, and the
//! shed + deadline-miss counts (zero under this polite drive; the
//! columns exist so regressions surface in the JSON diff).
//!
//! **Identity first.** Before any clock starts, a 2-wave churn drive
//! (sessions retiring into the slot pool, successors adopting the
//! recycled slots) is raced across every parallelism policy, and all
//! three runs must produce byte-identical event streams, analyses,
//! per-session metrics and aggregate metrics; `identical: true` in the
//! JSON records the assertion ran.
//!
//! The JSON schema (`slj-perf-serve/2`) is documented in DESIGN.md §13.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p slj-bench --bin perf_serve            # full
//! cargo run --release -p slj-bench --bin perf_serve -- --quick # CI smoke
//! ```

use serde::Serialize;
use slj::prelude::*;
use slj_bench::{banner, f1, print_table};
use slj_ga::{GaConfig, PoseProblemConfig};
use slj_runtime::{available_threads, Parallelism};
use slj_serve::{
    DeadlineClock, EventKind, HealthEvent, OfferReply, ServeConfig, SessionConfig, SessionManager,
};
use std::time::Instant;

/// Master seed of the synthetic clip every session streams.
const SEED: u64 = 11;

/// Where the JSON baseline lands (repo root, next to ROADMAP.md).
const OUT_PATH: &str = "BENCH_serve.json";

/// Supervision cadence: manager ticks per offered frame. A deadline
/// supervisor ticks on its own clock, not the producers' — at ~2 kHz
/// supervision (sub-millisecond deadline enforcement) against ~30 fps
/// cameras that is ~64 ticks per frame interval, most of which find
/// every session idle. That idle-heavy regime is where worker
/// lifecycle overhead shows: the pool pays a parked-thread wakeup on
/// every one of those ticks.
const TICKS_PER_OFFER: usize = 64;

#[derive(Debug, Clone, Serialize)]
struct ClipInfo {
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
    scene: &'static str,
}

/// One (sessions × policy) cell, best of `repeats`.
#[derive(Debug, Clone, Serialize)]
struct CellReport {
    sessions: usize,
    /// `serial`, `fixed4` or `auto`.
    policy: &'static str,
    /// The effective worker count after `Parallelism::threads()`.
    threads: usize,
    /// Sessions × frames over the full lifecycle wall time.
    frames_per_sec: f64,
    elapsed_ms: f64,
    /// Median per-tick latency during the streaming phase.
    p50_step_ms: f64,
    /// 99th-percentile per-tick latency during the streaming phase.
    p99_step_ms: f64,
    /// Frames rejected with `OfferReply::Overloaded`.
    sheds: u64,
    /// `EventKind::DeadlineMiss` events across all sessions.
    deadline_misses: u64,
}

/// The whole benchmark: schema documented in DESIGN.md §13.
#[derive(Debug, Serialize)]
struct BenchReport {
    /// Schema identifier; bump on breaking change.
    schema: &'static str,
    /// `full` or `quick` (CI smoke: one repeat — timings are not
    /// comparable with `full`).
    mode: &'static str,
    clip: ClipInfo,
    /// Timed runs per cell; the best (minimum elapsed) is reported.
    repeats: usize,
    /// Host threads reported by `std::thread::available_parallelism`.
    host_threads: usize,
    /// Manager ticks per offered frame (supervision cadence).
    ticks_per_offer: usize,
    /// Every parallelism policy produced byte-identical events,
    /// analyses and metrics under the churn drive (asserted before
    /// timing).
    identical: bool,
    /// Policies raced in the identity check.
    identity_combos: usize,
    cells: Vec<CellReport>,
}

/// A deliberately small per-session analyzer budget: the bench
/// measures the *service* — fan-out, queueing, worker lifecycle — so
/// the per-frame analysis is kept light (same spirit as the
/// serve_churn_alloc test's micro config).
fn micro_config() -> AnalyzerConfig {
    let fast = AnalyzerConfig::fast();
    AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 20,
        },
        tracker: TrackerConfig {
            ga: GaConfig {
                population_size: 8,
                max_generations: 2,
                patience: Some(1),
                ..fast.tracker.ga
            },
            problem: PoseProblemConfig {
                stride: 10,
                ..fast.tracker.problem
            },
            ..fast.tracker
        },
        // A short warmup window keeps the per-session background
        // median cheap — the bench measures the service, and the
        // background cost is identical in every cell anyway.
        ..fast.into_streaming(8)
    }
}

fn serve_config(sessions: usize, parallelism: Parallelism, clip_frames: usize) -> ServeConfig {
    ServeConfig {
        max_sessions: sessions,
        queue_depth: 4,
        clock: DeadlineClock::Scripted,
        // Checkpoints clone live analyzer state; keep them out of the
        // measured loop so cells compare fan-out, not checkpoint
        // cadence.
        checkpoint_interval: clip_frames + 1,
        stall_ticks: 0,
        parallelism,
        ..ServeConfig::default()
    }
}

/// Everything a run produces that must be byte-identical across
/// parallelism policies.
struct RunArtifacts {
    events: Vec<HealthEvent>,
    results: Vec<Option<JumpAnalysis>>,
    metrics: Vec<String>,
    aggregate: String,
}

struct RunTiming {
    elapsed_ms: f64,
    /// Per-tick wall latencies during the streaming phase.
    step_ms: Vec<f64>,
    sheds: u64,
    deadline_misses: u64,
}

/// Drives `waves` successive waves of `per_wave` sessions through the
/// clip at supervision cadence and retires each wave into the slot
/// pool. One wave is the throughput shape; two waves exercise slot
/// recycling for the identity race.
fn run(
    config: ServeConfig,
    waves: usize,
    per_wave: usize,
    jump: &SyntheticJump,
    session: &SessionConfig,
) -> (RunTiming, RunArtifacts) {
    let mut manager = SessionManager::new(config);
    let mut events = Vec::new();
    let mut results = Vec::new();
    let mut metrics = Vec::new();
    let mut step_ms = Vec::new();
    let mut sheds = 0u64;

    let start = Instant::now();
    for _ in 0..waves {
        let ids: Vec<usize> = (0..per_wave)
            .map(|_| manager.open(session.clone()).expect("open session"))
            .collect();
        for frame in jump.video.iter() {
            for &id in &ids {
                match manager.offer(id, frame).expect("offer") {
                    OfferReply::Accepted { .. } => {}
                    OfferReply::Overloaded { .. } => sheds += 1,
                }
            }
            for _ in 0..TICKS_PER_OFFER {
                let t = Instant::now();
                manager.tick();
                step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        for &id in &ids {
            manager.close(id).expect("close");
        }
        manager.run_until_idle();
        manager.drain_events_into(&mut events);
        for &id in &ids {
            results.push(manager.take_result(id).and_then(Result::ok));
            metrics.push(manager.metrics(id).expect("metrics").render());
            manager.retire(id).expect("retire");
        }
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    let deadline_misses = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DeadlineMiss { .. }))
        .count() as u64;
    let aggregate = manager.aggregate_metrics().render();
    (
        RunTiming {
            elapsed_ms,
            step_ms,
            sheds,
            deadline_misses,
        },
        RunArtifacts {
            events,
            results,
            metrics,
            aggregate,
        },
    )
}

/// The parallelism policies every cell and the identity race cover.
const POLICIES: [(&str, Parallelism); 3] = [
    ("serial", Parallelism::Serial),
    ("fixed4", Parallelism::Fixed(4)),
    ("auto", Parallelism::Auto),
];

/// Races every parallelism policy through the 2-wave churn drive and
/// asserts byte-identical output. Returns the number of policies raced.
fn assert_identity(jump: &SyntheticJump, session: &SessionConfig) -> usize {
    const WAVES: usize = 2;
    const PER_WAVE: usize = 2;
    let drive = |parallelism| {
        let config = serve_config(PER_WAVE, parallelism, jump.video.len());
        run(config, WAVES, PER_WAVE, jump, session).1
    };
    let reference = drive(Parallelism::Serial);
    for (policy, parallelism) in &POLICIES[1..] {
        let artifacts = drive(*parallelism);
        assert_eq!(
            reference.events, artifacts.events,
            "{policy}: events diverged"
        );
        assert_eq!(
            reference.results, artifacts.results,
            "{policy}: analyses diverged"
        );
        assert_eq!(
            reference.metrics, artifacts.metrics,
            "{policy}: metrics diverged"
        );
        assert_eq!(
            reference.aggregate, artifacts.aggregate,
            "{policy}: aggregate metrics diverged"
        );
    }
    POLICIES.len()
}

/// `(p50, p99)` of per-tick latencies (nearest-rank on the sorted
/// sample; 0 for an empty sample).
fn percentiles(mut samples: Vec<f64>) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    samples.sort_by(f64::total_cmp);
    let rank = |q: f64| samples[((samples.len() as f64 * q).ceil() as usize).max(1) - 1];
    (rank(0.50), rank(0.99))
}

fn time_cell(
    sessions: usize,
    policy: &'static str,
    parallelism: Parallelism,
    repeats: usize,
    jump: &SyntheticJump,
    session: &SessionConfig,
) -> CellReport {
    let mut best: Option<RunTiming> = None;
    for _ in 0..repeats {
        let (timing, _) = run(
            serve_config(sessions, parallelism, jump.video.len()),
            1,
            sessions,
            jump,
            session,
        );
        if best
            .as_ref()
            .is_none_or(|b| timing.elapsed_ms < b.elapsed_ms)
        {
            best = Some(timing);
        }
    }
    let best = best.expect("repeats >= 1");
    let (p50, p99) = percentiles(best.step_ms.clone());
    CellReport {
        sessions,
        policy,
        threads: parallelism.threads(),
        frames_per_sec: (sessions * jump.video.len()) as f64 / (best.elapsed_ms / 1e3),
        elapsed_ms: best.elapsed_ms,
        p50_step_ms: p50,
        p99_step_ms: p99,
        sheds: best.sheds,
        deadline_misses: best.deadline_misses,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (mode, repeats, session_sweep): (_, _, &[usize]) = if quick {
        ("quick", 1, &[1, 4, 16])
    } else {
        ("full", 3, &[1, 4, 16, 64])
    };

    banner(
        "Perf serve",
        "cross-session throughput across parallelism policies",
        SEED,
    );
    println!(
        "   mode {mode}, {repeats} repeat(s), supervision cadence {TICKS_PER_OFFER} \
         tick(s)/frame, host threads {}\n",
        available_threads()
    );

    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), SEED);
    let session = SessionConfig {
        analyzer: micro_config(),
        camera: scene.camera,
        first_pose: jump.poses.poses()[0],
        fps: jump.video.fps(),
    };
    let clip = ClipInfo {
        width: jump.video.dims().0,
        height: jump.video.dims().1,
        frames: jump.video.len(),
        seed: SEED,
        scene: "compact-clean",
    };

    // Correctness before clocks: the fan-out must be invisible to
    // outputs.
    let identity_combos = assert_identity(&jump, &session);
    println!("   identity: {identity_combos} parallelism policies byte-identical\n");

    let mut cells = Vec::new();
    for &sessions in session_sweep {
        for (policy, parallelism) in POLICIES {
            cells.push(time_cell(
                sessions,
                policy,
                parallelism,
                repeats,
                &jump,
                &session,
            ));
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.sessions.to_string(),
                c.policy.to_owned(),
                c.threads.to_string(),
                format!("{:.0}", c.frames_per_sec),
                f1(c.elapsed_ms),
                format!("{:.3}", c.p50_step_ms),
                format!("{:.3}", c.p99_step_ms),
                c.sheds.to_string(),
                c.deadline_misses.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "sessions",
            "policy",
            "threads",
            "frames/s",
            "elapsed ms",
            "p50 ms",
            "p99 ms",
            "sheds",
            "misses",
        ],
        &rows,
    );

    let report = BenchReport {
        schema: "slj-perf-serve/2",
        mode,
        clip,
        repeats,
        host_threads: available_threads(),
        ticks_per_offer: TICKS_PER_OFFER,
        identical: true,
        identity_combos,
        cells,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise");
    std::fs::write(OUT_PATH, json + "\n").expect("write BENCH_serve.json");
    println!("\nwrote {OUT_PATH}");
}
