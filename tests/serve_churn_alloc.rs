//! Session-churn allocation regression test: steady-state session
//! turnover (open → stream a clip → finish → retire → open the next
//! into the recycled slot) performs **zero large allocations** — frame buffers, arenas, background scratch and
//! GA state all come back out of the retired slot.
//!
//! "Large" is a size threshold, not a count of every allocation: small
//! bookkeeping (result vectors, map nodes, event payloads) is allowed
//! and bounded, while anything frame-sized or bigger must be recycled.
//!
//! The counter is process-global, so every test holds [`SERIAL`] from
//! its first allocation to its last assertion: a sibling test's
//! warm-up can never land inside another test's measured window,
//! whatever `--test-threads` is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use slj::prelude::*;
use slj_ga::{GaConfig, PoseProblemConfig};
use slj_serve::{
    DeadlineClock, HealthEvent, OfferReply, ServeConfig, SessionConfig, SessionManager,
};

/// Allocations at or above this many bytes count as "large" — the
/// frame-buffer / arena / scratch tier the slot pool exists to recycle.
/// The smallest full-frame plane at the test's 160x120 resolution is a
/// u8 plane (19 200 B); per-clip *result* vectors (poses, tracking,
/// quality — storage that leaves the session inside the returned
/// `JumpAnalysis` and so cannot be recycled) stay below ~8 KiB at this
/// clip length, so 16 KiB cleanly splits the two tiers.
const LARGE: usize = 16 * 1024;

/// System allocator plus a global count of large allocations.
struct CountingAllocator;

static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Ring of the most recent large-allocation sizes, for the failure
/// message (fixed-size: the allocator must not allocate).
static RECENT_SIZES: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// How many large allocations may still print a backtrace (set from
/// `CHURN_TRACE` once steady state begins; symbolisation is slow, so
/// the budget stays small).
static TRACE_BUDGET: AtomicUsize = AtomicUsize::new(0);

fn note_large(size: usize) {
    let n = LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    RECENT_SIZES[n % RECENT_SIZES.len()].store(size, Ordering::Relaxed);
    if TRACE_BUDGET
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
            left.checked_sub(1)
        })
        .is_ok()
    {
        std::thread_local! {
            static IN_TRACE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        IN_TRACE.with(|flag| {
            if !flag.get() {
                flag.set(true);
                eprintln!(
                    "LARGE ALLOC {size}:\n{}",
                    std::backtrace::Backtrace::force_capture()
                );
                flag.set(false);
            }
        });
    }
}

// SAFETY: defers to the system allocator; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            note_large(layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            note_large(layout.size());
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            note_large(new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn large_allocations() -> usize {
    LARGE_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Serialises the tests of this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a sibling's failed assertion does not poison the
/// rest of the suite.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn recent_sizes() -> Vec<usize> {
    RECENT_SIZES
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .filter(|&s| s != 0)
        .collect()
}

/// A deliberately tiny analyzer budget: the test measures allocation,
/// not estimation quality, so the GA runs a small population for a few
/// generations at a coarse stride.
fn micro_config() -> AnalyzerConfig {
    let fast = AnalyzerConfig::fast();
    AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 20,
        },
        tracker: TrackerConfig {
            ga: GaConfig {
                population_size: 16,
                max_generations: 4,
                patience: Some(2),
                ..fast.tracker.ga
            },
            problem: PoseProblemConfig {
                stride: 8,
                ..fast.tracker.problem
            },
            ..fast.tracker
        },
        ..fast.into_streaming(14)
    }
}

/// One full session lifecycle against the manager: open (adopting a
/// recycled slot when one is pooled), stream the whole clip, finish,
/// take the result and retire back into the pool. `events` is the
/// caller's reusable drain buffer.
fn run_cycle(
    manager: &mut SessionManager,
    config: &SessionConfig,
    video: &Video,
    events: &mut Vec<HealthEvent>,
) {
    let id = manager.open(config.clone()).unwrap();
    for frame in video.iter() {
        let reply = manager.offer(id, frame).unwrap();
        assert!(matches!(reply, OfferReply::Accepted { .. }));
        manager.tick();
    }
    manager.close(id).unwrap();
    manager.run_until_idle();
    manager.drain_events_into(events);
    events.clear();
    let result = manager.take_result(id).unwrap();
    assert!(result.is_ok(), "churned clip must still analyse");
    manager.retire(id).unwrap();
}

#[test]
fn session_churn_steady_state_does_no_large_allocations() {
    const WARM: usize = 2;
    const CYCLES: usize = 100;
    let _serial = serial();

    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 99);
    let session = SessionConfig {
        analyzer: micro_config(),
        camera: scene.camera,
        first_pose: jump.poses.poses()[0],
        fps: jump.video.fps(),
    };
    let mut manager = SessionManager::new(ServeConfig {
        max_sessions: 1,
        queue_depth: 4,
        clock: DeadlineClock::Scripted,
        // Checkpoints clone live analyzer state; keep them out of the
        // loop so the measurement isolates the churn path itself.
        checkpoint_interval: jump.video.len() + 1,
        stall_ticks: 0,
        ..ServeConfig::default()
    });
    let mut events = Vec::new();

    // Warm-up: the first cycles build the slot's arenas and scratch
    // (and every lazily-grown buffer) from nothing.
    for _ in 0..WARM {
        run_cycle(&mut manager, &session, &jump.video, &mut events);
    }
    assert_eq!(manager.pooled_slots(), 1, "the retired slot is pooled");

    // Steady state: every subsequent lifecycle adopts the recycled
    // slot and must never allocate at the frame-buffer tier again.
    if std::env::var_os("CHURN_TRACE").is_some() {
        TRACE_BUDGET.store(4, Ordering::Relaxed);
    }
    let before = large_allocations();
    for cycle in 0..CYCLES {
        run_cycle(&mut manager, &session, &jump.video, &mut events);
        let delta = large_allocations() - before;
        assert_eq!(
            delta,
            0,
            "cycle {cycle}: {delta} large (>= {LARGE} B) allocations in steady-state churn; \
             recent sizes {:?}",
            recent_sizes()
        );
    }
    assert_eq!(manager.pooled_slots(), 1);
    assert_eq!(manager.sessions_in_service(), 0);
}
