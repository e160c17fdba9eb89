//! Allocation regression test: steady-state batched fitness
//! evaluation must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up batch (growing the pooled `EvalScratch` buffers and the memo
//! tables to their high-water mark), a second batch through the same
//! `PoseProblem::fitness_batch` path is asserted to perform **zero**
//! allocations. One test recycles the problem's scratch into a fresh
//! problem first (the tracker's per-frame pattern: the memo is cleared,
//! so the batch takes the full dedup → project → lane Eq. 3 kernel →
//! outside-penalty path); the other repeats the batch on the same
//! problem, so the memo answers every genome.
//!
//! The counter is process-global, so every test holds [`SERIAL`] from
//! its first allocation to its last assertion: a sibling test's
//! warm-up can never land inside another test's measured window,
//! whatever `--test-threads` is.

use rand::rngs::StdRng;
use rand::SeedableRng;
use slj_ga::engine::Problem;
use slj_ga::pose_problem::{InitStrategy, PoseProblem, PoseProblemConfig};
use slj_imgproc::mask::Mask;
use slj_motion::{BodyDims, Pose};
use slj_video::render::render_silhouette;
use slj_video::Camera;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests of this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a sibling's failed assertion does not poison the
/// rest of the suite.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// System allocator plus a global allocation counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

// SAFETY: defers to the system allocator; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A pose problem over a rendered standing silhouette plus a batch of
/// random genomes with deliberate duplicates (exercising the dedup
/// path), and the silhouette for rebuilding the problem.
fn fixture() -> (PoseProblem, Vec<Pose>, Mask) {
    let dims = BodyDims::default();
    let camera = Camera::compact();
    let mut pose = Pose::standing(&dims);
    pose.center.x = 0.6;
    let sil = render_silhouette(&pose, &dims, &camera);
    let problem = PoseProblem::new(
        &sil,
        &dims,
        &camera,
        InitStrategy::FullRange,
        PoseProblemConfig::default(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(47);
    let mut genomes: Vec<Pose> = (0..12).map(|_| problem.random_genome(&mut rng)).collect();
    // Duplicates: in-batch repeats must share one projection.
    genomes.push(genomes[0]);
    genomes.push(genomes[5]);
    genomes.push(genomes[5]);
    (problem, genomes, sil)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn batched_evaluation_is_allocation_free() {
    let _serial = serial();
    let (problem, genomes, sil) = fixture();
    let mut out = vec![0.0f64; genomes.len()];
    // Warm-up batch grows every pooled scratch buffer and the memo.
    problem.fitness_batch(&genomes, &mut out);
    let expected = out.clone();
    // Recycle into a fresh problem: the memo is cleared but keeps its
    // storage, so every genome misses and takes the full kernel path.
    let fitness = problem.shared_fitness();
    let scratch = problem.reclaim();
    let problem = PoseProblem::with_fitness_scratch(
        &sil,
        fitness,
        &BodyDims::default(),
        &Camera::compact(),
        InitStrategy::FullRange,
        PoseProblemConfig::default(),
        scratch,
    )
    .unwrap();
    assert!(problem.memo().is_empty());

    let before = allocations();
    problem.fitness_batch(&genomes, &mut out);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "steady-state batch performed {delta} allocations");
    assert_eq!(bits(&out), bits(&expected));
    assert_eq!(problem.memo().stats(), (0, genomes.len()));
}

#[test]
fn memoised_batch_is_allocation_free_on_full_hit() {
    // The warm-up batch pays the HashMap inserts; a repeat of the same
    // genomes is answered entirely from the memo without touching the
    // heap.
    let _serial = serial();
    let (problem, genomes, _) = fixture();
    let mut out = vec![0.0f64; genomes.len()];
    problem.fitness_batch(&genomes, &mut out);
    let expected = out.clone();

    let before = allocations();
    problem.fitness_batch(&genomes, &mut out);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "memoised batch performed {delta} allocations");
    assert_eq!(bits(&out), bits(&expected));
}
