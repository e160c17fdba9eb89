//! A persistent worker pool with a per-dispatch epoch barrier.
//!
//! Re-spawning a scoped fan-out ([`crate::for_each_chunk`]) on every
//! supervisor tick would let thread create/join dominate the (small)
//! per-tick work at high tick rates. [`WorkerPool`] keeps the
//! workers alive across dispatches: [`WorkerPool::run`] publishes one
//! job under a mutex, bumps an epoch, and wakes every worker; each
//! worker runs its shard (or skips, when there are fewer shards than
//! workers this round), decrements a `remaining` counter, and the last
//! one wakes the caller. `run` does not return until every worker has
//! checked in, so the job closure may safely borrow the caller's stack
//! — the same guarantee a thread scope gives, without the per-call
//! spawn.
//!
//! Determinism: the pool never decides *what* a shard contains — the
//! caller fixes the shard → work assignment before dispatch (the serve
//! manager cuts sessions into contiguous `div_ceil` chunks),
//! so which OS thread executes a shard can never change any output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The job reference published for one epoch. Lifetime-erased; see the
/// safety argument on [`WorkerPool::run`].
type Job = &'static (dyn Fn(usize) + Sync);

#[derive(Default)]
struct PoolState {
    /// Bumped once per dispatch; workers run exactly one job per epoch.
    epoch: u64,
    /// Shards in the current dispatch; worker `i` participates iff
    /// `i < shards`.
    shards: usize,
    /// The current epoch's job (cleared by the caller on completion).
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch (all of
    /// them count, including non-participants — that is the barrier).
    remaining: usize,
    /// Set when a participant's job panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    /// Signalled on a new epoch (and on shutdown).
    work_cv: Condvar,
    /// Signalled by the last worker to finish an epoch.
    done_cv: Condvar,
}

/// Long-lived worker threads dispatched with [`WorkerPool::run`].
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("slj-pool-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, workers }
    }

    /// The number of persistent workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job(i)` for every shard `i < shards` across the pool and
    /// blocks until all workers have passed the epoch barrier.
    ///
    /// `shards` must not exceed [`WorkerPool::threads`]; each shard is
    /// executed by exactly one worker (worker `i` runs shard `i`), so
    /// the caller's shard assignment fully determines the work split.
    ///
    /// # Panics
    ///
    /// Panics with `"session steps are panic-isolated"` if any shard's
    /// job panicked (after every worker has reached the barrier, so the
    /// pool stays consistent for the next dispatch) — mirroring the
    /// scoped-spawn path this pool replaces.
    pub fn run(&self, shards: usize, job: &(dyn Fn(usize) + Sync)) {
        if shards == 0 {
            return;
        }
        assert!(
            shards <= self.workers.len(),
            "dispatching {shards} shards on a {}-worker pool",
            self.workers.len()
        );
        // SAFETY: the job reference is only reachable by workers during
        // the epoch published below, and this function does not return
        // until `remaining == 0` — i.e. until every worker is done with
        // it — so erasing the lifetime to 'static never lets a worker
        // outlive the borrow.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        state.job = Some(job);
        state.shards = shards;
        state.remaining = self.workers.len();
        state.panicked = false;
        state.epoch = state.epoch.wrapping_add(1);
        self.inner.work_cv.notify_all();
        while state.remaining != 0 {
            state = self.inner.done_cv.wait(state).expect("pool state poisoned");
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        if panicked {
            panic!("session steps are panic-isolated");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &Inner, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, shards) = {
            let mut state = inner.state.lock().expect("pool state poisoned");
            while !state.shutdown && state.epoch == seen_epoch {
                state = inner.work_cv.wait(state).expect("pool state poisoned");
            }
            if state.shutdown {
                return;
            }
            seen_epoch = state.epoch;
            (state.job.expect("job published with epoch"), state.shards)
        };
        let panicked = if index < shards {
            catch_unwind(AssertUnwindSafe(|| job(index))).is_err()
        } else {
            false
        };
        let mut state = inner.state.lock().expect("pool state poisoned");
        if panicked {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            inner.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_shard_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for round in 1..=100usize {
            pool.run(4, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), round);
            }
        }
    }

    #[test]
    fn fewer_shards_than_workers_skips_the_rest() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(2, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(hits[1].load(Ordering::Relaxed), 1);
        assert_eq!(hits[2].load(Ordering::Relaxed), 0);
        assert_eq!(hits[3].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_shards_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("no shard should run"));
    }

    #[test]
    fn borrows_caller_stack_mutably_through_disjoint_shards() {
        let pool = WorkerPool::new(3);
        let mut data = [0usize; 3];
        let shards: Vec<Mutex<&mut usize>> = data.iter_mut().map(Mutex::new).collect();
        pool.run(3, &|i| {
            **shards[i].lock().unwrap() = i + 10;
        });
        drop(shards);
        assert_eq!(data, [10, 11, 12]);
    }

    #[test]
    fn panicking_job_propagates_after_the_barrier_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|i| {
                if i == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate to the caller");
        // The pool is still consistent: the next dispatch runs cleanly.
        let hits = AtomicUsize::new(0);
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn more_shards_than_workers_is_a_bug() {
        let pool = WorkerPool::new(2);
        pool.run(3, &|_| {});
    }
}
