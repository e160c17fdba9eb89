//! Shared execution-layer configuration for the workspace.
//!
//! Every stage that can fan work out over threads — the segmentation
//! pipeline (per-frame stages), the GA engine (per-genome fitness) —
//! takes its thread count from one [`Parallelism`] value that flows
//! top-down: CLI `--threads` → `AnalyzerConfig` → `PipelineConfig` /
//! `TrackerConfig` → `GaConfig.threads`. Centralising the knob keeps
//! "how parallel is this run" a single decision instead of four
//! hardcoded integers.
//!
//! Parallelism is a *throughput* setting, never a *semantics* setting:
//! every parallel code path in the workspace is required (and tested)
//! to produce bit-identical output to its serial twin, so any value
//! here is safe for reproducibility.
//!
//! Two mechanisms turn the count into threads: [`for_each_chunk`]
//! splits one batch over short-lived scoped threads (GA fitness,
//! segmentation frames, the eval matrix), and [`WorkerPool`] keeps
//! threads parked between the session manager's ticks.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

pub mod backoff;
pub mod pool;

pub use backoff::{Backoff, BackoffConfig};
pub use pool::WorkerPool;

/// The number of hardware threads actually available to this process,
/// via [`std::thread::available_parallelism`] (1 when the runtime
/// cannot report a count).
///
/// This is the oversubscription cap: [`Parallelism::Auto`] resolves to
/// exactly this value, and benchmark drivers clamp requested fixed
/// counts to it (`requested.min(available_threads())`) — more workers
/// than cores only adds scheduler churn to CPU-bound stages.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `out` into contiguous chunks of `out.len().div_ceil(threads)`
/// elements and calls `work(offset, chunk)` once per chunk, `offset`
/// being the chunk's first index in `out`.
///
/// Each chunk runs on its own scoped thread and the call returns once
/// all have finished. When that split would leave a single chunk
/// (`threads <= 1`, or `out` has at most one element) the whole slice
/// runs inline on the calling thread instead, with no spawn.
///
/// # Panics
///
/// Propagates a panic from any `work` call, after every thread has
/// been joined.
pub fn for_each_chunk<T, F>(threads: usize, out: &mut [T], work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = out.len().div_ceil(threads.max(1));
    if chunk >= out.len() {
        work(0, out);
        return;
    }
    let work = &work;
    std::thread::scope(|scope| {
        for (i, part) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || work(i * chunk, part));
        }
    });
}

/// How many worker threads a stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Parallelism {
    /// One thread, no worker fan-out (the pre-parallel behaviour).
    #[default]
    Serial,
    /// Exactly this many threads (values of 0 and 1 behave as
    /// [`Parallelism::Serial`]).
    Fixed(usize),
    /// One thread per available hardware core, via
    /// [`std::thread::available_parallelism`] (falls back to serial
    /// when the runtime cannot report a count).
    Auto,
}

impl Parallelism {
    /// The resolved worker-thread count, always at least 1.
    pub fn threads(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => available_threads(),
        }
    }

    /// Whether the resolved count is a single thread.
    pub fn is_serial(&self) -> bool {
        self.threads() == 1
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => f.write_str("serial"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
            Parallelism::Auto => f.write_str("auto"),
        }
    }
}

/// Error from parsing a `--threads`-style spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseParallelismError(String);

impl fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid thread count '{}': expected a positive integer, 'serial' or 'auto'",
            self.0
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl FromStr for Parallelism {
    type Err = ParseParallelismError;

    /// Parses the CLI spellings: `auto`, `serial`, or a positive
    /// integer (where `1` means serial).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "auto" => Ok(Parallelism::Auto),
            "serial" => Ok(Parallelism::Serial),
            raw => match raw.parse::<usize>() {
                Ok(0) | Err(_) => Err(ParseParallelismError(raw.to_owned())),
                Ok(1) => Ok(Parallelism::Serial),
                Ok(n) => Ok(Parallelism::Fixed(n)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_fixed_resolve() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(1).threads(), 1);
        assert_eq!(Parallelism::Fixed(4).threads(), 4);
        assert!(Parallelism::Serial.is_serial());
        assert!(Parallelism::Fixed(1).is_serial());
        assert!(!Parallelism::Fixed(2).is_serial());
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn auto_is_capped_at_available_hardware() {
        // Auto must never oversubscribe: it resolves to exactly the
        // hardware thread count the runtime reports.
        assert_eq!(Parallelism::Auto.threads(), available_threads());
        assert!(available_threads() >= 1);
    }

    #[test]
    fn parses_cli_spellings() {
        assert_eq!("auto".parse(), Ok(Parallelism::Auto));
        assert_eq!("serial".parse(), Ok(Parallelism::Serial));
        assert_eq!("1".parse(), Ok(Parallelism::Serial));
        assert_eq!(" 4 ".parse(), Ok(Parallelism::Fixed(4)));
        assert!("0".parse::<Parallelism>().is_err());
        assert!("-2".parse::<Parallelism>().is_err());
        assert!("fast".parse::<Parallelism>().is_err());
        assert!("".parse::<Parallelism>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(8),
            Parallelism::Auto,
        ] {
            assert_eq!(
                p.to_string().parse::<Parallelism>().unwrap().threads(),
                p.threads()
            );
        }
    }

    #[test]
    fn serde_round_trips() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: Parallelism = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn workers_can_borrow_and_mutate_disjoint_chunks() {
        let mut data = vec![0u64; 64];
        for_each_chunk(4, &mut data, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = (offset + i) as u64;
            }
        });
        assert_eq!(data, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn chunks_are_contiguous_and_div_ceil_sized() {
        let calls = std::sync::Mutex::new(Vec::new());
        let mut data = [0u8; 10];
        for_each_chunk(4, &mut data, |offset, chunk| {
            let thread = std::thread::current().id();
            calls.lock().unwrap().push((offset, chunk.len(), thread));
        });
        let mut calls = calls.into_inner().unwrap();
        calls.sort_by_key(|c| c.0);
        let spans: Vec<_> = calls.iter().map(|c| (c.0, c.1)).collect();
        assert_eq!(spans, [(0, 3), (3, 3), (6, 3), (9, 1)]);
        assert!(calls.iter().all(|c| c.2 != std::thread::current().id()));
    }

    #[test]
    fn single_chunk_runs_inline() {
        let caller = std::thread::current().id();
        for (threads, len) in [(1, 5), (0, 5), (4, 1), (4, 0)] {
            let mut data = vec![0u8; len];
            let mut seen = std::sync::Mutex::new(Vec::new());
            for_each_chunk(threads, &mut data, |offset, chunk| {
                seen.lock()
                    .unwrap()
                    .push((offset, chunk.len(), std::thread::current().id()));
            });
            assert_eq!(seen.get_mut().unwrap().as_slice(), [(0, len, caller)]);
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let mut data = [0u8; 4];
        for_each_chunk(2, &mut data, |offset, _| {
            if offset > 0 {
                panic!("worker down");
            }
        });
    }

    #[test]
    fn default_is_serial() {
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }
}
