//! The traced run's span ledger.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the program is
//! instrumented), kept in memory, and written out as JSONL when the run
//! ends. A span names its layer call, the clip it served (the id every
//! span of one clip shares) and the span that caused it.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the ledger, starting at 1.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The clip (request) this span served.
    pub clip: u64,
    /// Layer call, e.g. `daemon.frame_ack`.
    pub name: &'static str,
    /// Nanoseconds since the ledger's origin.
    pub start_ns: u64,
    /// Nanoseconds since the ledger's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store shared by every benchmark thread.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Ledger {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the new span's id so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        clip: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        self.push(Span {
            id,
            parent,
            clip,
            name,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(&self, name: &'static str, clip: u64, parent: u64, start: Instant, end: Instant) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            clip,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a benchmark thread panicked while recording a span")
            .push(span);
    }

    /// A copy of every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a benchmark thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The ledger as JSONL, one span per line, each with its self time:
    /// its duration minus the part of its interval that its child spans
    /// cover.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        for s in &spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"clip\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.clip,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns(s, &spans)
            );
        }
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per-clip total duration (ms) of the spans called `name`, for
    /// the given clips in order (0 where a clip has none).
    pub fn per_clip(&self, name: &str, clips: &[u64]) -> Vec<f64> {
        let spans = self.spans();
        clips
            .iter()
            .map(|&c| {
                spans
                    .iter()
                    .filter(|s| s.name == name && s.clip == c)
                    .map(Span::ms)
                    .sum()
            })
            .collect()
    }
}

/// `span`'s duration minus the union of its children's intervals
/// (clipped to the span), in nanoseconds.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            clip: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),  // overlaps span 2: covered 10..50
            span(4, 1, 90, 120), // clipped to 90..100
        ];
        assert_eq!(self_ns(&all[0], &all), 100 - 40 - 10);
        assert_eq!(self_ns(&all[1], &all), 30);
    }
}
