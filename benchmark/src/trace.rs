//! Outside-in tracing: spans recorded by the benchmark around each call
//! into a layer.  Nothing inside the engine is instrumented — the only
//! child spans visible from out here are the timing pager's.
//!
//! Spans are kept in memory (name, start, end, parent, round) and written
//! out when the run ends.  Tracing is off for the end-to-end numbers; a
//! separate traced run supplies the per-layer ones, and the difference
//! between the two is the tracing overhead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `exec.query.trie_eq` or `pager.read`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Round the span belongs to (0 = outside the measured rounds).
    pub round: u32,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    round: u32,
}

/// The span recorder, shared between the client loop and the timing pager.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        // A plain flag: it publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True while spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the round id stamped on subsequent spans.
    pub fn set_round(&self, round: u32) {
        self.lock().round = round;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no thread panics while holding the tracer")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open.  With tracing off this is a plain call.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let id = {
            let start_ns = self.now_ns();
            let mut inner = self.lock();
            let id = inner.spans.len() as u32;
            let parent = inner.stack.last().copied().unwrap_or(NO_PARENT);
            let round = inner.round;
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent,
                round,
            });
            inner.stack.push(id);
            id
        };
        let result = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans[id as usize].end_ns = end_ns;
        let top = inner.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        result
    }

    /// Records an already-finished leaf span (the timing pager's calls).
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut inner = self.lock();
        let parent = inner.stack.last().copied().unwrap_or(NO_PARENT);
        let round = inner.round;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time of every span, ns: its duration minus the part of that
/// interval its direct children cover.  `spans` must be in start order with
/// parents before children — the order [`Tracer`] records them in — so one
/// pass with a per-parent high-water mark handles overlapping children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_until = vec![0u64; spans.len()];
    for span in spans {
        if span.parent == NO_PARENT {
            continue;
        }
        let p = span.parent as usize;
        let parent = &spans[p];
        let start = span.start_ns.max(parent.start_ns).max(covered_until[p]);
        let end = span.end_ns.min(parent.end_ns);
        if end > start {
            covered[p] += end - start;
            covered_until[p] = end;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(*covered))
        .collect()
}

/// The span file: one object with the span list, ready to be written as
/// `trace-<workload>.json`.
pub fn spans_to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("unit", Json::Str("ns".into())),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(&selfs)
                    .map(|(s, self_ns)| {
                        Json::obj([
                            ("name", Json::Str(s.name.to_string())),
                            ("start", Json::Num(s.start_ns as f64)),
                            ("end", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                if s.parent == NO_PARENT {
                                    Json::Null
                                } else {
                                    Json::Num(f64::from(s.parent))
                                },
                            ),
                            ("round", Json::Num(f64::from(s.round))),
                            ("self", Json::Num(*self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span(0, 100, NO_PARENT), // 0: op
            span(10, 30, 0),         // 1: child, 20 ns
            span(40, 60, 0),         // 2: child, 20 ns
            span(45, 50, 2),         // 3: grandchild of 0, child of 2
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 15, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(100, 200, NO_PARENT),
            span(90, 120, 0),  // starts before the parent: 20 ns inside
            span(110, 150, 0), // overlaps the previous child: 30 ns new
            span(190, 250, 0), // overhangs the end: 10 ns inside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 30 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_attaches_leaves_to_the_open_span() {
        let tracer = Tracer::new();
        tracer.span("ignored.while.off", || ());
        assert!(tracer.spans().is_empty());

        tracer.set_enabled(true);
        tracer.set_round(3);
        tracer.span("outer", || {
            tracer.span("inner", || {
                let t = Instant::now();
                tracer.leaf("pager.read", t, Instant::now());
            });
        });
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "pager.read"]);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.round == 3 && s.end_ns >= s.start_ns));
        let selfs = self_times(&spans);
        assert!(selfs[0] <= spans[0].duration_ns());
    }
}
