//! Outside-in span recording for the traced run.
//!
//! Spans are opened by the benchmark around its own calls into the
//! crates — and by two decorators the crates call back into: a
//! [`TimedStrategy`] handed to the controller as its placement strategy,
//! and a [`TimedWrite`] under the decision journal. Nothing inside the
//! crates is instrumented. Spans stay in memory until the run ends.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use capsys_model::Placement;
use capsys_placement::{PlacementContext, PlacementError, PlacementStrategy, SearchDescriptor};
use capsys_util::rng::SmallRng;

/// One closed span: a named interval and the span open when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `"placement"`.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock length in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
struct Spans {
    closed: Vec<Span>,
    open: Vec<usize>,
}

/// A shared, single-run span store. Cloning shares the store, so the
/// decorators the crates own and the benchmark record into one list.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    spans: Arc<Mutex<Spans>>,
}

/// An open span; closes when dropped.
pub struct Guard {
    recorder: Recorder,
    index: usize,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let now = self.recorder.now();
        let mut s = self.recorder.lock();
        s.closed[self.index].end = now;
        if let Some(pos) = s.open.iter().rposition(|&i| i == self.index) {
            s.open.remove(pos);
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Spans {
                closed: Vec::new(),
                open: Vec::new(),
            })),
        }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn lock(&self) -> MutexGuard<'_, Spans> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard {
        let start = self.now();
        let mut s = self.lock();
        let index = s.closed.len();
        let parent = s.open.last().copied();
        s.closed.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        s.open.push(index);
        drop(s);
        Guard {
            recorder: self.clone(),
            index,
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().closed.clone()
    }
}

/// Self time of `spans[index]`: its length minus the part of its
/// interval covered by its direct children. Grandchildren lie inside
/// their parent child, so they are not subtracted twice.
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let parent = &spans[index];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are finite"));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in children {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
        }
        reach = reach.max(b);
    }
    parent.secs() - covered
}

/// A placement strategy that records a `"placement"` span around every
/// call into the strategy it wraps.
pub struct TimedStrategy<S> {
    inner: S,
    recorder: Recorder,
}

impl<S> TimedStrategy<S> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: S, recorder: Recorder) -> Self {
        TimedStrategy { inner, recorder }
    }
}

impl<S: PlacementStrategy> PlacementStrategy for TimedStrategy<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        rng: &mut SmallRng,
    ) -> Result<Placement, PlacementError> {
        let _span = self.recorder.span("placement");
        self.inner.place(ctx, rng)
    }

    fn search_descriptor(&self) -> Option<SearchDescriptor> {
        self.inner.search_descriptor()
    }
}

/// A journal sink that records a `"journal.write"` span around every
/// write and a `"journal.flush"` span around every flush it forwards.
pub struct TimedWrite<W> {
    inner: W,
    recorder: Recorder,
}

impl<W> TimedWrite<W> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: W, recorder: Recorder) -> Self {
        TimedWrite { inner, recorder }
    }
}

impl<W: Write> Write for TimedWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _span = self.recorder.span("journal.write");
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let _span = self.recorder.span("journal.flush");
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_without_children_is_the_whole_span() {
        let spans = vec![span(1.0, 4.0, None)];
        assert_eq!(self_time(&spans, 0), 3.0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span(0.0, 10.0, None),
            span(1.0, 3.0, Some(0)),
            span(5.0, 6.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 7.0);
    }

    #[test]
    fn nested_grandchildren_are_not_subtracted_twice() {
        // 0 ⊃ 1 ⊃ 2: the grandchild lies inside the child.
        let spans = vec![
            span(0.0, 10.0, None),
            span(2.0, 8.0, Some(0)),
            span(3.0, 4.0, Some(1)),
        ];
        assert_eq!(self_time(&spans, 0), 4.0);
        assert_eq!(self_time(&spans, 1), 5.0);
        assert_eq!(self_time(&spans, 2), 1.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(0.0, 10.0, None),
            span(1.0, 5.0, Some(0)),
            span(4.0, 6.0, Some(0)),
            span(9.0, 12.0, Some(0)),
        ];
        // Covered: [1, 6] and [9, 10] → 6 of 10 seconds.
        assert_eq!(self_time(&spans, 0), 4.0);
    }

    #[test]
    fn recorder_links_nested_guards() {
        let rec = Recorder::default();
        {
            let _outer = rec.span("step");
            let _inner = rec.span("placement");
        }
        let _after = rec.span("step");
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end >= spans[1].end && spans[1].start >= spans[0].start);
        assert!(self_time(&spans, 0) <= spans[0].secs());
    }
}
