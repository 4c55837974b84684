//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, an optional detail (a query kind or maintainer
//! name), start and end offsets from the tracer's origin, its parent
//! span, and the batch it belongs to: every span of one batch shares
//! that batch's identifier. Spans stay in memory and are written out
//! as one JSON document when the run ends.
//!
//! Hot inner calls (one sketch merge per Borůvka supernode) would
//! produce hundreds of spans per batch, so they are folded: an
//! aggregated span carries `calls > 1`, starts at its first call, and
//! lasts the sum of its calls' durations.
//!
//! A disabled tracer records nothing, but [`Tracer::time`] still
//! returns each call's duration, so the untraced run times the same
//! calls without keeping spans.

use crate::metrics::json_str;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in the tracer's log.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `session.apply` or `etf.split`.
    pub name: &'static str,
    /// Query kind or maintainer name; empty when not applicable.
    pub detail: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The batch this span belongs to (0 for set-up and end-of-run
    /// spans).
    pub batch: u64,
    /// Offset of the start from the tracer origin.
    pub start: Duration,
    /// Offset of the end from the tracer origin.
    pub end: Duration,
    /// Number of calls folded into this span.
    pub calls: u32,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    batch: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            batch: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the batch identifier carried by subsequent spans.
    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    /// Records a finished call as a span; returns its id (`None` when
    /// disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        detail: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.record_folded(name, detail, parent, start, end - start, 1)
    }

    /// Records `calls` calls whose durations sum to `total`, the first
    /// starting at `start`, as one aggregated span.
    pub fn record_folded(
        &mut self,
        name: &'static str,
        detail: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        total: Duration,
        calls: u32,
    ) -> Option<SpanId> {
        if !self.enabled || calls == 0 {
            return None;
        }
        let begin = start.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            detail,
            parent,
            batch: self.batch,
            start: begin,
            end: begin + total,
            calls,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        detail: &'static str,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, detail, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Runs `f`, recording it as a span when enabled; returns its
    /// result and duration either way.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, detail, parent, start, end);
        (r, end - start)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name` (any detail).
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"batch\": {}, \"name\": {}, \
                 \"detail\": {}, \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                s.batch,
                json_str(s.name),
                json_str(s.detail),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.calls
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`Tracer::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", "", None, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_fold() {
        let mut t = Tracer::new(true);
        t.set_batch(3);
        let root = t.open("batch", "", None);
        t.time("child", "k", root, || ());
        t.record_folded(
            "merge",
            "",
            root,
            Instant::now(),
            Duration::from_micros(5),
            4,
        );
        t.close(root);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans().iter().all(|s| s.batch == 3));
        assert_eq!(t.total("merge"), Duration::from_micros(5));
        assert_eq!(t.spans()[2].calls, 4);
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert!(t.to_json().contains("\"name\": \"merge\""));
    }
}
