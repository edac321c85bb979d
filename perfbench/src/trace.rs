//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out at the end as Chrome trace-event JSON (opens in
//! Perfetto and `chrome://tracing`).
//!
//! A disabled tracer reads no clock, so the untraced correctness pass
//! runs the same recomposition code at full speed.

use std::fmt::Write as _;
use std::time::Instant;

/// Frame id of spans that belong to no frame (scene set-up).
pub const NO_FRAME: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `end` closes it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, frame: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            frame,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.now_ns();
            self.spans[i].end_ns = end_ns;
            let top = self.open.pop();
            assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, frame: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, frame);
        let out = f();
        self.end(id);
        out
    }

    /// Milliseconds spent in spans named `name`, summed per frame, for
    /// every frame in `frames` (0 for a frame with no such span).
    pub fn per_frame_ms(&self, name: &str, frames: &[u64]) -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.frame).or_insert(0.0) += s.ms();
        }
        frames
            .iter()
            .map(|f| sums.get(f).copied().unwrap_or(0.0))
            .collect()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Chrome trace-event JSON ("X" complete events, µs timestamps) of
    /// the spans whose frame passes `keep`. Each event carries its frame
    /// id and its parent span's index.
    pub fn chrome_json(&self, keep: impl Fn(u64) -> bool) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s.frame) {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let frame = if s.frame == NO_FRAME {
                -1
            } else {
                s.frame as i64
            };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"frame\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                frame
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new(true);
        let outer = t.begin("core.frame", 0);
        t.time("sort.order", 0, || ());
        t.time("sort.order", 0, || ());
        t.end(outer);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.per_frame_ms("sort.order", &[0, 1]).len(), 2);
        let json = t.chrome_json(|_| true);
        assert!(json.contains("\"name\":\"sort.order\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("core.frame", 0);
        t.end(id);
        assert!(t.spans.is_empty());
    }
}
