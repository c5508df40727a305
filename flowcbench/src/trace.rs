//! In-memory spans: `{name, start, end, parent, request id}` recorded by
//! the benchmark around its own calls into each layer, written out as
//! JSON lines when the run ends.
//!
//! A disabled tracer still times (callers need the walls for end-to-end
//! numbers) but keeps no spans, so the difference between a traced and an
//! untraced run is the cost of recording.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer, e.g. `label` or `http.submit`.
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: u64,
    /// End, µs since the epoch (`None` while open).
    pub end_us: Option<u64>,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The design or job the span belongs to.
    pub request: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a finished span from explicit instants (for spans measured
    /// on another thread or reconstructed from polls). Returns its id, or
    /// `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_us: self.micros(start),
            end_us: Some(self.micros(end)),
            parent,
            request,
        };
        self.spans.push(span);
        Some(SpanId(self.spans.len() - 1))
    }

    /// Opens a span now.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_us = self.micros(Instant::now());
        self.spans.push(Span {
            name,
            start_us,
            end_us: None,
            parent,
            request,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end = self.micros(Instant::now());
            self.spans[i].end_us = Some(end);
        }
    }

    /// Per span, the summed duration of its direct children, µs.
    fn child_us(&self) -> Vec<u64> {
        let mut child_us = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let (Some(SpanId(p)), Some(d)) = (span.parent, span.duration_us()) {
                child_us[p] += d;
            }
        }
        child_us
    }

    /// Total self time per span name: each span's duration minus the
    /// durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let child_us = self.child_us();
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_us) {
            let own = span.duration_us().unwrap_or(0).saturating_sub(*children);
            *out.entry(span.name).or_default() += Duration::from_micros(own);
        }
        out
    }

    /// For every span named `root`: the share of its wall not covered by
    /// its direct children (its own self time over its duration).
    /// Returns `(request, share, self µs)` per span.
    pub fn unattributed_shares(&self, root: &str) -> Vec<(u64, f64, u64)> {
        let child_us = self.child_us();
        self.spans
            .iter()
            .zip(&child_us)
            .filter(|(s, _)| s.name == root)
            .filter_map(|(s, children)| {
                let total = s.duration_us()?;
                let own = total.saturating_sub(*children);
                Some((s.request, own as f64 / total.max(1) as f64, own))
            })
            .collect()
    }

    /// Writes the spans as JSON lines to `path` (parent directories are
    /// created).
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |SpanId(p)| p.to_string());
            let end = s.end_us.map_or("null".to_string(), |e| e.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{end},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.request
            )?;
        }
        out.flush()
    }
}

impl Span {
    /// Duration in µs, once closed.
    pub fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|e| e.saturating_sub(self.start_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("design", None, 1);
        t.close(id);
        assert!(id.is_none());
        assert!(t.self_times().is_empty());
    }

    #[test]
    fn self_times_subtract_direct_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("design", at(0), at(100), None, 7);
        t.record("label", at(10), at(70), root, 7);
        t.record("map", at(70), at(95), root, 7);
        let own = t.self_times();
        assert_eq!(own["design"], Duration::from_millis(15));
        assert_eq!(own["label"], Duration::from_millis(60));
        let shares = t.unattributed_shares("design");
        assert_eq!(shares.len(), 1);
        assert!((shares[0].1 - 0.15).abs() < 1e-9);
        assert_eq!(shares[0].0, 7);
    }
}
