//! In-memory spans for the traced run: name, start, end, parent and hop
//! id, written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase, e.g. `firewall.route_inbound`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin; 0 while open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The hop (or agent) the span belongs to.
    pub hop: String,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Records spans; nothing leaves memory until [`Tracer::to_json_lines`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, hop: &str) -> SpanId {
        self.begin_at(name, parent, hop, Instant::now())
    }

    /// Opens a span that started at `at`.
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        hop: &str,
        at: Instant,
    ) -> SpanId {
        let start_ns =
            u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            hop: hop.to_owned(),
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        hop: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, hop);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(Span::micros)
            .collect()
    }

    /// Each span's self time in microseconds: its duration minus the
    /// part of its interval its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&id) {
                    kids.sort_unstable();
                    let mut reach = span.start_ns;
                    for &(start, end) in kids.iter() {
                        let (start, end) = (start.max(reach), end.min(span.end_ns));
                        if end > start {
                            covered += end - start;
                            reach = end;
                        }
                    }
                }
                span.end_ns
                    .saturating_sub(span.start_ns)
                    .saturating_sub(covered) as f64
                    / 1e3
            })
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"hop\":\"{}\"}}",
                span.name, span.start_ns, span.end_ns, span.hop
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::default();
        let root = t.begin("root", None, "h");
        let a = t.begin("a", Some(root), "h");
        t.spans[a].start_ns = 10;
        t.spans[a].end_ns = 40;
        let b = t.begin("b", Some(root), "h");
        t.spans[b].start_ns = 30;
        t.spans[b].end_ns = 60;
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100_000;
        let selfs = t.self_times();
        // Children cover 10..60 ns of the root's 100 µs.
        assert!((selfs[root] - 99.95).abs() < 1e-9);
        assert!((selfs[a] - 0.03).abs() < 1e-9);
        assert!(t.to_json_lines().lines().count() == 3);
    }
}
