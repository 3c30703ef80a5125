//! Spans recorded from outside the program: the benchmark wraps each call it
//! makes into a crate of the run path. A span's name is `<layer>.<what>`; the
//! layer is the crate the call goes into. Spans stay in memory until the run
//! ends and are then written as `trace_<workload>.json`.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through the
    /// tracer it is handed become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Duration of the first span called `name`, in seconds.
pub fn duration_s(spans: &[Span], name: &str) -> Option<f64> {
    spans
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.duration_us() as f64 / 1e6)
}

/// A span's self time: its duration minus what its direct children cover.
pub fn self_time_us(spans: &[Span], index: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::duration_us)
        .sum();
    spans[index].duration_us().saturating_sub(children)
}

/// Self time summed per layer, in first-seen order. The sum over all layers
/// equals the time the top-level spans cover.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let t = self_time_us(spans, i);
        match out.iter_mut().find(|(layer, _)| layer == s.layer()) {
            Some((_, total)) => *total += t,
            None => out.push((s.layer().to_string(), t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("mapping.map", 0, 100, None),
            span("partition.kway", 10, 40, Some(0)),
            span("engine.profiling_run", 40, 90, Some(0)),
            span("routing.lookup", 50, 60, Some(2)),
            span("engine.emulate", 100, 150, None),
        ];
        assert_eq!(self_time_us(&spans, 0), 100 - 30 - 50);
        assert_eq!(self_time_us(&spans, 2), 50 - 10);
        assert_eq!(self_time_us(&spans, 3), 10);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(
            by_layer,
            vec![
                ("mapping".to_string(), 20),
                ("partition".to_string(), 30),
                ("engine".to_string(), 40 + 50),
                ("routing".to_string(), 10),
            ]
        );
        let total: u64 = by_layer.iter().map(|(_, t)| t).sum();
        assert_eq!(total, 100 + 50, "what the two top-level spans cover");
        assert_eq!(duration_s(&spans, "engine.emulate"), Some(50e-6));
        assert_eq!(duration_s(&spans, "obs.report_json"), None);
    }

    #[test]
    fn tracer_nests_spans_opened_inside_a_span() {
        let mut t = Tracer::new();
        let x = t.span("cli.outer", |t| {
            t.span("lint.inner", |_| 1) + t.span("lint.inner2", |_| 2)
        });
        t.span("cli.sibling", |_| ());
        assert_eq!(x, 3);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s[0].start_us <= s[1].start_us && s[2].end_us <= s[0].end_us);
        assert_eq!(s[1].layer(), "lint");
    }
}
