//! In-memory spans for the traced replay: each records its request, its
//! layer name, the span that caused it, and its start and end. Spans are
//! kept in memory and written out when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub req: usize,
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1000.0
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn time<T>(&mut self, req: usize, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            req,
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }
}

/// Self time of every span, µs: its duration minus the part of it its
/// direct children cover. Children of one span run one after another on
/// the recording thread, so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.dur_us();
        }
    }
    own.into_iter().map(|t| t.max(0.0)).collect()
}

/// Per request, the summed self time (ms) of each layer name.
pub fn layer_ms(spans: &[Span]) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.req)
            .or_default()
            .entry(span.name)
            .or_default() += own / 1000.0;
    }
    out
}

/// What the traced layers leave unexplained of one request's untraced
/// end-to-end time: `e2e − Σ multiplicity × layer self time` over the
/// layers on the request's path. Layers the path does not take count
/// zero; a layer the path takes twice (a re-post) counts twice.
pub fn residual_ms(e2e_ms: f64, layers: &BTreeMap<&'static str, f64>, path: &[(&str, f64)]) -> f64 {
    e2e_ms - path_sum_ms(layers, path)
}

/// `Σ multiplicity × layer self time` over `path`.
pub fn path_sum_ms(layers: &BTreeMap<&'static str, f64>, path: &[(&str, f64)]) -> f64 {
    path.iter()
        .map(|(name, times)| times * layers.get(name).copied().unwrap_or(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: usize, name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            req,
            name,
            parent,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, "request", None, 0.0, 100.0),
            span(0, "level", Some(0), 10.0, 60.0),
            span(0, "inner", Some(1), 20.0, 30.0),
            span(0, "render", Some(0), 70.0, 80.0),
        ];
        assert_eq!(self_times(&spans), vec![40.0, 40.0, 10.0, 10.0]);
        let layers = layer_ms(&spans);
        assert_eq!(layers[&0]["level"], 0.04);
        assert_eq!(layers[&0]["request"], 0.04);
    }

    #[test]
    fn layer_sums_add_repeated_spans_per_request() {
        let spans = vec![
            span(3, "journal.append", None, 0.0, 1000.0),
            span(3, "journal.append", None, 2000.0, 2500.0),
            span(4, "journal.append", None, 0.0, 250.0),
        ];
        let layers = layer_ms(&spans);
        assert_eq!(layers[&3]["journal.append"], 1.5);
        assert_eq!(layers[&4]["journal.append"], 0.25);
    }

    #[test]
    fn residual_counts_only_the_path_with_multiplicity() {
        let mut layers = BTreeMap::new();
        layers.insert("api.decode", 3.0);
        layers.insert("level", 5.0);
        layers.insert("store.get", 0.5);
        let hot_path = [("api.decode", 1.0), ("store.get", 1.0)];
        assert_eq!(residual_ms(10.0, &layers, &hot_path), 6.5);
        let repost_path = [("api.decode", 2.0), ("level", 1.0), ("missing", 1.0)];
        assert_eq!(path_sum_ms(&layers, &repost_path), 11.0);
        assert_eq!(residual_ms(10.0, &layers, &repost_path), -1.0);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        let v = rec.time(1, "request", |rec| rec.time(1, "api.decode", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].start_us <= rec.spans[1].start_us);
        assert!(rec.spans[1].end_us <= rec.spans[0].end_us);
    }
}
