//! In-memory spans and counts recorded around calls into the program's
//! layers, written out as JSONL when the run ends.
//!
//! A disabled tracer records nothing and adds one branch per call, so the
//! untraced run measures the program alone.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use stfsm::json::{JsonObject, RawJson};

/// Handle of a recorded span, passed down as the parent of nested spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(None);
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in the run.
    pub id: usize,
    /// Span name: `layer.operation`, or a phase name for the roots.
    pub name: String,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Default)]
struct Record {
    spans: Vec<Span>,
    counts: BTreeMap<String, f64>,
}

/// The span and count recorder of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    record: Mutex<Record>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            record: Mutex::new(Record::default()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Record> {
        match self.record.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id for its own children.
    pub fn span<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.enabled {
            return f(SpanId::ROOT);
        }
        let id = {
            let mut record = self.lock();
            let id = record.spans.len();
            record.spans.push(Span {
                id,
                name: name.to_string(),
                parent: parent.0,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start_ns = self.now_ns();
        let out = f(SpanId(Some(id)));
        let end_ns = self.now_ns();
        let mut record = self.lock();
        record.spans[id].start_ns = start_ns;
        record.spans[id].end_ns = end_ns;
        out
    }

    /// Adds `value` to the count `name`.
    pub fn count(&self, name: &str, value: f64) {
        if self.enabled {
            *self.lock().counts.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    /// The recorded spans, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The recorded counts.
    pub fn counts(&self) -> BTreeMap<String, f64> {
        self.lock().counts.clone()
    }

    /// Summed duration of all spans named `name`, in seconds; 0 when there
    /// are none (a float `sum` of nothing is -0).
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.seconds())
    }

    /// The spans and counts as JSONL, one record per line, each stamped
    /// with `run`.
    pub fn to_jsonl(&self, run: &str) -> String {
        let record = self.lock();
        let mut out = String::new();
        for span in &record.spans {
            let mut obj = JsonObject::new();
            obj.field("type", "span")
                .field("run", run)
                .field("id", span.id)
                .field("name", &span.name)
                .field("parent", span.parent)
                .field("start_ns", span.start_ns)
                .field("end_ns", span.end_ns);
            out.push_str(&obj.finish());
            out.push('\n');
        }
        for (name, value) in &record.counts {
            let mut obj = JsonObject::new();
            obj.field("type", "count")
                .field("run", run)
                .field("name", name)
                .field("value", *value);
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }
}

/// Length of the union of `[start, end)` intervals, in nanoseconds.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it covered by
/// its children (children of one span may overlap when they ran on
/// different threads).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let covered = union_ns(kids);
            (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e9
        })
        .collect()
}

/// Per layer (the span-name prefix before the first `.`): summed self
/// time in seconds and span count.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, (f64, usize)> {
    let mut layers: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(self_times(spans)) {
        let layer = span.name.split('.').next().unwrap_or("").to_string();
        let entry = layers.entry(layer).or_insert((0.0, 0));
        entry.0 += self_s;
        entry.1 += 1;
    }
    layers
}

/// Share of the span `root`'s duration covered by its direct children
/// other than `overhead` spans, out of the duration not taken by
/// `overhead` spans alone.
pub fn child_coverage(spans: &[Span], root: usize, overhead: &str) -> f64 {
    let kids = |keep: &dyn Fn(&Span) -> bool| -> u64 {
        union_ns(
            spans
                .iter()
                .filter(|s| s.parent == Some(root) && keep(s))
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        )
    };
    let layers = kids(&|s| s.name != overhead);
    let overhead_only = kids(&|_| true) - layers;
    let program = (spans[root].end_ns - spans[root].start_ns).saturating_sub(overhead_only);
    if program == 0 {
        return 1.0;
    }
    layers as f64 / program as f64
}

/// A JSON object of `name -> value` pairs.
pub fn json_map<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> RawJson {
    let mut obj = JsonObject::new();
    for (name, value) in pairs {
        obj.field(name, value);
    }
    RawJson(obj.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: format!("layer{id}.op"),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 40e-9).abs() < 1e-15);
        assert!((child_coverage(&spans, 0, "none") - 0.6).abs() < 1e-12);
        // Treating span 2 as overhead: layers cover 40 of 100 - 20.
        let mut spans = spans;
        spans[2].name = "bench.calibrate".to_string();
        assert!((child_coverage(&spans, 0, "bench.calibrate") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let out = tracer.span("a.b", SpanId::ROOT, |id| {
            tracer.count("a.n", 1.0);
            id
        });
        assert_eq!(out, SpanId::ROOT);
        assert!(tracer.spans().is_empty());
        assert!(tracer.counts().is_empty());
    }
}
