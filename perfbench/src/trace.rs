//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is (name, start, end, parent). Spans nest strictly on the
//! benchmark's driving thread: the layers may fan out over the worker
//! pool internally, but each call is entered and left on this thread.
//! A span's self time is its duration minus the durations of its direct
//! children; the unattributed remainder of an end-to-end root is the
//! root's own self time, so the layer self times under a root plus its
//! remainder add up to the root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, times in seconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so
/// the untraced runs time the same code without the recording.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Open a span that the caller closes with [`Tracer::exit`], for
    /// regions whose calls need the tracer themselves.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close in LIFO order");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, for writing out at the end of a run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}\n",
                s.name, s.start, s.end
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.seconds();
        }
    }
    own
}

/// Whether span `id` lies under `root` (or is it).
fn under(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// Self time summed per span name over the subtree of `root`,
/// excluding the root itself, plus the root's own self time (the
/// unattributed remainder).
pub fn layer_breakdown(spans: &[Span], root: usize) -> (BTreeMap<&'static str, f64>, f64) {
    let own = self_times(spans);
    let mut layers = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if id != root && under(spans, id, root) {
            *layers.entry(s.name).or_insert(0.0) += own[id];
        }
    }
    (layers, own[root])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    /// root [0,10] ── a [1,4] ── a.x [2,3]
    ///              ├─ b [5,9] ── b.y [6,7], b.y [7,8.5]
    /// setup [10,12] (outside the root)
    fn tree() -> Vec<Span> {
        vec![
            sp("root", 0.0, 10.0, None),
            sp("a", 1.0, 4.0, Some(0)),
            sp("a.x", 2.0, 3.0, Some(1)),
            sp("b", 5.0, 9.0, Some(0)),
            sp("b.y", 6.0, 7.0, Some(3)),
            sp("b.y", 7.0, 8.5, Some(3)),
            sp("setup", 10.0, 12.0, None),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own = self_times(&tree());
        assert_eq!(own, vec![3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn layers_plus_remainder_equal_the_root() {
        let spans = tree();
        let (layers, remainder) = layer_breakdown(&spans, 0);
        assert_eq!(remainder, 3.0);
        assert_eq!(layers["a"], 2.0);
        assert_eq!(layers["a.x"], 1.0);
        assert_eq!(layers["b"], 1.5);
        assert_eq!(layers["b.y"], 2.5);
        assert!(!layers.contains_key("setup"));
        let total: f64 = layers.values().sum::<f64>() + remainder;
        assert!((total - spans[0].seconds()).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", || 1);
        assert_eq!(v, 1);
        let id = t.enter("root");
        t.span("child", || ());
        t.exit(id);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, None);
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(t.to_jsonl().lines().count(), 3);

        let mut off = Tracer::new(false);
        let id = off.enter("root");
        off.span("child", || ());
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
