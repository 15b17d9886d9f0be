//! Spans and counters recorded from outside the library: the replays open a
//! named span around each call into a layer's public API, and a layer's
//! self time is its span minus the part of that interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span, times in seconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Handle returned by [`Recorder::open`]; pass it back to [`Recorder::close`].
#[derive(Debug)]
#[must_use = "an opened span must be closed"]
pub struct Open(usize);

/// Serial span stack plus named counters for one replay.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Open a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close the innermost open span, which must be `span`.
    pub fn close(&mut self, span: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end = self.origin.elapsed().as_secs_f64();
    }

    /// Add `by` to counter `name`.
    pub fn add(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, summed over every span of that name: each
/// span's duration minus the union of its children's intervals clipped to
/// the span, so overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_length(kids, s.start, s.end);
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_length(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_on_hand_built_tree() {
        // root [0,10] with children a [1,4] and b [3,6] overlapping, c [8,12]
        // running past the root, and a grandchild g [2,3] under a.
        let spans = [
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0),
            span("c", Some(0), 8.0, 12.0),
            span("g", Some(1), 2.0, 3.0),
        ];
        let t = self_times(&spans);
        // Children cover [1,6] and [8,10] of the root: 7 of its 10 s.
        assert_eq!(t["root"], 3.0);
        assert_eq!(t["a"], 2.0);
        assert_eq!(t["b"], 3.0);
        assert_eq!(t["c"], 4.0);
        assert_eq!(t["g"], 1.0);
    }

    #[test]
    fn self_times_of_one_name_add_up() {
        let spans = [
            span("root", None, 0.0, 10.0),
            span("x", Some(0), 0.0, 2.0),
            span("x", Some(0), 5.0, 6.5),
        ];
        let t = self_times(&spans);
        assert_eq!(t["x"], 3.5);
        assert_eq!(t["root"], 6.5);
    }

    #[test]
    fn serial_recorder_self_times_sum_to_root() {
        let mut rec = Recorder::new();
        let root = rec.open("root");
        let a = rec.open("a");
        let b = rec.open("b");
        rec.close(b);
        rec.close(a);
        rec.add("n", 2);
        rec.add("n", 3);
        rec.close(root);
        let s = &rec.spans()[0];
        let total: f64 = self_times(rec.spans()).values().sum();
        assert!((total - (s.end - s.start)).abs() < 1e-12);
        assert_eq!(rec.count("n"), 5);
        assert_eq!(rec.count("missing"), 0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut rec = Recorder::new();
        let a = rec.open("a");
        let _b = rec.open("b");
        rec.close(a);
    }
}
