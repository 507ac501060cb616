//! The traced run's span recorder.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it serves. Spans stay in memory and are written out when
//! the run ends. A disabled recorder records nothing.

use crate::pace::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 = no parent).
    pub id: u64,
    /// The span that caused this one.
    pub parent: u64,
    /// Request id shared by the spans of one operation.
    pub req: u64,
    /// Layer-qualified name, e.g. `switch.process_frames`.
    pub name: String,
    /// Benchmark-epoch ns.
    pub start: u64,
    /// Benchmark-epoch ns; 0 while open.
    pub end: u64,
}

/// The recorder.
pub struct Spans {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; returns its id (0 when disabled).
    pub fn begin(&self, name: &str, parent: u64, req: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("spans");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            req,
            name: name.to_owned(),
            start: now_ns(),
            end: 0,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&self, id: u64) {
        if id == 0 {
            return;
        }
        let t = now_ns();
        self.spans.lock().expect("spans")[id as usize - 1].end = t;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.begin(name, parent, req);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded, in opening order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("spans"))
    }
}

/// Per-name totals: (count, total ns, self ns).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0 && s.end != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut table: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.end != 0) {
        let total = s.end - s.start;
        // Self time: the span minus the union of its children's intervals.
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        let e = table.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered.min(total);
    }
    table
}

/// The span dump as JSON lines.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "a", 30, 50), // overlaps the first child
            span(4, 1, "b", 70, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 100, 100 - 40 - 10));
        assert_eq!(t["a"], (2, 50, 50));
        assert_eq!(t["b"], (1, 10, 10));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let s = Spans::new(false);
        let id = s.begin("x", 0, 0);
        s.end(id);
        assert_eq!(id, 0);
        assert!(s.take().is_empty());
    }
}
