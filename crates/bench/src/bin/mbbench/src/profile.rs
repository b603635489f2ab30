//! In-memory spans for the profile run.
//!
//! A span marks one call from the benchmark into a layer (a platform
//! build, one `run_until_gpio`, a checkpoint save, ...). Spans are kept
//! in memory and written out only when the run ends, so the profile run
//! does no I/O while it measures. With the tracer off, opening a span
//! costs one flag test.

use crate::json::quote;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The measured iteration the span belongs to.
    pub iter: u32,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    iter: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: Cell::new(false),
            origin: Instant::now(),
            iter: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off and tags later spans with `iter`.
    pub fn set(&self, on: bool, iter: u32) {
        self.on.set(on);
        self.iter.set(iter);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested in the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on.get() {
            return SpanGuard { tracer: self, idx: None };
        }
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            iter: self.iter.get(),
        });
        self.open.borrow_mut().push(idx);
        SpanGuard { tracer: self, idx: Some(idx) }
    }

    /// Self time per span name (its duration minus the part its child
    /// spans cover), in seconds, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans.borrow();
        let mut self_ns: Vec<i128> =
            spans.iter().map(|s| i128::from(s.end_ns) - i128::from(s.start_ns)).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                self_ns[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in spans.iter().zip(self_ns) {
            let secs = ns as f64 / 1e9;
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += secs,
                None => by_name.push((s.name, secs)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// All spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let spans = self.spans.borrow();
        let items: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"iter\": {}}}",
                    quote(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                    s.iter
                )
            })
            .collect();
        format!("[\n    {}\n  ]", items.join(",\n    "))
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[idx].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let t = Tracer::new();
        {
            let _off = t.span("ignored");
        }
        t.set(true, 3);
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(8));
        }
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].iter), (Some(0), 3));
        let st = t.self_times();
        let get = |n: &str| st.iter().find(|(m, _)| *m == n).unwrap().1;
        assert!(get("inner") >= 0.008 && get("outer") >= 0.004);
        let total: f64 = st.iter().map(|(_, s)| s).sum();
        let outer_dur = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        assert!((total - outer_dur).abs() < 1e-9, "self times partition the root span");
        assert!(t.spans_json().contains("\"parent\": 0"));
    }
}
