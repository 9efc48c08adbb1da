//! In-memory span recorder for the span run.
//!
//! A span is one timed call into a layer: its name (`<crate>.<what>`), the
//! op it belongs to, its parent span, start and duration. Calls made once
//! per event (serializing a trace line, appending a journal record) are
//! folded: all calls of one name under one parent sum into a single span
//! whose `calls` counts them, so the recorder does not grow with the event
//! count. A span's self time is its duration minus its children's.
//!
//! When the recorder is off every method is a branch and a direct call, so
//! the spans-off rounds measure the program, not the recorder.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
    /// Work items the call handled: tasks, events or records, per layer.
    pub units: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Folded spans still accepting calls: `(parent, name, index)`.
    folds: Vec<(Option<usize>, &'static str, usize)>,
    op: u64,
}

pub struct Spans {
    enabled: Cell<bool>,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { enabled: Cell::new(false), epoch: Instant::now(), inner: RefCell::default() }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as a new op: a root span named `name`.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.enabled() {
            let mut inner = self.inner.borrow_mut();
            inner.op += 1;
            assert!(inner.stack.is_empty(), "an op cannot nest inside another op");
        }
        self.span(name, 0, f)
    }

    /// Run `f` as a child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, units: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let idx = {
            let start_ns = self.now_ns();
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len();
            let (op, parent) = (inner.op, inner.stack.last().copied());
            inner.spans.push(Span { name, op, parent, start_ns, dur_ns: 0, calls: 1, units });
            inner.stack.push(idx);
            idx
        };
        let out = f();
        self.close(idx);
        out
    }

    fn close(&self, idx: usize) {
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let span = &mut inner.spans[idx];
        span.dur_ns = end.saturating_sub(span.start_ns);
        inner.stack.pop();
        inner.folds.retain(|&(parent, _, _)| parent != Some(idx));
    }

    /// Start of a folded call, or `None` when recording is off.
    pub fn start(&self) -> Option<Instant> {
        self.enabled().then(Instant::now)
    }

    /// Fold one call that began at `start` into the span `name` under the
    /// innermost open span.
    pub fn fold(&self, name: &'static str, start: Option<Instant>, units: u64) {
        let Some(start) = start else { return };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let found = inner.folds.iter().find(|f| f.0 == parent && f.1 == name).map(|f| f.2);
        if let Some(idx) = found {
            let span = &mut inner.spans[idx];
            span.dur_ns += dur_ns;
            span.calls += 1;
            span.units += units;
        } else {
            let start_ns = self.now_ns().saturating_sub(dur_ns);
            let (idx, op) = (inner.spans.len(), inner.op);
            inner.spans.push(Span { name, op, parent, start_ns, dur_ns, calls: 1, units });
            inner.folds.push((parent, name, idx));
        }
    }

    /// Close every span left open by a panicking op.
    pub fn unwind(&self) {
        loop {
            let top = self.inner.borrow().stack.last().copied();
            match top {
                Some(idx) => self.close(idx),
                None => break,
            }
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.borrow_mut().spans)
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default)]
pub struct LayerTotal {
    pub self_ns: u64,
    /// Span records: one per call, or one per folded group of calls.
    pub spans: u64,
    pub calls: u64,
    pub units: u64,
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut out: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= i128::from(s.dur_ns);
        }
    }
    out
}

/// Result of the conservation check over the op spans.
#[derive(Debug, Default)]
pub struct Conservation {
    /// Spans whose children outlast them, or lie outside their interval.
    pub violations: Vec<String>,
    /// Summed wall time of the op root spans.
    pub op_ns: u64,
    /// Summed self time of the op root spans: time inside an op that no
    /// layer span covers.
    pub unattributed_ns: u64,
}

/// Check that per op the layer self times plus the unattributed time add
/// up to the op's wall time: no span may have negative self time, and a
/// plain child must lie inside its parent's interval. Only roots named
/// `op.*` count as ops; `check.*` roots hold the untimed oracles.
pub fn conservation(spans: &[Span]) -> Conservation {
    let selfs = self_times(spans);
    let mut out = Conservation::default();
    for (i, s) in spans.iter().enumerate() {
        if selfs[i] < 0 {
            out.violations
                .push(format!("{} (op {}): children exceed it by {} ns", s.name, s.op, -selfs[i]));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let inside = s.start_ns >= parent.start_ns
                && s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns;
            if s.calls == 1 && !inside {
                out.violations
                    .push(format!("{} (op {}) lies outside {}", s.name, s.op, parent.name));
            }
        }
        if s.parent.is_none() && s.name.starts_with("op.") {
            out.op_ns += s.dur_ns;
            out.unattributed_ns += u64::try_from(selfs[i].max(0)).unwrap_or(0);
        }
    }
    out
}

/// Totals per span name.
pub fn totals(spans: &[Span], name: &str) -> LayerTotal {
    let selfs = self_times(spans);
    let mut t = LayerTotal::default();
    for (i, s) in spans.iter().enumerate() {
        if s.name == name {
            t.self_ns += u64::try_from(selfs[i].max(0)).unwrap_or(0);
            t.spans += 1;
            t.calls += s.calls;
            t.units += s.units;
        }
    }
    t
}

/// Spans as JSON lines, for the spans file the span run leaves behind.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"calls\":{},\"units\":{}}}",
            s.name, s.op, parent, s.start_ns, s.dur_ns, s.calls, s.units
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_conserves() {
        let spans = Spans::new();
        spans.set_enabled(true);
        spans.op("op.x", || {
            spans.span("a.outer", 1, || {
                spans.span("b.inner", 1, || std::hint::black_box((0..1000).sum::<u64>()));
                for _ in 0..3 {
                    let t = spans.start();
                    std::hint::black_box((0..100).sum::<u64>());
                    spans.fold("c.each", t, 1);
                }
            })
        });
        let all = spans.take();
        assert_eq!(all.len(), 4);
        let each = all.iter().find(|s| s.name == "c.each").expect("folded span");
        assert_eq!(each.calls, 3);
        let selfs = self_times(&all);
        let total: i128 = selfs.iter().sum();
        assert_eq!(total, i128::from(all[0].dur_ns), "self times add up to the op's wall time");
        let c = conservation(&all);
        assert!(c.violations.is_empty(), "{:?}", c.violations);
        assert_eq!(c.op_ns, all[0].dur_ns);
    }

    #[test]
    fn a_child_longer_than_its_parent_is_a_violation() {
        let mk = |name, parent, start_ns, dur_ns| Span {
            name,
            op: 1,
            parent,
            start_ns,
            dur_ns,
            calls: 1,
            units: 0,
        };
        let spans = vec![mk("op.x", None, 0, 10), mk("a.y", Some(0), 5, 20)];
        assert_eq!(conservation(&spans).violations.len(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let spans = Spans::new();
        let v = spans.op("op.x", || spans.span("a.b", 1, || 7));
        assert_eq!(v, 7);
        spans.fold("c.d", spans.start(), 1);
        assert!(spans.take().is_empty());
    }
}
