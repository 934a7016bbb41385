//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Nothing inside the dtr crates is instrumented: every span here wraps
//! one call the benchmark makes into a layer's public function, or is
//! synthesized from a public counter (`DurableSession::wal_commit_nanos`,
//! ...) or from a probe call that repeats a sub-step the layer does not
//! expose (marked `synthetic`). Spans stay in memory and are written out
//! when the run ends.
//!
//! A traced run alternates traced and untraced steps, so the untraced
//! half of the same stream measures what tracing costs.

use crate::host::HostSpeed;
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Operation (request) the span belongs to; 0 outside any operation.
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration taken from a counter or a probe rather than a wrapped call.
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A delay the benchmark adds inside every span of one name — the
/// attribution self-test's knob. It is added whether or not the step is
/// traced, so it shows in end-to-end numbers too.
#[derive(Clone, Copy, Debug)]
pub struct Inject {
    pub span: &'static str,
    pub delay: Duration,
}

/// How a layer metric aggregates a span name.
#[derive(Clone, Copy, Debug)]
pub enum Agg {
    /// Whole span duration.
    Total,
    /// Span duration minus its children's.
    SelfTime,
}

pub struct Tracer {
    origin: Instant,
    /// Kernel samples taken before each operation.
    pub host: HostSpeed,
    last_op: Cell<(f64, f64)>,
    traced_mode: bool,
    step_on: Cell<bool>,
    steps: Cell<u64>,
    requests: Cell<u64>,
    current_request: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<SpanId>>,
    inject: Option<Inject>,
}

impl Tracer {
    pub fn new(traced_mode: bool, inject: Option<Inject>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            host: HostSpeed::new(),
            last_op: Cell::new((0.0, 0.0)),
            traced_mode,
            step_on: Cell::new(false),
            steps: Cell::new(0),
            requests: Cell::new(0),
            current_request: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            inject,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a measured step: traced on every other step of a traced run.
    pub fn begin_step(&self) {
        self.begin_step_forced(false);
    }

    /// Starts a measured step, traced in a traced run when `force` is set
    /// (a rare step that must not fall on the untraced half).
    pub fn begin_step_forced(&self, force: bool) {
        let n = self.steps.get();
        self.steps.set(n + 1);
        self.step_on
            .set(self.traced_mode && (force || n.is_multiple_of(2)));
    }

    /// Starts set-up work: always traced in a traced run.
    pub fn begin_setup(&self) {
        self.step_on.set(self.traced_mode);
    }

    /// Whether spans are being recorded for the current step.
    pub fn on(&self) -> bool {
        self.step_on.get()
    }

    fn delay(&self, name: &str) {
        if let Some(inj) = self.inject {
            if inj.span == name {
                std::thread::sleep(inj.delay);
            }
        }
    }

    fn open(&self, name: &'static str) -> SpanId {
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            request: self.current_request.get(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            synthetic: false,
        });
        let id = spans.len() - 1;
        self.stack.borrow_mut().push(id);
        id
    }

    fn close(&self, id: SpanId) {
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = end;
    }

    /// Wraps one call into a layer.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on() {
            self.delay(name);
            return f();
        }
        let id = self.open(name);
        self.delay(name);
        let out = f();
        self.close(id);
        out
    }

    /// Wraps one end-to-end operation. Always timed, after kernel samples
    /// of the host's speed when one is due; recorded as a root span with a
    /// fresh request id when the step is traced. Returns the value, the
    /// wall time in milliseconds and the root span, if any.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64, Option<SpanId>) {
        let request = self.requests.get() + 1;
        self.requests.set(request);
        self.host.tick();
        let start = self.host.now_s();
        if !self.on() {
            let t = Instant::now();
            let out = f();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.last_op.set((start, self.host.now_s()));
            return (out, ms, None);
        }
        self.current_request.set(request);
        let id = self.open(name);
        let out = f();
        self.close(id);
        self.last_op.set((start, self.host.now_s()));
        self.current_request.set(0);
        let ms = self.spans.borrow()[id].dur_ns() as f64 / 1e6;
        (out, ms, Some(id))
    }

    /// The interval of the last operation, in `host` seconds.
    pub fn last_op(&self) -> (f64, f64) {
        self.last_op.get()
    }

    /// The most recently opened span named `name`.
    pub fn latest(&self, name: &str) -> Option<SpanId> {
        let spans = self.spans.borrow();
        (0..spans.len()).rev().find(|&i| spans[i].name == name)
    }

    /// Adds a synthetic child of `parent` lasting `dur_ns`, placed at the
    /// parent's start (or ending at its end, when `at_end`). A probe may
    /// outlast the call it stands for; the parent's self time then reads
    /// negative rather than being clipped.
    pub fn attach(&self, parent: SpanId, name: &'static str, dur_ns: u64, at_end: bool) {
        let mut spans = self.spans.borrow_mut();
        let p = spans[parent].clone();
        let start = if at_end {
            p.end_ns.saturating_sub(dur_ns)
        } else {
            p.start_ns
        };
        spans.push(Span {
            name,
            request: p.request,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + dur_ns,
            synthetic: true,
        });
    }

    /// Renames a span (e.g. a plan lookup once it is known to have hit).
    pub fn rename(&self, id: SpanId, name: &'static str) {
        self.spans.borrow_mut()[id].name = name;
    }

    /// Per-span durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str, agg: Agg) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        if matches!(agg, Agg::SelfTime) {
            for s in spans.iter() {
                if let Some(p) = s.parent {
                    child_ns[p] += s.dur_ns();
                }
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.dur_ns() as f64 - child_ns[i] as f64) / 1e6)
            .collect()
    }

    /// Share (%) of operation-root time not covered by a child span.
    pub fn unattributed_pct(&self) -> f64 {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let (mut total, mut unattributed) = (0u64, 0i64);
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() && s.name.starts_with("op.") {
                total += s.dur_ns();
                unattributed += s.dur_ns() as i64 - covered[i] as i64;
            }
        }
        if total == 0 {
            0.0
        } else {
            100.0 * unattributed as f64 / total as f64
        }
    }

    /// Every recorded span, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"synthetic\":{}}}\n",
                s.name, s.request, parent, s.start_ns, s.end_ns, s.synthetic
            ));
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_count_as_unattributed() {
        let tr = Tracer::new(true, None);
        tr.begin_step();
        let (_, _, root) = tr.op("op.x", || {
            tr.span("a", || std::thread::sleep(Duration::from_millis(3)));
            std::thread::sleep(Duration::from_millis(1));
        });
        let root = root.expect("traced step records a root");
        tr.attach(root, "c", 1_000_000, true);
        let a = tr.durations_ms("a", Agg::SelfTime);
        assert_eq!(a.len(), 1);
        assert!(a[0] >= 3.0);
        let root_self = tr.durations_ms("op.x", Agg::SelfTime)[0];
        let root_total = tr.durations_ms("op.x", Agg::Total)[0];
        assert!(root_self < root_total - 3.0);
        let u = tr.unattributed_pct();
        assert!((0.0..100.0).contains(&u), "{u}");
        // The next step is untraced: nothing more is recorded.
        tr.begin_step();
        let n = tr.span_count();
        let (_, ms, id) = tr.op("op.x", || tr.span("a", || ()));
        assert!(id.is_none() && ms >= 0.0);
        assert_eq!(tr.span_count(), n);
    }
}
