//! Host-time attribution from outside the layers.
//!
//! Every workload loop is generic over a [`Probe`]. Untraced runs use
//! [`NoProbe`], whose methods are empty and inline away, so the measured
//! path calls each layer directly and reads no clock except the per-op
//! timer. Traced runs use [`Tracer`], which times every call the harness
//! makes into a layer.
//!
//! Calls at operation level and above (a replication, a build, a move, a
//! migration, an eviction, a checkpoint move, a `run_build`) are recorded
//! as spans with a name, layer, start, end, parent span and op id; spans of
//! one operation share the op id. High-frequency calls (minute ticks, load
//! reports, activity lookups, cell handlers) are only counted and summed
//! per (layer, name), which keeps memory bounded. Both kinds nest on one
//! stack, so a layer's self time is its calls' time minus the time their
//! children cover, and the self times of all layers add up to the wall
//! time of the outermost span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The repository's modules, as the benchmark attributes host time to them.
/// `Bench` is the harness itself: work done between layer calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Sim,
    Kernel,
    Core,
    Vm,
    Hostsel,
    Workloads,
    Pmake,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Sim,
        Layer::Kernel,
        Layer::Core,
        Layer::Vm,
        Layer::Hostsel,
        Layer::Workloads,
        Layer::Pmake,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Sim => "sim",
            Layer::Kernel => "kernel",
            Layer::Core => "core",
            Layer::Vm => "vm",
            Layer::Hostsel => "hostsel",
            Layer::Workloads => "workloads",
            Layer::Pmake => "pmake",
        }
    }
}

/// Where a workload loop reports the layer calls it makes.
pub trait Probe {
    /// Whether this probe times anything (selects traced cell wrappers).
    const ON: bool;

    /// Runs `f` as one recorded span: an operation-level call.
    fn span<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T;

    /// Runs `f` as one call of a high-frequency function: counted and
    /// timed, not recorded.
    fn call<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T;

    /// Books `calls` calls totalling `ns` of host time, measured inside the
    /// currently open span by code the probe cannot wrap (simulation cells
    /// run by the engine).
    fn book(&self, layer: Layer, name: &'static str, calls: u64, ns: u64);

    /// Starts a new operation: spans opened from now on share a fresh op id.
    fn next_op(&self);
}

/// The untraced probe.
pub struct NoProbe;

impl Probe for NoProbe {
    const ON: bool = false;

    #[inline(always)]
    fn span<T>(&self, _: Layer, _: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn call<T>(&self, _: Layer, _: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn book(&self, _: Layer, _: &'static str, _: u64, _: u64) {}

    #[inline(always)]
    fn next_op(&self) {}
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing recorded span.
    pub parent: Option<usize>,
    pub op: u64,
}

/// Count and inclusive host time of one (layer, name) call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTotals {
    pub calls: u64,
    pub ns: u64,
}

struct Frame {
    start: Instant,
    child_ns: u64,
    layer: Layer,
    name: &'static str,
    span: Option<usize>,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    spans: Vec<SpanRecord>,
    calls: BTreeMap<(Layer, &'static str), CallTotals>,
    self_ns: [u64; Layer::ALL.len()],
    op: u64,
}

/// The traced probe.
pub struct Tracer {
    t0: Instant,
    state: RefCell<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    fn timed<T>(&self, layer: Layer, name: &'static str, record: bool, f: impl FnOnce() -> T) -> T {
        self.enter(layer, name, record);
        let out = f();
        self.exit();
        out
    }

    fn enter(&self, layer: Layer, name: &'static str, record: bool) {
        let mut s = self.state.borrow_mut();
        let span = record.then(|| {
            let parent = s.stack.iter().rev().find_map(|f| f.span);
            let op = s.op;
            s.spans.push(SpanRecord {
                name,
                layer,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            s.spans.len() - 1
        });
        let start = Instant::now();
        if let Some(i) = span {
            s.spans[i].start_ns = nanos(self.t0, start);
        }
        s.stack.push(Frame {
            start,
            child_ns: 0,
            layer,
            name,
            span,
        });
    }

    fn exit(&self) {
        let end = Instant::now();
        let mut s = self.state.borrow_mut();
        let frame = s.stack.pop().expect("every exit matches an enter");
        let dur = nanos(frame.start, end);
        s.self_ns[frame.layer as usize] += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = frame.span {
            s.spans[i].end_ns = nanos(self.t0, end);
        }
        let totals = s.calls.entry((frame.layer, frame.name)).or_default();
        totals.calls += 1;
        totals.ns += dur;
    }

    /// Self time per layer, in [`Layer::ALL`] order.
    pub fn self_ns(&self) -> [u64; Layer::ALL.len()] {
        self.state.borrow().self_ns
    }

    /// Count and inclusive time of every call site.
    #[cfg(test)]
    pub fn calls(&self) -> BTreeMap<(Layer, &'static str), CallTotals> {
        self.state.borrow().calls.clone()
    }

    /// The recorded spans, in the order they were opened.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.borrow().spans.clone()
    }

    /// Spans, then per-call-site totals, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let s = self.state.borrow();
        let mut out = String::new();
        for (i, sp) in s.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                sp.name,
                sp.layer.label(),
                sp.start_ns,
                sp.end_ns,
                sp.op
            );
        }
        for ((layer, name), c) in &s.calls {
            let _ = writeln!(
                out,
                "{{\"calls\":{},\"name\":\"{name}\",\"layer\":\"{}\",\"ns\":{}}}",
                c.calls,
                layer.label(),
                c.ns
            );
        }
        out
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    fn span<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, true, f)
    }

    fn call<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, false, f)
    }

    fn book(&self, layer: Layer, name: &'static str, calls: u64, ns: u64) {
        let mut s = self.state.borrow_mut();
        s.self_ns[layer as usize] += ns;
        if let Some(top) = s.stack.last_mut() {
            top.child_ns += ns;
        }
        let totals = s.calls.entry((layer, name)).or_default();
        totals.calls += calls;
        totals.ns += ns;
    }

    fn next_op(&self) {
        self.state.borrow_mut().op += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while nanos(t, Instant::now()) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_root_span() {
        let tr = Tracer::default();
        tr.span(Layer::Bench, "run", || {
            spin(200_000);
            tr.next_op();
            tr.span(Layer::Core, "migrate", || {
                spin(300_000);
                tr.call(Layer::Vm, "write", || spin(100_000));
            });
            tr.call(Layer::Kernel, "spawn", || spin(100_000));
            tr.book(Layer::Sim, "cell", 3, 50_000);
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        let wall = spans[0].end_ns - spans[0].start_ns;
        let total: u64 = tr.self_ns().iter().sum();
        assert_eq!(total, wall, "self times telescope to the root span");
        let calls = tr.calls();
        assert_eq!(calls[&(Layer::Sim, "cell")].calls, 3);
        assert!(tr.self_ns()[Layer::Vm as usize] >= 100_000);
        assert!(tr.to_jsonl().lines().count() == 2 + calls.len());
    }
}
