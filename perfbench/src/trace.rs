//! Spans recorded around the public layer calls a traced replay makes, and
//! the summary statistics both the timed and the traced runs report.
//!
//! A span is `(name, request, parent, start, end, arg)`. Names are the
//! module of the layer the call enters (`core.reduction`,
//! `qaoa.evaluator.energy`, ...). Spans stay in memory and are written out
//! once, when the run ends.

use qaoa::evaluator::EnergyEvaluator;
use qaoa::params::QaoaParams;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A call-specific count: qubits of an energy call, trajectories of a
    /// noisy one, simulated cones of an edge-local point, and so on.
    pub arg: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Methods take `&self` so an evaluator wrapper can
/// record spans while the optimizer that drives it holds other borrows.
pub struct Tracer {
    origin: Instant,
    request: std::cell::Cell<usize>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            request: std::cell::Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Runs one request as a root span named `request`; spans opened inside
    /// `f` carry its request id.
    pub fn request<T>(&self, id: usize, f: impl FnOnce(usize) -> T) -> T {
        self.request.set(id);
        self.span("request", None, 0, f)
    }

    /// Times `f` as a span under `parent`; `f` receives the new span's id to
    /// pass to its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        arg: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                request: self.request.get(),
                parent,
                start_ns: 0,
                end_ns: 0,
                arg,
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let value = f(id);
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        value
    }

    /// Renames a span once its call has shown what it was (a cache hit or
    /// a miss).
    pub fn rename(&self, id: usize, name: &'static str) {
        self.spans.borrow_mut()[id].name = name;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Total seconds of the spans named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.named(name).iter().map(Span::secs).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans().iter().filter(|s| s.name == name).count()
    }

    /// Sum of the `arg` fields of the spans named `name`.
    pub fn arg_sum(&self, name: &str) -> u64 {
        self.named(name).iter().map(|s| s.arg).sum()
    }

    /// Median duration in seconds of the spans named `name` (0 if none).
    pub fn p50(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self.named(name).iter().map(Span::secs).collect();
        if durations.is_empty() {
            0.0
        } else {
            median(&durations)
        }
    }

    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .copied()
            .collect()
    }

    /// Total seconds of the root (`request`) spans.
    pub fn request_secs(&self) -> f64 {
        self.busy("request")
    }

    /// Share of request wall time not covered by any direct child span of
    /// the request.
    pub fn uncovered_frac(&self) -> f64 {
        let spans = self.spans();
        let mut covered = 0.0;
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                if spans[parent].name == "request" {
                    covered += span.secs();
                }
            }
        }
        let total = self.request_secs();
        if total > 0.0 {
            (total - covered) / total
        } else {
            0.0
        }
    }

    /// Seconds of the spans named `name` minus the time of their direct
    /// children (the layer's self time).
    pub fn self_secs(&self, name: &str) -> f64 {
        let spans = self.spans();
        let mut total = 0.0;
        for span in spans.iter() {
            if span.name == name {
                total += span.secs();
            } else if let Some(parent) = span.parent {
                if spans[parent].name == name {
                    total -= span.secs();
                }
            }
        }
        total
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"arg\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns, s.arg
            );
        }
        out.push(']');
        out
    }
}

/// An [`EnergyEvaluator`] that records every `energy` call as a span under
/// `parent`, with `arg` as the span's count. Values, scratch and call order
/// are the wrapped evaluator's, so an optimizer driven through it takes the
/// same path bit for bit.
pub struct Timed<'a, E> {
    pub inner: &'a E,
    pub tracer: &'a Tracer,
    pub name: &'static str,
    pub parent: usize,
    pub arg: u64,
}

impl<E: EnergyEvaluator> EnergyEvaluator for Timed<'_, E> {
    type Scratch = E::Scratch;

    fn layers(&self) -> usize {
        self.inner.layers()
    }

    fn scratch(&self) -> Self::Scratch {
        self.inner.scratch()
    }

    fn energy(&self, scratch: &mut Self::Scratch, index: u64, params: &QaoaParams) -> f64 {
        self.tracer
            .span(self.name, Some(self.parent), self.arg, |_| {
                self.inner.energy(scratch, index, params)
            })
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
