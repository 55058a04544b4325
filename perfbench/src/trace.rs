//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent and the allocations made
//! while it was open. Spans are only written out when the run ends, and a
//! layer's figure is its *self* time: the span's duration minus the part
//! its child spans cover.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    /// Totals of the direct children, added as each child closes.
    child_ns: u64,
    child_allocs: u64,
}

/// Self cost of one span.
#[derive(Debug, Clone, Copy)]
pub struct SelfCost {
    /// Nanoseconds not covered by child spans.
    pub ns: u64,
    /// Allocations not made inside child spans.
    pub allocs: u64,
}

impl SelfCost {
    pub fn secs(self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // reserved so that recording never allocates inside a span
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(16),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            child_ns: 0,
            child_allocs: 0,
        });
        self.open.push(idx);
        let a0 = alloc::allocations();
        let t0 = self.now_ns();
        let out = f(self);
        let t1 = self.now_ns();
        let a1 = alloc::allocations();
        self.open.pop();
        let s = &mut self.spans[idx];
        s.start_ns = t0;
        s.end_ns = t1;
        s.allocs = a1 - a0;
        if let Some(p) = s.parent {
            let p = &mut self.spans[p];
            p.child_ns += t1 - t0;
            p.child_allocs += a1 - a0;
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn self_cost(s: &Span) -> SelfCost {
        SelfCost {
            ns: s.end_ns - s.start_ns - s.child_ns,
            allocs: s.allocs - s.child_allocs,
        }
    }

    /// Self cost of every span named `name`, in recording order.
    pub fn self_costs(&self, name: &str) -> Vec<SelfCost> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::self_cost)
            .collect()
    }

    /// Total (not self) seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// All spans as JSON lines (`id`, `name`, `parent`, `start_ns`,
    /// `end_ns`, `allocs`, `self_ns`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = Self::self_cost(s).ns;
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
        out
    }
}
