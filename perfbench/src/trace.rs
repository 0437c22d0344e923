//! Spans recorded by the benchmark around its own calls into the program.
//!
//! A span has a name, start, end, parent and the job or request id it
//! belongs to. Nesting is implicit: a span opened inside another's closure
//! is its child. Spans stay in memory until the run ends. With tracing off
//! [`Trace::span`] only calls its closure, so the untraced run pays one
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
    /// Which recording thread produced the span (client index in serve).
    pub thread: usize,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder for one thread.
pub struct Trace {
    on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Trace {
        Trace {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Trace {
        Trace::new(false, Instant::now(), 0)
    }

    /// Run `f` inside a span named `name`; spans `f` opens on the trace it
    /// is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start,
            end: start,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Append another thread's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's duration minus the time its direct children cover
    /// (children of one span never overlap: they run on its thread).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own
    }

    /// Summed self time (seconds) of the spans named `name`, per id, in id
    /// order.
    pub fn self_by_id(&self, name: &str) -> BTreeMap<u64, f64> {
        let own = self.self_times();
        let mut by_id = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.name == name {
                *by_id.entry(s.id).or_insert(0.0) += t;
            }
        }
        by_id
    }

    /// Durations (seconds) of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Max over root spans of |Σ self time of its descendants − root
    /// duration| ÷ root duration: the share of a root the layer spans
    /// below it fail to account for.
    pub fn reconcile_err(&self) -> f64 {
        let own = self.self_times();
        let mut covered = vec![0.0; self.spans.len()];
        for (i, t) in own.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            if root != i {
                covered[root] += t;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.dur() > 0.0)
            .map(|(i, s)| (covered[i] - s.dur()).abs() / s.dur())
            .fold(0.0, f64::max)
    }

    /// The spans as a JSON array (times in microseconds since the epoch).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"idx\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"thread\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.id,
                s.thread,
                s.start * 1e6,
                s.end * 1e6,
            );
        }
        out.push_str("\n]\n");
        out
    }
}
