//! In-memory spans recorded around calls into the program's public
//! entry points. Nothing here runs inside the program: a span starts
//! before a call and ends after it returns.

use crate::json::quote;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `injector.run_one`.
    pub name: &'static str,
    /// Outcome class or other label attached when the span ended.
    pub tag: Option<&'static str>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Plan index of the injection run this span belongs to, if any.
    pub job: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag: None,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: None,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) -> &mut Span {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s
    }

    /// Times `f` as a leaf span and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in span `id`.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Every span's self time: its duration minus the part of it that
    /// its children cover. Children of one span never overlap (spans
    /// are recorded on one thread), so coverage is the sum of their
    /// durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(&covered).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
    }

    /// Indices of every span strictly inside `root`.
    pub fn descendants(&self, root: usize) -> Vec<usize> {
        let mut inside = vec![false; self.spans.len()];
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                if p == root || inside[p] {
                    inside[i] = true;
                    out.push(i);
                }
            }
        }
        out
    }

    /// The spans as JSON lines, one object per span, with self time.
    pub fn to_jsonl(&self, run: &str) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{i},\"name\":{},\"tag\":{},\"parent\":{},\"job\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                quote(run),
                quote(s.name),
                s.tag.map(quote).unwrap_or_else(|| "null".into()),
                s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
                s.job.map(|j| j.to_string()).unwrap_or_else(|| "null".into()),
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.time("b", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(root);
        let self_ns = t.self_ns();
        let total: u64 = self_ns.iter().sum();
        assert_eq!(total, t.spans()[root].dur_ns(), "self times partition the root");
        assert_eq!(t.descendants(root), vec![a, a + 1]);
        assert!(t.to_jsonl("r").lines().count() == 3);
    }
}
