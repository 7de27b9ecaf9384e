//! Host-time spans recorded around the benchmark's calls into each
//! layer. Spans stay in memory and are written out when the run ends;
//! with tracing off a span is just the call.

use snap_telemetry::{ChromeTrace, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Spans of one serve session share this id (0 = none).
    group: u64,
}

/// A span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    track: i64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            track: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; `epoch` is shared by every track of a run so
    /// their timestamps line up.
    pub fn on(epoch: Instant, track: i64) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            track,
            ..Tracer::off()
        }
    }

    /// A fresh recorder on another track with the same on/off state and
    /// epoch (for a client thread).
    pub fn fork(&self, track: i64) -> Tracer {
        match self.epoch {
            Some(epoch) => Tracer::on(epoch, track),
            None => Tracer::off(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.begin(name, group);
        let out = f(self);
        self.end(id);
        out
    }

    /// Open a span; spans opened until the matching [`Tracer::end`]
    /// become its children.
    pub fn begin(&mut self, name: &'static str, group: u64) -> Option<usize> {
        let epoch = self.epoch?;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            group,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        if let (Some(epoch), Some(id)) = (self.epoch, id) {
            self.open.pop();
            self.spans[id].end_ns = epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Self time per span name, in µs: each span's duration minus the
    /// time its direct children cover (children nest, so they never
    /// overlap one another).
    pub fn self_time_us(&self, into: &mut BTreeMap<String, f64>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *into.entry(s.name.to_string()).or_default() += own as f64 / 1e3;
        }
    }

    /// Add this track's spans to a Chrome trace on host-time axes.
    pub fn export(&self, chrome: &mut ChromeTrace, track_name: &str) {
        chrome.thread_name(self.track, track_name);
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = Value::obj();
            args.set("id", Value::Int(id as i64));
            if let Some(p) = s.parent {
                args.set("parent", Value::Int(p as i64));
            }
            if s.group != 0 {
                args.set("session", Value::Int(s.group as i64));
            }
            chrome.complete(
                self.track,
                s.name,
                s.start_ns * 1_000,
                s.end_ns * 1_000,
                args,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on(Instant::now(), 1);
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let mut own = BTreeMap::new();
        t.self_time_us(&mut own);
        assert!(own["inner"] >= 4_000.0);
        assert!(own["outer"] < own["inner"], "{own:?}");
        let mut chrome = ChromeTrace::new();
        t.export(&mut chrome, "main");
        snap_telemetry::validate_chrome_trace(&chrome.to_json()).unwrap();
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 0, |_| 7), 7);
        let mut own = BTreeMap::new();
        t.self_time_us(&mut own);
        assert!(own.is_empty());
    }
}
