//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span
//! (name, start, end, parent, run id); nothing inside the program is
//! instrumented. Spans stay in memory until the run ends, then are
//! written once as Chrome trace-event JSON and summarised as per-name
//! self time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one request, cell probe or pass.
    pub run: u64,
    /// `layer.operation`, e.g. `sim_kernel.boot`.
    pub name: &'static str,
    /// Offset from the tracer's creation.
    pub start: Duration,
    /// Offset from the tracer's creation.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span offsets count from now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id for a run (or a span).
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so it can parent spans of its own.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        run: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id();
        let start = self.t0.elapsed();
        let out = f(id);
        let end = self.t0.elapsed();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking probe")
            .push(Span {
                id,
                parent,
                run,
                name,
                start,
                end,
            });
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking probe")
            .clone()
    }
}

/// Runs `f` inside a span when a tracer is given, and plainly
/// otherwise; `f` receives the span's id, if any.
pub fn maybe<T>(
    t: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    run: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match t {
        Some(t) => t.span(name, parent, run, |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<(u64, Duration)> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach).min(s.end);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Per span name: (count, total, self time), sorted by self time,
/// largest first.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, Duration, Duration)> {
    let selfs: BTreeMap<u64, Duration> = self_times(spans).into_iter().collect();
    let mut by_name: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
/// one lane per run id, parent and run ids in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let records: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"run\":{}}}}}",
                s.name,
                s.layer(),
                s.start.as_micros(),
                s.dur().as_micros().max(1),
                s.run,
                s.id,
                parent,
                s.run
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        records.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name,
            start: Duration::from_millis(a),
            end: Duration::from_millis(b),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(2, Some(1), "b.child", 10, 30),
            span(3, Some(1), "b.child", 20, 40), // overlaps the first
            span(4, Some(1), "c.child", 60, 70),
            span(1, None, "a.root", 0, 100),
        ];
        let selfs: BTreeMap<u64, Duration> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&1], Duration::from_millis(100 - 30 - 10));
        assert_eq!(selfs[&2], Duration::from_millis(20));
        let rows = summary(&spans);
        assert_eq!(rows[0].0, "a.root");
        let child = rows.iter().find(|r| r.0 == "b.child").unwrap();
        assert_eq!((child.1, child.2), (2, Duration::from_millis(40)));
    }

    #[test]
    fn tracer_records_nesting_and_exports_valid_json() {
        let t = Tracer::new();
        let run = t.next_id();
        let v = t.span("core.outer", None, run, |id| {
            t.span("uarch.inner", Some(id), run, |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans.iter().all(|s| s.run == run));
        assert_eq!(spans[0].layer(), "uarch");
        let json = chrome_trace_json(&spans);
        spectrebench::obs::trace::validate_json(&json).unwrap();
    }
}
