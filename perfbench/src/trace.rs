//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a crate's public API; nothing inside the crates is
//! instrumented. Each span has a name, the crate (layer) it times, a
//! start, an end, the span that caused it, and the workload it belongs
//! to. Spans stay in memory and are written once, at exit, as a
//! Chrome-trace JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    pub end_s: f64,
    /// Small per-thread number, for the trace viewer's rows.
    pub tid: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

impl Tracer {
    pub fn new(enabled: bool, workload: &'static str) -> Self {
        Tracer {
            enabled,
            workload,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` on `layer`, child of `parent`.
    /// `f` receives the new span's id, to parent the spans it opens.
    /// A disabled recorder just calls `f(None)`.
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_s = self.epoch.elapsed().as_secs_f64();
        let out = f(Some(id));
        let end_s = self.epoch.elapsed().as_secs_f64();
        let span = Span {
            id,
            parent,
            name,
            layer,
            start_s,
            end_s,
            tid: thread_number(),
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone();
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
        spans
    }

    /// The recorded spans as a Chrome-trace JSON document.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
                     \"workload\":\"{}\",\"self_us\":{:.3}}}}}",
                    s.name,
                    s.layer,
                    s.tid,
                    s.start_s * 1e6,
                    s.dur_s() * 1e6,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self.workload,
                    selfs[&s.id] * 1e6,
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children on other threads overlap each other, so
/// this subtracts their union, not their sum).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_s() - covered(kids, s.start_s, s.end_s))
        })
        .collect()
}

/// Sum of the durations of the spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .fold(0.0, |a, b| a + b)
}

/// Self time summed per layer.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0.0) += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_s, end_s| Span {
            id,
            parent,
            name: "x",
            layer: "core",
            start_s,
            end_s,
            tid: 1,
        };
        // Two overlapping children cover [1, 5] of the root's [0, 10].
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 2.0, 5.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 6.0).abs() < 1e-12);
        assert!((selfs[&2] - 3.0).abs() < 1e-12);
    }
}
