//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program itself is not instrumented. A span
//! holds a name, the layer it charges, start and end times relative to the
//! recorder's origin, the index of its parent span and the id of the run it
//! belongs to (one workload repetition, or the layer probe). Spans stay in
//! memory and are written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The layer a run's root span charges: benchmark code between calls.
pub const BENCH_LAYER: &str = "bench";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span's self time is charged to.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds after the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a run's root.
    pub parent: Option<usize>,
    /// Run the span belongs to.
    pub run_id: u32,
    /// `true` when the interval comes from a duration the program reported
    /// itself (placed inside its parent), not from the benchmark's clock.
    pub derived: bool,
}

/// Records spans when enabled; always times the calls it wraps, because
/// the untraced metrics need the same durations.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    run_id: u32,
}

impl Tracer {
    /// A recorder whose origin is now.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), root: None, run_id: 0 }
    }

    /// Switches span recording on or off (timing continues either way).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new run, named `name`; later spans nest
    /// under it. Runs are numbered from 1.
    pub fn begin_run(&mut self, name: &'static str) {
        self.run_id += 1;
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            layer: BENCH_LAYER,
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            run_id: self.run_id,
            derived: false,
        });
        self.root = Some(self.spans.len() - 1);
    }

    /// Closes the open run's root span.
    pub fn end_run(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = self.now_ns();
        }
    }

    /// Runs `f`, returning its result and duration; when enabled, records
    /// the call as a span under the open run.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start_ns = self.now_ns();
        let timer = Instant::now();
        let out = f();
        let elapsed = timer.elapsed();
        if self.enabled {
            let end_ns = start_ns + u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                layer,
                name,
                start_ns,
                end_ns,
                parent: self.root,
                run_id: self.run_id,
                derived: false,
            });
        }
        (out, elapsed)
    }

    /// Index of the most recently recorded span.
    pub fn last_span(&self) -> Option<usize> {
        self.spans.len().checked_sub(1)
    }

    /// Adds children to span `parent` from durations the program measured
    /// itself, laid end to end from the parent's start and clipped to its
    /// end.
    pub fn derive_children(
        &mut self,
        parent: usize,
        parts: &[(&'static str, &'static str, Duration)],
    ) {
        let (mut cursor, end, run_id) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.run_id)
        };
        for &(layer, name, dur) in parts {
            let stop = cursor.saturating_add(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX));
            let stop = stop.min(end);
            self.spans.push(Span {
                layer,
                name,
                start_ns: cursor,
                end_ns: stop,
                parent: Some(parent),
                run_id,
                derived: true,
            });
            cursor = stop;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"run_id\": {}, \"derived\": {}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.run_id, s.derived
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children's intervals cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, summed over the spans of the runs `keep` accepts.
pub fn layer_self_ns(spans: &[Span], keep: impl Fn(u32) -> bool) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        if keep(s.run_id) {
            *totals.entry(s.layer).or_insert(0) += own;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { layer, name: "x", start_ns: start, end_ns: end, parent, run_id: 1, derived: false }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(BENCH_LAYER, 0, 100, None),
            span("core", 10, 40, Some(0)),
            span("thermal", 50, 70, Some(0)),
            span("numerics", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        let by_layer = layer_self_ns(&spans, |_| true);
        // Self times partition the root's duration.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        assert_eq!(by_layer["bench"], 50);

        // Overlapping children are covered once: the union is [10, 60).
        let overlapping = vec![
            span(BENCH_LAYER, 0, 100, None),
            span("core", 10, 40, Some(0)),
            span("core", 30, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&overlapping)[0], 50);
    }

    #[test]
    fn derived_children_are_laid_end_to_end_inside_the_parent() {
        let mut tracer = Tracer::new(true);
        tracer.begin_run("rep");
        let ((), _) = tracer.time("core", "call", || std::thread::sleep(Duration::from_millis(2)));
        let parent = tracer.last_span().unwrap();
        tracer.derive_children(
            parent,
            &[
                ("thermal", "a", Duration::from_micros(500)),
                ("control", "b", Duration::from_secs(10)),
            ],
        );
        tracer.end_run();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[2].derived && spans[3].derived);
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        // Clipped to the parent's end.
        assert_eq!(spans[3].end_ns, spans[1].end_ns);
        assert!(spans.iter().all(|s| s.run_id == 1));
        assert!(tracer.to_json().contains("\"derived\": true"));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.begin_run("rep");
        let (v, d) = tracer.time("core", "call", || 7);
        tracer.end_run();
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
        assert!(tracer.spans().is_empty());
    }
}
