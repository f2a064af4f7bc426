//! The benchmark's own spans and its reads of the `pcs-telemetry` registry.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public API: name, start, end, parent span and the id of the
//! operation they belong to.  They stay in memory and are written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use pcs_telemetry::{Counter, Phase, TelemetryMode};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.evaluate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// An in-memory span recorder.  Disabled tracers still time (the caller
/// needs the durations) but keep nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    op: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    slot: usize,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation: later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let now = Instant::now();
        let slot = self.open.len();
        let index = if self.on {
            let parent = self.open.last().map(|&(i, _)| i);
            self.spans.push(Span {
                name,
                start_ns: nanos(now - self.origin),
                end_ns: 0,
                parent: parent.filter(|&p| p != usize::MAX),
                op: self.op,
            });
            self.spans.len() - 1
        } else {
            usize::MAX
        };
        self.open.push((index, now));
        Open { slot }
    }

    /// Closes a span (and any left open inside it) and returns its
    /// duration.
    pub fn exit(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        let mut elapsed = Duration::ZERO;
        while self.open.len() > open.slot {
            let (index, start) = self.open.pop().expect("open span");
            elapsed = now - start;
            if index != usize::MAX {
                self.spans[index].end_ns = nanos(now - self.origin);
            }
        }
        elapsed
    }

    /// Records a top-level span whose ends were taken elsewhere.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: nanos(start.saturating_duration_since(self.origin)),
                end_ns: nanos(end.saturating_duration_since(self.origin)),
                parent: None,
                op: self.op,
            });
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.enter(name);
        let value = f();
        (value, self.exit(open))
    }

    /// Per span name: (count, total ms, self ms), where self time is the
    /// span's duration minus the part its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 / 1e6;
            entry.2 += total.saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Turns the process-wide telemetry registry on or off.  Evaluators built
/// afterwards pick the setting up through `EvalOptions::default()`.
pub fn set_telemetry(on: bool) {
    pcs_telemetry::set_mode(if on {
        TelemetryMode::On
    } else {
        TelemetryMode::Off
    });
}

/// The engine counters the traced run reads, with their metric names.
pub const ENGINE_COUNTERS: [(Counter, &str); 7] = [
    (Counter::IndexProbes, "engine.index_probes"),
    (Counter::ProbeHits, "engine.probe_hits"),
    (Counter::ProbeMisses, "engine.probe_misses"),
    (Counter::ExistenceShortcuts, "engine.existence_shortcuts"),
    (Counter::SubsumptionChecks, "engine.subsumption_checks"),
    (Counter::FmSatCalls, "constraints.fm_sat_calls"),
    (Counter::PlansCompiled, "engine.plans_compiled"),
];

/// The phases the traced run reads, with their metric names.
pub const PHASES: [(Phase, &str); 6] = [
    (Phase::Analyze, "analysis.analyze_ms"),
    (Phase::Rewrite, "transform.rewrite_ms"),
    (Phase::PlanCompile, "engine.plan_compile_ms"),
    (Phase::Fixpoint, "engine.fixpoint_ms"),
    (Phase::Resume, "engine.resume_ms"),
    (Phase::Retract, "engine.retract_ms"),
];

/// A reading of the registry's engine counters and phase totals on this
/// process, taken after folding this thread's local counts in.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    counters: [u64; ENGINE_COUNTERS.len()],
    phase_nanos: [u64; PHASES.len()],
}

impl Reading {
    /// Reads the registry now.
    pub fn take() -> Reading {
        pcs_telemetry::flush_thread();
        let mut reading = Reading::default();
        for (i, (counter, _)) in ENGINE_COUNTERS.iter().enumerate() {
            reading.counters[i] = pcs_telemetry::counter(*counter);
        }
        for (i, (phase, _)) in PHASES.iter().enumerate() {
            reading.phase_nanos[i] = pcs_telemetry::phase_totals(*phase).1;
        }
        reading
    }

    /// What happened between `before` and this reading: counter deltas by
    /// metric name, and phase deltas in milliseconds by metric name.
    pub fn since(&self, before: &Reading) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        for (i, (_, name)) in ENGINE_COUNTERS.iter().enumerate() {
            out.push((
                *name,
                self.counters[i].saturating_sub(before.counters[i]) as f64,
            ));
        }
        for (i, (_, name)) in PHASES.iter().enumerate() {
            let nanos = self.phase_nanos[i].saturating_sub(before.phase_nanos[i]);
            out.push((*name, nanos as f64 / 1e6));
        }
        out
    }
}

/// Accumulates per-operation samples by metric name.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    /// Adds every `(name, value)` pair.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in pairs {
            self.push(name, value);
        }
    }

    /// The samples of one metric (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.enter("outer");
        let (_, _) = t.time("inner", || std::thread::sleep(Duration::from_millis(2)));
        let total = t.exit(outer);
        assert!(total >= Duration::from_millis(2));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 1);
        let summary = t.summary();
        let (count, total_ms, self_ms) = summary["outer"];
        assert_eq!(count, 1);
        assert!(self_ms < total_ms);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (value, d) = t.time("x", || 7);
        assert_eq!(value, 7);
        assert!(d <= Duration::from_secs(1));
        assert!(t.summary().is_empty());
    }
}
