//! End-to-end and per-layer benchmark of the pushing-constraint-selections
//! stack.
//!
//! Three seeded workloads run against the shipped defaults:
//!
//! * [`dense`] — batch queries over a dense random flight network, each
//!   optimized (`optimal`: pred, qrp, mg) and evaluated from scratch;
//! * [`churn`] — a rolling window of retract/insert batches on a durable
//!   session holding a large flight network, with point queries beside;
//! * [`serve`] — an open-loop query/update mix over the line protocol
//!   against a child `pcs-serve` process.
//!
//! Every answer is checked against [`reference`], a path enumerator that
//! does not use the engine.  End-to-end figures come from an untraced run;
//! `--trace 1` adds a traced half that reads the layers from outside (see
//! [`trace`]).

pub mod churn;
pub mod dense;
pub mod gen;
pub mod host;
pub mod reference;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeSet;
use std::path::PathBuf;

use stats::Metrics;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("query_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics that only some workloads have, or that spread too
/// widely between runs to bound.  A traced run reports them, from its
/// untraced half, as `e2e.<name>` (`0` where the workload has no such
/// operation or too few samples for the tail).
pub const WORKLOAD_END_TO_END: [(&str, &str); 6] = [
    ("query_tail_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
    ("recover_s", "s"),
    ("capacity_ops_s", "1/s"),
    ("error_ratio", "ratio"),
];

/// The per-layer metrics every traced run reports, with units (`0` where
/// the layer does no work on the workload).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("lang.parse_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("transform.rewrite_ms", "ms"),
    ("transform.rules", "count"),
    ("core.optimize_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.plans_compiled", "count"),
    ("engine.evaluate_ms", "ms"),
    ("engine.iterations", "count"),
    ("engine.derivations", "count"),
    ("engine.new_facts", "count"),
    ("engine.useful_ratio", "ratio"),
    ("engine.facts", "count"),
    ("engine.fact_bytes", "bytes"),
    ("engine.index_probes", "count"),
    ("engine.probe_hits", "count"),
    ("engine.probe_misses", "count"),
    ("engine.probe_hit_ratio", "ratio"),
    ("engine.existence_shortcuts", "count"),
    ("engine.subsumption_checks", "count"),
    ("constraints.fm_sat_calls", "count"),
    ("constraints.constraint_facts", "count"),
    ("engine.apply_ms", "ms"),
    ("engine.apply_derivations", "count"),
    ("engine.removed_facts", "count"),
    ("engine.retract_ms", "ms"),
    ("engine.resume_ms", "ms"),
    ("session.materialize_s", "s"),
    ("session.apply_ms", "ms"),
    ("session.overhead_ms", "ms"),
    ("session.query_ms", "ms"),
    ("session.coalesced_ratio", "ratio"),
    ("wal.bytes_per_update", "bytes"),
    ("wal.snapshot_bytes", "bytes"),
    ("shell.execute_us", "us"),
    ("server.wire_us", "us"),
    ("telemetry.overhead_pct", "%"),
    ("bench.late_ms", "ms"),
];

/// The load generator's own attempt count, reported with the layers.
pub const OPS_ATTEMPTED: (&str, &str) = ("bench.ops_attempted", "count");

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop, in seconds.
    pub seconds: f64,
    /// Whether to add the traced half.
    pub trace: bool,
    /// Scratch directory for data directories and trace files.
    pub work_dir: PathBuf,
}

/// Operation outcomes: attempted, failed (errors or refusals) and wrong
/// answers, with the first few mismatches described.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Operations that answered wrongly.
    pub wrong: u64,
    /// The first few failures and mismatches.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempt.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.note(what.into());
    }

    /// Compares an answer set with the reference.
    pub fn check(
        &mut self,
        what: &str,
        got: Option<BTreeSet<(i64, i64)>>,
        want: &BTreeSet<(i64, i64)>,
    ) {
        match got {
            Some(got) if &got == want => {}
            got => {
                self.wrong += 1;
                self.note(format!("{what}: got {got:?}, want {want:?}"));
            }
        }
    }

    fn note(&mut self, text: String) {
        if self.notes.len() < 5 {
            self.notes.push(text);
        }
    }

    /// Operations that missed: failed plus wrong.
    pub fn missed(&self) -> u64 {
        self.failed + self.wrong
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for note in other.notes {
            self.note(note);
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Untraced end-to-end figures.
    pub e2e: Metrics,
    /// Per-layer figures from the traced half (empty without `--trace 1`).
    pub layers: Metrics,
    /// Operation outcomes over the whole run.
    pub tally: Tally,
    /// The traced half's spans, when traced.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// `telemetry.overhead_pct`: how much slower the traced half's median
    /// was than the untraced half's.
    pub fn set_overhead(&mut self, untraced: f64, traced: f64) {
        self.layers.set(
            "telemetry.overhead_pct",
            stats::ratio(traced - untraced, untraced) * 100.0,
            "%",
        );
    }
}
