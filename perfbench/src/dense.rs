//! `dense-flights`: batch queries heavy on the engine fixpoint, no updates.
//!
//! The flights program over random DAGs; every operation is one user
//! query `?- cheaporshort(cA, cB, T, C).` for a seeded pair `a < b` over a
//! network of its own, parsed, optimized with the default strategy
//! (`optimal`: pred, qrp, mg) and evaluated from scratch, because magic
//! specializes the program to the query constants.  A fresh network per
//! query makes a run's median a median over many networks, so two seeds
//! agree; the source city is fixed mid-network so queries cost alike.  A
//! closed loop of one caller.

use std::time::{Duration, Instant};

use pcs_core::Optimizer;
use pcs_engine::Database;
use pcs_lang::parse_program;

use crate::gen;
use crate::reference::{answer_pairs, FlightGraph};
use crate::stats::{mean, median, ms, ratio, tail};
use crate::trace::{set_telemetry, Reading, Samples, Tracer};
use crate::{Config, Outcome, Tally};

/// Cities in the network.
pub const CITIES: u32 = 100;
/// Random legs in the network (the direct leg comes on top).
pub const LEGS: usize = 1200;
/// Untimed queries before anything is measured, so the processor and
/// caches are warm: a cold start slows the first seconds by up to a fifth.
const WARMUP_SECS: f64 = 3.0;
/// Seed offset of the warm-up queries, which must not be the timed ones.
const WARMUP_STREAM: u64 = 0x9e37_79b9;
/// The percentile `query_tail_ms` reports.
pub const TAIL: f64 = 0.9;

/// One query loop's figures.
struct Loop {
    latency_ms: Vec<f64>,
    /// Time to parse each query's network into a `Database`: the set-up
    /// the query starts from, timed next to the queries so both see the
    /// processor in the same state.
    setup_s: Vec<f64>,
    elapsed: Duration,
    tally: Tally,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let warmup = query_loop(
        cfg.seed ^ WARMUP_STREAM,
        WARMUP_SECS,
        &mut Tracer::new(false),
        None,
    );
    out.tally = warmup.tally;

    let untraced_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = query_loop(cfg.seed, untraced_secs, &mut Tracer::new(false), None);
    let p50 = median(&plain.latency_ms);
    out.e2e.set("query_p50_ms", p50, "ms");
    out.e2e
        .set("query_tail_ms", tail(&plain.latency_ms, TAIL), "ms");
    out.e2e.set(
        "ops_per_s",
        plain.latency_ms.len() as f64 / plain.elapsed.as_secs_f64(),
        "1/s",
    );
    out.e2e.set("setup_s", median(&plain.setup_s), "s");
    out.tally.merge(plain.tally);

    if cfg.trace {
        set_telemetry(true);
        let mut tracer = Tracer::new(true);
        let mut samples = Samples::default();
        let traced = query_loop(cfg.seed, cfg.seconds / 2.0, &mut tracer, Some(&mut samples));
        set_telemetry(false);
        // The same pairs in the same order: compare the runs op for op.
        let n = plain.latency_ms.len().min(traced.latency_ms.len());
        out.set_overhead(
            median(&plain.latency_ms[..n]),
            median(&traced.latency_ms[..n]),
        );
        let l = &mut out.layers;
        for name in [
            "lang.parse_ms",
            "analysis.analyze_ms",
            "transform.rewrite_ms",
            "core.optimize_ms",
            "engine.plan_ms",
            "engine.evaluate_ms",
        ] {
            l.set(name, median(samples.get(name)), "ms");
        }
        for name in [
            "transform.rules",
            "engine.plans_compiled",
            "engine.iterations",
            "engine.derivations",
            "engine.new_facts",
            "engine.facts",
            "engine.fact_bytes",
            "engine.index_probes",
            "engine.probe_hits",
            "engine.probe_misses",
            "engine.existence_shortcuts",
            "engine.subsumption_checks",
            "constraints.fm_sat_calls",
            "constraints.constraint_facts",
        ] {
            l.set(name, mean(samples.get(name)), "count");
        }
        let sum = |name: &str| samples.get(name).iter().sum::<f64>();
        l.set(
            "engine.useful_ratio",
            ratio(sum("engine.new_facts"), sum("engine.derivations")),
            "ratio",
        );
        l.set(
            "engine.probe_hit_ratio",
            ratio(
                sum("engine.probe_hits"),
                sum("engine.probe_hits") + sum("engine.probe_misses"),
            ),
            "ratio",
        );
        out.tally.merge(traced.tally);
        out.tracer = Some(tracer);
    }
    out.layers
        .set("bench.ops_attempted", out.tally.attempted as f64, "count");
    out
}

/// Runs the seed's operations in order until `seconds` have passed.
fn query_loop(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    mut samples: Option<&mut Samples>,
) -> Loop {
    let mut out = Loop {
        latency_ms: Vec::new(),
        setup_s: Vec::new(),
        elapsed: Duration::ZERO,
        tally: Tally::default(),
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    for op in 0.. {
        if Instant::now() >= end && !out.latency_ms.is_empty() {
            break;
        }
        let (legs, (a, b)) = gen::dense_op(seed, op, CITIES, LEGS);
        let facts = gen::facts_text(&legs);
        let start = Instant::now();
        let mut db = Database::new();
        db.add_facts_str(&facts).expect("generated facts parse");
        out.setup_s.push(start.elapsed().as_secs_f64());
        let mut graph = FlightGraph::new();
        for leg in &legs {
            leg.add_to(&mut graph);
        }
        out.tally.attempt();
        let before = samples.as_ref().map(|_| Reading::take());
        tracer.next_op();
        let query_span = tracer.enter("dense.query");
        let (program, parse_d) = tracer.time("lang.parse_program", || {
            parse_program(&gen::flights_program(a, b))
        });
        let program = match program {
            Ok(program) => program,
            Err(e) => {
                tracer.exit(query_span);
                out.tally
                    .fail(format!("op {op}: program does not parse: {e}"));
                continue;
            }
        };
        let (optimized, optimize_d) =
            tracer.time("core.optimize", || Optimizer::new(program).optimize());
        let optimized = match optimized {
            Ok(optimized) => optimized,
            Err(e) => {
                tracer.exit(query_span);
                out.tally.fail(format!("op {op}: optimize failed: {e}"));
                continue;
            }
        };
        let (evaluator, plan_d) = tracer.time("engine.evaluator_new", || optimized.evaluator());
        let (result, evaluate_d) = tracer.time("engine.evaluate", || evaluator.evaluate(&db));
        let (answers, _) = tracer.time("engine.answers", || {
            optimized
                .program
                .query()
                .map(|q| result.answers(q))
                .unwrap_or_default()
        });
        let latency = tracer.exit(query_span);
        out.latency_ms.push(ms(latency));

        if !result.termination.is_fixpoint() {
            out.tally.fail(format!(
                "op {op}: evaluation stopped: {:?}",
                result.termination
            ));
        } else {
            let want = graph.answers(&gen::city(a), &gen::city(b));
            out.tally.check(
                &format!("query c{a} -> c{b}"),
                answer_pairs(&answers),
                &want,
            );
        }
        if let (Some(samples), Some(before)) = (samples.as_deref_mut(), before) {
            samples.extend(Reading::take().since(&before));
            samples.push("lang.parse_ms", ms(parse_d));
            samples.push("core.optimize_ms", ms(optimize_d));
            samples.push("engine.plan_ms", ms(plan_d));
            samples.push("engine.evaluate_ms", ms(evaluate_d));
            samples.push("transform.rules", optimized.program.rules().len() as f64);
            let stats = &result.stats;
            samples.push("engine.iterations", stats.iterations.len() as f64);
            samples.push("engine.derivations", stats.total_derivations() as f64);
            samples.push("engine.new_facts", stats.total_new_facts() as f64);
            samples.push("engine.facts", result.total_facts() as f64);
            samples.push("engine.fact_bytes", result.approx_fact_bytes() as f64);
            samples.push(
                "constraints.constraint_facts",
                stats.constraint_facts as f64,
            );
        }
    }
    out.elapsed = start.elapsed();
    out
}
