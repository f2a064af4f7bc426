//! `churn`: a sustained write stream on large state, with point queries.
//!
//! A durable session (snapshot + write-ahead log, the shipped snapshot
//! cadence) holds a flight network over `strategy constraint`
//! (Constraint_rewrite), whose pushed `T <= 240 ∨ C <= 150` selection keeps
//! the closure of a cyclic network finite.  Each operation is one
//! `Session::apply` batch retracting the oldest legs of a rolling window
//! and inserting a fresh leg out of each one's city, followed by one
//! `Session::query` point query.  A closed loop of one caller.  After the loop,
//! `SessionHub::recover` rebuilds the session from its data directory.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcs_core::{Optimizer, Strategy};
use pcs_engine::{Database, UpdateBatch};
use pcs_lang::{parse_program, parse_query};
use pcs_service::{Session, SessionHub, SessionLimits};

use crate::gen::{self, ChurnStream, Leg, Rng};
use crate::host::file_len;
use crate::reference::{answer_pairs, FlightGraph};
use crate::stats::{mean, median, ms, ratio, tail};
use crate::trace::{set_telemetry, Reading, Samples, Tracer};
use crate::{Config, Outcome, Tally};

/// Cities in the network.
pub const CITIES: u32 = 10_000;
/// Legs out of every city (the window holds `CITIES × DEGREE` legs).
pub const DEGREE: usize = 2;
/// Legs retracted and inserted per batch.
pub const BATCH: usize = 50;
/// The shipped `pcs-serve` snapshot cadence, in batches.
pub const SNAPSHOT_EVERY: u64 = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The percentile the tails report.
pub const TAIL: f64 = 0.9;
/// Untimed batches before the timed loop, so the processor and caches are
/// warm.
const WARMUP_SECS: f64 = 2.0;
/// The session's name in its hub (and data directory).
const NAME: &str = "churn";

/// The flights program over a free query: every constraint-relevant flight
/// is materialized, and point queries pick their constants.
pub const PROGRAM: &str =
    "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
     r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
     r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.\n\
     r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.\n\
     ?- cheaporshort(S, D, T, C).\n";

/// The rolling window and its reference network.
struct State {
    stream: ChurnStream,
    window: VecDeque<Leg>,
    graph: FlightGraph,
    picks: Rng,
}

impl State {
    fn database(&self) -> Database {
        let mut db = Database::new();
        for leg in &self.window {
            db.add(leg.ground_fact());
        }
        db
    }
}

/// One loop's figures.
#[derive(Default)]
struct Loop {
    update_ms: Vec<f64>,
    query_ms: Vec<f64>,
    elapsed: Duration,
    tally: Tally,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut stream = ChurnStream::new(cfg.seed, CITIES);
    let window: VecDeque<Leg> = stream.window(DEGREE).into();
    let mut graph = FlightGraph::new();
    for leg in &window {
        leg.add_to(&mut graph);
    }
    let mut state = State {
        stream,
        window,
        graph,
        picks: Rng::new(cfg.seed, 4),
    };
    let optimizer = Optimizer::new(parse_program(PROGRAM).expect("the flights program parses"))
        .strategy(Strategy::ConstraintRewrite);

    let mut out = Outcome::default();
    let db = state.database();
    let dir = cfg.work_dir.join("untraced");
    let mut setup_s = Vec::new();
    let mut hub = None;
    for _ in 0..SETUPS {
        // Drop the previous session first so set-ups never overlap.
        drop(hub.take());
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        match open(&dir, &optimizer, &db) {
            Ok(opened) => hub = Some(opened),
            Err(e) => {
                out.tally.attempt();
                out.tally.fail(e);
                return out;
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let hub = hub.expect("at least one set-up");
    drop(db);
    out.e2e.set("setup_s", median(&setup_s), "s");
    out.layers
        .set("session.materialize_s", median(&setup_s), "s");

    let untraced_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let session = hub.named(NAME).ok().flatten().expect("installed session");
    let warmup = churn_loop(
        &session,
        &mut state,
        WARMUP_SECS,
        &mut Tracer::new(false),
        None,
        &dir,
    );
    out.tally.merge(warmup.tally);
    let plain = churn_loop(
        &session,
        &mut state,
        untraced_secs,
        &mut Tracer::new(false),
        None,
        &dir,
    );
    drop(session);
    drop(hub);
    out.e2e.set("query_p50_ms", median(&plain.query_ms), "ms");
    out.e2e
        .set("query_tail_ms", tail(&plain.query_ms, TAIL), "ms");
    out.e2e.set("update_p50_ms", median(&plain.update_ms), "ms");
    out.e2e
        .set("update_tail_ms", tail(&plain.update_ms, TAIL), "ms");
    out.e2e.set(
        "ops_per_s",
        plain.update_ms.len() as f64 / plain.elapsed.as_secs_f64(),
        "1/s",
    );
    let untraced_update_p50 = median(&plain.update_ms);
    out.tally.merge(plain.tally);

    // Recovery: snapshot + WAL replay + re-derive, until it answers.
    out.tally.attempt();
    let start = Instant::now();
    match SessionHub::with_store(&dir, SNAPSHOT_EVERY, SessionLimits::default())
        .and_then(|hub| hub.recover().map(|_| hub))
    {
        Ok(hub) => match hub.named(NAME).ok().flatten() {
            Some(session) => {
                point_query(
                    &session,
                    &mut state,
                    &mut out.tally,
                    &mut Tracer::new(false),
                );
                out.e2e.set("recover_s", start.elapsed().as_secs_f64(), "s");
            }
            None => out.tally.fail("recovery did not restore the session"),
        },
        Err(e) => out.tally.fail(format!("recovery failed: {e}")),
    }
    out.layers.set(
        "wal.snapshot_bytes",
        file_len(&dir.join(NAME).join("snapshot.pcs")) as f64,
        "bytes",
    );
    let _ = std::fs::remove_dir_all(&dir);

    if cfg.trace {
        traced_half(cfg, &optimizer, &mut state, &mut out, untraced_update_p50);
    }
    out.layers
        .set("bench.ops_attempted", out.tally.attempted as f64, "count");
    out
}

/// Opens a durable hub over `dir` and installs a freshly materialized
/// session in it.
fn open(dir: &Path, optimizer: &Optimizer, db: &Database) -> Result<SessionHub, String> {
    let hub = SessionHub::with_store(dir, SNAPSHOT_EVERY, SessionLimits::default())
        .map_err(|e| format!("cannot open data dir: {e}"))?;
    let session =
        Session::materialize(optimizer, db).map_err(|e| format!("materialize failed: {e}"))?;
    hub.install_named(NAME, session)
        .map_err(|e| format!("install failed: {e}"))?;
    Ok(hub)
}

/// The traced half: a session materialized with telemetry on from the
/// current window, then the same loop with spans and registry reads.
fn traced_half(
    cfg: &Config,
    optimizer: &Optimizer,
    state: &mut State,
    out: &mut Outcome,
    untraced_update_p50: f64,
) {
    set_telemetry(true);
    let mut tracer = Tracer::new(true);
    let mut samples = Samples::default();
    let dir = cfg.work_dir.join("traced");
    let db = state.database();
    let (program, parse_d) = tracer.time("lang.parse_program", || parse_program(PROGRAM));
    let optimizer = match program {
        Ok(program) => Optimizer::new(program).strategy(optimizer.configured_strategy().clone()),
        Err(e) => {
            out.tally.attempt();
            out.tally.fail(format!("program does not parse: {e}"));
            set_telemetry(false);
            return;
        }
    };
    let before = Reading::take();
    let (optimized, optimize_d) = tracer.time("core.optimize", || optimizer.optimize());
    let rules = optimized.map_or(0, |o| o.program.rules().len());
    let optimize = Reading::take();
    let (opened, _) = tracer.time("session.materialize", || open(&dir, &optimizer, &db));
    drop(db);
    let mut setup = optimize.since(&before);
    setup.extend(Reading::take().since(&optimize));
    let hub = match opened {
        Ok(hub) => hub,
        Err(e) => {
            out.tally.attempt();
            out.tally.fail(e);
            set_telemetry(false);
            return;
        }
    };
    let session = hub.named(NAME).ok().flatten().expect("installed session");
    {
        let result = session.snapshot();
        let result = result.result();
        let l = &mut out.layers;
        l.set("lang.parse_ms", ms(parse_d), "ms");
        l.set("core.optimize_ms", ms(optimize_d), "ms");
        l.set("transform.rules", rules as f64, "count");
        // The optimizer's phases from the optimize call, the engine's from
        // the materialize (which optimizes again).
        let (optimizing, materializing) = setup.split_at(setup.len() / 2);
        for (name, value) in optimizing {
            if matches!(*name, "analysis.analyze_ms" | "transform.rewrite_ms") {
                l.set(name, *value, "ms");
            }
        }
        for (name, value) in materializing {
            match *name {
                "engine.plan_compile_ms" => l.set("engine.plan_ms", *value, "ms"),
                "engine.fixpoint_ms" => l.set("engine.evaluate_ms", *value, "ms"),
                "engine.plans_compiled" => l.set(name, *value, "count"),
                _ => {}
            }
        }
        l.set("engine.facts", result.total_facts() as f64, "count");
        l.set(
            "engine.fact_bytes",
            result.approx_fact_bytes() as f64,
            "bytes",
        );
        l.set(
            "constraints.constraint_facts",
            result.stats.constraint_facts as f64,
            "count",
        );
    }

    let traced = churn_loop(
        &session,
        state,
        cfg.seconds / 2.0,
        &mut tracer,
        Some(&mut samples),
        &dir,
    );
    set_telemetry(false);
    drop(session);
    drop(hub);
    let _ = std::fs::remove_dir_all(&dir);
    out.set_overhead(untraced_update_p50, median(&traced.update_ms));
    let l = &mut out.layers;
    for name in [
        "engine.apply_ms",
        "engine.retract_ms",
        "engine.resume_ms",
        "session.apply_ms",
        "session.overhead_ms",
        "session.query_ms",
    ] {
        l.set(name, median(samples.get(name)), "ms");
    }
    for name in [
        "engine.iterations",
        "engine.derivations",
        "engine.new_facts",
        "engine.apply_derivations",
        "engine.removed_facts",
        "engine.index_probes",
        "engine.probe_hits",
        "engine.probe_misses",
        "engine.existence_shortcuts",
        "engine.subsumption_checks",
        "constraints.fm_sat_calls",
    ] {
        l.set(name, mean(samples.get(name)), "count");
    }
    l.set(
        "wal.bytes_per_update",
        median(samples.get("wal.bytes_per_update")),
        "bytes",
    );
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
    l.set(
        "session.coalesced_ratio",
        ratio(
            sum("session.coalesced") - samples.get("session.coalesced").len() as f64,
            sum("session.coalesced"),
        ),
        "ratio",
    );
    out.tally.merge(traced.tally);
    out.tracer = Some(tracer);
}

/// Applies batches, each followed by a point query, until `seconds` have
/// passed.
fn churn_loop(
    session: &Arc<Session>,
    state: &mut State,
    seconds: f64,
    tracer: &mut Tracer,
    mut samples: Option<&mut Samples>,
    dir: &Path,
) -> Loop {
    let wal = dir.join(NAME).join("wal.pcs");
    let mut out = Loop::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    while out.update_ms.is_empty() || Instant::now() < end {
        let mut batch = UpdateBatch::new();
        let retired: Vec<Leg> = state.window.drain(..BATCH).collect();
        let fresh: Vec<Leg> = retired
            .iter()
            .map(|leg| state.stream.fresh_from(leg.src))
            .collect();
        batch.retracts = retired.iter().map(Leg::ground_fact).collect();
        batch.inserts = fresh.iter().map(Leg::ground_fact).collect();
        for leg in &retired {
            state
                .graph
                .remove(&gen::city(leg.src), &gen::city(leg.dst), leg.time, leg.cost);
        }
        for leg in &fresh {
            leg.add_to(&mut state.graph);
        }
        state.window.extend(fresh);

        out.tally.attempt();
        let wal_before = file_len(&wal);
        let before = samples.as_ref().map(|_| Reading::take());
        let op = tracer.next_op();
        let (applied, apply_d) = tracer.time("session.apply", || session.apply(batch));
        out.update_ms.push(ms(apply_d));
        let outcome = match applied {
            Ok(outcome) => outcome,
            Err(e) => {
                out.tally.fail(format!("batch {op}: apply failed: {e}"));
                continue;
            }
        };
        if !outcome.termination.is_fixpoint() {
            out.tally
                .fail(format!("batch {op}: stopped: {:?}", outcome.termination));
        }
        if let (Some(samples), Some(before)) = (samples.as_deref_mut(), before) {
            for (name, value) in Reading::take().since(&before) {
                samples.push(name, value);
            }
            samples.push("session.apply_ms", ms(apply_d));
            samples.push("engine.apply_ms", ms(outcome.elapsed));
            samples.push("session.overhead_ms", ms(apply_d) - ms(outcome.elapsed));
            samples.push("engine.iterations", outcome.iterations as f64);
            samples.push("engine.derivations", outcome.derivations as f64);
            samples.push("engine.apply_derivations", outcome.derivations as f64);
            samples.push("engine.new_facts", outcome.new_facts as f64);
            samples.push("engine.removed_facts", outcome.removed as f64);
            samples.push("session.coalesced", outcome.coalesced as f64);
            let wal_after = file_len(&wal);
            // A checkpoint truncates the log; only growth is a record.
            if wal_after > wal_before {
                samples.push("wal.bytes_per_update", (wal_after - wal_before) as f64);
            }
        }
        out.tally.attempt();
        let query_d = point_query(session, state, &mut out.tally, tracer);
        out.query_ms.push(ms(query_d));
        if let Some(samples) = samples.as_deref_mut() {
            samples.push("session.query_ms", ms(query_d));
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// Queries the endpoints of a random leg of the window and checks the
/// answers; returns the `Session::query` time.
fn point_query(
    session: &Session,
    state: &mut State,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Duration {
    let pick = state.picks.range(0, state.window.len() as u64 - 1) as usize;
    let leg = state.window[pick];
    let (src, dst) = (gen::city(leg.src), gen::city(leg.dst));
    let query =
        parse_query(&format!("?- cheaporshort({src}, {dst}, T, C).")).expect("point query parses");
    let (answered, elapsed) = tracer.time("session.query", || session.query(&query));
    match answered {
        Ok((_, _, facts)) => {
            let want = state.graph.answers(&src, &dst);
            tally.check(
                &format!("query {src} -> {dst}"),
                answer_pairs(&facts),
                &want,
            );
        }
        Err(e) => tally.fail(format!("query {src} -> {dst} failed: {e}")),
    }
    elapsed
}
