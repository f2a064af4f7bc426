//! Self-tests of the benchmark: seeded inputs are reproducible, the
//! independent answer reference agrees with the engine's naive oracle, the
//! open-loop scheduler reports lateness, and `BENCHMARK.json` names the
//! metrics the benchmark prints.

use std::time::{Duration, Instant};

use pcs_core::{Optimizer, Strategy};
use pcs_engine::{naive, Database, EvalLimits};
use pcs_lang::{parse_program, Pred};
use pcs_perfbench::gen::{self, ChurnStream, Leg};
use pcs_perfbench::reference::{answer_pairs, FlightGraph};
use pcs_perfbench::schedule::OpenLoop;
use pcs_perfbench::{churn, serve, END_TO_END, OPS_ATTEMPTED, PER_LAYER, WORKLOAD_END_TO_END};

/// FNV-1a, to pin generated text without storing it.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn dense_text(seed: u64, op: u64) -> String {
    let (legs, (a, b)) = gen::dense_op(seed, op, 100, 1200);
    format!("{}{}", gen::facts_text(&legs), gen::flights_program(a, b))
}

fn churn_text(seed: u64) -> String {
    let mut stream = ChurnStream::new(seed, 1000);
    let window = stream.window(churn::DEGREE);
    let fresh: Vec<Leg> = window[..50]
        .iter()
        .map(|l| stream.fresh_from(l.src))
        .collect();
    gen::facts_text(&[window, fresh].concat())
}

#[test]
fn generators_reproduce_their_inputs_byte_for_byte() {
    for seed in [1, 2, 77] {
        assert_eq!(dense_text(seed, 3), dense_text(seed, 3));
        assert_eq!(churn_text(seed), churn_text(seed));
        assert_eq!(
            serve::script_lines(seed, "p0", 40),
            serve::script_lines(seed, "p0", 40)
        );
    }
    assert_ne!(dense_text(1, 0), dense_text(2, 0));
    assert_ne!(dense_text(1, 0), dense_text(1, 1));
    assert_ne!(churn_text(1), churn_text(2));
    // Pinned: a change to a generator changes every later measurement.
    assert_eq!(fnv(&dense_text(1, 0)), DENSE_1_0);
    assert_eq!(fnv(&churn_text(1)), CHURN_1);
    assert_eq!(fnv(&serve::script_lines(1, "p0", 40).join("\n")), SERVE_1);
}

const DENSE_1_0: u64 = 2272308809458579005;
const CHURN_1: u64 = 15122616081171070975;
const SERVE_1: u64 = 1133601673285422042;

#[test]
fn dense_networks_have_the_stated_shape() {
    let (legs, (a, b)) = gen::dense_op(5, 9, 100, 1200);
    assert_eq!(legs.len(), 1201);
    assert!(a < b && b < 100);
    assert!(legs.iter().all(|l| l.src < l.dst && l.dst < 100));
    assert!(legs.iter().all(
        |l| (20..=219).contains(&l.time) && (10..=309).contains(&l.cost)
            || (l.src, l.dst) == (0, 99)
    ));
    let mut distinct = legs.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), legs.len());
}

#[test]
fn churn_stream_keeps_out_degrees_and_never_repeats_a_leg() {
    let mut stream = ChurnStream::new(3, 50);
    let mut legs = stream.window(2);
    let replaced: Vec<Leg> = (0..400)
        .map(|i| stream.fresh_from(legs[i % 100].src))
        .collect();
    assert_eq!(legs.len(), 100);
    for src in 0..50 {
        assert_eq!(legs.iter().filter(|l| l.src == src).count(), 2);
    }
    legs.extend(replaced);
    assert!(legs
        .iter()
        .all(|l| l.src != l.dst && l.src < 50 && l.dst < 50));
    legs.sort();
    legs.dedup();
    assert_eq!(legs.len(), 500);
}

/// The answers the naive oracle derives for `cheaporshort(cA, cB, T, C)`
/// from `program`.
fn oracle_pairs(
    program: &pcs_lang::Program,
    pred: &Pred,
    legs: &[Leg],
    a: u32,
    b: u32,
) -> std::collections::BTreeSet<(i64, i64)> {
    let mut db = Database::new();
    for leg in legs {
        db.add(leg.ground_fact());
    }
    let result = naive::evaluate(program, &db, &EvalLimits::default());
    assert!(result.termination.is_fixpoint(), "{:?}", result.termination);
    let (ca, cb) = (gen::city(a), gen::city(b));
    let facts: Vec<_> = result
        .facts_for(pred)
        .iter()
        .filter(|f| {
            let v = f.ground_values().expect("ground answers");
            v[0].to_string() == ca && v[1].to_string() == cb
        })
        .cloned()
        .collect();
    answer_pairs(&facts).expect("integral answers")
}

fn reference_pairs(legs: &[Leg], a: u32, b: u32) -> std::collections::BTreeSet<(i64, i64)> {
    let mut graph = FlightGraph::new();
    for leg in legs {
        leg.add_to(&mut graph);
    }
    graph.answers(&gen::city(a), &gen::city(b))
}

#[test]
fn reference_agrees_with_the_naive_oracle_on_tiny_dags() {
    let mut nonempty = 0;
    for seed in 0..12 {
        let legs = gen::dense_network(seed, 6, 10);
        for (a, b) in [(0, 5), (0, 3), (1, 4), (2, 5)] {
            let program = parse_program(&gen::flights_program(a, b)).expect("parses");
            let want = oracle_pairs(&program, &Pred::from("cheaporshort"), &legs, a, b);
            assert_eq!(
                reference_pairs(&legs, a, b),
                want,
                "seed {seed}, c{a} -> c{b}"
            );
            nonempty += usize::from(!want.is_empty());
        }
    }
    assert!(nonempty > 10, "the comparison must not be vacuous");
}

#[test]
fn reference_agrees_with_the_naive_oracle_on_tiny_cyclic_networks() {
    // Cyclic networks have infinitely many flights; the constraint-rewritten
    // program (what `churn` and `serve` run) keeps the closure finite, so
    // the oracle evaluates that.
    let mut nonempty = 0;
    for seed in 0..8 {
        let legs = ChurnStream::new(seed, 5).window(2);
        let optimized = Optimizer::new(parse_program(churn::PROGRAM).expect("parses"))
            .strategy(Strategy::ConstraintRewrite)
            .optimize()
            .expect("optimizes");
        for (a, b) in [(0, 1), (1, 0), (2, 2), (3, 4)] {
            let want = oracle_pairs(&optimized.program, &optimized.query_pred, &legs, a, b);
            assert_eq!(
                reference_pairs(&legs, a, b),
                want,
                "seed {seed}, c{a} -> c{b}"
            );
            nonempty += usize::from(!want.is_empty());
        }
    }
    assert!(nonempty > 4, "the comparison must not be vacuous");
}

#[test]
fn open_loop_reports_lateness_instead_of_stretching_the_schedule() {
    let start = Instant::now();
    let schedule = OpenLoop::new(start, 1000.0);
    assert_eq!(schedule.due(10) - start, Duration::from_millis(10));
    let mut sent = Vec::new();
    // Every send takes 3 ms, three times the interval: a closed loop would
    // stretch the schedule and report no lateness.
    let lateness = schedule.drive(start + Duration::from_millis(60), |i, due| {
        assert_eq!(due, schedule.due(i), "due times never move");
        sent.push(i);
        std::thread::sleep(Duration::from_millis(3));
        true
    });
    assert_eq!(lateness.len(), sent.len());
    assert!(sent.windows(2).all(|w| w[1] == w[0] + 1));
    assert!(sent.len() < 60, "the slow sender cannot keep up");
    let last = *lateness.last().expect("sent something");
    assert!(
        last >= Duration::from_millis(2 * (sent.len() as u64 - 1) - 1),
        "lateness grows by the backlog: {last:?} after {} sends",
        sent.len()
    );
    // An on-time sender is not late by more than timer slack.
    let on_time = OpenLoop::new(Instant::now(), 200.0)
        .drive(Instant::now() + Duration::from_millis(50), |_, _| true);
    assert!(on_time.iter().all(|d| *d < Duration::from_millis(4)));
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let (e2e, layers) = text.split_once("\"per_layer\"").expect("per_layer section");
    for (name, unit) in END_TO_END {
        assert!(
            e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} is not an end-to-end metric of BENCHMARK.json"
        );
    }
    let workload_e2e = WORKLOAD_END_TO_END.map(|(n, u)| (format!("e2e.{n}"), u));
    let printed = PER_LAYER
        .iter()
        .chain([&OPS_ATTEMPTED])
        .map(|(n, u)| (n.to_string(), *u))
        .chain(workload_e2e);
    let mut count = 0;
    for (name, unit) in printed {
        assert!(
            layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} is not a per-layer metric of BENCHMARK.json"
        );
        count += 1;
    }
    assert_eq!(layers.matches("\"name\":").count(), count);
    assert_eq!(e2e.matches("\"bound\":").count(), END_TO_END.len());
}
