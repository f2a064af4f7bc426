//! Differential test of the slot-frame join kernel against the naive
//! reference interpreter (`pcs_engine::naive`).
//!
//! Seeded random programs stress exactly what the kernel decides with slot
//! arithmetic instead of symbolic rewriting:
//!
//! * rule constraints with multi-variable equalities and inequalities over
//!   variables that different body literals bind, so each atom becomes
//!   decidable (or solvable) at a different join step — and at different
//!   steps under different join orders;
//! * heads with free positions, whose values only a residual constraint
//!   determines (derived constraint facts);
//! * EDBs that mix ground rows with constraint facts (free positions,
//!   linked positions, one position bound), plus symbols next to numbers.
//!
//! Every program runs under every rewriting strategy × threads {1, 2} ×
//! static plans on/off and must store the oracle's denotation, predicate
//! by predicate.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pushing_constraint_selections::engine::naive::{self, NaiveResult};
use pushing_constraint_selections::engine::EvalResult;
use pushing_constraint_selections::prelude::*;
use pushing_constraint_selections::Strategy as OptStrategy;

fn all_strategies() -> Vec<OptStrategy> {
    vec![
        OptStrategy::None,
        OptStrategy::ConstraintRewrite,
        OptStrategy::MagicOnly,
        OptStrategy::Optimal,
        OptStrategy::Sequence(vec![Step::Qrp, Step::Magic]),
        OptStrategy::Sequence(vec![Step::Magic, Step::Qrp]),
        OptStrategy::Sequence(vec![Step::Magic, Step::Pred, Step::Qrp]),
    ]
}

/// Variables the generated rules draw from.
const VARS: [&str; 5] = ["X", "Y", "Z", "W", "V"];

/// A random EDB: ground rows next to constraint facts.
fn random_edb(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.random_range(4..9usize) {
        let x = rng.random_range(0..6i64);
        let y = rng.random_range(0..6i64);
        text.push_str(&format!("a({x}, {y}).\n"));
    }
    for _ in 0..rng.random_range(4..9usize) {
        let x = rng.random_range(0..6i64);
        let y = rng.random_range(0..6i64);
        let z = rng.random_range(0..9i64);
        text.push_str(&format!("b({x}, {y}, {z}).\n"));
    }
    for i in 0..rng.random_range(3..6i64) {
        text.push_str(&format!("e({i}, {}).\n", i + rng.random_range(1..3i64)));
    }
    text.push_str("s(k1, 2).\ns(k2, 4).\ns(3, 1).\n");
    // Constraint facts: two linked free positions, a bounded box with a
    // computed position, and one bound position next to a free one.
    let lo = rng.random_range(0..3i64);
    text.push_str(&format!(
        "a(X, Y) :- X >= {lo}, X <= {}, Y = X + {}.\n",
        lo + 2,
        rng.random_range(0..3i64)
    ));
    if rng.random_range(0..2u8) == 0 {
        text.push_str(&format!(
            "b(X, Y, Z) :- X >= 1, X <= 3, Y >= 0, Y <= {}, Z = X + Y.\n",
            rng.random_range(2..5i64)
        ));
    }
    if rng.random_range(0..2u8) == 0 {
        text.push_str(&format!(
            "b({}, Y, Z) :- Y >= 0, Y <= 4, Z >= Y.\n",
            rng.random_range(0..4i64)
        ));
    }
    text
}

/// A random body literal over `a/2`, `b/3` or an earlier-layer predicate.
fn random_literal(rng: &mut StdRng, earlier: &[(String, usize)]) -> String {
    let var = |rng: &mut StdRng| VARS[rng.random_range(0..VARS.len())];
    let pick = rng.random_range(0..earlier.len() + 2);
    let (name, arity) = match pick {
        0 => ("a".to_string(), 2),
        1 => ("b".to_string(), 3),
        _ => earlier[pick - 2].clone(),
    };
    let args: Vec<&str> = (0..arity).map(|_| var(rng)).collect();
    format!("{name}({})", args.join(", "))
}

/// A random linear constraint over `vars`: a two- or three-variable
/// equality or inequality.
fn random_atom(rng: &mut StdRng, vars: &[String]) -> String {
    let n = rng.random_range(2..4usize).min(vars.len());
    let mut picked: Vec<&String> = Vec::new();
    while picked.len() < n {
        let v = &vars[rng.random_range(0..vars.len())];
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    let mut lhs = picked[0].clone();
    for v in &picked[1..] {
        match rng.random_range(0..3u8) {
            0 => lhs.push_str(&format!(" - {v}")),
            1 => lhs.push_str(&format!(" + 2 * {v}")),
            _ => lhs.push_str(&format!(" + {v}")),
        }
    }
    let op = ["=", "<=", ">=", "<", ">"][rng.random_range(0..5usize)];
    format!("{lhs} {op} {}", rng.random_range(-3..9i64))
}

/// A random two-layer program plus a recursive ground closure and a
/// symbol/number rule, with a query over the top layer.
fn random_program(rng: &mut StdRng) -> String {
    let mut text = String::from(
        "path(X, Y) :- e(X, Y).\n\
         path(X, Y) :- path(X, Z), e(Z, Y).\n\
         sym(X, N, M) :- s(X, N), a(N, M), M >= N - 2.\n\
         nosym(X) :- s(X, N), X <= 3.\n",
    );
    let mut earlier: Vec<(String, usize)> = vec![("path".to_string(), 2)];
    for layer in 0..2 {
        for r in 0..rng.random_range(2..4usize) {
            let name = format!("p{layer}{r}");
            let body: Vec<String> = (0..rng.random_range(1..4usize))
                .map(|_| random_literal(rng, &earlier))
                .collect();
            let mut bound: Vec<String> = VARS
                .iter()
                .filter(|v| body.iter().any(|l| l.contains(*v)))
                .map(|v| (*v).to_string())
                .collect();
            let mut atoms: Vec<String> = Vec::new();
            // A computed head value: a multi-variable equality solved once
            // the last of its body variables is bound.
            if bound.len() >= 2 && rng.random_range(0..2u8) == 0 {
                atoms.push(format!(
                    "S = {} + {} + {}",
                    bound[0],
                    bound[bound.len() - 1],
                    rng.random_range(0..4i64)
                ));
                bound.push("S".to_string());
            }
            for _ in 0..rng.random_range(0..3usize) {
                if bound.len() >= 2 {
                    atoms.push(random_atom(rng, &bound));
                }
            }
            let mut head: Vec<String> = bound
                .iter()
                .filter(|_| rng.random_range(0..3u8) > 0)
                .cloned()
                .collect();
            // A free head position, bounded by body variables or not at all.
            if rng.random_range(0..3u8) == 0 {
                let anchor = &bound[rng.random_range(0..bound.len())];
                atoms.push(format!("T >= {anchor}"));
                atoms.push(format!("T <= {anchor} + {}", rng.random_range(0..3i64)));
                head.push("T".to_string());
            } else if rng.random_range(0..6u8) == 0 {
                head.push("U".to_string());
            }
            if head.is_empty() {
                head.push(bound[0].clone());
            }
            let mut parts = body;
            parts.extend(atoms);
            text.push_str(&format!(
                "{name}({}) :- {}.\n",
                head.join(", "),
                parts.join(", ")
            ));
            earlier.push((name, head.len()));
        }
    }
    let (top, arity) = earlier.last().expect("two layers of rules").clone();
    let args: Vec<String> = (0..arity).map(|i| format!("Q{i}")).collect();
    text.push_str(&format!("?- {top}({}).\n", args.join(", ")));
    text
}

/// Asserts the production run stores the oracle's denotation.
fn assert_matches_oracle(production: &EvalResult, oracle: &NaiveResult, context: &str) {
    assert!(
        production.termination.is_fixpoint(),
        "production stopped ({:?}) {context}",
        production.termination
    );
    let preds: BTreeSet<&Pred> = production
        .relations
        .keys()
        .chain(oracle.relations.keys())
        .collect();
    for pred in preds {
        let prod_facts = production.facts_for(pred);
        let oracle_facts = oracle.facts_for(pred);
        for fact in &prod_facts {
            assert!(
                oracle_facts.iter().any(|o| o.subsumes(fact)),
                "production fact `{fact}` of `{pred}` is not covered by the oracle {context}"
            );
        }
        for fact in oracle_facts {
            assert!(
                prod_facts.iter().any(|p| p.subsumes(fact)),
                "oracle fact `{fact}` of `{pred}` is not covered by the production run {context}"
            );
        }
    }
}

#[test]
fn slot_kernel_matches_the_oracle_on_random_constraint_programs() {
    let mut rng = StdRng::seed_from_u64(0x5107_f4a3);
    let (mut compared, mut derived, mut constraint_facts) = (0usize, 0usize, 0usize);
    for case in 0..16 {
        let source = random_program(&mut rng);
        let edb = random_edb(&mut rng);
        let program = parse_program(&source).unwrap_or_else(|e| {
            panic!("case {case}: generated program does not parse: {e}\n{source}")
        });
        let mut db = Database::new();
        db.add_facts_str(&edb)
            .unwrap_or_else(|e| panic!("case {case}: generated EDB does not parse: {e}\n{edb}"));
        for strategy in all_strategies() {
            let Ok(optimized) = Optimizer::new(program.clone())
                .strategy(strategy.clone())
                .optimize()
            else {
                continue;
            };
            let oracle = naive::evaluate(&optimized.program, &db, &EvalLimits::capped(60));
            if !oracle.termination.is_fixpoint() {
                continue;
            }
            for threads in [1, 2] {
                for plan in [true, false] {
                    let options = EvalOptions::indexed()
                        .with_threads(threads)
                        .with_min_parallel_work(0)
                        .with_plan(plan);
                    let production = Evaluator::new(&optimized.program, options).evaluate(&db);
                    let context = format!(
                        "in case {case} under {strategy:?}, {threads} thread(s), plans {plan}\n\
                         program:\n{}\nEDB:\n{edb}",
                        optimized.program
                    );
                    assert_matches_oracle(&production, &oracle, &context);
                    compared += 1;
                    derived += production.stats.total_derivations();
                    constraint_facts += production.stats.constraint_facts;
                }
            }
        }
    }
    // The generator must actually exercise the kernel: most combinations
    // terminate, derive facts, and some derive constraint facts.
    assert!(compared >= 16 * 7 * 4 / 2, "only {compared} runs compared");
    assert!(derived > 1_000, "only {derived} derivations");
    assert!(constraint_facts > 0, "no constraint facts derived");
}
