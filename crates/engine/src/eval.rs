//! Bottom-up semi-naive fixpoint evaluation of CQL programs.
//!
//! The evaluator implements the rule-application semantics of Section 2: a
//! derivation picks one fact per body literal, forms the conjunction of the
//! rule's constraints with the equalities induced by the chosen facts, checks
//! satisfiability, and projects onto the head variables (quantifier
//! elimination) to obtain a new constraint fact.  Newly derived facts that
//! are subsumed by known facts are discarded, as in Tables 1 and 2 of the
//! paper.
//!
//! Every join path matches facts into the slot frame of `crate::slots`,
//! which decides the rule's constraints arithmetically as their variables
//! are bound; ground facts and ground bindings never reach Fourier–Motzkin,
//! so programs whose evaluation computes only ground facts (Theorem 4.4)
//! evaluate with ordinary Datalog-like cost.
//!
//! Two join cores are available behind [`EvalOptions::index`]:
//!
//! * the default **indexed** core drives each rule application off the
//!   explicit stable/delta/pending partition of [`Relation`], reorders the
//!   body literals per delta position (most-bound, most-selective first), and
//!   probes the per-position hash indexes with the values bound so far,
//!   falling back to scanning only the constraint-fact tail;
//! * the **legacy** core re-scans every visible fact with a nested-loop join
//!   and approximates the semi-naive deltas by slicing on fact counts.  It is
//!   kept for differential testing (see `tests/differential.rs`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

use pcs_telemetry as telemetry;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Var};
use pcs_lang::{Literal, Pred, Program, Query, Rule, Term};

use crate::database::{Database, UpdateBatch};
use crate::fact::{Binding, Fact};
use crate::limits::{EvalLimits, Termination};
use crate::plan::{compile_plans, PlanStep, ProgramPlans, SelectivityHints};
use crate::relation::{FactRef, InsertOutcome, Relation, Window};
use crate::slots::{ArithmeticOverflow, Frame, Kernel, SlotRule, SlotTerm};
use crate::stats::{DerivationRecord, EvalStats, IterationStats};
use crate::value::Value;

/// Options controlling an evaluation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Resource limits.
    pub limits: EvalLimits,
    /// When `true`, every derivation is recorded in the statistics
    /// (needed to regenerate Tables 1 and 2; expensive for large workloads).
    pub trace: bool,
    /// When `true` (the default), evaluation uses the indexed join core;
    /// when `false`, the legacy nested-loop core.  The default can be forced
    /// to the legacy core by setting the `PCS_EVAL_INDEX` environment
    /// variable to `off` (used by CI to run the whole suite differentially).
    pub index: bool,
    /// Number of worker threads for the derivation rounds inside each
    /// iteration.  `1` evaluates on the calling thread through the exact
    /// sequential code path; larger values shard the
    /// (rule × delta-position × delta-fact) work of every iteration across a
    /// scoped worker pool whose thread-local buffers are merged in
    /// deterministic (rule, delta-position, delta-fact) order, so the
    /// computed relations, statistics, and termination are identical to the
    /// sequential evaluation.  Defaults to the machine's available
    /// parallelism; the `PCS_EVAL_THREADS` environment variable overrides
    /// the default.
    pub threads: usize,
    /// Minimum per-iteration derivation work (delta candidates summed over
    /// all rules and delta positions) before a multi-thread evaluation
    /// actually shards the round across the worker pool; narrower rounds
    /// run on the calling thread, since spawning workers would cost more
    /// than the round itself.  Purely a scheduling knob — the results are
    /// identical either way.  Defaults to [`MIN_PARALLEL_ROUND_WORK`]; set
    /// to `0` to shard every round.
    pub min_parallel_work: usize,
    /// Storage layout for the relations this evaluator creates: `Some(true)`
    /// forces the columnar ground store, `Some(false)` the row-wise
    /// full-fact tail, `None` (the default) follows the process-wide
    /// `PCS_COLUMNAR` setting.  Purely a representation knob — the computed
    /// relations, statistics, and termination are identical either way
    /// (the property the conformance suites check under both values).
    pub columnar: Option<bool>,
    /// When `true`, the optimizer prunes rules the static analyzer proves
    /// dead (unsatisfiable constraints, provably empty body predicates)
    /// before rewriting.  Purely an optimization knob — dead rules derive
    /// nothing, so the computed answers are identical either way (the
    /// property `tests/analysis_differential.rs` checks).  Off by default.
    pub prune_dead: bool,
    /// When `true` (the default), every (rule × delta-position) body is
    /// compiled once into a static [`JoinPlan`](crate::plan::JoinPlan)
    /// before the fixpoint starts
    /// and both join cores execute the precompiled plans (the legacy core
    /// takes the static literal order, the indexed core additionally the
    /// static probe-column choices and existence shortcuts); when `false`,
    /// the dynamic per-iteration ordering is kept.  Purely an optimization
    /// knob — the computed relations, statistics, and termination are
    /// identical either way (the property `tests/plan_differential.rs`
    /// checks).  The default can be forced off by setting the `PCS_PLAN`
    /// environment variable to `off`.
    pub plan: bool,
    /// Analyzer-derived per-position selectivity classes consumed by the
    /// plan compiler (see [`SelectivityHints`]).  Empty by default — the
    /// planner then falls back to the purely structural most-bound-first
    /// order; `Optimizer::optimize()` fills the hints from the converged
    /// constraint analysis.
    pub hints: SelectivityHints,
    /// When `true`, this evaluator records phase spans (plan-compile,
    /// fixpoint, resume, retract) and per-iteration wall time into the
    /// process-wide `pcs-telemetry` registry.  Purely observational — the
    /// computed relations, the non-timing statistics, and the termination
    /// are identical either way (the property
    /// `tests/telemetry_differential.rs` checks).  Defaults to the
    /// process-wide `PCS_TELEMETRY` setting (`off` unless set to `on` or
    /// `trace`).  The deep join-loop counters (index probes, probe
    /// hits/misses, subsumption checks, FM satisfiability calls) are gated
    /// on the global mode alone, so flipping only this flag affects spans
    /// and iteration timing.
    pub telemetry: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            limits: EvalLimits::default(),
            trace: false,
            index: index_enabled_by_default(),
            threads: threads_from_env(),
            min_parallel_work: MIN_PARALLEL_ROUND_WORK,
            columnar: None,
            prune_dead: false,
            plan: plan_enabled_by_default(),
            hints: SelectivityHints::default(),
            telemetry: pcs_telemetry::enabled(),
        }
    }
}

/// Default for [`EvalOptions::min_parallel_work`]: rounds with fewer total
/// delta candidates than this evaluate on the calling thread even when a
/// worker pool is configured, because per-iteration thread spawning would
/// dominate such narrow rounds (e.g. the magic Fibonacci programs derive a
/// handful of facts per iteration across hundreds of iterations).
pub const MIN_PARALLEL_ROUND_WORK: usize = 256;

/// Reads one evaluator environment variable through `parse`.
///
/// Unset means `default`.  A set-but-unrecognized value also falls back to
/// `default`, but with a visible warning on stderr: a misspelled
/// `PCS_EVAL_THREADS=two` or `PCS_EVAL_INDEX=offf` must not silently select
/// the default configuration.
fn env_setting<T>(
    name: &str,
    expected: &str,
    default: impl FnOnce() -> T,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    match std::env::var(name) {
        Ok(raw) => {
            let value = raw.trim();
            parse(value).unwrap_or_else(|| {
                eprintln!("warning: ignoring invalid {name}={value:?}: expected {expected}");
                default()
            })
        }
        Err(_) => default(),
    }
}

/// Recognized spellings of the `PCS_EVAL_INDEX` join-core selector.
fn parse_index_setting(value: &str) -> Option<bool> {
    match value {
        "on" | "1" | "true" | "indexed" => Some(true),
        "off" | "0" | "false" | "legacy" => Some(false),
        _ => None,
    }
}

/// Recognized values of the `PCS_EVAL_THREADS` worker-count override.
fn parse_threads_setting(value: &str) -> Option<usize> {
    value.parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Recognized spellings of the `PCS_PLAN` static-plan toggle.
fn parse_plan_setting(value: &str) -> Option<bool> {
    match value {
        "on" | "1" | "true" => Some(true),
        "off" | "0" | "false" => Some(false),
        _ => None,
    }
}

/// Reads the `PCS_PLAN` environment variable; unset (or invalid, with a
/// warning) selects precompiled static join plans.
fn plan_enabled_by_default() -> bool {
    env_setting(
        "PCS_PLAN",
        "`on`/`1`/`true` or `off`/`0`/`false`",
        || true,
        parse_plan_setting,
    )
}

/// Reads the `PCS_EVAL_INDEX` environment variable; unset (or invalid, with
/// a warning) selects the indexed join core.
fn index_enabled_by_default() -> bool {
    env_setting(
        "PCS_EVAL_INDEX",
        "`on`/`1`/`true`/`indexed` or `off`/`0`/`false`/`legacy`",
        || true,
        parse_index_setting,
    )
}

/// Reads the `PCS_EVAL_THREADS` environment variable; a positive integer
/// selects that many evaluation worker threads, unset (or invalid, with a
/// warning) falls back to the machine's available parallelism.
fn threads_from_env() -> usize {
    env_setting(
        "PCS_EVAL_THREADS",
        "a positive thread count",
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        parse_threads_setting,
    )
}

impl EvalOptions {
    /// Options with an iteration cap and tracing enabled.
    pub fn traced(max_iterations: usize) -> Self {
        EvalOptions {
            limits: EvalLimits::capped(max_iterations),
            trace: true,
            ..EvalOptions::default()
        }
    }

    /// Options selecting the indexed join core regardless of the environment.
    pub fn indexed() -> Self {
        EvalOptions {
            index: true,
            ..EvalOptions::default()
        }
    }

    /// Options selecting the legacy nested-loop join core (differential
    /// testing and benchmarking of the indexed core).
    pub fn legacy() -> Self {
        EvalOptions {
            index: false,
            ..EvalOptions::default()
        }
    }

    /// Returns these options with the given number of evaluation worker
    /// threads (clamped to at least one; `1` selects the exact sequential
    /// code path regardless of the environment).
    pub fn with_threads(self, threads: usize) -> Self {
        EvalOptions {
            threads: threads.max(1),
            ..self
        }
    }

    /// Returns these options with the given sharding threshold (see
    /// [`EvalOptions::min_parallel_work`]); `0` shards every round through
    /// the worker pool, however narrow.
    pub fn with_min_parallel_work(self, min_parallel_work: usize) -> Self {
        EvalOptions {
            min_parallel_work,
            ..self
        }
    }

    /// Returns these options with the relation storage layout forced to
    /// columnar (`true`) or row-wise (`false`) regardless of the
    /// process-wide `PCS_COLUMNAR` setting (see [`EvalOptions::columnar`]).
    pub fn with_columnar(self, columnar: bool) -> Self {
        EvalOptions {
            columnar: Some(columnar),
            ..self
        }
    }

    /// Returns these options with analyzer-driven dead-rule pruning switched
    /// on or off (see [`EvalOptions::prune_dead`]).
    pub fn with_prune_dead(self, prune_dead: bool) -> Self {
        EvalOptions { prune_dead, ..self }
    }

    /// Returns these options with precompiled static join plans switched on
    /// or off regardless of the process-wide `PCS_PLAN` setting (see
    /// [`EvalOptions::plan`]).
    pub fn with_plan(self, plan: bool) -> Self {
        EvalOptions { plan, ..self }
    }

    /// Returns these options with the given analyzer-derived selectivity
    /// hints for the plan compiler (see [`EvalOptions::hints`]).
    pub fn with_hints(self, hints: SelectivityHints) -> Self {
        EvalOptions { hints, ..self }
    }

    /// Returns these options with phase spans and per-iteration wall-time
    /// recording switched on or off regardless of the process-wide
    /// `PCS_TELEMETRY` setting (see [`EvalOptions::telemetry`]).
    pub fn with_telemetry(self, telemetry: bool) -> Self {
        EvalOptions { telemetry, ..self }
    }
}

/// The result of a bottom-up evaluation.
#[derive(Debug)]
pub struct EvalResult {
    /// The computed relations, per predicate (EDB relations included).
    pub relations: BTreeMap<Pred, Relation>,
    /// Evaluation statistics.
    pub stats: EvalStats,
    /// Why the evaluation stopped.
    pub termination: Termination,
}

impl EvalResult {
    /// The facts computed for a predicate, materialized in insertion order.
    pub fn facts_for(&self, pred: &Pred) -> Vec<Fact> {
        self.relations
            .get(pred)
            .map(Relation::to_facts)
            .unwrap_or_default()
    }

    /// Number of facts computed for a predicate.
    pub fn count_for(&self, pred: &Pred) -> usize {
        self.relations.get(pred).map_or(0, Relation::len)
    }

    /// Total number of facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Deterministic estimate of the bytes held by the fact storage across
    /// all relations (see `Relation::approx_fact_bytes`).
    pub fn approx_fact_bytes(&self) -> usize {
        self.relations
            .values()
            .map(Relation::approx_fact_bytes)
            .sum()
    }

    /// The answers to a query: facts for the query literal's predicate that
    /// are compatible with its ground arguments and variable-repetition
    /// pattern, and satisfiable together with the query's side constraints.
    ///
    /// This is the single query entry point — ground-argument filtering,
    /// repeated variables (`?- q(X, X)`), and side constraints
    /// (`?- q(X, Y), X <= 3`) are all handled here.  The query is expected
    /// to have exactly one literal (the shape [`pcs_lang::parse_query`]
    /// produces for interactive queries; multi-literal queries are rewritten
    /// to a single query predicate before evaluation); extra literals are
    /// ignored, and a query with no literals has no answers.
    pub fn answers(&self, query: &Query) -> Vec<Fact> {
        let Some(literal) = query.literals.first() else {
            return Vec::new();
        };
        self.facts_for(&literal.predicate)
            .into_iter()
            .filter(|fact| fact_matches_pattern(fact, literal, &query.constraint))
            .collect()
    }

    /// Facts for the predicate of `query` that are compatible with its ground
    /// arguments (the "answers" to the query).
    #[deprecated(since = "0.1.0", note = "use `answers(&Query::new(literal))` instead")]
    pub fn answers_to(&self, query: &Literal) -> Vec<Fact> {
        self.answers(&Query::new(query.clone()))
    }

    /// Like `answers_to`, but additionally requires the side constraints
    /// `side` (over the query literal's variables) to be satisfiable
    /// together with the fact.
    #[deprecated(
        since = "0.1.0",
        note = "use `answers(&Query::with_constraint(vec![literal], side))` instead"
    )]
    pub fn answers_to_constrained(&self, query: &Literal, side: &Conjunction) -> Vec<Fact> {
        self.answers(&Query::with_constraint(vec![query.clone()], side.clone()))
    }

    /// Returns `true` if every computed fact is ground.
    pub fn only_ground_facts(&self) -> bool {
        self.relations
            .values()
            .all(|r| r.constraint_fact_count() == 0)
    }
}

/// Decides whether `fact` is compatible with the ground arguments and the
/// variable-repetition pattern of `query`.
///
/// A ground query constant against a free fact position is accepted only if
/// the fact's residual constraint is satisfiable with that position pinned to
/// the constant — `?- q(5)` must not match a fact constrained to `$1 <= 3`.
/// A query variable occurring more than once (`?- q(X, X)`) requires all its
/// positions to be able to hold one common value: equal ground values, or a
/// satisfiable conjunction of position equalities over the free slots.
/// Side constraints over the query variables (`side`) are rewritten onto the
/// fact's positions and conjoined before the final satisfiability check.
fn fact_matches_pattern(fact: &Fact, query: &Literal, side: &Conjunction) -> bool {
    if fact.arity() != query.arity() {
        return false;
    }
    let mut constraint = fact.constraint().clone();
    // A free position can hold a symbol only when the residual constraint
    // does not restrict it to numbers.
    let free_accepts_sym = |slot: usize| !fact.constraint().contains_var(&Var::position(slot));
    // Per query variable: the ground value some occurrence is bound to (if
    // any) and the 1-based free slots its occurrences cover.
    #[derive(Default)]
    struct VarGroup {
        value: Option<Value>,
        slots: Vec<usize>,
    }
    let mut groups: BTreeMap<&Var, VarGroup> = BTreeMap::new();
    // Equalities induced by expression arguments (`?- q(X + 1)`), kept
    // aside until the groups are complete so their variables can be
    // rewritten onto the fact's positions alongside the side constraints.
    let mut expr_atoms: Vec<Atom> = Vec::new();
    for (i, (binding, term)) in fact.bindings().iter().zip(&query.args).enumerate() {
        let slot = i + 1;
        match term {
            Term::Sym(s) => match binding {
                Binding::Bound(Value::Sym(fs)) if fs == s => {}
                Binding::Free => {
                    if !free_accepts_sym(slot) {
                        return false;
                    }
                }
                _ => return false,
            },
            Term::Num(n) => match binding {
                Binding::Bound(v) if v.as_num() == Some(*n) => {}
                Binding::Free => constraint.push(Atom::var_eq(Var::position(slot), *n)),
                _ => return false,
            },
            Term::Var(x) => {
                let group = groups.entry(x).or_default();
                match binding {
                    Binding::Bound(value) => match &group.value {
                        Some(existing) if existing != value => return false,
                        _ => group.value = Some(value.clone()),
                    },
                    Binding::Free => group.slots.push(slot),
                }
            }
            // An arithmetic expression argument must equal the fact's value
            // at this position; a symbol can never satisfy arithmetic.
            Term::Expr(e) => match binding {
                Binding::Bound(v) => match v.as_num() {
                    Some(n) => expr_atoms.push(Atom::compare(
                        e.clone(),
                        CmpOp::Eq,
                        LinearExpr::constant(n),
                    )),
                    None => return false,
                },
                Binding::Free => expr_atoms.push(Atom::compare(
                    e.clone(),
                    CmpOp::Eq,
                    LinearExpr::var(Var::position(slot)),
                )),
            },
        }
    }
    for group in groups.values() {
        match &group.value {
            Some(v) => match v.as_num() {
                // Pin every free slot of the group to the number.
                Some(n) => {
                    for &slot in &group.slots {
                        constraint.push(Atom::var_eq(Var::position(slot), n));
                    }
                }
                // Every free slot of the group must be able to hold the
                // symbol.
                None => {
                    if !group.slots.iter().all(|&slot| free_accepts_sym(slot)) {
                        return false;
                    }
                }
            },
            // No ground occurrence: the free slots must agree pairwise.
            None => {
                for pair in group.slots.windows(2) {
                    constraint.push(Atom::compare(
                        LinearExpr::var(Var::position(pair[0])),
                        CmpOp::Eq,
                        LinearExpr::var(Var::position(pair[1])),
                    ));
                }
            }
        }
    }
    // Rewrite the expression-argument equalities and the side constraints
    // onto the fact's positions: a query variable bound to a number
    // substitutes as a constant, one covering a free slot substitutes as
    // that slot's position variable, and one bound to a symbol cannot
    // appear in arithmetic at all.  Variables the query literal's
    // non-expression arguments do not mention stay as they are
    // (existential), linked to the rest through the conjoined atoms — so
    // `?- q(X + 1), X >= 100` pins the fact's value to `>= 101` even
    // though `X` itself covers no position.
    for atom in expr_atoms.iter().chain(side.atoms()) {
        let mut current = atom.clone();
        for var in atom.vars() {
            if let Some(group) = groups.get(var) {
                match (&group.value, group.slots.first()) {
                    (Some(v), _) => match v.as_num() {
                        Some(n) => current = current.substitute(var, &LinearExpr::constant(n)),
                        None => return false,
                    },
                    (None, Some(&slot)) => {
                        current = current.substitute(var, &LinearExpr::var(Var::position(slot)));
                    }
                    (None, None) => {}
                }
            }
        }
        constraint.push(current);
    }
    telemetry::bump(telemetry::Counter::FmSatCalls);
    constraint.is_satisfiable()
}

/// The bottom-up semi-naive evaluator.
pub struct Evaluator {
    program: Program,
    options: EvalOptions,
    /// Static join plans, compiled once per evaluator when
    /// [`EvalOptions::plan`] is on; `None` keeps the dynamic per-iteration
    /// ordering.
    plans: Option<ProgramPlans>,
    /// Every rule compiled into slot form, by rule index: the binding
    /// header every join path matches against.
    slot_rules: Vec<SlotRule>,
}

impl Evaluator {
    /// Creates an evaluator for a program (which is flattened internally).
    /// When [`EvalOptions::plan`] is on, every (rule × delta-position) body
    /// is compiled into a validated static [`crate::plan::JoinPlan`] here,
    /// once, instead of being re-ordered every fixpoint iteration.
    pub fn new(program: &Program, options: EvalOptions) -> Self {
        let program = program.flattened();
        let plans = options.plan.then(|| {
            let _span = telemetry::span_if(options.telemetry, telemetry::Phase::PlanCompile);
            compile_plans(&program, &options.hints)
        });
        let slot_rules = program.rules().iter().map(SlotRule::compile).collect();
        Evaluator {
            program,
            options,
            plans,
            slot_rules,
        }
    }

    /// Creates an evaluator with default options.
    pub fn with_defaults(program: &Program) -> Self {
        Evaluator::new(program, EvalOptions::default())
    }

    /// The (flattened) program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the evaluation against a database.
    pub fn evaluate(&self, db: &Database) -> EvalResult {
        self.run_fixpoint(Start::Scratch(db), self.options.index, 0)
    }

    /// Re-enters the semi-naive fixpoint on an already-materialized set of
    /// relations, with `updates` as the seed delta.
    ///
    /// `relations` is the `relations` map of a *completed* evaluation of the
    /// same program (typically a previous [`EvalResult`]); every stored fact
    /// is treated as stable, the update facts that are not subsumed by the
    /// materialization become the first delta, and the fixpoint proceeds
    /// exactly as if the updates had been derived by a regular iteration.
    /// Empty-body rules do not re-fire (their facts are already in the
    /// materialization), and the legacy join core replays its count-sliced
    /// discipline starting from a semi-naive round, so for both cores the
    /// resumed result stores the same facts as evaluating base + updates
    /// from scratch — the property `tests/resume_differential.rs` pins down
    /// across every rewriting strategy.
    ///
    /// Resuming from a partial materialization (one that stopped on a
    /// resource limit rather than a fixpoint) is not supported: derivations
    /// the interrupted run never attempted are not replayed.
    pub fn resume(&self, relations: BTreeMap<Pred, Relation>, updates: Vec<Fact>) -> EvalResult {
        self.apply_impl(relations, Vec::new(), updates, &Database::new(), false)
    }

    /// Applies a mixed [`UpdateBatch`] to an already-materialized set of
    /// relations in a *single* incremental pass: the retractions run the
    /// DRed-style delete/re-derive phases of [`Self::retract`], the
    /// insertions join the re-derivation delta, and one resumed semi-naive
    /// fixpoint propagates both together — instead of the separate retract
    /// and resume passes (each with its own fixpoint) the batch would
    /// otherwise cost.
    ///
    /// Semantics are retracts-then-inserts, matching [`UpdateBatch`]:
    /// `surviving_edb` must be the extensional database after the
    /// retractions but *without* the insertions (they are seeded as delta
    /// facts directly).  The result stores the same facts as evaluating
    /// `surviving_edb` + inserts from scratch — the property
    /// `tests/resume_differential.rs` pins down for mixed batches.
    ///
    /// A batch with no retracts degenerates to [`Self::resume`]; one with no
    /// inserts degenerates to [`Self::retract`] (including its stats shape).
    pub fn apply(
        &self,
        relations: BTreeMap<Pred, Relation>,
        batch: UpdateBatch,
        surviving_edb: &Database,
    ) -> EvalResult {
        let retracted = !batch.retracts.is_empty();
        self.apply_impl(
            relations,
            batch.retracts,
            batch.inserts,
            surviving_edb,
            retracted,
        )
    }

    /// Incrementally retracts facts from an already-materialized set of
    /// relations (DRed-style delete/re-derive), re-entering the shared
    /// semi-naive fixpoint for the propagation phase.
    ///
    /// `relations` is the `relations` map of a *completed* evaluation of the
    /// same program; `deletions` are the facts to retract (matched against
    /// the stored facts by [`Fact::equivalent`], so a re-phrased constraint
    /// fact still names the stored fact it denotes); `surviving_edb` is the
    /// extensional database *after* the deletions — the caller's source of
    /// truth for the base facts, needed to resurrect EDB facts that a
    /// retracted constraint fact subsumed at seed time and that were
    /// therefore never stored.
    ///
    /// Three phases:
    ///
    /// 1. **Over-deletion** — the transitive closure of support: starting
    ///    from the stored facts equivalent to the deletions, every stored
    ///    fact with a one-step derivation consuming an already-deleted fact
    ///    (joined through the per-position indexes against the full original
    ///    materialization, so derivations touching several deleted facts are
    ///    found) is removed as well.
    /// 2. **Re-derivation round** — for every rule whose head predicate lost
    ///    facts: empty-body rules re-fire, and body rules re-join over the
    ///    survivors with the head pinned to each removed ground fact (the
    ///    unpinned full join is the fallback when a removed fact is a proper
    ///    constraint fact).  Alternative derivations re-insert exactly the
    ///    over-deleted facts that are still derivable; surviving EDB facts
    ///    of the affected predicates are re-inserted first, resurrecting
    ///    anything a retracted subsuming fact had swallowed.
    /// 3. **Propagation** — the re-inserted facts become the delta of a
    ///    resumed run of the shared semi-naive fixpoint, which re-derives
    ///    the downstream cone exactly as an insertion batch would, for both
    ///    join cores.
    ///
    /// The result stores the same facts as evaluating the surviving EDB from
    /// scratch — the property `tests/resume_differential.rs` pins down for
    /// arbitrary interleavings of inserts and retracts.  Like
    /// [`Self::resume`], retracting from a *partial* materialization (one
    /// that stopped on a resource limit) is not supported.
    ///
    /// Limits: the re-derivation round and the resumed fixpoint enforce
    /// [`EvalLimits`] per fact, exactly like a regular evaluation, against
    /// *one shared* derivation budget (the resumed fixpoint is pre-charged
    /// with the re-derivation round's spending, so a retraction cannot
    /// overshoot `max_derivations`).  The over-deletion joins are
    /// deliberately *exempt* from
    /// `max_derivations` and do not appear in the statistics: an
    /// over-deletion stopped halfway would leave facts whose support is
    /// gone still stored — an unsound state — and its work is already
    /// bounded by the support structure of the completed materialization
    /// being retracted from.
    pub fn retract(
        &self,
        relations: BTreeMap<Pred, Relation>,
        deletions: Vec<Fact>,
        surviving_edb: &Database,
    ) -> EvalResult {
        self.apply_impl(relations, deletions, Vec::new(), surviving_edb, true)
    }

    /// The shared incremental-update engine behind [`Self::resume`],
    /// [`Self::retract`], and [`Self::apply`]: DRed phases 1–2 for the
    /// deletions, insertions seeded into the pending segment alongside the
    /// re-derived facts, then one resumed fixpoint propagating the combined
    /// delta.  `mark_retracted` controls whether the result carries the
    /// retraction stats shape (the leading re-derivation iteration and the
    /// `retracted`/`removed_facts` fields).
    fn apply_impl(
        &self,
        mut relations: BTreeMap<Pred, Relation>,
        deletions: Vec<Fact>,
        inserts: Vec<Fact>,
        surviving_edb: &Database,
        mark_retracted: bool,
    ) -> EvalResult {
        let _phase_span = telemetry::span_if(
            self.options.telemetry,
            if mark_retracted {
                telemetry::Phase::Retract
            } else {
                telemetry::Phase::Resume
            },
        );
        let limits = self.options.limits;
        for pred in self.program.all_predicates() {
            relations.entry(pred).or_insert_with(|| self.new_relation());
        }
        for relation in relations.values_mut() {
            relation.seal();
        }

        // Phase 1: transitive over-deletion.  `removed` collects the stored
        // fact indices to drop; the frontier of each round holds the facts
        // newly marked in the previous round.  Joins read the full original
        // materialization (removal is deferred), so a derivation consuming
        // several deleted facts still propagates.
        let mut removed: BTreeMap<Pred, BTreeSet<usize>> = BTreeMap::new();
        let mut frontier: Vec<Fact> = Vec::new();
        for deletion in &deletions {
            if let Some(relation) = relations.get(deletion.predicate()) {
                if let Some(index) = relation.find_equivalent(deletion) {
                    if removed
                        .entry(deletion.predicate().clone())
                        .or_default()
                        .insert(index)
                    {
                        frontier.push(relation.fact_at(index));
                    }
                }
            }
        }
        while !frontier.is_empty() {
            let mut by_pred: BTreeMap<&Pred, Vec<&Fact>> = BTreeMap::new();
            for fact in &frontier {
                by_pred.entry(fact.predicate()).or_default().push(fact);
            }
            let mut next: Vec<Fact> = Vec::new();
            for (rule, slots) in self.program.rules().iter().zip(&self.slot_rules) {
                for delta_pos in 0..rule.body.len() {
                    let Some(deleted_here) = by_pred.get(&rule.body[delta_pos].predicate) else {
                        continue;
                    };
                    for deleted in deleted_here {
                        let Ok(heads) =
                            overdelete_derivations(rule, slots, delta_pos, deleted, &relations)
                        else {
                            return self.stop_apply(
                                relations,
                                Vec::new(),
                                mark_retracted,
                                0,
                                Termination::ArithmeticOverflow,
                            );
                        };
                        for head in heads {
                            let Some(relation) = relations.get(head.predicate()) else {
                                continue;
                            };
                            let Some(index) = relation.find_equivalent(&head) else {
                                continue;
                            };
                            if removed
                                .entry(head.predicate().clone())
                                .or_default()
                                .insert(index)
                            {
                                next.push(relation.fact_at(index));
                            }
                        }
                    }
                }
            }
            frontier = next;
        }

        // The removed facts themselves (in stored order) drive the pinned
        // re-derivation targets below; collect them before the indices go
        // stale.
        let mut removed_facts: BTreeMap<Pred, Vec<Fact>> = BTreeMap::new();
        for (pred, indices) in &removed {
            let relation = &relations[pred];
            removed_facts
                .entry(pred.clone())
                .or_default()
                .extend(indices.iter().map(|&index| relation.fact_at(index)));
        }
        let mut removed_total = 0;
        for (pred, indices) in &removed {
            removed_total += relations
                .get_mut(pred)
                .expect("marked relations exist")
                .remove_indices(indices);
        }

        // The batch insertions land in the pending segment next to whatever
        // phase 2 re-derives: invisible to the re-derivation joins (which
        // read the sealed windows), they join the combined delta at the
        // phase-3 advance, so retracts and inserts share one resumed
        // fixpoint.
        for fact in inserts {
            relations
                .entry(fact.predicate().clone())
                .or_insert_with(|| self.new_relation())
                .insert(fact);
        }

        // Phase 2: resurrection and the re-derivation round.  Everything
        // inserted here lands in the pending segment and becomes the delta
        // of the resumed fixpoint.
        let mut rederive_stats = IterationStats::default();
        let mut totals = EvalTotals {
            derivations: 0,
            facts: relations.values().map(Relation::len).sum(),
        };
        let mut hit_limit = None;
        if removed_total > 0 {
            for pred in removed_facts.keys() {
                for fact in surviving_edb.facts_for(pred) {
                    relations
                        .get_mut(pred)
                        .expect("affected relations exist")
                        .insert(fact.clone());
                }
            }
            let mut tasks: Vec<RoundTask<'_>> = Vec::new();
            for (rule_index, (rule, slots)) in self
                .program
                .rules()
                .iter()
                .zip(&self.slot_rules)
                .enumerate()
            {
                let Some(targets) = removed_facts.get(&rule.head.predicate) else {
                    continue;
                };
                let label = rule
                    .label
                    .clone()
                    .unwrap_or_else(|| format!("rule{}", rule_index + 1));
                if rule.body.is_empty() {
                    tasks.push(RoundTask {
                        rule,
                        slots,
                        label,
                        kind: TaskKind::Seed,
                    });
                } else if targets.iter().any(|target| !target.is_ground()) {
                    // A removed proper constraint fact could cover facts a
                    // pinned join would miss: fall back to the full join.
                    let order = order_known(rule, None, &BTreeSet::new(), &relations);
                    tasks.push(RoundTask {
                        rule,
                        slots,
                        label,
                        kind: TaskKind::Pinned {
                            order,
                            start: Frame::new(slots),
                        },
                    });
                } else {
                    for target in targets {
                        let mut start = Frame::new(slots);
                        match start.match_fact(slots, slots.head(), FactRef::Stored(target)) {
                            Ok(true) => {}
                            Ok(false) => continue,
                            Err(ArithmeticOverflow) => {
                                return self.stop_apply(
                                    relations,
                                    vec![rederive_stats],
                                    mark_retracted,
                                    removed_total,
                                    Termination::ArithmeticOverflow,
                                );
                            }
                        }
                        let order = order_known(rule, None, &start.bound_vars(slots), &relations);
                        tasks.push(RoundTask {
                            rule,
                            slots,
                            label: label.clone(),
                            kind: TaskKind::Pinned { order, start },
                        });
                    }
                }
            }
            let work: usize = tasks
                .iter()
                .map(|task| match &task.kind {
                    TaskKind::Pinned { order, .. } => relations
                        .get(&task.rule.body[order[0].0].predicate)
                        .map_or(0, |r| r.window_range(Window::Known).len()),
                    _ => 1,
                })
                .sum();
            let threads = self.options.threads.max(1);
            let parallel = threads > 1 && work >= self.options.min_parallel_work;
            let empty = BTreeMap::new();
            let budget = limits.max_derivations;
            if parallel && tasks.len() > 1 {
                let buffers = {
                    let ctx = RoundCtx {
                        relations: &relations,
                        naive_round: false,
                        before_prev: &empty,
                        prev: &empty,
                    };
                    run_tasks_parallel(&tasks, &ctx, budget, threads)
                };
                for (task, derived) in tasks.iter().zip(buffers) {
                    hit_limit = absorb_derived(
                        derived,
                        &task.label,
                        self.options.trace,
                        &limits,
                        &mut relations,
                        &mut rederive_stats,
                        &mut totals,
                    );
                    if hit_limit.is_some() {
                        break;
                    }
                }
            } else {
                for task in &tasks {
                    let derived = {
                        let ctx = RoundCtx {
                            relations: &relations,
                            naive_round: false,
                            before_prev: &empty,
                            prev: &empty,
                        };
                        run_task(task, &ctx, budget)
                    };
                    hit_limit = absorb_derived(
                        derived,
                        &task.label,
                        self.options.trace,
                        &limits,
                        &mut relations,
                        &mut rederive_stats,
                        &mut totals,
                    );
                    if hit_limit.is_some() {
                        break;
                    }
                }
            }
        }

        // Phase 3: the resurrected and re-derived facts become the delta of
        // the resumed semi-naive fixpoint (empty delta = one quiescent
        // iteration confirming the fixpoint).
        for relation in relations.values_mut() {
            relation.advance();
        }
        if let Some(limit) = hit_limit {
            return self.stop_apply(
                relations,
                vec![rederive_stats],
                mark_retracted,
                removed_total,
                limit,
            );
        }
        let mut result = self.run_fixpoint(
            Start::Resume(relations),
            self.options.index,
            rederive_stats.derivations,
        );
        if mark_retracted {
            result.stats.iterations.insert(0, rederive_stats);
            result.stats.retracted = true;
            result.stats.removed_facts = removed_total;
        }
        result
    }

    /// Ends an incremental pass before its resumed fixpoint (a limit hit in
    /// the re-derivation round, or arithmetic overflow) with the stats shape
    /// of a resumed run.
    fn stop_apply(
        &self,
        relations: BTreeMap<Pred, Relation>,
        iterations: Vec<IterationStats>,
        retracted: bool,
        removed_facts: usize,
        termination: Termination,
    ) -> EvalResult {
        let stats = EvalStats {
            iterations,
            indexed: self.options.index,
            resumed: true,
            retracted,
            removed_facts,
            ..EvalStats::default()
        };
        telemetry::flush_thread();
        Evaluator::finalize(relations, stats, termination)
    }

    /// An empty relation with this evaluator's configured storage layout
    /// (see [`EvalOptions::columnar`]).
    fn new_relation(&self) -> Relation {
        match self.options.columnar {
            Some(columnar) => Relation::with_columnar(columnar),
            None => Relation::new(),
        }
    }

    /// Seeds one relation per program/EDB predicate with the database facts.
    fn seed_relations(&self, db: &Database) -> BTreeMap<Pred, Relation> {
        let mut relations: BTreeMap<Pred, Relation> = BTreeMap::new();
        for pred in self.program.all_predicates() {
            relations.entry(pred).or_insert_with(|| self.new_relation());
        }
        for fact in db.all_facts() {
            relations
                .entry(fact.predicate().clone())
                .or_insert_with(|| self.new_relation())
                .insert(fact.clone());
        }
        relations
    }

    fn finalize(
        relations: BTreeMap<Pred, Relation>,
        mut stats: EvalStats,
        termination: Termination,
    ) -> EvalResult {
        stats.facts_per_predicate = relations
            .iter()
            .map(|(p, r)| (p.clone(), r.len()))
            .collect();
        stats.constraint_facts = relations
            .values()
            .map(Relation::constraint_fact_count)
            .sum();
        EvalResult {
            relations,
            stats,
            termination,
        }
    }

    /// The semi-naive fixpoint shared by both join cores.
    ///
    /// Every iteration is decomposed into an ordered list of derivation
    /// [`RoundTask`]s that only *read* the relations: joins see exactly the
    /// facts visible at the iteration boundary (pending insertions are
    /// invisible to every [`Window`] and to the legacy count slices), so the
    /// tasks can run in any order — including concurrently on a scoped
    /// worker pool when [`EvalOptions::threads`] is greater than one.  The
    /// derived facts are then absorbed strictly in task order, which makes
    /// the parallel evaluation bit-for-bit identical to the sequential one:
    /// subsumption outcomes, statistics, and termination depend only on the
    /// absorb order.
    ///
    /// A [`Start::Scratch`] evaluation seeds the relations from a database
    /// and opens with a naive round (every initial fact is delta, empty-body
    /// rules fire).  A [`Start::Resume`] evaluation receives relations whose
    /// stable segment is a completed materialization and whose delta is the
    /// freshly inserted update facts; it opens directly with a semi-naive
    /// round over that delta.
    ///
    /// `spent_derivations` pre-charges the derivation budget: a retraction's
    /// re-derivation round has already spent that many derivations against
    /// `max_derivations`, and the resumed fixpoint must not grant the cap a
    /// second time (the count is *not* reflected in the returned iteration
    /// statistics — the caller owns that round's stats).
    fn run_fixpoint(
        &self,
        start: Start<'_>,
        indexed: bool,
        spent_derivations: usize,
    ) -> EvalResult {
        let limits = self.options.limits;
        let threads = self.options.threads.max(1);
        let resumed = matches!(start, Start::Resume(_));
        // A resumed run's wall time is already covered by the enclosing
        // resume/retract span recorded in `apply_impl`.
        let _phase_span = telemetry::span_if(
            self.options.telemetry && !resumed,
            telemetry::Phase::Fixpoint,
        );
        let mut relations = match start {
            Start::Scratch(db) => {
                let mut relations = self.seed_relations(db);
                if indexed {
                    // The EDB facts form the first delta; stable starts
                    // empty, so the iteration-0 round is the naive round
                    // over the initial facts.
                    for relation in relations.values_mut() {
                        relation.advance();
                    }
                }
                relations
            }
            Start::Resume(relations) => relations,
        };

        // Legacy semi-naive state: fact counts per relation at the end of
        // the last two iterations (the indexed core reads its windows
        // instead and never touches these).  A resumed run recovers the
        // counts from the stable/delta boundary the resume entry point set
        // up, so its first legacy round joins the update delta against the
        // stable materialization.
        let counts = |relations: &BTreeMap<Pred, Relation>| -> BTreeMap<Pred, usize> {
            relations
                .iter()
                .map(|(p, r)| (p.clone(), r.len()))
                .collect()
        };
        let boundary = |relations: &BTreeMap<Pred, Relation>, window: Window| {
            relations
                .iter()
                .map(|(p, r)| (p.clone(), r.window_range(window).end))
                .collect::<BTreeMap<Pred, usize>>()
        };
        let mut before_prev = if resumed {
            boundary(&relations, Window::Stable) // end of iteration k-2
        } else {
            counts(&relations)
        };
        let mut prev = if resumed {
            boundary(&relations, Window::Known) // end of iteration k-1
        } else {
            counts(&relations)
        };

        let mut stats = EvalStats {
            indexed,
            resumed,
            ..EvalStats::default()
        };
        let mut totals = EvalTotals {
            derivations: spent_derivations,
            facts: relations.values().map(Relation::len).sum(),
        };
        let termination;
        let mut iteration = 0usize;
        // The dynamic ordering memo for this fixpoint run (plan-off only);
        // with static plans on, the orders come from the precompiled plans
        // instead.
        let mut order_cache: BTreeMap<(usize, usize), Vec<(usize, Window)>> = BTreeMap::new();
        loop {
            if iteration >= limits.max_iterations {
                termination = Termination::IterationLimit;
                break;
            }
            if totals.facts >= limits.max_facts {
                termination = Termination::FactLimit;
                break;
            }
            let iter_start = self.options.telemetry.then(Instant::now);
            let mut iter_stats = IterationStats {
                delta_facts: if indexed {
                    relations
                        .values()
                        .map(|r| r.window_range(Window::Delta).len())
                        .sum()
                } else {
                    0
                },
                ..IterationStats::default()
            };

            // A resumed run's first round is already semi-naive: the seed
            // facts fired (and the naive round ran) when the materialization
            // it resumes from was first computed.
            let naive_round = iteration == 0 && !resumed;
            let (mut tasks, round_work) = self.round_tasks(
                indexed,
                naive_round,
                &relations,
                &before_prev,
                &prev,
                &mut order_cache,
            );
            // Shard only rounds wide enough to amortize spawning the worker
            // pool; narrow rounds run on the calling thread with the exact
            // same results (the absorb order is the task order either way).
            let parallel = threads > 1 && round_work >= self.options.min_parallel_work;
            if parallel {
                tasks = chunk_tasks(tasks, threads);
            }
            // Any task derivations beyond this budget are guaranteed to be
            // discarded by the in-order absorption below, so tasks stop
            // generating there — a single iteration cannot buffer unboundedly
            // past `max_derivations`.
            let budget = limits.max_derivations.saturating_sub(totals.derivations);
            let mut hit_limit = None;
            if parallel && tasks.len() > 1 {
                let buffers = {
                    let ctx = RoundCtx {
                        relations: &relations,
                        naive_round,
                        before_prev: &before_prev,
                        prev: &prev,
                    };
                    run_tasks_parallel(&tasks, &ctx, budget, threads)
                };
                for (task, derived) in tasks.iter().zip(buffers) {
                    hit_limit = absorb_derived(
                        derived,
                        &task.label,
                        self.options.trace,
                        &limits,
                        &mut relations,
                        &mut iter_stats,
                        &mut totals,
                    );
                    if hit_limit.is_some() {
                        break;
                    }
                }
            } else {
                for task in &tasks {
                    let derived = {
                        let ctx = RoundCtx {
                            relations: &relations,
                            naive_round,
                            before_prev: &before_prev,
                            prev: &prev,
                        };
                        run_task(task, &ctx, budget)
                    };
                    hit_limit = absorb_derived(
                        derived,
                        &task.label,
                        self.options.trace,
                        &limits,
                        &mut relations,
                        &mut iter_stats,
                        &mut totals,
                    );
                    if hit_limit.is_some() {
                        break;
                    }
                }
            }

            let new_facts = iter_stats.new_facts;
            if let Some(started) = iter_start {
                iter_stats.wall_nanos =
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            stats.iterations.push(iter_stats);
            if indexed {
                for relation in relations.values_mut() {
                    relation.advance();
                }
            } else {
                before_prev = std::mem::replace(&mut prev, counts(&relations));
            }
            iteration += 1;

            if let Some(limit) = hit_limit {
                termination = limit;
                break;
            }
            if new_facts == 0 {
                termination = Termination::Fixpoint;
                break;
            }
        }
        telemetry::flush_thread();
        Evaluator::finalize(relations, stats, termination)
    }

    /// Builds the ordered derivation tasks of one iteration, one per
    /// (rule, delta-position), plus an estimate of the round's width (total
    /// delta candidates) used to decide whether sharding is worthwhile.
    ///
    /// Tasks are emitted in (rule, delta-position) order, the exact order
    /// the sequential evaluator visits the work, so absorbing the task
    /// buffers in task order reproduces the sequential insertion sequence.
    fn round_tasks(
        &self,
        indexed: bool,
        naive_round: bool,
        relations: &BTreeMap<Pred, Relation>,
        before_prev: &BTreeMap<Pred, usize>,
        prev: &BTreeMap<Pred, usize>,
        order_cache: &mut BTreeMap<(usize, usize), Vec<(usize, Window)>>,
    ) -> (Vec<RoundTask<'_>>, usize) {
        let mut tasks = Vec::new();
        let mut work = 0usize;
        for (rule_index, (rule, slots)) in self
            .program
            .rules()
            .iter()
            .zip(&self.slot_rules)
            .enumerate()
        {
            let label = rule
                .label
                .clone()
                .unwrap_or_else(|| format!("rule{}", rule_index + 1));
            if rule.body.is_empty() {
                // Facts and constraint facts fire only in the naive round
                // (never in a resumed run, whose materialization already
                // holds them).
                if naive_round {
                    work += 1;
                    tasks.push(RoundTask {
                        rule,
                        slots,
                        label,
                        kind: TaskKind::Seed,
                    });
                }
                continue;
            }
            if indexed {
                for delta_pos in 0..rule.body.len() {
                    let has_delta = relations
                        .get(&rule.body[delta_pos].predicate)
                        .is_some_and(|r| !r.delta_is_empty());
                    if !has_delta {
                        continue;
                    }
                    let plan = self
                        .plans
                        .as_ref()
                        .and_then(|plans| plans.plan(rule_index, delta_pos));
                    if let Some(plan) = plan {
                        // Static plan: the delta candidates are enumerated
                        // through the same entry point as the dynamic path
                        // (the plan's first step is the delta literal), then
                        // the precompiled steps drive the join.
                        let first = (plan.steps[0].literal, plan.steps[0].window);
                        let candidates = delta_candidates(rule, slots, &[first], relations);
                        if candidates.is_empty() {
                            continue;
                        }
                        work += candidates.len();
                        tasks.push(RoundTask {
                            rule,
                            slots,
                            label: label.clone(),
                            kind: TaskKind::Planned {
                                steps: plan.steps.clone(),
                                candidates,
                            },
                        });
                        continue;
                    }
                    // Dynamic path: the greedy ordering is memoized per
                    // (rule × delta-position) for the duration of this
                    // fixpoint run instead of being recomputed every
                    // iteration.
                    let order = order_cache
                        .entry((rule_index, delta_pos))
                        .or_insert_with(|| order_body(rule, delta_pos, relations))
                        .clone();
                    let candidates = delta_candidates(rule, slots, &order, relations);
                    if candidates.is_empty() {
                        continue;
                    }
                    work += candidates.len();
                    tasks.push(RoundTask {
                        rule,
                        slots,
                        label: label.clone(),
                        kind: TaskKind::Indexed { order, candidates },
                    });
                }
            } else {
                // The naive round covers the initial facts in one pass;
                // later (and resumed) rounds are semi-naive over the
                // previous delta.
                let delta_positions: Vec<usize> = if naive_round {
                    vec![0]
                } else {
                    (0..rule.body.len()).collect()
                };
                for delta_pos in delta_positions {
                    let pred = &rule.body[delta_pos].predicate;
                    let (lo, hi) = if naive_round {
                        (0, prev.get(pred).copied().unwrap_or(0))
                    } else {
                        (
                            before_prev.get(pred).copied().unwrap_or(0),
                            prev.get(pred).copied().unwrap_or(0),
                        )
                    };
                    // Skip if the delta for this literal is empty.
                    if lo == hi {
                        continue;
                    }
                    // The legacy core takes the plan's static scan order
                    // (greedy, but without hoisting the delta literal — a
                    // nested loop pays full-scan cost per outer tuple, so
                    // probe-biased orders do not transfer); its count slices
                    // stay keyed by original positions, so a permuted visit
                    // order enumerates the same fact combinations.
                    let order: Vec<usize> = match self
                        .plans
                        .as_ref()
                        .and_then(|plans| plans.plan(rule_index, delta_pos))
                    {
                        Some(plan) => plan.scan_order.clone(),
                        None => (0..rule.body.len()).collect(),
                    };
                    work += hi - lo;
                    tasks.push(RoundTask {
                        rule,
                        slots,
                        label: label.clone(),
                        kind: TaskKind::Legacy { delta_pos, order },
                    });
                }
            }
        }
        (tasks, work)
    }
}

/// Splits the delta-candidate lists of the indexed tasks into at most
/// `threads × TASK_CHUNKS_PER_THREAD` chunks each, for load balancing across
/// the worker pool.  The chunk boundaries cannot affect results: the chunks
/// of one task stay adjacent, so the merged absorb order is unchanged.
fn chunk_tasks(tasks: Vec<RoundTask<'_>>, threads: usize) -> Vec<RoundTask<'_>> {
    let mut out = Vec::with_capacity(tasks.len());
    for task in tasks {
        let RoundTask {
            rule,
            slots,
            label,
            kind,
        } = task;
        match kind {
            TaskKind::Indexed { order, candidates } => {
                let chunk = candidates
                    .len()
                    .div_ceil(threads * TASK_CHUNKS_PER_THREAD)
                    .max(1);
                if chunk >= candidates.len() {
                    out.push(RoundTask {
                        rule,
                        slots,
                        label,
                        kind: TaskKind::Indexed { order, candidates },
                    });
                } else {
                    for slice in candidates.chunks(chunk) {
                        out.push(RoundTask {
                            rule,
                            slots,
                            label: label.clone(),
                            kind: TaskKind::Indexed {
                                order: order.clone(),
                                candidates: slice.to_vec(),
                            },
                        });
                    }
                }
            }
            TaskKind::Planned { steps, candidates } => {
                let chunk = candidates
                    .len()
                    .div_ceil(threads * TASK_CHUNKS_PER_THREAD)
                    .max(1);
                if chunk >= candidates.len() {
                    out.push(RoundTask {
                        rule,
                        slots,
                        label,
                        kind: TaskKind::Planned { steps, candidates },
                    });
                } else {
                    for slice in candidates.chunks(chunk) {
                        out.push(RoundTask {
                            rule,
                            slots,
                            label: label.clone(),
                            kind: TaskKind::Planned {
                                steps: steps.clone(),
                                candidates: slice.to_vec(),
                            },
                        });
                    }
                }
            }
            kind => out.push(RoundTask {
                rule,
                slots,
                label,
                kind,
            }),
        }
    }
    out
}

/// Ceiling on how many chunks the delta candidates of one
/// (rule, delta-position) pair are split into, per worker thread.  More
/// chunks balance skewed candidate workloads better at a small bookkeeping
/// cost; the value does not affect results, only scheduling.
const TASK_CHUNKS_PER_THREAD: usize = 4;

/// One unit of derivation work inside an iteration.  Tasks only read the
/// relations; their buffers are absorbed in task order at the barrier.
struct RoundTask<'a> {
    rule: &'a Rule,
    /// The rule in slot form.
    slots: &'a SlotRule,
    /// The rule's display label for derivation records.
    label: String,
    kind: TaskKind,
}

/// What a [`RoundTask`] joins.
enum TaskKind {
    /// An empty-body rule (fact or constraint fact), fired in iteration 0.
    Seed,
    /// An indexed join: the precomputed body order and the chunk of
    /// delta-window fact indices (into the delta literal's relation) this
    /// task covers.
    Indexed {
        order: Vec<(usize, Window)>,
        candidates: Vec<usize>,
    },
    /// A precompiled-plan join: the static [`PlanStep`]s of this
    /// (rule × delta-position) body and the chunk of delta-window fact
    /// indices this task covers.  The steps carry the literal order, the
    /// per-literal probe-column choice, and the existence-shortcut flags —
    /// all fixed at plan-compilation time instead of per partial match.
    Planned {
        steps: Vec<PlanStep>,
        candidates: Vec<usize>,
    },
    /// A legacy nested-loop join over the count slices for one delta
    /// position, visiting the literals in `order` (the identity order when
    /// static plans are off, the precompiled plan order when they are on;
    /// the count slices stay keyed by the literals' original positions, so
    /// the enumerated fact combinations are the same either way).
    Legacy { delta_pos: usize, order: Vec<usize> },
    /// A retraction re-derivation join: every literal reads [`Window::Known`]
    /// of the sealed survivor relations, starting from a frame whose head
    /// slots were pinned to an over-deleted target fact (or from an empty
    /// frame for the unpinned full-rule fallback).
    Pinned {
        order: Vec<(usize, Window)>,
        start: Frame,
    },
}

/// How a fixpoint run begins.
enum Start<'a> {
    /// Seed the relations from a database and open with a naive round.
    Scratch(&'a Database),
    /// Continue from a materialization whose delta is the update facts
    /// (prepared by [`Evaluator::resume`]); open with a semi-naive round.
    Resume(BTreeMap<Pred, Relation>),
}

/// The read-only evaluation state a round task joins against.
struct RoundCtx<'a> {
    relations: &'a BTreeMap<Pred, Relation>,
    naive_round: bool,
    before_prev: &'a BTreeMap<Pred, usize>,
    prev: &'a BTreeMap<Pred, usize>,
}

/// What one round task produced.
#[derive(Default)]
struct TaskOutput {
    /// The head facts derived, in derivation order.
    derived: Vec<Fact>,
    /// Whether the task stopped on arithmetic overflow after `derived`.
    overflow: bool,
}

/// Runs one task to completion, collecting at most `cap` derived facts.
fn run_task(task: &RoundTask<'_>, ctx: &RoundCtx<'_>, cap: usize) -> TaskOutput {
    let mut derived = Vec::new();
    let join = Join {
        rule: task.rule,
        slots: task.slots,
        relations: ctx.relations,
        cap,
    };
    let run = match &task.kind {
        TaskKind::Seed => join.finish(&mut Frame::new(task.slots), &mut derived),
        TaskKind::Indexed { order, candidates } => {
            join.candidates(order[0].0, candidates, &mut derived, |frame, derived| {
                join.indexed(order, 1, frame, derived)
            })
        }
        TaskKind::Planned { steps, candidates } => join.candidates(
            steps[0].literal,
            candidates,
            &mut derived,
            |frame, derived| join.planned(steps, 1, frame, derived),
        ),
        TaskKind::Pinned { order, start } => {
            join.indexed(order, 0, &mut start.clone(), &mut derived)
        }
        TaskKind::Legacy { delta_pos, order } => join.legacy(
            order,
            0,
            *delta_pos,
            ctx,
            &mut Frame::new(task.slots),
            &mut derived,
        ),
    };
    TaskOutput {
        derived,
        overflow: run.is_err(),
    }
}

/// Runs the tasks of one iteration on a scoped worker pool and returns one
/// buffer per task, positionally.
///
/// Workers pull task ordinals from a shared cursor (so tasks start in
/// order), accumulate into thread-local buffers, and the buffers are merged
/// back in task order — scheduling therefore cannot influence the absorb
/// sequence.  A worker about to start a task first consults the completed
/// *prefix* of the task list: once the tasks before some point have already
/// derived `budget` facts, every later task's buffer is guaranteed to be
/// discarded by the in-order absorption, so it is skipped outright.
fn run_tasks_parallel(
    tasks: &[RoundTask<'_>],
    ctx: &RoundCtx<'_>,
    budget: usize,
    threads: usize,
) -> Vec<TaskOutput> {
    let workers = threads.min(tasks.len());
    let cursor = AtomicUsize::new(0);
    let progress = RoundProgress::new(tasks.len());
    let collected: Vec<(usize, TaskOutput)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, TaskOutput)> = Vec::new();
                    loop {
                        let ordinal = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                        let Some(task) = tasks.get(ordinal) else {
                            break;
                        };
                        let output = if progress.prefix_derivations() >= budget {
                            TaskOutput::default()
                        } else {
                            run_task(task, ctx, budget)
                        };
                        progress.record(ordinal, output.derived.len());
                        local.push((ordinal, output));
                    }
                    // Fold this worker's thread-local telemetry counters into
                    // the shared registry before the thread exits.
                    telemetry::flush_thread();
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                // Re-raise a worker panic with its original payload so that
                // its message survives the thread boundary.
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut buffers: Vec<TaskOutput> = Vec::new();
    buffers.resize_with(tasks.len(), TaskOutput::default);
    for (ordinal, output) in collected {
        buffers[ordinal] = output;
    }
    buffers
}

/// Tracks, across workers, how many facts the completed contiguous *prefix*
/// of the task list has derived.  The prefix count is monotone and
/// independent of scheduling, so gating on it never skips a task whose
/// buffer could still be absorbed.
struct RoundProgress {
    inner: Mutex<RoundProgressInner>,
}

struct RoundProgressInner {
    /// Per-task derivation counts; `None` until the task finishes.
    counts: Vec<Option<usize>>,
    /// Number of contiguous finished tasks from the front.
    prefix_tasks: usize,
    /// Total derivations of that finished prefix.
    prefix_derivations: usize,
}

impl RoundProgress {
    fn new(tasks: usize) -> Self {
        RoundProgress {
            inner: Mutex::new(RoundProgressInner {
                counts: vec![None; tasks],
                prefix_tasks: 0,
                prefix_derivations: 0,
            }),
        }
    }

    fn record(&self, ordinal: usize, derivations: usize) {
        let mut inner = self.inner.lock().expect("round progress poisoned");
        inner.counts[ordinal] = Some(derivations);
        while let Some(Some(count)) = inner.counts.get(inner.prefix_tasks).copied() {
            inner.prefix_derivations += count;
            inner.prefix_tasks += 1;
        }
    }

    fn prefix_derivations(&self) -> usize {
        self.inner
            .lock()
            .expect("round progress poisoned")
            .prefix_derivations
    }
}

/// Running totals of an evaluation, shared by the limit checks.
struct EvalTotals {
    /// Derivations absorbed so far (across all iterations).
    derivations: usize,
    /// Facts currently stored across all relations.
    facts: usize,
}

/// Inserts the derivations made by one round task, updating the
/// per-iteration statistics.  Returns the limit that was hit, if any.
///
/// Both limits are enforced *per fact*: the first insertion that reaches
/// `max_facts` (or the first derivation that reaches `max_derivations`)
/// stops the absorption immediately, so a single huge iteration cannot
/// overshoot the caps by the size of its buffered round.  The fact limit
/// takes precedence when both trip on the same fact.  A task that stopped
/// on arithmetic overflow ends the evaluation once the facts it derived
/// before the overflow are absorbed.
fn absorb_derived(
    output: TaskOutput,
    rule_label: &str,
    trace: bool,
    limits: &EvalLimits,
    relations: &mut BTreeMap<Pred, Relation>,
    iter_stats: &mut IterationStats,
    totals: &mut EvalTotals,
) -> Option<Termination> {
    for fact in output.derived {
        totals.derivations += 1;
        iter_stats.derivations += 1;
        let rendered = trace.then(|| fact.to_string());
        let outcome = relations
            .entry(fact.predicate().clone())
            .or_default()
            .insert(fact);
        let is_new = outcome == InsertOutcome::Added;
        if is_new {
            iter_stats.new_facts += 1;
            totals.facts += 1;
        } else {
            iter_stats.subsumed += 1;
        }
        if let Some(fact) = rendered {
            iter_stats.records.push(DerivationRecord {
                rule: rule_label.to_string(),
                fact,
                new: is_new,
            });
        }
        if totals.facts >= limits.max_facts {
            return Some(Termination::FactLimit);
        }
        if totals.derivations >= limits.max_derivations {
            return Some(Termination::DerivationLimit);
        }
    }
    // A database over the fact limit before any rule fires is caught by the
    // loop-top check in `run_fixpoint`, so reaching here means under-limit.
    output.overflow.then_some(Termination::ArithmeticOverflow)
}

/// Returns `true` if every variable of `term` is already bound (constants
/// count as bound).
fn term_is_bound(term: &Term, bound: &BTreeSet<Var>) -> bool {
    match term {
        Term::Sym(_) | Term::Num(_) => true,
        Term::Var(v) => bound.contains(v),
        Term::Expr(e) => e.vars().all(|v| bound.contains(v)),
    }
}

/// Orders the body literals of `rule` for the given delta position: the delta
/// literal first (its window is the smallest by construction), then greedily
/// the literal with the most bound arguments given the variables the placed
/// literals will bind, breaking ties by smaller visible fact window and then
/// by original position.  Each literal keeps the [`Window`] derived from its
/// *original* position relative to `delta_pos`, which is what makes the
/// per-delta rounds cover every new fact combination exactly once.
fn order_body(
    rule: &Rule,
    delta_pos: usize,
    relations: &BTreeMap<Pred, Relation>,
) -> Vec<(usize, Window)> {
    let window_of = |i: usize| match i.cmp(&delta_pos) {
        std::cmp::Ordering::Less => Window::Stable,
        std::cmp::Ordering::Equal => Window::Delta,
        std::cmp::Ordering::Greater => Window::Known,
    };
    greedy_order(
        rule,
        Some(delta_pos),
        None,
        &BTreeSet::new(),
        &window_of,
        relations,
    )
}

/// The greedy join-ordering core shared by [`order_body`] and
/// [`order_known`]: optionally place `first` up front (the delta literal),
/// optionally exclude `skip` (a literal already consumed by an over-deletion
/// frontier fact), then repeatedly pick the literal with the most bound
/// arguments given the variables bound so far (`seed_bound` plus the
/// variables the rule's own constraints pin to a constant), breaking ties by
/// smaller visible fact window and then by original position.
fn greedy_order(
    rule: &Rule,
    first: Option<usize>,
    skip: Option<usize>,
    seed_bound: &BTreeSet<Var>,
    window_of: &dyn Fn(usize) -> Window,
    relations: &BTreeMap<Pred, Relation>,
) -> Vec<(usize, Window)> {
    let visible = |i: usize| {
        relations
            .get(&rule.body[i].predicate)
            .map_or(0, |r| r.window_range(window_of(i)).len())
    };
    let mut bound = seed_bound.clone();
    for atom in rule.constraint.atoms() {
        if let Some((v, _)) = atom.as_ground_binding() {
            bound.insert(v);
        }
    }
    let mut order = Vec::with_capacity(rule.body.len());
    if let Some(first) = first {
        order.push((first, window_of(first)));
        bound.extend(rule.body[first].vars());
    }
    let mut remaining: Vec<usize> = (0..rule.body.len())
        .filter(|&i| Some(i) != first && Some(i) != skip)
        .collect();
    while !remaining.is_empty() {
        let (slot, &pick) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                let bound_args = rule.body[i]
                    .args
                    .iter()
                    .filter(|t| term_is_bound(t, &bound))
                    .count();
                (Reverse(bound_args), visible(i), i)
            })
            .expect("remaining is non-empty");
        remaining.remove(slot);
        bound.extend(rule.body[pick].vars());
        order.push((pick, window_of(pick)));
    }
    order
}

/// Orders the body literals of `rule` for a join over the sealed survivor
/// relations of a retraction, where every literal reads [`Window::Known`]:
/// the same greedy most-bound/most-selective discipline as [`order_body`],
/// seeded with `bound` (the variables a pinned head target already binds)
/// and optionally excluding `skip` (a body position already consumed by an
/// over-deletion frontier fact).
fn order_known(
    rule: &Rule,
    skip: Option<usize>,
    bound: &BTreeSet<Var>,
    relations: &BTreeMap<Pred, Relation>,
) -> Vec<(usize, Window)> {
    greedy_order(rule, None, skip, bound, &|_| Window::Known, relations)
}

/// The head facts of every derivation of `rule` that consumes `deleted` at
/// body position `delta_pos` and arbitrary stored facts (the full sealed
/// materialization, removed facts included) at the other positions — the
/// one-step support propagation of the DRed over-deletion phase.
fn overdelete_derivations(
    rule: &Rule,
    slots: &SlotRule,
    delta_pos: usize,
    deleted: &Fact,
    relations: &BTreeMap<Pred, Relation>,
) -> Kernel<Vec<Fact>> {
    let mut derived = Vec::new();
    let mut frame = Frame::new(slots);
    if !frame.match_fact(slots, slots.body(delta_pos), FactRef::Stored(deleted))? {
        return Ok(derived);
    }
    let order = order_known(rule, Some(delta_pos), &frame.bound_vars(slots), relations);
    let join = Join {
        rule,
        slots,
        relations,
        cap: usize::MAX,
    };
    join.indexed(&order, 0, &mut frame, &mut derived)?;
    Ok(derived)
}

/// The probe for `terms` read through `window` of `relation`: among the
/// argument positions whose value the frame determines, the one with the
/// shortest posting list (the first on ties), with that value.
fn best_probe(
    frame: &Frame,
    terms: &[SlotTerm],
    relation: &Relation,
    window: Window,
) -> Kernel<Option<(usize, Value)>> {
    let mut best: Option<(usize, Value, usize)> = None;
    for (pos, term) in terms.iter().enumerate() {
        if let Some(value) = frame.value_of(term)? {
            let len = relation.probe_len(window, pos, &value);
            if best
                .as_ref()
                .map_or(true, |(_, _, shortest)| len < *shortest)
            {
                best = Some((pos, value, len));
            }
        }
    }
    Ok(best.map(|(pos, value, _)| (pos, value)))
}

/// The delta-window fact indices the first (delta) literal of `order` can
/// match, in the exact order the join visits them: the most selective
/// constant argument position (the frame is still empty at step 0) probes
/// the relation's hash index, and a literal with no constant arguments
/// falls back to scanning the delta window.
///
/// This is the sharding axis of a parallel round: the candidate list is
/// chunked across tasks, and concatenating the per-chunk results in order
/// reproduces the sequential derivation sequence.
fn delta_candidates(
    rule: &Rule,
    slots: &SlotRule,
    order: &[(usize, Window)],
    relations: &BTreeMap<Pred, Relation>,
) -> Vec<usize> {
    let (literal_index, window) = order[0];
    let Some(relation) = relations.get(&rule.body[literal_index].predicate) else {
        return Vec::new();
    };
    // An empty frame resolves only constants, which cannot overflow.
    let frame = Frame::new(slots);
    match best_probe(&frame, slots.body(literal_index), relation, window).unwrap_or(None) {
        Some((pos, value)) => {
            telemetry::bump(telemetry::Counter::IndexProbes);
            relation.probe_indices(window, pos, &value).collect()
        }
        None => relation.window_range(window).collect(),
    }
}

/// One rule's join over a set of relations: what every join path shares
/// while it recurses over the body with one [`Frame`], matching a candidate
/// in place and rolling the frame back before the next.
struct Join<'a> {
    rule: &'a Rule,
    slots: &'a SlotRule,
    relations: &'a BTreeMap<Pred, Relation>,
    /// The join stops once this many facts have been derived.
    cap: usize,
}

impl Join<'_> {
    /// Completes a derivation and records its head fact.
    fn finish(&self, frame: &mut Frame, derived: &mut Vec<Fact>) -> Kernel<()> {
        if let Some(fact) = frame.finish(self.slots, self.rule)? {
            derived.push(fact);
        }
        Ok(())
    }

    /// Matches each delta candidate of body literal `literal` (indices
    /// into its relation, see [`delta_candidates`]) and runs `rest` on
    /// every match.
    fn candidates(
        &self,
        literal: usize,
        candidates: &[usize],
        derived: &mut Vec<Fact>,
        rest: impl Fn(&mut Frame, &mut Vec<Fact>) -> Kernel<()>,
    ) -> Kernel<()> {
        let Some(relation) = self.relations.get(&self.rule.body[literal].predicate) else {
            return Ok(());
        };
        let terms = self.slots.body(literal);
        let mut frame = Frame::new(self.slots);
        for &index in candidates {
            if derived.len() >= self.cap {
                break;
            }
            let mark = frame.mark();
            if frame.match_fact(self.slots, terms, relation.fact_ref(index))? {
                rest(&mut frame, derived)?;
            }
            frame.undo(self.slots, mark);
        }
        Ok(())
    }

    /// Joins the body literals in the given order from `step` onwards.
    ///
    /// At each step the most selective determined argument position probes
    /// the relation's hash index (exact matches plus the constraint-fact
    /// tail); a literal with no determined arguments scans its window.
    fn indexed(
        &self,
        order: &[(usize, Window)],
        step: usize,
        frame: &mut Frame,
        derived: &mut Vec<Fact>,
    ) -> Kernel<()> {
        if derived.len() >= self.cap {
            return Ok(());
        }
        let Some(&(literal_index, window)) = order.get(step) else {
            return self.finish(frame, derived);
        };
        let Some(relation) = self.relations.get(&self.rule.body[literal_index].predicate) else {
            return Ok(());
        };
        let terms = self.slots.body(literal_index);
        match best_probe(frame, terms, relation, window)? {
            Some((pos, value)) => {
                telemetry::bump(telemetry::Counter::IndexProbes);
                for fact in relation.probe(window, pos, &value) {
                    let mark = frame.mark();
                    if frame.match_fact(self.slots, terms, fact)? {
                        telemetry::bump(telemetry::Counter::ProbeHits);
                        self.indexed(order, step + 1, frame, derived)?;
                    } else {
                        telemetry::bump(telemetry::Counter::ProbeMisses);
                    }
                    frame.undo(self.slots, mark);
                }
            }
            None => {
                for fact in relation.window_refs(window) {
                    let mark = frame.mark();
                    if frame.match_fact(self.slots, terms, fact)? {
                        self.indexed(order, step + 1, frame, derived)?;
                    }
                    frame.undo(self.slots, mark);
                }
            }
        }
        Ok(())
    }

    /// Joins the body literals along a precompiled plan from `step` onwards.
    ///
    /// Unlike [`Join::indexed`], which compares every determined argument
    /// position per partial match to pick the shortest posting list, the
    /// probe column here was fixed at plan-compilation time; if a
    /// constraint-fact match left that column without a concrete value at
    /// run time, the step falls back to scanning its window.  A step the
    /// plan marked as an existence check stops at its first match — guarded
    /// to the case where every argument resolves to a concrete value and the
    /// relation holds no constraint facts, in which ground deduplication
    /// guarantees at most one matching row anyway, so the shortcut saves the
    /// rest of the scan without changing any statistics.
    fn planned(
        &self,
        steps: &[PlanStep],
        step: usize,
        frame: &mut Frame,
        derived: &mut Vec<Fact>,
    ) -> Kernel<()> {
        if derived.len() >= self.cap {
            return Ok(());
        }
        let Some(plan_step) = steps.get(step) else {
            return self.finish(frame, derived);
        };
        let Some(relation) = self
            .relations
            .get(&self.rule.body[plan_step.literal].predicate)
        else {
            return Ok(());
        };
        let terms = self.slots.body(plan_step.literal);
        let mut exists_only = plan_step.existence && relation.constraint_fact_count() == 0;
        for term in terms {
            exists_only = exists_only && frame.value_of(term)?.is_some();
        }
        let probe = match plan_step.probe {
            Some(pos) => frame.value_of(&terms[pos])?.map(|value| (pos, value)),
            None => None,
        };
        match probe {
            Some((pos, value)) => {
                telemetry::bump(telemetry::Counter::IndexProbes);
                for fact in relation.probe(plan_step.window, pos, &value) {
                    let mark = frame.mark();
                    let matched = frame.match_fact(self.slots, terms, fact)?;
                    if matched {
                        telemetry::bump(telemetry::Counter::ProbeHits);
                        self.planned(steps, step + 1, frame, derived)?;
                    } else {
                        telemetry::bump(telemetry::Counter::ProbeMisses);
                    }
                    frame.undo(self.slots, mark);
                    if matched && exists_only {
                        telemetry::bump(telemetry::Counter::ExistenceShortcuts);
                        break;
                    }
                }
            }
            None => {
                for fact in relation.window_refs(plan_step.window) {
                    let mark = frame.mark();
                    let matched = frame.match_fact(self.slots, terms, fact)?;
                    if matched {
                        self.planned(steps, step + 1, frame, derived)?;
                    }
                    frame.undo(self.slots, mark);
                    if matched && exists_only {
                        telemetry::bump(telemetry::Counter::ExistenceShortcuts);
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Joins the body literals with the legacy nested-loop, count-sliced
    /// discipline, visiting the literals in `order` from position `step`
    /// onwards.  The count slices are keyed by each literal's *original* body
    /// position relative to `delta_pos`, so the set of fact combinations
    /// enumerated is the same for every visit order — a permuted `order`
    /// (from a static plan) only changes how early unmatched combinations
    /// are cut off.
    fn legacy(
        &self,
        order: &[usize],
        step: usize,
        delta_pos: usize,
        ctx: &RoundCtx<'_>,
        frame: &mut Frame,
        derived: &mut Vec<Fact>,
    ) -> Kernel<()> {
        if derived.len() >= self.cap {
            return Ok(());
        }
        let Some(&index) = order.get(step) else {
            return self.finish(frame, derived);
        };
        let pred = &self.rule.body[index].predicate;
        let empty = Relation::new();
        let relation = self.relations.get(pred).unwrap_or(&empty);
        // Select the slice of facts visible to this literal under the
        // semi-naive discipline (old facts before the delta literal, delta at
        // the delta literal, everything known at the end of the previous
        // iteration after).  The naive round covers the facts present at the
        // iteration boundary — the snapshot the `prev` counts captured — so
        // the join reads the same slice whether the round's tasks run
        // sequentially interleaved with absorption or all in parallel
        // before it.
        let (lo, hi) = if ctx.naive_round {
            (0, ctx.prev.get(pred).copied().unwrap_or(0))
        } else {
            let before = ctx.before_prev.get(pred).copied().unwrap_or(0);
            let end = ctx.prev.get(pred).copied().unwrap_or(0);
            match index.cmp(&delta_pos) {
                std::cmp::Ordering::Less => (0, before),
                std::cmp::Ordering::Equal => (before, end),
                std::cmp::Ordering::Greater => (0, end),
            }
        };
        let terms = self.slots.body(index);
        for fact_index in lo..hi.min(relation.len()) {
            let mark = frame.mark();
            if frame.match_fact(self.slots, terms, relation.fact_ref(fact_index))? {
                self.legacy(order, step + 1, delta_pos, ctx, frame, derived)?;
            }
            frame.undo(self.slots, mark);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::Rational;
    use pcs_lang::parse_program;

    fn eval(source: &str, db: &Database) -> EvalResult {
        let program = parse_program(source).unwrap();
        Evaluator::new(&program, EvalOptions::indexed()).evaluate(db)
    }

    fn eval_legacy(source: &str, db: &Database) -> EvalResult {
        let program = parse_program(source).unwrap();
        Evaluator::new(&program, EvalOptions::legacy()).evaluate(db)
    }

    #[test]
    fn environment_settings_recognize_documented_spellings_only() {
        for on in ["on", "1", "true", "indexed"] {
            assert_eq!(parse_index_setting(on), Some(true));
        }
        for off in ["off", "0", "false", "legacy"] {
            assert_eq!(parse_index_setting(off), Some(false));
        }
        assert_eq!(parse_index_setting("offf"), None);
        assert_eq!(parse_index_setting(""), None);
        assert_eq!(parse_threads_setting("4"), Some(4));
        assert_eq!(parse_threads_setting("0"), None);
        assert_eq!(parse_threads_setting("two"), None);
        assert_eq!(parse_plan_setting("on"), Some(true));
        assert_eq!(parse_plan_setting("1"), Some(true));
        assert_eq!(parse_plan_setting("true"), Some(true));
        assert_eq!(parse_plan_setting("off"), Some(false));
        assert_eq!(parse_plan_setting("0"), Some(false));
        assert_eq!(parse_plan_setting("false"), Some(false));
        assert_eq!(parse_plan_setting("planned"), None);
        assert_eq!(parse_plan_setting(""), None);
        // The shared reader warns and falls back on unrecognized values.
        assert!(env_setting("PCS_TEST_UNSET_VAR", "anything", || 7, |_| None) == 7);
    }

    #[test]
    fn transitive_closure_over_ground_edb() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let result = eval(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("path")), 6);
        assert!(result.only_ground_facts());
    }

    #[test]
    fn constraints_prune_derivations() {
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("n", vec![Value::num(i)]);
        }
        let result = eval("small(X) :- n(X), X <= 3.", &db);
        assert_eq!(result.count_for(&Pred::new("small")), 4);
    }

    #[test]
    fn arithmetic_in_heads_and_bodies() {
        let mut db = Database::new();
        db.add_ground("start", vec![Value::num(0)]);
        // count up to 5 by adding 1
        let result = eval(
            "upto(X) :- start(X).\n\
             upto(Y) :- upto(X), X <= 4, Y = X + 1.",
            &db,
        );
        assert_eq!(result.count_for(&Pred::new("upto")), 6);
        assert!(result.only_ground_facts());
        assert!(result.termination.is_fixpoint());
    }

    #[test]
    fn symbolic_constants_join_correctly() {
        let mut db = Database::new();
        db.add_ground(
            "singleleg",
            vec![
                Value::sym("madison"),
                Value::sym("chicago"),
                Value::num(50),
                Value::num(100),
            ],
        );
        db.add_ground(
            "singleleg",
            vec![
                Value::sym("chicago"),
                Value::sym("seattle"),
                Value::num(230),
                Value::num(120),
            ],
        );
        let result = eval(
            "flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.\n\
             flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
                 T = T1 + T2 + 30, C = C1 + C2.",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        // Two direct legs plus the madison->seattle composition.
        assert_eq!(result.count_for(&Pred::new("flight")), 3);
        let composed = result
            .facts_for(&Pred::new("flight"))
            .iter()
            .find(|f| {
                f.ground_values()
                    .is_some_and(|v| v[0] == Value::sym("madison") && v[1] == Value::sym("seattle"))
            })
            .cloned()
            .expect("composed flight exists");
        let values = composed.ground_values().unwrap();
        assert_eq!(values[2], Value::num(50 + 230 + 30));
        assert_eq!(values[3], Value::num(100 + 120));
    }

    #[test]
    fn constraint_facts_are_computed_when_needed() {
        // p(X; X <= 10) as a constraint fact in the program; q selects from it.
        let db = Database::new();
        let result = eval(
            "p(X) :- X <= 10.\n\
             q(X) :- p(X), X >= 8.",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("p")), 1);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
        assert!(!result.only_ground_facts());
        let q_fact = &result.facts_for(&Pred::new("q"))[0];
        assert!(q_fact
            .constraint()
            .implies_atom(&Atom::var_ge(Var::position(1), 8)));
        assert!(q_fact
            .constraint()
            .implies_atom(&Atom::var_le(Var::position(1), 10)));
    }

    #[test]
    fn subsumed_derivations_are_counted_not_stored() {
        let mut db = Database::new();
        db.add_ground("e", vec![Value::num(1), Value::num(2)]);
        db.add_ground("e", vec![Value::num(2), Value::num(1)]);
        // Both rules derive p(1) and p(2); duplicates are subsumed.
        let result = eval("p(X) :- e(X, Y).\np(X) :- e(Y, X).", &db);
        assert_eq!(result.count_for(&Pred::new("p")), 2);
        assert!(result.stats.total_subsumed() >= 2);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let db = Database::new();
        // A non-terminating counter.
        let program = parse_program("nat(0).\nnat(Y) :- nat(X), Y = X + 1.").unwrap();
        let result = Evaluator::new(&program, EvalOptions::traced(5)).evaluate(&db);
        assert_eq!(result.termination, Termination::IterationLimit);
        assert_eq!(result.stats.iterations.len(), 5);
        assert!(result.count_for(&Pred::new("nat")) >= 4);
    }

    #[test]
    fn arithmetic_overflow_ends_the_evaluation() {
        // Doubling from 1 reaches 2^126 after 126 rounds; the next
        // derivation overflows i128 inside the join kernel.
        let program = parse_program("big(1).\nbig(X) :- big(Y), X = Y + Y.").unwrap();
        let db = Database::new();
        for options in [EvalOptions::indexed(), EvalOptions::legacy()] {
            for threads in [1, 2] {
                let options = options
                    .clone()
                    .with_threads(threads)
                    .with_min_parallel_work(0);
                let result = Evaluator::new(&program, options).evaluate(&db);
                assert_eq!(result.termination, Termination::ArithmeticOverflow);
                assert_eq!(
                    result.count_for(&Pred::new("big")),
                    127,
                    "threads = {threads}"
                );
                let largest = Literal::new("big", vec![Term::Num(Rational::from_int(1 << 126))]);
                assert_eq!(result.answers(&Query::new(largest)).len(), 1);
            }
        }
    }

    #[test]
    fn answers_to_query_filter_by_constants() {
        let mut db = Database::new();
        db.add_ground("r", vec![Value::sym("a"), Value::num(1)]);
        db.add_ground("r", vec![Value::sym("b"), Value::num(2)]);
        let result = eval("s(X, Y) :- r(X, Y).", &db);
        let query = Literal::new("s", vec![Term::sym("a"), Term::var("Y")]);
        let answers = result.answers(&Query::new(query));
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn answers_respect_constraint_fact_bounds() {
        // Regression: `?- q(5)` must not match a fact constrained to
        // `$1 <= 3`; the old pattern matcher accepted any ground constant
        // against a free position without consulting the constraint.
        let db = Database::new();
        let result = eval("q(X) :- X <= 3.", &db);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
        let inside = Literal::new("q", vec![Term::num(2)]);
        let outside = Literal::new("q", vec![Term::num(5)]);
        assert_eq!(result.answers(&Query::new(inside)).len(), 1);
        assert_eq!(result.answers(&Query::new(outside)).len(), 0);
        // A symbol can never inhabit a numerically constrained position.
        let symbolic = Literal::new("q", vec![Term::sym("madison")]);
        assert_eq!(result.answers(&Query::new(symbolic)).len(), 0);
    }

    #[test]
    fn join_variables_do_not_collide_across_facts() {
        // Regression for the size-based fresh-variable scheme: matching the
        // `a` fact mints a join variable at `extra.len() + num.len() = 3`
        // (the three Y bounds), and resolving Y = 5 then drops those three
        // bounds while adding one numeric binding — so the `b` fact's join
        // variable was *also* named `_j3p1`, silently forcing X = Z.
        let db = Database::new();
        let source = "a(X, 5) :- X >= 0.\n\
                      b(Z) :- Z <= 2.\n\
                      q(X, Z) :- a(X, Y), b(Z), Y <= 7, Y <= 8, Y <= 9.";
        for result in [eval(source, &db), eval_legacy(source, &db)] {
            assert_eq!(result.count_for(&Pred::new("q")), 1);
            let q = &result.facts_for(&Pred::new("q"))[0];
            assert!(q
                .constraint()
                .implies_atom(&Atom::var_ge(Var::position(1), 0)));
            assert!(q
                .constraint()
                .implies_atom(&Atom::var_le(Var::position(2), 2)));
            // Under the collision, $1 inherited the b fact's upper bound.
            assert!(!q
                .constraint()
                .implies_atom(&Atom::var_le(Var::position(1), 2)));
        }
    }

    #[test]
    fn indexed_and_legacy_cores_agree() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 2), (1, 4)] {
            db.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let source = "path(X, Y) :- edge(X, Y).\n\
                      path(X, Y) :- edge(X, Z), path(Z, Y).\n\
                      short(X, Y) :- path(X, Y), X <= 2.";
        let indexed = eval(source, &db);
        let legacy = eval_legacy(source, &db);
        assert_eq!(indexed.termination, legacy.termination);
        for pred in ["path", "short"] {
            let mut a: Vec<String> = indexed
                .facts_for(&Pred::new(pred))
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            let mut b: Vec<String> = legacy
                .facts_for(&Pred::new(pred))
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    /// Renders relations sorted so runs can be compared fact-for-fact.
    fn rendered(result: &EvalResult) -> Vec<(String, Vec<String>)> {
        result
            .relations
            .iter()
            .map(|(pred, relation)| {
                let mut facts: Vec<String> = relation.iter().map(|f| f.to_string()).collect();
                facts.sort();
                (pred.to_string(), facts)
            })
            .collect()
    }

    /// Asserts two evaluations are bit-for-bit identical: relations,
    /// termination, and every per-iteration statistic.
    fn assert_identical_runs(a: &EvalResult, b: &EvalResult) {
        assert_eq!(a.termination, b.termination);
        assert_eq!(rendered(a), rendered(b));
        assert_eq!(a.stats.iterations.len(), b.stats.iterations.len());
        for (i, (x, y)) in a
            .stats
            .iterations
            .iter()
            .zip(&b.stats.iterations)
            .enumerate()
        {
            assert_eq!(x.derivations, y.derivations, "derivations at iteration {i}");
            assert_eq!(x.new_facts, y.new_facts, "new facts at iteration {i}");
            assert_eq!(x.subsumed, y.subsumed, "subsumed at iteration {i}");
            assert_eq!(x.delta_facts, y.delta_facts, "delta facts at iteration {i}");
        }
        assert_eq!(a.stats.facts_per_predicate, b.stats.facts_per_predicate);
        assert_eq!(a.stats.constraint_facts, b.stats.constraint_facts);
    }

    #[test]
    fn parallel_rounds_match_the_sequential_evaluation_exactly() {
        // Ground joins plus constraint facts, so both the hash-probe path
        // and the constraint-fact tail cross the worker boundary.
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 2), (1, 4), (2, 5), (5, 6)] {
            db.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let source = "seed(X) :- X >= 4, X <= 5.\n\
                      path(X, Y) :- edge(X, Y).\n\
                      path(X, Y) :- edge(X, Z), path(Z, Y).\n\
                      near(X, Y) :- path(X, Y), seed(X).";
        let program = parse_program(source).unwrap();
        for index in [true, false] {
            let base = EvalOptions {
                index,
                ..EvalOptions::default()
            };
            let sequential = Evaluator::new(&program, base.clone().with_threads(1)).evaluate(&db);
            for threads in [2, 4, 7] {
                // Force sharding even though the rounds are narrow.
                let options = base.clone().with_threads(threads).with_min_parallel_work(0);
                let parallel = Evaluator::new(&program, options).evaluate(&db);
                assert_identical_runs(&sequential, &parallel);
            }
        }
    }

    #[test]
    fn fact_limit_is_enforced_inside_an_iteration() {
        // One iteration of the cross-product rule derives 100 facts; the cap
        // must stop the round mid-iteration, not after absorbing all of it.
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("p", vec![Value::num(i)]);
        }
        let program = parse_program("q(X, Y) :- p(X), p(Y).").unwrap();
        for threads in [1, 4] {
            let options = EvalOptions {
                limits: EvalLimits {
                    max_facts: 20,
                    ..EvalLimits::default()
                },
                ..EvalOptions::indexed()
            }
            .with_threads(threads)
            .with_min_parallel_work(0);
            let result = Evaluator::new(&program, options).evaluate(&db);
            assert_eq!(result.termination, Termination::FactLimit);
            assert_eq!(result.total_facts(), 20, "threads = {threads}");
        }
    }

    #[test]
    fn derivation_limit_is_enforced_inside_an_iteration() {
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("p", vec![Value::num(i)]);
        }
        let program = parse_program("q(X, Y) :- p(X), p(Y).").unwrap();
        for threads in [1, 4] {
            let options = EvalOptions {
                limits: EvalLimits {
                    max_derivations: 13,
                    ..EvalLimits::default()
                },
                ..EvalOptions::indexed()
            }
            .with_threads(threads)
            .with_min_parallel_work(0);
            let result = Evaluator::new(&program, options).evaluate(&db);
            assert_eq!(result.termination, Termination::DerivationLimit);
            assert_eq!(result.stats.total_derivations(), 13, "threads = {threads}");
        }
    }

    #[test]
    fn answers_to_enforces_repeated_query_variables() {
        let mut db = Database::new();
        db.add_facts_str("r(1, 1).\nr(1, 2).\nr(a, a).\nr(a, b).")
            .unwrap();
        let result = eval("s(X, Y) :- r(X, Y).", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        assert_eq!(answers("s(X, Y)"), 4);
        // Only r(1, 1) and r(a, a) repeat their argument.
        assert_eq!(answers("s(X, X)"), 2);
        assert_eq!(answers("s(1, X)"), 2);
        // Side constraints filter ground answers.
        assert_eq!(answers("s(X, Y), Y >= 2"), 1);
    }

    #[test]
    fn answers_to_repeated_variables_consult_constraint_facts() {
        let db = Database::new();
        let result = eval(
            "disjoint(X, Y) :- X <= 3, Y >= 5.\n\
             band(X, Y) :- X <= 3, Y <= 3.\n\
             half(X, Y) :- Y <= 3.",
            &db,
        );
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // $1 <= 3 and $2 >= 5 cannot hold one common value.
        assert_eq!(answers("disjoint(X, X)"), 0);
        assert_eq!(answers("disjoint(X, Y)"), 1);
        // $1 <= 3 and $2 <= 3 can (e.g. both 2).
        assert_eq!(answers("band(X, X)"), 1);
        // A constant mixed with a constrained position pins it.
        assert_eq!(answers("band(2, X)"), 1);
        assert_eq!(answers("band(5, X)"), 0);
        // Side constraints conjoin with the fact's residual constraint.
        assert_eq!(answers("band(2, X), X >= 1"), 1);
        assert_eq!(answers("band(2, X), X >= 99"), 0);
        assert_eq!(answers("disjoint(X, Y), X = Y"), 0);
        // An unconstrained position can repeat into a constrained one...
        assert_eq!(answers("half(X, X)"), 1);
        // ...and can hold a symbol, while a constrained position cannot.
        assert_eq!(answers("half(madison, X)"), 1);
        assert_eq!(answers("half(X, madison)"), 0);
    }

    #[test]
    fn answers_to_expression_arguments_pin_the_position() {
        // Regression: `Term::Expr` query arguments used to be ignored
        // entirely, so `?- s(X + 1), X >= 100.` returned every fact.
        let mut db = Database::new();
        db.add_facts_str("r(1).\nr(7).\nr(a).").unwrap();
        let result = eval("s(X) :- r(X).\nt(X) :- X <= 5.", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // ∃X. X + 1 = v holds for every numeric fact; never for a symbol.
        assert_eq!(answers("s(X + 1)"), 2);
        // Side constraints link through X even though X covers no position.
        assert_eq!(answers("s(X + 1), X >= 100"), 0);
        assert_eq!(answers("s(Y + 1), Y = 0"), 1);
        assert_eq!(answers("s(2 * Z), Z >= 3"), 1);
        // Expressions against a constrained free position conjoin with the
        // fact's residual constraint ($1 <= 5).
        assert_eq!(answers("t(W + 10), W <= -5"), 1);
        assert_eq!(answers("t(W + 10), W >= 0"), 0);
    }

    #[test]
    fn answers_to_repeated_variables_with_symbols() {
        let mut db = Database::new();
        // free($1, $2) unconstrained; capped(a, $2 <= 3).
        db.add_facts_str("free(X, Y).\ncapped(a, Y) :- Y <= 3.")
            .unwrap();
        let result = eval("f(X, Y) :- free(X, Y).\nc(X, Y) :- capped(X, Y).", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // Two unconstrained positions can share any value.
        assert_eq!(answers("f(X, X)"), 1);
        // The symbol `a` cannot repeat into the numeric position $2 <= 3.
        assert_eq!(answers("c(X, X)"), 0);
        assert_eq!(answers("c(a, X)"), 1);
        // A symbol-valued query variable cannot enter arithmetic.
        assert_eq!(answers("c(X, Y), X <= 3"), 0);
    }

    #[test]
    fn resumed_updates_match_scratch_evaluation() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             short(X, Y) :- path(X, Y), X <= 2.",
        )
        .unwrap();
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let updates =
            crate::database::parse_facts("edge(4, 5).\nedge(0, 1).\nedge(9, 10).").unwrap();
        let mut full = base.clone();
        for fact in &updates {
            full.add(fact.clone());
        }
        for options in [EvalOptions::indexed(), EvalOptions::legacy()] {
            let evaluator = Evaluator::new(&program, options);
            let scratch = evaluator.evaluate(&full);
            let materialized = evaluator.evaluate(&base);
            let resumed = evaluator.resume(materialized.relations, updates.clone());
            assert!(resumed.stats.resumed && !scratch.stats.resumed);
            assert_eq!(resumed.termination, scratch.termination);
            assert_eq!(rendered(&resumed), rendered(&scratch));
            // The resumed run only re-derives what the updates reach.
            assert!(resumed.stats.total_derivations() < scratch.stats.total_derivations());
        }
    }

    #[test]
    fn resuming_with_subsumed_updates_reaches_fixpoint_immediately() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let evaluator = Evaluator::new(&program, EvalOptions::indexed());
        let materialized = evaluator.evaluate(&base);
        let total = materialized.total_facts();
        // Both updates are already in the materialization.
        let updates = crate::database::parse_facts("edge(1, 2).\npath(1, 3).").unwrap();
        let resumed = evaluator.resume(materialized.relations, updates);
        assert_eq!(resumed.termination, Termination::Fixpoint);
        assert_eq!(resumed.stats.total_new_facts(), 0);
        assert_eq!(resumed.total_facts(), total);
        assert_eq!(resumed.stats.iterations.len(), 1);
    }

    #[test]
    fn resumed_parallel_rounds_match_sequential_resume() {
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 2), (1, 4)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let updates = crate::database::parse_facts("edge(4, 5).\nedge(5, 6).").unwrap();
        for index in [true, false] {
            let base_options = EvalOptions {
                index,
                ..EvalOptions::default()
            };
            let sequential = {
                let evaluator = Evaluator::new(&program, base_options.clone().with_threads(1));
                evaluator.resume(evaluator.evaluate(&base).relations, updates.clone())
            };
            for threads in [2, 4] {
                let options = base_options
                    .clone()
                    .with_threads(threads)
                    .with_min_parallel_work(0);
                let evaluator = Evaluator::new(&program, options);
                let parallel =
                    evaluator.resume(evaluator.evaluate(&base).relations, updates.clone());
                assert_identical_runs(&sequential, &parallel);
            }
        }
    }

    #[test]
    fn retracting_an_edge_matches_scratch_evaluation_of_the_surviving_edb() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 4)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(2, 3).").unwrap();
        let mut surviving = full.clone();
        assert_eq!(surviving.remove_facts(&deletions), 1);
        for options in [EvalOptions::indexed(), EvalOptions::legacy()] {
            let evaluator = Evaluator::new(&program, options);
            let materialized = evaluator.evaluate(&full);
            let retracted =
                evaluator.retract(materialized.relations, deletions.clone(), &surviving);
            let scratch = evaluator.evaluate(&surviving);
            assert!(retracted.stats.retracted && !scratch.stats.retracted);
            // edge(2, 3) plus the paths that only it supported are gone.
            assert!(retracted.stats.removed_facts >= 4);
            assert_eq!(retracted.termination, scratch.termination);
            assert_eq!(rendered(&retracted), rendered(&scratch));
        }
    }

    #[test]
    fn facts_with_alternative_derivations_survive_retraction() {
        // path(1, 3) is derivable both directly from edge(1, 3) and through
        // edge(1, 2), edge(2, 3): DRed over-deletes it, re-derivation must
        // bring it back.
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(1, 3).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        for options in [EvalOptions::indexed(), EvalOptions::legacy()] {
            let evaluator = Evaluator::new(&program, options);
            let retracted = evaluator.retract(
                evaluator.evaluate(&full).relations,
                deletions.clone(),
                &surviving,
            );
            let path = Literal::new("path", vec![Term::num(1), Term::num(3)]);
            assert_eq!(retracted.answers(&Query::new(path)).len(), 1);
            assert_eq!(
                rendered(&retracted),
                rendered(&evaluator.evaluate(&surviving))
            );
        }
    }

    #[test]
    fn retracting_a_subsuming_fact_resurrects_subsumed_facts() {
        // The ground EDB fact b(5) is swallowed by the constraint fact at
        // seed time and never stored; retracting the constraint fact must
        // resurrect it (and its consequences).
        let program = parse_program("p(X) :- b(X).").unwrap();
        let mut full = Database::new();
        full.add_facts_str("b(X) :- X >= 0, X <= 10.\nb(5).\nb(99).")
            .unwrap();
        let deletions = crate::database::parse_facts("b(X) :- X >= 0, X <= 10.").unwrap();
        let mut surviving = full.clone();
        assert_eq!(surviving.remove_facts(&deletions), 1);
        for options in [EvalOptions::indexed(), EvalOptions::legacy()] {
            let evaluator = Evaluator::new(&program, options);
            let materialized = evaluator.evaluate(&full);
            // The subsumed ground fact is genuinely absent beforehand.
            assert_eq!(materialized.count_for(&Pred::new("b")), 2);
            let retracted =
                evaluator.retract(materialized.relations, deletions.clone(), &surviving);
            let scratch = evaluator.evaluate(&surviving);
            assert_eq!(rendered(&retracted), rendered(&scratch));
            assert_eq!(retracted.count_for(&Pred::new("b")), 2);
            assert_eq!(
                retracted
                    .answers(&Query::new(Literal::new("p", vec![Term::num(5)])))
                    .len(),
                1
            );
            assert!(retracted.termination.is_fixpoint());
        }
    }

    #[test]
    fn retraction_shares_one_derivation_budget_across_its_phases() {
        // The re-derivation round pre-charges the resumed fixpoint's
        // budget: capping max_derivations one below a full retraction's
        // spending must stop at exactly the cap, not grant each phase the
        // cap separately.
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        // edge(0, 1) feeds the resumed phase: path(0, 3) is over-deleted
        // (its derivation passes through the removed path(1, 3)) and only
        // comes back once the re-derived path(1, 3) enters the delta.
        let mut full = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(1, 3).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        let evaluator = Evaluator::new(&program, EvalOptions::indexed().with_threads(1));
        let unlimited = evaluator.retract(
            evaluator.evaluate(&full).relations,
            deletions.clone(),
            &surviving,
        );
        let spent = unlimited.stats.total_derivations();
        assert!(unlimited.termination.is_fixpoint() && spent >= 2, "{spent}");
        // Both the re-derivation round and the resumed fixpoint derive
        // something in this workload, so the cap spans the phase boundary.
        assert!(unlimited.stats.iterations[0].derivations >= 1);
        assert!(spent > unlimited.stats.iterations[0].derivations);
        // Materialize the base with the *unlimited* evaluator (retraction
        // from a partial materialization is out of contract); only the
        // retraction itself runs capped.
        let materialized = evaluator.evaluate(&full);
        let capped = EvalOptions {
            limits: EvalLimits {
                max_derivations: spent - 1,
                ..EvalLimits::default()
            },
            ..EvalOptions::indexed().with_threads(1)
        };
        let limited = Evaluator::new(&program, capped).retract(
            materialized.relations,
            deletions.clone(),
            &surviving,
        );
        assert_eq!(limited.termination, Termination::DerivationLimit);
        assert_eq!(limited.stats.total_derivations(), spent - 1);
    }

    #[test]
    fn retracting_an_absent_fact_changes_nothing() {
        let program = parse_program("p(X) :- b(X).").unwrap();
        let mut db = Database::new();
        db.add_ground("b", vec![Value::num(1)]);
        let evaluator = Evaluator::new(&program, EvalOptions::indexed());
        let before = evaluator.evaluate(&db);
        let total = before.total_facts();
        let deletions = crate::database::parse_facts("b(9).").unwrap();
        let retracted = evaluator.retract(before.relations, deletions, &db);
        assert_eq!(retracted.stats.removed_facts, 0);
        assert_eq!(retracted.total_facts(), total);
        assert!(retracted.termination.is_fixpoint());
    }

    #[test]
    fn parallel_retraction_matches_the_sequential_retraction_exactly() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (2, 5)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(2, 3).\nedge(1, 4).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        for index in [true, false] {
            let base = EvalOptions {
                index,
                ..EvalOptions::default()
            };
            let sequential = {
                let evaluator = Evaluator::new(&program, base.clone().with_threads(1));
                evaluator.retract(
                    evaluator.evaluate(&full).relations,
                    deletions.clone(),
                    &surviving,
                )
            };
            for threads in [2, 4] {
                let options = base.clone().with_threads(threads).with_min_parallel_work(0);
                let evaluator = Evaluator::new(&program, options);
                let parallel = evaluator.retract(
                    evaluator.evaluate(&full).relations,
                    deletions.clone(),
                    &surviving,
                );
                assert_identical_runs(&sequential, &parallel);
            }
        }
    }

    #[test]
    fn body_reordering_moves_bound_literals_first() {
        let mut db = Database::new();
        for i in 0..4 {
            db.add_ground("big", vec![Value::num(i), Value::num(i + 1)]);
        }
        db.add_ground("tiny", vec![Value::num(1)]);
        let program = parse_program("q(X, Y) :- big(X, Y), tiny(X).").unwrap();
        let evaluator = Evaluator::new(&program, EvalOptions::indexed());
        let mut relations = evaluator.seed_relations(&db);
        for r in relations.values_mut() {
            r.advance();
        }
        let rule = &evaluator.program().rules()[0];
        // With the delta at `big`, `tiny` follows and probes on the bound X.
        let order = order_body(rule, 0, &relations);
        assert_eq!(order[0], (0, Window::Delta));
        assert_eq!(order[1], (1, Window::Known));
        // With the delta at `tiny`, it stays first and `big` probes on X.
        let order = order_body(rule, 1, &relations);
        assert_eq!(order[0], (1, Window::Delta));
        assert_eq!(order[1], (0, Window::Stable));
        let result = evaluator.evaluate(&db);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
    }
}
