//! The slot-frame join kernel.
//!
//! Every rule is compiled once, when its evaluator is built, against a
//! positional binding header ([`SlotRule`]): each rule variable gets a slot
//! index, every head and body argument becomes a constant, a slot, or a
//! linear form over slots, and each atom of the rule's constraint becomes a
//! linear form over slots together with the slots it mentions.
//!
//! A derivation in progress is a [`Frame`]: one `Option<Value>` per slot,
//! an unbound-slot count per constraint atom, and an undo trail.  Matching
//! a fact against a body literal first compares the fact with the literal's
//! constants and the slots already bound, then binds the remaining slots in
//! place.  Binding a slot re-checks only the atoms that mention it: an atom
//! whose last slot is bound is evaluated arithmetically (false prunes the
//! match), and an equality left with one unbound slot is solved and binds
//! that slot.  The joins undo a match by popping the trail back to a
//! [`Mark`], so nothing is copied per candidate.
//!
//! Symbolic constraints are built only for constraint facts and for atoms
//! still undecided when a derivation completes.  Matching a stored
//! constraint fact mints one join variable per free position
//! (`_j{n}p{position}`), adds the fact's renamed constraint and the
//! argument links as dynamic atoms over those extra slots, and propagates
//! them the same way.  At the end of a derivation the atoms that are still
//! undecided are substituted and conjoined into the residual constraint
//! that Fourier–Motzkin checks and projects onto the head.
//!
//! The frame reproduces the bindings, the pruning points and the residual
//! constraint (atom for atom, variable names included) of rewriting each
//! atom symbolically after every match, so every stored fact, constraint
//! and work counter is the same as with a symbolic matcher; only the cost
//! per candidate differs.

use std::collections::{BTreeMap, BTreeSet};

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Rational, Rel, Var};
use pcs_lang::{Rule, Term};

use crate::fact::{Binding, Fact};
use crate::relation::FactRef;
use crate::value::Value;

/// Exact rational arithmetic in the kernel overflowed `i128`.  Ends the
/// evaluation with [`crate::Termination::ArithmeticOverflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArithmeticOverflow;

/// The kernel's result type.
pub(crate) type Kernel<T> = Result<T, ArithmeticOverflow>;

/// A slot index into a [`Frame`].
type Slot = usize;

/// `acc + c · value` in checked arithmetic.
fn mul_add(acc: Rational, c: Rational, value: Rational) -> Kernel<Rational> {
    c.checked_mul(&value)
        .and_then(|term| acc.checked_add(&term))
        .ok_or(ArithmeticOverflow)
}

/// A linear form `Σ coefficient · slot + constant`.
#[derive(Debug, Clone)]
pub(crate) struct Linear {
    terms: Vec<(Slot, Rational)>,
    constant: Rational,
}

impl Linear {
    fn constant(value: Rational) -> Linear {
        Linear {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// Adds `coefficient · slot`, merging with an existing term.
    fn add(&mut self, slot: Slot, coefficient: Rational) {
        match self.terms.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, c)) => *c += coefficient,
            None => self.terms.push((slot, coefficient)),
        }
        self.terms.retain(|(_, c)| !c.is_zero());
    }

    fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.terms.iter().map(|(s, _)| *s)
    }
}

/// A compiled argument: a constant, a rule-variable slot, or a linear
/// expression over slots.
#[derive(Debug, Clone)]
pub(crate) enum SlotTerm {
    Const(Value),
    Slot(Slot),
    Expr(Linear),
}

/// A compiled constraint atom `linear REL 0`.
#[derive(Debug, Clone)]
struct SlotAtom {
    linear: Linear,
    rel: Rel,
}

/// A rule compiled against its positional binding header.
#[derive(Debug)]
pub(crate) struct SlotRule {
    /// Slot → rule variable (sorted by name; the slot order).
    vars: Vec<Var>,
    /// Compiled arguments, per body literal.
    body: Vec<Vec<SlotTerm>>,
    /// Compiled head arguments.
    head: Vec<SlotTerm>,
    /// The atoms of `rule.constraint`, in order.
    atoms: Vec<SlotAtom>,
    /// Slot → the atoms mentioning it.
    atoms_of: Vec<Vec<usize>>,
    /// The head's position variables `$1..$n`.
    positions: Vec<Var>,
    /// The same positions as a set: the projection target.
    keep: BTreeSet<Var>,
}

impl SlotRule {
    /// Compiles `rule` (flattened or not) into slot form.
    pub(crate) fn compile(rule: &Rule) -> SlotRule {
        let vars: Vec<Var> = rule.vars().into_iter().collect();
        let index: BTreeMap<Var, Slot> = vars
            .iter()
            .enumerate()
            .map(|(slot, var)| (var.clone(), slot))
            .collect();
        let linear = |expr: &LinearExpr| {
            let mut out = Linear::constant(expr.constant_part());
            for (var, c) in expr.terms() {
                out.add(index[var], *c);
            }
            out
        };
        let term = |term: &Term| match term {
            Term::Var(var) => SlotTerm::Slot(index[var]),
            Term::Num(n) => SlotTerm::Const(Value::num(*n)),
            Term::Sym(s) => SlotTerm::Const(Value::Sym(*s)),
            Term::Expr(expr) => SlotTerm::Expr(linear(expr)),
        };
        let atoms: Vec<SlotAtom> = rule
            .constraint
            .atoms()
            .iter()
            .map(|atom| SlotAtom {
                linear: linear(atom.expr()),
                rel: atom.rel(),
            })
            .collect();
        let mut atoms_of = vec![Vec::new(); vars.len()];
        for (a, atom) in atoms.iter().enumerate() {
            for slot in atom.linear.slots() {
                atoms_of[slot].push(a);
            }
        }
        let positions: Vec<Var> = (1..=rule.head.arity()).map(Var::position).collect();
        SlotRule {
            body: rule
                .body
                .iter()
                .map(|literal| literal.args.iter().map(term).collect())
                .collect(),
            head: rule.head.args.iter().map(term).collect(),
            keep: positions.iter().cloned().collect(),
            positions,
            atoms,
            atoms_of,
            vars,
        }
    }

    /// The compiled arguments of body literal `literal`.
    pub(crate) fn body(&self, literal: usize) -> &[SlotTerm] {
        &self.body[literal]
    }

    /// The compiled head arguments.
    pub(crate) fn head(&self) -> &[SlotTerm] {
        &self.head
    }

    /// Returns `true` if `slot` is a rule variable that the rule's
    /// constraint mentions: it can only hold a number.
    fn constrained(&self, slot: Slot) -> bool {
        self.atoms_of
            .get(slot)
            .is_some_and(|atoms| !atoms.is_empty())
    }
}

/// The join variable `_j{id}p{position}` a slot beyond the rule's
/// variables stands for: free position `position` of a matched constraint
/// fact, numbered by the derivation's monotone counter.
#[derive(Debug, Clone, Copy)]
struct JoinVar {
    id: u64,
    position: usize,
}

/// What the current bindings make of one atom.
enum Decision {
    /// Every slot is bound and the atom holds.
    Holds,
    /// Every slot is bound and the atom is false.
    Fails,
    /// An equality with one unbound slot: that slot's value.
    Solve(Slot, Rational),
    /// Still undecided.
    Open,
}

/// A point a [`Frame`] can be rolled back to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    trail: usize,
    dynamic: usize,
    extra: usize,
    fresh: u64,
    resolved: bool,
}

/// A derivation in progress: a frame of slots over one [`SlotRule`].
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// One value per slot: the rule's variables, then the extra slots.
    values: Vec<Option<Value>>,
    /// Per rule-constraint atom: how many of its slots are still unbound.
    unbound: Vec<usize>,
    /// Whether the rule's constraint has been propagated once.  A fresh
    /// frame has not: the first match (or a body-less rule's completion)
    /// also decides the atoms no binding touched.
    resolved: bool,
    /// Atoms added by the matches themselves: expression arguments,
    /// renamed constraint-fact constraints and their argument links.
    dynamic: Vec<SlotAtom>,
    /// The join variables of the slots beyond the rule's variables.
    extra: Vec<JoinVar>,
    /// Monotone join-variable counter of this derivation.
    fresh: u64,
    /// Bound slots, in binding order.
    trail: Vec<Slot>,
    /// Rule-constraint atoms to re-check.
    pending: Vec<usize>,
}

impl Frame {
    /// The empty frame of `rule`.
    pub(crate) fn new(rule: &SlotRule) -> Frame {
        Frame {
            values: vec![None; rule.vars.len()],
            unbound: rule.atoms.iter().map(|a| a.linear.terms.len()).collect(),
            resolved: false,
            dynamic: Vec::new(),
            extra: Vec::new(),
            fresh: 0,
            trail: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The current state, to roll back to with [`Frame::undo`].
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            dynamic: self.dynamic.len(),
            extra: self.extra.len(),
            fresh: self.fresh,
            resolved: self.resolved,
        }
    }

    /// Rolls the frame back to `mark`.
    pub(crate) fn undo(&mut self, rule: &SlotRule, mark: Mark) {
        while self.trail.len() > mark.trail {
            let slot = self.trail.pop().expect("trail is longer than the mark");
            self.values[slot] = None;
            if let Some(atoms) = rule.atoms_of.get(slot) {
                for &a in atoms {
                    self.unbound[a] += 1;
                }
            }
        }
        self.dynamic.truncate(mark.dynamic);
        self.extra.truncate(mark.extra);
        self.values.truncate(rule.vars.len() + mark.extra);
        self.fresh = mark.fresh;
        self.resolved = mark.resolved;
        self.pending.clear();
    }

    /// The rule variables bound to a value.
    pub(crate) fn bound_vars(&self, rule: &SlotRule) -> BTreeSet<Var> {
        rule.vars
            .iter()
            .zip(&self.values)
            .filter(|(_, value)| value.is_some())
            .map(|(var, _)| var.clone())
            .collect()
    }

    /// The value `term` takes under the current bindings, if they determine
    /// one: constants are themselves, slots their binding, and linear
    /// expressions their value once every slot holds a number.  A variable
    /// constrained only through a matched constraint fact does not resolve.
    pub(crate) fn value_of(&self, term: &SlotTerm) -> Kernel<Option<Value>> {
        Ok(match term {
            SlotTerm::Const(value) => Some(value.clone()),
            SlotTerm::Slot(slot) => self.values[*slot].clone(),
            SlotTerm::Expr(linear) => self.evaluate(linear)?.map(Value::num),
        })
    }

    /// Extends the derivation with `fact` for the literal compiled as
    /// `terms`.  Returns `Ok(false)` (leaving partial bindings for the
    /// caller's [`Frame::undo`]) when the fact does not match or a pushed
    /// constraint becomes false.
    pub(crate) fn match_fact(
        &mut self,
        rule: &SlotRule,
        terms: &[SlotTerm],
        fact: FactRef<'_>,
    ) -> Kernel<bool> {
        let matched = match fact {
            FactRef::Ground { row, .. } => self.match_row(rule, terms, row.iter()),
            FactRef::Stored(fact) if fact.is_ground() => {
                let row = fact.bindings().iter().map(|binding| match binding {
                    Binding::Bound(value) => value,
                    Binding::Free => unreachable!("ground facts bind every position"),
                });
                self.match_row(rule, terms, row)
            }
            FactRef::Stored(fact) => self.match_constraint_fact(rule, terms, fact),
        };
        if !matched? {
            return Ok(false);
        }
        self.propagate(rule)
    }

    /// Matches a ground row: compares before binding anything.
    fn match_row<'v>(
        &mut self,
        rule: &SlotRule,
        terms: &[SlotTerm],
        row: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> Kernel<bool> {
        if row.len() != terms.len() {
            return Ok(false);
        }
        for (term, value) in terms.iter().zip(row.clone()) {
            let rejected = match term {
                SlotTerm::Const(constant) => constant != value,
                SlotTerm::Slot(slot) => self.values[*slot].as_ref().is_some_and(|b| b != value),
                SlotTerm::Expr(_) => value.as_num().is_none(),
            };
            if rejected {
                return Ok(false);
            }
        }
        for (term, value) in terms.iter().zip(row) {
            if !self.match_value(rule, term, value)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Matches one argument against a ground value.
    fn match_value(&mut self, rule: &SlotRule, term: &SlotTerm, value: &Value) -> Kernel<bool> {
        Ok(match term {
            SlotTerm::Const(constant) => constant == value,
            SlotTerm::Slot(slot) => self.bind(rule, *slot, value),
            SlotTerm::Expr(linear) => match value.as_num() {
                Some(n) => {
                    let constant = linear.constant.checked_sub(&n).ok_or(ArithmeticOverflow)?;
                    let atom = Linear {
                        terms: linear.terms.clone(),
                        constant,
                    };
                    self.add_atom(atom, Rel::Eq)
                }
                None => false,
            },
        })
    }

    /// Matches a stored fact with free positions or a residual constraint:
    /// its free positions become join variables, and its constraint and
    /// the argument links become dynamic atoms.
    fn match_constraint_fact(
        &mut self,
        rule: &SlotRule,
        terms: &[SlotTerm],
        fact: &Fact,
    ) -> Kernel<bool> {
        if fact.arity() != terms.len() {
            return Ok(false);
        }
        let position_slots: Vec<Option<Slot>> = fact
            .bindings()
            .iter()
            .enumerate()
            .map(|(i, binding)| {
                matches!(binding, Binding::Free).then(|| {
                    self.fresh += 1;
                    self.values.push(None);
                    self.extra.push(JoinVar {
                        id: self.fresh,
                        position: i + 1,
                    });
                    self.values.len() - 1
                })
            })
            .collect();
        for atom in fact.constraint().atoms() {
            let mut linear = Linear::constant(atom.expr().constant_part());
            for (var, c) in atom.expr().terms() {
                // `Fact::new` projects a stored constraint onto the fact's
                // free positions, so it mentions nothing else.
                let slot = var
                    .position_index()
                    .and_then(|i| position_slots.get(i - 1).copied().flatten())
                    .expect("stored constraints mention only free positions");
                linear.add(slot, *c);
            }
            if !self.add_atom(linear, atom.rel()) {
                return Ok(false);
            }
        }
        for ((term, binding), position) in terms.iter().zip(fact.bindings()).zip(&position_slots) {
            let matched = match (binding, position) {
                (Binding::Bound(value), _) => self.match_value(rule, term, value)?,
                (Binding::Free, Some(fresh)) => {
                    // term = fresh join variable
                    let mut link = match term {
                        SlotTerm::Const(value) => match value.as_num() {
                            Some(n) => Linear::constant(n),
                            None => return Ok(false),
                        },
                        SlotTerm::Slot(slot) => {
                            if matches!(self.values[*slot], Some(Value::Sym(_))) {
                                return Ok(false);
                            }
                            let mut linear = Linear::constant(Rational::ZERO);
                            linear.add(*slot, Rational::ONE);
                            linear
                        }
                        SlotTerm::Expr(linear) => linear.clone(),
                    };
                    link.add(*fresh, -Rational::ONE);
                    self.add_atom(link, Rel::Eq)
                }
                (Binding::Free, None) => unreachable!("free positions have join variables"),
            };
            if !matched {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Returns `true` if `slot` may not hold a symbol: a live atom mentions
    /// it.
    fn arithmetic(&self, rule: &SlotRule, slot: Slot) -> bool {
        rule.constrained(slot)
            || self
                .dynamic
                .iter()
                .any(|atom| atom.linear.slots().any(|s| s == slot))
    }

    /// Binds `slot` to `value`, or checks it against the existing binding.
    fn bind(&mut self, rule: &SlotRule, slot: Slot, value: &Value) -> bool {
        if let Some(existing) = &self.values[slot] {
            return existing == value;
        }
        if value.as_sym().is_some() && self.arithmetic(rule, slot) {
            return false;
        }
        self.values[slot] = Some(value.clone());
        self.trail.push(slot);
        if let Some(atoms) = rule.atoms_of.get(slot) {
            for &a in atoms {
                self.unbound[a] -= 1;
                self.pending.push(a);
            }
        }
        true
    }

    /// Adds a dynamic atom; refused when it mentions a symbol-valued slot.
    fn add_atom(&mut self, linear: Linear, rel: Rel) -> bool {
        if linear
            .slots()
            .any(|slot| matches!(self.values[slot], Some(Value::Sym(_))))
        {
            return false;
        }
        self.dynamic.push(SlotAtom { linear, rel });
        true
    }

    /// The numeric value of a bound slot.
    fn number(&self, slot: Slot) -> Option<Rational> {
        self.values[slot].as_ref().and_then(Value::as_num)
    }

    /// Evaluates `linear` when every slot holds a number.
    fn evaluate(&self, linear: &Linear) -> Kernel<Option<Rational>> {
        let mut acc = linear.constant;
        for &(slot, c) in &linear.terms {
            let Some(value) = self.number(slot) else {
                return Ok(None);
            };
            acc = mul_add(acc, c, value)?;
        }
        Ok(Some(acc))
    }

    /// Decides one atom under the current bindings.
    fn decide(&self, atom: &SlotAtom) -> Kernel<Decision> {
        let mut unbound = None;
        let mut rest = atom.linear.constant;
        for &(slot, c) in &atom.linear.terms {
            match self.number(slot) {
                Some(value) => rest = mul_add(rest, c, value)?,
                None if unbound.is_none() => unbound = Some((slot, c)),
                None => return Ok(Decision::Open),
            }
        }
        Ok(match unbound {
            None => {
                let holds = match atom.rel {
                    Rel::Le => !rest.is_positive(),
                    Rel::Lt => rest.is_negative(),
                    Rel::Eq => rest.is_zero(),
                };
                if holds {
                    Decision::Holds
                } else {
                    Decision::Fails
                }
            }
            Some((slot, c)) if atom.rel == Rel::Eq => {
                let value = Rational::ZERO
                    .checked_sub(&rest)
                    .and_then(|negated| negated.checked_div(&c))
                    .ok_or(ArithmeticOverflow)?;
                Decision::Solve(slot, value)
            }
            Some(_) => Decision::Open,
        })
    }

    /// Applies a decision: `false` prunes the match.
    fn apply(&mut self, rule: &SlotRule, decision: Decision) -> bool {
        match decision {
            Decision::Holds | Decision::Open => true,
            Decision::Fails => false,
            Decision::Solve(slot, value) => self.bind(rule, slot, &Value::num(value)),
        }
    }

    /// Propagates the bindings made since the last propagation through the
    /// rule's constraint and the dynamic atoms until nothing changes.
    fn propagate(&mut self, rule: &SlotRule) -> Kernel<bool> {
        if !self.resolved {
            self.resolved = true;
            self.pending.extend(0..rule.atoms.len());
        }
        loop {
            while let Some(a) = self.pending.pop() {
                let atom = &rule.atoms[a];
                let live = match self.unbound[a] {
                    0 => true,
                    1 => atom.rel == Rel::Eq,
                    _ => false,
                };
                if live {
                    let decision = self.decide(atom)?;
                    if !self.apply(rule, decision) {
                        return Ok(false);
                    }
                }
            }
            let bound = self.trail.len();
            for i in 0..self.dynamic.len() {
                let decision = self.decide(&self.dynamic[i])?;
                if !self.apply(rule, decision) {
                    return Ok(false);
                }
            }
            if self.trail.len() == bound && self.pending.is_empty() {
                return Ok(true);
            }
        }
    }

    /// Completes a derivation: propagates whatever is left (a body-less
    /// rule's constraint), checks the undecided atoms for satisfiability,
    /// and builds the head fact.  `Ok(None)` when there is no derivation.
    pub(crate) fn finish(&mut self, rule: &SlotRule, source: &Rule) -> Kernel<Option<Fact>> {
        if !self.propagate(rule)? {
            return Ok(None);
        }
        let residual = self.residual(rule)?;
        pcs_telemetry::bump(pcs_telemetry::Counter::FmSatCalls);
        if !residual.is_satisfiable() {
            return Ok(None);
        }
        self.head_fact(rule, source, residual)
    }

    /// The undecided atoms, substituted, in the order a symbolic matcher
    /// keeps them: the rule's constraint first, then the dynamic atoms in
    /// the order they were added.
    fn residual(&self, rule: &SlotRule) -> Kernel<Conjunction> {
        let mut residual = Conjunction::truth();
        let undecided = rule
            .atoms
            .iter()
            .zip(&self.unbound)
            .filter(|(_, &unbound)| unbound > 0)
            .map(|(atom, _)| atom)
            .chain(&self.dynamic);
        for atom in undecided {
            if let Some(expr) = self.substitute(rule, &atom.linear)? {
                residual.push(Atom::new(expr, atom.rel));
            }
        }
        Ok(residual)
    }

    /// `linear` with its bound slots substituted, as an expression over the
    /// unbound slots' variables; `None` when every slot is bound.
    fn substitute(&self, rule: &SlotRule, linear: &Linear) -> Kernel<Option<LinearExpr>> {
        let mut constant = linear.constant;
        let mut terms = Vec::new();
        for &(slot, c) in &linear.terms {
            match self.number(slot) {
                Some(value) => constant = mul_add(constant, c, value)?,
                None => terms.push((c, self.var_of(rule, slot))),
            }
        }
        Ok((!terms.is_empty()).then(|| LinearExpr::from_terms(terms, constant)))
    }

    /// The variable a slot stands for in symbolic constraints.
    fn var_of(&self, rule: &SlotRule, slot: Slot) -> Var {
        match rule.vars.get(slot) {
            Some(var) => var.clone(),
            None => {
                let JoinVar { id, position } = self.extra[slot - rule.vars.len()];
                Var::new(format!("_j{id}p{position}"))
            }
        }
    }

    /// Builds the head fact of a completed derivation.  A head whose every
    /// argument resolves and whose residual is empty is a ground fact with
    /// no constraint work at all.
    fn head_fact(
        &self,
        rule: &SlotRule,
        source: &Rule,
        mut constraint: Conjunction,
    ) -> Kernel<Option<Fact>> {
        let predicate = source.head.predicate.clone();
        if constraint.is_empty() {
            let mut row = Vec::with_capacity(rule.head.len());
            for term in &rule.head {
                match self.value_of(term)? {
                    Some(value) => row.push(value),
                    None => break,
                }
            }
            if row.len() == rule.head.len() {
                return Ok(Some(Fact::ground(predicate, row)));
            }
        }
        let mut bindings = Vec::with_capacity(rule.head.len());
        for (i, term) in rule.head.iter().enumerate() {
            if let SlotTerm::Expr(linear) = term {
                if linear
                    .slots()
                    .any(|slot| matches!(self.values[slot], Some(Value::Sym(_))))
                {
                    return Ok(None);
                }
            }
            match self.value_of(term)? {
                Some(value) => bindings.push(Binding::Bound(value)),
                None => {
                    bindings.push(Binding::Free);
                    let position = LinearExpr::var(rule.positions[i].clone());
                    let value = match term {
                        SlotTerm::Slot(slot) => LinearExpr::var(self.var_of(rule, *slot)),
                        SlotTerm::Expr(linear) => self
                            .substitute(rule, linear)?
                            .expect("an unresolved expression has an unbound slot"),
                        SlotTerm::Const(_) => unreachable!("constants resolve"),
                    };
                    constraint.push(Atom::compare(position, CmpOp::Eq, value));
                }
            }
        }
        let projected = constraint.project(&rule.keep);
        Ok(Fact::new(predicate, bindings, projected))
    }
}
