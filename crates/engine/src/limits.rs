//! Resource limits for bottom-up evaluation.
//!
//! Several of the paper's example programs deliberately do not terminate
//! before optimization (Example 1.2 / Table 1); the limits below make it safe
//! to evaluate them while still observing the divergence.

/// Resource limits for a bottom-up fixpoint evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalLimits {
    /// Maximum number of iterations (rule-application rounds).
    pub max_iterations: usize,
    /// Maximum total number of facts stored across all relations.
    pub max_facts: usize,
    /// Maximum total number of derivations attempted.
    pub max_derivations: usize,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits {
            max_iterations: 10_000,
            max_facts: 5_000_000,
            max_derivations: 50_000_000,
        }
    }
}

impl EvalLimits {
    /// Limits suitable for unit tests and for evaluating programs known to
    /// diverge (e.g. the magic Fibonacci program of Table 1).
    pub fn capped(max_iterations: usize) -> Self {
        EvalLimits {
            max_iterations,
            ..EvalLimits::default()
        }
    }
}

/// Why an evaluation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// A fixpoint was reached: the final iteration derived no new facts.
    Fixpoint,
    /// The iteration limit was hit before reaching a fixpoint.
    IterationLimit,
    /// The fact limit was hit before reaching a fixpoint.
    FactLimit,
    /// The derivation limit was hit before reaching a fixpoint.
    DerivationLimit,
    /// Exact arithmetic in the join kernel overflowed `i128` (e.g. a rule
    /// that keeps doubling a number); the facts derived before the
    /// overflow are kept, as with the other limits.
    ArithmeticOverflow,
}

impl Termination {
    /// Returns `true` if the evaluation completed (reached a fixpoint).
    pub fn is_fixpoint(&self) -> bool {
        matches!(self, Termination::Fixpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_overrides_iterations_only() {
        let limits = EvalLimits::capped(7);
        assert_eq!(limits.max_iterations, 7);
        assert_eq!(limits.max_facts, EvalLimits::default().max_facts);
        assert!(Termination::Fixpoint.is_fixpoint());
        assert!(!Termination::IterationLimit.is_fixpoint());
    }
}
