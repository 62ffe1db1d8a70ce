//! Resource governance for engine checks: budgets, degradation bounds, and
//! the structured [`DecisionError`] the governed entry points return.
//!
//! The budget primitives themselves ([`Budget`], [`BudgetHandle`],
//! [`BudgetExceeded`]) live in `tpx_trees::budget` — the root of the crate
//! graph — so every pipeline layer (tree automata, MSO compilation, the
//! top-down and DTL deciders) can charge fuel against the same handle. This
//! module re-exports them and adds the engine-facing types.

use std::time::Duration;

use tpx_dtl::{DtlDecideError, DtlError};
pub use tpx_trees::budget::{Budget, BudgetExceeded, BudgetHandle, ExhaustReason};

/// Parameters of the bounded-enumeration fallback used when the symbolic
/// DTL pipeline exhausts its budget (see `tpx_dtl::bounded`): enumerate
/// schema trees up to `max_nodes` nodes, at most `limit` trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradeBound {
    /// Maximum node count of enumerated candidate trees.
    pub max_nodes: usize,
    /// Maximum number of candidate trees examined.
    pub limit: usize,
}

impl Default for DegradeBound {
    fn default() -> Self {
        DegradeBound {
            max_nodes: 8,
            limit: 2000,
        }
    }
}

/// Options for the governed check entry points.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckOptions {
    /// Fuel/deadline budget per task. [`Budget::UNLIMITED`] by default.
    pub budget: Budget,
    /// When set, a DTL check whose symbolic pipeline exhausts the budget
    /// falls back to the bounded-enumeration oracle with these bounds
    /// instead of failing; the verdict is marked degraded.
    pub degrade: Option<DegradeBound>,
}

impl CheckOptions {
    /// Unlimited budget, no degradation — equivalent to the ungoverned API.
    pub fn unlimited() -> Self {
        CheckOptions::default()
    }

    /// Governed by `budget`, no degradation.
    pub fn with_budget(budget: Budget) -> Self {
        CheckOptions {
            budget,
            degrade: None,
        }
    }

    /// Enables the bounded-enumeration fallback with `bound`.
    pub fn degrade_with(mut self, bound: DegradeBound) -> Self {
        self.degrade = Some(bound);
        self
    }

    /// The options a fuel cap, a wall-clock cap in milliseconds and a
    /// degrade flag describe (`None` = no limit), degrading with the
    /// default bound: the one mapping from the CLI flags, the serve
    /// frames and the fuzz configuration onto the governed check.
    pub fn limits(fuel: Option<u64>, timeout_ms: Option<u64>, degrade: bool) -> Self {
        CheckOptions {
            budget: Budget {
                fuel,
                timeout: timeout_ms.map(Duration::from_millis),
            },
            degrade: degrade.then(DegradeBound::default),
        }
    }
}

/// Why a governed check failed to produce a verdict.
#[derive(Debug)]
pub enum DecisionError {
    /// The fuel or deadline budget ran out. `stage` names the pipeline
    /// stage whose probe tripped.
    ResourceExhausted {
        /// The pipeline stage that hit the limit (e.g. `"dtl/counterexample"`).
        stage: &'static str,
        /// Which limit tripped: fuel, deadline, or cancellation.
        reason: ExhaustReason,
        /// Fuel charged up to the point of failure.
        fuel_spent: u64,
        /// Wall-clock time elapsed since the budget was started.
        elapsed: Duration,
    },
    /// The decider (or a cached artifact builder) panicked; the panic was
    /// isolated to this task.
    Panicked {
        /// The stage that panicked, or `"engine/task"` when the panic
        /// escaped the staged pipeline.
        stage: &'static str,
        /// The panic payload rendered as text (when it was a string).
        message: String,
    },
    /// A construction invariant failed without panicking.
    Internal(String),
}

impl DecisionError {
    /// Wraps a [`BudgetExceeded`] with the stage that observed it.
    pub fn exhausted(stage: &'static str, b: BudgetExceeded) -> Self {
        DecisionError::ResourceExhausted {
            stage,
            reason: b.reason,
            fuel_spent: b.fuel_spent,
            elapsed: b.elapsed,
        }
    }

    /// Whether this is a [`DecisionError::ResourceExhausted`].
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(self, DecisionError::ResourceExhausted { .. })
    }
}

impl std::fmt::Display for DecisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionError::ResourceExhausted {
                stage,
                reason,
                fuel_spent,
                elapsed,
            } => write!(
                f,
                "resource budget exhausted in stage {stage} ({reason}; \
                 {fuel_spent} fuel spent, {elapsed:.3?} elapsed)"
            ),
            DecisionError::Panicked { stage, message } => {
                write!(f, "stage {stage} panicked: {message}")
            }
            DecisionError::Internal(msg) => write!(f, "internal decision error: {msg}"),
        }
    }
}

impl std::error::Error for DecisionError {}

/// A stage's own failure type, turned into a [`DecisionError`] that names
/// the stage it happened in.
pub trait StageError: std::fmt::Display {
    /// The failure, attributed to `stage`.
    fn at(self, stage: &'static str) -> DecisionError;
}

impl StageError for BudgetExceeded {
    fn at(self, stage: &'static str) -> DecisionError {
        DecisionError::exhausted(stage, self)
    }
}

impl StageError for DtlDecideError {
    fn at(self, stage: &'static str) -> DecisionError {
        match self {
            DtlDecideError::Budget(b) => DecisionError::exhausted(stage, b),
            DtlDecideError::Internal(msg) => DecisionError::Internal(msg),
        }
    }
}

/// A stage that fails with a message (the `xslt/compile` stage) fails as
/// [`DecisionError::Internal`] carrying that message.
impl StageError for String {
    fn at(self, _stage: &'static str) -> DecisionError {
        DecisionError::Internal(self)
    }
}

impl StageError for DtlError {
    fn at(self, _stage: &'static str) -> DecisionError {
        DecisionError::Internal(self.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_stage_and_reason() {
        let b = Budget::default().with_fuel(0).start();
        let err = b.charge(1).unwrap_err();
        let e = DecisionError::exhausted("topdown/schema", err);
        assert!(e.is_resource_exhausted());
        let msg = e.to_string();
        assert!(msg.contains("topdown/schema"), "{msg}");
        assert!(msg.contains("fuel"), "{msg}");
    }

    #[test]
    fn options_builders() {
        let o =
            CheckOptions::with_budget(Budget::default().with_fuel(10)).degrade_with(DegradeBound {
                max_nodes: 4,
                limit: 100,
            });
        assert_eq!(o.budget.fuel, Some(10));
        assert_eq!(o.degrade.unwrap().max_nodes, 4);
        assert!(CheckOptions::unlimited().budget.is_unlimited());
    }

    #[test]
    fn limits_map_fuel_milliseconds_and_degrade() {
        let l = CheckOptions::limits(Some(7), Some(250), true);
        assert_eq!(l.budget.fuel, Some(7));
        assert_eq!(l.budget.timeout, Some(Duration::from_millis(250)));
        assert_eq!(l.degrade, Some(DegradeBound::default()));
        let none = CheckOptions::limits(None, None, false);
        assert!(none.budget.is_unlimited() && none.degrade.is_none());
    }
}
