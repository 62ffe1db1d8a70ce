//! The context every pipeline stage runs under: the check's fuel/deadline
//! budget and the tracer its spans go to.
//!
//! A stage is one function taking a [`StageCtx`]; budgeting and tracing
//! are not separate copies of it. Sub-stages open their span through
//! [`StageCtx::span`], which samples the fuel once on each side of the
//! work, so every span carries what its stage charged.
//!
//! The type lives here because `tpx-topdown` is the lowest crate that
//! already depends on both halves (`tpx-trees` for the budget, `tpx-obs`
//! for the tracer) and that both `tpx-dtl` and `tpx-engine` depend on, so
//! sharing it adds no edge to the crate graph.

use tpx_obs::{SpanFields, Tracer};
use tpx_trees::budget::BudgetHandle;

/// The budget a stage charges fuel against and the tracer its spans go
/// to. Two references, so it is passed by value.
#[derive(Clone, Copy, Debug)]
pub struct StageCtx<'a> {
    /// The fuel/deadline budget shared by every stage of one check.
    pub budget: &'a BudgetHandle,
    /// Where the stage's spans go (a disabled tracer records nothing).
    pub tracer: &'a Tracer,
}

impl<'a> StageCtx<'a> {
    /// A context over `budget` and `tracer`.
    pub fn new(budget: &'a BudgetHandle, tracer: &'a Tracer) -> Self {
        StageCtx { budget, tracer }
    }

    /// Runs `f` under a fresh unlimited budget with tracing disabled: the
    /// context of the one-shot entry points.
    pub fn unlimited<T>(f: impl FnOnce(StageCtx<'_>) -> T) -> T {
        let budget = BudgetHandle::unlimited();
        f(StageCtx::new(&budget, Tracer::disabled_ref()))
    }

    /// Runs `f` inside a span named `name`. On success the span closes
    /// with the fuel `f` charged and, when `size` gives one, the size of
    /// its result; a failing `f` closes the span without fields.
    pub fn span<T, E>(
        self,
        name: &'static str,
        size: impl FnOnce(&T) -> Option<usize>,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let span = self.tracer.span(name);
        let fuel_before = self.budget.fuel_spent();
        let value = f()?;
        let fields = SpanFields {
            fuel: Some(self.budget.fuel_spent() - fuel_before),
            artifact_size: size(&value),
            cache_hit: None,
        };
        span.exit_with(fields);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_obs::TraceEvent;
    use tpx_trees::budget::{Budget, BudgetExceeded};

    #[test]
    fn span_carries_fuel_and_size_and_failure_carries_none() {
        let tracer = Tracer::enabled();
        let budget = Budget::default().with_fuel(10).start();
        let ctx = StageCtx::new(&budget, &tracer);
        let v: Result<Vec<u8>, BudgetExceeded> = ctx.span(
            "a",
            |v: &Vec<u8>| Some(v.len()),
            || {
                budget.charge(3)?;
                Ok(vec![1, 2])
            },
        );
        assert_eq!(v.unwrap(), vec![1, 2]);
        let err = ctx.span("b", |_: &()| None, || budget.charge(20));
        assert!(err.is_err());
        let exits: Vec<(&str, SpanFields)> = tracer
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Exit { span, fields, .. } => Some((span, fields)),
                TraceEvent::Enter { .. } => None,
            })
            .collect();
        assert_eq!(
            exits,
            vec![
                ("a", SpanFields::new().fuel(3).size(2)),
                ("b", SpanFields::new())
            ]
        );
    }
}
