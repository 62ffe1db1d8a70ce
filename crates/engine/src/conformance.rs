//! The output-conformance decider: the stages of `tpx_topdown::conformance`
//! run through the engine — *does `T(L(S))` stay inside a target schema
//! `D`?*
//!
//! Pipeline stages:
//!
//! | stage                 | cached | keyed by |
//! |-----------------------|--------|----------|
//! | `conformance/inverse` | yes    | transducer hash × target hash × alphabet width, under the conformance analysis |
//! | `conformance/decide`  | no     | — |
//!
//! The inverse type-inference artifact (the "bad input trees" NTA) depends
//! on the transducer and the *target* — not on the input schema — so one
//! compilation serves every input schema the pair is checked against. The
//! alphabet width is part of the key because symbols outside the
//! transducer's alphabet still shape types (they transform to `ε`).

use std::sync::Arc;

use crate::analysis::{Analysis, OUTPUT_CONFORMANCE};
use crate::budget::DecisionError;
use crate::decider::{unknown_stage, Decider, StageKey, Stages};
use crate::verdict::Outcome;
use tpx_topdown::{
    compile_conformance_artifacts, conformance_witness_with, ConformanceArtifacts, Transducer,
};
use tpx_treeauto::Nta;
use tpx_trees::{stable_hash_of, StableHasher};

/// Decides output conformance for one transducer against one target
/// schema: passes iff every schema tree's image validates against the
/// target.
pub struct OutputConformanceDecider<'a> {
    t: &'a Transducer,
    target: &'a Nta,
    t_key: u64,
    target_key: u64,
}

impl<'a> OutputConformanceDecider<'a> {
    /// Wraps `t` and the target schema, content-hashing both once for
    /// cache keying.
    pub fn new(t: &'a Transducer, target: &'a Nta) -> Self {
        OutputConformanceDecider {
            t,
            target,
            t_key: stable_hash_of(t),
            target_key: stable_hash_of(target),
        }
    }

    /// The target schema.
    pub fn target(&self) -> &Nta {
        self.target
    }

    /// The alphabet width the inverse artifact must cover for `schema`.
    fn n_symbols(&self, schema: &Nta) -> usize {
        self.t
            .symbol_count()
            .max(self.target.symbol_count())
            .max(schema.symbol_count())
    }

    /// The `conformance/inverse` stage key: (transducer, target, |Σ|).
    fn inverse_key(&self, n_symbols: usize) -> StageKey {
        let mut h = StableHasher::new();
        h.write_u64(self.t_key);
        h.write_u64(self.target_key);
        h.write_usize(n_symbols);
        StageKey::of(OUTPUT_CONFORMANCE, "conformance/inverse", h.finish())
    }

    /// The `conformance/inverse` stage: the NTA of input trees whose image
    /// violates the target.
    fn inverse_stage(
        &self,
        schema: &Nta,
        stages: &mut Stages<'_>,
    ) -> Result<Arc<ConformanceArtifacts>, DecisionError> {
        let n_symbols = self.n_symbols(schema);
        stages.cached(
            self.inverse_key(n_symbols),
            ConformanceArtifacts::size,
            |ctx| compile_conformance_artifacts(self.t, self.target, n_symbols, ctx),
        )
    }
}

impl Decider for OutputConformanceDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown/conformance"
    }

    fn analysis(&self) -> Analysis {
        OUTPUT_CONFORMANCE
    }

    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        vec![self.inverse_key(self.n_symbols(schema))]
    }

    fn prefetch_stage(
        &self,
        stage: StageKey,
        schema: &Nta,
        stages: &mut Stages<'_>,
    ) -> Result<(), DecisionError> {
        match stage.kind {
            "conformance/inverse" => self.inverse_stage(schema, stages).map(drop),
            _ => Err(unknown_stage(self.name(), stage)),
        }
    }

    fn check(&self, schema: &Nta, stages: &mut Stages<'_>) -> Result<Outcome, DecisionError> {
        let inverse = self.inverse_stage(schema, stages)?;
        let witness = stages.uncached("conformance/decide", |ctx| {
            conformance_witness_with(&inverse, schema, ctx)
        })?;
        let outcome = match witness {
            None => Outcome::Preserving,
            Some(witness) => Outcome::NonConforming { witness },
        };
        #[cfg(debug_assertions)]
        validate_conformance_outcome(self.t, schema, self.target, &outcome);
        Ok(outcome)
    }
}

/// Debug-build witness validation: a non-conformance witness must be a
/// schema tree whose image the per-tree semantic oracle confirms to
/// violate the target.
#[cfg(debug_assertions)]
fn validate_conformance_outcome(t: &Transducer, schema: &Nta, target: &Nta, outcome: &Outcome) {
    if let Outcome::NonConforming { witness } = outcome {
        debug_assert!(
            schema.accepts(witness),
            "conformance decider: witness outside the schema"
        );
        debug_assert!(
            !tpx_topdown::conforms_on(t, witness, target),
            "conformance decider: witness image conforms to the target"
        );
    }
}
