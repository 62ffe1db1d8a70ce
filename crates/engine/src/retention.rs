//! The text-retention decider: the stages of `tpx_topdown::extensions`
//! run through the engine — *does the transducer ever delete a text value
//! below a node carrying one of the selected labels?*
//!
//! Pipeline stages:
//!
//! | stage                          | cached | keyed by |
//! |--------------------------------|--------|----------|
//! | `topdown/schema`               | yes    | schema hash (shared with text-preservation) |
//! | `topdown/retention/transducer` | yes    | transducer hash, under the retention analysis |
//! | `topdown/retention/decide`     | no     | — |
//!
//! The schema-side stage is the *same* `topdown/schema` stage the
//! text-preservation decider runs (one definition, an analysis-free
//! [`StageKey`]), so a mixed batch over one schema compiles it exactly
//! once. The transducer-side artifact (`A_T`) is independent of the
//! selected labels, so every retention query against the same transducer
//! shares it; the labels only parameterize the cheap, uncached decide
//! stage (a product with a 2-state NFA plus the antichain inclusion
//! search).

use std::sync::Arc;

use crate::analysis::{Analysis, TEXT_RETENTION};
use crate::budget::DecisionError;
use crate::decider::{
    topdown_schema, topdown_schema_key, unknown_stage, Decider, StageKey, Stages,
};
use crate::verdict::Outcome;
use tpx_topdown::extensions::{
    compile_retention_artifacts, deleted_text_under_with, RetentionArtifacts,
};
use tpx_topdown::Transducer;
use tpx_treeauto::Nta;
use tpx_trees::{stable_hash_of, Symbol};

/// Decides text-retention for one transducer and one set of selected
/// labels: passes iff no schema tree has a text value below a
/// selected-label node that the transducer deletes.
pub struct TextRetentionDecider<'a> {
    t: &'a Transducer,
    labels: Vec<Symbol>,
    key: u64,
}

impl<'a> TextRetentionDecider<'a> {
    /// Wraps `t` with the labels under which text must be retained,
    /// content-hashing the transducer once for cache keying.
    pub fn new(t: &'a Transducer, labels: Vec<Symbol>) -> Self {
        TextRetentionDecider {
            t,
            labels,
            key: stable_hash_of(t),
        }
    }

    /// The selected labels.
    pub fn labels(&self) -> &[Symbol] {
        &self.labels
    }
}

impl TextRetentionDecider<'_> {
    fn transducer_key(&self) -> StageKey {
        StageKey::of(TEXT_RETENTION, "topdown/retention/transducer", self.key)
    }

    /// The `topdown/retention/transducer` stage: `A_T`.
    fn transducer_stage(
        &self,
        stages: &mut Stages<'_>,
    ) -> Result<Arc<RetentionArtifacts>, DecisionError> {
        stages.cached(self.transducer_key(), RetentionArtifacts::size, |ctx| {
            compile_retention_artifacts(self.t, ctx)
        })
    }
}

impl Decider for TextRetentionDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown/retention"
    }

    fn analysis(&self) -> Analysis {
        TEXT_RETENTION
    }

    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        vec![topdown_schema_key(schema), self.transducer_key()]
    }

    fn prefetch_stage(
        &self,
        stage: StageKey,
        schema: &Nta,
        stages: &mut Stages<'_>,
    ) -> Result<(), DecisionError> {
        match stage.kind {
            "topdown/schema" => topdown_schema(schema, stages).map(drop),
            "topdown/retention/transducer" => self.transducer_stage(stages).map(drop),
            _ => Err(unknown_stage(self.name(), stage)),
        }
    }

    fn check(&self, schema: &Nta, stages: &mut Stages<'_>) -> Result<Outcome, DecisionError> {
        let schema_art = topdown_schema(schema, stages)?;
        let trans_art = self.transducer_stage(stages)?;
        let witness = stages.uncached("topdown/retention/decide", |ctx| {
            deleted_text_under_with(&schema_art, &trans_art, &self.labels, ctx)
        })?;
        let outcome = match witness {
            None => Outcome::Preserving,
            Some(path) => Outcome::DeletesText { path },
        };
        #[cfg(debug_assertions)]
        validate_retention_outcome(self.t, schema, &self.labels, &outcome);
        Ok(outcome)
    }
}

/// Debug-build witness validation: a deleted-text path must be a schema
/// text path, pass through a selected label, and have no transducer path
/// run (i.e. its value really is deleted).
#[cfg(debug_assertions)]
fn validate_retention_outcome(t: &Transducer, schema: &Nta, labels: &[Symbol], outcome: &Outcome) {
    use tpx_topdown::PathSym;
    if let Outcome::DeletesText { path } = outcome {
        debug_assert!(
            tpx_topdown::path_automaton_nta(schema).accepts(path),
            "retention decider: witness path is not a schema path"
        );
        debug_assert!(
            path.iter()
                .any(|p| labels.iter().any(|&l| *p == PathSym::Elem(l))),
            "retention decider: witness path misses the selected labels"
        );
        debug_assert!(
            !tpx_topdown::path_automaton_transducer(t).accepts(path),
            "retention decider: transducer keeps the witness path's value"
        );
    }
}
