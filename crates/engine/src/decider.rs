//! The [`Decider`] trait, the [`Stages`] recorder every pipeline stage
//! runs through, and the two text-preservation deciders: the PTIME
//! top-down decider (Theorem 4.11) and the DTL decider (Theorems
//! 5.12/5.18).
//!
//! A decider wraps one transducer and names the stages of its pipeline
//! against a schema; every expensive intermediate is memoized in the
//! [`ArtifactCache`]. Cache keys:
//!
//! | kind                  | keyed by                         | artifact |
//! |-----------------------|----------------------------------|----------|
//! | `topdown/schema`      | schema content hash              | [`SchemaArtifacts`] (`A_N`) |
//! | `topdown/transducer`  | transducer content hash          | [`TransducerArtifacts`] (`A_T`, diverging, doubling, rearranging NTA) |
//! | `dtl/schema`          | schema content hash              | [`DtlSchemaArtifacts`] (schema NBTA) |
//! | `dtl/counterexample`  | transducer `Debug` hash + `|Σ|`  | [`DtlTransducerArtifacts`] (MSO→NBTA compilation) |
//!
//! The final decide stage (automata products + emptiness) is cheap and
//! schema×transducer-specific, so it is never cached.
//!
//! Every stage is one function taking a [`StageCtx`] (the check's
//! [`BudgetHandle`] and [`Tracer`]), and every stage runs through one
//! helper, [`Stages::cached`] or [`Stages::uncached`]: it opens the
//! stage's span, runs the stage, and closes the span and writes the
//! stage's [`StageReport`] from the same measurement (fuel charged,
//! artifact size, cache hit). Each cached stage's builder is written once
//! and serves both [`Decider::check`] and [`Decider::prefetch_stage`]. The
//! [`crate::Engine`] starts the budget, owns the reports, runs the
//! degradation fallback and assembles the [`Verdict`](crate::Verdict); a
//! failure comes back as a structured [`DecisionError`] instead of a
//! panic.
//!
//! Each decider also states, once, what makes its witnesses valid:
//! [`Decider::witness_error`] re-confirms an outcome tree by tree against
//! the schema and the per-tree semantic oracles. The engine asserts it on
//! every outcome in debug builds, and `tpx-diffcheck` calls it in release
//! builds as its `witness-invalid` and `retention-disagrees` checks.

use std::sync::Arc;
use std::time::Instant;

use crate::analysis::{Analysis, TEXT_PRESERVATION};
use crate::budget::{BudgetHandle, DecisionError, DegradeBound, StageError};
use crate::cache::{ArtifactCache, CacheError};
use crate::verdict::{CheckStats, Outcome, StageReport};
use tpx_dtl::pattern::MsoDefinable;
use tpx_dtl::{
    compile_counterexample, compile_schema_nbta, dtl_text_preserving_with, DtlCheckReport,
    DtlSchemaArtifacts, DtlTransducer, DtlTransducerArtifacts,
};
use tpx_obs::{SpanFields, Tracer};
use tpx_topdown::{
    compile_schema_artifacts, compile_transducer_artifacts, is_text_preserving_with, PathSym,
    SchemaArtifacts, StageCtx, Transducer, TransducerArtifacts,
};
use tpx_treeauto::Nta;
use tpx_trees::{stable_hash_debug, stable_hash_of, StableHasher};

/// Identifies one cacheable pipeline stage: the artifact kind (the cache
/// namespace, e.g. `"topdown/schema"`) plus the content hash it is keyed
/// by, plus the [`Analysis`] the stage belongs to when the artifact is
/// analysis-specific. Two checks that declare the same `StageKey` depend
/// on the same artifact, so the batch scheduler runs that build once and
/// both checks hit the cache; an analysis-free key (`analysis: None`)
/// marks a *shared* artifact that any analysis over the same input may
/// reuse, while the analysis of a specific key is folded into the cache
/// key so distinct analyses never collide even under equal content hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StageKey {
    /// The artifact kind / cache namespace.
    pub kind: &'static str,
    /// The content hash the artifact is keyed by within `kind`.
    pub key: u64,
    /// `Some` when the artifact is specific to one analysis; `None` for
    /// artifacts shared across analyses (e.g. schema-side compilations).
    pub analysis: Option<Analysis>,
}

impl StageKey {
    /// A stage building an analysis-independent (shared) artifact.
    pub fn shared(kind: &'static str, key: u64) -> Self {
        StageKey {
            kind,
            key,
            analysis: None,
        }
    }

    /// A stage building an artifact owned by `analysis`.
    pub fn of(analysis: Analysis, kind: &'static str, key: u64) -> Self {
        StageKey {
            kind,
            key,
            analysis: Some(analysis),
        }
    }

    /// The `u64` the artifact is actually cached under: the content hash,
    /// with the owning analysis' discriminant mixed in for
    /// analysis-specific stages.
    pub fn cache_key(&self) -> u64 {
        match self.analysis {
            None => self.key,
            Some(a) => {
                let mut h = StableHasher::new();
                h.write_u64(self.key);
                h.write_u64(a.discriminant);
                h.finish()
            }
        }
    }
}

/// A decision procedure for one analysis of one fixed transducer.
///
/// `Sync` so a batch of checks can share one decider across the worker
/// threads of [`crate::Engine::check_many`].
pub trait Decider: Sync {
    /// A short name for reports (`"topdown"`, `"dtl"`).
    fn name(&self) -> &'static str;

    /// Which preservation analysis this decider runs. Defaults to the
    /// paper's headline text-preservation question; the retention and
    /// conformance deciders override it. Carried into every [`Verdict`]
    /// the engine assembles for the decider, and folded into the cache
    /// keys of analysis-specific stages (see [`StageKey::of`]).
    ///
    /// [`Verdict`]: crate::Verdict
    fn analysis(&self) -> Analysis {
        TEXT_PRESERVATION
    }

    /// The cacheable artifact stages this check will consult, in pipeline
    /// order. The batch scheduler deduplicates these across a batch and
    /// prefetches each distinct stage as its own schedulable task, so the
    /// subsequent [`Decider::check`] finds every declared artifact already
    /// built. The default (no declared stages) keeps the whole pipeline
    /// inside the check task — correct, just unscheduled.
    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        let _ = schema;
        Vec::new()
    }

    /// Builds the single artifact behind `stage` (one of
    /// [`Decider::artifact_stages`]) through `stages`, with the same
    /// builder [`Decider::check`] uses. The engine runs it under a fresh
    /// per-stage budget; a failed prefetch is non-fatal to the batch, since
    /// the check retries the build under its own budget.
    fn prefetch_stage(
        &self,
        stage: StageKey,
        schema: &Nta,
        stages: &mut Stages<'_>,
    ) -> Result<(), DecisionError> {
        let _ = (schema, stages);
        Err(unknown_stage(self.name(), stage))
    }

    /// Decides the analysis over `L(schema)`, running every stage through
    /// `stages` (which memoizes artifacts, charges the check's budget and
    /// records one span and one [`StageReport`] per stage). Budget
    /// exhaustion, panics inside cached builders, and construction
    /// invariant failures all surface as a [`DecisionError`].
    fn check(&self, schema: &Nta, stages: &mut Stages<'_>) -> Result<Outcome, DecisionError>;

    /// The fallback the engine runs when [`Decider::check`] exhausts its
    /// budget and the check options ask for degradation: an outcome from a
    /// search bounded by `bound`, sound for a violation but incomplete.
    /// `None` (the default) keeps the exhaustion error.
    fn degrade(
        &self,
        schema: &Nta,
        bound: DegradeBound,
        stages: &mut Stages<'_>,
    ) -> Option<Result<Outcome, DecisionError>> {
        let _ = (schema, bound, stages);
        None
    }

    /// Why `outcome` is not a valid answer of this decider over
    /// `L(schema)`, or `None` when it is: a witness must lie in the schema
    /// language and be re-confirmed by the per-tree semantic oracle, and an
    /// outcome of another analysis is never valid. The engine asserts this
    /// after every [`Decider::check`] and [`Decider::degrade`] in debug
    /// builds.
    fn witness_error(&self, schema: &Nta, outcome: &Outcome) -> Option<String>;
}

/// The [`Decider::witness_error`] of an outcome the decider never gives.
pub(crate) fn foreign_outcome(decider: &dyn Decider, outcome: &Outcome) -> Option<String> {
    Some(format!(
        "the {} decider gave an outcome of another analysis: {outcome:?}",
        decider.name()
    ))
}

/// Whether `path` is a text path of `L(schema)` (Lemma 4.8(1)).
pub(crate) fn is_schema_path(schema: &Nta, path: &[PathSym]) -> bool {
    tpx_topdown::path_automaton_nta(schema, &BudgetHandle::unlimited())
        .expect("unlimited budget")
        .accepts(path)
}

/// The error for a prefetch of a stage the decider does not declare.
pub(crate) fn unknown_stage(decider: &str, stage: StageKey) -> DecisionError {
    DecisionError::Internal(format!("decider {decider:?} has no stage {:?}", stage.kind))
}

/// The stage recorder of one check (or one prefetch): the artifact cache,
/// the [`StageCtx`] every stage runs under, and the [`StageReport`]s
/// written so far, in execution order.
pub struct Stages<'a> {
    cache: &'a ArtifactCache,
    ctx: StageCtx<'a>,
    stats: CheckStats,
}

impl<'a> Stages<'a> {
    pub(crate) fn new(
        cache: &'a ArtifactCache,
        budget: &'a BudgetHandle,
        tracer: &'a Tracer,
    ) -> Self {
        Stages {
            cache,
            ctx: StageCtx::new(budget, tracer),
            stats: CheckStats::default(),
        }
    }

    /// The reports of every stage that completed.
    pub(crate) fn into_stats(self) -> CheckStats {
        self.stats
    }

    /// Runs a cached stage: looks `stage` up in the cache (under
    /// [`StageKey::cache_key`], which mixes an owning analysis in) and runs
    /// `build` on a miss. A hit charges no fuel: whoever built the
    /// artifact paid for it. Builder errors are attributed to the stage;
    /// a panicking builder comes back as [`DecisionError::Panicked`].
    pub fn cached<T, E>(
        &mut self,
        stage: StageKey,
        size: impl FnOnce(&T) -> usize,
        build: impl FnOnce(StageCtx<'_>) -> Result<T, E>,
    ) -> Result<Arc<T>, DecisionError>
    where
        T: Send + Sync + 'static,
        E: StageError + Send + 'static,
    {
        let cache = self.cache;
        self.record(stage.kind, |ctx| {
            let (artifact, hit) = cache
                .try_get_or_build(stage.kind, stage.cache_key(), || build(ctx))
                .map_err(|e| match e {
                    CacheError::Build(e) => e.at(stage.kind),
                    CacheError::BuilderPanicked { kind, message } => DecisionError::Panicked {
                        stage: kind,
                        message,
                    },
                    e @ CacheError::TypeMismatch { .. } => DecisionError::Internal(e.to_string()),
                })?;
            let artifact_size = size(&artifact);
            Ok((artifact, Some(artifact_size), Some(hit)))
        })
    }

    /// Runs an uncached stage, attributing its errors to `kind`.
    pub fn uncached<T, E: StageError>(
        &mut self,
        kind: &'static str,
        run: impl FnOnce(StageCtx<'_>) -> Result<T, E>,
    ) -> Result<T, DecisionError> {
        self.record(kind, |ctx| {
            run(ctx).map(|v| (v, None, None)).map_err(|e| e.at(kind))
        })
    }

    /// The one place a stage's span and its [`StageReport`] are written:
    /// both come from one measurement of the fuel charged, the artifact
    /// size and the cache hit. A failing stage closes its span without
    /// fields and writes no report.
    fn record<T>(
        &mut self,
        kind: &'static str,
        run: impl FnOnce(StageCtx<'a>) -> Result<(T, Option<usize>, Option<bool>), DecisionError>,
    ) -> Result<T, DecisionError> {
        let budget = self.ctx.budget;
        let start = Instant::now();
        let fuel_before = budget.fuel_spent();
        let span = self.ctx.tracer.span(kind);
        let (value, artifact_size, cache_hit) = run(self.ctx)?;
        let fuel = budget.fuel_spent() - fuel_before;
        span.exit_with(SpanFields {
            fuel: Some(fuel),
            artifact_size,
            cache_hit,
        });
        self.stats.stages.push(StageReport {
            stage: kind,
            duration: start.elapsed(),
            artifact_size,
            cache_hit,
            fuel: budget.is_limited().then_some(fuel),
        });
        Ok(value)
    }
}

/// The `topdown/schema` stage key: the schema-side artifact shared by the
/// text-preservation and text-retention deciders.
pub(crate) fn topdown_schema_key(schema: &Nta) -> StageKey {
    StageKey::shared("topdown/schema", stable_hash_of(schema))
}

/// The `topdown/schema` stage: `A_N` and the path alphabet (Lemma 4.8(1)).
pub(crate) fn topdown_schema(
    schema: &Nta,
    stages: &mut Stages<'_>,
) -> Result<Arc<SchemaArtifacts>, DecisionError> {
    stages.cached(topdown_schema_key(schema), SchemaArtifacts::size, |ctx| {
        compile_schema_artifacts(schema, ctx)
    })
}

/// The Theorem 4.11 decider for a top-down uniform transducer.
pub struct TopdownDecider<'a> {
    t: &'a Transducer,
    key: u64,
}

impl<'a> TopdownDecider<'a> {
    /// Wraps `t`, content-hashing it once for cache keying.
    pub fn new(t: &'a Transducer) -> Self {
        TopdownDecider {
            t,
            key: stable_hash_of(t),
        }
    }

    /// The transducer's content hash (the `topdown/transducer` cache key).
    pub fn cache_key(&self) -> u64 {
        self.key
    }

    fn transducer_key(&self) -> StageKey {
        StageKey::shared("topdown/transducer", self.key)
    }

    /// The `topdown/transducer` stage: the copy-side automata and the
    /// rearranging NTA (Lemmas 4.8(2), 4.9, 4.10).
    fn transducer_stage(
        &self,
        stages: &mut Stages<'_>,
    ) -> Result<Arc<TransducerArtifacts>, DecisionError> {
        stages.cached(self.transducer_key(), TransducerArtifacts::size, |ctx| {
            compile_transducer_artifacts(self.t, ctx)
        })
    }
}

impl Decider for TopdownDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown"
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
            "topdown/transducer" => self.transducer_stage(stages).map(drop),
            _ => Err(unknown_stage(self.name(), stage)),
        }
    }

    fn check(&self, schema: &Nta, stages: &mut Stages<'_>) -> Result<Outcome, DecisionError> {
        let schema_art = topdown_schema(schema, stages)?;
        let trans_art = self.transducer_stage(stages)?;
        let report = stages.uncached("topdown/decide", |ctx| {
            is_text_preserving_with(&schema_art, &trans_art, schema, ctx)
        })?;
        Ok(report.into())
    }

    /// A copying path must be a schema text path the transducer runs on
    /// (Lemma 4.9); a rearranging tree must be a schema tree on which the
    /// transducer rearranges (Lemma 4.10).
    fn witness_error(&self, schema: &Nta, outcome: &Outcome) -> Option<String> {
        let error = match outcome {
            Outcome::Preserving => None,
            Outcome::Copying { path } => {
                if !is_schema_path(schema, path) {
                    Some("copying witness path is not a schema path")
                } else if !tpx_topdown::path_automaton_transducer(self.t).accepts(path) {
                    Some("transducer has no run on the copying witness path")
                } else {
                    None
                }
            }
            Outcome::Rearranging { witness } => {
                if !schema.accepts(witness) {
                    Some("rearranging witness outside the schema")
                } else if !tpx_topdown::semantic::rearranging_on(self.t, witness) {
                    Some("rearranging witness not semantically rearranging")
                } else {
                    None
                }
            }
            other => return foreign_outcome(self, other),
        };
        error.map(str::to_owned)
    }
}

/// The Theorems 5.12/5.18 decider for a DTL transducer (MSO or XPath
/// patterns).
pub struct DtlDecider<'a, P: MsoDefinable> {
    t: &'a DtlTransducer<P>,
    key: u64,
}

impl<'a, P> DtlDecider<'a, P>
where
    P: MsoDefinable,
    DtlTransducer<P>: std::fmt::Debug,
{
    /// Wraps `t`, hashing its `Debug` rendering once for cache keying
    /// (faithful for any pattern language — `Unary`/`Binary` are `Debug`
    /// by the `PatternLanguage` contract).
    pub fn new(t: &'a DtlTransducer<P>) -> Self {
        DtlDecider {
            t,
            key: stable_hash_debug(t),
        }
    }
}

impl<P: MsoDefinable> DtlDecider<'_, P> {
    /// The `dtl/counterexample` stage key: the counter-example automaton
    /// depends on (transducer, `|Σ|`).
    fn ce_key(&self, n_symbols: usize) -> StageKey {
        let mut h = StableHasher::new();
        h.write_u64(self.key);
        h.write_usize(n_symbols);
        StageKey::shared("dtl/counterexample", h.finish())
    }

    /// The `dtl/counterexample` stage: the MSO→NBTA compilation of the
    /// Section 5.3 counter-example conditions.
    fn counterexample_stage(
        &self,
        n_symbols: usize,
        stages: &mut Stages<'_>,
    ) -> Result<Arc<DtlTransducerArtifacts>, DecisionError> {
        stages.cached(
            self.ce_key(n_symbols),
            DtlTransducerArtifacts::size,
            |ctx| compile_counterexample(self.t, n_symbols, ctx),
        )
    }
}

fn dtl_schema_key(schema: &Nta) -> StageKey {
    StageKey::shared("dtl/schema", stable_hash_of(schema))
}

/// The `dtl/schema` stage: the schema NBTA over the binary encoding.
fn dtl_schema(
    schema: &Nta,
    stages: &mut Stages<'_>,
) -> Result<Arc<DtlSchemaArtifacts>, DecisionError> {
    stages.cached(dtl_schema_key(schema), DtlSchemaArtifacts::size, |ctx| {
        compile_schema_nbta(schema, ctx)
    })
}

impl<P> Decider for DtlDecider<'_, P>
where
    P: MsoDefinable,
    DtlTransducer<P>: Sync,
{
    fn name(&self) -> &'static str {
        "dtl"
    }

    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        vec![dtl_schema_key(schema), self.ce_key(schema.symbol_count())]
    }

    fn prefetch_stage(
        &self,
        stage: StageKey,
        schema: &Nta,
        stages: &mut Stages<'_>,
    ) -> Result<(), DecisionError> {
        match stage.kind {
            "dtl/schema" => dtl_schema(schema, stages).map(drop),
            "dtl/counterexample" => self
                .counterexample_stage(schema.symbol_count(), stages)
                .map(drop),
            _ => Err(unknown_stage(self.name(), stage)),
        }
    }

    fn check(&self, schema: &Nta, stages: &mut Stages<'_>) -> Result<Outcome, DecisionError> {
        let schema_art = dtl_schema(schema, stages)?;
        let ce_art = self.counterexample_stage(schema.symbol_count(), stages)?;
        let report = stages.uncached("dtl/decide", |ctx| {
            dtl_text_preserving_with(&ce_art, &schema_art, ctx)
        })?;
        Ok(match report {
            DtlCheckReport::Preserving => Outcome::Preserving,
            DtlCheckReport::NotPreserving { witness } => Outcome::NotPreserving { witness },
        })
    }

    /// Falls back to the bounded-enumeration oracle: sound but incomplete,
    /// so the engine marks the verdict degraded with the bound that was
    /// actually searched.
    fn degrade(
        &self,
        schema: &Nta,
        bound: DegradeBound,
        stages: &mut Stages<'_>,
    ) -> Option<Result<Outcome, DecisionError>> {
        let witness = stages.uncached("dtl/bounded", |_| {
            tpx_dtl::bounded::bounded_counterexample(self.t, schema, bound.max_nodes, bound.limit)
        });
        Some(witness.map(|witness| match witness {
            None => Outcome::Preserving,
            Some(witness) => Outcome::NotPreserving { witness },
        }))
    }

    /// The witness must be a schema tree on which the Lemma 5.4/5.5
    /// per-tree checks re-confirm copying or rearranging.
    fn witness_error(&self, schema: &Nta, outcome: &Outcome) -> Option<String> {
        let witness = match outcome {
            Outcome::Preserving => return None,
            Outcome::NotPreserving { witness } => witness,
            other => return foreign_outcome(self, other),
        };
        if !schema.accepts(witness) {
            return Some("dtl witness outside the schema".to_owned());
        }
        let copying = tpx_dtl::config::copying_lemma_5_4(self.t, witness);
        let rearranging = tpx_dtl::config::rearranging_lemma_5_5(self.t, witness);
        (!matches!(copying, Ok(true)) && !matches!(rearranging, Ok(true))).then(|| {
            format!(
                "dtl witness not re-confirmed (copying: {copying:?}, rearranging: {rearranging:?})"
            )
        })
    }
}
