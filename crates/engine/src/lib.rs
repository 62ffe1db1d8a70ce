//! # `tpx-engine`: the unified decision engine
//!
//! Both deciders of the paper — the PTIME top-down decider (Theorem 4.11)
//! and the DTL decider (Theorems 5.12/5.18) — behind one [`Decider`] trait
//! producing a structured [`Verdict`]: the decision, the witness, and a
//! per-stage account (timings, artifact sizes, cache attribution).
//!
//! The deciders' staged pipelines (in `tpx-topdown::decide` and
//! `tpx-dtl::decide`) expose their expensive intermediates — the `A_N`/`A_T`
//! path automata, the rearranging NTA, the MSO→NBTA counter-example
//! compilation, the schema NBTA — as named artifacts. The engine memoizes
//! them in a content-hash-keyed [`ArtifactCache`] ([`tpx_trees::StableHash`]
//! keys), so checking many transducers against one schema compiles the
//! schema side once, and checking one transducer against many schemas
//! compiles the transducer side once.
//!
//! Every decider also states, once, what makes its witnesses valid:
//! [`Decider::witness_error`] re-confirms an outcome against the schema and
//! the per-tree semantic oracles. Debug builds assert it on every verdict
//! the engine assembles; `tpx-diffcheck` calls it in release builds.
//!
//! [`Engine::check_many`] turns a batch of `(decider, schema)` tasks into a
//! *stage graph*: the distinct artifacts the batch needs are deduplicated
//! up front and prefetched as their own tasks, with each check scheduled
//! once its artifacts exist. Workers sharing one ready stack drain the
//! graph over the cache; each cache entry still builds exactly once, and a
//! single-worker run is fully deterministic. The cache and `textpres
//! serve`'s parse memo bound their memory with one eviction policy, the
//! two-generation [`TwoGenMap`].
//!
//! ```
//! use tpx_engine::{Engine, TopdownDecider};
//!
//! let (alpha, schema) = tpx_workload::chain_schema(3);
//! let t = tpx_workload::identity_transducer(&alpha);
//! let engine = Engine::new();
//! let verdict = engine.check(&TopdownDecider::new(&t), &schema);
//! assert!(verdict.is_preserving());
//! // A second check against the same schema hits the cache.
//! let verdict = engine.check(&TopdownDecider::new(&t), &schema);
//! assert!(verdict.stats.stage("topdown/schema").unwrap().cache_hit == Some(true));
//! ```

pub mod analysis;
pub mod budget;
pub mod cache;
pub mod conformance;
pub mod decider;
mod engine;
pub mod retention;
mod scheduler;
mod twogen;
pub mod verdict;

pub use analysis::{
    analysis_by_name, Analysis, ANALYSIS_NAMES, OUTPUT_CONFORMANCE, TEXT_PRESERVATION,
    TEXT_RETENTION,
};
pub use budget::{
    Budget, BudgetExceeded, BudgetHandle, CheckOptions, DecisionError, DegradeBound, ExhaustReason,
    StageError,
};
pub use cache::{ArtifactCache, CacheError, CacheStats};
pub use conformance::OutputConformanceDecider;
pub use decider::{Decider, DtlDecider, StageKey, Stages, TopdownDecider};
pub use engine::{BatchStats, Engine, Task};
pub use retention::TextRetentionDecider;
pub use tpx_obs::{Metrics, MetricsSnapshot, Span, SpanFields, TraceEvent, Tracer};
pub use tpx_topdown::StageCtx;
pub use twogen::TwoGenMap;
pub use verdict::{CheckStats, Outcome, StageReport, Verdict};
