//! The [`Engine`]: a shared artifact cache plus single and batch check
//! entry points, governed and ungoverned, with opt-in tracing and metrics.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::budget::{CheckOptions, DecisionError};
use crate::cache::{panic_message, ArtifactCache, CacheStats};
use crate::decider::{Decider, StageKey, Stages};
use crate::scheduler::{execute, StageGraph};
use crate::verdict::{StageReport, Verdict};
use tpx_obs::{Metrics, Tracer};
use tpx_treeauto::Nta;

/// One unit of batch work: a decider checked against a schema.
pub type Task<'a> = (&'a dyn Decider, &'a Nta);

/// Cumulative scheduler-level counters across every batch an [`Engine`]
/// has run (see [`Engine::batch_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches executed.
    pub batches: u64,
    /// Distinct artifact-stage tasks scheduled ahead of checks
    /// (after batch-wide deduplication).
    pub stage_tasks: u64,
    /// Check (finalize) tasks executed.
    pub checks: u64,
    /// Always 0: workers share one ready stack and never steal. Kept so
    /// readers of the field still compile.
    pub steals: u64,
}

/// The decision engine: owns the [`ArtifactCache`] shared by every check it
/// runs, a worker count for [`Engine::check_many`], and the (disabled by
/// default) [`Tracer`] and [`Metrics`] every check reports to.
pub struct Engine {
    cache: ArtifactCache,
    jobs: usize,
    tracer: Arc<Tracer>,
    metrics: Arc<Metrics>,
    batch: Mutex<BatchStats>,
}

impl Default for Engine {
    /// Same as [`Engine::new`]. (A derived `Default` would store
    /// `jobs: 0` where `new()` stores 1; the public [`Engine::jobs`]
    /// accessor clamped that, but the two constructors must agree.)
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A sequential engine (`jobs = 1`) with an empty cache, tracing and
    /// metrics disabled.
    pub fn new() -> Self {
        Engine {
            cache: ArtifactCache::new(),
            jobs: 1,
            tracer: Arc::new(Tracer::disabled()),
            metrics: Arc::new(Metrics::disabled()),
            batch: Mutex::new(BatchStats::default()),
        }
    }

    /// An engine running batches on up to `jobs` worker threads (0 is
    /// clamped to 1; batches additionally clamp to the task count and the
    /// host parallelism, since oversubscribing a saturated machine only
    /// adds scheduling overhead).
    pub fn with_jobs(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            ..Engine::new()
        }
    }

    /// Replaces the engine's tracer. Pass `Arc::new(Tracer::enabled())` to
    /// record one span per pipeline stage of every check this engine runs;
    /// keep a clone of the `Arc` (or use [`Engine::tracer`]) to read the
    /// events back.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Replaces the engine's metrics registry. Pass
    /// `Arc::new(Metrics::enabled())` to aggregate counters and histograms
    /// across every check this engine runs (batch workers record locally
    /// and merge on completion).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The engine's tracer (disabled unless set via [`Engine::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The engine's metrics registry (disabled unless set via
    /// [`Engine::with_metrics`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs.max(1)
    }

    /// The shared artifact cache (e.g. for [`ArtifactCache::stats`]).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// A snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative scheduler counters over every batch this engine has run:
    /// how many batches, how many deduplicated artifact-stage tasks were
    /// scheduled, and how many checks.
    pub fn batch_stats(&self) -> BatchStats {
        *self.batch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one check through the shared cache.
    ///
    /// # Panics
    ///
    /// On any [`DecisionError`] — which the unlimited budget used here
    /// reduces to the internal-invariant and panic cases.
    pub fn check(&self, decider: &dyn Decider, schema: &Nta) -> Verdict {
        self.check_governed(decider, schema, &CheckOptions::unlimited())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one governed check through the shared cache: the task runs
    /// under the fuel/deadline budget of `options` and inside
    /// `catch_unwind`, so budget exhaustion *and* panics come back as a
    /// structured [`DecisionError`] instead of unwinding. Spans land on
    /// the engine's tracer, observations on its metrics registry.
    ///
    /// Unwind safety at the cache boundary: the cache mutates state only
    /// through atomics, poison-recovering locks whose critical sections
    /// contain no user code, and slots whose builders run inside their own
    /// `catch_unwind` and stay empty when a builder unwinds — so the shared
    /// cache is observably consistent (and fully serviceable) after a
    /// caught panic.
    pub fn check_governed(
        &self,
        decider: &dyn Decider,
        schema: &Nta,
        options: &CheckOptions,
    ) -> Result<Verdict, DecisionError> {
        self.check_observed(decider, schema, options, &self.metrics)
    }

    /// [`Engine::check_governed`] recording onto an explicit metrics
    /// registry (batch workers pass a thread-local one).
    fn check_observed(
        &self,
        decider: &dyn Decider,
        schema: &Nta,
        options: &CheckOptions,
        metrics: &Metrics,
    ) -> Result<Verdict, DecisionError> {
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.run_check(decider, schema, options)
        }))
        .unwrap_or_else(|payload| {
            Err(DecisionError::Panicked {
                stage: "engine/task",
                message: panic_message(payload.as_ref()),
            })
        });
        record_check_metrics(metrics, &result, started.elapsed());
        result
    }

    /// One check: starts the budget, runs the decider's stages, falls back
    /// to the decider's bounded search when the budget ran out and
    /// `options` ask for degradation, and assembles the [`Verdict`].
    fn run_check(
        &self,
        decider: &dyn Decider,
        schema: &Nta,
        options: &CheckOptions,
    ) -> Result<Verdict, DecisionError> {
        let budget = options.budget.start();
        let mut stages = Stages::new(&self.cache, &budget, &self.tracer);
        let (outcome, degraded) = match decider.check(schema, &mut stages) {
            Ok(outcome) => (outcome, None),
            Err(e) => match options.degrade {
                Some(bound) if e.is_resource_exhausted() => {
                    match decider.degrade(schema, bound, &mut stages) {
                        Some(outcome) => (outcome?, Some(bound)),
                        None => return Err(e),
                    }
                }
                _ => return Err(e),
            },
        };
        Ok(Verdict {
            decider: decider.name(),
            analysis: decider.analysis(),
            outcome,
            stats: stages.into_stats(),
            degraded,
        })
    }

    /// Builds one declared artifact stage under a fresh budget from
    /// `options`, returning the stage's report.
    fn prefetch(
        &self,
        decider: &dyn Decider,
        stage: StageKey,
        schema: &Nta,
        options: &CheckOptions,
    ) -> Result<StageReport, DecisionError> {
        let budget = options.budget.start();
        let mut stages = Stages::new(&self.cache, &budget, &self.tracer);
        decider.prefetch_stage(stage, schema, &mut stages)?;
        stages
            .into_stats()
            .stages
            .pop()
            .ok_or_else(|| DecisionError::Internal("prefetched stage left no report".into()))
    }

    /// Runs every task, returning verdicts in task order.
    ///
    /// Batches run as a *stage graph*: the distinct artifact stages the
    /// tasks declare (via [`Decider::artifact_stages`]) are deduplicated
    /// batch-wide and scheduled as their own prefetch tasks, and each
    /// check becomes a finalize task that starts once its stages are
    /// built. Two checks sharing a schema therefore contend on exactly
    /// one compilation — which runs once, as one task — instead of racing
    /// whole pipelines. The graph is drained by the shared-stack executor
    /// in `scheduler.rs`; with `jobs = 1` it runs on the calling thread in
    /// a deterministic order, and verdicts *and* aggregated metrics are
    /// identical whatever the worker count.
    ///
    /// # Panics
    ///
    /// If any task fails (which under the unlimited budget means a panic
    /// inside its decider, isolated per task). Every *other* task still
    /// runs to completion first; use [`Engine::check_many_governed`] to
    /// receive per-task results instead.
    pub fn check_many(&self, tasks: &[Task<'_>]) -> Vec<Verdict> {
        self.check_many_governed(tasks, &CheckOptions::unlimited())
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Governed [`Engine::check_many`]: each task gets a fresh budget from
    /// `options` and runs inside `catch_unwind`, so one exhausted or
    /// panicking task cannot take down the batch — the remaining tasks
    /// still produce verdicts, in input order, and the shared cache stays
    /// serviceable (see [`Engine::check_governed`] for the unwind-safety
    /// argument). Stage prefetches are budgeted and isolated the same
    /// way, and their failures are non-fatal: the owning check retries
    /// the build under its own budget.
    ///
    /// Observability: spans from all workers land on the engine's shared
    /// tracer (interleaved across tasks, but every span still closes); each
    /// worker records metrics into a private registry that is merged into
    /// the engine's after the batch, so batch counters never contend on
    /// one lock mid-run. Scheduler-level counts land in
    /// [`Engine::batch_stats`] and, when metrics are enabled, as
    /// `engine/batch/*` counters.
    pub fn check_many_governed(
        &self,
        tasks: &[Task<'_>],
        options: &CheckOptions,
    ) -> Vec<Result<Verdict, DecisionError>> {
        // Clamp to the host parallelism: extra workers on a saturated
        // machine cannot overlap anything, they only add context-switch
        // cost per node (measured ~2x wall time for an 8-worker batch on a
        // 1-CPU container). The requested `jobs` is still an upper bound —
        // a 1-task batch runs on the caller, etc.
        let host = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        let jobs = self.jobs().min(tasks.len().max(1)).min(host);

        // Deduplicate the declared artifact stages batch-wide. Stage node
        // `i` prefetches `stage_nodes[i].0` on behalf of the first task
        // that declared it; every declaring task's finalize node depends
        // on it.
        let mut stage_index: HashMap<StageKey, usize> = HashMap::new();
        let mut stage_nodes: Vec<(StageKey, usize)> = Vec::new();
        let mut task_deps: Vec<Vec<usize>> = Vec::with_capacity(tasks.len());
        for (t, (decider, schema)) in tasks.iter().enumerate() {
            let mut deps = Vec::new();
            for stage in decider.artifact_stages(schema) {
                let node = *stage_index.entry(stage).or_insert_with(|| {
                    stage_nodes.push((stage, t));
                    stage_nodes.len() - 1
                });
                if !deps.contains(&node) {
                    deps.push(node);
                }
            }
            task_deps.push(deps);
        }
        let n_stages = stage_nodes.len();

        // Bipartite graph: nodes [0, n_stages) prefetch artifacts, nodes
        // [n_stages, n_stages + tasks) finalize checks.
        let mut graph = StageGraph::new(n_stages + tasks.len());
        for (t, deps) in task_deps.iter().enumerate() {
            for &s in deps {
                graph.add_edge(s, n_stages + t);
            }
        }

        let slots: Vec<Mutex<Option<Result<Verdict, DecisionError>>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        let worker_metrics: Vec<Metrics> = (0..jobs)
            .map(|_| {
                if self.metrics.is_enabled() {
                    Metrics::enabled()
                } else {
                    Metrics::disabled()
                }
            })
            .collect();

        execute(&graph, jobs, |node, worker| {
            let metrics = &worker_metrics[worker];
            if node < n_stages {
                let (stage, owner) = stage_nodes[node];
                let (decider, schema) = tasks[owner];
                // Panic-isolated like checks; a lost prefetch only costs
                // the overlap (the finalize rebuilds under its budget).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.prefetch(decider, stage, schema, options)
                }));
                match outcome {
                    Ok(Ok(report)) => record_stage_metrics(metrics, &report),
                    Ok(Err(_)) | Err(_) => metrics.incr("engine/prefetch/failed"),
                }
            } else {
                let t = node - n_stages;
                let (decider, schema) = tasks[t];
                let result = self.check_observed(decider, schema, options, metrics);
                *slots[t].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            }
        });

        for m in &worker_metrics {
            self.metrics.merge_from(m);
        }
        // Batch-level counters are scheduling-independent (deterministic
        // across worker counts).
        self.metrics.incr("engine/batches");
        self.metrics
            .add("engine/batch/stage_tasks", n_stages as u64);
        self.metrics.add("engine/batch/checks", tasks.len() as u64);
        {
            let mut b = self.batch.lock().unwrap_or_else(PoisonError::into_inner);
            b.batches += 1;
            b.stage_tasks += n_stages as u64;
            b.checks += tasks.len() as u64;
        }

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        Err(DecisionError::Internal(
                            "task was never completed by a worker".into(),
                        ))
                    })
            })
            .collect()
    }
}

/// Folds one check result into a metrics registry: verdict/error counters,
/// check duration, and per-stage hit/miss counters plus duration, fuel and
/// artifact-size histograms. Free when the registry is disabled.
fn record_check_metrics(
    metrics: &Metrics,
    result: &Result<Verdict, DecisionError>,
    elapsed: Duration,
) {
    if !metrics.is_enabled() {
        return;
    }
    metrics.incr("engine/checks");
    metrics.observe("engine/check_us", elapsed.as_micros() as u64);
    match result {
        Ok(v) => {
            metrics.incr(&format!("engine/analysis/{}", v.analysis.name));
            if v.is_preserving() {
                metrics.incr("engine/verdicts/preserving");
            } else {
                metrics.incr("engine/verdicts/violating");
            }
            if v.is_degraded() {
                metrics.incr("engine/verdicts/degraded");
            }
            for s in &v.stats.stages {
                record_stage_metrics(metrics, s);
            }
        }
        Err(DecisionError::ResourceExhausted { .. }) => metrics.incr("engine/errors/exhausted"),
        Err(DecisionError::Panicked { .. }) => metrics.incr("engine/errors/panicked"),
        Err(DecisionError::Internal(_)) => metrics.incr("engine/errors/internal"),
    }
}

/// Folds one [`StageReport`] into a metrics registry: hit/miss counter
/// plus duration, fuel and artifact-size histograms. Used both for the
/// stages inside a verdict and for batch stage prefetches.
fn record_stage_metrics(metrics: &Metrics, s: &StageReport) {
    if !metrics.is_enabled() {
        return;
    }
    let base = format!("stage/{}", s.stage);
    metrics.observe(&format!("{base}/us"), s.duration.as_micros() as u64);
    match s.cache_hit {
        Some(true) => metrics.incr(&format!("{base}/hits")),
        Some(false) => metrics.incr(&format!("{base}/misses")),
        None => {}
    }
    if let Some(fuel) = s.fuel {
        metrics.observe(&format!("{base}/fuel"), fuel);
    }
    if let Some(size) = s.artifact_size {
        metrics.observe(&format!("{base}/size"), size as u64);
    }
}
