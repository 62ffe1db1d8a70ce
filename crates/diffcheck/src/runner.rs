//! The differential fuzz loop and the single-case replayer.
//!
//! Per seed, [`run_fuzz`] generates a random `(schema, transducer)` pair
//! through `tpx-workload`, samples trees from the schema language, and
//! cross-checks every independent computation of the text-preservation
//! facts against every other (see [`DivergenceKind`] for the pairs).
//!
//! Each divergence kind is decided by one comparison function. It reads a
//! case's subject (regenerated into the transducers it runs), its tree,
//! its schema NTA and the subject's symbolic results as arguments. The
//! fuzzer runs each symbolic check once per seed through the engine and
//! hands the results to every comparison of the seed; [`recheck`]
//! computes them afresh and calls the same comparison. A witness is
//! judged by its decider's own [`Decider::witness_error`], the check the
//! engine asserts in debug builds.
//!
//! Whenever a comparison fires, the failing inputs are packaged as a
//! [`Case`], re-confirmed through [`recheck`] (so every recorded divergence
//! is replayable by construction), shrunk to a 1-minimal reproducer, and
//! returned in the [`FuzzReport`]. [`recheck`] is the single source of
//! truth for "does this case still diverge?": the fuzzer, the shrinker,
//! and the `tests/regressions` replay suite all go through it.

use tpx_dtl::{DtlTransducer, XPathPatterns};
use tpx_engine::{
    CheckOptions, Decider, DecisionError, DtlDecider, Engine, Outcome, TextRetentionDecider,
    TopdownDecider,
};
use tpx_topdown::Transducer;
use tpx_treeauto::Nta;
use tpx_trees::{make_value_unique, Alphabet, NodeLabel, Symbol, Tree};
use tpx_workload::{random_dtd, random_schema_tree, random_transducer, RandomSchema};

use crate::case::{Case, DivergenceKind, DtlSpec, Subject, XsltSpec};
use crate::shrink::shrink_case;

/// Knobs of one fuzz run. The bounded-enumeration bounds are part of the
/// configuration (not just tuning) because [`recheck`] must reproduce the
/// exact bounded check that flagged a divergence.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of seeds to run.
    pub seeds: u64,
    /// First seed (seed `i` of the run is `base_seed + i`).
    pub base_seed: u64,
    /// Node budget for sampled schema trees.
    pub budget: usize,
    /// Trees sampled from the schema language per seed.
    pub trees_per_seed: u64,
    /// Labels in the random schemas.
    pub n_labels: usize,
    /// States in the random transducers / DTL programs.
    pub n_states: usize,
    /// Whether to run the symbolic DTL decider on generated DTL programs.
    /// On by default since the lazy antichain layer landed: negation
    /// pushing plus the early-exit product keep typical programs cheap,
    /// and the default [`FuzzConfig::fuel`] budget degrades the
    /// heavy-tailed stragglers instead of stalling the run. Opt out with
    /// `--no-dtl-symbolic`.
    pub dtl_symbolic: bool,
    /// Size cap above which the symbolic DTL decider is skipped even when
    /// [`FuzzConfig::dtl_symbolic`] is set.
    pub max_dtl_size: usize,
    /// Max nodes for the bounded-enumeration baseline.
    pub bounded_max_nodes: usize,
    /// Tree-count cap for the bounded-enumeration baseline: it searches at
    /// most this many schema trees for a counterexample to a symbolic
    /// "preserving".
    pub bounded_limit: usize,
    /// Whether to shrink divergences before reporting them.
    pub shrink: bool,
    /// Fuel budget for each symbolic engine check (`None` = unlimited).
    /// Distinct from [`FuzzConfig::budget`], which caps sampled tree sizes.
    pub fuel: Option<u64>,
    /// Wall-clock budget per symbolic engine check, in milliseconds
    /// (`None` = unlimited). Unlike `fuel`, a deadline makes exhaustion
    /// machine-dependent, so it is off by default.
    pub timeout_ms: Option<u64>,
    /// Whether the top-down seeds additionally sweep the text-retention
    /// analysis (one symbolic [`TextRetentionDecider`] run per schema
    /// label, cross-checked against the per-tree deleted-text oracle and
    /// the bounded enumeration). Off by default; `textpres fuzz
    /// --analysis text-retention` turns it on.
    pub retention: bool,
    /// Whether each seed additionally sweeps the XSLT frontend: a seeded
    /// fragment stylesheet over the seed's schema alphabet is compiled
    /// through `tpx-xslt` and cross-checked — transform-for-transform on
    /// the sampled trees and verdict-for-verdict through the engine —
    /// against its ground-truth direct translation from
    /// [`tpx_workload::fragment_stylesheet`]. Off by default; `textpres
    /// fuzz --xslt` turns it on.
    pub xslt: bool,
}

impl FuzzConfig {
    /// The per-check governance derived from `fuel` / `timeout_ms`.
    pub fn check_options(&self) -> CheckOptions {
        CheckOptions::limits(self.fuel, self.timeout_ms, false)
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 64,
            base_seed: 0,
            budget: 12,
            trees_per_seed: 5,
            n_labels: 3,
            n_states: 2,
            dtl_symbolic: true,
            max_dtl_size: 60,
            bounded_max_nodes: 5,
            bounded_limit: 150,
            shrink: true,
            // Every instance runs under a default fuel budget so one
            // heavy-tailed compilation cannot stall a whole fuzz run; fuel
            // (unlike a deadline) keeps runs deterministic. Sized for the
            // default-on symbolic DTL route: every symbolic check that
            // finishes at all on the default workload does so well under
            // 250k fuel, while the stragglers sit orders of magnitude
            // higher (2M fuel buys zero extra cross-checks but ~10x the
            // wall time at ~0.4µs/unit) — so a straggler costs ~0.2s
            // before it is counted as exhausted and skipped.
            fuel: Some(500_000),
            timeout_ms: None,
            retention: false,
            xslt: false,
        }
    }
}

/// One replayable disagreement found by a fuzz run.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The seed it was found under.
    pub seed: u64,
    /// Which pair of computations disagreed.
    pub kind: DivergenceKind,
    /// Human-readable account of the disagreement.
    pub detail: String,
    /// The (shrunk) reproducer.
    pub case: Case,
    /// JSONL span trace of replaying the shrunk reproducer through a fresh
    /// engine — which pipeline stages the diverging instance exercised,
    /// with fuel and artifact sizes. `None` when the replay ran no engine
    /// check (purely per-tree oracle kinds).
    pub trace_jsonl: Option<String>,
}

/// The outcome of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Individual cross-checks performed.
    pub checks: u64,
    /// Symbolic checks skipped because they exhausted the per-check
    /// fuel/deadline budget (not divergences: the instance was simply too
    /// expensive under [`FuzzConfig::fuel`] / [`FuzzConfig::timeout_ms`]).
    pub exhausted: u64,
    /// Symbolic DTL checks skipped because the generated program exceeded
    /// [`FuzzConfig::max_dtl_size`] — a coverage gap, not a verdict. Each
    /// skip also emits a `diffcheck/dtl-skip` span (carrying the program
    /// size) on the engine's tracer so traced runs make the gap visible.
    pub dtl_skipped: u64,
    /// Divergences found (after confirmation and shrinking).
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Whether every cross-check agreed.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs the differential fuzz loop: two thirds of the seeds exercise the
/// top-down pipeline, one third the DTL pipeline. All symbolic checks go
/// through `engine`, sharing its artifact cache across seeds.
pub fn run_fuzz(engine: &Engine, cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cfg.seeds {
        let seed = cfg.base_seed.wrapping_add(i);
        if i % 3 < 2 {
            fuzz_topdown_seed(engine, cfg, seed, &mut report);
        } else {
            fuzz_dtl_seed(engine, cfg, seed, &mut report);
        }
        if cfg.xslt {
            fuzz_xslt_seed(engine, cfg, seed, &mut report);
        }
        report.seeds_run += 1;
    }
    report
}

/// Derives the transducer seed from the schema seed (distinct streams).
fn transducer_seed(seed: u64) -> u64 {
    seed ^ 0xA5A5_5A5A_0F0F_F0F0
}

/// Samples up to `trees_per_seed` schema trees under derived seeds.
fn sample_trees(nta: &Nta, cfg: &FuzzConfig, seed: u64) -> Vec<Tree> {
    (0..cfg.trees_per_seed)
        .filter_map(|j| {
            random_schema_tree(
                nta,
                cfg.budget,
                seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        })
        .collect()
}

/// Records `case` under `kind` if [`recheck`] confirms it, shrinking first
/// when configured. An unconfirmed divergence is a bug in the runner itself
/// (the observation and the replay disagree), reported as such.
fn record(
    engine: &Engine,
    cfg: &FuzzConfig,
    seed: u64,
    kind: DivergenceKind,
    detail: String,
    case: Case,
    report: &mut FuzzReport,
) {
    let mut case = case;
    let mut detail = detail;
    if !recheck(engine, &case, kind, cfg) {
        detail = format!("UNREPLAYABLE (runner bug): {detail}");
    } else if cfg.shrink {
        case = shrink_case(&case, |c| recheck(engine, c, kind, cfg));
    }
    // Replay the final reproducer once more through a fresh traced engine:
    // the span trace of the diverging instance rides along with the case.
    let trace_jsonl = {
        let tracer = std::sync::Arc::new(tpx_engine::Tracer::enabled());
        let replay = Engine::new().with_tracer(tracer.clone());
        let _ = recheck(&replay, &case, kind, cfg);
        let jsonl = tracer.to_jsonl();
        (!jsonl.is_empty()).then_some(jsonl)
    };
    report.divergences.push(Divergence {
        seed,
        kind,
        detail,
        case,
        trace_jsonl,
    });
}

/// A route's symbolic answer: the outcome of one check, or why it has none.
type Symbolic = Result<Outcome, DecisionError>;

/// A case's subject, regenerated into what its comparisons run.
enum Route<'a> {
    /// A top-down transducer and its Section 5.1 DTL translation.
    Topdown {
        t: &'a Transducer,
        translation: DtlTransducer<XPathPatterns>,
    },
    /// A top-down transducer under the text-retention analysis.
    Retention {
        t: &'a Transducer,
        labels: Vec<Symbol>,
    },
    /// A random DTL program.
    Dtl(DtlTransducer<XPathPatterns>),
    /// The compiled fragment stylesheet and its expected direct
    /// translation, or the account of why the compile is not clean.
    Xslt(Result<(Transducer, Transducer), String>),
}

impl<'a> Route<'a> {
    fn of(alpha: &Alphabet, subject: &'a Subject) -> Self {
        match subject {
            Subject::Topdown { transducer, labels } if labels.is_empty() => Route::Topdown {
                t: transducer,
                translation: tpx_dtl::from_topdown(transducer),
            },
            Subject::Topdown { transducer, labels } => Route::Retention {
                t: transducer,
                labels: labels.iter().filter_map(|l| alpha.get(l)).collect(),
            },
            Subject::Dtl(spec) => Route::Dtl(spec.program(alpha)),
            Subject::Xslt(spec) => Route::Xslt(compile_against_expected(alpha, spec)),
        }
    }

    /// The deciders of the route's symbolic checks, in order.
    fn deciders(&self) -> Vec<Box<dyn Decider + '_>> {
        match self {
            Route::Topdown { t, .. } => vec![Box::new(TopdownDecider::new(t))],
            Route::Retention { t, labels } => {
                vec![Box::new(TextRetentionDecider::new(t, labels.clone()))]
            }
            Route::Dtl(prog) => vec![Box::new(DtlDecider::new(prog))],
            Route::Xslt(Ok((compiled, expected))) => vec![
                Box::new(TopdownDecider::new(compiled)),
                Box::new(TopdownDecider::new(expected)),
            ],
            Route::Xslt(Err(_)) => Vec::new(),
        }
    }

    /// The route's symbolic results: one governed engine check per decider.
    fn governed(&self, engine: &Engine, nta: &Nta, cfg: &FuzzConfig) -> Vec<Symbolic> {
        self.deciders()
            .iter()
            .map(|d| {
                engine
                    .check_governed(d.as_ref(), nta, &cfg.check_options())
                    .map(|v| v.outcome)
            })
            .collect()
    }

    /// The route's symbolic results through the raw one-shot pipelines,
    /// which do not assert witness validity the way the engine does in
    /// debug builds.
    fn one_shot(&self, nta: &Nta) -> Vec<Symbolic> {
        match self {
            Route::Topdown { t, .. } => vec![Ok(tpx_topdown::is_text_preserving(t, nta).into())],
            Route::Dtl(prog) => vec![Ok(match tpx_dtl::dtl_text_preserving(prog, nta) {
                tpx_dtl::DtlCheckReport::Preserving => Outcome::Preserving,
                tpx_dtl::DtlCheckReport::NotPreserving { witness } => {
                    Outcome::NotPreserving { witness }
                }
            })],
            Route::Retention { .. } | Route::Xslt(_) => Vec::new(),
        }
    }
}

/// What one comparison reads: a case's route and tree, its schema NTA, and
/// the route's symbolic results (empty where the comparison reads none).
struct Instance<'a> {
    route: &'a Route<'a>,
    nta: &'a Nta,
    /// A tree of the schema language: the fuzzer samples or enumerates it
    /// from the schema, and [`recheck`] refuses a case whose tree is not.
    tree: Option<&'a Tree>,
    symbolic: &'a [Symbolic],
    cfg: &'a FuzzConfig,
}

impl Instance<'_> {
    /// The route's one symbolic outcome, if its check answered.
    fn outcome(&self) -> Option<&Outcome> {
        match self.symbolic {
            [Ok(outcome)] => Some(outcome),
            _ => None,
        }
    }
}

/// The one comparison behind `kind`: the account of the divergence when
/// the instance shows it, `None` when it does not.
fn divergence(kind: DivergenceKind, i: &Instance<'_>) -> Option<String> {
    match kind {
        DivergenceKind::PreservingButViolates => preserving_but_violates(i),
        DivergenceKind::WitnessInvalid => witness_invalid(i),
        DivergenceKind::BoundedContradictsSymbolic => bounded_contradicts_symbolic(i),
        DivergenceKind::TranslationDisagrees => translation_disagrees(i),
        DivergenceKind::DtlLemmaVsOperational => dtl_lemma_vs_operational(i),
        DivergenceKind::DtlTransformError => dtl_transform_error(i),
        DivergenceKind::DeciderError => decider_error(i),
        DivergenceKind::RetentionDisagrees => retention_disagrees(i),
        DivergenceKind::XsltCompileDisagrees => xslt_compile_disagrees(i),
    }
}

/// `preserving-but-violates`: the decider says preserving, yet the
/// per-tree oracle convicts the case's schema tree (the semantic
/// definitions on its value-unique version for a top-down transducer, the
/// operational copying and rearranging checks for a DTL program).
fn preserving_but_violates(i: &Instance<'_>) -> Option<String> {
    if !i.outcome()?.is_preserving() {
        return None;
    }
    let tree = i.tree?;
    let (decider, violates) = match i.route {
        Route::Topdown { t, .. } => (
            "topdown",
            !tpx_topdown::semantic::text_preserving_on(t, &unique_tree(tree)),
        ),
        Route::Dtl(prog) => (
            "dtl",
            matches!(tpx_dtl::config::copying_on(prog, tree), Ok(true))
                || matches!(tpx_dtl::config::rearranging_on(prog, tree), Ok(true)),
        ),
        Route::Retention { .. } | Route::Xslt(_) => return None,
    };
    violates.then(|| format!("{decider} decider says preserving; sampled tree violates"))
}

/// `witness-invalid`: a witness fails its decider's
/// [`Decider::witness_error`].
fn witness_invalid(i: &Instance<'_>) -> Option<String> {
    i.route
        .deciders()
        .iter()
        .zip(i.symbolic)
        .find_map(|(decider, symbolic)| decider.witness_error(i.nta, symbolic.as_ref().ok()?))
}

/// `bounded-contradicts-symbolic`: the bounded baseline finds a
/// counterexample where the decider says preserving, or the baseline
/// itself fails. A top-down transducer is searched through its DTL
/// translation, whose per-tree lemmas drive the baseline.
fn bounded_contradicts_symbolic(i: &Instance<'_>) -> Option<String> {
    let outcome = i.outcome()?;
    let prog = match i.route {
        Route::Topdown { translation, .. } => translation,
        Route::Dtl(prog) => prog,
        Route::Retention { .. } | Route::Xslt(_) => return None,
    };
    let (max_nodes, limit) = (i.cfg.bounded_max_nodes, i.cfg.bounded_limit);
    match tpx_dtl::bounded::bounded_counterexample(prog, i.nta, max_nodes, limit) {
        Err(e) => Some(format!("bounded baseline raised {e:?}")),
        Ok(Some(ce)) if outcome.is_preserving() => Some(format!(
            "bounded baseline found a counterexample of {} nodes; symbolic says preserving",
            ce.node_count()
        )),
        Ok(_) => None,
    }
}

/// `translation-disagrees`: the Section 5.1 translation transforms the
/// case's schema tree differently than the top-down transducer.
fn translation_disagrees(i: &Instance<'_>) -> Option<String> {
    let (Route::Topdown { t, translation }, Some(tree)) = (i.route, i.tree) else {
        return None;
    };
    matches!(translation.transform(tree), Ok(out) if out != t.transform(tree))
        .then(|| "from_topdown(T) and T transform a tree differently".to_owned())
}

/// `dtl-lemma-vs-operational`: the Lemma 5.4/5.5 configuration-graph
/// checks disagree with the operational oracles on the case's schema tree.
fn dtl_lemma_vs_operational(i: &Instance<'_>) -> Option<String> {
    let (Route::Dtl(prog), Some(tree)) = (i.route, i.tree) else {
        return None;
    };
    let lemma_copy = tpx_dtl::config::copying_lemma_5_4(prog, tree);
    let oper_copy = tpx_dtl::config::copying_on(prog, tree);
    match (&lemma_copy, &oper_copy) {
        (Ok(a), Ok(b)) if a == b => {}
        _ => {
            return Some(format!(
                "copying: lemma 5.4 = {lemma_copy:?}, operational = {oper_copy:?}"
            ))
        }
    }
    let lemma_re = tpx_dtl::config::rearranging_lemma_5_5(prog, tree);
    let oper_re = tpx_dtl::config::rearranging_on(prog, tree);
    match (&lemma_re, &oper_re) {
        (Ok(a), Ok(b)) if a == b => None,
        _ => Some(format!(
            "rearranging: lemma 5.5 = {lemma_re:?}, operational = {oper_re:?}"
        )),
    }
}

/// `dtl-transform-error`: a DTL program (generated, or translated from a
/// top-down transducer; deterministic and terminating either way) raises
/// an error on the case's schema tree.
fn dtl_transform_error(i: &Instance<'_>) -> Option<String> {
    let (prog, name) = match i.route {
        Route::Topdown { translation, .. } => (translation, "from_topdown(T)"),
        Route::Dtl(prog) => (prog, "generated DTL program"),
        Route::Retention { .. } | Route::Xslt(_) => return None,
    };
    let error = prog.transform(i.tree?).err()?;
    Some(format!("{name} raised {error:?}"))
}

/// `decider-error`: a symbolic check failed for a reason other than its
/// budget.
fn decider_error(i: &Instance<'_>) -> Option<String> {
    i.symbolic.iter().find_map(|symbolic| match symbolic {
        Err(e) if !e.is_resource_exhausted() => Some(e.to_string()),
        _ => None,
    })
}

/// `retention-disagrees`: the retention decider says the selected labels
/// keep their text, yet the case's schema tree loses a value below one of
/// them; or its answer fails [`Decider::witness_error`].
fn retention_disagrees(i: &Instance<'_>) -> Option<String> {
    let Route::Retention { t, labels } = i.route else {
        return None;
    };
    match i.outcome()? {
        Outcome::Preserving => semantically_deleted_under(t, i.tree?, labels).then(|| {
            "retention decider says retains; a schema tree loses a text value below a \
             selected label"
                .to_owned()
        }),
        outcome => TextRetentionDecider::new(t, labels.clone()).witness_error(i.nta, outcome),
    }
}

/// `xslt-compile-disagrees`: the generated fragment stylesheet does not
/// compile cleanly; or the compiled and expected transducers transform the
/// case's schema tree differently; or, for a case without a tree, their
/// text-preservation verdicts differ.
fn xslt_compile_disagrees(i: &Instance<'_>) -> Option<String> {
    let Route::Xslt(compile) = i.route else {
        return None;
    };
    let (compiled, expected) = match compile {
        Ok(pair) => pair,
        Err(detail) => return Some(detail.clone()),
    };
    if let Some(tree) = i.tree {
        return (compiled.transform(tree) != expected.transform(tree)).then(|| {
            "compiled stylesheet and expected transducer transform a tree differently".to_owned()
        });
    }
    let [Ok(got), Ok(want)] = i.symbolic else {
        return None;
    };
    (got.is_preserving() != want.is_preserving()).then(|| {
        format!(
            "verdicts disagree: compiled stylesheet preserving = {}, \
             expected transducer preserving = {}",
            got.is_preserving(),
            want.is_preserving()
        )
    })
}

/// One subject of a fuzz seed: its route, regenerated once, and the
/// route's symbolic results, computed once through the engine and handed
/// to every comparison of the seed.
struct Trial<'a> {
    engine: &'a Engine,
    cfg: &'a FuzzConfig,
    seed: u64,
    schema: &'a RandomSchema,
    nta: &'a Nta,
    subject: &'a Subject,
    route: Route<'a>,
    symbolic: Vec<Symbolic>,
}

impl<'a> Trial<'a> {
    fn new(
        engine: &'a Engine,
        cfg: &'a FuzzConfig,
        seed: u64,
        schema: &'a RandomSchema,
        nta: &'a Nta,
        subject: &'a Subject,
    ) -> Self {
        Trial {
            engine,
            cfg,
            seed,
            schema,
            nta,
            subject,
            route: Route::of(&schema.alpha, subject),
            symbolic: Vec::new(),
        }
    }

    /// Runs the route's symbolic checks, each one cross-check. A check that
    /// exhausts its budget is counted and skipped; any other failure is a
    /// `decider-error`. Returns whether every check answered.
    fn decide(&mut self, report: &mut FuzzReport) -> bool {
        self.symbolic = self.route.governed(self.engine, self.nta, self.cfg);
        report.checks += self.symbolic.len() as u64;
        report.exhausted += self
            .symbolic
            .iter()
            .filter(|s| matches!(s, Err(e) if e.is_resource_exhausted()))
            .count() as u64;
        self.compare(DivergenceKind::DeciderError, None, report);
        self.symbolic.iter().all(Result::is_ok)
    }

    /// Whether the route's one symbolic check said preserving.
    fn preserving(&self) -> bool {
        matches!(self.symbolic.as_slice(), [Ok(Outcome::Preserving)])
    }

    /// Runs `kind`'s comparison on `tree` and records the divergence if it
    /// fires; returns whether it fired.
    fn compare(&self, kind: DivergenceKind, tree: Option<&Tree>, report: &mut FuzzReport) -> bool {
        let instance = Instance {
            route: &self.route,
            nta: self.nta,
            tree,
            symbolic: &self.symbolic,
            cfg: self.cfg,
        };
        let Some(detail) = divergence(kind, &instance) else {
            return false;
        };
        let case = Case {
            alpha: self.schema.alpha.clone(),
            starts: self.schema.starts.clone(),
            decls: self.schema.decls.clone(),
            subject: self.subject.clone(),
            tree: tree.cloned(),
        };
        record(self.engine, self.cfg, self.seed, kind, detail, case, report);
        true
    }
}

/// One top-down seed: random DTD + random top-down transducer.
fn fuzz_topdown_seed(engine: &Engine, cfg: &FuzzConfig, seed: u64, report: &mut FuzzReport) {
    use DivergenceKind as K;
    let schema = random_dtd(cfg.n_labels, seed);
    let nta = schema.nta();
    let t = random_transducer(&schema.alpha, cfg.n_states, 0.8, transducer_seed(seed));
    let subject = Subject::Topdown {
        transducer: t.clone(),
        labels: Vec::new(),
    };
    let mut trial = Trial::new(engine, cfg, seed, &schema, &nta, &subject);
    let decided = trial.decide(report);
    if decided {
        trial.compare(K::WitnessInvalid, None, report);
        report.checks += 1;
    }
    let trees = sample_trees(&nta, cfg, seed);
    for tree in &trees {
        if decided {
            trial.compare(K::PreservingButViolates, Some(tree), report);
            report.checks += 1;
        }
        // The top-down→DTL translation must transform identically.
        trial.compare(K::TranslationDisagrees, Some(tree), report);
        trial.compare(K::DtlTransformError, Some(tree), report);
        report.checks += 1;
    }
    if decided {
        trial.compare(K::BoundedContradictsSymbolic, None, report);
        report.checks += 1;
    }
    if cfg.retention {
        fuzz_retention(&trial, &t, &trees, report);
    }
}

/// The text-retention sweep of one top-down seed: per schema label, the
/// symbolic [`TextRetentionDecider`] verdict is compared against the
/// per-tree deleted-text oracle on the sampled trees and the bounded
/// enumeration, and a deleted-path witness against its decider's
/// [`Decider::witness_error`].
fn fuzz_retention(seed: &Trial<'_>, t: &Transducer, trees: &[Tree], report: &mut FuzzReport) {
    let (cfg, alpha) = (seed.cfg, &seed.schema.alpha);
    let enumerated = tpx_dtl::bounded::enumerate_schema_trees(
        seed.nta,
        cfg.bounded_max_nodes,
        cfg.bounded_limit,
    );
    for label in alpha.symbols() {
        let subject = Subject::Topdown {
            transducer: t.clone(),
            labels: vec![alpha.name(label).to_owned()],
        };
        let mut trial = Trial::new(seed.engine, cfg, seed.seed, seed.schema, seed.nta, &subject);
        if !trial.decide(report) {
            continue;
        }
        // "Retains everything" must hold on every tree at hand; any other
        // answer is one witness to check.
        let at_hand: Vec<Option<&Tree>> = if trial.preserving() {
            trees.iter().chain(&enumerated).map(Some).collect()
        } else {
            vec![None]
        };
        for tree in at_hand {
            if trial.compare(DivergenceKind::RetentionDisagrees, tree, report) {
                break;
            }
        }
        report.checks += 1;
    }
}

/// One DTL seed: random DTD + random DTL program.
fn fuzz_dtl_seed(engine: &Engine, cfg: &FuzzConfig, seed: u64, report: &mut FuzzReport) {
    use DivergenceKind as K;
    let schema = random_dtd(cfg.n_labels.min(2), seed);
    let nta = schema.nta();
    let subject = Subject::Dtl(DtlSpec {
        seed: transducer_seed(seed),
        n_states: cfg.n_states,
        drops: Vec::new(),
    });
    let mut trial = Trial::new(engine, cfg, seed, &schema, &nta, &subject);
    let trees = sample_trees(&nta, cfg, seed);
    for tree in &trees {
        trial.compare(K::DtlLemmaVsOperational, Some(tree), report);
        trial.compare(K::DtlTransformError, Some(tree), report);
        report.checks += 2;
    }

    if !cfg.dtl_symbolic {
        return;
    }
    // Oversized programs skip the symbolic cross-check; count the gap and
    // leave a trace event rather than dropping the instance silently.
    if let Route::Dtl(prog) = &trial.route {
        if prog.size() > cfg.max_dtl_size {
            report.dtl_skipped += 1;
            engine
                .tracer()
                .span("diffcheck/dtl-skip")
                .exit_with(tpx_engine::SpanFields::new().size(prog.size()));
            return;
        }
    }
    if !trial.decide(report) {
        return;
    }
    trial.compare(K::WitnessInvalid, None, report);
    report.checks += 1;
    if trial.preserving() {
        for tree in &trees {
            trial.compare(K::PreservingButViolates, Some(tree), report);
            report.checks += 1;
        }
    }
    trial.compare(K::BoundedContradictsSymbolic, None, report);
    report.checks += 1;
}

/// The XSLT-frontend sweep of one seed: a seeded fragment stylesheet over
/// the seed's schema alphabet is compiled through `tpx-xslt` and
/// cross-checked against its ground-truth direct translation — a clean
/// compile (no diagnostics, no alphabet growth), identical transforms on
/// every sampled tree, and agreeing symbolic verdicts through the engine.
fn fuzz_xslt_seed(engine: &Engine, cfg: &FuzzConfig, seed: u64, report: &mut FuzzReport) {
    use DivergenceKind as K;
    let schema = random_dtd(cfg.n_labels, seed);
    let nta = schema.nta();
    let subject = Subject::Xslt(XsltSpec {
        seed: transducer_seed(seed),
    });
    let mut trial = Trial::new(engine, cfg, seed, &schema, &nta, &subject);
    // With neither a tree nor verdicts, only an unclean compile fires.
    report.checks += 1;
    if trial.compare(K::XsltCompileDisagrees, None, report) {
        return;
    }
    for tree in sample_trees(&nta, cfg, seed) {
        trial.compare(K::XsltCompileDisagrees, Some(&tree), report);
        report.checks += 1;
    }
    if trial.decide(report) {
        trial.compare(K::XsltCompileDisagrees, None, report);
        report.checks += 1;
    }
}

/// Compiles the spec's stylesheet and pairs it with its expected direct
/// translation when the compile is *clean*: no parse error, no
/// diagnostics, and no new labels interned (the generator only uses schema
/// labels, so growth means the frontend misread one). Otherwise the
/// account of why it is not clean.
fn compile_against_expected(
    alpha: &Alphabet,
    spec: &XsltSpec,
) -> Result<(Transducer, Transducer), String> {
    let mut compile_alpha = alpha.clone();
    let compiled = tpx_xslt::compile(&spec.stylesheet(alpha), &mut compile_alpha)
        .map_err(|e| format!("generated fragment stylesheet fails to compile: {e}"))?;
    if let Some(first) = compiled.diagnostics.first() {
        return Err(format!(
            "generated fragment stylesheet reported {} diagnostic(s), first: line {}: \
             unsupported {}",
            compiled.diagnostics.len(),
            first.line,
            first.construct
        ));
    }
    if compile_alpha.len() != alpha.len() {
        return Err(format!(
            "compiling widened the alphabet from {} to {} labels",
            alpha.len(),
            compile_alpha.len()
        ));
    }
    Ok((compiled.transducer, spec.expected(alpha)))
}

/// The value-unique version of `tree` (text-preservation is defined over
/// value-unique trees; `semantic::text_preserving_on` does not uniquify).
fn unique_tree(tree: &Tree) -> Tree {
    Tree::from_hedge(make_value_unique(tree.as_hedge())).expect("uniquifying keeps the shape")
}

/// The per-tree semantic oracle for text-retention: does `t` delete some
/// text value of `tree` that sits strictly below a node carrying one of
/// the selected labels? Decided by uniquifying the values, transforming,
/// and checking which unique values survive into the output.
fn semantically_deleted_under(t: &Transducer, tree: &Tree, labels: &[Symbol]) -> bool {
    let unique = unique_tree(tree);
    let out = t.transform(&unique);
    let kept: std::collections::HashSet<&str> = out.text_content().into_iter().collect();
    let h = unique.as_hedge();
    let mut stack: Vec<(tpx_trees::NodeId, bool)> = h
        .roots()
        .iter()
        .map(|&v| (v, false)) // `below` a selected label, so roots start outside
        .collect();
    while let Some((v, below)) = stack.pop() {
        match h.label(v) {
            NodeLabel::Text(value) => {
                if below && !kept.contains(value.as_str()) {
                    return true;
                }
            }
            NodeLabel::Elem(s) => {
                let below = below || labels.contains(s);
                stack.extend(h.children(v).iter().map(|&c| (c, below)));
            }
        }
    }
    false
}

/// Replays one case: does the divergence of `kind` still reproduce?
///
/// This is the shared oracle of the fuzzer, the shrinker, and the
/// regression suite. It regenerates the case's route, computes the route's
/// symbolic results afresh where `kind`'s comparison reads them, and calls
/// the comparison the fuzzer calls. For [`DivergenceKind::WitnessInvalid`]
/// the results come from the raw one-shot pipelines, not the engine, so
/// that debug builds report the invalid witness instead of tripping the
/// engine's witness assertion.
pub fn recheck(engine: &Engine, case: &Case, kind: DivergenceKind, cfg: &FuzzConfig) -> bool {
    let nta = case.schema_nta();
    // A tree outside the schema language witnesses nothing.
    if case.tree.as_ref().is_some_and(|tree| !nta.accepts(tree)) {
        return false;
    }
    let route = Route::of(&case.alpha, &case.subject);
    let symbolic = match kind {
        DivergenceKind::WitnessInvalid => route.one_shot(&nta),
        DivergenceKind::TranslationDisagrees
        | DivergenceKind::DtlLemmaVsOperational
        | DivergenceKind::DtlTransformError => Vec::new(),
        DivergenceKind::XsltCompileDisagrees if case.tree.is_some() => Vec::new(),
        _ => route.governed(engine, &nta, cfg),
    };
    let instance = Instance {
        route: &route,
        nta: &nta,
        tree: case.tree.as_ref(),
        symbolic: &symbolic,
        cfg,
    };
    divergence(kind, &instance).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_topdown::PathSym;
    use tpx_trees::budget::BudgetHandle;

    fn quick_cfg() -> FuzzConfig {
        FuzzConfig {
            seeds: 3,
            trees_per_seed: 2,
            budget: 6,
            dtl_symbolic: true,
            max_dtl_size: 25,
            bounded_max_nodes: 4,
            bounded_limit: 60,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn small_fuzz_run_is_clean_and_deterministic() {
        let engine = Engine::new();
        let cfg = quick_cfg();
        let a = run_fuzz(&engine, &cfg);
        assert_eq!(a.seeds_run, cfg.seeds);
        assert!(a.checks > 0);
        let b = run_fuzz(&engine, &cfg);
        assert_eq!(a.checks, b.checks, "fuzz runs must be deterministic");
        assert_eq!(a.divergences.len(), b.divergences.len());
        if let Some(d) = a.divergences.first() {
            panic!(
                "unexpected divergence at seed {}: {} ({})",
                d.seed, d.kind, d.detail
            );
        }
    }

    #[test]
    fn retention_fuzz_run_is_clean_and_deterministic() {
        let engine = Engine::new();
        let cfg = FuzzConfig {
            retention: true,
            ..quick_cfg()
        };
        let a = run_fuzz(&engine, &cfg);
        let base = run_fuzz(&engine, &quick_cfg());
        assert!(
            a.checks > base.checks,
            "the retention sweep must add per-label checks"
        );
        let b = run_fuzz(&engine, &cfg);
        assert_eq!(
            a.checks, b.checks,
            "retention fuzzing must be deterministic"
        );
        assert_eq!(a.divergences.len(), b.divergences.len());
        if let Some(d) = a.divergences.first() {
            panic!(
                "unexpected divergence at seed {}: {} ({})",
                d.seed, d.kind, d.detail
            );
        }
    }

    #[test]
    fn xslt_fuzz_run_is_clean_and_deterministic() {
        let engine = Engine::new();
        let cfg = FuzzConfig {
            xslt: true,
            ..quick_cfg()
        };
        let a = run_fuzz(&engine, &cfg);
        let base = run_fuzz(&engine, &quick_cfg());
        assert!(
            a.checks > base.checks,
            "the xslt sweep must add frontend cross-checks"
        );
        let b = run_fuzz(&engine, &cfg);
        assert_eq!(a.checks, b.checks, "xslt fuzzing must be deterministic");
        assert_eq!(a.divergences.len(), b.divergences.len());
        if let Some(d) = a.divergences.first() {
            panic!(
                "unexpected divergence at seed {}: {} ({})",
                d.seed, d.kind, d.detail
            );
        }
    }

    /// A case over the schema `a0 = a1*`, `a1 = text` whose subject is a
    /// top-down transducer made by `rules`, with the tree `a0(a1("x"))`.
    fn case_over_a0_a1(rules: &[(&str, &str)], labels: &[&str]) -> Case {
        let alpha = Alphabet::from_labels(["a0", "a1"]);
        let mut b = tpx_topdown::TransducerBuilder::new(&alpha, "q");
        for (label, rhs) in rules {
            b.rule("q", label, rhs);
        }
        b.text_rule("q");
        let mut scratch = alpha.clone();
        let tree = tpx_trees::term::parse_tree(r#"a0(a1("x"))"#, &mut scratch).unwrap();
        Case {
            alpha,
            starts: vec!["a0".to_owned()],
            decls: vec![
                ("a0".to_owned(), "a1*".to_owned()),
                ("a1".to_owned(), "text".to_owned()),
            ],
            subject: Subject::Topdown {
                transducer: b.finish(),
                labels: labels.iter().map(|l| (*l).to_owned()).collect(),
            },
            tree: Some(tree),
        }
    }

    /// A transducer that copies every child (`a0 → a0(q q)`).
    fn copier_case() -> Case {
        case_over_a0_a1(&[("a0", "a0(q q)"), ("a1", "a1(q)")], &[])
    }

    fn xslt_case(schema: &RandomSchema, spec: &XsltSpec, tree: Option<Tree>) -> Case {
        Case {
            alpha: schema.alpha.clone(),
            starts: schema.starts.clone(),
            decls: schema.decls.clone(),
            subject: Subject::Xslt(spec.clone()),
            tree,
        }
    }

    /// Whether `kind`'s comparison fires on `case` given `symbolic` as the
    /// route's symbolic results; `None` runs the route's real checks.
    fn fires(kind: DivergenceKind, case: &Case, symbolic: Option<Vec<Symbolic>>) -> bool {
        let cfg = quick_cfg();
        let nta = case.schema_nta();
        let route = Route::of(&case.alpha, &case.subject);
        let symbolic = symbolic.unwrap_or_else(|| route.governed(&Engine::new(), &nta, &cfg));
        let instance = Instance {
            route: &route,
            nta: &nta,
            tree: case.tree.as_ref(),
            symbolic: &symbolic,
            cfg: &cfg,
        };
        divergence(kind, &instance).is_some()
    }

    #[test]
    fn preserving_but_violates_fires_on_a_forged_preserving() {
        let case = copier_case();
        let kind = DivergenceKind::PreservingButViolates;
        assert!(!fires(kind, &case, None), "the decider convicts the copier");
        assert!(fires(kind, &case, Some(vec![Ok(Outcome::Preserving)])));
    }

    #[test]
    fn witness_invalid_fires_on_a_forged_witness() {
        let case = copier_case();
        let kind = DivergenceKind::WitnessInvalid;
        assert!(!fires(kind, &case, None), "the decider's witness validates");
        // No schema text path is empty, and no schema tree is bare text.
        let forged_path = Outcome::Copying { path: Vec::new() };
        assert!(fires(kind, &case, Some(vec![Ok(forged_path)])));
        let forged_tree = Outcome::Rearranging {
            witness: Tree::text("stray"),
        };
        assert!(fires(kind, &case, Some(vec![Ok(forged_tree)])));
    }

    #[test]
    fn bounded_contradicts_symbolic_fires_on_a_forged_preserving() {
        let case = copier_case();
        let kind = DivergenceKind::BoundedContradictsSymbolic;
        assert!(!fires(kind, &case, None), "both routes convict the copier");
        assert!(fires(kind, &case, Some(vec![Ok(Outcome::Preserving)])));
    }

    #[test]
    fn retention_disagrees_fires_on_a_forged_answer() {
        // No rule for `a1`: the text below every `a1` is deleted.
        let case = case_over_a0_a1(&[("a0", "a0(q)")], &["a1"]);
        let kind = DivergenceKind::RetentionDisagrees;
        assert!(!fires(kind, &case, None), "the decider finds the deletion");
        assert!(fires(kind, &case, Some(vec![Ok(Outcome::Preserving)])));
        // `a0/text()` is no schema path, so it cannot witness a deletion.
        let a0 = case.alpha.sym("a0");
        let forged = Outcome::DeletesText {
            path: vec![PathSym::Elem(a0), PathSym::Text],
        };
        assert!(fires(kind, &case, Some(vec![Ok(forged)])));
    }

    #[test]
    fn decider_error_fires_on_a_forged_failure() {
        let case = copier_case();
        let kind = DivergenceKind::DeciderError;
        assert!(!fires(kind, &case, None));
        let forged = DecisionError::Internal("forged failure".to_owned());
        assert!(fires(kind, &case, Some(vec![Err(forged)])));
    }

    #[test]
    fn xslt_compile_disagrees_fires_on_forged_disagreeing_verdicts() {
        let schema = random_dtd(2, 5);
        let case = xslt_case(&schema, &XsltSpec { seed: 17 }, None);
        let kind = DivergenceKind::XsltCompileDisagrees;
        assert!(!fires(kind, &case, None), "the honest verdicts agree");
        let forged = vec![
            Ok(Outcome::Preserving),
            Ok(Outcome::Copying { path: Vec::new() }),
        ];
        assert!(fires(kind, &case, Some(forged)));
    }

    #[test]
    fn recheck_rejects_an_honest_xslt_case_and_a_stray_tree() {
        // With a schema tree and an honest spec the compile is clean and the
        // transforms agree, and a tree outside the schema is no witness, so
        // recheck answers false both ways.
        let schema = random_dtd(2, 5);
        let nta = schema.nta();
        let spec = XsltSpec { seed: 17 };
        let engine = Engine::new();
        let cfg = quick_cfg();
        let witness = nta.witness(&BudgetHandle::unlimited()).unwrap();
        let honest = xslt_case(&schema, &spec, witness);
        assert!(!recheck(
            &engine,
            &honest,
            DivergenceKind::XsltCompileDisagrees,
            &cfg
        ));
        let stray = xslt_case(&schema, &spec, Some(Tree::text("stray")));
        assert!(!recheck(
            &engine,
            &stray,
            DivergenceKind::XsltCompileDisagrees,
            &cfg
        ));
        // And no other kind fires on an xslt case.
        for kind in DivergenceKind::ALL {
            if kind != DivergenceKind::XsltCompileDisagrees {
                assert!(!recheck(&engine, &honest, kind, &cfg), "{kind}");
            }
        }
    }

    #[test]
    fn recheck_rejects_a_forged_preserving_but_violates_case() {
        // The decider is *not* fooled: it reports copying, so the
        // "preserving but violates" divergence must not reproduce.
        let engine = Engine::new();
        assert!(!recheck(
            &engine,
            &copier_case(),
            DivergenceKind::PreservingButViolates,
            &quick_cfg()
        ));
    }

    #[test]
    fn recheck_rejects_trees_outside_the_schema() {
        let schema = random_dtd(2, 1);
        let t = random_transducer(&schema.alpha, 1, 0.5, 1);
        // A tree over a foreign label set is not in L(N); every tree-bearing
        // kind must reject it.
        let case = Case {
            alpha: schema.alpha.clone(),
            starts: schema.starts.clone(),
            decls: schema.decls.clone(),
            subject: Subject::Topdown {
                transducer: t,
                labels: Vec::new(),
            },
            tree: Some(Tree::text("stray")),
        };
        let engine = Engine::new();
        let cfg = quick_cfg();
        for kind in [
            DivergenceKind::PreservingButViolates,
            DivergenceKind::TranslationDisagrees,
            DivergenceKind::DtlTransformError,
        ] {
            assert!(!recheck(&engine, &case, kind, &cfg), "{kind}");
        }
    }
}
