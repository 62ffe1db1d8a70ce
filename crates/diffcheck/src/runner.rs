//! The differential fuzz loop and the single-case replayer.
//!
//! Per seed, [`run_fuzz`] generates a random `(schema, transducer)` pair
//! through `tpx-workload`, samples trees from the schema language, and
//! cross-checks every independent computation of the text-preservation
//! facts against every other (see [`DivergenceKind`] for the pairs).
//! Whenever two disagree, the failing inputs are packaged as a [`Case`],
//! re-confirmed through [`recheck`] (so every recorded divergence is
//! replayable by construction), shrunk to a 1-minimal reproducer, and
//! returned in the [`FuzzReport`].
//!
//! [`recheck`] is the single source of truth for "does this case still
//! diverge?": the fuzzer, the shrinker, and the `tests/regressions`
//! replay suite all go through it.

use tpx_dtl::pattern::PatternLanguage;
use tpx_dtl::{DtlTransducer, XPathPatterns};
use tpx_engine::{
    CheckOptions, DtlDecider, Engine, Outcome, TextRetentionDecider, TopdownDecider, Verdict,
};
use tpx_topdown::{PathSym, Transducer};
use tpx_treeauto::Nta;
use tpx_trees::{make_value_unique, NodeLabel, Symbol, Tree};
use tpx_workload::{random_dtd, random_schema_tree, random_transducer, RandomSchema};

use crate::case::{Case, DivergenceKind, DtlSpec, XsltSpec};
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
    /// Tree-count cap for the bounded-enumeration baseline; the reverse
    /// direction of the bounded check only applies when the enumeration
    /// stayed under this cap (i.e. was exhaustive up to `bounded_max_nodes`).
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

/// Runs one symbolic check under the configured per-check budget. Budget
/// exhaustion is counted and the check skipped (`None`); any other failure
/// (a panic or internal error, isolated by the engine) is itself a
/// divergence in the decider, recorded under
/// [`DivergenceKind::DeciderError`].
fn governed_check(
    engine: &Engine,
    cfg: &FuzzConfig,
    seed: u64,
    decider: &dyn tpx_engine::Decider,
    nta: &Nta,
    case: Case,
    report: &mut FuzzReport,
) -> Option<Verdict> {
    report.checks += 1;
    match engine.check_governed(decider, nta, &cfg.check_options()) {
        Ok(verdict) => Some(verdict),
        Err(e) if e.is_resource_exhausted() => {
            report.exhausted += 1;
            None
        }
        Err(e) => {
            record(
                engine,
                cfg,
                seed,
                DivergenceKind::DeciderError,
                format!("{e}"),
                case,
                report,
            );
            None
        }
    }
}

/// One top-down seed: random DTD + random top-down transducer.
fn fuzz_topdown_seed(engine: &Engine, cfg: &FuzzConfig, seed: u64, report: &mut FuzzReport) {
    let schema = random_dtd(cfg.n_labels, seed);
    let nta = schema.nta();
    let t = random_transducer(&schema.alpha, cfg.n_states, 0.8, transducer_seed(seed));
    let case = |tree: Option<Tree>| topdown_case(&schema, &t, tree);

    let verdict = governed_check(
        engine,
        cfg,
        seed,
        &TopdownDecider::new(&t),
        &nta,
        case(None),
        report,
    );

    // Witness validation (mirrors the engine's debug-only assertions, but
    // as a reportable check in release builds too).
    if let Some(verdict) = &verdict {
        if let Some(detail) = invalid_topdown_witness(&t, &nta, &verdict.outcome) {
            record(
                engine,
                cfg,
                seed,
                DivergenceKind::WitnessInvalid,
                detail,
                case(None),
                report,
            );
        }
        report.checks += 1;
    }

    let trees = sample_trees(&nta, cfg, seed);
    let dtl = tpx_dtl::from_topdown(&t);
    for tree in &trees {
        // Symbolic "preserving" vs the per-tree oracle on the value-unique
        // version of a sampled schema tree.
        if let Some(verdict) = &verdict {
            let unique = unique_tree(tree);
            if verdict.is_preserving() && !tpx_topdown::semantic::text_preserving_on(&t, &unique) {
                record(
                    engine,
                    cfg,
                    seed,
                    DivergenceKind::PreservingButViolates,
                    "topdown decider says preserving; sampled tree violates".to_owned(),
                    case(Some(tree.clone())),
                    report,
                );
            }
            report.checks += 1;
        }

        // The top-down→DTL translation must transform identically.
        match dtl.transform(tree) {
            Ok(out) if out == t.transform(tree) => {}
            Ok(_) => record(
                engine,
                cfg,
                seed,
                DivergenceKind::TranslationDisagrees,
                "from_topdown(T) and T transform a tree differently".to_owned(),
                case(Some(tree.clone())),
                report,
            ),
            Err(e) => record(
                engine,
                cfg,
                seed,
                DivergenceKind::DtlTransformError,
                format!("from_topdown(T) raised {e:?}"),
                case(Some(tree.clone())),
                report,
            ),
        }
        report.checks += 1;
    }

    // Bounded enumeration vs the symbolic verdict (via the DTL translation,
    // whose per-tree lemmas drive the bounded baseline).
    if let Some(verdict) = &verdict {
        if let Some(detail) = bounded_disagreement(&dtl, &nta, verdict.outcome.is_preserving(), cfg)
        {
            record(
                engine,
                cfg,
                seed,
                DivergenceKind::BoundedContradictsSymbolic,
                detail,
                case(None),
                report,
            );
        }
        report.checks += 1;
    }

    if cfg.retention {
        fuzz_retention(engine, cfg, seed, &schema, &t, &nta, &trees, report);
    }
}

/// The text-retention sweep of one top-down seed: for each schema label,
/// the symbolic [`TextRetentionDecider`] verdict is cross-checked against
/// the per-tree semantic oracle — on the sampled trees and on the bounded
/// enumeration — and a deleted-path witness is re-validated through the
/// path automata.
#[allow(clippy::too_many_arguments)]
fn fuzz_retention(
    engine: &Engine,
    cfg: &FuzzConfig,
    seed: u64,
    schema: &RandomSchema,
    t: &Transducer,
    nta: &Nta,
    trees: &[Tree],
    report: &mut FuzzReport,
) {
    let enumerated =
        tpx_dtl::bounded::enumerate_schema_trees(nta, cfg.bounded_max_nodes, cfg.bounded_limit);
    for label in schema.alpha.symbols() {
        let labels = [label];
        let decider = TextRetentionDecider::new(t, labels.to_vec());
        let Some(verdict) = governed_check(
            engine,
            cfg,
            seed,
            &decider,
            nta,
            retention_case(schema, t, label, None),
            report,
        ) else {
            continue;
        };
        match &verdict.outcome {
            Outcome::Preserving => {
                // "Retains everything" must hold on every tree we can lay
                // hands on: the sampled trees and the bounded enumeration.
                for tree in trees.iter().chain(&enumerated) {
                    if semantically_deleted_under(t, tree, &labels) {
                        record(
                            engine,
                            cfg,
                            seed,
                            DivergenceKind::RetentionDisagrees,
                            format!(
                                "retention decider says retains under {:?}; a schema tree \
                                 loses a text value there",
                                schema.alpha.name(label)
                            ),
                            retention_case(schema, t, label, Some(tree.clone())),
                            report,
                        );
                        break;
                    }
                }
            }
            Outcome::DeletesText { path } => {
                if let Some(detail) = invalid_retention_witness(t, nta, &labels, path) {
                    record(
                        engine,
                        cfg,
                        seed,
                        DivergenceKind::RetentionDisagrees,
                        detail,
                        retention_case(schema, t, label, None),
                        report,
                    );
                }
            }
            other => {
                record(
                    engine,
                    cfg,
                    seed,
                    DivergenceKind::RetentionDisagrees,
                    format!("retention decider produced a foreign outcome: {other:?}"),
                    retention_case(schema, t, label, None),
                    report,
                );
            }
        }
        report.checks += 1;
    }
}

/// One DTL seed: random DTD + random DTL program.
fn fuzz_dtl_seed(engine: &Engine, cfg: &FuzzConfig, seed: u64, report: &mut FuzzReport) {
    let schema = random_dtd(cfg.n_labels.min(2), seed);
    let nta = schema.nta();
    let spec = DtlSpec {
        seed: transducer_seed(seed),
        n_states: cfg.n_states,
        drops: Vec::new(),
    };
    let prog = spec.program(&schema.alpha);
    let case = |tree: Option<Tree>| dtl_case(&schema, &spec, tree);

    let trees = sample_trees(&nta, cfg, seed);
    for tree in &trees {
        if let Some(detail) = lemma_vs_operational(&prog, tree) {
            record(
                engine,
                cfg,
                seed,
                DivergenceKind::DtlLemmaVsOperational,
                detail,
                case(Some(tree.clone())),
                report,
            );
        }
        report.checks += 1;
        if prog.transform(tree).is_err() {
            record(
                engine,
                cfg,
                seed,
                DivergenceKind::DtlTransformError,
                "generated DTL program raised an error".to_owned(),
                case(Some(tree.clone())),
                report,
            );
        }
        report.checks += 1;
    }

    if !cfg.dtl_symbolic {
        return;
    }
    // Oversized programs skip the symbolic cross-check; count the gap and
    // leave a trace event rather than dropping the instance silently.
    if prog.size() > cfg.max_dtl_size {
        report.dtl_skipped += 1;
        engine
            .tracer()
            .span("diffcheck/dtl-skip")
            .exit_with(tpx_engine::SpanFields::new().size(prog.size()));
        return;
    }
    let Some(verdict) = governed_check(
        engine,
        cfg,
        seed,
        &DtlDecider::new(&prog),
        &nta,
        case(None),
        report,
    ) else {
        return;
    };

    if let Some(detail) = invalid_dtl_witness(&prog, &nta, &verdict.outcome) {
        record(
            engine,
            cfg,
            seed,
            DivergenceKind::WitnessInvalid,
            detail,
            case(None),
            report,
        );
    }
    report.checks += 1;

    if verdict.is_preserving() {
        for tree in &trees {
            if dtl_violates_on(&prog, tree) {
                record(
                    engine,
                    cfg,
                    seed,
                    DivergenceKind::PreservingButViolates,
                    "dtl decider says preserving; sampled tree violates".to_owned(),
                    case(Some(tree.clone())),
                    report,
                );
            }
            report.checks += 1;
        }
    }

    if let Some(detail) = bounded_disagreement(&prog, &nta, verdict.outcome.is_preserving(), cfg) {
        record(
            engine,
            cfg,
            seed,
            DivergenceKind::BoundedContradictsSymbolic,
            detail,
            case(None),
            report,
        );
    }
    report.checks += 1;
}

/// The XSLT-frontend sweep of one seed: a seeded fragment stylesheet over
/// the seed's schema alphabet is compiled through `tpx-xslt` and
/// cross-checked against its ground-truth direct translation — a clean
/// compile (no diagnostics, no alphabet growth), identical transforms on
/// every sampled tree, and agreeing symbolic verdicts through the engine.
fn fuzz_xslt_seed(engine: &Engine, cfg: &FuzzConfig, seed: u64, report: &mut FuzzReport) {
    let schema = random_dtd(cfg.n_labels, seed);
    let nta = schema.nta();
    let spec = XsltSpec {
        seed: transducer_seed(seed),
    };
    let case = |tree: Option<Tree>| xslt_case(&schema, &spec, tree);

    report.checks += 1;
    let Some((compiled, expected)) = compile_against_expected(&schema.alpha, &spec) else {
        record(
            engine,
            cfg,
            seed,
            DivergenceKind::XsltCompileDisagrees,
            compile_failure_detail(&schema.alpha, &spec),
            case(None),
            report,
        );
        return;
    };

    for tree in sample_trees(&nta, cfg, seed) {
        if compiled.transform(&tree) != expected.transform(&tree) {
            record(
                engine,
                cfg,
                seed,
                DivergenceKind::XsltCompileDisagrees,
                "compiled stylesheet and expected transducer transform a tree differently"
                    .to_owned(),
                case(Some(tree.clone())),
                report,
            );
        }
        report.checks += 1;
    }

    let got = governed_check(
        engine,
        cfg,
        seed,
        &TopdownDecider::new(&compiled),
        &nta,
        case(None),
        report,
    );
    let want = governed_check(
        engine,
        cfg,
        seed,
        &TopdownDecider::new(&expected),
        &nta,
        case(None),
        report,
    );
    if let (Some(got), Some(want)) = (got, want) {
        if got.is_preserving() != want.is_preserving() {
            record(
                engine,
                cfg,
                seed,
                DivergenceKind::XsltCompileDisagrees,
                format!(
                    "verdicts disagree: compiled stylesheet preserving = {}, \
                     expected transducer preserving = {}",
                    got.is_preserving(),
                    want.is_preserving()
                ),
                case(None),
                report,
            );
        }
        report.checks += 1;
    }
}

/// Compiles the spec's stylesheet and returns `(compiled, expected)` when
/// the compile is *clean*: no parse error, no diagnostics, and no new
/// labels interned (the generator only uses schema labels, so growth
/// means the frontend misread one). `None` otherwise.
fn compile_against_expected(
    alpha: &tpx_trees::Alphabet,
    spec: &XsltSpec,
) -> Option<(Transducer, Transducer)> {
    let src = spec.stylesheet(alpha);
    let mut compile_alpha = alpha.clone();
    let compiled = tpx_xslt::compile(&src, &mut compile_alpha).ok()?;
    (compiled.diagnostics.is_empty() && compile_alpha.len() == alpha.len())
        .then(|| (compiled.transducer, spec.expected(alpha)))
}

/// The account of why [`compile_against_expected`] rejected the compile.
fn compile_failure_detail(alpha: &tpx_trees::Alphabet, spec: &XsltSpec) -> String {
    let src = spec.stylesheet(alpha);
    let mut compile_alpha = alpha.clone();
    match tpx_xslt::compile(&src, &mut compile_alpha) {
        Err(e) => format!("generated fragment stylesheet fails to compile: {e}"),
        Ok(c) if !c.diagnostics.is_empty() => format!(
            "generated fragment stylesheet reported {} diagnostic(s), first: line {}: \
             unsupported {}",
            c.diagnostics.len(),
            c.diagnostics[0].line,
            c.diagnostics[0].construct
        ),
        Ok(_) => format!(
            "compiling widened the alphabet from {} to {} labels",
            alpha.len(),
            compile_alpha.len()
        ),
    }
}

fn topdown_case(schema: &RandomSchema, t: &Transducer, tree: Option<Tree>) -> Case {
    Case {
        alpha: schema.alpha.clone(),
        starts: schema.starts.clone(),
        decls: schema.decls.clone(),
        transducer: Some(t.clone()),
        dtl: None,
        xslt: None,
        tree,
        labels: Vec::new(),
    }
}

fn retention_case(
    schema: &RandomSchema,
    t: &Transducer,
    label: Symbol,
    tree: Option<Tree>,
) -> Case {
    Case {
        labels: vec![schema.alpha.name(label).to_owned()],
        ..topdown_case(schema, t, tree)
    }
}

fn dtl_case(schema: &RandomSchema, spec: &DtlSpec, tree: Option<Tree>) -> Case {
    Case {
        alpha: schema.alpha.clone(),
        starts: schema.starts.clone(),
        decls: schema.decls.clone(),
        transducer: None,
        dtl: Some(spec.clone()),
        xslt: None,
        tree,
        labels: Vec::new(),
    }
}

fn xslt_case(schema: &RandomSchema, spec: &XsltSpec, tree: Option<Tree>) -> Case {
    Case {
        alpha: schema.alpha.clone(),
        starts: schema.starts.clone(),
        decls: schema.decls.clone(),
        transducer: None,
        dtl: None,
        xslt: Some(spec.clone()),
        tree,
        labels: Vec::new(),
    }
}

/// The value-unique version of `tree` (text-preservation is defined over
/// value-unique trees; `semantic::text_preserving_on` does not uniquify).
fn unique_tree(tree: &Tree) -> Tree {
    Tree::from_hedge(make_value_unique(tree.as_hedge())).expect("uniquifying keeps the shape")
}

/// Why the top-down verdict's witness fails validation, if it does.
fn invalid_topdown_witness(t: &Transducer, nta: &Nta, outcome: &Outcome) -> Option<String> {
    match outcome {
        Outcome::Preserving => None,
        Outcome::Copying { path } => {
            if !tpx_topdown::path_automaton_nta(nta, &tpx_trees::budget::BudgetHandle::unlimited())
                .expect("unlimited budget")
                .accepts(path)
            {
                Some("copying witness path is not a schema path".to_owned())
            } else if !tpx_topdown::path_automaton_transducer(t).accepts(path) {
                Some("transducer has no run on the copying witness path".to_owned())
            } else {
                None
            }
        }
        Outcome::Rearranging { witness } => {
            if !nta.accepts(witness) {
                Some("rearranging witness outside the schema".to_owned())
            } else if !tpx_topdown::semantic::rearranging_on(t, witness) {
                Some("rearranging witness not semantically rearranging".to_owned())
            } else {
                None
            }
        }
        Outcome::NotPreserving { witness } => {
            (!nta.accepts(witness)).then(|| "witness outside the schema".to_owned())
        }
        // The text-preservation pipelines never produce these; seeing one
        // here means a decider mixed up its analysis.
        Outcome::DeletesText { .. } | Outcome::NonConforming { .. } => {
            Some("text-preservation check produced a foreign-analysis outcome".to_owned())
        }
    }
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

/// Why a deleted-path witness fails validation, if it does (mirrors the
/// engine's debug-only assertions as a reportable release-build check).
fn invalid_retention_witness(
    t: &Transducer,
    nta: &Nta,
    labels: &[Symbol],
    path: &[PathSym],
) -> Option<String> {
    if !tpx_topdown::path_automaton_nta(nta, &tpx_trees::budget::BudgetHandle::unlimited())
        .expect("unlimited budget")
        .accepts(path)
    {
        Some("retention witness path is not a schema path".to_owned())
    } else if !path
        .iter()
        .any(|p| labels.iter().any(|&l| *p == PathSym::Elem(l)))
    {
        Some("retention witness path misses the selected labels".to_owned())
    } else if tpx_topdown::path_automaton_transducer(t).accepts(path) {
        Some("transducer keeps the retention witness path's value".to_owned())
    } else {
        None
    }
}

/// Why the DTL verdict's witness fails validation, if it does.
fn invalid_dtl_witness<P: PatternLanguage>(
    t: &DtlTransducer<P>,
    nta: &Nta,
    outcome: &Outcome,
) -> Option<String> {
    let Outcome::NotPreserving { witness } = outcome else {
        return None;
    };
    if !nta.accepts(witness) {
        return Some("dtl witness outside the schema".to_owned());
    }
    let copying = tpx_dtl::config::copying_lemma_5_4(t, witness);
    let rearranging = tpx_dtl::config::rearranging_lemma_5_5(t, witness);
    if matches!(copying, Ok(true)) || matches!(rearranging, Ok(true)) {
        None
    } else {
        Some(format!(
            "dtl witness not re-confirmed (copying: {copying:?}, rearranging: {rearranging:?})"
        ))
    }
}

/// Whether the Lemma 5.4/5.5 checks disagree with the direct semantic
/// oracles on `tree`; returns the account of the first mismatch.
fn lemma_vs_operational<P: PatternLanguage>(t: &DtlTransducer<P>, tree: &Tree) -> Option<String> {
    let lemma_copy = tpx_dtl::config::copying_lemma_5_4(t, tree);
    let oper_copy = tpx_dtl::config::copying_on(t, tree);
    match (&lemma_copy, &oper_copy) {
        (Ok(a), Ok(b)) if a == b => {}
        _ => {
            return Some(format!(
                "copying: lemma 5.4 = {lemma_copy:?}, operational = {oper_copy:?}"
            ))
        }
    }
    let lemma_re = tpx_dtl::config::rearranging_lemma_5_5(t, tree);
    let oper_re = tpx_dtl::config::rearranging_on(t, tree);
    match (&lemma_re, &oper_re) {
        (Ok(a), Ok(b)) if a == b => None,
        _ => Some(format!(
            "rearranging: lemma 5.5 = {lemma_re:?}, operational = {oper_re:?}"
        )),
    }
}

/// Whether the per-tree oracles convict `t` on `tree` (copying or
/// rearranging on the value-unique version).
fn dtl_violates_on<P: PatternLanguage>(t: &DtlTransducer<P>, tree: &Tree) -> bool {
    matches!(tpx_dtl::config::copying_on(t, tree), Ok(true))
        || matches!(tpx_dtl::config::rearranging_on(t, tree), Ok(true))
}

/// Cross-checks the bounded-enumeration baseline against a symbolic
/// verdict, in both directions where the enumeration is conclusive.
fn bounded_disagreement<P: PatternLanguage>(
    t: &DtlTransducer<P>,
    nta: &Nta,
    symbolic_preserving: bool,
    cfg: &FuzzConfig,
) -> Option<String> {
    let enumerated =
        tpx_dtl::bounded::enumerate_schema_trees(nta, cfg.bounded_max_nodes, cfg.bounded_limit);
    let exhaustive = enumerated.len() < cfg.bounded_limit;
    match tpx_dtl::bounded::bounded_counterexample(t, nta, cfg.bounded_max_nodes, cfg.bounded_limit)
    {
        Err(e) => Some(format!("bounded baseline raised {e:?}")),
        Ok(Some(ce)) if symbolic_preserving => Some(format!(
            "bounded baseline found a counterexample of {} nodes; symbolic says preserving",
            ce.node_count()
        )),
        // The reverse direction needs the enumeration to be exhaustive up
        // to the bound AND a small symbolic witness to contradict; without
        // a witness size to compare we stay conservative and only flag the
        // forward direction.
        Ok(_) => {
            let _ = exhaustive;
            None
        }
    }
}

/// Replays one case: does the divergence of `kind` still reproduce?
///
/// This is the shared oracle of the fuzzer, the shrinker, and the
/// regression suite. For [`DivergenceKind::WitnessInvalid`] the symbolic
/// verdict is recomputed through the raw pipelines (not the engine) so
/// that debug builds report the invalid witness instead of tripping the
/// engine's internal `debug_assert`s.
pub fn recheck(engine: &Engine, case: &Case, kind: DivergenceKind, cfg: &FuzzConfig) -> bool {
    let nta = case.schema_nta();
    if let Some(t) = &case.transducer {
        recheck_topdown(engine, case, t, &nta, kind, cfg)
    } else if let Some(prog) = case.dtl_program() {
        recheck_dtl(engine, case, &prog, &nta, kind, cfg)
    } else if let Some(spec) = &case.xslt {
        recheck_xslt(engine, case, spec, &nta, kind, cfg)
    } else {
        false
    }
}

/// The governed symbolic verdict for replays: `None` when the budget ran
/// out, in which case the divergence counts as not reproduced.
fn governed_preserving(
    engine: &Engine,
    decider: &dyn tpx_engine::Decider,
    nta: &Nta,
    cfg: &FuzzConfig,
) -> Option<bool> {
    engine
        .check_governed(decider, nta, &cfg.check_options())
        .ok()
        .map(|v| v.is_preserving())
}

fn recheck_topdown(
    engine: &Engine,
    case: &Case,
    t: &Transducer,
    nta: &Nta,
    kind: DivergenceKind,
    cfg: &FuzzConfig,
) -> bool {
    // A tree-bearing kind only reproduces on a tree of the schema language.
    let valid_tree = |tree: &Tree| nta.accepts(tree);
    match kind {
        DivergenceKind::PreservingButViolates => case.tree.as_ref().is_some_and(|tree| {
            valid_tree(tree)
                && governed_preserving(engine, &TopdownDecider::new(t), nta, cfg) == Some(true)
                && !tpx_topdown::semantic::text_preserving_on(t, &unique_tree(tree))
        }),
        DivergenceKind::WitnessInvalid => {
            let outcome: Outcome = tpx_topdown::is_text_preserving(t, nta).into();
            invalid_topdown_witness(t, nta, &outcome).is_some()
        }
        DivergenceKind::TranslationDisagrees => case.tree.as_ref().is_some_and(|tree| {
            valid_tree(tree)
                && match tpx_dtl::from_topdown(t).transform(tree) {
                    Ok(out) => out != t.transform(tree),
                    Err(_) => false,
                }
        }),
        DivergenceKind::DtlTransformError => case.tree.as_ref().is_some_and(|tree| {
            valid_tree(tree) && tpx_dtl::from_topdown(t).transform(tree).is_err()
        }),
        DivergenceKind::BoundedContradictsSymbolic => {
            let Some(preserving) = governed_preserving(engine, &TopdownDecider::new(t), nta, cfg)
            else {
                return false;
            };
            bounded_disagreement(&tpx_dtl::from_topdown(t), nta, preserving, cfg).is_some()
        }
        DivergenceKind::DeciderError => matches!(
            engine.check_governed(&TopdownDecider::new(t), nta, &cfg.check_options()),
            Err(e) if !e.is_resource_exhausted()
        ),
        DivergenceKind::RetentionDisagrees => {
            let labels: Vec<Symbol> = case
                .labels
                .iter()
                .filter_map(|l| case.alpha.get(l))
                .collect();
            if labels.is_empty() {
                return false;
            }
            let decider = TextRetentionDecider::new(t, labels.clone());
            match engine.check_governed(&decider, nta, &cfg.check_options()) {
                Ok(v) => match &v.outcome {
                    Outcome::Preserving => {
                        let deleted = |tree: &Tree| {
                            valid_tree(tree) && semantically_deleted_under(t, tree, &labels)
                        };
                        case.tree.as_ref().is_some_and(&deleted)
                            || tpx_dtl::bounded::enumerate_schema_trees(
                                nta,
                                cfg.bounded_max_nodes,
                                cfg.bounded_limit,
                            )
                            .iter()
                            .any(deleted)
                    }
                    Outcome::DeletesText { path } => {
                        invalid_retention_witness(t, nta, &labels, path).is_some()
                    }
                    // A foreign outcome from the retention decider is
                    // itself the divergence.
                    _ => true,
                },
                Err(_) => false,
            }
        }
        // These kinds pin the other pipelines; a top-down case cannot
        // carry them.
        DivergenceKind::DtlLemmaVsOperational | DivergenceKind::XsltCompileDisagrees => false,
    }
}

/// Replays an XSLT-frontend case: regenerate the stylesheet and its
/// ground truth from the spec, recompile, and re-run the exact
/// cross-check that flagged the divergence (tree-bearing → transform
/// mismatch on that tree; symbolic → compile failure or verdict
/// disagreement).
fn recheck_xslt(
    engine: &Engine,
    case: &Case,
    spec: &XsltSpec,
    nta: &Nta,
    kind: DivergenceKind,
    cfg: &FuzzConfig,
) -> bool {
    if kind != DivergenceKind::XsltCompileDisagrees {
        return false;
    }
    let Some((compiled, expected)) = compile_against_expected(&case.alpha, spec) else {
        // An unclean compile reproduces regardless of the tree.
        return true;
    };
    if let Some(tree) = &case.tree {
        return nta.accepts(tree) && compiled.transform(tree) != expected.transform(tree);
    }
    match (
        governed_preserving(engine, &TopdownDecider::new(&compiled), nta, cfg),
        governed_preserving(engine, &TopdownDecider::new(&expected), nta, cfg),
    ) {
        (Some(got), Some(want)) => got != want,
        _ => false,
    }
}

fn recheck_dtl(
    engine: &Engine,
    case: &Case,
    prog: &DtlTransducer<XPathPatterns>,
    nta: &Nta,
    kind: DivergenceKind,
    cfg: &FuzzConfig,
) -> bool {
    let valid_tree = |tree: &Tree| nta.accepts(tree);
    match kind {
        DivergenceKind::DtlLemmaVsOperational => case
            .tree
            .as_ref()
            .is_some_and(|tree| valid_tree(tree) && lemma_vs_operational(prog, tree).is_some()),
        DivergenceKind::DtlTransformError => case
            .tree
            .as_ref()
            .is_some_and(|tree| valid_tree(tree) && prog.transform(tree).is_err()),
        DivergenceKind::PreservingButViolates => case.tree.as_ref().is_some_and(|tree| {
            valid_tree(tree)
                && governed_preserving(engine, &DtlDecider::new(prog), nta, cfg) == Some(true)
                && dtl_violates_on(prog, tree)
        }),
        DivergenceKind::WitnessInvalid => {
            let outcome = match tpx_dtl::dtl_text_preserving(prog, nta) {
                tpx_dtl::DtlCheckReport::Preserving => Outcome::Preserving,
                tpx_dtl::DtlCheckReport::NotPreserving { witness } => {
                    Outcome::NotPreserving { witness }
                }
            };
            invalid_dtl_witness(prog, nta, &outcome).is_some()
        }
        DivergenceKind::BoundedContradictsSymbolic => {
            let Some(preserving) = governed_preserving(engine, &DtlDecider::new(prog), nta, cfg)
            else {
                return false;
            };
            bounded_disagreement(prog, nta, preserving, cfg).is_some()
        }
        DivergenceKind::DeciderError => matches!(
            engine.check_governed(&DtlDecider::new(prog), nta, &cfg.check_options()),
            Err(e) if !e.is_resource_exhausted()
        ),
        // The retention analysis and the XSLT frontend only run on
        // top-down / stylesheet cases.
        DivergenceKind::TranslationDisagrees
        | DivergenceKind::RetentionDisagrees
        | DivergenceKind::XsltCompileDisagrees => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_topdown::{RhsNode, TdState};
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

    #[test]
    fn recheck_reproduces_a_planted_xslt_transform_mismatch() {
        // A forged xslt case whose tree is outside the schema must not
        // reproduce; with a schema tree and an honest spec the compile is
        // clean and the transforms agree, so the kind must not reproduce
        // either — recheck answers false both ways.
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
        // A transducer that copies its children (`a0 → a0(q0 q0)`) is not a
        // translation divergence — from_topdown matches it. Plant a real
        // per-tree divergence instead: preserving-but-violates with a
        // decider we *claim* said preserving cannot be forged, so use the
        // oracle side: a copying transducer plus a text-bearing tree makes
        // `text_preserving_on` false, while the decider correctly says
        // copying — recheck must therefore reject the forged case.
        let schema = random_dtd(2, 3);
        let nta = schema.nta();
        let mut t = random_transducer(&schema.alpha, 1, 0.0, 0);
        for s in schema.alpha.symbols() {
            t.set_rule(
                TdState(0),
                s,
                vec![RhsNode::Elem(
                    s,
                    vec![RhsNode::State(TdState(0)), RhsNode::State(TdState(0))],
                )],
            );
        }
        t.set_text_rule(TdState(0), true);
        let tree = nta
            .witness(&BudgetHandle::unlimited())
            .unwrap()
            .expect("non-empty");
        let case = Case {
            alpha: schema.alpha.clone(),
            starts: schema.starts.clone(),
            decls: schema.decls.clone(),
            transducer: Some(t),
            dtl: None,
            xslt: None,
            tree: Some(tree),
            labels: Vec::new(),
        };
        let engine = Engine::new();
        // The decider is *not* fooled: it reports copying, so the
        // "preserving but violates" divergence must not reproduce.
        assert!(!recheck(
            &engine,
            &case,
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
            transducer: Some(t),
            dtl: None,
            xslt: None,
            tree: Some(Tree::text("stray")),
            labels: Vec::new(),
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
