//! `corpus-batch`: the E11 XSLT corpus the way one `textpres batch` run
//! checks it. One operation is one schema×stylesheet pair; latency is taken
//! per batch.
//!
//! Each batch compiles the 2000 source pairs of `xslt_corpus` through
//! `frontend::compile_stylesheet_cached` and checks them with
//! `check_many_governed` on a fresh two-worker engine. The pairs share
//! heavily (45 distinct pairs over 6 schemas), so the frontend, the
//! artifact cache and the scheduler do the work. The same batch also runs
//! the two sibling analyses once per distinct pair: text retention under
//! every label on each of them, and conformance to the pair's own schema on
//! one pair of each `CONFORMANCE_STEMS` shape, so their constructions are
//! built cold in every batch.
//!
//! Every batch does the same work, so the batch is one cost class; its cost
//! is the median batch (see `ClassCost::Median`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use textpres::engine::{
    CheckOptions, Decider, DecisionError, Engine, Outcome, OutputConformanceDecider, Task,
    TextRetentionDecider, TopdownDecider, Tracer, Verdict,
};
use textpres::frontend::{compile_stylesheet_cached, XsltArtifact};
use textpres::trees::Symbol;
use tpx_workload::{xslt_corpus, CorpusCase};

use crate::checks::{self, Machine, Property};
use crate::layers::Layers;
use crate::report::{peak_rss_mb, ClassCost, Measured};
use crate::Ctx;

/// Source pairs per batch.
const CASES: usize = 2000;
/// Worker threads per batch engine: the host's two cores.
const JOBS: usize = 2;
/// One batch's length on the reference host, in seconds.
const BATCH_S: f64 = 0.064;
/// The shapes (family, parameter and stylesheet kind) whose first distinct
/// pair has its conformance to its own schema checked, each 2-25 ms cold.
/// A fixed list, not the first pairs in corpus order, which the seed
/// reorders: those costs and memory would then change with the seed.
const CONFORMANCE_STEMS: [&str; 12] = [
    "tei2-identity",
    "tei2-rename",
    "tei2-strip",
    "tei2-delete",
    "tei2-duplicate",
    "tei2-reorder",
    "bpmn2-identity",
    "bpmn2-rename",
    "bpmn2-strip",
    "bpmn2-delete",
    "bpmn2-duplicate",
    "bpmn2-reorder",
];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// One batch's outputs.
struct Batch {
    artifacts: Vec<Arc<XsltArtifact>>,
    verdicts: Vec<Result<Verdict, DecisionError>>,
}

/// Which cases the sibling analyses check.
struct Picks {
    /// The first case of each distinct source pair, in corpus order.
    firsts: Vec<usize>,
    /// The first case of each of `CONFORMANCE_STEMS`.
    conform: Vec<usize>,
}

impl Picks {
    fn new(cases: &[CorpusCase]) -> Result<Picks, String> {
        let mut seen = std::collections::HashSet::new();
        let firsts: Vec<usize> = (0..cases.len())
            .filter(|&i| seen.insert((&cases[i].schema_src, &cases[i].xslt_src)))
            .collect();
        let conform = CONFORMANCE_STEMS
            .iter()
            .map(|stem| {
                firsts
                    .iter()
                    .copied()
                    .find(|&i| cases[i].name.rsplit_once('-').map(|(s, _)| s) == Some(stem))
                    .ok_or_else(|| format!("the corpus holds no {stem}-* pair"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Picks { firsts, conform })
    }

    /// What each verdict of a batch answers, in the batch's order.
    fn asked(&self, cases: usize) -> impl Iterator<Item = (usize, Asked)> + '_ {
        (0..cases)
            .map(|i| (i, Asked::Preservation))
            .chain(self.firsts.iter().map(|&i| (i, Asked::Retention)))
            .chain(self.conform.iter().map(|&i| (i, Asked::Conformance)))
    }
}

/// One batch: compile every pair through the frontend's cache, then check
/// in one call the text-preservation of every case, the retention of each
/// distinct pair's first case and the conformance of the picked ones, in
/// that order. With `layers`, records the batch's spans.
fn batch(
    cases: &[CorpusCase],
    picks: &Picks,
    layers: Option<&mut Layers>,
    id: u64,
) -> Result<Batch, String> {
    let start = Instant::now();
    let tracer = layers
        .is_some()
        .then(|| (Instant::now(), Arc::new(Tracer::enabled())));
    let mut engine = Engine::with_jobs(JOBS);
    if let Some((_, t)) = &tracer {
        engine = engine.with_tracer(Arc::clone(t));
    }
    let artifacts = cases
        .iter()
        .map(|c| compile_stylesheet_cached(&engine, &c.schema_src, &c.xslt_src))
        .collect::<Result<Vec<_>, _>>()?;
    let compiled = Instant::now();
    let compile_events = tracer.as_ref().map(|(_, t)| t.take_events());
    let deciders: Vec<TopdownDecider> = artifacts
        .iter()
        .map(|a| TopdownDecider::new(&a.transducer))
        .collect();
    let retention: Vec<(TextRetentionDecider, usize)> = picks
        .firsts
        .iter()
        .map(|&i| {
            let a = &artifacts[i];
            (
                TextRetentionDecider::new(&a.transducer, a.alpha.symbols().collect()),
                i,
            )
        })
        .collect();
    let conformance: Vec<(OutputConformanceDecider, usize)> = picks
        .conform
        .iter()
        .map(|&i| {
            (
                OutputConformanceDecider::new(&artifacts[i].transducer, &artifacts[i].schema),
                i,
            )
        })
        .collect();
    let mut tasks: Vec<Task> = deciders
        .iter()
        .zip(&artifacts)
        .map(|(d, a)| (d as &dyn Decider, &a.schema))
        .collect();
    tasks.extend(
        retention
            .iter()
            .map(|(d, i)| (d as &dyn Decider, &artifacts[*i].schema)),
    );
    tasks.extend(
        conformance
            .iter()
            .map(|(d, i)| (d as &dyn Decider, &artifacts[*i].schema)),
    );
    let checked = Instant::now();
    let verdicts = engine.check_many_governed(&tasks, &CheckOptions::unlimited());
    let done = Instant::now();
    if let (Some(l), Some((epoch, tracer))) = (layers, tracer) {
        l.span("op", "", id, start, done);
        l.span("frontend/compile", "op", id, start, compiled);
        l.span("engine/batch", "op", id, checked, done);
        l.engine(
            id,
            epoch,
            &compile_events.unwrap_or_default(),
            "frontend/compile",
        );
        l.engine(id, epoch, &tracer.take_events(), "engine/batch");
        for v in verdicts.iter().flatten() {
            l.stages(&v.stats.stages);
        }
        let cache = engine.cache_stats();
        l.add("cache.hits", cache.hits as f64);
        l.add("cache.misses", cache.misses as f64);
        l.add("cache.evictions", cache.evictions as f64);
        let sched = engine.batch_stats();
        l.add("scheduler.stage_tasks", sched.stage_tasks as f64);
        l.add("scheduler.steals", sched.steals as f64);
        l.add("scheduler.wall_ms", (done - checked).as_secs_f64() * 1e3);
    }
    Ok(Batch {
        artifacts,
        verdicts,
    })
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured {
        cost: ClassCost::Median,
        ..Measured::default()
    };
    let cases = set_up(ctx)?;
    m.setup.push(ctx.started.elapsed());
    let workers = JOBS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));

    let mut layers = ctx.trace.then(Layers::new);
    if let Some(l) = layers.as_mut() {
        l.set_width("engine/batch", workers as f64);
    }
    let picks = Picks::new(&cases)?;
    let mut checker = Checker::new(&cases);
    let batches = ctx.rounds(BATCH_S, if ctx.trace { 2 } else { 1 });
    // The other set-ups are spread over the timed phase, between batches,
    // so their median does not hang on one moment of the host's load.
    let every = (batches / SETUP_REPS).max(1);
    let phase = Instant::now();
    for b in 0..batches {
        if phase.elapsed() > ctx.overrun_cap() {
            break;
        }
        if b % every == every / 2 && m.setup.len() < SETUP_REPS {
            let t0 = Instant::now();
            set_up(ctx)?;
            m.setup.push(t0.elapsed());
        }
        let traced = ctx.trace && b % 2 == 1;
        let started = Instant::now();
        let out = batch(
            &cases,
            &picks,
            if traced { layers.as_mut() } else { None },
            b as u64 + 1,
        )?;
        let took = started.elapsed();
        m.attempted += out.verdicts.len() as u64;
        let failed = out.verdicts.iter().filter(|v| v.is_err()).count() as u64;
        m.failed += failed;
        let class = m.class("batch: 2000 pairs, 45 retention, 12 conformance");
        m.sample(class, took, failed == 0);
        if let Some(l) = layers.as_mut() {
            l.round(traced, took.as_secs_f64());
        }
        checker.check(&cases, &picks, &out, &mut m.problems);
    }
    m.wall = phase.elapsed();
    // Memory is read before the replays, whose schema-tree enumerations
    // are the harness's own work.
    m.peak_rss_mb = peak_rss_mb(false);
    checker.replay_pending(&cases, &mut m.problems);
    checker.self_test(&cases, &mut m.problems);

    if let Some(mut l) = layers {
        let busy = l.children_ms("engine/batch");
        l.set("scheduler.busy_ms", busy);
        let wall = l.value("scheduler.wall_ms");
        l.set(
            "scheduler.efficiency",
            busy / (wall * workers as f64).max(1e-9),
        );
        l.base(
            "scheduler.efficiency",
            format!("busy over wall x {workers} workers"),
        );
        l.set("xslt.compile_ms", l.span_ms("xslt/compile"));
        l.set("xslt.compiles", l.span_misses("xslt/compile") as f64);
        l.finish();
        let table = l
            .write("corpus-batch", ctx.seed)
            .map_err(|e| e.to_string())?;
        eprint!("{table}");
        m.layers = Some(l);
    }
    Ok(m)
}

/// One set-up: generate the corpus and run one untimed warm-up batch.
fn set_up(ctx: &Ctx) -> Result<Vec<CorpusCase>, String> {
    let cases = xslt_corpus(CASES, ctx.seed);
    batch(&cases, &Picks::new(&cases)?, None, 0)?;
    Ok(cases)
}

/// What a batch's verdict at some position answers.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Asked {
    Preservation,
    Retention,
    Conformance,
}

/// Checks every verdict: text-preservation against the ground truth as it
/// comes, and each distinct (pair, analysis, outcome) once, after the timed
/// phase, by replay and bounded enumeration.
struct Checker {
    /// Case index → index of its distinct source pair.
    pair_of: Vec<usize>,
    /// Distinct (pair, analysis, outcome) seen so far.
    seen: std::collections::HashSet<(usize, Asked, String)>,
    /// The first output of each, waiting for its replay.
    pending: Vec<(usize, Asked, Outcome, Arc<XsltArtifact>)>,
    /// One checked output per analysis and outcome kind, for the self-test.
    samples: HashMap<(Asked, &'static str), (usize, Outcome, Arc<XsltArtifact>)>,
}

impl Checker {
    fn new(cases: &[CorpusCase]) -> Self {
        let mut ids: HashMap<(&str, &str), usize> = HashMap::new();
        let pair_of = cases
            .iter()
            .map(|c| {
                let next = ids.len();
                *ids.entry((&c.schema_src, &c.xslt_src)).or_insert(next)
            })
            .collect();
        Checker {
            pair_of,
            seen: Default::default(),
            pending: Vec::new(),
            samples: HashMap::new(),
        }
    }

    fn check(
        &mut self,
        cases: &[CorpusCase],
        picks: &Picks,
        out: &Batch,
        problems: &mut Vec<String>,
    ) {
        for ((i, what), verdict) in picks.asked(cases.len()).zip(&out.verdicts) {
            let case = &cases[i];
            let v = match verdict {
                Ok(v) => v,
                Err(e) => {
                    problems.push(format!("{}: {e}", case.name));
                    continue;
                }
            };
            if what == Asked::Preservation {
                if let Err(e) = truth(case, &v.outcome) {
                    problems.push(e);
                    continue;
                }
            }
            if self
                .seen
                .insert((self.pair_of[i], what, format!("{:?}", v.outcome)))
            {
                self.pending
                    .push((i, what, v.outcome.clone(), Arc::clone(&out.artifacts[i])));
            }
        }
    }

    /// Replays each distinct output once.
    fn replay_pending(&mut self, cases: &[CorpusCase], problems: &mut Vec<String>) {
        for (i, what, outcome, a) in std::mem::take(&mut self.pending) {
            if let Err(e) = replay(&a, what, &outcome) {
                problems.push(format!("{} ({}): {e}", cases[i].name, asked_name(what)));
                continue;
            }
            self.samples
                .entry((what, checks::outcome_name(&outcome)))
                .or_insert((i, outcome, a));
        }
    }

    /// Feeds the ground-truth check a flipped verdict, and the replay a
    /// flipped pass or a corrupted witness, once per analysis and outcome
    /// kind seen.
    fn self_test(&self, cases: &[CorpusCase], problems: &mut Vec<String>) {
        for (&(what, _), (i, outcome, a)) in &self.samples {
            let labels: Vec<_> = a.alpha.symbols().collect();
            let prop = property(what, a, &labels);
            let m = Machine::Topdown(&a.transducer);
            let name = format!("{} ({})", cases[*i].name, asked_name(what));
            let flip = checks::flipped(m, prop, &a.schema, outcome);
            if let (Asked::Preservation, Some(bad)) = (what, &flip) {
                checks::expect_rejected(
                    &format!("{name} with its verdict flipped"),
                    truth(&cases[*i], bad),
                    problems,
                );
            }
            let bad = if outcome.is_preserving() {
                flip
            } else {
                checks::corrupted(m, prop, &a.schema, outcome)
            };
            if let Some(bad) = bad {
                checks::expect_rejected(
                    &format!("{name} with a flipped verdict or corrupted witness"),
                    replay(a, what, &bad),
                    problems,
                );
            }
        }
    }
}

fn asked_name(what: Asked) -> &'static str {
    match what {
        Asked::Preservation => "text-preservation",
        Asked::Retention => "text-retention",
        Asked::Conformance => "conformance",
    }
}

/// The property a verdict answers: retention is asked under every label,
/// conformance against the pair's own schema.
fn property<'a>(what: Asked, a: &'a XsltArtifact, labels: &'a [Symbol]) -> Property<'a> {
    match what {
        Asked::Preservation => Property::TextPreservation,
        Asked::Retention => Property::TextRetention(labels),
        Asked::Conformance => Property::Conformance(&a.schema),
    }
}

/// The verdict must be the generator's ground truth.
fn truth(case: &CorpusCase, outcome: &Outcome) -> Result<(), String> {
    let got = checks::outcome_name(outcome);
    if got == checks::corpus_truth(case) {
        Ok(())
    } else {
        Err(format!(
            "{}: verdict {got}, ground truth {}",
            case.name,
            checks::corpus_truth(case)
        ))
    }
}

/// A violation must replay on its witness; a pass must hold on every
/// schema tree of at most six nodes.
fn replay(a: &XsltArtifact, what: Asked, outcome: &Outcome) -> Result<(), String> {
    let labels: Vec<Symbol> = a.alpha.symbols().collect();
    checks::check_outcome(
        Machine::Topdown(&a.transducer),
        property(what, a, &labels),
        &a.schema,
        outcome,
        Some((6, 500)),
    )
}
