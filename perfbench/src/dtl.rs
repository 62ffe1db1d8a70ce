//! `dtl-symbolic`: one operation is one cold `DTL_XPath` check from source
//! (Theorem 5.18) — parse the schema and the DTL program, build a fresh
//! engine, run the symbolic decider. The only workload that runs
//! `tpx-dtl`, `tpx-mso` and `tpx-treeauto`.
//!
//! A round holds three programs over universal schemas, whose costs lie far
//! enough apart that the median always falls on the identity program, and
//! two DTL translations of E11 stylesheets. The translations are a known
//! fault of the DTL route: none finishes in seconds (the smallest needs
//! about 22 s), while the top-down route decides the same pairs in about
//! 0.1 ms. Each runs under a wall-clock deadline and counts as failed unless
//! it returns the top-down route's verdict. A deadline, not fuel, caps them:
//! fuel does not bound time on this route.
//!
//! Each program is a cost class with one repeat per round, each near a
//! second long; its cost is the median repeat (see `ClassCost::Median`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use textpres::dtl::{DtlTransducer, XPathPatterns};
use textpres::engine::{Budget, CheckOptions, DtlDecider, Engine, Outcome, TopdownDecider, Tracer};
use textpres::format::{parse_dtl_transducer, parse_schema};
use textpres::frontend::compile_stylesheet;
use textpres::treeauto::Nta;
use textpres::trees::rng::SplitMix64;
use textpres::trees::Alphabet;
use tpx_workload::xslt_corpus;

use crate::checks::{self, Machine, Property};
use crate::inputs;
use crate::layers::Layers;
use crate::report::{peak_rss_mb, ClassCost, Measured};
use crate::Ctx;

/// One round's length on the reference host, in seconds.
const ROUND_S: f64 = 2.5;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Deadline of a named-fault operation. Each translation needs tens of
/// seconds, so no deadline the run can afford tells more; a short one keeps
/// the memory the cut-off search has reached (about 20 MB at 0.2 s, 40 MB
/// at 0.5 s, 100 MB at 1 s) below that of the programs that finish, so the
/// peak does not depend on how far the host's speed let the search get.
const FAULT_DEADLINE: Duration = Duration::from_millis(200);
/// Deadline of every other operation: far above its cost, so it never trips.
const DEADLINE: Duration = Duration::from_secs(60);
/// The E11 cases whose DTL translations the round carries: the smallest
/// (identity over the six-label BPMN schema) and a TEI markup stripper.
/// Fixed, not seeded, so the failing operations are the same in every run.
const FAULT_CORPUS: (usize, u64) = (60, 0xE11);
const FAULT_CASES: [&str; 2] = ["bpmn1-identity-17", "tei1-strip-10"];

enum Expect {
    /// Identity over a universal schema: preserving by Theorem 3.3.
    Identity,
    /// Judged by witness replay and bounded enumeration.
    Replay,
    /// A translation: must return the top-down route's verdict.
    TopdownSays(bool),
}

struct Program {
    name: String,
    schema_src: String,
    dtl_src: String,
    expect: Expect,
    deadline: Duration,
}

struct Parsed {
    schema: Nta,
    t: DtlTransducer<XPathPatterns>,
}

fn parse(p: &Program) -> Result<Parsed, String> {
    let mut alpha = Alphabet::new();
    let schema = parse_schema(&p.schema_src, &mut alpha)
        .map_err(|e| format!("{}: schema: {e}", p.name))?
        .to_nta();
    let t = parse_dtl_transducer(&p.dtl_src, &alpha)
        .map_err(|e| format!("{}: program: {e}", p.name))?;
    Ok(Parsed { schema, t })
}

/// One round: the seed names the labels; the programs' shapes are fixed.
fn round(seed: u64) -> Result<Vec<Program>, String> {
    let mut rng = SplitMix64::new(seed ^ 0xD71_5EED);
    let one = inputs::labels(&inputs::prefix(&mut rng, "u"), 1);
    let two = inputs::labels(&inputs::prefix(&mut rng, "v"), 2);
    let a = two[0].as_str();
    let mut out = vec![
        Program {
            name: "universal1-textless".into(),
            schema_src: inputs::universal_schema(&one),
            dtl_src: inputs::dtl_program(&[(&one[0], Some(&one[0]), "child")], false),
            expect: Expect::Replay,
            deadline: DEADLINE,
        },
        Program {
            name: "universal1-identity".into(),
            schema_src: inputs::universal_schema(&one),
            dtl_src: inputs::dtl_program(&[(&one[0], Some(&one[0]), "child")], true),
            expect: Expect::Identity,
            deadline: DEADLINE,
        },
        Program {
            name: "universal2-drop".into(),
            schema_src: inputs::universal_schema(&two),
            dtl_src: inputs::dtl_program(&[(a, Some(a), "child")], true),
            expect: Expect::Replay,
            deadline: DEADLINE,
        },
    ];
    let (n, corpus_seed) = FAULT_CORPUS;
    for case in xslt_corpus(n, corpus_seed) {
        if !FAULT_CASES.contains(&case.name.as_str()) {
            continue;
        }
        let artifact = compile_stylesheet(&case.schema_src, &case.xslt_src)?;
        let dtl_src = artifact
            .dtl
            .ok_or_else(|| format!("{} has no DTL translation", case.name))?;
        let reference = Engine::new()
            .check_governed(
                &TopdownDecider::new(&artifact.transducer),
                &artifact.schema,
                &CheckOptions::unlimited(),
            )
            .map_err(|e| format!("{}: top-down route: {e}", case.name))?;
        out.push(Program {
            name: format!("e11-{}", case.name),
            schema_src: case.schema_src,
            dtl_src,
            expect: Expect::TopdownSays(reference.is_preserving()),
            deadline: FAULT_DEADLINE,
        });
    }
    if out.len() != 3 + FAULT_CASES.len() {
        return Err("the E11 corpus no longer holds the named translations".into());
    }
    Ok(out)
}

/// One cold check. `Ok(None)` is the named fault: a translation ran out of
/// its deadline.
fn op(p: &Program, layers: Option<&mut Layers>, id: u64) -> Result<Option<Outcome>, String> {
    let start = Instant::now();
    let parsed = parse(p)?;
    let parse_done = Instant::now();
    let tracer = layers
        .is_some()
        .then(|| (Instant::now(), Arc::new(Tracer::enabled())));
    let engine = match &tracer {
        Some((_, t)) => Engine::new().with_tracer(Arc::clone(t)),
        None => Engine::new(),
    };
    let options = CheckOptions::with_budget(Budget::default().with_timeout(p.deadline));
    let result = engine.check_governed(&DtlDecider::new(&parsed.t), &parsed.schema, &options);
    let done = Instant::now();
    if let (Some(l), Some((epoch, tracer))) = (layers, tracer) {
        l.span("op", "", id, start, done);
        l.span("format/parse", "op", id, start, parse_done);
        l.span("engine/check", "op", id, parse_done, done);
        l.engine(id, epoch, &tracer.take_events(), "engine/check");
        l.add("format.sources", 2.0);
        l.add("format.parse_ms", (parse_done - start).as_secs_f64() * 1e3);
        if let Ok(v) = &result {
            l.stages(&v.stats.stages);
        }
        let cache = engine.cache_stats();
        l.add("cache.hits", cache.hits as f64);
        l.add("cache.misses", cache.misses as f64);
        l.add("cache.evictions", cache.evictions as f64);
    }
    Ok(match (result, &p.expect) {
        (Ok(v), _) => Some(v.outcome),
        (Err(e), Expect::TopdownSays(_)) if e.is_resource_exhausted() => None,
        (Err(e), _) => return Err(format!("{}: {e}", p.name)),
    })
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured {
        cost: ClassCost::Median,
        ..Measured::default()
    };
    let mut programs = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        programs = round(ctx.seed)?;
        for p in &programs {
            op(p, None, 0)?;
        }
        m.setup.push(start.elapsed());
    }

    let mut layers = ctx.trace.then(Layers::new);
    let rounds = ctx.rounds(ROUND_S, if ctx.trace { 2 } else { 1 });
    let mut outputs: Vec<(usize, Outcome)> = Vec::new();
    let phase = Instant::now();
    let mut id = 0;
    for r in 0..rounds {
        if phase.elapsed() > ctx.overrun_cap() {
            break;
        }
        let traced = ctx.trace && r % 2 == 1;
        let round_start = Instant::now();
        for (i, p) in programs.iter().enumerate() {
            id += 1;
            let started = Instant::now();
            let result = op(p, if traced { layers.as_mut() } else { None }, id);
            let took = started.elapsed();
            let passed = matches!(&result, Ok(Some(o)) if agrees(p, o));
            let class = m.class(&p.name);
            m.sample(class, took, passed);
            m.attempted += 1;
            if !passed {
                m.failed += 1;
            }
            match result {
                // A finished translation that disagrees with the top-down
                // route fails its operation and, in `check`, the run.
                Ok(Some(outcome)) => outputs.push((i, outcome)),
                Ok(None) => {}
                Err(e) => m.problems.push(format!("operation failed: {e}")),
            }
        }
        if let Some(l) = layers.as_mut() {
            l.round(traced, round_start.elapsed().as_secs_f64());
        }
    }
    m.wall = phase.elapsed();
    m.peak_rss_mb = peak_rss_mb(false);

    check_outputs(&programs, &outputs, &mut m.problems)?;
    if let Some(mut l) = layers {
        l.finish();
        let table = l
            .write("dtl-symbolic", ctx.seed)
            .map_err(|e| e.to_string())?;
        eprint!("{table}");
        m.layers = Some(l);
    }
    Ok(m)
}

/// Bounded enumeration for passing verdicts over the universal schemas.
const BOUND: (usize, usize) = (6, 2000);

/// Whether a finished check answers as the top-down route does, for the
/// translations that have one.
fn agrees(p: &Program, outcome: &Outcome) -> bool {
    match p.expect {
        Expect::TopdownSays(want) => outcome.is_preserving() == want,
        _ => true,
    }
}

/// The check of one output: the top-down route's verdict for translations,
/// Theorem 3.3 for identities, then replay and bounded enumeration on the
/// program's own semantics.
fn check(p: &Program, parsed: &Parsed, outcome: &Outcome) -> Result<(), String> {
    if !agrees(p, outcome) {
        return Err(format!(
            "the DTL route says {}, the top-down route the opposite",
            checks::outcome_name(outcome)
        ));
    }
    if matches!(p.expect, Expect::Identity) && !outcome.is_preserving() {
        return Err("an identity program over a universal schema must be preserving".into());
    }
    checks::check_outcome(
        Machine::Dtl(&parsed.t),
        Property::TextPreservation,
        &parsed.schema,
        outcome,
        Some(BOUND),
    )
}

fn check_outputs(
    programs: &[Program],
    outputs: &[(usize, Outcome)],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let parsed: Vec<Parsed> = programs.iter().map(parse).collect::<Result<_, _>>()?;
    let mut seen = std::collections::HashSet::new();
    for (i, outcome) in outputs {
        if !seen.insert((*i, format!("{outcome:?}"))) {
            continue;
        }
        if let Err(e) = check(&programs[*i], &parsed[*i], outcome) {
            problems.push(format!("{}: {e}", programs[*i].name));
        }
    }
    // Self-test: every program's verdict flipped must be rejected. The
    // translations never finish, so theirs is the top-down verdict flipped.
    for (i, p) in programs.iter().enumerate() {
        if let Expect::TopdownSays(preserving) = p.expect {
            let flip = if preserving {
                Outcome::NotPreserving {
                    witness: textpres::trees::Tree::text("τ"),
                }
            } else {
                Outcome::Preserving
            };
            checks::expect_rejected(
                &format!("{} answering against the top-down route", p.name),
                check(p, &parsed[i], &flip),
                problems,
            );
            continue;
        }
        let Some((_, outcome)) = outputs.iter().find(|(j, _)| *j == i) else {
            continue;
        };
        let m = Machine::Dtl(&parsed[i].t);
        let flip = checks::flipped(m, Property::TextPreservation, &parsed[i].schema, outcome)
            .unwrap_or(Outcome::NotPreserving {
                witness: textpres::trees::Tree::text("τ"),
            });
        checks::expect_rejected(
            &format!("{} with its verdict flipped", p.name),
            check(p, &parsed[i], &flip),
            problems,
        );
    }
    Ok(())
}
