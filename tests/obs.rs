//! Observability contract tests: tracing determinism across worker
//! counts, metrics aggregation, and the disabled-is-silent guarantee.
//!
//! Span *names* are deterministic — the pipelines run the same stages no
//! matter which worker executes them — so a sequential batch and a
//! `jobs = 4` batch over the same tasks must emit the same multiset of
//! span names and identical verdicts. Timings and interleaving may
//! differ, so only names and counters are compared, never durations.

use std::collections::BTreeMap;
use std::sync::Arc;

use textpres::engine::{
    Budget, CheckOptions, Decider, DtlDecider, Engine, Metrics, OutputConformanceDecider,
    SpanFields, Task, TextRetentionDecider, TopdownDecider, TraceEvent, Tracer, Verdict,
};
use textpres::prelude::*;
use tpx_workload::transducers;

fn universal(alpha: &Alphabet) -> Nta {
    let mut b = NtaBuilder::new(alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    b.finish()
}

/// Multiset of exited span names.
fn span_multiset(tracer: &Tracer) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for name in tracer.exit_span_names() {
        *counts.entry(name).or_insert(0usize) += 1;
    }
    counts
}

/// Runs the workload suite as a traced, metered batch on `jobs` workers.
fn run_batch(jobs: usize) -> (BTreeMap<&'static str, usize>, Vec<Verdict>, Metrics) {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let suite: Vec<_> = transducers::suite(&alpha, 4)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let deciders: Vec<TopdownDecider> = suite.iter().map(TopdownDecider::new).collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .map(|d| (d as &dyn Decider, &schema))
        .collect();
    let tracer = Arc::new(Tracer::enabled());
    let metrics = Arc::new(Metrics::enabled());
    let engine = Engine::with_jobs(jobs)
        .with_tracer(tracer.clone())
        .with_metrics(metrics.clone());
    let verdicts: Vec<Verdict> = engine
        .check_many_governed(&tasks, &CheckOptions::unlimited())
        .into_iter()
        .map(|r| r.expect("suite checks succeed"))
        .collect();
    let spans = span_multiset(&tracer);
    drop(engine); // release the engine's clones so the Arc unwraps
    let metrics = Arc::try_unwrap(metrics).unwrap_or_else(|_| panic!("engine dropped"));
    (spans, verdicts, metrics)
}

#[test]
fn batch_tracing_is_deterministic_across_worker_counts() {
    let (spans_seq, verdicts_seq, metrics_seq) = run_batch(1);
    // Every engine-level stage span closed as often as it opened: the
    // Verdict stage reports account for the same stages the tracer saw.
    assert!(!spans_seq.is_empty());
    for v in &verdicts_seq {
        for s in &v.stats.stages {
            assert!(
                spans_seq.contains_key(s.stage),
                "stage {} missing from trace",
                s.stage
            );
        }
    }

    for jobs in [2usize, 4] {
        let (spans_par, verdicts_par, metrics_par) = run_batch(jobs);

        // Same span-name multiset, regardless of scheduling.
        assert_eq!(spans_seq, spans_par, "span multiset differs at jobs={jobs}");

        // Identical verdicts in task order.
        assert_eq!(verdicts_seq.len(), verdicts_par.len());
        for (a, b) in verdicts_seq.iter().zip(&verdicts_par) {
            assert_eq!(a.is_preserving(), b.is_preserving());
            assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
        }

        // Counters are deterministic too: the scheduler prefetches each
        // distinct artifact exactly once before the checks that need it,
        // so hit/miss totals — and every other counter — agree. (Duration
        // histograms are timing-dependent and deliberately not compared.)
        assert_eq!(
            metrics_seq.snapshot().counters,
            metrics_par.snapshot().counters,
            "metric counters differ at jobs={jobs}"
        );
    }
}

#[test]
fn disabled_tracer_and_metrics_emit_nothing() {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let t = transducers::identity_transducer(&alpha);
    let engine = Engine::new(); // disabled tracer + metrics by default
    let verdict = engine.check(&TopdownDecider::new(&t), &schema);
    assert!(verdict.is_preserving());
    assert!(!engine.tracer().is_enabled());
    assert!(engine.tracer().events().is_empty());
    assert!(engine.tracer().to_jsonl().is_empty());
    assert!(!engine.metrics().is_enabled());
    assert!(engine.metrics().snapshot().is_empty());
}

#[test]
fn single_check_trace_has_one_span_per_reported_stage() {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let t = transducers::identity_transducer(&alpha);
    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::new().with_tracer(tracer.clone());
    let verdict = engine.check(&TopdownDecider::new(&t), &schema);
    let spans = span_multiset(&tracer);
    for s in &verdict.stats.stages {
        assert_eq!(
            spans.get(s.stage),
            Some(&1),
            "stage {} should have exactly one span",
            s.stage
        );
    }
    // Enter/exit events pair up.
    let events = tracer.events();
    assert_eq!(events.len() % 2, 0);
    assert_eq!(
        events.iter().filter(|e| e.is_exit()).count() * 2,
        events.len()
    );
}

#[test]
fn every_stage_record_is_one_span_cold_and_warm() {
    // One engine, generous fuel: a cold check and a warm re-check per
    // decider. Over the comb schema (no text directly below the root) the
    // root swapper rearranges without copying, so both `topdown/decide/*`
    // sub-spans run.
    let (alpha, schema) = tpx_workload::comb_schema(2);
    let swapper = transducers::swapper_at_depth(&alpha, 2, 0);
    let topdown = TopdownDecider::new(&swapper);
    let retention = TextRetentionDecider::new(&swapper, alpha.symbols().collect());
    let conformance = OutputConformanceDecider::new(&swapper, &schema);
    let dtl_alpha = Alphabet::from_labels(["a", "b"]);
    let dtl_schema = universal(&dtl_alpha);
    let mut b = DtlBuilder::new(&dtl_alpha, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child");
    b.rule_simple("q0", "b", "b", "q0", "child");
    b.text_rule("q0");
    let identity = b.finish();
    let dtl = DtlDecider::new(&identity);

    type Case<'a> = (&'a dyn Decider, &'a Nta, &'a [&'a str], &'a [&'a str]);
    let cases: [Case; 4] = [
        (
            &topdown,
            &schema,
            &[
                "topdown/schema",
                "topdown/transducer/copying",
                "topdown/transducer/rearranging",
                "topdown/transducer",
                "topdown/decide/copying",
                "topdown/decide/rearranging",
                "topdown/decide",
            ],
            &[
                "topdown/schema",
                "topdown/transducer",
                "topdown/decide/copying",
                "topdown/decide/rearranging",
                "topdown/decide",
            ],
        ),
        (
            &retention,
            &schema,
            &[
                "topdown/schema",
                "topdown/retention/transducer",
                "topdown/retention/decide",
            ],
            &[
                "topdown/schema",
                "topdown/retention/transducer",
                "topdown/retention/decide",
            ],
        ),
        (
            &conformance,
            &schema,
            &["conformance/inverse", "conformance/decide"],
            &["conformance/inverse", "conformance/decide"],
        ),
        (
            &dtl,
            &dtl_schema,
            &[
                "dtl/schema",
                "dtl/counterexample/copying",
                "dtl/counterexample/rearranging",
                "dtl/counterexample",
                "dtl/decide/product",
                "dtl/decide/witness",
                "dtl/decide",
            ],
            &[
                "dtl/schema",
                "dtl/counterexample",
                "dtl/decide/product",
                "dtl/decide/witness",
                "dtl/decide",
            ],
        ),
    ];

    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::new().with_tracer(tracer.clone());
    let options = CheckOptions::with_budget(Budget::default().with_fuel(50_000_000));
    for (decider, schema, cold, warm) in cases {
        for (run, expected) in [("cold", cold), ("warm", warm)] {
            let verdict = engine
                .check_governed(decider, schema, &options)
                .unwrap_or_else(|e| panic!("{} {run}: {e}", decider.name()));
            let exits: Vec<(&str, SpanFields)> = tracer
                .take_events()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Exit { span, fields, .. } => Some((span, fields)),
                    TraceEvent::Enter { .. } => None,
                })
                .collect();
            let names: Vec<&str> = exits.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, expected, "{} {run}: span sequence", decider.name());
            for s in &verdict.stats.stages {
                let spans: Vec<&SpanFields> = exits
                    .iter()
                    .filter(|(name, _)| *name == s.stage)
                    .map(|(_, fields)| fields)
                    .collect();
                assert_eq!(spans.len(), 1, "{run} stage {} has one span", s.stage);
                let fields = spans[0];
                assert_eq!(fields.fuel, s.fuel, "{run} stage {} fuel", s.stage);
                assert!(s.fuel.is_some(), "{run} stage {} is governed", s.stage);
                assert_eq!(
                    fields.artifact_size, s.artifact_size,
                    "{run} stage {} size",
                    s.stage
                );
                assert_eq!(fields.cache_hit, s.cache_hit, "{run} stage {} hit", s.stage);
                if run == "warm" && s.cache_hit.is_some() {
                    assert_eq!(s.cache_hit, Some(true), "warm stage {} hits", s.stage);
                }
            }
        }
    }
}

#[test]
fn the_xslt_compile_record_is_one_span_cold_and_warm() {
    use textpres::frontend::{prepare, AnalysisRequest, XSLT_COMPILE_STAGE};
    const SCHEMA: &str = "start doc\nelem doc = (keep | text)*\nelem keep = text*\n";
    const IDENTITY: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="@*|node()">
    <xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy>
  </xsl:template>
</xsl:stylesheet>"#;
    let tracer = Arc::new(Tracer::enabled());
    let metrics = Arc::new(Metrics::enabled());
    let engine = Engine::new()
        .with_tracer(tracer.clone())
        .with_metrics(metrics.clone());
    let request = AnalysisRequest::<&str>::TextPreservation;
    for hit in [false, true] {
        let prepared = prepare(&engine, SCHEMA, IDENTITY, &request).expect("prepares");
        let report = prepared.compile.expect("a stylesheet reports its compile");
        assert_eq!(report.stage, XSLT_COMPILE_STAGE);
        assert_eq!(report.cache_hit, Some(hit));
        let exits: Vec<(&str, SpanFields)> = tracer
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Exit { span, fields, .. } => Some((span, fields)),
                TraceEvent::Enter { .. } => None,
            })
            .collect();
        assert_eq!(exits.len(), 1, "one span per prepare: {exits:?}");
        let (span, fields) = &exits[0];
        assert_eq!(*span, XSLT_COMPILE_STAGE);
        assert_eq!(fields.cache_hit, report.cache_hit);
        assert_eq!(fields.artifact_size, report.artifact_size);
    }
    let counters = metrics.snapshot().counters;
    assert_eq!(counters.get("stage/xslt/compile/misses"), Some(&1));
    assert_eq!(counters.get("stage/xslt/compile/hits"), Some(&1));
}
