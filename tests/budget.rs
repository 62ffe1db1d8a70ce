//! Budget semantics over the regression corpus: resource governance must
//! be *observably inert* when the budget is generous — same verdicts, no
//! degradation — and fail fast when it is zero.
//!
//! The corpus (`tests/regressions/*.case`) is the same one the replay
//! suite uses, so every schema/transducer pair here once mattered enough
//! to be a shrunk fuzzer reproducer.

use textpres::engine::{
    Budget, CheckOptions, Decider, DtlDecider, Engine, OutputConformanceDecider,
    TextRetentionDecider, TopdownDecider,
};
use textpres::format::parse_case;
use textpres::prelude::{Alphabet, DtlBuilder, NtaBuilder};
use textpres::treeauto::{complement_nta, difference_nta, Nta};
use textpres::trees::budget::BudgetHandle;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/regressions");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(dir).expect("tests/regressions exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "case") {
            let src = std::fs::read_to_string(&path).expect("readable case file");
            cases.push((path.display().to_string(), src));
        }
    }
    assert!(!cases.is_empty(), "regression corpus must not be empty");
    cases.sort();
    cases
}

/// Runs `decider` ungoverned and under `options` (each on a fresh cache,
/// so fuel is attributed to real builds) and checks the verdicts agree.
fn assert_budget_inert(decider: &dyn Decider, nta: &Nta, options: &CheckOptions, path: &str) {
    let plain = Engine::new().check(decider, nta);
    let governed = Engine::new()
        .check_governed(decider, nta, options)
        .unwrap_or_else(|e| panic!("{path}: generous budget exhausted: {e}"));
    assert_eq!(
        plain.is_preserving(),
        governed.is_preserving(),
        "{path}: the budget changed the verdict"
    );
    assert!(
        governed.degraded.is_none(),
        "{path}: a generous budget must not degrade"
    );
    assert!(
        governed.stats.stages.iter().all(|s| s.fuel.is_some()),
        "{path}: governed stages must account fuel"
    );
    assert!(
        plain.stats.stages.iter().all(|s| s.fuel.is_none()),
        "{path}: ungoverned stages must not report fuel"
    );
}

#[test]
fn generous_budget_changes_no_corpus_verdict() {
    // Top-down cases only: the symbolic DTL decider is EXPTIME and the
    // corpus DTL programs take minutes per check in a debug build, so
    // their parity coverage lives in `generous_budget_is_inert_for_dtl`
    // (small fixed programs) and their exhaustion coverage in
    // `zero_fuel_exhausts_on_every_corpus_case` (fails fast).
    let options = CheckOptions::with_budget(Budget::default().with_fuel(500_000_000));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        if let Some(t) = &rc.case.transducer {
            assert_budget_inert(&TopdownDecider::new(t), &nta, &options, &path);
        }
    }
}

#[test]
fn generous_budget_is_inert_for_retention_and_conformance() {
    // The two new analyses obey the same governance contract as
    // text-preservation, over the same corpus pairs: retention over the
    // full alphabet (the strictest label set) and conformance against the
    // case's own schema.
    let options = CheckOptions::with_budget(Budget::default().with_fuel(500_000_000));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        if let Some(t) = &rc.case.transducer {
            let labels: Vec<_> = rc.case.alpha.symbols().collect();
            assert_budget_inert(&TextRetentionDecider::new(t, labels), &nta, &options, &path);
            assert_budget_inert(
                &OutputConformanceDecider::new(t, &nta),
                &nta,
                &options,
                &path,
            );
        }
    }
}

#[test]
fn zero_fuel_exhausts_retention_and_conformance() {
    let options = CheckOptions::with_budget(Budget::default().with_fuel(0));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        let engine = Engine::new();
        if let Some(t) = &rc.case.transducer {
            let labels: Vec<_> = rc.case.alpha.symbols().collect();
            let err = engine
                .check_governed(&TextRetentionDecider::new(t, labels), &nta, &options)
                .expect_err("zero fuel cannot complete a retention check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
            let err = engine
                .check_governed(&OutputConformanceDecider::new(t, &nta), &nta, &options)
                .expect_err("zero fuel cannot complete a conformance check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
        }
    }
}

#[test]
fn generous_budget_is_inert_for_dtl() {
    let alpha = Alphabet::from_labels(["a", "b"]);
    let mut b = NtaBuilder::new(&alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    let uni = b.finish();

    // Identity (preserving) and a text-dropping (still preserving) DTL
    // program — both small enough that the symbolic check runs in seconds.
    let mut b = DtlBuilder::new(&alpha, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child");
    b.rule_simple("q0", "b", "b", "q0", "child");
    b.text_rule("q0");
    let identity = b.finish();
    let mut b = DtlBuilder::new(&alpha, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child[b]");
    b.rule_simple("q0", "b", "b", "qt", "child[text()]");
    b.text_rule("qt");
    let dropping = b.finish();

    let options = CheckOptions::with_budget(Budget::default().with_fuel(500_000_000));
    assert_budget_inert(&DtlDecider::new(&identity), &uni, &options, "dtl/identity");
    assert_budget_inert(&DtlDecider::new(&dropping), &uni, &options, "dtl/dropping");
}

/// `L(a) = L(b)`, decided by emptiness of the eager difference in both
/// directions.
fn same_language(a: &Nta, b: &Nta) -> bool {
    let unlimited = BudgetHandle::unlimited();
    let empty = |x: &Nta, y: &Nta| {
        let d = difference_nta(x, y, &unlimited).expect("unlimited budget");
        d.is_empty(&unlimited).expect("unlimited budget")
    };
    empty(a, b) && empty(b, a)
}

#[test]
fn generous_budget_is_inert_for_treeauto_set_ops() {
    // The automata-level ops (complement / difference) must build the same
    // language under generous fuel as under an unlimited budget, and
    // exhaust immediately under none. Corpus schemas keep the shapes
    // honest — these are the automata the lazy decision layer feeds on.
    let unlimited = BudgetHandle::unlimited();
    let generous = textpres::trees::budget::Budget::default()
        .with_fuel(200_000_000)
        .start();
    let zero = textpres::trees::budget::Budget::default()
        .with_fuel(0)
        .start();
    let mut schemas: Vec<(String, Nta)> = Vec::new();
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        schemas.push((path, rc.case.schema_nta()));
    }
    for (path, nta) in &schemas {
        let plain = complement_nta(nta, &unlimited).expect("unlimited budget");
        let governed = complement_nta(nta, &generous)
            .unwrap_or_else(|e| panic!("{path}: generous complement exhausted: {e}"));
        assert!(
            same_language(&plain, &governed),
            "{path}: budget changed the complement language"
        );
        assert!(
            complement_nta(nta, &zero).is_err(),
            "{path}: zero fuel must exhaust the complement"
        );
    }
    // Difference over a corpus pair: same inertness contract.
    let (p1, n1) = &schemas[0];
    let (p2, n2) = &schemas[schemas.len() - 1];
    let plain = difference_nta(n1, n2, &unlimited).expect("unlimited budget");
    let governed = difference_nta(n1, n2, &generous)
        .unwrap_or_else(|e| panic!("{p1} \\ {p2}: generous difference exhausted: {e}"));
    assert!(
        same_language(&plain, &governed),
        "{p1} \\ {p2}: budget changed the difference language"
    );
    assert!(generous.fuel_spent() > 0, "governed ops must account fuel");
}

#[test]
fn zero_fuel_exhausts_on_every_corpus_case() {
    let options = CheckOptions::with_budget(Budget::default().with_fuel(0));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        let engine = Engine::new();
        if let Some(t) = &rc.case.transducer {
            let err = engine
                .check_governed(&TopdownDecider::new(t), &nta, &options)
                .expect_err("zero fuel cannot complete a top-down check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
        }
        if let Some(prog) = rc.case.dtl_program() {
            let err = engine
                .check_governed(&DtlDecider::new(&prog), &nta, &options)
                .expect_err("zero fuel cannot complete a DTL check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
        }
    }
}
