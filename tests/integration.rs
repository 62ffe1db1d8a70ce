//! End-to-end integration tests across the whole workspace: the paper's
//! running example through every layer — parsing, validation, both
//! transducer models, both deciders, the maximal sub-schema, and the
//! extension tests.

use textpres::prelude::*;

#[test]
fn figure_1_through_every_layer() {
    // Trees + DTD (Sections 1–2).
    let mut sigma = tpx_trees::samples::recipe_alphabet();
    let input = tpx_trees::samples::recipe_tree(&mut sigma);
    let dtd = tpx_schema::samples::recipe_dtd(&sigma);
    assert!(dtd.validates(&input));
    assert!(dtd.is_reduced());

    // XML serialization round trip.
    let xml = tpx_trees::xml::to_xml(input.as_hedge(), &sigma);
    let back = tpx_trees::xml::parse_document(&xml, &mut sigma).unwrap();
    assert_eq!(*back.as_hedge(), *input.as_hedge());

    // The NTA abstraction accepts the same documents.
    let schema = dtd.to_nta();
    assert!(schema.accepts(&input));

    // Example 4.2 through evaluation + PTIME decision (Section 4).
    let t = tpx_topdown::samples::example_4_2(&sigma);
    let output = t.transform(&input);
    assert!(textpres::is_text_preserving_run(&input, &output));
    assert!(textpres::check_topdown(&t, &schema).is_preserving());

    // The same transducer as DTL (Section 5.1 translation) agrees.
    let dtl = tpx_dtl::from_topdown(&t);
    assert_eq!(dtl.transform(&input).unwrap(), output);

    // Example 5.15 (DTL_XPath) evaluates and is per-tree clean.
    let filter = tpx_dtl::samples::example_5_15(&sigma);
    let filtered = filter.transform(&input).unwrap();
    assert!(textpres::is_text_preserving_run(&input, &filtered));
    assert!(!tpx_dtl::config::copying_lemma_5_4(&filter, &input).unwrap());
    assert!(!tpx_dtl::config::rearranging_lemma_5_5(&filter, &input).unwrap());
}

#[test]
fn violations_are_detected_and_witnessed() {
    let sigma = tpx_trees::samples::recipe_alphabet();
    let schema = tpx_schema::samples::recipe_dtd(&sigma).to_nta();

    let copying = tpx_topdown::samples::copying_example(&sigma);
    let report = textpres::check_topdown(&copying, &schema);
    assert!(matches!(report, CheckReport::Copying { .. }));

    let rearranging = tpx_topdown::samples::rearranging_example(&sigma);
    match textpres::check_topdown(&rearranging, &schema) {
        CheckReport::Rearranging { witness } => {
            assert!(schema.accepts(&witness));
            assert!(tpx_topdown::semantic::rearranging_on(
                &rearranging,
                &witness
            ));
        }
        other => panic!("expected rearranging, got {other:?}"),
    }
}

#[test]
fn maximal_subschema_is_sound_and_maximal_on_samples() {
    // Copying under <footnote> only.
    let sigma = Alphabet::from_labels(["doc", "p", "footnote"]);
    let mut dtd = DtdBuilder::new(&sigma);
    dtd.start("doc");
    dtd.elem("doc", "(p | footnote)*");
    dtd.elem("p", "text");
    dtd.elem("footnote", "text");
    let schema = dtd.finish().to_nta();

    let mut tb = TransducerBuilder::new(&sigma, "q0");
    tb.state("qf");
    tb.rule("q0", "doc", "doc(q0)");
    tb.rule("q0", "p", "p(q0)");
    tb.rule("q0", "footnote", "footnote(qf qf)");
    tb.text_rule("q0");
    tb.text_rule("qf");
    let t = tb.finish();

    let max = textpres::topdown_maximal_subschema(&t, &schema);
    // Soundness: 30 sampled members are all semantically preserved.
    let mut found = 0;
    for seed in 0..60 {
        if let Some(tree) = tpx_workload::random_schema_tree(&max, 12, seed) {
            let unique = Tree::from_hedge(tpx_trees::make_value_unique(tree.as_hedge())).unwrap();
            assert!(tpx_topdown::semantic::text_preserving_on(&t, &unique));
            found += 1;
        }
        if found >= 30 {
            break;
        }
    }
    assert!(found >= 10, "sub-schema should be richly inhabited");
    // Maximality: everything carved out is a genuine counter-example.
    let budget = tpx_trees::budget::BudgetHandle::unlimited();
    let carved = tpx_treeauto::difference_nta(&schema, &max, &budget).unwrap();
    let cex = carved
        .witness(&budget)
        .unwrap()
        .expect("the copying region is non-empty");
    let unique = Tree::from_hedge(tpx_trees::make_value_unique(cex.as_hedge())).unwrap();
    assert!(!tpx_topdown::semantic::text_preserving_on(&t, &unique));
}

#[test]
fn dtl_and_topdown_deciders_agree_via_translation() {
    // Tiny alphabet and schema so the symbolic DTL decider stays fast.
    let sigma = Alphabet::from_labels(["a", "b"]);
    let mut nb = NtaBuilder::new(&sigma);
    nb.root("u");
    nb.rule("u", "a", "(u | ut)*");
    nb.rule("u", "b", "(u | ut)*");
    nb.text_rule("ut");
    let schema = nb.finish();

    // Preserving case.
    let mut tb = TransducerBuilder::new(&sigma, "q0");
    tb.rule("q0", "a", "a(q0)");
    tb.rule("q0", "b", "b(q0)");
    tb.text_rule("q0");
    let good = tb.finish();
    assert!(textpres::check_topdown(&good, &schema).is_preserving());
    assert!(textpres::check_dtl(&tpx_dtl::from_topdown(&good), &schema).is_preserving());

    // Copying case.
    let mut tb = TransducerBuilder::new(&sigma, "q0");
    tb.rule("q0", "a", "a(q0 q0)");
    tb.text_rule("q0");
    let bad = tb.finish();
    assert!(!textpres::check_topdown(&bad, &schema).is_preserving());
    assert!(!textpres::check_dtl(&tpx_dtl::from_topdown(&bad), &schema).is_preserving());
}

#[test]
fn extension_tests_work_through_the_facade() {
    let sigma = tpx_trees::samples::recipe_alphabet();
    let schema = tpx_schema::samples::recipe_dtd(&sigma).to_nta();
    let t = tpx_topdown::samples::example_4_2(&sigma);
    assert!(tpx_topdown::extensions::text_preserving_and_keeps(
        &t,
        &schema,
        &[sigma.sym("instructions"), sigma.sym("description")]
    ));
    assert!(!tpx_topdown::extensions::text_preserving_and_keeps(
        &t,
        &schema,
        &[sigma.sym("comments")]
    ));
}

#[test]
fn xml_pipeline_handles_real_document_shapes() {
    let mut sigma = Alphabet::new();
    let doc = tpx_trees::xml::parse_document(
        "<?xml version=\"1.0\"?><book><ch title=\"1\">Once upon a <em>time</em>.</ch>\
         <!-- comment --><ch>The end.</ch></book>",
        &mut sigma,
    )
    .unwrap();
    assert_eq!(
        doc.text_content(),
        vec!["Once upon a", "time", ".", "The end."]
    );
    // Identity over the discovered alphabet preserves everything.
    let t = tpx_workload::identity_transducer(&sigma);
    let out = t.transform(&doc);
    assert_eq!(out, *doc.as_hedge());
}
