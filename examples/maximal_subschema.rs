//! The maximal sub-schema (paper conclusion): for a transformation that is
//! *not* text-preserving over a whole schema, compute the largest
//! sub-language of the schema on which it is — as a regular tree language,
//! constructively.
//!
//! Run with: `cargo run --example maximal_subschema`

use textpres::prelude::*;
use textpres::trees::budget::BudgetHandle;

fn main() {
    // Σ = {article, body, footnote}; articles contain text and footnotes,
    // footnotes contain text.
    let sigma = Alphabet::from_labels(["article", "body", "footnote"]);
    let mut dtd = DtdBuilder::new(&sigma);
    dtd.start("article");
    dtd.elem("article", "body*");
    dtd.elem("body", "(text | footnote)*");
    dtd.elem("footnote", "text");
    let dtd = dtd.finish();
    let schema = dtd.to_nta();

    // The transformation inlines each footnote TWICE (once in place, once
    // in a trailing notes section — a classic copying layout).
    let mut t = TransducerBuilder::new(&sigma, "q0");
    t.rule("q0", "article", "article(qb)");
    t.rule("qb", "body", "body(q qnotes)");
    t.rule("q", "footnote", "footnote(qt)");
    t.rule("qnotes", "footnote", "footnote(qt)");
    t.text_rule("qt");
    t.text_rule("q");
    let t = t.finish();

    // Over the full schema this copies (footnote text appears twice).
    let report = textpres::check_topdown(&t, &schema);
    println!("over the full schema: {report:?}\n");
    assert!(!report.is_preserving());

    // The maximal sub-schema: exactly the documents without footnotes.
    let max = textpres::topdown_maximal_subschema(&t, &schema);
    println!(
        "maximal sub-schema: {} states, {} total size (trimmed NTA)\n",
        max.state_count(),
        max.size()
    );

    let mut scratch = sigma.clone();
    let inside =
        tpx_trees::term::parse_tree(r#"article(body("plain prose" "more prose"))"#, &mut scratch)
            .unwrap();
    let outside =
        tpx_trees::term::parse_tree(r#"article(body("prose" footnote("fn")))"#, &mut scratch)
            .unwrap();
    println!(
        "article without footnotes ∈ max sub-schema: {}",
        max.accepts(&inside)
    );
    println!(
        "article with a footnote   ∈ max sub-schema: {}",
        max.accepts(&outside)
    );
    assert!(max.accepts(&inside) && !max.accepts(&outside));

    // Witnesses from both sides, checked semantically. These
    // constructions run without a resource limit.
    let budget = BudgetHandle::unlimited();
    let good = max
        .witness(&budget)
        .expect("unlimited budget")
        .expect("sub-schema is non-empty");
    println!(
        "\nsample document from the sub-schema: {}",
        good.display(&sigma)
    );
    assert!(tpx_topdown::semantic::text_preserving_on(&t, &good));

    let carved = tpx_treeauto::difference_nta(&schema, &max, &budget).expect("unlimited budget");
    let bad = carved
        .witness(&budget)
        .expect("unlimited budget")
        .expect("something was carved out");
    println!(
        "sample carved-out document:          {}",
        bad.display(&sigma)
    );
    assert!(tpx_topdown::semantic::copying_on(&t, &bad));

    println!("\nEvery document in the sub-schema is preserved; everything carved out is a genuine counter-example.");
}
