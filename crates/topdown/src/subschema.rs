//! The regular language of counter-examples and the maximal sub-schema
//! (paper conclusion).
//!
//! The proofs of Lemmas 4.9/4.10 show that the set of trees on which `T` is
//! *not* text-preserving is regular: the union of a "copying" NTA and the
//! rearranging NTA of Lemma 4.10. Since regular tree languages are closed
//! under complement (via the encoding machinery of `tpx-treeauto`), the
//! *maximal* subset of a schema on which `T` is text-preserving is regular
//! and computable: `L(N) ∖ counterexamples(T)`.

use crate::decide::rearranging_nta;
use crate::transducer::{frontier_states, TdState, Transducer};
use tpx_automata::Nfa;
use tpx_treeauto::{difference_nta, Nta, State};
use tpx_trees::budget::BudgetHandle;
use tpx_trees::Symbol;

/// Role layout for the copying NTA: `Any`, `S0(q)` (single shared run),
/// `D(q₁, q₂)` (two runs, same path), `SC(q)` (after a doubling rule).
struct CopySpace {
    n: u32,
}

impl CopySpace {
    fn size(&self) -> usize {
        (1 + 2 * self.n + self.n * self.n) as usize
    }
    fn any(&self) -> State {
        State(0)
    }
    fn s0(&self, q: TdState) -> State {
        State(1 + q.0)
    }
    fn d(&self, q1: TdState, q2: TdState) -> State {
        State(1 + self.n + q1.0 * self.n + q2.0)
    }
    fn sc(&self, q: TdState) -> State {
        State(1 + self.n + self.n * self.n + q.0)
    }
    fn text_ok(&self, s: State, t: &Transducer) -> bool {
        let i = s.0;
        if i == 0 {
            true
        } else if i < 1 + self.n {
            false // S0: the copy event has not happened
        } else if i < 1 + self.n + self.n * self.n {
            let j = i - 1 - self.n;
            let (q1, q2) = (TdState(j / self.n), TdState(j % self.n));
            t.text_rule(q1) && t.text_rule(q2)
        } else {
            t.text_rule(TdState(i - 1 - self.n - self.n * self.n))
        }
    }
}

/// An NTA accepting exactly the trees on which `t` copies (Lemma 4.5,
/// tree-level): two different path runs end at the same text node, or one
/// path run passes a doubling rule.
pub fn copying_nta(t: &Transducer) -> Nta {
    let sp = CopySpace {
        n: t.state_count() as u32,
    };
    let mut m = Nta::new(t.symbol_count());
    for _ in 0..sp.size() {
        m.add_state();
    }
    let all_states: Vec<State> = (0..sp.size() as u32).map(State).collect();
    // `Any* · X · Any*` rows: don't-care siblings derive `Any` (every tree
    // does, see the `Any` row below), the one event child derives one of
    // `singles`. Looping on `Any` alone keeps each row O(|singles|), not
    // O(|Q|²) — the same shape the rearranging NTA rows use.
    let content = |singles: &[State]| -> Nfa<State> {
        let mut nfa: Nfa<State> = Nfa::new();
        let s0 = nfa.add_state();
        let s1 = nfa.add_state();
        nfa.set_initial(s0);
        nfa.set_final(s1, true);
        nfa.add_transition(s0, sp.any(), s0);
        nfa.add_transition(s1, sp.any(), s1);
        for &x in singles {
            nfa.add_transition(s0, x, s1);
        }
        nfa
    };
    // The `Any` row must accept ε so element *leaves* derive `Any` too —
    // otherwise counterexample trees with element leaves in don't-care
    // positions are missed and the "maximal" sub-schema keeps
    // non-preserving trees (the same ≥1-child bug the rearranging NTA had
    // before DESIGN.md §13).
    let any_row = || -> Nfa<State> {
        let mut nfa: Nfa<State> = Nfa::new();
        let s = nfa.add_state();
        nfa.set_initial(s);
        nfa.set_final(s, true);
        nfa.add_transition(s, sp.any(), s);
        nfa
    };

    for sym in 0..t.symbol_count() {
        let s = Symbol(sym as u32);
        m.set_content(sp.any(), s, any_row());
        for q in t.states() {
            let Some(rhs) = t.rhs(q, s) else { continue };
            let ls = frontier_states(rhs);
            let mut singles: Vec<State> = Vec::new();
            for &p in &ls {
                singles.push(sp.s0(p));
                // Doubling: p occurs at two distinct frontier positions.
                if ls.iter().filter(|&&x| x == p).count() >= 2 {
                    singles.push(sp.sc(p));
                }
            }
            // Divergence of the two runs: distinct successor states, both on
            // the frontier (same path, so same child node).
            for &p1 in &ls {
                for &p2 in &ls {
                    if p1 != p2 {
                        singles.push(sp.d(p1, p2));
                    }
                }
            }
            m.set_content(sp.s0(q), s, content(&singles));
            // SC(q): continue one run.
            let sc_singles: Vec<State> = ls.iter().map(|&p| sp.sc(p)).collect();
            m.set_content(sp.sc(q), s, content(&sc_singles));
        }
        // D(q1, q2): continue both runs along the same node path.
        for q1 in t.states() {
            for q2 in t.states() {
                let (Some(r1), Some(r2)) = (t.rhs(q1, s), t.rhs(q2, s)) else {
                    continue;
                };
                let ls1 = frontier_states(r1);
                let ls2 = frontier_states(r2);
                let mut singles = Vec::new();
                for &p1 in &ls1 {
                    for &p2 in &ls2 {
                        singles.push(sp.d(p1, p2));
                    }
                }
                m.set_content(sp.d(q1, q2), s, content(&singles));
            }
        }
    }
    for st in &all_states {
        m.set_text_ok(*st, sp.text_ok(*st, t));
    }
    m.add_root(sp.s0(t.initial()));
    m.trim(&BudgetHandle::unlimited())
        .expect("unlimited budget")
}

/// The regular language of counter-examples: all trees on which `t` is not
/// text-preserving (copying ∪ rearranging). By Theorem 3.3 this is exact
/// for the admissible transductions of this paper.
pub fn counterexample_language(t: &Transducer) -> Nta {
    copying_nta(t)
        .union(&rearranging_nta(t))
        .trim(&BudgetHandle::unlimited())
        .expect("unlimited budget")
}

/// The maximal sub-schema: the largest subset of `L(nta)` on which `t` is
/// text-preserving, as an NTA (paper conclusion). Computed as
/// `L(nta) ∖ counterexamples(t)`.
pub fn maximal_subschema(t: &Transducer, nta: &Nta) -> Nta {
    difference_nta(nta, &counterexample_language(t), &BudgetHandle::unlimited())
        .expect("unlimited budget")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::{copying_witness, is_text_preserving};
    use crate::samples;
    use crate::semantic;
    use tpx_schema::samples::recipe_dtd;
    use tpx_trees::samples::recipe_alphabet;
    use tpx_trees::{Alphabet, Tree};

    #[test]
    fn copying_nta_agrees_with_nfa_decider() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        for t in [
            samples::example_4_2(&al),
            samples::copying_example(&al),
            samples::rearranging_example(&al),
        ] {
            let via_nfa = copying_witness(&t, &nta).is_some();
            let budget = BudgetHandle::unlimited();
            let product = copying_nta(&t).intersect(&nta, &budget).unwrap();
            let via_nta = !product.is_empty(&budget).unwrap();
            assert_eq!(via_nfa, via_nta);
        }
    }

    #[test]
    fn copying_nta_witness_validates_semantically() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let t = samples::copying_example(&al);
        let budget = BudgetHandle::unlimited();
        let product = copying_nta(&t).intersect(&nta, &budget).unwrap();
        let w = product.witness(&budget).unwrap().unwrap();
        assert!(nta.accepts(&w));
        assert!(semantic::copying_on(&t, &w));
    }

    #[test]
    fn maximal_subschema_of_preserving_transducer_is_whole_schema() {
        let mut al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let t = samples::example_4_2(&al);
        let max = maximal_subschema(&t, &nta);
        // Same language as the schema: test on samples.
        let fig1 = tpx_trees::samples::recipe_tree(&mut al);
        assert!(max.accepts(&fig1));
        // And the difference schema ∖ max is empty.
        let budget = BudgetHandle::unlimited();
        let outside = difference_nta(&nta, &max, &budget).unwrap();
        assert!(outside.is_empty(&budget).unwrap());
    }

    #[test]
    fn maximal_subschema_carves_out_copying_region() {
        // T copies under b, identity elsewhere; schema allows root a with
        // text and b(text) children. Max sub-schema: trees without text
        // under b... i.e. b-children must have no text? A b-node's text is
        // copied, so any b with a text child is excluded.
        let al = Alphabet::from_labels(["a", "b"]);
        let mut tb = crate::transducer::TransducerBuilder::new(&al, "q0");
        tb.state("qc");
        tb.rule("q0", "a", "a(q0)");
        tb.rule("q0", "b", "b(qc qc)");
        tb.text_rule("q0");
        tb.text_rule("qc");
        let t = tb.finish();
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "a", "(st | sb)*");
        nb.rule("sb", "b", "st*");
        nb.text_rule("st");
        let nta = nb.finish();
        // T is not text-preserving over the whole schema…
        assert!(!is_text_preserving(&t, &nta).is_preserving());
        let max = maximal_subschema(&t, &nta);
        // …but is over the maximal sub-schema, which is non-trivial.
        let budget = BudgetHandle::unlimited();
        assert!(!max.is_empty(&budget).unwrap());
        let mut al2 = al.clone();
        let inside = tpx_trees::term::parse_tree(r#"a("x" b)"#, &mut al2).unwrap();
        let outside = tpx_trees::term::parse_tree(r#"a("x" b("y"))"#, &mut al2).unwrap();
        assert!(nta.accepts(&inside) && nta.accepts(&outside));
        assert!(max.accepts(&inside));
        assert!(!max.accepts(&outside));
        // Witnesses from the max sub-schema are preserved; semantic check.
        let w = max.witness(&budget).unwrap().unwrap();
        assert!(semantic::text_preserving_on(
            &t,
            &Tree::from_hedge(tpx_trees::make_value_unique(w.as_hedge())).unwrap()
        ));
        // Maximality: schema trees outside max are counter-examples.
        let outside_lang = difference_nta(&nta, &max, &budget).unwrap();
        let cex = outside_lang.witness(&budget).unwrap().unwrap();
        let cex_unique = Tree::from_hedge(tpx_trees::make_value_unique(cex.as_hedge())).unwrap();
        assert!(!semantic::text_preserving_on(&t, &cex_unique));
    }

    #[test]
    fn copying_with_element_leaf_sibling_is_detected() {
        // Regression: the `Any` row used to demand ≥1 child, so an element
        // leaf in a don't-care position could not derive `Any` and the
        // copying NTA missed counterexamples containing one.
        let al = Alphabet::from_labels(["a", "b", "c"]);
        let mut tb = crate::transducer::TransducerBuilder::new(&al, "q0");
        tb.state("qc");
        tb.rule("q0", "a", "a(q0)");
        tb.rule("q0", "b", "b(qc qc)");
        tb.rule("q0", "c", "c");
        tb.text_rule("q0");
        tb.text_rule("qc");
        let t = tb.finish();
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "a", "(sc | sb)*");
        nb.rule("sb", "b", "st*");
        nb.rule("sc", "c", "st*");
        nb.text_rule("st");
        let nta = nb.finish();
        let mut al2 = al.clone();
        let cex = tpx_trees::term::parse_tree(r#"a(c b("y"))"#, &mut al2).unwrap();
        assert!(nta.accepts(&cex));
        // T copies "y" under b; the element-leaf sibling c must not hide it.
        assert!(semantic::copying_on(&t, &cex));
        assert!(copying_nta(&t).accepts(&cex));
        let max = maximal_subschema(&t, &nta);
        assert!(!max.accepts(&cex));
        // a(c) alone is preserved, so it stays inside the sub-schema.
        let inside = tpx_trees::term::parse_tree("a(c)", &mut al2).unwrap();
        assert!(max.accepts(&inside));
    }

    #[test]
    fn counterexample_language_is_empty_for_preserving_everywhere() {
        // Identity transducer copies/rearranges nowhere.
        let al = Alphabet::from_labels(["a"]);
        let mut tb = crate::transducer::TransducerBuilder::new(&al, "q0");
        tb.rule("q0", "a", "a(q0)");
        tb.text_rule("q0");
        let t = tb.finish();
        let ce = counterexample_language(&t);
        assert!(ce.is_empty(&BudgetHandle::unlimited()).unwrap());
    }
}
