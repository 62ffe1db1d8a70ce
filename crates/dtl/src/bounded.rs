//! The bounded-enumeration baseline: enumerate schema trees up to a size
//! bound and check the Lemma 5.4/5.5 conditions on each.
//!
//! Sound but incomplete (a counter-example may be larger than the bound) —
//! the exponential comparator for the crossover experiments (E4/E5) and a
//! cross-validation harness for the symbolic deciders.

use std::collections::HashMap;
use std::rc::Rc;

use crate::config;
use crate::pattern::PatternLanguage;
use crate::transducer::{DtlError, DtlTransducer};
use tpx_automata::StateId;
use tpx_treeauto::{Nta, State};
use tpx_trees::{Hedge, HedgeBuilder, Symbol, Tree};

/// Enumerates trees of `L(nta)` with at most `max_nodes` nodes (text leaves
/// carry a placeholder value), by non-decreasing node count. Stops after
/// `limit` trees, so a truncated enumeration drops only its largest trees:
/// every tree smaller than the last one returned is included.
pub fn enumerate_schema_trees(nta: &Nta, max_nodes: usize, limit: usize) -> Vec<Tree> {
    let mut e = Enumerator {
        nta,
        limit,
        trees: HashMap::new(),
        children: HashMap::new(),
    };
    let mut out = Vec::new();
    for n in 1..=max_nodes {
        for &root in nta.roots() {
            for h in e.trees(root, n).iter() {
                if out.len() >= limit {
                    return out;
                }
                if let Some(t) = Tree::from_hedge(h.clone()) {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Hedges memoized under one key, shared without copying.
type Memo<K> = HashMap<K, Rc<Vec<Hedge>>>;

/// Memoized enumeration by exact node count. Each list keeps at most
/// `limit` entries: a list that overflows has more than `limit` trees of
/// its size, so every schema tree built from them is at least as large as
/// a size class that already fills the output.
struct Enumerator<'a> {
    nta: &'a Nta,
    limit: usize,
    /// `(q, n)`: hedges of one tree of exactly `n` nodes evaluating to `q`.
    trees: Memo<(State, usize)>,
    /// `(q, σ, P, n)`: child hedges of exactly `n` nodes that drive the
    /// content NFA of `(q, σ)` from the state set `P` to a final state.
    /// Tracking state sets (a subset construction on the fly) reads each
    /// child-state word once, however many runs accept it.
    children: Memo<(State, Symbol, Vec<StateId>, usize)>,
}

impl Enumerator<'_> {
    fn trees(&mut self, q: State, n: usize) -> Rc<Vec<Hedge>> {
        if let Some(hit) = self.trees.get(&(q, n)) {
            return hit.clone();
        }
        let mut out = Vec::new();
        if n == 1 && self.nta.text_ok(q) {
            let mut b = HedgeBuilder::new();
            b.text("τ");
            out.push(b.finish());
        }
        for sym in 0..self.nta.symbol_count() {
            let s = Symbol(sym as u32);
            let Some(nfa) = self.nta.content(q, s) else {
                continue;
            };
            let mut initial = nfa.initial_states().to_vec();
            initial.sort_unstable();
            initial.dedup();
            for kids in self.children(q, s, initial, n - 1).iter() {
                if out.len() >= self.limit {
                    break;
                }
                let mut b = HedgeBuilder::new();
                b.open(s);
                b.hedge(kids);
                b.close();
                out.push(b.finish());
            }
        }
        let out = Rc::new(out);
        self.trees.insert((q, n), out.clone());
        out
    }

    fn children(&mut self, q: State, s: Symbol, from: Vec<StateId>, n: usize) -> Rc<Vec<Hedge>> {
        let key = (q, s, from, n);
        if let Some(hit) = self.children.get(&key) {
            return hit.clone();
        }
        let nta = self.nta;
        let nfa = nta.content(q, s).expect("content model exists");
        let mut out = Vec::new();
        if n == 0 {
            if key.2.iter().any(|&p| nfa.is_final(p)) {
                out.push(HedgeBuilder::new().finish());
            }
        } else {
            // The next child's state, and the NFA states reading it leads to.
            let mut steps: Vec<(State, Vec<StateId>)> = Vec::new();
            for &p in &key.2 {
                for &(child, p2) in nfa.transitions_from(p) {
                    match steps.iter_mut().find(|(c, _)| *c == child) {
                        Some((_, to)) => to.push(p2),
                        None => steps.push((child, vec![p2])),
                    }
                }
            }
            steps.sort_unstable();
            'fill: for (child, mut to) in steps {
                to.sort_unstable();
                to.dedup();
                for m in 1..=n {
                    let firsts = self.trees(child, m);
                    if firsts.is_empty() {
                        continue;
                    }
                    let rests = self.children(q, s, to.clone(), n - m);
                    for first in firsts.iter() {
                        for rest in rests.iter() {
                            if out.len() >= self.limit {
                                break 'fill;
                            }
                            let mut b = HedgeBuilder::new();
                            b.hedge(first);
                            b.hedge(rest);
                            out.push(b.finish());
                        }
                    }
                }
            }
        }
        let out = Rc::new(out);
        self.children.insert(key, out.clone());
        out
    }
}

/// The bounded decider: searches schema trees up to `max_nodes` nodes for a
/// copying or rearranging witness. `Ok(Some(tree))` is a genuine
/// counter-example; `Ok(None)` means none exists *within the bound*.
pub fn bounded_counterexample<P: PatternLanguage>(
    t: &DtlTransducer<P>,
    nta: &Nta,
    max_nodes: usize,
    limit: usize,
) -> Result<Option<Tree>, DtlError> {
    for tree in enumerate_schema_trees(nta, max_nodes, limit) {
        if config::copying_lemma_5_4(t, &tree)? || config::rearranging_lemma_5_5(t, &tree)? {
            return Ok(Some(tree));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_treeauto::NtaBuilder;
    use tpx_trees::Alphabet;

    fn alpha() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    fn universal(al: &Alphabet) -> Nta {
        let mut b = NtaBuilder::new(al);
        b.root("u");
        b.rule("u", "a", "(u | ut)*");
        b.rule("u", "b", "(u | ut)*");
        b.text_rule("ut");
        b.finish()
    }

    #[test]
    fn enumeration_yields_valid_trees() {
        let al = alpha();
        let nta = universal(&al);
        let trees = enumerate_schema_trees(&nta, 4, 200);
        assert!(!trees.is_empty());
        for t in &trees {
            assert!(nta.accepts(t), "{t:?}");
            assert!(t.node_count() <= 4);
        }
        // All distinct.
        for (i, a) in trees.iter().enumerate() {
            for b in trees.iter().skip(i + 1) {
                assert!(a.as_hedge() != b.as_hedge());
            }
        }
    }

    #[test]
    fn enumeration_respects_content_models() {
        // Schema: root a with exactly two b-leaf children.
        let al = alpha();
        let mut b = NtaBuilder::new(&al);
        b.root("s");
        b.rule("s", "a", "sb sb");
        b.rule("sb", "b", "%eps");
        let nta = b.finish();
        let trees = enumerate_schema_trees(&nta, 10, 100);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].node_count(), 3);
    }

    #[test]
    fn bounded_decider_finds_doubling() {
        use crate::pattern::XPathPatterns;
        use crate::transducer::{DtlState, DtlTransducer, Rhs};
        let al = alpha();
        let mut t = DtlTransducer::new(XPathPatterns, 1, DtlState(0));
        let c1 = t.add_binary_pattern(tpx_xpath::PathExpr::Axis(tpx_xpath::Axis::Child));
        let c2 = t.add_binary_pattern(tpx_xpath::PathExpr::Axis(tpx_xpath::Axis::Child));
        t.add_rule(
            DtlState(0),
            tpx_xpath::NodeExpr::Label(al.sym("a")),
            vec![Rhs::Elem(
                al.sym("a"),
                vec![Rhs::Call(DtlState(0), c1), Rhs::Call(DtlState(0), c2)],
            )],
        );
        t.set_text_rule(DtlState(0), true);
        let nta = universal(&al);
        let w = bounded_counterexample(&t, &nta, 3, 500).unwrap();
        let w = w.expect("doubling witness within 3 nodes");
        assert!(crate::config::copying_on(&t, &w).unwrap());
    }

    #[test]
    fn bounded_decider_clears_identity() {
        use crate::transducer::DtlBuilder;
        let al = alpha();
        let mut b = DtlBuilder::new(&al, "q0");
        b.rule_simple("q0", "a", "a", "q0", "child");
        b.rule_simple("q0", "b", "b", "q0", "child");
        b.text_rule("q0");
        let t = b.finish();
        let nta = universal(&al);
        assert!(bounded_counterexample(&t, &nta, 4, 300).unwrap().is_none());
    }
}
