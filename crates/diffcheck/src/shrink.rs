//! Greedy counterexample shrinking.
//!
//! [`shrink_case`] minimizes a failing [`Case`] against an arbitrary
//! predicate (`still_fails`) by repeated deletion passes until a fixpoint:
//!
//! 1. delete subtrees of the input tree (and promote single children),
//! 2. delete top-down transducer rules and text rules,
//! 3. suppress DTL rule additions (growing
//!    [`DtlSpec::drops`](crate::DtlSpec::drops)),
//! 4. delete schema declarations (never a start symbol's).
//!
//! The result is *1-minimal with respect to these operations*: no single
//! further deletion keeps the predicate true. The predicate is injected
//! rather than fixed to [`crate::recheck`] so the shrinker is testable in
//! isolation and usable for other reduction tasks.

use tpx_topdown::Transducer;
use tpx_trees::{Hedge, Tree};

use crate::case::{Case, Subject};

/// Shrinks `case` while `still_fails` holds, returning the 1-minimal case.
/// `case` itself must satisfy the predicate (otherwise it is returned
/// unchanged).
pub fn shrink_case<F: Fn(&Case) -> bool>(case: &Case, still_fails: F) -> Case {
    let mut best = case.clone();
    if !still_fails(&best) {
        return best;
    }
    loop {
        let mut progressed = false;
        progressed |= shrink_tree_pass(&mut best, &still_fails);
        progressed |= shrink_rules_pass(&mut best, &still_fails);
        progressed |= shrink_dtl_pass(&mut best, &still_fails);
        progressed |= shrink_decls_pass(&mut best, &still_fails);
        if !progressed {
            return best;
        }
    }
}

/// Applies one accepted candidate change, preferring the earliest.
fn try_candidates<F: Fn(&Case) -> bool>(
    best: &mut Case,
    still_fails: &F,
    candidates: impl IntoIterator<Item = Case>,
) -> bool {
    for cand in candidates {
        if still_fails(&cand) {
            *best = cand;
            return true;
        }
    }
    false
}

/// Tree pass: try deleting every non-root subtree, then try replacing the
/// whole tree by each of its root's subtrees (hoisting). Runs until no
/// single deletion is accepted.
fn shrink_tree_pass<F: Fn(&Case) -> bool>(best: &mut Case, still_fails: &F) -> bool {
    let mut progressed = false;
    loop {
        let Some(tree) = &best.tree else {
            return progressed;
        };
        let hedge = tree.as_hedge();
        let mut candidates = Vec::new();
        // Hoist: the subtree rooted at any non-root node becomes the tree.
        for v in hedge.dfs() {
            if v != tree.root() && !hedge.is_text(v) {
                candidates.push(with_tree(best, hedge.subtree(v)));
            }
        }
        // Delete: drop any non-root subtree in place.
        for v in hedge.dfs() {
            if v != tree.root() {
                let reduced = hedge.replace(v, &Hedge::new());
                if let Some(t) = Tree::from_hedge(reduced) {
                    candidates.push(with_tree(best, t));
                }
            }
        }
        if !try_candidates(best, still_fails, candidates) {
            return progressed;
        }
        progressed = true;
    }
}

fn with_tree(case: &Case, tree: Tree) -> Case {
    let mut c = case.clone();
    c.tree = Some(tree);
    c
}

/// Rule pass: try dropping each `(q, a)` rule and each text rule of the
/// top-down transducer.
fn shrink_rules_pass<F: Fn(&Case) -> bool>(best: &mut Case, still_fails: &F) -> bool {
    let mut progressed = false;
    loop {
        let Subject::Topdown { transducer: t, .. } = &best.subject else {
            return progressed;
        };
        let mut candidates = Vec::new();
        for q in t.states() {
            for a in (0..t.symbol_count()).map(|i| tpx_trees::Symbol(i as u32)) {
                if t.rhs(q, a).is_some() {
                    candidates.push(with_transducer(best, without_rule(t, q, a)));
                }
            }
            if t.text_rule(q) {
                let mut smaller = t.clone();
                smaller.set_text_rule(q, false);
                candidates.push(with_transducer(best, smaller));
            }
        }
        if !try_candidates(best, still_fails, candidates) {
            return progressed;
        }
        progressed = true;
    }
}

fn with_transducer(case: &Case, t: Transducer) -> Case {
    let mut c = case.clone();
    if let Subject::Topdown { transducer, .. } = &mut c.subject {
        *transducer = t;
    }
    c
}

/// Rebuilds `t` without the rule `(q, a)` ([`Transducer::set_rule`] rejects
/// empty rhs, so removal means reconstruction).
fn without_rule(
    t: &Transducer,
    drop_q: tpx_topdown::TdState,
    drop_a: tpx_trees::Symbol,
) -> Transducer {
    let mut out = Transducer::new(t.symbol_count(), t.state_count(), t.initial());
    for q in t.states() {
        for a in (0..t.symbol_count()).map(|i| tpx_trees::Symbol(i as u32)) {
            if (q, a) == (drop_q, drop_a) {
                continue;
            }
            if let Some(rhs) = t.rhs(q, a) {
                out.set_rule(q, a, rhs.to_vec());
            }
        }
        out.set_text_rule(q, t.text_rule(q));
    }
    out
}

/// DTL pass: try suppressing each not-yet-dropped rule addition.
fn shrink_dtl_pass<F: Fn(&Case) -> bool>(best: &mut Case, still_fails: &F) -> bool {
    let mut progressed = false;
    loop {
        let Subject::Dtl(spec) = &best.subject else {
            return progressed;
        };
        let total = spec.total_ops(&best.alpha);
        let candidates: Vec<Case> = (0..total)
            .filter(|i| !spec.drops.contains(i))
            .map(|i| {
                let mut spec = spec.clone();
                spec.drops.push(i);
                spec.drops.sort_unstable();
                Case {
                    subject: Subject::Dtl(spec),
                    ..best.clone()
                }
            })
            .collect();
        if !try_candidates(best, still_fails, candidates) {
            return progressed;
        }
        progressed = true;
    }
}

/// Declaration pass: try dropping each non-start element declaration.
fn shrink_decls_pass<F: Fn(&Case) -> bool>(best: &mut Case, still_fails: &F) -> bool {
    let mut progressed = false;
    loop {
        let candidates: Vec<Case> = (0..best.decls.len())
            .filter(|&i| !best.starts.contains(&best.decls[i].0))
            .map(|i| {
                let mut c = best.clone();
                c.decls.remove(i);
                c
            })
            .collect();
        if !try_candidates(best, still_fails, candidates) {
            return progressed;
        }
        progressed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{DtlSpec, XsltSpec};
    use tpx_topdown::{RhsNode, TdState};
    use tpx_trees::budget::BudgetHandle;
    use tpx_trees::{Alphabet, HedgeBuilder, Symbol};

    fn base_case(alpha: &Alphabet, subject: Subject) -> Case {
        Case {
            alpha: alpha.clone(),
            starts: vec!["a0".to_owned()],
            decls: vec![
                ("a0".to_owned(), "(a0 | a1 | text)*".to_owned()),
                ("a1".to_owned(), "text".to_owned()),
            ],
            subject,
            tree: None,
        }
    }

    /// A subject no shrinking pass touches.
    fn xslt() -> Subject {
        Subject::Xslt(XsltSpec { seed: 1 })
    }

    /// A chain `a0(a0(a0(a0("x"))))` of `depth` elements over one text leaf.
    fn chain_tree(alpha: &Alphabet, depth: usize) -> Tree {
        let s = alpha.sym("a0");
        let mut b = HedgeBuilder::new();
        for _ in 0..depth {
            b.open(s);
        }
        b.text("x");
        for _ in 0..depth {
            b.close();
        }
        b.finish_tree().unwrap()
    }

    #[test]
    fn tree_shrinks_to_the_predicate_boundary() {
        let alpha = Alphabet::from_labels(["a0", "a1"]);
        let mut case = base_case(&alpha, xslt());
        case.tree = Some(chain_tree(&alpha, 6));
        // Predicate: at least 3 nodes. 1-minimality means exactly 3 —
        // deleting any single further subtree drops below the boundary.
        let shrunk = shrink_case(&case, |c| {
            c.tree.as_ref().is_some_and(|t| t.node_count() >= 3)
        });
        assert_eq!(shrunk.tree.unwrap().node_count(), 3);
    }

    #[test]
    fn rules_shrink_to_the_single_needed_one() {
        let alpha = Alphabet::from_labels(["a0", "a1"]);
        let mut t = Transducer::new(2, 2, TdState(0));
        for s in [Symbol(0), Symbol(1)] {
            for q in [TdState(0), TdState(1)] {
                t.set_rule(q, s, vec![RhsNode::Elem(s, vec![RhsNode::State(q)])]);
            }
        }
        t.set_text_rule(TdState(0), true);
        t.set_text_rule(TdState(1), true);
        let case = base_case(
            &alpha,
            Subject::Topdown {
                transducer: t,
                labels: Vec::new(),
            },
        );
        let transducer = |c: &Case| match &c.subject {
            Subject::Topdown { transducer, .. } => transducer.clone(),
            other => panic!("the subject stays top-down, got {other:?}"),
        };
        // Predicate: the rule (q0, a0) still exists.
        let shrunk = shrink_case(&case, |c| {
            transducer(c).rhs(TdState(0), Symbol(0)).is_some()
        });
        let t = transducer(&shrunk);
        let n_rules: usize = t
            .states()
            .map(|q| {
                (0..2)
                    .filter(|&i| t.rhs(q, Symbol(i as u32)).is_some())
                    .count()
            })
            .sum();
        assert_eq!(n_rules, 1, "only the needed rule survives");
        assert!(!t.text_rule(TdState(0)) && !t.text_rule(TdState(1)));
    }

    #[test]
    fn dtl_shrinks_by_growing_drops() {
        let alpha = Alphabet::from_labels(["a0", "a1"]);
        let spec = DtlSpec {
            seed: 7,
            n_states: 2,
            drops: vec![],
        };
        let total = spec.total_ops(&alpha);
        assert!(total > 1, "seed 7 must generate several additions");
        let case = base_case(&alpha, Subject::Dtl(spec));
        let spec = |c: &Case| match &c.subject {
            Subject::Dtl(spec) => spec.clone(),
            other => panic!("the subject stays DTL, got {other:?}"),
        };
        // Predicate: the program still has at least one rule.
        let shrunk = shrink_case(&case, |c| !spec(c).program(&alpha).rules().is_empty());
        let program = spec(&shrunk).program(&alpha);
        assert_eq!(program.rules().len(), 1, "exactly one rule survives");
    }

    #[test]
    fn decls_shrink_but_starts_are_kept() {
        let alpha = Alphabet::from_labels(["a0", "a1"]);
        let case = base_case(&alpha, xslt());
        let shrunk = shrink_case(&case, |c| {
            let nta = c.schema_nta();
            !nta.is_empty(&BudgetHandle::unlimited()).unwrap()
        });
        assert_eq!(shrunk.decls.len(), 1);
        assert_eq!(shrunk.decls[0].0, "a0");
    }

    #[test]
    fn a_passing_case_is_returned_unchanged() {
        let alpha = Alphabet::from_labels(["a0", "a1"]);
        let mut case = base_case(&alpha, xslt());
        case.tree = Some(chain_tree(&alpha, 2));
        let shrunk = shrink_case(&case, |_| false);
        assert_eq!(shrunk.tree.unwrap().node_count(), 3);
        assert_eq!(shrunk.decls.len(), 2);
    }
}
