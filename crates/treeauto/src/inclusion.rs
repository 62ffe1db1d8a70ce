//! The lazy emptiness test of a product of NBTAs.
//!
//! The DTL decider (Section 5.3) asks whether the counter-example
//! automaton and the schema automaton share a tree — that is, whether
//! `L(A) ⊆ ∁L(B)` fails. [`Nbta::intersect_witness`] answers it without
//! building the product automaton that [`Nbta::intersect`] returns: it
//! explores, bottom-up, only the derivable `(a, b)` state pairs, records
//! how each was first derived, and stops at the first pair that is final
//! on both sides, decoding the witness tree from that provenance.
//!
//! Its word-level counterpart for inclusion itself is the antichain search
//! of `tpx_automata::inclusion` (DESIGN.md §13).

use crate::nbta::Nbta;
use crate::nta::State;
use crate::ranked::RankedTree;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};

/// How an explored pair was first derived, for witness decoding. Ids
/// index the exploration arena and always point at earlier entries.
enum Prov<L> {
    Leaf(L),
    Node(L, usize, usize),
}

impl<L: Clone + Eq + Hash> Nbta<L> {
    /// A tree in `L(self) ∩ L(other)`, or `None` when the intersection is
    /// empty — found by exploring derivable `(a, b)` pairs with
    /// provenance and exiting at the first final×final pair, without
    /// building the product automaton. Charges one fuel unit per
    /// discovered pair and per rule join, like [`Nbta::intersect`].
    pub fn intersect_witness(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<Option<RankedTree<L>>, BudgetExceeded> {
        budget.charge(1)?;
        struct PairAb<L> {
            a: State,
            b: State,
            prov: Prov<L>,
        }
        let mut arena: Vec<PairAb<L>> = Vec::new();
        let mut ids: HashMap<(State, State), usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let intern = |a: State,
                      b: State,
                      prov: Prov<L>,
                      arena: &mut Vec<PairAb<L>>,
                      ids: &mut HashMap<(State, State), usize>,
                      queue: &mut VecDeque<usize>|
         -> (usize, bool) {
            if let Some(&id) = ids.get(&(a, b)) {
                return (id, false);
            }
            let id = arena.len();
            arena.push(PairAb { a, b, prov });
            ids.insert((a, b), id);
            queue.push_back(id);
            (id, true)
        };
        let accepting = |arena: &[PairAb<L>], id: usize| -> Option<RankedTree<L>> {
            let p = &arena[id];
            (self.is_final(p.a) && other.is_final(p.b)).then(|| {
                fn build<L: Clone>(arena: &[PairAb<L>], id: usize) -> RankedTree<L> {
                    match &arena[id].prov {
                        Prov::Leaf(l) => RankedTree::Leaf(l.clone()),
                        Prov::Node(l, p1, p2) => {
                            RankedTree::node(l.clone(), build(arena, *p1), build(arena, *p2))
                        }
                    }
                }
                build(arena, id)
            })
        };
        for l in self.leaf_alphabet().to_vec() {
            let bs = other.leaf_states(&l).to_vec();
            for &a in &self.leaf_states(&l).to_vec() {
                for &b in &bs {
                    budget.charge(1)?;
                    let (id, fresh) = intern(
                        a,
                        b,
                        Prov::Leaf(l.clone()),
                        &mut arena,
                        &mut ids,
                        &mut queue,
                    );
                    if fresh {
                        if let Some(w) = accepting(&arena, id) {
                            return Ok(Some(w));
                        }
                    }
                }
            }
        }
        type Idx<'x, L> = HashMap<(&'x L, State), Vec<(State, &'x Vec<State>)>>;
        let mut idx1_first: Idx<'_, L> = HashMap::new();
        let mut idx1_second: Idx<'_, L> = HashMap::new();
        for ((l, a1, a2), outs) in &self.rules {
            idx1_first.entry((l, *a1)).or_default().push((*a2, outs));
            idx1_second.entry((l, *a2)).or_default().push((*a1, outs));
        }
        let mut idx2_first: Idx<'_, L> = HashMap::new();
        let mut idx2_second: Idx<'_, L> = HashMap::new();
        for ((l, b1, b2), outs) in &other.rules {
            idx2_first.entry((l, *b1)).or_default().push((*b2, outs));
            idx2_second.entry((l, *b2)).or_default().push((*b1, outs));
        }
        let symbols: Vec<&L> = self.internal_alphabet().iter().collect();
        while let Some(p) = queue.pop_front() {
            budget.charge(1)?;
            let (a, b) = (arena[p].a, arena[p].b);
            for &l in &symbols {
                for left in [true, false] {
                    let (i1, i2) = if left {
                        (&idx1_first, &idx2_first)
                    } else {
                        (&idx1_second, &idx2_second)
                    };
                    let (Some(r1), Some(r2)) = (i1.get(&(l, a)), i2.get(&(l, b))) else {
                        continue;
                    };
                    let joins: Vec<(State, &Vec<State>, State, &Vec<State>)> = r1
                        .iter()
                        .flat_map(|&(a2, o1)| r2.iter().map(move |&(b2, o2)| (a2, o1, b2, o2)))
                        .collect();
                    for (a2, outs1, b2, outs2) in joins {
                        // The partner pair must already be discovered.
                        if !ids.contains_key(&(a2, b2)) {
                            continue;
                        }
                        let p2 = ids[&(a2, b2)];
                        for &oa in outs1 {
                            for &ob in outs2 {
                                budget.charge(1)?;
                                let prov = if left {
                                    Prov::Node(l.clone(), p, p2)
                                } else {
                                    Prov::Node(l.clone(), p2, p)
                                };
                                let (id, fresh) =
                                    intern(oa, ob, prov, &mut arena, &mut ids, &mut queue);
                                if fresh {
                                    if let Some(w) = accepting(&arena, id) {
                                        return Ok(Some(w));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts trees containing at least one 'a' internal node.
    fn contains_a() -> Nbta<char> {
        let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_final(q1, true);
        b.add_leaf_rule('#', q0);
        for (l, x, y, o) in [
            ('b', q0, q0, q0),
            ('b', q0, q1, q1),
            ('b', q1, q0, q1),
            ('b', q1, q1, q1),
            ('a', q0, q0, q1),
            ('a', q0, q1, q1),
            ('a', q1, q0, q1),
            ('a', q1, q1, q1),
        ] {
            b.add_rule(l, x, y, o);
        }
        b
    }

    /// Accepts every tree over {a, b}.
    fn universal() -> Nbta<char> {
        let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
        let q = b.add_state();
        b.set_final(q, true);
        b.add_leaf_rule('#', q);
        b.add_rule('a', q, q, q);
        b.add_rule('b', q, q, q);
        b
    }

    #[test]
    fn intersect_witness_agrees_with_product() {
        let a = contains_a();
        let u = universal();
        let budget = BudgetHandle::unlimited();
        let w = a
            .intersect_witness(&u, &budget)
            .unwrap()
            .expect("intersection nonempty");
        assert!(a.accepts(&w) && u.accepts(&w));
        // Root-is-b automaton: intersection with contains_a is nonempty.
        let mut rb = Nbta::new(vec!['#'], vec!['a', 'b']);
        let any = rb.add_state();
        let rootb = rb.add_state();
        rb.set_final(rootb, true);
        rb.add_leaf_rule('#', any);
        for l in ['a', 'b'] {
            rb.add_rule(l, any, any, any);
        }
        rb.add_rule('b', any, any, rootb);
        let w = a
            .intersect_witness(&rb, &budget)
            .unwrap()
            .expect("nonempty");
        assert!(a.accepts(&w) && rb.accepts(&w));
        assert!(!a
            .intersect(&rb, &budget)
            .unwrap()
            .is_empty(&budget)
            .unwrap());
        // Empty intersection: contains_a ∩ complement(contains_a).
        let not_a = a
            .determinize(&budget)
            .unwrap()
            .complement()
            .to_nbta()
            .trim(&budget)
            .unwrap();
        assert!(a.intersect_witness(&not_a, &budget).unwrap().is_none());
        assert!(a
            .intersect(&not_a, &budget)
            .unwrap()
            .is_empty(&budget)
            .unwrap());
    }

    #[test]
    fn budgeted_intersect_witness_charges_and_fails_on_zero_fuel() {
        use tpx_trees::budget::{Budget, ExhaustReason};
        let a = contains_a();
        let u = universal();
        let gen = Budget::default().with_fuel(1_000_000).start();
        assert!(a.intersect_witness(&u, &gen).unwrap().is_some());
        assert!(gen.fuel_spent() > 0, "the lazy op must charge fuel");
        let z = Budget::default().with_fuel(0).start();
        let err = a.intersect_witness(&u, &z).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Fuel);
    }
}
