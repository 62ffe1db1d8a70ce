//! Lazy, antichain-pruned decision procedures on word NFAs.
//!
//! The eager route decides `L(A) ⊆ L(B)` by determinizing `B`,
//! complementing, and intersecting. The procedures here never build the
//! subset automaton. They
//! explore, on the fly and forward from the initial states, only the
//! *reachable* portion of the product of `A` with the subset automaton of
//! `B`: pairs `(p, S)` where `p` is an `A`-state reached by some word `w`
//! and `S` is the **exact** set of `B`-states reached by `w`. A pair with
//! `p` final in `A` and `S ∩ F_B = ∅` is a counterexample, and a
//! predecessor chain decodes the concrete word the moment one is interned.
//!
//! Two properties make this fast in practice (the antichain idea of the
//! inclusion literature, see DESIGN.md §13):
//!
//! * **Reachability**: most of the `2^{|Q_B|}` subset space is never
//!   reached by any word, and the exploration simply never visits it.
//! * **Antichain pruning**: the macro-step is monotone (`S ⊆ S'` implies
//!   `step(S, a) ⊆ step(S', a)`) and rejection (`S ∩ F_B = ∅`) is
//!   downward closed, so a pair whose macro-state is a *superset* of an
//!   already-explored macro-state for the same `A`-state can never reach
//!   a counterexample the explored one cannot. We keep only the
//!   ⊆-minimal macro-states per `A`-state and skip every dominated
//!   candidate.
//!
//! Exploration is breadth-first, so a returned counterexample is a
//! shortest one — the witness quality the path-automaton callers
//! (Lemma 4.8 / the text-retention analysis) surface to users.

use crate::nfa::{Nfa, StateId};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};

fn bit_has(bits: &[u64], q: StateId) -> bool {
    bits[q.index() / 64] & (1 << (q.index() % 64)) != 0
}

fn bit_set(bits: &mut [u64], q: StateId) {
    bits[q.index() / 64] |= 1 << (q.index() % 64);
}

/// `a ⊆ b` on bitsets of equal length.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// An explored `(A-state, exact B-state-set)` pair; `prov` is the
/// predecessor arena id and the symbol that reached this pair (`None` for
/// the initial pair).
struct Pair<A> {
    p: StateId,
    set: Vec<u64>,
    prov: Option<(usize, A)>,
}

fn decode<A: Clone>(pairs: &[Pair<A>], mut id: usize) -> Vec<A> {
    let mut w = Vec::new();
    while let Some((parent, a)) = &pairs[id].prov {
        w.push(a.clone());
        id = *parent;
    }
    w.reverse();
    w
}

impl<A: Clone + Eq + Hash> Nfa<A> {
    /// Whether `L(self) ⊆ L(other)` — decided lazily, without ever
    /// determinizing `other`. Charges one fuel unit per explored pair and
    /// per macro-step.
    pub fn included_in(
        &self,
        other: &Nfa<A>,
        budget: &BudgetHandle,
    ) -> Result<bool, BudgetExceeded> {
        Ok(self.inclusion_counterexample(other, budget)?.is_none())
    }

    /// A shortest word in `L(self) \ L(other)`, or `None` when
    /// `L(self) ⊆ L(other)`. Explores `(p, S)` pairs breadth-first, prunes
    /// with a per-state antichain of ⊆-minimal macro-states, and
    /// early-exits with a decoded word at the first rejecting pair.
    pub fn inclusion_counterexample(
        &self,
        other: &Nfa<A>,
        budget: &BudgetHandle,
    ) -> Result<Option<Vec<A>>, BudgetExceeded> {
        budget.charge(1)?;
        let words = other.state_count().div_ceil(64).max(1);
        let mut b_final_bits = vec![0u64; words];
        for q in other.states() {
            if other.is_final(q) {
                bit_set(&mut b_final_bits, q);
            }
        }
        // `other`'s transitions indexed by (state, symbol), for the
        // macro-step.
        let mut b_idx: HashMap<(StateId, &A), Vec<StateId>> = HashMap::new();
        for q in other.states() {
            for (a, r) in other.transitions_from(q) {
                b_idx.entry((q, a)).or_default().push(*r);
            }
        }
        let rejects = |set: &[u64]| set.iter().zip(&b_final_bits).all(|(s, f)| s & f == 0);

        // Arena of explored pairs. `antichain[p]` holds the ids whose
        // macro-state is ⊆-minimal among those interned for `p`;
        // dominated entries leave the antichain (so future domination
        // checks stay cheap) but their queued exploration is merely
        // redundant, never unsound.
        let mut pairs: Vec<Pair<A>> = Vec::new();
        let mut antichain: HashMap<StateId, Vec<usize>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let intern = |p: StateId,
                      set: Vec<u64>,
                      prov: Option<(usize, A)>,
                      pairs: &mut Vec<Pair<A>>,
                      antichain: &mut HashMap<StateId, Vec<usize>>,
                      queue: &mut VecDeque<usize>|
         -> Option<usize> {
            let chain = antichain.entry(p).or_default();
            if chain.iter().any(|&i| is_subset(&pairs[i].set, &set)) {
                return None;
            }
            chain.retain(|&i| !is_subset(&set, &pairs[i].set));
            let id = pairs.len();
            chain.push(id);
            pairs.push(Pair { p, set, prov });
            queue.push_back(id);
            Some(id)
        };

        // The ε-word pair seeds the worklist: every A-initial state is
        // paired with the full B-initial macro-state.
        let mut seed = vec![0u64; words];
        for &b in other.initial_states() {
            bit_set(&mut seed, b);
        }
        for &p in self.initial_states() {
            budget.charge(1)?;
            if let Some(id) = intern(
                p,
                seed.clone(),
                None,
                &mut pairs,
                &mut antichain,
                &mut queue,
            ) {
                if self.is_final(p) && rejects(&pairs[id].set) {
                    return Ok(Some(decode(&pairs, id)));
                }
            }
        }

        while let Some(id) = queue.pop_front() {
            budget.charge(1)?;
            let p = pairs[id].p;
            // The macro-successor depends only on (S, a), so compute it
            // once per symbol even when several A-transitions share one.
            let mut succ_memo: HashMap<&A, Vec<u64>> = HashMap::new();
            let moves: Vec<(&A, StateId)> = self
                .transitions_from(p)
                .iter()
                .map(|(a, r)| (a, *r))
                .collect();
            for (a, p2) in moves {
                budget.charge(1)?;
                let succ = succ_memo
                    .entry(a)
                    .or_insert_with(|| {
                        let mut out = vec![0u64; words];
                        for b in other.states() {
                            if bit_has(&pairs[id].set, b) {
                                if let Some(rs) = b_idx.get(&(b, a)) {
                                    for &r in rs {
                                        bit_set(&mut out, r);
                                    }
                                }
                            }
                        }
                        out
                    })
                    .clone();
                if let Some(nid) = intern(
                    p2,
                    succ,
                    Some((id, a.clone())),
                    &mut pairs,
                    &mut antichain,
                    &mut queue,
                ) {
                    if self.is_final(p2) && rejects(&pairs[nid].set) {
                        return Ok(Some(decode(&pairs, nid)));
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

    fn lit(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    /// `(a|b)*a` — every word ending in `a`.
    fn ends_in_a() -> Nfa<char> {
        let mut n = Nfa::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.set_initial(q0);
        n.set_final(q1, true);
        n.add_transition(q0, 'a', q0);
        n.add_transition(q0, 'b', q0);
        n.add_transition(q0, 'a', q1);
        n
    }

    /// Every word over {a, b}.
    fn universal() -> Nfa<char> {
        let mut n = Nfa::new();
        let q = n.add_state();
        n.set_initial(q);
        n.set_final(q, true);
        n.add_transition(q, 'a', q);
        n.add_transition(q, 'b', q);
        n
    }

    #[test]
    fn inclusion_verdicts() {
        let a = ends_in_a();
        let u = universal();
        let b = BudgetHandle::unlimited();
        assert!(a.included_in(&u, &b).unwrap());
        assert!(!u.included_in(&a, &b).unwrap());
        assert!(a.included_in(&a, &b).unwrap());
        assert!(u.included_in(&u, &b).unwrap());
    }

    #[test]
    fn counterexample_is_genuine_and_shortest() {
        let a = ends_in_a();
        let u = universal();
        let b = BudgetHandle::unlimited();
        let w = u
            .inclusion_counterexample(&a, &b)
            .unwrap()
            .expect("u ⊄ ends_in_a");
        assert!(u.accepts(&w));
        assert!(!a.accepts(&w));
        // ε is the shortest word in L(u) \ L(a).
        assert!(w.is_empty());
        assert!(a.inclusion_counterexample(&u, &b).unwrap().is_none());
    }

    #[test]
    fn inclusion_agrees_with_eager_complement_route() {
        let a = ends_in_a();
        let u = universal();
        let ab = ['a', 'b'];
        let b = BudgetHandle::unlimited();
        for (x, y) in [(&a, &u), (&u, &a), (&a, &a), (&u, &u)] {
            let not_y = y.determinize(&ab, &b).unwrap().complement().to_nfa();
            let eager = x.intersect(&not_y, &b).unwrap().is_empty();
            assert_eq!(x.included_in(y, &b).unwrap(), eager);
        }
    }

    #[test]
    fn inclusion_against_empty_language() {
        let empty = Nfa::<char>::new();
        let b = BudgetHandle::unlimited();
        assert!(empty.included_in(&ends_in_a(), &b).unwrap());
        let w = ends_in_a()
            .inclusion_counterexample(&empty, &b)
            .unwrap()
            .expect("nonempty ⊄ ∅");
        assert!(ends_in_a().accepts(&w));
        assert_eq!(w, lit("a"));
    }

    #[test]
    fn intersect_keeps_the_common_language() {
        let a = ends_in_a();
        let u = universal();
        let i = a.intersect(&u, &BudgetHandle::unlimited()).unwrap();
        for w in ["", "a", "ba", "ab", "bb"] {
            assert_eq!(i.accepts(&lit(w)), a.accepts(&lit(w)), "{w}");
        }
    }

    #[test]
    fn determinize_keeps_the_language() {
        let a = ends_in_a();
        let d = a
            .determinize(&['a', 'b'], &BudgetHandle::unlimited())
            .unwrap();
        for w in ["", "a", "ba", "ab", "bb"] {
            assert_eq!(d.accepts(&lit(w)), a.accepts(&lit(w)), "{w}");
        }
    }

    #[test]
    fn budgeted_ops_charge_and_fail_on_zero_fuel() {
        use tpx_trees::budget::{Budget, ExhaustReason};
        let a = ends_in_a();
        let u = universal();
        let gen = Budget::default().with_fuel(1_000_000).start();
        assert!(a.included_in(&u, &gen).unwrap());
        assert!(!u.included_in(&a, &gen).unwrap());
        assert!(gen.fuel_spent() > 0, "the lazy ops must charge fuel");
        let z = Budget::default().with_fuel(0).start();
        for err in [
            a.included_in(&u, &z).map(|_| ()).unwrap_err(),
            a.inclusion_counterexample(&u, &z).map(|_| ()).unwrap_err(),
            a.intersect(&u, &z).map(|_| ()).unwrap_err(),
            a.determinize(&['a', 'b'], &z).map(|_| ()).unwrap_err(),
        ] {
            assert_eq!(err.reason, ExhaustReason::Fuel);
        }
    }
}
