//! Deterministic finite automata: subset construction, complement and
//! equivalence testing.
//!
//! DFAs are always *complete* relative to an explicit alphabet (a dead sink
//! is materialized by the subset construction), which makes complementation
//! a final-flag flip.

use crate::nfa::{Nfa, StateId};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::Hash;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};

/// A complete deterministic finite automaton over symbols of type `A`.
///
/// The alphabet is explicit and fixed at construction; `step` is total over
/// it. State 0 is the initial state.
#[derive(Clone, Debug)]
pub struct Dfa<A> {
    alphabet: Vec<A>,
    /// `trans[q][a_idx]` = successor state.
    trans: Vec<Vec<u32>>,
    finals: Vec<bool>,
}

impl<A: Clone + Eq + Hash> Nfa<A> {
    /// Subset construction relative to `alphabet`: a DFA complete over it.
    /// Symbols not in `alphabet` are assumed never to occur in inputs; NFA
    /// transitions on them are ignored. Charges one fuel unit per
    /// macro-state and per macro-transition, so an exponential subset
    /// construction exhausts its budget instead of the host.
    pub fn determinize(
        &self,
        alphabet: &[A],
        budget: &BudgetHandle,
    ) -> Result<Dfa<A>, BudgetExceeded> {
        budget.charge(1)?;
        let sym_index: HashMap<&A, usize> =
            alphabet.iter().enumerate().map(|(i, a)| (a, i)).collect();
        let start: BTreeSet<StateId> = self.initial_states().iter().copied().collect();
        let mut ids: HashMap<BTreeSet<StateId>, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        let mut trans: Vec<Vec<u32>> = Vec::new();
        let mut finals: Vec<bool> = Vec::new();
        ids.insert(start.clone(), 0);
        queue.push_back(start);
        while let Some(set) = queue.pop_front() {
            budget.charge(1)?;
            let id = ids[&set] as usize;
            if trans.len() <= id {
                trans.resize(id + 1, Vec::new());
                finals.resize(id + 1, false);
            }
            finals[id] = set.iter().any(|&q| self.is_final(q));
            let mut row = vec![0u32; alphabet.len()];
            // Successor sets per alphabet symbol.
            let mut succ: Vec<BTreeSet<StateId>> = vec![BTreeSet::new(); alphabet.len()];
            for &q in &set {
                for (a, r) in self.transitions_from(q) {
                    if let Some(&i) = sym_index.get(a) {
                        succ[i].insert(*r);
                    }
                }
            }
            for (i, s) in succ.into_iter().enumerate() {
                budget.charge(1)?;
                let next = ids.len() as u32;
                let next_id = *ids.entry(s.clone()).or_insert_with(|| {
                    queue.push_back(s);
                    next
                });
                row[i] = next_id;
            }
            trans[id] = row;
        }
        Ok(Dfa {
            alphabet: alphabet.to_vec(),
            trans,
            finals,
        })
    }
}

impl<A: Clone + Eq + Hash> Dfa<A> {
    /// The alphabet this DFA is complete over.
    pub fn alphabet(&self) -> &[A] {
        &self.alphabet
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// Runs the DFA on `w`; `None` if a symbol is outside the alphabet.
    pub fn run(&self, w: &[A]) -> Option<u32> {
        let sym_index: HashMap<&A, usize> = self
            .alphabet
            .iter()
            .enumerate()
            .map(|(i, a)| (a, i))
            .collect();
        let mut q = 0u32;
        for a in w {
            let i = *sym_index.get(a)?;
            q = self.trans[q as usize][i];
        }
        Some(q)
    }

    /// Whether the DFA accepts `w`. Words with out-of-alphabet symbols are
    /// rejected.
    pub fn accepts(&self, w: &[A]) -> bool {
        self.run(w).is_some_and(|q| self.finals[q as usize])
    }

    /// Complement over the same alphabet.
    pub fn complement(&self) -> Dfa<A> {
        Dfa {
            alphabet: self.alphabet.clone(),
            trans: self.trans.clone(),
            finals: self.finals.iter().map(|f| !f).collect(),
        }
    }

    /// Converts back into an NFA.
    pub fn to_nfa(&self) -> Nfa<A> {
        let mut n = Nfa::new();
        n.add_states(self.state_count());
        for (q, row) in self.trans.iter().enumerate() {
            for (i, &r) in row.iter().enumerate() {
                n.add_transition(StateId(q as u32), self.alphabet[i].clone(), StateId(r));
            }
            n.set_final(StateId(q as u32), self.finals[q]);
        }
        n.set_initial(StateId(0));
        n
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        // BFS from the initial state.
        let mut seen = vec![false; self.state_count()];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(q) = stack.pop() {
            if self.finals[q as usize] {
                return false;
            }
            for &r in &self.trans[q as usize] {
                if !seen[r as usize] {
                    seen[r as usize] = true;
                    stack.push(r);
                }
            }
        }
        true
    }

    /// Language equivalence with `other` (must share the same alphabet,
    /// order included).
    pub fn equivalent(&self, other: &Dfa<A>) -> bool {
        assert!(
            self.alphabet == other.alphabet,
            "equivalence requires identical alphabets"
        );
        // Product walk looking for a distinguishing state pair.
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![(0u32, 0u32)];
        seen.insert((0u32, 0u32));
        while let Some((p, q)) = stack.pop() {
            if self.finals[p as usize] != other.finals[q as usize] {
                return false;
            }
            for i in 0..self.alphabet.len() {
                let pair = (self.trans[p as usize][i], other.trans[q as usize][i]);
                if seen.insert(pair) {
                    stack.push(pair);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn ab() -> Vec<char> {
        vec!['a', 'b']
    }

    #[test]
    fn determinize_preserves_language() {
        // (a|b)*a — classic NFA.
        let mut n = Nfa::<char>::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.set_initial(q0);
        n.set_final(q1, true);
        n.add_transition(q0, 'a', q0);
        n.add_transition(q0, 'b', q0);
        n.add_transition(q0, 'a', q1);
        let d = n.determinize(&ab(), &BudgetHandle::unlimited()).unwrap();
        for w in ["a", "ba", "aa", "bbba"] {
            assert!(d.accepts(&lit(w)), "{w}");
            assert!(n.accepts(&lit(w)), "{w}");
        }
        for w in ["", "b", "ab", "aab"] {
            assert!(!d.accepts(&lit(w)), "{w}");
        }
    }

    #[test]
    fn complement_flips_membership() {
        let n = Nfa::word("ab".chars());
        let d = n.determinize(&ab(), &BudgetHandle::unlimited()).unwrap();
        let c = d.complement();
        assert!(d.accepts(&lit("ab")));
        assert!(!c.accepts(&lit("ab")));
        assert!(c.accepts(&lit("a")));
        assert!(c.accepts(&[]));
        assert!(c.accepts(&lit("abb")));
    }

    #[test]
    fn complement_rejects_out_of_alphabet() {
        let n = Nfa::word("a".chars());
        let c = n
            .determinize(&ab(), &BudgetHandle::unlimited())
            .unwrap()
            .complement();
        // 'z' is outside the alphabet: membership is simply false, by contract.
        assert!(!c.accepts(&lit("z")));
    }

    #[test]
    fn equivalence_distinguishes() {
        let a = Nfa::word("a".chars())
            .determinize(&ab(), &BudgetHandle::unlimited())
            .unwrap();
        let b = Nfa::word("b".chars())
            .determinize(&ab(), &BudgetHandle::unlimited())
            .unwrap();
        let a2 = Nfa::word("a".chars())
            .union(&Nfa::<char>::new())
            .determinize(&ab(), &BudgetHandle::unlimited())
            .unwrap();
        assert!(!a.equivalent(&b));
        assert!(a.equivalent(&a2));
    }

    #[test]
    fn empty_language_detected() {
        let d = Nfa::<char>::new()
            .determinize(&ab(), &BudgetHandle::unlimited())
            .unwrap();
        assert!(d.is_empty());
        let e = Nfa::<char>::epsilon()
            .determinize(&ab(), &BudgetHandle::unlimited())
            .unwrap();
        assert!(!e.is_empty());
    }

    #[test]
    fn to_nfa_round_trip() {
        let n = Nfa::word("ab".chars()).star();
        let d = n.determinize(&ab(), &BudgetHandle::unlimited()).unwrap();
        let back = d.to_nfa();
        for w in ["", "ab", "abab", "a", "ba"] {
            assert_eq!(n.accepts(&lit(w)), back.accepts(&lit(w)), "{w}");
        }
    }

    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Random small NFA over {a, b}.
        fn arb_nfa() -> impl Strategy<Value = Nfa<char>> {
            (
                1usize..5,
                proptest::collection::vec(
                    (0u32..5, prop_oneof![Just('a'), Just('b')], 0u32..5),
                    0..12,
                ),
                proptest::collection::vec(any::<bool>(), 5),
            )
                .prop_map(|(n, edges, fins)| {
                    let mut nfa = Nfa::new();
                    nfa.add_states(n);
                    nfa.set_initial(StateId(0));
                    for (q, a, r) in edges {
                        let (q, r) = (q % n as u32, r % n as u32);
                        nfa.add_transition(StateId(q), a, StateId(r));
                    }
                    for (i, f) in fins.into_iter().take(n).enumerate() {
                        nfa.set_final(StateId(i as u32), f);
                    }
                    nfa
                })
        }

        proptest! {
            #[test]
            fn determinization_agrees_with_nfa(nfa in arb_nfa(),
                                               words in proptest::collection::vec(
                                                   proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 0..6), 0..10)) {
                let d = nfa.determinize(&['a', 'b'], &BudgetHandle::unlimited()).unwrap();
                for w in &words {
                    prop_assert_eq!(d.accepts(w), nfa.accepts(w));
                }
            }

            #[test]
            fn complement_is_involutive_and_disjoint(nfa in arb_nfa(),
                                                     w in proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 0..6)) {
                let d = nfa.determinize(&['a', 'b'], &BudgetHandle::unlimited()).unwrap();
                let c = d.complement();
                prop_assert_ne!(d.accepts(&w), c.accepts(&w));
                prop_assert!(c.complement().equivalent(&d));
            }

            #[test]
            fn product_ops_match_boolean_semantics(n1 in arb_nfa(), n2 in arb_nfa(),
                                                   w in proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 0..6)) {
                let i = n1.intersect(&n2, &BudgetHandle::unlimited()).unwrap();
                let u = n1.union(&n2);
                prop_assert_eq!(i.accepts(&w), n1.accepts(&w) && n2.accepts(&w));
                prop_assert_eq!(u.accepts(&w), n1.accepts(&w) || n2.accepts(&w));
            }

            #[test]
            fn concat_star_semantics(n1 in arb_nfa(), n2 in arb_nfa(),
                                     w1 in proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 0..4),
                                     w2 in proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 0..4)) {
                if n1.accepts(&w1) && n2.accepts(&w2) {
                    let mut w = w1.clone();
                    w.extend(w2.iter().copied());
                    prop_assert!(n1.concat(&n2).accepts(&w));
                    // star accepts w1·w1 and ε.
                    let mut ww = w1.clone();
                    ww.extend(w1.iter().copied());
                    prop_assert!(n1.star().accepts(&ww));
                    prop_assert!(n1.star().accepts(&[]));
                }
            }

            #[test]
            fn trim_preserves_language(nfa in arb_nfa(),
                                       w in proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 0..6)) {
                prop_assert_eq!(nfa.trim().accepts(&w), nfa.accepts(&w));
            }

            #[test]
            fn shortest_word_is_accepted_and_minimal(nfa in arb_nfa()) {
                if let Some(w) = nfa.shortest_word() {
                    prop_assert!(nfa.accepts(&w));
                } else {
                    prop_assert!(nfa.is_empty());
                }
            }
        }
    }
}
