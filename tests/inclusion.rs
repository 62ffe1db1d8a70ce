//! Seeded equivalence suites for the two lazy decision procedures the
//! deciders run (DESIGN.md §13):
//!
//! * the word-level antichain inclusion `Nfa::inclusion_counterexample`,
//!   which decides text retention over Lemma 4.8 path automata, must
//!   agree with the eager determinize → complement → intersect route — on
//!   the *verdict* and on *witness validity* — and be inert under generous
//!   fuel and fail fast under none;
//! * the NBTA product witness `Nbta::intersect_witness`, which decides DTL
//!   text-preservation, must agree with emptiness of the built product.

use textpres::automata::Nfa;
use textpres::topdown::{path_automaton_nta, PathSym};
use textpres::treeauto::{nta_to_nbta, EncSym, Nbta};
use textpres::trees::budget::{Budget, BudgetHandle, ExhaustReason};
use textpres::trees::Symbol;
use tpx_workload::random_dtd;

/// The path automata `A_N` (Lemma 4.8) of a seeded pair of random DTDs
/// over `n_labels` labels, with their path alphabet `Σ ⊎ {text}`.
fn path_pair(seed: u64, n_labels: usize) -> (Nfa<PathSym>, Nfa<PathSym>, Vec<PathSym>) {
    let a = path_automaton_nta(
        &random_dtd(n_labels, seed).nta(),
        &BudgetHandle::unlimited(),
    )
    .expect("unlimited budget");
    let b = path_automaton_nta(
        &random_dtd(n_labels, seed + 1000).nta(),
        &BudgetHandle::unlimited(),
    )
    .expect("unlimited budget");
    let mut alphabet: Vec<PathSym> = (0..n_labels as u32)
        .map(|i| PathSym::Elem(Symbol(i)))
        .collect();
    alphabet.push(PathSym::Text);
    (a, b, alphabet)
}

/// The eager baseline: L(a) ⊆ L(b) iff L(a) ∩ L(b)ᶜ = ∅, with the
/// complement built by full determinization over `alphabet`.
fn eager_included(a: &Nfa<PathSym>, b: &Nfa<PathSym>, alphabet: &[PathSym]) -> bool {
    let unlimited = BudgetHandle::unlimited();
    let not_b = b
        .determinize(alphabet, &unlimited)
        .unwrap()
        .complement()
        .to_nfa();
    a.intersect(&not_b, &unlimited).unwrap().is_empty()
}

#[test]
fn antichain_inclusion_matches_eager_route_on_random_dtd_pairs() {
    let unlimited = BudgetHandle::unlimited();
    let mut separated = 0usize;
    for n_labels in [2usize, 3] {
        for seed in 0..12u64 {
            let ctx = format!("n_labels {n_labels}, seed {seed}");
            let (a, b, alphabet) = path_pair(seed, n_labels);
            let eager = eager_included(&a, &b, &alphabet);
            match a.inclusion_counterexample(&b, &unlimited).unwrap() {
                Some(w) => {
                    separated += 1;
                    assert!(!eager, "{ctx}: counterexample despite inclusion");
                    assert!(a.accepts(&w), "{ctx}: witness not accepted by A");
                    assert!(!b.accepts(&w), "{ctx}: witness accepted by B");
                }
                None => assert!(eager, "{ctx}: no counterexample despite exclusion"),
            }
        }
    }
    // The suite must exercise the separating branch; the inclusion branch
    // is pinned by the reflexivity test below.
    assert!(separated > 0, "no pair separated — suite is vacuous");
}

#[test]
fn antichain_inclusion_confirms_reflexive_and_union_inclusions() {
    // Pairs that *are* included by construction: A ⊆ A and A ⊆ A ∪ B.
    let unlimited = BudgetHandle::unlimited();
    for n_labels in [2usize, 3] {
        for seed in 0..12u64 {
            let ctx = format!("n_labels {n_labels}, seed {seed}");
            let (a, b, _) = path_pair(seed, n_labels);
            assert!(a.included_in(&a, &unlimited).unwrap(), "{ctx}: A ⊄ A");
            assert!(
                a.inclusion_counterexample(&a.union(&b), &unlimited)
                    .unwrap()
                    .is_none(),
                "{ctx}: A ⊄ A ∪ B"
            );
        }
    }
}

#[test]
fn budgeted_inclusion_is_inert_when_generous_and_fails_on_zero_fuel() {
    let unlimited = BudgetHandle::unlimited();
    let generous = Budget::default().with_fuel(50_000_000).start();
    for n_labels in [2usize, 3] {
        for seed in 0..12u64 {
            let ctx = format!("n_labels {n_labels}, seed {seed}");
            let (a, b, _) = path_pair(seed, n_labels);
            assert_eq!(
                a.inclusion_counterexample(&b, &generous)
                    .expect("generous fuel"),
                a.inclusion_counterexample(&b, &unlimited).unwrap(),
                "{ctx}: budget changed the counterexample"
            );
            let zero = Budget::default().with_fuel(0).start();
            let err = a.inclusion_counterexample(&b, &zero).unwrap_err();
            assert_eq!(err.reason, ExhaustReason::Fuel, "{ctx}: zero fuel");
        }
    }
    assert!(generous.fuel_spent() > 0, "governed runs must account fuel");
}

/// The two schema NTAs of a seeded pair, trimmed and in ranked encoding.
fn ranked_pair(seed: u64, n_labels: usize) -> (Nbta<EncSym>, Nbta<EncSym>) {
    let unlimited = BudgetHandle::unlimited();
    let encode = |seed| {
        nta_to_nbta(&random_dtd(n_labels, seed).nta())
            .trim(&unlimited)
            .unwrap()
    };
    (encode(seed), encode(seed + 1000))
}

#[test]
fn intersect_witness_matches_product_emptiness() {
    let unlimited = BudgetHandle::unlimited();
    for seed in 0..12u64 {
        let (a, b) = ranked_pair(seed, 3);
        let product = a.intersect(&b, &unlimited).unwrap();
        let product_empty = product.is_empty(&unlimited).unwrap();
        match a.intersect_witness(&b, &unlimited).unwrap() {
            Some(w) => {
                assert!(!product_empty, "seed {seed}: witness from empty product");
                assert!(a.accepts(&w), "seed {seed}: witness not in L(A)");
                assert!(b.accepts(&w), "seed {seed}: witness not in L(B)");
            }
            None => assert!(product_empty, "seed {seed}: no witness, product non-empty"),
        }
    }
}
