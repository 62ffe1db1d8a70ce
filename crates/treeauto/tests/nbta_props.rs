//! Randomized validation of the NBTA Boolean operations on seeded random
//! automata and random ranked trees — the operations every decider in the
//! workspace leans on.
//!
//! Formerly proptest-based; rewritten over the in-repo deterministic PRNG
//! so the suite runs in the offline build environment (`proptest` is not a
//! resolvable dependency there). Coverage is equivalent: each property is
//! exercised on a few hundred independently seeded (automaton, tree)
//! pairs, and failures print the offending seed for replay.

use tpx_treeauto::{Nbta, RankedTree, State};
use tpx_trees::budget::BudgetHandle;
use tpx_trees::rng::SplitMix64;

type T = RankedTree<char>;

fn leaf() -> T {
    RankedTree::Leaf('#')
}

/// Random binary tree over internal symbols {a, b}, depth ≤ 4.
fn random_tree(rng: &mut SplitMix64, depth: usize) -> T {
    if depth == 0 || rng.chance(0.3) {
        return leaf();
    }
    let l = if rng.chance(0.5) { 'a' } else { 'b' };
    RankedTree::node(l, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
}

/// Random NBTA over leaf {#} and internal {a, b} with ≤ 4 states.
fn random_nbta(rng: &mut SplitMix64) -> Nbta<char> {
    let n = rng.range_inclusive(1, 4);
    let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
    for _ in 0..n {
        b.add_state();
    }
    for i in 0..n {
        if rng.chance(0.5) {
            b.add_leaf_rule('#', State(i as u32));
        }
    }
    for _ in 0..rng.below(14) {
        let l = if rng.chance(0.5) { 'a' } else { 'b' };
        b.add_rule(
            l,
            State(rng.below(n) as u32),
            State(rng.below(n) as u32),
            State(rng.below(n) as u32),
        );
    }
    for i in 0..n {
        b.set_final(State(i as u32), rng.chance(0.5));
    }
    b
}

fn pairs(cases: usize) -> impl Iterator<Item = (u64, Nbta<char>, T)> {
    (0..cases as u64).map(|seed| {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let m = random_nbta(&mut rng);
        let t = random_tree(&mut rng, 4);
        (seed, m, t)
    })
}

/// Determinization preserves the language; the complement flips it.
#[test]
fn determinize_and_complement() {
    for (seed, m, t) in pairs(200) {
        let d = m.determinize(&BudgetHandle::unlimited()).unwrap();
        assert_eq!(d.accepts(&t), m.accepts(&t), "seed {seed}");
        assert_eq!(d.complement().accepts(&t), !m.accepts(&t), "seed {seed}");
        // Round trip through NBTA.
        assert_eq!(d.to_nbta().accepts(&t), m.accepts(&t), "seed {seed}");
    }
}

/// Products and unions have Boolean semantics; trim is invisible.
#[test]
fn boolean_ops() {
    for (seed, m1, t) in pairs(200) {
        let mut rng = SplitMix64::new(seed.wrapping_add(0xB0B0));
        let m2 = random_nbta(&mut rng);
        let budget = BudgetHandle::unlimited();
        let i = m1.intersect(&m2, &budget).unwrap();
        assert_eq!(
            i.accepts(&t),
            m1.accepts(&t) && m2.accepts(&t),
            "seed {seed}"
        );
        let u = m1.union(&m2);
        assert_eq!(
            u.accepts(&t),
            m1.accepts(&t) || m2.accepts(&t),
            "seed {seed}"
        );
        let trimmed = m1.trim(&budget).unwrap();
        assert_eq!(trimmed.accepts(&t), m1.accepts(&t), "seed {seed}");
    }
}

/// Emptiness agrees with witness extraction, and witnesses are members.
#[test]
fn emptiness_and_witness() {
    let budget = BudgetHandle::unlimited();
    for (seed, m, _) in pairs(300) {
        let empty = m.is_empty(&budget).unwrap();
        match m.witness(&budget).unwrap() {
            Some(w) => {
                assert!(!empty, "seed {seed}");
                assert!(m.accepts(&w), "seed {seed}");
            }
            None => assert!(empty, "seed {seed}"),
        }
    }
}

/// De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B on random inputs.
#[test]
fn de_morgan() {
    for (seed, m1, t) in pairs(150) {
        let mut rng = SplitMix64::new(seed.wrapping_add(0xDEAD));
        let m2 = random_nbta(&mut rng);
        let budget = BudgetHandle::unlimited();
        let not = |m: &Nbta<char>| m.determinize(&budget).unwrap().complement();
        let lhs = not(&m1.union(&m2));
        let rhs = not(&m1)
            .to_nbta()
            .intersect(&not(&m2).to_nbta(), &budget)
            .unwrap();
        assert_eq!(lhs.accepts(&t), rhs.accepts(&t), "seed {seed}");
    }
}
