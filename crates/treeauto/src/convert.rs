//! Translations between unranked NTAs and binary NBTAs over the
//! first-child/next-sibling encoding, and the derived Boolean operations on
//! unranked regular tree languages.
//!
//! The key semantic device: an NBTA state is a pair `(A, p)` of a content
//! model `A` of the NTA and one of its NFA states, meaning *"the hedge
//! encoded at this position can drive `A` from `p` to acceptance"*. Under
//! this reading the encoding `σ(ℓ, r)` of a node `v` followed by its right
//! siblings satisfies `(A, p)` iff `v` evaluates to some tree state `q`
//! (i.e. `ℓ` satisfies `(A_{q,σ}, init)`) and `r` satisfies `(A, p')` for
//! some `p' ∈ δ_A(p, q)` — which is exactly a binary bottom-up rule.
//!
//! Both translations are polynomial; together with NBTA determinization
//! they yield complementation of unranked regular languages — the engine
//! behind the "maximal sub-schema" results in the paper's conclusion.

use crate::nbta::Nbta;
use crate::nta::{Nta, State};
use crate::ranked::RankedTree;
use std::collections::HashMap;

use tpx_automata::Nfa;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::{BinLabel, Symbol, Tree};

/// Symbols of encoded trees, with text values erased: element labels,
/// a single `text` placeholder, and the `⊥` padding leaf.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EncSym {
    /// An element label.
    Elem(Symbol),
    /// The `text` placeholder for text nodes.
    Text,
    /// The `⊥` padding leaf.
    Nil,
}

/// The internal alphabet `Σ ⊎ {text}` for encodings over `n_symbols` labels.
pub fn enc_internal_alphabet(n_symbols: usize) -> Vec<EncSym> {
    let mut v: Vec<EncSym> = (0..n_symbols as u32)
        .map(|i| EncSym::Elem(Symbol(i)))
        .collect();
    v.push(EncSym::Text);
    v
}

/// Converts a text tree into the ranked tree its automata run on.
pub fn encode_for_automata(t: &Tree) -> RankedTree<EncSym> {
    let bt = tpx_trees::encode_tree(t);
    crate::ranked::from_bintree(&bt, &mut |l| match l {
        BinLabel::Elem(s) => EncSym::Elem(*s),
        BinLabel::Text(_) => EncSym::Text,
        BinLabel::Nil => EncSym::Nil,
    })
}

/// Decodes a witness [`RankedTree<EncSym>`] back into a text tree, inventing
/// fresh text values `τ0, τ1, …` for text nodes. Returns `None` if the
/// ranked tree is not a valid encoding of a single tree.
pub fn decode_witness(rt: &RankedTree<EncSym>) -> Option<Tree> {
    let mut b = tpx_trees::HedgeBuilder::new();
    let mut counter = 0usize;
    decode_seq(rt, &mut b, &mut counter)?;
    Tree::from_hedge(b.finish())
}

fn decode_seq(
    rt: &RankedTree<EncSym>,
    b: &mut tpx_trees::HedgeBuilder,
    counter: &mut usize,
) -> Option<()> {
    match rt {
        RankedTree::Leaf(EncSym::Nil) => Some(()),
        RankedTree::Leaf(_) => None,
        RankedTree::Node(EncSym::Nil, _, _) => None,
        RankedTree::Node(EncSym::Text, l, r) => {
            if !matches!(**l, RankedTree::Leaf(EncSym::Nil)) {
                return None;
            }
            b.text(&format!("τ{}", *counter));
            *counter += 1;
            decode_seq(r, b, counter)
        }
        RankedTree::Node(EncSym::Elem(s), l, r) => {
            b.open(*s);
            decode_seq(l, b, counter)?;
            b.close();
            decode_seq(r, b, counter)
        }
    }
}

/// Identifier of a content model inside [`nta_to_nbta`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum AutId {
    /// `δ(q, σ)` for element symbol `σ`.
    Content(State, Symbol),
    /// The ε-automaton attached to a text-accepting state `q`.
    Text(State),
    /// The virtual root automaton accepting exactly one root-state symbol.
    Root,
}

/// Translates an NTA into an NBTA over encodings:
/// `L(result) = { enc(t) : t ∈ L(nta) }` restricted to valid encodings.
pub fn nta_to_nbta(nta: &Nta) -> Nbta<EncSym> {
    let n_symbols = nta.symbol_count();
    // Enumerate content automata and assign dense offsets.
    struct AutInfo<'a> {
        nfa: Option<&'a Nfa<State>>, // None = ε-automaton (1 state, final)
        offset: u32,
    }
    let mut auts: Vec<(AutId, AutInfo)> = Vec::new();
    let mut index: HashMap<AutId, usize> = HashMap::new();
    let mut offset = 0u32;
    for q in nta.states() {
        for sym in 0..n_symbols {
            let s = Symbol(sym as u32);
            if let Some(nfa) = nta.content(q, s) {
                index.insert(AutId::Content(q, s), auts.len());
                auts.push((
                    AutId::Content(q, s),
                    AutInfo {
                        nfa: Some(nfa),
                        offset,
                    },
                ));
                offset += nfa.state_count() as u32;
            }
        }
        if nta.text_ok(q) {
            index.insert(AutId::Text(q), auts.len());
            auts.push((AutId::Text(q), AutInfo { nfa: None, offset }));
            offset += 1;
        }
    }
    // Root automaton: states {0 = start, 1 = done}, transition on every root
    // state, 1 final.
    index.insert(AutId::Root, auts.len());
    auts.push((
        AutId::Root,
        AutInfo {
            nfa: None, // handled specially
            offset,
        },
    ));
    let root_offset = offset;
    offset += 2;

    let total_states = offset as usize;
    let mut out = Nbta::new(vec![EncSym::Nil], enc_internal_alphabet(n_symbols));
    for _ in 0..total_states {
        out.add_state();
    }

    // The "initial-state certificates" for each tree state and label: the
    // NBTA state the left child must carry for the node to evaluate to `q`.
    // (aut, local p) → global.
    let global = |info: &AutInfo, p: u32| State(info.offset + p);

    // Leaf rules: Nil derives (A, p) for every final p of every automaton.
    for (id, info) in &auts {
        match id {
            AutId::Content(_, _) => {
                let nfa = info.nfa.unwrap();
                for p in nfa.states() {
                    if nfa.is_final(p) {
                        out.add_leaf_rule(EncSym::Nil, global(info, p.0));
                    }
                }
            }
            AutId::Text(_) => {
                // ε-automaton: single state, final.
                out.add_leaf_rule(EncSym::Nil, global(info, 0));
            }
            AutId::Root => {
                // State 1 ("done") is final.
                out.add_leaf_rule(EncSym::Nil, global(info, 1));
            }
        }
    }

    // Internal rules. For each automaton A with a transition p --q--> p' and
    // each way a node can evaluate to tree state q:
    //  * label σ with content model A_{q,σ}: rule
    //      σ((A_{q,σ}, init), (A, p')) → (A, p)
    //  * text (if text_ok(q)): rule
    //      text((ε_q, 0), (A, p')) → (A, p)
    // Collect transitions (A-global p, q, A-global p') first.
    let mut transitions: Vec<(State, State, State)> = Vec::new();
    for (id, info) in &auts {
        match id {
            AutId::Content(_, _) => {
                let nfa = info.nfa.unwrap();
                for (p, q, p2) in nfa.transitions() {
                    transitions.push((global(info, p.0), *q, global(info, p2.0)));
                }
            }
            AutId::Text(_) => {}
            AutId::Root => {
                for &r in nta.roots() {
                    transitions.push((global(info, 0), r, global(info, 1)));
                }
            }
        }
    }
    // Certificates: for tree state q, the list of (label, left-child NBTA
    // state) pairs allowing a node to evaluate to q.
    let mut certificates: Vec<Vec<(EncSym, State)>> = vec![Vec::new(); nta.state_count()];
    for (id, info) in &auts {
        match id {
            AutId::Content(q, s) => {
                let nfa = info.nfa.unwrap();
                for &p in nfa.initial_states() {
                    certificates[q.index()].push((EncSym::Elem(*s), global(info, p.0)));
                }
            }
            AutId::Text(q) => {
                certificates[q.index()].push((EncSym::Text, global(info, 0)));
            }
            AutId::Root => {}
        }
    }
    for (gp, q, gp2) in transitions {
        for &(label, cert) in &certificates[q.index()] {
            out.add_rule(label, cert, gp2, gp);
        }
    }

    // Finals: (Root, 0) — the whole hedge `(t)` drives the root automaton
    // from start to done.
    out.set_final(State(root_offset), true);
    out
}

/// Translates an NBTA over encodings back into an NTA:
/// `L(result) = { t : enc(t) ∈ L(nbta) }`.
///
/// NTA states are triples `(λ, a, b)`: the node's label `λ`, the NBTA state
/// `a` derived at its encoding position, and the NBTA state `b` derived at
/// the encoding of its children hedge. Only triples justified by some NBTA
/// rule `λ(b, y) → a` are materialized. The final trim charges `budget`.
pub fn nbta_to_nta(
    nbta: &Nbta<EncSym>,
    n_symbols: usize,
    budget: &BudgetHandle,
) -> Result<Nta, BudgetExceeded> {
    let nil_states: Vec<State> = nbta.leaf_states(&EncSym::Nil).to_vec();
    let is_nil: Vec<bool> = {
        let mut v = vec![false; nbta.state_count()];
        for &q in &nil_states {
            v[q.index()] = true;
        }
        v
    };

    // Collect all rules with internal symbols as (λ, b, y, a).
    let mut rules: Vec<(EncSym, State, State, State)> = Vec::new();
    for l in nbta.internal_alphabet().to_vec() {
        for b in nbta.states() {
            for y in nbta.states() {
                for &a in nbta.rule_states(&l, b, y) {
                    rules.push((l, b, y, a));
                }
            }
        }
    }

    // Materialize NTA states (λ, a, b) from rules.
    let mut state_ids: HashMap<(EncSym, State, State), State> = HashMap::new();
    let mut triples: Vec<(EncSym, State, State)> = Vec::new();
    for &(l, b, _y, a) in &rules {
        state_ids.entry((l, a, b)).or_insert_with(|| {
            triples.push((l, a, b));
            State((triples.len() - 1) as u32)
        });
    }

    let mut out = Nta::new(n_symbols);
    for _ in 0..triples.len() {
        out.add_state();
    }

    // Shared chain-NFA prototype: NFA states = NBTA states; transition
    // a' --(λ', a', b')--> y for each rule λ'(b', y) → a'; finals = Nil
    // states. The content model of (σ, a, b) is this NFA started at b.
    let mut proto: Nfa<State> = Nfa::new();
    proto.add_states(nbta.state_count());
    for &(l, b, y, a) in &rules {
        let sym = state_ids[&(l, a, b)];
        proto.add_transition(tpx_automata::StateId(a.0), sym, tpx_automata::StateId(y.0));
    }
    for &q in &nil_states {
        proto.set_final(tpx_automata::StateId(q.0), true);
    }

    for (i, &(l, _a, b)) in triples.iter().enumerate() {
        let q = State(i as u32);
        match l {
            EncSym::Elem(s) => {
                let mut nfa = proto.clone();
                nfa.set_initial(tpx_automata::StateId(b.0));
                out.set_content(q, s, nfa.trim());
            }
            EncSym::Text => {
                out.set_text_ok(q, is_nil[b.index()]);
            }
            EncSym::Nil => unreachable!("Nil never appears in internal rules"),
        }
    }

    // Roots: (λ, a, b) with a final and a rule λ(b, r) → a for Nil-derivable r.
    for &(l, b, y, a) in &rules {
        if nbta.is_final(a) && is_nil[y.index()] {
            out.add_root(state_ids[&(l, a, b)]);
        }
    }
    out.trim(budget)
}

/// The complement of `L(nta)` within all text trees over the same alphabet:
/// encode → determinize → flip → decode, charging the shared
/// [`BudgetHandle`] through every encode/determinize/trim stage.
///
/// The result is returned to the caller as an automaton, so this keeps the
/// eager subset construction.
pub fn complement_nta(nta: &Nta, budget: &BudgetHandle) -> Result<Nta, BudgetExceeded> {
    let nbta = nta_to_nbta(nta).trim(budget)?;
    let comp = nbta
        .determinize(budget)?
        .complement()
        .to_nbta()
        .trim(budget)?;
    nbta_to_nta(&comp, nta.symbol_count(), budget)
}

/// The difference `L(n1) ∖ L(n2)`. Like [`complement_nta`] this returns an
/// automaton (the maximal sub-schema of the paper's conclusion), so the
/// complement stays eager — but every stage charges the budget.
pub fn difference_nta(n1: &Nta, n2: &Nta, budget: &BudgetHandle) -> Result<Nta, BudgetExceeded> {
    let not2 = complement_nta(n2, budget)?;
    n1.intersect(&not2, budget)?.trim(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nta::NtaBuilder;
    use tpx_trees::term::parse_tree;
    use tpx_trees::Alphabet;

    fn alpha() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    /// Whether `L(n1) ⊆ L(n2)`, decided by emptiness of the eager
    /// difference.
    fn subset(n1: &Nta, n2: &Nta) -> bool {
        let budget = BudgetHandle::unlimited();
        difference_nta(n1, n2, &budget)
            .unwrap()
            .is_empty(&budget)
            .unwrap()
    }

    fn equal(n1: &Nta, n2: &Nta) -> bool {
        subset(n1, n2) && subset(n2, n1)
    }

    /// Root `a`, children `(b | text)*`, each `b` has exactly one text child.
    fn simple_nta(al: &Alphabet) -> Nta {
        let mut b = NtaBuilder::new(al);
        b.root("qa");
        b.rule("qa", "a", "(qb | qt)*");
        b.rule("qb", "b", "qt");
        b.text_rule("qt");
        b.finish()
    }

    const SAMPLES: [&str; 10] = [
        r#"a"#,
        r#"a("x")"#,
        r#"a(b("x"))"#,
        r#"a(b("x") "y" b("z"))"#,
        r#"a(b)"#,
        r#"a(b("x" "y"))"#,
        r#"b("x")"#,
        r#"a(a)"#,
        r#"b"#,
        r#"a(b(b("x")))"#,
    ];

    #[test]
    fn nta_to_nbta_agrees_on_samples() {
        let mut al = alpha();
        let nta = simple_nta(&al);
        let nbta = nta_to_nbta(&nta);
        for src in SAMPLES {
            let t = parse_tree(src, &mut al).unwrap();
            let enc = encode_for_automata(&t);
            assert_eq!(nbta.accepts(&enc), nta.accepts(&t), "{src}");
        }
    }

    #[test]
    fn round_trip_preserves_language() {
        let mut al = alpha();
        let nta = simple_nta(&al);
        let budget = BudgetHandle::unlimited();
        let trimmed = nta_to_nbta(&nta).trim(&budget).unwrap();
        let back = nbta_to_nta(&trimmed, al.len(), &budget).unwrap();
        for src in SAMPLES {
            let t = parse_tree(src, &mut al).unwrap();
            assert_eq!(back.accepts(&t), nta.accepts(&t), "{src}");
        }
    }

    #[test]
    fn complement_flips_membership() {
        let mut al = alpha();
        let nta = simple_nta(&al);
        let comp = complement_nta(&nta, &BudgetHandle::unlimited()).unwrap();
        for src in SAMPLES {
            let t = parse_tree(src, &mut al).unwrap();
            assert_eq!(comp.accepts(&t), !nta.accepts(&t), "{src}");
        }
    }

    #[test]
    fn complement_witness_is_a_counterexample() {
        let al = alpha();
        let nta = simple_nta(&al);
        let budget = BudgetHandle::unlimited();
        let comp = complement_nta(&nta, &budget).unwrap();
        let w = comp
            .witness(&budget)
            .unwrap()
            .expect("complement is non-empty");
        assert!(!nta.accepts(&w));
    }

    #[test]
    fn difference_semantics() {
        let mut al = alpha();
        // L1: root a with text* children. L2: root a with exactly one child.
        let mut b1 = NtaBuilder::new(&al);
        b1.root("q0");
        b1.rule("q0", "a", "qt*");
        b1.text_rule("qt");
        let n1 = b1.finish();
        let mut b2 = NtaBuilder::new(&al);
        b2.root("p0");
        b2.rule("p0", "a", "pc");
        b2.rule("pc", "a", "pc*");
        b2.rule("pc", "b", "pc*");
        b2.text_rule("pc");
        let n2 = b2.finish();
        let d = difference_nta(&n1, &n2, &BudgetHandle::unlimited()).unwrap();
        // In L1\L2: a with 0 or ≥2 text children.
        assert!(d.accepts(&parse_tree(r#"a"#, &mut al).unwrap()));
        assert!(d.accepts(&parse_tree(r#"a("x" "y")"#, &mut al).unwrap()));
        assert!(!d.accepts(&parse_tree(r#"a("x")"#, &mut al).unwrap()));
        assert!(!d.accepts(&parse_tree(r#"a(b)"#, &mut al).unwrap()));
    }

    #[test]
    fn subset_and_equality() {
        let al = alpha();
        let full = simple_nta(&al);
        // Restriction: same schema but b-children forbidden.
        let mut b2 = NtaBuilder::new(&al);
        b2.root("qa");
        b2.rule("qa", "a", "qt*");
        b2.text_rule("qt");
        let restricted = b2.finish();
        assert!(subset(&restricted, &full));
        assert!(!subset(&full, &restricted));
        assert!(!equal(&full, &restricted));
        assert!(equal(&full, &full));
        // Round-tripping through the encoding preserves the language.
        let budget = BudgetHandle::unlimited();
        let trimmed = nta_to_nbta(&full).trim(&budget).unwrap();
        let back = nbta_to_nta(&trimmed, al.len(), &budget).unwrap();
        assert!(equal(&full, &back));
        // Double complement is the identity.
        let cc = complement_nta(&complement_nta(&full, &budget).unwrap(), &budget).unwrap();
        assert!(equal(&full, &cc));
    }

    #[test]
    fn decode_witness_round_trip() {
        let mut al = alpha();
        let t = parse_tree(r#"a(b("x") "y")"#, &mut al).unwrap();
        let enc = encode_for_automata(&t);
        let back = decode_witness(&enc).unwrap();
        // Structure preserved; text values are regenerated placeholders.
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.text_content().len(), t.text_content().len());
    }

    #[test]
    fn empty_nta_complement_is_everything() {
        let al = alpha();
        let mut b = NtaBuilder::new(&al);
        b.root("q0");
        b.rule("q0", "a", "qdead");
        b.rule("qdead", "a", "qdead");
        let empty = b.finish();
        let budget = BudgetHandle::unlimited();
        assert!(empty.is_empty(&budget).unwrap());
        let comp = complement_nta(&empty, &budget).unwrap();
        let mut al2 = alpha();
        for src in ["a", "b", r#"a(b "x")"#] {
            assert!(comp.accepts(&parse_tree(src, &mut al2).unwrap()), "{src}");
        }
    }

    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_term(depth: u32) -> impl Strategy<Value = String> {
            let leaf = prop_oneof![
                Just("a".to_owned()),
                Just("b".to_owned()),
                Just("\"t\"".to_owned()),
            ];
            leaf.prop_recursive(depth, 16, 3, |inner| {
                (
                    prop_oneof![Just("a"), Just("b")],
                    proptest::collection::vec(inner, 0..3),
                )
                    .prop_map(|(l, kids)| format!("{l}({})", kids.join(" ")))
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn encoding_route_agrees_with_direct_membership(src in arb_term(3)) {
                let mut al = alpha();
                let nta = simple_nta(&al);
                let nbta = nta_to_nbta(&nta);
                let comp = complement_nta(&nta, &BudgetHandle::unlimited()).unwrap();
                let t = parse_tree(&src, &mut al).unwrap();
                let direct = nta.accepts(&t);
                prop_assert_eq!(nbta.accepts(&encode_for_automata(&t)), direct);
                prop_assert_eq!(comp.accepts(&t), !direct);
            }
        }
    }
}
