//! Nondeterministic and deterministic bottom-up binary tree automata.
//!
//! These run on ranked trees with arities 0 and 2 — in this workspace,
//! always the first-child/next-sibling encodings of unranked hedges. The
//! alphabet is split into *leaf symbols* (arity 0, typically only the `⊥`
//! padding symbol) and *internal symbols* (arity 2); determinization and
//! complement are relative to those explicit alphabets, so Boolean closure
//! is available for the counter-example-language constructions of
//! Sections 4.3 and 5.3.

use crate::nta::State;
use crate::ranked::RankedTree;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};

/// Internal rules grouped by symbol: `(q₁, q₂, result states)` per `σ`.
type RulesBySymbol<'a, L> = HashMap<&'a L, Vec<(State, State, &'a Vec<State>)>>;

/// A nondeterministic bottom-up binary tree automaton over symbols `L`.
#[derive(Clone, Debug)]
pub struct Nbta<L> {
    leaf_alphabet: Vec<L>,
    internal_alphabet: Vec<L>,
    pub(crate) n_states: usize,
    finals: Vec<bool>,
    /// `leaf L → q`.
    pub(crate) leaf_rules: HashMap<L, Vec<State>>,
    /// `σ(q₁, q₂) → q`.
    pub(crate) rules: HashMap<(L, State, State), Vec<State>>,
}

impl<L: Clone + Eq + Hash> Nbta<L> {
    /// An automaton with the given alphabets and no states.
    pub fn new(leaf_alphabet: Vec<L>, internal_alphabet: Vec<L>) -> Self {
        Nbta {
            leaf_alphabet,
            internal_alphabet,
            n_states: 0,
            finals: Vec::new(),
            leaf_rules: HashMap::new(),
            rules: HashMap::new(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> State {
        let q = State(self.n_states as u32);
        self.n_states += 1;
        self.finals.push(false);
        q
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Number of rules (leaf + internal).
    pub fn rule_count(&self) -> usize {
        self.leaf_rules.values().map(Vec::len).sum::<usize>()
            + self.rules.values().map(Vec::len).sum::<usize>()
    }

    /// The leaf alphabet.
    pub fn leaf_alphabet(&self) -> &[L] {
        &self.leaf_alphabet
    }

    /// The internal alphabet.
    pub fn internal_alphabet(&self) -> &[L] {
        &self.internal_alphabet
    }

    /// Marks `q` final.
    pub fn set_final(&mut self, q: State, f: bool) {
        self.finals[q.index()] = f;
    }

    /// Whether `q` is final.
    pub fn is_final(&self, q: State) -> bool {
        self.finals[q.index()]
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = State> {
        (0..self.n_states as u32).map(State)
    }

    /// Adds the leaf rule `l → q`.
    pub fn add_leaf_rule(&mut self, l: L, q: State) {
        let row = self.leaf_rules.entry(l).or_default();
        if !row.contains(&q) {
            row.push(q);
        }
    }

    /// Adds the rule `σ(q₁, q₂) → q`.
    pub fn add_rule(&mut self, sigma: L, q1: State, q2: State, q: State) {
        let row = self.rules.entry((sigma, q1, q2)).or_default();
        if !row.contains(&q) {
            row.push(q);
        }
    }

    /// The states derivable at an `l`-leaf.
    pub fn leaf_states(&self, l: &L) -> &[State] {
        self.leaf_rules.get(l).map_or(&[], Vec::as_slice)
    }

    /// The states derivable by `σ(q₁, q₂)`.
    pub fn rule_states(&self, sigma: &L, q1: State, q2: State) -> &[State] {
        self.rules
            .get(&(sigma.clone(), q1, q2))
            .map_or(&[], Vec::as_slice)
    }

    /// Bottom-up evaluation: the set of states derivable at the root of `t`.
    pub fn eval(&self, t: &RankedTree<L>) -> Vec<State> {
        match t {
            RankedTree::Leaf(l) => self.leaf_states(l).to_vec(),
            RankedTree::Node(l, a, b) => {
                let sa = self.eval(a);
                let sb = self.eval(b);
                let mut out = Vec::new();
                let mut seen = vec![false; self.n_states];
                for &q1 in &sa {
                    for &q2 in &sb {
                        for &q in self.rule_states(l, q1, q2) {
                            if !seen[q.index()] {
                                seen[q.index()] = true;
                                out.push(q);
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// Whether the automaton accepts `t`.
    pub fn accepts(&self, t: &RankedTree<L>) -> bool {
        self.eval(t).iter().any(|&q| self.is_final(q))
    }

    /// States derivable by *some* tree. Charges one fuel unit per rule
    /// scanned per saturation round.
    fn derivable_states(&self, budget: &BudgetHandle) -> Result<Vec<bool>, BudgetExceeded> {
        let mut derivable = vec![false; self.n_states];
        let mut queue: VecDeque<State> = VecDeque::new();
        for states in self.leaf_rules.values() {
            for &q in states {
                if !derivable[q.index()] {
                    derivable[q.index()] = true;
                    queue.push_back(q);
                }
            }
        }
        // Saturate: a rule fires when both operands are derivable.
        loop {
            budget.charge(self.rules.len() as u64)?;
            let mut changed = false;
            for ((_, q1, q2), outs) in &self.rules {
                if derivable[q1.index()] && derivable[q2.index()] {
                    for &q in outs {
                        if !derivable[q.index()] {
                            derivable[q.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return Ok(derivable);
            }
        }
    }

    /// Whether `L(B) = ∅`.
    pub fn is_empty(&self, budget: &BudgetHandle) -> Result<bool, BudgetExceeded> {
        let derivable = self.derivable_states(budget)?;
        Ok(!self
            .states()
            .any(|q| self.is_final(q) && derivable[q.index()]))
    }

    /// A witness tree, if the language is non-empty (small, not necessarily
    /// minimal). Charges one fuel unit per rule scanned per saturation
    /// round.
    pub fn witness(&self, budget: &BudgetHandle) -> Result<Option<RankedTree<L>>, BudgetExceeded> {
        #[derive(Clone)]
        enum Recipe<L> {
            Leaf(L),
            Node(L, State, State),
        }
        let mut recipe: Vec<Option<Recipe<L>>> = vec![None; self.n_states];
        for (l, states) in &self.leaf_rules {
            for &q in states {
                if recipe[q.index()].is_none() {
                    recipe[q.index()] = Some(Recipe::Leaf(l.clone()));
                }
            }
        }
        loop {
            budget.charge(self.rules.len() as u64)?;
            let mut changed = false;
            for ((l, q1, q2), outs) in &self.rules {
                if recipe[q1.index()].is_some() && recipe[q2.index()].is_some() {
                    for &q in outs {
                        if recipe[q.index()].is_none() {
                            recipe[q.index()] = Some(Recipe::Node(l.clone(), *q1, *q2));
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let Some(target) = self
            .states()
            .find(|&q| self.is_final(q) && recipe[q.index()].is_some())
        else {
            return Ok(None);
        };
        fn build<L: Clone>(recipe: &[Option<Recipe<L>>], q: State) -> RankedTree<L> {
            match recipe[q.index()].as_ref().expect("derivable") {
                Recipe::Leaf(l) => RankedTree::Leaf(l.clone()),
                Recipe::Node(l, a, b) => {
                    RankedTree::node(l.clone(), build(recipe, *a), build(recipe, *b))
                }
            }
        }
        Ok(Some(build(&recipe, target)))
    }

    /// Product automaton accepting `L(self) ∩ L(other)` (alphabets must
    /// match as sets; `self`'s ordering is kept).
    ///
    /// Built on the fly over *derivable* state pairs only, so the cost is
    /// bounded by the reachable product, not `|Q₁|·|Q₂|` — essential for
    /// the long intersection chains in the Section 5.3 deciders. Charges
    /// one fuel unit per discovered product state and per product rule
    /// constructed.
    pub fn intersect(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<Nbta<L>, BudgetExceeded> {
        let mut out = Nbta::new(self.leaf_alphabet.clone(), self.internal_alphabet.clone());
        let mut ids: HashMap<(State, State), State> = HashMap::new();
        let mut queue: VecDeque<(State, State)> = VecDeque::new();
        let intern = |a: State,
                      b: State,
                      out: &mut Nbta<L>,
                      ids: &mut HashMap<(State, State), State>,
                      queue: &mut VecDeque<(State, State)>|
         -> State {
            *ids.entry((a, b)).or_insert_with(|| {
                let q = out.add_state();
                out.set_final(q, self.is_final(a) && other.is_final(b));
                queue.push_back((a, b));
                q
            })
        };
        // Leaf rules seed the worklist.
        for l in &self.leaf_alphabet {
            let bs = other.leaf_states(l).to_vec();
            for &a in self.leaf_states(l) {
                for &b in &bs {
                    let q = intern(a, b, &mut out, &mut ids, &mut queue);
                    out.add_leaf_rule(l.clone(), q);
                }
            }
        }
        // Rule indexes by (symbol, operand).
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
        let symbols: Vec<&L> = self.internal_alphabet.iter().collect();
        while let Some((a, b)) = queue.pop_front() {
            budget.charge(1)?;
            let left_id = ids[&(a, b)];
            // The popped pair as LEFT operand: partner right pairs must
            // already be discovered.
            for &l in &symbols {
                let (Some(r1), Some(r2)) = (idx1_first.get(&(l, a)), idx2_first.get(&(l, b)))
                else {
                    continue;
                };
                // Clone partner lists to end borrows before interning.
                let joins: Vec<(State, &Vec<State>, State, &Vec<State>)> = r1
                    .iter()
                    .flat_map(|&(a2, o1)| r2.iter().map(move |&(b2, o2)| (a2, o1, b2, o2)))
                    .collect();
                for (a2, outs1, b2, outs2) in joins {
                    if let Some(&right_id) = ids.get(&(a2, b2)) {
                        for &oa in outs1 {
                            for &ob in outs2 {
                                budget.charge(1)?;
                                let oq = intern(oa, ob, &mut out, &mut ids, &mut queue);
                                out.add_rule(l.clone(), left_id, right_id, oq);
                            }
                        }
                    }
                }
            }
            // The popped pair as RIGHT operand.
            for &l in &symbols {
                let (Some(r1), Some(r2)) = (idx1_second.get(&(l, a)), idx2_second.get(&(l, b)))
                else {
                    continue;
                };
                let joins: Vec<(State, &Vec<State>, State, &Vec<State>)> = r1
                    .iter()
                    .flat_map(|&(a1, o1)| r2.iter().map(move |&(b1, o2)| (a1, o1, b1, o2)))
                    .collect();
                for (a1, outs1, b1, outs2) in joins {
                    if let Some(&left2_id) = ids.get(&(a1, b1)) {
                        for &oa in outs1 {
                            for &ob in outs2 {
                                budget.charge(1)?;
                                let oq = intern(oa, ob, &mut out, &mut ids, &mut queue);
                                out.add_rule(l.clone(), left2_id, ids[&(a, b)], oq);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Disjoint union accepting `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nbta<L>) -> Nbta<L> {
        let mut out = self.clone();
        let offset = out.n_states as u32;
        for _ in 0..other.n_states {
            out.add_state();
        }
        for q in other.states() {
            out.set_final(State(q.0 + offset), other.is_final(q));
        }
        for (l, states) in &other.leaf_rules {
            for &q in states {
                out.add_leaf_rule(l.clone(), State(q.0 + offset));
            }
        }
        for ((l, q1, q2), outs) in &other.rules {
            for &q in outs {
                out.add_rule(
                    l.clone(),
                    State(q1.0 + offset),
                    State(q2.0 + offset),
                    State(q.0 + offset),
                );
            }
        }
        out
    }

    /// Copies the automaton onto the given alphabets, relabelling every
    /// rule's symbol through `f` — MSO projection `∃X` (dropping a variable
    /// bit) and the bit strip of a compiled sentence. The alphabets must
    /// contain the image of every symbol with a rule. The result is
    /// nondeterministic even if `self` was obtained from a DBTA. Charges one
    /// fuel unit per rule copied.
    pub fn relabel<M: Clone + Eq + Hash>(
        &self,
        leaf_alphabet: Vec<M>,
        internal_alphabet: Vec<M>,
        f: impl Fn(&L) -> M,
        budget: &BudgetHandle,
    ) -> Result<Nbta<M>, BudgetExceeded> {
        let mut out = Nbta::new(leaf_alphabet, internal_alphabet);
        out.n_states = self.n_states;
        out.finals = self.finals.clone();
        for (l, states) in &self.leaf_rules {
            budget.charge(states.len() as u64)?;
            let m = f(l);
            for &q in states {
                out.add_leaf_rule(m.clone(), q);
            }
        }
        for ((l, q1, q2), outs) in &self.rules {
            budget.charge(outs.len() as u64)?;
            let m = f(l);
            for &q in outs {
                out.add_rule(m.clone(), *q1, *q2, q);
            }
        }
        Ok(out)
    }

    /// Inverse relabelling (MSO cylindrification): builds an automaton over
    /// the new alphabets that treats each symbol `m` like `self` treats
    /// `g(m)`.
    pub fn inverse_map<M: Clone + Eq + Hash>(
        &self,
        leaf_alphabet: Vec<M>,
        internal_alphabet: Vec<M>,
        g: impl Fn(&M) -> L,
    ) -> Nbta<M> {
        let mut out = Nbta::new(leaf_alphabet.clone(), internal_alphabet.clone());
        for _ in 0..self.n_states {
            out.add_state();
        }
        for q in self.states() {
            out.set_final(q, self.is_final(q));
        }
        for m in &leaf_alphabet {
            let l = g(m);
            for &q in self.leaf_states(&l) {
                out.add_leaf_rule(m.clone(), q);
            }
        }
        for m in &internal_alphabet {
            let l = g(m);
            for ((rl, q1, q2), outs) in &self.rules {
                if *rl == l {
                    for &q in outs {
                        out.add_rule(m.clone(), *q1, *q2, q);
                    }
                }
            }
        }
        out
    }

    /// Removes states that are not derivable or cannot contribute to an
    /// accepting run. Language-preserving; crucial for keeping the MSO
    /// pipeline small. Charges one fuel unit per rule scanned per
    /// saturation round plus one per surviving rule rebuilt.
    pub fn trim(&self, budget: &BudgetHandle) -> Result<Nbta<L>, BudgetExceeded> {
        let derivable = self.derivable_states(budget)?;
        // Co-derivability: q useful if final, or appears as operand of a rule
        // with useful output and derivable sibling.
        let mut useful: Vec<bool> = self
            .states()
            .map(|q| self.is_final(q) && derivable[q.index()])
            .collect();
        loop {
            budget.charge(self.rules.len() as u64)?;
            let mut changed = false;
            for ((_, q1, q2), outs) in &self.rules {
                if !derivable[q1.index()] || !derivable[q2.index()] {
                    continue;
                }
                if outs.iter().any(|q| useful[q.index()]) {
                    if !useful[q1.index()] {
                        useful[q1.index()] = true;
                        changed = true;
                    }
                    if !useful[q2.index()] {
                        useful[q2.index()] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let keep: Vec<State> = self
            .states()
            .filter(|q| derivable[q.index()] && useful[q.index()])
            .collect();
        let remap: HashMap<State, State> = keep
            .iter()
            .enumerate()
            .map(|(i, &q)| (q, State(i as u32)))
            .collect();
        let mut out = Nbta::new(self.leaf_alphabet.clone(), self.internal_alphabet.clone());
        for _ in 0..keep.len() {
            out.add_state();
        }
        for &q in &keep {
            out.set_final(remap[&q], self.is_final(q));
        }
        for (l, states) in &self.leaf_rules {
            for q in states {
                if let Some(&nq) = remap.get(q) {
                    out.add_leaf_rule(l.clone(), nq);
                }
            }
        }
        for ((l, q1, q2), outs) in &self.rules {
            let (Some(&n1), Some(&n2)) = (remap.get(q1), remap.get(q2)) else {
                continue;
            };
            for q in outs {
                if let Some(&nq) = remap.get(q) {
                    budget.charge(1)?;
                    out.add_rule(l.clone(), n1, n2, nq);
                }
            }
        }
        Ok(out)
    }

    /// Subset construction: a complete deterministic automaton over the same
    /// alphabets. Charges one fuel unit per transition of the subset
    /// automaton — the construction is the workspace's one truly
    /// exponential site, so this is where a budget matters most.
    pub fn determinize(&self, budget: &BudgetHandle) -> Result<Dbta<L>, BudgetExceeded> {
        // Group rules by symbol for the inner loop, and use bitsets for
        // class membership.
        let words = self.n_states.div_ceil(64).max(1);
        let mut by_symbol: RulesBySymbol<L> = HashMap::new();
        for ((l, q1, q2), outs) in &self.rules {
            by_symbol.entry(l).or_default().push((*q1, *q2, outs));
        }
        let to_bits = |set: &[State]| -> Vec<u64> {
            let mut bits = vec![0u64; words];
            for q in set {
                bits[q.index() / 64] |= 1 << (q.index() % 64);
            }
            bits
        };
        let has = |bits: &[u64], q: State| bits[q.index() / 64] & (1 << (q.index() % 64)) != 0;

        let mut class_ids: HashMap<Vec<State>, u32> = HashMap::new();
        let mut classes: Vec<Vec<State>> = Vec::new();
        let mut class_bits: Vec<Vec<u64>> = Vec::new();
        let mut queue: VecDeque<u32> = VecDeque::new();
        let intern = |set: Vec<State>,
                      classes: &mut Vec<Vec<State>>,
                      class_bits: &mut Vec<Vec<u64>>,
                      class_ids: &mut HashMap<Vec<State>, u32>,
                      queue: &mut VecDeque<u32>|
         -> u32 {
            if let Some(&id) = class_ids.get(&set) {
                return id;
            }
            let id = classes.len() as u32;
            class_bits.push(to_bits(&set));
            classes.push(set.clone());
            class_ids.insert(set, id);
            queue.push_back(id);
            id
        };
        let mut leaf_map: HashMap<L, u32> = HashMap::new();
        for l in &self.leaf_alphabet {
            let mut set = self.leaf_states(l).to_vec();
            set.sort_unstable();
            set.dedup();
            let id = intern(
                set,
                &mut classes,
                &mut class_bits,
                &mut class_ids,
                &mut queue,
            );
            leaf_map.insert(l.clone(), id);
        }
        // Make sure the empty class exists (needed as a sink).
        intern(
            Vec::new(),
            &mut classes,
            &mut class_bits,
            &mut class_ids,
            &mut queue,
        );

        // Worklist: when a class is popped, pair it with every already
        // paired class (and itself); each ordered pair is processed once.
        let mut trans: HashMap<(L, u32, u32), u32> = HashMap::new();
        let mut paired: Vec<u32> = Vec::new();
        let mut out_bits = vec![0u64; words];
        while let Some(c) = queue.pop_front() {
            paired.push(c);
            // All ordered pairs involving `c` and any previously paired class.
            let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * paired.len());
            for &d in &paired {
                pairs.push((c, d));
                if d != c {
                    pairs.push((d, c));
                }
            }
            for (c1, c2) in pairs {
                for (l, rules) in &by_symbol {
                    budget.charge(1)?;
                    out_bits.iter_mut().for_each(|w| *w = 0);
                    let b1 = &class_bits[c1 as usize];
                    let b2 = &class_bits[c2 as usize];
                    let mut any = false;
                    for (q1, q2, outs) in rules {
                        if has(b1, *q1) && has(b2, *q2) {
                            for q in outs.iter() {
                                out_bits[q.index() / 64] |= 1 << (q.index() % 64);
                            }
                            any = true;
                        }
                    }
                    let set: Vec<State> = if any {
                        (0..self.n_states as u32)
                            .map(State)
                            .filter(|q| has(&out_bits, *q))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let id = intern(
                        set,
                        &mut classes,
                        &mut class_bits,
                        &mut class_ids,
                        &mut queue,
                    );
                    trans.insert(((*l).clone(), c1, c2), id);
                }
                // Symbols with no rules at all map every pair to ∅.
                for l in &self.internal_alphabet {
                    if !by_symbol.contains_key(l) {
                        let empty = class_ids[&Vec::new()];
                        trans.insert((l.clone(), c1, c2), empty);
                    }
                }
            }
        }
        let finals = classes
            .iter()
            .map(|set| set.iter().any(|&q| self.is_final(q)))
            .collect();
        Ok(Dbta {
            leaf_alphabet: self.leaf_alphabet.clone(),
            internal_alphabet: self.internal_alphabet.clone(),
            n_classes: classes.len(),
            leaf_map,
            trans,
            finals,
        })
    }
}

/// A complete deterministic bottom-up binary tree automaton.
#[derive(Clone, Debug)]
pub struct Dbta<L> {
    leaf_alphabet: Vec<L>,
    internal_alphabet: Vec<L>,
    n_classes: usize,
    leaf_map: HashMap<L, u32>,
    trans: HashMap<(L, u32, u32), u32>,
    finals: Vec<bool>,
}

impl<L: Clone + Eq + Hash> Dbta<L> {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_classes
    }

    /// Evaluates `t` to its unique state. Panics on symbols outside the
    /// alphabets.
    pub fn eval(&self, t: &RankedTree<L>) -> u32 {
        match t {
            RankedTree::Leaf(l) => *self
                .leaf_map
                .get(l)
                .expect("leaf symbol outside the automaton's alphabet"),
            RankedTree::Node(l, a, b) => {
                let ca = self.eval(a);
                let cb = self.eval(b);
                *self
                    .trans
                    .get(&(l.clone(), ca, cb))
                    .expect("internal symbol/state pair outside the automaton's table")
            }
        }
    }

    /// Whether the automaton accepts `t`.
    pub fn accepts(&self, t: &RankedTree<L>) -> bool {
        self.finals[self.eval(t) as usize]
    }

    /// Complement (final flags flipped; completeness makes this exact).
    pub fn complement(&self) -> Dbta<L> {
        Dbta {
            finals: self.finals.iter().map(|f| !f).collect(),
            ..self.clone()
        }
    }

    /// Converts back to a nondeterministic automaton.
    pub fn to_nbta(&self) -> Nbta<L> {
        let mut out = Nbta::new(self.leaf_alphabet.clone(), self.internal_alphabet.clone());
        for _ in 0..self.n_classes {
            out.add_state();
        }
        for (c, &f) in self.finals.iter().enumerate() {
            out.set_final(State(c as u32), f);
        }
        for (l, &c) in &self.leaf_map {
            out.add_leaf_rule(l.clone(), State(c));
        }
        for ((l, c1, c2), &c) in &self.trans {
            out.add_rule(l.clone(), State(*c1), State(*c2), State(c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = RankedTree<char>;

    fn leaf() -> T {
        RankedTree::Leaf('#')
    }

    fn node(l: char, a: T, b: T) -> T {
        RankedTree::node(l, a, b)
    }

    /// Accepts trees whose frontier-to-root path... simpler: accepts trees
    /// containing at least one 'a' internal node.
    fn contains_a() -> Nbta<char> {
        let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
        let q0 = b.add_state(); // no 'a' seen
        let q1 = b.add_state(); // 'a' seen
        b.set_final(q1, true);
        b.add_leaf_rule('#', q0);
        for (l, r, o) in [
            ('b', (q0, q0), q0),
            ('b', (q0, q1), q1),
            ('b', (q1, q0), q1),
            ('b', (q1, q1), q1),
            ('a', (q0, q0), q1),
            ('a', (q0, q1), q1),
            ('a', (q1, q0), q1),
            ('a', (q1, q1), q1),
        ]
        .map(|(l, (x, y), o)| (l, (x, y), o))
        {
            b.add_rule(l, r.0, r.1, o);
        }
        b
    }

    #[test]
    fn eval_and_accept() {
        let m = contains_a();
        assert!(!m.accepts(&leaf()));
        assert!(!m.accepts(&node('b', leaf(), leaf())));
        assert!(m.accepts(&node('a', leaf(), leaf())));
        assert!(m.accepts(&node('b', node('a', leaf(), leaf()), leaf())));
    }

    #[test]
    fn emptiness_and_witness() {
        let m = contains_a();
        let budget = BudgetHandle::unlimited();
        assert!(!m.is_empty(&budget).unwrap());
        let w = m.witness(&budget).unwrap().unwrap();
        assert!(m.accepts(&w));

        let mut empty = Nbta::new(vec!['#'], vec!['a']);
        let q = empty.add_state();
        let f = empty.add_state();
        empty.set_final(f, true);
        empty.add_leaf_rule('#', q);
        // No rule ever produces f.
        assert!(empty.is_empty(&budget).unwrap());
        assert!(empty.witness(&budget).unwrap().is_none());
    }

    #[test]
    fn determinize_complement() {
        let m = contains_a();
        let d = m.determinize(&BudgetHandle::unlimited()).unwrap();
        let c = d.complement();
        let samples = [
            leaf(),
            node('a', leaf(), leaf()),
            node('b', leaf(), leaf()),
            node('b', node('b', leaf(), leaf()), node('a', leaf(), leaf())),
        ];
        for t in &samples {
            assert_eq!(d.accepts(t), m.accepts(t));
            assert_eq!(c.accepts(t), !m.accepts(t));
        }
        // Round trip through NBTA preserves language.
        let back = c.to_nbta();
        for t in &samples {
            assert_eq!(back.accepts(t), !m.accepts(t));
        }
    }

    #[test]
    fn intersection_union() {
        // L1: contains 'a'. L2: root is 'b'.
        let m1 = contains_a();
        let mut m2 = Nbta::new(vec!['#'], vec!['a', 'b']);
        let any = m2.add_state();
        let rootb = m2.add_state();
        m2.set_final(rootb, true);
        m2.add_leaf_rule('#', any);
        for l in ['a', 'b'] {
            m2.add_rule(l, any, any, any);
        }
        m2.add_rule('b', any, any, rootb);
        let i = m1.intersect(&m2, &BudgetHandle::unlimited()).unwrap();
        let u = m1.union(&m2);
        let t_yes = node('b', node('a', leaf(), leaf()), leaf());
        let t_only1 = node('a', leaf(), leaf());
        let t_only2 = node('b', leaf(), leaf());
        let t_no = leaf();
        assert!(i.accepts(&t_yes));
        assert!(!i.accepts(&t_only1));
        assert!(!i.accepts(&t_only2));
        assert!(u.accepts(&t_only1));
        assert!(u.accepts(&t_only2));
        assert!(!u.accepts(&t_no));
    }

    #[test]
    fn trim_preserves_language() {
        let mut m = contains_a();
        // Add junk states.
        let dead = m.add_state();
        m.add_rule('a', dead, dead, dead);
        let trimmed = m.trim(&BudgetHandle::unlimited()).unwrap();
        assert!(trimmed.state_count() <= 2);
        for t in [
            leaf(),
            node('a', leaf(), leaf()),
            node('b', node('a', leaf(), leaf()), leaf()),
        ] {
            assert_eq!(trimmed.accepts(&t), contains_a().accepts(&t));
        }
    }

    #[test]
    fn map_and_inverse_map() {
        let m = contains_a();
        // Project 'a' and 'b' to a single symbol 'x': language becomes
        // "some projected tree containing a"; since both map to 'x', the
        // projected automaton accepts any 'x'-tree with ≥ 1 internal node.
        let p = m
            .relabel(
                vec!['#'],
                vec!['x'],
                |&c| if c == '#' { '#' } else { 'x' },
                &BudgetHandle::unlimited(),
            )
            .unwrap();
        assert!(p.accepts(&node('x', RankedTree::Leaf('#'), RankedTree::Leaf('#'))));
        assert!(!p.accepts(&RankedTree::Leaf('#')));
        // Inverse map: interpret 'A' and 'a' both as 'a', 'B' as 'b'.
        let inv = m.inverse_map(vec!['#'], vec!['A', 'B', 'a', 'b'], |&c| {
            c.to_ascii_lowercase()
        });
        assert!(inv.accepts(&node('A', leaf(), leaf())));
        assert!(!inv.accepts(&node('B', leaf(), leaf())));
    }

    #[test]
    fn budgeted_ops_match_unbudgeted_and_fail_on_zero_fuel() {
        use tpx_trees::budget::{Budget, ExhaustReason};
        let m = contains_a();
        let unlimited = BudgetHandle::unlimited();
        // Generous budget: the same results as an unlimited one.
        let b = Budget::default().with_fuel(1_000_000).start();
        let i = m.intersect(&contains_a(), &b).unwrap();
        let i_unlimited = m.intersect(&contains_a(), &unlimited).unwrap();
        assert_eq!(i.state_count(), i_unlimited.state_count());
        let d = m.determinize(&b).unwrap();
        assert_eq!(
            d.state_count(),
            m.determinize(&unlimited).unwrap().state_count()
        );
        assert!(!m.is_empty(&b).unwrap());
        assert!(m.witness(&b).unwrap().is_some());
        assert!(b.fuel_spent() > 0, "the ops must charge fuel");
        // Zero fuel: every op fails fast with a Fuel exhaustion.
        let z = Budget::default().with_fuel(0).start();
        for err in [
            m.intersect(&contains_a(), &z).map(|_| ()).unwrap_err(),
            m.determinize(&z).map(|_| ()).unwrap_err(),
            m.trim(&z).map(|_| ()).unwrap_err(),
            m.is_empty(&z).map(|_| ()).unwrap_err(),
            m.witness(&z).map(|_| ()).unwrap_err(),
            m.relabel(vec!['#'], vec!['a', 'b'], |&c| c, &z)
                .map(|_| ())
                .unwrap_err(),
        ] {
            assert_eq!(err.reason, ExhaustReason::Fuel);
        }
    }

    #[test]
    fn determinize_is_complete_over_alphabet() {
        // Automaton with NO rules still evaluates every tree (to the empty
        // class) after determinization.
        let m: Nbta<char> = Nbta::new(vec!['#'], vec!['a']);
        let d = m.determinize(&BudgetHandle::unlimited()).unwrap();
        assert!(!d.accepts(&leaf()));
        assert!(!d.accepts(&node('a', leaf(), leaf())));
        // And its complement accepts everything.
        let c = d.complement();
        assert!(c.accepts(&leaf()));
        assert!(c.accepts(&node('a', node('a', leaf(), leaf()), leaf())));
    }
}
