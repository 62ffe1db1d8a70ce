//! Nondeterministic unranked tree automata (NTAs), Section 2 of the paper.
//!
//! An NTA is `(Q, Σ ⊎ {text}, δ, Q₀, F)` where `δ(q, σ)` is a regular
//! language over `Q` (represented as an NFA) constraining the child-state
//! sequence of a `σ`-node in state `q`, and `text` nodes are accepted in
//! state `q` iff the automaton allows it (`δ(q, text) = {ε}`).
//!
//! Deviation from the paper (without loss of generality): we allow a *set*
//! of root states instead of the single `q₀`. This makes unions trivial and
//! is needed by the NBTA → NTA translation; a single-root normal form is one
//! fresh state away.
//!
//! Acceptance of a `σ`-leaf in state `q` is `ε ∈ δ(q, σ)`, exactly as in the
//! paper.

use std::collections::HashMap;
use std::fmt;

use tpx_automata::{Nfa, StateId};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::{Alphabet, Hedge, NodeId, NodeLabel, Symbol, Tree};

/// A tree-automaton state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct State(pub u32);

impl State {
    /// Dense index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A nondeterministic unranked tree automaton over `Σ ⊎ {text}` where `Σ` is
/// identified with symbol indices `0..symbol_count`.
#[derive(Clone, Debug)]
pub struct Nta {
    n_symbols: usize,
    /// `delta[q][σ]`: content model over `Q`, or `None` (empty language).
    delta: Vec<Vec<Option<Nfa<State>>>>,
    /// Whether text leaves are accepted in each state.
    text_ok: Vec<bool>,
    /// Root states (the paper's `q₀`, generalized to a set).
    roots: Vec<State>,
}

impl Nta {
    /// An automaton over an alphabet of `n_symbols` element labels, with no
    /// states yet.
    pub fn new(n_symbols: usize) -> Self {
        Nta {
            n_symbols,
            delta: Vec::new(),
            text_ok: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> State {
        let q = State(u32::try_from(self.delta.len()).expect("too many states"));
        self.delta.push(vec![None; self.n_symbols]);
        self.text_ok.push(false);
        q
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.delta.len()
    }

    /// Number of element symbols (`|Σ|`).
    pub fn symbol_count(&self) -> usize {
        self.n_symbols
    }

    /// Marks `q` as a root state.
    pub fn add_root(&mut self, q: State) {
        if !self.roots.contains(&q) {
            self.roots.push(q);
        }
    }

    /// The root states.
    pub fn roots(&self) -> &[State] {
        &self.roots
    }

    /// Allows (or disallows) text leaves in state `q`.
    pub fn set_text_ok(&mut self, q: State, ok: bool) {
        self.text_ok[q.index()] = ok;
    }

    /// Whether text leaves are accepted in state `q`.
    pub fn text_ok(&self, q: State) -> bool {
        self.text_ok[q.index()]
    }

    /// Sets the content model `δ(q, σ)`.
    pub fn set_content(&mut self, q: State, sym: Symbol, content: Nfa<State>) {
        self.delta[q.index()][sym.index()] = Some(content);
    }

    /// The content model `δ(q, σ)`, if defined.
    pub fn content(&self, q: State, sym: Symbol) -> Option<&Nfa<State>> {
        self.delta[q.index()][sym.index()].as_ref()
    }

    /// The paper's `|N| = |Q| + |δ|` where `|δ|` sums content-model sizes.
    pub fn size(&self) -> usize {
        self.state_count()
            + self
                .delta
                .iter()
                .flatten()
                .flatten()
                .map(Nfa::size)
                .sum::<usize>()
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = State> {
        (0..self.delta.len() as u32).map(State)
    }

    /// Bottom-up state sets: for every node of `h`, the set of states in
    /// which the subtree rooted there is accepted. Runs in time polynomial in
    /// `|h| · |N|` (the PTIME membership of Section 2).
    pub fn accepting_states(&self, h: &Hedge) -> HashMap<NodeId, Vec<State>> {
        let mut acc: HashMap<NodeId, Vec<State>> = HashMap::new();
        let mut order = h.dfs();
        order.reverse(); // children before parents
        for v in order {
            let states = match h.label(v) {
                NodeLabel::Text(_) => self.states().filter(|&q| self.text_ok[q.index()]).collect(),
                NodeLabel::Elem(s) => {
                    let child_sets: Vec<&Vec<State>> =
                        h.children(v).iter().map(|c| &acc[c]).collect();
                    self.states()
                        .filter(|&q| {
                            self.content(q, *s)
                                .is_some_and(|nfa| nfa_accepts_sets(nfa, &child_sets))
                        })
                        .collect()
                }
            };
            acc.insert(v, states);
        }
        acc
    }

    /// Whether the automaton accepts `t`.
    pub fn accepts(&self, t: &Tree) -> bool {
        let acc = self.accepting_states(t.as_hedge());
        acc[&t.root()].iter().any(|q| self.roots.contains(q))
    }

    /// Constructs an accepting run, if one exists.
    pub fn run(&self, t: &Tree) -> Option<Run> {
        let acc = self.accepting_states(t.as_hedge());
        let root_state = *acc[&t.root()].iter().find(|q| self.roots.contains(q))?;
        let mut assignment = HashMap::new();
        self.build_run(t.as_hedge(), t.root(), root_state, &acc, &mut assignment);
        Some(Run { assignment })
    }

    fn build_run(
        &self,
        h: &Hedge,
        v: NodeId,
        q: State,
        acc: &HashMap<NodeId, Vec<State>>,
        out: &mut HashMap<NodeId, State>,
    ) {
        out.insert(v, q);
        let NodeLabel::Elem(s) = h.label(v) else {
            return;
        };
        let nfa = self
            .content(q, *s)
            .expect("state was accepting, content model must exist");
        let child_sets: Vec<&Vec<State>> = h.children(v).iter().map(|c| &acc[c]).collect();
        let word = nfa_find_word(nfa, &child_sets).expect("state was accepting, a word must exist");
        for (&c, qc) in h.children(v).iter().zip(word) {
            self.build_run(h, c, qc, acc, out);
        }
    }

    /// Whether `L(N) = ∅`.
    pub fn is_empty(&self, budget: &BudgetHandle) -> Result<bool, BudgetExceeded> {
        let inhabited = self.inhabited_states(budget)?;
        Ok(!self.roots.iter().any(|q| inhabited[q.index()]))
    }

    /// The states `q` with a non-empty language (some tree evaluates to
    /// `q`). Charges one fuel unit per state scanned per saturation round.
    pub fn inhabited_states(&self, budget: &BudgetHandle) -> Result<Vec<bool>, BudgetExceeded> {
        let n = self.state_count();
        let mut inhabited = vec![false; n];
        loop {
            budget.charge(n as u64)?;
            let mut changed = false;
            for q in 0..n {
                if inhabited[q] {
                    continue;
                }
                let ok = self.text_ok[q]
                    || self.delta[q]
                        .iter()
                        .flatten()
                        .any(|nfa| nfa_accepts_over(nfa, &inhabited));
                if ok {
                    inhabited[q] = true;
                    changed = true;
                }
            }
            if !changed {
                return Ok(inhabited);
            }
        }
    }

    /// A witness tree in `L(N)`, if the language is non-empty. Text leaves in
    /// the witness carry placeholder values (`τ0, τ1, …` left to right).
    /// Charges one fuel unit per state scanned per saturation round.
    pub fn witness(&self, budget: &BudgetHandle) -> Result<Option<Tree>, BudgetExceeded> {
        let n = self.state_count();
        // recipe[q] = how to build a tree evaluating to q.
        let mut recipe: Vec<Option<Recipe>> = vec![None; n];
        loop {
            budget.charge(n as u64)?;
            let mut changed = false;
            let known: Vec<bool> = recipe.iter().map(Option::is_some).collect();
            for (q, slot) in recipe.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                if self.text_ok[q] {
                    *slot = Some(Recipe::Text);
                    changed = true;
                    continue;
                }
                for (sym, nfa) in self.delta[q].iter().enumerate() {
                    let Some(nfa) = nfa else { continue };
                    if let Some(word) = nfa_shortest_over(nfa, &known) {
                        *slot = Some(Recipe::Elem(Symbol(sym as u32), word));
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let Some(&q0) = self.roots.iter().find(|q| recipe[q.index()].is_some()) else {
            return Ok(None);
        };
        let mut b = tpx_trees::HedgeBuilder::new();
        let mut counter = 0usize;
        build_witness(&recipe, q0, &mut b, &mut counter);
        Ok(b.finish_tree())
    }

    /// Whether `δ(q, σ)` accepts some word over the states marked `true` in
    /// `allowed` (e.g. the inhabited states). Used by the path-automaton
    /// construction of Lemma 4.8.
    pub fn content_satisfiable(&self, q: State, s: Symbol, allowed: &[bool]) -> bool {
        self.content(q, s)
            .is_some_and(|nfa| nfa_accepts_over(nfa, allowed))
    }

    /// The states occurring on some accepting word of `δ(q, σ)` over
    /// `allowed` states — i.e. the child states realizable at a `σ`-node in
    /// state `q` within a completable tree.
    pub fn content_useful_children(&self, q: State, s: Symbol, allowed: &[bool]) -> Vec<State> {
        self.content(q, s)
            .map(|nfa| nfa_useful_symbols(nfa, allowed))
            .unwrap_or_default()
    }

    /// Product automaton accepting `L(self) ∩ L(other)`. Both automata must
    /// be over the same alphabet size. Charges one fuel unit per product
    /// state constructed (the product is built over the full `|Q₁|·|Q₂|`
    /// grid).
    pub fn intersect(&self, other: &Nta, budget: &BudgetHandle) -> Result<Nta, BudgetExceeded> {
        assert_eq!(
            self.n_symbols, other.n_symbols,
            "intersection requires equal alphabets"
        );
        let n2 = other.state_count() as u32;
        let pair = |q1: State, q2: State| State(q1.0 * n2 + q2.0);
        let mut out = Nta::new(self.n_symbols);
        for _ in 0..(self.state_count() * other.state_count()) {
            out.add_state();
        }
        for q1 in self.states() {
            for q2 in other.states() {
                budget.charge(1)?;
                let q = pair(q1, q2);
                out.set_text_ok(q, self.text_ok(q1) && other.text_ok(q2));
                for sym in 0..self.n_symbols {
                    let s = Symbol(sym as u32);
                    if let (Some(a1), Some(a2)) = (self.content(q1, s), other.content(q2, s)) {
                        let prod = product_content(a1, a2, n2);
                        out.set_content(q, s, prod);
                    }
                }
            }
        }
        for &r1 in &self.roots {
            for &r2 in &other.roots {
                out.add_root(pair(r1, r2));
            }
        }
        Ok(out)
    }

    /// Disjoint union accepting `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nta) -> Nta {
        assert_eq!(
            self.n_symbols, other.n_symbols,
            "union requires equal alphabets"
        );
        let mut out = self.clone();
        let offset = out.state_count() as u32;
        for _ in 0..other.state_count() {
            out.add_state();
        }
        for q in other.states() {
            let nq = State(q.0 + offset);
            out.text_ok[nq.index()] = other.text_ok(q);
            for sym in 0..self.n_symbols {
                let s = Symbol(sym as u32);
                if let Some(nfa) = other.content(q, s) {
                    out.set_content(nq, s, nfa.map_symbols(|r| State(r.0 + offset)));
                }
            }
        }
        for &r in &other.roots {
            out.add_root(State(r.0 + offset));
        }
        out
    }

    /// Removes states that are not inhabited or not reachable from a root,
    /// trimming content models accordingly. Language-preserving. Charges
    /// through the inhabitation saturation plus one fuel unit per surviving
    /// state rebuilt.
    pub fn trim(&self, budget: &BudgetHandle) -> Result<Nta, BudgetExceeded> {
        let inhabited = self.inhabited_states(budget)?;
        // Top-down reachability over inhabited states.
        let n = self.state_count();
        let mut reach = vec![false; n];
        let mut stack: Vec<State> = Vec::new();
        for &r in &self.roots {
            if inhabited[r.index()] && !reach[r.index()] {
                reach[r.index()] = true;
                stack.push(r);
            }
        }
        while let Some(q) = stack.pop() {
            for nfa in self.delta[q.index()].iter().flatten() {
                for r in nfa_useful_symbols(nfa, &inhabited) {
                    if !reach[r.index()] {
                        reach[r.index()] = true;
                        stack.push(r);
                    }
                }
            }
        }
        let keep: Vec<State> = self
            .states()
            .filter(|q| reach[q.index()] && inhabited[q.index()])
            .collect();
        let remap: HashMap<State, State> = keep
            .iter()
            .enumerate()
            .map(|(i, &q)| (q, State(i as u32)))
            .collect();
        let mut out = Nta::new(self.n_symbols);
        for _ in 0..keep.len() {
            out.add_state();
        }
        for &q in &keep {
            budget.charge(1)?;
            let nq = remap[&q];
            out.text_ok[nq.index()] = self.text_ok(q);
            for sym in 0..self.n_symbols {
                let s = Symbol(sym as u32);
                if let Some(nfa) = self.content(q, s) {
                    // Drop transitions on removed states, then trim the NFA.
                    let filtered = filter_nfa_symbols(nfa, &remap);
                    let trimmed = filtered.trim();
                    if !trimmed.is_empty() || trimmed.accepts_empty() {
                        out.set_content(nq, s, trimmed);
                    }
                }
            }
        }
        for &r in &self.roots {
            if let Some(&nr) = remap.get(&r) {
                out.add_root(nr);
            }
        }
        Ok(out)
    }
}

impl Nta {
    /// Renders the automaton in a readable grammar-like form: one line per
    /// `(state, label)` transition with the content model extracted back to
    /// a regular expression over state names (`s0, s1, …`). Useful for
    /// inspecting computed automata such as maximal sub-schemas.
    pub fn display<'a>(&'a self, alpha: &'a tpx_trees::Alphabet) -> impl fmt::Display + 'a {
        DisplayNta { nta: self, alpha }
    }
}

struct DisplayNta<'a> {
    nta: &'a Nta,
    alpha: &'a tpx_trees::Alphabet,
}

impl fmt::Display for DisplayNta<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let roots: Vec<String> = self
            .nta
            .roots()
            .iter()
            .map(|q| format!("s{}", q.0))
            .collect();
        writeln!(f, "roots: {}", roots.join(" "))?;
        for q in self.nta.states() {
            for sym in 0..self.nta.symbol_count() {
                let s = Symbol(sym as u32);
                if let Some(nfa) = self.nta.content(q, s) {
                    let re = tpx_automata::nfa_to_regex(nfa);
                    writeln!(
                        f,
                        "δ(s{}, {}) = {}",
                        q.0,
                        self.alpha.name(s),
                        tpx_automata::regex_to_string(&re, &|st: &State| format!("s{}", st.0))
                    )?;
                }
            }
            if self.nta.text_ok(q) {
                writeln!(f, "δ(s{}, text) = ε", q.0)?;
            }
        }
        Ok(())
    }
}

impl tpx_trees::StableHash for State {
    fn stable_hash(&self, h: &mut tpx_trees::StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

/// Structural content hash over the full transition structure: two NTAs
/// built the same way hash the same, in every process — the engine layer
/// keys its schema-artifact cache on this.
impl tpx_trees::StableHash for Nta {
    fn stable_hash(&self, h: &mut tpx_trees::StableHasher) {
        h.write_usize(self.n_symbols);
        self.roots.as_slice().stable_hash(h);
        self.text_ok.stable_hash(h);
        h.write_usize(self.delta.len());
        for per_state in &self.delta {
            h.write_usize(per_state.len());
            for content in per_state {
                content.stable_hash(h);
            }
        }
    }
}

/// An accepting run: assignment of states to nodes.
#[derive(Clone, Debug)]
pub struct Run {
    /// The state assigned to each node.
    pub assignment: HashMap<NodeId, State>,
}

#[derive(Clone, Debug)]
enum Recipe {
    Text,
    Elem(Symbol, Vec<State>),
}

fn build_witness(
    recipe: &[Option<Recipe>],
    q: State,
    b: &mut tpx_trees::HedgeBuilder,
    counter: &mut usize,
) {
    match recipe[q.index()].as_ref().expect("inhabited state") {
        Recipe::Text => {
            b.text(&format!("τ{}", *counter));
            *counter += 1;
        }
        Recipe::Elem(sym, word) => {
            b.open(*sym);
            for &qc in word {
                build_witness(recipe, qc, b, counter);
            }
            b.close();
        }
    }
}

/// Whether `nfa` accepts some word `q₁ ⋯ qₙ` with `qᵢ ∈ setsᵢ`.
fn nfa_accepts_sets(nfa: &Nfa<State>, sets: &[&Vec<State>]) -> bool {
    let mut cur: Vec<StateId> = nfa.initial_states().to_vec();
    let mut seen = vec![false; nfa.state_count()];
    for &p in &cur {
        seen[p.index()] = true;
    }
    for set in sets {
        let mut next = Vec::new();
        let mut mark = vec![false; nfa.state_count()];
        for &p in &cur {
            for (a, r) in nfa.transitions_from(p) {
                if !mark[r.index()] && set.contains(a) {
                    mark[r.index()] = true;
                    next.push(*r);
                }
            }
        }
        cur = next;
        if cur.is_empty() {
            return false;
        }
        let _ = &mut seen;
    }
    cur.iter().any(|&p| nfa.is_final(p))
}

/// A word `q₁ ⋯ qₙ` accepted by `nfa` with `qᵢ ∈ setsᵢ`, if any.
fn nfa_find_word(nfa: &Nfa<State>, sets: &[&Vec<State>]) -> Option<Vec<State>> {
    // Forward layers of NFA states.
    let mut layers: Vec<Vec<StateId>> = vec![nfa.initial_states().to_vec()];
    for set in sets {
        let cur = layers.last().unwrap();
        let mut next = Vec::new();
        let mut mark = vec![false; nfa.state_count()];
        for &p in cur {
            for (a, r) in nfa.transitions_from(p) {
                if !mark[r.index()] && set.contains(a) {
                    mark[r.index()] = true;
                    next.push(*r);
                }
            }
        }
        layers.push(next);
    }
    // Backtrack from a final state.
    let mut target = *layers.last()?.iter().find(|&&p| nfa.is_final(p))?;
    let mut word: Vec<State> = Vec::with_capacity(sets.len());
    for i in (0..sets.len()).rev() {
        let prev = &layers[i];
        let mut found = None;
        'outer: for &p in prev {
            for (a, r) in nfa.transitions_from(p) {
                if *r == target && sets[i].contains(a) {
                    found = Some((p, *a));
                    break 'outer;
                }
            }
        }
        let (p, a) = found.expect("layered reachability guarantees a predecessor");
        word.push(a);
        target = p;
    }
    word.reverse();
    Some(word)
}

/// Whether `nfa` accepts some word over the states marked true in `allowed`.
fn nfa_accepts_over(nfa: &Nfa<State>, allowed: &[bool]) -> bool {
    nfa_shortest_over(nfa, allowed).is_some()
}

/// A shortest word over `allowed` states accepted by `nfa`.
fn nfa_shortest_over(nfa: &Nfa<State>, allowed: &[bool]) -> Option<Vec<State>> {
    use std::collections::VecDeque;
    let mut pred: Vec<Option<(StateId, State)>> = vec![None; nfa.state_count()];
    let mut visited = vec![false; nfa.state_count()];
    let mut queue = VecDeque::new();
    for &q in nfa.initial_states() {
        if !visited[q.index()] {
            visited[q.index()] = true;
            queue.push_back(q);
        }
    }
    while let Some(q) = queue.pop_front() {
        if nfa.is_final(q) {
            let mut w = Vec::new();
            let mut cur = q;
            while let Some((p, a)) = pred[cur.index()] {
                w.push(a);
                cur = p;
            }
            w.reverse();
            return Some(w);
        }
        for (a, r) in nfa.transitions_from(q) {
            if allowed[a.index()] && !visited[r.index()] {
                visited[r.index()] = true;
                pred[r.index()] = Some((q, *a));
                queue.push_back(*r);
            }
        }
    }
    None
}

/// States (symbols) used on some accepting path of `nfa` restricted to
/// `inhabited` symbols.
fn nfa_useful_symbols(nfa: &Nfa<State>, inhabited: &[bool]) -> Vec<State> {
    // Forward-reachable NFA states via inhabited symbols.
    let mut fwd = vec![false; nfa.state_count()];
    let mut stack: Vec<StateId> = nfa.initial_states().to_vec();
    for &p in &stack {
        fwd[p.index()] = true;
    }
    while let Some(p) = stack.pop() {
        for (a, r) in nfa.transitions_from(p) {
            if inhabited[a.index()] && !fwd[r.index()] {
                fwd[r.index()] = true;
                stack.push(*r);
            }
        }
    }
    // Backward-productive NFA states via inhabited symbols.
    let mut rev: Vec<Vec<(State, StateId)>> = vec![Vec::new(); nfa.state_count()];
    for (p, a, r) in nfa.transitions() {
        rev[r.index()].push((*a, p));
    }
    let mut bwd = vec![false; nfa.state_count()];
    let mut stack: Vec<StateId> = nfa.states().filter(|&p| nfa.is_final(p)).collect();
    for &p in &stack {
        bwd[p.index()] = true;
    }
    while let Some(p) = stack.pop() {
        for &(a, r) in &rev[p.index()] {
            if inhabited[a.index()] && !bwd[r.index()] {
                bwd[r.index()] = true;
                stack.push(r);
            }
        }
    }
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (p, a, r) in nfa.transitions() {
        if fwd[p.index()] && bwd[r.index()] && inhabited[a.index()] && seen.insert(*a) {
            out.push(*a);
        }
    }
    out
}

/// Product of content models: accepts `(r₁,s₁)⋯(rₙ,sₙ)` (encoded as
/// `r·n2 + s`) iff `r⃗ ∈ L(a1)` and `s⃗ ∈ L(a2)`.
fn product_content(a1: &Nfa<State>, a2: &Nfa<State>, n2: u32) -> Nfa<State> {
    let mut out = Nfa::new();
    let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut stack = Vec::new();
    for &p in a1.initial_states() {
        for &q in a2.initial_states() {
            let id = *ids.entry((p, q)).or_insert_with(|| {
                stack.push((p, q));
                out.add_state()
            });
            out.set_initial(id);
        }
    }
    while let Some((p, q)) = stack.pop() {
        let id = ids[&(p, q)];
        out.set_final(id, a1.is_final(p) && a2.is_final(q));
        for (r, p2) in a1.transitions_from(p) {
            for (s, q2) in a2.transitions_from(q) {
                let sym = State(r.0 * n2 + s.0);
                let next = *ids.entry((*p2, *q2)).or_insert_with(|| {
                    stack.push((*p2, *q2));
                    out.add_state()
                });
                out.add_transition(id, sym, next);
            }
        }
    }
    out
}

/// Keeps only transitions whose symbol survives `remap`, relabelling them.
fn filter_nfa_symbols(nfa: &Nfa<State>, remap: &HashMap<State, State>) -> Nfa<State> {
    let mut out = Nfa::new();
    out.add_states(nfa.state_count());
    for (p, a, r) in nfa.transitions() {
        if let Some(&na) = remap.get(a) {
            out.add_transition(p, na, r);
        }
    }
    for p in nfa.states() {
        out.set_final(p, nfa.is_final(p));
    }
    for &p in nfa.initial_states() {
        out.set_initial(p);
    }
    out
}

/// Convenience builder for NTAs with named states and regex content models.
///
/// ```
/// use tpx_trees::Alphabet;
/// use tpx_treeauto::NtaBuilder;
/// let mut sigma = Alphabet::from_labels(["doc", "p"]);
/// let mut b = NtaBuilder::new(&sigma);
/// b.root("q0");
/// b.rule("q0", "doc", "qp*");
/// b.rule("qp", "p", "%eps");
/// b.text_rule("qp"); // p-nodes may instead hold text? no: qp itself accepts text leaves
/// let nta = b.finish();
/// assert_eq!(nta.state_count(), 2);
/// ```
pub struct NtaBuilder {
    n_symbols: usize,
    names: Vec<String>,
    ids: HashMap<String, State>,
    rules: Vec<(State, Symbol, tpx_automata::Regex<State>)>,
    text_rules: Vec<State>,
    roots: Vec<State>,
    sym_by_name: HashMap<String, Symbol>,
}

impl NtaBuilder {
    /// Starts building over the given alphabet.
    pub fn new(alpha: &Alphabet) -> Self {
        NtaBuilder {
            n_symbols: alpha.len(),
            names: Vec::new(),
            ids: HashMap::new(),
            rules: Vec::new(),
            text_rules: Vec::new(),
            roots: Vec::new(),
            sym_by_name: alpha.entries().map(|(s, n)| (n.to_owned(), s)).collect(),
        }
    }

    fn state(&mut self, name: &str) -> State {
        if let Some(&q) = self.ids.get(name) {
            return q;
        }
        let q = State(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), q);
        q
    }

    /// Declares `name` as a root state.
    pub fn root(&mut self, name: &str) -> &mut Self {
        let q = self.state(name);
        self.roots.push(q);
        self
    }

    /// Adds `δ(state, label) = content`, with `content` a regex over state
    /// names (syntax of [`tpx_automata::parse_regex`]).
    pub fn rule(&mut self, state: &str, label: &str, content: &str) -> &mut Self {
        let q = self.state(state);
        let sym = *self
            .sym_by_name
            .get(label)
            .unwrap_or_else(|| panic!("label {label:?} not in alphabet"));
        let re = tpx_automata::parse_regex(content, &mut |n: &str| self.state_helper(n))
            .unwrap_or_else(|e| panic!("bad content model {content:?}: {e}"));
        self.rules.push((q, sym, re));
        self
    }

    fn state_helper(&mut self, name: &str) -> State {
        // Same as `state`, split out so the closure in `rule` can borrow.
        if let Some(&q) = self.ids.get(name) {
            return q;
        }
        let q = State(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), q);
        q
    }

    /// Allows text leaves in `state`.
    pub fn text_rule(&mut self, state: &str) -> &mut Self {
        let q = self.state(state);
        self.text_rules.push(q);
        self
    }

    /// Finishes, producing the automaton. Multiple rules for the same
    /// `(state, label)` are united.
    pub fn finish(&self) -> Nta {
        let mut nta = Nta::new(self.n_symbols);
        for _ in 0..self.names.len() {
            nta.add_state();
        }
        let mut grouped: HashMap<(State, Symbol), Nfa<State>> = HashMap::new();
        for (q, sym, re) in &self.rules {
            let nfa = re.to_nfa();
            grouped
                .entry((*q, *sym))
                .and_modify(|acc| *acc = acc.union(&nfa))
                .or_insert(nfa);
        }
        for ((q, sym), nfa) in grouped {
            nta.set_content(q, sym, nfa);
        }
        for &q in &self.text_rules {
            nta.set_text_ok(q, true);
        }
        for &r in &self.roots {
            nta.add_root(r);
        }
        nta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_trees::term::parse_tree;

    /// Schema: root `a` with children `(b | text)*`, `b` has exactly one
    /// text child.
    fn simple_nta(alpha: &Alphabet) -> Nta {
        let mut b = NtaBuilder::new(alpha);
        b.root("qa");
        b.rule("qa", "a", "(qb | qt)*");
        b.rule("qb", "b", "qt");
        b.text_rule("qt");
        b.finish()
    }

    fn alpha() -> Alphabet {
        Alphabet::from_labels(["a", "b", "c"])
    }

    #[test]
    fn membership_basics() {
        let mut al = alpha();
        let nta = simple_nta(&al);
        for (src, expect) in [
            (r#"a"#, true),
            (r#"a("x")"#, true),
            (r#"a(b("x") "y" b("z"))"#, true),
            (r#"a(b)"#, false),          // b must have one text child
            (r#"a(b("x" "y"))"#, false), // exactly one
            (r#"b("x")"#, false),        // wrong root
            (r#"a(c)"#, false),          // no rule for c
            (r#"a(a)"#, false),
        ] {
            let t = parse_tree(src, &mut al).unwrap();
            assert_eq!(nta.accepts(&t), expect, "{src}");
        }
    }

    #[test]
    fn run_is_consistent() {
        let mut al = alpha();
        let nta = simple_nta(&al);
        let t = parse_tree(r#"a(b("x") "y")"#, &mut al).unwrap();
        let run = nta.run(&t).unwrap();
        assert_eq!(run.assignment.len(), t.node_count());
        assert!(nta.roots().contains(&run.assignment[&t.root()]));
        // Text nodes must be in text_ok states.
        for v in t.text_nodes() {
            assert!(nta.text_ok(run.assignment[&v]));
        }
    }

    #[test]
    fn no_run_when_rejected() {
        let mut al = alpha();
        let nta = simple_nta(&al);
        let t = parse_tree(r#"a(b)"#, &mut al).unwrap();
        assert!(nta.run(&t).is_none());
    }

    #[test]
    fn emptiness_and_witness() {
        let al = alpha();
        let nta = simple_nta(&al);
        let budget = BudgetHandle::unlimited();
        assert!(!nta.is_empty(&budget).unwrap());
        let w = nta.witness(&budget).unwrap().unwrap();
        assert!(nta.accepts(&w));

        // An automaton whose only rule requires an uninhabited state.
        let mut b = NtaBuilder::new(&al);
        b.root("q0");
        b.rule("q0", "a", "qdead");
        b.rule("qdead", "b", "qdead");
        let empty = b.finish();
        assert!(empty.is_empty(&budget).unwrap());
        assert!(empty.witness(&budget).unwrap().is_none());
    }

    #[test]
    fn intersection_semantics() {
        let mut al = alpha();
        // L1: root a, any number of text children.
        let mut b1 = NtaBuilder::new(&al);
        b1.root("q0");
        b1.rule("q0", "a", "qt*");
        b1.text_rule("qt");
        let n1 = b1.finish();
        // L2: root a with exactly two children (text or b-leaf).
        let mut b2 = NtaBuilder::new(&al);
        b2.root("p0");
        b2.rule("p0", "a", "px px");
        b2.rule("px", "b", "%eps");
        b2.text_rule("px");
        let n2 = b2.finish();
        let i = n1.intersect(&n2, &BudgetHandle::unlimited()).unwrap();
        let yes = parse_tree(r#"a("x" "y")"#, &mut al).unwrap();
        let no1 = parse_tree(r#"a("x")"#, &mut al).unwrap();
        let no2 = parse_tree(r#"a(b b)"#, &mut al).unwrap();
        assert!(i.accepts(&yes));
        assert!(!i.accepts(&no1)); // fails L2
        assert!(!i.accepts(&no2)); // fails L1
        assert!(n2.accepts(&no2));
    }

    #[test]
    fn union_semantics() {
        let mut al = alpha();
        let mut b1 = NtaBuilder::new(&al);
        b1.root("q0");
        b1.rule("q0", "a", "%eps");
        let n1 = b1.finish();
        let mut b2 = NtaBuilder::new(&al);
        b2.root("p0");
        b2.rule("p0", "b", "%eps");
        let n2 = b2.finish();
        let u = n1.union(&n2);
        assert!(u.accepts(&parse_tree("a", &mut al).unwrap()));
        assert!(u.accepts(&parse_tree("b", &mut al).unwrap()));
        assert!(!u.accepts(&parse_tree("c", &mut al).unwrap()));
        assert!(!u.accepts(&parse_tree("a(b)", &mut al).unwrap()));
    }

    #[test]
    fn trim_preserves_language() {
        let mut al = alpha();
        let mut b = NtaBuilder::new(&al);
        b.root("q0");
        b.rule("q0", "a", "qt* | qdead");
        b.rule("qdead", "b", "qdead"); // uninhabited
        b.rule("qunreach", "c", "%eps"); // unreachable
        b.text_rule("qt");
        let nta = b.finish();
        let trimmed = nta.trim(&BudgetHandle::unlimited()).unwrap();
        assert!(trimmed.state_count() < nta.state_count());
        for src in [r#"a"#, r#"a("x" "y")"#, r#"a(b)"#, r#"c"#] {
            let t = parse_tree(src, &mut al).unwrap();
            assert_eq!(nta.accepts(&t), trimmed.accepts(&t), "{src}");
        }
    }

    #[test]
    fn size_counts_states_and_content_models() {
        let al = alpha();
        let nta = simple_nta(&al);
        assert!(nta.size() > nta.state_count());
    }

    #[test]
    fn display_renders_grammar_form() {
        let al = alpha();
        let nta = simple_nta(&al);
        let printed = format!("{}", nta.display(&al));
        assert!(printed.starts_with("roots: s0"));
        assert!(printed.contains("δ(s0, a) ="));
        assert!(printed.contains("text) = ε"));
    }

    #[test]
    fn leaf_acceptance_via_epsilon_in_content_model() {
        // Paper: a σ-leaf is accepted in q iff ε ∈ δ(q, σ).
        let mut al = alpha();
        let mut b = NtaBuilder::new(&al);
        b.root("q0");
        b.rule("q0", "a", "q1?");
        b.rule("q1", "b", "%eps");
        let nta = b.finish();
        assert!(nta.accepts(&parse_tree("a", &mut al).unwrap()));
        assert!(nta.accepts(&parse_tree("a(b)", &mut al).unwrap()));
        assert!(!nta.accepts(&parse_tree("a(b(b))", &mut al).unwrap()));
    }
}
