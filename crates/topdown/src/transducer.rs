//! Top-down uniform tree transducers (Definition 4.1).

use std::collections::HashMap;
use std::fmt;

use tpx_trees::{Alphabet, Hedge, HedgeBuilder, NodeId, NodeLabel, Symbol, Tree};

/// A transducer state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TdState(pub u32);

impl TdState {
    /// Dense index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TdState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A node of a rule's right-hand-side hedge: an element with sub-hedge, or a
/// state leaf.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RhsNode {
    /// An output element `σ(...)`.
    Elem(Symbol, Vec<RhsNode>),
    /// A state leaf `p`, replaced during evaluation by `T^p(t₁)⋯T^p(tₙ)`.
    State(TdState),
}

impl RhsNode {
    /// Size (number of nodes) of this template tree.
    pub fn size(&self) -> usize {
        match self {
            RhsNode::State(_) => 1,
            RhsNode::Elem(_, kids) => 1 + kids.iter().map(RhsNode::size).sum::<usize>(),
        }
    }

    fn frontier_states_into(&self, out: &mut Vec<TdState>) {
        match self {
            RhsNode::State(q) => out.push(*q),
            RhsNode::Elem(_, kids) => {
                for k in kids {
                    k.frontier_states_into(out);
                }
            }
        }
    }
}

/// The state leaves of a template hedge, in frontier (document) order — the
/// paper's `frontier(rhs(q, a))` restricted to `Q`-labels. (Σ-labelled
/// leaves of the rhs never matter for runs, so we keep only states.)
pub fn frontier_states(rhs: &[RhsNode]) -> Vec<TdState> {
    let mut out = Vec::new();
    for n in rhs {
        n.frontier_states_into(&mut out);
    }
    out
}

/// A top-down uniform tree transducer `(Q, Σ ∪ {text}, q₀, R)`.
#[derive(Clone, Debug)]
pub struct Transducer {
    n_symbols: usize,
    n_states: usize,
    initial: TdState,
    /// `rhs(q, a)`, if a rule exists. Indexed `[q][a]`.
    rules: Vec<Vec<Option<Vec<RhsNode>>>>,
    /// Whether `(q, text) → text` is a rule.
    text_rules: Vec<bool>,
}

impl Transducer {
    /// A transducer over `n_symbols` labels with `n_states` states and the
    /// given initial state; no rules yet.
    pub fn new(n_symbols: usize, n_states: usize, initial: TdState) -> Self {
        assert!(initial.index() < n_states);
        Transducer {
            n_symbols,
            n_states,
            initial,
            rules: vec![vec![None; n_symbols]; n_states],
            text_rules: vec![false; n_states],
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Number of element symbols.
    pub fn symbol_count(&self) -> usize {
        self.n_symbols
    }

    /// The initial state `q₀`.
    pub fn initial(&self) -> TdState {
        self.initial
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = TdState> {
        (0..self.n_states as u32).map(TdState)
    }

    /// Installs the rule `(q, a) → rhs`. Per Definition 4.1 there is at most
    /// one rule per `(q, a)`; installing twice replaces. Rules with an empty
    /// rhs are *useless* (equivalent to no rule) and rejected.
    pub fn set_rule(&mut self, q: TdState, a: Symbol, rhs: Vec<RhsNode>) {
        assert!(!rhs.is_empty(), "useless rule (q, a) → ε; omit it instead");
        self.rules[q.index()][a.index()] = Some(rhs);
    }

    /// Installs (or removes) the rule `(q, text) → text`.
    pub fn set_text_rule(&mut self, q: TdState, enabled: bool) {
        self.text_rules[q.index()] = enabled;
    }

    /// The rhs of the rule `(q, a)`, if present. A symbol outside the
    /// transducer's alphabet has no rule, so its subtree translates to `ε`
    /// (Definition 4.1).
    pub fn rhs(&self, q: TdState, a: Symbol) -> Option<&[RhsNode]> {
        self.rules[q.index()].get(a.index())?.as_deref()
    }

    /// Whether `(q, text) → text` is a rule.
    pub fn text_rule(&self, q: TdState) -> bool {
        self.text_rules[q.index()]
    }

    /// The paper's `|T| = |Q| + |R|` with `|R|` the total rhs size.
    pub fn size(&self) -> usize {
        self.n_states
            + self
                .rules
                .iter()
                .flatten()
                .flatten()
                .flatten()
                .map(RhsNode::size)
                .sum::<usize>()
            + self.text_rules.iter().filter(|&&b| b).count()
    }

    /// Checks the Definition 4.1 well-formedness restriction on the initial
    /// state: every `rhs(q₀, a)` is a single tree whose root is a Σ-label
    /// (this forces outputs to be trees).
    pub fn initial_rules_output_trees(&self) -> bool {
        (0..self.n_symbols).all(|a| match self.rhs(self.initial, Symbol(a as u32)) {
            None => true,
            Some([RhsNode::Elem(_, _)]) => true,
            Some(_) => false,
        })
    }

    /// The transformation `T(t) = T^{q₀}(t)`.
    pub fn transform(&self, t: &Tree) -> Hedge {
        let mut b = HedgeBuilder::new();
        self.eval_state(t.as_hedge(), t.root(), self.initial, &mut b);
        b.finish()
    }

    /// The translation `T^q(h)` of a hedge (Definition 4.1 (i)–(iii)).
    pub fn eval_hedge(&self, h: &Hedge, q: TdState) -> Hedge {
        let mut b = HedgeBuilder::new();
        for &r in h.roots() {
            self.eval_state(h, r, q, &mut b);
        }
        b.finish()
    }

    fn eval_state(&self, h: &Hedge, v: NodeId, q: TdState, b: &mut HedgeBuilder) {
        match h.label(v) {
            NodeLabel::Text(val) => {
                if self.text_rules[q.index()] {
                    b.text(val);
                }
            }
            NodeLabel::Elem(a) => {
                let Some(rhs) = self.rhs(q, *a) else {
                    return; // no rule: T^q(t) = ε
                };
                for node in rhs {
                    self.eval_rhs(h, v, node, b);
                }
            }
        }
    }

    fn eval_rhs(&self, h: &Hedge, v: NodeId, node: &RhsNode, b: &mut HedgeBuilder) {
        match node {
            RhsNode::Elem(s, kids) => {
                b.open(*s);
                for k in kids {
                    self.eval_rhs(h, v, k, b);
                }
                b.close();
            }
            RhsNode::State(p) => {
                for &c in h.children(v) {
                    self.eval_state(h, c, *p, b);
                }
            }
        }
    }

    /// States reachable from `q₀` through rhs state leaves (Section 4.1).
    pub fn reachable_states(&self) -> Vec<bool> {
        let mut reach = vec![false; self.n_states];
        reach[self.initial.index()] = true;
        let mut stack = vec![self.initial];
        while let Some(q) = stack.pop() {
            for row in &self.rules[q.index()] {
                let Some(rhs) = row else { continue };
                for p in frontier_states(rhs) {
                    if !reach[p.index()] {
                        reach[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
        }
        reach
    }

    /// Whether all states are reachable and no rule is useless (the paper's
    /// *reduced* normal form, assumed throughout Section 4).
    pub fn is_reduced(&self) -> bool {
        // Useless rules are rejected at construction; only reachability
        // remains.
        self.reachable_states().iter().all(|&r| r)
    }

    /// The reduced equivalent: unreachable states dropped, the rest
    /// renumbered.
    pub fn reduce(&self) -> Transducer {
        let reach = self.reachable_states();
        let keep: Vec<TdState> = self.states().filter(|q| reach[q.index()]).collect();
        let remap: HashMap<TdState, TdState> = keep
            .iter()
            .enumerate()
            .map(|(i, &q)| (q, TdState(i as u32)))
            .collect();
        let mut out = Transducer::new(self.n_symbols, keep.len(), remap[&self.initial]);
        for &q in &keep {
            out.text_rules[remap[&q].index()] = self.text_rules[q.index()];
            for a in 0..self.n_symbols {
                if let Some(rhs) = self.rhs(q, Symbol(a as u32)) {
                    let mapped: Vec<RhsNode> = rhs.iter().map(|n| remap_rhs(n, &remap)).collect();
                    out.set_rule(remap[&q], Symbol(a as u32), mapped);
                }
            }
        }
        out
    }
}

impl Transducer {
    /// Renders the rule table in the paper's notation, e.g.
    /// `(q0, recipes) → recipes(q0)`.
    pub fn display<'a>(&'a self, alpha: &'a Alphabet) -> impl fmt::Display + 'a {
        DisplayTransducer { t: self, alpha }
    }
}

struct DisplayTransducer<'a> {
    t: &'a Transducer,
    alpha: &'a Alphabet,
}

impl fmt::Display for DisplayTransducer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "initial q{}", self.t.initial().0)?;
        for q in self.t.states() {
            for sym in 0..self.t.symbol_count() {
                let s = Symbol(sym as u32);
                if let Some(rhs) = self.t.rhs(q, s) {
                    write!(f, "(q{}, {}) → ", q.0, self.alpha.name(s))?;
                    for (i, node) in rhs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write_rhs(node, self.alpha, f)?;
                    }
                    writeln!(f)?;
                }
            }
            if self.t.text_rule(q) {
                writeln!(f, "(q{}, text) → text", q.0)?;
            }
        }
        Ok(())
    }
}

fn write_rhs(node: &RhsNode, alpha: &Alphabet, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match node {
        RhsNode::State(q) => write!(f, "q{}", q.0),
        RhsNode::Elem(s, kids) => {
            write!(f, "{}", alpha.name(*s))?;
            if !kids.is_empty() {
                write!(f, "(")?;
                for (i, k) in kids.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write_rhs(k, alpha, f)?;
                }
                write!(f, ")")?;
            }
            Ok(())
        }
    }
}

fn remap_rhs(node: &RhsNode, remap: &HashMap<TdState, TdState>) -> RhsNode {
    match node {
        RhsNode::State(q) => RhsNode::State(remap[q]),
        RhsNode::Elem(s, kids) => {
            RhsNode::Elem(*s, kids.iter().map(|k| remap_rhs(k, remap)).collect())
        }
    }
}

impl tpx_trees::StableHash for TdState {
    fn stable_hash(&self, h: &mut tpx_trees::StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

impl tpx_trees::StableHash for RhsNode {
    fn stable_hash(&self, h: &mut tpx_trees::StableHasher) {
        match self {
            RhsNode::Elem(s, kids) => {
                h.write(&[0]);
                s.stable_hash(h);
                kids.stable_hash(h);
            }
            RhsNode::State(q) => {
                h.write(&[1]);
                q.stable_hash(h);
            }
        }
    }
}

/// Structural content hash over the full rule table: two transducers built
/// the same way hash the same, in every process — the engine layer keys
/// its transducer-artifact cache on this.
impl tpx_trees::StableHash for Transducer {
    fn stable_hash(&self, h: &mut tpx_trees::StableHasher) {
        h.write_usize(self.n_symbols);
        h.write_usize(self.n_states);
        self.initial.stable_hash(h);
        self.text_rules.stable_hash(h);
        for per_state in &self.rules {
            for rhs in per_state {
                rhs.stable_hash(h);
            }
        }
    }
}

/// Convenience builder with named states and term-syntax right-hand sides.
///
/// Rhs syntax: the term syntax of [`tpx_trees::term`], where an identifier
/// that names a declared *state* is a state leaf and every other identifier
/// is an output label. States must therefore be declared (via
/// [`TransducerBuilder::state`] or by appearing as a rule's source) before
/// the rhs that mentions them is parsed.
///
/// ```
/// use tpx_trees::Alphabet;
/// use tpx_topdown::TransducerBuilder;
/// let sigma = Alphabet::from_labels(["a", "b"]);
/// let mut b = TransducerBuilder::new(&sigma, "q0");
/// b.state("q");
/// b.rule("q0", "a", "a(q)");
/// b.rule("q", "b", "b");
/// b.text_rule("q");
/// let t = b.finish();
/// assert_eq!(t.state_count(), 2);
/// assert!(t.initial_rules_output_trees());
/// ```
pub struct TransducerBuilder {
    alpha: Alphabet,
    state_names: Vec<String>,
    state_ids: HashMap<String, TdState>,
    rules: Vec<(TdState, Symbol, String)>,
    text_rules: Vec<String>,
    initial: TdState,
}

impl TransducerBuilder {
    /// Starts building over `alpha` with the given initial state name.
    pub fn new(alpha: &Alphabet, initial: &str) -> Self {
        let mut b = TransducerBuilder {
            alpha: alpha.clone(),
            state_names: Vec::new(),
            state_ids: HashMap::new(),
            rules: Vec::new(),
            text_rules: Vec::new(),
            initial: TdState(0),
        };
        b.initial = b.state(initial);
        b
    }

    /// Declares a state (idempotent), returning its id.
    pub fn state(&mut self, name: &str) -> TdState {
        if let Some(&q) = self.state_ids.get(name) {
            return q;
        }
        let q = TdState(self.state_names.len() as u32);
        self.state_names.push(name.to_owned());
        self.state_ids.insert(name.to_owned(), q);
        q
    }

    /// Adds the rule `(state, label) → rhs` (term syntax; see type docs).
    pub fn rule(&mut self, state: &str, label: &str, rhs: &str) -> &mut Self {
        let q = self.state(state);
        let sym = self
            .alpha
            .get(label)
            .unwrap_or_else(|| panic!("label {label:?} not in alphabet"));
        self.rules.push((q, sym, rhs.to_owned()));
        self
    }

    /// Adds `(state, text) → text`.
    pub fn text_rule(&mut self, state: &str) -> &mut Self {
        let name = state.to_owned();
        self.state(state);
        self.text_rules.push(name);
        self
    }

    /// Finishes building. Panics on malformed rhs syntax.
    pub fn finish(&mut self) -> Transducer {
        let mut t = Transducer::new(self.alpha.len(), self.state_names.len(), self.initial);
        let rules = self.rules.clone();
        for (q, sym, rhs_src) in rules {
            let rhs = self.parse_rhs(&rhs_src);
            t.set_rule(q, sym, rhs);
        }
        for name in &self.text_rules {
            t.set_text_rule(self.state_ids[name], true);
        }
        t
    }

    fn parse_rhs(&mut self, src: &str) -> Vec<RhsNode> {
        let mut scratch = self.alpha.clone();
        let hedge = tpx_trees::term::parse_hedge(src, &mut scratch)
            .unwrap_or_else(|e| panic!("bad rhs {src:?}: {e}"));
        hedge
            .roots()
            .iter()
            .map(|&r| self.convert(&hedge, r, &scratch, src))
            .collect()
    }

    fn convert(&self, h: &Hedge, v: NodeId, scratch: &Alphabet, src: &str) -> RhsNode {
        match h.label(v) {
            NodeLabel::Text(_) => {
                panic!("rhs {src:?} contains a text literal; rules cannot output Text values")
            }
            NodeLabel::Elem(s) => {
                let name = scratch.name(*s);
                if let Some(&q) = self.state_ids.get(name) {
                    assert!(
                        h.children(v).is_empty(),
                        "state {name} used as inner node in rhs {src:?}"
                    );
                    RhsNode::State(q)
                } else {
                    let sym = self.alpha.get(name).unwrap_or_else(|| {
                        panic!("identifier {name:?} in rhs {src:?} is neither a state nor a label")
                    });
                    RhsNode::Elem(
                        sym,
                        h.children(v)
                            .iter()
                            .map(|&c| self.convert(h, c, scratch, src))
                            .collect(),
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_trees::term::parse_tree;

    fn alpha() -> Alphabet {
        Alphabet::from_labels(["a", "b", "c"])
    }

    /// Identity on {a, b}-trees with text, deleting c-subtrees.
    fn identity_minus_c() -> (Alphabet, Transducer) {
        let al = alpha();
        let mut b = TransducerBuilder::new(&al, "q0");
        b.rule("q0", "a", "a(q0)");
        b.rule("q0", "b", "b(q0)");
        b.text_rule("q0");
        (al, b.finish())
    }

    #[test]
    fn identity_transformation() {
        let (mut al, t) = identity_minus_c();
        let input = parse_tree(r#"a("x" b("y") "z")"#, &mut al).unwrap();
        let out = t.transform(&input);
        assert_eq!(out, *input.as_hedge());
    }

    #[test]
    fn deletion_of_unmatched_labels() {
        let (mut al, t) = identity_minus_c();
        let input = parse_tree(r#"a("x" c("hidden") b)"#, &mut al).unwrap();
        let out = t.transform(&input);
        let expect = parse_tree(r#"a("x" b)"#, &mut al).unwrap();
        assert_eq!(out, *expect.as_hedge());
    }

    #[test]
    fn a_label_outside_the_alphabet_is_deleted_without_panicking() {
        let (mut al, t) = identity_minus_c();
        // `d` is interned after the transducer was built, so its symbol
        // index is past the transducer's rule table.
        let input = parse_tree(r#"a("x" d("foreign") b)"#, &mut al).unwrap();
        assert!(al.sym("d").index() >= t.symbol_count());
        let out = t.transform(&input);
        let expect = parse_tree(r#"a("x" b)"#, &mut al).unwrap();
        assert_eq!(out, *expect.as_hedge());
    }

    #[test]
    fn state_leaf_expands_over_all_children() {
        // (q0, a) → a(q q); q relabels b-children to c.
        let al = alpha();
        let mut b = TransducerBuilder::new(&al, "q0");
        b.state("q");
        b.rule("q0", "a", "a(q q)");
        b.rule("q", "b", "c");
        let t = b.finish();
        let mut al2 = alpha();
        let input = parse_tree(r#"a(b b)"#, &mut al2).unwrap();
        let out = t.transform(&input);
        // Each q expands over both children: c c c c under a.
        let expect = parse_tree(r#"a(c c c c)"#, &mut al2).unwrap();
        assert_eq!(out, *expect.as_hedge());
    }

    #[test]
    fn text_deleted_without_text_rule() {
        let al = alpha();
        let mut b = TransducerBuilder::new(&al, "q0");
        b.rule("q0", "a", "a(q0)");
        let t = b.finish();
        let mut al2 = alpha();
        let input = parse_tree(r#"a("x" a("y"))"#, &mut al2).unwrap();
        let out = t.transform(&input);
        let expect = parse_tree(r#"a(a)"#, &mut al2).unwrap();
        assert_eq!(out, *expect.as_hedge());
    }

    #[test]
    fn no_rule_at_root_yields_empty_hedge() {
        let al = alpha();
        let mut b = TransducerBuilder::new(&al, "q0");
        b.rule("q0", "a", "a(q0)");
        let t = b.finish();
        let mut al2 = alpha();
        let input = parse_tree("b", &mut al2).unwrap();
        assert!(t.transform(&input).is_empty());
    }

    #[test]
    fn example_4_2_on_figure_1() {
        let mut al = tpx_trees::samples::recipe_alphabet();
        let t = crate::samples::example_4_2(&al);
        let input = tpx_trees::samples::recipe_tree(&mut al);
        let out = t.transform(&input);
        // Comments are gone.
        let out_tree = Tree::from_hedge(out).expect("output is a tree");
        for v in out_tree.dfs() {
            if let NodeLabel::Elem(s) = out_tree.label(v) {
                assert_ne!(al.name(*s), "comments");
                assert_ne!(al.name(*s), "comment");
                assert_ne!(al.name(*s), "item"); // item nodes deleted, text kept
            }
        }
        // All descriptions/ingredient/instruction text kept, in order; the
        // comment text is gone.
        let in_text = input.text_content();
        let out_text = out_tree.text_content();
        assert!(tpx_trees::is_subsequence(&out_text, &in_text));
        assert!(out_text.iter().any(|s| s.contains("butter")));
        assert!(!out_text.iter().any(|s| s.contains("Greek coffee")));
        // br markup survives inside instructions.
        assert!(out_tree
            .dfs()
            .iter()
            .any(|&v| out_tree.label(v).elem() == Some(al.sym("br"))));
    }

    #[test]
    fn reduce_drops_unreachable_states() {
        let al = alpha();
        let mut b = TransducerBuilder::new(&al, "q0");
        b.rule("q0", "a", "a(q0)");
        b.rule("qzombie", "b", "b(qzombie)");
        let t = b.finish();
        assert!(!t.is_reduced());
        let r = t.reduce();
        assert!(r.is_reduced());
        assert_eq!(r.state_count(), 1);
        let mut al2 = alpha();
        let input = parse_tree(r#"a(a b)"#, &mut al2).unwrap();
        assert_eq!(t.transform(&input), r.transform(&input));
    }

    #[test]
    #[should_panic(expected = "useless rule")]
    fn empty_rhs_rejected() {
        let al = alpha();
        let mut t = Transducer::new(al.len(), 1, TdState(0));
        t.set_rule(TdState(0), al.sym("a"), vec![]);
    }

    #[test]
    fn frontier_states_in_document_order() {
        let al = alpha();
        let mut b = TransducerBuilder::new(&al, "q0");
        b.state("p");
        b.state("r");
        b.rule("q0", "a", "a(p b(r p))");
        let t = b.finish();
        let rhs = t.rhs(TdState(0), al.sym("a")).unwrap();
        let f = frontier_states(rhs);
        assert_eq!(f.len(), 3);
        // p, r, p in order.
        assert_eq!(f[0], f[2]);
        assert_ne!(f[0], f[1]);
    }

    #[test]
    fn size_measures_rules() {
        let (_, t) = identity_minus_c();
        assert!(t.size() > 1 + 2 * 2); // 1 state + two rhs of size 2 + text rule
    }

    #[test]
    fn display_renders_paper_notation() {
        let al = tpx_trees::samples::recipe_alphabet();
        let t = crate::samples::example_4_2(&al);
        let printed = format!("{}", t.display(&al));
        assert!(printed.contains("(q0, recipes) → recipes(q0)"));
        assert!(printed.contains("text) → text"));
        assert!(printed.lines().count() >= 8);
    }

    #[test]
    fn initial_rule_shape_check() {
        let al = alpha();
        let mut good = TransducerBuilder::new(&al, "q0");
        good.rule("q0", "a", "a(q0)");
        assert!(good.finish().initial_rules_output_trees());
        let mut bad = TransducerBuilder::new(&al, "q0");
        bad.rule("q0", "a", "q0");
        assert!(!bad.finish().initial_rules_output_trees());
    }
}
