//! # `tpx-schema`: schema languages (DTDs)
//!
//! The paper abstracts DTDs as extended context-free grammars (Section 2): a
//! DTD is `(Σ ⊎ {text}, C, d, S_d)` where `d` maps element labels to regular
//! *content models* over `Σ ⊎ {text}` and `S_d` is a set of start symbols.
//! The `text` symbol is a placeholder for text nodes.
//!
//! Provided here:
//!
//! * [`Dtd`] with validation against text trees,
//! * the *reduction* normal form the paper assumes (every label with a
//!   defined content model occurs in some valid tree) — [`Dtd::reduce`],
//! * compilation to an [`Nta`] (Relax-NG-level
//!   abstraction) — [`Dtd::to_nta`],
//! * the recipe DTD of Example 2.3 — [`samples`].

pub mod dtd_syntax;
pub mod samples;

use std::collections::HashMap;

use tpx_automata::{Nfa, Regex};
use tpx_treeauto::{Nta, State};
use tpx_trees::{Alphabet, Hedge, NodeLabel, Symbol, Tree};

/// A symbol of a DTD content model: an element label or the `text`
/// placeholder.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DtdSym {
    /// An element label from `Σ`.
    Elem(Symbol),
    /// The placeholder for text nodes.
    Text,
}

/// A Document Type Definition over an alphabet of `n_symbols` labels.
#[derive(Clone, Debug)]
pub struct Dtd {
    n_symbols: usize,
    /// `d(σ)`, if defined.
    content: Vec<Option<Regex<DtdSym>>>,
    /// Compiled NFAs (cached at construction).
    compiled: Vec<Option<Nfa<DtdSym>>>,
    /// Start symbols `S_d`.
    starts: Vec<Symbol>,
}

impl Dtd {
    /// An empty DTD over `n_symbols` labels.
    pub fn new(n_symbols: usize) -> Self {
        Dtd {
            n_symbols,
            content: vec![None; n_symbols],
            compiled: vec![None; n_symbols],
            starts: Vec::new(),
        }
    }

    /// Number of element labels.
    pub fn symbol_count(&self) -> usize {
        self.n_symbols
    }

    /// Adds a start symbol.
    pub fn add_start(&mut self, s: Symbol) {
        if !self.starts.contains(&s) {
            self.starts.push(s);
        }
    }

    /// The start symbols.
    pub fn starts(&self) -> &[Symbol] {
        &self.starts
    }

    /// Defines `d(σ) = content`.
    pub fn set_content(&mut self, s: Symbol, content: Regex<DtdSym>) {
        self.compiled[s.index()] = Some(content.to_nfa());
        self.content[s.index()] = Some(content);
    }

    /// The content model `d(σ)`, if defined.
    pub fn content(&self, s: Symbol) -> Option<&Regex<DtdSym>> {
        self.content[s.index()].as_ref()
    }

    /// Size: labels with rules plus total content-model size.
    pub fn size(&self) -> usize {
        self.content
            .iter()
            .flatten()
            .map(|r| 1 + r.size())
            .sum::<usize>()
    }

    /// Whether `t` is valid: the root is labelled with a start symbol and
    /// every element node's child word is in its content model.
    pub fn validates(&self, t: &Tree) -> bool {
        let NodeLabel::Elem(root) = t.label(t.root()) else {
            return false;
        };
        if !self.starts.contains(root) {
            return false;
        }
        self.validates_hedge(t.as_hedge())
    }

    fn validates_hedge(&self, h: &Hedge) -> bool {
        h.dfs().into_iter().all(|v| match h.label(v) {
            NodeLabel::Text(_) => h.children(v).is_empty(),
            NodeLabel::Elem(s) => {
                let Some(nfa) = self.compiled[s.index()].as_ref() else {
                    return false;
                };
                let word: Vec<DtdSym> = h
                    .children(v)
                    .iter()
                    .map(|&c| match h.label(c) {
                        NodeLabel::Elem(cs) => DtdSym::Elem(*cs),
                        NodeLabel::Text(_) => DtdSym::Text,
                    })
                    .collect();
                nfa.accepts(&word)
            }
        })
    }

    /// The symbols that can derive a finite valid subtree (`text` counts as
    /// always realizable).
    fn realizable(&self) -> Vec<bool> {
        let mut ok = vec![false; self.n_symbols];
        loop {
            let mut changed = false;
            for s in 0..self.n_symbols {
                if ok[s] {
                    continue;
                }
                let Some(nfa) = self.compiled[s].as_ref() else {
                    continue;
                };
                // Does the content model accept a word over realizable symbols?
                let allowed = |sym: &DtdSym| match sym {
                    DtdSym::Text => true,
                    DtdSym::Elem(e) => ok[e.index()],
                };
                if nfa_accepts_filtered(nfa, allowed) {
                    ok[s] = true;
                    changed = true;
                }
            }
            if !changed {
                return ok;
            }
        }
    }

    /// Whether the DTD is reduced: every label with a defined content model
    /// occurs in some valid tree.
    pub fn is_reduced(&self) -> bool {
        let useful = self.useful_symbols();
        (0..self.n_symbols).all(|s| self.content[s].is_none() || useful[s])
    }

    /// Symbols occurring in some valid tree (reachable from a start symbol
    /// through realizable content).
    fn useful_symbols(&self) -> Vec<bool> {
        let realizable = self.realizable();
        let mut reach = vec![false; self.n_symbols];
        let mut stack: Vec<usize> = Vec::new();
        for &s in &self.starts {
            if realizable[s.index()] && !reach[s.index()] {
                reach[s.index()] = true;
                stack.push(s.index());
            }
        }
        while let Some(s) = stack.pop() {
            let Some(nfa) = self.compiled[s].as_ref() else {
                continue;
            };
            // A child symbol is useful if it appears on some accepting path
            // over realizable symbols.
            for e in nfa_useful_symbols(nfa, &realizable) {
                if let DtdSym::Elem(c) = e {
                    if !reach[c.index()] {
                        reach[c.index()] = true;
                        stack.push(c.index());
                    }
                }
            }
        }
        reach
    }

    /// The reduction normal form: drops content models of labels that occur
    /// in no valid tree. `L(reduce(D)) = L(D)`; the paper assumes all DTDs
    /// are reduced (the transformation is PTIME, Section 2).
    pub fn reduce(&self) -> Dtd {
        let useful = self.useful_symbols();
        let mut out = Dtd::new(self.n_symbols);
        for (s, _) in useful.iter().enumerate().filter(|(_, &u)| u) {
            if let Some(re) = &self.content[s] {
                out.set_content(Symbol(s as u32), re.clone());
            }
        }
        for &s in &self.starts {
            if useful[s.index()] {
                out.add_start(s);
            }
        }
        out
    }

    /// Compiles to an equivalent NTA: one state per element label plus one
    /// text state.
    pub fn to_nta(&self) -> Nta {
        let mut nta = Nta::new(self.n_symbols);
        // State i = label i; state n = text.
        for _ in 0..=self.n_symbols {
            nta.add_state();
        }
        let text_state = State(self.n_symbols as u32);
        nta.set_text_ok(text_state, true);
        for s in 0..self.n_symbols {
            if let Some(re) = &self.content[s] {
                let mapped = map_regex(re, text_state);
                nta.set_content(State(s as u32), Symbol(s as u32), mapped.to_nfa());
            }
        }
        for &s in &self.starts {
            nta.add_root(State(s.0));
        }
        nta
    }
}

fn map_regex(re: &Regex<DtdSym>, text_state: State) -> Regex<State> {
    match re {
        Regex::Empty => Regex::Empty,
        Regex::Epsilon => Regex::Epsilon,
        Regex::Sym(DtdSym::Elem(s)) => Regex::Sym(State(s.0)),
        Regex::Sym(DtdSym::Text) => Regex::Sym(text_state),
        Regex::Concat(a, b) => map_regex(a, text_state).then(map_regex(b, text_state)),
        Regex::Alt(a, b) => map_regex(a, text_state).or(map_regex(b, text_state)),
        Regex::Star(a) => map_regex(a, text_state).star(),
    }
}

/// Whether `nfa` accepts some word whose symbols all satisfy `allowed`.
fn nfa_accepts_filtered(nfa: &Nfa<DtdSym>, allowed: impl Fn(&DtdSym) -> bool) -> bool {
    let mut visited = vec![false; nfa.state_count()];
    let mut stack: Vec<tpx_automata::StateId> = nfa.initial_states().to_vec();
    for &q in &stack {
        visited[q.index()] = true;
    }
    while let Some(q) = stack.pop() {
        if nfa.is_final(q) {
            return true;
        }
        for (a, r) in nfa.transitions_from(q) {
            if allowed(a) && !visited[r.index()] {
                visited[r.index()] = true;
                stack.push(*r);
            }
        }
    }
    false
}

/// Symbols on accepting paths of `nfa` over realizable element symbols.
fn nfa_useful_symbols(nfa: &Nfa<DtdSym>, realizable: &[bool]) -> Vec<DtdSym> {
    let allowed = |a: &DtdSym| match a {
        DtdSym::Text => true,
        DtdSym::Elem(e) => realizable[e.index()],
    };
    // Forward pass.
    let mut fwd = vec![false; nfa.state_count()];
    let mut stack: Vec<tpx_automata::StateId> = nfa.initial_states().to_vec();
    for &q in &stack {
        fwd[q.index()] = true;
    }
    while let Some(q) = stack.pop() {
        for (a, r) in nfa.transitions_from(q) {
            if allowed(a) && !fwd[r.index()] {
                fwd[r.index()] = true;
                stack.push(*r);
            }
        }
    }
    // Backward pass.
    let mut rev: Vec<Vec<(DtdSym, tpx_automata::StateId)>> = vec![Vec::new(); nfa.state_count()];
    for (p, a, r) in nfa.transitions() {
        rev[r.index()].push((*a, p));
    }
    let mut bwd = vec![false; nfa.state_count()];
    let mut stack: Vec<tpx_automata::StateId> = nfa.states().filter(|&q| nfa.is_final(q)).collect();
    for &q in &stack {
        bwd[q.index()] = true;
    }
    while let Some(q) = stack.pop() {
        for &(a, r) in &rev[q.index()] {
            if allowed(&a) && !bwd[r.index()] {
                bwd[r.index()] = true;
                stack.push(r);
            }
        }
    }
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (p, a, r) in nfa.transitions() {
        if fwd[p.index()] && bwd[r.index()] && allowed(a) && seen.insert(*a) {
            out.push(*a);
        }
    }
    out
}

/// Convenience builder with named labels and textual content models.
///
/// Content-model syntax is that of [`tpx_automata::parse_regex`], with the
/// reserved identifier `text` denoting the text placeholder:
///
/// ```
/// use tpx_trees::Alphabet;
/// use tpx_schema::DtdBuilder;
/// let mut sigma = Alphabet::from_labels(["doc", "p"]);
/// let mut b = DtdBuilder::new(&sigma);
/// b.start("doc");
/// b.elem("doc", "p*");
/// b.elem("p", "text");
/// let dtd = b.finish();
/// assert!(dtd.is_reduced());
/// ```
pub struct DtdBuilder {
    dtd: Dtd,
    sym_by_name: HashMap<String, Symbol>,
}

impl DtdBuilder {
    /// Starts building over the given alphabet.
    pub fn new(alpha: &Alphabet) -> Self {
        DtdBuilder {
            dtd: Dtd::new(alpha.len()),
            sym_by_name: alpha.entries().map(|(s, n)| (n.to_owned(), s)).collect(),
        }
    }

    fn sym(&self, name: &str) -> Symbol {
        *self
            .sym_by_name
            .get(name)
            .unwrap_or_else(|| panic!("label {name:?} not in alphabet"))
    }

    /// Declares `name` a start symbol.
    pub fn start(&mut self, name: &str) -> &mut Self {
        let s = self.sym(name);
        self.dtd.add_start(s);
        self
    }

    /// Defines `d(name) = content` (regex over labels and `text`).
    pub fn elem(&mut self, name: &str, content: &str) -> &mut Self {
        let s = self.sym(name);
        let by_name = &self.sym_by_name;
        let re = tpx_automata::parse_regex(content, &mut |n: &str| {
            if n == "text" {
                DtdSym::Text
            } else {
                DtdSym::Elem(*by_name.get(n).unwrap_or_else(|| {
                    panic!("label {n:?} not in alphabet (content model of {name:?})")
                }))
            }
        })
        .unwrap_or_else(|e| panic!("bad content model for {name:?}: {e}"));
        self.dtd.set_content(s, re);
        self
    }

    /// Finishes building.
    pub fn finish(self) -> Dtd {
        self.dtd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_trees::term::parse_tree;

    fn alpha() -> Alphabet {
        Alphabet::from_labels(["doc", "sec", "p", "note"])
    }

    fn dtd(al: &Alphabet) -> Dtd {
        let mut b = DtdBuilder::new(al);
        b.start("doc");
        b.elem("doc", "sec+");
        b.elem("sec", "(p | note)*");
        b.elem("p", "text");
        b.elem("note", "text?");
        b.finish()
    }

    #[test]
    fn validation() {
        let mut al = alpha();
        let d = dtd(&al);
        for (src, ok) in [
            (r#"doc(sec(p("x") note))"#, true),
            (r#"doc(sec)"#, true),
            (r#"doc"#, false),                  // sec+ requires one
            (r#"sec(p("x"))"#, false),          // wrong root
            (r#"doc(sec(p))"#, false),          // p needs text
            (r#"doc(sec(p("x" "y")))"#, false), // exactly one text
            (r#"doc(sec(note("n")))"#, true),
        ] {
            let t = parse_tree(src, &mut al).unwrap();
            assert_eq!(d.validates(&t), ok, "{src}");
        }
    }

    #[test]
    fn example_2_3_recipe_dtd_validates_figure_1() {
        let mut al = tpx_trees::samples::recipe_alphabet();
        let d = samples::recipe_dtd(&al);
        let t = tpx_trees::samples::recipe_tree(&mut al);
        assert!(d.validates(&t));
        assert!(d.is_reduced());
    }

    #[test]
    fn reduction_removes_useless_labels() {
        let al = alpha();
        let mut b = DtdBuilder::new(&al);
        b.start("doc");
        b.elem("doc", "sec*");
        b.elem("sec", "text");
        // `p` requires itself: never realizable.
        b.elem("p", "p");
        // `note` realizable but unreachable from doc.
        b.elem("note", "text");
        let d = b.finish();
        assert!(!d.is_reduced());
        let r = d.reduce();
        assert!(r.is_reduced());
        assert!(r.content(al.sym("p")).is_none());
        assert!(r.content(al.sym("note")).is_none());
        assert!(r.content(al.sym("doc")).is_some());
        // Language unchanged.
        let mut al2 = alpha();
        for src in [r#"doc(sec("x"))"#, r#"doc"#, r#"note("x")"#] {
            let t = parse_tree(src, &mut al2).unwrap();
            assert_eq!(d.validates(&t), r.validates(&t), "{src}");
        }
    }

    #[test]
    fn to_nta_preserves_language() {
        let mut al = alpha();
        let d = dtd(&al);
        let nta = d.to_nta();
        for src in [
            r#"doc(sec(p("x") note))"#,
            r#"doc(sec)"#,
            r#"doc"#,
            r#"sec(p("x"))"#,
            r#"doc(sec(p))"#,
            r#"doc(sec(note("n")) sec)"#,
        ] {
            let t = parse_tree(src, &mut al).unwrap();
            assert_eq!(nta.accepts(&t), d.validates(&t), "{src}");
        }
    }

    #[test]
    fn nta_of_recipe_dtd_accepts_figure_1() {
        let mut al = tpx_trees::samples::recipe_alphabet();
        let d = samples::recipe_dtd(&al);
        let nta = d.to_nta();
        let t = tpx_trees::samples::recipe_tree(&mut al);
        assert!(nta.accepts(&t));
        let budget = tpx_trees::budget::BudgetHandle::unlimited();
        assert!(!nta.is_empty(&budget).unwrap());
        let w = nta.witness(&budget).unwrap().unwrap();
        assert!(d.validates(&w));
    }

    #[test]
    fn start_symbol_enforced() {
        let mut al = alpha();
        let mut b = DtdBuilder::new(&al);
        b.start("doc");
        b.start("sec");
        b.elem("doc", "%eps");
        b.elem("sec", "%eps");
        let d = b.finish();
        assert!(d.validates(&parse_tree("doc", &mut al).unwrap()));
        assert!(d.validates(&parse_tree("sec", &mut al).unwrap()));
        assert!(!d.validates(&parse_tree("p", &mut al).unwrap()));
    }

    #[test]
    fn text_nodes_with_children_rejected() {
        // Not constructible via the builder, but the validator guards it.
        let mut al = alpha();
        let d = dtd(&al);
        let t = parse_tree(r#"doc(sec(p("x")))"#, &mut al).unwrap();
        assert!(d.validates(&t));
    }
}
