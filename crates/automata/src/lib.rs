//! # `tpx-automata`: string automata and regular expressions
//!
//! Nondeterministic finite string automata (NFAs) over *arbitrary* symbol
//! types, deterministic automata with complement, the antichain inclusion
//! test, and a regular-expression engine with the Glushkov construction.
//! Every construction that can blow up takes a `BudgetHandle` and charges
//! it.
//!
//! These are the Section 2 "Automata" of the paper, generalized over the
//! symbol type because the workspace runs NFAs over several alphabets:
//! `Σ ⊎ {text}` for path automata (Lemma 4.8), tree-automaton state sets `Q`
//! for DTD/NTA content models, and product alphabets for the deciders of
//! Section 4.3.

pub mod dfa;
pub mod inclusion;
pub mod nfa;
pub mod regex;
pub mod to_regex;

pub use dfa::Dfa;
pub use nfa::{Nfa, StateId};
pub use regex::{parse_regex, Regex};
pub use to_regex::{nfa_to_regex, regex_to_string};
