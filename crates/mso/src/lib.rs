//! # `tpx-mso`: monadic second-order logic on unranked text trees
//!
//! Section 5.3 of the paper instantiates DTL with MSO-definable patterns and
//! proves decidability via regularity of the counter-example language. This
//! crate provides the logic substrate:
//!
//! * [`formula`] — MSO formulas over the paper's vocabulary: child `E(x,y)`,
//!   sibling order `x < y`, labels `lab_σ(x)`, set membership, Boolean
//!   connectives and first-/second-order quantifiers; plus derived macros
//!   (descendant, document order `<lex`, root, leaf, …);
//! * [`eval`] — a naive but exact model checker on concrete trees (the test
//!   oracle; exponential in SO quantifiers, fine on small trees);
//! * [`compile`](mod@compile) — the Thatcher–Wright compilation of formulas to bottom-up
//!   binary tree automata over marked first-child/next-sibling encodings.
//!   Free variables become marking bits; FO quantifiers are handled with
//!   singleton guards; `∃` is projection, `¬` is
//!   determinize-and-complement. Non-elementary in general — exactly the
//!   lower bound the paper quotes for DTL_MSO — but effective, and the
//!   engine behind Theorem 5.12 and Corollary 5.9;
//! * [`atomic`] — hand-coded automata for the atomic relations on
//!   encodings (kept deterministic and small so the compiler starts from
//!   the best possible primitives; includes descendant and transitive
//!   sibling order as primitives so Core XPath's `R*` needs no set
//!   quantifier).

pub mod atomic;
pub mod compile;
pub mod eval;
pub mod formula;

pub use compile::{
    compile, compile_sentence, lift, marked_encoding, project_bit, strip_bits, CompileCache,
    CompileError, MSym, VarKey,
};
pub use eval::{naive_eval, try_naive_eval, Assignment, EvalError};
pub use formula::{Formula, SetVar, Var, VarGen};
