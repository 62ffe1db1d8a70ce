//! # `tpx-diffcheck`: differential oracle-vs-symbolic checking
//!
//! The repository's deciders compute the *same* facts along independent
//! routes: the symbolic pipelines (Theorem 4.11, Theorems 5.12/5.18), the
//! per-tree semantic oracles (Definitions 2.2/3.1, Lemmas 5.4/5.5), the
//! top-down→DTL translation (Section 5.1), and the bounded-enumeration
//! baseline. This crate cross-checks them against each other on seeded
//! random `(schema, transducer)` pairs:
//!
//! * [`run_fuzz`] — the fuzz loop: generate, sample trees from `L(N)`,
//!   run each symbolic check once per seed (all of them share the
//!   [`tpx_engine::Engine`]'s artifact cache) and hand the results to one
//!   comparison per [`DivergenceKind`];
//! * [`Case`] / [`Subject`] / [`DivergenceKind`] — a replayable,
//!   serializable reproducer of one subject under test, and the taxonomy
//!   of disagreements;
//! * [`recheck`] — the single replay oracle shared by the fuzzer, the
//!   shrinker, and the `tests/regressions` suite: it recomputes the
//!   symbolic results and calls the same comparison;
//! * [`shrink_case`] — greedy 1-minimal shrinking (drop subtrees, delete
//!   rules, suppress DTL additions, drop schema declarations).
//!
//! Witnesses are judged by each decider's own
//! [`tpx_engine::Decider::witness_error`], the check the engine asserts in
//! debug builds, so the fuzzer validates them in release builds without a
//! second copy of the conditions. Every divergence in a [`FuzzReport`] is
//! confirmed through [`recheck`] before it is reported, so a recorded case
//! is replayable by construction.

pub mod case;
pub mod runner;
pub mod shrink;

pub use case::{Case, DivergenceKind, DtlSpec, Subject, XsltSpec};
pub use runner::{recheck, run_fuzz, Divergence, FuzzConfig, FuzzReport};
pub use shrink::shrink_case;
