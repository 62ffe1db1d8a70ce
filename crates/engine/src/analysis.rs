//! First-class preservation analyses.
//!
//! The engine originally answered exactly one question — *is `T`
//! text-preserving over `L(S)`?* — so "the analysis" was implicit in every
//! type. With text-retention and output-conformance joining as peer
//! analyses over the same schema×transducer pairs, the question being
//! asked becomes data: an [`Analysis`] names the question and contributes
//! a cache-key discriminant so analysis-specific artifacts of different analyses can
//! never collide in the shared [`crate::ArtifactCache`] — while
//! analysis-*independent* artifacts (the schema path automaton, say) keep
//! analysis-free stage keys and stay shared across every analysis that
//! consults them.

/// Identifies one preservation analysis: a stable name (reports, CLI,
/// trace attribution) and a discriminant folded into the cache keys of analysis-specific stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Analysis {
    /// Stable analysis name, e.g. `"text-preservation"`.
    pub name: &'static str,
    /// Folded into the `u64` cache key of every stage declared under this
    /// analysis, so two analyses keying a stage by the same content hash
    /// (e.g. both by a transducer hash) can never collide.
    pub discriminant: u64,
}

/// The paper's headline question: is the transformation text-preserving
/// (Definition 2.2) over the schema?
pub const TEXT_PRESERVATION: Analysis = Analysis {
    name: "text-preservation",
    discriminant: 0,
};

/// The conclusion's stronger test: does the transformation ever delete a
/// text value below a node with one of the selected labels?
pub const TEXT_RETENTION: Analysis = Analysis {
    name: "text-retention",
    discriminant: 1,
};

/// Typechecking: does `T(L(S))` stay inside a target schema?
pub const OUTPUT_CONFORMANCE: Analysis = Analysis {
    name: "conformance",
    discriminant: 2,
};

/// Looks an analysis up by its stable name (the CLI's `--analysis`
/// values).
pub fn analysis_by_name(name: &str) -> Option<Analysis> {
    match name {
        "text-preservation" => Some(TEXT_PRESERVATION),
        "text-retention" => Some(TEXT_RETENTION),
        "conformance" => Some(OUTPUT_CONFORMANCE),
        _ => None,
    }
}

/// The stable names of all registered analyses, for CLI help and error
/// messages.
pub const ANALYSIS_NAMES: &[&str] = &["text-preservation", "text-retention", "conformance"];
