//! The front door: how a request reaches the deciders.
//!
//! Both doors of `textpres` — the CLI and the `textpres serve` daemon —
//! reach the engine through this module. A request names its analysis
//! ([`AnalysisRequest`]: the analysis, its labels, its target) and its
//! limits ([`BudgetRequest`]: fuel, timeout, degrade); CLI flags and
//! serve frames both parse into these two types, and
//! [`AnalysisRequest::new`] validates them against the engine's
//! [`analysis_by_name`] once, for both. [`prepare`] then turns a schema
//! source, a transducer source and the request into a [`Prepared`] check:
//! it sniffs the transducer format (stylesheet, `dtl` program or the
//! top-down text format), compiles a stylesheet through the engine's
//! cache ([`compile_stylesheet_cached`]), resolves the labels, parses a
//! conformance target into the shared alphabet, refuses a `dtl` program
//! for the top-down-only analyses, and hands out the decider. Around it
//! the CLI keeps argv, file reading and human-readable sentences; the
//! daemon keeps source resolution, its memo and admission.
//!
//! A stylesheet compiles once per (schema, stylesheet) source pair: the
//! `xslt/compile` stage runs through the engine's stage recorder
//! ([`Engine::stage`]), so its span, its [`StageReport`] and its metrics
//! come from one measurement, like every other stage. The alphabet dance
//! matters: a stylesheet's literal result elements may introduce labels
//! the schema never mentions. [`compile_stylesheet`] parses the schema
//! first (interning its labels), compiles the stylesheet (interning the
//! literals), then re-parses the schema so the NTA is built at the final
//! alphabet width — the width the transducer was built at.

use std::sync::Arc;

use tpx_dtl::{DtlTransducer, XPathPatterns};
use tpx_engine::{
    analysis_by_name, Analysis, CheckOptions, Decider, DecisionError, DtlDecider, Engine, Outcome,
    OutputConformanceDecider, StageKey, StageReport, TextRetentionDecider, TopdownDecider,
    ANALYSIS_NAMES, OUTPUT_CONFORMANCE, TEXT_PRESERVATION, TEXT_RETENTION,
};
use tpx_topdown::Transducer;
use tpx_treeauto::Nta;
use tpx_trees::{Alphabet, StableHasher, Symbol};
use tpx_xslt::Diagnostic;

use crate::format::{
    is_dtl_transducer, parse_dtl_transducer, parse_schema, parse_transducer, render_path,
    render_witness,
};

/// The shared pipeline-stage name a compiled stylesheet caches under.
pub const XSLT_COMPILE_STAGE: &str = "xslt/compile";

/// A stylesheet compiled against a schema: the common alphabet, the schema
/// NTA re-built at the final alphabet width, and the transducer (plus the
/// DTL rendering when the stylesheet is `DTL_XPath`-expressible).
#[derive(Clone, Debug)]
pub struct XsltArtifact {
    /// Schema labels plus the stylesheet's literal result labels.
    pub alpha: Alphabet,
    /// The schema NTA, built over the full `alpha`.
    pub schema: Nta,
    /// The translated transducer.
    pub transducer: Transducer,
    /// The equivalent DTL program source, when expressible.
    pub dtl: Option<String>,
}

/// Renders untranslatable-construct diagnostics as one multi-line error.
pub fn untranslatable(diags: &[Diagnostic]) -> String {
    let mut msg = String::from("stylesheet is not fully translatable:");
    for d in diags {
        msg.push_str("\n  ");
        msg.push_str(&d.to_string());
    }
    msg
}

/// Compiles `xslt_src` against `schema_src` into an exact transducer.
/// Any [`Diagnostic`] is an error here: a check must not silently run a
/// transducer that only approximates the stylesheet.
pub fn compile_stylesheet(schema_src: &str, xslt_src: &str) -> Result<XsltArtifact, String> {
    let mut alpha = Alphabet::new();
    parse_schema(schema_src, &mut alpha).map_err(|e| format!("schema: {e}"))?;
    let compiled =
        tpx_xslt::compile(xslt_src, &mut alpha).map_err(|e| format!("stylesheet: {e}"))?;
    if !compiled.diagnostics.is_empty() {
        return Err(untranslatable(&compiled.diagnostics));
    }
    // Literal result elements may have extended the alphabet; re-parse the
    // schema (interning is idempotent) so the NTA matches the transducer's
    // symbol width.
    let schema = parse_schema(schema_src, &mut alpha)
        .expect("schema parsed once already")
        .to_nta();
    Ok(XsltArtifact {
        alpha,
        schema,
        transducer: compiled.transducer,
        dtl: compiled.dtl,
    })
}

/// [`compile_stylesheet`] as the `xslt/compile` stage: through the
/// engine's artifact cache, keyed by the content of both sources, with the
/// stage's span, report and metrics written by the engine's recorder.
pub fn compile_stylesheet_cached(
    engine: &Engine,
    schema_src: &str,
    xslt_src: &str,
) -> Result<Arc<XsltArtifact>, String> {
    compile_stage(engine, schema_src, xslt_src).map(|(artifact, _)| artifact)
}

/// The `xslt/compile` stage, with its report.
fn compile_stage(
    engine: &Engine,
    schema_src: &str,
    xslt_src: &str,
) -> Result<(Arc<XsltArtifact>, StageReport), String> {
    let mut h = StableHasher::new();
    h.write(schema_src.as_bytes());
    h.write_usize(schema_src.len());
    h.write(xslt_src.as_bytes());
    let stage = StageKey::shared(XSLT_COMPILE_STAGE, h.finish());
    engine
        .stage(
            stage,
            |a: &XsltArtifact| a.transducer.size(),
            |_| compile_stylesheet(schema_src, xslt_src),
        )
        .map_err(|e| match e {
            // A compile error comes back as the message the stage wrote.
            DecisionError::Internal(message) => message,
            e => e.to_string(),
        })
}

/// Which analysis a request runs, with what that analysis needs: the
/// selected labels of a text-retention check, the target schema of a
/// conformance check. `T` is how the target is given — a file path on the
/// command line, a [`SourceRef`](crate::serve::protocol::SourceRef) on the
/// wire, the schema source once read or resolved.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AnalysisRequest<T> {
    /// The paper's headline question (Definition 2.2).
    TextPreservation,
    /// Deletes-text-under-selected-labels (Lemma 4.8 route).
    TextRetention {
        /// The selected label names (never empty).
        labels: Vec<String>,
    },
    /// Inverse type inference against a target schema.
    Conformance {
        /// The target schema.
        target: T,
    },
}

impl<T> AnalysisRequest<T> {
    /// Validates an analysis name (text-preservation when `None`) against
    /// the engine's analyses, together with the labels and the target it
    /// was given: labels belong to text-retention, which needs at least
    /// one, and a target belongs to conformance, which needs one.
    pub fn new(name: Option<&str>, labels: Vec<String>, target: Option<T>) -> Result<Self, String> {
        let analysis = match name {
            None => TEXT_PRESERVATION,
            Some(name) => analysis_by_name(name).ok_or_else(|| {
                format!(
                    "unknown analysis {name:?} (expected one of: {})",
                    ANALYSIS_NAMES.join(", ")
                )
            })?,
        };
        if analysis != TEXT_RETENTION && !labels.is_empty() {
            return Err("labels only apply to the text-retention analysis".into());
        }
        if analysis != OUTPUT_CONFORMANCE && target.is_some() {
            return Err("a target schema only applies to the conformance analysis".into());
        }
        if analysis == TEXT_RETENTION {
            if labels.is_empty() {
                return Err("the text-retention analysis needs a non-empty list of labels".into());
            }
            Ok(AnalysisRequest::TextRetention { labels })
        } else if analysis == OUTPUT_CONFORMANCE {
            let target = target.ok_or("the conformance analysis needs a target schema")?;
            Ok(AnalysisRequest::Conformance { target })
        } else {
            Ok(AnalysisRequest::TextPreservation)
        }
    }

    /// The engine analysis the request runs.
    pub fn analysis(&self) -> Analysis {
        match self {
            AnalysisRequest::TextPreservation => TEXT_PRESERVATION,
            AnalysisRequest::TextRetention { .. } => TEXT_RETENTION,
            AnalysisRequest::Conformance { .. } => OUTPUT_CONFORMANCE,
        }
    }

    /// The conformance target, if the request has one.
    pub fn target(&self) -> Option<&T> {
        match self {
            AnalysisRequest::Conformance { target } => Some(target),
            _ => None,
        }
    }

    /// The same request with its target read, resolved or parsed by `f`.
    pub fn try_map_target<U, E>(
        &self,
        f: impl FnOnce(&T) -> Result<U, E>,
    ) -> Result<AnalysisRequest<U>, E> {
        Ok(match self {
            AnalysisRequest::TextPreservation => AnalysisRequest::TextPreservation,
            AnalysisRequest::TextRetention { labels } => AnalysisRequest::TextRetention {
                labels: labels.clone(),
            },
            AnalysisRequest::Conformance { target } => {
                AnalysisRequest::Conformance { target: f(target)? }
            }
        })
    }
}

/// A request's resource limits, as a person or a client states them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BudgetRequest {
    /// Fuel cap, if any.
    pub fuel: Option<u64>,
    /// Wall-clock cap in milliseconds, if any.
    pub timeout_ms: Option<u64>,
    /// Degrade to the bounded oracle on exhaustion instead of erroring.
    pub degrade: bool,
}

impl BudgetRequest {
    /// The governed-check options these limits describe.
    pub fn options(&self) -> CheckOptions {
        CheckOptions::limits(self.fuel, self.timeout_ms, self.degrade)
    }
}

/// Why [`prepare`] refused a request, by the input at fault.
#[derive(Clone, Debug, PartialEq)]
pub enum PrepareError {
    /// The schema source does not parse.
    Schema(String),
    /// The transducer source does not parse or compile, or the analysis
    /// cannot run on a transducer of its kind.
    Transducer(String),
    /// The conformance target does not parse.
    Target(String),
    /// The sources parse, but a selected label is not in their alphabet.
    Label(String),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Schema(e) => write!(f, "schema: {e}"),
            PrepareError::Transducer(e) => write!(f, "transducer: {e}"),
            PrepareError::Target(e) => write!(f, "target: {e}"),
            PrepareError::Label(label) => {
                write!(f, "label {label:?} is not in the schema alphabet")
            }
        }
    }
}

impl std::error::Error for PrepareError {}

/// A request made checkable: its sources parsed (or compiled) over one
/// alphabet, ready to hand the engine a decider.
pub struct Prepared {
    /// The alphabet every source was read over, which witnesses render in.
    pub alpha: Alphabet,
    /// The schema NTA, over `alpha`.
    pub schema: Nta,
    /// The `xslt/compile` stage's report, when the transducer was a
    /// stylesheet.
    pub compile: Option<StageReport>,
    machine: Machine,
}

/// What a [`Prepared`] check decides with.
enum Machine {
    Topdown(Transducer),
    Dtl(DtlTransducer<XPathPatterns>),
    Retention(Transducer, Vec<Symbol>),
    Conformance(Transducer, Nta),
}

impl Prepared {
    /// The decider of the request's analysis, borrowing the prepared
    /// transducer.
    pub fn decider(&self) -> Box<dyn Decider + '_> {
        match &self.machine {
            Machine::Topdown(t) => Box::new(TopdownDecider::new(t)),
            Machine::Dtl(t) => Box::new(DtlDecider::new(t)),
            Machine::Retention(t, labels) => Box::new(TextRetentionDecider::new(t, labels.clone())),
            Machine::Conformance(t, target) => Box::new(OutputConformanceDecider::new(t, target)),
        }
    }

    /// The top-down transducer, unless the source was a `dtl` program.
    pub fn topdown(&self) -> Option<&Transducer> {
        match &self.machine {
            Machine::Topdown(t) | Machine::Retention(t, _) | Machine::Conformance(t, _) => Some(t),
            Machine::Dtl(_) => None,
        }
    }

    /// The outcome's tag and its witness rendered over the prepared
    /// alphabet: a path (`doc/keep/text()`) or a tree, in the text formats
    /// of [`crate::format`].
    pub fn render(&self, outcome: &Outcome) -> (&'static str, Option<String>) {
        let alpha = &self.alpha;
        match outcome {
            Outcome::Preserving => ("preserving", None),
            Outcome::Copying { path } => ("copying", Some(render_path(path, alpha))),
            Outcome::Rearranging { witness } => {
                ("rearranging", Some(render_witness(witness, alpha)))
            }
            Outcome::NotPreserving { witness } => {
                ("not-preserving", Some(render_witness(witness, alpha)))
            }
            Outcome::DeletesText { path } => ("deletes-text", Some(render_path(path, alpha))),
            Outcome::NonConforming { witness } => {
                ("non-conforming", Some(render_witness(witness, alpha)))
            }
        }
    }
}

/// Prepares one check of `request` on a schema source and a transducer
/// source (a stylesheet, a `dtl` program or the top-down text format,
/// sniffed). A stylesheet compiles through `engine`'s cache as the
/// `xslt/compile` stage; a conformance target is parsed into the same
/// alphabet, so its labels line up with the transducer's output labels
/// (the conformance pipeline pads the narrower automata to the common
/// width). A `dtl` program only answers text-preservation.
pub fn prepare<T: AsRef<str>>(
    engine: &Engine,
    schema_src: &str,
    transducer_src: &str,
    request: &AnalysisRequest<T>,
) -> Result<Prepared, PrepareError> {
    let (mut alpha, schema, compile, t) = if tpx_xslt::is_stylesheet(transducer_src) {
        let (artifact, report) =
            compile_stage(engine, schema_src, transducer_src).map_err(PrepareError::Transducer)?;
        let (alpha, schema) = (artifact.alpha.clone(), artifact.schema.clone());
        (alpha, schema, Some(report), artifact.transducer.clone())
    } else {
        let mut alpha = Alphabet::new();
        let schema = parse_schema(schema_src, &mut alpha)
            .map_err(|e| PrepareError::Schema(e.to_string()))?
            .to_nta();
        let transducer_error =
            |e: crate::format::FormatError| PrepareError::Transducer(e.to_string());
        if is_dtl_transducer(transducer_src) {
            let dtl = parse_dtl_transducer(transducer_src, &alpha).map_err(transducer_error)?;
            let analysis = request.analysis();
            if analysis != TEXT_PRESERVATION {
                return Err(PrepareError::Transducer(format!(
                    "the {} analysis needs a top-down transducer or a stylesheet, \
                     not a dtl program",
                    analysis.name
                )));
            }
            return Ok(Prepared {
                alpha,
                schema,
                compile: None,
                machine: Machine::Dtl(dtl),
            });
        }
        let t = parse_transducer(transducer_src, &alpha).map_err(transducer_error)?;
        (alpha, schema, None, t)
    };
    let machine = match request {
        AnalysisRequest::TextPreservation => Machine::Topdown(t),
        AnalysisRequest::TextRetention { labels } => {
            let labels = labels
                .iter()
                .map(|l| alpha.get(l).ok_or_else(|| PrepareError::Label(l.clone())))
                .collect::<Result<_, _>>()?;
            Machine::Retention(t, labels)
        }
        AnalysisRequest::Conformance { target } => {
            let target = parse_schema(target.as_ref(), &mut alpha)
                .map_err(|e| PrepareError::Target(e.to_string()))?
                .to_nta();
            Machine::Conformance(t, target)
        }
    };
    Ok(Prepared {
        alpha,
        schema,
        compile,
        machine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "start doc\nelem doc = (keep | text)*\nelem keep = text*\n";
    const IDENTITY: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="@*|node()">
    <xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy>
  </xsl:template>
</xsl:stylesheet>"#;

    #[test]
    fn compiles_against_the_schema_alphabet() {
        let a = compile_stylesheet(SCHEMA, IDENTITY).expect("identity compiles");
        assert_eq!(a.transducer.symbol_count(), a.alpha.len());
        assert_eq!(a.schema.symbol_count(), a.alpha.len());
        assert!(a.dtl.is_some());
    }

    #[test]
    fn literal_labels_extend_alphabet_and_schema_is_rebuilt_to_match() {
        let wrap = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="doc"><wrapper><xsl:apply-templates/></wrapper></xsl:template>
</xsl:stylesheet>"#;
        let a = compile_stylesheet(SCHEMA, wrap).expect("wrapper compiles");
        assert!(a.alpha.get("wrapper").is_some());
        assert_eq!(a.schema.symbol_count(), a.alpha.len());
        assert_eq!(a.transducer.symbol_count(), a.alpha.len());
    }

    #[test]
    fn diagnostics_are_a_hard_error_with_lines() {
        let bad = "<xsl:stylesheet version=\"1.0\">\n\
                   <xsl:template match=\"doc\">\n\
                   <xsl:value-of select=\".\"/>\n\
                   </xsl:template>\n\
                   </xsl:stylesheet>";
        let err = compile_stylesheet(SCHEMA, bad).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("xsl:value-of"), "{err}");
    }

    #[test]
    fn requests_are_validated_against_the_engine_analyses() {
        let new = |name, labels: &[&str], target: Option<&'static str>| {
            let labels = labels.iter().map(|l| l.to_string()).collect();
            AnalysisRequest::new(name, labels, target)
        };
        assert_eq!(new(None, &[], None), Ok(AnalysisRequest::TextPreservation));
        assert_eq!(
            new(Some("conformance"), &[], Some("t")),
            Ok(AnalysisRequest::Conformance { target: "t" })
        );
        let err = new(Some("nosuch"), &[], None).unwrap_err();
        assert!(
            err.contains("text-preservation, text-retention, conformance"),
            "{err}"
        );
        for refused in [
            new(None, &["a"], None),
            new(None, &[], Some("t")),
            new(Some("text-retention"), &[], None),
            new(Some("text-retention"), &["a"], Some("t")),
            new(Some("conformance"), &[], None),
            new(Some("conformance"), &["a"], Some("t")),
        ] {
            assert!(refused.is_err(), "{refused:?}");
        }
    }

    #[test]
    fn prepare_names_the_input_at_fault() {
        let engine = Engine::new();
        let keep = "initial q\nrule q doc -> doc(qt)\ntext qt\n";
        let dtl = "dtl\ninitial q\nrule q : doc -> doc(q / child)\ntext q\n";
        let retention = |label: &str| AnalysisRequest::<&str>::TextRetention {
            labels: vec![label.to_owned()],
        };
        let conformance = AnalysisRequest::Conformance { target: "nonsense" };
        let err = |schema, t, request: &AnalysisRequest<&str>| {
            prepare(&engine, schema, t, request).err().expect("refused")
        };
        assert!(matches!(
            err("nonsense", keep, &retention("keep")),
            PrepareError::Schema(_)
        ));
        assert!(matches!(
            err(SCHEMA, "rule (", &retention("keep")),
            PrepareError::Transducer(_)
        ));
        assert!(matches!(
            err(SCHEMA, dtl, &retention("keep")),
            PrepareError::Transducer(_)
        ));
        assert!(matches!(
            err(SCHEMA, keep, &retention("nosuch")),
            PrepareError::Label(_)
        ));
        assert!(matches!(
            err(SCHEMA, keep, &conformance),
            PrepareError::Target(_)
        ));
        let prepared = prepare(
            &engine,
            SCHEMA,
            dtl,
            &AnalysisRequest::<&str>::TextPreservation,
        )
        .expect("a dtl program answers text-preservation");
        assert!(prepared.topdown().is_none() && prepared.compile.is_none());
    }

    #[test]
    fn cached_compile_hits_on_the_second_call_and_traces_the_stage() {
        let engine = Engine::new().with_tracer(Arc::new(tpx_engine::Tracer::enabled()));
        let first = compile_stylesheet_cached(&engine, SCHEMA, IDENTITY).expect("compiles");
        let again = compile_stylesheet_cached(&engine, SCHEMA, IDENTITY).expect("compiles");
        assert!(
            Arc::ptr_eq(&first, &again),
            "second call must hit the cache"
        );
        assert!(engine.cache_stats().hits >= 1);
        assert!(engine
            .tracer()
            .exit_span_names()
            .contains(&XSLT_COMPILE_STAGE));
    }
}
