//! Plain-text formats for schemas and transducers, so the checker works as
//! a standalone tool (see `src/bin/textpres.rs`).
//!
//! ## Schema files
//!
//! ```text
//! # comments start with '#'
//! start doc
//! elem doc  = (keep | drop)*
//! elem keep = text
//! elem drop = text
//! ```
//!
//! `start` declares a start symbol (repeatable); `elem σ = regex` defines a
//! content model in the syntax of [`tpx_automata::parse_regex`] with the
//! reserved word `text` for text nodes.
//!
//! ## Transducer files
//!
//! ```text
//! initial q0
//! rule q0 doc -> doc(q)
//! rule q  keep -> keep(qt)
//! text qt
//! ```
//!
//! `rule q σ -> rhs` uses the term syntax of [`tpx_trees::term`], where
//! identifiers naming declared states are state leaves (states are declared
//! by appearing as a rule source, in `initial`, or in `state` lines).
//!
//! ## DTL transducer files
//!
//! A transducer file whose first meaningful line is the word `dtl` is a
//! `DTL_XPath` program (Section 5 of the paper), checked with the EXPTIME
//! DTL decider instead of the PTIME top-down one:
//!
//! ```text
//! dtl
//! initial q0
//! rule q0 : a -> a(q0 / child[a]/child)   # (q0, a) → a((q0, pattern))
//! rule q0 : b -> (q0 / child)             # bare call: drops the markup
//! text q0
//! ```
//!
//! `rule q : guard -> rhs` guards are XPath node expressions and call
//! patterns are XPath path expressions, both in the concrete syntax of
//! [`tpx_xpath`]; the rhs is either `label(state / pattern)` (one output
//! element wrapping one call) or `(state / pattern)` (a bare call).

use std::fmt;
use tpx_diffcheck::{Case, DivergenceKind, DtlSpec, Subject, XsltSpec};
use tpx_dtl::{DtlBuilder, DtlTransducer, XPathPatterns};
use tpx_schema::{Dtd, DtdBuilder};
use tpx_topdown::{PathSym, RhsNode, Transducer, TransducerBuilder};
use tpx_trees::{Alphabet, Symbol, Tree};

/// Error from the file parsers, with a line number.
#[derive(Clone, Debug)]
pub struct FormatError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FormatError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError {
        line,
        message: message.into(),
    })
}

fn meaningful(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        (!line.is_empty()).then_some((i + 1, line))
    })
}

/// Parses a schema file, interning labels into `alpha`.
pub fn parse_schema(src: &str, alpha: &mut Alphabet) -> Result<Dtd, FormatError> {
    // First pass: intern all element names so the builder sees a complete
    // alphabet.
    let mut decls: Vec<(usize, String, String)> = Vec::new();
    let mut starts: Vec<(usize, String)> = Vec::new();
    for (line, text) in meaningful(src) {
        if let Some(rest) = text.strip_prefix("start ") {
            let name = rest.trim();
            alpha.intern(name);
            starts.push((line, name.to_owned()));
        } else if let Some(rest) = text.strip_prefix("elem ") {
            let Some((name, content)) = rest.split_once('=') else {
                return err(line, "expected `elem name = content-model`");
            };
            let name = name.trim();
            if name == "text" {
                return err(line, "`text` is reserved for text nodes");
            }
            alpha.intern(name);
            decls.push((line, name.to_owned(), content.trim().to_owned()));
        } else {
            return err(line, format!("unrecognized directive {text:?}"));
        }
    }
    // Intern labels mentioned only inside content models. `:` is a name
    // character so namespace-prefixed labels (`bpmn:task`) stay whole.
    for (_, _, content) in &decls {
        for token in
            content.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-' || c == ':'))
        {
            if !token.is_empty() && token != "text" && !token.starts_with('%') {
                alpha.intern(token);
            }
        }
    }
    let mut b = DtdBuilder::new(alpha);
    if starts.is_empty() {
        return err(1, "schema needs at least one `start` symbol");
    }
    for (_, name) in &starts {
        b.start(name);
    }
    for (line, name, content) in &decls {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.elem(name, content);
        }));
        if result.is_err() {
            return err(*line, format!("bad content model for {name:?}: {content}"));
        }
    }
    Ok(b.finish())
}

/// Parses a transducer file against a (complete) alphabet.
pub fn parse_transducer(src: &str, alpha: &Alphabet) -> Result<Transducer, FormatError> {
    let mut initial: Option<(usize, String)> = None;
    let mut states: Vec<String> = Vec::new();
    let mut rules: Vec<(usize, String, String, String)> = Vec::new();
    let mut text_rules: Vec<(usize, String)> = Vec::new();
    for (line, text) in meaningful(src) {
        if let Some(rest) = text.strip_prefix("initial ") {
            if initial.is_some() {
                return err(line, "duplicate `initial`");
            }
            initial = Some((line, rest.trim().to_owned()));
        } else if let Some(rest) = text.strip_prefix("state ") {
            states.push(rest.trim().to_owned());
        } else if let Some(rest) = text.strip_prefix("rule ") {
            let Some((head, rhs)) = rest.split_once("->") else {
                return err(line, "expected `rule state label -> rhs`");
            };
            let parts: Vec<&str> = head.split_whitespace().collect();
            let [state, label] = parts.as_slice() else {
                return err(line, "expected `rule state label -> rhs`");
            };
            rules.push((
                line,
                (*state).to_owned(),
                (*label).to_owned(),
                rhs.trim().to_owned(),
            ));
        } else if let Some(rest) = text.strip_prefix("text ") {
            text_rules.push((line, rest.trim().to_owned()));
        } else {
            return err(line, format!("unrecognized directive {text:?}"));
        }
    }
    let Some((_, initial)) = initial else {
        return err(1, "transducer needs an `initial` state");
    };
    let mut b = TransducerBuilder::new(alpha, &initial);
    for s in &states {
        b.state(s);
    }
    // Declare all rule-source and text states before parsing right-hand
    // sides (state names shadow labels in rhs terms).
    for (_, state, _, _) in &rules {
        b.state(state);
    }
    for (_, state) in &text_rules {
        b.state(state);
    }
    for (line, state, label, rhs) in &rules {
        if alpha.get(label).is_none() {
            return err(*line, format!("label {label:?} not in the schema alphabet"));
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.rule(state, label, rhs);
        }));
        if result.is_err() {
            return err(*line, format!("bad rule rhs: {rhs}"));
        }
    }
    for (_, state) in &text_rules {
        b.text_rule(state);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.finish()));
    result.map_err(|_| FormatError {
        line: 1,
        message: "transducer construction failed (see rule errors above)".into(),
    })
}

/// Whether `src` is a DTL transducer file (first meaningful line `dtl`),
/// as opposed to a top-down transducer file.
pub fn is_dtl_transducer(src: &str) -> bool {
    meaningful(src)
        .next()
        .is_some_and(|(_, text)| text == "dtl")
}

/// Parses a DTL transducer file (see the module docs) against a (complete)
/// alphabet.
pub fn parse_dtl_transducer(
    src: &str,
    alpha: &Alphabet,
) -> Result<DtlTransducer<XPathPatterns>, FormatError> {
    let mut lines = meaningful(src);
    match lines.next() {
        Some((_, "dtl")) => {}
        _ => return err(1, "DTL transducer files start with a `dtl` line"),
    }
    let mut initial: Option<String> = None;
    // (line, state, guard, out label, call state, call pattern); a `None`
    // label is a bare call.
    type DtlRuleLine = (usize, String, String, Option<String>, String, String);
    let mut rules: Vec<DtlRuleLine> = Vec::new();
    let mut states: Vec<String> = Vec::new();
    let mut text_rules: Vec<String> = Vec::new();
    for (line, text) in lines {
        if let Some(rest) = text.strip_prefix("initial ") {
            if initial.is_some() {
                return err(line, "duplicate `initial`");
            }
            initial = Some(rest.trim().to_owned());
        } else if let Some(rest) = text.strip_prefix("state ") {
            states.push(rest.trim().to_owned());
        } else if let Some(rest) = text.strip_prefix("text ") {
            text_rules.push(rest.trim().to_owned());
        } else if let Some(rest) = text.strip_prefix("rule ") {
            const SHAPE: &str = "expected `rule state : guard -> label(state / pattern)`";
            let Some((state, rest)) = rest.split_once(':') else {
                return err(line, SHAPE);
            };
            let Some((guard, rhs)) = rest.split_once("->") else {
                return err(line, SHAPE);
            };
            let rhs = rhs.trim();
            let (label, call) = if let Some(inner) = rhs.strip_prefix('(') {
                (None, inner)
            } else if let Some((label, inner)) = rhs.split_once('(') {
                (Some(label.trim().to_owned()), inner)
            } else {
                return err(line, SHAPE);
            };
            let Some(call) = call.strip_suffix(')') else {
                return err(line, SHAPE);
            };
            // The call state never contains '/', so the first one starts
            // the pattern.
            let Some((call_state, pattern)) = call.split_once('/') else {
                return err(line, "expected `state / pattern` inside the call");
            };
            rules.push((
                line,
                state.trim().to_owned(),
                guard.trim().to_owned(),
                label,
                call_state.trim().to_owned(),
                pattern.trim().to_owned(),
            ));
        } else {
            return err(line, format!("unrecognized directive {text:?}"));
        }
    }
    let Some(initial) = initial else {
        return err(1, "DTL transducer needs an `initial` state");
    };
    // Validate guards, patterns, and labels up front so errors carry line
    // numbers (`DtlBuilder::finish` would only panic later).
    let mut scratch = alpha.clone();
    for (line, _, guard, label, _, pattern) in &rules {
        if let Err(e) = tpx_xpath::parse_node_expr(guard, &mut scratch) {
            return err(*line, format!("bad guard {guard:?}: {e}"));
        }
        if let Err(e) = tpx_xpath::parse_path(pattern, &mut scratch) {
            return err(*line, format!("bad call pattern {pattern:?}: {e}"));
        }
        if let Some(label) = label {
            if alpha.get(label).is_none() {
                return err(*line, format!("label {label:?} not in the schema alphabet"));
            }
        }
    }
    let mut b = DtlBuilder::new(alpha, &initial);
    for s in &states {
        b.state(s);
    }
    for (_, state, guard, label, call_state, pattern) in &rules {
        match label {
            Some(out) => b.rule_simple(state, guard, out, call_state, pattern),
            None => b.rule_bare(state, guard, call_state, pattern),
        };
    }
    for state in &text_rules {
        b.text_rule(state);
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.finish())).map_err(|_| FormatError {
        line: 1,
        message: "DTL transducer construction failed (see rule errors above)".into(),
    })
}

/// Renders a witness tree (from a [`tpx_engine::Verdict`] or a
/// [`tpx_topdown::CheckReport`]) in the term syntax of
/// [`tpx_trees::term`] — re-readable by [`parse_witness`].
pub fn render_witness(witness: &Tree, alpha: &Alphabet) -> String {
    witness.display(alpha).to_string()
}

/// Parses a witness tree rendered by [`render_witness`].
pub fn parse_witness(src: &str, alpha: &mut Alphabet) -> Result<Tree, FormatError> {
    tpx_trees::term::parse_tree(src, alpha).map_err(|e| FormatError {
        line: 1,
        message: format!("bad witness term: {e:?}"),
    })
}

/// Renders a copying-witness text path as `label/label/text()`.
pub fn render_path(path: &[PathSym], alpha: &Alphabet) -> String {
    path.iter()
        .map(|p| match p {
            PathSym::Elem(s) => alpha.name(*s).to_owned(),
            PathSym::Text => "text()".to_owned(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

/// Renders schema declarations in the schema file format (re-readable by
/// [`parse_schema`]).
pub fn render_schema(starts: &[String], decls: &[(String, String)]) -> String {
    let mut out = String::new();
    for s in starts {
        out.push_str(&format!("start {s}\n"));
    }
    for (name, content) in decls {
        out.push_str(&format!("elem {name} = {content}\n"));
    }
    out
}

/// Renders a transducer in the transducer file format (re-readable by
/// [`parse_transducer`] against the same alphabet). State `i` is named
/// `q{i}` — with a longer prefix when that would collide with a label — so
/// parsing reproduces the exact state numbering.
pub fn render_transducer(t: &Transducer, alpha: &Alphabet) -> String {
    // Pick a state-name prefix no label uses (state names shadow labels in
    // rhs terms, so a collision would capture a label).
    let mut prefix = "q".to_owned();
    let collides = |p: &str| {
        (0..t.state_count()).any(|i| alpha.entries().any(|(_, name)| name == format!("{p}{i}")))
    };
    while collides(&prefix) {
        prefix.push('q');
    }
    let state_name = |q: tpx_topdown::TdState| format!("{prefix}{}", q.index());
    let mut out = String::new();
    out.push_str(&format!("initial {}\n", state_name(t.initial())));
    for q in t.states() {
        out.push_str(&format!("state {}\n", state_name(q)));
    }
    for q in t.states() {
        for a in (0..t.symbol_count()).map(|i| Symbol(i as u32)) {
            if let Some(rhs) = t.rhs(q, a) {
                out.push_str(&format!(
                    "rule {} {} -> {}\n",
                    state_name(q),
                    alpha.name(a),
                    render_rhs_hedge(rhs, alpha, &state_name)
                ));
            }
        }
        if t.text_rule(q) {
            out.push_str(&format!("text {}\n", state_name(q)));
        }
    }
    out
}

fn render_rhs_hedge(
    rhs: &[RhsNode],
    alpha: &Alphabet,
    state_name: &impl Fn(tpx_topdown::TdState) -> String,
) -> String {
    rhs.iter()
        .map(|n| render_rhs_node(n, alpha, state_name))
        .collect::<Vec<_>>()
        .join(" ")
}

fn render_rhs_node(
    node: &RhsNode,
    alpha: &Alphabet,
    state_name: &impl Fn(tpx_topdown::TdState) -> String,
) -> String {
    match node {
        RhsNode::State(q) => state_name(*q),
        RhsNode::Elem(s, kids) if kids.is_empty() => alpha.name(*s).to_owned(),
        RhsNode::Elem(s, kids) => format!(
            "{}({})",
            alpha.name(*s),
            render_rhs_hedge(kids, alpha, state_name)
        ),
    }
}

/// A divergence reproducer as stored under `tests/regressions/`: the
/// [`Case`] plus the metadata needed to replay it through
/// [`tpx_diffcheck::recheck`].
#[derive(Clone, Debug)]
pub struct RegressionCase {
    /// Which differential check diverged.
    pub kind: DivergenceKind,
    /// The fuzzer seed that produced the case.
    pub seed: u64,
    /// Human-readable account of the divergence.
    pub detail: String,
    /// The reproducer.
    pub case: Case,
}

/// Renders a regression case file (re-readable by [`parse_case`]).
///
/// The `[alphabet]` section pins the label *interning order*: symbols are
/// identified by dense index everywhere (transducer rules, DTL generator
/// streams), so a case only replays faithfully if parsing reconstructs the
/// exact same `Symbol` numbering.
pub fn render_case(rc: &RegressionCase) -> String {
    let case = &rc.case;
    let mut out = String::new();
    out.push_str("# textpres regression case (tpx-diffcheck)\n");
    out.push_str(&format!("kind {}\n", rc.kind));
    out.push_str(&format!("seed {}\n", rc.seed));
    if !rc.detail.is_empty() {
        out.push_str(&format!("detail {}\n", rc.detail));
    }
    out.push_str("[alphabet]\n");
    for (_, name) in case.alpha.entries() {
        out.push_str(&format!("label {name}\n"));
    }
    if let Subject::Topdown { labels, .. } = &case.subject {
        if !labels.is_empty() {
            out.push_str("[labels]\n");
            for name in labels {
                out.push_str(&format!("label {name}\n"));
            }
        }
    }
    out.push_str("[schema]\n");
    out.push_str(&render_schema(&case.starts, &case.decls));
    match &case.subject {
        Subject::Topdown { transducer, .. } => {
            out.push_str("[transducer]\n");
            out.push_str(&render_transducer(transducer, &case.alpha));
        }
        Subject::Dtl(spec) => {
            out.push_str("[dtl]\n");
            out.push_str(&format!("dtlseed {}\n", spec.seed));
            out.push_str(&format!("states {}\n", spec.n_states));
            if !spec.drops.is_empty() {
                let drops: Vec<String> = spec.drops.iter().map(|d| d.to_string()).collect();
                out.push_str(&format!("drops {}\n", drops.join(",")));
            }
        }
        Subject::Xslt(spec) => {
            out.push_str("[xslt]\n");
            out.push_str(&format!("xsltseed {}\n", spec.seed));
        }
    }
    if let Some(tree) = &case.tree {
        out.push_str("[tree]\n");
        out.push_str(&render_witness(tree, &case.alpha));
        out.push('\n');
    }
    out
}

/// Parses a regression case file rendered by [`render_case`].
///
/// Strict on the envelope: each `[section]` may appear at most once, each
/// header directive (`kind`, `seed`, `detail`) at most once, and `kind`
/// and `seed` are required — a case whose seed is missing would silently
/// replay a different instance if it defaulted, so it is an error instead.
/// A case names exactly one subject — one of `[transducer]`, `[dtl]` and
/// `[xslt]` — and only a `[transducer]` case may select `[labels]`: a
/// case that lost its subject would otherwise replay as "no divergence"
/// forever.
pub fn parse_case(src: &str) -> Result<RegressionCase, FormatError> {
    let mut kind: Option<DivergenceKind> = None;
    let mut seed: Option<u64> = None;
    let mut detail: Option<String> = None;
    let mut section: Option<&str> = None;
    let mut bodies: Vec<(&str, usize, String)> = Vec::new();
    for (line, text) in meaningful(src) {
        if let Some(name) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
            section = match name {
                "alphabet" => Some("alphabet"),
                "labels" => Some("labels"),
                "schema" => Some("schema"),
                "transducer" => Some("transducer"),
                "dtl" => Some("dtl"),
                "xslt" => Some("xslt"),
                "tree" => Some("tree"),
                _ => return err(line, format!("unknown section [{name}]")),
            };
            if bodies.iter().any(|(n, _, _)| Some(*n) == section) {
                return err(line, format!("duplicate section [{name}]"));
            }
            if is_subject(name) {
                if let Some((first, _, _)) = bodies.iter().find(|(n, _, _)| is_subject(n)) {
                    return err(
                        line,
                        format!("a case has one subject, but [{name}] follows [{first}]"),
                    );
                }
            }
            bodies.push((section.unwrap(), line, String::new()));
            continue;
        }
        match section {
            None => {
                if let Some(rest) = text.strip_prefix("kind ") {
                    if kind.is_some() {
                        return err(line, "duplicate `kind` directive");
                    }
                    kind = Some(
                        rest.trim()
                            .parse()
                            .map_err(|e: String| FormatError { line, message: e })?,
                    );
                } else if let Some(rest) = text.strip_prefix("seed ") {
                    if seed.is_some() {
                        return err(line, "duplicate `seed` directive");
                    }
                    seed = Some(rest.trim().parse().map_err(|_| FormatError {
                        line,
                        message: format!("bad seed {rest:?}"),
                    })?);
                } else if let Some(rest) = text.strip_prefix("detail ") {
                    if detail.is_some() {
                        return err(line, "duplicate `detail` directive");
                    }
                    detail = Some(rest.trim().to_owned());
                } else {
                    return err(line, format!("unrecognized header directive {text:?}"));
                }
            }
            Some(_) => {
                let body = &mut bodies.last_mut().expect("section pushed").2;
                body.push_str(text);
                body.push('\n');
            }
        }
    }
    let Some(kind) = kind else {
        return err(1, "case needs a `kind` line");
    };
    let Some(seed) = seed else {
        return err(1, "case needs a `seed` line");
    };
    let detail = detail.unwrap_or_default();
    let body = |name: &str| {
        bodies
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, b)| b.as_str())
    };
    // An empty [labels] section is a trap, not a no-op: `render_case`
    // omits the section when no label is selected, so an empty one means
    // the file was hand-truncated — and a retention recheck over zero
    // labels would panic downstream. Reject it at its header line.
    if let Some((_, header_line, entries)) = bodies.iter().find(|(n, _, _)| *n == "labels") {
        if entries.trim().is_empty() {
            return err(
                *header_line,
                "[labels] section has no entries (delete the section or add `label <name>` lines)",
            );
        }
        if body("transducer").is_none() {
            return err(
                *header_line,
                "[labels] selects text-retention labels, which only a [transducer] case has",
            );
        }
    }
    // The alphabet section pins interning order; schema parsing then
    // re-interns the same labels idempotently.
    let mut alpha = Alphabet::new();
    for line in body("alphabet").unwrap_or("").lines() {
        let Some(name) = line.strip_prefix("label ") else {
            return err(1, format!("bad alphabet line {line:?}"));
        };
        alpha.intern(name.trim());
    }
    // The selected labels of a text-retention case (absent otherwise).
    let mut labels = Vec::new();
    for line in body("labels").unwrap_or("").lines() {
        let Some(name) = line.strip_prefix("label ") else {
            return err(1, format!("bad labels line {line:?}"));
        };
        labels.push(name.trim().to_owned());
    }
    let Some(schema_src) = body("schema") else {
        return err(1, "case needs a [schema] section");
    };
    let dtd_probe = parse_schema(schema_src, &mut alpha)?;
    let _ = dtd_probe; // validated; the Case keeps declaration sources
    let (starts, decls) = schema_sources(schema_src);
    let subject = match (body("transducer"), body("dtl"), body("xslt")) {
        (Some(src), _, _) => Subject::Topdown {
            transducer: parse_transducer(src, &alpha)?,
            labels,
        },
        (_, Some(src), _) => Subject::Dtl(parse_dtl_spec(src)?),
        (_, _, Some(src)) => Subject::Xslt(parse_xslt_spec(src)?),
        (None, None, None) => {
            return err(
                1,
                "case needs a subject: one of [transducer], [dtl] or [xslt]",
            )
        }
    };
    let tree = body("tree")
        .map(|src| parse_witness(src.trim(), &mut alpha))
        .transpose()?;
    Ok(RegressionCase {
        kind,
        seed,
        detail,
        case: Case {
            alpha,
            starts,
            decls,
            subject,
            tree,
        },
    })
}

/// Whether `section` names a case's subject.
fn is_subject(section: &str) -> bool {
    matches!(section, "transducer" | "dtl" | "xslt")
}

/// Extracts the `(starts, decls)` sources back out of a schema body that
/// [`parse_schema`] accepted.
fn schema_sources(src: &str) -> (Vec<String>, Vec<(String, String)>) {
    let mut starts = Vec::new();
    let mut decls = Vec::new();
    for (_, text) in meaningful(src) {
        if let Some(rest) = text.strip_prefix("start ") {
            starts.push(rest.trim().to_owned());
        } else if let Some(rest) = text.strip_prefix("elem ") {
            if let Some((name, content)) = rest.split_once('=') {
                decls.push((name.trim().to_owned(), content.trim().to_owned()));
            }
        }
    }
    (starts, decls)
}

fn parse_dtl_spec(src: &str) -> Result<DtlSpec, FormatError> {
    let mut spec = DtlSpec {
        seed: 0,
        n_states: 0,
        drops: Vec::new(),
    };
    for (line, text) in meaningful(src) {
        if let Some(rest) = text.strip_prefix("dtlseed ") {
            spec.seed = rest.trim().parse().map_err(|_| FormatError {
                line,
                message: format!("bad dtlseed {rest:?}"),
            })?;
        } else if let Some(rest) = text.strip_prefix("states ") {
            spec.n_states = rest.trim().parse().map_err(|_| FormatError {
                line,
                message: format!("bad states {rest:?}"),
            })?;
        } else if let Some(rest) = text.strip_prefix("drops ") {
            for part in rest.split(',') {
                spec.drops
                    .push(part.trim().parse().map_err(|_| FormatError {
                        line,
                        message: format!("bad drop index {part:?}"),
                    })?);
            }
        } else {
            return err(line, format!("unrecognized dtl directive {text:?}"));
        }
    }
    if spec.n_states == 0 {
        return err(1, "[dtl] section needs `states`");
    }
    Ok(spec)
}

fn parse_xslt_spec(src: &str) -> Result<XsltSpec, FormatError> {
    let mut seed: Option<u64> = None;
    for (line, text) in meaningful(src) {
        if let Some(rest) = text.strip_prefix("xsltseed ") {
            if seed.is_some() {
                return err(line, "duplicate `xsltseed` directive");
            }
            seed = Some(rest.trim().parse().map_err(|_| FormatError {
                line,
                message: format!("bad xsltseed {rest:?}"),
            })?);
        } else {
            return err(line, format!("unrecognized xslt directive {text:?}"));
        }
    }
    match seed {
        Some(seed) => Ok(XsltSpec { seed }),
        None => err(1, "[xslt] section needs `xsltseed`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "
# a tiny document schema
start doc
elem doc  = (keep | drop)*
elem keep = text
elem drop = text
";

    #[test]
    fn dtl_transducer_file_parses() {
        let alpha = Alphabet::from_labels(["a", "b"]);
        let src = "
# the E5 k=2 instance
dtl
initial q0
rule q0 : a -> a(q0 / child[a]/child[a]/child)
rule q0 : b -> (q0 / child)   # bare call
text q0
";
        assert!(is_dtl_transducer(src));
        assert!(!is_dtl_transducer("initial q0\n"));
        let t = parse_dtl_transducer(src, &alpha).expect("parses");
        assert_eq!(t.state_count(), 1);
        assert!(t.text_rule(t.initial()));
        assert_eq!(t.rules().len(), 2);
    }

    #[test]
    fn dtl_transducer_errors_carry_line_numbers() {
        let alpha = Alphabet::from_labels(["a", "b"]);
        let bad_pattern = "dtl\ninitial q0\nrule q0 : a -> a(q0 / child[[)\n";
        let e = parse_dtl_transducer(bad_pattern, &alpha).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        let bad_label = "dtl\ninitial q0\nrule q0 : a -> nope(q0 / child)\n";
        let e = parse_dtl_transducer(bad_label, &alpha).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("nope"), "{e}");
        let not_dtl = "initial q0\n";
        assert!(parse_dtl_transducer(not_dtl, &alpha).is_err());
    }

    const TRANSDUCER: &str = "
initial q0
rule q0 doc -> doc(q)
rule q  keep -> keep(qt)
text qt
";

    #[test]
    fn schema_round_trip() {
        let mut alpha = Alphabet::new();
        let dtd = parse_schema(SCHEMA, &mut alpha).unwrap();
        assert!(dtd.is_reduced());
        let mut scratch = alpha.clone();
        let t = tpx_trees::term::parse_tree(r#"doc(keep("x") drop("y"))"#, &mut scratch).unwrap();
        assert!(dtd.validates(&t));
    }

    #[test]
    fn transducer_round_trip_and_check() {
        let mut alpha = Alphabet::new();
        let dtd = parse_schema(SCHEMA, &mut alpha).unwrap();
        let t = parse_transducer(TRANSDUCER, &alpha).unwrap();
        assert!(crate::check_topdown(&t, &dtd.to_nta()).is_preserving());
    }

    #[test]
    fn copying_transducer_file_detected() {
        let mut alpha = Alphabet::new();
        let dtd = parse_schema(SCHEMA, &mut alpha).unwrap();
        let t = parse_transducer(
            "initial q0\nrule q0 doc -> doc(q q)\nrule q keep -> keep(qt)\ntext qt\n",
            &alpha,
        )
        .unwrap();
        assert!(!crate::check_topdown(&t, &dtd.to_nta()).is_preserving());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut alpha = Alphabet::new();
        let e = parse_schema("start doc\nbogus line", &mut alpha).unwrap_err();
        assert_eq!(e.line, 2);
        let e2 = parse_schema("elem doc = keep*", &mut alpha).unwrap_err();
        assert_eq!(e2.line, 1); // no start symbol
        let dtd_alpha = {
            let mut a = Alphabet::new();
            parse_schema(SCHEMA, &mut a).unwrap();
            a
        };
        let e3 = parse_transducer("rule q0 doc -> doc(q)", &dtd_alpha).unwrap_err();
        assert!(e3.message.contains("initial"));
        let e4 = parse_transducer("initial q0\nrule q0 nosuch -> doc(q)", &dtd_alpha).unwrap_err();
        assert_eq!(e4.line, 2);
    }

    #[test]
    fn reserved_text_label_rejected() {
        let mut alpha = Alphabet::new();
        let e = parse_schema("start text\nelem text = %eps", &mut alpha);
        assert!(e.is_err());
    }

    #[test]
    fn transducer_render_parse_round_trips() {
        let mut alpha = Alphabet::new();
        parse_schema(SCHEMA, &mut alpha).unwrap();
        let t = parse_transducer(TRANSDUCER, &alpha).unwrap();
        let rendered = render_transducer(&t, &alpha);
        let t2 = parse_transducer(&rendered, &alpha).unwrap();
        assert_eq!(format!("{t:?}"), format!("{t2:?}"));
        // Rendering is a fixpoint.
        assert_eq!(rendered, render_transducer(&t2, &alpha));
    }

    #[test]
    fn schema_render_parse_round_trips() {
        let starts = vec!["doc".to_owned()];
        let decls = vec![
            ("doc".to_owned(), "(keep | drop)*".to_owned()),
            ("keep".to_owned(), "text".to_owned()),
            ("drop".to_owned(), "text".to_owned()),
        ];
        let rendered = render_schema(&starts, &decls);
        let mut alpha = Alphabet::new();
        let dtd = parse_schema(&rendered, &mut alpha).unwrap();
        assert!(dtd.is_reduced());
        let (starts2, decls2) = schema_sources(&rendered);
        assert_eq!(starts, starts2);
        assert_eq!(decls, decls2);
    }

    #[test]
    fn case_render_parse_round_trips() {
        let mut alpha = Alphabet::new();
        parse_schema(SCHEMA, &mut alpha).unwrap();
        let t = parse_transducer(TRANSDUCER, &alpha).unwrap();
        let tree = {
            let mut scratch = alpha.clone();
            tpx_trees::term::parse_tree(r#"doc(keep("x") drop("y"))"#, &mut scratch).unwrap()
        };
        let rc = RegressionCase {
            kind: DivergenceKind::TranslationDisagrees,
            seed: 42,
            detail: "hand-built round-trip fixture".to_owned(),
            case: Case {
                alpha: alpha.clone(),
                starts: vec!["doc".to_owned()],
                decls: vec![
                    ("doc".to_owned(), "(keep | drop)*".to_owned()),
                    ("keep".to_owned(), "text".to_owned()),
                    ("drop".to_owned(), "text".to_owned()),
                ],
                subject: Subject::Topdown {
                    transducer: t,
                    labels: vec!["keep".to_owned()],
                },
                tree: Some(tree),
            },
        };
        let rendered = render_case(&rc);
        let parsed = parse_case(&rendered).unwrap();
        assert_eq!(parsed.kind, rc.kind);
        assert_eq!(parsed.seed, rc.seed);
        assert_eq!(parsed.detail, rc.detail);
        // Interning order is pinned by the [alphabet] section.
        let names: Vec<&str> = parsed.case.alpha.entries().map(|(_, n)| n).collect();
        let orig: Vec<&str> = rc.case.alpha.entries().map(|(_, n)| n).collect();
        assert_eq!(names, orig);
        // Retention labels survive the round trip.
        let labels = |case: &Case| match &case.subject {
            Subject::Topdown { labels, .. } => labels.clone(),
            other => panic!("a transducer case, got {other:?}"),
        };
        assert_eq!(labels(&parsed.case), labels(&rc.case));
        // Re-rendering the parse is a fixpoint.
        assert_eq!(rendered, render_case(&parsed));
        // The schema language survives: the embedded tree still validates.
        assert!(parsed
            .case
            .schema_nta()
            .accepts(parsed.case.tree.as_ref().unwrap()));
    }

    #[test]
    fn case_envelope_is_strict() {
        let base = "kind translation-disagrees\nseed 7\n[alphabet]\nlabel doc\n\
                    [schema]\nstart doc\nelem doc = text\n";
        let subject = "[transducer]\ninitial q0\n";
        assert!(parse_case(&format!("{base}{subject}")).is_ok());
        // Missing seed must not silently default to 0.
        let no_seed = "kind translation-disagrees\n[schema]\nstart doc\nelem doc = text\n";
        let e = parse_case(no_seed).unwrap_err();
        assert!(e.message.contains("seed"), "{e}");
        // Duplicate header directives and sections carry line numbers.
        let dup_seed = "kind translation-disagrees\nseed 7\nseed 8\n";
        let e = parse_case(dup_seed).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("duplicate `seed`"), "{e}");
        let dup_kind = "kind translation-disagrees\nkind translation-disagrees\nseed 7\n";
        assert_eq!(parse_case(dup_kind).unwrap_err().line, 2);
        let dup_detail = "kind translation-disagrees\nseed 7\ndetail a\ndetail b\n";
        assert_eq!(parse_case(dup_detail).unwrap_err().line, 4);
        let dup_section = format!("{base}[schema]\nstart doc\nelem doc = text\n{subject}");
        let e = parse_case(&dup_section).unwrap_err();
        assert!(e.message.contains("duplicate section [schema]"), "{e}");
        assert_eq!(e.line, 8, "{e}");
    }

    #[test]
    fn empty_labels_section_is_a_line_numbered_error() {
        // A trailing `[labels]` with no entries used to parse as "no
        // selected labels" and then panic the retention recheck; it is now
        // rejected at the section header's line.
        let src = "kind retention-disagrees\nseed 7\n[alphabet]\nlabel doc\n\
                   [schema]\nstart doc\nelem doc = text\n[labels]\n";
        let e = parse_case(src).unwrap_err();
        assert_eq!(e.line, 8, "{e}");
        assert!(e.message.contains("[labels]"), "{e}");
        // Comment-only bodies count as empty too.
        let commented = format!("{src}# nothing selected\n");
        assert_eq!(parse_case(&commented).unwrap_err().line, 8);
        // A populated section still parses.
        let ok = format!("{src}label doc\n[transducer]\ninitial q0\n");
        let Subject::Topdown { labels, .. } = parse_case(&ok).unwrap().case.subject else {
            panic!("a transducer case");
        };
        assert_eq!(labels, vec!["doc"]);
    }

    /// A case envelope over a one-label schema, ready for its sections.
    const ENVELOPE: &str = "kind preserving-but-violates\nseed 7\n[alphabet]\nlabel doc\n\
                            [schema]\nstart doc\nelem doc = text\n";

    #[test]
    fn a_case_without_a_subject_is_a_line_numbered_error() {
        let e = parse_case(&format!("{ENVELOPE}[tree]\ndoc(\"x\")\n")).unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.message.contains("subject"), "{e}");
    }

    #[test]
    fn a_case_with_two_subjects_is_an_error_at_the_second() {
        let src = format!("{ENVELOPE}[transducer]\ninitial q0\n[dtl]\ndtlseed 1\nstates 2\n");
        let e = parse_case(&src).unwrap_err();
        assert_eq!(e.line, 10, "{e}");
        assert!(e.message.contains("[dtl] follows [transducer]"), "{e}");
        let src = format!("{ENVELOPE}[xslt]\nxsltseed 1\n[transducer]\ninitial q0\n");
        assert_eq!(parse_case(&src).unwrap_err().line, 10);
    }

    #[test]
    fn labels_outside_a_transducer_case_are_an_error_at_their_header() {
        let src = format!("{ENVELOPE}[labels]\nlabel doc\n[dtl]\ndtlseed 1\nstates 2\n");
        let e = parse_case(&src).unwrap_err();
        assert_eq!(e.line, 8, "{e}");
        assert!(e.message.contains("[labels]"), "{e}");
        let no_subject = format!("{ENVELOPE}[labels]\nlabel doc\n");
        assert_eq!(parse_case(&no_subject).unwrap_err().line, 8);
    }

    #[test]
    fn dtl_case_round_trips_to_the_same_program() {
        let schema = tpx_workload::random_dtd(2, 5);
        let spec = DtlSpec {
            seed: 17,
            n_states: 2,
            drops: vec![1, 3],
        };
        let rc = RegressionCase {
            kind: DivergenceKind::DtlLemmaVsOperational,
            seed: 5,
            detail: String::new(),
            case: Case {
                alpha: schema.alpha.clone(),
                starts: schema.starts.clone(),
                decls: schema.decls.clone(),
                subject: Subject::Dtl(spec.clone()),
                tree: None,
            },
        };
        let parsed = parse_case(&render_case(&rc)).unwrap();
        let Subject::Dtl(parsed_spec) = &parsed.case.subject else {
            panic!("a DTL case");
        };
        assert_eq!(parsed_spec, &spec);
        let a = spec.program(&rc.case.alpha);
        let b = parsed_spec.program(&parsed.case.alpha);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn xslt_case_round_trips_to_the_same_stylesheet() {
        let schema = tpx_workload::random_dtd(2, 5);
        let spec = XsltSpec { seed: 23 };
        let rc = RegressionCase {
            kind: DivergenceKind::XsltCompileDisagrees,
            seed: 5,
            detail: String::new(),
            case: Case {
                alpha: schema.alpha.clone(),
                starts: schema.starts.clone(),
                decls: schema.decls.clone(),
                subject: Subject::Xslt(spec.clone()),
                tree: None,
            },
        };
        let rendered = render_case(&rc);
        assert!(rendered.contains("[xslt]\nxsltseed 23\n"), "{rendered}");
        let parsed = parse_case(&rendered).unwrap();
        let Subject::Xslt(parsed_spec) = &parsed.case.subject else {
            panic!("an XSLT case");
        };
        assert_eq!(parsed_spec, &spec);
        assert_eq!(
            parsed_spec.stylesheet(&parsed.case.alpha),
            spec.stylesheet(&rc.case.alpha)
        );
        // Malformed / missing / duplicate seeds are errors (line numbers
        // are body-relative, matching the [dtl] section's parser).
        let base = "kind xslt-compile-disagrees\nseed 7\n[alphabet]\nlabel doc\n\
                    [schema]\nstart doc\nelem doc = text\n[xslt]\n";
        let e = parse_case(base).unwrap_err();
        assert!(e.message.contains("xsltseed"), "{e}");
        let bad = format!("{base}xsltseed nope\n");
        assert!(parse_case(&bad)
            .unwrap_err()
            .message
            .contains("bad xsltseed"));
        let dup = format!("{base}xsltseed 1\nxsltseed 2\n");
        let e = parse_case(&dup).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("duplicate"), "{e}");
    }
}
