//! Wire protocol for `textpres serve`: newline-delimited JSON frames.
//!
//! Every frame is one JSON object on one LF-terminated line. Requests
//! carry an optional `id` (non-negative integer or string) that is echoed
//! verbatim on the response, a `type` selecting the operation, and
//! type-specific fields; schema/transducer payloads are the existing
//! `textpres::format` text formats (or a stylesheet) embedded as JSON
//! strings, sniffed by the same [`crate::frontend::prepare`] the CLI
//! uses; a `check` frame's analysis fields parse into the same
//! [`AnalysisRequest`] and [`BudgetRequest`] as the CLI's flags. The
//! envelope is strict in the same spirit as [`crate::format::parse_case`]:
//! duplicate fields, unknown fields, and wrong value types are rejected
//! with a structured error frame — never a panic, and never a
//! silently-ignored field.
//!
//! Responses are `{"id":…, "ok":true, …}` on success or
//! `{"id":…, "ok":false, "error":"<code>", "message":…}` on failure,
//! with `error` drawn from the closed vocabulary in [`codes`]. The
//! transport layer (see [`crate::serve`]) prefixes `message` with the
//! frame's line number on the connection, mirroring the line-numbered
//! [`crate::format::FormatError`] contract of the file formats.

use std::collections::BTreeMap;

use tpx_obs::{quote, JsonValue};

pub use crate::frontend::{AnalysisRequest, BudgetRequest};

/// Response error codes. A closed vocabulary so clients can switch on
/// `error` without string-matching free-form messages.
pub mod codes {
    /// The line was not a JSON object, or violated the envelope (bad
    /// `id`, missing/unknown `type`, duplicate or unknown fields, wrong
    /// value types). The connection stays open; parsing resynchronizes
    /// at the next newline.
    pub const BAD_FRAME: &str = "bad-frame";
    /// The envelope was well-formed but the request is not servable:
    /// an embedded schema/transducer failed to parse (the message
    /// carries the format's line-numbered error), a named source ref is
    /// unknown, or a field combination is invalid.
    pub const BAD_REQUEST: &str = "bad-request";
    /// No newline within the configured frame-size cap. The server
    /// answers once and closes the connection (the rest of the oversize
    /// line cannot be resynchronized).
    pub const FRAME_TOO_LARGE: &str = "frame-too-large";
    /// Admission control shed the request: all execution slots were busy
    /// and the bounded wait queue was full. Retryable (429-style).
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining (SIGTERM or a `shutdown` frame) and no
    /// longer admits new work. Retryable against a replacement instance.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The check exhausted its fuel or deadline budget and degradation
    /// was not requested (or not applicable). Retry with a larger budget
    /// or `"degrade": true`.
    pub const EXHAUSTED: &str = "exhausted";
    /// The decider panicked; `catch_unwind` isolation turned it into
    /// this structured response instead of killing the daemon.
    pub const PANICKED: &str = "panicked";
    /// An internal engine error (e.g. a poisoned cache build).
    pub const INTERNAL: &str = "internal";
    /// The named-source registry is at capacity; unregister by
    /// re-registering over existing names or restart with a larger cap.
    pub const REGISTRY_FULL: &str = "registry-full";
}

/// The client-chosen request id echoed on the response.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameId {
    /// No `id` field; responses carry `"id":null`.
    None,
    /// A non-negative integer id.
    Num(u64),
    /// A string id.
    Str(String),
}

impl FrameId {
    fn render(&self) -> String {
        match self {
            FrameId::None => "null".to_owned(),
            FrameId::Num(n) => n.to_string(),
            FrameId::Str(s) => quote(s),
        }
    }
}

/// A schema/transducer source: inline text or a reference to a source
/// previously stored with a `register` frame (amortizing upload + parse
/// across many checks — the fixed-schema usage pattern).
#[derive(Clone, Debug, PartialEq)]
pub enum SourceRef {
    /// The source text itself, embedded in the frame.
    Inline(String),
    /// The name of a registered source.
    Named(String),
}

/// What a `register` frame stores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SourceKind {
    /// A schema document (also usable as a conformance target).
    Schema,
    /// A transducer program (top-down or DTL, sniffed on use).
    Transducer,
}

impl SourceKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::Schema => "schema",
            SourceKind::Transducer => "transducer",
        }
    }
}

/// A single check/analyze request.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckRequest {
    /// The schema source.
    pub schema: SourceRef,
    /// The transducer source.
    pub transducer: SourceRef,
    /// The analysis to run (text-preservation unless the frame names
    /// another).
    pub analysis: AnalysisRequest<SourceRef>,
    /// The requested budget.
    pub budget: BudgetRequest,
}

/// A batch of text-preservation checks of many transducers against one
/// schema, run as one engine batch.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRequest {
    /// The shared schema source.
    pub schema: SourceRef,
    /// The transducer sources, answered in order.
    pub transducers: Vec<SourceRef>,
    /// The per-task budget.
    pub budget: BudgetRequest,
}

/// A `register` frame: store a named source for later `*_ref` use.
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterRequest {
    /// The name later frames refer to; re-registering overwrites.
    pub name: String,
    /// Whether this is a schema or a transducer.
    pub kind: SourceKind,
    /// The source text.
    pub text: String,
}

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestFrame {
    /// The echoed id.
    pub id: FrameId,
    /// The operation.
    pub body: RequestBody,
}

/// The operation a request frame selects.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Run one analysis of one transducer against one schema.
    Check(CheckRequest),
    /// Run many text-preservation checks against one schema.
    Batch(BatchRequest),
    /// Store a named source.
    Register(RegisterRequest),
    /// Liveness probe; also reports draining state.
    Health,
    /// Server statistics (cache hit rates, queue depth, shed counts,
    /// per-analysis verdict counters).
    Stats,
    /// Begin a graceful drain, then answer.
    Shutdown,
}

/// A structured error: a [`codes`] code plus a human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorInfo {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Free-form detail (carries embedded-format line numbers).
    pub message: String,
}

impl ErrorInfo {
    /// Builds an error with an owned message.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ErrorInfo {
            code,
            message: message.into(),
        }
    }
}

/// One verdict, flattened for the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct VerdictSummary {
    /// Whether the analysis passed (no violation found).
    pub pass: bool,
    /// The analysis name (`text-preservation` / …).
    pub analysis: &'static str,
    /// Which decider ran (`topdown`, `dtl`, …).
    pub decider: &'static str,
    /// The outcome tag: `preserving`, `copying`, `rearranging`,
    /// `not-preserving`, `deletes-text`, or `non-conforming`.
    pub outcome: &'static str,
    /// Whether the verdict came from the degraded bounded oracle.
    pub degraded: bool,
    /// The rendered witness (tree or path format), when violating.
    pub witness: Option<String>,
    /// Artifact-cache hits attributed to this check.
    pub cache_hits: usize,
    /// Artifact-cache misses attributed to this check.
    pub cache_misses: usize,
    /// Total fuel spent across stages.
    pub fuel: u64,
    /// Server-side wall-clock for the check, microseconds.
    pub elapsed_us: u64,
}

/// The `health` response payload.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthSummary {
    /// `"ok"` or `"draining"`.
    pub status: &'static str,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

/// The `stats` response payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSummary {
    /// Requests answered with a verdict or batch.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Frames rejected before reaching the engine (bad frame/request).
    pub rejected: u64,
    /// Checks currently executing.
    pub inflight: u64,
    /// Requests waiting for an execution slot.
    pub queue_depth: u64,
    /// Open client connections.
    pub connections: u64,
    /// Named sources currently registered.
    pub registry_entries: u64,
    /// Entries in the parse memo (compiled schema/transducer sources).
    pub memo_entries: u64,
    /// Requests that skipped re-parsing via the memo.
    pub memo_hits: u64,
    /// Artifact-cache hits / misses / entries / evictions.
    pub cache: (u64, u64, u64, u64),
    /// Engine counters (verdicts per analysis, errors, stage builds…),
    /// name → count.
    pub counters: BTreeMap<String, u64>,
}

/// The payload of a response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// A completed check.
    Verdict(VerdictSummary),
    /// A completed batch: one verdict or error per transducer, in order.
    Batch(Vec<Result<VerdictSummary, ErrorInfo>>),
    /// A successful `register`.
    Registered {
        /// The stored name.
        name: String,
        /// The stored kind.
        kind: SourceKind,
    },
    /// A `health` answer.
    Health(HealthSummary),
    /// A `stats` answer.
    Stats(Box<StatsSummary>),
    /// A `shutdown` acknowledgement (the drain has begun).
    ShutdownAck,
    /// A structured failure.
    Error(ErrorInfo),
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type ParseResult<T> = Result<T, ErrorInfo>;

fn bad_frame(msg: impl Into<String>) -> ErrorInfo {
    ErrorInfo::new(codes::BAD_FRAME, msg)
}

/// The strict field cursor over one frame object: every field must be
/// known, unique, and of the right type; [`Fields::finish`] rejects
/// leftovers.
struct Fields<'a> {
    fields: &'a [(String, JsonValue)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a JsonValue) -> ParseResult<Self> {
        match v {
            JsonValue::Obj(fields) => {
                for (i, (k, _)) in fields.iter().enumerate() {
                    if fields[..i].iter().any(|(other, _)| other == k) {
                        return Err(bad_frame(format!("duplicate field {k:?}")));
                    }
                }
                Ok(Fields {
                    fields,
                    used: vec![false; fields.len()],
                })
            }
            _ => Err(bad_frame("frame is not a JSON object")),
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a JsonValue> {
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn take_str(&mut self, key: &str) -> ParseResult<Option<String>> {
        match self.take(key) {
            None => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(bad_frame(format!("field {key:?} must be a string"))),
        }
    }

    fn take_u64(&mut self, key: &str) -> ParseResult<Option<u64>> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => match v.as_u64() {
                Some(n) => Ok(Some(n)),
                None => Err(bad_frame(format!(
                    "field {key:?} must be a non-negative integer"
                ))),
            },
        }
    }

    fn take_bool(&mut self, key: &str) -> ParseResult<bool> {
        match self.take(key) {
            None => Ok(false),
            Some(JsonValue::Bool(b)) => Ok(*b),
            Some(_) => Err(bad_frame(format!("field {key:?} must be a boolean"))),
        }
    }

    /// Rejects any field no `take*` consumed.
    fn finish(self) -> ParseResult<()> {
        for (i, (k, _)) in self.fields.iter().enumerate() {
            if !self.used[i] {
                return Err(bad_frame(format!("unknown field {k:?}")));
            }
        }
        Ok(())
    }
}

/// Pulls an inline-or-ref source pair (`key` / `key_ref`) out of the
/// frame; exactly one of the two must be present when `required`.
fn take_source(f: &mut Fields<'_>, key: &str, required: bool) -> ParseResult<Option<SourceRef>> {
    let ref_key = format!("{key}_ref");
    let inline = f.take_str(key)?;
    let named = f.take_str(&ref_key)?;
    match (inline, named) {
        (Some(_), Some(_)) => Err(bad_frame(format!(
            "fields {key:?} and {ref_key:?} are mutually exclusive"
        ))),
        (Some(text), None) => Ok(Some(SourceRef::Inline(text))),
        (None, Some(name)) => Ok(Some(SourceRef::Named(name))),
        (None, None) if required => {
            Err(bad_frame(format!("missing field {key:?} (or {ref_key:?})")))
        }
        (None, None) => Ok(None),
    }
}

fn take_budget(f: &mut Fields<'_>) -> ParseResult<BudgetRequest> {
    Ok(BudgetRequest {
        fuel: f.take_u64("fuel")?,
        timeout_ms: f.take_u64("timeout_ms")?,
        degrade: f.take_bool("degrade")?,
    })
}

fn take_id(f: &mut Fields<'_>) -> ParseResult<FrameId> {
    match f.take("id") {
        None | Some(JsonValue::Null) => Ok(FrameId::None),
        Some(JsonValue::Str(s)) => Ok(FrameId::Str(s.clone())),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(FrameId::Num(n)),
            None => Err(bad_frame(
                "field \"id\" must be a non-negative integer or string",
            )),
        },
    }
}

fn take_analysis(f: &mut Fields<'_>) -> ParseResult<AnalysisRequest<SourceRef>> {
    let name = f.take_str("analysis")?;
    let labels = match f.take("labels") {
        None => Vec::new(),
        Some(JsonValue::Arr(items)) => {
            let mut labels = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    JsonValue::Str(s) => labels.push(s.clone()),
                    _ => return Err(bad_frame("field \"labels\" must be an array of strings")),
                }
            }
            labels
        }
        Some(_) => return Err(bad_frame("field \"labels\" must be an array of strings")),
    };
    let target = take_source(f, "target", false)?;
    AnalysisRequest::new(name.as_deref(), labels, target).map_err(bad_frame)
}

/// Parses one frame line into a [`RequestFrame`].
///
/// Errors are [`codes::BAD_FRAME`] — the caller maps them onto an error
/// response carrying whatever `id` could still be recovered (a frame
/// whose envelope is broken gets `"id":null`). This function never
/// panics on any input; `tests/format_fuzz.rs` sweeps it with seeded
/// mutations alongside the file-format parsers.
pub fn parse_request_line(line: &str) -> Result<RequestFrame, ErrorInfo> {
    let value = JsonValue::parse(line).map_err(|e| bad_frame(format!("invalid JSON: {e}")))?;
    let mut f = Fields::new(&value)?;
    let id = take_id(&mut f)?;
    let Some(kind) = f.take_str("type")? else {
        return Err(bad_frame("missing field \"type\""));
    };
    let body = match kind.as_str() {
        "check" => {
            let schema = take_source(&mut f, "schema", true)?.expect("required");
            let transducer = take_source(&mut f, "transducer", true)?.expect("required");
            let analysis = take_analysis(&mut f)?;
            let budget = take_budget(&mut f)?;
            RequestBody::Check(CheckRequest {
                schema,
                transducer,
                analysis,
                budget,
            })
        }
        "batch" => {
            let schema = take_source(&mut f, "schema", true)?.expect("required");
            let transducers = match f.take("transducers") {
                Some(JsonValue::Arr(items)) if !items.is_empty() => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            JsonValue::Str(text) => out.push(SourceRef::Inline(text.clone())),
                            JsonValue::Obj(_) => {
                                let mut g = Fields::new(item)?;
                                let name = g.take_str("ref")?.ok_or_else(|| {
                                    bad_frame("a \"transducers\" object item needs \"ref\"")
                                })?;
                                g.finish()?;
                                out.push(SourceRef::Named(name));
                            }
                            _ => {
                                return Err(bad_frame(
                                    "\"transducers\" items must be source strings or \
                                     {\"ref\": name} objects",
                                ))
                            }
                        }
                    }
                    out
                }
                Some(JsonValue::Arr(_)) => {
                    return Err(bad_frame("field \"transducers\" must not be empty"))
                }
                Some(_) => return Err(bad_frame("field \"transducers\" must be an array")),
                None => return Err(bad_frame("missing field \"transducers\"")),
            };
            let budget = take_budget(&mut f)?;
            RequestBody::Batch(BatchRequest {
                schema,
                transducers,
                budget,
            })
        }
        "register" => {
            let Some(name) = f.take_str("name")? else {
                return Err(bad_frame("missing field \"name\""));
            };
            if name.is_empty() {
                return Err(bad_frame("field \"name\" must not be empty"));
            }
            let kind = match f.take_str("kind")?.as_deref() {
                Some("schema") => SourceKind::Schema,
                Some("transducer") => SourceKind::Transducer,
                Some(other) => {
                    return Err(bad_frame(format!(
                        "unknown kind {other:?} (expected \"schema\" or \"transducer\")"
                    )))
                }
                None => return Err(bad_frame("missing field \"kind\"")),
            };
            let Some(text) = f.take_str("text")? else {
                return Err(bad_frame("missing field \"text\""));
            };
            RequestBody::Register(RegisterRequest { name, kind, text })
        }
        "health" => RequestBody::Health,
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        other => return Err(bad_frame(format!("unknown request type {other:?}"))),
    };
    f.finish()?;
    Ok(RequestFrame { id, body })
}

/// Best-effort id recovery from a line whose full envelope parse failed,
/// so even a `bad-frame` response can be correlated by the client.
pub fn recover_id(line: &str) -> FrameId {
    let Ok(value) = JsonValue::parse(line) else {
        return FrameId::None;
    };
    match value.get("id") {
        Some(JsonValue::Str(s)) => FrameId::Str(s.clone()),
        Some(v) => v.as_u64().map_or(FrameId::None, FrameId::Num),
        None => FrameId::None,
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn push_verdict_fields(out: &mut String, v: &VerdictSummary) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\"verdict\":{},\"analysis\":{},\"decider\":{},\"outcome\":{},\"degraded\":{}",
        if v.pass { "\"pass\"" } else { "\"fail\"" },
        quote(v.analysis),
        quote(v.decider),
        quote(v.outcome),
        v.degraded,
    );
    if let Some(w) = &v.witness {
        let _ = write!(out, ",\"witness\":{}", quote(w));
    }
    let _ = write!(
        out,
        ",\"cache_hits\":{},\"cache_misses\":{},\"fuel\":{},\"elapsed_us\":{}",
        v.cache_hits, v.cache_misses, v.fuel, v.elapsed_us
    );
}

/// Renders one response frame as a single JSON line (no trailing
/// newline).
pub fn render_response(id: &FrameId, body: &ResponseBody) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"id\":{}", id.render());
    match body {
        ResponseBody::Verdict(v) => {
            out.push_str(",\"ok\":true,");
            push_verdict_fields(&mut out, v);
        }
        ResponseBody::Batch(items) => {
            out.push_str(",\"ok\":true,\"results\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match item {
                    Ok(v) => {
                        out.push_str("{\"ok\":true,");
                        push_verdict_fields(&mut out, v);
                        out.push('}');
                    }
                    Err(e) => {
                        let _ = write!(
                            out,
                            "{{\"ok\":false,\"error\":{},\"message\":{}}}",
                            quote(e.code),
                            quote(&e.message)
                        );
                    }
                }
            }
            out.push(']');
        }
        ResponseBody::Registered { name, kind } => {
            let _ = write!(
                out,
                ",\"ok\":true,\"registered\":{},\"kind\":{}",
                quote(name),
                quote(kind.as_str())
            );
        }
        ResponseBody::Health(h) => {
            let _ = write!(
                out,
                ",\"ok\":true,\"status\":{},\"uptime_ms\":{}",
                quote(h.status),
                h.uptime_ms
            );
        }
        ResponseBody::Stats(s) => {
            let _ = write!(
                out,
                ",\"ok\":true,\"serve\":{{\"served\":{},\"shed\":{},\"rejected\":{},\
                 \"inflight\":{},\"queue_depth\":{},\"connections\":{},\
                 \"registry_entries\":{},\"memo_entries\":{},\"memo_hits\":{}}}",
                s.served,
                s.shed,
                s.rejected,
                s.inflight,
                s.queue_depth,
                s.connections,
                s.registry_entries,
                s.memo_entries,
                s.memo_hits
            );
            let (hits, misses, entries, evictions) = s.cache;
            let _ = write!(
                out,
                ",\"cache\":{{\"hits\":{hits},\"misses\":{misses},\
                 \"entries\":{entries},\"evictions\":{evictions}}}"
            );
            out.push_str(",\"counters\":{");
            for (i, (name, count)) in s.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", quote(name), count);
            }
            out.push('}');
        }
        ResponseBody::ShutdownAck => {
            out.push_str(",\"ok\":true,\"draining\":true");
        }
        ResponseBody::Error(e) => {
            let _ = write!(
                out,
                ",\"ok\":false,\"error\":{},\"message\":{}",
                quote(e.code),
                quote(&e.message)
            );
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_frame_round_trips() {
        let frame = parse_request_line(
            r#"{"id":7,"type":"check","schema":"start a\nelem a = text","transducer":"initial q\nrule q a -> a(qt)\ntext qt","fuel":100,"degrade":true}"#,
        )
        .unwrap();
        assert_eq!(frame.id, FrameId::Num(7));
        let RequestBody::Check(req) = frame.body else {
            panic!("expected check");
        };
        assert_eq!(req.budget.fuel, Some(100));
        assert!(req.budget.degrade);
        assert_eq!(req.analysis, AnalysisRequest::TextPreservation);
        assert!(matches!(req.schema, SourceRef::Inline(_)));
    }

    #[test]
    fn refs_and_inline_are_mutually_exclusive() {
        let err = parse_request_line(
            r#"{"type":"check","schema":"s","schema_ref":"n","transducer":"t"}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, codes::BAD_FRAME);
        assert!(
            err.message.contains("mutually exclusive"),
            "{}",
            err.message
        );
    }

    #[test]
    fn duplicate_and_unknown_fields_are_rejected() {
        let dup = parse_request_line(r#"{"type":"health","type":"stats"}"#).unwrap_err();
        assert!(dup.message.contains("duplicate field"), "{}", dup.message);
        let unk = parse_request_line(r#"{"type":"health","bogus":1}"#).unwrap_err();
        assert!(unk.message.contains("unknown field"), "{}", unk.message);
    }

    #[test]
    fn analysis_field_combinations_are_validated() {
        let err =
            parse_request_line(r#"{"type":"check","schema":"s","transducer":"t","labels":["a"]}"#)
                .unwrap_err();
        assert!(err.message.contains("labels"), "{}", err.message);
        let err = parse_request_line(
            r#"{"type":"check","schema":"s","transducer":"t","analysis":"text-retention"}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("non-empty"), "{}", err.message);
        let ok = parse_request_line(
            r#"{"type":"check","schema":"s","transducer":"t","analysis":"conformance","target_ref":"tgt"}"#,
        )
        .unwrap();
        let RequestBody::Check(req) = ok.body else {
            panic!("expected check");
        };
        assert_eq!(
            req.analysis,
            AnalysisRequest::Conformance {
                target: SourceRef::Named("tgt".to_owned())
            }
        );
    }

    #[test]
    fn batch_items_take_strings_or_refs() {
        let frame = parse_request_line(
            r#"{"type":"batch","schema_ref":"s","transducers":["inline text",{"ref":"t1"}]}"#,
        )
        .unwrap();
        let RequestBody::Batch(req) = frame.body else {
            panic!("expected batch");
        };
        assert_eq!(req.transducers.len(), 2);
        assert_eq!(req.transducers[1], SourceRef::Named("t1".to_owned()));
    }

    #[test]
    fn recover_id_survives_broken_envelopes() {
        assert_eq!(recover_id("not json at all"), FrameId::None);
        assert_eq!(
            recover_id(r#"{"id":"abc","type":"nope"}"#),
            FrameId::Str("abc".to_owned())
        );
        assert_eq!(recover_id(r#"{"id":3,"type":5}"#), FrameId::Num(3));
    }

    #[test]
    fn responses_render_as_single_lines() {
        let line = render_response(
            &FrameId::Str("x\"y".to_owned()),
            &ResponseBody::Error(ErrorInfo::new(codes::OVERLOADED, "queue full\nretry")),
        );
        assert!(!line.contains('\n'), "{line}");
        let parsed = JsonValue::parse(&line).unwrap();
        assert_eq!(parsed.get("ok").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            parsed.get("error").and_then(|v| v.as_str()),
            Some(codes::OVERLOADED)
        );
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("x\"y"));
    }
}
