//! `serve-mixed`: one operation is one request/response round trip on one
//! persistent connection, from one waiting client (a closed loop) to a
//! `textpres serve` daemon spawned from the repository's binary.
//!
//! Reads are check frames on a registered hot set of E11 corpus pairs, one
//! of every shape the corpus generates: they hit the daemon's parse memo
//! and artifact cache, except that reordering stylesheets re-run their
//! decide stage. Writes (5 of every 100 requests) carry inline sources the
//! daemon has never seen — a hot pair with its namespace prefix renamed —
//! so each one is parsed, compiled and inserted into the memo and the
//! cache, and together they trip the memo's wholesale reset at its
//! 128-entry cap and the cache's per-shard resets again and again.
//!
//! An operation's cost class is its input together with what the daemon's
//! counters say the request did: a memo hit or miss, a memo reset, how many
//! artifact-cache misses, a shard reset. The rebuilds that follow a reset
//! therefore form classes of their own, whose costs reach the percentiles
//! and the throughput as often as they happen. A class's cost is its
//! fastest repeat (see `ClassCost::Fastest`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use textpres::engine::Outcome;
use textpres::format::{parse_schema, parse_witness};
use textpres::frontend::{compile_stylesheet, XsltArtifact};
use textpres::obs::{quote, JsonValue};
use textpres::topdown::PathSym;
use textpres::trees::rng::SplitMix64;
use tpx_workload::xslt_corpus;

use crate::checks::{self, Machine, Property};
use crate::layers::Layers;
use crate::report::{peak_rss_mb, ClassCost, Measured};
use crate::Ctx;

/// Registered hot pairs: every family and shape.
const HOT: usize = FAMILIES.len() * KINDS.len();
/// Requests per round, and which of them carry new sources.
const ROUND: usize = 100;
const WRITES_AT: [usize; 5] = [10, 30, 50, 70, 90];
/// One round's length on the reference host, in seconds.
const ROUND_S: f64 = 0.035;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// How long after the daemon announces its address the client connects.
const CONNECT_AFTER: std::time::Duration = std::time::Duration::from_millis(2);
/// Rounds the traced daemon serves, which bounds its trace file.
const TRACED_ROUNDS: usize = 100;

/// A running daemon and the client's one connection to it.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port and waits for its first
    /// `health` answer.
    fn spawn(textpres: &Path, trace_out: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(textpres);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(p) = trace_out {
            cmd.arg("--trace-out").arg(p);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", textpres.display()))?;
        let Some(out) = child.stdout.take() else {
            stop(&mut child);
            return Err("the daemon has no stdout".into());
        };
        let mut stdout = BufReader::new(out);
        let mut announce = String::new();
        let addr = match stdout.read_line(&mut announce) {
            Ok(n) if n > 0 => announce.trim().rsplit(' ').next().unwrap_or("").to_owned(),
            _ => {
                stop(&mut child);
                return Err("the daemon exited before announcing its address".into());
            }
        };
        // The daemon's accept loop polls its listener and sleeps between
        // polls. Connecting a little after the announcement lets its first
        // poll always come first, so every set-up waits out one sleep
        // instead of some set-ups winning a race and skipping it.
        std::thread::sleep(CONNECT_AFTER);
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                stop(&mut child);
                return Err(format!("cannot connect to {addr}: {e}"));
            }
        };
        let reader = stream.try_clone().map(BufReader::new);
        let mut d = Daemon {
            child,
            _stdout: stdout,
            reader: reader.map_err(|e| e.to_string())?,
            stream,
            line: String::new(),
        };
        d.stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let health = d.call("{\"type\":\"health\"}")?;
        if !health.contains("\"status\":\"ok\"") {
            return Err(format!("unhealthy daemon: {health}"));
        }
        Ok(d)
    }

    /// Sends one frame and reads its response line.
    fn call(&mut self, frame: &str) -> Result<String, String> {
        self.stream
            .write_all(frame.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.receive()
    }

    /// Reads one response line.
    fn receive(&mut self) -> Result<String, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn stats(&mut self) -> Result<JsonValue, String> {
        JsonValue::parse(&self.call("{\"type\":\"stats\"}")?)
    }

    /// Drains the daemon with a `shutdown` frame and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.call("{\"type\":\"shutdown\"}")?;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        stop(&mut self.child);
    }
}

/// Ends a child that has not exited yet, and reaps it.
fn stop(child: &mut Child) {
    if matches!(child.try_wait(), Ok(None)) {
        let _ = child.kill();
    }
    let _ = child.wait();
}

/// A hot pair with its ground truth.
struct Pair {
    name: String,
    /// Family and shape, e.g. `tei2-reorder`.
    base: String,
    /// The namespace prefix its labels carry.
    ns: &'static str,
    schema_src: String,
    xslt_src: String,
    expect: &'static str,
}

/// The hot set's schema families (at parameter 2), each with the namespace
/// prefix of its labels, and its stylesheet shapes: every shape the corpus
/// generates.
const FAMILIES: [(&str, &str); 2] = [("tei2", "tei"), ("bpmn2", "bpmn")];
const KINDS: [&str; 6] = [
    "identity",
    "rename",
    "strip",
    "delete",
    "duplicate",
    "reorder",
];

/// The hot set: for both families and each shape, the first such pair of
/// the seeded corpus, in a seeded order. The composition is fixed so the
/// cost of a round does not drift with the seed.
fn hot_set(seed: u64) -> Result<Vec<Pair>, String> {
    let corpus = xslt_corpus(2000, seed);
    let mut hot = Vec::new();
    for (family, ns) in FAMILIES {
        for kind in KINDS {
            let stem = format!("{family}-{kind}-");
            let case = corpus
                .iter()
                .find(|c| c.name.starts_with(&stem))
                .ok_or_else(|| format!("the corpus holds no {stem}* pair"))?;
            hot.push(Pair {
                expect: checks::corpus_truth(case),
                base: format!("{family}-{kind}"),
                ns,
                name: case.name.clone(),
                schema_src: case.schema_src.clone(),
                xslt_src: case.xslt_src.clone(),
            });
        }
    }
    let mut rng = SplitMix64::new(seed ^ 0x005E_127E);
    for i in (1..hot.len()).rev() {
        hot.swap(i, rng.below(i + 1));
    }
    Ok(hot)
}

/// A write: hot pair `hot` with its namespace prefix renamed to `prefix`,
/// so its sources and labels are new to the daemon.
struct NewPair {
    hot: usize,
    prefix: String,
    schema_src: String,
    xslt_src: String,
}

/// The shapes writes rotate over: all but reordering, whose reads already
/// carry the costliest warm checks. With them, the costliest 1% of the
/// requests would end just at p99, between classes a quarter apart in cost.
const WRITE_KINDS: [&str; 5] = ["identity", "rename", "strip", "delete", "duplicate"];

/// Write number `n`. Writes rotate over the shapes in a fixed order, not
/// the seeded one, so the same shapes meet the memo's resets in every run.
fn write_pair(hot: &[Pair], n: usize) -> NewPair {
    let shapes = FAMILIES.len() * WRITE_KINDS.len();
    let (family, ns) = FAMILIES[n % shapes / WRITE_KINDS.len()];
    let base = format!("{family}-{}", WRITE_KINDS[n % WRITE_KINDS.len()]);
    let k = hot
        .iter()
        .position(|p| p.base == base)
        .expect("the hot set holds every family and shape");
    let prefix = format!("w{n}");
    let rename = |s: &str| {
        s.replace(&format!("xmlns:{ns}="), &format!("xmlns:{prefix}="))
            .replace(&format!("{ns}:"), &format!("{prefix}:"))
    };
    NewPair {
        hot: k,
        schema_src: rename(&hot[k].schema_src),
        xslt_src: rename(&hot[k].xslt_src),
        prefix,
    }
}

/// One request of a round: a check frame on hot pair `hot`, or on `write`.
struct Request {
    frame: String,
    hot: usize,
    write: Option<NewPair>,
}

/// The requests of round `r`; write numbers continue from `writes`.
fn round_requests(hot: &[Pair], r: usize, writes: &mut usize) -> Vec<Request> {
    let mut out = Vec::with_capacity(ROUND);
    let mut reads = r * (ROUND - WRITES_AT.len());
    for i in 0..ROUND {
        let id = r * ROUND + i;
        if WRITES_AT.contains(&i) {
            let w = write_pair(hot, *writes);
            *writes += 1;
            let frame = format!(
                "{{\"id\":{id},\"type\":\"check\",\"schema\":{},\"transducer\":{}}}",
                quote(&w.schema_src),
                quote(&w.xslt_src)
            );
            out.push(Request {
                frame,
                hot: w.hot,
                write: Some(w),
            });
        } else {
            let k = reads % HOT;
            reads += 1;
            let frame = format!(
                "{{\"id\":{id},\"type\":\"check\",\"schema_ref\":\"s{k}\",\"transducer_ref\":\"t{k}\"}}"
            );
            out.push(Request {
                frame,
                hot: k,
                write: None,
            });
        }
    }
    out
}

/// Spawns a daemon, registers the hot set and serves one warm round: the
/// same work in every set-up. The registrations and the warm round go out
/// as one pipelined stream of frames, which the daemon answers in order,
/// so the set-up's time is the daemon's work rather than a hundred
/// round-trip wake-ups. Returns the daemon and the warm round's requests
/// with their responses, to be checked once the set-up's clock has
/// stopped.
fn set_up(
    ctx: &Ctx,
    hot: &[Pair],
    trace_out: Option<&Path>,
) -> Result<(Daemon, Vec<(Request, String)>), String> {
    let textpres = ctx
        .textpres
        .as_deref()
        .ok_or("serve-mixed needs --textpres PATH (run it through perfbench/run.py)")?;
    let mut d = Daemon::spawn(textpres, trace_out)?;
    let mut frames = String::new();
    for (k, p) in hot.iter().enumerate() {
        for (name, kind, text) in [
            (format!("s{k}"), "schema", &p.schema_src),
            (format!("t{k}"), "transducer", &p.xslt_src),
        ] {
            frames.push_str(&format!(
                "{{\"type\":\"register\",\"name\":\"{name}\",\"kind\":\"{kind}\",\"text\":{}}}\n",
                quote(text)
            ));
        }
    }
    let requests = round_requests(hot, 0, &mut 0);
    for req in &requests {
        frames.push_str(&req.frame);
        frames.push('\n');
    }
    let mut out = d.stream.try_clone().map_err(|e| e.to_string())?;
    let replies = std::thread::scope(|scope| {
        let sender = scope.spawn(move || out.write_all(frames.as_bytes()));
        let replies = (0..2 * hot.len() + requests.len())
            .map(|_| d.receive())
            .collect::<Result<Vec<_>, _>>();
        match sender.join() {
            Ok(Ok(())) => replies,
            Ok(Err(e)) => Err(format!("send: {e}")),
            Err(_) => Err("the sending thread panicked".into()),
        }
    })?;
    let (registered, warm) = replies.split_at(2 * hot.len());
    if let Some(bad) = registered.iter().find(|r| !r.contains("\"ok\":true")) {
        return Err(format!("register: {bad}"));
    }
    Ok((d, requests.into_iter().zip(warm.iter().cloned()).collect()))
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured {
        cost: ClassCost::Fastest,
        ..Measured::default()
    };
    let hot = hot_set(ctx.seed)?;
    let mut checker = Checker::new(&hot)?;
    let (mut d, warm) = set_up(ctx, &hot, None)?;
    m.setup.push(ctx.started.elapsed());
    checker.check_warm(&hot, &warm, &mut m.problems);

    // The other set-ups are spread over the timed phase, between rounds,
    // each on a daemon of its own, so their median does not hang on one
    // moment of the host's load.
    let rounds = ctx.rounds(ROUND_S, 1);
    let every = (rounds / SETUP_REPS).max(1);
    let mut phase = Phase::default();
    let mut writes = WRITES_AT.len();
    let mut counters = Counters::read(&mut d)?;
    let start = Instant::now();
    for r in 1..=rounds {
        if start.elapsed() > ctx.overrun_cap() {
            break;
        }
        if r % every == 0 && m.setup.len() < SETUP_REPS {
            let t0 = Instant::now();
            let (extra, warm) = set_up(ctx, &hot, None)?;
            m.setup.push(t0.elapsed());
            extra.shutdown()?;
            checker.check_warm(&hot, &warm, &mut m.problems);
        }
        let took = serve_round(
            &mut d,
            &hot,
            r,
            &mut writes,
            &mut counters,
            &mut checker,
            &mut phase,
            &mut m,
            None,
        )?;
        phase.round_s.push(took);
    }
    m.wall = start.elapsed();
    d.shutdown()?;

    let mut layers = None;
    if ctx.trace {
        // The traced daemon serves the same rounds again, with its tracer
        // on and the client's spans recorded; the tracing overhead compares
        // its round times with the untraced daemon's above.
        let dir = Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let trace_file = dir.join(format!("serve-mixed-seed{}.daemon.jsonl", ctx.seed));
        let mut l = Layers::new();
        let (mut td, warm) = set_up(ctx, &hot, Some(&trace_file))?;
        checker.check_warm(&hot, &warm, &mut m.problems);
        let t_before = td.stats()?;
        let mut traced = Phase::default();
        let mut scratch = Measured::default();
        let mut writes = WRITES_AT.len();
        let mut counters = Counters::read(&mut td)?;
        for r in 1..=rounds.min(TRACED_ROUNDS) {
            let took = serve_round(
                &mut td,
                &hot,
                r,
                &mut writes,
                &mut counters,
                &mut checker,
                &mut traced,
                &mut scratch,
                Some(&mut l),
            )?;
            traced.round_s.push(took);
        }
        let t_after = td.stats()?;
        td.shutdown()?;
        m.problems.append(&mut scratch.problems);
        for &s in &phase.round_s {
            l.round(false, s);
        }
        for &s in &traced.round_s {
            l.round(true, s);
        }
        fold_daemon_trace(&mut l, &trace_file)?;
        serve_layers(&mut l, &traced, &t_before, &t_after);
        l.finish();
        let table = l
            .write("serve-mixed", ctx.seed)
            .map_err(|e| e.to_string())?;
        eprint!("{table}");
        layers = Some(l);
    }
    m.peak_rss_mb = peak_rss_mb(true);
    checker.self_test(&hot, &mut m.problems);
    m.layers = layers;
    Ok(m)
}

/// Per-phase totals the serve layer metrics are built from.
#[derive(Default)]
struct Phase {
    round_s: Vec<f64>,
    requests: u64,
    server_us: f64,
    rtt_us: f64,
    queue_depth: f64,
}

/// The daemon's counters that tell what one request did to its state,
/// read from a `stats` frame.
#[derive(Clone, Copy)]
struct Counters {
    memo_hits: f64,
    memo_entries: f64,
    cache_misses: f64,
    evictions: f64,
    queue_depth: f64,
}

impl Counters {
    fn read(d: &mut Daemon) -> Result<Counters, String> {
        let v = d.stats()?;
        let get = |block: &str, key: &str| {
            v.get(block)
                .and_then(|b| b.get(key))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("the stats frame has no {block}.{key}"))
        };
        Ok(Counters {
            memo_hits: get("serve", "memo_hits")?,
            memo_entries: get("serve", "memo_entries")?,
            cache_misses: get("cache", "misses")?,
            evictions: get("cache", "evictions")?,
            queue_depth: get("serve", "queue_depth")?,
        })
    }

    /// What happened between `self` and `after`, as a cost-class suffix.
    fn change(&self, after: &Counters) -> String {
        let hit = after.memo_hits > self.memo_hits;
        let mut s = String::from(if hit { "memo hit" } else { "memo miss" });
        if !hit && after.memo_entries <= self.memo_entries {
            s.push_str(", memo reset");
        }
        let misses = after.cache_misses - self.cache_misses;
        if misses > 0.0 {
            s.push_str(&format!(", {misses} cache misses"));
        }
        if after.evictions > self.evictions {
            s.push_str(", shard reset");
        }
        s
    }
}

/// Serves round `r`, timing each round trip. After each clock stops, reads
/// the daemon's counters to file the request under its cost class, and
/// checks the response. Returns the round's summed round-trip time.
#[allow(clippy::too_many_arguments)]
fn serve_round(
    d: &mut Daemon,
    hot: &[Pair],
    r: usize,
    writes: &mut usize,
    counters: &mut Counters,
    checker: &mut Checker,
    phase: &mut Phase,
    m: &mut Measured,
    mut layers: Option<&mut Layers>,
) -> Result<f64, String> {
    let mut round_s = 0.0;
    for req in round_requests(hot, r, writes) {
        let started = Instant::now();
        let reply = d.call(&req.frame)?;
        let done = Instant::now();
        let took = done - started;
        round_s += took.as_secs_f64();
        m.attempted += 1;
        let after = Counters::read(d)?;
        let class = m.class(&format!(
            "{} {}: {}",
            if req.write.is_some() { "write" } else { "read" },
            hot[req.hot].base,
            counters.change(&after)
        ));
        *counters = after;
        let server_us = JsonValue::parse(&reply)
            .ok()
            .and_then(|v| v.get("elapsed_us").and_then(JsonValue::as_f64))
            .unwrap_or(0.0);
        phase.requests += 1;
        phase.server_us += server_us;
        phase.rtt_us += took.as_secs_f64() * 1e6;
        phase.queue_depth = phase.queue_depth.max(after.queue_depth);
        if let Some(l) = layers.as_deref_mut() {
            let id = phase.requests;
            l.span("serve/roundtrip", "", id, started, done);
            if let Some(w) = &req.write {
                let t0 = Instant::now();
                let parsed = parse_schema(&w.schema_src, &mut textpres::trees::Alphabet::new());
                l.add("format.parse_ms", t0.elapsed().as_secs_f64() * 1e3);
                l.add("format.sources", 1.0);
                if parsed.is_err() {
                    m.problems
                        .push(format!("write {}: schema does not parse", w.prefix));
                }
            }
        }
        let checked = checker.check(hot, &req, &reply);
        m.sample(class, took, checked.is_ok());
        if let Err(e) = checked {
            m.failed += 1;
            m.problems.push(e);
        }
    }
    Ok(round_s)
}

/// Folds the traced daemon's span file into the layer table: requests
/// under the client's round trips, stages under requests.
fn fold_daemon_trace(l: &mut Layers, path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for line in text.lines() {
        let Ok(ev) = JsonValue::parse(line) else {
            continue;
        };
        if ev.get("ev").and_then(JsonValue::as_str) != Some("exit") {
            continue;
        }
        let (Some(name), Some(dur)) = (
            ev.get("span").and_then(JsonValue::as_str),
            ev.get("dur_us").and_then(JsonValue::as_f64),
        ) else {
            continue;
        };
        let parent = if name == "serve/request" {
            "serve/roundtrip"
        } else {
            "serve/request"
        };
        l.external(
            name,
            parent,
            dur,
            ev.get("hit").and_then(JsonValue::as_bool),
        );
        let size = ev.get("size").and_then(JsonValue::as_f64).unwrap_or(0.0);
        match name {
            "topdown/transducer" => l.add("topdown.transducer_size", size),
            "conformance/inverse" => l.add("conformance.inverse_size", size),
            _ => {}
        }
    }
    Ok(())
}

/// The serve and cache layer metrics of the traced phase, from the
/// responses and the daemon's `stats` frames around it.
fn serve_layers(l: &mut Layers, p: &Phase, before: &JsonValue, after: &JsonValue) {
    let delta = |block: &str, key: &str| {
        let get = |v: &JsonValue| {
            v.get(block)
                .and_then(|b| b.get(key))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        get(after) - get(before)
    };
    l.set("serve.server_ms", p.server_us / 1e3);
    l.set("serve.tax_ms", (p.rtt_us - p.server_us) / 1e3);
    l.base(
        "serve.tax_ms",
        "round trip minus the daemon's elapsed_us".into(),
    );
    let memo_hits = delta("serve", "memo_hits");
    l.set("serve.memo_hits", memo_hits);
    l.set(
        "serve.memo_hit_ratio",
        memo_hits / (p.requests as f64).max(1.0),
    );
    l.base(
        "serve.memo_hit_ratio",
        format!("{} check requests", p.requests),
    );
    let (hits, misses) = (delta("cache", "hits"), delta("cache", "misses"));
    l.set("cache.hits", hits);
    l.set("cache.misses", misses);
    l.set("cache.evictions", delta("cache", "evictions"));
    l.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    l.base(
        "serve.cache_hit_ratio",
        format!("{} daemon cache lookups", hits + misses),
    );
    l.set("serve.shed", delta("serve", "shed"));
    l.set("serve.queue_depth", p.queue_depth);
    l.set("xslt.compile_ms", l.span_ms("xslt/compile"));
    l.set("xslt.compiles", l.span_misses("xslt/compile") as f64);
    for stage in ["topdown/schema", "topdown/transducer", "topdown/decide"] {
        let metric = match stage {
            "topdown/schema" => "topdown.schema_ms",
            "topdown/transducer" => "topdown.transducer_ms",
            _ => "topdown.decide_ms",
        };
        l.set(metric, l.span_ms(stage));
    }
}

/// Checks every response: the verdict against the generator's ground truth,
/// and each distinct witness by replay on the hot pair compiled
/// client-side. A write's witness is replayed on its hot pair with the
/// write's prefix renamed back: the two pairs differ only in that prefix.
struct Checker {
    hot: Vec<XsltArtifact>,
    /// Distinct (hot pair, outcome, witness) already replayed.
    replayed: std::collections::HashSet<(usize, String, String)>,
    /// One checked violation per outcome kind, for the self-test.
    samples: Vec<(usize, Outcome)>,
}

impl Checker {
    fn new(hot: &[Pair]) -> Result<Checker, String> {
        Ok(Checker {
            hot: hot
                .iter()
                .map(|p| compile_stylesheet(&p.schema_src, &p.xslt_src))
                .collect::<Result<_, _>>()?,
            replayed: Default::default(),
            samples: Vec::new(),
        })
    }

    /// Checks a set-up's warm round.
    fn check_warm(&mut self, hot: &[Pair], warm: &[(Request, String)], problems: &mut Vec<String>) {
        for (req, reply) in warm {
            if let Err(e) = self.check(hot, req, reply) {
                problems.push(format!("warm round: {e}"));
            }
        }
    }

    /// Checks one response.
    fn check(&mut self, hot: &[Pair], req: &Request, reply: &str) -> Result<(), String> {
        let v = JsonValue::parse(reply).map_err(|e| format!("bad response {reply:?}: {e}"))?;
        let k = req.hot;
        let pair = &hot[k];
        let name = match &req.write {
            Some(w) => format!("{} as {}", pair.name, w.prefix),
            None => pair.name.clone(),
        };
        if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("{name}: error response {reply}"));
        }
        let outcome = v.get("outcome").and_then(JsonValue::as_str).unwrap_or("");
        if outcome != pair.expect {
            return Err(format!(
                "{name}: verdict {outcome}, ground truth {}",
                pair.expect
            ));
        }
        let mut witness = v
            .get("witness")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_owned();
        if let Some(w) = &req.write {
            if witness.contains(&format!("{}:", pair.ns)) {
                return Err(format!("{name}: the witness names labels of the hot pair"));
            }
            witness = witness.replace(&format!("{}:", w.prefix), &format!("{}:", pair.ns));
        }
        let key = (k, outcome.to_owned(), witness);
        if self.replayed.contains(&key) {
            return Ok(());
        }
        let decoded = decode(&self.hot[k], outcome, &key.2)?;
        replay(&self.hot[k], &decoded).map_err(|e| format!("{name}: {e}"))?;
        if !self
            .samples
            .iter()
            .any(|(_, o)| checks::outcome_name(o) == outcome)
        {
            self.samples.push((k, decoded));
        }
        self.replayed.insert(key);
        Ok(())
    }

    /// Feeds the ground-truth check a flipped verdict and the replay a
    /// corrupted witness, once per outcome kind seen.
    fn self_test(&self, hot: &[Pair], problems: &mut Vec<String>) {
        for (k, outcome) in &self.samples {
            let a = &self.hot[*k];
            let m = Machine::Topdown(&a.transducer);
            let prop = Property::TextPreservation;
            if let Some(bad) = checks::flipped(m, prop, &a.schema, outcome) {
                let got = checks::outcome_name(&bad);
                checks::expect_rejected(
                    &format!("{} with its verdict flipped", hot[*k].name),
                    if got == hot[*k].expect {
                        Ok(())
                    } else {
                        Err(got.to_owned())
                    },
                    problems,
                );
            }
            if let Some(bad) = checks::corrupted(m, prop, &a.schema, outcome) {
                checks::expect_rejected(
                    &format!("{} with a corrupted witness", hot[*k].name),
                    replay(a, &bad),
                    problems,
                );
            }
        }
    }
}

/// Rebuilds the outcome a response reports, witness included.
fn decode(a: &XsltArtifact, outcome: &str, witness: &str) -> Result<Outcome, String> {
    let mut alpha = a.alpha.clone();
    Ok(match outcome {
        "preserving" => Outcome::Preserving,
        "copying" => Outcome::Copying {
            path: witness
                .split('/')
                .map(|step| match step {
                    "text()" => Ok(PathSym::Text),
                    label => alpha
                        .get(label)
                        .map(PathSym::Elem)
                        .ok_or_else(|| format!("witness label {label:?} is not in the alphabet")),
                })
                .collect::<Result<_, String>>()?,
        },
        "rearranging" => Outcome::Rearranging {
            witness: parse_witness(witness, &mut alpha).map_err(|e| format!("witness: {e}"))?,
        },
        other => return Err(format!("unexpected outcome {other:?}")),
    })
}

/// A violation must replay on its witness.
fn replay(a: &XsltArtifact, outcome: &Outcome) -> Result<(), String> {
    checks::check_outcome(
        Machine::Topdown(&a.transducer),
        Property::TextPreservation,
        &a.schema,
        outcome,
        None,
    )
}
