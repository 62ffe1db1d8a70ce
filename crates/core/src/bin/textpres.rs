//! `textpres` — verify that XML transformations are text-preserving.
//!
//! ```text
//! textpres check <schema> <transducer> [document.xml] [--stats]
//! textpres analyze <schema> <transducer> [--analysis NAME]
//!                  [--label L]... [--target SCHEMA] [--stats]
//! textpres subschema <schema> <transducer>
//! textpres batch <schema> <transducer>... [--jobs N] [--stats]
//! textpres fuzz [--seeds N] [--budget B] [--base-seed S] [--no-dtl-symbolic]
//!               [--xslt] [--analysis NAME] [--out DIR] [--stats]
//! textpres --version
//! ```
//!
//! `check` decides (in PTIME, Theorem 4.11 of the paper) whether the
//! transformation never copies or reorders text on ANY document valid
//! under the schema; with a document argument it also runs the
//! transformation. A transducer file whose first meaningful line is `dtl`
//! is a `DTL_XPath` program, checked with the EXPTIME DTL decider
//! (Theorem 5.18) instead.
//!
//! `analyze` runs one of the engine's preservation analyses under the
//! same governed contract as `check` (`check` is `analyze --analysis
//! text-preservation`):
//!
//! * `--analysis text-preservation` (default) — the Theorem 4.11 / 5.18
//!   check;
//! * `--analysis text-retention` — does the transducer ever delete a text
//!   value below a node carrying one of the `--label` labels, on some
//!   schema document? (the conclusion's stronger test); needs one or more
//!   `--label` flags and a top-down transducer;
//! * `--analysis conformance` — does every output `T(d)`, for `d` valid
//!   under the schema, validate against the `--target` schema? (inverse
//!   type inference); needs `--target` and a top-down transducer.
//!
//! `subschema` prints a witness from the maximal sub-schema on which a
//! top-down transducer or a stylesheet IS text-preserving. `batch`
//! checks many transducer files against one schema on a pool of workers
//! sharing one ready stack and the compiled schema artifacts;
//! `--jobs 0` (the default) auto-detects the worker count from
//! `std::thread::available_parallelism`. `fuzz` runs the
//! differential checker (`tpx-diffcheck`): random schema/transducer pairs,
//! symbolic verdicts cross-checked against per-tree semantic oracles and
//! the bounded-enumeration baseline, with shrunk reproducers written to
//! `--out` as regression case files. The symbolic DTL decider runs on
//! generated DTL programs by default (the lazy antichain layer of
//! DESIGN.md §13 keeps it cheap, and the default fuel budget degrades
//! unlucky seeds); `--no-dtl-symbolic` opts out, and programs larger
//! than the configured size cap are counted as `dtl-size-skipped` in the
//! run summary.
//!
//! `--fuel N` and `--timeout-ms N` put a resource budget on each check:
//! fuel is charged at automaton state/transition construction sites (a
//! deterministic cost measure), the timeout is wall-clock. A check that
//! exhausts its budget exits with code 3 — unless `--degrade` is given,
//! in which case a DTL check falls back to the bounded-enumeration
//! oracle and reports a verdict marked `degraded` (sound only up to the
//! bound). `fuzz` runs every random instance under a default fuel budget;
//! exhausted instances are counted and skipped, not divergences.
//!
//! `--trace-out PATH` writes a JSONL span trace of every pipeline stage
//! the run executed (one `enter` and one `exit` line per stage, with fuel
//! charged, artifact sizes and cache attribution on the exits); `--metrics`
//! prints an aggregated counter/histogram table to stderr. Both are
//! documented in DESIGN.md §11. With `fuzz --out DIR`, each shrunk
//! reproducer additionally gets a `seedN-kind.trace.jsonl` span trace of
//! its replay written next to the `.case` file.
//!
//! Exit codes: 0 = text-preserving (all of them, for `batch`; no
//! divergence, for `fuzz`); 1 = some transformation is not text-preserving
//! (a divergence was found, for `fuzz`); 2 = usage or I/O error; 3 = a
//! resource budget was exhausted (and `--degrade` did not apply).
//!
//! Every transducer argument is sniffed (stylesheet, `dtl` program or the
//! top-down text format) and prepared by `textpres::frontend::prepare`,
//! the same front door `textpres serve` uses; this binary keeps argv, file
//! reading and the sentences it prints. A flag a command does not list in
//! its usage is a usage error. File formats are documented in
//! `textpres::format`.

use std::process::ExitCode;
use textpres::diffcheck::{run_fuzz, FuzzConfig};
use textpres::engine::{
    Engine, Metrics, Outcome, StageReport, Task, Tracer, Verdict, OUTPUT_CONFORMANCE,
    TEXT_RETENTION,
};
use textpres::format::{parse_schema, render_case, render_transducer, RegressionCase};
use textpres::frontend::{prepare, AnalysisRequest, BudgetRequest, PrepareError, Prepared};
use textpres::prelude::*;

const USAGE: &str = "\
usage: textpres check <schema> <transducer> [document.xml] [--stats]
                [--fuel N] [--timeout-ms N] [--degrade]
                [--trace-out PATH] [--metrics]
       textpres analyze <schema> <transducer> [--analysis NAME]
                [--label L]... [--target SCHEMA] [--stats]
                [--fuel N] [--timeout-ms N] [--degrade]
                [--trace-out PATH] [--metrics]
                (analyses: text-preservation (default),
                 text-retention (needs --label, repeatable),
                 conformance (needs --target, a schema file))
       textpres subschema <schema> <transducer>
       textpres compile-xslt <schema> <stylesheet> [--dtl] [--out PATH]
                (compile a restricted XSLT 1.0 stylesheet to the top-down
                transducer format; --dtl emits the equivalent DTL_XPath
                program instead when the stylesheet is expressible; exits 1
                listing every unsupported construct with its source line)
       textpres batch <schema> <transducer>... [--jobs N] [--stats]
                [--fuel N] [--timeout-ms N] [--degrade]
                [--trace-out PATH] [--metrics]
                (--jobs 0, the default, auto-detects the worker count)
       textpres serve [--addr HOST:PORT] [--slots N] [--queue N]
                [--max-connections N] [--max-frame-bytes N]
                [--max-fuel N] [--max-timeout-ms N] [--drain-ms N]
                [--idle-timeout-ms N] [--trace-out PATH] [--metrics]
                (long-running daemon with a persistent warm engine;
                newline-delimited JSON frames over TCP, graceful drain
                on SIGTERM/SIGINT or a shutdown frame; --slots 0, the
                default, admits one concurrent check per host core)
       textpres client <addr> check <schema> <transducer>
                [--analysis NAME] [--label L]... [--target SCHEMA]
                [--fuel N] [--timeout-ms N] [--degrade]
       textpres client <addr> (health | stats | shutdown)
       textpres client <addr> raw '<json-frame>'
                (one-shot client for the serve protocol; prints the
                response frame and maps it onto the exit codes below)
       textpres fuzz [--seeds N] [--budget B] [--base-seed S]
                     [--no-dtl-symbolic] [--xslt] [--analysis NAME]
                     [--fuel N] [--timeout-ms N]
                     [--out DIR] [--stats] [--trace-out PATH] [--metrics]
                     (symbolic DTL cross-checks run by default;
                     --no-dtl-symbolic opts out; --analysis text-retention
                     adds the retention cross-checks to the sweep; --xslt
                     adds the stylesheet-frontend cross-checks: a seeded
                     fragment stylesheet per seed, compiled and diffed
                     against its ground-truth direct translation)
       textpres --version

transducer files starting with a `dtl` line are DTL_XPath programs,
checked with the EXPTIME DTL decider instead of the PTIME top-down one;
transducer files starting with `<` are XSLT stylesheets, compiled with
the restricted-fragment frontend before checking (check/analyze/batch/
subschema refuse stylesheets with untranslatable constructs); a flag the
command does not list above is a usage error

--trace-out writes a JSONL span trace (one enter/exit pair per pipeline
stage) and --metrics prints aggregated counters/histograms to stderr

exit codes: 0 = analysis passed, 1 = analysis failed (a witness was
            found), 2 = usage/IO error, 3 = resource budget exhausted";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags first: --version / --help work anywhere.
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("textpres {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    if args.is_empty()
        || args
            .iter()
            .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let (cmd, rest) = (args[0].as_str(), &args[1..]);
    match cmd {
        "check" | "analyze" => cmd_analyze(cmd, rest),
        "subschema" => cmd_subschema(rest),
        "compile-xslt" => cmd_compile_xslt(rest),
        "batch" => cmd_batch(rest),
        "fuzz" => cmd_fuzz(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        unknown => {
            eprintln!("error: unknown command {unknown:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The flags each command reads; any other flag is a usage error.
const ACCEPTED_FLAGS: [(&str, &str); 6] = [
    (
        "check",
        "--stats --fuel --timeout-ms --degrade --trace-out --metrics",
    ),
    (
        "analyze",
        "--stats --fuel --timeout-ms --degrade --trace-out --metrics --analysis --label --target",
    ),
    (
        "batch",
        "--stats --fuel --timeout-ms --degrade --trace-out --metrics --jobs",
    ),
    ("subschema", ""),
    ("compile-xslt", "--dtl --out"),
    (
        "client check",
        "--fuel --timeout-ms --degrade --analysis --label --target",
    ),
];

/// The flags and positional arguments of one command line.
#[derive(Default)]
struct Flags<'a> {
    positional: Vec<&'a str>,
    stats: bool,
    jobs: Option<usize>,
    budget: BudgetRequest,
    trace_out: Option<&'a str>,
    metrics: bool,
    analysis: Option<&'a str>,
    labels: Vec<&'a str>,
    target: Option<&'a str>,
    dtl: bool,
    out: Option<&'a str>,
}

impl<'a> Flags<'a> {
    /// The analysis the flags ask for, validated; a conformance target is
    /// still a file path.
    fn request(&self) -> Result<AnalysisRequest<&'a str>, String> {
        let labels = self.labels.iter().map(|l| l.to_string()).collect();
        AnalysisRequest::new(self.analysis, labels, self.target)
    }
}

/// Splits `cmd`'s flags from its positional arguments, refusing every flag
/// [`ACCEPTED_FLAGS`] does not list for `cmd`.
fn parse_flags<'a>(cmd: &str, args: &'a [String]) -> Result<Flags<'a>, String> {
    let accepted = ACCEPTED_FLAGS
        .iter()
        .find(|(c, _)| *c == cmd)
        .map_or("", |(_, flags)| flags);
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = a.as_str();
        if a.starts_with("--") && !accepted.split(' ').any(|f| f == a) {
            return Err(format!("`{cmd}` does not take {a}"));
        }
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        let mut num = || -> Result<u64, String> {
            let v = value("a value")?;
            v.parse::<u64>()
                .map_err(|_| format!("{a}: not a number: {v:?}"))
        };
        match a {
            "--stats" => flags.stats = true,
            "--jobs" => flags.jobs = Some(num()? as usize),
            "--fuel" => flags.budget.fuel = Some(num()?),
            "--timeout-ms" => flags.budget.timeout_ms = Some(num()?),
            "--degrade" => flags.budget.degrade = true,
            "--trace-out" => flags.trace_out = Some(value("a path")?),
            "--metrics" => flags.metrics = true,
            "--analysis" => flags.analysis = Some(value("a name")?),
            "--label" => flags.labels.push(value("a label")?),
            "--target" => flags.target = Some(value("a schema file")?),
            "--dtl" => flags.dtl = true,
            "--out" => flags.out = Some(value("a path")?),
            pos => flags.positional.push(pos),
        }
    }
    Ok(flags)
}

/// A usage error: the message, the usage text, exit 2.
fn usage_error(e: &str) -> ExitCode {
    eprintln!("error: {e}\n{USAGE}");
    ExitCode::from(2)
}

/// An input or I/O error: the message, exit 2.
fn input_error(e: &str) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Reads a schema file and a transducer file (and a conformance target
/// file) and prepares `request` on them; an error names the file at fault.
fn load(
    engine: &Engine,
    schema_path: &str,
    t_path: &str,
    request: &AnalysisRequest<&str>,
) -> Result<Prepared, String> {
    let schema = read(schema_path)?;
    let transducer = read(t_path)?;
    let sources = request.try_map_target(|path| read(path))?;
    prepare(engine, &schema, &transducer, &sources).map_err(|e| match e {
        PrepareError::Schema(e) => format!("{schema_path}: {e}"),
        PrepareError::Transducer(e) => format!("{t_path}: {e}"),
        PrepareError::Target(e) => format!("{}: {e}", request.target().unwrap_or(&"target")),
        e @ PrepareError::Label(_) => e.to_string(),
    })
}

/// Attaches an enabled tracer and/or metrics registry to `engine` when the
/// observability flags ask for them (both stay disabled — and free —
/// otherwise).
fn instrument(engine: Engine, trace_out: Option<&str>, metrics: bool) -> Engine {
    let engine = if trace_out.is_some() {
        engine.with_tracer(std::sync::Arc::new(Tracer::enabled()))
    } else {
        engine
    };
    if metrics {
        engine.with_metrics(std::sync::Arc::new(Metrics::enabled()))
    } else {
        engine
    }
}

/// Flushes observability output: the JSONL span trace to `trace_out` and
/// the metrics table to stderr. Runs on every exit path (including budget
/// exhaustion) so a failed run still leaves its trace behind.
fn flush_obs(engine: &Engine, trace_out: Option<&str>, metrics: bool) -> Result<(), String> {
    if let Some(path) = trace_out {
        std::fs::write(path, engine.tracer().to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if metrics {
        eprint!("{}", engine.metrics().snapshot().render_table());
    }
    Ok(())
}

/// Prints one row per stage report (the `xslt/compile` rows of prepared
/// stylesheets, then the verdicts' stages) and the cache totals.
fn print_stats<'a>(engine: &Engine, stages: impl IntoIterator<Item = &'a StageReport>) {
    for s in stages {
        let attribution = match s.cache_hit {
            Some(true) => " [cache hit]",
            Some(false) => " [compiled]",
            None => "",
        };
        let size = s
            .artifact_size
            .map_or(String::new(), |n| format!(", size {n}"));
        let fuel = s.fuel.map_or(String::new(), |n| format!(", fuel {n}"));
        eprintln!("  {}: {:?}{size}{fuel}{attribution}", s.stage, s.duration);
    }
    let c = engine.cache_stats();
    eprintln!(
        "  cache: {} hits, {} misses, {} artifacts",
        c.hits, c.misses, c.entries
    );
}

/// Prints one verdict as a sentence, with the witness the front door
/// rendered; returns whether the analysis passed.
fn report(label: &str, verdict: &Verdict, prepared: &Prepared) -> bool {
    if let Some(bound) = &verdict.degraded {
        println!(
            "! {label}: budget exhausted; verdict DEGRADED to the bounded oracle \
             (exhaustive only up to {} nodes, {} trees)",
            bound.max_nodes, bound.limit
        );
    }
    let witness = prepared.render(&verdict.outcome).1.unwrap_or_default();
    match &verdict.outcome {
        Outcome::Preserving if verdict.analysis == TEXT_RETENTION => {
            println!("✓ {label}: [text-retention] retains all text under the selected labels")
        }
        Outcome::Preserving if verdict.analysis == OUTPUT_CONFORMANCE => {
            println!("✓ {label}: [conformance] every output conforms to the target schema")
        }
        Outcome::Preserving => println!("✓ {label}: text-preserving over every valid document"),
        Outcome::Copying { .. } => println!("✗ {label}: COPIES text reached via: {witness}"),
        Outcome::Rearranging { .. } => {
            println!("✗ {label}: REORDERS text, e.g. on this valid document:\n  {witness}")
        }
        Outcome::NotPreserving { .. } => {
            println!("✗ {label}: not text-preserving, e.g. on:\n  {witness}")
        }
        Outcome::DeletesText { .. } => println!(
            "✗ {label}: [text-retention] DELETES text under a selected label, \
             reached via: {witness}"
        ),
        Outcome::NonConforming { .. } => println!(
            "✗ {label}: [conformance] output does NOT conform to the target, \
             e.g. on this valid document:\n  {witness}"
        ),
    }
    verdict.is_preserving()
}

/// Runs a prepared top-down transformation on one XML document and says
/// whether that run preserved text.
fn transform(prepared: &Prepared, doc_path: &str) -> Result<(), String> {
    let t = prepared.topdown().ok_or(
        "transforming a document is only supported for top-down transducers and stylesheets",
    )?;
    let xml = read(doc_path)?;
    let mut alpha = prepared.alpha.clone();
    let tree = textpres::trees::xml::parse_document(&xml, &mut alpha)
        .map_err(|e| format!("{doc_path}: {e}"))?;
    // The transducer has rules only over the prepared alphabet.
    let unknown: Vec<&str> = alpha
        .entries()
        .skip(prepared.alpha.len())
        .map(|(_, label)| label)
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "{doc_path}: labels not in the schema alphabet: {}",
            unknown.join(", ")
        ));
    }
    let out = t.transform(&tree);
    println!("transformed {doc_path}:");
    println!("{}", textpres::trees::xml::to_xml(&out, &alpha));
    let ok = textpres::is_text_preserving_run(&tree, &out);
    println!("this run is text-preserving: {ok}\n");
    Ok(())
}

/// `check` and `analyze`: one governed check of one transducer file.
/// `check` is `analyze --analysis text-preservation` that may also run the
/// transformation on a document.
fn cmd_analyze(cmd: &str, args: &[String]) -> ExitCode {
    let flags = match parse_flags(cmd, args) {
        Ok(x) => x,
        Err(e) => return usage_error(&e),
    };
    let (schema_path, t_path, doc) = match (cmd, flags.positional.as_slice()) {
        (_, [s, t]) => (*s, *t, None),
        ("check", [s, t, d]) => (*s, *t, Some(*d)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let request = match flags.request() {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    let engine = instrument(Engine::new(), flags.trace_out, flags.metrics);
    let prepared = match load(&engine, schema_path, t_path, &request) {
        Ok(p) => p,
        Err(e) => return input_error(&e),
    };
    if let Some(doc) = doc {
        if let Err(e) = transform(&prepared, doc) {
            return input_error(&e);
        }
    }
    let result = engine.check_governed(
        prepared.decider().as_ref(),
        &prepared.schema,
        &flags.budget.options(),
    );
    if let Err(e) = flush_obs(&engine, flags.trace_out, flags.metrics) {
        return input_error(&e);
    }
    let verdict = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {t_path}: {e}");
            return ExitCode::from(if e.is_resource_exhausted() { 3 } else { 2 });
        }
    };
    let ok = report(t_path, &verdict, &prepared);
    if flags.stats {
        print_stats(
            &engine,
            prepared.compile.iter().chain(&verdict.stats.stages),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let flags = match parse_flags("batch", args) {
        Ok(x) => x,
        Err(e) => return usage_error(&e),
    };
    let [schema_path, transducer_paths @ ..] = flags.positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if transducer_paths.is_empty() {
        return usage_error("batch needs at least one transducer file");
    }
    // `--jobs 0` (and the default) auto-detects the worker count from the
    // host's available parallelism.
    let jobs = match flags.jobs {
        Some(0) | None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(n) => n,
    };
    let engine = instrument(Engine::with_jobs(jobs), flags.trace_out, flags.metrics);
    // Each file is prepared on its own, over its own alphabet, as the
    // daemon's batch does; equal schema NTAs still share one artifact.
    let prepared: Result<Vec<Prepared>, String> = transducer_paths
        .iter()
        .map(|path| {
            load(
                &engine,
                schema_path,
                path,
                &AnalysisRequest::TextPreservation,
            )
        })
        .collect();
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => return input_error(&e),
    };
    let deciders: Vec<_> = prepared.iter().map(Prepared::decider).collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .zip(&prepared)
        .map(|(d, p)| (d.as_ref(), &p.schema))
        .collect();
    // Each task fails independently: one exhausted or panicking check still
    // lets every other transducer get its verdict.
    let results = engine.check_many_governed(&tasks, &flags.budget.options());
    if let Err(e) = flush_obs(&engine, flags.trace_out, flags.metrics) {
        return input_error(&e);
    }
    let mut all_ok = true;
    let mut exhausted = 0usize;
    let mut errored = 0usize;
    let mut preserving = 0usize;
    for ((path, p), result) in transducer_paths.iter().zip(&prepared).zip(&results) {
        match result {
            Ok(verdict) => {
                all_ok &= report(path, verdict, p);
                preserving += verdict.is_preserving() as usize;
            }
            Err(e) if e.is_resource_exhausted() => {
                println!("? {path}: {e}");
                exhausted += 1;
            }
            Err(e) => {
                println!("? {path}: {e}");
                errored += 1;
            }
        }
    }
    println!(
        "{preserving}/{} text-preserving ({} workers{})",
        results.len(),
        engine.jobs(),
        if exhausted + errored > 0 {
            format!(", {exhausted} exhausted, {errored} failed")
        } else {
            String::new()
        }
    );
    if flags.stats {
        let compiles = prepared.iter().filter_map(|p| p.compile.as_ref());
        let stages = results.iter().flatten().flat_map(|v| &v.stats.stages);
        print_stats(&engine, compiles.chain(stages));
        let b = engine.batch_stats();
        eprintln!(
            "  scheduler: {} stage tasks + {} checks",
            b.stage_tasks, b.checks
        );
    }
    if !all_ok {
        ExitCode::FAILURE
    } else if exhausted > 0 {
        ExitCode::from(3)
    } else if errored > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut cfg = FuzzConfig::default();
    let mut out_dir: Option<String> = None;
    let mut stats = false;
    let mut trace_out: Option<String> = None;
    let mut metrics = false;
    let mut it = args.iter();
    let parse_err = |flag: &str, v: &str| format!("{flag}: not a number: {v:?}");
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse::<u64>().map_err(|_| parse_err(flag, v))
        };
        match a.as_str() {
            "--seeds" => match num("--seeds") {
                Ok(n) => cfg.seeds = n,
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--budget" => match num("--budget") {
                Ok(n) => cfg.budget = n as usize,
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--base-seed" => match num("--base-seed") {
                Ok(n) => cfg.base_seed = n,
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--fuel" => match num("--fuel") {
                Ok(n) => cfg.fuel = Some(n),
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--timeout-ms" => match num("--timeout-ms") {
                Ok(n) => cfg.timeout_ms = Some(n),
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(dir.clone()),
                None => {
                    eprintln!("error: --out needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path.clone()),
                None => {
                    eprintln!("error: --trace-out needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--metrics" => metrics = true,
            "--dtl-symbolic" => cfg.dtl_symbolic = true,
            "--no-dtl-symbolic" => cfg.dtl_symbolic = false,
            "--xslt" => cfg.xslt = true,
            "--analysis" => match it.next().map(|s| s.as_str()) {
                // The text-preservation cross-checks always run; the
                // retention sweep rides along when asked for.
                Some("text-preservation") => {}
                Some("text-retention") => cfg.retention = true,
                Some(other) => {
                    eprintln!(
                        "error: unknown fuzz analysis {other:?} \
                         (expected text-preservation or text-retention)\n{USAGE}"
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --analysis needs a name\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--stats" => stats = true,
            other => {
                eprintln!("error: unknown fuzz argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let engine = instrument(Engine::new(), trace_out.as_deref(), metrics);
    let report = run_fuzz(&engine, &cfg);
    if let Err(e) = flush_obs(&engine, trace_out.as_deref(), metrics) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    println!(
        "fuzz: {} seeds, {} cross-checks, {} budget-exhausted, {} dtl-size-skipped, \
         {} divergence(s)",
        report.seeds_run,
        report.checks,
        report.exhausted,
        report.dtl_skipped,
        report.divergences.len()
    );
    for d in &report.divergences {
        println!("✗ seed {}: {} — {}", d.seed, d.kind, d.detail);
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return ExitCode::from(2);
        }
        for d in &report.divergences {
            let rc = RegressionCase {
                kind: d.kind,
                seed: d.seed,
                detail: d.detail.clone(),
                case: d.case.clone(),
            };
            let path = format!("{dir}/seed{}-{}.case", d.seed, d.kind);
            if let Err(e) = std::fs::write(&path, render_case(&rc)) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("  wrote {path}");
            if let Some(trace) = &d.trace_jsonl {
                let tpath = format!("{dir}/seed{}-{}.trace.jsonl", d.seed, d.kind);
                if let Err(e) = std::fs::write(&tpath, trace) {
                    eprintln!("error: cannot write {tpath}: {e}");
                    return ExitCode::from(2);
                }
                println!("  wrote {tpath}");
            }
        }
    }
    if stats {
        let c = engine.cache_stats();
        eprintln!(
            "  cache: {} hits, {} misses, {} artifacts, {} evicted",
            c.hits, c.misses, c.entries, c.evictions
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `textpres compile-xslt`: translate a stylesheet against a schema and
/// print the transducer (or, with `--dtl`, the equivalent `DTL_XPath`
/// program). Untranslatable constructs are listed with their source lines
/// and exit 1; a file that is not a stylesheet at all exits 2.
fn cmd_compile_xslt(args: &[String]) -> ExitCode {
    let flags = match parse_flags("compile-xslt", args) {
        Ok(x) => x,
        Err(e) => return usage_error(&e),
    };
    let [schema_path, xslt_path] = flags.positional.as_slice() else {
        eprintln!("error: compile-xslt needs <schema> <stylesheet>\n{USAGE}");
        return ExitCode::from(2);
    };
    let sources = read(schema_path).and_then(|s| read(xslt_path).map(|x| (s, x)));
    let (schema_src, xslt_src) = match sources {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut alpha = Alphabet::new();
    if let Err(e) = parse_schema(&schema_src, &mut alpha) {
        eprintln!("error: {schema_path}: {e}");
        return ExitCode::from(2);
    }
    let compiled = match textpres::xslt::compile(&xslt_src, &mut alpha) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {xslt_path}: {e}");
            return ExitCode::from(2);
        }
    };
    if !compiled.diagnostics.is_empty() {
        eprintln!(
            "error: {xslt_path}: {}",
            textpres::frontend::untranslatable(&compiled.diagnostics)
        );
        return ExitCode::FAILURE;
    }
    let output = if flags.dtl {
        match compiled.dtl {
            Some(d) => d,
            None => {
                eprintln!(
                    "error: {xslt_path}: stylesheet is not DTL_XPath-expressible \
                     (it uses element-only or text-only selections, constant output, \
                     or rules emitting more than one element)"
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut s = String::new();
        for state in &compiled.states {
            s.push_str(&format!("# {state}\n"));
        }
        s.push_str(&render_transducer(&compiled.transducer, &alpha));
        s
    };
    match flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &output) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {path}");
        }
        None => print!("{output}"),
    }
    ExitCode::SUCCESS
}

/// `textpres subschema`: the maximal sub-schema on which a top-down
/// transducer or a stylesheet is text-preserving, with a sample document
/// inside it and, when it is smaller than the schema, one outside it.
fn cmd_subschema(args: &[String]) -> ExitCode {
    let flags = match parse_flags("subschema", args) {
        Ok(x) => x,
        Err(e) => return usage_error(&e),
    };
    let [schema_path, t_path] = flags.positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let request = AnalysisRequest::TextPreservation;
    let prepared = match load(&Engine::new(), schema_path, t_path, &request) {
        Ok(p) => p,
        Err(e) => return input_error(&e),
    };
    let Some(t) = prepared.topdown() else {
        return input_error(&format!(
            "{t_path}: subschema needs a top-down transducer or a stylesheet, \
             not a dtl program"
        ));
    };
    let (alpha, schema) = (&prepared.alpha, &prepared.schema);
    let max = textpres::topdown_maximal_subschema(t, schema);
    // The sub-schema is an automaton the user asked for, built without a
    // resource limit.
    let budget = textpres::trees::budget::BudgetHandle::unlimited();
    if max.is_empty(&budget).expect("unlimited budget") {
        println!("the transformation is text-preserving on NO document of the schema");
        return ExitCode::FAILURE;
    }
    println!(
        "maximal text-preserving sub-schema: NTA with {} states (size {})",
        max.state_count(),
        max.size()
    );
    println!("{}", max.display(alpha));
    if let Some(w) = max.witness(&budget).expect("unlimited budget") {
        println!("sample document inside:  {}", w.display(alpha));
    }
    let carved =
        textpres::treeauto::difference_nta(schema, &max, &budget).expect("unlimited budget");
    match carved.witness(&budget).expect("unlimited budget") {
        Some(w) => println!("sample document outside: {}", w.display(alpha)),
        None => println!("(the transformation is text-preserving on the whole schema)"),
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// serve / client
// ---------------------------------------------------------------------------

/// `textpres serve`: bind, announce, install signal handlers, run until
/// drained. Exit 0 after a clean drain (signal or shutdown frame);
/// exit 2 when the listener cannot bind or dies (the drain + flush
/// still ran).
fn cmd_serve(args: &[String]) -> ExitCode {
    use textpres::serve::{ServeConfig, Server};

    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    let next_val = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .map(|s| s.to_owned())
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_num = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer, got {v:?}"))
    };
    while let Some(a) = it.next() {
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--addr" => cfg.addr = next_val("--addr", &mut it)?,
                "--slots" => {
                    cfg.slots = parse_num("--slots", next_val("--slots", &mut it)?)? as usize
                }
                "--queue" => {
                    cfg.queue = parse_num("--queue", next_val("--queue", &mut it)?)? as usize
                }
                "--max-connections" => {
                    cfg.max_connections =
                        parse_num("--max-connections", next_val("--max-connections", &mut it)?)?
                            as usize
                }
                "--max-frame-bytes" => {
                    cfg.max_frame_bytes =
                        parse_num("--max-frame-bytes", next_val("--max-frame-bytes", &mut it)?)?
                            as usize
                }
                "--max-fuel" => {
                    cfg.max_fuel = Some(parse_num("--max-fuel", next_val("--max-fuel", &mut it)?)?)
                }
                "--max-timeout-ms" => {
                    cfg.max_timeout = std::time::Duration::from_millis(parse_num(
                        "--max-timeout-ms",
                        next_val("--max-timeout-ms", &mut it)?,
                    )?)
                }
                "--drain-ms" => {
                    cfg.drain_deadline = std::time::Duration::from_millis(parse_num(
                        "--drain-ms",
                        next_val("--drain-ms", &mut it)?,
                    )?)
                }
                "--idle-timeout-ms" => {
                    cfg.idle_timeout = std::time::Duration::from_millis(parse_num(
                        "--idle-timeout-ms",
                        next_val("--idle-timeout-ms", &mut it)?,
                    )?)
                }
                "--trace-out" => cfg.trace_out = Some(next_val("--trace-out", &mut it)?.into()),
                "--metrics" => cfg.metrics_dump = true,
                other => return Err(format!("unknown serve flag {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    // Announced on stdout (and flushed) so wrappers can scrape the
    // resolved port when binding with port 0.
    println!("textpres serve: listening on {}", server.local_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    Server::install_signal_handlers();
    match server.run() {
        Ok(r) => {
            eprintln!(
                "textpres serve: drained cleanly (served {}, shed {}, rejected {}{})",
                r.served,
                r.shed,
                r.rejected,
                if r.forced_drain {
                    ", drain deadline forced"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            ExitCode::from(2)
        }
    }
}

/// Maps a response frame onto the CLI exit-code contract: 0 = verdict
/// pass (or a non-verdict success like health/stats), 1 = verdict fail,
/// 3 = retryable resource condition (exhausted / overloaded /
/// shutting-down), 2 = anything else.
fn client_exit(line: &str) -> ExitCode {
    use textpres::obs::JsonValue;
    let Ok(v) = JsonValue::parse(line) else {
        return ExitCode::from(2);
    };
    if v.get("ok").and_then(|b| b.as_bool()) == Some(true) {
        return match v.get("verdict").and_then(|s| s.as_str()) {
            Some("pass") | None => ExitCode::SUCCESS,
            Some(_) => ExitCode::FAILURE,
        };
    }
    match v.get("error").and_then(|s| s.as_str()) {
        Some("exhausted") | Some("overloaded") | Some("shutting-down") => ExitCode::from(3),
        _ => ExitCode::from(2),
    }
}

/// `textpres client`: one request frame, one response line on stdout.
fn cmd_client(args: &[String]) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use textpres::obs::quote;

    let (addr, sub, rest) = match args {
        [addr, sub, rest @ ..] => (addr.as_str(), sub.as_str(), rest),
        _ => {
            eprintln!("error: client needs <addr> and a subcommand\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let frame: String = match sub {
        "health" | "stats" | "shutdown" => {
            if !rest.is_empty() {
                eprintln!("error: client {sub} takes no further arguments\n{USAGE}");
                return ExitCode::from(2);
            }
            format!("{{\"id\":1,\"type\":{}}}", quote(sub))
        }
        "raw" => match rest {
            [line] => line.clone(),
            _ => {
                eprintln!("error: client raw needs exactly one frame argument\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        "check" => {
            let flags = match parse_flags("client check", rest) {
                Ok(f) => f,
                Err(e) => return usage_error(&e),
            };
            let [schema_path, transducer_path] = flags.positional.as_slice() else {
                eprintln!("error: client check needs <schema> <transducer>\n{USAGE}");
                return ExitCode::from(2);
            };
            let sources = read(schema_path)
                .and_then(|schema| read(transducer_path).map(|transducer| (schema, transducer)));
            let (schema_src, t_src) = match sources {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let mut frame = format!(
                "{{\"id\":1,\"type\":\"check\",\"schema\":{},\"transducer\":{}",
                quote(&schema_src),
                quote(&t_src)
            );
            if let Some(name) = flags.analysis {
                frame.push_str(&format!(",\"analysis\":{}", quote(name)));
            }
            if !flags.labels.is_empty() {
                frame.push_str(",\"labels\":[");
                for (i, l) in flags.labels.iter().enumerate() {
                    if i > 0 {
                        frame.push(',');
                    }
                    frame.push_str(&quote(l));
                }
                frame.push(']');
            }
            if let Some(target_path) = flags.target {
                match read(target_path) {
                    Ok(target) => frame.push_str(&format!(",\"target\":{}", quote(&target))),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Some(fuel) = flags.budget.fuel {
                frame.push_str(&format!(",\"fuel\":{fuel}"));
            }
            if let Some(ms) = flags.budget.timeout_ms {
                frame.push_str(&format!(",\"timeout_ms\":{ms}"));
            }
            if flags.budget.degrade {
                frame.push_str(",\"degrade\":true");
            }
            frame.push('}');
            frame
        }
        other => {
            eprintln!("error: unknown client subcommand {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let stream = std::net::TcpStream::connect(addr);
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: client: cannot connect to {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(10)));
    if let Err(e) = stream
        .write_all(frame.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
    {
        eprintln!("error: client: cannot send to {addr}: {e}");
        return ExitCode::from(2);
    }
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(0) => {
            eprintln!("error: client: {addr} closed the connection without answering");
            ExitCode::from(2)
        }
        Ok(_) => {
            let line = line.trim_end();
            println!("{line}");
            client_exit(line)
        }
        Err(e) => {
            eprintln!("error: client: cannot read from {addr}: {e}");
            ExitCode::from(2)
        }
    }
}
