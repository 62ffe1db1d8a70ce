//! End-to-end tests of the `textpres` CLI: subcommands, flags, exit codes.
//!
//! Exit-code contract: 0 = text-preserving, 1 = not text-preserving,
//! 2 = usage or I/O error, 3 = resource budget exhausted.

use std::path::PathBuf;
use std::process::{Command, Output};

const SCHEMA: &str = "
start doc
elem doc  = (keep | drop)*
elem keep = text
elem drop = text
";

const GOOD: &str = "
initial q0
rule q0 doc -> doc(q)
rule q  keep -> keep(qt)
text qt
";

const BAD: &str = "
initial q0
rule q0 doc -> doc(q q)
rule q keep -> keep(qt)
text qt
";

/// The universal schema over {a, b}: every tree is valid.
const UNIVERSAL: &str = "
start a
start b
elem a = (a | b | text)*
elem b = (a | b | text)*
";

/// The E5 `k = 2` DTL_XPath instance (filter chain of length 2 in the
/// call pattern): EXPTIME-hard territory — the symbolic decision runs for
/// many minutes, so only budgeted runs are testable.
const DTL_K2: &str = "
dtl
initial q0
rule q0 : a -> a(q0 / child[a]/child[a]/child)
rule q0 : b -> b(q0 / child)
text q0
";

/// A `DTL_XPath` program that copies text: every `a` re-reads all of its
/// descendants, so `a(a("τ"))` outputs the inner text twice.
const DTL_DESC: &str = "
dtl
initial q0
rule q0 : a -> a(q0 / desc)
rule q0 : b -> b(q0 / child)
text q0
";

/// Reorders text without copying it: all `keep` children first, then all
/// `drop` children.
const SPLIT: &str = "
initial q0
rule q0 doc -> doc(qk qd)
rule qk keep -> keep(qt)
rule qd drop -> drop(qt)
text qt
";

/// A conformance target that admits no `keep` element.
const NARROW: &str = "
start doc
elem doc  = drop*
elem drop = text
";

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("textpres-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (file, text) in [
            ("schema.txt", SCHEMA),
            ("good.txt", GOOD),
            ("bad.txt", BAD),
            ("universal.txt", UNIVERSAL),
            ("k2.dtl", DTL_K2),
            ("desc.dtl", DTL_DESC),
            ("split.txt", SPLIT),
            ("narrow.txt", NARROW),
        ] {
            std::fs::write(dir.join(file), text).unwrap();
        }
        Fixture { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_textpres"))
            .args(args)
            .output()
            .expect("spawn textpres")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn version_flag() {
    let f = Fixture::new("version");
    let out = f.run(&["--version"]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("textpres "), "{stdout}");
}

#[test]
fn unknown_command_prints_help_and_exits_2() {
    let f = Fixture::new("unknown");
    let out = f.run(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn no_args_prints_help_and_exits_2() {
    let f = Fixture::new("noargs");
    let out = f.run(&[]);
    assert_eq!(code(&out), 2);
}

#[test]
fn check_preserving_exits_0() {
    let f = Fixture::new("good");
    let out = f.run(&["check", &f.path("schema.txt"), &f.path("good.txt")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("text-preserving"));
}

#[test]
fn check_violating_exits_1_with_witness_path() {
    let f = Fixture::new("bad");
    let out = f.run(&["check", &f.path("schema.txt"), &f.path("bad.txt")]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("COPIES"), "{stdout}");
    assert!(stdout.contains("doc/keep/text()"), "{stdout}");
}

#[test]
fn check_missing_file_exits_2() {
    let f = Fixture::new("missing");
    let out = f.run(&["check", &f.path("schema.txt"), &f.path("nosuch.txt")]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn check_stats_flag_reports_stages() {
    let f = Fixture::new("stats");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--stats",
    ]);
    assert_eq!(code(&out), 0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("topdown/schema"), "{stderr}");
    assert!(stderr.contains("cache:"), "{stderr}");
}

#[test]
fn batch_mixed_exits_1_and_reports_each() {
    let f = Fixture::new("batch");
    let out = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("bad.txt"),
        "--jobs",
        "2",
        "--stats",
    ]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1/2 text-preserving"), "{stdout}");
    assert!(stdout.contains("(2 workers"), "{stdout}");
    // The schema artifact is shared: compiled once, hit once.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[cache hit]"), "{stderr}");
    // --stats surfaces the scheduler's stage-task/check counters.
    assert!(stderr.contains("scheduler:"), "{stderr}");
    assert!(stderr.contains("stage tasks"), "{stderr}");
}

#[test]
fn batch_jobs_zero_auto_detects_workers() {
    let f = Fixture::new("batch-auto");
    let auto = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--jobs",
        "0",
    ]);
    assert_eq!(code(&auto), 0, "{}", String::from_utf8_lossy(&auto.stderr));
    let expected = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stdout = String::from_utf8_lossy(&auto.stdout);
    assert!(
        stdout.contains(&format!("({expected} workers")),
        "--jobs 0 should auto-detect {expected} workers: {stdout}"
    );
    // Omitting --jobs entirely gives the same auto-detected default.
    let default = f.run(&["batch", &f.path("schema.txt"), &f.path("good.txt")]);
    assert_eq!(code(&default), 0);
    assert!(String::from_utf8_lossy(&default.stdout).contains(&format!("({expected} workers")));
}

#[test]
fn batch_all_preserving_exits_0() {
    let f = Fixture::new("batchok");
    let out = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("good.txt"),
    ]);
    assert_eq!(code(&out), 0);
}

#[test]
fn unknown_flag_exits_2() {
    let f = Fixture::new("flag");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--bogus",
    ]);
    assert_eq!(code(&out), 2);
}

#[test]
fn check_fuel_exhaustion_exits_3() {
    // The EXPTIME E5 instance under one unit of fuel must fail fast with
    // the documented resource-exhausted exit code instead of running for
    // minutes.
    let f = Fixture::new("fuel3");
    let start = std::time::Instant::now();
    let out = f.run(&[
        "check",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1",
    ]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(1),
        "exhaustion must fail fast, took {:?}",
        start.elapsed()
    );
}

#[test]
fn check_fuel_exhaustion_with_degrade_reports_bounded_verdict() {
    let f = Fixture::new("degrade");
    let out = f.run(&[
        "check",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1",
        "--degrade",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEGRADED"), "{stdout}");
}

#[test]
fn check_generous_fuel_reports_per_stage_fuel() {
    let f = Fixture::new("fuelok");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--fuel",
        "1000000",
        "--stats",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fuel "), "{stderr}");
}

#[test]
fn batch_with_exhausted_task_exits_3_but_reports_the_rest() {
    let f = Fixture::new("batch3");
    let out = f.run(&[
        "batch",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1",
    ]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 exhausted"), "{stdout}");
}

#[test]
fn bad_dtl_file_exits_2_with_line_number() {
    let f = Fixture::new("baddtl");
    std::fs::write(
        f.dir.join("broken.dtl"),
        "dtl\ninitial q0\nrule q0 : a -> a(q0 / child[[)\n",
    )
    .unwrap();
    let out = f.run(&["check", &f.path("universal.txt"), &f.path("broken.dtl")]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
}

#[test]
fn subschema_runs() {
    let f = Fixture::new("subschema");
    let out = f.run(&["subschema", &f.path("schema.txt"), &f.path("bad.txt")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("maximal text-preserving sub-schema"));
}

#[test]
fn check_trace_out_writes_jsonl_and_metrics_prints_table() {
    let f = Fixture::new("trace");
    let trace = f.path("trace.jsonl");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--trace-out",
        &trace,
        "--metrics",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));

    let jsonl = std::fs::read_to_string(&trace).expect("trace file written");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(!lines.is_empty(), "trace is empty");
    for line in &lines {
        assert!(
            line.starts_with("{\"ev\":\"") && line.ends_with('}'),
            "not a JSONL event: {line}"
        );
    }
    // One enter and one exit per span, and the engine-level stages of a
    // top-down check are all present by name.
    let enters = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"enter\""))
        .count();
    let exits = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"exit\""))
        .count();
    assert_eq!(enters, exits);
    for stage in ["topdown/schema", "topdown/transducer", "topdown/decide"] {
        assert!(
            jsonl.contains(&format!("\"span\":\"{stage}\"")),
            "stage {stage} missing from trace"
        );
    }

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("counters:"), "no metrics table:\n{stderr}");
    assert!(stderr.contains("engine/checks"), "{stderr}");
}

#[test]
fn trace_is_flushed_on_budget_exhaustion() {
    let f = Fixture::new("trace-exhaust");
    let trace = f.path("exhausted.jsonl");
    let out = f.run(&[
        "check",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1000",
        "--trace-out",
        &trace,
    ]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    // The trace survives the failed run: that is the debugging contract.
    let jsonl = std::fs::read_to_string(&trace).expect("trace file written on exit 3");
    assert!(jsonl.contains("\"span\":\"dtl/"), "no dtl span:\n{jsonl}");
}

#[test]
fn batch_trace_out_covers_all_tasks() {
    let f = Fixture::new("batch-trace");
    let trace = f.path("batch.jsonl");
    let out = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("bad.txt"),
        "--jobs",
        "2",
        "--trace-out",
        &trace,
        "--metrics",
    ]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&trace).expect("trace file written");
    // Two tasks, one shared schema artifact: the decide stage ran twice.
    let decides = jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"exit\"") && l.contains("\"span\":\"topdown/decide\""))
        .count();
    assert_eq!(decides, 2, "{jsonl}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("engine/checks"));
}

/// A committed example under `examples/`, from the package root.
fn example(path: &str) -> String {
    format!("{}/../../examples/{path}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_conformance_passes_and_fails_with_a_witness() {
    let f = Fixture::new("conformance");
    let pass = f.run(&[
        "analyze",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--analysis",
        "conformance",
        "--target",
        &f.path("schema.txt"),
    ]);
    assert_eq!(code(&pass), 0, "{}", String::from_utf8_lossy(&pass.stderr));
    let stdout = String::from_utf8_lossy(&pass.stdout);
    assert!(
        stdout.contains("[conformance] every output conforms"),
        "{stdout}"
    );
    let fail = f.run(&[
        "analyze",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--analysis",
        "conformance",
        "--target",
        &f.path("narrow.txt"),
    ]);
    assert_eq!(code(&fail), 1, "{}", String::from_utf8_lossy(&fail.stderr));
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert!(stdout.contains("does NOT conform"), "{stdout}");
    assert!(stdout.contains("keep"), "{stdout}");
}

#[test]
fn analyze_usage_errors_exit_2() {
    let f = Fixture::new("analyze-usage");
    let (schema, good) = (f.path("schema.txt"), f.path("good.txt"));
    let cases: [(&[&str], &str); 4] = [
        (&["--analysis", "nosuch"], "unknown analysis"),
        (&["--analysis", "text-retention"], "label"),
        (&["--analysis", "conformance"], "target"),
        (
            &["--analysis", "text-retention", "--label", "nosuch"],
            "nosuch",
        ),
    ];
    for (flags, says) in cases {
        let mut args = vec!["analyze", &schema, &good];
        args.extend_from_slice(flags);
        let out = f.run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{flags:?}: {stderr}");
        assert!(stderr.contains(says), "{flags:?}: {stderr}");
    }
}

#[test]
fn analyze_retention_refuses_a_dtl_program() {
    let f = Fixture::new("analyze-dtl");
    let out = f.run(&[
        "analyze",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--analysis",
        "text-retention",
        "--label",
        "a",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "{stderr}");
    assert!(stderr.contains("top-down"), "{stderr}");
}

/// What one answer of either door says: pass/fail, the outcome, whether
/// it was degraded, and the rendered witness.
#[derive(Debug, PartialEq)]
struct Answer {
    pass: bool,
    outcome: &'static str,
    degraded: bool,
    witness: Option<String>,
}

/// The outcome tags of the serve protocol and the sentence the CLI prints
/// for each.
const OUTCOME_SENTENCES: [(&str, &str); 6] = [
    ("copying", "COPIES text reached via: "),
    ("rearranging", "REORDERS text, e.g. on this valid document:"),
    ("not-preserving", "not text-preserving, e.g. on:"),
    (
        "deletes-text",
        "DELETES text under a selected label, reached via: ",
    ),
    (
        "non-conforming",
        "does NOT conform to the target, e.g. on this valid document:",
    ),
    ("preserving", "✓ "),
];

/// Reads an [`Answer`] off the CLI's human-readable output. A path witness
/// ends its sentence; a tree witness is the indented line below it.
fn cli_answer(out: &Output) -> Answer {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (outcome, sentence) = OUTCOME_SENTENCES
        .iter()
        .find(|(_, s)| stdout.contains(s))
        .unwrap_or_else(|| panic!("no outcome sentence in {stdout}"));
    let mut lines = stdout.lines().skip_while(|l| !l.contains(sentence));
    let line = lines.next().expect("the sentence line");
    let rest = &line[line.find(sentence).unwrap() + sentence.len()..];
    let witness = match (*outcome, rest.is_empty()) {
        ("preserving", _) => None,
        (_, false) => Some(rest.to_owned()),
        (_, true) => lines.next().map(|w| w.trim().to_owned()),
    };
    Answer {
        pass: code(out) == 0,
        outcome,
        degraded: stdout.contains("DEGRADED"),
        witness,
    }
}

/// Reads an [`Answer`] off a `textpres client` verdict frame.
fn daemon_answer(out: &Output) -> Answer {
    use textpres::obs::JsonValue;
    let line = String::from_utf8_lossy(&out.stdout);
    let v = JsonValue::parse(line.trim()).expect("a JSON frame");
    let outcome = v
        .get("outcome")
        .and_then(|o| o.as_str())
        .unwrap_or_else(|| {
            panic!("no verdict in {line}");
        });
    let outcome = OUTCOME_SENTENCES
        .iter()
        .map(|(tag, _)| *tag)
        .find(|tag| *tag == outcome)
        .expect("a known outcome tag");
    let pass = v.get("verdict").and_then(|s| s.as_str()) == Some("pass");
    assert_eq!(code(out), if pass { 0 } else { 1 }, "{line}");
    Answer {
        pass,
        outcome,
        degraded: v.get("degraded").and_then(|b| b.as_bool()) == Some(true),
        witness: v.get("witness").and_then(|w| w.as_str()).map(str::to_owned),
    }
}

#[test]
fn cli_and_daemon_agree_on_every_analysis_of_each_transducer_kind() {
    use textpres::serve::{ServeConfig, Server};
    let f = Fixture::new("agree");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());

    let (schema, universal) = (f.path("schema.txt"), f.path("universal.txt"));
    let (tei, fredracor) = (
        example("xslt/tei.schema"),
        example("xslt/fredracor_tei.xsl"),
    );
    let retention = |label: &'static str| vec!["--analysis", "text-retention", "--label", label];
    let conformance = |target: String| {
        vec![
            "--analysis".to_owned(),
            "conformance".to_owned(),
            "--target".to_owned(),
            target,
        ]
    };
    let owned = |v: Vec<&str>| v.into_iter().map(str::to_owned).collect::<Vec<_>>();
    // (schema, transducer, flags, expected outcome)
    let cases: Vec<(&str, String, Vec<String>, &str)> = vec![
        (&schema, f.path("good.txt"), vec![], "preserving"),
        (&schema, f.path("bad.txt"), vec![], "copying"),
        (&schema, f.path("split.txt"), vec![], "rearranging"),
        (
            &schema,
            f.path("good.txt"),
            owned(retention("keep")),
            "preserving",
        ),
        (
            &schema,
            f.path("good.txt"),
            owned(retention("drop")),
            "deletes-text",
        ),
        (
            &schema,
            f.path("bad.txt"),
            owned(retention("keep")),
            "preserving",
        ),
        (
            &schema,
            f.path("good.txt"),
            conformance(schema.clone()),
            "preserving",
        ),
        (
            &schema,
            f.path("good.txt"),
            conformance(f.path("narrow.txt")),
            "non-conforming",
        ),
        (
            &universal,
            f.path("desc.dtl"),
            owned(vec!["--fuel", "1", "--degrade"]),
            "not-preserving",
        ),
        (
            &universal,
            f.path("k2.dtl"),
            owned(vec!["--fuel", "1", "--degrade"]),
            "preserving",
        ),
        (&tei, fredracor.clone(), vec![], "preserving"),
        (
            &tei,
            fredracor.clone(),
            owned(retention("tei:sp")),
            "preserving",
        ),
        (
            &tei,
            fredracor.clone(),
            conformance(tei.clone()),
            "preserving",
        ),
        (
            &tei,
            fredracor.clone(),
            conformance(schema.clone()),
            "non-conforming",
        ),
    ];
    for (schema, transducer, flags, expect) in &cases {
        let mut args = vec!["analyze", schema, transducer.as_str()];
        args.extend(flags.iter().map(String::as_str));
        let cli = f.run(&args);
        let mut args = vec![
            "client",
            addr.as_str(),
            "check",
            schema,
            transducer.as_str(),
        ];
        args.extend(flags.iter().map(String::as_str));
        let served = f.run(&args);
        let context = format!(
            "{transducer} {flags:?}\ncli: {}{}\ndaemon: {}{}",
            String::from_utf8_lossy(&cli.stdout),
            String::from_utf8_lossy(&cli.stderr),
            String::from_utf8_lossy(&served.stdout),
            String::from_utf8_lossy(&served.stderr),
        );
        let answer = cli_answer(&cli);
        assert_eq!(answer.outcome, *expect, "{context}");
        assert_eq!(answer.pass, *expect == "preserving", "{context}");
        assert_eq!(answer, daemon_answer(&served), "{context}");
        // `check` is `analyze --analysis text-preservation`.
        if flags.iter().all(|f| f != "--analysis") {
            let mut check = vec!["check", schema, transducer.as_str()];
            check.extend(flags.iter().map(String::as_str));
            assert_eq!(cli_answer(&f.run(&check)), answer, "{context}");
        }
    }
    handle.request_drain();
    daemon.join().expect("daemon thread").expect("clean drain");
}

#[test]
fn subschema_sniffs_a_stylesheet() {
    let f = Fixture::new("subschema-xslt");
    let out = f.run(&[
        "subschema",
        &example("xslt/tei.schema"),
        &example("xslt/fredracor_tei.xsl"),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(the transformation is text-preserving on the whole schema)"),
        "{stdout}"
    );
}

#[test]
fn subschema_refuses_a_dtl_program() {
    let f = Fixture::new("subschema-dtl");
    let out = f.run(&["subschema", &f.path("universal.txt"), &f.path("k2.dtl")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "{stderr}");
    assert!(
        stderr.contains("top-down transducer") && stderr.contains("stylesheet"),
        "{stderr}"
    );
}

#[test]
fn a_flag_the_command_does_not_read_exits_2() {
    let f = Fixture::new("unread-flags");
    let (schema, good) = (f.path("schema.txt"), f.path("good.txt"));
    let cases: [&[&str]; 3] = [
        &["check", &schema, &good, "--analysis", "conformance"],
        &["check", &schema, &good, "--label", "nosuch"],
        &["batch", &schema, &good, "--label", "nosuch"],
    ];
    for args in cases {
        let out = f.run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_stylesheet_check_traces_one_xslt_compile_stage() {
    let f = Fixture::new("xslt-trace");
    let trace = f.path("xslt.jsonl");
    let out = f.run(&[
        "check",
        &example("xslt/tei.schema"),
        &example("xslt/fredracor_tei.xsl"),
        "--trace-out",
        &trace,
        "--stats",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&trace).expect("trace file written");
    let compiles = jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"exit\"") && l.contains("\"span\":\"xslt/compile\""))
        .count();
    assert_eq!(compiles, 1, "{jsonl}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("xslt/compile"), "{stderr}");
}

#[test]
fn check_refuses_a_document_with_labels_outside_the_alphabet() {
    let f = Fixture::new("doc-labels");
    std::fs::write(
        f.dir.join("doc.xml"),
        "<doc><keep>hello</keep><foo>x</foo></doc>",
    )
    .unwrap();
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("doc.xml"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "{stderr}");
    assert!(stderr.contains("foo"), "{stderr}");
}

#[test]
fn check_transforms_a_document_before_deciding() {
    let f = Fixture::new("doc-run");
    std::fs::write(
        f.dir.join("doc.xml"),
        "<doc><keep>hello</keep><drop>secret</drop><keep>world</keep></doc>",
    )
    .unwrap();
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("doc.xml"),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("<doc><keep>hello</keep><keep>world</keep></doc>"),
        "{stdout}"
    );
    assert!(
        stdout.contains("this run is text-preserving: true"),
        "{stdout}"
    );
}
