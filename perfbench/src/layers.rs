//! The traced run's per-layer account.
//!
//! Spans come from three places, all folded into one table: the harness's
//! own spans around each public call (named after the call, sharing one id
//! per operation), the engine's stage and sub-stage spans from its existing
//! `Tracer`, and — for `serve-mixed` — the daemon's trace file. Stage times
//! for the metrics come from the `Verdict::stats` records; sub-stage times
//! from the spans. A layer's self time is its total time minus the total
//! time of the layers directly below it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use textpres::engine::{StageReport, TraceEvent};

/// Every per-layer metric a traced run reports, with its unit. Metrics of
/// layers a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xslt.compile_ms", "ms"),
    ("xslt.compiles", "count"),
    ("format.parse_ms", "ms"),
    ("format.sources", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("scheduler.busy_ms", "ms"),
    ("scheduler.wall_ms", "ms"),
    ("scheduler.efficiency", "ratio"),
    ("scheduler.stage_tasks", "count"),
    ("scheduler.steals", "count"),
    ("topdown.schema_ms", "ms"),
    ("topdown.transducer_ms", "ms"),
    ("topdown.decide_ms", "ms"),
    ("topdown.transducer_size", "count"),
    ("topdown.transducer.rearranging_ms", "ms"),
    ("topdown.decide.rearranging_ms", "ms"),
    ("topdown.transducer.copying_ms", "ms"),
    ("topdown.decide.copying_ms", "ms"),
    ("topdown.retention.transducer_ms", "ms"),
    ("topdown.retention.decide_ms", "ms"),
    ("conformance.inverse_ms", "ms"),
    ("conformance.inverse_size", "count"),
    ("conformance.decide_ms", "ms"),
    ("dtl.schema_ms", "ms"),
    ("dtl.counterexample_ms", "ms"),
    ("dtl.counterexample_fuel", "fuel"),
    ("dtl.decide_ms", "ms"),
    ("dtl.decide.product_ms", "ms"),
    ("dtl.decide.witness_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.tax_ms", "ms"),
    ("serve.memo_hits", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth", "count"),
    ("serve.shed", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.span_events", "count"),
];

/// Pipeline stages whose spans may have sub-stage spans below them.
const STAGES: &[&str] = &[
    "topdown/schema",
    "topdown/transducer",
    "topdown/decide",
    "topdown/retention/transducer",
    "topdown/retention/decide",
    "conformance/inverse",
    "conformance/decide",
    "dtl/schema",
    "dtl/counterexample",
    "dtl/decide",
    "dtl/bounded",
    "xslt/compile",
];

/// Sub-stage spans reported as metrics (traced runs only).
const SUB_STAGES: &[&str] = &[
    "topdown/transducer/rearranging",
    "topdown/decide/rearranging",
    "topdown/transducer/copying",
    "topdown/decide/copying",
    "dtl/decide/product",
    "dtl/decide/witness",
];

/// Raw spans written to the JSONL file: enough to read one operation's
/// shape, bounded so a long traced run stays small on disk.
const SAMPLE_SPANS: usize = 4000;

#[derive(Default)]
struct Agg {
    parent: String,
    count: u64,
    total_us: f64,
    /// Builds (cache misses) among the spans that report a cache outcome.
    misses: u64,
    /// Workers running below this span at once (a batch runs two).
    width: f64,
}

/// The per-layer account of one traced run.
pub struct Layers {
    epoch: Instant,
    spans: BTreeMap<String, Agg>,
    values: BTreeMap<&'static str, f64>,
    bases: BTreeMap<&'static str, String>,
    sample: String,
    sampled: usize,
    events: u64,
    round_s: [Vec<f64>; 2],
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            epoch: Instant::now(),
            spans: BTreeMap::new(),
            values: BTreeMap::new(),
            bases: BTreeMap::new(),
            sample: String::new(),
            sampled: 0,
            events: 0,
            round_s: [Vec::new(), Vec::new()],
        }
    }

    /// Records one harness span around a public call of operation `op`.
    pub fn span(&mut self, name: &str, parent: &str, op: u64, start: Instant, end: Instant) {
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.record(name, parent, op, start_us, dur_us, None);
    }

    /// Marks `name` as a span under which `width` workers run at once.
    pub fn set_width(&mut self, name: &str, width: f64) {
        self.spans.entry(name.to_owned()).or_default().width = width;
    }

    /// Folds the engine's span events for operation `op`. `tracer_epoch`
    /// is when the tracer was created; stage spans hang under `parent`,
    /// sub-stage spans under their stage.
    pub fn engine(&mut self, op: u64, tracer_epoch: Instant, events: &[TraceEvent], parent: &str) {
        let offset = tracer_epoch
            .saturating_duration_since(self.epoch)
            .as_secs_f64()
            * 1e6;
        for e in events {
            if let TraceEvent::Exit {
                span,
                t_us,
                dur_us,
                fields,
                ..
            } = e
            {
                let start = offset + t_us.saturating_sub(*dur_us) as f64;
                self.record(span, parent, op, start, *dur_us as f64, fields.cache_hit);
            }
        }
    }

    /// Folds one span of a trace file written by the daemon.
    pub fn external(&mut self, name: &str, parent: &str, dur_us: f64, hit: Option<bool>) {
        self.record(name, parent, 0, 0.0, dur_us, hit);
    }

    fn record(
        &mut self,
        name: &str,
        parent: &str,
        op: u64,
        start_us: f64,
        dur_us: f64,
        hit: Option<bool>,
    ) {
        let parent = STAGES
            .iter()
            .filter(|s| {
                name.strip_prefix(*s)
                    .is_some_and(|rest| rest.starts_with('/'))
            })
            .max_by_key(|s| s.len())
            .map_or(parent, |s| *s);
        let agg = self.spans.entry(name.to_owned()).or_default();
        agg.parent = parent.to_owned();
        agg.count += 1;
        agg.total_us += dur_us;
        agg.misses += u64::from(hit == Some(false));
        self.events += 2;
        if self.sampled < SAMPLE_SPANS {
            self.sampled += 1;
            let _ = writeln!(
                self.sample,
                "{{\"span\":\"{name}\",\"parent\":\"{parent}\",\"op\":{op},\
                 \"start_us\":{start_us:.1},\"dur_us\":{dur_us:.1}}}"
            );
        }
    }

    /// Adds the stage records of one verdict: time per stage, the sizes of
    /// the transducer-side artifacts, and the counter-example fuel.
    pub fn stages(&mut self, stages: &[StageReport]) {
        for s in stages {
            let metric = format!("{}_ms", s.stage.replace('/', "."));
            if let Some(&(name, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
                self.add(name, s.duration.as_secs_f64() * 1e3);
            }
            let size = s.artifact_size.unwrap_or(0) as f64;
            match s.stage {
                "topdown/transducer" => self.add("topdown.transducer_size", size),
                "conformance/inverse" => self.add("conformance.inverse_size", size),
                "dtl/counterexample" => {
                    self.add("dtl.counterexample_fuel", s.fuel.unwrap_or(0) as f64)
                }
                _ => {}
            }
        }
    }

    pub fn add(&mut self, metric: &'static str, v: f64) {
        *self.values.entry(metric).or_insert(0.0) += v;
    }

    pub fn set(&mut self, metric: &'static str, v: f64) {
        self.values.insert(metric, v);
    }

    /// Records what a ratio or percentage is taken of.
    pub fn base(&mut self, metric: &'static str, base: String) {
        self.bases.insert(metric, base);
    }

    /// Records one whole round's time, traced or not, for the tracing
    /// overhead (rounds alternate between the two).
    pub fn round(&mut self, traced: bool, secs: f64) {
        self.round_s[usize::from(traced)].push(secs);
    }

    /// Total time of the spans named `name`, in ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |a| a.total_us / 1e3)
    }

    /// Total time of the spans directly below `parent`, in ms.
    pub fn children_ms(&self, parent: &str) -> f64 {
        self.spans
            .values()
            .filter(|a| a.parent == parent)
            .map(|a| a.total_us / 1e3)
            .sum()
    }

    /// Builds (cache misses) among the spans named `name`.
    pub fn span_misses(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |a| a.misses)
    }

    /// The value of a per-layer metric (0 when its layer never ran).
    pub fn value(&self, metric: &str) -> f64 {
        self.values.get(metric).copied().unwrap_or(0.0)
    }

    /// Derives the span-based metrics once every span is in.
    pub fn finish(&mut self) {
        for sub in SUB_STAGES {
            let metric = format!("{}_ms", sub.replace('/', "."));
            if let Some(&(name, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
                self.set(name, self.span_ms(sub));
            }
        }
        self.set("obs.span_events", self.events as f64);
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (plain, traced) = (mean(&self.round_s[0]), mean(&self.round_s[1]));
        if plain > 0.0 && traced > 0.0 {
            self.set("obs.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
            self.base(
                "obs.trace_overhead_pct",
                format!(
                    "untraced round mean {:.3} s over {} rounds; traced {:.3} s over {} rounds",
                    plain,
                    self.round_s[0].len(),
                    traced,
                    self.round_s[1].len()
                ),
            );
        }
        let hits = self.value("cache.hits");
        let lookups = hits + self.value("cache.misses");
        if lookups > 0.0 {
            self.set("cache.hit_ratio", hits / lookups);
            self.base("cache.hit_ratio", format!("{lookups} cache lookups"));
        }
    }

    /// The per-layer table: layers as a tree with count, total and self
    /// time, then every per-layer metric with the base of each ratio.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("# {title}\n\n");
        let _ = writeln!(
            out,
            "{:<44} {:>9} {:>12} {:>12} {:>7}",
            "layer", "count", "total_ms", "self_ms", "self%"
        );
        let self_ms = |name: &str| -> f64 {
            let a = &self.spans[name];
            let below: f64 = self
                .spans
                .values()
                .filter(|c| c.parent == name)
                .map(|c| c.total_us)
                .sum();
            ((a.total_us * a.width.max(1.0) - below) / 1e3).max(0.0)
        };
        let all: f64 = self.spans.keys().map(|n| self_ms(n)).sum();
        let mut stack: Vec<(String, usize)> = self
            .spans
            .iter()
            .filter(|(_, a)| !self.spans.contains_key(&a.parent))
            .map(|(n, _)| (n.clone(), 0))
            .collect();
        stack.reverse();
        while let Some((name, depth)) = stack.pop() {
            let a = &self.spans[&name];
            let own = self_ms(&name);
            let label = format!("{}{}", "  ".repeat(depth), name);
            let width = if a.width > 1.0 {
                format!(" (x{} workers)", a.width)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{:<44} {:>9} {:>12.3} {:>12.3} {:>6.1}%{width}",
                label,
                a.count,
                a.total_us / 1e3,
                own,
                100.0 * own / all.max(1e-9),
            );
            let mut kids: Vec<&String> = self
                .spans
                .iter()
                .filter(|(_, c)| c.parent == name)
                .map(|(n, _)| n)
                .collect();
            kids.reverse();
            stack.extend(kids.into_iter().map(|k| (k.clone(), depth + 1)));
        }
        out.push_str("\nper-layer metrics\n");
        for &(name, unit) in PER_LAYER {
            let base = self
                .bases
                .get(name)
                .map_or(String::new(), |b| format!("   (base: {b})"));
            let _ = writeln!(out, "{name:<36} {:>16.4} {unit}{base}", self.value(name));
        }
        out
    }

    /// Writes the table and the sampled spans under `perfbench/out/`.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir)?;
        let stem = format!("{workload}-seed{seed}");
        let table = self.table(&format!(
            "perfbench per-layer table: {workload}, seed {seed}"
        ));
        std::fs::write(dir.join(format!("{stem}.layers.txt")), &table)?;
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), &self.sample)?;
        Ok(table)
    }
}
