//! What a run measured, and the JSON result line built from it.

use std::fmt::Write as _;
use std::time::Duration;

use crate::layers::{Layers, PER_LAYER};
use crate::Ctx;

/// How a cost class's repeats make its cost.
#[derive(Clone, Copy, Default)]
pub enum ClassCost {
    /// The fastest repeat. A round trip of tens of microseconds is the
    /// program's work plus wake-ups on the loopback path, which only add
    /// and drift from run to run; the fastest repeat is the work.
    #[default]
    Fastest,
    /// The median repeat. The host's other tenants slow operations of tens
    /// of milliseconds and more in spells, through shared caches and
    /// memory; the fastest repeat is whichever one met a rare quiet spell,
    /// the median is what the run typically saw.
    Median,
}

/// One run's measurements, filled in by a workload.
#[derive(Default)]
pub struct Measured {
    /// How each cost class's repeats make its cost.
    pub cost: ClassCost,
    /// Each set-up repetition; the first is timed from process start.
    pub setup: Vec<Duration>,
    /// Every timed sample: its cost class, its latency in ms, and whether
    /// all its operations succeeded.
    pub samples: Vec<(usize, f64, bool)>,
    /// The cost classes' names. A class holds the operations that do the
    /// same work: the same input from the same program state.
    pub classes: Vec<String>,
    /// Sum of every timed interval, failed operations included.
    pub timed: Duration,
    /// Wall time of the timed phase, untimed checks and set-ups included.
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// The per-layer account of a traced run.
    pub layers: Option<Layers>,
}

impl Measured {
    /// The index of cost class `name`, added on first use.
    pub fn class(&mut self, name: &str) -> usize {
        match self.classes.iter().position(|c| c == name) {
            Some(i) => i,
            None => {
                self.classes.push(name.to_owned());
                self.classes.len() - 1
            }
        }
    }

    /// Records one timed sample of cost class `class`.
    pub fn sample(&mut self, class: usize, took: Duration, ok: bool) {
        self.timed += took;
        self.samples.push((class, took.as_secs_f64() * 1e3, ok));
    }

    /// Each class's cost in ms (see [`ClassCost`]) with its sample count.
    fn class_costs(&self) -> Vec<(f64, usize)> {
        let mut repeats = vec![Vec::new(); self.classes.len()];
        for &(c, ms, _) in &self.samples {
            repeats[c].push(ms);
        }
        repeats
            .into_iter()
            .map(|mut r| {
                r.sort_by(f64::total_cmp);
                let cost = match self.cost {
                    ClassCost::Fastest => r.first().copied().unwrap_or(f64::INFINITY),
                    ClassCost::Median => median(&r),
                };
                (cost, r.len())
            })
            .collect()
    }

    /// Prints a summary to standard error and returns the result line.
    pub fn finish(self, workload: &str, ctx: &Ctx) -> String {
        let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
        let costs = self.class_costs();
        let n = self.samples.iter().filter(|s| s.2).count();
        if let Some(layers) = &self.layers {
            for &(name, unit) in PER_LAYER {
                metrics.push((name, layers.value(name), unit));
            }
        } else {
            // The operations of a class do the same work, so each sample
            // stands in for its class's cost (see `ClassCost`): the tail
            // comes from work that costs more, not from unlucky repeats.
            // Work that only some repeats of an input do (a rebuild after a
            // cache reset) forms classes of its own, so it counts as often
            // as it happens. Throughput divides the completed operations by
            // the timed phase rebuilt from those costs, failed operations
            // included.
            let rebuilt_ms: f64 = self.samples.iter().map(|&(c, _, _)| costs[c].0).sum();
            let completed = self.attempted - self.failed;
            metrics.push(("setup_s", median_secs(&self.setup), "s"));
            metrics.push((
                "throughput_per_s",
                completed as f64 / (rebuilt_ms / 1e3).max(1e-12),
                "1/s",
            ));
            let mut sorted: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| s.2)
                .map(|&(c, _, _)| costs[c].0)
                .collect();
            sorted.sort_by(f64::total_cmp);
            for (name, permille) in [
                ("latency_p50_ms", 500),
                ("latency_p90_ms", 900),
                ("latency_p99_ms", 990),
            ] {
                metrics.push((name, quantile(&sorted, permille), "ms"));
            }
            metrics.push(("peak_rss_mb", self.peak_rss_mb, "MB"));
        }

        eprintln!(
            "perfbench {workload} seed {} trace {}: {} samples, {} attempted, {} failed, \
             timed {:.3}s of a {:.3}s phase; p90 reads p{}, p99 reads p{}",
            ctx.seed,
            u8::from(ctx.trace),
            n,
            self.attempted,
            self.failed,
            self.timed.as_secs_f64(),
            self.wall.as_secs_f64(),
            supported(900, n) / 10,
            supported(990, n) / 10,
        );
        let setups: Vec<String> = self
            .setup
            .iter()
            .map(|d| format!("{:.4}", d.as_secs_f64()))
            .collect();
        eprintln!("  set-ups (s): {}", setups.join(" "));
        for (name, (ms, count)) in self.classes.iter().zip(&costs) {
            eprintln!("  {name:<44} n={count:<7} cost {ms:>10.4} ms");
        }
        for p in self.problems.iter().take(20) {
            eprintln!("  check failed: {p}");
        }
        if self.problems.len() > 20 {
            eprintln!("  ... {} more", self.problems.len() - 20);
        }

        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && n > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The median set-up time in seconds.
fn median_secs(setup: &[Duration]) -> f64 {
    let mut s: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    s.sort_by(f64::total_cmp);
    median(&s)
}

/// The lower median of ascending `sorted`; 0 when empty.
fn median(sorted: &[f64]) -> f64 {
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// The highest of the requested quantile, p90 and the median (all in
/// per-mille) that `n` samples support: at least ten samples above its
/// rank, and the median alone under 40 samples.
pub fn supported(permille: usize, n: usize) -> usize {
    if n < 40 {
        return 500;
    }
    [990, 900, 500]
        .into_iter()
        .find(|&q| q <= permille && n - rank(q, n) >= 10)
        .unwrap_or(500)
}

/// The 1-based nearest rank of quantile `permille` among `n` samples.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).max(1)
}

/// The supported quantile (see [`supported`]) of ascending `sorted`, by
/// nearest rank; 0 on an empty sample.
pub fn quantile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(supported(permille, sorted.len()), sorted.len()) - 1]
}

/// Peak resident set size in MB of this process (`children = false`) or of
/// its largest waited-for child (`children = true`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb(children: bool) -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (kilobytes) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    let who = if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // 144-byte `struct rusage` on 64-bit Linux, and `getrusage` writes
    // only within that struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc == 0 {
        usage.maxrss_kb as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb(_children: bool) -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_fall_back_to_what_the_sample_supports() {
        assert_eq!(supported(990, 39), 500);
        assert_eq!(supported(900, 99), 500);
        assert_eq!(supported(900, 100), 900);
        assert_eq!(supported(990, 999), 900);
        assert_eq!(supported(990, 1000), 990);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 500), 50.0);
        assert_eq!(quantile(&s, 900), 90.0);
        assert_eq!(quantile(&s, 990), 90.0);
    }
}
