//! `perfbench`: the repository's benchmark.
//!
//! One process runs one workload from one seed and prints, as the last line
//! of standard output, a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Untraced runs (`--trace 0`) report the end-to-end metrics;
//! traced runs (`--trace 1`) report the per-layer metrics and write a
//! per-layer table and the span trace under `perfbench/out/`.
//!
//! Every run times the same operations in the same order: the operation
//! count is fixed by `--seconds` and the workload's reference round length,
//! never by how fast this run happens to go, so each percentile falls on the
//! same rank in every run. Output checks run outside the timed intervals.
//!
//! The harness drives the program only through `Engine::check_governed`,
//! `Engine::check_many_governed`, the decider constructors,
//! `textpres::format`, `textpres::frontend`, and the wire protocol of the
//! `textpres serve` binary.

mod checks;
mod corpus;
mod dtl;
mod inputs;
mod layers;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Measured;

/// What every workload receives.
pub struct Ctx {
    /// When `main` started: the first set-up is timed from here.
    pub started: Instant,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `textpres` binary `serve-mixed` spawns.
    pub textpres: Option<PathBuf>,
}

impl Ctx {
    /// Whole rounds to time: the run length over the workload's reference
    /// round length (measured on the host named in the README), at least
    /// `min`. Depends on the arguments only, never on this run's speed.
    pub fn rounds(&self, reference_round_s: f64, min: usize) -> usize {
        ((self.seconds as f64 / reference_round_s).round() as usize).max(min)
    }

    /// Wall-clock cap on the timed phase, so a much slower program still
    /// ends its run, set-up and checks included, within three minutes; the
    /// phase stops only between whole rounds.
    pub fn overrun_cap(&self) -> std::time::Duration {
        std::time::Duration::from_secs((self.seconds.max(1) * 6).min(100))
    }
}

const USAGE: &str = "usage: perfbench --workload (corpus-batch | dtl-symbolic | serve-mixed) \
--seed N --seconds S --trace (0 | 1) [--textpres PATH]";

fn parse_args(started: Instant) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        started,
        seed: 1,
        seconds: 10,
        trace: false,
        textpres: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => ctx.seed = number(&flag, &value()?)?,
            "--seconds" => ctx.seconds = number(&flag, &value()?)?.max(1),
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--textpres" => ctx.textpres = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got {v:?}"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let (workload, ctx) = match parse_args(started) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let measured: Result<Measured, String> = match workload.as_str() {
        "corpus-batch" => corpus::run(&ctx),
        "dtl-symbolic" => dtl::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measured {
        Ok(m) => {
            let result = m.finish(&workload, &ctx);
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
