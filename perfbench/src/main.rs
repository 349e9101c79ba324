//! `perfbench` — the end-to-end and per-layer benchmark of the four jgre
//! user paths (`fleet`, `serve`, `lint`, `fuzz`).
//!
//! ```console
//! $ perfbench --workload serve --seed 3 --seconds 15 --trace 0
//! ```
//!
//! Untraced (`--trace 0`) runs measure the named workload's end-to-end
//! metrics. Traced (`--trace 1`) runs time the calls into every crate's
//! public functions for all four workloads (the named one for the whole
//! window, the others for one pass each) and report per-layer metrics.
//! The last stdout line is the result object; the line before it holds
//! the details: per-metric spread, counts, host facts and span totals.
//! See `perfbench/README.md`.

mod calib;
mod fleet;
mod fuzz;
mod lint;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::Value;

use trace::{num, obj, Samples};

const USAGE: &str = "usage: perfbench --workload fleet|serve|lint|fuzz --seed N --seconds S \
                     --trace 0|1 [--scratch DIR] [--short] [--corrupt-output] [--artifact-out PATH]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub short: bool,
    /// Corrupt one program output before the gate (negative test).
    pub corrupt: bool,
    /// Directory for files the lint's summary cache writes.
    pub scratch: PathBuf,
    /// (fuzz) Write the first campaign's artifact JSON here.
    pub artifact_out: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            short: false,
            corrupt: false,
            scratch: PathBuf::from(".bench_build/perfbench-scratch"),
            artifact_out: None,
        };
        let mut seen = (false, false, false, false);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    opts.workload = value()?.clone();
                    seen.0 = true;
                }
                "--seed" => {
                    opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                    seen.1 = true;
                }
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    seen.2 = true;
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    };
                    seen.3 = true;
                }
                "--scratch" => opts.scratch = PathBuf::from(value()?),
                "--artifact-out" => opts.artifact_out = Some(PathBuf::from(value()?)),
                "--short" => opts.short = true,
                "--corrupt-output" => opts.corrupt = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if seen != (true, true, true, true) {
            return Err("--workload, --seed, --seconds and --trace are required".to_owned());
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!("unknown workload {}", opts.workload));
        }
        if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".to_owned());
        }
        Ok(opts)
    }
}

const WORKLOADS: [&str; 4] = ["fleet", "serve", "lint", "fuzz"];

/// What one workload (or one traced section) measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when every gate passed.
    pub problems: Vec<String>,
    /// Measurement-quality notes that do not make the run incorrect.
    pub warnings: Vec<String>,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every sample behind a reported metric, for the spread record.
    pub samples: Vec<(String, Samples)>,
    /// Deterministic counts; they repeat exactly across runs and between
    /// traced and untraced runs of the same seed.
    pub counts: Vec<(String, u64)>,
    /// Further facts for the details line.
    pub extra: Vec<(String, Value)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn warn(&mut self, ok: bool, warning: impl FnOnce() -> String) {
        if !ok {
            self.warnings.push(warning());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn sample(&mut self, name: &str, samples: &Samples) {
        self.samples.push((name.to_owned(), samples.clone()));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value));
    }

    pub fn extra(&mut self, name: &str, value: Value) {
        self.extra.push((name.to_owned(), value));
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.warnings.extend(other.warnings);
        self.metrics.extend(other.metrics);
        self.samples.extend(other.samples);
        self.counts.extend(other.counts);
        self.extra.extend(other.extra);
    }
}

/// A measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Self(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

fn run(opts: &Opts) -> Outcome {
    if !opts.trace {
        let mut out = match opts.workload.as_str() {
            "fleet" => fleet::run(opts),
            "serve" => serve::run(opts),
            "lint" => lint::run(opts),
            _ => fuzz::run(opts),
        };
        out.metric("peak_rss_mib", trace::peak_rss_mib(), "MiB");
        return out;
    }
    // Traced: every section runs, so every per-layer metric is measured;
    // the named workload keeps running passes for the whole window.
    let mut out = Outcome::default();
    for name in WORKLOADS {
        let seconds = if name == opts.workload {
            opts.seconds
        } else {
            0.0
        };
        out.absorb(match name {
            "fleet" => fleet::traced(opts, seconds),
            "serve" => serve::traced(opts, seconds),
            "lint" => lint::traced(opts, seconds),
            _ => fuzz::traced(opts, seconds),
        });
    }
    out
}

fn host_facts() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("hardware_threads", Value::UInt(threads as u64)),
        ("cpu_model", Value::Str(cpu)),
        (
            "build_profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    for warning in &out.warnings {
        eprintln!("perfbench: warning: {warning}");
    }
    for problem in &out.problems {
        eprintln!("perfbench: gate failed: {problem}");
    }
    let correct = out.problems.is_empty();
    let details = obj(vec![
        ("workload", Value::Str(opts.workload.clone())),
        ("seed", Value::UInt(opts.seed)),
        ("seconds", num(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("short", Value::Bool(opts.short)),
        ("host", host_facts()),
        (
            "spread",
            Value::Object(
                out.samples
                    .iter()
                    .map(|(k, s)| (k.clone(), s.summary()))
                    .collect(),
            ),
        ),
        (
            "counts",
            Value::Object(
                out.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                    .collect(),
            ),
        ),
        ("extra", Value::Object(out.extra.clone())),
        (
            "problems",
            Value::Array(out.problems.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "warnings",
            Value::Array(out.warnings.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    let metrics = Value::Object(
        out.metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_owned(),
                    obj(vec![
                        ("value", num(*value)),
                        ("unit", Value::Str((*unit).to_owned())),
                    ]),
                )
            })
            .collect(),
    );
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&obj(vec![("details", details)])).expect("details serialise")
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
    ExitCode::SUCCESS
}
