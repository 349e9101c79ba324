//! `jgre` — command-line front-end for the reproduction.
//!
//! ```console
//! $ jgre headline                 # §IV counts (quick scale)
//! $ jgre --paper fig3             # Figure 3 at the real 51200 capacity
//! $ jgre table2 --json            # Table II as JSON
//! $ jgre all --paper              # every artifact, like `cargo bench`
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use jgre_core::{experiments, ExperimentScale};

const USAGE: &str = "\
jgre — reproduce 'JGRE: JNI Global Reference Exhaustion in Android' (DSN 2017)

USAGE: jgre [--paper] [--json] [--seed N] [--cache-dir DIR] [--threads N] <command>

COMMANDS:
  headline     §IV analysis counts (104/54/32/22, 147/67 paths, ...)
  table1       Table I  — 44 unprotected vulnerable interfaces
  table2       Table II — helper-class protections, bypassed live
  table3       Table III — per-process limits and the toast spoof
  table4       Table IV — vulnerable prebuilt apps
  table5       Table V  — vulnerable Play-store apps
  fig3         Figure 3 — exhaustion curves for all 54 interfaces
  fig4         Figure 4 — benign baseline (JGR band, process count)
  fig5         Figure 5 — execution-time growth under attack
  fig6         Figure 6 — execution-time CDF (1000 calls/interface)
  fig8         Figure 8 — attacker vs benign suspicious-call counts
  fig9         Figure 9 — four colluders, Δ sweep
  fig10        Figure 10 — defense IPC overhead vs payload
  response     §V-D.1 — detection delays for all 57 interfaces
  defend       §V-C  — drive all 57 attacks against the defender
  all          run everything above in order
  lint         dataflow leak analysis as SARIF 2.1.0, each finding backed
               by a checkable IPC-entry-to-IRT::Add witness path
               (--json prints the raw lint report instead)
  chaos        robustness matrix — seeded fault injection (drop/duplicate/
               delay/reorder IPC records, truncate/corrupt the JGR journal,
               clock jitter, failed/respawning kills, defender crashes)
               against the crash-consistent defender; exits nonzero on any
               recovery-invariant violation
  fleet        fleet campaign — N independent defended devices sharded
               across worker threads; device i streams its RNG from
               (seed, i), so the summary is byte-identical for every
               --threads value (devices/sec footer goes to stderr)
  fuzz         coverage-guided Parcel fuzzer — mutate transaction codes
               and parcel payloads (wrong arity, type confusion, stale
               binders, oversized blobs, truncation) against the raw
               dispatch of every registered service; GC-verified leak
               findings are delta-debug minimized and cross-checked
               against the static lint (differential section); the JSON
               report is byte-identical for every --threads value
               (execs/sec + findings/sec footer goes to stderr)
  serve        streaming defender — synthesize a framed telemetry stream
               (--events-per-sec, --duration, --seed) and score it online
               with the incremental sliding-window correlator; stdout and
               --out are byte-identical per seed for every --threads value
               (wall-clock events/sec footer goes to stderr)

OPTIONS:
  --paper      paper scale: 51200-entry tables, 4000/12000 thresholds
               (default: quick 1/16 scale)
  --scale S    quick | paper — same presets as --paper, spelled out
  --json       print the raw JSON instead of the rendered table
  --seed N     override the experiment seed (default 2017)
  --cache-dir DIR
               (lint) persist per-SCC summaries under DIR; an unchanged
               corpus re-lints from the cache, an edit recomputes only
               the affected call-graph cone
  --threads N  (fleet, fuzz, serve) worker threads — the fleet's device
               shards, the fuzzer's per-service shards; serve at N >= 2
               runs the stream producer on its own thread
               (default 1; results are identical for every N; other
               commands accept and ignore it)
  --devices N  (fleet) devices to simulate (default 1000)
  --attack SEL (fleet) catalog selector: a zero-based index, a
               service.method label, or 'all' to sweep the 57-vector
               catalog with device i driving vector i mod 57 (default)
               (serve) tap the selected vector on a simulated device and
               use its measured IPC→JGR delay as the stream's attack
               timing (default: the synthetic 500µs profile)
  --iters N    (fuzz) transaction budget across the whole surface,
               split per service proportionally to method count
               (default 320000 — enough for a full probe sweep plus a
               mutation tail; small budgets truncate the sweep)
  --attack-surface SEL
               (fuzz) all | sdk | hidden — which slice of the IPC
               surface to sweep: everything, only permission-gated or
               protection-wrapped methods, or only unmediated ones
               (default all)
  --events-per-sec R
               (serve) sustained call arrival rate (default 10000)
  --duration S (serve) virtual stream length in seconds, fractions ok
               (default 1.0)
  --path-insensitive
               (lint) disable the per-branch predicate reading: no
               JGRE004 error-path findings, no proven-bounded drops —
               reproduces the boolean-guard-era score
  --fault K    (chaos) restrict the matrix to one fault kind: ipc-drop,
               ipc-duplicate, ipc-delay, ipc-reorder, jgr-truncate,
               jgr-corrupt, clock-jitter, kill-fail, kill-respawn,
               defender-crash
               (default: all; fault-free baselines always run)
  --out PATH   (chaos, fleet, fuzz, serve) write the result as JSON to
               PATH and the rendered table next to it as PATH with a .txt
               extension
  --list-cells (chaos) print the cell ids the matrix would run, one per
               line, without running anything (honors --fault)
";

struct Options {
    scale: ExperimentScale,
    json: bool,
    analysis: jgre_analysis::AnalysisOptions,
    fault: Option<jgre_core::sim::FaultKind>,
    out: Option<std::path::PathBuf>,
    list_cells: bool,
    threads: Option<usize>,
    devices: u64,
    attack: Option<String>,
    events_per_sec: u64,
    duration_us: u64,
    iters: u64,
    attack_surface: jgre_fuzz::AttackSurface,
}

/// Prints `text` and a newline to stdout. A reader that went away
/// (`jgre serve | head -1`) leaves nothing to print to, so the process
/// ends quietly and successfully instead of panicking; any other write
/// error ends it with a message and a failure.
fn say(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn emit<T: serde::Serialize>(options: &Options, data: &T, rendered: String) {
    if options.json {
        say(&serde_json::to_string_pretty(data).expect("experiment structs serialise"));
    } else {
        say(&rendered);
    }
}

/// Writes `--out PATH`, when given: `data` as pretty JSON to `PATH` and
/// `rendered` to `PATH` with a `.txt` extension. These are the bytes the
/// bench harness's `write_artifact` writes, and none of the results
/// written here carries a wall-clock or thread-count field, so two runs
/// with the same seed write identical files (CI diffs them against the
/// committed goldens).
fn write_out<T: serde::Serialize>(
    options: &Options,
    data: &T,
    rendered: &str,
) -> Result<(), String> {
    let Some(path) = &options.out else {
        return Ok(());
    };
    let json = serde_json::to_string_pretty(data).expect("experiment structs serialise");
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let txt = path.with_extension("txt");
    std::fs::write(&txt, rendered).map_err(|e| format!("writing {}: {e}", txt.display()))
}

fn run(command: &str, options: &Options) -> Result<(), String> {
    let scale = options.scale;
    match command {
        "headline" => {
            let r = experiments::analysis_headline(scale);
            emit(options, &r, r.render());
        }
        "table1" => {
            let r = experiments::table1(scale);
            emit(options, &r, r.render());
        }
        "table2" => {
            let r = experiments::table2(scale);
            emit(options, &r, r.render());
        }
        "table3" => {
            let r = experiments::table3(scale);
            emit(options, &r, r.render());
        }
        "table4" => {
            let r = experiments::table4(scale);
            emit(options, &r, r.render());
        }
        "table5" => {
            let r = experiments::table5(scale);
            emit(options, &r, r.render());
        }
        "fig3" => {
            let r = experiments::fig3(scale);
            emit(options, &r, r.render());
        }
        "fig4" => {
            let (apps, secs) = if scale.jgr_capacity == jgre_core::art::MAX_GLOBAL_REFS {
                (300, 120)
            } else {
                (60, 20)
            };
            let r = experiments::fig4(scale, apps, secs);
            emit(options, &r, r.render());
        }
        "fig5" => {
            let r = experiments::fig5(scale);
            emit(options, &r, r.render());
        }
        "fig6" => {
            let calls = if scale.jgr_capacity == jgre_core::art::MAX_GLOBAL_REFS {
                1_000
            } else {
                200
            };
            let r = experiments::fig6(scale, calls);
            emit(options, &r, r.render());
        }
        "fig8" => {
            let r = experiments::fig8(scale, 10, usize::MAX);
            emit(options, &r, r.render());
        }
        "fig9" => {
            let r = experiments::fig9(scale);
            emit(options, &r, r.render());
        }
        "fig10" => {
            let r = experiments::fig10(scale, 500);
            emit(options, &r, r.render());
        }
        "response" => {
            let r = experiments::response_delay(scale);
            emit(options, &r, r.render());
        }
        "defend" => {
            let r = experiments::defense_effectiveness(scale);
            emit(options, &r, r.render());
        }
        "lint" => {
            let spec = jgre_corpus::AospSpec::android_6_0_1();
            let model = jgre_corpus::CodeModel::synthesize(&spec);
            let report = jgre_analysis::LintReport::generate_with(&model, &spec, &options.analysis);
            let rendered = if options.json {
                serde_json::to_string_pretty(&report).expect("lint report serialises")
            } else {
                serde_json::to_string_pretty(&report.to_sarif(&model)).expect("SARIF serialises")
            };
            say(&rendered);
            // The solver/cache footer goes to stderr so stdout stays
            // pure JSON for downstream SARIF consumers.
            eprintln!(
                "summaries: {} (hits {}, misses {})",
                report.stats.methods, report.stats.cache_hits, report.stats.cache_misses
            );
            // Machine-greppable score line for the CI accuracy gate.
            eprintln!(
                "accuracy: tp={} fp={} fn={}",
                report.accuracy.true_positives,
                report.accuracy.false_positives,
                report.accuracy.false_negatives
            );
        }
        "chaos" => {
            if options.list_cells {
                for id in experiments::chaos_cell_ids(options.fault) {
                    say(&id);
                }
                return Ok(());
            }
            let matrix = experiments::chaos_matrix(scale, options.fault);
            let rendered = matrix.render();
            write_out(options, &matrix, &rendered)?;
            emit(options, &matrix, rendered);
            if matrix.violations > 0 {
                return Err(format!(
                    "chaos matrix: {} recovery-invariant violation(s)",
                    matrix.violations
                ));
            }
        }
        "fleet" => {
            let attack = match options.attack.as_deref() {
                None | Some("all") => None,
                Some(selector) => {
                    let spec = jgre_corpus::AospSpec::android_6_0_1();
                    match jgre_core::attack::AttackVector::resolve(&spec, selector) {
                        Some((index, _)) => Some(index),
                        None => {
                            return Err(format!(
                                "unknown attack selector: {selector} (use a catalog index, \
                                 a service.method label, or 'all')"
                            ))
                        }
                    }
                }
            };
            let config = jgre_core::fleet::FleetConfig {
                devices: options.devices,
                threads: options.threads.unwrap_or(1),
                scale,
                campaign_seed: scale.seed,
                attack,
                max_calls: None,
            };
            let started = std::time::Instant::now();
            let summary = jgre_core::run_campaign(&config);
            let elapsed = started.elapsed();
            let rendered = summary.render();
            write_out(options, &summary, &rendered)?;
            emit(options, &summary, rendered);
            // Throughput is wall-clock and thread-dependent, so it goes to
            // stderr only; stdout and --out stay byte-reproducible.
            let secs = elapsed.as_secs_f64();
            let rate = if secs > 0.0 {
                summary.devices as f64 / secs
            } else {
                0.0
            };
            eprintln!(
                "fleet: {} devices in {:.2}s — {:.0} devices/sec on {} thread(s)",
                summary.devices, secs, rate, config.threads
            );
        }
        "fuzz" => {
            let config = jgre_fuzz::FuzzConfig {
                seed: scale.seed,
                iters: options.iters,
                threads: options.threads.unwrap_or(1),
                attack_surface: options.attack_surface,
                scale,
                services: None,
            };
            let started = std::time::Instant::now();
            let report = jgre_fuzz::run_fuzz(&config);
            let fuzz_elapsed = started.elapsed();
            // Differential stage: cross-check the dynamic findings
            // against the static lint, replaying lint-only predictions.
            let spec = jgre_corpus::AospSpec::android_6_0_1();
            let model = jgre_corpus::CodeModel::synthesize(&spec);
            let lint = jgre_analysis::LintReport::generate_with(&model, &spec, &options.analysis);
            let diff = jgre_fuzz::differential(&report, &lint.diagnostics, scale, config.seed);
            let artifact = jgre_fuzz::FuzzArtifact {
                fuzz: report,
                differential: diff,
            };
            let rendered = artifact.render();
            write_out(options, &artifact, &rendered)?;
            emit(options, &artifact, rendered);
            // Throughput is wall-clock and machine-dependent: stderr only.
            let secs = fuzz_elapsed.as_secs_f64();
            let total_execs = artifact.fuzz.execs + artifact.fuzz.minimize_execs;
            let (exec_rate, finding_rate) = if secs > 0.0 {
                (
                    total_execs as f64 / secs,
                    artifact.fuzz.findings.len() as f64 / secs,
                )
            } else {
                (0.0, 0.0)
            };
            eprintln!(
                "fuzz: {} execs in {:.2}s — {:.0} execs/sec, {:.2} findings/sec on {} thread(s)",
                total_execs, secs, exec_rate, finding_rate, config.threads
            );
        }
        "serve" => {
            let mut source = jgre_core::sim::source::SourceConfig {
                seed: scale.seed,
                events_per_sec: options.events_per_sec,
                duration: jgre_core::sim::SimDuration::from_micros(options.duration_us),
                ..jgre_core::sim::source::SourceConfig::default()
            };
            match options.attack.as_deref() {
                None | Some("all") => {}
                Some(selector) => {
                    let spec = jgre_corpus::AospSpec::android_6_0_1();
                    let Some((_, vector)) =
                        jgre_core::attack::AttackVector::resolve(&spec, selector)
                    else {
                        return Err(format!(
                            "unknown attack selector: {selector} (use a catalog index or a \
                             service.method label)"
                        ));
                    };
                    // Tap the vector on a simulated device and drive the
                    // synthetic stream with its measured timing signature.
                    let tap = jgre_core::tap_attack_events(scale, &vector, 40);
                    match tap.characteristic_delay() {
                        Some(delay) => source.attack_delay = delay,
                        None => {
                            return Err(format!(
                                "attack {selector} produced no IPC→JGR pairs to profile"
                            ))
                        }
                    }
                }
            }
            let config = jgre_core::defense::stream::ServeConfig {
                source,
                threads: options.threads.unwrap_or(1) as u32,
                ..jgre_core::defense::stream::ServeConfig::default()
            };
            let started = std::time::Instant::now();
            let report = jgre_core::defense::stream::run_serve(&config)
                .map_err(|e| format!("serve: {e}"))?;
            let elapsed = started.elapsed();
            let rendered = report.render();
            write_out(options, &report, &rendered)?;
            emit(options, &report, rendered);
            // Throughput is wall-clock and machine-dependent: stderr only.
            let secs = elapsed.as_secs_f64();
            let rate = if secs > 0.0 {
                report.ingest.offered as f64 / secs
            } else {
                0.0
            };
            eprintln!(
                "serve: {} events in {:.2}s — {:.0} events/sec on {} thread(s)",
                report.ingest.offered, secs, rate, config.threads
            );
        }
        "all" => {
            for cmd in [
                "headline", "table1", "table2", "table3", "table4", "table5", "fig3", "fig4",
                "fig5", "fig6", "fig8", "fig9", "fig10",
            ] {
                eprintln!("== {cmd} ==");
                run(cmd, options)?;
            }
            // `response` reads its rows off the §V-C runs that `defend`
            // renders, so the 57-vector sweep runs once for both.
            let defended = experiments::defense_effectiveness(scale);
            eprintln!("== response ==");
            let r = experiments::ResponseDelay::from_runs(&defended.runs);
            emit(options, &r, r.render());
            eprintln!("== defend ==");
            emit(options, &defended, defended.render());
        }
        other => return Err(format!("unknown command: {other}\n\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::quick();
    let mut json = false;
    let mut analysis = jgre_analysis::AnalysisOptions::default();
    let mut fault = None;
    let mut out = None;
    let mut list_cells = false;
    let mut threads = None;
    let mut devices = 1_000u64;
    let mut attack = None;
    let mut events_per_sec = 10_000u64;
    let mut duration_us = 1_000_000u64;
    let mut iters = 320_000u64;
    let mut attack_surface = jgre_fuzz::AttackSurface::All;
    let mut command = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            // with_seed keeps an earlier --seed override in force
            // regardless of flag order.
            "--paper" => scale = ExperimentScale::paper().with_seed(scale.seed),
            "--scale" => match iter.next().map(String::as_str) {
                Some("quick") => scale = ExperimentScale::quick().with_seed(scale.seed),
                Some("paper") => scale = ExperimentScale::paper().with_seed(scale.seed),
                _ => {
                    eprintln!("--scale needs 'quick' or 'paper'\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--devices" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => devices = n,
                _ => {
                    eprintln!("--devices needs a number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--attack" => match iter.next() {
                Some(selector) => attack = Some(selector.clone()),
                None => {
                    eprintln!("--attack needs a selector (or 'all')\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--events-per-sec" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => events_per_sec = n,
                _ => {
                    eprintln!("--events-per-sec needs a positive number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--duration" => match iter.next().map(|s| s.parse::<f64>()) {
                // The stream runs for this many whole virtual microseconds:
                // a value that truncates to none would stream nothing, and
                // a non-finite one, or one past u64 microseconds, would
                // saturate and never end.
                Some(Ok(s)) if s * 1e6 >= 1.0 && s * 1e6 < u64::MAX as f64 => {
                    duration_us = (s * 1e6) as u64;
                }
                _ => {
                    eprintln!("--duration needs a positive number of seconds\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--iters" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => iters = n,
                _ => {
                    eprintln!("--iters needs a number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--attack-surface" => {
                match iter.next().and_then(|s| jgre_fuzz::AttackSurface::parse(s)) {
                    Some(surface) => attack_surface = surface,
                    None => {
                        eprintln!("--attack-surface needs 'all', 'sdk', or 'hidden'\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => json = true,
            "--seed" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(seed)) => scale = scale.with_seed(seed),
                _ => {
                    eprintln!("--seed needs a number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--cache-dir" => match iter.next() {
                Some(dir) => analysis.cache_dir = Some(dir.into()),
                None => {
                    eprintln!("--cache-dir needs a directory\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--path-insensitive" => analysis.path_sensitive = false,
            "--threads" => match iter.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--fault" => match iter.next().map(String::as_str) {
                Some("all") => fault = None,
                Some(name) => match jgre_core::sim::FaultKind::parse(name) {
                    Some(kind) => fault = Some(kind),
                    None => {
                        eprintln!("unknown fault kind: {name}\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--fault needs a kind (or 'all')\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--list-cells" => list_cells = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.into()),
                None => {
                    eprintln!("--out needs a path\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                say(USAGE);
                return ExitCode::SUCCESS;
            }
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_owned());
            }
            other => {
                eprintln!("unexpected argument: {other}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(command) = command else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match run(
        &command,
        &Options {
            scale,
            json,
            analysis,
            fault,
            out,
            list_cells,
            threads,
            devices,
            attack,
            events_per_sec,
            duration_us,
            iters,
            attack_surface,
        },
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
