//! `lint`: the static pipeline (`jgre lint`) on the base corpus amplified
//! 4× (14,928 methods), one thread.
//!
//! Cold ops run `LintReport::generate_with` without a cache, plus the
//! SARIF render — they bypass the summary cache. Edit passes start from
//! the populated cache of the unedited corpus and apply a seeded
//! sequence of one-method `binder_params` edits, re-linting through the
//! cache after each — they exercise it. Every lint must score
//! tp=54 fp=0 fn=0 with 65 diagnostics, and the last cached lint of each
//! pass must equal an uncached lint of the same edited corpus.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use jgre_analysis::{
    cache, condense_call_graph, corpus_fingerprint, intra_solver_cost, method_fact_fingerprints,
    AnalysisOptions, DataflowDetector, IpcMethodExtractor, JgrEntryExtractor, JgrEntrySets,
    LeakChecker, LintReport, CACHE_FILE,
};
use jgre_corpus::spec::AospSpec;
use jgre_corpus::{CodeModel, MethodId, ParamUsage};
use jgre_sim::SimRng;
use serde_json::Value;

use crate::calib::{time_setups, Calibrator};
use crate::trace::{num, Samples, Trace};
use crate::{Deadline, Opts, Outcome};

const COPIES: usize = 4;
const SHORT_COPIES: usize = 2;
const EDITS_PER_PASS: usize = 32;
/// Edits between two host-speed measurements in a pass.
const EDIT_SEGMENT: usize = 8;
const SETUP_REPS: usize = 41;
/// Rounds of the per-stage probe in a traced run.
const PROBE_REPS: usize = 15;
/// How far below zero (as a share of the op) a derived stage may read
/// before the run warns about it.
const DERIVED_TOLERANCE: f64 = 0.1;
/// Share of the window spent on cold (uncached) lints.
const COLD_SHARE: f64 = 0.3;
/// What every lint of this corpus must report.
const EXPECTED_TP: usize = 54;
const EXPECTED_DIAGNOSTICS: usize = 65;

/// Replicates every method `copies` times with suffixed class names and
/// offset call ids: a corpus several times the AOSP seed whose fact
/// fingerprints all stay distinct.
fn amplify(base: &CodeModel, copies: usize) -> CodeModel {
    let n = base.methods.len();
    let mut model = base.clone();
    for j in 1..copies {
        for def in &base.methods {
            let mut copy = def.clone();
            copy.id = MethodId((def.id.0 as usize + j * n) as u32);
            copy.class = format!("{}__copy{j}", def.class);
            for callee in copy.calls.iter_mut().chain(copy.handler_posts.iter_mut()) {
                *callee = MethodId((callee.0 as usize + j * n) as u32);
            }
            model.methods.push(copy);
        }
    }
    model
}

/// The workload's set-up: spec and corpus synthesis, amplification.
fn build(opts: &Opts) -> (AospSpec, CodeModel) {
    let spec = AospSpec::android_6_0_1();
    let base = CodeModel::synthesize(&spec);
    let model = amplify(&base, if opts.short { SHORT_COPIES } else { COPIES });
    (spec, model)
}

/// The seeded edit sequence: distinct replica methods, each with the
/// binder parameter to flip. Replicas are not IPC entry points, so the
/// findings stay fixed while their summaries change.
fn edit_plan(model: &CodeModel, seed: u64) -> Vec<(usize, usize)> {
    let mut candidates: Vec<usize> = model
        .methods
        .iter()
        .enumerate()
        .filter(|(_, d)| d.class.contains("__copy") && !d.binder_params.is_empty())
        .map(|(i, _)| i)
        .collect();
    let mut rng = SimRng::stream(seed, 0x11);
    rng.shuffle(&mut candidates);
    candidates
        .into_iter()
        .take(EDITS_PER_PASS)
        .map(|method| {
            (
                method,
                rng.range(0..model.methods[method].binder_params.len()),
            )
        })
        .collect()
}

fn apply_edit(model: &mut CodeModel, (method, param): (usize, usize)) {
    let usage = &mut model.methods[method].binder_params[param];
    *usage = if *usage == ParamUsage::LocalOnly {
        ParamUsage::StoredInCollection
    } else {
        ParamUsage::LocalOnly
    };
}

/// One lint as `jgre lint` runs it: report plus rendered SARIF.
fn lint(model: &CodeModel, spec: &AospSpec, options: &AnalysisOptions) -> (LintReport, String) {
    let report = LintReport::generate_with(model, spec, options);
    let sarif = render_sarif(&report, model);
    (report, sarif)
}

fn render_sarif(report: &LintReport, model: &CodeModel) -> String {
    serde_json::to_string_pretty(&report.to_sarif(model)).expect("SARIF serialises")
}

/// Counts a lint and applies the accuracy gate.
fn score(out: &mut Outcome, report: &LintReport) {
    out.attempted += 1;
    let a = &report.accuracy;
    if (a.true_positives, a.false_positives, a.false_negatives) != (EXPECTED_TP, 0, 0)
        || report.diagnostics.len() != EXPECTED_DIAGNOSTICS
    {
        out.failed += 1;
    }
}

/// The findings of a lint: diagnostics, accuracy and the SARIF results,
/// without the solver and cache statistics (which differ by design
/// between cached and uncached runs).
fn findings(report: &LintReport, model: &CodeModel) -> String {
    format!(
        "{}\n{}\n{}",
        serde_json::to_string(&report.diagnostics).expect("diagnostics serialise"),
        serde_json::to_string(&report.accuracy).expect("accuracy serialises"),
        serde_json::to_string(&report.to_sarif(model)["runs"][0]["results"])
            .expect("SARIF serialises"),
    )
}

/// Cache directory plus the pristine cache bytes of the unedited corpus.
struct EditBench {
    dir: PathBuf,
    options: AnalysisOptions,
    pristine: Vec<u8>,
    plan: Vec<(usize, usize)>,
    /// Uncached findings of the corpus after the whole plan.
    expected: String,
}

impl EditBench {
    fn new(opts: &Opts, model: &CodeModel, spec: &AospSpec) -> Self {
        let dir = opts
            .scratch
            .join(format!("lint-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        let options = AnalysisOptions::with_cache_dir(&dir);
        LintReport::generate_with(model, spec, &options);
        let pristine = std::fs::read(dir.join(CACHE_FILE)).expect("the lint populated its cache");
        let plan = edit_plan(model, opts.seed);
        let mut edited = model.clone();
        for edit in &plan {
            apply_edit(&mut edited, *edit);
        }
        let (report, _) = lint(&edited, spec, &AnalysisOptions::default());
        Self {
            dir,
            options,
            pristine,
            plan,
            expected: findings(&report, &edited),
        }
    }

    fn cache_path(&self) -> PathBuf {
        self.dir.join(CACHE_FILE)
    }

    /// One edit pass; `relint` runs each timed re-lint. With a
    /// calibrator, the host is measured after every [`EDIT_SEGMENT`]
    /// edits; the edits in between run back to back. Returns the per-edit
    /// wall times (ms), raw and normalised, and the summed cache hits and
    /// misses.
    fn pass(
        &self,
        out: &mut Outcome,
        model: &CodeModel,
        mut calibrator: Option<&mut Calibrator>,
        mut relint: impl FnMut(&CodeModel) -> (LintReport, String),
    ) -> EditTimes {
        let mut edited = model.clone();
        std::fs::write(self.cache_path(), &self.pristine).expect("scratch directory is writable");
        if let Some(calibrator) = calibrator.as_deref_mut() {
            calibrator.sample();
        }
        let mut times = EditTimes::default();
        let mut segment = Samples::default();
        let mut last = None;
        for (i, edit) in self.plan.iter().enumerate() {
            apply_edit(&mut edited, *edit);
            let started = Instant::now();
            let (report, sarif) = relint(&edited);
            segment.push(started.elapsed().as_secs_f64() * 1e3);
            if (i + 1) % EDIT_SEGMENT == 0 || i + 1 == self.plan.len() {
                let factor = calibrator.as_deref_mut().map_or(1.0, Calibrator::factor);
                times.raw.extend(&segment);
                times.normalised.extend(&segment.map(|ms| ms * factor));
                segment = Samples::default();
            }
            std::hint::black_box(sarif);
            score(out, &report);
            times.hits += report.stats.cache_hits;
            times.misses += report.stats.cache_misses;
            last = Some(report);
        }
        if let Some(report) = last {
            out.check(findings(&report, &edited) == self.expected, || {
                "lint: the cached lint of the edited corpus differs from an uncached lint"
                    .to_owned()
            });
        }
        times
    }
}

/// What one edit pass measured.
#[derive(Debug, Default)]
struct EditTimes {
    /// Per-edit wall time, ms.
    raw: Samples,
    /// The same, normalised to the reference host.
    normalised: Samples,
    hits: u64,
    misses: u64,
}

impl Drop for EditBench {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut calibrator = Calibrator::new(1);
    let (raw_setups, setups) = time_setups(
        &mut calibrator,
        if opts.short { 2 } else { SETUP_REPS },
        || {
            std::hint::black_box(build(opts));
        },
    );
    let (spec, model) = build(opts);
    let uncached = AnalysisOptions::default();

    // Warm-up lint, which is also the cold reference.
    let (reference, _) = lint(&model, &spec, &uncached);
    let mut raw_cold = Samples::default();
    let mut cold = Samples::default();
    calibrator.sample();
    let deadline = Deadline::after(opts.seconds * COLD_SHARE);
    while cold.len() == 0 || !deadline.passed() {
        let started = Instant::now();
        let (report, sarif) = lint(&model, &spec, &uncached);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        raw_cold.push(ms);
        cold.push(ms * calibrator.factor());
        std::hint::black_box(sarif);
        score(&mut out, &report);
    }

    let mut bench = EditBench::new(opts, &model, &spec);
    if opts.corrupt {
        bench.expected.push(' ');
    }
    let mut raw_edits = Samples::default();
    let mut edits = Samples::default();
    let deadline = Deadline::after(opts.seconds * (1.0 - COLD_SHARE));
    while edits.len() == 0 || !deadline.passed() {
        let times = bench.pass(&mut out, &model, Some(&mut calibrator), |m| {
            lint(m, &spec, &bench.options)
        });
        raw_edits.extend(&times.raw);
        edits.extend(&times.normalised);
    }

    let throughput = cold.map(|ms| 1e3 / ms);
    out.metric("throughput_per_s", throughput.median(), "1/s");
    out.metric("latency_p50_ms", edits.median(), "ms");
    out.metric("setup_s", setups.median(), "s");
    out.sample("throughput_per_s", &throughput);
    out.sample("cold_ms", &cold);
    out.sample("latency_ms", &edits);
    out.sample("setup_s", &setups);
    out.sample("raw.cold_ms", &raw_cold);
    out.sample("raw.latency_ms", &raw_edits);
    out.sample("raw.setup_s", &raw_setups);
    out.sample("host.kernel_ms", &calibrator.kernel_ms());
    out.extra("cold_ms", num(cold.median()));
    out.extra("latency_p90_ms", num(edits.quantile(0.9)));
    out.count("analysis.cfg_blocks", reference.stats.cfg_blocks as u64);
    out.count(
        "analysis.solver_iterations",
        reference.stats.solver_iterations,
    );
    out
}

pub fn traced(opts: &Opts, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = Trace::default();
    let (spec, base) = probe.time("corpus.synthesize", || {
        let spec = AospSpec::android_6_0_1();
        let base = CodeModel::synthesize(&spec);
        (spec, base)
    });
    let model = amplify(&base, if opts.short { SHORT_COPIES } else { COPIES });
    let uncached = AnalysisOptions::default();
    let (reference, _) = lint(&model, &spec, &uncached);
    let bench = EditBench::new(opts, &model, &spec);

    // Alternate untraced and traced cold lints, then traced edit passes.
    let mut untraced_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut trace = Trace::default();
    let (mut hits, mut misses) = (0, 0);
    let deadline = Deadline::after(seconds);
    while traced_wall.len() == 0 || !deadline.passed() {
        let started = Instant::now();
        let (report, _) = lint(&model, &spec, &uncached);
        untraced_wall.push(started.elapsed().as_secs_f64());
        score(&mut out, &report);

        let started = Instant::now();
        let report = trace.time("analysis.generate", || {
            LintReport::generate_with(&model, &spec, &uncached)
        });
        trace.time("analysis.sarif", || render_sarif(&report, &model));
        traced_wall.push(started.elapsed().as_secs_f64());
        score(&mut out, &report);

        let times = bench.pass(&mut out, &model, None, |edited| {
            let report = trace.time("analysis.generate_cached", || {
                LintReport::generate_with(edited, &spec, &bench.options)
            });
            let sarif = trace.time("analysis.sarif_cached", || render_sarif(&report, edited));
            (report, sarif)
        });
        hits += times.hits;
        misses += times.misses;
    }

    // Component probe: each public stage of the pipeline, uncached, on the
    // same corpus, next to the whole op (`generate_with` + SARIF) in the
    // same round. `generate_with` runs extract → detect (which runs
    // `analyze`: fingerprint, condense, intra solve, then the summary
    // fold) → diagnostics. Each timed stage counts with its fastest
    // round, the one the host disturbed least; the stages without a
    // public call of their own are derived from those by subtraction.
    let rounds: Vec<BTreeMap<&str, f64>> = (0..PROBE_REPS)
        .map(|_| probe_round(&mut probe, &model, &spec, &uncached))
        .collect();
    let mut stage: BTreeMap<&str, f64> = rounds[0]
        .keys()
        .map(|name| {
            let fastest = rounds.iter().map(|r| r[name]).fold(f64::INFINITY, f64::min);
            (*name, fastest)
        })
        .collect();
    stage.insert(
        "fold",
        stage["analyze"] - stage["fingerprint"] - stage["condense"] - stage["intra_solve"],
    );
    stage.insert("detect_self", stage["detect"] - stage["analyze"]);
    stage.insert(
        "diagnostics",
        stage["generate"] - stage["extract"] - stage["detect"],
    );
    stage.insert("op", stage["generate"] + stage["sarif"]);
    // A derived stage far below zero means the timed stages overlap (one
    // runs inside another) or the host's speed changed between them; it
    // is recorded as a warning, since timing noise is not a wrong output.
    let tolerance = DERIVED_TOLERANCE * stage["op"];
    for derived in ["fold", "detect_self", "diagnostics"] {
        let value = stage[derived];
        out.warn(value > -tolerance, || {
            format!("lint: the derived {derived} stage is {value:.3} ms, below -{tolerance:.3} ms")
        });
    }
    let cache_bytes = cache_probe(&mut probe, &bench, &model, &opts.scratch).unwrap_or_else(|e| {
        out.problems.push(e);
        0
    });
    let ms =
        |t: &Trace, name: &str| t.get(name).total_ns as f64 / t.get(name).count.max(1) as f64 / 1e6;
    let attributed: f64 = ATTRIBUTED.iter().map(|name| stage[name]).sum();

    out.metric(
        "corpus.synthesize_ms",
        ms(&probe, "corpus.synthesize"),
        "ms",
    );
    out.metric("analysis.extract_ms", stage["extract"], "ms");
    out.metric("analysis.condense_ms", stage["condense"], "ms");
    out.metric("analysis.intra_solve_ms", stage["intra_solve"], "ms");
    out.metric("analysis.fold_ms", stage["fold"], "ms");
    out.metric(
        "analysis.cfg_blocks",
        reference.stats.cfg_blocks as f64,
        "count",
    );
    out.metric(
        "analysis.solver_iterations",
        reference.stats.solver_iterations as f64,
        "count",
    );
    out.metric("analysis.fingerprint_ms", stage["fingerprint"], "ms");
    out.metric(
        "analysis.cache_load_ms",
        ms(&probe, "analysis.cache_load"),
        "ms",
    );
    out.metric(
        "analysis.cache_store_ms",
        ms(&probe, "analysis.cache_store"),
        "ms",
    );
    out.metric("analysis.cache_bytes", cache_bytes as f64, "bytes");
    out.metric(
        "analysis.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("analysis.diagnostics_ms", stage["diagnostics"], "ms");
    out.metric("analysis.sarif_ms", stage["sarif"], "ms");
    out.metric(
        "trace.lint.unattributed_share",
        1.0 - attributed / stage["op"],
        "ratio",
    );
    out.metric(
        "trace.lint.overhead_share",
        traced_wall.median() / untraced_wall.median() - 1.0,
        "ratio",
    );
    out.count("analysis.cfg_blocks", reference.stats.cfg_blocks as u64);
    out.count(
        "analysis.solver_iterations",
        reference.stats.solver_iterations,
    );
    out.sample("lint.untraced_cold_s", &untraced_wall);
    out.sample("lint.traced_cold_s", &traced_wall);
    out.extra("lint.spans", trace.to_value());
    out.extra("lint.probe_spans", probe.to_value());
    out.extra(
        "lint.stages_ms",
        Value::Object(
            stage
                .iter()
                .map(|(name, ms)| ((*name).to_owned(), num(*ms)))
                .collect(),
        ),
    );
    out
}

/// Stages whose public calls the probe times; their sum against the
/// op's wall time gives the unattributed share. `diagnostics` is not
/// among them: it has no public call and is what remains of the op.
const ATTRIBUTED: [&str; 7] = [
    "extract",
    "fingerprint",
    "condense",
    "intra_solve",
    "fold",
    "detect_self",
    "sarif",
];

/// One probe round: every public stage of one uncached lint and the
/// whole `generate_with`, each timed on its own, in ms.
fn probe_round(
    probe: &mut Trace,
    model: &CodeModel,
    spec: &AospSpec,
    options: &AnalysisOptions,
) -> BTreeMap<&'static str, f64> {
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let started = probe.start();
        f();
        probe.end(name, started) as f64 / 1e6
    };
    let mut ipc = None;
    let mut entries = None;
    let extract = time("analysis.extract", &mut || {
        ipc = Some(IpcMethodExtractor::new(model).extract());
        entries = Some(JgrEntryExtractor::new(model).extract());
    });
    let (ipc, entries) = (ipc.expect("extracted"), entries.expect("extracted"));
    let is_entry = entry_mask(model, &entries);
    let fingerprint = time("analysis.fingerprint", &mut || {
        std::hint::black_box(method_fact_fingerprints(model, &is_entry));
    });
    let condense = time("analysis.condense", &mut || {
        std::hint::black_box(condense_call_graph(model));
    });
    let intra_solve = time("analysis.intra_solve", &mut || {
        std::hint::black_box(intra_solver_cost(model));
    });
    let analyze = time("analysis.analyze", &mut || {
        std::hint::black_box(
            LeakChecker::new(model)
                .with_entries(&entries)
                .analyze_with(options),
        );
    });
    let detect = time("analysis.detect", &mut || {
        std::hint::black_box(DataflowDetector::new(model, &entries).detect_with(&ipc, options));
    });
    let mut report = None;
    let generate = time("analysis.generate", &mut || {
        report = Some(LintReport::generate_with(model, spec, options));
    });
    let report = report.expect("generated");
    let sarif = time("analysis.sarif", &mut || {
        std::hint::black_box(render_sarif(&report, model));
    });
    BTreeMap::from([
        ("extract", extract),
        ("fingerprint", fingerprint),
        ("condense", condense),
        ("intra_solve", intra_solve),
        ("analyze", analyze),
        ("detect", detect),
        ("generate", generate),
        ("sarif", sarif),
    ])
}

/// Times loading the edited corpus's cache file and storing it again
/// (to a sibling path); returns the file's size in bytes.
fn cache_probe(
    probe: &mut Trace,
    bench: &EditBench,
    model: &CodeModel,
    scratch: &Path,
) -> Result<u64, String> {
    let mut edited = model.clone();
    for edit in &bench.plan {
        apply_edit(&mut edited, *edit);
    }
    let entries = JgrEntryExtractor::new(&edited).extract();
    let fp = corpus_fingerprint(&method_fact_fingerprints(
        &edited,
        &entry_mask(&edited, &entries),
    ))
    .0;
    let path = bench.cache_path();
    let target = scratch.join(format!("lint-store-probe-{}.bin", std::process::id()));
    for _ in 0..PROBE_REPS {
        let loaded = probe.time("analysis.cache_load", || {
            cache::load(&path, fp, edited.methods.len())
        });
        let tier_a = loaded
            .tier_a
            .as_deref()
            .map(cache::encode_tier_a)
            .ok_or("lint: the edited corpus's cache has no Tier A")?;
        probe
            .time("analysis.cache_store", || {
                cache::store(&target, fp, loaded.scc_count, &tier_a, &loaded.tier_b)
            })
            .map_err(|e| format!("lint: storing the cache probe: {e}"))?;
    }
    std::fs::remove_file(&target).ok();
    std::fs::metadata(&path)
        .map(|m| m.len())
        .map_err(|e| format!("lint: reading the cache size: {e}"))
}

fn entry_mask(model: &CodeModel, entries: &JgrEntrySets) -> Vec<bool> {
    let mut mask = vec![false; model.methods.len()];
    for id in &entries.java_entries {
        mask[id.0 as usize] = true;
    }
    mask
}
