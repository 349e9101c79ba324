//! `fuzz`: the default 320k-exec coverage-guided campaign over the whole
//! surface on 2 worker threads (`jgre fuzz --threads 2`), then the
//! differential stage against the static lint.
//!
//! Every campaign's artifact must be byte-identical (the report does not
//! depend on the thread count, so it equals `jgre fuzz` for the same
//! seed) and no host may abort. A failure is a ground-truth leak — one
//! of the paper's 54 system interfaces or the 3 prebuilt-app ones — the
//! campaign did not rediscover.
//!
//! The traced section also replays seeded parcel recipes against every
//! service through `DefendedDevice::transact_raw`, which the campaign
//! runs internally, to time parcel building, raw dispatch by outcome and
//! the forced GC.

use std::collections::BTreeSet;
use std::time::Instant;

use jgre_analysis::{Diagnostic, LintReport};
use jgre_binder::{NodeId, Parcel};
use jgre_core::fleet::DeviceArena;
use jgre_core::{DefendedDevice, ExperimentScale};
use jgre_corpus::spec::{AospSpec, ProtectionLevel, ServiceSpec};
use jgre_corpus::CodeModel;
use jgre_framework::{CallStatus, FIRST_CALL_TRANSACTION};
use jgre_fuzz::{
    differential, run_fuzz, FuzzArtifact, FuzzConfig, FuzzInput, FuzzReport, ParcelOp,
};
use jgre_sim::{SimRng, Uid};

use crate::calib::{time_setups, Calibrator};
use crate::trace::{process_cpu_s, Samples, Trace};
use crate::{Deadline, Opts, Outcome};

const THREADS: usize = 2;
const SHORT_ITERS: u64 = 20_000;
const SETUP_REPS: usize = 41;
/// Mutated variants replayed per method in the traced probe.
const MUTANTS: usize = 2;
/// The dispatch rejection reasons the framework tallies.
const REJECT_REASONS: [(&str, &str); 6] = [
    ("unknown-code", "framework.rejects.unknown-code"),
    ("parcel-underflow", "framework.rejects.parcel-underflow"),
    (
        "parcel-type-mismatch",
        "framework.rejects.parcel-type-mismatch",
    ),
    ("stale-binder", "framework.rejects.stale-binder"),
    ("missing-binder", "framework.rejects.missing-binder"),
    ("oversized-payload", "framework.rejects.oversized-payload"),
];

/// Inputs `jgre fuzz` prepares besides the campaign itself: the lint the
/// differential stage compares against, and the ground truth to score.
struct Setup {
    scale: ExperimentScale,
    config: FuzzConfig,
    diagnostics: Vec<Diagnostic>,
    ground_truth: BTreeSet<(String, String)>,
}

fn build(opts: &Opts) -> Setup {
    let scale = ExperimentScale::quick().with_seed(opts.seed);
    let mut config = FuzzConfig::new(scale);
    config.threads = THREADS;
    if opts.short {
        config.iters = SHORT_ITERS;
    }
    let spec = AospSpec::android_6_0_1();
    let model = CodeModel::synthesize(&spec);
    let lint = LintReport::generate_with(&model, &spec, &Default::default());
    let ground_truth = spec
        .vulnerable_service_interfaces()
        .map(|(s, m)| (s.name.clone(), m.name.clone()))
        .chain(
            spec.vulnerable_prebuilt_interfaces()
                .map(|(_, s, m)| (s.name.clone(), m.name.clone())),
        )
        .collect();
    Setup {
        scale,
        config,
        diagnostics: lint.diagnostics,
        ground_truth,
    }
}

/// One campaign: the artifact plus its `run_fuzz` and total wall times.
struct Campaign {
    artifact: FuzzArtifact,
    json: String,
    fuzz_s: f64,
    total_s: f64,
    cpu_s: f64,
}

fn campaign(setup: &Setup, trace: Option<&mut Trace>) -> Campaign {
    let mut local = Trace::default();
    let trace = trace.unwrap_or(&mut local);
    let started = Instant::now();
    let cpu = process_cpu_s();
    let report = trace.time("fuzz.run", || run_fuzz(&setup.config));
    let fuzz_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu;
    let diff = trace.time("fuzz.differential", || {
        differential(&report, &setup.diagnostics, setup.scale, setup.config.seed)
    });
    let artifact = FuzzArtifact {
        fuzz: report,
        differential: diff,
    };
    let total_s = started.elapsed().as_secs_f64();
    let json = artifact.to_json();
    Campaign {
        artifact,
        json,
        fuzz_s,
        total_s,
        cpu_s,
    }
}

fn total_execs(report: &FuzzReport) -> u64 {
    report.execs + report.minimize_execs
}

/// Gate and failure count of one campaign against the first one.
fn score(out: &mut Outcome, setup: &Setup, campaign: &Campaign, reference: &str) {
    let report = &campaign.artifact.fuzz;
    let found: BTreeSet<(String, String)> = report
        .findings
        .iter()
        .map(|f| (f.service.clone(), f.method.clone()))
        .collect();
    out.attempted += setup.ground_truth.len() as u64;
    out.failed += setup.ground_truth.difference(&found).count() as u64;
    out.check(report.host_aborts == 0, || {
        format!("fuzz: {} host aborts", report.host_aborts)
    });
    out.check(campaign.json == reference, || {
        "fuzz: a campaign's artifact differs from the first one".to_owned()
    });
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    // Set-up runs on one thread, the campaign on THREADS.
    let mut setup_calibrator = Calibrator::new(1);
    let (raw_setups, setups) = time_setups(
        &mut setup_calibrator,
        if opts.short { 2 } else { SETUP_REPS },
        || {
            std::hint::black_box(build(opts));
        },
    );
    let setup = build(opts);

    let mut reference: Option<String> = None;
    let mut calibrator = Calibrator::new(THREADS);
    let mut raw_throughput = Samples::default();
    let mut throughput = Samples::default();
    let mut latency = Samples::default();
    let deadline = Deadline::after(opts.seconds);
    while throughput.len() == 0 || !deadline.passed() {
        let campaign = campaign(&setup, None);
        let factor = calibrator.factor();
        let reference = reference.get_or_insert_with(|| {
            let mut json = campaign.json.clone();
            if opts.corrupt {
                json.push(' ');
            }
            json
        });
        score(&mut out, &setup, &campaign, reference);
        let execs = total_execs(&campaign.artifact.fuzz) as f64;
        raw_throughput.push(execs / campaign.fuzz_s);
        throughput.push(execs / (campaign.fuzz_s * factor));
        latency.push(campaign.total_s * 1e3 * factor);
        if throughput.len() == 1 {
            if let Some(path) = &opts.artifact_out {
                if let Err(e) = std::fs::write(path, &campaign.json) {
                    out.problems
                        .push(format!("fuzz: writing {}: {e}", path.display()));
                }
            }
            let report = &campaign.artifact.fuzz;
            out.count("fuzz.edges", report.coverage.edges as u64);
            for (reason, name) in REJECT_REASONS {
                out.count(name, report.rejects.get(reason).copied().unwrap_or(0));
            }
        }
    }

    out.metric("throughput_per_s", throughput.median(), "1/s");
    out.metric("latency_p50_ms", latency.median(), "ms");
    out.metric("setup_s", setups.median(), "s");
    out.sample("throughput_per_s", &throughput);
    out.sample("latency_ms", &latency);
    out.sample("setup_s", &setups);
    out.sample("raw.throughput_per_s", &raw_throughput);
    out.sample("raw.setup_s", &raw_setups);
    out.sample("host.kernel_ms", &calibrator.kernel_ms());
    out
}

pub fn traced(opts: &Opts, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let setup = build(opts);

    let mut untraced_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut first: Option<(Trace, Campaign)> = None;
    let deadline = Deadline::after(seconds);
    while traced_wall.len() == 0 || !deadline.passed() {
        let plain = campaign(&setup, None);
        untraced_wall.push(plain.total_s);
        let reference = first
            .as_ref()
            .map_or(plain.json.clone(), |(_, c)| c.json.clone());
        score(&mut out, &setup, &plain, &reference);
        let mut trace = Trace::default();
        let traced = campaign(&setup, Some(&mut trace));
        traced_wall.push(traced.total_s);
        score(&mut out, &setup, &traced, &reference);
        first.get_or_insert((trace, traced));
    }
    let (trace, traced) = first.expect("at least one traced campaign");
    let report = &traced.artifact.fuzz;
    let execs = total_execs(report) as f64;

    let mut probe = Trace::default();
    replay_probe(opts, &setup, &mut probe);
    let mean_ns = |name: &str| probe.get(name).mean_ns();

    out.metric(
        "framework.transact_raw_ns.completed",
        mean_ns("framework.transact_raw.completed"),
        "ns",
    );
    out.metric(
        "framework.transact_raw_ns.rejected",
        mean_ns("framework.transact_raw.rejected"),
        "ns",
    );
    for (reason, name) in REJECT_REASONS {
        let count = report.rejects.get(reason).copied().unwrap_or(0);
        out.metric(name, count as f64, "count");
        out.count(name, count);
    }
    out.metric("framework.gc_us", mean_ns("framework.gc") / 1e3, "us");
    out.metric(
        "binder.parcel_build_ns",
        mean_ns("binder.parcel_build"),
        "ns",
    );
    out.metric(
        "fuzz.cpu_per_wall",
        traced.cpu_s / (traced.fuzz_s * THREADS as f64),
        "ratio",
    );
    out.metric(
        "fuzz.minimize_share",
        report.minimize_execs as f64 / execs,
        "ratio",
    );
    out.metric(
        "fuzz.findings_per_kexec",
        report.findings.len() as f64 / (execs / 1e3),
        "1/kexec",
    );
    out.metric("fuzz.edges", report.coverage.edges as f64, "count");
    out.metric(
        "fuzz.differential_ms",
        trace.get("fuzz.differential").total_ns as f64 / 1e6,
        "ms",
    );
    // The probe's per-exec cost (parcel build plus raw dispatch, weighted
    // by the campaign's own reject share) against the campaign's worker
    // time per exec.
    let rejected: u64 = report.rejects.values().sum();
    let rejected_share = rejected as f64 / execs;
    let attributed_ns = mean_ns("binder.parcel_build")
        + rejected_share * mean_ns("framework.transact_raw.rejected")
        + (1.0 - rejected_share) * mean_ns("framework.transact_raw.completed");
    let worker_ns = traced.fuzz_s * 1e9 * THREADS as f64 / execs;
    out.metric(
        "trace.fuzz.unattributed_share",
        1.0 - attributed_ns / worker_ns,
        "ratio",
    );
    out.metric(
        "trace.fuzz.overhead_share",
        traced_wall.median() / untraced_wall.median() - 1.0,
        "ratio",
    );
    out.count("fuzz.edges", report.coverage.edges as u64);
    out.sample("fuzz.untraced_campaign_s", &untraced_wall);
    out.sample("fuzz.traced_campaign_s", &traced_wall);
    out.extra("fuzz.spans", trace.to_value());
    out.extra("fuzz.probe_spans", probe.to_value());
    out
}

/// The fuzz surface in the campaign's order: system services, then the
/// prebuilt apps' services, sorted by name.
fn surface(spec: &AospSpec) -> Vec<&ServiceSpec> {
    let mut services: Vec<&ServiceSpec> = spec
        .services
        .iter()
        .chain(spec.prebuilt_apps.iter().flat_map(|a| a.services.iter()))
        .collect();
    services.sort_by(|a, b| a.name.cmp(&b.name));
    services
}

/// Replays, for every method of every service, the well-formed and the
/// spoofed recipe plus seeded mutants, one device per service, and times
/// the parcel build, the raw dispatch (by outcome) and a forced GC.
fn replay_probe(opts: &Opts, setup: &Setup, trace: &mut Trace) {
    let spec = AospSpec::android_6_0_1();
    let mut arena = DeviceArena::new();
    for (index, service) in surface(&spec).into_iter().enumerate() {
        let device = trace.time("core.arena_boot", || {
            arena.boot(setup.scale.with_seed(opts.seed.wrapping_add(index as u64)))
        });
        let grantable: BTreeSet<_> = service
            .methods
            .iter()
            .filter_map(|m| m.permission)
            .filter(|p| p.level() != ProtectionLevel::Signature)
            .collect();
        let app = device
            .system_mut()
            .install_app(format!("com.fuzz.{}", service.name), grantable);
        let mut rng = SimRng::stream(opts.seed, index as u64);
        let method_count = service.methods.len() as u32;
        for code in FIRST_CALL_TRANSACTION..FIRST_CALL_TRANSACTION + method_count {
            let mut recipes = vec![FuzzInput::well_formed(code), FuzzInput::spoofed(code)];
            for _ in 0..MUTANTS {
                let mut mutant = FuzzInput::well_formed(code);
                mutant.mutate(&mut rng, method_count);
                recipes.push(mutant);
            }
            for recipe in &recipes {
                let started = trace.start();
                let parcel = build_parcel(device, app, recipe);
                trace.end("binder.parcel_build", started);
                let Some(mut parcel) = parcel else {
                    continue;
                };
                let started = Instant::now();
                let result = device.transact_raw(app, &service.name, recipe.code, &mut parcel);
                let ns = started.elapsed().as_nanos() as u64;
                let name = match result.map(|o| o.status) {
                    Ok(CallStatus::Rejected(_)) => "framework.transact_raw.rejected",
                    Ok(_) => "framework.transact_raw.completed",
                    Err(_) => "framework.transact_raw.error",
                };
                trace.record(name, ns);
            }
        }
        if let Some(info) = device.system().service_info(&service.name) {
            trace.time("framework.gc", || device.system_mut().gc_process(info.host));
        }
    }
}

/// Writes a recipe's parcel as the fuzz engine does; `None` when the
/// callback binder cannot be created (the app was killed).
fn build_parcel(device: &mut DefendedDevice, app: Uid, recipe: &FuzzInput) -> Option<Parcel> {
    let mut parcel = Parcel::new();
    for op in &recipe.ops {
        match op {
            ParcelOp::Package => {
                let package = device
                    .system()
                    .package_of(app)
                    .unwrap_or("com.fuzz")
                    .to_owned();
                parcel.write_string(package);
            }
            ParcelOp::SpoofedPackage => {
                parcel.write_string("android");
            }
            ParcelOp::CallbackBinder => {
                let node = device.system_mut().create_callback_node(app).ok()?;
                parcel.write_strong_binder(node);
            }
            ParcelOp::StaleBinder => {
                parcel.write_strong_binder(NodeId::new(u64::MAX));
            }
            ParcelOp::JunkI32 => {
                parcel.write_i32(0x7F7F_7F7F);
            }
            ParcelOp::JunkI64 => {
                parcel.write_i64(0x7F7F_7F7F_7F7F_7F7F);
            }
            ParcelOp::Blob(size) => {
                parcel.write_blob(*size);
            }
        }
    }
    Some(parcel)
}
