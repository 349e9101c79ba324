//! The coverage-guided campaign: probe sweep, spoof escalation, mutation
//! storm, and delta-debug minimization — all deterministic per seed.
//!
//! # Determinism contract
//!
//! Work is sharded **per service**: shard *s* draws its mutation decisions
//! from `SimRng::stream(seed, STREAM_BASE + s)` and boots every trial
//! device at `stream_seed(seed, trial_stream(s, seq))`, so a shard's
//! results depend only on `(seed, s)`. [`jgre_sim::shard`] deals shards
//! round-robin to worker threads and the merge folds
//! shards in index order, so the report is byte-identical for every
//! `--threads` value.
//!
//! # The leak oracle
//!
//! A probe sends [`PROBE_CALLS`] well-formed transactions from a fresh
//! app, forces a GC on the host, and reads the surviving JGR growth —
//! the paper's dynamic verification (§IV-C). Growth beyond
//! [`LEAK_THRESHOLD`] cannot be explained by any sound per-process cap
//! in the image (the largest is `MAX_ACTIVE_LOCKS = 50`), so the method
//! retains per call without bound. A probe that instead observes the
//! server-limit rejection edge earns a **spoof re-probe** with the
//! `"android"` package — the coverage-guided escalation that rediscovers
//! `enqueueToast`'s Code-Snippet 3 flaw without static hints.
//!
//! # Coverage keys
//!
//! A shard covers one service, so it keys its edges by `(method, outcome)`
//! in typed, `Copy` form: a `MethodKey` and an `Outcome`. An exec
//! files its result without formatting or copying a name; the merge
//! renders the report's `String` labels once per distinct outcome and
//! sums the per-shard edge and pair counts.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use jgre_binder::{NodeId, Parcel};
use jgre_core::fleet::DeviceArena;
use jgre_core::{DefendedDevice, ExperimentScale};
use jgre_corpus::spec::{AospSpec, MethodSpec, Permission, Protection, ProtectionLevel};
use jgre_framework::{CallOutcome, CallReject, CallStatus, FrameworkError, FIRST_CALL_TRANSACTION};
use jgre_sim::{stream_seed, Pid, SimRng, Uid};

use crate::input::{FuzzInput, ParcelOp};
use crate::report::{CoverageSummary, Finding, FuzzReport, LeakSignature, MinimizedRepro};

/// Well-formed calls per leak probe: enough to overshoot every sound
/// per-process cap with margin, small enough to stay far below the
/// defender's quick-scale kill trigger.
pub const PROBE_CALLS: u32 = 64;

/// The largest sound per-process cap on the image (`MAX_ACTIVE_LOCKS`
/// = 50 in `WifiManager.java`). GC-surviving growth beyond it cannot be
/// a capped interface.
pub const SOUND_CAP_MAX: usize = 50;

/// Probe growth at or above this is reported as a leak: strictly above
/// [`SOUND_CAP_MAX`] with margin for paired-release noise.
pub const LEAK_THRESHOLD: usize = SOUND_CAP_MAX + 6;

/// Offset separating shard RNG streams from trial-device seed streams.
const STREAM_BASE: u64 = 0x8000_0000;

/// Which slice of the IPC surface the fuzzer sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSurface {
    /// Every exported method.
    All,
    /// SDK-mediated methods: permission-gated or protection-wrapped.
    Sdk,
    /// Hidden methods: no permission, no protection — reachable only via
    /// raw transactions.
    Hidden,
}

impl AttackSurface {
    /// Parses the CLI selector.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "all" => Some(Self::All),
            "sdk" => Some(Self::Sdk),
            "hidden" => Some(Self::Hidden),
            _ => None,
        }
    }

    /// Stable label echoed into the report.
    pub fn label(self) -> &'static str {
        match self {
            Self::All => "all",
            Self::Sdk => "sdk",
            Self::Hidden => "hidden",
        }
    }

    fn admits(self, m: &MethodSpec) -> bool {
        let mediated = m.permission.is_some() || !matches!(m.protection, Protection::None);
        match self {
            Self::All => true,
            Self::Sdk => mediated,
            Self::Hidden => !mediated,
        }
    }
}

/// Fuzzer configuration. The report depends on every field except
/// `threads`.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed.
    pub seed: u64,
    /// Budgeted fuzz execs (transactions) across the whole surface,
    /// split across services proportionally to their method counts.
    pub iters: u64,
    /// Worker threads (shards deal round-robin; no effect on output).
    pub threads: usize,
    /// Surface selector.
    pub attack_surface: AttackSurface,
    /// Device scale for every trial boot.
    pub scale: ExperimentScale,
    /// Restrict the sweep to these services (tests pin single-service
    /// campaigns this way); `None` sweeps everything.
    pub services: Option<Vec<String>>,
}

impl FuzzConfig {
    /// Defaults: the scale's seed, a budget sized for a full probe sweep
    /// over the ~2430-method surface (64 calls each) plus spoof re-probes
    /// and a mutation tail, one thread, the whole surface.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            seed: scale.seed,
            iters: 320_000,
            threads: 1,
            attack_surface: AttackSurface::All,
            scale,
            services: None,
        }
    }
}

/// One method the plan targets.
struct MethodPlan {
    name: String,
    code: u32,
}

/// One service shard: its admitted methods, the permissions a fuzz app
/// requests up front, and its fixed exec budget.
struct ServicePlan {
    name: String,
    host: &'static str,
    methods: Vec<MethodPlan>,
    /// Size of the service's whole method table (admitted or not).
    method_count: u32,
    grantable: Vec<Permission>,
    budget: u64,
    /// Global exec index where this shard's budget window starts — what
    /// makes `discovered_at_exec` thread-count independent.
    exec_offset: u64,
}

/// Builds the shard plan from the public surface of the image: service
/// names, method tables in transaction-code order, and manifest-level
/// permission requirements. No retention behaviour, protection
/// soundness, or flaw information flows in — discovery stays dynamic.
fn build_plan(config: &FuzzConfig) -> Vec<ServicePlan> {
    let spec = AospSpec::android_6_0_1();
    let mut surface: Vec<(&'static str, &jgre_corpus::spec::ServiceSpec)> = Vec::new();
    for svc in &spec.services {
        surface.push(("system", svc));
    }
    for app in &spec.prebuilt_apps {
        for svc in &app.services {
            surface.push(("app", svc));
        }
    }
    surface.sort_by(|a, b| a.1.name.cmp(&b.1.name));
    let mut plans: Vec<ServicePlan> = surface
        .into_iter()
        .filter(|(_, svc)| match &config.services {
            Some(keep) => keep.iter().any(|k| k == &svc.name),
            None => true,
        })
        .filter_map(|(host, svc)| {
            let methods: Vec<MethodPlan> = svc
                .methods
                .iter()
                .enumerate()
                .filter(|(_, m)| config.attack_surface.admits(m))
                .map(|(i, m)| MethodPlan {
                    name: m.name.clone(),
                    code: i as u32 + FIRST_CALL_TRANSACTION,
                })
                .collect();
            if methods.is_empty() {
                return None;
            }
            let grantable: BTreeSet<Permission> = svc
                .methods
                .iter()
                .filter_map(|m| m.permission)
                .filter(|p| p.level() != ProtectionLevel::Signature)
                .collect();
            Some(ServicePlan {
                name: svc.name.clone(),
                host,
                methods,
                method_count: svc.methods.len() as u32,
                grantable: grantable.into_iter().collect(),
                budget: 0,
                exec_offset: 0,
            })
        })
        .collect();
    // Budget proportional to method count; the remainder tops up the
    // first shards. Fixed a priori, so it is identical for every thread
    // count.
    let total_methods: u64 = plans.iter().map(|p| p.methods.len() as u64).sum();
    let mut assigned = 0u64;
    for plan in &mut plans {
        plan.budget = (config.iters * plan.methods.len() as u64)
            .checked_div(total_methods)
            .unwrap_or(0);
        assigned += plan.budget;
    }
    let mut leftover = config.iters.saturating_sub(assigned);
    for plan in &mut plans {
        if leftover == 0 {
            break;
        }
        plan.budget += 1;
        leftover -= 1;
    }
    let mut offset = 0u64;
    for plan in &mut plans {
        plan.exec_offset = offset;
        offset += plan.budget;
    }
    plans
}

impl ServicePlan {
    /// Size of the service's whole method table (admitted or not): the
    /// storm draws codes from it.
    fn method_count(&self) -> u32 {
        self.method_count
    }

    /// The coverage key of a transaction code.
    fn key(&self, code: u32) -> MethodKey {
        match code.checked_sub(FIRST_CALL_TRANSACTION) {
            Some(position) if position < self.method_count => MethodKey::Method(position),
            _ => MethodKey::Unknown(code),
        }
    }
}

/// The method half of a shard's coverage key: `Method` holds a position
/// in the service's method table, `Unknown` a code outside it (labelled
/// `#<code>`). Method names are unique within a service (pinned by the
/// `method_names_are_unique_within_each_service` test), so keys and the
/// report's method labels correspond one to one and per-shard key
/// counts sum to the report's distinct `(service, method, outcome)`
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum MethodKey {
    Method(u32),
    Unknown(u32),
}

/// What one fuzz exec ended in: the typed form of the report's outcome
/// labels ([`label`](Self::label)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Completed,
    CompletedAbort,
    ServerLimit,
    Rejected(CallReject),
    /// An addressing error, by its `err:` label.
    Error(&'static str),
}

impl Outcome {
    fn of(result: &Result<CallOutcome, FrameworkError>) -> Self {
        match result {
            Ok(o) => match o.status {
                CallStatus::Completed if o.host_aborted => Outcome::CompletedAbort,
                CallStatus::Completed => Outcome::Completed,
                CallStatus::RejectedByServerLimit => Outcome::ServerLimit,
                CallStatus::Rejected(r) => Outcome::Rejected(r),
            },
            Err(e) => Outcome::Error(error_label(e)),
        }
    }

    /// The report's label: `rejected:<reason>` spells out
    /// [`CallReject::reason`].
    fn label(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::CompletedAbort => "completed-abort",
            Outcome::ServerLimit => "server-limit",
            Outcome::Rejected(r) => match r {
                CallReject::UnknownCode => "rejected:unknown-code",
                CallReject::Underflow => "rejected:parcel-underflow",
                CallReject::TypeConfusion => "rejected:parcel-type-mismatch",
                CallReject::StaleBinder => "rejected:stale-binder",
                CallReject::MissingBinder => "rejected:missing-binder",
                CallReject::OversizedPayload => "rejected:oversized-payload",
            },
            Outcome::Error(label) => label,
        }
    }

    /// Whether the handler ran: the pair counts as completed.
    fn completed(self) -> bool {
        matches!(self, Outcome::Completed | Outcome::CompletedAbort)
    }
}

/// Everything one shard produced; merged in shard order.
#[derive(Default)]
struct ShardOutcome {
    edges: BTreeSet<(MethodKey, Outcome)>,
    completed: BTreeSet<MethodKey>,
    outcomes: BTreeMap<Outcome, u64>,
    rejects: BTreeMap<&'static str, u64>,
    findings: Vec<Finding>,
    execs: u64,
    minimize_execs: u64,
    host_aborts: u64,
    detections: u64,
}

impl ShardOutcome {
    /// Files one exec's outcome under its coverage key; returns whether
    /// the edge is new.
    fn record(&mut self, key: MethodKey, outcome: Outcome) -> bool {
        *self.outcomes.entry(outcome).or_insert(0) += 1;
        if outcome.completed() {
            self.completed.insert(key);
        }
        self.execs += 1;
        self.edges.insert((key, outcome))
    }
}

/// One probe/minimization trial on a freshly booted device.
struct Trial {
    growth: usize,
    outcomes: Vec<Outcome>,
    aborts: u64,
    detections: u64,
    rejects: BTreeMap<&'static str, u64>,
}

/// Seed stream of trial `seq` within shard `shard` (disjoint from the
/// shard decision streams at [`STREAM_BASE`]).
const fn trial_stream(shard: usize, seq: u64) -> u64 {
    (shard as u64) << 24 | (seq & 0xFF_FFFF)
}

fn error_label(e: &FrameworkError) -> &'static str {
    match e {
        FrameworkError::UnknownApp => "err:unknown-app",
        FrameworkError::UnknownService(_) => "err:unknown-service",
        FrameworkError::UnknownMethod { .. } => "err:unknown-method",
        FrameworkError::PermissionDenied { .. } => "err:permission-denied",
        FrameworkError::HelperLimitExceeded { .. } => "err:helper-limit",
        FrameworkError::ServiceDead => "err:service-dead",
        FrameworkError::Binder(_) => "err:binder",
        FrameworkError::Art(_) => "err:art",
        _ => "err:other",
    }
}

/// What every exec of a worker reuses: one parcel, and the spoofed
/// package name the execs share instead of copying.
struct ExecBuffers {
    parcel: Parcel,
    spoofed_package: Rc<str>,
}

impl ExecBuffers {
    fn new() -> Self {
        Self {
            parcel: Parcel::new(),
            spoofed_package: "android".into(),
        }
    }
}

/// One worker thread's reusable state: the device arena every trial
/// boots from, and the exec buffers.
struct Worker {
    arena: DeviceArena,
    buffers: ExecBuffers,
}

impl Worker {
    fn new() -> Self {
        Self {
            arena: DeviceArena::new(),
            buffers: ExecBuffers::new(),
        }
    }
}

/// Builds the parcel from the input's recipe, in the worker's reused
/// parcel, and sends the transaction.
fn exec_once(
    device: &mut DefendedDevice,
    app: Uid,
    service: &str,
    input: &FuzzInput,
    buffers: &mut ExecBuffers,
) -> Result<CallOutcome, FrameworkError> {
    let parcel = &mut buffers.parcel;
    parcel.clear();
    for op in &input.ops {
        match op {
            ParcelOp::Package => {
                let pkg = match device.system().shared_package_of(app) {
                    Some(pkg) => Rc::clone(pkg),
                    None => "com.fuzz".into(),
                };
                parcel.write_string(pkg);
            }
            ParcelOp::SpoofedPackage => {
                parcel.write_string(Rc::clone(&buffers.spoofed_package));
            }
            ParcelOp::CallbackBinder => {
                let node = device.system_mut().create_callback_node(app)?;
                parcel.write_strong_binder(node);
            }
            ParcelOp::StaleBinder => {
                // The driver hands out node ids from a counter; u64::MAX
                // was never and will never be issued.
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
    device.transact_raw(app, service, input.code, parcel)
}

/// Boots a fresh device, installs a fresh fuzz app, replays `input`, and
/// reads the GC-surviving JGR growth of the service host. A plan service
/// missing from the booted image shows up as `err:unknown-service`
/// outcomes with zero growth, never as a panic.
fn run_trial(
    worker: &mut Worker,
    config: &FuzzConfig,
    plan: &ServicePlan,
    input: &FuzzInput,
    shard: usize,
    trial_seq: &mut u64,
) -> Trial {
    let Worker { arena, buffers } = worker;
    let seed = stream_seed(config.seed, trial_stream(shard, *trial_seq));
    *trial_seq += 1;
    let device = arena.boot(config.scale.with_seed(seed));
    let app = device.system_mut().install_app(
        format!("com.fuzz.{}", plan.name),
        plan.grantable.iter().copied(),
    );
    let gc_count = |device: &mut DefendedDevice, host: Option<Pid>| {
        let host = host?;
        device.system_mut().gc_process(host);
        device.system().jgr_count(host)
    };
    let host = device.system().service_host(&plan.name);
    let before = gc_count(device, host).unwrap_or(0);
    let mut outcomes = Vec::with_capacity(input.calls as usize);
    let mut aborts = 0u64;
    for _ in 0..input.calls {
        let result = exec_once(device, app, &plan.name, input, buffers);
        if matches!(&result, Ok(o) if o.host_aborted) {
            aborts += 1;
        }
        outcomes.push(Outcome::of(&result));
    }
    // Re-resolve the host: an abort mid-trial soft-reboots the image and
    // the service re-registers under a new pid.
    let host = device.system().service_host(&plan.name).or(host);
    let after = gc_count(device, host).unwrap_or(0);
    Trial {
        growth: after.saturating_sub(before),
        outcomes,
        aborts,
        detections: device.detections().len() as u64,
        rejects: device.system().reject_counts().clone(),
    }
}

fn absorb_trial(out: &mut ShardOutcome, key: MethodKey, trial: &Trial) {
    for &outcome in &trial.outcomes {
        out.record(key, outcome);
    }
    for (&reason, count) in &trial.rejects {
        *out.rejects.entry(reason).or_insert(0) += count;
    }
    out.host_aborts += trial.aborts;
    out.detections += trial.detections;
}

/// Delta-debugs a leaking input to its shortest reproducer: greedy op
/// removal (each surviving op is load-bearing), then a binary search for
/// the fewest calls whose growth still exceeds [`SOUND_CAP_MAX`].
fn minimize(
    worker: &mut Worker,
    config: &FuzzConfig,
    plan: &ServicePlan,
    base: &FuzzInput,
    shard: usize,
    trial_seq: &mut u64,
    out: &mut ShardOutcome,
) -> MinimizedRepro {
    let mut leaks = |input: &FuzzInput, seq: &mut u64, out: &mut ShardOutcome| {
        let trial = run_trial(worker, config, plan, input, shard, seq);
        out.minimize_execs += input.calls as u64;
        trial.growth > SOUND_CAP_MAX
    };
    let mut ops = base.ops.clone();
    let mut idx = 0;
    while idx < ops.len() {
        let mut candidate = ops.clone();
        candidate.remove(idx);
        let input = FuzzInput {
            code: base.code,
            ops: candidate.clone(),
            calls: base.calls,
        };
        if leaks(&input, trial_seq, out) {
            ops = candidate;
        } else {
            idx += 1;
        }
    }
    // Growth can never exceed the call count, so fewer than
    // SOUND_CAP_MAX + 1 calls cannot prove unboundedness.
    let mut lo = SOUND_CAP_MAX as u32 + 1;
    let mut hi = base.calls.max(lo);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let input = FuzzInput {
            code: base.code,
            ops: ops.clone(),
            calls: mid,
        };
        if leaks(&input, trial_seq, out) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    MinimizedRepro {
        code: base.code,
        ops: ops.iter().map(|op| op.label()).collect(),
        calls: hi,
    }
}

/// Runs one service shard end to end: probe sweep, spoof re-probes,
/// mutation storm.
fn fuzz_service(
    worker: &mut Worker,
    config: &FuzzConfig,
    plan: &ServicePlan,
    shard: usize,
) -> ShardOutcome {
    let mut out = ShardOutcome::default();
    let mut rng = SimRng::stream(config.seed, STREAM_BASE + shard as u64);
    let mut trial_seq = 0u64;
    let mut budget = plan.budget;

    // Phase 1 — probe sweep: the GC-verified leak oracle per method.
    let mut spoof_candidates: Vec<&MethodPlan> = Vec::new();
    let mut leak_findings: Vec<(usize, &MethodPlan, Trial, FuzzInput, LeakSignature)> = Vec::new();
    for m in &plan.methods {
        if budget < u64::from(PROBE_CALLS) {
            break;
        }
        budget -= u64::from(PROBE_CALLS);
        let mut input = FuzzInput::well_formed(m.code);
        input.calls = PROBE_CALLS;
        let trial = run_trial(worker, config, plan, &input, shard, &mut trial_seq);
        let spent = plan.budget - budget;
        if trial.growth >= LEAK_THRESHOLD {
            leak_findings.push((
                spent as usize,
                m,
                trial,
                input,
                LeakSignature::RetainPerCall,
            ));
        } else {
            if trial.outcomes.contains(&Outcome::ServerLimit) {
                // Coverage feedback: a capped interface earns a spoofed
                // re-probe — the Code-Snippet 3 escalation.
                spoof_candidates.push(m);
            }
            absorb_trial(&mut out, plan.key(m.code), &trial);
        }
    }
    for (spent, m, trial, input, signature) in leak_findings {
        absorb_trial(&mut out, plan.key(m.code), &trial);
        let minimized = minimize(
            worker,
            config,
            plan,
            &input,
            shard,
            &mut trial_seq,
            &mut out,
        );
        out.findings.push(Finding {
            service: plan.name.clone(),
            method: m.name.clone(),
            host: plan.host.to_owned(),
            signature,
            growth: trial.growth,
            probe_calls: input.calls,
            minimized,
            discovered_at_exec: plan.exec_offset + spent as u64,
        });
    }

    // Phase 1b — spoofed re-probes of server-capped methods.
    for m in spoof_candidates {
        if budget < u64::from(PROBE_CALLS) {
            break;
        }
        budget -= u64::from(PROBE_CALLS);
        let mut input = FuzzInput::spoofed(m.code);
        input.calls = PROBE_CALLS;
        let trial = run_trial(worker, config, plan, &input, shard, &mut trial_seq);
        let spent = plan.budget - budget;
        absorb_trial(&mut out, plan.key(m.code), &trial);
        if trial.growth >= LEAK_THRESHOLD {
            let minimized = minimize(
                worker,
                config,
                plan,
                &input,
                shard,
                &mut trial_seq,
                &mut out,
            );
            out.findings.push(Finding {
                service: plan.name.clone(),
                method: m.name.clone(),
                host: plan.host.to_owned(),
                signature: LeakSignature::SpoofBypass,
                growth: trial.growth,
                probe_calls: input.calls,
                minimized,
                discovered_at_exec: plan.exec_offset + spent,
            });
        }
    }

    // Phase 2 — mutation storm: spend the leftover budget on malformed
    // shapes, steered by edge novelty and JGR-growth feedback.
    if budget > 0 {
        let seed = stream_seed(config.seed, trial_stream(shard, trial_seq));
        let Worker { arena, buffers } = worker;
        let device = arena.boot(config.scale.with_seed(seed));
        let app = device.system_mut().install_app(
            format!("com.fuzz.{}", plan.name),
            plan.grantable.iter().copied(),
        );
        let method_count = plan.method_count();
        let mut corpus: Vec<FuzzInput> = plan
            .methods
            .iter()
            .map(|m| FuzzInput::well_formed(m.code))
            .collect();
        let mut prev_jgr = 0usize;
        // Each exec's input is mutated in this one buffer; only inputs
        // that join the corpus are copied out of it.
        let mut input = FuzzInput::well_formed(FIRST_CALL_TRANSACTION);
        while budget > 0 {
            budget -= 1;
            match corpus.is_empty() {
                false if rng.chance(0.7) => {
                    let idx: usize = rng.range(0..corpus.len());
                    input.clone_from(&corpus[idx]);
                }
                _ => input.set_well_formed(rng.range(1..=method_count.max(1))),
            }
            let mutations = 1 + rng.range(0..=2u32);
            for _ in 0..mutations {
                input.mutate(&mut rng, method_count);
            }
            let result = exec_once(device, app, &plan.name, &input, buffers);
            let mut interesting = out.record(plan.key(input.code), Outcome::of(&result));
            if let Ok(o) = &result {
                if o.host_aborted {
                    out.host_aborts += 1;
                }
                if o.host_jgr_count > prev_jgr {
                    interesting = true;
                }
                prev_jgr = o.host_jgr_count;
            }
            if interesting && corpus.len() < 256 {
                corpus.push(input.clone());
            }
        }
        out.detections += device.detections().len() as u64;
        for (&reason, count) in device.system().reject_counts() {
            *out.rejects.entry(reason).or_insert(0) += count;
        }
    }
    out
}

/// Replays a single well-formed leak probe against one
/// `(service, method)` pair on a freshly booted device and returns the
/// GC-surviving JGR growth, or `None` if the pair does not exist on the
/// image. The differential stage uses this to dynamically confirm or
/// refute lint-only predictions.
pub fn replay_probe(
    service: &str,
    method: &str,
    scale: ExperimentScale,
    seed: u64,
) -> Option<usize> {
    let spec = AospSpec::android_6_0_1();
    let svc = spec
        .services
        .iter()
        .chain(spec.prebuilt_apps.iter().flat_map(|a| a.services.iter()))
        .find(|s| s.name == service)?;
    let idx = svc.methods.iter().position(|m| m.name == method)?;
    let code = idx as u32 + FIRST_CALL_TRANSACTION;
    let grantable: BTreeSet<Permission> = svc
        .methods
        .iter()
        .filter_map(|m| m.permission)
        .filter(|p| p.level() != ProtectionLevel::Signature)
        .collect();
    let mut device = DefendedDevice::boot(scale.with_seed(seed));
    let app = device
        .system_mut()
        .install_app(format!("com.fuzz.replay.{service}"), grantable);
    let host = device.system().service_host(service)?;
    device.system_mut().gc_process(host);
    let before = device.system().jgr_count(host).unwrap_or(0);
    let mut input = FuzzInput::well_formed(code);
    input.calls = PROBE_CALLS;
    let mut buffers = ExecBuffers::new();
    for _ in 0..input.calls {
        let _ = exec_once(&mut device, app, service, &input, &mut buffers);
    }
    let host = device.system().service_host(service).unwrap_or(host);
    device.system_mut().gc_process(host);
    let after = device.system().jgr_count(host).unwrap_or(0);
    Some(after.saturating_sub(before))
}

/// Runs the whole campaign and folds the shards into a deterministic
/// [`FuzzReport`] — byte-identical for every `threads` value.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let plans = build_plan(config);
    let mut shard_outcomes: Vec<(usize, ShardOutcome)> =
        jgre_sim::shard(plans.len(), config.threads, |shards| {
            let mut worker = Worker::new();
            shards
                .map(|s| (s, fuzz_service(&mut worker, config, &plans[s], s)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    shard_outcomes.sort_by_key(|(s, _)| *s);

    // Each shard is one service, so its distinct keys are distinct
    // report labels and the global counts are the per-shard sums.
    let mut edges = 0usize;
    let mut completed = 0usize;
    let mut outcome_counts: BTreeMap<Outcome, u64> = BTreeMap::new();
    let mut rejects: BTreeMap<String, u64> = BTreeMap::new();
    let mut findings = Vec::new();
    let mut execs = 0u64;
    let mut minimize_execs = 0u64;
    let mut host_aborts = 0u64;
    let mut detections = 0u64;
    for (_, shard) in shard_outcomes {
        edges += shard.edges.len();
        completed += shard.completed.len();
        for (outcome, count) in shard.outcomes {
            *outcome_counts.entry(outcome).or_insert(0) += count;
        }
        for (reason, count) in shard.rejects {
            *rejects.entry(reason.to_owned()).or_insert(0) += count;
        }
        findings.extend(shard.findings);
        execs += shard.execs;
        minimize_execs += shard.minimize_execs;
        host_aborts += shard.host_aborts;
        detections += shard.detections;
    }
    let outcomes = outcome_counts
        .into_iter()
        .map(|(outcome, count)| (outcome.label().to_owned(), count))
        .collect();
    findings.sort_by(|a, b| {
        (&a.service, &a.method, a.signature).cmp(&(&b.service, &b.method, b.signature))
    });
    let execs_to_first_leak = findings.iter().map(|f| f.discovered_at_exec).min();
    let pairs: usize = plans.iter().map(|p| p.methods.len()).sum();
    FuzzReport {
        seed: config.seed,
        iters: config.iters,
        attack_surface: config.attack_surface.label().to_owned(),
        services: plans.len(),
        methods: pairs,
        execs,
        minimize_execs,
        coverage: CoverageSummary {
            edges,
            completed_pairs: completed,
            pairs,
            outcomes,
        },
        rejects,
        host_aborts,
        detections,
        execs_to_first_leak,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_labels_spell_out_the_reject_reason() {
        for reject in [
            CallReject::UnknownCode,
            CallReject::Underflow,
            CallReject::TypeConfusion,
            CallReject::StaleBinder,
            CallReject::MissingBinder,
            CallReject::OversizedPayload,
        ] {
            assert_eq!(
                Outcome::Rejected(reject).label(),
                format!("rejected:{}", reject.reason())
            );
        }
    }

    #[test]
    fn method_names_are_unique_within_each_service() {
        let plans = build_plan(&FuzzConfig::new(ExperimentScale::quick()));
        let spec = AospSpec::android_6_0_1();
        let services: Vec<_> = spec
            .services
            .iter()
            .chain(spec.prebuilt_apps.iter().flat_map(|a| a.services.iter()))
            .collect();
        assert_eq!(plans.len(), services.len());
        for plan in &plans {
            let Some(svc) = services.iter().find(|s| s.name == plan.name) else {
                panic!("{} is on the image", plan.name);
            };
            // Positional keys count report labels only while no two
            // methods of a service share a name.
            let names: BTreeSet<_> = svc.methods.iter().map(|m| &m.name).collect();
            assert_eq!(names.len(), svc.methods.len(), "{}", plan.name);
            assert_eq!(plan.method_count() as usize, svc.methods.len());
            for i in 0..plan.method_count() {
                assert_eq!(plan.key(i + FIRST_CALL_TRANSACTION), MethodKey::Method(i));
            }
            let past = plan.method_count() + FIRST_CALL_TRANSACTION;
            assert_eq!(plan.key(0), MethodKey::Unknown(0));
            assert_eq!(plan.key(past), MethodKey::Unknown(past));
        }
    }
}
