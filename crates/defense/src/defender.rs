//! Phase 3: the JGRE Defender service.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use jgre_binder::{IpcMethod, IpcRecord, LogNameId};
use jgre_framework::{KillOutcome, System};
use jgre_sim::{CrashPoint, Pid, SimDuration, SimTime, Uid};
use serde::Serialize;

use crate::{segment_tree_scores, DefenseError, JgrMonitor, ScoreParams, ScoreReport, UidScore};

mod durable;

use durable::Durable;
pub use durable::{DurableConfig, RecoveryStats};

/// Escalating correlation windows (§V-D.1). Detection retries with the
/// next window when the best score is not confident — the mechanism
/// behind the paper's three slow (>1 s) detections.
const WINDOWS: [SimDuration; 3] = [
    SimDuration::from_millis(8),
    SimDuration::from_millis(16),
    SimDuration::from_millis(32),
];

/// Stopping rule for the §V-D.1 window escalation: the top score must
/// explain at least this fraction of the victim's recorded adds.
const CONFIDENCE: f64 = 0.35;

/// Correlation watchdog floor. Not a paper parameter: Algorithm 1
/// assumes a complete driver log (§V-B). When the fraction of IPC log
/// records that survived in the scored horizon (estimated from driver
/// sequence-number gaps) falls below this, the defender falls back to
/// per-UID call-count scoring and reports
/// [`DegradationCause::LowIpcCoverage`].
const COVERAGE_FLOOR: f64 = 0.95;

/// Defender tuning. The defaults are the paper's deployed parameters.
/// Algorithm 1's Δ and bin width come from [`ScoreParams::default`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DefenderConfig {
    /// Runtime starts recording JGR event times at this table size.
    pub record_threshold: usize,
    /// Runtime alerts the defender at this table size.
    pub trigger_threshold: usize,
    /// Recovery target: kill until the victim's table is back below this
    /// (Observation 1 puts the benign band under ~3000).
    pub normal_level: usize,
    /// Safety valve on kills per detection.
    pub max_kills: usize,
    /// §VI extension: classify IPC calls by code-execution path before
    /// scoring. A multi-path attacker splits its timing signature across
    /// paths; per-path buckets restore the concentration.
    pub classify_paths: bool,
    /// Retries per victim when `am force-stop` fails (fault injection);
    /// each retry backs off exponentially from
    /// [`kill_backoff`](Self::kill_backoff).
    pub kill_retries: u32,
    /// Initial backoff after a failed kill; doubles per retry.
    pub kill_backoff: SimDuration,
    /// Alarm hysteresis: after finishing a pass for a victim, further
    /// alarms on the same pid are ignored for this long, so a flapping
    /// table (e.g. kills that keep failing or respawning) cannot trigger
    /// a kill storm. Zero disables hysteresis (the paper's behaviour).
    pub cooldown: SimDuration,
}

impl Default for DefenderConfig {
    fn default() -> Self {
        Self {
            record_threshold: crate::RECORD_THRESHOLD,
            trigger_threshold: crate::TRIGGER_THRESHOLD,
            normal_level: 3_000,
            max_kills: 8,
            classify_paths: false,
            kill_retries: 3,
            kill_backoff: SimDuration::from_millis(10),
            cooldown: SimDuration::ZERO,
        }
    }
}

/// Which ranking produced a detection's scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScoringKind {
    /// Algorithm 1 timing correlation — full confidence. The name is
    /// historical (the histogram is now a difference array); it is kept
    /// because reports serialize it.
    SegmentTree,
    /// Coarse per-UID call-count ranking — the degraded fallback when the
    /// IPC log cannot support timing correlation.
    CallCount,
}

/// Why a detection's confidence was reduced.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub enum DegradationCause {
    /// Sequence-number gaps show the scored horizon is missing too many
    /// IPC records for timing correlation; the defender fell back to
    /// call-count scoring.
    LowIpcCoverage {
        /// Estimated surviving fraction of records in the horizon.
        observed: f64,
        /// The coverage floor it fell below (0.95).
        floor: f64,
    },
    /// The monitor's JGR timestamps arrived out of order (corrupted
    /// journal); they were sorted before scoring, but the original order
    /// was lost.
    UnsortedJgrTimestamps,
    /// `am force-stop` kept failing for this app even after retries; its
    /// entries were not reclaimed.
    KillFailed {
        /// The app that would not die.
        uid: Uid,
        /// Kill attempts made (1 + retries).
        attempts: u32,
    },
    /// Recovery ended (kill budget or candidates exhausted) with the
    /// victim's table still above the normal level.
    RecoveryIncomplete {
        /// Victim table size when the pass gave up.
        remaining: usize,
    },
}

impl fmt::Display for DegradationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationCause::LowIpcCoverage { observed, floor } => write!(
                f,
                "ipc log coverage {observed:.2} below floor {floor:.2}; fell back to call-count scoring"
            ),
            DegradationCause::UnsortedJgrTimestamps => {
                write!(f, "jgr timestamps unsorted; sorted before scoring")
            }
            DegradationCause::KillFailed { uid, attempts } => {
                write!(f, "kill of {uid} failed after {attempts} attempt(s)")
            }
            DegradationCause::RecoveryIncomplete { remaining } => {
                write!(f, "recovery incomplete: {remaining} entries remain")
            }
        }
    }
}

/// The facts of one completed detection + recovery pass (shared between
/// full-confidence and degraded outcomes).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DetectionReport {
    /// The process whose alarm fired.
    pub victim: Pid,
    /// When the defender picked the alarm up.
    pub detected_at: SimTime,
    /// Which ranking produced [`scores`](Self::scores).
    pub scoring: ScoringKind,
    /// Estimated fraction of IPC log records that survived in the scored
    /// horizon (1.0 on a pristine log).
    pub coverage: f64,
    /// Final scoring round, highest first.
    pub scores: Vec<UidScore>,
    /// Apps killed, in order.
    pub killed: Vec<Uid>,
    /// Correlation rounds run (1 = first window sufficed).
    pub rounds: usize,
    /// Total `(IPC, JGR)` pairs examined across rounds.
    pub pairs_processed: u64,
    /// IPC log records scanned across rounds.
    pub records_scanned: u64,
    /// Modeled on-device time for the whole pass — the §V-D.1 response
    /// delay. Also applied to the virtual clock. Includes kill-retry
    /// backoff under fault injection.
    pub response_delay: SimDuration,
    /// Victim table size after recovery (`None` when the victim died
    /// before recovery finished).
    pub victim_jgr_after: Option<usize>,
}

/// One completed detection + recovery pass.
///
/// [`Full`](Self::Full) is the paper's outcome: a pristine log, Algorithm 1
/// scoring, a drained table. [`Degraded`](Self::Degraded) carries the same
/// report plus the explicit reasons confidence was reduced — the defender
/// states *why* instead of guessing. Both variants [`Deref`](std::ops::Deref)
/// to [`DetectionReport`], so field access works uniformly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum DetectionOutcome {
    /// Detection and recovery completed with full confidence.
    Full(DetectionReport),
    /// Detection completed, but confidence was reduced for the listed
    /// causes (degraded scoring, failed kills, incomplete recovery).
    Degraded {
        /// The facts of the pass.
        report: DetectionReport,
        /// Every reason confidence was reduced, in the order encountered.
        causes: Vec<DegradationCause>,
    },
}

impl DetectionOutcome {
    /// The underlying report, whichever variant this is.
    pub fn report(&self) -> &DetectionReport {
        match self {
            DetectionOutcome::Full(report) => report,
            DetectionOutcome::Degraded { report, .. } => report,
        }
    }

    /// The degradation causes (empty for [`Full`](Self::Full)).
    pub fn causes(&self) -> &[DegradationCause] {
        match self {
            DetectionOutcome::Full(_) => &[],
            DetectionOutcome::Degraded { causes, .. } => causes,
        }
    }

    /// Whether confidence was reduced.
    pub fn is_degraded(&self) -> bool {
        matches!(self, DetectionOutcome::Degraded { .. })
    }

    /// One-paragraph human summary of the pass (examples and the CLI use
    /// it; all fields remain available for structured consumers).
    pub fn render(&self) -> String {
        let r = self.report();
        let top = r
            .scores
            .iter()
            .take(3)
            .map(|s| format!("{}={}", s.uid, s.score))
            .collect::<Vec<_>>()
            .join(", ");
        let mut text = format!(
            "victim {} alarmed at {}; {} correlation round(s) over {} IPC records / {} pairs              in {}; top scores [{}]; killed {:?}; victim table now {:?}",
            r.victim,
            r.detected_at,
            r.rounds,
            r.records_scanned,
            r.pairs_processed,
            r.response_delay,
            top,
            r.killed,
            r.victim_jgr_after,
        );
        if let DetectionOutcome::Degraded { causes, .. } = self {
            let listed = causes
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            text.push_str(&format!("; DEGRADED: {listed}"));
        }
        text
    }
}

impl std::ops::Deref for DetectionOutcome {
    type Target = DetectionReport;

    fn deref(&self) -> &DetectionReport {
        self.report()
    }
}

/// The defender service: owns the monitor, reads the driver log, scores,
/// kills.
///
/// [`install`](Self::install) gives the paper's defender, which never
/// dies. [`install_durable`](Self::install_durable) and
/// [`resume`](Self::resume) give the same defender backed by a
/// write-ahead journal, checkpoints and a supervisor, so the defender
/// process itself may crash and come back with its state (see
/// [`DurableConfig`]).
#[derive(Debug)]
pub struct JgreDefender {
    /// Replaced by a freshly installed monitor when a durable defender
    /// restarts after a crash.
    monitor: RefCell<Rc<JgrMonitor>>,
    config: DefenderConfig,
    /// Per-victim end time of the last completed pass, for alarm
    /// hysteresis.
    last_pass: RefCell<BTreeMap<Pid, SimTime>>,
    /// Journal, checkpoint store and supervisor; `None` for a defender
    /// that cannot crash.
    durable: Option<RefCell<Durable>>,
}

/// What a scoring pass reads about one victim.
struct Evidence {
    /// The victim's recorded add times, sorted.
    adds: Vec<SimTime>,
    /// Whether the monitor handed the add times back out of order.
    unsorted: bool,
    /// When recording began for the victim.
    since: SimTime,
    /// Per-app, per-IPC-type call times toward the victim.
    ipc: BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>,
    /// Estimated surviving fraction of IPC log records in the horizon.
    coverage: f64,
}

/// Ends a pass for `victim`: clears its alarm and recording, and stamps
/// the cooldown when the pass completed. Live passes and journaled
/// decisions both end here.
fn end_pass(
    monitor: &JgrMonitor,
    last_pass: &mut BTreeMap<Pid, SimTime>,
    victim: Pid,
    completed_at: Option<SimTime>,
) {
    monitor.reset(victim);
    if let Some(at) = completed_at {
        last_pass.insert(victim, at);
    }
}

impl JgreDefender {
    /// Installs the defense on a device: registers the runtime monitor
    /// on every current and future process, shares the device's fault
    /// layer with the monitor, and turns on the Binder driver's IPC
    /// recording (the Figure 10 overhead).
    ///
    /// # Errors
    ///
    /// [`DefenseError::InvalidThresholds`] unless
    /// `record_threshold < trigger_threshold`.
    pub fn install(system: &mut System, config: DefenderConfig) -> Result<Self, DefenseError> {
        let monitor =
            JgrMonitor::install(system, config.record_threshold, config.trigger_threshold)?;
        Ok(Self {
            monitor: RefCell::new(monitor),
            config,
            last_pass: RefCell::new(BTreeMap::new()),
            durable: None,
        })
    }

    /// The shared monitor.
    pub fn monitor(&self) -> Rc<JgrMonitor> {
        self.monitor.borrow().clone()
    }

    /// The active configuration.
    pub fn config(&self) -> &DefenderConfig {
        &self.config
    }

    /// Runs one scoring pass against the victim's current recording
    /// without killing anything (used by the Figure 8/9 experiments).
    /// Returns `None` when nothing is recorded for the victim.
    pub fn score_only(
        &self,
        system: &System,
        victim: Pid,
        delta: SimDuration,
    ) -> Option<ScoreReport> {
        let evidence = self.gather(system, victim)?;
        let params = ScoreParams {
            delta,
            window: WINDOWS[WINDOWS.len() - 1],
            ..ScoreParams::default()
        };
        Some(segment_tree_scores(&evidence.ipc, &evidence.adds, params))
    }

    /// Checks for alarms and, when one is raised, runs detection and
    /// recovery: score apps by Algorithm 1 over escalating windows, then
    /// kill top-ranked apps until the victim's JGR table is back to
    /// normal. Advances the virtual clock by the modeled computation
    /// time.
    ///
    /// Under fault injection the pass degrades instead of failing:
    ///
    /// 1. low IPC-log coverage (sequence-number gaps) switches scoring to
    ///    the coarse per-UID call-count ranking;
    /// 2. unsorted JGR timestamps are sorted before scoring;
    /// 3. failed kills are retried with exponential backoff;
    /// 4. a victim that finished a pass is left alone for
    ///    [`DefenderConfig::cooldown`] (alarm hysteresis);
    /// 5. whatever reduced confidence is reported in
    ///    [`DetectionOutcome::Degraded`].
    ///
    /// A durable defender may also die during the tick, at any
    /// [`CrashPoint`] the fault layer's crash channel selects. The pass
    /// then stops dead: kills and clock advances already made stay made,
    /// the monitor is *not* reset, the driver log is *not* pruned, and no
    /// outcome is produced — the state a SIGKILLed process leaves. The
    /// supervisor then restarts it from the journal, or gives up, after
    /// which every poll returns `None`.
    pub fn poll(&self, system: &mut System) -> Option<DetectionOutcome> {
        if !self.is_running() {
            return None;
        }
        match self
            .pass(system)
            .and_then(|outcome| self.persist(system, outcome))
        {
            Ok(outcome) => outcome,
            Err(_) => {
                self.crash(system);
                None
            }
        }
    }

    /// Whether the defender dies at `point`. Only a durable defender can,
    /// so only it draws from the fault layer's crash channel.
    fn may_crash(&self, system: &System, point: CrashPoint) -> Result<(), CrashPoint> {
        if self.durable.is_some() && system.faults().crash_at(point) {
            return Err(point);
        }
        Ok(())
    }

    /// One detection + recovery pass for the first alarmed victim out of
    /// cooldown, if any.
    fn pass(&self, system: &mut System) -> Result<Option<DetectionOutcome>, CrashPoint> {
        let now = system.now();
        let Some(victim) = self.monitor().alarmed_pids().into_iter().find(|pid| {
            self.last_pass
                .borrow()
                .get(pid)
                .is_none_or(|&last| now.saturating_since(last) >= self.config.cooldown)
        }) else {
            return Ok(None);
        };
        self.may_crash(system, CrashPoint::PollStart)?;
        // Ground-truth cross-check: a dead victim has nothing to recover.
        let outcome = match system
            .jgr_count(victim)
            .and_then(|_| self.gather(system, victim))
        {
            Some(evidence) => {
                let since = evidence.since;
                let outcome = self.respond(system, victim, now, evidence)?;
                // Bound the proc-file log: records older than the
                // recovered window are useless now.
                system.driver_mut().prune_log(since);
                Some(outcome)
            }
            None => None,
        };
        end_pass(
            &self.monitor(),
            &mut self.last_pass.borrow_mut(),
            victim,
            outcome.as_ref().map(|_| system.now()),
        );
        Ok(outcome)
    }

    /// Collects what a scoring pass reads about `victim`: its recorded
    /// adds (sorted), when recording began, and the IPC series aimed at
    /// it with the log's coverage. `None` when nothing is recorded.
    fn gather(&self, system: &System, victim: Pid) -> Option<Evidence> {
        let monitor = self.monitor();
        let mut adds = monitor.add_times(victim);
        let since = monitor
            .recording_since(victim)
            .filter(|_| !adds.is_empty())?;
        let unsorted = !adds.is_sorted();
        if unsorted {
            adds.sort_unstable();
        }
        let (ipc, coverage) = self.collect_ipc(system, victim, since);
        Some(Evidence {
            adds,
            unsorted,
            since,
            ipc,
            coverage,
        })
    }

    /// Scores the apps and kills by rank until the victim's table is back
    /// to normal. The scoring cost lands on the clock before recovery
    /// begins, so kill timestamps (and any respawns) happen after the
    /// analysis delay — the ordering the paper's on-device defender has.
    fn respond(
        &self,
        system: &mut System,
        victim: Pid,
        detected_at: SimTime,
        evidence: Evidence,
    ) -> Result<DetectionOutcome, CrashPoint> {
        let Evidence {
            adds,
            unsorted,
            ipc,
            coverage,
            ..
        } = evidence;
        let mut causes: Vec<DegradationCause> = Vec::new();
        if unsorted {
            causes.push(DegradationCause::UnsortedJgrTimestamps);
        }
        let mut rounds = 0usize;
        let mut pairs_processed = 0u64;
        let mut records_scanned = 0u64;
        let mut response_us = 0u64;
        let (scoring, report) = if coverage < COVERAGE_FLOOR {
            // Correlation watchdog: too many records are missing for the
            // timing histogram to mean anything — Algorithm 1 would score
            // whichever app happened to keep its records. Fall back to
            // volume ranking (the §V-A strawman: crude, but it degrades
            // predictably and we *say so*).
            causes.push(DegradationCause::LowIpcCoverage {
                observed: coverage,
                floor: COVERAGE_FLOOR,
            });
            rounds = 1;
            let r = call_count_scores(&ipc);
            records_scanned = r.records_scanned;
            // One linear pass over the log; no pair matching, no
            // histogram.
            response_us += r.records_scanned;
            (ScoringKind::CallCount, r)
        } else {
            // Escalating-window correlation.
            let report = loop {
                let window = WINDOWS[rounds];
                rounds += 1;
                let r = segment_tree_scores(
                    &ipc,
                    &adds,
                    ScoreParams {
                        window,
                        ..ScoreParams::default()
                    },
                );
                pairs_processed += r.pairs_processed;
                records_scanned += r.records_scanned;
                // Modeled on-device cost of this round. The dominant term is
                // the per-add candidate scan, linear in the correlation window
                // (each JGR add searches `window` worth of the IPC log), with
                // smaller terms for log parsing and histogram updates. With
                // the paper's 8000-add recording span, the first window costs
                // ≈0.5 s; escalation doubles the window each round, which is
                // how the midi/sip/print trio lands above one second and
                // `registerDeviceServer` near 3.6 s (§V-D.1).
                let window_factor = window.as_micros() as f64 / WINDOWS[0].as_micros() as f64;
                response_us += (adds.len() as f64 * 62.0 * window_factor) as u64
                    + r.records_scanned * 3
                    + r.pairs_processed * 2;
                let confident = r
                    .top()
                    .is_some_and(|t| t.score as f64 >= CONFIDENCE * adds.len() as f64);
                if confident || rounds == WINDOWS.len() {
                    break r;
                }
            };
            (ScoringKind::SegmentTree, report)
        };
        system
            .clock()
            .advance(SimDuration::from_micros(response_us));
        self.may_crash(system, CrashPoint::PostScoring)?;

        // Recovery: kill by rank until the table is back to normal, with
        // bounded retry-with-backoff when a kill fails.
        let mut killed = Vec::new();
        'candidates: for s in &report.scores {
            if killed.len() >= self.config.max_kills || s.score == 0 || !s.uid.is_app() {
                continue;
            }
            match system.jgr_count(victim) {
                Some(count) if count >= self.config.normal_level => {
                    self.may_crash(system, CrashPoint::Kill)?;
                    let mut attempts = 0u32;
                    loop {
                        attempts += 1;
                        match system.kill_app(s.uid) {
                            KillOutcome::Killed | KillOutcome::Respawned => {
                                // am force-stop costs a few tens of ms.
                                let cost = SimDuration::from_millis(30);
                                system.clock().advance(cost);
                                response_us += cost.as_micros();
                                killed.push(s.uid);
                                break;
                            }
                            KillOutcome::NotRunning => break,
                            KillOutcome::Failed => {
                                if attempts > self.config.kill_retries {
                                    causes.push(DegradationCause::KillFailed {
                                        uid: s.uid,
                                        attempts,
                                    });
                                    continue 'candidates;
                                }
                                // Exponential backoff before the retry.
                                let backoff =
                                    self.config.kill_backoff * (1u64 << (attempts - 1).min(16));
                                system.clock().advance(backoff);
                                response_us += backoff.as_micros();
                            }
                        }
                    }
                }
                _ => break,
            }
        }
        let victim_jgr_after = system.jgr_count(victim);
        if let Some(remaining) = victim_jgr_after.filter(|&n| n >= self.config.normal_level) {
            causes.push(DegradationCause::RecoveryIncomplete { remaining });
        }
        let report = DetectionReport {
            victim,
            detected_at,
            scoring,
            coverage,
            scores: report.scores,
            killed,
            rounds,
            pairs_processed,
            records_scanned,
            response_delay: SimDuration::from_micros(response_us),
            victim_jgr_after,
        };
        Ok(if causes.is_empty() {
            DetectionOutcome::Full(report)
        } else {
            DetectionOutcome::Degraded { report, causes }
        })
    }

    /// Groups the driver's transaction log into the per-app, per-IPC-type
    /// time series Algorithm 1 consumes (see [`collect_series`]). Only
    /// app-uid traffic addressed to the victim within the recording
    /// horizon is scored; coverage is estimated over *all* horizon
    /// records, because drops do not discriminate by target.
    fn collect_ipc(&self, system: &System, victim: Pid, since: SimTime) -> (IpcSeries, f64) {
        let window = WINDOWS[WINDOWS.len() - 1];
        let horizon = SimTime::from_micros(since.as_micros().saturating_sub(window.as_micros()));
        collect_series(
            system.driver().log_since(horizon),
            victim,
            self.config.classify_paths,
        )
    }
}

/// Per-app, per-IPC-type call times: what Algorithm 1 scores.
type IpcSeries = BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>;

/// The method half of a series identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum MethodId {
    Named(LogNameId),
    Code(u32),
}

impl MethodId {
    fn of(method: &IpcMethod) -> Self {
        match method {
            IpcMethod::Named(name) => MethodId::Named(name.id()),
            IpcMethod::Code(code) => MethodId::Code(*code),
        }
    }
}

/// Groups `records` into the series of app traffic addressed to
/// `victim`, and estimates the log's coverage of them: distinct sequence
/// numbers over the span `[seq_lo, seq_hi]` they cover.
///
/// A record whose sequence number was already seen is a duplicate (a
/// fault) and does not vote again; a bitmap over the span tracks the
/// numbers seen. Records group under a copyable identity — caller,
/// interface and method handles, and the path when `classify_paths` —
/// and each group's key is rendered once. Handles to equal names in
/// different buffers, and distinct name pairs that render alike
/// (`"a.b"` + `"c"`, `"a"` + `"b.c"`), land in one series when the keys
/// are rendered. A series ends sorted whatever order its groups merged
/// in, so the result does not depend on the identities' order.
fn collect_series<'a>(
    records: impl Iterator<Item = &'a IpcRecord> + Clone,
    victim: Pid,
    classify_paths: bool,
) -> (IpcSeries, f64) {
    let span = records.clone().fold(None, |span, r| match span {
        None => Some((r.seq, r.seq)),
        Some((lo, hi)) => Some((r.seq.min(lo), r.seq.max(hi))),
    });
    let Some((seq_lo, seq_hi)) = span else {
        return (IpcSeries::new(), 1.0);
    };
    let mut seen = vec![0u64; (seq_hi - seq_lo) as usize / 64 + 1];
    let mut distinct = 0u64;
    type Series<'a> = (&'a IpcRecord, Vec<SimTime>);
    let mut grouped: BTreeMap<(Uid, LogNameId, MethodId, Option<u8>), Series<'_>> = BTreeMap::new();
    for record in records {
        let bit = record.seq - seq_lo;
        let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
        if seen[word] & mask != 0 {
            continue;
        }
        seen[word] |= mask;
        distinct += 1;
        if record.to_pid != victim || !record.from_uid.is_app() {
            continue;
        }
        let path = classify_paths.then_some(record.path_id);
        let id = (
            record.from_uid,
            record.interface.id(),
            MethodId::of(&record.method),
            path,
        );
        grouped
            .entry(id)
            .or_insert_with(|| (record, Vec::new()))
            .1
            .push(record.at);
    }
    let mut out = IpcSeries::new();
    for ((uid, ..), (first, times)) in grouped {
        let key = if classify_paths {
            first.ipc_type_with_path()
        } else {
            first.ipc_type()
        };
        out.entry(uid)
            .or_default()
            .entry(key)
            .or_default()
            .extend(times);
    }
    sort_series(&mut out);
    (out, distinct as f64 / (seq_hi - seq_lo + 1) as f64)
}

/// Delay/reorder faults can hand a series back out of order, and merged
/// groups concatenate; the scorer's pairing assumes sorted times.
fn sort_series(series: &mut IpcSeries) {
    for types in series.values_mut() {
        for times in types.values_mut() {
            if !times.is_sorted() {
                times.sort_unstable();
            }
        }
    }
}

/// The grouping [`collect_series`] replaces, kept as its oracle: a
/// `BTreeSet` of sequence numbers for the dedup, and groups keyed by the
/// borrowed names.
#[cfg(test)]
fn collect_series_oracle<'a>(
    records: impl Iterator<Item = &'a IpcRecord>,
    victim: Pid,
    classify_paths: bool,
) -> (IpcSeries, f64) {
    type Series<'a> = (&'a IpcRecord, Vec<SimTime>);
    let mut grouped: BTreeMap<(Uid, &str, &IpcMethod, Option<u8>), Series<'_>> = BTreeMap::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut seq_lo = u64::MAX;
    let mut seq_hi = 0u64;
    for record in records {
        seq_lo = seq_lo.min(record.seq);
        seq_hi = seq_hi.max(record.seq);
        if !seen.insert(record.seq) {
            continue;
        }
        if record.to_pid != victim || !record.from_uid.is_app() {
            continue;
        }
        let path = classify_paths.then_some(record.path_id);
        grouped
            .entry((record.from_uid, &record.interface, &record.method, path))
            .or_insert_with(|| (record, Vec::new()))
            .1
            .push(record.at);
    }
    let mut out = IpcSeries::new();
    for ((uid, ..), (first, times)) in grouped {
        let key = if classify_paths {
            first.ipc_type_with_path()
        } else {
            first.ipc_type()
        };
        out.entry(uid)
            .or_default()
            .entry(key)
            .or_default()
            .extend(times);
    }
    sort_series(&mut out);
    let coverage = if seen.is_empty() {
        1.0
    } else {
        seen.len() as f64 / (seq_hi - seq_lo + 1) as f64
    };
    (out, coverage)
}

/// The degraded ranking: raw per-UID call volume toward the victim (the
/// §V-A strawman, reused deliberately — when timing data is untrustworthy
/// the honest coarse signal beats a precise hallucination).
fn call_count_scores(ipc: &IpcSeries) -> ScoreReport {
    let mut records_scanned = 0u64;
    let mut scores: Vec<UidScore> = ipc
        .iter()
        .map(|(&uid, types)| {
            let per_type: Vec<(String, u64)> = types
                .iter()
                .map(|(t, calls)| (t.clone(), calls.len() as u64))
                .collect();
            let score: u64 = per_type.iter().map(|(_, n)| n).sum();
            records_scanned += score;
            UidScore {
                uid,
                score,
                per_type,
            }
        })
        .collect();
    scores.sort_by(|a, b| b.score.cmp(&a.score).then(a.uid.cmp(&b.uid)));
    ScoreReport {
        scores,
        pairs_processed: 0,
        records_scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_framework::{CallOptions, SystemConfig};
    use jgre_sim::{FaultIntensity, FaultKind, FaultPlan};

    fn defended_system(cap: usize) -> (System, JgreDefender) {
        defended_system_with(cap, FaultPlan::none(), DefenderConfig::default())
    }

    fn defended_system_with(
        cap: usize,
        faults: FaultPlan,
        base: DefenderConfig,
    ) -> (System, JgreDefender) {
        let mut system = System::boot_with(SystemConfig {
            seed: 7,
            jgr_capacity: Some(cap),
            faults,
            ..SystemConfig::default()
        });
        let config = DefenderConfig {
            record_threshold: cap / 12,
            trigger_threshold: cap / 4,
            normal_level: cap / 10,
            ..base
        };
        let defender =
            JgreDefender::install(&mut system, config).expect("defender config is valid");
        (system, defender)
    }

    fn attack_until_detection(
        system: &mut System,
        defender: &JgreDefender,
        evil: Uid,
        budget: usize,
    ) -> DetectionOutcome {
        for _ in 0..budget {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            if let Some(d) = defender.poll(system) {
                return d;
            }
        }
        panic!("attack must trip the alarm within {budget} calls");
    }

    #[test]
    fn collect_ipc_merges_series_whose_names_render_alike() {
        for classify_paths in [false, true] {
            let base = DefenderConfig {
                classify_paths,
                ..DefenderConfig::default()
            };
            let (mut system, defender) = defended_system_with(4_000, FaultPlan::none(), base);
            let victim = system.system_server_pid();
            let app = system.install_app("com.example", []);
            let app_pid = system.launch_app(app).unwrap();
            let node = system.driver_mut().create_node(victim);
            let parcel = jgre_binder::Parcel::new();
            // "a.b" + "c" and "a" + "b.c" both render "a.b.c".
            for (interface, method) in [("a.b", "c"), ("a", "b.c"), ("a.b", "c"), ("a.b", "d")] {
                system
                    .driver_mut()
                    .record_transaction(app_pid, app, node, interface, method, &parcel)
                    .unwrap();
            }
            let (ipc, coverage) = defender.collect_ipc(&system, victim, system.now());
            assert_eq!(coverage, 1.0);
            let suffix = if classify_paths { "#0" } else { "" };
            let series = &ipc[&app];
            let keys: Vec<&str> = series.keys().map(String::as_str).collect();
            assert_eq!(keys, [format!("a.b.c{suffix}"), format!("a.b.d{suffix}")]);
            let merged = &series[&format!("a.b.c{suffix}")];
            assert_eq!(merged.len(), 3);
            assert!(merged.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(series[&format!("a.b.d{suffix}")].len(), 1);
        }
    }

    /// One generated log record: caller (0 is a system uid), target,
    /// name pair (by index into `NAMES`), path, and time.
    type LogEntry = (u8, bool, u8, u8, u64);

    /// Interface/method pairs, including pairs that render alike.
    const NAMES: [(&str, &str); 5] = [
        ("a.b", "c"),
        ("a", "b.c"),
        ("IClipboard", "addPrimaryClipChangedListener"),
        ("IClipboard", "getState"),
        ("IWifiManager", "acquireWifiLock"),
    ];

    /// Builds a log from `entries` (sequence numbers in order, every
    /// other name pair interned in one shared buffer and the rest in
    /// buffers of their own, so equal names come with different
    /// handles), then applies the faults: `drops` remove records,
    /// `dups` re-append copies, `swaps` exchange neighbours and the
    /// first `pruned` records are cut.
    fn faulty_log(
        entries: &[LogEntry],
        drops: &[usize],
        dups: &[usize],
        swaps: &[usize],
        pruned: usize,
    ) -> Vec<IpcRecord> {
        use jgre_binder::{LogName, NodeId};
        let shared: Vec<(LogName, LogName)> = NAMES
            .iter()
            .map(|&(i, m)| (LogName::from(i), LogName::from(m)))
            .collect();
        let victim = Pid::new(7);
        let mut log: Vec<IpcRecord> = entries
            .iter()
            .enumerate()
            .map(|(seq, &(caller, to_victim, name, path, at))| {
                let (interface, method) = match name as usize % 7 {
                    k @ 0..=4 if seq % 2 == 0 => shared[k].clone(),
                    k @ 0..=4 => (LogName::from(NAMES[k].0), LogName::from(NAMES[k].1)),
                    k => (shared[k % 5].0.clone(), LogName::from("")),
                };
                let method = match name as usize % 7 {
                    5 => IpcMethod::Code(9),
                    6 => IpcMethod::Code(10),
                    _ => IpcMethod::Named(method),
                };
                IpcRecord {
                    seq: seq as u64,
                    at: SimTime::from_micros(at),
                    from_pid: Pid::new(500 + u32::from(caller)),
                    from_uid: if caller == 0 {
                        Uid::SYSTEM
                    } else {
                        Uid::new(10_000 + u32::from(caller))
                    },
                    to_pid: if to_victim { victim } else { Pid::new(8) },
                    to_node: NodeId::new(1),
                    interface,
                    method,
                    payload_bytes: 0,
                    path_id: path % 3,
                }
            })
            .collect();
        for &d in drops {
            if !log.is_empty() {
                log.remove(d % log.len());
            }
        }
        for &d in dups {
            if !log.is_empty() {
                let copy = log[d % log.len()].clone();
                log.push(copy);
            }
        }
        for &w in swaps {
            if log.len() > 1 {
                let i = w % (log.len() - 1);
                log.swap(i, i + 1);
            }
        }
        log.drain(..pruned.min(log.len()));
        log
    }

    proptest::proptest! {
        /// The bitmap dedup and id grouping produce the series and the
        /// coverage the `BTreeSet` dedup and name grouping did, on logs
        /// with duplicated, reordered, dropped and pruned records.
        #[test]
        fn collect_series_matches_the_oracle(
            entries in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<bool>(), 0u8..7, 0u8..3, 0u64..5_000),
                0..120,
            ),
            drops in proptest::collection::vec(0usize..200, 0..20),
            dups in proptest::collection::vec(0usize..200, 0..20),
            swaps in proptest::collection::vec(0usize..200, 0..20),
            pruned in 0usize..30,
        ) {
            let log = faulty_log(&entries, &drops, &dups, &swaps, pruned);
            for classify_paths in [false, true] {
                let fast = collect_series(log.iter(), Pid::new(7), classify_paths);
                let oracle = collect_series_oracle(log.iter(), Pid::new(7), classify_paths);
                proptest::prop_assert_eq!(fast, oracle);
            }
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut system = System::boot(7);
        let bad = DefenderConfig {
            record_threshold: 500,
            trigger_threshold: 500,
            ..DefenderConfig::default()
        };
        assert_eq!(
            JgreDefender::install(&mut system, bad).err(),
            Some(DefenseError::InvalidThresholds {
                record: 500,
                trigger: 500
            })
        );
    }

    #[test]
    fn detection_render_is_informative() {
        let (mut system, defender) = defended_system(4_000);
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        let text = d.render();
        assert!(text.contains("correlation round"), "{text}");
        assert!(text.contains("killed [Uid(10000)]"), "{text}");
        assert!(!text.contains("DEGRADED"), "{text}");
    }

    #[test]
    fn quiet_system_never_alarms() {
        let (mut system, defender) = defended_system(4_000);
        let app = system.install_app("com.quiet", []);
        for _ in 0..20 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        assert!(defender.poll(&mut system).is_none());
    }

    #[test]
    fn single_attacker_detected_and_killed_before_exhaustion() {
        let (mut system, defender) = defended_system(4_000);
        let evil = system.install_app("com.evil", []);
        let mut detection = None;
        for _ in 0..4_000 {
            let o = system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(!o.host_aborted, "defense must fire before exhaustion");
            if let Some(d) = defender.poll(&mut system) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("attack must trip the alarm");
        assert!(!d.is_degraded(), "pristine run must be full confidence");
        assert_eq!(d.scoring, ScoringKind::SegmentTree);
        assert!((d.coverage - 1.0).abs() < 1e-9, "pristine log is complete");
        assert_eq!(d.killed, vec![evil]);
        assert_eq!(system.soft_reboots(), 0);
        assert!(d.victim_jgr_after.unwrap() < defender.config().normal_level);
        assert_eq!(d.rounds, 1, "typical interface resolves in one window");
        assert!(d.scores[0].uid == evil);
        // The attacker's process is gone; calling again relaunches it
        // from scratch (fresh process).
        assert!(system.pid_of(evil).is_none());
    }

    #[test]
    fn benign_heavy_user_not_killed() {
        let (mut system, defender) = defended_system(4_000);
        let evil = system.install_app("com.evil", []);
        let benign = system.install_app("com.busy", []);
        // The benign app hammers an innocent interface (more calls than
        // the attacker!), while the attacker leaks.
        let spec = system.spec().clone();
        let innocent = spec
            .service("audio")
            .unwrap()
            .methods
            .iter()
            .find(|m| {
                matches!(m.jgr, jgre_corpus::spec::JgrBehavior::NoJgr) && m.permission.is_none()
            })
            .unwrap()
            .name
            .clone();
        let mut detection = None;
        let mut think = 0x9E37_79B9u64;
        for i in 0..6_000 {
            system
                .call_service(benign, "audio", &innocent, CallOptions::default())
                .unwrap();
            // User think time decorrelates the benign stream from the
            // attacker's JGR adds (real apps do not run in lockstep with
            // the Binder loop).
            think = think.wrapping_mul(6364136223846793005).wrapping_add(1);
            let gap_ms = 3 + (think >> 33) % 12;
            system
                .clock()
                .advance(jgre_sim::SimDuration::from_millis(gap_ms));
            if i % 2 == 0 {
                system
                    .call_service(evil, "audio", "startWatchingRoutes", CallOptions::default())
                    .unwrap();
            }
            if let Some(d) = defender.poll(&mut system) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("attack must trip the alarm");
        assert_eq!(d.killed, vec![evil], "only the attacker dies");
    }

    #[test]
    fn slow_delay_interface_needs_more_windows() {
        // Real capacity and the paper's thresholds: the 4000→12000
        // recording window sits where registerDeviceServer's observed
        // IPC→JGR latency (≈9.5–15.4 ms) exceeds the first correlation
        // window, forcing escalation — the §V-D.1 slow case.
        let mut system = System::boot_with(SystemConfig {
            seed: 7,
            ..SystemConfig::default()
        });
        let defender = JgreDefender::install(&mut system, DefenderConfig::default())
            .expect("defender config is valid");
        let evil = system.install_app("com.evil", []);
        let mut detection = None;
        for _ in 0..6_000 {
            let o = system
                .call_service(evil, "midi", "registerDeviceServer", CallOptions::default())
                .unwrap();
            assert!(!o.host_aborted);
            if let Some(d) = defender.poll(&mut system) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("alarm");
        assert!(
            d.rounds > 1,
            "12 ms Delay exceeds the first window, got {} round(s)",
            d.rounds
        );
        assert_eq!(d.killed, vec![evil]);
        // A fast interface on the same configuration resolves in round 1
        // and therefore faster.
        let evil2 = system.install_app("com.evil2", []);
        let mut fast = None;
        for _ in 0..16_000 {
            system
                .call_service(
                    evil2,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            if let Some(d) = defender.poll(&mut system) {
                fast = Some(d);
                break;
            }
        }
        let fast = fast.expect("second alarm");
        assert_eq!(fast.rounds, 1);
        assert!(fast.response_delay < d.response_delay);
    }

    #[test]
    fn severe_record_loss_falls_back_to_call_counts() {
        let (mut system, defender) = defended_system_with(
            4_000,
            FaultPlan::single(FaultKind::IpcDrop, FaultIntensity::Severe),
            DefenderConfig::default(),
        );
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert!(d.is_degraded());
        assert_eq!(d.scoring, ScoringKind::CallCount);
        assert!(d.coverage < COVERAGE_FLOOR, "{}", d.coverage);
        assert!(d
            .causes()
            .iter()
            .any(|c| matches!(c, DegradationCause::LowIpcCoverage { .. })));
        // The sole heavy caller still tops the coarse ranking.
        assert_eq!(d.killed, vec![evil]);
        assert!(d.render().contains("DEGRADED"), "{}", d.render());
    }

    #[test]
    fn unkillable_app_reported_not_looped_forever() {
        let plan = FaultPlan {
            kill_fail: 1.0,
            ..FaultPlan::none()
        };
        let (mut system, defender) = defended_system_with(4_000, plan, DefenderConfig::default());
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert!(d.is_degraded());
        assert!(d.killed.is_empty(), "nothing actually died");
        let retries = defender.config().kill_retries;
        assert!(d.causes().iter().any(|c| matches!(
            c,
            DegradationCause::KillFailed { uid, attempts }
                if *uid == evil && *attempts == retries + 1
        )));
        assert!(d
            .causes()
            .iter()
            .any(|c| matches!(c, DegradationCause::RecoveryIncomplete { .. })));
        // Retry backoff is part of the modeled response time.
        assert!(d.response_delay >= SimDuration::from_millis(70));
    }

    #[test]
    fn one_transient_kill_failure_recovers_cleanly() {
        // The issue's headline moderate case: the first force-stop fails,
        // the retry lands, recovery completes.
        let plan = FaultPlan {
            kill_fail: 1.0,
            kill_fail_budget: 1,
            ..FaultPlan::none()
        };
        let (mut system, defender) = defended_system_with(4_000, plan, DefenderConfig::default());
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert_eq!(d.killed, vec![evil]);
        assert!(
            d.victim_jgr_after.unwrap() < defender.config().normal_level,
            "table drains once the retry lands"
        );
        assert!(!d.is_degraded(), "a recovered retry is not a degradation");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_passes() {
        let plan = FaultPlan {
            kill_fail: 1.0,
            ..FaultPlan::none()
        };
        let config = DefenderConfig {
            cooldown: SimDuration::from_secs(3_600),
            ..DefenderConfig::default()
        };
        let (mut system, defender) = defended_system_with(4_000, plan, config);
        let evil = system.install_app("com.evil", []);
        let first = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert!(first.killed.is_empty(), "the app is unkillable");
        // The table is still saturated; the very next event re-raises the
        // alarm, but the victim is in cooldown: no second kill storm.
        for _ in 0..50 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(
                defender.poll(&mut system).is_none(),
                "cooldown must suppress an immediate second pass"
            );
        }
    }
}
