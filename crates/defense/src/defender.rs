//! Phase 3: the JGRE Defender service.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use jgre_binder::IpcRecord;
use jgre_framework::{KillOutcome, System};
use jgre_sim::{CrashPoint, Pid, SimDuration, SimTime, Uid};
use serde::{Deserialize, Serialize};

use crate::{segment_tree_scores, DefenseError, JgrMonitor, ScoreParams, ScoreReport, UidScore};

/// Defender tuning. The defaults are the paper's deployed parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenderConfig {
    /// Runtime starts recording JGR event times at this table size.
    pub record_threshold: usize,
    /// Runtime alerts the defender at this table size.
    pub trigger_threshold: usize,
    /// Recovery target: kill until the victim's table is back below this
    /// (Observation 1 puts the benign band under ~3000).
    pub normal_level: usize,
    /// The Δ uncertainty band for Algorithm 1 (system-wide average
    /// 1.8 ms).
    pub delta: SimDuration,
    /// Escalating correlation windows. Detection retries with the next
    /// window when the best score is not confident — the mechanism behind
    /// §V-D.1's three slow (>1 s) detections.
    pub windows: Vec<SimDuration>,
    /// Histogram bin width.
    pub bin: SimDuration,
    /// Minimum fraction of observed adds the top score must explain to
    /// stop escalating windows.
    pub confidence: f64,
    /// Safety valve on kills per detection.
    pub max_kills: usize,
    /// §VI extension: classify IPC calls by code-execution path before
    /// scoring. A multi-path attacker splits its timing signature across
    /// paths; per-path buckets restore the concentration.
    pub classify_paths: bool,
    /// Correlation watchdog: when the fraction of IPC log records that
    /// survived in the scored horizon (estimated from driver sequence-
    /// number gaps) falls below this floor, Algorithm 1's timing
    /// correlation is no longer trustworthy and the defender falls back
    /// to coarse per-UID call-count scoring, reporting
    /// [`DegradationCause::LowIpcCoverage`].
    pub coverage_floor: f64,
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
            delta: SimDuration::from_micros(1_800),
            windows: vec![
                SimDuration::from_millis(8),
                SimDuration::from_millis(16),
                SimDuration::from_millis(32),
            ],
            bin: SimDuration::from_micros(50),
            confidence: 0.35,
            max_kills: 8,
            classify_paths: false,
            coverage_floor: 0.95,
            kill_retries: 3,
            kill_backoff: SimDuration::from_millis(10),
            cooldown: SimDuration::ZERO,
        }
    }
}

impl DefenderConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// The first [`DefenseError`] found, checking thresholds, windows,
    /// bin width, and the confidence / coverage fractions.
    pub fn validate(&self) -> Result<(), DefenseError> {
        if self.record_threshold >= self.trigger_threshold {
            return Err(DefenseError::InvalidThresholds {
                record: self.record_threshold,
                trigger: self.trigger_threshold,
            });
        }
        if self.windows.is_empty() {
            return Err(DefenseError::NoWindows);
        }
        if self.bin.as_micros() == 0 {
            return Err(DefenseError::ZeroBin);
        }
        if !(0.0..=1.0).contains(&self.confidence) || self.confidence.is_nan() {
            return Err(DefenseError::InvalidConfidence(self.confidence));
        }
        if !(0.0..=1.0).contains(&self.coverage_floor) || self.coverage_floor.is_nan() {
            return Err(DefenseError::InvalidCoverageFloor(self.coverage_floor));
        }
        Ok(())
    }
}

/// Which ranking produced a detection's scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoringKind {
    /// Algorithm 1 timing correlation over the segment-tree histogram —
    /// full confidence.
    SegmentTree,
    /// Coarse per-UID call-count ranking — the degraded fallback when the
    /// IPC log cannot support timing correlation.
    CallCount,
}

/// Why a detection's confidence was reduced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DegradationCause {
    /// Sequence-number gaps show the scored horizon is missing too many
    /// IPC records for timing correlation; the defender fell back to
    /// call-count scoring.
    LowIpcCoverage {
        /// Estimated surviving fraction of records in the horizon.
        observed: f64,
        /// The configured [`DefenderConfig::coverage_floor`].
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug)]
pub struct JgreDefender {
    monitor: Rc<JgrMonitor>,
    config: DefenderConfig,
    /// Per-victim end time of the last completed pass, for alarm
    /// hysteresis.
    last_pass: RefCell<BTreeMap<Pid, SimTime>>,
    /// When set (only by the crash-consistent harness), [`try_poll`]
    /// consults the fault layer's defender-crash channel at each poll /
    /// kill boundary. Off by default: an unsupervised defender never
    /// crashes, and never draws from the channel.
    ///
    /// [`try_poll`]: Self::try_poll
    crash_channel: Cell<bool>,
}

impl JgreDefender {
    /// Installs the defense on a device: validates the configuration,
    /// registers the runtime monitor on every current and future process,
    /// shares the device's fault layer with the monitor, and turns on the
    /// Binder driver's IPC recording (the Figure 10 overhead).
    ///
    /// # Errors
    ///
    /// Any [`DefenseError`] from [`DefenderConfig::validate`].
    pub fn install(system: &mut System, config: DefenderConfig) -> Result<Self, DefenseError> {
        config.validate()?;
        let monitor = Rc::new(JgrMonitor::new(
            config.record_threshold,
            config.trigger_threshold,
        )?);
        monitor.set_fault_layer(system.faults().clone());
        system.register_jgr_observer(monitor.clone());
        system.driver_mut().set_defense_recording(true);
        Ok(Self {
            monitor,
            config,
            last_pass: RefCell::new(BTreeMap::new()),
            crash_channel: Cell::new(false),
        })
    }

    /// Rebuilds a defender around an already-recovered monitor and
    /// cooldown state (the crash-consistent harness, after replay).
    ///
    /// # Errors
    ///
    /// Any [`DefenseError`] from [`DefenderConfig::validate`].
    pub(crate) fn from_parts(
        monitor: Rc<JgrMonitor>,
        config: DefenderConfig,
        last_pass: Vec<(Pid, SimTime)>,
    ) -> Result<Self, DefenseError> {
        config.validate()?;
        Ok(Self {
            monitor,
            config,
            last_pass: RefCell::new(last_pass.into_iter().collect()),
            crash_channel: Cell::new(false),
        })
    }

    /// The per-victim cooldown stamps, in pid order (checkpointing).
    pub(crate) fn last_pass_entries(&self) -> Vec<(Pid, SimTime)> {
        self.last_pass
            .borrow()
            .iter()
            .map(|(&pid, &at)| (pid, at))
            .collect()
    }

    /// Arms or disarms the crash channel (crash-consistent harness only).
    pub(crate) fn set_crash_channel(&self, enabled: bool) {
        self.crash_channel.set(enabled);
    }

    /// Returns `Err(point)` when the armed crash channel says the
    /// defender process dies at `point`; a cheap no-op (no RNG draw)
    /// while the channel is disarmed.
    fn crash_if(&self, system: &System, point: CrashPoint) -> Result<(), CrashPoint> {
        if self.crash_channel.get() && system.faults().crash_at(point) {
            return Err(point);
        }
        Ok(())
    }

    /// The shared monitor.
    pub fn monitor(&self) -> &Rc<JgrMonitor> {
        &self.monitor
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
        let mut adds = self.monitor.add_times(victim);
        if adds.is_empty() {
            return None;
        }
        adds.sort_unstable();
        let since = self.monitor.recording_since(victim)?;
        let window = *self.config.windows.last()?;
        let (ipc, _coverage) = self.collect_ipc(system, victim, since);
        let params = ScoreParams {
            delta,
            window,
            bin: self.config.bin,
        };
        Some(segment_tree_scores(&ipc, &adds, params))
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
    pub fn poll(&self, system: &mut System) -> Option<DetectionOutcome> {
        debug_assert!(
            !self.crash_channel.get(),
            "an armed crash channel requires try_poll"
        );
        self.try_poll(system).ok().flatten()
    }

    /// [`poll`](Self::poll), with the defender's own mortality modeled:
    /// when the crash channel is armed (crash-consistent harness) and the
    /// fault layer fires, the pass stops dead at the given
    /// [`CrashPoint`] — whatever kills and clock advances already
    /// happened stay happened, the monitor is *not* reset, the driver log
    /// is *not* pruned, and no outcome is produced. Exactly the state a
    /// real process leaves behind when it is SIGKILLed mid-pass.
    ///
    /// # Errors
    ///
    /// The [`CrashPoint`] at which the defender died.
    pub fn try_poll(&self, system: &mut System) -> Result<Option<DetectionOutcome>, CrashPoint> {
        let now = system.now();
        let Some(victim) = self.monitor.alarmed_pids().into_iter().find(|pid| {
            self.last_pass
                .borrow()
                .get(pid)
                .is_none_or(|&last| now.saturating_since(last) >= self.config.cooldown)
        }) else {
            return Ok(None);
        };
        self.crash_if(system, CrashPoint::PollStart)?;
        let detected_at = now;
        let mut causes: Vec<DegradationCause> = Vec::new();

        let mut adds = self.monitor.add_times(victim);
        let since = match self.monitor.recording_since(victim) {
            Some(t) if !adds.is_empty() => t,
            _ => {
                self.monitor.reset(victim);
                return Ok(None);
            }
        };
        // Ground-truth cross-check: a dead victim has nothing to recover.
        if system.jgr_count(victim).is_none() {
            self.monitor.reset(victim);
            return Ok(None);
        }
        if !adds.windows(2).all(|w| w[0] <= w[1]) {
            adds.sort_unstable();
            causes.push(DegradationCause::UnsortedJgrTimestamps);
        }
        let (ipc, coverage) = self.collect_ipc(system, victim, since);

        let mut rounds = 0usize;
        let mut pairs_processed = 0u64;
        let mut records_scanned = 0u64;
        let mut response_us = 0u64;
        let scoring;
        let report;
        if coverage < self.config.coverage_floor {
            // Correlation watchdog: too many records are missing for the
            // timing histogram to mean anything — Algorithm 1 would score
            // whichever app happened to keep its records. Fall back to
            // volume ranking (the §V-A strawman: crude, but it degrades
            // predictably and we *say so*).
            causes.push(DegradationCause::LowIpcCoverage {
                observed: coverage,
                floor: self.config.coverage_floor,
            });
            scoring = ScoringKind::CallCount;
            rounds = 1;
            let r = call_count_scores(&ipc);
            records_scanned = r.records_scanned;
            // One linear pass over the log; no pair matching, no
            // histogram.
            response_us += r.records_scanned;
            report = r;
        } else {
            scoring = ScoringKind::SegmentTree;
            // Escalating-window correlation.
            let mut last = None;
            for window in &self.config.windows {
                rounds += 1;
                let r = segment_tree_scores(
                    &ipc,
                    &adds,
                    ScoreParams {
                        delta: self.config.delta,
                        window: *window,
                        bin: self.config.bin,
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
                let window_factor = (window.as_micros()).max(1) as f64
                    / self.config.windows[0].as_micros().max(1) as f64;
                response_us += (adds.len() as f64 * 62.0 * window_factor) as u64
                    + r.records_scanned * 3
                    + r.pairs_processed * 2;
                let confident = r
                    .top()
                    .is_some_and(|t| t.score as f64 >= self.config.confidence * adds.len() as f64);
                last = Some(r);
                if confident {
                    break;
                }
            }
            let Some(last) = last else {
                return Ok(None);
            };
            report = last;
        }
        // The scoring cost lands on the clock before recovery begins, so
        // kill timestamps (and any respawns) happen after the analysis
        // delay — same ordering the paper's on-device defender has.
        system
            .clock()
            .advance(SimDuration::from_micros(response_us));
        self.crash_if(system, CrashPoint::PostScoring)?;

        // Recovery: kill by rank until the table is back to normal, with
        // bounded retry-with-backoff when a kill fails.
        let mut killed = Vec::new();
        'candidates: for s in &report.scores {
            if killed.len() >= self.config.max_kills || s.score == 0 || !s.uid.is_app() {
                continue;
            }
            match system.jgr_count(victim) {
                Some(count) if count >= self.config.normal_level => {
                    self.crash_if(system, CrashPoint::Kill)?;
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
        if let Some(remaining) = victim_jgr_after {
            if remaining >= self.config.normal_level {
                causes.push(DegradationCause::RecoveryIncomplete { remaining });
            }
        }
        let response_delay = SimDuration::from_micros(response_us);
        self.monitor.reset(victim);
        self.last_pass.borrow_mut().insert(victim, system.now());
        // Bound the proc-file log: records older than the recovered
        // window are useless now.
        system.driver_mut().prune_log(since);
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
            response_delay,
            victim_jgr_after,
        };
        Ok(Some(if causes.is_empty() {
            DetectionOutcome::Full(report)
        } else {
            DetectionOutcome::Degraded { report, causes }
        }))
    }

    /// Groups the driver's transaction log into the per-app, per-IPC-type
    /// time series Algorithm 1 consumes, deduplicating records by driver
    /// sequence number (duplicate faults must not double-vote). Only
    /// app-uid traffic addressed to the victim within the recording
    /// horizon is scored; coverage is estimated over *all* horizon
    /// records, because drops do not discriminate by target.
    fn collect_ipc(
        &self,
        system: &System,
        victim: Pid,
        since: SimTime,
    ) -> (BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>, f64) {
        let window = self
            .config
            .windows
            .last()
            .copied()
            .unwrap_or(SimDuration::ZERO);
        let horizon = SimTime::from_micros(since.as_micros().saturating_sub(window.as_micros()));
        // Group by the borrowed names first, so each series key is
        // formatted once rather than once per record.
        type Series<'a> = (&'a IpcRecord, Vec<SimTime>);
        let mut grouped: BTreeMap<(Uid, &str, &str, Option<u8>), Series<'_>> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        let mut seq_lo = u64::MAX;
        let mut seq_hi = 0u64;
        for record in system.driver().log_since(horizon) {
            seq_lo = seq_lo.min(record.seq);
            seq_hi = seq_hi.max(record.seq);
            if !seen.insert(record.seq) {
                continue;
            }
            if record.to_pid != victim || !record.from_uid.is_app() {
                continue;
            }
            let path = self.config.classify_paths.then_some(record.path_id);
            grouped
                .entry((record.from_uid, &record.interface, &record.method, path))
                .or_insert_with(|| (record, Vec::new()))
                .1
                .push(record.at);
        }
        let mut out: BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>> = BTreeMap::new();
        for ((uid, ..), (first, times)) in grouped {
            let key = if self.config.classify_paths {
                first.ipc_type_with_path()
            } else {
                first.ipc_type()
            };
            // Distinct name pairs can render to the same key ("a.b" + "c"
            // and "a" + "b.c"); such series merge, as they always have.
            out.entry(uid)
                .or_default()
                .entry(key)
                .or_default()
                .extend(times);
        }
        // Delay/reorder faults can hand the series back out of order;
        // the scorer's pairing assumes sorted times.
        for types in out.values_mut() {
            for series in types.values_mut() {
                if !series.windows(2).all(|w| w[0] <= w[1]) {
                    series.sort_unstable();
                }
            }
        }
        let coverage = if seen.is_empty() {
            1.0
        } else {
            seen.len() as f64 / (seq_hi - seq_lo + 1) as f64
        };
        (out, coverage)
    }
}

/// The degraded ranking: raw per-UID call volume toward the victim (the
/// §V-A strawman, reused deliberately — when timing data is untrustworthy
/// the honest coarse signal beats a precise hallucination).
fn call_count_scores(ipc: &BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>) -> ScoreReport {
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
    fn config_validation_rejects_nonsense() {
        let mut system = System::boot(7);
        let bad = DefenderConfig {
            windows: vec![],
            ..DefenderConfig::default()
        };
        assert_eq!(
            JgreDefender::install(&mut system, bad).err(),
            Some(DefenseError::NoWindows)
        );
        let bad = DefenderConfig {
            coverage_floor: 1.5,
            ..DefenderConfig::default()
        };
        assert!(matches!(
            JgreDefender::install(&mut system, bad).err(),
            Some(DefenseError::InvalidCoverageFloor(_))
        ));
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
        assert!(
            d.coverage < defender.config().coverage_floor,
            "{}",
            d.coverage
        );
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
