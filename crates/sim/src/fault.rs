//! Seeded, deterministic fault injection.
//!
//! The defense stack of the paper assumes a pristine runtime: the Binder
//! driver's IPC log is complete and time-ordered, the runtime monitor's
//! JGR event log is lossless, and a kill always reclaims the victim's
//! references. Real devices violate all three (BinderCracker-style stress,
//! log buffer pressure, zombie processes), so this module lets an
//! experiment *break those assumptions on purpose* — reproducibly.
//!
//! A [`FaultPlan`] declares per-channel fault probabilities; a
//! [`FaultLayer`] (a cheaply clonable handle shared by the Binder driver,
//! the JGR monitor, and the process-kill path) draws every fault decision
//! from its own [`SimRng`] stream, so a given `(seed, plan)` pair replays
//! bit-for-bit and an all-zero plan consumes no randomness at all —
//! faultless runs are byte-identical to runs without the layer installed.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use serde::Serialize;

use crate::{SimDuration, SimRng, SimTime};

/// The fault channels the layer can inject, one per defender assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum FaultKind {
    /// An IPC transaction is routed but its log record is lost.
    IpcDrop,
    /// An IPC log record is appended twice.
    IpcDuplicate,
    /// An IPC record is stamped late (written with a delayed timestamp).
    IpcDelay,
    /// An IPC record lands in the log before its predecessor.
    IpcReorder,
    /// The monitor loses a JGR event timestamp (truncated event log).
    JgrTruncate,
    /// The monitor records a JGR event with a corrupted timestamp.
    JgrCorrupt,
    /// Clock jitter skews the IPC record's correlation timestamp.
    ClockJitter,
    /// `am force-stop` fails: the target process survives the kill.
    KillFail,
    /// The killed app is immediately respawned by its sync adapters /
    /// sticky services.
    KillRespawn,
    /// The defender process itself dies at a poll/journal/kill boundary.
    /// Consumed by the crash-consistent harness; inert for an
    /// unsupervised defender.
    DefenderCrash,
}

impl FaultKind {
    /// Every fault kind, in matrix order.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::IpcDrop,
        FaultKind::IpcDuplicate,
        FaultKind::IpcDelay,
        FaultKind::IpcReorder,
        FaultKind::JgrTruncate,
        FaultKind::JgrCorrupt,
        FaultKind::ClockJitter,
        FaultKind::KillFail,
        FaultKind::KillRespawn,
        FaultKind::DefenderCrash,
    ];

    /// Stable kebab-case name (CLI flag values and artifact keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IpcDrop => "ipc-drop",
            FaultKind::IpcDuplicate => "ipc-duplicate",
            FaultKind::IpcDelay => "ipc-delay",
            FaultKind::IpcReorder => "ipc-reorder",
            FaultKind::JgrTruncate => "jgr-truncate",
            FaultKind::JgrCorrupt => "jgr-corrupt",
            FaultKind::ClockJitter => "clock-jitter",
            FaultKind::KillFail => "kill-fail",
            FaultKind::KillRespawn => "kill-respawn",
            FaultKind::DefenderCrash => "defender-crash",
        }
    }

    /// Parses a kebab-case name produced by [`name`](Self::name).
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How hard a fault channel is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum FaultIntensity {
    /// Channel disabled.
    Off,
    /// Rare faults (~2 % of opportunities).
    Light,
    /// The issue's head-line condition (~10 % of opportunities, one
    /// budgeted kill failure).
    Moderate,
    /// Hostile conditions (~30 % of opportunities, unbounded kill
    /// failures).
    Severe,
}

impl FaultIntensity {
    /// Every intensity above `Off`, ascending.
    pub const ACTIVE: [FaultIntensity; 3] = [
        FaultIntensity::Light,
        FaultIntensity::Moderate,
        FaultIntensity::Severe,
    ];

    /// The per-opportunity fault probability this intensity drives a
    /// channel at.
    pub fn probability(self) -> f64 {
        match self {
            FaultIntensity::Off => 0.0,
            FaultIntensity::Light => 0.02,
            FaultIntensity::Moderate => 0.10,
            FaultIntensity::Severe => 0.30,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FaultIntensity::Off => "off",
            FaultIntensity::Light => "light",
            FaultIntensity::Moderate => "moderate",
            FaultIntensity::Severe => "severe",
        }
    }

    /// Parses a name produced by [`name`](Self::name).
    pub fn parse(s: &str) -> Option<FaultIntensity> {
        [
            FaultIntensity::Off,
            FaultIntensity::Light,
            FaultIntensity::Moderate,
            FaultIntensity::Severe,
        ]
        .into_iter()
        .find(|i| i.name() == s)
    }
}

impl fmt::Display for FaultIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the defender's control flow a [`FaultKind::DefenderCrash`]
/// fault may strike.
///
/// The crash channel is consulted only at these boundaries — the places
/// where a real defender process holds in-memory state that a write-ahead
/// journal must make recoverable. Each boundary is an *opportunity*; the
/// plan's [`crash`](FaultPlan::crash) probability and
/// [`crash_budget`](FaultPlan::crash_budget) decide whether it fires, and
/// [`crash_point`](FaultPlan::crash_point) can pin the channel to one
/// boundary so a schedule deterministically kills the defender at, say,
/// exactly the kill loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum CrashPoint {
    /// An alarm was picked up but no work has happened yet.
    PollStart,
    /// Scoring finished; the kill list exists only in memory.
    PostScoring,
    /// Immediately before a kill attempt — earlier kills of the same pass
    /// have already mutated the system.
    Kill,
    /// Right before the decision record reaches the journal: the pass
    /// completed (kills applied, monitor reset) but nothing durable says
    /// so.
    JournalAppend,
    /// Right before a checkpoint is written.
    Checkpoint,
}

impl CrashPoint {
    /// Every crash boundary, in control-flow order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::PollStart,
        CrashPoint::PostScoring,
        CrashPoint::Kill,
        CrashPoint::JournalAppend,
        CrashPoint::Checkpoint,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::PollStart => "poll-start",
            CrashPoint::PostScoring => "post-scoring",
            CrashPoint::Kill => "kill",
            CrashPoint::JournalAppend => "journal-append",
            CrashPoint::Checkpoint => "checkpoint",
        }
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declarative fault configuration: one probability (and where needed a
/// magnitude) per channel. All probabilities are per-opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Probability an IPC record is dropped from the driver log.
    pub ipc_drop: f64,
    /// Probability an IPC record is appended twice.
    pub ipc_duplicate: f64,
    /// Probability an IPC record is stamped late.
    pub ipc_delay: f64,
    /// Maximum late-stamping skew.
    pub ipc_delay_max: SimDuration,
    /// Probability an IPC record is swapped with its predecessor.
    pub ipc_reorder: f64,
    /// Probability a JGR event timestamp is lost by the monitor.
    pub jgr_truncate: f64,
    /// Probability a JGR event timestamp is corrupted by the monitor.
    pub jgr_corrupt: f64,
    /// Maximum ± corruption applied to a corrupted JGR timestamp.
    pub jgr_corrupt_max: SimDuration,
    /// Probability an IPC record timestamp picks up clock jitter.
    pub clock_jitter: f64,
    /// Maximum ± jitter applied to a jittered IPC timestamp.
    pub clock_jitter_max: SimDuration,
    /// Probability a kill fails outright.
    pub kill_fail: f64,
    /// Budget of injected kill failures (`u32::MAX` = unbounded). The
    /// issue's moderate condition is exactly one failed kill.
    pub kill_fail_budget: u32,
    /// Probability a killed app respawns immediately.
    pub kill_respawn: f64,
    /// Probability the defender process dies at a crash boundary.
    pub crash: f64,
    /// Budget of injected defender crashes (`u32::MAX` = unbounded).
    pub crash_budget: u32,
    /// Restrict crashes to one boundary (`None` = any boundary may fire).
    pub crash_point: Option<CrashPoint>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The all-zero plan: no channel fires, no randomness is consumed.
    pub fn none() -> Self {
        Self {
            ipc_drop: 0.0,
            ipc_duplicate: 0.0,
            ipc_delay: 0.0,
            ipc_delay_max: SimDuration::from_millis(20),
            ipc_reorder: 0.0,
            jgr_truncate: 0.0,
            jgr_corrupt: 0.0,
            jgr_corrupt_max: SimDuration::from_millis(5),
            clock_jitter: 0.0,
            clock_jitter_max: SimDuration::from_millis(2),
            kill_fail: 0.0,
            kill_fail_budget: u32::MAX,
            kill_respawn: 0.0,
            crash: 0.0,
            crash_budget: u32::MAX,
            crash_point: None,
        }
    }

    /// A plan driving exactly one channel at the given intensity; every
    /// other channel stays off.
    pub fn single(kind: FaultKind, intensity: FaultIntensity) -> Self {
        let p = intensity.probability();
        let mut plan = Self::none();
        match kind {
            FaultKind::IpcDrop => plan.ipc_drop = p,
            FaultKind::IpcDuplicate => plan.ipc_duplicate = p,
            FaultKind::IpcDelay => plan.ipc_delay = p,
            FaultKind::IpcReorder => plan.ipc_reorder = p,
            FaultKind::JgrTruncate => plan.jgr_truncate = p,
            FaultKind::JgrCorrupt => plan.jgr_corrupt = p,
            FaultKind::ClockJitter => plan.clock_jitter = p,
            FaultKind::KillFail => {
                plan.kill_fail = 1.0;
                // One budgeted failure below severe; severe keeps failing
                // probabilistically without a budget.
                match intensity {
                    FaultIntensity::Off => plan.kill_fail = 0.0,
                    FaultIntensity::Light | FaultIntensity::Moderate => plan.kill_fail_budget = 1,
                    FaultIntensity::Severe => {
                        plan.kill_fail = 0.75;
                        plan.kill_fail_budget = u32::MAX;
                    }
                }
            }
            FaultKind::KillRespawn => plan.kill_respawn = (p * 5.0).min(1.0),
            FaultKind::DefenderCrash => match intensity {
                FaultIntensity::Off => plan.crash = 0.0,
                // One deterministic mid-incident death below severe — the
                // headline crash-and-recover condition.
                FaultIntensity::Light | FaultIntensity::Moderate => {
                    plan.crash = 1.0;
                    plan.crash_budget = 1;
                }
                // Severe: repeated probabilistic deaths, still bounded so
                // a sane supervisor restart budget cannot be exhausted.
                FaultIntensity::Severe => {
                    plan.crash = 0.6;
                    plan.crash_budget = 5;
                }
            },
        }
        plan
    }

    /// The issue's moderate headline condition: 10 % IPC-record loss and
    /// exactly one failed kill.
    pub fn moderate() -> Self {
        Self {
            ipc_drop: 0.10,
            kill_fail: 1.0,
            kill_fail_budget: 1,
            ..Self::none()
        }
    }

    /// Whether any channel can fire.
    pub fn is_active(&self) -> bool {
        [
            self.ipc_drop,
            self.ipc_duplicate,
            self.ipc_delay,
            self.ipc_reorder,
            self.jgr_truncate,
            self.jgr_corrupt,
            self.clock_jitter,
            self.kill_fail,
            self.kill_respawn,
            self.crash,
        ]
        .iter()
        .any(|&p| p > 0.0)
    }

    /// Validates every probability is a probability.
    ///
    /// # Errors
    ///
    /// Returns the offending channel name and value.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        for (name, p) in [
            ("ipc_drop", self.ipc_drop),
            ("ipc_duplicate", self.ipc_duplicate),
            ("ipc_delay", self.ipc_delay),
            ("ipc_reorder", self.ipc_reorder),
            ("jgr_truncate", self.jgr_truncate),
            ("jgr_corrupt", self.jgr_corrupt),
            ("clock_jitter", self.clock_jitter),
            ("kill_fail", self.kill_fail),
            ("kill_respawn", self.kill_respawn),
            ("crash", self.crash),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err((name, p));
            }
        }
        Ok(())
    }
}

/// What the driver should do with one IPC log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcLogAction {
    /// Append normally.
    Keep,
    /// Lose the record (the transaction itself still routed).
    Drop,
    /// Append the record twice.
    Duplicate,
    /// Append with the timestamp skewed late by the given amount.
    DelayBy(SimDuration),
    /// Append, then swap with the previous record.
    Reorder,
}

/// What the monitor should do with one JGR event timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JgrLogAction {
    /// Record normally.
    Record,
    /// Lose the timestamp (table-size tracking is unaffected).
    Lose,
    /// Record a timestamp skewed by the given signed amount of
    /// microseconds.
    CorruptBy(i64),
}

/// Counters of injected faults, by channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// IPC records dropped.
    pub ipc_dropped: u64,
    /// IPC records duplicated.
    pub ipc_duplicated: u64,
    /// IPC records stamped late.
    pub ipc_delayed: u64,
    /// IPC records reordered.
    pub ipc_reordered: u64,
    /// JGR timestamps lost.
    pub jgr_truncated: u64,
    /// JGR timestamps corrupted.
    pub jgr_corrupted: u64,
    /// IPC timestamps jittered.
    pub clock_jittered: u64,
    /// Kills that failed.
    pub kills_failed: u64,
    /// Kills followed by a respawn.
    pub kills_respawned: u64,
    /// Defender crashes injected at poll/journal/kill boundaries.
    pub defender_crashes: u64,
}

impl FaultStats {
    /// Total injected faults across every channel.
    pub fn total(&self) -> u64 {
        self.ipc_dropped
            + self.ipc_duplicated
            + self.ipc_delayed
            + self.ipc_reordered
            + self.jgr_truncated
            + self.jgr_corrupted
            + self.clock_jittered
            + self.kills_failed
            + self.kills_respawned
            + self.defender_crashes
    }
}

#[derive(Debug)]
struct Injector {
    plan: FaultPlan,
    rng: SimRng,
    stats: FaultStats,
    kill_failures_left: u32,
    crashes_left: u32,
}

impl Injector {
    /// Draws a probability gate. A zero probability never touches the RNG,
    /// so inactive channels leave the stream — and therefore every
    /// faultless run — untouched.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.chance(p.min(1.0))
    }
}

/// Shared handle to a deterministic fault injector.
///
/// Clones share one RNG stream and one stats block, mirroring how
/// [`SimClock`](crate::SimClock) is shared across the driver, framework,
/// and defense.
///
/// # Example
///
/// ```
/// use jgre_sim::{FaultIntensity, FaultKind, FaultLayer, FaultPlan};
///
/// let plan = FaultPlan::single(FaultKind::IpcDrop, FaultIntensity::Moderate);
/// let layer = FaultLayer::new(plan, 7);
/// let twin = FaultLayer::new(plan, 7);
/// for _ in 0..64 {
///     assert_eq!(layer.ipc_log_action(), twin.ipc_log_action());
/// }
/// assert!(layer.stats().total() > 0, "moderate drop rate must fire in 64 draws");
/// ```
#[derive(Debug, Clone)]
pub struct FaultLayer {
    inner: Rc<RefCell<Injector>>,
}

impl FaultLayer {
    /// Creates a layer for `plan`, with its own RNG stream derived from
    /// `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner: Rc::new(RefCell::new(Injector {
                plan,
                // Decorrelate from the workload stream that uses the raw
                // experiment seed: enabling faults must not shift benign
                // call timings.
                rng: SimRng::seed(seed ^ 0xFAB1_7FA0_17C0_FFEE),
                stats: FaultStats::default(),
                kill_failures_left: plan.kill_fail_budget,
                crashes_left: plan.crash_budget,
            })),
        }
    }

    /// A layer that never fires (the default wiring).
    pub fn inactive() -> Self {
        Self::new(FaultPlan::none(), 0)
    }

    /// The configured plan.
    pub fn plan(&self) -> FaultPlan {
        self.inner.borrow().plan
    }

    /// Whether any channel can fire.
    pub fn is_active(&self) -> bool {
        self.inner.borrow().plan.is_active()
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.inner.borrow().stats
    }

    /// Decides the fate of one IPC log record. Channels are evaluated in
    /// a fixed priority order (drop > duplicate > delay > reorder) so a
    /// record suffers at most one structural fault.
    pub fn ipc_log_action(&self) -> IpcLogAction {
        let mut i = self.inner.borrow_mut();
        let plan = i.plan;
        if i.roll(plan.ipc_drop) {
            i.stats.ipc_dropped += 1;
            return IpcLogAction::Drop;
        }
        if i.roll(plan.ipc_duplicate) {
            i.stats.ipc_duplicated += 1;
            return IpcLogAction::Duplicate;
        }
        if i.roll(plan.ipc_delay) {
            let max = i.plan.ipc_delay_max.as_micros().max(1);
            let skew = i.rng.range(1..=max);
            i.stats.ipc_delayed += 1;
            return IpcLogAction::DelayBy(SimDuration::from_micros(skew));
        }
        if i.roll(plan.ipc_reorder) {
            i.stats.ipc_reordered += 1;
            return IpcLogAction::Reorder;
        }
        IpcLogAction::Keep
    }

    /// Applies clock jitter to an IPC correlation timestamp.
    pub fn jitter_ipc_timestamp(&self, at: SimTime) -> SimTime {
        let mut i = self.inner.borrow_mut();
        let plan = i.plan;
        if !i.roll(plan.clock_jitter) {
            return at;
        }
        let max = i.plan.clock_jitter_max.as_micros().max(1) as i64;
        let skew = i.rng.range(-max..=max);
        i.stats.clock_jittered += 1;
        apply_skew(at, skew)
    }

    /// Decides the fate of one JGR event timestamp in the monitor's log.
    pub fn jgr_log_action(&self) -> JgrLogAction {
        let mut i = self.inner.borrow_mut();
        let plan = i.plan;
        if i.roll(plan.jgr_truncate) {
            i.stats.jgr_truncated += 1;
            return JgrLogAction::Lose;
        }
        if i.roll(plan.jgr_corrupt) {
            let max = i.plan.jgr_corrupt_max.as_micros().max(1) as i64;
            let skew = i.rng.range(-max..=max);
            i.stats.jgr_corrupted += 1;
            return JgrLogAction::CorruptBy(skew);
        }
        JgrLogAction::Record
    }

    /// Whether this kill attempt fails (respects the failure budget).
    pub fn kill_fails(&self) -> bool {
        let mut i = self.inner.borrow_mut();
        let p = i.plan.kill_fail;
        if i.kill_failures_left == 0 || !i.roll(p) {
            return false;
        }
        i.kill_failures_left = i.kill_failures_left.saturating_sub(1);
        i.stats.kills_failed += 1;
        true
    }

    /// Whether the defender dies at this boundary (respects the crash
    /// budget and the plan's optional boundary pin). Boundaries the plan
    /// pins away from, and a zero crash probability, never touch the RNG.
    pub fn crash_at(&self, point: CrashPoint) -> bool {
        let mut i = self.inner.borrow_mut();
        let plan = i.plan;
        if i.crashes_left == 0 || plan.crash_point.is_some_and(|p| p != point) {
            return false;
        }
        if !i.roll(plan.crash) {
            return false;
        }
        i.crashes_left = i.crashes_left.saturating_sub(1);
        i.stats.defender_crashes += 1;
        true
    }

    /// Whether a successful kill is immediately followed by a respawn.
    pub fn kill_respawns(&self) -> bool {
        let mut i = self.inner.borrow_mut();
        let p = i.plan.kill_respawn;
        if i.roll(p) {
            i.stats.kills_respawned += 1;
            return true;
        }
        false
    }
}

/// Applies a signed microsecond skew to a timestamp, clamping at zero.
pub fn apply_skew(at: SimTime, skew_us: i64) -> SimTime {
    let raw = at.as_micros();
    let skewed = if skew_us >= 0 {
        raw.saturating_add(skew_us as u64)
    } else {
        raw.saturating_sub(skew_us.unsigned_abs())
    };
    SimTime::from_micros(skewed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_layer_never_fires_and_never_draws() {
        let layer = FaultLayer::inactive();
        for _ in 0..256 {
            assert_eq!(layer.ipc_log_action(), IpcLogAction::Keep);
            assert_eq!(layer.jgr_log_action(), JgrLogAction::Record);
            assert!(!layer.kill_fails());
            assert!(!layer.kill_respawns());
            assert!(!layer.crash_at(CrashPoint::PollStart));
            let t = SimTime::from_micros(12_345);
            assert_eq!(layer.jitter_ipc_timestamp(t), t);
        }
        assert_eq!(layer.stats().total(), 0);
        assert!(!layer.is_active());
    }

    #[test]
    fn same_seed_same_plan_same_decisions() {
        let plan = FaultPlan {
            ipc_drop: 0.2,
            ipc_duplicate: 0.1,
            ipc_delay: 0.1,
            jgr_corrupt: 0.3,
            kill_fail: 0.5,
            ..FaultPlan::none()
        };
        let a = FaultLayer::new(plan, 99);
        let b = FaultLayer::new(plan, 99);
        for _ in 0..512 {
            assert_eq!(a.ipc_log_action(), b.ipc_log_action());
            assert_eq!(a.jgr_log_action(), b.jgr_log_action());
            assert_eq!(a.kill_fails(), b.kill_fails());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn kill_fail_budget_is_respected() {
        let plan = FaultPlan {
            kill_fail: 1.0,
            kill_fail_budget: 2,
            ..FaultPlan::none()
        };
        let layer = FaultLayer::new(plan, 0);
        assert!(layer.kill_fails());
        assert!(layer.kill_fails());
        for _ in 0..16 {
            assert!(!layer.kill_fails(), "budget of 2 exhausted");
        }
        assert_eq!(layer.stats().kills_failed, 2);
    }

    #[test]
    fn crash_budget_is_respected() {
        let plan = FaultPlan {
            crash: 1.0,
            crash_budget: 2,
            ..FaultPlan::none()
        };
        let layer = FaultLayer::new(plan, 0);
        assert!(layer.crash_at(CrashPoint::PollStart));
        assert!(layer.crash_at(CrashPoint::Kill));
        for point in CrashPoint::ALL {
            assert!(!layer.crash_at(point), "budget of 2 exhausted");
        }
        assert_eq!(layer.stats().defender_crashes, 2);
    }

    #[test]
    fn crash_point_pin_restricts_the_boundary() {
        let plan = FaultPlan {
            crash: 1.0,
            crash_point: Some(CrashPoint::Kill),
            ..FaultPlan::none()
        };
        let layer = FaultLayer::new(plan, 3);
        for point in CrashPoint::ALL {
            assert_eq!(layer.crash_at(point), point == CrashPoint::Kill, "{point}");
        }
        assert_eq!(layer.stats().defender_crashes, 1);
    }

    #[test]
    fn single_plans_drive_exactly_one_channel() {
        for kind in FaultKind::ALL {
            let plan = FaultPlan::single(kind, FaultIntensity::Severe);
            assert!(plan.is_active(), "{kind}");
            assert!(plan.validate().is_ok(), "{kind}");
            let off = FaultPlan::single(kind, FaultIntensity::Off);
            assert!(!off.is_active(), "{kind} at off intensity");
        }
    }

    #[test]
    fn kind_and_intensity_names_roundtrip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        for i in [
            FaultIntensity::Off,
            FaultIntensity::Light,
            FaultIntensity::Moderate,
            FaultIntensity::Severe,
        ] {
            assert_eq!(FaultIntensity::parse(i.name()), Some(i));
        }
        assert_eq!(FaultKind::parse("warp-core-breach"), None);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let plan = FaultPlan {
            ipc_drop: 1.5,
            ..FaultPlan::none()
        };
        assert_eq!(plan.validate(), Err(("ipc_drop", 1.5)));
        assert!(FaultPlan::moderate().validate().is_ok());
    }

    #[test]
    fn skew_clamps_at_zero() {
        assert_eq!(apply_skew(SimTime::from_micros(5), -10), SimTime::ZERO);
        assert_eq!(
            apply_skew(SimTime::from_micros(5), 10),
            SimTime::from_micros(15)
        );
    }
}
