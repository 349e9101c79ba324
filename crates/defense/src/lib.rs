//! The paper's JGRE defense (§V): runtime monitoring, IPC↔JGR
//! correlation scoring, and LMK-style recovery.
//!
//! Three phases, exactly as Figure 7 lays them out:
//!
//! 1. **Capture** — [`JgrMonitor`] extends every runtime (through the
//!    [`jgre_art::JgrObserver`] hook) and starts recording JGR event
//!    timestamps once a process crosses the *record* threshold (4000
//!    entries); crossing the *trigger* threshold (12000) raises an alarm.
//! 2. **Rank** — [`segment_tree_scores`] implements Algorithm 1: for every app and
//!    every IPC type it invoked, slide each `(IPC call, JGR add)` pair's
//!    possible `Delay ∈ [JGRTime−IPCTime, JGRTime−IPCTime+Δ]` interval
//!    into a histogram and take the best-supported delay; the app's
//!    `jgre_score` is the sum over its IPC types. The histogram is a
//!    difference array (two writes per vote whatever Δ is, one prefix
//!    scan per report), and per-type state sits in dense slots reused
//!    across window resets ([`IncrementalScorer`]). The paper's §V-D.2
//!    lazy [`SegmentTree`] (range add / global max) and a naive flat
//!    array ([`naive_scores`]) stay as the ablation bench's other arms
//!    and as test oracles; the serialized `SegmentTree` labels
//!    ([`ScoringKind::SegmentTree`], `DetectionStats::segment_tree_scored`)
//!    are historical names kept so reports stay byte-identical.
//! 3. **Recover** — [`JgreDefender::poll`] kills the top-ranked apps
//!    (`am force-stop`) until the victim's JGR table returns to a normal
//!    level, mirroring the LMK contract that any app may be killed to
//!    reclaim exhausted resources.
//!
//! Under fault injection ([`jgre_sim::FaultLayer`]) the pipeline degrades
//! instead of failing: low IPC-log coverage switches scoring to the coarse
//! call-count ranking, failed kills are retried with backoff, and every
//! reduction in confidence is reported as a typed
//! [`DegradationCause`] inside [`DetectionOutcome::Degraded`].
//!
//! [`JgreDefender`] is the one on-device defender. Built with
//! [`JgreDefender::install_durable`] or [`JgreDefender::resume`] over a
//! [`StateStore`], the same defender journals every monitor event and
//! decision, checkpoints its state, and survives its own crashes under a
//! supervisor ([`DurableConfig`], [`RecoveryStats`]); with no crash it
//! runs exactly as [`JgreDefender::install`] does. The streaming
//! [`stream`] service is a separate front-end with its own scorer.
//!
//! # Example
//!
//! ```
//! use jgre_defense::{DefenderConfig, JgreDefender};
//! use jgre_framework::{System, SystemConfig};
//!
//! let mut system = System::boot_with(SystemConfig {
//!     jgr_capacity: Some(2_000),
//!     ..SystemConfig::default()
//! });
//! // Thresholds scaled to the reduced capacity for the example.
//! let config = DefenderConfig {
//!     record_threshold: 200,
//!     trigger_threshold: 600,
//!     normal_level: 300,
//!     ..DefenderConfig::default()
//! };
//! let defender = JgreDefender::install(&mut system, config).unwrap();
//! assert!(defender.poll(&mut system).is_none(), "quiet system, no alarm");
//! ```

#![deny(missing_docs)]

mod checkpoint;
mod defender;
mod error;
mod journal;
mod monitor;
mod naive_defense;
mod scorer;
mod segment_tree;
pub mod stream;
mod streaming;

pub use checkpoint::{
    config_fingerprint, decode_checkpoint, encode_checkpoint, CheckpointReject, DefenderCheckpoint,
    MonitorSnapshot, WatchSnapshot, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION,
};
pub use defender::{
    DefenderConfig, DegradationCause, DetectionOutcome, DetectionReport, DurableConfig,
    JgreDefender, RecoveryStats, ScoringKind,
};
pub use error::DefenseError;
pub use journal::{
    DirStore, Journal, JournalRecord, MemoryStore, PersistError, ReopenReport, StateStore,
    JOURNAL_MAGIC, JOURNAL_SCHEMA_VERSION,
};
pub use monitor::JgrMonitor;
pub use naive_defense::{CallCountDefense, CallCountDetection};
pub use scorer::{
    naive_scores, segment_tree_scores, IncrementalScorer, ScoreParams, ScoreReport, UidScore,
};
pub use segment_tree::SegmentTree;
pub use streaming::DetectionStats;

/// Record threshold: the runtime starts logging JGR event times once a
/// process holds this many entries (§V-B).
pub const RECORD_THRESHOLD: usize = 4_000;

/// Trigger threshold: the runtime alerts the defender once this many
/// entries exist (§V-B).
pub const TRIGGER_THRESHOLD: usize = 12_000;
