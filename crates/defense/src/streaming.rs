//! Streaming aggregation of [`DetectionOutcome`]s.
//!
//! Fleet campaigns produce one detection stream per simulated device and
//! cannot afford to materialise them: a million devices × one
//! [`DetectionOutcome`] each is gigabytes of scores and kill lists. A
//! [`DetectionStats`] folds each outcome into fixed-size counters the
//! moment it is produced, and two accumulators merge by addition — a
//! commutative, associative fold, so shard partials combine into the same
//! totals no matter how devices were dealt to workers.

use serde::Serialize;

use crate::stream::IngestStats;
use crate::{DegradationCause, DetectionOutcome, ScoringKind};

/// Fixed-size accumulator over a stream of [`DetectionOutcome`]s.
///
/// # Example
///
/// ```
/// use jgre_defense::DetectionStats;
///
/// let stats = DetectionStats::new();
/// assert_eq!(stats.outcomes, 0);
/// assert!(stats.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct DetectionStats {
    /// Outcomes absorbed.
    pub outcomes: u64,
    /// Full-confidence passes.
    pub full: u64,
    /// Degraded passes.
    pub degraded: u64,
    /// Passes scored by Algorithm 1's timing correlation (the name
    /// predates the difference-array histogram and is serialized).
    pub segment_tree_scored: u64,
    /// Passes that fell back to call-count ranking.
    pub call_count_scored: u64,
    /// Apps killed across all passes.
    pub kills: u64,
    /// Correlation rounds run across all passes.
    pub rounds: u64,
    /// `(IPC, JGR)` pairs examined across all passes.
    pub pairs_processed: u64,
    /// IPC log records scanned across all passes.
    pub records_scanned: u64,
    /// Summed modeled response delay, µs.
    pub response_delay_us: u64,
    /// [`DegradationCause::LowIpcCoverage`] occurrences.
    pub low_coverage: u64,
    /// [`DegradationCause::UnsortedJgrTimestamps`] occurrences.
    pub unsorted_timestamps: u64,
    /// [`DegradationCause::KillFailed`] occurrences.
    pub kill_failures: u64,
    /// [`DegradationCause::RecoveryIncomplete`] occurrences.
    pub recovery_incomplete: u64,
    /// Streaming-ingest events accepted into the scoring ring.
    pub ingest_accepted: u64,
    /// Streaming-ingest events dropped by ring backpressure.
    pub ingest_dropped: u64,
    /// Streaming-ingest frames refused by the protocol layer (checksum,
    /// version, or malformed payload).
    pub ingest_rejected: u64,
}

impl DetectionStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no outcome was absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes == 0
    }

    /// Folds one outcome into the counters.
    pub fn absorb(&mut self, outcome: &DetectionOutcome) {
        let report = outcome.report();
        self.outcomes += 1;
        if outcome.is_degraded() {
            self.degraded += 1;
        } else {
            self.full += 1;
        }
        match report.scoring {
            ScoringKind::SegmentTree => self.segment_tree_scored += 1,
            ScoringKind::CallCount => self.call_count_scored += 1,
        }
        self.kills += report.killed.len() as u64;
        self.rounds += report.rounds as u64;
        self.pairs_processed += report.pairs_processed;
        self.records_scanned += report.records_scanned;
        self.response_delay_us = self
            .response_delay_us
            .saturating_add(report.response_delay.as_micros());
        for cause in outcome.causes() {
            match cause {
                DegradationCause::LowIpcCoverage { .. } => self.low_coverage += 1,
                DegradationCause::UnsortedJgrTimestamps => self.unsorted_timestamps += 1,
                DegradationCause::KillFailed { .. } => self.kill_failures += 1,
                DegradationCause::RecoveryIncomplete { .. } => self.recovery_incomplete += 1,
            }
        }
    }

    /// Folds one streaming run's ingestion accounting into the counters,
    /// surfacing ring drops and protocol rejections at fleet level.
    pub fn absorb_ingest(&mut self, ingest: &IngestStats) {
        self.ingest_accepted += ingest.accepted;
        self.ingest_dropped += ingest.dropped_backpressure;
        self.ingest_rejected += ingest.rejected();
    }

    /// Adds `other`'s counters into `self` (commutative and associative).
    pub fn merge(&mut self, other: &Self) {
        self.outcomes += other.outcomes;
        self.full += other.full;
        self.degraded += other.degraded;
        self.segment_tree_scored += other.segment_tree_scored;
        self.call_count_scored += other.call_count_scored;
        self.kills += other.kills;
        self.rounds += other.rounds;
        self.pairs_processed += other.pairs_processed;
        self.records_scanned += other.records_scanned;
        self.response_delay_us = self
            .response_delay_us
            .saturating_add(other.response_delay_us);
        self.low_coverage += other.low_coverage;
        self.unsorted_timestamps += other.unsorted_timestamps;
        self.kill_failures += other.kill_failures;
        self.recovery_incomplete += other.recovery_incomplete;
        self.ingest_accepted += other.ingest_accepted;
        self.ingest_dropped += other.ingest_dropped;
        self.ingest_rejected += other.ingest_rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionReport;
    use jgre_sim::{Pid, SimDuration, SimTime, Uid};

    fn report(killed: usize, delay_us: u64) -> DetectionReport {
        DetectionReport {
            victim: Pid::new(2),
            detected_at: SimTime::from_micros(10),
            scoring: ScoringKind::SegmentTree,
            coverage: 1.0,
            scores: Vec::new(),
            killed: (0..killed)
                .map(|i| Uid::new(Uid::FIRST_APPLICATION.raw() + i as u32))
                .collect(),
            rounds: 1,
            pairs_processed: 100,
            records_scanned: 50,
            response_delay: SimDuration::from_micros(delay_us),
            victim_jgr_after: Some(10),
        }
    }

    #[test]
    fn absorb_counts_variants_and_causes() {
        let mut stats = DetectionStats::new();
        stats.absorb(&DetectionOutcome::Full(report(1, 500)));
        stats.absorb(&DetectionOutcome::Degraded {
            report: report(0, 1_500),
            causes: vec![
                DegradationCause::KillFailed {
                    uid: Uid::FIRST_APPLICATION,
                    attempts: 4,
                },
                DegradationCause::RecoveryIncomplete { remaining: 900 },
            ],
        });
        assert_eq!(stats.outcomes, 2);
        assert_eq!(stats.full, 1);
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.kills, 1);
        assert_eq!(stats.kill_failures, 1);
        assert_eq!(stats.recovery_incomplete, 1);
        assert_eq!(stats.response_delay_us, 2_000);
        assert_eq!(stats.segment_tree_scored, 2);
    }

    #[test]
    fn merge_equals_sequential_absorb_any_order() {
        let outcomes = [
            DetectionOutcome::Full(report(2, 100)),
            DetectionOutcome::Full(report(0, 300)),
            DetectionOutcome::Degraded {
                report: report(1, 700),
                causes: vec![DegradationCause::UnsortedJgrTimestamps],
            },
        ];
        let mut whole = DetectionStats::new();
        for o in &outcomes {
            whole.absorb(o);
        }
        let mut a = DetectionStats::new();
        let mut b = DetectionStats::new();
        a.absorb(&outcomes[0]);
        b.absorb(&outcomes[1]);
        b.absorb(&outcomes[2]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }
}
