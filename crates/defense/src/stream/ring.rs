//! Bounded ingestion ring with deterministic, virtual-time backpressure.
//!
//! The scoring thread drains events at a fixed per-event service cost;
//! the producer offers them at their arrival times. [`BoundedRing`] is
//! the M/D/1/K queue this induces, computed *in virtual time*: an offer
//! either yields the instant the scorer will finish that event, or a
//! drop when all `capacity` slots are still busy — the fault layer's
//! lost-record channel turned into a measured overload mode. Because the
//! model is a pure function of arrival times, drop counts and latencies
//! are byte-reproducible for a fixed seed no matter how many OS threads
//! carry the bytes.

use std::collections::VecDeque;

use serde::Serialize;

use super::frame::FrameReject;

/// Deterministic bounded queue between producer and scorer.
///
/// # Example
///
/// ```
/// use jgre_defense::stream::BoundedRing;
///
/// let mut ring = BoundedRing::new(2, 10);
/// assert_eq!(ring.offer(0), Some(10));  // idle: service starts at once
/// assert_eq!(ring.offer(0), Some(20));  // queued behind the first
/// assert_eq!(ring.offer(5), None);      // both slots busy at t=5: drop
/// assert_eq!(ring.offer(11), Some(30)); // t=11: the first completed
/// ```
#[derive(Debug, Clone)]
pub struct BoundedRing {
    capacity: usize,
    service_us: u64,
    /// Completion times of events still in the ring, oldest first.
    completions: VecDeque<u64>,
    /// When the scorer frees up after everything currently queued.
    tail_us: u64,
}

impl BoundedRing {
    /// Creates a ring with `capacity` slots and a fixed `service_us`
    /// scoring cost per event.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` or `service_us` is zero.
    pub fn new(capacity: usize, service_us: u64) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(service_us > 0, "service time must be positive");
        Self {
            capacity,
            service_us,
            completions: VecDeque::with_capacity(capacity),
            tail_us: 0,
        }
    }

    /// Slots configured.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events still queued at the last offer time.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// Whether the ring holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Offers an event arriving at `at_us`. Returns the virtual time the
    /// scorer finishes it, or `None` when every slot is busy and the
    /// event is dropped. Arrival times must be non-decreasing.
    pub fn offer(&mut self, at_us: u64) -> Option<u64> {
        while self.completions.front().is_some_and(|&c| c <= at_us) {
            self.completions.pop_front();
        }
        if self.completions.len() >= self.capacity {
            return None;
        }
        let completion = self.tail_us.max(at_us) + self.service_us;
        self.tail_us = completion;
        self.completions.push_back(completion);
        Some(completion)
    }
}

/// Per-reason ingestion accounting: what arrived, what the ring dropped,
/// what the protocol refused. Merges by addition, like
/// [`DetectionStats`](crate::DetectionStats) (which mirrors these totals
/// at fleet level via `absorb_ingest`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IngestStats {
    /// Frames offered by the producer.
    pub offered: u64,
    /// Events accepted into the ring and scored.
    pub accepted: u64,
    /// Events dropped because every ring slot was busy.
    pub dropped_backpressure: u64,
    /// Frames refused for a checksum mismatch.
    pub rejected_checksum: u64,
    /// Streams refused for a stale schema version or bad magic.
    pub rejected_version: u64,
    /// Frames refused for malformed payloads (bad tag, bad layout,
    /// oversized length field).
    pub rejected_malformed: u64,
}

impl IngestStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total frames refused by the protocol layer for any reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_checksum + self.rejected_version + self.rejected_malformed
    }

    /// Counts one typed rejection.
    pub fn record_reject(&mut self, reject: &FrameReject) {
        match reject {
            FrameReject::ChecksumMismatch { .. } => self.rejected_checksum += 1,
            FrameReject::BadMagic | FrameReject::StaleVersion { .. } => self.rejected_version += 1,
            FrameReject::OversizedFrame { .. }
            | FrameReject::BadTag { .. }
            | FrameReject::BadPayload => self.rejected_malformed += 1,
        }
    }

    /// Adds `other`'s counters into `self` (commutative and associative).
    pub fn merge(&mut self, other: &Self) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.dropped_backpressure += other.dropped_backpressure;
        self.rejected_checksum += other.rejected_checksum;
        self.rejected_version += other.rejected_version;
        self.rejected_malformed += other.rejected_malformed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_ring_services_at_arrival() {
        let mut ring = BoundedRing::new(8, 5);
        assert_eq!(ring.offer(100), Some(105));
        assert_eq!(ring.offer(1_000), Some(1_005));
    }

    #[test]
    fn burst_beyond_capacity_drops_deterministically() {
        let mut ring = BoundedRing::new(3, 10);
        let outcomes: Vec<Option<u64>> = (0..6).map(|_| ring.offer(0)).collect();
        assert_eq!(
            outcomes,
            vec![Some(10), Some(20), Some(30), None, None, None]
        );
        // Same arrivals, fresh ring: identical outcomes.
        let mut replay = BoundedRing::new(3, 10);
        let again: Vec<Option<u64>> = (0..6).map(|_| replay.offer(0)).collect();
        assert_eq!(outcomes, again);
    }

    #[test]
    fn draining_frees_slots() {
        let mut ring = BoundedRing::new(2, 10);
        assert_eq!(ring.offer(0), Some(10));
        assert_eq!(ring.offer(0), Some(20));
        assert_eq!(ring.offer(5), None);
        assert_eq!(ring.len(), 2);
        // At t=25 both completed; queue restarts from the tail.
        assert_eq!(ring.offer(25), Some(35));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn sustained_overload_drop_rate_matches_service_deficit() {
        // Arrivals every 4 µs, service 10 µs: the ring can keep up with
        // only 2 in 5; the rest must drop once the buffer fills.
        let mut ring = BoundedRing::new(16, 10);
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for k in 0..10_000u64 {
            match ring.offer(k * 4) {
                Some(_) => accepted += 1,
                None => dropped += 1,
            }
        }
        let rate = accepted as f64 / (accepted + dropped) as f64;
        assert!(
            (rate - 0.4).abs() < 0.01,
            "accept rate {rate} (accepted {accepted}, dropped {dropped})"
        );
    }

    #[test]
    fn ingest_stats_merge_is_additive() {
        let mut a = IngestStats {
            offered: 10,
            accepted: 8,
            dropped_backpressure: 2,
            ..IngestStats::new()
        };
        let mut b = IngestStats::new();
        b.record_reject(&FrameReject::BadPayload);
        b.record_reject(&FrameReject::StaleVersion { found: 9 });
        b.record_reject(&FrameReject::ChecksumMismatch {
            computed: 1,
            stored: 2,
        });
        a.merge(&b);
        assert_eq!(a.rejected(), 3);
        assert_eq!(a.rejected_malformed, 1);
        assert_eq!(a.rejected_version, 1);
        assert_eq!(a.rejected_checksum, 1);
        assert_eq!(a.offered, 10);
    }
}
