//! Deterministic telemetry event sources for the streaming defender.
//!
//! A live device emits two interleaved streams the defense correlates:
//! Binder-log records (who called which IPC type, when) and JGR-add
//! events on the victim process. [`EventSource`] synthesizes that merged
//! stream at a configurable sustained rate, reproducibly from a seed:
//! one attacker hammers a single interface whose calls produce JGR adds
//! after a tight characteristic delay (the paper's `Delay ∈ [d, d+Δ]`
//! signature), while a population of benign apps spreads calls — and the
//! occasional uncorrelated add — across many interfaces.
//!
//! Events come out strictly time-ordered (ties resolve call-before-add,
//! matching the Binder-then-IRT ordering of the real device), so the
//! stream can be framed, shipped through a ring buffer, and scored
//! incrementally without a re-sort. The same configuration and seed
//! always produce the identical sequence — the property the `jgre serve`
//! byte-reproducibility smoke test rests on.

use serde::Serialize;

use crate::{EventQueue, SimDuration, SimRng, SimTime, Uid};

/// What one telemetry event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceEventKind {
    /// A Binder-log record: app `uid` invoked interface `interface`.
    Call {
        /// The calling app.
        uid: Uid,
        /// Dense interface index (0 = the attacked interface; benign
        /// interfaces follow). [`EventSource::interface_label`] renders it.
        interface: u32,
    },
    /// A JGR add observed on the victim process.
    Add,
}

/// One telemetry event of the merged stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceEvent {
    /// Virtual arrival time.
    pub at: SimTime,
    /// Payload.
    pub kind: SourceEventKind,
}

/// Tuning of one synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SourceConfig {
    /// RNG seed; the stream is a pure function of the whole config.
    pub seed: u64,
    /// Sustained call arrival rate (calls per virtual second, attacker +
    /// benign combined; adds arrive on top).
    pub events_per_sec: u64,
    /// Virtual length of the stream.
    pub duration: SimDuration,
    /// Fraction of calls issued by the attacker (`0.0..=1.0`).
    pub attacker_share: f64,
    /// The attacker's characteristic IPC→JGR delay.
    pub attack_delay: SimDuration,
    /// Uniform jitter applied to the attack delay (stays within the
    /// scorer's Δ band when smaller than it).
    pub attack_jitter: SimDuration,
    /// Benign apps sharing the remaining call budget round-robin.
    pub benign_apps: u32,
    /// Benign interfaces the benign apps rotate over.
    pub benign_interfaces: u32,
    /// Chance a benign call is followed by an uncorrelated JGR add
    /// (spread uniformly over 0–20 ms, so it votes thinly).
    pub benign_add_chance: f64,
}

impl Default for SourceConfig {
    fn default() -> Self {
        Self {
            seed: 2_017,
            events_per_sec: 10_000,
            duration: SimDuration::from_secs(1),
            attacker_share: 0.25,
            attack_delay: SimDuration::from_micros(500),
            attack_jitter: SimDuration::from_micros(40),
            benign_apps: 8,
            benign_interfaces: 12,
            benign_add_chance: 0.05,
        }
    }
}

impl SourceConfig {
    /// The attacker's uid (first application uid).
    pub fn attacker_uid(&self) -> Uid {
        Uid::FIRST_APPLICATION
    }

    /// The `i`-th benign app's uid (attacker + 1 + i).
    pub fn benign_uid(&self, i: u32) -> Uid {
        Uid::new(Uid::FIRST_APPLICATION.raw() + 1 + i)
    }
}

/// A deterministic, time-ordered iterator of [`SourceEvent`]s.
///
/// # Example
///
/// ```
/// use jgre_sim::source::{EventSource, SourceConfig};
///
/// let events: Vec<_> = EventSource::new(SourceConfig::default()).collect();
/// let replay: Vec<_> = EventSource::new(SourceConfig::default()).collect();
/// assert_eq!(events, replay, "same seed, same stream");
/// assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
/// ```
#[derive(Debug)]
pub struct EventSource {
    config: SourceConfig,
    rng: SimRng,
    /// Pending events, keyed by time; the FIFO tie-break of [`EventQueue`]
    /// plus call-scheduled-before-add gives the call-before-add ordering.
    queue: EventQueue<SourceEventKind>,
    next_call_at: u64,
    gap_us: u64,
    calls_issued: u64,
    benign_cursor: u32,
}

impl EventSource {
    /// Creates the source; the first events are already scheduled.
    ///
    /// # Panics
    ///
    /// Panics when `events_per_sec` is zero or `attacker_share` is outside
    /// `[0, 1]`.
    pub fn new(config: SourceConfig) -> Self {
        assert!(config.events_per_sec > 0, "events_per_sec must be positive");
        assert!(
            (0.0..=1.0).contains(&config.attacker_share),
            "attacker_share out of range: {}",
            config.attacker_share
        );
        let gap_us = (1_000_000 / config.events_per_sec).max(1);
        Self {
            config,
            rng: SimRng::seed(config.seed),
            queue: EventQueue::new(),
            next_call_at: gap_us,
            gap_us,
            calls_issued: 0,
            benign_cursor: 0,
        }
    }

    /// The configuration the stream derives from.
    pub fn config(&self) -> &SourceConfig {
        &self.config
    }

    /// Human label of interface index `i` (`0` is the attacked one).
    pub fn interface_label(&self, interface: u32) -> String {
        if interface == 0 {
            "IVictim.attackSurface".to_owned()
        } else {
            format!("IBenign{interface}.method")
        }
    }

    /// Schedules the next call (and any add it triggers) into the queue.
    fn schedule_next_call(&mut self) {
        let at = self.next_call_at;
        if at > self.config.duration.as_micros() {
            return;
        }
        // ±20% arrival jitter keeps the long-run rate while breaking
        // lockstep with the scorer's bin edges.
        self.next_call_at = at + self.rng.jitter(self.gap_us, self.gap_us / 5);
        self.calls_issued += 1;
        let attacker_turn = self.rng.chance(self.config.attacker_share);
        if attacker_turn {
            let uid = self.config.attacker_uid();
            self.queue.schedule(
                SimTime::from_micros(at),
                SourceEventKind::Call { uid, interface: 0 },
            );
            let delay = self.rng.jitter(
                self.config.attack_delay.as_micros(),
                self.config.attack_jitter.as_micros(),
            );
            self.queue.schedule(
                SimTime::from_micros(at + delay.max(1)),
                SourceEventKind::Add,
            );
        } else {
            let apps = self.config.benign_apps.max(1);
            let interfaces = self.config.benign_interfaces.max(1);
            self.benign_cursor = self.benign_cursor.wrapping_add(1);
            let uid = self.config.benign_uid(self.benign_cursor % apps);
            let interface = 1 + self.benign_cursor % interfaces;
            self.queue.schedule(
                SimTime::from_micros(at),
                SourceEventKind::Call { uid, interface },
            );
            if self.config.benign_add_chance > 0.0 && self.rng.chance(self.config.benign_add_chance)
            {
                // Uncorrelated housekeeping add: lands anywhere in the next
                // 20 ms, so its votes spread across the delay histogram.
                let delay = self.rng.range(1..=20_000u64);
                self.queue
                    .schedule(SimTime::from_micros(at + delay), SourceEventKind::Add);
            }
        }
    }
}

impl Iterator for EventSource {
    type Item = SourceEvent;

    fn next(&mut self) -> Option<SourceEvent> {
        // Keep at least one future call scheduled so pending adds merge in
        // time order with calls that have not been generated yet.
        loop {
            let horizon_empty = self.queue.is_empty();
            let next_pending_after_call = self
                .queue
                .peek_time()
                .is_none_or(|t| t.as_micros() >= self.next_call_at);
            if (horizon_empty || next_pending_after_call)
                && self.next_call_at <= self.config.duration.as_micros()
            {
                self.schedule_next_call();
                continue;
            }
            break;
        }
        let (at, kind) = self.queue.pop()?;
        Some(SourceEvent { at, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(config: SourceConfig) -> Vec<SourceEvent> {
        EventSource::new(config).collect()
    }

    #[test]
    fn stream_is_deterministic_and_ordered() {
        let config = SourceConfig::default();
        let a = collect(config);
        let b = collect(config);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
    }

    #[test]
    fn rate_is_approximately_honoured() {
        let config = SourceConfig {
            events_per_sec: 5_000,
            duration: SimDuration::from_secs(2),
            ..SourceConfig::default()
        };
        let calls = collect(config)
            .iter()
            .filter(|e| matches!(e.kind, SourceEventKind::Call { .. }))
            .count() as f64;
        let expected = 10_000.0;
        assert!(
            (calls - expected).abs() / expected < 0.15,
            "calls {calls} vs expected {expected}"
        );
    }

    #[test]
    fn attacker_adds_trail_attacker_calls_by_the_delay() {
        let config = SourceConfig {
            attacker_share: 1.0,
            benign_add_chance: 0.0,
            ..SourceConfig::default()
        };
        let events = collect(config);
        let mut last_call: Option<SimTime> = None;
        for e in &events {
            match e.kind {
                SourceEventKind::Call { uid, interface } => {
                    assert_eq!(uid, config.attacker_uid());
                    assert_eq!(interface, 0);
                    last_call = Some(e.at);
                }
                SourceEventKind::Add => {
                    let call = last_call.expect("add after its call");
                    let delay = e.at.saturating_since(call).as_micros();
                    assert!(
                        delay <= config.attack_delay.as_micros() + config.attack_jitter.as_micros(),
                        "delay {delay}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = collect(SourceConfig::default());
        let b = collect(SourceConfig {
            seed: 99,
            ..SourceConfig::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn labels_are_stable() {
        let source = EventSource::new(SourceConfig::default());
        assert_eq!(source.interface_label(0), "IVictim.attackSurface");
        assert_eq!(source.interface_label(3), "IBenign3.method");
    }
}
