//! Versioned checkpoints of the defender's in-memory state.
//!
//! A checkpoint is a serialized snapshot of the [`JgrMonitor`] watches
//! plus the defender's cooldown stamps, tagged with the journal sequence
//! number it covers. Recovery restores the latest valid checkpoint and
//! replays only the journal records after it, which bounds replay work
//! by the checkpoint interval.
//!
//! A checkpoint is a [`jgre_sim::record`] header with magic `JGRECKP1`
//! followed by one frame holding the checkpoint's `serde_json` encoding.
//!
//! Decoding never panics: every malformed input maps to a typed
//! [`CheckpointReject`], and the caller falls back to journal-only
//! recovery. Losing a checkpoint is survivable by design — the monitor's
//! table-size tracking self-heals because every journaled event carries
//! the absolute table size.
//!
//! [`JgrMonitor`]: crate::JgrMonitor

use std::fmt;

use jgre_sim::record::{self, HeaderError};
use jgre_sim::{Pid, SimTime};
use serde::{Deserialize, Serialize};

use crate::DefenderConfig;

/// Magic prefix of a checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"JGRECKP1";
/// Checkpoint schema version; bump on any layout change.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;

/// Serialized form of one watch entry.
///
/// Timestamp maps are flattened to `Vec`s of tuples: the vendored
/// `serde_json` only supports string map keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchSnapshot {
    /// The watched process.
    pub pid: Pid,
    /// Current JGR table size.
    pub current: usize,
    /// When recording started, if recording.
    pub recording_since: Option<SimTime>,
    /// Recorded add timestamps.
    pub add_times: Vec<SimTime>,
    /// Whether the trigger threshold was crossed.
    pub alarmed: bool,
}

/// Serialized form of the whole monitor.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// Every watch, in pid order.
    pub watches: Vec<WatchSnapshot>,
}

/// One versioned checkpoint of defender + monitor state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenderCheckpoint {
    /// Journal records with sequence `>= journal_seq` are NOT covered by
    /// this checkpoint and must be replayed on top of it.
    pub journal_seq: u64,
    /// Virtual time the checkpoint was taken.
    pub taken_at: SimTime,
    /// Fingerprint of the [`DefenderConfig`] the state was built under; a
    /// mismatch (config changed across the restart) rejects the
    /// checkpoint rather than resuming with incompatible thresholds.
    pub config_fingerprint: u64,
    /// The monitor's watches.
    pub monitor: MonitorSnapshot,
    /// The defender's per-victim cooldown stamps.
    pub last_pass: Vec<(Pid, SimTime)>,
}

/// Why a checkpoint blob was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointReject {
    /// Shorter than the fixed prefix or the declared payload.
    Truncated,
    /// Magic mismatch.
    BadMagic,
    /// Schema version this build does not understand.
    BadVersion(u32),
    /// Payload checksum mismatch (bit rot, torn write).
    BadChecksum,
    /// Checksum passed but the payload did not deserialize (schema
    /// drift inside one version — should not happen, still must not
    /// panic).
    BadPayload,
}

impl fmt::Display for CheckpointReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointReject::Truncated => write!(f, "checkpoint truncated"),
            CheckpointReject::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointReject::BadVersion(v) => write!(f, "unknown checkpoint schema version {v}"),
            CheckpointReject::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointReject::BadPayload => write!(f, "checkpoint payload undecodable"),
        }
    }
}

/// Fingerprint of a configuration (the record checksum over its
/// canonical JSON), stored in the checkpoint so recovery can detect a
/// config change.
pub fn config_fingerprint(config: &DefenderConfig) -> u64 {
    let json = serde_json::to_vec(config).expect("DefenderConfig always serializes");
    record::checksum(&json)
}

/// Encodes a checkpoint into its framed, checksummed byte form.
pub fn encode_checkpoint(cp: &DefenderCheckpoint) -> Vec<u8> {
    let json = serde_json::to_vec(cp).expect("checkpoints always serialize");
    let mut out = Vec::with_capacity(record::HEADER_LEN + record::FRAME_OVERHEAD + json.len());
    record::write_header(&mut out, &CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION);
    record::write_frame(&mut out, &json);
    out
}

/// Decodes a checkpoint blob, rejecting (never panicking on) malformed
/// input.
///
/// # Errors
///
/// A [`CheckpointReject`] naming the first problem found.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<DefenderCheckpoint, CheckpointReject> {
    // The frame's length field counts as fixed header: anything shorter
    // is truncated before the magic is looked at.
    let mut cur = record::read_header(bytes, &CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, 4)
        .map_err(|e| match e {
            HeaderError::Short => CheckpointReject::Truncated,
            HeaderError::BadMagic => CheckpointReject::BadMagic,
            HeaderError::StaleVersion { found } => CheckpointReject::BadVersion(found),
        })?;
    let payload = cur
        .frame(0..=u32::MAX)
        .map_err(|_| CheckpointReject::BadChecksum)?
        .ok_or(CheckpointReject::Truncated)?;
    serde_json::from_slice(payload).map_err(|_| CheckpointReject::BadPayload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DefenderCheckpoint {
        DefenderCheckpoint {
            journal_seq: 91,
            taken_at: SimTime::from_micros(5_000),
            config_fingerprint: config_fingerprint(&DefenderConfig::default()),
            monitor: MonitorSnapshot {
                watches: vec![WatchSnapshot {
                    pid: Pid::new(612),
                    current: 4_321,
                    recording_since: Some(SimTime::from_micros(1_000)),
                    add_times: vec![SimTime::from_micros(1_000), SimTime::from_micros(1_010)],
                    alarmed: false,
                }],
            },
            last_pass: vec![(Pid::new(612), SimTime::from_micros(4_000))],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let cp = sample();
        assert_eq!(decode_checkpoint(&encode_checkpoint(&cp)), Ok(cp));
    }

    #[test]
    fn every_corruption_is_a_typed_rejection() {
        let good = encode_checkpoint(&sample());
        assert_eq!(decode_checkpoint(&[]), Err(CheckpointReject::Truncated));
        assert_eq!(
            decode_checkpoint(&good[..good.len() - 3]),
            Err(CheckpointReject::Truncated)
        );
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert_eq!(decode_checkpoint(&bad), Err(CheckpointReject::BadMagic));
        let mut bad = good.clone();
        bad[8] = 99;
        assert_eq!(
            decode_checkpoint(&bad),
            Err(CheckpointReject::BadVersion(99))
        );
        let mut bad = good.clone();
        bad[record::HEADER_LEN + 4 + 5] ^= 0x08;
        assert_eq!(decode_checkpoint(&bad), Err(CheckpointReject::BadChecksum));
    }

    #[test]
    fn config_change_changes_the_fingerprint() {
        let a = config_fingerprint(&DefenderConfig::default());
        let b = config_fingerprint(&DefenderConfig {
            normal_level: 2_999,
            ..DefenderConfig::default()
        });
        assert_ne!(a, b);
    }
}
