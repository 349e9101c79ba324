//! Versioned checkpoints of the defender's in-memory state.
//!
//! A checkpoint is a serialized snapshot of the [`JgrMonitor`] watches
//! plus the defender's cooldown stamps, tagged with the journal sequence
//! number it covers. Recovery restores the latest valid checkpoint and
//! replays only the journal records after it, which bounds replay work
//! by the checkpoint interval.
//!
//! A checkpoint is a [`jgre_sim::record`] header with magic `JGRECKP1`
//! followed by one frame. Its payload holds the fields in declaration
//! order, with the journal's conventions (little-endian; times in
//! microseconds; `opt` a flag byte then the time when present; lists a
//! `u32` count then the elements):
//!
//! ```text
//! journal_seq u64 | taken_at u64 | config_fingerprint u64
//! | watches: count u32 × (pid u32 | current u64 | recording_since opt
//!                         | add_times: count u32 × u64 | alarmed u8)
//! | last_pass: count u32 × (pid u32 | at u64)
//! ```
//!
//! Decoding never panics: every malformed input maps to a typed
//! [`CheckpointReject`], and the caller falls back to journal-only
//! recovery. Decoding is canonical, so a flag byte other than 0 or 1, a
//! short field or a trailing byte is [`CheckpointReject::BadPayload`].
//! Losing a checkpoint is survivable by design — the monitor's
//! table-size tracking self-heals because every journaled event carries
//! the absolute table size.
//!
//! [`JgrMonitor`]: crate::JgrMonitor

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

use jgre_sim::record::{self, Cursor, HeaderError, Put, StableHasher};
use jgre_sim::{Pid, SimTime};

use crate::journal::{
    put_count, put_opt_time, read_flag, read_list, read_opt_time, read_size, read_time,
};
use crate::DefenderConfig;

/// Magic prefix of a checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"JGRECKP1";
/// Checkpoint schema version; bump on any layout change.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 4;

/// Serialized form of one watch entry.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// Every watch, in pid order.
    pub watches: Vec<WatchSnapshot>,
}

/// One versioned checkpoint of defender + monitor state.
#[derive(Debug, Clone, PartialEq)]
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

impl DefenderCheckpoint {
    /// Appends the checkpoint's payload (layout in the module docs).
    fn put(&self, out: &mut Vec<u8>) {
        out.put_u64(self.journal_seq);
        out.put_u64(self.taken_at.as_micros());
        out.put_u64(self.config_fingerprint);
        put_count(out, self.monitor.watches.len());
        for watch in &self.monitor.watches {
            out.put_u32(watch.pid.raw());
            out.put_u64(watch.current as u64);
            put_opt_time(out, watch.recording_since);
            put_count(out, watch.add_times.len());
            for at in &watch.add_times {
                out.put_u64(at.as_micros());
            }
            out.push(u8::from(watch.alarmed));
        }
        put_count(out, self.last_pass.len());
        for (pid, at) in &self.last_pass {
            out.put_u32(pid.raw());
            out.put_u64(at.as_micros());
        }
    }

    /// Decodes one payload; `None` unless it is exactly one checkpoint.
    fn read(payload: &[u8]) -> Option<Self> {
        let mut cur = Cursor::new(payload);
        // Fields evaluate in source order, the layout's order.
        let cp = DefenderCheckpoint {
            journal_seq: cur.u64()?,
            taken_at: read_time(&mut cur)?,
            config_fingerprint: cur.u64()?,
            monitor: MonitorSnapshot {
                watches: read_list(&mut cur, read_watch)?,
            },
            last_pass: read_list(&mut cur, |cur| {
                Some((Pid::new(cur.u32()?), read_time(cur)?))
            })?,
        };
        cur.done().then_some(cp)
    }
}

fn read_watch(cur: &mut Cursor<'_>) -> Option<WatchSnapshot> {
    Some(WatchSnapshot {
        pid: Pid::new(cur.u32()?),
        current: read_size(cur)?,
        recording_since: read_opt_time(cur)?,
        add_times: read_list(cur, read_time)?,
        alarmed: read_flag(cur)?,
    })
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
    /// Checksum passed but the payload did not decode (schema drift
    /// inside one version, or crafted bytes; still must not panic).
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

/// Fingerprint of a configuration ([`StableHasher`] over every field),
/// stored in the checkpoint so recovery can detect a config change.
pub fn config_fingerprint(config: &DefenderConfig) -> u64 {
    // Destructured, so a new field cannot be left out of the hash.
    let DefenderConfig {
        record_threshold,
        trigger_threshold,
        normal_level,
        max_kills,
        classify_paths,
        kill_retries,
        kill_backoff,
        cooldown,
    } = config;
    let mut h = StableHasher::new();
    for size in [record_threshold, trigger_threshold, normal_level, max_kills] {
        h.write_u64(*size as u64);
    }
    h.write_u8(u8::from(*classify_paths));
    h.write_u32(*kill_retries);
    h.write_u64(kill_backoff.as_micros());
    h.write_u64(cooldown.as_micros());
    h.finish()
}

/// Encodes a checkpoint into its framed, checksummed byte form.
pub fn encode_checkpoint(cp: &DefenderCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    record::write_header(&mut out, &CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION);
    record::write_frame_with(&mut out, |out| cp.put(out));
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
    DefenderCheckpoint::read(payload).ok_or(CheckpointReject::BadPayload)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use jgre_sim::SimDuration;

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
        let base = DefenderConfig::default();
        let a = config_fingerprint(&base);
        let changed = [
            DefenderConfig {
                record_threshold: base.record_threshold + 1,
                ..base.clone()
            },
            DefenderConfig {
                trigger_threshold: base.trigger_threshold + 1,
                ..base.clone()
            },
            DefenderConfig {
                normal_level: 2_999,
                ..base.clone()
            },
            DefenderConfig {
                max_kills: base.max_kills + 1,
                ..base.clone()
            },
            DefenderConfig {
                classify_paths: !base.classify_paths,
                ..base.clone()
            },
            DefenderConfig {
                kill_retries: base.kill_retries + 1,
                ..base.clone()
            },
            DefenderConfig {
                kill_backoff: base.kill_backoff + SimDuration::from_micros(1),
                ..base.clone()
            },
            DefenderConfig {
                cooldown: base.cooldown + SimDuration::from_micros(1),
                ..base.clone()
            },
        ];
        for config in &changed {
            assert_ne!(config_fingerprint(config), a, "{config:?}");
        }
    }
}
