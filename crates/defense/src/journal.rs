//! The crash-consistency write-ahead journal.
//!
//! Every monitor event and defender decision is appended to a framed,
//! checksummed log *before* the in-memory state that depends on it is
//! considered durable. After a crash, [`Journal::reopen`] scans the log,
//! drops any torn tail (a frame the dying process never finished
//! writing), and hands the surviving records to the recovery path, which
//! replays them on top of the last checkpoint.
//!
//! A journal is a [`jgre_sim::record`] header with magic `JGREWAL1` and
//! one fixed field, the base sequence `u64`, followed by one frame per
//! record. A record's payload is a tag byte, then its fields in
//! declaration order (little-endian):
//!
//! ```text
//! Event:    0 | pid u32 | kind u8 (0 add, 1 remove) | at u64
//!             | logged_at opt | table_size u64
//! Decision: 1 | victim u32 | completed_at u64 | count u32 | uid u32 × count
//! ```
//!
//! Times are microseconds; an `opt` time is a flag byte (0 absent,
//! 1 present) followed by the time when present. Decoding is canonical:
//! any other tag or flag byte, a short field or a trailing byte refuses
//! the payload, and the clean prefix ends before its frame.
//!
//! The sequence number of a frame is implicit: `base + index`.
//! Compaction (after a checkpoint) rewrites the journal to an empty log
//! whose base is the checkpoint's sequence, so replay work stays bounded
//! by the checkpoint interval. Rewrites replace the whole file
//! atomically; corrupt input degrades to a shorter log, never to a
//! panic.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use jgre_art::JgrEventKind;
use jgre_sim::record::{self, Cursor, HeaderError, Put};
use jgre_sim::{Pid, SimTime, Uid};

use crate::DefenseError;

/// Magic prefix of a journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"JGREWAL1";
/// Journal schema version; bump on any layout change.
pub const JOURNAL_SCHEMA_VERSION: u32 = 3;
/// Sanity bound on a single frame's payload (an event is at most 31
/// bytes; a decision adds 4 per killed app).
const MAX_FRAME_LEN: u32 = 1 << 20;

const EVENT_TAG: u8 = 0;
const DECISION_TAG: u8 = 1;

/// One durable record: everything the defender needs to rebuild its
/// in-memory state after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// One observed JGR operation, as the monitor saw it (including the
    /// fault layer's verdict on whether/how the timestamp was logged, so
    /// replay does not re-draw from the fault RNG).
    Event {
        /// Process whose runtime performed the operation.
        pid: Pid,
        /// Add or remove.
        kind: JgrEventKind,
        /// Virtual time of the operation.
        at: SimTime,
        /// The timestamp as the (possibly faulty) journal recorded it;
        /// `None` when the fault layer lost it.
        logged_at: Option<SimTime>,
        /// Table size immediately after the operation.
        table_size: usize,
    },
    /// A completed detection + recovery pass (the state transition is the
    /// monitor reset plus the cooldown stamp).
    Decision {
        /// The process whose alarm fired.
        victim: Pid,
        /// When the pass finished (the cooldown stamp).
        completed_at: SimTime,
        /// Apps killed, in order.
        killed: Vec<Uid>,
    },
}

impl JournalRecord {
    /// Appends the record's payload (layout in the module docs).
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::Event {
                pid,
                kind,
                at,
                logged_at,
                table_size,
            } => {
                out.push(EVENT_TAG);
                out.put_u32(pid.raw());
                out.push(match kind {
                    JgrEventKind::Add => 0,
                    JgrEventKind::Remove => 1,
                });
                out.put_u64(at.as_micros());
                put_opt_time(out, *logged_at);
                out.put_u64(*table_size as u64);
            }
            JournalRecord::Decision {
                victim,
                completed_at,
                killed,
            } => {
                out.push(DECISION_TAG);
                out.put_u32(victim.raw());
                out.put_u64(completed_at.as_micros());
                put_count(out, killed.len());
                for uid in killed {
                    out.put_u32(uid.raw());
                }
            }
        }
    }

    /// Decodes one payload; `None` unless it is exactly one record.
    fn read(payload: &[u8]) -> Option<Self> {
        let mut cur = Cursor::new(payload);
        // A struct expression evaluates its fields in source order,
        // which is the layout's order.
        let record = match cur.u8()? {
            EVENT_TAG => JournalRecord::Event {
                pid: Pid::new(cur.u32()?),
                kind: match cur.u8()? {
                    0 => JgrEventKind::Add,
                    1 => JgrEventKind::Remove,
                    _ => return None,
                },
                at: read_time(&mut cur)?,
                logged_at: read_opt_time(&mut cur)?,
                table_size: read_size(&mut cur)?,
            },
            DECISION_TAG => JournalRecord::Decision {
                victim: Pid::new(cur.u32()?),
                completed_at: read_time(&mut cur)?,
                killed: read_list(&mut cur, |cur| cur.u32().map(Uid::new))?,
            },
            _ => return None,
        };
        cur.done().then_some(record)
    }
}

/// Appends a list's `u32` element count. Panics past `u32::MAX`
/// elements, a writer bug (no frame could hold them).
pub(crate) fn put_count(out: &mut Vec<u8>, len: usize) {
    out.put_u32(u32::try_from(len).unwrap_or_else(|_| panic!("list too long for a record")));
}

/// Appends an optional time: a flag byte, then the time when present.
pub(crate) fn put_opt_time(out: &mut Vec<u8>, at: Option<SimTime>) {
    match at {
        None => out.push(0),
        Some(at) => {
            out.push(1);
            out.put_u64(at.as_micros());
        }
    }
}

pub(crate) fn read_time(cur: &mut Cursor<'_>) -> Option<SimTime> {
    cur.u64().map(SimTime::from_micros)
}

/// Reads a flag byte; any value but 0 or 1 is refused.
pub(crate) fn read_flag(cur: &mut Cursor<'_>) -> Option<bool> {
    match cur.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

pub(crate) fn read_opt_time(cur: &mut Cursor<'_>) -> Option<Option<SimTime>> {
    if read_flag(cur)? {
        read_time(cur).map(Some)
    } else {
        Some(None)
    }
}

/// Reads a size written as `u64`; refused when it does not fit `usize`.
pub(crate) fn read_size(cur: &mut Cursor<'_>) -> Option<usize> {
    usize::try_from(cur.u64()?).ok()
}

/// Reads a count-prefixed list. A count the bytes cannot back fails at
/// the first missing element, before any allocation it could drive.
pub(crate) fn read_list<'a, T>(
    cur: &mut Cursor<'a>,
    mut item: impl FnMut(&mut Cursor<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let count = cur.u32()?;
    (0..count).map(|_| item(cur)).collect()
}

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// The backing store failed.
    Io(io::Error),
    /// The defender configuration was invalid.
    Config(DefenseError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "state store error: {e}"),
            PersistError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<DefenseError> for PersistError {
    fn from(e: DefenseError) -> Self {
        PersistError::Config(e)
    }
}

/// Byte-level backing store for the journal and the checkpoint.
///
/// Two implementations ship: [`MemoryStore`] (the chaos matrix and the
/// property tests, infallible) and [`DirStore`] (real files, atomic
/// checkpoint replacement via temp-file + rename).
pub trait StateStore: fmt::Debug {
    /// Reads the whole journal (empty if none exists yet).
    fn load_journal(&self) -> io::Result<Vec<u8>>;
    /// Appends raw bytes to the journal.
    fn append_journal(&self, bytes: &[u8]) -> io::Result<()>;
    /// Atomically replaces the journal (compaction, torn-tail truncation).
    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()>;
    /// Reads the checkpoint, `None` if none was ever written.
    fn load_checkpoint(&self) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replaces the checkpoint.
    fn store_checkpoint(&self, bytes: &[u8]) -> io::Result<()>;
}

#[derive(Debug, Default)]
struct MemoryInner {
    journal: Vec<u8>,
    checkpoint: Option<Vec<u8>>,
}

/// An in-memory [`StateStore`]. Clones share the same backing bytes, so
/// a test can keep a handle, drop the defender, and resume a new one
/// from the survivor.
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    inner: Rc<RefCell<MemoryInner>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the current journal bytes (for corruption tests).
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.inner.borrow().journal.clone()
    }

    /// A copy of the current checkpoint bytes, if any.
    pub fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        self.inner.borrow().checkpoint.clone()
    }

    /// Overwrites the journal bytes verbatim (simulating torn writes or
    /// bit rot in tests).
    pub fn set_journal_bytes(&self, bytes: Vec<u8>) {
        self.inner.borrow_mut().journal = bytes;
    }

    /// Overwrites the checkpoint bytes verbatim.
    pub fn set_checkpoint_bytes(&self, bytes: Option<Vec<u8>>) {
        self.inner.borrow_mut().checkpoint = bytes;
    }
}

impl StateStore for MemoryStore {
    fn load_journal(&self) -> io::Result<Vec<u8>> {
        Ok(self.inner.borrow().journal.clone())
    }

    fn append_journal(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.borrow_mut().journal.extend_from_slice(bytes);
        Ok(())
    }

    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.borrow_mut().journal = bytes.to_vec();
        Ok(())
    }

    fn load_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inner.borrow().checkpoint.clone())
    }

    fn store_checkpoint(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.borrow_mut().checkpoint = Some(bytes.to_vec());
        Ok(())
    }
}

/// A directory-backed [`StateStore`]: `wal.bin` + `checkpoint.bin`.
/// Rewrites go through a temp file and an atomic rename, so a crash
/// mid-rewrite leaves either the old file or the new one, never a mix.
#[derive(Debug)]
pub struct DirStore {
    journal: PathBuf,
    checkpoint: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) `dir` as a state store.
    ///
    /// # Errors
    ///
    /// Any error creating the directory.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            journal: dir.join("wal.bin"),
            checkpoint: dir.join("checkpoint.bin"),
        })
    }

    fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }
}

impl StateStore for DirStore {
    fn load_journal(&self) -> io::Result<Vec<u8>> {
        match fs::read(&self.journal) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append_journal(&self, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.journal)?;
        f.write_all(bytes)
    }

    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()> {
        Self::atomic_write(&self.journal, bytes)
    }

    fn load_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.checkpoint) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn store_checkpoint(&self, bytes: &[u8]) -> io::Result<()> {
        Self::atomic_write(&self.checkpoint, bytes)
    }
}

/// What [`Journal::reopen`] found.
#[derive(Debug)]
pub struct ReopenReport {
    /// Sequence number of the first surviving record.
    pub base_seq: u64,
    /// The surviving records, with their sequence numbers, in order.
    pub records: Vec<(u64, JournalRecord)>,
    /// Bytes dropped from a torn or corrupt tail.
    pub truncated_bytes: u64,
    /// Set when the whole file had to be discarded (bad magic, unknown
    /// schema version, or a short header).
    pub reset_reason: Option<&'static str>,
}

/// The append-side handle on the write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    store: Rc<dyn StateStore>,
    next_seq: u64,
    records_since_compaction: u64,
    append_errors: u64,
}

fn header_bytes(base_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(record::HEADER_LEN + 8);
    record::write_header(&mut out, &JOURNAL_MAGIC, JOURNAL_SCHEMA_VERSION);
    out.put_u64(base_seq);
    out
}

fn encode_frame(entry: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    record::write_frame_with(&mut out, |out| entry.put(out));
    out
}

impl Journal {
    /// Starts a fresh, empty journal at sequence 0 (a first install).
    ///
    /// # Errors
    ///
    /// Any error writing the header to the store.
    pub fn create(store: Rc<dyn StateStore>) -> io::Result<Self> {
        store.replace_journal(&header_bytes(0))?;
        Ok(Self::detached(store))
    }

    /// Reopens an existing journal after a crash: verifies the header,
    /// scans the frames, checksums each, and truncates the store to the
    /// longest clean prefix. A file with a bad magic/version/short header
    /// is discarded wholesale and restarted at sequence 0.
    ///
    /// # Errors
    ///
    /// Only store I/O errors; corrupt *content* never errors, it
    /// truncates.
    pub fn reopen(store: Rc<dyn StateStore>) -> io::Result<(Self, ReopenReport)> {
        let bytes = store.load_journal()?;
        let reset = |reason| -> io::Result<(Self, ReopenReport)> {
            store.replace_journal(&header_bytes(0))?;
            Ok((
                Self::detached(store.clone()),
                ReopenReport {
                    base_seq: 0,
                    records: Vec::new(),
                    truncated_bytes: bytes.len() as u64,
                    reset_reason: Some(reason),
                },
            ))
        };
        let mut cur = match record::read_header(&bytes, &JOURNAL_MAGIC, JOURNAL_SCHEMA_VERSION, 8) {
            Ok(cur) => cur,
            Err(HeaderError::Short) => return reset("short header"),
            Err(HeaderError::BadMagic) => return reset("bad magic"),
            Err(HeaderError::StaleVersion { .. }) => return reset("unknown schema version"),
        };
        let Some(base_seq) = cur.u64() else {
            return reset("short header");
        };
        let mut records = Vec::new();
        let mut offset = cur.pos();
        // Every failure — an incomplete frame, a bad length or checksum,
        // an undecodable payload — ends the clean prefix right there.
        while let Ok(Some(payload)) = cur.frame(0..=MAX_FRAME_LEN) {
            let Some(entry) = JournalRecord::read(payload) else {
                break;
            };
            records.push((base_seq + records.len() as u64, entry));
            offset = cur.pos();
        }
        let truncated_bytes = (bytes.len() - offset) as u64;
        if truncated_bytes > 0 {
            store.replace_journal(&bytes[..offset])?;
        }
        let next_seq = base_seq + records.len() as u64;
        Ok((
            Self {
                store,
                next_seq,
                records_since_compaction: records.len() as u64,
                append_errors: 0,
            },
            ReopenReport {
                base_seq,
                records,
                truncated_bytes,
                reset_reason: None,
            },
        ))
    }

    /// A handle on `store` that performs no I/O until first use — a
    /// placeholder while recovery rebuilds the real journal.
    pub(crate) fn detached(store: Rc<dyn StateStore>) -> Self {
        Self {
            store,
            next_seq: 0,
            records_since_compaction: 0,
            append_errors: 0,
        }
    }

    /// Appends one record and returns its sequence number. Store failures
    /// are counted, not propagated — the defender keeps running with a
    /// lossy journal rather than dying over it.
    pub fn append(&mut self, record: &JournalRecord) -> u64 {
        let seq = self.next_seq;
        if self.store.append_journal(&encode_frame(record)).is_err() {
            self.append_errors += 1;
        }
        self.next_seq += 1;
        self.records_since_compaction += 1;
        seq
    }

    /// Appends a deliberately torn frame — the write that was in flight
    /// when the process died. Reopen must drop exactly this tail. The
    /// sequence number does not advance: the record never completed.
    pub fn append_torn_frame(&mut self) {
        let frame = encode_frame(&JournalRecord::Decision {
            victim: Pid::new(0),
            completed_at: SimTime::ZERO,
            killed: Vec::new(),
        });
        let cut = frame.len().saturating_sub(6).max(4);
        if self.store.append_journal(&frame[..cut]).is_err() {
            self.append_errors += 1;
        }
    }

    /// Rewrites the journal to an empty log based at `base_seq` (called
    /// right after a checkpoint covering everything before `base_seq`).
    pub fn compact(&mut self, base_seq: u64) {
        if self.store.replace_journal(&header_bytes(base_seq)).is_err() {
            self.append_errors += 1;
            return;
        }
        self.next_seq = base_seq;
        self.records_since_compaction = 0;
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records appended since the last compaction — the replay bound.
    pub fn records_since_compaction(&self) -> u64 {
        self.records_since_compaction
    }

    /// Store failures swallowed so far.
    pub fn append_errors(&self) -> u64 {
        self.append_errors
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn event(seq: u64) -> JournalRecord {
        JournalRecord::Event {
            pid: Pid::new(42),
            kind: JgrEventKind::Add,
            at: SimTime::from_micros(seq * 10),
            logged_at: Some(SimTime::from_micros(seq * 10)),
            table_size: seq as usize,
        }
    }

    #[test]
    fn append_reopen_round_trips() {
        let store = MemoryStore::new();
        let mut j = Journal::create(Rc::new(store.clone())).unwrap();
        for i in 0..5 {
            assert_eq!(j.append(&event(i)), i);
        }
        let (j2, report) = Journal::reopen(Rc::new(store)).unwrap();
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.reset_reason.is_none());
        assert_eq!(report.records[3].0, 3);
        assert_eq!(report.records[3].1, event(3));
        assert_eq!(j2.next_seq(), 5);
    }

    #[test]
    fn torn_tail_is_truncated_to_clean_prefix() {
        let store = MemoryStore::new();
        let mut j = Journal::create(Rc::new(store.clone())).unwrap();
        j.append(&event(0));
        j.append(&event(1));
        j.append_torn_frame();
        let before = store.journal_bytes().len();
        let (_, report) = Journal::reopen(Rc::new(store.clone())).unwrap();
        assert_eq!(report.records.len(), 2, "intact frames survive");
        assert!(report.truncated_bytes > 0);
        assert!(store.journal_bytes().len() < before);
        // A second reopen is clean: truncation converged.
        let (_, report) = Journal::reopen(Rc::new(store)).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.records.len(), 2);
    }

    #[test]
    fn bit_flip_in_payload_stops_the_scan_there() {
        let store = MemoryStore::new();
        let mut j = Journal::create(Rc::new(store.clone())).unwrap();
        for i in 0..4 {
            j.append(&event(i));
        }
        let mut bytes = store.journal_bytes();
        // Flip a byte inside the third frame's payload.
        let frame = encode_frame(&event(0)).len();
        let target = record::HEADER_LEN + 8 + 2 * frame + 10;
        bytes[target] ^= 0x40;
        store.set_journal_bytes(bytes);
        let (_, report) = Journal::reopen(Rc::new(store)).unwrap();
        assert_eq!(report.records.len(), 2, "records before the flip survive");
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn bad_magic_resets_wholesale() {
        let store = MemoryStore::new();
        let mut j = Journal::create(Rc::new(store.clone())).unwrap();
        j.append(&event(0));
        let mut bytes = store.journal_bytes();
        bytes[0] = b'X';
        store.set_journal_bytes(bytes);
        let (j2, report) = Journal::reopen(Rc::new(store)).unwrap();
        assert_eq!(report.reset_reason, Some("bad magic"));
        assert!(report.records.is_empty());
        assert_eq!(j2.next_seq(), 0);
    }

    #[test]
    fn compaction_rebases_the_sequence() {
        let store = MemoryStore::new();
        let mut j = Journal::create(Rc::new(store.clone())).unwrap();
        for i in 0..7 {
            j.append(&event(i));
        }
        j.compact(7);
        assert_eq!(j.records_since_compaction(), 0);
        assert_eq!(j.append(&event(7)), 7);
        let (_, report) = Journal::reopen(Rc::new(store)).unwrap();
        assert_eq!(report.base_seq, 7);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].0, 7);
    }

    #[test]
    fn dir_store_survives_a_host_process_restart() {
        let dir = std::env::temp_dir().join(format!("jgre-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Rc::new(DirStore::open(&dir).unwrap());
            let mut j = Journal::create(store).unwrap();
            j.append(&event(0));
            j.append(&event(1));
            j.append_torn_frame();
        }
        {
            let store = Rc::new(DirStore::open(&dir).unwrap());
            let (_, report) = Journal::reopen(store).unwrap();
            assert_eq!(report.records.len(), 2);
            assert!(report.truncated_bytes > 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
