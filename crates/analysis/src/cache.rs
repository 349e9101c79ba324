//! On-disk summary cache for the incremental leak-check engine.
//!
//! One file (`summaries.bin`) holds two tiers:
//!
//! * **Tier A** — the whole-corpus summary table in `MethodId` order
//!   (raw ids, no string remapping), followed by a per-method index
//!   [`IndexRow`]: fact fingerprint, SCC key, summary fingerprint. The
//!   engine compares the index's fact fingerprints with the corpus's:
//!   every method outside the changed methods' caller cone takes its
//!   summary straight from the table. An unchanged tree is the empty
//!   cone — the warm path the ≥10x target rests on.
//! * **Tier B** — one record per call-graph SCC, keyed by the SCC key
//!   (member fact fingerprints + external callee summary fingerprints).
//!   Records reference methods by `(class, name)` so they survive
//!   `MethodId` renumbering; SCCs inside the cone, and every SCC when
//!   the index cannot be used, look their key up here.
//!
//! The file is a [`jgre_sim::record`] header with magic `JGRESUMC` and
//! two fixed fields, `corpus_fp u64` (the exact-match key) and
//! `scc_count u32` (SCCs behind Tier A), followed by the Tier A frame
//! and then, until EOF, one `key u64 | frame` per Tier B record in key
//! order. A loaded Tier B keeps the file buffer and indexes its
//! verified frames in place; [`store`] writes each kept frame back
//! verbatim, merged in key order with the records the run encoded.
//!
//! Every reader treats the file as untrusted input: a bad magic or
//! version rejects the whole file, a bad Tier A checksum stops parsing
//! (the framing can no longer be trusted), a truncated or corrupt Tier B
//! record is skipped — each rejection increments the `invalidated`
//! counter, records a typed [`RejectReason`], and the engine recomputes,
//! never panics.
//!
//! **Schema-version bump rule:** any change to the payload encodings,
//! the fingerprint recipes they key on, or the summary semantics they
//! capture must bump [`SCHEMA_VERSION`] so stale files self-invalidate.
//! Version 3 added the per-site predicate byte ([`PredSet`]) to every
//! fate encoding; version 4 added the Tier A index. Files of an earlier
//! version are rejected whole as [`RejectReason::StaleSchema`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use jgre_corpus::body::AllocSite;
use jgre_corpus::{CodeModel, MethodId};
use jgre_sim::record::{self, Cursor, HeaderError, Put, StableHasher};

use crate::leakcheck::{EscapeKind, MethodSummary, PredSet, Retention, SiteSummary};

/// Bumped whenever the cache encoding or the fingerprints it keys on
/// change shape; readers reject any other version.
pub const SCHEMA_VERSION: u32 = 4;

/// File name of the summary cache inside `--cache-dir`.
pub const CACHE_FILE: &str = "summaries.bin";

const MAGIC: &[u8; 8] = b"JGRESUMC";
/// `corpus_fp u64 | scc_count u32` after the record header.
const FIXED_LEN: usize = 8 + 4;
/// Payloads are only bounded by the length field.
const LENS: std::ops::RangeInclusive<u32> = 0..=u32::MAX;

// ------------------------------------------------------------------
// Summary payload encodings
// ------------------------------------------------------------------

/// A site's shape as `(tag, binder-param index)`.
fn site_shape(site: AllocSite) -> (u8, u32) {
    match site {
        AllocSite::BinderParam(i) => (0, i as u32),
        AllocSite::DeathRecipient => (1, 0),
        AllocSite::ThreadPeer => (2, 0),
        AllocSite::ParcelStrongBinder => (3, 0),
    }
}

/// A site's fate, escape kind, read-only-key flag and predicate bits,
/// one byte each.
fn fate_bytes(site: &SiteSummary) -> [u8; 4] {
    let fate = match site.fate {
        Retention::Released => 0,
        Retention::Bounded => 1,
        Retention::Unbounded => 2,
    };
    let escape = match site.escape {
        None => 0,
        Some(EscapeKind::ScalarReplace) => 1,
        Some(EscapeKind::BoundedCollection) => 2,
        Some(EscapeKind::UnboundedCollection) => 3,
    };
    [
        fate,
        escape,
        u8::from(site.read_only_key),
        site.preds.bits(),
    ]
}

fn enc_site(e: &mut Vec<u8>, site: &SiteSummary) {
    let (tag, idx) = site_shape(site.site);
    e.push(tag);
    e.put_u32(idx);
    e.extend_from_slice(&fate_bytes(site));
}

fn dec_site(d: &mut Cursor, method: MethodId) -> Option<SiteSummary> {
    let (tag, idx) = (d.u8()?, d.u32()?);
    let site = match tag {
        0 => AllocSite::BinderParam(idx as usize),
        1 => AllocSite::DeathRecipient,
        2 => AllocSite::ThreadPeer,
        3 => AllocSite::ParcelStrongBinder,
        _ => return None,
    };
    let fate = match d.u8()? {
        0 => Retention::Released,
        1 => Retention::Bounded,
        2 => Retention::Unbounded,
        _ => return None,
    };
    let escape = match d.u8()? {
        0 => None,
        1 => Some(EscapeKind::ScalarReplace),
        2 => Some(EscapeKind::BoundedCollection),
        3 => Some(EscapeKind::UnboundedCollection),
        _ => return None,
    };
    let read_only_key = match d.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    // Unknown predicate bits mean a future lattice wrote the file: a
    // typed rejection, not a best-effort decode.
    let preds = PredSet::from_bits(d.u8()?)?;
    Some(SiteSummary {
        method,
        site,
        fate,
        escape,
        read_only_key,
        preds,
    })
}

/// One method's row of the Tier A index, in `MethodId` order after the
/// summary table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexRow {
    /// The method's fact fingerprint when the table was written; a
    /// different one now puts the method in the edit's cone.
    pub fact_fp: u64,
    /// The key of the method's SCC — its Tier B record.
    pub scc_key: u64,
    /// [`summary_fingerprint`] of the method's summary, read by the SCC
    /// keys of its callers.
    pub summary_fp: u64,
}

/// Bytes of one encoded [`IndexRow`].
const INDEX_ROW_LEN: usize = 3 * 8;

/// Encodes the whole-corpus summary table: summaries in `MethodId`
/// order with raw ids. A Tier A payload is this table followed by
/// [`encode_index`].
pub fn encode_tier_a(summaries: &[MethodSummary]) -> Vec<u8> {
    let mut e = Vec::new();
    e.put_u32(summaries.len() as u32);
    for s in summaries {
        e.push(u8::from(s.saw_handler));
        e.put_u32(s.sites.len() as u32);
        for site in &s.sites {
            e.put_u32(site.method.0);
            enc_site(&mut e, site);
        }
    }
    e
}

/// Appends the per-method index to an encoded summary table, completing
/// a Tier A payload.
pub fn encode_index(tier_a: &mut Vec<u8>, index: &[IndexRow]) {
    tier_a.reserve(4 + index.len() * INDEX_ROW_LEN);
    tier_a.put_u32(index.len() as u32);
    for row in index {
        tier_a.put_u64(row.fact_fp);
        tier_a.put_u64(row.scc_key);
        tier_a.put_u64(row.summary_fp);
    }
}

/// The method count a Tier A payload's table claims, read without
/// decoding it.
fn table_len(bytes: &[u8]) -> Option<usize> {
    Cursor::new(bytes).u32().map(|n| n as usize)
}

/// Decodes a Tier A payload: the summary table and the index behind it.
/// `method_count` bounds the table length, every site's raw `MethodId`
/// and the index length; a payload without a matching index is refused.
pub fn decode_tier_a(
    bytes: &[u8],
    method_count: usize,
) -> Option<(Vec<MethodSummary>, Vec<IndexRow>)> {
    let mut d = Cursor::new(bytes);
    let n = d.u32()? as usize;
    if n != method_count {
        return None;
    }
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        let saw_handler = d.u8()? != 0;
        let nsites = d.u32()? as usize;
        let mut sites = Vec::with_capacity(nsites.min(1024));
        for _ in 0..nsites {
            let method = d.u32()? as usize;
            if method >= method_count {
                return None;
            }
            sites.push(dec_site(&mut d, MethodId(method as u32))?);
        }
        table.push(MethodSummary { sites, saw_handler });
    }
    if d.u32()? as usize != n {
        return None;
    }
    let mut index = Vec::with_capacity(n);
    for _ in 0..n {
        index.push(IndexRow {
            fact_fp: d.u64()?,
            scc_key: d.u64()?,
            summary_fp: d.u64()?,
        });
    }
    d.done().then_some((table, index))
}

fn enc_member(e: &mut Vec<u8>, model: &CodeModel, id: MethodId, summary: &MethodSummary) {
    let def = model.method(id);
    e.put_str(&def.class);
    e.put_str(&def.name);
    e.push(u8::from(summary.saw_handler));
    e.put_u32(summary.sites.len() as u32);
    for site in &summary.sites {
        let origin = model.method(site.method);
        e.put_str(&origin.class);
        e.put_str(&origin.name);
        enc_site(e, site);
    }
}

/// Encodes one SCC's summaries as a portable Tier B record.
pub fn encode_record(model: &CodeModel, members: &[(MethodId, &MethodSummary)]) -> Vec<u8> {
    let mut e = Vec::new();
    e.put_u32(members.len() as u32);
    for (id, summary) in members {
        enc_member(&mut e, model, *id, summary);
    }
    e
}

/// Decodes a Tier B record and remaps its `(class, name)` references
/// onto the current corpus, in one pass over the bytes without
/// allocating intermediate strings (a renumbered corpus remaps every
/// record, so this is hot). Returns `None` when the record does
/// not map cleanly onto `scc`: wrong member count, a name the index
/// cannot resolve, or a member outside the SCC.
///
/// Beside the members, reports whether the stored bytes are already in
/// the order [`encode_record`] gives them under the current numbering
/// (members by `MethodId`, sites by `(method, site)`). A record written
/// under another numbering may not be; it must then be re-encoded for
/// the next file to equal a fresh run's.
pub fn remap_record(
    bytes: &[u8],
    scc: &[MethodId],
    name_index: &HashMap<(&str, &str), MethodId>,
) -> Option<(Vec<(MethodId, MethodSummary)>, bool)> {
    let mut d = Cursor::new(bytes);
    let n = d.u32()? as usize;
    if n != scc.len() {
        return None;
    }
    let mut out: Vec<(MethodId, MethodSummary)> = Vec::with_capacity(n);
    let mut canonical = true;
    for _ in 0..n {
        let class = d.str()?;
        let name = d.str()?;
        let id = *name_index.get(&(class, name))?;
        if scc.binary_search(&id).is_err() {
            return None;
        }
        canonical &= out.last().is_none_or(|(prev, _)| *prev < id);
        let saw_handler = d.u8()? != 0;
        let nsites = d.u32()? as usize;
        let mut sites = Vec::with_capacity(nsites.min(1024));
        for _ in 0..nsites {
            let site_class = d.str()?;
            let site_name = d.str()?;
            let method = *name_index.get(&(site_class, site_name))?;
            sites.push(dec_site(&mut d, method)?);
        }
        // Recomputed summaries come out of a BTreeMap keyed on
        // (method, site); restore that canonical order in case the
        // stored corpus numbered its methods differently.
        if !sites.is_sorted_by_key(|a| (a.method, a.site)) {
            sites.sort_by_key(|a| (a.method, a.site));
            canonical = false;
        }
        out.push((id, MethodSummary { sites, saw_handler }));
    }
    d.done().then_some((out, canonical))
}

/// Stable fingerprint of one method's *summary* — the "callee summary
/// fingerprint" half of an SCC key. Mirrors the portable member fields
/// (names, not `MethodId`s), streamed straight into the hasher: it runs
/// once per method on every caching run, so no intermediate buffer.
pub fn summary_fingerprint(model: &CodeModel, id: MethodId, summary: &MethodSummary) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(0x4a47_5245_534d_4631); // "JGRESMF1": summary-recipe tag
    let def = model.method(id);
    h.write_str(&def.class);
    h.write_str(&def.name);
    h.write_u8(u8::from(summary.saw_handler));
    h.write_u32(summary.sites.len() as u32);
    for site in &summary.sites {
        let origin = model.method(site.method);
        h.write_str(&origin.class);
        h.write_str(&origin.name);
        let (tag, idx) = site_shape(site.site);
        h.write_u8(tag);
        h.write_u32(idx);
        for byte in fate_bytes(site) {
            h.write_u8(byte);
        }
    }
    h.finish()
}

// ------------------------------------------------------------------
// File load/store
// ------------------------------------------------------------------

/// Why a cache region was rejected, as a typed value — tests and
/// diagnostics can distinguish a stale lattice schema from corruption
/// instead of pattern-matching on counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The file is shorter than the fixed header.
    TruncatedHeader,
    /// The magic bytes did not match [`CACHE_FILE`]'s format.
    BadMagic,
    /// The file was written under a different lattice schema — e.g. a
    /// boolean-guard-era version-2 file read by the predicate lattice.
    StaleSchema {
        /// The version recorded in the file's header.
        found: u32,
    },
    /// A payload failed its checksum or its framing ran off the end.
    Corrupt,
    /// A payload framed and checksummed clean but decoded to values
    /// outside the current domain (unknown tags or predicate bits), or a
    /// Tier A table without an index of its length.
    MalformedPayload,
}

/// Tier B: SCC records in key order, one per key. A loaded Tier B owns
/// the file it was read from and indexes each checksum-verified frame in
/// place, with no per-record copy; records the run encodes are added
/// beside them.
#[derive(Debug, Default)]
pub struct TierB {
    /// The loaded file; carried records are frames inside it.
    file: Vec<u8>,
    /// Record keys, sorted and unique; `records[i]` is stored under
    /// `keys[i]`.
    keys: Vec<u64>,
    records: Vec<Record>,
}

/// The payload inside a `len u32 | payload | checksum u64` frame.
fn payload_of(frame: &Range<usize>) -> Range<usize> {
    frame.start + 4..frame.end - 8
}

#[derive(Debug)]
enum Record {
    /// A verified `len | payload | checksum` frame at this range of
    /// [`TierB::file`].
    Carried(Range<usize>),
    /// A payload encoded by this run, framed by [`store`].
    Fresh(Vec<u8>),
}

impl TierB {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The position of `key`'s record, the handle [`TierB::carry_over`]
    /// takes.
    pub(crate) fn position(&self, key: u64) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// The position and payload of `key`'s record.
    pub(crate) fn find(&self, key: u64) -> Option<(usize, &[u8])> {
        let pos = self.position(key)?;
        let payload = match self.records.get(pos)? {
            Record::Carried(frame) => self.file.get(payload_of(frame))?,
            Record::Fresh(payload) => payload,
        };
        Some((pos, payload))
    }

    /// The records at the positions `keep` marks, merged in key order
    /// with `fresh` (which wins on an equal key): what the next file
    /// holds. Kept frames stay where they are in the file buffer.
    pub(crate) fn carry_over(self, keep: &[bool], fresh: BTreeMap<u64, Vec<u8>>) -> TierB {
        let kept = keep.iter().filter(|k| **k).count();
        let mut out = TierB {
            file: Vec::new(),
            keys: Vec::with_capacity(kept + fresh.len()),
            records: Vec::with_capacity(kept + fresh.len()),
        };
        let mut fresh = fresh.into_iter().peekable();
        let carried = self.keys.into_iter().zip(self.records).zip(keep);
        for ((key, record), _) in carried.filter(|(_, keep)| **keep) {
            while let Some((k, payload)) = fresh.next_if(|(k, _)| *k <= key) {
                out.push(k, Record::Fresh(payload));
            }
            if out.keys.last() != Some(&key) {
                out.push(key, record);
            }
        }
        for (k, payload) in fresh {
            out.push(k, Record::Fresh(payload));
        }
        out.file = self.file;
        out
    }

    fn push(&mut self, key: u64, record: Record) {
        self.keys.push(key);
        self.records.push(record);
    }
}

#[cfg(test)]
impl From<BTreeMap<u64, Vec<u8>>> for TierB {
    fn from(records: BTreeMap<u64, Vec<u8>>) -> Self {
        let mut tier_b = TierB::default();
        for (key, payload) in records {
            tier_b.push(key, Record::Fresh(payload));
        }
        tier_b
    }
}

/// The cache file's validated contents. Rejected parts are simply
/// absent; `invalidated` counts every rejection and `reject` records
/// the first one's typed reason.
#[derive(Debug, Default)]
pub struct LoadedCache {
    /// Tier A summaries, present when the table and its index decoded
    /// clean for `method_count` methods — under any corpus fingerprint:
    /// the index tells the engine which of them still hold.
    pub tier_a: Option<Vec<MethodSummary>>,
    /// The Tier A index, one row per method; empty without `tier_a`.
    pub index: Vec<IndexRow>,
    /// Whether the header's corpus fingerprint matched the expected one.
    pub exact: bool,
    /// SCC count recorded beside Tier A (reported as hits when nothing
    /// is dirty).
    pub scc_count: u32,
    /// Tier B records, their checksums verified. Left empty on a clean
    /// exact hit: nothing is dirty, so the records would never be
    /// consulted, and the warm path skips verifying them.
    pub tier_b: TierB,
    /// Whether Tier B was read and verified (false on a clean exact
    /// hit, where it is left empty).
    pub tier_b_verified: bool,
    /// Corrupt or stale parts rejected while loading.
    pub invalidated: u64,
    /// The first rejection's reason, when anything was rejected.
    pub reject: Option<RejectReason>,
}

impl LoadedCache {
    fn rejected(&mut self, reason: RejectReason) {
        self.invalidated += 1;
        self.reject.get_or_insert(reason);
    }

    /// Parses the header and Tier A into `self` and walks the Tier B
    /// framing; returns every Tier B frame as `(key, frame range, stored
    /// checksum)`, unverified.
    fn parse(
        &mut self,
        bytes: &[u8],
        expected_fp: u64,
        method_count: usize,
    ) -> Vec<(u64, Range<usize>, u64)> {
        let mut frames = Vec::new();
        // The Tier A frame's length field counts as fixed header: a file
        // without it is truncated, not corrupt.
        let mut d = match record::read_header(bytes, MAGIC, SCHEMA_VERSION, FIXED_LEN + 4) {
            Ok(d) => d,
            Err(e) => {
                self.rejected(match e {
                    HeaderError::Short => RejectReason::TruncatedHeader,
                    HeaderError::BadMagic => RejectReason::BadMagic,
                    HeaderError::StaleVersion { found } => RejectReason::StaleSchema { found },
                });
                return frames;
            }
        };
        let (Some(corpus_fp), Some(scc_count)) = (d.u64(), d.u32()) else {
            self.rejected(RejectReason::TruncatedHeader);
            return frames;
        };
        self.exact = corpus_fp == expected_fp;
        self.scc_count = scc_count;
        // A Tier A frame that does not verify makes its length field, and
        // so any Tier B framing after it, untrustworthy: stop here.
        let Ok(Some(tier_a_payload)) = d.frame(LENS) else {
            self.rejected(RejectReason::Corrupt);
            return frames;
        };
        // A table of another length is another corpus, not corruption —
        // unless the corpus fingerprint says it is this one.
        if self.exact || table_len(tier_a_payload) == Some(method_count) {
            match decode_tier_a(tier_a_payload, method_count) {
                Some((table, index)) => {
                    self.tier_a = Some(table);
                    self.index = index;
                }
                None => self.rejected(RejectReason::MalformedPayload),
            }
        }
        // Walk the Tier B framing (cheap pointer arithmetic) so truncation
        // is always detected; checksums are left to the caller.
        while !d.done() {
            let Some(key) = d.u64() else {
                self.rejected(RejectReason::Corrupt);
                break;
            };
            let start = d.pos();
            let Ok(Some((_, stored))) = d.raw_frame(LENS) else {
                self.rejected(RejectReason::Corrupt);
                break;
            };
            frames.push((key, start..d.pos(), stored));
        }
        frames
    }
}

/// Loads and validates `path`. A missing file is an empty cache, not
/// corruption; every malformed region bumps `invalidated` and is
/// dropped.
pub fn load(path: &Path, expected_fp: u64, method_count: usize) -> LoadedCache {
    let mut out = LoadedCache::default();
    let Ok(bytes) = fs::read(path) else {
        return out;
    };
    let frames = out.parse(&bytes, expected_fp, method_count);
    // On a clean exact hit the records are never consulted, and
    // verifying megabytes of payload would dominate the warm path.
    // Checksums run only when the records may be used or written back.
    if out.exact && out.tier_a.is_some() && out.invalidated == 0 {
        return out;
    }
    let mut verified = Vec::with_capacity(frames.len());
    for (key, frame, stored) in frames {
        let payload = bytes.get(payload_of(&frame));
        if payload.map(record::checksum) != Some(stored) {
            out.rejected(RejectReason::Corrupt);
            continue;
        }
        verified.push((key, frame));
    }
    // A writer emits keys in order; anything else was crafted. Duplicate
    // keys: the last record wins, matching append semantics.
    if !verified.is_sorted_by(|a, b| a.0 < b.0) {
        verified.sort_by_key(|(key, _)| *key);
        verified.dedup_by(|later, earlier| {
            let duplicate = later.0 == earlier.0;
            if duplicate {
                std::mem::swap(later, earlier);
            }
            duplicate
        });
    }
    let mut tier_b = TierB::default();
    for (key, frame) in verified {
        tier_b.push(key, Record::Carried(frame));
    }
    tier_b.file = bytes;
    out.tier_b = tier_b;
    out.tier_b_verified = true;
    out
}

/// Writes the cache file to a temp file and renames it into place, so a
/// reader never sees a partial file. Tier B records are emitted in key
/// order so identical logical contents produce identical bytes; carried
/// frames are copied verbatim, and nothing is assembled in memory first.
///
/// The old file is removed before the rename: renaming over it makes
/// ext4 start writeback of the new file at once (its replace-by-rename
/// heuristic), which costs more than the rest of the store. A reader in
/// between finds no cache and runs cold; a crash before the data reaches
/// the disk can leave a short file, which loads as a typed rejection.
pub fn store(
    path: &Path,
    corpus_fp: u64,
    scc_count: u32,
    tier_a: &[u8],
    tier_b: &TierB,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("bin.tmp");
    let mut out = BufWriter::with_capacity(1 << 16, File::create(&tmp)?);
    let mut head = Vec::with_capacity(record::HEADER_LEN + FIXED_LEN);
    record::write_header(&mut head, MAGIC, SCHEMA_VERSION);
    head.put_u64(corpus_fp);
    head.put_u32(scc_count);
    out.write_all(&head)?;
    record::write_frame_to(&mut out, tier_a)?;
    for (key, record) in tier_b.keys.iter().zip(&tier_b.records) {
        out.write_all(&key.to_le_bytes())?;
        match record {
            // Verified at load, so written back as it was read.
            Record::Carried(frame) => out.write_all(&tier_b.file[frame.clone()])?,
            Record::Fresh(payload) => record::write_frame_to(&mut out, payload)?,
        }
    }
    out.into_inner().map_err(io::IntoInnerError::into_error)?;
    // A missing old file is not an error: the rename reports real ones.
    let _ = fs::remove_file(path);
    fs::rename(&tmp, path)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use jgre_corpus::spec::AospSpec;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jgre-cache-{}-{tag}.bin", std::process::id()))
    }

    /// A Tier A payload: the table plus an index of distinct rows.
    fn tier_a_payload(summaries: &[MethodSummary]) -> Vec<u8> {
        let mut payload = encode_tier_a(summaries);
        let index: Vec<IndexRow> = (0..summaries.len() as u64)
            .map(|i| IndexRow {
                fact_fp: i,
                scc_key: i + 1,
                summary_fp: i + 2,
            })
            .collect();
        encode_index(&mut payload, &index);
        payload
    }

    #[test]
    fn tier_a_roundtrips() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = crate::leakcheck::LeakChecker::new(&model).analyze();
        let ordered: Vec<MethodSummary> = model
            .methods
            .iter()
            .map(|def| analysis.summaries[&def.id].clone())
            .collect();
        let bytes = tier_a_payload(&ordered);
        let (table, index) = decode_tier_a(&bytes, model.methods.len()).expect("clean roundtrip");
        assert_eq!(table, ordered);
        assert_eq!(index.len(), ordered.len());
        assert_eq!(index[3].scc_key, 4);
        // The wrong method count must reject the table.
        assert!(decode_tier_a(&bytes, model.methods.len() + 1).is_none());
        // A table without its index is refused.
        assert!(decode_tier_a(&encode_tier_a(&ordered), model.methods.len()).is_none());
    }

    #[test]
    fn record_roundtrips_by_name() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = crate::leakcheck::LeakChecker::new(&model).analyze();
        let rcl = model
            .find_method("android.os.RemoteCallbackList", "register")
            .unwrap();
        let summary = &analysis.summaries[&rcl];
        let bytes = encode_record(&model, &[(rcl, summary)]);
        let name_index: HashMap<(&str, &str), MethodId> = model
            .methods
            .iter()
            .map(|d| ((d.class.as_str(), d.name.as_str()), d.id))
            .collect();
        let (members, canonical) =
            remap_record(&bytes, &[rcl], &name_index).expect("clean roundtrip");
        assert_eq!(members, vec![(rcl, summary.clone())]);
        assert!(canonical);
        // Truncated record bytes must be rejected, not mis-decoded.
        assert!(remap_record(&bytes[..bytes.len() - 1], &[rcl], &name_index).is_none());
        // A record that does not map onto the SCC must be refused.
        assert!(remap_record(&bytes, &[MethodId(0)], &name_index).is_none());
    }

    #[test]
    fn load_rejects_bad_magic_version_and_checksum() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let n = model.methods.len();
        let path = temp_path("hdr");
        let defaults = vec![MethodSummary::default(); n];
        let tier_a = tier_a_payload(&defaults);
        store(&path, 7, 1, &tier_a, &TierB::default()).unwrap();

        let clean = load(&path, 7, n);
        assert_eq!(clean.invalidated, 0);
        assert!(clean.exact && clean.tier_a.is_some());
        assert_eq!(clean.index.len(), n);
        // Different corpus fingerprint: stale but not corrupt. The table
        // still loads — its index decides which summaries hold.
        let stale = load(&path, 8, n);
        assert_eq!(stale.invalidated, 0);
        assert!(!stale.exact && stale.tier_a.is_some());
        // Another method count is another corpus: no table, no rejection.
        let other = load(&path, 8, n + 1);
        assert_eq!(other.invalidated, 0);
        assert!(other.tier_a.is_none() && other.index.is_empty());

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let bad_magic = load(&path, 7, n);
        assert_eq!(bad_magic.invalidated, 1);
        assert_eq!(bad_magic.reject, Some(RejectReason::BadMagic));

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff; // restore magic
        bytes[8] = (SCHEMA_VERSION - 1) as u8; // a previous-era schema
        fs::write(&path, &bytes).unwrap();
        let stale = load(&path, 7, n);
        assert_eq!(stale.invalidated, 1);
        assert_eq!(
            stale.reject,
            Some(RejectReason::StaleSchema {
                found: SCHEMA_VERSION - 1
            })
        );

        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = SCHEMA_VERSION as u8; // restore version
        let mid = record::HEADER_LEN + FIXED_LEN + 4 + tier_a.len() / 2;
        bytes[mid] ^= 0xff; // corrupt the Tier A payload
        fs::write(&path, &bytes).unwrap();
        let poisoned = load(&path, 7, n);
        assert_eq!(poisoned.invalidated, 1);
        assert_eq!(poisoned.reject, Some(RejectReason::Corrupt));
        assert!(poisoned.tier_a.is_none());

        fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_predicate_bits_reject_the_payload() {
        // A site whose predicate byte sets bits outside the current
        // lattice must be a typed MalformedPayload rejection, not a
        // silent mis-decode — that is how a *future* lattice's file
        // self-invalidates even under an unchanged version number.
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let n = model.methods.len();
        let analysis = crate::leakcheck::LeakChecker::new(&model).analyze();
        let ordered: Vec<MethodSummary> = model
            .methods
            .iter()
            .map(|def| analysis.summaries[&def.id].clone())
            .collect();
        let mut tier_a = encode_tier_a(&ordered);
        // Poison the final byte of the table — the last encoded site's
        // predicate byte — then append the index.
        let last = tier_a.len() - 1;
        tier_a[last] |= 0xf0;
        encode_index(&mut tier_a, &vec![IndexRow::default(); n]);
        assert!(
            decode_tier_a(&tier_a, n).is_none(),
            "unknown predicate bits must not decode"
        );

        let path = temp_path("predbits");
        store(&path, 7, 1, &tier_a, &TierB::default()).unwrap();
        let loaded = load(&path, 7, n);
        assert_eq!(loaded.reject, Some(RejectReason::MalformedPayload));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_exact_hit_skips_tier_b_verification() {
        let path = temp_path("lazy");
        let tier_b = TierB::from(BTreeMap::from([(3u64, vec![7u8; 16])]));
        store(&path, 11, 1, &tier_a_payload(&[]), &tier_b).unwrap();
        let hit = load(&path, 11, 0);
        assert!(hit.exact && hit.tier_a.is_some());
        assert_eq!(hit.invalidated, 0);
        assert!(!hit.tier_b_verified);
        assert!(hit.tier_b.is_empty(), "records indexed on a pure hit");
        // Another corpus must still verify and index them.
        let miss = load(&path, 12, 0);
        assert!(!miss.exact);
        assert!(miss.tier_b_verified);
        assert_eq!(miss.tier_b.len(), 1);
        assert_eq!(miss.tier_b.find(3), Some((0, &[7u8; 16][..])));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_recovers_tier_b_prefix_from_truncation() {
        let path = temp_path("trunc");
        let tier_b = TierB::from(BTreeMap::from([
            (1u64, vec![0u8; 16]),
            (2u64, vec![1u8; 16]),
        ]));
        store(&path, 9, 2, &tier_a_payload(&[]), &tier_b).unwrap();
        let full = fs::read(&path).unwrap();
        // Cut inside the second record: the first must survive.
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        let loaded = load(&path, 9, 0);
        assert_eq!(loaded.invalidated, 1);
        assert_eq!(loaded.tier_b.len(), 1);
        assert!(loaded.tier_b.find(1).is_some());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn carried_frames_are_written_back_verbatim_in_key_order() {
        let path = temp_path("carry");
        let records = BTreeMap::from([
            (10u64, vec![1u8; 5]),
            (20u64, vec![2u8; 7]),
            (30u64, vec![3u8; 9]),
        ]);
        let tier_a = tier_a_payload(&[]);
        store(&path, 1, 3, &tier_a, &TierB::from(records.clone())).unwrap();
        let loaded = load(&path, 2, 0);
        assert_eq!(loaded.tier_b.len(), 3);
        // Keep 10 and 30, drop 20, add 5 and 25: the result must equal a
        // file written fresh with the same logical contents.
        let fresh = BTreeMap::from([(5u64, vec![9u8; 3]), (25u64, vec![8u8; 4])]);
        let merged = loaded
            .tier_b
            .carry_over(&[true, false, true], fresh.clone());
        let carried = temp_path("carry-out");
        store(&carried, 1, 4, &tier_a, &merged).unwrap();
        let mut expected = fresh;
        expected.insert(10, records[&10].clone());
        expected.insert(30, records[&30].clone());
        store(&path, 1, 4, &tier_a, &TierB::from(expected)).unwrap();
        assert_eq!(fs::read(&carried).unwrap(), fs::read(&path).unwrap());
        fs::remove_file(&path).ok();
        fs::remove_file(&carried).ok();
    }

    #[test]
    fn duplicate_and_unordered_keys_keep_the_last_record() {
        // A crafted file: keys out of order, one repeated.
        let path = temp_path("dups");
        let mut bytes = Vec::new();
        record::write_header(&mut bytes, MAGIC, SCHEMA_VERSION);
        bytes.put_u64(1);
        bytes.put_u32(2);
        record::write_frame(&mut bytes, &tier_a_payload(&[]));
        for (key, payload) in [(7u64, [1u8]), (3, [2]), (7, [3])] {
            bytes.put_u64(key);
            record::write_frame(&mut bytes, &payload);
        }
        fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, 2, 0);
        assert_eq!(loaded.invalidated, 0);
        assert_eq!(loaded.tier_b.len(), 2);
        assert_eq!(loaded.tier_b.find(3), Some((0, &[2u8][..])));
        assert_eq!(loaded.tier_b.find(7), Some((1, &[3u8][..])));
        fs::remove_file(&path).ok();
    }
}
