//! On-disk summary cache for the incremental leak-check engine.
//!
//! One file (`summaries.bin`) holds one tier, Tier A: the whole-corpus
//! summary table in `MethodId` order, followed by a per-method index
//! [`IndexRow`] — fact fingerprint, SCC key, summary fingerprint.
//! Summaries are stored in one encoding (`enc_summary`): sites name
//! their origin by raw `MethodId`, in the fold's `(method, site)` order.
//!
//! The engine compares the index's fact fingerprints with the corpus's.
//! Every method outside the changed methods' caller cone takes its
//! summary straight from the table; an unchanged tree is the empty cone.
//! Inside the cone the engine recomputes each SCC's key, which hashes
//! each member's id and fact fingerprint and its external callees'
//! summary fingerprints, all numbering-aware. An SCC whose key equals
//! every member's indexed `scc_key` has the inputs to the fold it had
//! when the table was written, so its members' rows are reused as
//! stored (early cutoff); any other SCC is recomputed. A grown or shrunk
//! corpus applies the index to the id prefix both corpora share.
//!
//! The file is a [`jgre_sim::record`] header with magic `JGRESUMC` and
//! two fixed fields, `corpus_fp u64` (the exact-match key) and
//! `scc_count u32` (the SCCs of the corpus the table was written for),
//! followed by the Tier A frame and nothing else.
//!
//! Every reader treats the file as untrusted input. A bad magic or
//! version, a Tier A frame that fails its checksum or runs off the end,
//! bytes after that frame, and a table or index that does not decode
//! each reject the whole file with a typed [`RejectReason`], which the
//! engine counts in its statistics before it recomputes; it never
//! panics.
//!
//! **Schema-version bump rule:** any change to the payload encodings,
//! the fingerprint recipes they key on, or the summary semantics they
//! capture must bump [`SCHEMA_VERSION`] so stale files self-invalidate.
//! Version 3 added the per-site predicate byte ([`PredSet`]) to every
//! fate encoding; version 4 added the Tier A index; version 5 stored
//! Tier B's per-SCC records by `MethodId`; version 6 drops Tier B, whose
//! records only repeated Tier A's rows. Files of an earlier version are
//! rejected whole as [`RejectReason::StaleSchema`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use jgre_corpus::MethodId;
use jgre_sim::record::{self, Cursor, HeaderError, Put, StableHasher};

use crate::ir::AllocSite;
use crate::leakcheck::{EscapeKind, MethodSummary, PredSet, Retention, SiteSummary};

/// Bumped whenever the cache encoding or the fingerprints it keys on
/// change shape; readers reject any other version.
pub const SCHEMA_VERSION: u32 = 6;

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

/// One method's summary, as the Tier A table stores it:
/// `saw_handler u8 | site count u32`, then per site its origin's raw
/// `MethodId` (`u32`), shape tag and binder-param index (`u8 | u32`) and
/// [`fate_bytes`]. Sites stay in the fold's `(method, site)` order.
fn enc_summary(e: &mut Vec<u8>, summary: &MethodSummary) {
    e.push(u8::from(summary.saw_handler));
    e.put_u32(summary.sites.len() as u32);
    for site in &summary.sites {
        let (tag, idx) = site_shape(site.site);
        e.put_u32(site.method.0);
        e.push(tag);
        e.put_u32(idx);
        e.extend_from_slice(&fate_bytes(site));
    }
}

/// Decodes one [`enc_summary`]. `method_count` bounds every site's
/// origin, and the fold merges callee site lists as sorted runs, so a
/// list out of strict `(method, site)` order — two sites under one key
/// included — is refused like an unknown tag.
fn dec_summary(d: &mut Cursor, method_count: usize) -> Option<MethodSummary> {
    let saw_handler = d.u8()? != 0;
    let nsites = d.u32()? as usize;
    let mut sites: Vec<SiteSummary> = Vec::with_capacity(nsites.min(1024));
    for _ in 0..nsites {
        let method = d.u32()?;
        if method as usize >= method_count {
            return None;
        }
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
        let method = MethodId(method);
        if sites
            .last()
            .is_some_and(|prev| (prev.method, prev.site) >= (method, site))
        {
            return None;
        }
        sites.push(SiteSummary {
            method,
            site,
            fate,
            escape,
            read_only_key,
            preds,
        });
    }
    Some(MethodSummary { sites, saw_handler })
}

/// One method's row of the Tier A index, in `MethodId` order after the
/// summary table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexRow {
    /// The method's fact fingerprint when the table was written; a
    /// different one now puts the method in the edit's cone.
    pub fact_fp: u64,
    /// The key of the method's SCC when the table was written: an SCC
    /// whose fresh key equals every member's reuses their rows.
    pub scc_key: u64,
    /// [`summary_fingerprint`] of the method's summary, read by the SCC
    /// keys of its callers.
    pub summary_fp: u64,
}

/// Bytes of one encoded [`IndexRow`].
const INDEX_ROW_LEN: usize = 3 * 8;

/// Fewest bytes one method takes in a Tier A payload: an empty summary
/// (`saw_handler u8 | site count u32`) and its index row.
const MIN_METHOD_LEN: usize = 1 + 4 + INDEX_ROW_LEN;

/// Encodes the whole-corpus summary table: the method count, then every
/// summary in `MethodId` order. A Tier A payload is this table followed
/// by [`encode_index`].
pub fn encode_tier_a(summaries: &[MethodSummary]) -> Vec<u8> {
    let mut e = Vec::new();
    e.put_u32(summaries.len() as u32);
    for s in summaries {
        enc_summary(&mut e, s);
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

/// Decodes a Tier A payload: the summary table and the index behind it.
/// The table's own method count bounds every site's raw `MethodId` and
/// must be the index length; a payload without a matching index is
/// refused. The caller decides whether a table of that length applies.
pub fn decode_tier_a(bytes: &[u8]) -> Option<(Vec<MethodSummary>, Vec<IndexRow>)> {
    let mut d = Cursor::new(bytes);
    let n = d.u32()? as usize;
    // The count is untrusted: refuse one the payload cannot hold before
    // sizing anything by it.
    if n.saturating_mul(MIN_METHOD_LEN) > bytes.len() {
        return None;
    }
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        table.push(dec_summary(&mut d, n)?);
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

/// Stable fingerprint of one method's *summary* — the "callee summary
/// fingerprint" half of an SCC key: the method's id and its summary's
/// fields as a Tier A row holds them, streamed straight into the hasher
/// (it runs once per method on every caching run, so no intermediate
/// buffer).
pub fn summary_fingerprint(id: MethodId, summary: &MethodSummary) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(0x4a47_5245_534d_4632); // "JGRESMF2": summary-recipe tag
    h.write_u32(id.0);
    h.write_u8(u8::from(summary.saw_handler));
    h.write_u32(summary.sites.len() as u32);
    for site in &summary.sites {
        h.write_u32(site.method.0);
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

/// Why the cache file was rejected, as a typed value — tests and
/// diagnostics can distinguish a stale lattice schema from corruption
/// instead of pattern-matching on counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The file is shorter than the fixed header.
    TruncatedHeader,
    /// The magic bytes did not match [`CACHE_FILE`]'s format.
    BadMagic,
    /// The file was written under a different schema — e.g. a
    /// boolean-guard-era version-2 file read by the predicate lattice,
    /// or a version-5 file that still carries Tier B records.
    StaleSchema {
        /// The version recorded in the file's header.
        found: u32,
    },
    /// The Tier A frame failed its checksum or its framing ran off the
    /// end.
    Corrupt,
    /// Bytes follow the Tier A frame, which ends a file of this schema.
    TrailingBytes,
    /// The Tier A payload framed and checksummed clean but decoded to
    /// values outside the current domain (unknown tags or predicate
    /// bits), a table without an index of its length, or a table of
    /// another length under this corpus's fingerprint.
    MalformedPayload,
}

/// An empty, zero-sized stand-in for the Tier B records that schema 6
/// dropped. It is kept only so that `perfbench`'s cache probe, which
/// passes `&loaded.tier_b` to [`store`], compiles unchanged; the
/// benchmark change of ROADMAP item 2 deletes it with that argument.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierB;

/// The cache file's validated contents. A rejected file loads as an
/// empty cache with `reject` set to its typed reason.
#[derive(Debug, Default)]
pub struct LoadedCache {
    /// Tier A summaries, present when the file is whole and its table
    /// and index decoded clean — under any corpus fingerprint, and of
    /// any length unless the fingerprint matched: the index tells the
    /// engine which of them still hold.
    pub tier_a: Option<Vec<MethodSummary>>,
    /// The Tier A index, one row per table entry; empty without
    /// `tier_a`.
    pub index: Vec<IndexRow>,
    /// Whether the header's corpus fingerprint matched the expected one.
    pub exact: bool,
    /// SCC count of the corpus the table was written for.
    pub scc_count: u32,
    /// See [`TierB`]: always empty.
    pub tier_b: TierB,
    /// Why the file was refused, when it was: it is taken or refused
    /// whole.
    pub reject: Option<RejectReason>,
}

/// Parses the header and the Tier A frame of a cache file.
fn parse(bytes: &[u8], expected_fp: u64, method_count: usize) -> Result<LoadedCache, RejectReason> {
    // The Tier A frame's length field counts as fixed header: a file
    // without it is truncated, not corrupt.
    let mut d =
        record::read_header(bytes, MAGIC, SCHEMA_VERSION, FIXED_LEN + 4).map_err(|e| match e {
            HeaderError::Short => RejectReason::TruncatedHeader,
            HeaderError::BadMagic => RejectReason::BadMagic,
            HeaderError::StaleVersion { found } => RejectReason::StaleSchema { found },
        })?;
    let (Some(corpus_fp), Some(scc_count)) = (d.u64(), d.u32()) else {
        return Err(RejectReason::TruncatedHeader);
    };
    let Ok(Some(payload)) = d.frame(LENS) else {
        return Err(RejectReason::Corrupt);
    };
    if !d.done() {
        return Err(RejectReason::TrailingBytes);
    }
    // A table of another length is another corpus, not corruption —
    // unless the corpus fingerprint says it is this one.
    let exact = corpus_fp == expected_fp;
    let (table, index) = decode_tier_a(payload)
        .filter(|(table, _)| !exact || table.len() == method_count)
        .ok_or(RejectReason::MalformedPayload)?;
    Ok(LoadedCache {
        tier_a: Some(table),
        index,
        exact,
        scc_count,
        ..LoadedCache::default()
    })
}

/// Loads and validates `path`. A missing file is an empty cache, not
/// corruption; a malformed one is refused whole, with its reason.
pub fn load(path: &Path, expected_fp: u64, method_count: usize) -> LoadedCache {
    let Ok(bytes) = fs::read(path) else {
        return LoadedCache::default();
    };
    parse(&bytes, expected_fp, method_count).unwrap_or_else(|reason| LoadedCache {
        reject: Some(reason),
        ..LoadedCache::default()
    })
}

/// Writes the cache file — the header and the `tier_a` payload's frame
/// — to a temp file and renames it into place, so a reader never sees a
/// partial file. `_tier_b` is the empty [`TierB`] placeholder.
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
    _tier_b: &TierB,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("bin.tmp");
    let mut out = BufWriter::new(File::create(&tmp)?);
    let mut head = Vec::with_capacity(record::HEADER_LEN + FIXED_LEN);
    record::write_header(&mut head, MAGIC, SCHEMA_VERSION);
    head.put_u64(corpus_fp);
    head.put_u32(scc_count);
    out.write_all(&head)?;
    record::write_frame_to(&mut out, tier_a)?;
    out.into_inner().map_err(io::IntoInnerError::into_error)?;
    // A missing old file is not an error: the rename reports real ones.
    let _ = fs::remove_file(path);
    fs::rename(&tmp, path)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use jgre_corpus::{spec::AospSpec, CodeModel};
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
        let ordered = analysis.summaries.clone();
        let bytes = tier_a_payload(&ordered);
        let (table, index) = decode_tier_a(&bytes).expect("clean roundtrip");
        assert_eq!(table, ordered);
        assert_eq!(index.len(), ordered.len());
        assert_eq!(index[3].scc_key, 4);
        // A table without its index is refused.
        assert!(decode_tier_a(&encode_tier_a(&ordered)).is_none());
        // So is a count the payload cannot hold, before anything is
        // sized by it.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_tier_a(&huge).is_none());
        // A site naming an origin outside the table is refused: alone in
        // a one-row table, any summary with a site from a method other
        // than id 0 names one.
        let far = ordered
            .iter()
            .find(|s| s.sites.iter().any(|site| site.method.0 > 0))
            .expect("some summary retains a site past id 0");
        assert!(decode_tier_a(&tier_a_payload(std::slice::from_ref(far))).is_none());
    }

    #[test]
    fn load_rejects_bad_magic_version_and_checksum() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let n = model.methods.len();
        let path = temp_path("hdr");
        let defaults = vec![MethodSummary::default(); n];
        let tier_a = tier_a_payload(&defaults);
        store(&path, 7, 0, &tier_a, &TierB).unwrap();

        let clean = load(&path, 7, n);
        assert_eq!(clean.reject, None);
        assert!(clean.exact && clean.tier_a.is_some());
        assert_eq!(clean.index.len(), n);
        // Different corpus fingerprint: stale but not corrupt. The table
        // still loads — its index decides which summaries hold.
        let stale = load(&path, 8, n);
        assert_eq!(stale.reject, None);
        assert!(!stale.exact && stale.tier_a.is_some());
        // Another method count is another corpus: the table loads at its
        // own length, for the prefix both corpora share.
        let other = load(&path, 8, n + 1);
        assert_eq!(other.reject, None);
        assert_eq!(other.tier_a.map(|t| t.len()), Some(n));
        // Under this corpus's fingerprint, another length is malformed.
        let wrong = load(&path, 7, n + 1);
        assert_eq!(wrong.reject, Some(RejectReason::MalformedPayload));
        assert!(wrong.tier_a.is_none() && wrong.index.is_empty());

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let bad_magic = load(&path, 7, n);
        assert_eq!(bad_magic.reject, Some(RejectReason::BadMagic));

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff; // restore magic
        bytes[8] = (SCHEMA_VERSION - 1) as u8; // a previous-era schema
        fs::write(&path, &bytes).unwrap();
        let stale = load(&path, 7, n);
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
        let ordered = analysis.summaries.clone();
        let mut tier_a = encode_tier_a(&ordered);
        // Poison the final byte of the table — the last encoded site's
        // predicate byte — then append the index.
        let last = tier_a.len() - 1;
        tier_a[last] |= 0xf0;
        encode_index(&mut tier_a, &vec![IndexRow::default(); n]);
        assert!(
            decode_tier_a(&tier_a).is_none(),
            "unknown predicate bits must not decode"
        );

        let path = temp_path("predbits");
        store(&path, 7, 0, &tier_a, &TierB).unwrap();
        let loaded = load(&path, 7, n);
        assert_eq!(loaded.reject, Some(RejectReason::MalformedPayload));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn site_lists_out_of_order_are_refused() {
        // The fold merges callee site lists as sorted runs, so a table
        // whose sites are out of `(method, site)` order is malformed, and
        // so is one with two sites under one key.
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = crate::leakcheck::LeakChecker::new(&model).analyze();
        let mut table = analysis.summaries.clone();
        let m = table
            .iter()
            .position(|s| s.sites.len() >= 2)
            .expect("some summary has two sites");
        table[m].sites.swap(0, 1);
        assert!(decode_tier_a(&tier_a_payload(&table)).is_none());

        let mut doubled = analysis.summaries.clone();
        let first = doubled[m].sites[0];
        doubled[m].sites.insert(1, first);
        assert!(decode_tier_a(&tier_a_payload(&doubled)).is_none());
    }

    #[test]
    fn the_file_is_the_header_and_one_frame() {
        let path = temp_path("layout");
        let tier_a = tier_a_payload(&vec![MethodSummary::default(); 3]);
        store(&path, 11, 2, &tier_a, &TierB).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(
            bytes.len(),
            record::HEADER_LEN + FIXED_LEN + record::FRAME_OVERHEAD + tier_a.len()
        );
        let hit = load(&path, 11, 3);
        assert!(hit.exact && hit.reject.is_none());
        assert_eq!((hit.scc_count, hit.index.len()), (2, 3));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_after_the_tier_a_frame_are_refused() {
        let path = temp_path("trailing");
        store(&path, 9, 0, &tier_a_payload(&[]), &TierB).unwrap();
        let whole = fs::read(&path).unwrap();
        // One stray byte, and a whole well-framed record as a schema-5
        // writer put after Tier A: neither is ignored.
        let mut record5 = 1u64.to_le_bytes().to_vec();
        record::write_frame(&mut record5, &[0u8; 16]);
        for tail in [vec![0u8], record5] {
            let mut bytes = whole.clone();
            bytes.extend_from_slice(&tail);
            fs::write(&path, &bytes).unwrap();
            let loaded = load(&path, 9, 0);
            assert_eq!(loaded.reject, Some(RejectReason::TrailingBytes));
            assert!(loaded.tier_a.is_none() && !loaded.exact);
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_truncated_frame_is_corrupt() {
        let path = temp_path("trunc");
        store(&path, 9, 0, &tier_a_payload(&[]), &TierB).unwrap();
        let whole = fs::read(&path).unwrap();
        for cut in [whole.len() - 1, record::HEADER_LEN + FIXED_LEN + 4] {
            fs::write(&path, &whole[..cut]).unwrap();
            let loaded = load(&path, 9, 0);
            assert_eq!(loaded.reject, Some(RejectReason::Corrupt));
            assert!(loaded.tier_a.is_none());
        }
        // Cut inside the Tier A length field: a short header.
        fs::write(&path, &whole[..record::HEADER_LEN + FIXED_LEN + 3]).unwrap();
        assert_eq!(
            load(&path, 9, 0).reject,
            Some(RejectReason::TruncatedHeader)
        );
        fs::remove_file(&path).ok();
    }
}
