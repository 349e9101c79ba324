//! On-disk summary cache for the incremental leak-check engine.
//!
//! One file (`summaries.bin`) holds two tiers:
//!
//! * **Tier A** — the whole-corpus summary table, keyed by the corpus
//!   fingerprint in the header. A warm re-lint of an unchanged tree
//!   decodes this tier directly (raw `MethodId`s, no string remapping,
//!   no call-graph condensation) — the fast path the ≥10x target rests
//!   on.
//! * **Tier B** — one record per call-graph SCC, keyed by the SCC key
//!   (member fact fingerprints + external callee summary fingerprints).
//!   Records reference methods by `(class, name)` so they survive
//!   `MethodId` renumbering; an edit invalidates exactly the
//!   condensation cone above it.
//!
//! The file is a [`jgre_sim::record`] header with magic `JGRESUMC` and
//! two fixed fields, `corpus_fp u64` (the Tier A key) and `scc_count u32`
//! (SCCs behind Tier A), followed by the Tier A frame and then, until
//! EOF, one `key u64 | frame` per Tier B record.
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
//! fate encoding; files written by the boolean-guard era (version 2) are
//! rejected whole as [`RejectReason::StaleSchema`].

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::Path;

use jgre_corpus::body::AllocSite;
use jgre_corpus::{CodeModel, MethodId};
use jgre_sim::record::{self, Cursor, HeaderError, Put, StableHasher};

use crate::leakcheck::{EscapeKind, MethodSummary, PredSet, Retention, SiteSummary};

/// Bumped whenever the cache encoding or the fingerprints it keys on
/// change shape; readers reject any other version.
pub const SCHEMA_VERSION: u32 = 3;

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

/// Encodes the whole-corpus summary table (Tier A): summaries in
/// `MethodId` order with raw ids — valid only under the corpus
/// fingerprint it is stored beside.
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

/// Decodes Tier A; `method_count` bounds both the table length and every
/// site's raw `MethodId`.
pub fn decode_tier_a(bytes: &[u8], method_count: usize) -> Option<Vec<MethodSummary>> {
    let mut d = Cursor::new(bytes);
    let n = d.u32()? as usize;
    if n != method_count {
        return None;
    }
    let mut out = Vec::with_capacity(n);
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
        out.push(MethodSummary { sites, saw_handler });
    }
    d.done().then_some(out)
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
/// allocating intermediate strings (the edit path remaps thousands of
/// hit records, so this is hot). Returns `None` when the record does
/// not map cleanly onto `scc`: wrong member count, a name the index
/// cannot resolve, or a member outside the SCC.
pub fn remap_record(
    bytes: &[u8],
    scc: &[MethodId],
    name_index: &HashMap<(&str, &str), MethodId>,
) -> Option<Vec<(MethodId, MethodSummary)>> {
    let mut d = Cursor::new(bytes);
    let n = d.u32()? as usize;
    if n != scc.len() {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let class = d.str()?;
        let name = d.str()?;
        let id = *name_index.get(&(class, name))?;
        if scc.binary_search(&id).is_err() {
            return None;
        }
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
        sites.sort_by_key(|a| (a.method, a.site));
        out.push((id, MethodSummary { sites, saw_handler }));
    }
    d.done().then_some(out)
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
    /// outside the current domain (unknown tags or predicate bits).
    MalformedPayload,
}

/// The cache file's validated contents. Rejected parts are simply
/// absent; `invalidated` counts every rejection and `reject` records
/// the first one's typed reason.
#[derive(Debug, Default)]
pub struct LoadedCache {
    /// Tier A summaries, present only when the header's corpus
    /// fingerprint matched `expected_fp` and the payload decoded clean.
    pub tier_a: Option<Vec<MethodSummary>>,
    /// SCC count recorded beside Tier A (reported as hits on a full
    /// Tier A hit).
    pub scc_count: u32,
    /// Raw Tier B record payloads by SCC key (checksums verified;
    /// decode on use). Left empty on a clean Tier A hit: the records
    /// would never be consulted, so the warm path skips verifying and
    /// copying them.
    pub tier_b: BTreeMap<u64, Vec<u8>>,
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
}

/// Loads and validates `path`. A missing file is an empty cache, not
/// corruption; every malformed region bumps `invalidated` and is
/// dropped.
pub fn load(path: &Path, expected_fp: u64, method_count: usize) -> LoadedCache {
    let mut out = LoadedCache::default();
    let Ok(bytes) = fs::read(path) else {
        return out;
    };
    // The Tier A frame's length field counts as fixed header: a file
    // without it is truncated, not corrupt.
    let mut d = match record::read_header(&bytes, MAGIC, SCHEMA_VERSION, FIXED_LEN + 4) {
        Ok(d) => d,
        Err(e) => {
            out.rejected(match e {
                HeaderError::Short => RejectReason::TruncatedHeader,
                HeaderError::BadMagic => RejectReason::BadMagic,
                HeaderError::StaleVersion { found } => RejectReason::StaleSchema { found },
            });
            return out;
        }
    };
    let (Some(corpus_fp), Some(scc_count)) = (d.u64(), d.u32()) else {
        out.rejected(RejectReason::TruncatedHeader);
        return out;
    };
    out.scc_count = scc_count;
    // A Tier A frame that does not verify makes its length field, and so
    // any Tier B framing after it, untrustworthy: stop here.
    let Ok(Some(tier_a_payload)) = d.frame(LENS) else {
        out.rejected(RejectReason::Corrupt);
        return out;
    };
    if corpus_fp == expected_fp {
        match decode_tier_a(tier_a_payload, method_count) {
            Some(summaries) => out.tier_a = Some(summaries),
            None => out.rejected(RejectReason::MalformedPayload),
        }
    }
    // Walk the Tier B framing (cheap pointer arithmetic) so truncation
    // is always detected, but defer the checksums: on a clean Tier A
    // hit the records are never consulted and verifying megabytes of
    // payload would dominate the warm path. Checksums run only when the
    // records will be used (Tier A miss) or rewritten (repair).
    let mut frames = Vec::new();
    while !d.done() {
        let Some(key) = d.u64() else {
            out.rejected(RejectReason::Corrupt);
            break;
        };
        let Ok(Some(frame)) = d.raw_frame(LENS) else {
            out.rejected(RejectReason::Corrupt);
            break;
        };
        frames.push((key, frame));
    }
    if out.tier_a.is_some() && out.invalidated == 0 {
        return out;
    }
    for (key, (payload, stored)) in frames {
        if record::checksum(payload) != stored {
            out.rejected(RejectReason::Corrupt);
            continue;
        }
        // Duplicate keys: last record wins, matching append semantics.
        out.tier_b.insert(key, payload.to_vec());
    }
    out
}

/// Atomically writes the cache file (temp file + rename). Tier B
/// records are emitted in key order so identical logical contents
/// produce identical bytes.
pub fn store(
    path: &Path,
    corpus_fp: u64,
    scc_count: u32,
    tier_a: &[u8],
    tier_b: &BTreeMap<u64, Vec<u8>>,
) -> io::Result<()> {
    let framed = |len: usize| record::FRAME_OVERHEAD + len;
    let records: usize = tier_b.values().map(|p| 8 + framed(p.len())).sum();
    let mut bytes =
        Vec::with_capacity(record::HEADER_LEN + FIXED_LEN + framed(tier_a.len()) + records);
    record::write_header(&mut bytes, MAGIC, SCHEMA_VERSION);
    bytes.put_u64(corpus_fp);
    bytes.put_u32(scc_count);
    record::write_frame(&mut bytes, tier_a);
    for (key, payload) in tier_b {
        bytes.put_u64(*key);
        record::write_frame(&mut bytes, payload);
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("bin.tmp");
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_corpus::spec::AospSpec;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jgre-cache-{}-{tag}.bin", std::process::id()))
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
        let bytes = encode_tier_a(&ordered);
        let decoded = decode_tier_a(&bytes, model.methods.len()).expect("clean roundtrip");
        assert_eq!(decoded, ordered);
        // The wrong method count must reject the table.
        assert!(decode_tier_a(&bytes, model.methods.len() + 1).is_none());
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
        let members = remap_record(&bytes, &[rcl], &name_index).expect("clean roundtrip");
        assert_eq!(members, vec![(rcl, summary.clone())]);
        // Truncated record bytes must be rejected, not mis-decoded.
        assert!(remap_record(&bytes[..bytes.len() - 1], &[rcl], &name_index).is_none());
        // A record that does not map onto the SCC must be refused.
        assert!(remap_record(&bytes, &[MethodId(0)], &name_index).is_none());
    }

    #[test]
    fn load_rejects_bad_magic_version_and_checksum() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let path = temp_path("hdr");
        let defaults = vec![MethodSummary::default(); model.methods.len()];
        let tier_a = encode_tier_a(&defaults);
        store(&path, 7, 1, &tier_a, &BTreeMap::new()).unwrap();

        let clean = load(&path, 7, model.methods.len());
        assert_eq!(clean.invalidated, 0);
        assert!(clean.tier_a.is_some());
        // Different corpus fingerprint: stale but not corrupt.
        let stale = load(&path, 8, model.methods.len());
        assert_eq!(stale.invalidated, 0);
        assert!(stale.tier_a.is_none());

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let bad_magic = load(&path, 7, model.methods.len());
        assert_eq!(bad_magic.invalidated, 1);
        assert_eq!(bad_magic.reject, Some(RejectReason::BadMagic));

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff; // restore magic
        bytes[8] = (SCHEMA_VERSION - 1) as u8; // a previous-era schema
        fs::write(&path, &bytes).unwrap();
        let stale = load(&path, 7, model.methods.len());
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
        let poisoned = load(&path, 7, model.methods.len());
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
        let analysis = crate::leakcheck::LeakChecker::new(&model).analyze();
        let ordered: Vec<MethodSummary> = model
            .methods
            .iter()
            .map(|def| analysis.summaries[&def.id].clone())
            .collect();
        let mut tier_a = encode_tier_a(&ordered);
        // Poison the final byte of the payload — the last encoded site's
        // predicate byte.
        assert!(decode_tier_a(&tier_a, model.methods.len()).is_some());
        let last = tier_a.len() - 1;
        tier_a[last] |= 0xf0;
        assert!(
            decode_tier_a(&tier_a, model.methods.len()).is_none(),
            "unknown predicate bits must not decode"
        );

        let path = temp_path("predbits");
        store(&path, 7, 1, &tier_a, &BTreeMap::new()).unwrap();
        let loaded = load(&path, 7, model.methods.len());
        assert_eq!(loaded.reject, Some(RejectReason::MalformedPayload));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_tier_a_hit_skips_tier_b_materialization() {
        let path = temp_path("lazy");
        let mut tier_b = BTreeMap::new();
        tier_b.insert(3u64, vec![7u8; 16]);
        store(&path, 11, 1, &encode_tier_a(&[]), &tier_b).unwrap();
        let hit = load(&path, 11, 0);
        assert!(hit.tier_a.is_some());
        assert_eq!(hit.invalidated, 0);
        assert!(hit.tier_b.is_empty(), "records copied on a pure hit");
        // A Tier A miss (other corpus) must still materialize them.
        let miss = load(&path, 12, 0);
        assert!(miss.tier_a.is_none());
        assert_eq!(miss.tier_b.len(), 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_recovers_tier_b_prefix_from_truncation() {
        let path = temp_path("trunc");
        let mut tier_b = BTreeMap::new();
        tier_b.insert(1u64, vec![0u8; 16]);
        tier_b.insert(2u64, vec![1u8; 16]);
        store(&path, 9, 2, &encode_tier_a(&[]), &tier_b).unwrap();
        let full = fs::read(&path).unwrap();
        // Cut inside the second record: the first must survive.
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        let loaded = load(&path, 9, 0);
        assert_eq!(loaded.invalidated, 1);
        assert_eq!(loaded.tier_b.len(), 1);
        assert!(loaded.tier_b.contains_key(&1));
        fs::remove_file(&path).ok();
    }
}
