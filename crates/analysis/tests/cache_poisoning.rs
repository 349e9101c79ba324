//! Negative tests for the on-disk summary cache: corrupt bytes, a
//! truncated file, a stale schema version, bad magic, an empty file and
//! a bad Tier A index must each be detected and recomputed around —
//! bumping the `cache_invalidated` counter, never panicking, and never
//! changing a verdict.

use std::fs;
use std::path::PathBuf;

use jgre_analysis::{
    cache, AnalysisOptions, DataflowDetector, DataflowOutput, IpcMethod, IpcMethodExtractor,
    JgrEntryExtractor, JgrEntrySets, RejectReason, CACHE_FILE,
};
use jgre_corpus::{spec::AospSpec, CodeModel};

// magic (8) + version (4) + corpus fingerprint (8) + scc count (4) +
// Tier A length (4); see the cache module's layout doc.
const HEADER_LEN: usize = 28;
const VERSION_OFFSET: usize = 8;
/// One Tier A index row: fact, SCC-key and summary fingerprints.
const INDEX_ROW_LEN: usize = 24;

struct Fixture {
    model: CodeModel,
    ipc: Vec<IpcMethod>,
    entries: JgrEntrySets,
    dir: PathBuf,
    pristine: Vec<u8>,
    cold: DataflowOutput,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let dir = std::env::temp_dir().join(format!("jgre-poison-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let detector = DataflowDetector::new(&model, &entries);
        let cold = detector.detect(&ipc);
        detector.detect_with(&ipc, &AnalysisOptions::with_cache_dir(&dir));
        let pristine = fs::read(dir.join(CACHE_FILE)).expect("cache file written");
        Fixture {
            model,
            ipc,
            entries,
            dir,
            pristine,
            cold,
        }
    }

    fn tier_a_len(&self) -> usize {
        u32::from_le_bytes(
            self.pristine[HEADER_LEN - 4..HEADER_LEN]
                .try_into()
                .unwrap(),
        ) as usize
    }

    /// Offset of the Tier A index's length field: the index closes the
    /// Tier A payload, one row per method.
    fn index_at(&self) -> usize {
        HEADER_LEN + self.tier_a_len() - 4 - INDEX_ROW_LEN * self.model.methods.len()
    }

    /// The typed reason `cache::load` gives for `bytes`.
    fn reject_of(&self, bytes: &[u8]) -> Option<RejectReason> {
        let path = self.dir.join("probe.bin");
        fs::write(&path, bytes).unwrap();
        let reason = cache::load(&path, 0, self.model.methods.len()).reject;
        fs::remove_file(&path).ok();
        reason
    }

    fn run_with_bytes(&self, bytes: &[u8]) -> DataflowOutput {
        fs::write(self.dir.join(CACHE_FILE), bytes).unwrap();
        DataflowDetector::new(&self.model, &self.entries)
            .detect_with(&self.ipc, &AnalysisOptions::with_cache_dir(&self.dir))
    }

    fn assert_recovered(&self, out: &DataflowOutput, scenario: &str) {
        assert_eq!(
            out.detector, self.cold.detector,
            "{scenario}: wrong verdicts"
        );
        assert_eq!(
            out.verdicts, self.cold.verdicts,
            "{scenario}: wrong verdicts"
        );
        assert!(
            out.stats.cache_invalidated >= 1,
            "{scenario}: invalidation not counted (stats: {:?})",
            out.stats
        );
        // The poisoned file must have been rewritten clean — to the very
        // bytes a cold cached run writes — and the next run is a pure
        // warm hit again.
        assert!(
            fs::read(self.dir.join(CACHE_FILE)).unwrap() == self.pristine,
            "{scenario}: repaired file differs from a cold cached run's"
        );
        let warm = DataflowDetector::new(&self.model, &self.entries)
            .detect_with(&self.ipc, &AnalysisOptions::with_cache_dir(&self.dir));
        assert_eq!(warm.stats.cache_misses, 0, "{scenario}: cache not repaired");
        assert_eq!(warm.stats.cache_invalidated, 0, "{scenario}: still corrupt");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn corrupt_tier_a_byte_is_detected_and_recomputed() {
    let f = Fixture::new("flip");
    let tier_a_len = f.tier_a_len();
    assert!(tier_a_len > 0, "fixture stores a Tier A table");
    let mut bytes = f.pristine.clone();
    bytes[HEADER_LEN + tier_a_len / 2] ^= 0xff;
    let out = f.run_with_bytes(&bytes);
    f.assert_recovered(&out, "flipped Tier A byte");
}

#[test]
fn truncated_file_is_detected_and_recomputed() {
    let f = Fixture::new("trunc");
    let out = f.run_with_bytes(&f.pristine[..f.pristine.len() / 2]);
    f.assert_recovered(&out, "truncated file");
}

#[test]
fn stale_schema_version_is_rejected() {
    let f = Fixture::new("version");
    let mut bytes = f.pristine.clone();
    // A decrement models a file left behind by an older build.
    bytes[VERSION_OFFSET] = bytes[VERSION_OFFSET].wrapping_sub(1);
    let out = f.run_with_bytes(&bytes);
    f.assert_recovered(&out, "stale schema version");
}

#[test]
fn stale_schema_rejection_is_typed() {
    use jgre_analysis::SCHEMA_VERSION;
    let f = Fixture::new("typed");
    // A boolean-guard-era file: same framing, previous version number.
    let mut bytes = f.pristine.clone();
    bytes[VERSION_OFFSET..VERSION_OFFSET + 4].copy_from_slice(&(SCHEMA_VERSION - 1).to_le_bytes());
    let path = f.dir.join("stale.bin");
    fs::write(&path, &bytes).unwrap();
    let loaded = cache::load(&path, 0, f.model.methods.len());
    assert_eq!(
        loaded.reject,
        Some(RejectReason::StaleSchema {
            found: SCHEMA_VERSION - 1
        }),
        "schema staleness must be distinguishable from corruption"
    );
    assert!(loaded.tier_a.is_none());
    assert!(loaded.tier_b.is_empty(), "stale files are rejected whole");
    // Corruption reports a different typed reason.
    let mut garbage = f.pristine.clone();
    garbage[..8].copy_from_slice(b"NOTJGRE!");
    fs::write(&path, &garbage).unwrap();
    assert_eq!(
        cache::load(&path, 0, f.model.methods.len()).reject,
        Some(RejectReason::BadMagic)
    );
}

#[test]
fn garbage_magic_is_rejected() {
    let f = Fixture::new("magic");
    let mut bytes = f.pristine.clone();
    bytes[..8].copy_from_slice(b"NOTJGRE!");
    let out = f.run_with_bytes(&bytes);
    f.assert_recovered(&out, "garbage magic");
}

#[test]
fn empty_file_is_rejected() {
    let f = Fixture::new("empty");
    let out = f.run_with_bytes(&[]);
    f.assert_recovered(&out, "empty file");
}

#[test]
fn corrupt_tier_b_record_invalidates_only_that_record() {
    let f = Fixture::new("tierb");
    let tier_a_len = f.tier_a_len();
    // First Tier B record: [key u64][len u32][payload][checksum u64]
    // right after the Tier A block and its checksum.
    let first_record = HEADER_LEN + tier_a_len + 8;
    let payload_at = first_record + 12;
    assert!(payload_at < f.pristine.len(), "fixture has Tier B records");
    let mut bytes = f.pristine.clone();
    bytes[payload_at] ^= 0xff;
    // Tier A still matches this corpus, so the poisoned record is only
    // reached after an edit breaks the Tier A fast path. Simulate by
    // clearing the stored corpus fingerprint.
    bytes[12..20].copy_from_slice(&[0u8; 8]);
    let out = f.run_with_bytes(&bytes);
    assert_eq!(
        out.detector, f.cold.detector,
        "tier B poison: wrong verdicts"
    );
    assert!(out.stats.cache_invalidated >= 1, "stats: {:?}", out.stats);
    // All records except the poisoned one still hit.
    assert!(
        out.stats.cache_hits > out.stats.cache_misses,
        "stats: {:?}",
        out.stats
    );
    assert!(
        fs::read(f.dir.join(CACHE_FILE)).unwrap() == f.pristine,
        "tier B poison: repaired file differs from a cold cached run's"
    );
}

#[test]
fn corrupt_index_byte_falls_back_to_the_full_path() {
    let f = Fixture::new("index-flip");
    let mut bytes = f.pristine.clone();
    // A fact fingerprint in the middle of the index.
    bytes[f.index_at() + 4 + INDEX_ROW_LEN * (f.model.methods.len() / 2)] ^= 0xff;
    assert_eq!(f.reject_of(&bytes), Some(RejectReason::Corrupt));
    let out = f.run_with_bytes(&bytes);
    // The Tier A frame no longer verifies, and with it the framing of
    // every Tier B record behind it: everything is recomputed.
    assert_eq!(out.stats.cache_misses, out.stats.sccs as u64);
    f.assert_recovered(&out, "flipped index byte");
}

#[test]
fn index_length_disagreeing_with_the_method_count_is_refused() {
    let f = Fixture::new("index-len");
    let mut bytes = f.pristine.clone();
    let at = f.index_at();
    let n = f.model.methods.len() as u32;
    bytes[at..at + 4].copy_from_slice(&(n + 1).to_le_bytes());
    // Re-seal the frame: the payload checksums clean but does not decode.
    let payload = HEADER_LEN..HEADER_LEN + f.tier_a_len();
    let sum = jgre_sim::record::checksum(&bytes[payload.clone()]);
    bytes[payload.end..payload.end + 8].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(f.reject_of(&bytes), Some(RejectReason::MalformedPayload));
    let out = f.run_with_bytes(&bytes);
    // The framing is sound, so the full path serves every SCC from its
    // Tier B record.
    assert_eq!(out.stats.cache_hits, out.stats.sccs as u64);
    assert_eq!(out.stats.cache_misses, 0);
    f.assert_recovered(&out, "index length disagrees with the method count");
}

#[test]
fn schema_3_file_is_rejected_as_stale() {
    let f = Fixture::new("schema3");
    let mut bytes = f.pristine.clone();
    // A file from before the Tier A index.
    bytes[VERSION_OFFSET..VERSION_OFFSET + 4].copy_from_slice(&3u32.to_le_bytes());
    assert_eq!(
        f.reject_of(&bytes),
        Some(RejectReason::StaleSchema { found: 3 })
    );
    let out = f.run_with_bytes(&bytes);
    assert_eq!(out.stats.cache_misses, out.stats.sccs as u64);
    f.assert_recovered(&out, "schema-3 file");
}
