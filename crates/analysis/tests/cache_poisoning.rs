//! Negative tests for the on-disk summary cache: corrupt bytes, a
//! truncated file, bytes after the Tier A frame, a stale schema version
//! (a schema-5 file with Tier B records among them), bad magic, an
//! empty file and a bad Tier A index must each be detected and
//! recomputed around — bumping the `cache_invalidated` counter, never
//! panicking, and never changing a verdict. A corrupt index row that
//! still checksums clean costs only its own SCC.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use jgre_analysis::{
    cache, condense_call_graph, AnalysisOptions, DataflowDetector, DataflowOutput, IpcMethod,
    IpcMethodExtractor, JgrEntryExtractor, JgrEntrySets, LeakChecker, RejectReason, CACHE_FILE,
};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodDef, MethodId, ParamUsage};

// magic (8) + version (4) + corpus fingerprint (8) + scc count (4) +
// Tier A length (4); see the cache module's layout doc.
const HEADER_LEN: usize = 28;
const VERSION_OFFSET: usize = 8;
/// One Tier A index row: fact, SCC-key and summary fingerprints.
const INDEX_ROW_LEN: usize = 24;

/// The AOSP corpus every fixture poisons the cache of, shared: the IPC
/// surface borrows its names from it.
fn aosp() -> &'static CodeModel {
    static MODEL: OnceLock<CodeModel> = OnceLock::new();
    MODEL.get_or_init(|| CodeModel::synthesize(&AospSpec::android_6_0_1()))
}

struct Fixture {
    model: &'static CodeModel,
    ipc: Vec<IpcMethod<'static>>,
    entries: JgrEntrySets,
    dir: PathBuf,
    pristine: Vec<u8>,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let model = aosp();
        let ipc = IpcMethodExtractor::new(model).extract();
        let entries = JgrEntryExtractor::new(model).extract();
        let dir = std::env::temp_dir().join(format!("jgre-poison-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        DataflowDetector::new(model, &entries)
            .detect_with(&ipc, &AnalysisOptions::with_cache_dir(&dir));
        let pristine = fs::read(dir.join(CACHE_FILE)).expect("cache file written");
        Fixture {
            model,
            ipc,
            entries,
            dir,
            pristine,
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

    /// Recomputes the Tier A frame's checksum after an edit of its
    /// payload, so the bytes frame clean.
    fn reseal(&self, bytes: &mut [u8]) {
        let payload = HEADER_LEN..HEADER_LEN + self.tier_a_len();
        let sum = jgre_sim::record::checksum(&bytes[payload.clone()]);
        bytes[payload.end..payload.end + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// The typed reason `cache::load` gives for `bytes`.
    fn reject_of(&self, bytes: &[u8]) -> Option<RejectReason> {
        let path = self.dir.join("probe.bin");
        fs::write(&path, bytes).unwrap();
        let reason = cache::load(&path, 0, self.model.methods.len()).reject;
        fs::remove_file(&path).ok();
        reason
    }

    /// An uncached detection: what every recovered run must equal.
    fn cold(&self) -> DataflowOutput<'_> {
        DataflowDetector::new(self.model, &self.entries).detect(&self.ipc)
    }

    fn run_with_bytes(&self, bytes: &[u8]) -> DataflowOutput<'_> {
        fs::write(self.dir.join(CACHE_FILE), bytes).unwrap();
        DataflowDetector::new(self.model, &self.entries)
            .detect_with(&self.ipc, &AnalysisOptions::with_cache_dir(&self.dir))
    }

    fn assert_recovered(&self, out: &DataflowOutput, scenario: &str) {
        let cold = self.cold();
        assert_eq!(out.detector, cold.detector, "{scenario}: wrong verdicts");
        assert_eq!(out.verdicts, cold.verdicts, "{scenario}: wrong verdicts");
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
        let warm = DataflowDetector::new(self.model, &self.entries)
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
    let half = f.pristine.len() / 2;
    let out = f.run_with_bytes(&f.pristine[..half]);
    f.assert_recovered(&out, "truncated file");
    // Cut inside the checksum trailer, the payload is whole: the frame
    // still runs off the end.
    let out = f.run_with_bytes(&f.pristine[..f.pristine.len() - 1]);
    f.assert_recovered(&out, "file cut inside the checksum");
}

#[test]
fn bytes_after_the_tier_a_frame_are_rejected() {
    let f = Fixture::new("trailing");
    assert_eq!(
        f.pristine.len(),
        HEADER_LEN + f.tier_a_len() + 8,
        "the file ends with the Tier A frame"
    );
    let mut bytes = f.pristine.clone();
    bytes.extend_from_slice(&[0u8; 8]);
    assert_eq!(f.reject_of(&bytes), Some(RejectReason::TrailingBytes));
    let out = f.run_with_bytes(&bytes);
    assert_eq!(out.stats.cache_misses, out.stats.sccs as u64);
    f.assert_recovered(&out, "bytes after the Tier A frame");
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
    assert!(loaded.index.is_empty(), "stale files are rejected whole");
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
fn corrupt_index_row_recomputes_only_its_scc() {
    let f = Fixture::new("row");
    // A method in an SCC of its own that has callers: a row that lies
    // about its facts and its SCC key puts it in the cone and denies it
    // the early cutoff, but its recomputed summary is the one stored, so
    // every caller's SCC still cuts off.
    let cond = condense_call_graph(f.model);
    let target = cond
        .sccs()
        .filter_map(|scc| match scc {
            [m] => Some(*m),
            _ => None,
        })
        .find(|m| {
            let def = f.model.method(*m);
            !def.calls.contains(m)
                && !def.handler_posts.contains(m)
                && f.model.methods.iter().any(|c| c.calls.contains(m))
        })
        .expect("some acyclic method has a caller");
    let mut bytes = f.pristine.clone();
    let row = f.index_at() + 4 + INDEX_ROW_LEN * target.0 as usize;
    bytes[row] ^= 0xff; // fact fingerprint
    bytes[row + 8] ^= 0xff; // SCC key
    f.reseal(&mut bytes);
    // Tier A still matches this corpus, so the row is only reached after
    // an edit breaks the exact-hit fast path. Simulate by clearing the
    // stored corpus fingerprint.
    bytes[12..20].copy_from_slice(&[0u8; 8]);
    let out = f.run_with_bytes(&bytes);
    assert_eq!(
        out.detector,
        f.cold().detector,
        "row poison: wrong verdicts"
    );
    assert_eq!(
        out.verdicts,
        f.cold().verdicts,
        "row poison: wrong verdicts"
    );
    // It checksummed clean, so it is no rejection.
    assert_eq!(
        (
            out.stats.cache_hits,
            out.stats.cache_misses,
            out.stats.cache_invalidated
        ),
        (out.stats.sccs as u64 - 1, 1, 0),
        "{:?}",
        out.stats
    );
    assert!(
        fs::read(f.dir.join(CACHE_FILE)).unwrap() == f.pristine,
        "row poison: repaired file differs from a cold cached run's"
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
    // The Tier A frame no longer verifies: the file is refused whole and
    // everything is recomputed.
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
    f.reseal(&mut bytes);
    assert_eq!(f.reject_of(&bytes), Some(RejectReason::MalformedPayload));
    let out = f.run_with_bytes(&bytes);
    // A refused index is a full recompute.
    assert_eq!(out.stats.cache_hits, 0);
    assert_eq!(out.stats.cache_misses, out.stats.sccs as u64);
    f.assert_recovered(&out, "index length disagrees with the method count");
}

#[test]
fn schema_3_file_is_rejected_as_stale() {
    let f = Fixture::new("schema3");
    // Schema 3 came before the Tier A index; schema 4 keyed Tier B
    // records by `(class, name)`; schema 5 keyed them by `MethodId`.
    for version in [3u32, 4, 5] {
        let mut bytes = f.pristine.clone();
        bytes[VERSION_OFFSET..VERSION_OFFSET + 4].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            f.reject_of(&bytes),
            Some(RejectReason::StaleSchema { found: version })
        );
        let out = f.run_with_bytes(&bytes);
        assert_eq!(out.stats.cache_misses, out.stats.sccs as u64);
        f.assert_recovered(&out, &format!("schema-{version} file"));
    }
}

/// A bare method: no body beyond its binder parameters and call edges.
fn bare(id: u32, class: &str, name: &str, usage: &[ParamUsage], calls: &[u32]) -> MethodDef {
    MethodDef {
        id: MethodId(id),
        class: class.to_owned(),
        name: name.to_owned(),
        overrides_aidl: None,
        calls: calls.iter().copied().map(MethodId).collect(),
        handler_posts: Vec::new(),
        registers_service: None,
        binder_params: usage.to_vec(),
        permission_checks: Vec::new(),
    }
}

/// The summary cache a schema-5 build wrote for [`overloads`]: the
/// header, the Tier A frame, then four Tier B records, one per SCC.
const SCHEMA_5_FILE: &str = "4a47524553554d4305000000f5ccad310fd79d5e04000000a30000000400\
0000000000000000010000000100000000000000000203000000010000000200000000000000000000000000010000\
000100000000000000000203000004000000b457312e07562d7eb50804efa44e42fb16f497ebcfd3bf4c13a5f380ff\
4132b67d96bb02be2eb8402cfc42670ac5aa3ff6ae31783a8957e45045164293ee054b03095cb8d7bd0f8b28ac97b1\
b76bd95b0679a944a7a50ff8e7a4ca72507c3bbb26a634c0af2d9eb27d96bb02be2eb8401a00000001000000010000\
000001000000010000000000000000020300006e0e2fec61fb13995045164293ee054b1a0000000100000002000000\
000100000002000000000000000000000000a7b8d20d321394c10679a944a7a50ff81a000000010000000300000000\
010000000100000000000000000203000011050ace5e805102b50804efa44e42fb0d00000001000000000000000000\
0000007cae617132c624b9";

/// Four methods: two overloads of `com.example.Over.over`, only the
/// first retaining its binder, its caller and an unrelated leaf.
fn overloads() -> CodeModel {
    let over = "com.example.Over";
    CodeModel {
        classes: Vec::new(),
        methods: vec![
            bare(0, "com.example.Other", "leaf", &[], &[]),
            bare(1, over, "over", &[ParamUsage::StoredInCollection], &[]),
            bare(2, over, "over", &[ParamUsage::LocalOnly], &[]),
            bare(3, "com.example.Caller", "call", &[], &[1]),
        ],
        native_functions: Vec::new(),
        jni_registrations: Vec::new(),
    }
}

#[test]
fn schema_5_file_with_tier_b_records_is_rejected_as_stale() {
    let bytes: Vec<u8> = (0..SCHEMA_5_FILE.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&SCHEMA_5_FILE[i..i + 2], 16).unwrap())
        .collect();
    let model = overloads();
    let dir = std::env::temp_dir().join(format!("jgre-poison-{}-schema5", std::process::id()));
    let cold_dir = dir.with_extension("cold");
    for d in [&dir, &cold_dir] {
        fs::remove_dir_all(d).ok();
        fs::create_dir_all(d).unwrap();
    }
    fs::write(dir.join(CACHE_FILE), &bytes).unwrap();
    let loaded = cache::load(&dir.join(CACHE_FILE), 0, model.methods.len());
    assert_eq!(loaded.reject, Some(RejectReason::StaleSchema { found: 5 }));
    assert!(loaded.tier_a.is_none());

    let checker = LeakChecker::new(&model);
    let out = checker.analyze_with(&AnalysisOptions::with_cache_dir(&dir));
    assert_eq!(out.summaries, checker.analyze().summaries);
    let stats = out.stats;
    assert_eq!(
        (
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_invalidated
        ),
        (0, stats.sccs as u64, 1),
        "{stats:?}"
    );
    checker.analyze_with(&AnalysisOptions::with_cache_dir(&cold_dir));
    assert!(
        fs::read(dir.join(CACHE_FILE)).unwrap() == fs::read(cold_dir.join(CACHE_FILE)).unwrap(),
        "the recomputed file differs from a cold cached run's"
    );
    for d in [dir, cold_dir] {
        fs::remove_dir_all(d).ok();
    }
}
