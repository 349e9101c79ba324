//! Differential harness for the incremental summary engine: a random
//! corpus mutation sequence is replayed twice — once against a
//! persistent cache directory that survives every step, once cold from
//! scratch per step — and the `DataflowOutput` verdicts must be
//! structurally equal at *every* step. So must the cache files: the
//! persistent directory's, rewritten incrementally, and the one a cold
//! cached run writes into a fresh directory. The vendored proptest has
//! no shrinking, so a divergence triggers a manual delta-debugging pass
//! that reports the minimal divergent edit script.

use std::path::{Path, PathBuf};

use jgre_analysis::{
    AnalysisOptions, DataflowDetector, DataflowOutput, IpcMethod, IpcMethodExtractor,
    JgrEntryExtractor, CACHE_FILE,
};
use jgre_corpus::{spec::AospSpec, CodeModel};
use proptest::prelude::*;

#[path = "support/corpora.rs"]
mod corpora;
use corpora::{apply, EditOp};

fn detect<'a>(
    model: &CodeModel,
    ipc: &'a [IpcMethod],
    options: &AnalysisOptions,
) -> DataflowOutput<'a> {
    let entries = JgrEntryExtractor::new(model).extract();
    DataflowDetector::new(model, &entries).detect_with(ipc, options)
}

/// Cache runs skip CFG synthesis for hit SCCs, so work counters legitimately
/// differ; verdict structure must not.
fn verdicts_equal(a: &DataflowOutput, b: &DataflowOutput) -> bool {
    a.detector == b.detector && a.verdicts == b.verdicts
}

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jgre-inc-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Whether the cache file in `dir` equals the one a cold cached run of
/// `model` writes into a fresh directory.
fn cache_file_matches_cold(model: &CodeModel, dir: &Path, tag: &str) -> bool {
    let fresh = fresh_cache_dir(tag);
    let ipc = IpcMethodExtractor::new(model).extract();
    detect(model, &ipc, &AnalysisOptions::with_cache_dir(&fresh));
    let equal =
        std::fs::read(dir.join(CACHE_FILE)).ok() == std::fs::read(fresh.join(CACHE_FILE)).ok();
    std::fs::remove_dir_all(&fresh).ok();
    equal
}

/// Replays `ops` with a persistent cache vs cold per step; returns the
/// index of the first step whose verdicts or cache files diverge.
fn first_divergence(ops: &[EditOp]) -> Option<usize> {
    let spec = AospSpec::android_6_0_1();
    let mut model = CodeModel::synthesize(&spec);
    let dir = fresh_cache_dir("replay");
    let cached_options = AnalysisOptions::with_cache_dir(&dir);
    let cold_options = AnalysisOptions::default();
    let mut divergent = None;
    for (step, op) in ops.iter().enumerate() {
        apply(&mut model, op, step);
        let ipc = IpcMethodExtractor::new(&model).extract();
        let cached = detect(&model, &ipc, &cached_options);
        let cold = detect(&model, &ipc, &cold_options);
        if !verdicts_equal(&cached, &cold) || !cache_file_matches_cold(&model, &dir, "replay-cold")
        {
            divergent = Some(step);
            break;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    divergent
}

/// Greedy delta debugging: drop ops one at a time as long as the replay
/// still diverges somewhere.
fn minimize(ops: &[EditOp], step: usize) -> Vec<EditOp> {
    let mut minimal = ops[..=step].to_vec();
    loop {
        let mut reduced = false;
        for i in 0..minimal.len() {
            let mut candidate = minimal.clone();
            candidate.remove(i);
            if first_divergence(&candidate).is_some() {
                minimal = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return minimal;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Incremental ≡ from-scratch under arbitrary mutation sequences.
    #[test]
    fn cached_replay_agrees_with_cold_at_every_step(
        ops in proptest::collection::vec((0u8..7, 0usize..4096, 0usize..4096), 1..8)
    ) {
        if let Some(step) = first_divergence(&ops) {
            let minimal = minimize(&ops, step);
            prop_assert!(
                false,
                "cache diverged from cold run at step {step}; \
                 minimal divergent edit script: {minimal:?}"
            );
        }
    }
}

/// A hand-picked sequence covering all seven edit kinds, replayed with
/// warm-hit verification: after an edit, re-running unchanged must be a
/// pure Tier A hit again.
#[test]
fn scripted_edits_agree_and_rewarm() {
    let ops: Vec<EditOp> = vec![
        (0, 17, 4242), // add edge
        (3, 901, 0),   // toggle release
        (5, 901, 0),   // error-path shape (predicate lattice in cache)
        (4, 55, 0),    // rename
        (5, 120, 1),   // permission-gated shape
        (2, 17, 11),   // retarget
        (1, 17, 0),    // remove edge
        (6, 901, 17),  // append an overload, called from method 17
        (4, 902, 0),   // rename onto a sibling's name
    ];
    let spec = AospSpec::android_6_0_1();
    let mut model = CodeModel::synthesize(&spec);
    let dir = fresh_cache_dir("scripted");
    let cached_options = AnalysisOptions::with_cache_dir(&dir);
    // Prime the cache with the unmutated corpus so every step exercises
    // the Tier A delta path rather than a cold start.
    detect(
        &model,
        &IpcMethodExtractor::new(&model).extract(),
        &cached_options,
    );
    for (step, op) in ops.iter().enumerate() {
        apply(&mut model, op, step);
        let ipc = IpcMethodExtractor::new(&model).extract();
        let cached = detect(&model, &ipc, &cached_options);
        let cold = detect(&model, &ipc, &AnalysisOptions::default());
        assert!(
            verdicts_equal(&cached, &cold),
            "verdicts diverged after step {step} ({op:?})"
        );
        assert!(
            cache_file_matches_cold(&model, &dir, "scripted-cold"),
            "cache file diverged from a cold cached run's after step {step} ({op:?})"
        );
        // An edit must not invalidate the whole cache: most SCCs are
        // outside the changed cone and still hit.
        assert!(
            cached.stats.cache_hits > cached.stats.cache_misses,
            "step {step}: only {} hits vs {} misses",
            cached.stats.cache_hits,
            cached.stats.cache_misses,
        );
        // Unchanged re-run: pure Tier A hit.
        let warm = detect(&model, &ipc, &cached_options);
        assert_eq!(warm.stats.cache_misses, 0, "step {step} did not rewarm");
        assert!(verdicts_equal(&warm, &cold));
    }
    std::fs::remove_dir_all(&dir).ok();
}
