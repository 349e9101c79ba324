//! The incremental summary engine's headline numbers: cold (first run
//! with a cache dir — computes everything and populates the file) vs
//! warm (second run, pure Tier A hit) vs a one-method edit (Tier A
//! delta), plus the uncached baseline for reference.
//! The acceptance bar from DESIGN.md §7 is warm ≥ 10x faster than cold
//! on an unchanged corpus, asserted here on best-of-k timed runs so the
//! artifact records the actual ratio.

use std::hint::black_box;
use std::path::PathBuf;

use jgre_analysis::{AnalysisOptions, LeakChecker, CACHE_FILE};
use jgre_bench::{amplify, artifacts_enabled, min_time_ms, write_artifact};
use jgre_corpus::{spec::AospSpec, CodeModel, ParamUsage};
use serde::Serialize;

/// Flip the first binder param of one replica: the smallest edit that
/// actually changes a fact fingerprint and a summary.
fn edit_one_method(model: &CodeModel) -> CodeModel {
    let mut edited = model.clone();
    let target = edited
        .methods
        .iter()
        .position(|d| d.class.ends_with("__copy1") && !d.binder_params.is_empty())
        .expect("amplified corpus has a replica with binder params");
    let usage = &mut edited.methods[target].binder_params[0];
    *usage = if matches!(usage, ParamUsage::StoredInCollection) {
        ParamUsage::LocalOnly
    } else {
        ParamUsage::StoredInCollection
    };
    edited
}

#[derive(Debug, Serialize)]
struct IncrementalArtifact {
    methods: usize,
    cold_ms: f64,
    warm_ms: f64,
    one_method_edit_ms: f64,
    uncached_ms: f64,
    warm_speedup: f64,
    edit_speedup: f64,
}

fn main() {
    let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let model = amplify(&base, 4);
    let edited = edit_one_method(&model);

    let dir: PathBuf = std::env::temp_dir().join(format!("jgre-bench-inc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cached = AnalysisOptions::with_cache_dir(&dir);
    let cold_options = AnalysisOptions::default();

    let checker = LeakChecker::new(&model);
    let from_scratch = checker.analyze_with(&cold_options);
    checker.analyze_with(&cached);
    let pristine = std::fs::read(dir.join(CACHE_FILE)).expect("cache populated");
    let warm = checker.analyze_with(&cached);
    assert_eq!(
        warm.summaries, from_scratch.summaries,
        "warm summaries must equal from-scratch"
    );
    assert_eq!(warm.stats.cache_misses, 0, "second run must be a pure hit");

    // The acceptance ratio: best-of-k to shave scheduler noise.
    let cold_ms = min_time_ms(3, || {
        std::fs::remove_file(dir.join(CACHE_FILE)).unwrap();
        black_box(checker.analyze_with(&cached));
    });
    let warm_ms = min_time_ms(5, || {
        black_box(checker.analyze_with(&cached));
    });
    // Each edit starts from the pristine file, restored outside the
    // timed run.
    let mut edit_ms = f64::INFINITY;
    for _ in 0..3 {
        std::fs::write(dir.join(CACHE_FILE), &pristine).unwrap();
        edit_ms = edit_ms.min(min_time_ms(1, || {
            black_box(LeakChecker::new(&edited).analyze_with(&cached));
        }));
    }
    let uncached_ms = min_time_ms(3, || {
        black_box(checker.analyze_with(&cold_options));
    });
    std::fs::remove_dir_all(&dir).ok();

    let artifact = IncrementalArtifact {
        methods: model.methods.len(),
        cold_ms,
        warm_ms,
        one_method_edit_ms: edit_ms,
        uncached_ms,
        warm_speedup: cold_ms / warm_ms,
        edit_speedup: cold_ms / edit_ms,
    };
    let rendered = format!(
        "incremental summary cache ({} methods)\n\
         cold (populate):  {cold_ms:>8.3} ms\n\
         warm (pure hit):  {warm_ms:>8.3} ms  ({:.1}x)\n\
         one-method edit:  {edit_ms:>8.3} ms  ({:.1}x)\n\
         uncached:         {uncached_ms:>8.3} ms\n",
        artifact.methods, artifact.warm_speedup, artifact.edit_speedup
    );
    println!("{rendered}");
    assert!(
        artifact.warm_speedup >= 10.0,
        "warm re-analysis must be >= 10x faster than cold, got {:.1}x",
        artifact.warm_speedup
    );
    if artifacts_enabled() {
        write_artifact("incremental_cache", &artifact, &rendered);
    }
}
