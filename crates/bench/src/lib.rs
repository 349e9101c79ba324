//! Shared plumbing for the benchmark harness.
//!
//! Every target in `benches/` is a plain `harness = false` main:
//!
//! 1. the deterministic targets **regenerate the paper artifacts** at
//!    paper scale (full 51200-entry tables, 4000/12000 thresholds) and
//!    write them to `artifacts/` at the workspace root — both a rendered
//!    `.txt` and the raw `.json` — asserting the paper's shape as they go;
//! 2. the wall-clock targets (`fleet`, `fuzz`, `streaming`,
//!    `incremental`, `pathsense`) **assert a throughput floor** timed
//!    with [`min_time_ms`] or a single pinned run, and record the
//!    measured numbers in a timing artifact.
//!
//! `JGRE_SKIP_ARTIFACTS=1` runs every check and timing without writing
//! `artifacts/`.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use jgre_corpus::{CodeModel, MethodId};
use serde::Serialize;

/// Directory the artifacts land in: `<workspace>/artifacts`.
pub fn artifact_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("artifacts");
    dir
}

/// Writes `artifacts/<name>.txt` (the rendered table/series) and
/// `artifacts/<name>.json` (the raw data).
///
/// # Panics
///
/// Panics when the artifact directory cannot be created or written —
/// a broken harness should fail loudly, not silently skip artifacts.
pub fn write_artifact<T: Serialize>(name: &str, data: &T, rendered: &str) {
    let dir = artifact_dir();
    fs::create_dir_all(&dir).expect("create artifacts dir");
    fs::write(dir.join(format!("{name}.txt")), rendered).expect("write rendered artifact");
    let json = serde_json::to_string_pretty(data).expect("experiment structs serialise");
    fs::write(dir.join(format!("{name}.json")), json).expect("write json artifact");
    eprintln!("[artifact] {name}: {}", dir.join(name).display());
}

/// Whether artifact generation is enabled. Set `JGRE_SKIP_ARTIFACTS=1`
/// to run the checks and timings without writing `artifacts/`.
pub fn artifacts_enabled() -> bool {
    std::env::var_os("JGRE_SKIP_ARTIFACTS").is_none()
}

/// The best wall-clock time of `runs` calls of `f`, in milliseconds:
/// best-of-k shaves scheduler noise off a deterministic kernel.
pub fn min_time_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Replicates every method `copies` times with suffixed class names and
/// offset call ids, so the analysis sees a corpus several times the AOSP
/// seed while every fact fingerprint stays distinct. The replicas are
/// plain Java methods (the `(class, name)` specials in CFG synthesis no
/// longer match), but their binder params still drive real
/// allocation-site dataflow. The `incremental` and `pathsense` benches
/// both report over `amplify(base, 4)`.
pub fn amplify(base: &CodeModel, copies: usize) -> CodeModel {
    let n = base.methods.len();
    let mut model = base.clone();
    for j in 1..copies {
        for def in &base.methods {
            let mut copy = def.clone();
            copy.id = MethodId((def.id.0 as usize + j * n) as u32);
            copy.class = format!("{}__copy{j}", def.class);
            for callee in copy.calls.iter_mut().chain(copy.handler_posts.iter_mut()) {
                *callee = MethodId((callee.0 as usize + j * n) as u32);
            }
            model.methods.push(copy);
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_dir_is_inside_workspace() {
        let dir = artifact_dir();
        assert!(dir.ends_with("artifacts"));
        assert!(dir.parent().unwrap().join("Cargo.toml").exists());
    }
}
