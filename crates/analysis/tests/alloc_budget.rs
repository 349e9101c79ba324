//! Allocation budgets of the leak-check pass, uncached and cached, and
//! of the whole lint around it.
//!
//! The bottom-up pass solves its methods through one reused scratch:
//! the synthesized CFG, the solver's per-block states, reverse
//! postorder and worklist, and the fold's site runs all keep their
//! buffers from one method to the next. An acyclic SCC is folded once,
//! a statement-free one is not solved at all, and the SCC condensation
//! walks the call edges with a cursor. A
//! counting global allocator pins that on the 4× corpus (14,928
//! methods): a whole uncached `analyze_with`, the intra-solve probe
//! `intra_solver_cost`, a cached run that populates the summary cache
//! and the cached re-lint of a one-method edit each stay under a fixed
//! number of heap allocations per method, and a whole uncached lint
//! (report, SARIF tree and render) under a fixed number per IPC method.
//! Counts are per thread, so tests running in parallel do not see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jgre_analysis::{
    intra_solver_cost, AnalysisOptions, IpcMethodExtractor, LeakChecker, LintReport,
};
use jgre_corpus::{spec::AospSpec, CodeModel, ParamUsage};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while the thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[path = "support/corpora.rs"]
mod corpora;
use corpora::amplify;

/// Allocations allowed per method for one uncached `analyze_with`: the
/// site lists of the summaries that reach a site, and the per-run
/// tables (2,790 allocations, 0.19 per method measured; 249,519, 16.7
/// per method, before the scratch solver).
const ANALYZE_BUDGET: f64 = 0.25;

/// Allocations allowed per method for `intra_solver_cost`: only the
/// scratch's growth is left (35 allocations, 0.002 per method measured;
/// 74 while branch arms were nested statement lists; 146,598, 9.8 per
/// method, before the scratch solver).
const INTRA_BUDGET: f64 = 0.01;

#[test]
fn uncached_analysis_stays_within_the_allocation_budget() {
    let model = amplify(&CodeModel::synthesize(&AospSpec::android_6_0_1()), 4);
    let checker = LeakChecker::new(&model);
    let options = AnalysisOptions::default();
    let (analysis, n) = allocations(|| checker.analyze_with(&options));
    assert_eq!(analysis.stats.cfg_blocks, 14_964, "the pinned 4x corpus");
    let per_method = n as f64 / model.methods.len() as f64;
    eprintln!("analyze_with: {n} allocations, {per_method:.2} per method");
    assert!(
        per_method <= ANALYZE_BUDGET,
        "{n} allocations over {} methods: {per_method:.2} per method (budget {ANALYZE_BUDGET})",
        model.methods.len()
    );
}

#[test]
fn intra_solve_reuses_one_scratch() {
    let model = amplify(&CodeModel::synthesize(&AospSpec::android_6_0_1()), 4);
    let (iterations, n) = allocations(|| intra_solver_cost(&model));
    assert_eq!(
        iterations, 14_964,
        "one transfer per block of an acyclic CFG"
    );
    let per_method = n as f64 / model.methods.len() as f64;
    eprintln!("intra_solver_cost: {n} allocations, {per_method:.4} per method");
    assert!(
        per_method <= INTRA_BUDGET,
        "{n} allocations over {} methods: {per_method:.4} per method (budget {INTRA_BUDGET})",
        model.methods.len()
    );
}

/// Allocations allowed per method for a cached `analyze_with` that
/// populates an empty cache directory: the uncached run's, plus the
/// file written (2,814 allocations, 0.189 per method measured; 37,482,
/// 2.51 per method, with a Tier B record per SCC; 83,402, 5.6 per
/// method, with records by `(class, name)`).
const POPULATE_BUDGET: f64 = 0.22;

/// Allocations allowed per method for the cached re-lint of a one-method
/// edit: loading the file, the Tier A table's site lists, the edit's
/// cone and the file written (2,799 allocations, 0.188 per method
/// measured; 2,833, 0.190 per method, with Tier B).
const EDIT_BUDGET: f64 = 0.22;

#[test]
fn cached_analysis_stays_within_the_allocation_budget() {
    let model = amplify(&CodeModel::synthesize(&AospSpec::android_6_0_1()), 4);
    let dir = std::env::temp_dir().join(format!("jgre-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = AnalysisOptions::with_cache_dir(&dir);
    let (populating, populate) = allocations(|| LeakChecker::new(&model).analyze_with(&options));
    assert_eq!(populating.stats.cache_misses, populating.stats.sccs as u64);

    // Flip the first binder parameter of a replica method nothing calls:
    // the edit's cone is that one method.
    let target = model
        .methods
        .iter()
        .find(|d| {
            d.class.ends_with("__copy1")
                && !d.binder_params.is_empty()
                && !model
                    .methods
                    .iter()
                    .any(|c| c.calls.contains(&d.id) || c.handler_posts.contains(&d.id))
        })
        .expect("the 4x corpus has an uncalled replica method with binder params")
        .id;
    let mut edited = model.clone();
    let usage = &mut edited.methods[target.0 as usize].binder_params[0];
    *usage = if *usage == ParamUsage::LocalOnly {
        ParamUsage::StoredInCollection
    } else {
        ParamUsage::LocalOnly
    };
    let (relint, edit) = allocations(|| LeakChecker::new(&edited).analyze_with(&options));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(relint.stats.cache_misses, 1, "{:?}", relint.stats);

    let methods = model.methods.len() as f64;
    for (what, n, budget) in [
        ("populating run", populate, POPULATE_BUDGET),
        ("one-method edit", edit, EDIT_BUDGET),
    ] {
        let per_method = n as f64 / methods;
        eprintln!("{what}: {n} allocations, {per_method:.3} per method");
        assert!(
            per_method <= budget,
            "{what}: {n} allocations over {methods} methods: {per_method:.3} per method (budget {budget})"
        );
    }
}

/// Allocations allowed per IPC method for one whole uncached lint, as
/// `jgre lint` runs it: `LintReport::generate_with`, `to_sarif` and the
/// pretty render. The extractor borrows every IPC method's names from
/// the model, the detector's rows borrow the extractor's output, and the
/// SARIF document is rendered in place. What is left is mostly the
/// SARIF tree itself, one key string per object field (19,892
/// allocations, 8.17 per IPC method measured; 27,153, 11.2 per IPC
/// method, when the extractor copied each method's names; 55,062, 22.6
/// per IPC method, when rows also copied their IPC method).
const LINT_BUDGET: f64 = 9.0;

#[test]
fn whole_lint_stays_within_the_allocation_budget() {
    let spec = AospSpec::android_6_0_1();
    let model = amplify(&CodeModel::synthesize(&spec), 4);
    let ipc_methods = IpcMethodExtractor::new(&model).extract().len();
    let options = AnalysisOptions::default();
    let (sarif, n) = allocations(|| {
        let report = LintReport::generate_with(&model, &spec, &options);
        assert_eq!(report.accuracy.true_positives, 54, "the pinned 4x corpus");
        serde_json::to_string_pretty(&report.to_sarif(&model)).expect("SARIF serialises")
    });
    assert!(sarif.len() > 300_000, "the whole SARIF document");
    let per_ipc = n as f64 / ipc_methods as f64;
    eprintln!(
        "whole lint: {n} allocations, {per_ipc:.2} per IPC method ({ipc_methods} IPC methods)"
    );
    assert!(
        per_ipc <= LINT_BUDGET,
        "{n} allocations over {ipc_methods} IPC methods: {per_ipc:.2} per IPC method (budget {LINT_BUDGET})"
    );
}
