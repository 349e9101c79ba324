//! Allocation budget of the uncached leak-check pass.
//!
//! Each wave worker solves its methods through one reused scratch: the
//! synthesized body, its CFG, the solver's per-block states, reverse
//! postorder and worklist, and the fold's site runs all keep their
//! buffers from one method to the next. An acyclic SCC is folded once,
//! and the SCC condensation walks the call edges with a cursor. A
//! counting global allocator pins that on the 4× corpus (14,928
//! methods): a whole uncached `analyze_with` and the intra-solve probe
//! `intra_solver_cost` each stay under a fixed number of heap
//! allocations per method. Counts are per thread, so tests running in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jgre_analysis::{intra_solver_cost, AnalysisOptions, LeakChecker};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId};

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

/// The AOSP corpus replicated `copies` times with suffixed class names
/// and offset call ids, as the lint benchmark amplifies it.
fn amplify(base: &CodeModel, copies: usize) -> CodeModel {
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

/// Allocations allowed per method for one uncached `analyze_with`: the
/// site lists of the summaries that reach a site, and the per-run
/// tables (2,989 allocations, 0.20 per method measured; 249,519, 16.7
/// per method, before the scratch solver).
const ANALYZE_BUDGET: f64 = 0.25;

/// Allocations allowed per method for `intra_solver_cost`: only the
/// branch arms of the few branching bodies and the scratch's growth are
/// left (74 allocations, 0.005 per method measured; 146,598, 9.8 per
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
