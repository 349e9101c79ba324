//! Allocation budget of the fuzz campaign's exec path.
//!
//! A fuzz exec builds a parcel, dispatches it raw, and files its outcome
//! under a typed `(method code, outcome)` coverage key; a trial boot
//! reads the shared Android image in place. Neither should copy names
//! per exec. A counting global allocator pins that: a fixed campaign
//! stays under a fixed number of heap allocations per exec, set-up
//! (image synthesis, the shard plan) included. Counts are per thread, so
//! tests running in parallel do not see each other's allocations, and
//! the campaign runs on one thread (the calling one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jgre_core::ExperimentScale;
use jgre_fuzz::{run_fuzz, FuzzConfig};

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

/// Allocations allowed per exec (campaign execs plus minimization execs)
/// of the whole campaign below, set-up included. Execs reuse one parcel
/// and share the package name, and the mutation storm mutates one
/// reused input; what is left is mostly the trial boots (0.61 measured).
const EXEC_BUDGET: f64 = 0.7;

#[test]
fn campaign_execs_stay_within_the_allocation_budget() {
    // A leak (clipboard: probe, minimization), a server-capped method
    // (notification: spoof re-probe) and a mutation-storm tail on every
    // service.
    let mut config = FuzzConfig::new(ExperimentScale::quick());
    config.seed = 7;
    config.services = Some(vec![
        "clipboard".to_owned(),
        "notification".to_owned(),
        "wifi".to_owned(),
    ]);
    config.iters = 60_000;
    config.threads = 1;
    let (report, n) = allocations(|| run_fuzz(&config));
    assert!(!report.findings.is_empty(), "the campaign minimizes a leak");
    assert!(report.minimize_execs > 0);
    let execs = report.execs + report.minimize_execs;
    let per_exec = n as f64 / execs as f64;
    assert!(
        per_exec <= EXEC_BUDGET,
        "{n} allocations over {execs} execs: {per_exec:.2} per exec (budget {EXEC_BUDGET})"
    );
}
