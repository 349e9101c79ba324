//! Allocation budget of the fleet's per-device path.
//!
//! A device boot reads the shared Android image in place and a dispatch
//! borrows its names from it, so neither should copy the spec. A counting
//! global allocator pins that: a re-boot of an arena slot and a
//! steady-state defended call each stay under a fixed number of heap
//! allocations. Counts are per thread, so tests running in parallel do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jgre_core::fleet::{campaign_catalog, DeviceArena, FleetConfig};
use jgre_core::ExperimentScale;

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

/// Allocations allowed for one re-boot of an arena slot: a new system
/// (process table, runtimes, 106 binder nodes and service-manager
/// entries, per-service state) plus the defender install.
const BOOT_BUDGET: u64 = 1_000;

/// Allocations allowed, on average, for one defended call before the
/// defender has anything to score.
const CALL_BUDGET: f64 = 10.0;

#[test]
fn arena_reboot_reads_the_shared_spec_in_place() {
    let scale = ExperimentScale::quick();
    let mut arena = DeviceArena::new();
    arena.boot(scale.with_seed(1));
    for seed in 2..6 {
        let (_, n) = allocations(|| {
            arena.boot(scale.with_seed(seed));
        });
        assert!(
            n <= BOOT_BUDGET,
            "re-boot {seed} made {n} allocations (budget {BOOT_BUDGET})"
        );
    }
}

#[test]
fn steady_state_dispatch_borrows_its_names() {
    let scale = ExperimentScale::quick();
    let config = FleetConfig::new(scale);
    let catalog = campaign_catalog(&config);
    let mut arena = DeviceArena::new();
    for vector in catalog.iter().take(8) {
        let device = arena.boot(scale);
        let mal = device
            .system_mut()
            .install_app("com.malware", vector.permissions.iter().copied());
        let call = |device: &mut jgre_core::DefendedDevice| {
            device
                .call_service(mal, &vector.service, &vector.method, vector.call_options())
                .expect("catalog vector dispatches")
        };
        // Warm-up: the attacker's process launch and first-call set-up.
        for _ in 0..16 {
            call(device);
        }
        const CALLS: u64 = 64;
        let (last, n) = allocations(|| {
            let mut last = None;
            for _ in 0..CALLS {
                last = Some(call(device));
            }
            last.expect("at least one call")
        });
        assert!(
            last.host_jgr_count < scale.record_threshold,
            "{}: measured window reached the defender's record threshold",
            vector.label()
        );
        assert!(device.detections().is_empty());
        let per_call = n as f64 / CALLS as f64;
        assert!(
            per_call <= CALL_BUDGET,
            "{}: {per_call:.1} allocations per call (budget {CALL_BUDGET})",
            vector.label()
        );
    }
}
