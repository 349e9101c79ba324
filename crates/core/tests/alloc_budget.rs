//! Allocation budget of the fleet's per-device path.
//!
//! A device boot reads the shared Android image in place and a dispatch
//! borrows its names from it, so neither should copy the spec; a
//! defended call reuses its parcel and shares its package name, and a
//! kill's collection reuses the heap's own bookkeeping. A counting
//! global allocator pins that: a re-boot of an arena slot and a
//! steady-state defended call each stay under a fixed number of heap
//! allocations, and a kill costs the same number whatever the number of
//! entries it releases, with or without a defender watching. Counts are
//! per thread, so tests running in parallel do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jgre_core::fleet::{campaign_catalog, DeviceArena, FleetConfig};
use jgre_core::ExperimentScale;
use jgre_defense::JgreDefender;
use jgre_framework::{CallOptions, KillOutcome};

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
/// (process table, runtimes, the binder node table, the name-sorted
/// service directory) plus the defender install. Service names are read
/// from the shared spec and the stock references' class names are
/// rendered once per image, never per boot (39 measured).
const BOOT_BUDGET: u64 = 45;

/// Allocations allowed, on average, for one defended call before the
/// defender has anything to score: only the amortized growth of the
/// driver log, the heap and the retained lists is left (0.17 measured).
const CALL_BUDGET: f64 = 0.25;

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

/// Allocations of `kill_app` on an attacker that retained `entries`
/// clipboard listeners in `system_server`: the release of the entries
/// and the collection that returns them. With `defended`, a defender at
/// the scale's thresholds is installed first, so its monitor observes
/// every Remove event of the kill (at 675 entries, most of them above
/// its record threshold).
fn kill_allocations(entries: usize, defended: bool) -> u64 {
    let scale = ExperimentScale::quick();
    let mut system = jgre_framework::System::boot_with(scale.system_config());
    let _defender = defended.then(|| {
        JgreDefender::install(&mut system, scale.defender_config())
            .expect("the quick scale's thresholds are valid")
    });
    let mal = system.install_app("com.malware", []);
    for _ in 0..entries {
        system
            .call_service(
                mal,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .expect("the clipboard leak dispatches");
    }
    let before = system.system_server_jgr_count();
    let (outcome, n) = allocations(|| system.kill_app(mal));
    assert_eq!(outcome, KillOutcome::Killed);
    assert_eq!(system.system_server_jgr_count(), before - entries);
    n
}

/// Allocations allowed for one kill, whatever the number of entries it
/// releases: the collection's bookkeeping grows with the heap, and the
/// free list is sized once per collection (2 measured).
const KILL_BUDGET: u64 = 3;

#[test]
fn a_kill_allocates_the_same_whatever_it_releases() {
    for defended in [false, true] {
        let few = kill_allocations(100, defended);
        let many = kill_allocations(675, defended);
        assert_eq!(
            few, many,
            "a kill's allocations grew with its entries (defended: {defended})"
        );
        assert!(
            many <= KILL_BUDGET,
            "a kill made {many} allocations (defended: {defended})"
        );
    }
}
