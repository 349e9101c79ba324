//! Allocation budget of the streaming defender's ingest path.
//!
//! `StreamDefender::ingest_bytes` decodes each frame in place: the
//! scorer borrows an IPC record's label from the decoder's buffer and an
//! accepted frame goes to the journal verbatim, so a steady-state event
//! allocates nothing of its own. What is left is per scoring pass (the
//! report's score rows) and per verdict (the journal's compaction). A
//! counting global allocator pins that. Counts are per thread, so tests
//! running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jgre_defense::stream::{
    encode_event, stream_header, ServeConfig, ServeReport, StreamDefender, StreamEvent,
};
use jgre_defense::MemoryStore;
use jgre_sim::source::{EventSource, SourceConfig, SourceEventKind};
use jgre_sim::SimDuration;

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

/// Allocations allowed, on average, per event of a steady-state
/// `ingest_bytes` on an attack stream. What remains is per scoring pass
/// (its report rows) and per verdict (the journal's compaction), about
/// 72 per pass with a pass every ≈ 140 events (0.50 measured).
const EVENT_BUDGET: f64 = 0.58;

/// The same stream with no scoring pass: the events alone allocate
/// nothing but the journal's amortized growth (2 measured over 32 256
/// events).
const PASS_FREE_BUDGET: u64 = 4;

/// The whole chunks of a seeded attack stream at `serve`'s benchmark
/// rate, framed as `run_serve` frames it.
fn attack_stream(config: &ServeConfig) -> (Vec<Vec<u8>>, Vec<u64>) {
    let mut source = EventSource::new(config.source);
    let (mut chunks, mut frames) = (Vec::new(), Vec::new());
    let mut chunk = stream_header();
    let mut in_chunk = 0;
    while let Some(event) = source.next() {
        let event = match event.kind {
            SourceEventKind::Call { uid, interface } => StreamEvent::Ipc {
                at: event.at,
                uid,
                ipc_type: source.interface_label(interface),
            },
            SourceEventKind::Add => StreamEvent::JgrAdd { at: event.at },
        };
        encode_event(&event, &mut chunk);
        in_chunk += 1;
        if in_chunk == config.chunk_frames as u64 {
            chunks.push(std::mem::take(&mut chunk));
            frames.push(in_chunk);
            in_chunk = 0;
        }
    }
    (chunks, frames)
}

/// Allocations of `ingest_bytes` over the last three quarters of a
/// journaled attack stream scored every `trigger_adds` adds, the events
/// they covered, and the run's report. The first quarter warms up: the
/// scorer's per-type slots, the decoder's buffer and the journal grow to
/// their working size.
fn ingest_allocations(trigger_adds: u64) -> (u64, u64, ServeReport) {
    let config = ServeConfig {
        source: SourceConfig {
            seed: 90_001,
            events_per_sec: 80_000,
            duration: SimDuration::from_millis(400),
            attack_delay: SimDuration::from_micros(3_745),
            ..SourceConfig::default()
        },
        trigger_adds,
        ..ServeConfig::default()
    };
    let (chunks, frames) = attack_stream(&config);
    let store = MemoryStore::new();
    let mut defender = StreamDefender::with_store(config, &store);
    let warm = chunks.len() / 4;
    for chunk in &chunks[..warm] {
        defender.ingest_bytes(chunk);
    }
    let ((), n) = allocations(|| {
        for chunk in &chunks[warm..] {
            defender.ingest_bytes(chunk);
        }
    });
    let report = defender.finish().expect("in-memory journal cannot fail");
    assert_eq!(report.ingest.accepted, report.ingest.offered);
    (n, frames[warm..].iter().sum(), report)
}

#[test]
fn steady_state_ingest_allocates_per_pass_not_per_event() {
    let (n, events, report) = ingest_allocations(ServeConfig::default().trigger_adds);
    assert!(
        report.verdicts.len() > 100,
        "the attack must keep compacting the journal"
    );
    let per_event = n as f64 / events as f64;
    assert!(
        per_event <= EVENT_BUDGET,
        "{n} allocations over {events} events: {per_event:.3} per event (budget {EVENT_BUDGET})"
    );

    let (n, events, report) = ingest_allocations(u64::MAX);
    assert_eq!(report.stats.rounds, 0);
    assert!(
        n <= PASS_FREE_BUDGET,
        "{n} allocations over {events} events without a scoring pass \
         (budget {PASS_FREE_BUDGET})"
    );
}
