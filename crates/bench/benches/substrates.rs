//! Micro-benchmarks of the substrate hot paths: reference-table
//! operations, heap collection, the monitor's per-event cost, and the
//! end-to-end dispatch of a single IPC call. These are the kernels whose
//! throughput bounds every experiment above.

use std::rc::Rc;

use criterion::{criterion_group, BenchmarkId, Criterion};
use jgre_art::{Heap, IndirectRefTable, RefKind, Runtime};
use jgre_defense::JgrMonitor;
use jgre_framework::{CallOptions, System};
use jgre_sim::{Pid, SimClock, TraceSink};

fn bench_irt(c: &mut Criterion) {
    let mut group = c.benchmark_group("irt");
    group.bench_function("add_remove_cycle", |b| {
        let mut heap = Heap::new();
        let mut table = IndirectRefTable::new(RefKind::Global, 1 << 20);
        let obj = heap.alloc("x");
        b.iter(|| {
            let r = table
                .add(std::hint::black_box(obj))
                .expect("below capacity");
            table.remove(r).expect("just added");
        });
    });
    group.bench_function("frame_push_pop_8_locals", |b| {
        let mut heap = Heap::new();
        let mut table = IndirectRefTable::new(RefKind::Local, 512);
        let objs: Vec<_> = (0..8).map(|_| heap.alloc("local")).collect();
        b.iter(|| {
            let cookie = table.push_frame();
            for &o in &objs {
                table.add(o).expect("frame has room");
            }
            table
                .pop_frame(cookie, |obj| {
                    std::hint::black_box(obj);
                })
                .expect("balanced");
        });
    });
    group.finish();
}

fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc");
    group.sample_size(20);
    for garbage in [100usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::new("collect", garbage), &garbage, |b, &n| {
            b.iter_batched(
                || {
                    let mut rt = Runtime::new(Pid::new(1), SimClock::new(), TraceSink::disabled());
                    for _ in 0..n {
                        rt.alloc("garbage");
                    }
                    rt
                },
                |mut rt| rt.collect_garbage(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_monitor(c: &mut Criterion) {
    c.bench_function("monitor_event_while_recording", |b| {
        let monitor = Rc::new(JgrMonitor::new(1, 1 << 30).expect("bench thresholds are valid"));
        let mut rt = Runtime::new(Pid::new(1), SimClock::new(), TraceSink::disabled());
        rt.register_observer(monitor.clone());
        // Cross the record threshold so the hot (recording) path runs.
        let o = rt.alloc("seed");
        let seed_ref = rt.add_global(o).unwrap();
        let _ = seed_ref;
        let obj = rt.alloc("churn");
        b.iter(|| {
            let r = rt.add_global(std::hint::black_box(obj)).expect("huge cap");
            rt.delete_global(r).expect("just added");
        });
    });
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.bench_function("full_ipc_call_no_jgr", |b| {
        let mut system = System::boot(1);
        let app = system.install_app("com.bench", []);
        b.iter(|| {
            system
                .call_service(app, "clipboard", "getState", CallOptions::default())
                .expect("innocent method exists")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_irt, bench_gc, bench_monitor, bench_dispatch);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
