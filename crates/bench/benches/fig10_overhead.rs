//! Figure 10: IPC latency vs payload size (1–500 KiB), stock driver vs
//! the defense's recording driver, plus a raw transaction kernel bench.

use criterion::{criterion_group, Criterion};
use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_binder::{BinderDriver, Parcel};
use jgre_core::{experiments, ExperimentScale};
use jgre_sim::{Pid, SimClock, TraceSink, Uid};

fn generate_artifacts() {
    if !artifacts_enabled() {
        return;
    }
    let fig10 = experiments::fig10(ExperimentScale::paper(), 500);
    write_artifact("fig10_overhead", &fig10, &fig10.render());
    assert!(
        fig10.max_added_us() <= 1_247,
        "added delay {}µs exceeds the paper's 1.247 ms",
        fig10.max_added_us()
    );
    let pct = fig10.mean_overhead() * 100.0;
    assert!((40.0..52.0).contains(&pct), "overhead {pct:.1}%");
}

fn bench_transactions(c: &mut Criterion) {
    let mut group = c.benchmark_group("binder");
    for defense in [false, true] {
        group.bench_function(
            if defense {
                "transaction_with_recording"
            } else {
                "transaction_stock"
            },
            |b| {
                let clock = SimClock::new();
                let mut driver = BinderDriver::new(clock, TraceSink::disabled());
                driver.set_defense_recording(defense);
                driver.set_log_enabled(false);
                let node = driver.create_node(Pid::new(412));
                let mut parcel = Parcel::new();
                parcel.write_string("payload").write_blob(64 * 1024);
                b.iter(|| {
                    driver
                        .record_transaction(
                            Pid::new(9_000),
                            Uid::new(10_000),
                            node,
                            "IEcho",
                            "deliver",
                            std::hint::black_box(&parcel),
                        )
                        .expect("node is alive")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_transactions);

fn main() {
    generate_artifacts();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
