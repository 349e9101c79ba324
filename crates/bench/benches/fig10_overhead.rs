//! Figure 10: IPC latency vs payload size (1–500 KiB), stock driver vs
//! the defense's recording driver.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
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
