//! Figure 4: the benign top-300-apps baseline at paper scale (Observation
//! 1).

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};
use jgre_framework::STOCK_PROCESS_COUNT;

fn main() {
    if !artifacts_enabled() {
        return;
    }
    // The paper's protocol: 300 apps in 3 rounds of 100, two minutes each.
    let fig4 = experiments::fig4(ExperimentScale::paper(), 300, 120);
    write_artifact("fig4_benign_baseline", &fig4, &fig4.render());
    assert!(
        fig4.jgr_max < 5_000,
        "benign JGR must stay in the small band, got {}",
        fig4.jgr_max
    );
    assert!(fig4.proc_min >= STOCK_PROCESS_COUNT);
    assert!(fig4.proc_max <= STOCK_PROCESS_COUNT + 39);
}
