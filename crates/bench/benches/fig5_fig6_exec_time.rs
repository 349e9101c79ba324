//! Figures 5 and 6: execution-time growth of `listenForSubscriber` during
//! a full attack, and the execution-time CDF of all 54 interfaces over
//! 1000 calls each — the paper's protocol, at paper scale.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
    if !artifacts_enabled() {
        return;
    }
    let fig5 = experiments::fig5(ExperimentScale::paper());
    write_artifact("fig5_exec_growth", &fig5, &fig5.render());
    // The paper's plot climbs from ~5-10 ms toward ~60 ms near 50k calls.
    assert!(
        fig5.growth_factor() > 4.0,
        "growth factor {}",
        fig5.growth_factor()
    );

    let fig6 = experiments::fig6(ExperimentScale::paper(), 1_000);
    write_artifact("fig6_exec_cdf", &fig6, &fig6.render());
    // Figure 6's envelope: the CDF's mass sits below ~8 ms. Our tail runs
    // slightly past it because `midi.registerDeviceServer` is modelled at
    // 4 references per call (so 1000 calls store 4000 entries and its
    // growth term kicks in earlier than in the paper's run).
    assert!(
        fig6.percentile(90) <= 8_000,
        "p90 {}µs",
        fig6.percentile(90)
    );
    assert!(
        fig6.percentile(100) <= 14_000,
        "p100 {}µs",
        fig6.percentile(100)
    );
}
