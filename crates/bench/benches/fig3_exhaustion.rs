//! Figure 3: JGR growth curves for all 54 vulnerable interfaces at the
//! real 51200-entry capacity.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
    if !artifacts_enabled() {
        return;
    }
    let fig3 = experiments::fig3(ExperimentScale::paper());
    write_artifact("fig3_exhaustion", &fig3, &fig3.render());
    // Paper shape checks, loud in the bench log.
    assert_eq!(fig3.series[0].interface, "audio.startWatchingRoutes");
    assert_eq!(
        fig3.series.last().expect("54 series").interface,
        "notification.enqueueToast"
    );
    assert!(
        (80.0..130.0).contains(&fig3.fastest_secs()),
        "fastest {}s",
        fig3.fastest_secs()
    );
    assert!(
        (1_500.0..2_100.0).contains(&fig3.slowest_secs()),
        "slowest {}s",
        fig3.slowest_secs()
    );
}
