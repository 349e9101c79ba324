//! Tables II and III at paper scale: helper-class protections fall to
//! direct Binder calls; per-process limits hold except for the
//! `enqueueToast` package spoof.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
    if !artifacts_enabled() {
        return;
    }
    let t2 = experiments::table2(ExperimentScale::paper());
    write_artifact("table2_helper_bypass", &t2, &t2.render());
    assert_eq!(t2.rows.len(), 9);
    assert!(t2.rows.iter().all(|r| r.direct_binder_bypasses));

    let t3 = experiments::table3(ExperimentScale::paper());
    write_artifact("table3_per_process_limits", &t3, &t3.render());
    assert_eq!(t3.rows.len(), 4);
    assert_eq!(t3.rows.iter().filter(|r| r.protected).count(), 3);
}
