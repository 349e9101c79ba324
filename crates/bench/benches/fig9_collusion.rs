//! Figure 9: four colluding attackers + one chatty benign app, scored at
//! Δ ∈ {79, 1900, 3583} µs, at paper scale.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
    if !artifacts_enabled() {
        return;
    }
    let fig9 = experiments::fig9(ExperimentScale::paper());
    write_artifact("fig9_collusion", &fig9, &fig9.render());
    for &delta in &fig9.deltas_us {
        assert!(
            fig9.top4_all_malicious(delta),
            "Δ={delta}µs: the four colluders must top the ranking\n{}",
            fig9.render()
        );
    }
}
