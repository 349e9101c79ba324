//! Figure 8: the defender's suspicious-IPC counts — malicious app vs the
//! top benign app — across the known vulnerabilities, at paper scale.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
    if !artifacts_enabled() {
        return;
    }
    // 54 vulnerabilities × (1 attacker + 10 benign apps), Δ = 1.8 ms.
    let fig8 = experiments::fig8(ExperimentScale::paper(), 10, usize::MAX);
    write_artifact("fig8_detection", &fig8, &fig8.render());
    assert!(
        fig8.separation_rate() >= 0.99,
        "attacker must outscore every benign app: {:.2}",
        fig8.separation_rate()
    );
}
