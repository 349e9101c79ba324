//! §V-C at paper scale: the JGRE Defender must stop all 57 identified
//! attacks without a single soft reboot.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
    if !artifacts_enabled() {
        return;
    }
    let e = experiments::defense_effectiveness(ExperimentScale::paper());
    write_artifact("defense_effectiveness", &e, &e.render());
    assert_eq!(e.runs.len(), 57);
    assert_eq!(
        e.defended,
        57,
        "undefended: {:?}",
        e.runs
            .iter()
            .filter(|r| !(r.victim_survived && r.attacker_killed))
            .map(|r| r.interface.clone())
            .collect::<Vec<_>>()
    );
}
