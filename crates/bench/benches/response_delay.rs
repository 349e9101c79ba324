//! §V-D.1: detection (response) delays for all 57 vulnerable interfaces
//! at paper scale. The paper reports most below one second, three above,
//! and `midi.registerDeviceServer` slowest at ≈3.6 s.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
    if !artifacts_enabled() {
        return;
    }
    let r = experiments::response_delay(ExperimentScale::paper());
    write_artifact("response_delay", &r, &r.render());
    assert_eq!(r.rows.len(), 57);
    let slow = r.above_one_second();
    assert!(
        (1..=6).contains(&slow.len()),
        "a small set of slow detections expected, got {}",
        slow.len()
    );
    assert!(
        r.slowest().interface.contains("registerDeviceServer"),
        "slowest should be the midi interface, got {}",
        r.slowest().interface
    );
    assert!(
        (2_000_000..6_000_000).contains(&r.slowest().response_delay_us),
        "slowest ≈3.6s, got {}µs",
        r.slowest().response_delay_us
    );
    // Every detection is far faster than the fastest exhaustion (~100 s):
    // the attack cannot outrun the defense.
    for row in &r.rows {
        assert!(row.response_delay_us < 50_000_000, "{row:?}");
    }
}
