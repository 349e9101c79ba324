//! The deployed Algorithm 1 scorer against the independent flat-array
//! implementation, on a fixed attack-plus-benign workload.

use std::collections::BTreeMap;

use jgre_defense::{segment_tree_scores, ScoreParams};
use jgre_oracles::naive_scores;
use jgre_sim::{SimDuration, SimTime, Uid};

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

type Workload = (BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>, Vec<SimTime>);

/// An attacker calling every 2 ms with a constant 500 µs delay to the
/// JGR add, against a benign app calling at unrelated times (the same
/// workload as the scorer's unit tests).
fn workload() -> Workload {
    let attacker = Uid::new(10_061);
    let benign = Uid::new(10_065);
    let mut ipc: BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>> = BTreeMap::new();
    let mut adds = Vec::new();
    for k in 0..200u64 {
        let call = 10_000 + k * 2_000;
        ipc.entry(attacker)
            .or_default()
            .entry("IClipboard.addPrimaryClipChangedListener".into())
            .or_default()
            .push(t(call));
        adds.push(t(call + 500));
    }
    for k in 0..300u64 {
        // Deterministic pseudo-random benign call times, a few
        // milliseconds apart.
        let call = 10_137 + k * 6_997 + (k * k * 31) % 977;
        ipc.entry(benign)
            .or_default()
            .entry("IAudioService.getState".into())
            .or_default()
            .push(t(call));
    }
    for times in ipc.values_mut().flat_map(|m| m.values_mut()) {
        times.sort_unstable();
    }
    (ipc, adds)
}

#[test]
fn naive_and_segment_tree_agree() {
    let (ipc, adds) = workload();
    for delta_us in [79u64, 1_900, 3_583] {
        let params = ScoreParams {
            delta: SimDuration::from_micros(delta_us),
            ..ScoreParams::default()
        };
        let a = segment_tree_scores(&ipc, &adds, params);
        let b = naive_scores(&ipc, &adds, params);
        assert_eq!(a.scores, b.scores, "delta={delta_us}");
        assert_eq!(a.pairs_processed, b.pairs_processed);
    }
}
