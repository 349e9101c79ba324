//! Algorithm 1 over a flat array histogram: every vote writes each bin
//! of its `lo..=hi` range, and each IPC type's best bin is a full scan.
//! This is the baseline §V-D.2 compares the segment tree against, and an
//! implementation independent of the deployed difference array
//! ([`segment_tree_scores`](jgre_defense::segment_tree_scores)) for
//! differential tests.

use std::collections::BTreeMap;

use jgre_defense::{ScoreParams, ScoreReport, UidScore};
use jgre_sim::{SimTime, Uid};

/// Computes Algorithm 1 with a flat array histogram (the ablation
/// baseline §V-D.2 compares against).
pub fn naive_scores(
    ipc_by_uid: &BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>,
    jgr_adds: &[SimTime],
    params: ScoreParams,
) -> ScoreReport {
    assert!(params.bin.as_micros() > 0, "bin width must be positive");
    let bins = (params.window.as_micros() / params.bin.as_micros()) as usize + 2;
    let delta_bins = (params.delta.as_micros() / params.bin.as_micros()) as usize;
    let mut naive = vec![0u64; bins];
    let mut pairs_processed = 0u64;
    let mut records_scanned = 0u64;
    let mut scores: Vec<UidScore> = Vec::new();

    for (&uid, types) in ipc_by_uid {
        let mut per_type = Vec::new();
        let mut total = 0u64;
        for (ipc_type, calls) in types {
            records_scanned += calls.len() as u64;
            naive.fill(0);
            let mut any = false;
            // Both series are time-ordered; a moving lower bound keeps the
            // pairing linear in (calls + adds + pairs).
            let mut start = 0usize;
            for &add in jgr_adds {
                let window_floor =
                    SimTime::from_micros(add.as_micros().saturating_sub(params.window.as_micros()));
                while start < calls.len() && calls[start] < window_floor {
                    start += 1;
                }
                let mut i = start;
                while i < calls.len() && calls[i] <= add {
                    let min_delay = (add - calls[i]).as_micros();
                    let lo = (min_delay / params.bin.as_micros()) as usize;
                    let hi = lo + delta_bins;
                    for slot in naive[lo.min(bins - 1)..=hi.min(bins - 1)].iter_mut() {
                        *slot += 1;
                    }
                    pairs_processed += 1;
                    any = true;
                    i += 1;
                }
            }
            let this_type_max = if !any {
                0
            } else {
                *naive.iter().max().expect("bins > 0")
            };
            if this_type_max > 0 {
                per_type.push((ipc_type.clone(), this_type_max));
            }
            total += this_type_max;
        }
        scores.push(UidScore {
            uid,
            score: total,
            per_type,
        });
    }
    scores.sort_by(|a, b| b.score.cmp(&a.score).then(a.uid.cmp(&b.uid)));
    ScoreReport {
        scores,
        pairs_processed,
        records_scanned,
    }
}
