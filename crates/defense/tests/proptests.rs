//! Property-based tests for Algorithm 1's invariances.

use std::collections::BTreeMap;

use jgre_defense::{
    naive_scores, segment_tree_scores, IncrementalScorer, ScoreParams, ScoreReport, SegmentTree,
    UidScore,
};
use jgre_sim::{SimDuration, SimTime, Uid};
use proptest::prelude::*;

type IpcByUid = BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>;

/// Algorithm 1 as a batch pass over §V-D.2's lazy segment tree: the
/// second oracle for the deployed difference-array scorer, independent of
/// both it and `naive_scores`' flat array.
fn tree_scores(ipc: &IpcByUid, adds: &[SimTime], p: ScoreParams) -> ScoreReport {
    let bin_us = p.bin.as_micros();
    let bins = (p.window.as_micros() / bin_us) as usize + 2;
    let delta_bins = (p.delta.as_micros() / bin_us) as usize;
    let mut tree = SegmentTree::new(bins);
    let (mut pairs_processed, mut records_scanned) = (0u64, 0u64);
    let mut scores = Vec::new();
    for (&uid, types) in ipc {
        let mut per_type = Vec::new();
        let mut score = 0u64;
        for (ipc_type, calls) in types {
            records_scanned += calls.len() as u64;
            tree.clear();
            for &add in adds {
                let floor = add.as_micros().saturating_sub(p.window.as_micros());
                for &call in calls {
                    if call.as_micros() < floor || call > add {
                        continue;
                    }
                    let lo = ((add - call).as_micros() / bin_us) as usize;
                    tree.range_add(lo, lo + delta_bins, 1);
                    pairs_processed += 1;
                }
            }
            let max = tree.global_max();
            if max > 0 {
                per_type.push((ipc_type.clone(), max));
            }
            score += max;
        }
        scores.push(UidScore {
            uid,
            score,
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

/// One step of an interleaved stream.
#[derive(Debug, Clone)]
enum Step {
    Ipc(u32, u8),
    Add,
    Advance,
    Reset,
}

/// Random stream: time gaps of up to 3 ms (so pairing windows and the
/// horizon overlap many events) and every kind of step, resets included.
fn stream_strategy() -> impl Strategy<Value = Vec<(u64, Step)>> {
    let step = prop_oneof![
        6 => (0u32..4, 0u8..3).prop_map(|(app, ty)| Step::Ipc(app, ty)),
        5 => Just(Step::Add),
        1 => Just(Step::Advance),
        1 => Just(Step::Reset),
    ];
    proptest::collection::vec((0u64..3_000, step), 0..300)
}

fn feed(scorer: &mut IncrementalScorer, at: SimTime, step: &Step) {
    match *step {
        Step::Ipc(app, ty) => scorer.push_ipc(Uid::new(10_000 + app), &format!("I.type{ty}"), at),
        Step::Add => scorer.push_add(at),
        Step::Advance => scorer.advance(at),
        Step::Reset => scorer.reset(),
    }
}

/// Random workload: a handful of apps with a couple of IPC types each,
/// call times in a bounded horizon, plus a set of JGR add times.
fn workload_strategy() -> impl Strategy<Value = (IpcByUid, Vec<SimTime>)> {
    let calls = proptest::collection::vec(0u64..2_000_000, 0..120);
    let apps = proptest::collection::vec((0u32..6, 0u8..3, calls), 1..8);
    let adds = proptest::collection::vec(0u64..2_000_000, 0..200);
    (apps, adds).prop_map(|(apps, adds)| {
        let mut ipc: IpcByUid = BTreeMap::new();
        for (app, ty, times) in apps {
            let mut times: Vec<SimTime> = times.into_iter().map(SimTime::from_micros).collect();
            times.sort_unstable();
            ipc.entry(Uid::new(10_000 + app))
                .or_default()
                .entry(format!("I.type{ty}"))
                .or_default()
                .extend(times);
        }
        for series in ipc.values_mut().flat_map(|m| m.values_mut()) {
            series.sort_unstable();
        }
        let mut adds: Vec<SimTime> = adds.into_iter().map(SimTime::from_micros).collect();
        adds.sort_unstable();
        (ipc, adds)
    })
}

fn params(delta_us: u64) -> ScoreParams {
    ScoreParams {
        delta: SimDuration::from_micros(delta_us),
        window: SimDuration::from_millis(8),
        bin: SimDuration::from_micros(50),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The deployed difference-array scorer, the segment-tree oracle and
    /// the naive flat array agree everywhere — neither the §V-D.2 tree nor
    /// the difference array changes a score.
    #[test]
    fn tree_equals_naive((ipc, adds) in workload_strategy(), delta_us in 50u64..5_000) {
        let p = params(delta_us);
        let deployed = segment_tree_scores(&ipc, &adds, p);
        let tree = tree_scores(&ipc, &adds, p);
        let naive = naive_scores(&ipc, &adds, p);
        prop_assert_eq!(&deployed, &tree);
        prop_assert_eq!(&deployed, &naive);
    }

    /// A scorer that is reset and reuses its slots equals, after every
    /// step, a scorer built afresh at the last reset and fed the same
    /// events since — in the report and in the live vote count.
    #[test]
    fn reset_reuses_slots_like_a_fresh_scorer(
        steps in stream_strategy(),
        horizon_us in prop_oneof![1 => Just(None), 3 => (1_000u64..40_000).prop_map(Some)],
        delta_us in 50u64..5_000,
    ) {
        let p = params(delta_us);
        let build = || match horizon_us {
            Some(h) => IncrementalScorer::with_horizon(p, SimDuration::from_micros(h)),
            None => IncrementalScorer::new(p),
        };
        let mut reused = build();
        let mut fresh = build();
        let mut now = 0u64;
        for (gap, step) in &steps {
            now += gap;
            let at = SimTime::from_micros(now);
            feed(&mut reused, at, step);
            match step {
                Step::Reset => fresh = build(),
                _ => feed(&mut fresh, at, step),
            }
            prop_assert_eq!(reused.report(), fresh.report());
            prop_assert_eq!(reused.live_votes(), fresh.live_votes());
        }
    }

    /// Shifting every timestamp by the same offset leaves all scores
    /// unchanged — the algorithm only looks at deltas.
    #[test]
    fn scores_are_shift_invariant(
        (ipc, adds) in workload_strategy(),
        shift in 0u64..50_000_000,
    ) {
        let p = params(1_800);
        let base = segment_tree_scores(&ipc, &adds, p);
        let shifted_ipc: IpcByUid = ipc
            .iter()
            .map(|(uid, types)| {
                (*uid, types.iter().map(|(t, times)| {
                    (t.clone(), times.iter()
                        .map(|x| SimTime::from_micros(x.as_micros() + shift))
                        .collect())
                }).collect())
            })
            .collect();
        let shifted_adds: Vec<SimTime> = adds
            .iter()
            .map(|x| SimTime::from_micros(x.as_micros() + shift))
            .collect();
        let shifted = segment_tree_scores(&shifted_ipc, &shifted_adds, p);
        let base_scores: Vec<(Uid, u64)> =
            base.scores.iter().map(|s| (s.uid, s.score)).collect();
        let shifted_scores: Vec<(Uid, u64)> =
            shifted.scores.iter().map(|s| (s.uid, s.score)).collect();
        prop_assert_eq!(base_scores, shifted_scores);
    }

    /// An app's score never depends on *other* apps' traffic: dropping a
    /// competitor leaves its score unchanged (scores are per-app sums of
    /// per-type maxima, with no cross-app normalisation).
    #[test]
    fn scores_are_per_app_local((ipc, adds) in workload_strategy()) {
        prop_assume!(ipc.len() >= 2);
        let p = params(1_800);
        let full = segment_tree_scores(&ipc, &adds, p);
        let victim_uid = *ipc.keys().next().expect("non-empty");
        let mut reduced = ipc.clone();
        reduced.remove(&victim_uid);
        let partial = segment_tree_scores(&reduced, &adds, p);
        for s in &partial.scores {
            let in_full = full
                .scores
                .iter()
                .find(|f| f.uid == s.uid)
                .map(|f| f.score)
                .expect("app present in both runs");
            prop_assert_eq!(s.score, in_full);
        }
    }

    /// Splitting one IPC type's calls into per-path buckets can only
    /// increase an app's total score (each bucket's max sums; a single
    /// bucket's max is bounded by the sum of split maxima) — why §VI's
    /// path classification never hurts.
    #[test]
    fn classification_never_lowers_scores(
        calls in proptest::collection::vec((0u64..2_000_000, 0u8..4), 1..120),
        adds in proptest::collection::vec(0u64..2_000_000, 1..120),
    ) {
        let p = params(1_800);
        let uid = Uid::new(10_061);
        let mut merged: IpcByUid = BTreeMap::new();
        let mut split: IpcByUid = BTreeMap::new();
        let mut all: Vec<SimTime> = Vec::new();
        for (at, path) in &calls {
            let t = SimTime::from_micros(*at);
            all.push(t);
            split
                .entry(uid)
                .or_default()
                .entry(format!("I.m#{path}"))
                .or_default()
                .push(t);
        }
        all.sort_unstable();
        for series in split.values_mut().flat_map(|m| m.values_mut()) {
            series.sort_unstable();
        }
        merged.entry(uid).or_default().insert("I.m".to_owned(), all);
        let mut adds: Vec<SimTime> = adds.into_iter().map(SimTime::from_micros).collect();
        adds.sort_unstable();
        let merged_score = segment_tree_scores(&merged, &adds, p).scores[0].score;
        let split_score = segment_tree_scores(&split, &adds, p).scores[0].score;
        prop_assert!(
            split_score >= merged_score,
            "split {split_score} < merged {merged_score}"
        );
    }
}
