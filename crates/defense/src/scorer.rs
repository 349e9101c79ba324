//! Phase 2: Algorithm 1 — the JGR scoring algorithm.
//!
//! For each app and each IPC type it invoked, every `(IPCTime, JGRTime)`
//! pair with `0 ≤ JGRTime − IPCTime ≤ window` votes for all delays in
//! `[JGRTime − IPCTime, JGRTime − IPCTime + Δ]`. The best-supported delay
//! bin is the type's count of suspicious calls (`ThisTypeMax`); an app's
//! `jgre_score` sums its types. A real attack stream concentrates its
//! votes at the interface's true `Delay`, while benign traffic spreads
//! thinly — which is why the score separates attackers from even very
//! chatty benign apps (Figures 8/9).

use std::collections::{BTreeMap, VecDeque};

use jgre_sim::{SimDuration, SimTime, Uid};
use serde::{Deserialize, Serialize};

/// Tuning of one scoring pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoreParams {
    /// The Δ uncertainty band (the paper's system-wide average is 1.8 ms;
    /// Figure 9 sweeps 79 µs / 1900 µs / 3583 µs).
    pub delta: SimDuration,
    /// Maximum believable IPC→JGR delay (the algorithm's `TimeLen`).
    pub window: SimDuration,
    /// Histogram bin width.
    pub bin: SimDuration,
}

impl Default for ScoreParams {
    fn default() -> Self {
        Self {
            delta: SimDuration::from_micros(1_800),
            window: SimDuration::from_millis(8),
            bin: SimDuration::from_micros(50),
        }
    }
}

/// One app's score.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UidScore {
    /// The app.
    pub uid: Uid,
    /// Its `jgre_score`: the summed per-type maxima — "the number of max
    /// suspicious IPC calls".
    pub score: u64,
    /// Per-IPC-type maxima, for diagnostics and the figures.
    pub per_type: Vec<(String, u64)>,
}

/// Result of one scoring pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoreReport {
    /// Scores, highest first.
    pub scores: Vec<UidScore>,
    /// `(IPCTime, JGRTime)` pairs examined — the work measure used by the
    /// response-delay model and the ablation bench.
    pub pairs_processed: u64,
    /// IPC records scanned.
    pub records_scanned: u64,
}

impl ScoreReport {
    /// The highest-scoring app, if any app had IPC traffic.
    pub fn top(&self) -> Option<&UidScore> {
        self.scores.first()
    }
}

/// Computes Algorithm 1 with the deployed histogram (the batch form the
/// on-device defender calls).
///
/// This is a thin wrapper over [`IncrementalScorer`]: the batch call seeds
/// every IPC call into the correlator, streams the JGR adds through it,
/// and snapshots the report. Batch and streaming verdicts are therefore
/// equal *by construction* — they execute the same vote arithmetic —
/// while [`naive_scores`] stays an independent flat-array implementation
/// for real differential power, and [`SegmentTree`](crate::SegmentTree)
/// remains as §V-D.2's structure for the ablation and as a second oracle.
/// The name predates the difference array and is kept, like the
/// serialized `ScoringKind::SegmentTree` label, so reports stay
/// byte-identical.
pub fn segment_tree_scores(
    ipc_by_uid: &BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>,
    jgr_adds: &[SimTime],
    params: ScoreParams,
) -> ScoreReport {
    let mut scorer = IncrementalScorer::new(params);
    for (&uid, types) in ipc_by_uid {
        scorer.track_app(uid);
        for (ipc_type, calls) in types {
            for &call in calls {
                scorer.push_ipc(uid, ipc_type, call);
            }
        }
    }
    for &add in jgr_adds {
        scorer.push_add(add);
    }
    scorer.report()
}

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

/// Live per-IPC-type correlation state: the delay histogram, the calls
/// still inside the pairing window, and the votes awaiting retraction.
#[derive(Debug, Clone)]
struct TypeState {
    /// The delay histogram as a difference array over `bins + 1` slots:
    /// a vote on `lo..=hi` adds at `lo` and subtracts just past `hi`, so
    /// each bin's count is the prefix sum up to it. A vote costs two
    /// writes whatever Δ is; [`Self::max`] pays one scan per report.
    diff: Vec<i64>,
    /// Calls not yet aged out of the window, oldest first. The front is
    /// popped the instant an add's window floor passes it — the moving
    /// lower bound of the batch pairing, made persistent.
    calls: VecDeque<SimTime>,
    /// Ring of pending vote retractions `(expires_at, lo, hi)`, expiry-
    /// ordered because votes are appended in add order. Only populated
    /// when a horizon is set.
    retractions: VecDeque<(SimTime, usize, usize)>,
}

impl TypeState {
    fn new(bins: usize) -> Self {
        Self {
            diff: vec![0; bins + 1],
            calls: VecDeque::new(),
            retractions: VecDeque::new(),
        }
    }

    /// Zeroes a slot for reuse by another `(uid, type)`, keeping its
    /// allocations.
    fn clear(&mut self) {
        self.diff.fill(0);
        self.calls.clear();
        self.retractions.clear();
    }

    /// Adds `value` to every bin in `lo..=hi`, clamped to the bin range
    /// exactly as [`SegmentTree::range_add`](crate::SegmentTree::range_add)
    /// clamps: a range starting past the last bin is dropped. A retraction
    /// replays its vote with `value = -1`.
    fn vote(diff: &mut [i64], lo: usize, hi: usize, value: i64) {
        let bins = diff.len() - 1;
        if lo >= bins {
            return;
        }
        diff[lo] += value;
        diff[hi.min(bins - 1) + 1] -= value;
    }

    /// The best-supported delay bin's count (`ThisTypeMax`), clamped at
    /// zero like the tree's global max.
    fn max(&self) -> u64 {
        let bins = self.diff.len() - 1;
        let mut count = 0i64;
        let mut best = 0i64;
        for &d in &self.diff[..bins] {
            count += d;
            best = best.max(count);
        }
        best as u64
    }
}

/// Algorithm 1 as an *incremental* sliding-window correlator.
///
/// The batch scorer clears and rebuilds the whole delay histogram on every
/// poll, so each poll costs O(pairs in window) even when only a handful of
/// events arrived since the last one. This form keeps the histogram alive
/// between events: an IPC call enters the per-type deque in O(1), a JGR
/// add votes with two difference-array writes per paired call (O(1)
/// whatever Δ is), and — when a [`horizon`](Self::with_horizon) is set —
/// a vote leaving the sliding window is undone with the mirrored writes
/// from the retraction ring. Scoring cost tracks the *event rate*, not the
/// window size; [`report`](Self::report) pays one prefix scan of the bins
/// per IPC type.
///
/// Per-type state lives in dense slots: a `(uid, type) → slot` index is
/// read only when a call arrives and when a report orders its rows, and
/// adds walk the live slots as a flat slice. [`reset`](Self::reset) keeps
/// the slots' allocations and zeroes each one when it is next handed out.
///
/// Feeding events out of time order is allowed but mirrors the batch
/// semantics: calls older than an already-processed add's window floor
/// have been evicted and will not vote retroactively.
///
/// # Example
///
/// ```
/// use jgre_defense::{IncrementalScorer, ScoreParams};
/// use jgre_sim::{SimTime, Uid};
///
/// let mut scorer = IncrementalScorer::new(ScoreParams::default());
/// let attacker = Uid::new(10_061);
/// for k in 0..10u64 {
///     scorer.push_ipc(attacker, "IClipboard.listen", SimTime::from_micros(1_000 + k * 2_000));
///     scorer.push_add(SimTime::from_micros(1_500 + k * 2_000));
/// }
/// let report = scorer.report();
/// assert_eq!(report.top().unwrap().uid, attacker);
/// assert_eq!(report.top().unwrap().score, 10);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalScorer {
    params: ScoreParams,
    bins: usize,
    delta_bins: usize,
    horizon: Option<SimDuration>,
    /// `(uid, type) → slot`; an app tracked with no calls yet maps to an
    /// empty inner map.
    index: BTreeMap<Uid, BTreeMap<String, usize>>,
    /// Per-type states; `slots[..live]` are in use, the rest are left
    /// over from before a reset and zeroed when handed out again.
    slots: Vec<TypeState>,
    live: usize,
    pairs_processed: u64,
    records_scanned: u64,
}

impl IncrementalScorer {
    /// Creates a correlator with no retraction horizon: votes accumulate
    /// forever, which is exactly the batch semantics (and what the batch
    /// wrapper uses).
    ///
    /// # Panics
    ///
    /// Panics when `params.bin` is zero.
    pub fn new(params: ScoreParams) -> Self {
        assert!(params.bin.as_micros() > 0, "bin width must be positive");
        let bins = (params.window.as_micros() / params.bin.as_micros()) as usize + 2;
        let delta_bins = (params.delta.as_micros() / params.bin.as_micros()) as usize;
        Self {
            params,
            bins,
            delta_bins,
            horizon: None,
            index: BTreeMap::new(),
            slots: Vec::new(),
            live: 0,
            pairs_processed: 0,
            records_scanned: 0,
        }
    }

    /// Creates a correlator whose votes expire `horizon` after the add
    /// that cast them: the histogram continuously reflects only the last
    /// `horizon` of adds, so a long-running service never has to reset to
    /// forget stale traffic.
    pub fn with_horizon(params: ScoreParams, horizon: SimDuration) -> Self {
        let mut scorer = Self::new(params);
        scorer.horizon = Some(horizon);
        scorer
    }

    /// The scoring parameters.
    pub fn params(&self) -> ScoreParams {
        self.params
    }

    /// Registers an app so it appears in reports (with a zero score)
    /// even before any of its calls are recorded. `push_ipc` does this
    /// implicitly; the batch wrapper uses it for apps whose log slice
    /// happens to hold no records.
    pub fn track_app(&mut self, uid: Uid) {
        self.index.entry(uid).or_default();
    }

    /// Records one Binder-log record: `uid` invoked `ipc_type` at `at`.
    pub fn push_ipc(&mut self, uid: Uid, ipc_type: &str, at: SimTime) {
        self.records_scanned += 1;
        let types = self.index.entry(uid).or_default();
        let slot = match types.get(ipc_type) {
            Some(&slot) => slot,
            None => {
                let slot = self.live;
                match self.slots.get_mut(slot) {
                    Some(reused) => reused.clear(),
                    None => self.slots.push(TypeState::new(self.bins)),
                }
                self.live += 1;
                types.insert(ipc_type.to_owned(), slot);
                slot
            }
        };
        self.slots[slot].calls.push_back(at);
    }

    /// Records one JGR add at `add`: every live call within the window
    /// votes for its delay band, and (with a horizon) expired votes are
    /// retracted first.
    pub fn push_add(&mut self, add: SimTime) {
        self.retract_until(add);
        let bin_us = self.params.bin.as_micros();
        let floor = add
            .as_micros()
            .saturating_sub(self.params.window.as_micros());
        let mut pairs = 0u64;
        for state in &mut self.slots[..self.live] {
            while state.calls.front().is_some_and(|c| c.as_micros() < floor) {
                state.calls.pop_front();
            }
            for &call in &state.calls {
                if call > add {
                    break;
                }
                let lo = ((add - call).as_micros() / bin_us) as usize;
                let hi = lo + self.delta_bins;
                TypeState::vote(&mut state.diff, lo, hi, 1);
                if let Some(horizon) = self.horizon {
                    state.retractions.push_back((add + horizon, lo, hi));
                }
                pairs += 1;
            }
        }
        self.pairs_processed += pairs;
    }

    /// Advances the sliding window to `now`, retracting every vote whose
    /// add is older than the horizon. A no-op without a horizon.
    pub fn advance(&mut self, now: SimTime) {
        self.retract_until(now);
    }

    fn retract_until(&mut self, now: SimTime) {
        if self.horizon.is_none() {
            return;
        }
        for state in &mut self.slots[..self.live] {
            while let Some(&(expires, lo, hi)) = state.retractions.front() {
                if expires > now {
                    break;
                }
                TypeState::vote(&mut state.diff, lo, hi, -1);
                state.retractions.pop_front();
            }
        }
    }

    /// Votes currently live in the histograms (cast and not yet
    /// retracted). Without a horizon this only ever grows.
    pub fn live_votes(&self) -> u64 {
        match self.horizon {
            // With a horizon every live vote has a pending retraction.
            Some(_) => self.slots[..self.live]
                .iter()
                .map(|s| s.retractions.len() as u64)
                .sum(),
            None => self.pairs_processed,
        }
    }

    /// Snapshots the current scores without disturbing the live state.
    pub fn report(&self) -> ScoreReport {
        let mut scores = Vec::with_capacity(self.index.len());
        for (&uid, types) in &self.index {
            let mut per_type = Vec::new();
            let mut total = 0u64;
            for (ipc_type, &slot) in types {
                let this_type_max = self.slots[slot].max();
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
            pairs_processed: self.pairs_processed,
            records_scanned: self.records_scanned,
        }
    }

    /// Forgets every call, vote, and counter — the post-verdict window
    /// reset, equivalent to constructing afresh (allocations aside: the
    /// slots are kept and zeroed as they are reused).
    pub fn reset(&mut self) {
        self.index.clear();
        self.live = 0;
        self.pairs_processed = 0;
        self.records_scanned = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    type Workload = (BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>, Vec<SimTime>);

    /// An attacker calling every 2 ms with a constant 500 µs delay to the
    /// JGR add, against a benign app calling at unrelated times.
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
            // milliseconds apart (real apps think between calls; the
            // paper's chatty benign app pauses 0–100 ms).
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
    fn attacker_outscores_benign() {
        let (ipc, adds) = workload();
        let report = segment_tree_scores(&ipc, &adds, ScoreParams::default());
        assert_eq!(report.scores.len(), 2);
        let top = report.top().unwrap();
        assert_eq!(top.uid, Uid::new(10_061));
        // Every one of the 200 attack pairs votes for the 500 µs bin.
        assert_eq!(top.score, 200);
        let benign = &report.scores[1];
        assert!(
            benign.score < top.score / 2,
            "benign {} vs attacker {}",
            benign.score,
            top.score
        );
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

    #[test]
    fn empty_inputs_are_quiet() {
        let report = segment_tree_scores(&BTreeMap::new(), &[], ScoreParams::default());
        assert!(report.scores.is_empty());
        assert_eq!(report.pairs_processed, 0);
    }

    #[test]
    fn wider_delta_never_lowers_a_score() {
        let (ipc, adds) = workload();
        let narrow = segment_tree_scores(
            &ipc,
            &adds,
            ScoreParams {
                delta: SimDuration::from_micros(79),
                ..ScoreParams::default()
            },
        );
        let wide = segment_tree_scores(
            &ipc,
            &adds,
            ScoreParams {
                delta: SimDuration::from_micros(3_583),
                ..ScoreParams::default()
            },
        );
        for (n, w) in narrow.scores.iter().zip(&wide.scores) {
            // Same uid ordering is not guaranteed; compare by uid.
            let w_score = wide
                .scores
                .iter()
                .find(|s| s.uid == n.uid)
                .map(|s| s.score)
                .unwrap_or(0);
            assert!(
                w_score >= n.score,
                "uid {} narrowed {} -> {}",
                n.uid,
                n.score,
                w.score
            );
        }
    }

    /// One stream event: its time, and `Some((uid, type))` for a call or
    /// `None` for an add.
    type StreamItem = (SimTime, Option<(Uid, String)>);

    /// The workload's calls and adds merged into stream order: time
    /// ascending, call before add on ties (the device's Binder-then-IRT
    /// ordering).
    fn stream_order(workload: &Workload) -> Vec<StreamItem> {
        let (ipc, adds) = workload;
        // Middle field is the tie-break tag: calls sort before adds.
        let mut events = Vec::new();
        for (&uid, types) in ipc {
            for (ty, calls) in types {
                for &c in calls {
                    events.push((c, 0, Some((uid, ty.clone()))));
                }
            }
        }
        for &a in adds {
            events.push((a, 1, None));
        }
        events.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
        events.into_iter().map(|(t, _, k)| (t, k)).collect()
    }

    #[test]
    fn incremental_matches_batch_on_interleaved_stream() {
        let workload = workload();
        for delta_us in [79u64, 1_900, 3_583] {
            let params = ScoreParams {
                delta: SimDuration::from_micros(delta_us),
                ..ScoreParams::default()
            };
            let mut scorer = IncrementalScorer::new(params);
            for (at, kind) in stream_order(&workload) {
                match kind {
                    Some((uid, ty)) => scorer.push_ipc(uid, &ty, at),
                    None => scorer.push_add(at),
                }
            }
            let streamed = scorer.report();
            let batch = segment_tree_scores(&workload.0, &workload.1, params);
            assert_eq!(streamed.scores, batch.scores, "delta={delta_us}");
            assert_eq!(streamed.pairs_processed, batch.pairs_processed);
            assert_eq!(streamed.records_scanned, batch.records_scanned);
        }
    }

    #[test]
    fn horizon_retraction_matches_batch_over_recent_adds() {
        let workload = workload();
        let params = ScoreParams::default();
        let horizon = SimDuration::from_millis(100);
        let mut scorer = IncrementalScorer::with_horizon(params, horizon);
        for (at, kind) in stream_order(&workload) {
            match kind {
                Some((uid, ty)) => scorer.push_ipc(uid, &ty, at),
                None => scorer.push_add(at),
            }
        }
        // Advance the window to the final add (benign calls trail far
        // behind it and must not expire the attack's votes).
        let last_add = *workload.1.iter().max().expect("workload has adds");
        scorer.advance(last_add);
        let streamed = scorer.report();
        // Only adds younger than the horizon still hold votes; the batch
        // over exactly those adds must agree on every score.
        let floor = last_add.as_micros().saturating_sub(horizon.as_micros());
        let recent: Vec<SimTime> = workload
            .1
            .iter()
            .copied()
            .filter(|a| a.as_micros() > floor)
            .collect();
        assert!(
            !recent.is_empty() && recent.len() < workload.1.len(),
            "horizon must split the adds for the test to bite"
        );
        let batch = segment_tree_scores(&workload.0, &recent, params);
        assert_eq!(streamed.scores, batch.scores);
        assert_eq!(
            scorer.live_votes(),
            batch.pairs_processed,
            "live votes equal the batch pair count over surviving adds"
        );
    }

    #[test]
    fn advance_far_past_everything_retracts_all_votes() {
        let (ipc, adds) = workload();
        let mut scorer =
            IncrementalScorer::with_horizon(ScoreParams::default(), SimDuration::from_millis(50));
        for (&uid, types) in &ipc {
            for (ty, calls) in types {
                for &c in calls {
                    scorer.push_ipc(uid, ty, c);
                }
            }
        }
        for &a in &adds {
            scorer.push_add(a);
        }
        scorer.advance(SimTime::from_micros(u64::MAX / 2));
        let report = scorer.report();
        assert_eq!(scorer.live_votes(), 0);
        assert!(
            report.scores.iter().all(|s| s.score == 0),
            "all votes retracted: {:?}",
            report.scores
        );
        assert!(report.pairs_processed > 0, "pairs counter is cumulative");
    }

    #[test]
    fn reset_forgets_everything() {
        let (ipc, adds) = workload();
        let mut scorer = IncrementalScorer::new(ScoreParams::default());
        for (&uid, types) in &ipc {
            for (ty, calls) in types {
                for &c in calls {
                    scorer.push_ipc(uid, ty, c);
                }
            }
        }
        for &a in &adds {
            scorer.push_add(a);
        }
        assert!(!scorer.report().scores.is_empty());
        scorer.reset();
        let report = scorer.report();
        assert!(report.scores.is_empty());
        assert_eq!(report.pairs_processed, 0);
        assert_eq!(report.records_scanned, 0);
    }

    #[test]
    fn pairs_limited_to_window() {
        let mut ipc: BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>> = BTreeMap::new();
        ipc.entry(Uid::new(10_000))
            .or_default()
            .entry("I.m".into())
            .or_default()
            .extend([t(1_000), t(100_000)]);
        let adds = vec![t(101_000)];
        let report = segment_tree_scores(&ipc, &adds, ScoreParams::default());
        // Only the 100 ms call is within the 8 ms window of the add.
        assert_eq!(report.pairs_processed, 1);
    }
}
