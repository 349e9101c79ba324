//! A lazily-propagated segment tree over delay bins: range add, global /
//! range max. This is the data structure §V-D.2 adopts to keep Algorithm
//! 1's interval bookkeeping cheap. The deployed scorer uses a difference
//! array instead (see [`IncrementalScorer`](jgre_defense::IncrementalScorer));
//! the tree stays as the ablation bench's §V-D.2 arm and as a test oracle.

/// Range-add / range-max segment tree over `n` fixed bins.
///
/// # Example
///
/// ```
/// use jgre_oracles::SegmentTree;
///
/// let mut tree = SegmentTree::new(10);
/// tree.range_add(2, 5, 1);
/// tree.range_add(4, 8, 2);
/// assert_eq!(tree.global_max(), 3); // bins 4..=5 hold 1+2
/// assert_eq!(tree.range_max(6, 9), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentTree {
    n: usize,
    max: Vec<i64>,
    lazy: Vec<i64>,
}

impl SegmentTree {
    /// Creates a tree over `n` bins, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "segment tree needs at least one bin");
        Self {
            n,
            max: vec![0; 4 * n],
            lazy: vec![0; 4 * n],
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tree has no bins (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `value` to every bin in `lo..=hi` (clamped to the bin range).
    ///
    /// `value` may be negative: the incremental correlator retracts an
    /// earlier vote by replaying the identical range with the sign
    /// flipped. As long as every negative add mirrors a previous positive
    /// one, no bin ever dips below zero.
    pub fn range_add(&mut self, lo: usize, hi: usize, value: i64) {
        if lo > hi || lo >= self.n {
            return;
        }
        let hi = hi.min(self.n - 1);
        self.add_rec(1, 0, self.n - 1, lo, hi, value);
    }

    fn add_rec(&mut self, node: usize, nl: usize, nr: usize, lo: usize, hi: usize, value: i64) {
        if lo <= nl && nr <= hi {
            self.max[node] += value;
            self.lazy[node] += value;
            return;
        }
        let mid = (nl + nr) / 2;
        if lo <= mid {
            self.add_rec(node * 2, nl, mid, lo, hi.min(mid), value);
        }
        if hi > mid {
            self.add_rec(node * 2 + 1, mid + 1, nr, lo.max(mid + 1), hi, value);
        }
        self.max[node] = self.lazy[node] + self.max[node * 2].max(self.max[node * 2 + 1]);
    }

    /// Maximum over all bins (clamped at zero).
    pub fn global_max(&self) -> u64 {
        self.max[1].max(0) as u64
    }

    /// Maximum over `lo..=hi` (clamped to the bin range and at zero).
    pub fn range_max(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi || lo >= self.n {
            return 0;
        }
        let hi = hi.min(self.n - 1);
        self.max_rec(1, 0, self.n - 1, lo, hi).max(0) as u64
    }

    fn max_rec(&self, node: usize, nl: usize, nr: usize, lo: usize, hi: usize) -> i64 {
        if lo <= nl && nr <= hi {
            return self.max[node];
        }
        let mid = (nl + nr) / 2;
        let mut best = i64::MIN;
        if lo <= mid {
            best = best.max(self.max_rec(node * 2, nl, mid, lo, hi.min(mid)));
        }
        if hi > mid {
            best = best.max(self.max_rec(node * 2 + 1, mid + 1, nr, lo.max(mid + 1), hi));
        }
        best + self.lazy[node]
    }

    /// Resets every bin to zero (cheaper than reallocating between IPC
    /// types).
    pub fn clear(&mut self) {
        self.max.fill(0);
        self.lazy.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bin() {
        let mut t = SegmentTree::new(1);
        t.range_add(0, 0, 5);
        assert_eq!(t.global_max(), 5);
        assert_eq!(t.range_max(0, 0), 5);
    }

    #[test]
    fn overlapping_ranges_accumulate() {
        let mut t = SegmentTree::new(100);
        t.range_add(0, 99, 1);
        t.range_add(50, 60, 2);
        t.range_add(55, 55, 4);
        assert_eq!(t.global_max(), 7);
        assert_eq!(t.range_max(0, 49), 1);
        assert_eq!(t.range_max(50, 54), 3);
        assert_eq!(t.range_max(55, 55), 7);
    }

    #[test]
    fn out_of_range_requests_clamp() {
        let mut t = SegmentTree::new(8);
        t.range_add(6, 100, 3);
        assert_eq!(t.range_max(7, 7), 3);
        t.range_add(100, 200, 9); // entirely out of range: ignored
        assert_eq!(t.global_max(), 3);
        assert_eq!(t.range_max(9, 12), 0);
    }

    #[test]
    fn negative_adds_retract_prior_votes() {
        let mut t = SegmentTree::new(32);
        t.range_add(4, 10, 1);
        t.range_add(8, 14, 1);
        assert_eq!(t.global_max(), 2);
        t.range_add(4, 10, -1);
        assert_eq!(t.global_max(), 1);
        assert_eq!(t.range_max(4, 7), 0);
        assert_eq!(t.range_max(8, 14), 1);
        t.range_add(8, 14, -1);
        assert_eq!(t.global_max(), 0);
    }

    #[test]
    fn interleaved_retractions_match_naive() {
        // Adds and their exact inverses, interleaved with fresh adds, must
        // track a plain array at every step.
        let n = 64;
        let mut tree = SegmentTree::new(n);
        let mut naive = vec![0i64; n];
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for step in 0..400 {
            let a = next() % n;
            let b = next() % n;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            tree.range_add(lo, hi, 1);
            for slot in &mut naive[lo..=hi] {
                *slot += 1;
            }
            pending.push((lo, hi));
            if step % 3 == 2 {
                let (lo, hi) = pending.remove(next() % pending.len());
                tree.range_add(lo, hi, -1);
                for slot in &mut naive[lo..=hi] {
                    *slot -= 1;
                }
            }
            assert_eq!(tree.global_max() as i64, *naive.iter().max().unwrap());
        }
    }

    #[test]
    fn clear_resets() {
        let mut t = SegmentTree::new(16);
        t.range_add(0, 15, 7);
        t.clear();
        assert_eq!(t.global_max(), 0);
    }

    #[test]
    fn matches_naive_model() {
        // Deterministic pseudo-random workload cross-checked against a
        // plain array.
        let n = 257;
        let mut tree = SegmentTree::new(n);
        let mut naive = vec![0u64; n];
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..500 {
            let a = next() % n;
            let b = next() % n;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let v = (next() % 5 + 1) as i64;
            tree.range_add(lo, hi, v);
            for slot in &mut naive[lo..=hi] {
                *slot += v as u64;
            }
            assert_eq!(tree.global_max(), *naive.iter().max().unwrap());
            let qa = next() % n;
            let qb = next() % n;
            let (ql, qh) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            assert_eq!(
                tree.range_max(ql, qh),
                *naive[ql..=qh].iter().max().unwrap()
            );
        }
    }
}
