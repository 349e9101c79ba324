//! The shard primitive's contract, pinned once for every fan-out built
//! on it (lint waves, fleet campaigns, fuzz shards): each index is
//! visited exactly once, partials come back in worker order, and a fold
//! over them is identical for every thread count.

use jgre_sim::shard;
use proptest::prelude::*;

/// Each worker's (thread id, visited indices).
fn dealt(n: usize, threads: usize) -> Vec<(std::thread::ThreadId, Vec<usize>)> {
    shard(n, threads, |ids| {
        (std::thread::current().id(), ids.collect())
    })
}

proptest! {
    #[test]
    fn every_index_once_in_worker_order(n in 0usize..64, pick in 0usize..4) {
        let threads = [1, 2, 7, n + 3][pick];
        let workers = threads.clamp(1, n.max(1));
        let partials = dealt(n, threads);
        prop_assert_eq!(partials.len(), workers);
        for (t, (_, ids)) in partials.iter().enumerate() {
            let expected: Vec<usize> = (t..n).step_by(workers).collect();
            prop_assert_eq!(ids, &expected, "worker {} of {}", t, workers);
        }
        let mut all: Vec<usize> = partials.into_iter().flat_map(|(_, ids)| ids).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn folded_result_is_thread_count_invariant(n in 0usize..64) {
        let fold = |threads: usize| {
            let mut squares: Vec<(usize, usize)> =
                shard(n, threads, |ids| ids.map(|i| (i, i * i)).collect::<Vec<_>>())
                    .into_iter()
                    .flatten()
                    .collect();
            squares.sort_unstable();
            squares
        };
        let serial = fold(1);
        for threads in [2, 7, n + 3] {
            prop_assert_eq!(fold(threads), serial.clone(), "{} threads", threads);
        }
    }
}

#[test]
fn one_worker_runs_inline() {
    let here = std::thread::current().id();
    for (n, threads) in [(0, 8), (1, 8), (40, 1), (40, 0)] {
        let partials = dealt(n, threads);
        assert_eq!(partials.len(), 1, "n={n} threads={threads}");
        assert_eq!(partials[0].0, here, "n={n} threads={threads} spawned");
    }
    assert_ne!(dealt(2, 2)[0].0, here, "two workers run on spawned threads");
}

#[test]
fn degenerate_inputs() {
    assert_eq!(shard(0, 8, |ids| ids.count()), vec![0]);
    assert_eq!(
        shard(1, 8, |ids| ids.map(|i| (i, i + 1)).collect::<Vec<_>>()),
        vec![vec![(0, 1)]]
    );
}
