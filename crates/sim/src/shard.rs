//! The deterministic shard-and-merge primitive behind every thread
//! fan-out in the workspace: the fleet's device campaign and the
//! fuzzer's per-service shards.

use std::iter::StepBy;
use std::ops::Range;

/// Deals the indices `0..n` round-robin to `W = threads.clamp(1,
/// max(n, 1))` workers — worker `t` runs `worker` once on `t, t + W,
/// t + 2W, …` — and returns their results in worker order. With
/// `W == 1` the worker runs inline and nothing is spawned.
///
/// The dealing depends only on `(n, W)`: when each index's work depends
/// only on the index and the caller merges the partials
/// order-independently (or restores index order), the result is
/// identical for every `threads`. Per-worker state (an arena, an
/// `Rc`-based device) belongs inside the closure, so it never crosses a
/// thread. A worker's panic propagates to the caller.
///
/// ```
/// let partials = jgre_sim::shard(10, 3, |ids| ids.collect::<Vec<_>>());
/// assert_eq!(partials, vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);
/// ```
pub fn shard<A, F>(n: usize, threads: usize, worker: F) -> Vec<A>
where
    A: Send,
    F: Fn(StepBy<Range<usize>>) -> A + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return vec![worker((0..n).step_by(1))];
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| scope.spawn(move || worker((t..n).step_by(workers))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}
