//! Host-speed normalisation of wall-clock times.
//!
//! The benchmark runs on shared cores whose speed moves by up to 40 %
//! within seconds and by 25–35 % between runs an hour apart, for every
//! workload at once. To keep that drift out of the reported times, each
//! timed operation is bracketed by measurements of a fixed reference
//! kernel — the benchmark's own code, never the program's — and the
//! operation's wall time is scaled by `REFERENCE_NS / kernel`, where
//! `kernel` is the mean of the measurements just before and just after
//! it. A reported time is therefore the time the operation would take
//! on the reference host, on which one measurement reads
//! [`REFERENCE_NS`]. A change to the program moves it in full; a change
//! of host speed mostly cancels out. The raw wall times are kept in the
//! details line.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::trace::Samples;

/// One measurement on the reference host, ns: the median reading on the
/// 2-vCPU Intel Xeon host the bounds were set on.
pub const REFERENCE_NS: f64 = 1.7e6;

/// Kernel runs per measurement; a measurement is the fastest of them,
/// so a run that an interrupt or a new thread's first allocations slow
/// down does not count.
const RUNS: usize = 5;

/// The reference work: hashing, ordered maps, sorting, small allocations
/// and string formatting — the mix the workloads spend their time on.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..2 {
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..4000u32 {
            let key = next() % 1024;
            buckets.entry(key).or_default().push(i);
            *ordered.entry(next() % 4096).or_insert(0) += key;
        }
        let mut sums: Vec<u64> = buckets
            .values()
            .map(|v| v.iter().map(|&e| u64::from(e)).sum())
            .collect();
        sums.sort_unstable();
        acc = acc
            .wrapping_add(sums[sums.len() / 2])
            .wrapping_add(ordered.range(100..2000).map(|(_, v)| *v).sum::<u64>());
        let text: String = (0..200).map(|i| format!("{i:x}")).collect();
        acc = acc.wrapping_add(text.len() as u64);
    }
    acc
}

/// Measures the host's speed around timed operations.
#[derive(Debug)]
pub struct Calibrator {
    /// Kernel copies run at once: the number of threads the timed
    /// operations use.
    threads: usize,
    /// The latest kernel time, ns.
    last_ns: f64,
    /// Every kernel time, ns.
    kernel_ns: Samples,
}

impl Calibrator {
    /// A calibrator for operations on `threads` threads.
    pub fn new(threads: usize) -> Self {
        let mut calibrator = Self {
            threads: threads.max(1),
            last_ns: 0.0,
            kernel_ns: Samples::default(),
        };
        calibrator.last_ns = calibrator.measure();
        calibrator
    }

    /// One measurement: the kernel runs [`RUNS`] times on every thread at
    /// once; the fastest run's mean time over the threads.
    fn measure(&mut self) -> f64 {
        let time_one = |seed: u64| {
            let started = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(seed)));
            started.elapsed().as_nanos() as f64
        };
        let threads = self.threads as u64;
        let run = || {
            if threads == 1 {
                return time_one(1);
            }
            std::thread::scope(|s| {
                let handles: Vec<_> = (1..=threads)
                    .map(|seed| s.spawn(move || time_one(seed)))
                    .collect();
                let total: f64 = handles
                    .into_iter()
                    .map(|h| h.join().expect("kernel thread"))
                    .sum();
                total / threads as f64
            })
        };
        let ns = (0..RUNS).map(|_| run()).fold(f64::INFINITY, f64::min);
        self.kernel_ns.push(ns);
        ns
    }

    /// Measures the host again and returns the factor that scales the
    /// wall time of the operation since the previous measurement to the
    /// reference host.
    pub fn factor(&mut self) -> f64 {
        let before = self.last_ns;
        self.last_ns = self.measure();
        REFERENCE_NS / ((before + self.last_ns) / 2.0)
    }

    /// Measures the host once more, without closing an operation.
    pub fn sample(&mut self) {
        self.last_ns = self.measure();
    }

    /// Every kernel time in ms, for the details line.
    pub fn kernel_ms(&self) -> Samples {
        self.kernel_ns.map(|ns| ns / 1e6)
    }
}

/// Runs the workload's program-side set-up `reps` times; returns each
/// duration in seconds, raw and normalised. The reported `setup_s` is
/// the median of the normalised ones.
pub fn time_setups(
    calibrator: &mut Calibrator,
    reps: usize,
    mut setup: impl FnMut(),
) -> (Samples, Samples) {
    let (mut raw, mut normalised) = (Samples::default(), Samples::default());
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        setup();
        let seconds = started.elapsed().as_secs_f64();
        raw.push(seconds);
        normalised.push(seconds * calibrator.factor());
    }
    (raw, normalised)
}
