//! Figure 10 — the defense's per-IPC recording overhead.

use std::fmt::Write as _;

use jgre_binder::{BinderDriver, Parcel};
use jgre_sim::{Pid, SimClock, TraceSink, Uid};
use serde::Serialize;

use crate::ExperimentScale;

/// One payload point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Fig10Row {
    /// Payload size in KiB.
    pub payload_kib: usize,
    /// Stock transaction latency, µs.
    pub stock_us: u64,
    /// Latency with defense recording, µs.
    pub defended_us: u64,
}

/// Figure 10: IPC latency vs payload, stock vs defended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig10 {
    /// The sweep (1 KiB increments, as in the paper's 500 rounds).
    pub rows: Vec<Fig10Row>,
}

impl Fig10 {
    /// Maximum added latency across the sweep, µs (paper: ≤1247 µs).
    pub fn max_added_us(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.defended_us - r.stock_us)
            .max()
            .unwrap_or(0)
    }

    /// Mean relative overhead (paper: ≈46.7 %).
    pub fn mean_overhead(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| (r.defended_us as f64 - r.stock_us as f64) / r.stock_us as f64)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 10 — IPC latency vs payload (stock / defended)\n");
        for r in self.rows.iter().step_by(50.max(self.rows.len() / 10)) {
            let _ = writeln!(
                out,
                "{:>4} KiB: {:>6}µs / {:>6}µs",
                r.payload_kib, r.stock_us, r.defended_us
            );
        }
        let _ = writeln!(
            out,
            "max added: {}µs (paper ≤1247µs); mean overhead: {:.1}% (paper ≈46.7%)",
            self.max_added_us(),
            self.mean_overhead() * 100.0
        );
        out
    }
}

/// Regenerates Figure 10: `rounds` byte-array deliveries, payload growing
/// by 1 KiB per round, measured against the driver with recording off and
/// on.
pub fn fig10(scale: ExperimentScale, rounds: usize) -> Fig10 {
    let _ = scale;
    let mut rows = Vec::new();
    let measure = |defense: bool, kib: usize| -> u64 {
        let clock = SimClock::new();
        let mut driver = BinderDriver::new(clock.clone(), TraceSink::disabled());
        driver.set_defense_recording(defense);
        let node = driver.create_node(Pid::new(412));
        let mut parcel = Parcel::new();
        parcel.write_blob(kib * 1024);
        let before = clock.now();
        driver
            .record_transaction(
                Pid::new(9000),
                Uid::new(10_000),
                node,
                "IEcho",
                "deliver",
                &parcel,
            )
            .expect("node is alive");
        (clock.now() - before).as_micros()
    };
    for round in 0..rounds {
        let kib = round + 1;
        rows.push(Fig10Row {
            payload_kib: kib,
            stock_us: measure(false, kib),
            defended_us: measure(true, kib),
        });
    }
    Fig10 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_paper_bounds() {
        let f = fig10(ExperimentScale::quick(), 500);
        assert_eq!(f.rows.len(), 500);
        assert!(f.max_added_us() <= 1_247, "max added {}", f.max_added_us());
        let pct = f.mean_overhead() * 100.0;
        assert!((40.0..52.0).contains(&pct), "overhead {pct:.1}%");
        // Latency grows with payload in both series.
        assert!(f.rows.last().unwrap().stock_us > f.rows.first().unwrap().stock_us);
        assert!(f.render().contains("46.7%"));
    }
}
