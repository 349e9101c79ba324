//! Transaction latency model, calibrated against the paper's Figure 10.
//!
//! Figure 10 plots IPC execution time against payload size (0–500 KB) for
//! stock Android and for the extended driver that records IPC calls. The
//! paper reports the defense adds at most 1.247 ms per call, an overhead of
//! about 46.7 %. A linear model reproduces both series' shapes:
//!
//! * stock: `base + per_kb × KB`
//! * defense: `(base + per_kb × KB) × (1 + overhead)`

use jgre_sim::SimDuration;
use serde::Serialize;

/// Linear cost model for one Binder transaction.
///
/// # Example
///
/// ```
/// use jgre_binder::LatencyModel;
///
/// let m = LatencyModel::default();
/// let stock = m.transaction_cost(500 * 1024, false);
/// let defended = m.transaction_cost(500 * 1024, true);
/// assert!(defended > stock);
/// // Overhead stays in the paper's ballpark (~46.7%).
/// let ratio = defended.as_micros() as f64 / stock.as_micros() as f64;
/// assert!((1.4..1.55).contains(&ratio));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencyModel {
    /// Fixed cost per transaction, microseconds.
    pub base_us: u64,
    /// Marginal cost per KiB of payload, microseconds.
    pub per_kib_us: u64,
    /// Multiplicative overhead of defense recording (0.467 = +46.7 %).
    pub defense_overhead: f64,
}

impl Default for LatencyModel {
    /// Calibration: at 500 KB the stock curve sits near 2.7 ms so that the
    /// defended curve tops out around 3.9–4.0 ms, matching Figure 10's
    /// axes (max delay with defense ≈ stock + 1.247 ms).
    fn default() -> Self {
        Self {
            base_us: 100,
            per_kib_us: 5,
            defense_overhead: 0.467,
        }
    }
}

impl LatencyModel {
    /// Cost of a transaction carrying `payload_bytes`, with or without the
    /// defense's recording overhead.
    pub fn transaction_cost(&self, payload_bytes: usize, defense: bool) -> SimDuration {
        let kib = payload_bytes as u64 / 1024;
        let stock = self.base_us + self.per_kib_us * kib;
        let total = if defense {
            (stock as f64 * (1.0 + self.defense_overhead)).round() as u64
        } else {
            stock
        };
        SimDuration::from_micros(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload_costs_base() {
        let m = LatencyModel::default();
        assert_eq!(m.transaction_cost(0, false).as_micros(), 100);
    }

    #[test]
    fn cost_grows_linearly_with_payload() {
        let m = LatencyModel::default();
        let c100 = m.transaction_cost(100 * 1024, false).as_micros();
        let c200 = m.transaction_cost(200 * 1024, false).as_micros();
        let c300 = m.transaction_cost(300 * 1024, false).as_micros();
        assert_eq!(c200 - c100, c300 - c200);
    }

    #[test]
    fn defense_overhead_bounded_like_fig10() {
        let m = LatencyModel::default();
        // Max added delay across the paper's sweep stays ≤ 1.247 ms.
        let mut max_added = 0u64;
        for kb in (0..=500).step_by(10) {
            let stock = m.transaction_cost(kb * 1024, false).as_micros();
            let defended = m.transaction_cost(kb * 1024, true).as_micros();
            max_added = max_added.max(defended - stock);
        }
        assert!(
            max_added <= 1_247,
            "added delay {max_added}µs exceeds paper bound"
        );
    }

    #[test]
    fn custom_model_respected() {
        let m = LatencyModel {
            base_us: 10,
            per_kib_us: 1,
            defense_overhead: 1.0,
        };
        assert_eq!(m.transaction_cost(2048, false).as_micros(), 12);
        assert_eq!(m.transaction_cost(2048, true).as_micros(), 24);
    }
}
