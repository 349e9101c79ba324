//! Wall-clock samples and in-memory span tracing.
//!
//! [`Samples`] keeps every measurement of one metric so a run can report
//! its median together with its spread. [`Trace`] records spans opened
//! and closed by the benchmark around calls into the program's public
//! API; a span's *self time* is its duration minus the part covered by
//! the spans nested inside it.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// Every measurement of one quantity within a run.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn map(&self, f: impl Fn(f64) -> f64) -> Samples {
        Samples(self.0.iter().map(|v| f(*v)).collect())
    }

    pub fn count_above(&self, threshold: f64) -> usize {
        self.0.iter().filter(|v| **v > threshold).count()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Linear-interpolated quantile (`q` in 0..=1), the same rule as
    /// numpy's default; 0.0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// min, quartiles, median, max and sample count, for the details line.
    pub fn summary(&self) -> Value {
        let s = self.sorted();
        obj(vec![
            ("n", Value::UInt(s.len() as u64)),
            ("min", num(s.first().copied().unwrap_or(0.0))),
            ("q1", num(quantile_sorted(&s, 0.25))),
            ("median", num(quantile_sorted(&s, 0.5))),
            ("q3", num(quantile_sorted(&s, 0.75))),
            ("max", num(s.last().copied().unwrap_or(0.0))),
        ])
    }
}

fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Each span's duration in ns, for quantiles.
    pub durations: Samples,
}

impl SpanStats {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// In-memory span recorder. Spans nest: `start` opens one, `end` closes
/// the innermost open span and charges its duration to the enclosing
/// span's child time.
#[derive(Debug, Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, SpanStats>,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
}

impl Trace {
    pub fn start(&mut self) -> Instant {
        self.open.push(0);
        Instant::now()
    }

    pub fn end(&mut self, name: &'static str, started: Instant) -> u64 {
        let ns = started.elapsed().as_nanos() as u64;
        let child = self.open.pop().expect("end matches a start");
        self.close(name, ns, child);
        ns
    }

    /// Records a span measured elsewhere (for example inside a store
    /// wrapper the program calls) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        self.close(name, ns, 0);
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = self.start();
        let out = f();
        self.end(name, started);
        out
    }

    fn close(&mut self, name: &'static str, ns: u64, child: u64) {
        if let Some(parent) = self.open.last_mut() {
            *parent += ns;
        }
        let stats = self.spans.entry(name).or_default();
        stats.count += 1;
        stats.total_ns += ns;
        stats.self_ns += ns.saturating_sub(child);
        stats.durations.push(ns as f64);
    }

    pub fn get(&self, name: &str) -> SpanStats {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// Sum of the self times of every recorded span.
    pub fn self_ns_total(&self) -> u64 {
        self.spans.values().map(|s| s.self_ns).sum()
    }

    /// Per-span summary for the details line.
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.spans
                .iter()
                .map(|(name, s)| {
                    (
                        (*name).to_owned(),
                        obj(vec![
                            ("count", Value::UInt(s.count)),
                            ("total_ms", num(s.total_ns as f64 / 1e6)),
                            ("self_ms", num(s.self_ns as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub fn num(value: f64) -> Value {
    Value::Float(if value.is_finite() { value } else { 0.0 })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU time of this process (all threads), seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
