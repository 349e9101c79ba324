//! Deterministic fuzz report: findings, coverage, rejection accounting.
//!
//! Every field is derived from `(seed, iters, attack surface, scale)`
//! alone — no wall-clock, no thread count — so two runs with the same
//! configuration serialize to identical bytes regardless of `--threads`.
//! The CI smoke job byte-diffs exactly this JSON.

use std::collections::BTreeMap;

use serde::Serialize;

/// How a leaking interface manifested dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum LeakSignature {
    /// Every well-formed call grew the host's JGR table and survived GC:
    /// unbounded per-call retention (Table I / Table II rows).
    RetainPerCall,
    /// The per-process limit held for honest callers but a spoofed
    /// `"android"` package bypassed it (Table III row 1,
    /// `enqueueToast`'s Code-Snippet 3 flaw).
    SpoofBypass,
}

impl LeakSignature {
    /// Stable label used in JSON and dedup keys.
    pub fn label(self) -> &'static str {
        match self {
            LeakSignature::RetainPerCall => "retain-per-call",
            LeakSignature::SpoofBypass => "spoof-bypass",
        }
    }
}

/// The shortest reproducing input a finding was minimized to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MinimizedRepro {
    /// Raw transaction code to send.
    pub code: u32,
    /// Parcel recipe as stable op labels (see `ParcelOp::label`).
    pub ops: Vec<String>,
    /// Fewest back-to-back calls whose GC-surviving growth still exceeds
    /// the largest sound per-process cap — the unboundedness proof.
    pub calls: u32,
}

/// One GC-verified leaking interface, deduplicated by
/// `(service, method, signature)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Registered service name.
    pub service: String,
    /// Leaking method.
    pub method: String,
    /// Host kind: `"system"` for `system_server`, `"app"` for services
    /// exported by prebuilt apps.
    pub host: String,
    /// How the leak manifested.
    pub signature: LeakSignature,
    /// GC-surviving JGR growth the discovery probe observed.
    pub growth: usize,
    /// Calls the discovery probe made.
    pub probe_calls: u32,
    /// Delta-debugged shortest reproducer.
    pub minimized: MinimizedRepro,
    /// Global exec index (thread-count independent) at which the
    /// discovery probe completed.
    pub discovered_at_exec: u64,
}

/// Edge-coverage summary over `(service, method, outcome)` triples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CoverageSummary {
    /// Distinct `(service, method, outcome)` edges observed.
    pub edges: usize,
    /// `(service, method)` pairs whose handler ran to completion.
    pub completed_pairs: usize,
    /// `(service, method)` pairs in the fuzzed surface.
    pub pairs: usize,
    /// Execs per terminal outcome label, across the whole run.
    pub outcomes: BTreeMap<String, u64>,
}

impl CoverageSummary {
    /// Completed-pair coverage as a percentage of the fuzzed surface.
    pub fn completed_pct(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            100.0 * self.completed_pairs as f64 / self.pairs as f64
        }
    }
}

/// The full deterministic fuzz report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FuzzReport {
    /// Campaign seed.
    pub seed: u64,
    /// Requested exec budget.
    pub iters: u64,
    /// Attack-surface selector (`all`, `sdk`, `hidden`).
    pub attack_surface: String,
    /// Services in the fuzzed surface.
    pub services: usize,
    /// Methods in the fuzzed surface.
    pub methods: usize,
    /// Budgeted fuzz execs actually spent (probes + mutations).
    pub execs: u64,
    /// Extra replay execs spent minimizing findings (not budgeted).
    pub minimize_execs: u64,
    /// Coverage feedback the corpus was steered by.
    pub coverage: CoverageSummary,
    /// Per-reason fail-stop rejection counters, summed over every device
    /// the campaign booted (the driver ledger's keys).
    pub rejects: BTreeMap<String, u64>,
    /// Execs whose handler aborted the host (JGR exhaustion findings of
    /// the exhaustion kind — never a simulator panic).
    pub host_aborts: u64,
    /// Defender detections observed across the campaign.
    pub detections: u64,
    /// Global exec index of the first leak discovery, if any.
    pub execs_to_first_leak: Option<u64>,
    /// GC-verified leaking interfaces, sorted by (service, method,
    /// signature).
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Serializes the deterministic JSON the CI smoke job byte-diffs.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fuzz report serialises")
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: seed {}  iters {}  surface {}  — {} services, {} methods",
            self.seed, self.iters, self.attack_surface, self.services, self.methods
        );
        let _ = writeln!(
            out,
            "execs {}  (+{} minimizing)  edges {}  completed {}/{} pairs ({:.1}%)",
            self.execs,
            self.minimize_execs,
            self.coverage.edges,
            self.coverage.completed_pairs,
            self.coverage.pairs,
            self.coverage.completed_pct()
        );
        let _ = writeln!(
            out,
            "host aborts {}  detections {}  first leak at exec {}",
            self.host_aborts,
            self.detections,
            self.execs_to_first_leak
                .map_or_else(|| "-".to_owned(), |e| e.to_string())
        );
        if !self.coverage.outcomes.is_empty() {
            let _ = writeln!(out, "outcomes:");
            for (label, count) in &self.coverage.outcomes {
                let _ = writeln!(out, "  {count:>9}  {label}");
            }
        }
        if !self.rejects.is_empty() {
            let _ = writeln!(out, "rejections:");
            for (reason, count) in &self.rejects {
                let _ = writeln!(out, "  {count:>9}  {reason}");
            }
        }
        let _ = writeln!(out, "findings: {}", self.findings.len());
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  {:<44} {:<15} growth {:>4}  min {{code {}, [{}], {} calls}}",
                format!("{}.{}", f.service, f.method),
                f.signature.label(),
                f.growth,
                f.minimized.code,
                f.minimized.ops.join(", "),
                f.minimized.calls
            );
        }
        out
    }
}
