//! Figure 8: the defender's suspicious-IPC counts — malicious app vs the
//! top benign app — across the known vulnerabilities, at paper scale.

use criterion::{criterion_group, Criterion};
use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};
use jgre_defense::{segment_tree_scores, ScoreParams};
use jgre_oracles::naive_scores;
use jgre_sim::{SimTime, Uid};

fn generate_artifacts() {
    if !artifacts_enabled() {
        return;
    }
    // 54 vulnerabilities × (1 attacker + 10 benign apps), Δ = 1.8 ms.
    let fig8 = experiments::fig8(ExperimentScale::paper(), 10, usize::MAX);
    write_artifact("fig8_detection", &fig8, &fig8.render());
    assert!(
        fig8.separation_rate() >= 0.99,
        "attacker must outscore every benign app: {:.2}",
        fig8.separation_rate()
    );
}

type IpcByUid = std::collections::BTreeMap<Uid, std::collections::BTreeMap<String, Vec<SimTime>>>;

/// Synthetic scoring workload: one attacker stream + `n_benign` sparse
/// benign streams over `adds` JGR events.
fn scoring_fixture(adds: usize, n_benign: usize) -> (IpcByUid, Vec<SimTime>) {
    let mut ipc: IpcByUid = Default::default();
    let mut jgr = Vec::with_capacity(adds);
    for k in 0..adds as u64 {
        let call = 10_000 + k * 2_000;
        ipc.entry(Uid::new(10_061))
            .or_default()
            .entry("IClipboard.addPrimaryClipChangedListener".into())
            .or_default()
            .push(SimTime::from_micros(call));
        jgr.push(SimTime::from_micros(call + 700));
    }
    for b in 0..n_benign as u64 {
        for k in 0..(adds as u64 / 4) {
            let call = 10_311 + b * 97 + k * 8_111 + (k * k * 31) % 1_999;
            ipc.entry(Uid::new(10_100 + b as u32))
                .or_default()
                .entry(format!("IAudioService.method{b}"))
                .or_default()
                .push(SimTime::from_micros(call));
        }
    }
    (ipc, jgr)
}

fn bench_scoring(c: &mut Criterion) {
    let (ipc, jgr) = scoring_fixture(8_000, 10);
    let params = ScoreParams::default();
    let mut group = c.benchmark_group("algorithm1");
    group.sample_size(20);
    group.bench_function("segment_tree_8000_adds", |b| {
        b.iter(|| segment_tree_scores(std::hint::black_box(&ipc), &jgr, params));
    });
    group.bench_function("naive_8000_adds", |b| {
        b.iter(|| naive_scores(std::hint::black_box(&ipc), &jgr, params));
    });
    group.finish();
}

criterion_group!(benches, bench_scoring);

fn main() {
    generate_artifacts();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
