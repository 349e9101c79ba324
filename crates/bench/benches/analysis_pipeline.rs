//! T-ANALYSIS: regenerates the §IV headline numbers and Tables I/IV/V at
//! paper scale, and times the pipeline stages.

use criterion::{criterion_group, Criterion};
use jgre_analysis::{IpcMethodExtractor, JgrEntryExtractor, Pipeline};
use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};
use jgre_corpus::{spec::AospSpec, CodeModel};
use jgre_oracles::VulnerableIpcDetector;

fn generate_artifacts() {
    if !artifacts_enabled() {
        return;
    }
    let scale = ExperimentScale::paper();
    let headline = experiments::analysis_headline(scale);
    write_artifact("t_analysis_headline", &headline, &headline.render());
    let t1 = experiments::table1(scale);
    write_artifact("table1_unprotected", &t1, &t1.render());
    let t4 = experiments::table4(scale);
    write_artifact("table4_prebuilt_apps", &t4, &t4.render());
    let t5 = experiments::table5(scale);
    write_artifact("table5_third_party", &t5, &t5.render());
}

fn bench_pipeline(c: &mut Criterion) {
    let spec = AospSpec::android_6_0_1();
    let model = CodeModel::synthesize(&spec);
    let mut group = c.benchmark_group("analysis");
    group.bench_function("corpus_synthesis", |b| {
        b.iter(|| CodeModel::synthesize(std::hint::black_box(&spec)));
    });
    group.bench_function("ipc_method_extractor", |b| {
        b.iter(|| IpcMethodExtractor::new(std::hint::black_box(&model)).extract());
    });
    group.bench_function("jgr_entry_extractor", |b| {
        b.iter(|| JgrEntryExtractor::new(std::hint::black_box(&model)).extract());
    });
    let ipc = IpcMethodExtractor::new(&model).extract();
    let entries = JgrEntryExtractor::new(&model).extract();
    group.bench_function("vulnerable_ipc_detector", |b| {
        b.iter(|| VulnerableIpcDetector::new(std::hint::black_box(&model), &entries).detect(&ipc));
    });
    group.bench_function("static_pipeline_full", |b| {
        let pipeline = Pipeline::new(CodeModel::synthesize(&spec));
        b.iter(|| pipeline.run_static());
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);

fn main() {
    generate_artifacts();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
