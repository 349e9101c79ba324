//! T-DATAFLOW: times the dataflow leak-check stack — body synthesis +
//! CFG lowering, the whole-corpus fixpoint analysis, the dataflow
//! detector — against the legacy heuristic detector it replaced, plus
//! witness construction and the SARIF lint export.

use criterion::{criterion_group, Criterion};
use jgre_analysis::leakcheck::LeakChecker;
use jgre_analysis::{
    Cfg, DataflowDetector, IpcMethodExtractor, JgrEntryExtractor, LintReport, Witness,
};
use jgre_corpus::{spec::AospSpec, CodeModel};
use jgre_oracles::VulnerableIpcDetector;

fn bench_dataflow(c: &mut Criterion) {
    let spec = AospSpec::android_6_0_1();
    let model = CodeModel::synthesize(&spec);
    let ipc = IpcMethodExtractor::new(&model).extract();
    let entries = JgrEntryExtractor::new(&model).extract();

    let mut group = c.benchmark_group("dataflow");
    group.bench_function("lower_all_cfgs", |b| {
        b.iter(|| {
            let model = std::hint::black_box(&model);
            model
                .methods
                .iter()
                .map(|def| Cfg::lower(&model.method_body(def.id)).blocks.len())
                .sum::<usize>()
        });
    });
    group.bench_function("leakcheck_fixpoint", |b| {
        b.iter(|| LeakChecker::new(std::hint::black_box(&model)).analyze());
    });
    group.bench_function("dataflow_detector", |b| {
        b.iter(|| DataflowDetector::new(std::hint::black_box(&model), &entries).detect(&ipc));
    });
    group.bench_function("legacy_detector_baseline", |b| {
        b.iter(|| VulnerableIpcDetector::new(std::hint::black_box(&model), &entries).detect(&ipc));
    });
    let flow = DataflowDetector::new(&model, &entries).detect(&ipc);
    group.bench_function("witness_build_all_risky", |b| {
        b.iter(|| {
            let mut built = 0usize;
            for row in std::hint::black_box(&flow.verdicts) {
                if !row.verdict.is_risky() {
                    continue;
                }
                let Some(root) = row.ipc.java else { continue };
                for site in &row.sites {
                    built += usize::from(Witness::build(&model, root, site).is_some());
                }
            }
            built
        });
    });
    group.bench_function("lint_report_sarif", |b| {
        let report = LintReport::generate(&model, &spec);
        b.iter(|| report.to_sarif(std::hint::black_box(&model)));
    });
    group.finish();
}

criterion_group!(benches, bench_dataflow);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
