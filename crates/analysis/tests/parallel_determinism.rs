//! Parallel-wave determinism: the SCC fan-out deals work to threads
//! round-robin (`jgre_sim::shard`) and folds the results
//! order-independently, so `analyze` must
//! produce byte-identical output for every thread count — here checked
//! 16 times across 1/2/8 workers, on both the raw `DataflowOutput` and
//! the serialized SARIF document.

use jgre_analysis::{
    AnalysisOptions, DataflowDetector, IpcMethodExtractor, JgrEntryExtractor, LintReport,
};
use jgre_corpus::{spec::AospSpec, CodeModel};

#[test]
fn sixteen_runs_across_thread_counts_are_identical() {
    let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let ipc = IpcMethodExtractor::new(&model).extract();
    let entries = JgrEntryExtractor::new(&model).extract();
    let detector = DataflowDetector::new(&model, &entries);

    let baseline = detector.detect_with(&ipc, &AnalysisOptions::default().threads(1));
    for run in 0..16 {
        let threads = [1, 2, 8][run % 3];
        let out = detector.detect_with(&ipc, &AnalysisOptions::default().threads(threads));
        assert_eq!(
            out, baseline,
            "run {run} with {threads} threads diverged from the serial baseline"
        );
    }
}

#[test]
fn sarif_bytes_are_stable_across_thread_counts() {
    let spec = AospSpec::android_6_0_1();
    let model = CodeModel::synthesize(&spec);
    let serial = LintReport::generate_with(&model, &spec, &AnalysisOptions::default().threads(1));
    let serial_sarif = serde_json::to_string_pretty(&serial.to_sarif(&model)).unwrap();
    for threads in [2, 8] {
        let report =
            LintReport::generate_with(&model, &spec, &AnalysisOptions::default().threads(threads));
        assert_eq!(report, serial, "{threads}-thread report diverged");
        let sarif = serde_json::to_string_pretty(&report.to_sarif(&model)).unwrap();
        assert_eq!(sarif, serial_sarif, "{threads}-thread SARIF bytes diverged");
    }
}
