//! T-ANALYSIS: regenerates the §IV headline numbers and Tables I/IV/V at
//! paper scale.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};

fn main() {
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
